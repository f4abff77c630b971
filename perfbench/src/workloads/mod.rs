//! The five workloads and the harness they share.
//!
//! Every workload is a checkpoint/restart life cycle — set up, iterate with
//! checkpoints, restart from what was stored, check the bytes — so every
//! end-to-end metric is defined on every workload. They differ in where the
//! time goes: each is built so that one group of layers does the work and
//! another is bypassed (see `README.md` and the `why` texts in
//! `BENCHMARK.json`).
//!
//! Work is fixed per *round* (a fresh storage root, deleted afterwards);
//! a run is as many rounds as fit in `--seconds`. Load is closed-loop from
//! one application thread (two for the restore storm).

pub mod dense_fast;
pub mod paced_slow;
pub mod restart;
pub mod sparse_content;
pub mod tenants_round;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::api::{self, Backend, CkptConfig, PageManager, ProtectedBuffer};
use crate::gen::Rng;
use crate::root::RootGuard;
use crate::trace::span;

/// Names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    "dense_fast",
    "paced_slow",
    "sparse_content",
    "restart",
    "tenants_round",
];

pub fn by_name(name: &str, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dense_fast" => Box::new(dense_fast::DenseFast::new(quick)),
        "paced_slow" => Box::new(paced_slow::PacedSlow::new(quick)),
        "sparse_content" => Box::new(sparse_content::SparseContent::new(quick)),
        "restart" => Box::new(restart::Restart::new(quick)),
        "tenants_round" => Box::new(tenants_round::TenantsRound::new(quick)),
        _ => return None,
    })
}

/// What a workload gets from the runner.
pub struct Env<'a> {
    pub roots: &'a RootGuard,
    /// Root generator of this run and workload; fork it, never advance it,
    /// so a round's inputs do not depend on how many rounds came before.
    pub rng: Rng,
}

pub trait Workload {
    /// Bytes of protected state; host calibration and the layer probes run
    /// at this size.
    fn state_bytes(&self) -> usize;

    /// One complete set-up: generate inputs, time the checkpoint-free
    /// baseline (into `out.base_iter_ms`), and build whatever the rounds
    /// start from. Called several times per run; the runner times each call
    /// and reports the median as `setup_s`.
    fn prepare(&mut self, env: &Env<'_>, out: &mut Samples) -> io::Result<()>;

    /// One round of fixed work on a fresh root, including its restores and
    /// the byte-for-byte check.
    fn round(&mut self, env: &Env<'_>, round: u64, out: &mut Samples) -> io::Result<()>;
}

/// Everything one pass measures, pooled over its rounds.
#[derive(Debug, Default)]
pub struct Samples {
    /// Iteration wall on plain heap memory, no checkpointing.
    pub base_iter_ms: Vec<f64>,
    /// Iteration wall with checkpointing (application work + `checkpoint()`
    /// call); each round's first, full epoch excluded.
    pub iter_ms: Vec<f64>,
    /// First store to each page per epoch, timed by the benchmark.
    pub stall_ns: Vec<u32>,
    /// `CheckpointRecord::duration`, first epoch of each round excluded (on
    /// `tenants_round`: first submit to last wait of a service round).
    pub commit_ms: Vec<f64>,
    pub ckpt_call_ms: Vec<f64>,
    pub final_wait_ms: Vec<f64>,
    pub alloc_ms: Vec<f64>,
    pub restore_eager_ms: Vec<f64>,
    pub lazy_ttfi_ms: Vec<f64>,
    pub lazy_total_ms: Vec<f64>,
    pub storm_ms: Vec<f64>,
    pub light_commit_ms: Vec<f64>,
    /// Bytes the runtime scheduled for flushing / bytes that reached storage.
    pub scheduled_bytes: u64,
    pub stored_bytes: u64,
    /// Bytes committed by the timed iterations, and their wall time.
    pub committed_bytes: u64,
    pub timed_wall_s: f64,
    /// Counters summed over rounds, keyed by the layer metric they feed.
    pub counts: BTreeMap<&'static str, f64>,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    pub fn max(&mut self, key: &'static str, v: f64) {
        let slot = self.counts.entry(key).or_insert(0.0);
        *slot = slot.max(v);
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Record one operation's outcome; a failure is counted, not fatal, so
    /// the run still reports how many operations failed.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The first store to a page this epoch — the store that faults when the
/// page is protected. Rewrites the byte already there (through `black_box`,
/// so the compiler cannot prove the store redundant) and returns the time
/// it took. Baseline sweeps make the same call on plain memory, so clock
/// and call overhead cancel in `iter_overhead_ms`.
#[inline(always)]
pub fn first_store(page: &mut [u8]) -> u32 {
    let t = Instant::now();
    page[0] = black_box(page[0]);
    t.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// One epoch of application stores: `(state, epoch, stalls)`.
pub type App<'a> = dyn FnMut(&mut [u8], usize, &mut Vec<u32>) + 'a;

/// `epochs` iterations of `app` + `checkpoint()` on one manager, recorded
/// into `out`. `app(state, epoch, stalls)` performs the epoch's stores,
/// timing each page's first through [`first_store`]. The first epoch (the
/// full checkpoint) is run but not sampled.
pub fn run_epochs(
    mgr: &PageManager,
    buf: &mut ProtectedBuffer,
    epochs: usize,
    app: &mut App<'_>,
    out: &mut Samples,
) {
    let timed_from = Instant::now();
    let mut first_wall = 0.0;
    for epoch in 0..epochs {
        let _e = span("epoch");
        let mark = out.stall_ns.len();
        let t0 = Instant::now();
        {
            let _s = span("app.sweep");
            app(buf.as_mut_slice(), epoch, &mut out.stall_ns);
        }
        let tc = Instant::now();
        let called = api::checkpoint(mgr);
        let call_ms = ms_since(tc);
        let iter_ms = ms_since(t0);
        out.op(called.is_ok(), "checkpoint()");
        if epoch == 0 {
            out.stall_ns.truncate(mark);
            first_wall = timed_from.elapsed().as_secs_f64();
        } else {
            out.iter_ms.push(iter_ms);
            out.ckpt_call_ms.push(call_ms);
        }
    }
    let tw = Instant::now();
    let waited = api::wait_checkpoint(mgr);
    out.final_wait_ms.push(ms_since(tw));
    if let Err(e) = waited {
        // The record carries the failure; `harvest` counts it.
        eprintln!("final wait_checkpoint: {e}");
    }
    out.timed_wall_s += timed_from.elapsed().as_secs_f64() - first_wall;
}

/// Byte totals and access-type counts of one manager's checkpoint records.
pub fn fold_records(records: &[api::CheckpointRecord], out: &mut Samples) {
    for (i, rec) in records.iter().enumerate() {
        out.scheduled_bytes += rec.scheduled_bytes;
        if i > 0 {
            out.committed_bytes += rec.scheduled_bytes;
        }
        // Epoch k (k >= 1) is the interval during which checkpoint k
        // flushed; epoch 1 overlaps the full checkpoint and is excluded
        // like the first iteration.
        let e = &rec.closed_epoch;
        if e.epoch >= 2 {
            out.add("core.epochs", 1.0);
            out.add("core.wait_pages", e.wait as f64);
            out.add("core.cow_pages", e.cow as f64);
            out.add("core.avoided_pages", e.avoided as f64);
        }
    }
    out.add("runtime.epochs", records.len() as f64);
}

/// Fold one manager's end-of-round statistics into `out`. `calls` is how
/// many `checkpoint()` calls the round made on it (already counted as
/// attempted by [`run_epochs`]); any of them without a successful record is
/// a failure the call itself may not have reported.
pub fn harvest(mgr: &PageManager, backend: &Backend, calls: usize, out: &mut Samples) {
    let stats = api::runtime_stats(mgr);
    let good = stats
        .checkpoints
        .iter()
        .filter(|c| !c.failed && c.duration.is_some())
        .count();
    if good < calls {
        out.failed += (calls - good) as u64;
        eprintln!(
            "FAILED: {} of {calls} checkpoints did not commit",
            calls - good
        );
    }
    fold_records(&stats.checkpoints, out);
    out.commit_ms.extend(
        stats
            .checkpoints
            .iter()
            .skip(1)
            .filter_map(|rec| rec.duration)
            .map(|d| d.as_secs_f64() * 1e3),
    );
    out.stored_bytes += backend.bytes_stored();
    out.add("storage.bytes_written", backend.bytes_written() as f64);
    let flushed: u64 = stats.streams.iter().map(|s| s.pages).sum();
    out.add("core.lock_acq", stats.engine_lock_acquisitions as f64);
    out.add("core.flushed_pages", flushed as f64);
    out.add(
        "runtime.pages_skipped_clean",
        stats.pages_skipped_clean as f64,
    );
    out.add(
        "runtime.maint_compactions",
        stats.maintenance.compactions as f64,
    );
    out.add(
        "runtime.maint_bytes_reclaimed",
        stats.maintenance.bytes_reclaimed as f64,
    );
    out.add(
        "runtime.scrub_bytes_verified",
        stats.integrity.bytes_verified as f64,
    );
    add_io(&stats.io, out);
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Largest live footprint a round may have: past ≈2 GiB of guest memory
/// this VM backs pages lazily and every timing shifts, so rounds stay well
/// below it.
const FOOTPRINT_LIMIT_MIB: f64 = 1024.0;

/// Guard the footprint rule at the round's fullest moment (chain complete,
/// state still live): what the root holds plus the resident set, heaps and
/// in-memory backends included.
pub fn check_footprint(root: Option<&Path>, out: &mut Samples) {
    let on_storage = root.map_or(0, dir_bytes) as f64 / (1u64 << 20) as f64;
    let mib = on_storage + crate::host::rss_mib();
    out.max("footprint_mib", mib);
    out.op(
        mib <= FOOTPRINT_LIMIT_MIB,
        "round's live footprint stays within 1 GiB",
    );
}

pub fn add_io(io: &api::IoStats, out: &mut Samples) {
    out.add("io.vectored_writes", io.vectored_writes as f64);
    out.add("io.write_syscall_bytes", io.write_syscall_bytes as f64);
    out.add("io.segment_fsyncs", io.segment_fsyncs as f64);
    out.add("io.manifest_fsyncs", io.manifest_fsyncs as f64);
    out.add("io.dir_fsyncs", io.dir_fsyncs as f64);
}

/// Counters accumulated between two snapshots of one backend.
pub fn io_delta(after: &api::IoStats, before: &api::IoStats) -> api::IoStats {
    api::IoStats {
        vectored_writes: after.vectored_writes - before.vectored_writes,
        write_syscall_bytes: after.write_syscall_bytes - before.write_syscall_bytes,
        segment_fsyncs: after.segment_fsyncs - before.segment_fsyncs,
        manifest_appends: after.manifest_appends - before.manifest_appends,
        manifest_fsyncs: after.manifest_fsyncs - before.manifest_fsyncs,
        dir_fsyncs: after.dir_fsyncs - before.dir_fsyncs,
        page_reads: after.page_reads - before.page_reads,
    }
}

/// CRC-64 of each buffer's bytes: what a restore must reproduce.
pub fn digests<'a>(buffers: impl IntoIterator<Item = &'a ProtectedBuffer>) -> Vec<u64> {
    let _s = span("verify.crc64");
    buffers
        .into_iter()
        .map(|b| api::crc64(b.as_slice()))
        .collect()
}

fn same_bytes(restored: &[ProtectedBuffer], expect: &[u64]) -> bool {
    digests(restored) == expect
}

/// Restore the newest checkpoint into fresh managers and compare the
/// restored bytes with `expect` (the application's live copy at its last
/// checkpoint): `eager` times eagerly, then `lazy` times lazily, every
/// restore timed. Each restore goes through its own `reopen()`ed backend
/// handle, as a restarted process would: a handle that has served a restore
/// keeps its segment index, and a second restore through it is a warm one
/// (lazy first read 5 ms instead of 140 ms on `dense_fast`). Rounds that are
/// long restore several times, so the medians get enough samples per run.
///
/// Returns the last lazily restored state, complete and checked, for
/// callers that carry on from it (the `restart` workload's resume step).
pub fn restore_and_check(
    cfg: &CkptConfig,
    reopen: &dyn Fn() -> io::Result<Backend>,
    expect: &[u64],
    (eager, lazy): (usize, usize),
    out: &mut Samples,
) -> io::Result<(PageManager, api::LazyRestore)> {
    let _s = span("restore_and_check");
    for _ in 0..eager {
        let backend = reopen()?;
        let mgr = api::manager_new(cfg.clone(), Arc::clone(&backend))?;
        let t = Instant::now();
        let restored = api::restore_eager(&mgr, backend.as_ref());
        out.restore_eager_ms.push(ms_since(t));
        out.op(restored.is_ok(), "eager restore");
        let same = matches!(&restored, Ok(Some(r)) if same_bytes(&r.buffers, expect));
        out.op(same, "eager restore reproduces the live bytes");
    }
    let mut last = None;
    for _ in 0..lazy.max(1) {
        drop(last.take()); // one restored copy alive at a time
        last = Some(lazy_restore_and_check(cfg, &reopen()?, expect, out)?);
    }
    Ok(last.expect("at least one lazy restore ran"))
}

fn lazy_restore_and_check(
    cfg: &CkptConfig,
    backend: &Backend,
    expect: &[u64],
    out: &mut Samples,
) -> io::Result<(PageManager, api::LazyRestore)> {
    let seq = *backend
        .epochs()?
        .last()
        .ok_or_else(|| io::Error::other("nothing committed to restore"))?;
    let mgr = api::manager_new(cfg.clone(), Arc::clone(backend))?;
    let t = Instant::now();
    let mut lazy = api::restore_lazy(&mgr, Arc::clone(backend), seq, None)?;
    {
        // Time to first instruction: one byte in the middle of the state,
        // which the newest-first prefetch order has no reason to favour.
        let _s = span("app.first_read");
        let first = &lazy.state.buffers[0];
        black_box(first.as_slice()[first.len() / 2]);
    }
    out.lazy_ttfi_ms.push(ms_since(t));
    {
        // The restarted application reads everything, racing the filler.
        let _s = span("app.read_sweep");
        read_all(&lazy.state.buffers);
    }
    let filled = api::lazy_wait(&mut lazy);
    out.lazy_total_ms.push(ms_since(t));
    out.op(filled.is_ok(), "lazy restore");
    if let Ok(rs) = filled {
        out.add("runtime.lazy_demand_faults", rs.demand_faults as f64);
        out.add("runtime.lazy_prefetched_pages", rs.prefetched_pages as f64);
        out.add("runtime.lazy_pages_from_cache", rs.pages_from_cache as f64);
        out.add("runtime.lazy_restores", 1.0);
    }
    let same = same_bytes(&lazy.state.buffers, expect);
    out.op(same, "lazy restore reproduces the live bytes");
    Ok((mgr, lazy))
}

/// Read every byte (one load per cache line would do for faulting; summing
/// all of them keeps the sweep honest about bandwidth).
pub fn read_bytes(bytes: &[u8]) -> u64 {
    let mut sum = 0u64;
    for w in bytes.chunks_exact(8) {
        sum = sum.wrapping_add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    black_box(sum)
}

/// Read every byte of every buffer.
pub fn read_all(buffers: &[ProtectedBuffer]) -> u64 {
    buffers
        .iter()
        .fold(0, |sum, b| sum.wrapping_add(read_bytes(b.as_slice())))
}
