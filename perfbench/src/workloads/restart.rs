//! `restart`: set-up builds (through the runtime) one image as a full
//! checkpoint plus 15 deltas of a quarter of the state each; the rounds
//! restart from it again and again — eagerly, lazily, as a two-process
//! storm through one shared page cache — and *resume*: dirty a tenth of the
//! lazily restored state and take one checkpoint.
//!
//! The read path does all the work (`storage.locator`, `read_page_at`,
//! decode, `storage.cache`, the lazy filler); the write path runs only in
//! the resume step, directly beside the reads.
//!
//! An *iteration* here is one restart-and-resume cycle — lazy restore, read
//! everything, dirty a tenth, request the checkpoint — against the same
//! reads and stores on plain memory. (The resume step alone is 820 write
//! faults, ≈ 7 ms: its wall time follows the host's mood, 6.8 ↔ 9.2 ms
//! between identical runs, and could not carry a bound.)

use std::io;
use std::sync::Arc;
use std::time::Instant;

use super::{
    add_io, check_footprint, first_store, io_delta, ms_since, read_all, read_bytes,
    restore_and_check, Env, Samples, Workload,
};
use crate::api::{self, Backend, CkptConfig, Compression, PageCache};
use crate::gen::{permutation, Rng};
use crate::root::RoundRoot;
use crate::trace::{span, span_under};

/// Processes restarting at once in the storm.
const STORM: usize = 2;

pub struct Restart {
    pages: usize,
    deltas: usize,
    base_iters: usize,
    image: Option<Image>,
    /// The tenth of the pages the resume step dirties, fixed for the run.
    resume_set: Vec<u32>,
}

/// The checkpoint chain the rounds restore, with what it must restore to.
struct Image {
    root: RoundRoot,
    seq: u64,
    expect: Vec<u64>,
}

impl Image {
    /// A new handle on the image, as a restarted process would open it.
    fn open(&self) -> io::Result<Backend> {
        Ok(Arc::new(api::open_file_backend(
            self.root.path(),
            Compression::None,
        )?))
    }
}

impl Restart {
    pub fn new(quick: bool) -> Self {
        let (pages, deltas, base_iters) = if quick { (256, 3, 4) } else { (8192, 15, 24) };
        Self {
            pages, // 32 MiB
            deltas,
            base_iters,
            image: None,
            resume_set: Vec::new(),
        }
    }

    fn cfg(&self) -> CkptConfig {
        CkptConfig::ai_ckpt(4 << 20).with_max_pages(self.pages + 16)
    }

    /// One full epoch, then `deltas` epochs rewriting a rotating quarter.
    fn build_image(&self, env: &Env<'_>) -> io::Result<Image> {
        let _s = span("build_image");
        let page = api::page_size();
        let root = env.roots.fresh("image")?;
        let backend: Backend = Arc::new(api::open_file_backend(root.path(), Compression::None)?);
        let mgr = api::manager_new(self.cfg(), Arc::clone(&backend))?;
        let mut state = api::alloc_protected(&mgr, "state", self.state_bytes())?;
        let mut rng = env.rng.fork(0x1A6E);
        let quarter = self.pages / 4;
        for epoch in 0..=self.deltas {
            let (from, count) = if epoch == 0 {
                (0, self.pages)
            } else {
                ((epoch * quarter) % self.pages, quarter)
            };
            rng.fill(&mut state.as_mut_slice()[from * page..(from + count) * page]);
            api::checkpoint(&mgr)?;
        }
        api::wait_checkpoint(&mgr)?;
        let seq = *backend
            .epochs()?
            .last()
            .ok_or_else(|| io::Error::other("image build committed nothing"))?;
        let expect = super::digests([&state]);
        drop(state);
        drop(mgr);
        drop(backend);
        Ok(Image { root, seq, expect })
    }
}

/// Rewrite the resume set with fresh bytes.
fn dirty(state: &mut [u8], page: usize, set: &[u32], rng: &mut Rng, stalls: &mut Vec<u32>) {
    for &p in set {
        let mem = &mut state[p as usize * page..(p as usize + 1) * page];
        stalls.push(first_store(mem));
        rng.fill(mem);
    }
}

impl Workload for Restart {
    fn state_bytes(&self) -> usize {
        self.pages * api::page_size()
    }

    fn prepare(&mut self, env: &Env<'_>, out: &mut Samples) -> io::Result<()> {
        let page = api::page_size();
        let mut set = permutation(self.pages, &mut env.rng.fork(0x5E7));
        set.truncate(self.pages / 10);
        self.resume_set = set;
        let mut rng = env.rng.fork(0xBA5E);
        let mut plain = vec![0u8; self.state_bytes()];
        let mut scratch = Vec::with_capacity(self.resume_set.len());
        for i in 0..=self.base_iters {
            scratch.clear();
            let t = Instant::now();
            read_bytes(&plain);
            dirty(&mut plain, page, &self.resume_set, &mut rng, &mut scratch);
            if i > 0 {
                out.base_iter_ms.push(ms_since(t));
            }
        }
        self.image = None; // drop the previous image before building the next
        self.image = Some(self.build_image(env)?);
        Ok(())
    }

    fn round(&mut self, env: &Env<'_>, round: u64, out: &mut Samples) -> io::Result<()> {
        let _r = span("round");
        let page = api::page_size();
        let image = self
            .image
            .as_ref()
            .ok_or_else(|| io::Error::other("round before prepare"))?;
        let cfg = self.cfg();

        // Eager, then lazy (first read, full read sweep, wait).
        let (mgr, mut lazy) =
            restore_and_check(&cfg, &|| image.open(), &image.expect, (1, 1), out)?;
        // The handle the lazy restore opened: resume writes through it.
        let backend = Arc::clone(mgr.backend());
        let restart_ms = *out
            .lazy_total_ms
            .last()
            .expect("restore_and_check sampled its lazy restore");

        // Resume from the lazily restored state: dirty a tenth, take one
        // checkpoint. The manager is fresh, so this is its first epoch and
        // its dirty set is exactly what was just stored.
        {
            let _s = span("resume");
            let mut rng = env.rng.fork(round);
            // The handle has served a restore already, so its cumulative
            // counters are read as differences around the resume step.
            let (stored_before, io_before) = (backend.bytes_stored(), backend.io_stats());
            let written_before = backend.bytes_written();
            let t0 = Instant::now();
            {
                let _s = span("app.sweep");
                let state = lazy.state.buffers[0].as_mut_slice();
                dirty(state, page, &self.resume_set, &mut rng, &mut out.stall_ns);
            }
            let tc = Instant::now();
            let called = api::checkpoint(&mgr);
            out.ckpt_call_ms.push(ms_since(tc));
            out.iter_ms.push(restart_ms + ms_since(t0));
            out.op(called.is_ok(), "resume checkpoint()");
            let tw = Instant::now();
            let waited = api::wait_checkpoint(&mgr);
            out.final_wait_ms.push(ms_since(tw));
            out.timed_wall_s += t0.elapsed().as_secs_f64();
            if let Err(e) = waited {
                eprintln!("resume wait_checkpoint: {e}");
            }
            let stats = api::runtime_stats(&mgr);
            let committed = stats
                .checkpoints
                .last()
                .filter(|c| !c.failed)
                .and_then(|c| c.duration.map(|d| (d, c.scheduled_bytes)));
            match committed {
                Some((d, bytes)) => {
                    out.commit_ms.push(d.as_secs_f64() * 1e3);
                    out.committed_bytes += bytes;
                    out.scheduled_bytes += bytes;
                }
                None => {
                    out.failed += 1;
                    eprintln!("FAILED: resume checkpoint did not commit");
                }
            }
            out.stored_bytes += backend.bytes_stored() - stored_before;
            out.add(
                "storage.bytes_written",
                (backend.bytes_written() - written_before) as f64,
            );
            add_io(&io_delta(&backend.io_stats(), &io_before), out);
            out.add("runtime.epochs", 1.0);
            out.add("core.lock_acq", stats.engine_lock_acquisitions as f64);
            out.add(
                "core.flushed_pages",
                stats.streams.iter().map(|s| s.pages).sum::<u64>() as f64,
            );
        }
        check_footprint(Some(image.root.path()), out);
        // Put the chain back the way set-up left it, so every round
        // restores the same image: retire the resume epoch.
        let idle = api::wait_maintenance_idle(&mgr);
        out.op(idle.is_ok(), "wait_maintenance_idle");
        let resumed: Vec<u64> = backend
            .epochs()?
            .into_iter()
            .filter(|&e| e > image.seq)
            .collect();
        drop(lazy);
        drop(mgr);
        backend.remove_epochs(&resumed)?;

        // The storm: STORM processes restart at once through one shared
        // page cache; each page should be read from storage exactly once.
        {
            let storm = span("storm");
            let backend = &image.open()?;
            // Twice the state: the storm never evicts.
            let cache = Arc::new(PageCache::new(2 * self.state_bytes()));
            let reads_before = backend.io_stats().page_reads;
            let t = Instant::now();
            let results: Vec<io::Result<bool>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..STORM)
                    .map(|_| {
                        let (cache, cfg) = (Arc::clone(&cache), cfg.clone());
                        let (parent, expect) = (storm.id(), &image.expect);
                        s.spawn(move || -> io::Result<bool> {
                            let _s = span_under("storm.restorer", parent);
                            let mgr = api::manager_new(cfg, Arc::clone(backend))?;
                            let mut lazy = api::restore_lazy(
                                &mgr,
                                Arc::clone(backend),
                                image.seq,
                                Some(cache),
                            )?;
                            read_all(&lazy.state.buffers);
                            api::lazy_wait(&mut lazy)?;
                            Ok(&super::digests(&lazy.state.buffers) == expect)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err(io::Error::other("restorer panicked")))
                    })
                    .collect()
            });
            out.storm_ms.push(ms_since(t));
            for r in &results {
                out.op(r.is_ok(), "storm restore");
                out.op(
                    matches!(r, Ok(true)),
                    "storm restore reproduces the live bytes",
                );
            }
            let cs = cache.stats();
            out.add("storage.cache.hits", cs.hits as f64);
            out.add("storage.cache.misses", cs.misses as f64);
            let storm_reads = backend.io_stats().page_reads - reads_before;
            out.add("storage.cache.storm_reads", storm_reads as f64);
            out.add("storage.cache.storm_pages", self.pages as f64);
            out.op(
                storm_reads == self.pages as u64,
                "the storm reads each page from storage exactly once",
            );
        }
        out.rounds += 1;
        Ok(())
    }
}
