//! `paced_slow`: the paper's Fig. 2 regime. The application sweeps its
//! state in a fixed random page order with real compute per page; the
//! device is throttled so that flushing the region takes 1.3 times as long
//! as the application's first (faulting) sweep of an epoch.
//!
//! Flush is slower than the application, so what matters is which page the
//! committer writes next: `core` scheduling, the CoW slab and WAIT decide
//! the result, and the speed of the storage engine underneath (an in-memory
//! backend behind the throttle) is irrelevant. One committer stream and
//! per-page claims, as in `fig2`: the paper's single `ASYNC_COMMIT` thread,
//! so a `WaitedPage` hint is never stuck behind a batch of throttled I/O.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use super::{
    check_footprint, first_store, harvest, ms_since, restore_and_check, run_epochs, Env, Samples,
    Workload,
};
use crate::api::{self, Backend, CkptConfig, MemoryBackend};
use crate::gen::{mix_page, permutation};
use crate::stats::median;
use crate::trace::span;

/// Device time to flush the whole region, in *faulting* sweeps (the first
/// sweep after a checkpoint, every store a write fault) — the sweep the
/// committer races. Calibrating against the plain-memory sweep instead puts
/// committer and application neck and neck on this box, and the run then
/// settles at random into "committer ahead" (AVOIDED ≈ 3000, CoW ≈ 70 per
/// epoch) or "application ahead" (CoW ≈ 3200), 35 % apart in commit time.
const FLUSH_SWEEPS: f64 = 1.3;

pub struct PacedSlow {
    pages: usize,
    epochs: usize,
    sweeps_per_epoch: usize,
    passes: u32,
    base_iters: usize,
    /// (eager, lazy) restarts per round.
    restores: (usize, usize),
    order: Vec<u32>,
    /// Wall of one faulting sweep with no flush active, in seconds (sets
    /// the throttle).
    faulting_sweep_s: f64,
}

impl PacedSlow {
    pub fn new(quick: bool) -> Self {
        let (pages, epochs, base_iters) = if quick { (256, 3, 2) } else { (4096, 20, 4) };
        Self {
            pages, // 16 MiB
            epochs,
            sweeps_per_epoch: 3,
            passes: 10,
            base_iters,
            restores: if quick { (1, 1) } else { (2, 2) },
            order: Vec::new(),
            faulting_sweep_s: 0.0,
        }
    }

    fn cfg(&self) -> CkptConfig {
        let cow_bytes = self.pages * api::page_size() / 16;
        CkptConfig::ai_ckpt(cow_bytes)
            .with_max_pages(self.pages + 16)
            .with_committer_streams(1)
            .with_flush_batch_pages(1)
    }

    fn bandwidth(&self) -> f64 {
        self.state_bytes() as f64 / (FLUSH_SWEEPS * self.faulting_sweep_s)
    }
}

/// One epoch of application work: `sweeps` passes over the pages in
/// `order`, each page mixed `passes` times. `salt` makes every sweep of a
/// run write different bytes.
fn iterate(
    state: &mut [u8],
    page: usize,
    order: &[u32],
    sweeps: usize,
    passes: u32,
    salt: u64,
    stalls: &mut Vec<u32>,
) {
    for s in 0..sweeps {
        for &p in order {
            let at = p as usize * page;
            let mem = &mut state[at..at + page];
            if s == 0 {
                stalls.push(first_store(mem));
            }
            mix_page(mem, passes, salt.wrapping_add(s as u64));
        }
    }
}

impl Workload for PacedSlow {
    fn state_bytes(&self) -> usize {
        self.pages * api::page_size()
    }

    fn prepare(&mut self, env: &Env<'_>, out: &mut Samples) -> io::Result<()> {
        let page = api::page_size();
        self.order = permutation(self.pages, &mut env.rng.fork(0x0DE2));
        let mut plain = vec![0u8; self.state_bytes()];
        env.rng.fork(0xF111).fill(&mut plain);
        let mut scratch = Vec::with_capacity(self.pages);
        let mut iters = Vec::new();
        for i in 0..=self.base_iters {
            scratch.clear();
            let t = Instant::now();
            iterate(
                &mut plain,
                page,
                &self.order,
                self.sweeps_per_epoch,
                self.passes,
                i as u64,
                &mut scratch,
            );
            if i > 0 {
                iters.push(ms_since(t)); // i == 0 faults the heap in
            }
        }
        out.base_iter_ms.extend(iters);
        // Dry build of the program stack; its first sweep — every store a
        // fault, nothing flushing — is the pace the throttle is set against.
        let mgr = api::manager_new(self.cfg(), Arc::new(MemoryBackend::new()))?;
        let mut state = api::alloc_protected(&mgr, "state", self.state_bytes())?;
        let mut sweeps = Vec::new();
        for i in 0..3 {
            scratch.clear();
            let t = Instant::now();
            iterate(
                state.as_mut_slice(),
                page,
                &self.order,
                1,
                self.passes,
                i,
                &mut scratch,
            );
            sweeps.push(ms_since(t));
            api::checkpoint(&mgr)?; // re-protect, so the next sweep faults again
            api::wait_checkpoint(&mgr)?;
        }
        self.faulting_sweep_s = median(&sweeps) / 1e3;
        Ok(())
    }

    fn round(&mut self, env: &Env<'_>, round: u64, out: &mut Samples) -> io::Result<()> {
        let _r = span("round");
        let page = api::page_size();
        // Two handles on one in-memory store: the throttled one the run
        // writes through, and the one a restarted process reads.
        let (store, reopened) = MemoryBackend::shared();
        let expect = {
            let throttled = Arc::new(api::throttled_memory(store, self.bandwidth()));
            let backend: Backend = throttled.clone();
            let mgr = api::manager_new(self.cfg(), Arc::clone(&backend))?;
            let t = Instant::now();
            let mut state = api::alloc_protected(&mgr, "state", self.state_bytes())?;
            out.alloc_ms.push(ms_since(t));
            env.rng.fork(round).fill(state.as_mut_slice());
            let (order, sweeps, passes) = (&self.order, self.sweeps_per_epoch, self.passes);
            run_epochs(
                &mgr,
                &mut state,
                self.epochs,
                &mut |mem, epoch, stalls| {
                    let salt = round.wrapping_mul(1 << 20).wrapping_add(epoch as u64 * 16);
                    iterate(mem, page, order, sweeps, passes, salt, stalls);
                },
                out,
            );
            harvest(&mgr, &backend, self.epochs, out);
            check_footprint(None, out); // the store is in memory: all RSS
            out.add(
                "storage.throttle.sleep_ms",
                throttled.throttled_time().as_secs_f64() * 1e3,
            );
            super::digests([&state])
        };
        let reopen = || -> io::Result<Backend> { Ok(Arc::new(reopened.clone())) };
        restore_and_check(&self.cfg(), &reopen, &expect, self.restores, out)?;
        out.rounds += 1;
        Ok(())
    }
}
