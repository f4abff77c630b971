//! `dense_fast`: every page rewritten with incompressible bytes each epoch,
//! onto a file backend that is faster than the application can fault.
//!
//! Storage keeps up, so the scheduler has nothing to decide (WAIT ≈ 0) and
//! the numbers are made by the `mem` fault path (8192 first stores per
//! epoch) and the `storage.file` write engine (pwritev, group fsync,
//! manifest append). Codec and content filter are off; the read path runs
//! only in the end-of-round restores.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use super::{
    check_footprint, first_store, harvest, ms_since, restore_and_check, run_epochs, Env, Samples,
    Workload,
};
use crate::api::{self, Backend, CkptConfig, Compression};
use crate::gen::Rng;
use crate::trace::span;

pub struct DenseFast {
    pages: usize,
    epochs: usize,
    base_iters: usize,
    /// (eager, lazy) restarts per round. An eager restore replays the whole
    /// 24-epoch chain (≈ 1 s) and is steady; a lazy one costs a quarter of
    /// that, so it is sampled three times.
    restores: (usize, usize),
}

impl DenseFast {
    pub fn new(quick: bool) -> Self {
        if quick {
            Self {
                pages: 256,
                epochs: 4,
                base_iters: 4,
                restores: (1, 1),
            }
        } else {
            Self {
                pages: 8192, // 32 MiB
                epochs: 24,
                base_iters: 16,
                restores: (1, 3),
            }
        }
    }

    fn cfg(&self) -> CkptConfig {
        CkptConfig::ai_ckpt(4 << 20).with_max_pages(self.pages + 16)
    }
}

/// Rewrite every page with fresh random bytes.
fn sweep(state: &mut [u8], page: usize, rng: &mut Rng, stalls: &mut Vec<u32>) {
    for p in state.chunks_exact_mut(page) {
        stalls.push(first_store(p));
        rng.fill(p);
    }
}

impl Workload for DenseFast {
    fn state_bytes(&self) -> usize {
        self.pages * api::page_size()
    }

    fn prepare(&mut self, env: &Env<'_>, out: &mut Samples) -> io::Result<()> {
        let page = api::page_size();
        let mut rng = env.rng.fork(0xBA5E);
        let mut plain = vec![0u8; self.state_bytes()];
        let mut scratch = Vec::with_capacity(self.pages);
        sweep(&mut plain, page, &mut rng, &mut scratch); // fault the heap in
        for _ in 0..self.base_iters {
            scratch.clear();
            let t = Instant::now();
            sweep(&mut plain, page, &mut rng, &mut scratch);
            out.base_iter_ms.push(ms_since(t));
        }
        // Dry build of the program stack the rounds use, so set-up cost of
        // the program itself is part of `setup_s`.
        let root = env.roots.fresh("dense-setup")?;
        let backend: Backend = Arc::new(api::open_file_backend(root.path(), Compression::None)?);
        let mgr = api::manager_new(self.cfg(), backend)?;
        drop(api::alloc_protected(&mgr, "state", self.state_bytes())?);
        Ok(())
    }

    fn round(&mut self, env: &Env<'_>, round: u64, out: &mut Samples) -> io::Result<()> {
        let _r = span("round");
        let page = api::page_size();
        let root = env.roots.fresh("dense")?;
        let expect = {
            let backend: Backend =
                Arc::new(api::open_file_backend(root.path(), Compression::None)?);
            let mgr = api::manager_new(self.cfg(), Arc::clone(&backend))?;
            let t = Instant::now();
            let mut state = api::alloc_protected(&mgr, "state", self.state_bytes())?;
            out.alloc_ms.push(ms_since(t));
            let mut rng = env.rng.fork(round);
            run_epochs(
                &mgr,
                &mut state,
                self.epochs,
                &mut |mem, _epoch, stalls| sweep(mem, page, &mut rng, stalls),
                out,
            );
            harvest(&mgr, &backend, self.epochs, out);
            check_footprint(Some(root.path()), out);
            super::digests([&state])
        };
        // Restart from the root the way a new process would.
        let reopen = || -> io::Result<Backend> {
            Ok(Arc::new(api::open_file_backend(
                root.path(),
                Compression::None,
            )?))
        };
        restore_and_check(&self.cfg(), &reopen, &expect, self.restores, out)?;
        out.rounds += 1;
        Ok(())
    }
}
