//! `sparse_content`: each epoch touches a rotating half of the state; half
//! of the touched pages are re-stored with the bytes they already hold
//! (clean-dirty), the other half get compressible new content.
//!
//! The content pipeline does the work: the digest filter drops the
//! clean-dirty half before any I/O, the codec shrinks the rest to about an
//! eighth, record CRCs are computed over all of it, and background
//! compaction rewrites the chain beside the foreground writes. Bytes that
//! reach storage are ≈7 % of the bytes dirtied, so a change to `pwritev` or
//! fsync must show nothing here.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use super::{
    check_footprint, first_store, harvest, ms_since, restore_and_check, run_epochs, Env, Samples,
    Workload,
};
use crate::api::{self, Backend, CkptConfig, CompactionPolicy, Compression};
use crate::gen::{fill_mixed, Rng};
use crate::trace::span;

pub struct SparseContent {
    pages: usize,
    epochs: usize,
    base_iters: usize,
    /// (eager, lazy) restarts per round: rounds are long here, so each is
    /// restored from twice.
    restores: (usize, usize),
}

impl SparseContent {
    pub fn new(quick: bool) -> Self {
        if quick {
            Self {
                pages: 256,
                epochs: 10,
                base_iters: 4,
                restores: (1, 1),
            }
        } else {
            Self {
                pages: 8192, // 32 MiB
                epochs: 48,
                base_iters: 24,
                restores: (2, 2),
            }
        }
    }

    fn cfg(&self) -> CkptConfig {
        CkptConfig::ai_ckpt(4 << 20)
            .with_max_pages(self.pages + 16)
            .with_content_filter(true)
            .with_compaction(CompactionPolicy::chain_len(8))
    }
}

/// One epoch's stores. Epoch 0 fills the whole state; later epochs touch
/// the half-window starting at `epoch × pages/8`, and of each adjacent page
/// pair a seeded coin picks the one that changes — exactly half change,
/// whatever the seed.
fn iterate(state: &mut [u8], page: usize, epoch: usize, rng: &mut Rng, stalls: &mut Vec<u32>) {
    let pages = state.len() / page;
    let mut store = |idx: usize, change: bool, rng: &mut Rng| {
        let mem = &mut state[idx * page..(idx + 1) * page];
        stalls.push(first_store(mem));
        if change {
            fill_mixed(mem, rng);
        }
    };
    if epoch == 0 {
        (0..pages).for_each(|idx| store(idx, true, rng));
        return;
    }
    let start = epoch * (pages / 8);
    for pair in 0..pages / 4 {
        let a = (start + 2 * pair) % pages;
        let b = (start + 2 * pair + 1) % pages;
        let pick = rng.next_u64() & 1 == 0;
        store(a, pick, rng);
        store(b, !pick, rng);
    }
}

impl Workload for SparseContent {
    fn state_bytes(&self) -> usize {
        self.pages * api::page_size()
    }

    fn prepare(&mut self, env: &Env<'_>, out: &mut Samples) -> io::Result<()> {
        let page = api::page_size();
        let mut rng = env.rng.fork(0xBA5E);
        let mut plain = vec![0u8; self.state_bytes()];
        let mut scratch = Vec::with_capacity(self.pages);
        for epoch in 0..=self.base_iters {
            scratch.clear();
            let t = Instant::now();
            iterate(&mut plain, page, epoch, &mut rng, &mut scratch);
            if epoch > 0 {
                out.base_iter_ms.push(ms_since(t));
            }
        }
        let root = env.roots.fresh("sparse-setup")?;
        let backend: Backend = Arc::new(api::open_file_backend(root.path(), Compression::Auto)?);
        let mgr = api::manager_new(self.cfg(), backend)?;
        drop(api::alloc_protected(&mgr, "state", self.state_bytes())?);
        Ok(())
    }

    fn round(&mut self, env: &Env<'_>, round: u64, out: &mut Samples) -> io::Result<()> {
        let _r = span("round");
        let page = api::page_size();
        let root = env.roots.fresh("sparse")?;
        let expect = {
            let backend: Backend =
                Arc::new(api::open_file_backend(root.path(), Compression::Auto)?);
            let mgr = api::manager_new(self.cfg(), Arc::clone(&backend))?;
            let t = Instant::now();
            let mut state = api::alloc_protected(&mgr, "state", self.state_bytes())?;
            out.alloc_ms.push(ms_since(t));
            let mut rng = env.rng.fork(round);
            run_epochs(
                &mgr,
                &mut state,
                self.epochs,
                &mut |mem, epoch, stalls| iterate(mem, page, epoch, &mut rng, stalls),
                out,
            );
            // Let compaction catch up before counting it and before a
            // second process opens the directory.
            let idle = api::wait_maintenance_idle(&mgr);
            out.op(idle.is_ok(), "wait_maintenance_idle");
            harvest(&mgr, &backend, self.epochs, out);
            check_footprint(Some(root.path()), out);
            // Where background folding left the chain depends on timing;
            // fold the rest, as an orderly shutdown would, so that every
            // round restarts from the same thing: one full segment of
            // encoded records.
            let folded = api::compact_all(backend.as_ref());
            out.op(folded.is_ok(), "final compaction");
            super::digests([&state])
        };
        let reopen = || -> io::Result<Backend> {
            Ok(Arc::new(api::open_file_backend(
                root.path(),
                Compression::Auto,
            )?))
        };
        restore_and_check(&self.cfg(), &reopen, &expect, self.restores, out)?;
        out.rounds += 1;
        Ok(())
    }
}
