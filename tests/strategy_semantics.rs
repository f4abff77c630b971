//! Strategy equivalence: every flush-ordering policy must persist exactly
//! the same data — the scheduler affects *when* pages reach storage, never
//! *what* — and the same incremental set.

use ai_ckpt::{CkptConfig, PageManager, SchedulerKind};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{is_page, CheckpointImage, MemoryBackend, StorageBackend};

fn run_with(cfg: CkptConfig) -> (Vec<(u64, Vec<u8>)>, u64) {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(cfg, Box::new(backend)).unwrap();
    let pages = 24;
    let mut buf = mgr.alloc_protected(pages * page_size()).unwrap();
    let base = buf.base_page() as u64;
    let ps = page_size();
    // Two epochs with different dirty sets.
    {
        let s = buf.as_mut_slice();
        for p in 0..pages {
            s[p * ps] = p as u8 + 1;
        }
    }
    mgr.checkpoint().unwrap();
    {
        let s = buf.as_mut_slice();
        for p in (0..pages).step_by(3) {
            s[p * ps + 1] = 100 + p as u8;
        }
    }
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    let img = CheckpointImage::load(&view, 2).unwrap();
    (
        img.iter().map(|(p, d)| (p - base, d.to_vec())).collect(),
        img.len() as u64,
    )
}

#[test]
fn all_schedulers_persist_identical_data() {
    let reference = run_with(CkptConfig::ai_ckpt(2 * page_size()));
    let candidates = [
        CkptConfig::async_no_pattern(2 * page_size()),
        CkptConfig::sync(),
        CkptConfig::ai_ckpt(0),
        CkptConfig::ai_ckpt(2 * page_size()).with_scheduler(SchedulerKind::ReverseAddress),
        CkptConfig::ai_ckpt(2 * page_size()).with_scheduler(SchedulerKind::AccessOrder),
        CkptConfig::ai_ckpt(2 * page_size()).with_scheduler(SchedulerKind::Random(1234)),
    ];
    for cfg in candidates {
        let got = run_with(cfg.clone());
        assert_eq!(
            got, reference,
            "scheduler {:?} persisted different data",
            cfg.scheduler
        );
    }
}

#[test]
fn incremental_sets_match_across_strategies() {
    // The second checkpoint must contain exactly the pages dirtied in
    // epoch 1 (every 3rd page), for every strategy.
    for cfg in [
        CkptConfig::ai_ckpt(2 * page_size()),
        CkptConfig::async_no_pattern(0),
        CkptConfig::sync(),
    ] {
        let (backend, view) = MemoryBackend::shared();
        let mgr = PageManager::new(cfg, Box::new(backend)).unwrap();
        let pages = 24;
        let mut buf = mgr.alloc_protected(pages * page_size()).unwrap();
        let ps = page_size();
        buf.as_mut_slice().fill(1);
        mgr.checkpoint().unwrap();
        {
            let s = buf.as_mut_slice();
            for p in (0..pages).step_by(3) {
                s[p * ps] = 2;
            }
        }
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        let mut dirty2 = Vec::new();
        view.read_epoch(2, &mut |p, _| {
            if is_page(p) {
                dirty2.push(p - buf.base_page() as u64);
            }
        })
        .unwrap();
        dirty2.sort_unstable();
        let want: Vec<u64> = (0..pages as u64).step_by(3).collect();
        assert_eq!(dirty2, want);
    }
}
