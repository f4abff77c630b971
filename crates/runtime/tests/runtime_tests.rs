//! End-to-end tests of the mprotect/SIGSEGV runtime: real page faults, real
//! background committer, real storage backends.

use std::time::Duration;

use ai_ckpt::{restore_latest, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::failing::{Fault, When};
use ai_ckpt_storage::{
    CheckpointImage, FailingBackend, FaultOp, MemoryBackend, StorageBackend, ThrottledBackend,
};

fn fill_pages(buf: &mut ai_ckpt::ProtectedBuffer, val: u8) {
    let ps = page_size();
    let slice = buf.as_mut_slice();
    let len = slice.len();
    for page_start in (0..len).step_by(ps) {
        slice[page_start..(page_start + ps).min(len)].fill(val);
    }
}

#[test]
fn first_checkpoint_captures_written_pages() {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(CkptConfig::ai_ckpt(1 << 20), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected_named("a", 4 * page_size()).unwrap();
    // Touch pages 0 and 2 only.
    buf.as_mut_slice()[0] = 11;
    buf.as_mut_slice()[2 * page_size()] = 22;
    let plan = mgr.checkpoint().unwrap();
    assert_eq!(plan.scheduled_pages, 2, "incremental: only touched pages");
    mgr.wait_checkpoint().unwrap();

    let img = CheckpointImage::load(&view, 1).unwrap();
    assert_eq!(img.len(), 2);
    assert_eq!(img.page(buf.base_page() as u64).unwrap()[0], 11);
    assert_eq!(img.page(buf.base_page() as u64 + 2).unwrap()[0], 22);
}

#[test]
fn incremental_chain_latest_wins() {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(CkptConfig::ai_ckpt(1 << 20), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected(2 * page_size()).unwrap();

    buf.as_mut_slice().fill(1);
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();

    // Epoch 2: only page 1 changes.
    buf.as_mut_slice()[page_size()] = 99;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();

    let stats = mgr.stats();
    assert_eq!(stats.checkpoints[0].scheduled_pages, 2);
    assert_eq!(stats.checkpoints[1].scheduled_pages, 1, "incremental");

    let img = CheckpointImage::load(&view, 2).unwrap();
    let base = buf.base_page() as u64;
    assert_eq!(img.page(base).unwrap()[0], 1, "page 0 from epoch 1");
    assert_eq!(img.page(base + 1).unwrap()[0], 99, "page 1 from epoch 2");
    assert_eq!(
        img.page(base + 1).unwrap()[1],
        1,
        "rest of page 1 unchanged"
    );
}

#[test]
fn snapshot_consistency_under_concurrent_writes() {
    // Throttle storage so the flush demonstrably overlaps the writes.
    let (mem, view) = MemoryBackend::shared();
    let backend = ThrottledBackend::new(mem, 8.0 * 1024.0 * 1024.0, Duration::ZERO);
    // One committer stream: the throttle is per-stream, and the test needs
    // the flush to stay slow enough to demonstrably overlap the writes.
    let cfg = CkptConfig::ai_ckpt(4 * page_size()).with_committer_streams(1);
    let mgr = PageManager::new(cfg, Box::new(backend)).unwrap();
    let pages = 64;
    let mut buf = mgr.alloc_protected(pages * page_size()).unwrap();

    fill_pages(&mut buf, 7);
    mgr.checkpoint().unwrap(); // checkpoint 1 captures all-7s
                               // Immediately overwrite everything with 8s while the flush is running.
    fill_pages(&mut buf, 8);
    mgr.wait_checkpoint().unwrap();

    let img = CheckpointImage::load(&view, 1).unwrap();
    let base = buf.base_page() as u64;
    for p in 0..pages as u64 {
        let data = img.page(base + p).unwrap();
        assert!(
            data.iter().all(|&b| b == 7),
            "page {p} leaked post-checkpoint bytes into checkpoint 1"
        );
    }
    // The interference must have produced CoW or WAIT accesses.
    let stats = mgr.stats();
    let live = stats.live_epoch;
    assert_eq!(live.dirty_pages, pages as u64);
    assert!(
        live.cow + live.wait > 0,
        "no interference recorded; throttling too weak? stats: {live:?}"
    );

    // Checkpoint 2 must capture the 8s.
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    let img2 = CheckpointImage::load(&view, 2).unwrap();
    for p in 0..pages as u64 {
        assert!(img2.page(base + p).unwrap().iter().all(|&b| b == 8));
    }
}

#[test]
fn sync_mode_blocks_until_durable() {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(CkptConfig::sync(), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected(8 * page_size()).unwrap();
    fill_pages(&mut buf, 3);
    mgr.checkpoint().unwrap(); // sync: returns only when committed
    assert!(!mgr.checkpoint_in_progress());
    assert_eq!(view.epochs().unwrap(), vec![1]);
    let rec = &mgr.stats().checkpoints[0];
    assert!(rec.duration.is_some());
    assert!(!rec.failed);
}

#[test]
fn committer_failure_surfaces_and_epoch_not_committed() {
    let (mem, view) = MemoryBackend::shared();
    let (backend, control) = FailingBackend::new(mem);
    let mgr = PageManager::new(CkptConfig::ai_ckpt(0), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected(4 * page_size()).unwrap();
    fill_pages(&mut buf, 5);
    control.arm(When::Kind(FaultOp::Write), Fault::FailAfter(2));
    mgr.checkpoint().unwrap();
    let err = mgr.wait_checkpoint().unwrap_err();
    assert!(err.to_string().contains("injected"), "got: {err}");
    assert!(view.epochs().unwrap().is_empty(), "failed epoch invisible");

    // The runtime stays usable: heal and checkpoint again.
    control.heal();
    fill_pages(&mut buf, 6);
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    let epochs = view.epochs().unwrap();
    assert_eq!(epochs, vec![2], "second checkpoint commits");
    let stats = mgr.stats();
    assert!(stats.checkpoints[0].failed);
    assert!(!stats.checkpoints[1].failed);
}

/// A requeue asked for while its checkpoint still flushes waits for the
/// flush: none of its pages is taken as written after `CHECKPOINT`, so a
/// write that follows is still kept out of the flushed epoch.
#[test]
fn requeue_during_a_flush_waits_for_it() {
    let (mem, view) = MemoryBackend::shared();
    let backend = ThrottledBackend::new(mem, 8.0 * 1024.0 * 1024.0, Duration::ZERO);
    let cfg = CkptConfig::ai_ckpt(4 * page_size()).with_committer_streams(1);
    let mgr = PageManager::new(cfg, Box::new(backend)).unwrap();
    let pages = 32;
    let mut buf = mgr.alloc_protected(pages * page_size()).unwrap();
    fill_pages(&mut buf, 7);
    mgr.checkpoint().unwrap();
    mgr.requeue_last_checkpoint();
    assert!(!mgr.checkpoint_in_progress());
    fill_pages(&mut buf, 8);
    mgr.wait_checkpoint().unwrap();
    let base = buf.base_page() as u64;
    let img = CheckpointImage::load(&view, 1).unwrap();
    assert!((0..pages as u64).all(|p| img.page(base + p).unwrap().iter().all(|&b| b == 7)));
    assert_eq!(mgr.checkpoint().unwrap().scheduled_pages, pages as u64);
    mgr.wait_checkpoint().unwrap();
}

#[test]
fn restore_round_trip_two_buffers() {
    let (backend, view) = MemoryBackend::shared();
    let base_page_a;
    {
        let mgr = PageManager::new(CkptConfig::ai_ckpt(1 << 20), Box::new(backend)).unwrap();
        let mut a = mgr.alloc_protected_named("grid", 3 * page_size()).unwrap();
        let mut b = mgr.alloc_protected_named("halo", page_size()).unwrap();
        base_page_a = a.base_page();
        a.as_mut_slice()[5] = 41;
        a.as_mut_slice()[2 * page_size()] = 42;
        b.as_mut_slice()[0] = 43;
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        // Second epoch modifies one page.
        a.as_mut_slice()[5] = 141;
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        // "Crash": manager and buffers dropped here.
    }

    let mgr = PageManager::new(CkptConfig::ai_ckpt(1 << 20), Box::new(view.clone())).unwrap();
    let restored = restore_latest(&mgr, &view)
        .unwrap()
        .expect("checkpoints exist");
    assert_eq!(restored.checkpoint, 2);
    assert_eq!(restored.buffers.len(), 2);
    let a = &restored.buffers[restored.by_name["grid"]];
    let b = &restored.buffers[restored.by_name["halo"]];
    assert_eq!(a.base_page(), base_page_a, "layout replayed identically");
    assert_eq!(a.as_slice()[5], 141, "latest version restored");
    assert_eq!(a.as_slice()[2 * page_size()], 42, "older epoch data kept");
    assert_eq!(a.as_slice()[6], 0, "untouched bytes are zero");
    assert_eq!(b.as_slice()[0], 43);
}

#[test]
fn many_epochs_stress() {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(CkptConfig::ai_ckpt(2 * page_size()), Box::new(backend)).unwrap();
    let pages = 16;
    let mut buf = mgr.alloc_protected(pages * page_size()).unwrap();
    for epoch in 0..10u8 {
        // Rotate which half of the pages is dirtied.
        let start = if epoch % 2 == 0 { 0 } else { pages / 2 };
        let slice = buf.as_mut_slice();
        for p in start..start + pages / 2 {
            slice[p * page_size()] = epoch + 1;
        }
        mgr.checkpoint().unwrap();
    }
    mgr.wait_checkpoint().unwrap();
    assert_eq!(view.epochs().unwrap().len(), 10);
    let img = CheckpointImage::load(&view, 10).unwrap();
    let base = buf.base_page() as u64;
    // Epoch 10 (dirty set from epoch 9, val 10 at second half's first write)
    assert_eq!(
        img.page(base).unwrap()[0],
        9,
        "even epochs write first half"
    );
    assert_eq!(
        img.page(base + pages as u64 / 2).unwrap()[0],
        10,
        "odd epochs write second half"
    );
}

#[test]
fn empty_checkpoint_commits_cleanly() {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(CkptConfig::ai_ckpt(0), Box::new(backend)).unwrap();
    let _buf = mgr.alloc_protected(page_size()).unwrap();
    let plan = mgr.checkpoint().unwrap();
    assert_eq!(
        plan.scheduled_pages, 0,
        "nothing written, nothing scheduled"
    );
    mgr.wait_checkpoint().unwrap();
    assert_eq!(view.epochs().unwrap(), vec![1], "epoch exists regardless");
}

#[test]
fn no_pattern_runtime_works_end_to_end() {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(CkptConfig::async_no_pattern(1 << 16), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected(8 * page_size()).unwrap();
    fill_pages(&mut buf, 1);
    mgr.checkpoint().unwrap();
    fill_pages(&mut buf, 2);
    mgr.wait_checkpoint().unwrap();
    let img = CheckpointImage::load(&view, 1).unwrap();
    let base = buf.base_page() as u64;
    for p in 0..8 {
        assert!(img.page(base + p).unwrap().iter().all(|&b| b == 1));
    }
}

#[test]
fn typed_views() {
    let (backend, _view) = MemoryBackend::shared();
    let mgr = PageManager::new(CkptConfig::ai_ckpt(0), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected(page_size()).unwrap();
    {
        let cells = buf.as_mut_slice_of::<f64>();
        assert_eq!(cells.len(), page_size() / 8);
        cells[7] = 3.25;
    }
    assert_eq!(buf.as_slice_of::<f64>()[7], 3.25);
    assert_eq!(buf.len(), page_size());
    assert!(!buf.is_empty());
}
