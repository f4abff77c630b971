//! End-to-end tests of the content-aware clean-dirty filter: pages that
//! fault but are byte-identical to their last committed version must be
//! dropped before any I/O, without ever changing what a restore produces.

use ai_ckpt::{restore_latest, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{is_page, CheckpointImage, MemoryBackend};

fn cfg(filter: bool) -> CkptConfig {
    CkptConfig::ai_ckpt(1 << 20)
        .with_max_pages(256)
        .with_content_filter(filter)
}

/// Page records epoch `epoch` holds (its layout record is not a page).
fn page_records(view: &MemoryBackend, epoch: u64) -> usize {
    let records = view.epoch_records(epoch).unwrap();
    records.iter().filter(|(id, _)| is_page(*id)).count()
}

/// Touch every page of `buf` (forcing a fault), writing `make(page_index)`
/// into its first byte — re-writing the same value leaves the page
/// byte-identical while still dirtying it.
fn touch_all(buf: &mut ai_ckpt::ProtectedBuffer, make: impl Fn(usize) -> u8) {
    let ps = page_size();
    let slice = buf.as_mut_slice();
    let pages = slice.len() / ps;
    for p in 0..pages {
        slice[p * ps] = make(p);
    }
}

#[test]
fn clean_dirty_pages_are_skipped_before_io() {
    let (backend, view) = MemoryBackend::shared();
    let mgr = PageManager::new(cfg(true), Box::new(backend)).unwrap();
    let pages = 8usize;
    let mut buf = mgr.alloc_protected_named("s", pages * page_size()).unwrap();

    touch_all(&mut buf, |p| p as u8 + 1);
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    assert_eq!(mgr.stats().pages_skipped_clean, 0, "first epoch all novel");
    assert_eq!(page_records(&view, 1), pages);

    // Epoch 2: every page faults again, but only the upper half changes
    // content (page-granularity false sharing for the lower half).
    touch_all(
        &mut buf,
        |p| if p < 4 { p as u8 + 1 } else { 0xB0 + p as u8 },
    );
    let plan = mgr.checkpoint().unwrap();
    assert_eq!(plan.scheduled_pages, pages as u64, "all pages are dirty");
    mgr.wait_checkpoint().unwrap();

    let stats = mgr.stats();
    assert_eq!(stats.pages_skipped_clean, 4, "clean-dirty half dropped");
    assert_eq!(stats.bytes_skipped, 4 * page_size() as u64);
    assert_eq!(
        page_records(&view, 2),
        4,
        "only changed pages reached storage"
    );

    // The restored image still sees every page at its latest content.
    let img = CheckpointImage::load(&view, 2).unwrap();
    let base = buf.base_page() as u64;
    for p in 0..pages {
        let want = if p < 4 { p as u8 + 1 } else { 0xB0 + p as u8 };
        assert_eq!(img.page(base + p as u64).unwrap()[0], want, "page {p}");
    }
}

#[test]
fn filter_on_and_off_restore_byte_identically() {
    // The same workload, filter on vs. off: restores must be equal, byte
    // for byte, at every checkpoint.
    let run = |filter: bool| {
        let (backend, view) = MemoryBackend::shared();
        let mgr = PageManager::new(cfg(filter), Box::new(backend)).unwrap();
        let mut buf = mgr.alloc_protected_named("s", 16 * page_size()).unwrap();
        for epoch in 0..5u8 {
            // A mix: constant pages, epoch-dependent pages, and pages that
            // alternate between two values (clean-dirty every other epoch).
            touch_all(&mut buf, |p| match p % 3 {
                0 => 7,
                1 => epoch,
                _ => (epoch % 2) * 10,
            });
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
        }
        let images: Vec<CheckpointImage> = (1..=5)
            .map(|e| CheckpointImage::load(&view, e).unwrap())
            .collect();
        (images, mgr.stats().pages_skipped_clean)
    };
    let (with, skipped_on) = run(true);
    let (without, skipped_off) = run(false);
    assert_eq!(with, without, "filter must never change restored bytes");
    assert!(skipped_on > 0, "the alternating workload has clean epochs");
    assert_eq!(skipped_off, 0);
}

#[test]
fn restore_seeds_digests_so_first_checkpoint_stays_incremental() {
    let (backend, view) = MemoryBackend::shared();
    let pages = 16usize;
    {
        let mgr = PageManager::new(cfg(true), Box::new(backend.clone())).unwrap();
        let mut buf = mgr.alloc_protected_named("s", pages * page_size()).unwrap();
        touch_all(&mut buf, |p| p as u8 + 1);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        // Manager dropped: simulated crash after a durable checkpoint.
    }
    let mgr = PageManager::new(cfg(true), Box::new(backend.clone())).unwrap();
    let mut restored = restore_latest(&mgr, &view).unwrap().expect("a checkpoint");
    assert_eq!(restored.checkpoint, 1);
    let buf = &mut restored.buffers[0];
    let ps = page_size();
    // The restart changes exactly one page before its first checkpoint.
    buf.as_mut_slice()[0] = 0xEE;
    let plan = mgr.checkpoint().unwrap();
    assert_eq!(
        plan.scheduled_pages, 1,
        "restored pages are clean: only the written page is dirty"
    );
    mgr.wait_checkpoint().unwrap();
    assert_eq!(mgr.stats().pages_skipped_clean, 0);
    assert_eq!(
        page_records(&view, 2),
        1,
        "only the changed page was flushed"
    );

    // What fill-time seeding is for: a page rewritten with its *restored*
    // bytes faults, is scheduled, and is dropped by the filter — storage
    // already holds exactly those bytes.
    buf.as_mut_slice()[5 * ps] = 6;
    let plan = mgr.checkpoint().unwrap();
    assert_eq!(plan.scheduled_pages, 1, "the rewritten page is dirty");
    mgr.wait_checkpoint().unwrap();
    assert_eq!(
        mgr.stats().pages_skipped_clean,
        1,
        "restore seeded the digest of the bytes it filled"
    );
    assert_eq!(page_records(&view, 3), 0);
    let live = buf.as_slice().to_vec();

    // Chain continuity across "eager restore -> incremental checkpoints":
    // the head restores, through both the runtime and the reference
    // replay, to exactly the bytes the restarted application holds.
    let img = CheckpointImage::load(&view, 3).unwrap();
    let base = buf.base_page() as u64;
    assert_eq!(img.page(base).unwrap()[0], 0xEE);
    for p in 1..pages as u64 {
        assert_eq!(img.page(base + p).unwrap()[0], p as u8 + 1);
    }
    let fresh = PageManager::new(cfg(true), Box::new(backend.clone())).unwrap();
    let again = restore_latest(&fresh, &view)
        .unwrap()
        .expect("a checkpoint");
    assert_eq!(again.checkpoint, 3);
    assert!(
        again.buffers[0].as_slice() == live,
        "restore of the post-restart epoch diverged from the live bytes"
    );
}
