//! Stress the fault path under thread contention: many threads writing the
//! SAME pages concurrently while the committer flushes — exercising the
//! racing-CoW (`AlreadyHandled`), double-wait and spinlock paths that
//! single-threaded tests cannot reach. Every scenario runs across multiple
//! committer-stream counts: 1 (the paper's single `ASYNC_COMMIT` thread), 2
//! and 8 (oversubscribed pipeline).

use std::time::Duration;

use ai_ckpt::{CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::failing::{Fault, When};
use ai_ckpt_storage::{
    CheckpointImage, FailingBackend, FaultOp, MemoryBackend, StorageBackend, ThrottledBackend,
};

/// The stream counts every stress scenario is exercised with.
const STREAM_COUNTS: [usize; 3] = [1, 2, 8];

fn racing_writers_with_streams(streams: usize) {
    let ps = page_size();
    let pages = 32;
    let threads = 4;
    let (mem, view) = MemoryBackend::shared();
    let backend = ThrottledBackend::new(mem, 16.0 * 1024.0 * 1024.0, Duration::ZERO);
    let cfg = CkptConfig::ai_ckpt(4 * ps)
        .with_committer_streams(streams)
        .with_flush_batch_pages(4);
    let mgr = PageManager::new(cfg, Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected(pages * ps).unwrap();
    let base = buf.base_page() as u64;

    for epoch in 1..=4u8 {
        let ptr = buf.as_mut_slice().as_mut_ptr() as usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    // Every thread writes every page, thread t owning byte t
                    // of each page: maximal same-page fault contention, but
                    // disjoint bytes so the final content is deterministic.
                    for p in 0..pages {
                        // SAFETY: in-bounds, disjoint byte per thread.
                        unsafe {
                            ((ptr + p * ps + t) as *mut u8)
                                .write_volatile(epoch.wrapping_add(t as u8));
                        }
                    }
                });
            }
        });
        // Quiesce, then checkpoint (the documented contract).
        mgr.checkpoint().unwrap();
    }
    mgr.wait_checkpoint().unwrap();

    // Every epoch's image carries that epoch's bytes for all threads.
    for epoch in 1..=4u8 {
        let img = CheckpointImage::load(&view, epoch as u64).unwrap();
        assert_eq!(
            img.len(),
            pages,
            "epoch {epoch} page count ({streams} streams)"
        );
        for p in 0..pages as u64 {
            let data = img.page(base + p).unwrap();
            for (t, &byte) in data.iter().enumerate().take(threads) {
                assert_eq!(
                    byte,
                    epoch.wrapping_add(t as u8),
                    "epoch {epoch}, page {p}, thread-byte {t} ({streams} streams)"
                );
            }
        }
    }
    // Every configured stream is reported; together they flushed every page.
    let stats = mgr.stats();
    assert_eq!(stats.streams.len(), streams);
    let total_pages: u64 = stats.streams.iter().map(|s| s.pages).sum();
    assert_eq!(total_pages, 4 * pages as u64, "{streams} streams");
}

#[test]
fn racing_writers_on_shared_pages() {
    for streams in STREAM_COUNTS {
        racing_writers_with_streams(streams);
    }
}

#[test]
fn multi_stream_restore_is_byte_identical_to_single_stream() {
    // The acceptance bar for the flush pipeline: the number of committer
    // streams is invisible in the persisted data. Run the same deterministic
    // workload under 1 and 4 streams and diff the restore images per epoch.
    let ps = page_size();
    let pages = 48;
    let run = |streams: usize| {
        let (mem, view) = MemoryBackend::shared();
        let cfg = CkptConfig::ai_ckpt(4 * ps)
            .with_committer_streams(streams)
            .with_flush_batch_pages(3);
        let mgr = PageManager::new(cfg, Box::new(mem)).unwrap();
        let mut buf = mgr.alloc_protected_named("state", pages * ps).unwrap();
        let base = buf.base_page() as u64;
        for epoch in 1..=3u8 {
            let slice = buf.as_mut_slice();
            for p in 0..pages {
                if (p + epoch as usize).is_multiple_of(epoch as usize + 1) {
                    slice[p * ps..p * ps + 8].fill(epoch.wrapping_mul(17) ^ p as u8);
                }
            }
            mgr.checkpoint().unwrap();
        }
        mgr.wait_checkpoint().unwrap();
        let mut images = Vec::new();
        for epoch in 1..=3u64 {
            let img = CheckpointImage::load(&view, epoch).unwrap();
            images.push(
                img.iter()
                    .map(|(p, d)| (p - base, d.to_vec()))
                    .collect::<Vec<_>>(),
            );
        }
        images
    };
    let single = run(1);
    let multi = run(4);
    assert_eq!(single, multi, "restore images differ between stream counts");
}

#[test]
fn mid_epoch_stream_error_aborts_epoch_atomically() {
    // A storage error on one stream mid-epoch must (a) wake every blocked
    // writer, (b) surface the error, and (c) leave NO trace of the epoch —
    // not a partial one — while later checkpoints commit normally.
    let ps = page_size();
    let pages = 64;
    for streams in STREAM_COUNTS {
        let (mem, view) = MemoryBackend::shared();
        let (backend, control) = FailingBackend::new(mem);
        let cfg = CkptConfig::ai_ckpt(0)
            .with_committer_streams(streams)
            .with_flush_batch_pages(4);
        let mgr = PageManager::new(cfg, Box::new(backend)).unwrap();
        let mut buf = mgr.alloc_protected(pages * ps).unwrap();
        buf.as_mut_slice().fill(1);
        // Fail after ~a third of the epoch's records: several streams are
        // mid-flight when the error hits.
        control.arm(
            When::Kind(FaultOp::Write),
            Fault::FailAfter(pages as u64 / 3),
        );
        mgr.checkpoint().unwrap();
        // Writers racing the failing flush must not deadlock (no CoW slots:
        // every conflicting write blocks until its page is "processed").
        buf.as_mut_slice().fill(2);
        let err = mgr.wait_checkpoint().unwrap_err();
        assert!(err.to_string().contains("injected"), "got: {err}");
        assert!(
            view.epochs().unwrap().is_empty(),
            "failed epoch visible with {streams} streams"
        );
        assert!(
            view.total_pages() == 0,
            "aborted epoch leaked records with {streams} streams"
        );

        // The runtime stays usable: heal and commit the next checkpoint.
        control.heal();
        buf.as_mut_slice().fill(3);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        assert_eq!(view.epochs().unwrap(), vec![2], "{streams} streams");
        let img = CheckpointImage::load(&view, 2).unwrap();
        let base = buf.base_page() as u64;
        for p in 0..pages as u64 {
            assert!(
                img.page(base + p).unwrap().iter().all(|&b| b == 3),
                "epoch 2 content wrong with {streams} streams"
            );
        }
        let stats = mgr.stats();
        assert!(stats.checkpoints[0].failed);
        assert!(!stats.checkpoints[1].failed);
    }
}

#[test]
fn many_buffers_many_epochs_interleaved_drops() {
    // Allocation/deallocation churn concurrent with checkpoints: buffers
    // come and go between epochs; the layout follows.
    let ps = page_size();
    let (mem, view) = MemoryBackend::shared();
    let backend = ThrottledBackend::new(mem, 32.0 * 1024.0 * 1024.0, Duration::ZERO);
    let mgr = PageManager::new(CkptConfig::ai_ckpt(2 * ps), Box::new(backend)).unwrap();

    let mut keep = Vec::new();
    for round in 0..6u8 {
        let mut b = mgr
            .alloc_protected_named(&format!("round{round}"), 4 * ps)
            .unwrap();
        b.as_mut_slice().fill(round + 1);
        if round % 2 == 0 {
            keep.push(b); // odd rounds: buffer dropped mid-epoch below
        }
        mgr.checkpoint().unwrap();
    }
    mgr.wait_checkpoint().unwrap();

    // Kept buffers' pages are in the final image with their fill values;
    // dropped buffers' pages may or may not appear (they were discarded),
    // but restore of kept state must be exact.
    let img = CheckpointImage::load_latest(&view).unwrap().unwrap();
    for (i, b) in keep.iter().enumerate() {
        let round = (i * 2) as u8;
        let base = b.base_page() as u64;
        for p in 0..b.pages() as u64 {
            let data = img
                .page(base + p)
                .unwrap_or_else(|| panic!("kept round{round} page {p} missing"));
            assert!(data.iter().all(|&x| x == round + 1));
        }
    }
}

#[test]
fn checkpoint_storm() {
    // Back-to-back checkpoints with minimal dirty sets: exercises the
    // CHECKPOINT wait path (Algorithm 1 lines 2-4) repeatedly.
    let ps = page_size();
    let (mem, view) = MemoryBackend::shared();
    let backend = ThrottledBackend::new(mem, 8.0 * 1024.0 * 1024.0, Duration::ZERO);
    let mgr = PageManager::new(CkptConfig::ai_ckpt(ps), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected(8 * ps).unwrap();
    for i in 0..20u8 {
        buf.as_mut_slice()[(i as usize % 8) * ps] = i;
        mgr.checkpoint().unwrap();
    }
    mgr.wait_checkpoint().unwrap();
    assert_eq!(view.epochs().unwrap().len(), 20);
    let stats = mgr.stats();
    assert_eq!(stats.checkpoints.len(), 20);
    assert!(stats.checkpoints.iter().all(|c| !c.failed));
}
