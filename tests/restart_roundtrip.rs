//! Cross-crate integration: the full checkpoint → crash → restore cycle
//! through every storage composition (file, replicated, parity), verifying
//! byte-exact recovery of the protected state.

use ai_ckpt::{restore_at, restore_latest, restore_latest_cached, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    is_page, CheckpointImage, FileBackend, MemoryBackend, PageCache, ParityBackend,
    ReplicatedBackend, StorageBackend,
};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ai-ckpt-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic content for page `p` at epoch `e`.
fn fill(buf: &mut ai_ckpt::ProtectedBuffer, pages: &[usize], e: u8) {
    let ps = page_size();
    let slice = buf.as_mut_slice();
    for &p in pages {
        let v = (p as u8).wrapping_mul(31).wrapping_add(e);
        slice[p * ps..(p + 1) * ps].fill(v);
    }
}

#[test]
fn file_backend_three_epoch_restart() {
    let dir = tmpdir("file3");
    {
        let mgr = PageManager::new(
            CkptConfig::ai_ckpt(1 << 16),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let mut buf = mgr.alloc_protected_named("state", 8 * page_size()).unwrap();
        fill(&mut buf, &[0, 1, 2, 3, 4, 5, 6, 7], 1);
        mgr.checkpoint().unwrap();
        fill(&mut buf, &[2, 3], 2);
        mgr.checkpoint().unwrap();
        fill(&mut buf, &[3, 7], 3);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    // Fresh process: restore the latest checkpoint.
    let mgr = PageManager::new(
        CkptConfig::ai_ckpt(1 << 16),
        Box::new(FileBackend::open(&dir).unwrap()),
    )
    .unwrap();
    let view = FileBackend::open(&dir).unwrap();
    let restored = restore_latest(&mgr, &view).unwrap().unwrap();
    assert_eq!(restored.checkpoint, 3);
    let buf = &restored.buffers[restored.by_name["state"]];
    let ps = page_size();
    let s = buf.as_slice();
    // Page 3 was rewritten at epoch 3; page 2 at epoch 2; page 0 at epoch 1.
    assert_eq!(s[3 * ps], 3u8.wrapping_mul(31).wrapping_add(3));
    assert_eq!(s[7 * ps], 7u8.wrapping_mul(31).wrapping_add(3));
    assert_eq!(s[2 * ps], 2u8.wrapping_mul(31).wrapping_add(2));
    assert_eq!(s[0], 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `0..n` in a seeded random order (Fisher–Yates over xorshift64).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut x = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// An image whose recorded first-write order is a random permutation —
/// nothing address-contiguous for a publication batch to coalesce — comes
/// back exact through both eager doors, readable without a fault, and
/// tracked: the next checkpoint holds exactly the pages written since.
#[test]
fn eager_restore_of_a_randomly_ordered_image_is_exact_and_tracked() {
    const PAGES: usize = 96;
    let ps = page_size();
    let cfg = || CkptConfig::ai_ckpt(1 << 16);
    for door in ["restore_at", "restore_latest_cached"] {
        let dir = tmpdir(&format!("permuted-{door}"));
        {
            let mgr = PageManager::new(cfg(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
            let mut buf = mgr.alloc_protected_named("state", PAGES * ps).unwrap();
            fill(&mut buf, &permutation(PAGES, 7), 1);
            mgr.checkpoint().unwrap();
            fill(&mut buf, &permutation(PAGES, 11)[..PAGES / 2], 2);
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
        }
        let mgr = PageManager::new(cfg(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
        let view = FileBackend::open(&dir).unwrap();
        let cache = PageCache::new(2 * PAGES * ps);
        let restored = match door {
            "restore_at" => restore_at(&mgr, &view, 2).unwrap(),
            _ => restore_latest_cached(&mgr, &view, Some(&cache))
                .unwrap()
                .unwrap(),
        };
        let image = CheckpointImage::load(&view, 2).unwrap();
        let faults = mgr.stats().write_stall.count;
        let state = restored.by_name["state"];
        let mut bufs = restored.buffers;
        let base = bufs[state].base_page() as u64;
        for p in 0..PAGES {
            let page = &bufs[state].as_slice()[p * ps..(p + 1) * ps];
            assert_eq!(Some(page), image.page(base + p as u64), "{door}: page {p}");
        }
        assert_eq!(
            mgr.stats().write_stall.count,
            faults,
            "{door}: reading the restored pages faulted"
        );
        let written = [70, 3, 41, 40];
        fill(&mut bufs[state], &written, 9);
        let next = mgr.checkpoint().unwrap().checkpoint;
        mgr.wait_checkpoint().unwrap();
        let mut stored: Vec<u64> = view.epoch_page_ids(next).unwrap();
        stored.retain(|&p| is_page(p));
        stored.sort_unstable();
        assert_eq!(
            stored,
            [3, 40, 41, 70].map(|p| base + p),
            "{door}: the next checkpoint holds exactly the pages written since"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn restore_at_earlier_checkpoint() {
    let dir = tmpdir("earlier");
    {
        let mgr = PageManager::new(
            CkptConfig::ai_ckpt(0),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let mut buf = mgr.alloc_protected_named("v", 2 * page_size()).unwrap();
        fill(&mut buf, &[0, 1], 1);
        mgr.checkpoint().unwrap();
        fill(&mut buf, &[1], 2);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    let mgr = PageManager::new(
        CkptConfig::ai_ckpt(0),
        Box::new(FileBackend::open(&dir).unwrap()),
    )
    .unwrap();
    let view = FileBackend::open(&dir).unwrap();
    let restored = restore_at(&mgr, &view, 1).unwrap();
    let ps = page_size();
    let s = restored.buffers[0].as_slice();
    assert_eq!(
        s[ps],
        1u8.wrapping_mul(31).wrapping_add(1),
        "epoch-1 version"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_continues_epoch_numbering() {
    let dir = tmpdir("continue");
    {
        let mgr = PageManager::new(
            CkptConfig::ai_ckpt(0),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let mut buf = mgr.alloc_protected_named("x", page_size()).unwrap();
        fill(&mut buf, &[0], 1);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    // Second life: restore, mutate, checkpoint again.
    {
        let mgr = PageManager::new(
            CkptConfig::ai_ckpt(0),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let view = FileBackend::open(&dir).unwrap();
        let restored = restore_latest(&mgr, &view).unwrap().unwrap();
        assert_eq!(restored.checkpoint, 1);
        let mut bufs = restored.buffers;
        fill(&mut bufs[0], &[0], 9);
        let plan = mgr.checkpoint().unwrap();
        assert_eq!(plan.checkpoint, 2, "numbering continues after restart");
        mgr.wait_checkpoint().unwrap();
    }
    // Third life sees both epochs.
    let view = FileBackend::open(&dir).unwrap();
    assert_eq!(view.epochs().unwrap(), vec![1, 2]);
    let img = CheckpointImage::load(&view, 2).unwrap();
    let (_, data) = img.iter().next().unwrap();
    assert_eq!(data[0], 9u8.wrapping_add(0u8.wrapping_mul(31)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replicated_parity_composition_survives_loss() {
    // Replication over two in-memory stores, each parity-protected: the
    // "belt and braces" composition from DESIGN.md.
    let (a, _a_view) = MemoryBackend::shared();
    let (b, b_view) = MemoryBackend::shared();
    let backend = ReplicatedBackend::new(vec![
        Box::new(ParityBackend::new(a, 4)),
        Box::new(ParityBackend::new(b, 4)),
    ]);
    let mgr = PageManager::new(CkptConfig::ai_ckpt(1 << 16), Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected_named("data", 6 * page_size()).unwrap();
    fill(&mut buf, &[0, 1, 2, 3, 4, 5], 7);
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();

    // Restore from replica B alone (replica A "lost"), reading through its
    // parity wrapper.
    let reader = ParityBackend::new(b_view, 4);
    let img = CheckpointImage::load_latest(&reader).unwrap().unwrap();
    assert_eq!(img.len(), 6);
    let base = buf.base_page() as u64;
    for p in 0..6u64 {
        let want = ((p as u8).wrapping_mul(31)).wrapping_add(7);
        assert!(img.page(base + p).unwrap().iter().all(|&x| x == want));
    }
    // And parity can reconstruct any single lost page.
    let rec = reader.recover_page(1, base + 3).unwrap();
    assert!(rec[..page_size()]
        .iter()
        .all(|&x| x == 3u8.wrapping_mul(31).wrapping_add(7)));
}

#[test]
fn sync_and_async_checkpoints_are_interchangeable_on_disk() {
    // A chain written partly by sync mode, partly by async mode, restores
    // identically — the storage format is strategy-independent.
    let dir = tmpdir("mixed");
    {
        let mgr = PageManager::new(
            CkptConfig::sync(),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let mut buf = mgr.alloc_protected_named("m", 2 * page_size()).unwrap();
        fill(&mut buf, &[0, 1], 1);
        mgr.checkpoint().unwrap();
    }
    {
        let mgr = PageManager::new(
            CkptConfig::ai_ckpt(1 << 16),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let view = FileBackend::open(&dir).unwrap();
        let restored = restore_latest(&mgr, &view).unwrap().unwrap();
        let mut bufs = restored.buffers;
        fill(&mut bufs[0], &[1], 2);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    let view = FileBackend::open(&dir).unwrap();
    let img = CheckpointImage::load(&view, 2).unwrap();
    let pages: Vec<u64> = img.iter().map(|(p, _)| p).collect();
    assert_eq!(pages.len(), 2);
    let ps = page_size();
    assert_eq!(img.page(pages[0]).unwrap()[0], 1u8.wrapping_add(0));
    assert_eq!(
        img.page(pages[1]).unwrap()[ps - 1],
        1u8.wrapping_mul(31).wrapping_add(2)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
