//! Cross-crate integration: the full checkpoint → crash → restore cycle
//! through every storage composition (file, replicated, parity), verifying
//! byte-exact recovery of the protected state.

use std::any::Any;
use std::sync::Arc;

use ai_ckpt::{
    restore_at, restore_latest, restore_latest_cached, restore_lazy, CkptConfig, PageManager,
    ProtectedBuffer,
};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    is_page, write_epoch, CheckpointImage, FileBackend, MemoryBackend, PageCache, ParityBackend,
    ReplicatedBackend, StorageBackend, META_RECORD,
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

/// Whether the page at `addr` is backed by memory: the present bit of its
/// `/proc/self/pagemap` entry.
fn resident(addr: usize) -> bool {
    use std::os::unix::fs::FileExt;
    let pagemap = std::fs::File::open("/proc/self/pagemap").unwrap();
    let mut entry = [0u8; 8];
    let at = (addr / page_size() * entry.len()) as u64;
    pagemap.read_exact_at(&mut entry, at).unwrap();
    u64::from_le_bytes(entry) >> 63 == 1
}

/// A buffer over four 2 MiB ranges and a partial tail, with a run of pages
/// never written (holes) inside range 1 and one short hand-written payload
/// in range 3, comes back through both eager doors exact, with the holes
/// zero, readable without a fault, and read-only: a write to one page in
/// each range, a hole included, makes the next checkpoint hold exactly
/// those pages. The eager door advises huge pages but makes only the pages
/// it fills writable, so a 2 MiB range that holds a hole stays on base
/// pages and the holes cost no memory: none is backed on return.
#[test]
fn eager_restore_across_2_mib_ranges_with_holes_is_exact_unbacked_and_tracked() {
    let ps = page_size();
    let range = ((2 << 20) / ps).max(4);
    let pages = 4 * range + 3 * range / 4;
    let holes = range + range / 2 - 2..range + range / 2 + 2;
    let short = 3 * range + 1;
    // One page a range apart, so every whole 2 MiB-aligned range of the
    // buffer holds one, wherever the mapping starts; the second is a hole.
    let written: Vec<usize> = (0..5).map(|i| i * range + range / 2).collect();
    assert!(holes.contains(&written[1]));
    let cfg = || CkptConfig::ai_ckpt(1 << 16);
    for door in ["restore_at", "restore_latest_cached"] {
        let dir = tmpdir(&format!("huge-{door}"));
        let base = {
            let mgr = PageManager::new(cfg(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
            let mut buf = mgr.alloc_protected_named("state", pages * ps).unwrap();
            let filled: Vec<usize> = (0..pages).filter(|p| !holes.contains(p)).collect();
            fill(&mut buf, &filled, 1);
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
            buf.base_page() as u64
        };
        let short_page = base + short as u64;
        hand_write_epoch_2(&dir, [(short_page, pattern(short_page, 100))]);

        let mgr = PageManager::new(cfg(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
        let view = FileBackend::open(&dir).unwrap();
        let cache = PageCache::new(2 * pages * ps);
        let restored = match door {
            "restore_at" => restore_at(&mgr, &view, 2).unwrap(),
            _ => restore_latest_cached(&mgr, &view, Some(&cache))
                .unwrap()
                .unwrap(),
        };
        let mut bufs = restored.buffers;
        let buf = &bufs[restored.by_name["state"]];
        assert_eq!(buf.base_page() as u64, base, "{door}");
        let at = |p: usize| buf.as_ptr() as usize + p * ps;
        for p in holes.clone() {
            assert!(!resident(at(p)), "{door}: hole {p} is backed by memory");
        }
        let image = CheckpointImage::load(&view, 2).unwrap();
        let faults = mgr.stats().write_stall.count;
        for (p, got) in buf.as_slice().chunks(ps).enumerate() {
            let mut want = image.page(base + p as u64).unwrap_or_default().to_vec();
            assert_eq!(want.is_empty(), holes.contains(&p), "{door}: page {p}");
            want.resize(ps, 0);
            assert!(got == want, "{door}: page {p} differs");
        }
        assert_eq!(image.page(short_page).map(<[u8]>::len), Some(100));
        assert_eq!(
            mgr.stats().write_stall.count,
            faults,
            "{door}: reading the restored pages faulted"
        );
        let buf = &mut bufs[restored.by_name["state"]];
        fill(buf, &written, 9);
        let next = mgr.checkpoint().unwrap().checkpoint;
        mgr.wait_checkpoint().unwrap();
        let mut stored: Vec<u64> = view.epoch_page_ids(next).unwrap();
        stored.retain(|&p| is_page(p));
        stored.sort_unstable();
        let want: Vec<u64> = written.iter().map(|&p| base + p as u64).collect();
        assert_eq!(
            stored, want,
            "{door}: the next checkpoint holds exactly the pages written since"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Page `page`'s bytes in the hand-written epochs below: every byte
/// differs from its neighbours, so a page written at the wrong offset shows.
fn pattern(page: u64, len: usize) -> Vec<u8> {
    (0..len).map(|j| (page as usize * 31 + j) as u8).collect()
}

/// Commit epoch 2 of `dir` by hand: epoch 1's layout record, then `pages`
/// in the given record order — which is the fill's sweep order.
fn hand_write_epoch_2(dir: &std::path::Path, pages: impl IntoIterator<Item = (u64, Vec<u8>)>) {
    let backend = FileBackend::open(dir).unwrap();
    let layout = backend.read_page_at(1, META_RECORD).unwrap().unwrap();
    write_epoch(
        &backend,
        2,
        std::iter::once((META_RECORD, layout)).chain(pages),
    )
    .unwrap();
}

/// Restore epoch 2 of `dir` through both doors, each into a fresh manager,
/// and hold every buffer page to the reference replay (`CheckpointImage`;
/// a short payload is zero-padded to its page). A door restores again,
/// up to 8 times, until `laid_out` accepts where the buffers landed.
fn assert_both_doors_exact(dir: &std::path::Path, laid_out: impl Fn(&[ProtectedBuffer]) -> bool) {
    let ps = page_size();
    let view: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(dir).unwrap());
    let image = CheckpointImage::load(view.as_ref(), 2).unwrap();
    let exact = |buffers: &[ProtectedBuffer], door: &str| {
        for buf in buffers {
            for (i, got) in buf.as_slice().chunks(ps).enumerate() {
                let want = image.page((buf.base_page() + i) as u64).unwrap_or_default();
                let mut want = want.to_vec();
                want.resize(ps, 0);
                assert!(got == want, "{door}: page {i} of '{}' differs", buf.name());
            }
        }
        laid_out(buffers)
    };
    for door in ["eager", "lazy"] {
        // Every attempt stays mapped until the door is done: an address
        // hole that split one attempt's buffers is then taken, and the
        // next attempt's land elsewhere.
        let mut attempts: Vec<(Box<dyn Any>, PageManager)> = Vec::new();
        let landed = (0..8).any(|_| {
            let cfg = CkptConfig::ai_ckpt(1 << 16).with_max_pages(64);
            let mgr = PageManager::with_shared_backend(cfg, view.clone()).unwrap();
            let (landed, state): (bool, Box<dyn Any>) = if door == "eager" {
                let state = restore_at(&mgr, view.as_ref(), 2).unwrap();
                (exact(&state.buffers, door), Box::new(state))
            } else {
                let mut lazy = restore_lazy(&mgr, view.clone(), 2, None).unwrap();
                lazy.wait().unwrap();
                (exact(&lazy.state.buffers, door), Box::new(lazy))
            };
            attempts.push((state, mgr));
            landed
        });
        assert!(landed, "{door}: buffers never laid out as the case needs");
    }
}

/// Whether buffer `hi` starts right where buffer `lo` ends.
fn back_to_back(lo: &ProtectedBuffer, hi: &ProtectedBuffer) -> bool {
    lo.as_ptr() as usize + lo.pages() * page_size() == hi.as_ptr() as usize
}

/// A fill run crosses from one buffer into the next when their mappings
/// touch: a mapping made right after another lands just below it, so the
/// sweep writes `b` then `a`, ascending — one run over both.
#[test]
fn restore_runs_cross_address_adjacent_buffers_exactly() {
    // Sizes no other test here maps, so no hole one left behind fits.
    const A: u64 = 11;
    const B: u64 = 5;
    let dir = tmpdir("adjacent");
    let (a, b) = {
        let mgr = PageManager::new(
            CkptConfig::ai_ckpt(1 << 16),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let mut a = mgr
            .alloc_protected_named("a", A as usize * page_size())
            .unwrap();
        let mut b = mgr
            .alloc_protected_named("b", B as usize * page_size())
            .unwrap();
        fill(&mut a, &(0..A as usize).collect::<Vec<_>>(), 1);
        fill(&mut b, &(0..B as usize).collect::<Vec<_>>(), 1);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        (a.base_page() as u64, b.base_page() as u64)
    };
    let whole = |p: u64| (p, pattern(p, page_size()));
    hand_write_epoch_2(&dir, (b..b + B).chain(a..a + A).map(whole));
    assert_both_doors_exact(&dir, |bufs| back_to_back(&bufs[1], &bufs[0]));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Short payloads (hand-written; the runtime always writes whole pages)
/// are written alone, between runs of whole pages.
#[test]
fn restore_of_short_hand_written_payloads_is_exact() {
    const PAGES: u64 = 12;
    let dir = tmpdir("short");
    let base = {
        let mgr = PageManager::new(
            CkptConfig::ai_ckpt(1 << 16),
            Box::new(FileBackend::open(&dir).unwrap()),
        )
        .unwrap();
        let mut s = mgr
            .alloc_protected_named("s", PAGES as usize * page_size())
            .unwrap();
        fill(&mut s, &(0..PAGES as usize).collect::<Vec<_>>(), 1);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        s.base_page() as u64
    };
    let len = |p: u64| match p % 4 {
        1 => 100,
        3 if p > 4 => 1,
        _ => page_size(),
    };
    hand_write_epoch_2(&dir, (base..base + PAGES).map(|p| (p, pattern(p, len(p)))));
    assert_both_doors_exact(&dir, |_| true);
    std::fs::remove_dir_all(&dir).unwrap();
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
