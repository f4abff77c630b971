//! Restore-metadata regressions: the layout rides inside its epoch as a
//! reserved record, so it must commit, fold, drain, retire, rot and heal
//! exactly as the pages around it do — and never live anywhere else.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ai_ckpt::{restore_at, restore_lazy, CkptConfig, CompactionPolicy, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    corrupt_segment_region, is_page, FailingBackend, FaultOp, FileBackend, MemoryBackend,
    ParityBackend, SegmentRegion, StorageBackend, TieredBackend, META_RECORD,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-meta-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// File names in `dir`, sorted.
fn dir_listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(1 << 20)
        .with_max_pages(64)
        .with_committer_streams(1)
}

const PAGES: usize = 4;

/// Commit one checkpoint of "state" (every page filled with `val ^ page`)
/// through the real runtime; returns the bytes a restore must reproduce.
fn commit(backend: &Arc<dyn StorageBackend>, val: u8) -> Vec<u8> {
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(backend)).unwrap();
    let mut buf = mgr
        .alloc_protected_named("state", PAGES * page_size())
        .unwrap();
    for (p, chunk) in buf.as_mut_slice().chunks_mut(page_size()).enumerate() {
        chunk.fill(val ^ p as u8);
    }
    let snap = buf.as_slice().to_vec();
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    mgr.wait_maintenance_idle().unwrap();
    snap
}

/// Both restore doors over `backend` at `seq`, each through a fresh manager.
fn restore_both(backend: &Arc<dyn StorageBackend>, seq: u64) -> [std::io::Result<Vec<u8>>; 2] {
    let state_of = |s: &ai_ckpt::RestoredState| s.buffers[s.by_name["state"]].as_slice().to_vec();
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(backend)).unwrap();
    let eager = restore_at(&mgr, backend.as_ref(), seq).map(|s| state_of(&s));
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(backend)).unwrap();
    let lazy = restore_lazy(&mgr, Arc::clone(backend), seq, None).and_then(|mut l| {
        l.wait()?;
        Ok(state_of(&l.state))
    });
    [eager, lazy]
}

/// A 50-epoch run under compaction: the directory holds the manifest and
/// the live chain's segments, nothing per retired epoch, and the folded
/// head still carries the layout a restore needs (latest-wins keeps the
/// newest epoch's record).
#[test]
fn fifty_epoch_compacted_run_keeps_one_layout_per_live_epoch() {
    let dir = tmpdir("leak");
    let cfg = CkptConfig::ai_ckpt(1 << 20)
        .with_max_pages(256)
        .with_compaction(CompactionPolicy::chain_len(4));
    {
        let mgr =
            PageManager::new(cfg.clone(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
        let ps = page_size();
        let mut buf = mgr.alloc_protected_named("state", 8 * ps).unwrap();
        for e in 0..50u64 {
            buf.as_mut_slice()[(e as usize % 8) * ps] = e as u8;
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
        }
        mgr.wait_maintenance_idle().unwrap();
    }
    let backend = FileBackend::open(&dir).unwrap();
    let chain = backend.chain().unwrap();
    assert!(
        chain.len() <= 5,
        "compaction should bound the chain, got {} epochs",
        chain.len()
    );
    for name in dir_listing(&dir) {
        assert!(
            name == "MANIFEST" || name.ends_with(".seg"),
            "'{name}': only the manifest and segments live in the directory"
        );
    }
    for c in &chain {
        let ids = backend.epoch_page_ids(c.epoch).unwrap();
        assert_eq!(
            ids.iter().filter(|&&id| !is_page(id)).count(),
            1,
            "epoch {}: exactly one layout record",
            c.epoch
        );
    }
    // The folded head restores: its layout survived every fold.
    let mgr = PageManager::new(cfg, Box::new(FileBackend::open(&dir).unwrap())).unwrap();
    let restored = restore_at(&mgr, &backend, 50).unwrap();
    assert_eq!(restored.buffers[0].as_slice()[7 * page_size()], 47);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Non-ASCII buffer names must survive the layout round-trip through a real
/// backend into BOTH restore paths.
#[test]
fn non_ascii_buffer_names_survive_both_restore_paths() {
    let names = ["网格-höhe", "état-😀", "δx"];
    let (backend, view) = MemoryBackend::shared();
    let cfg = CkptConfig::ai_ckpt(1 << 20).with_max_pages(256);
    let ps = page_size();
    {
        let mgr = PageManager::new(cfg.clone(), Box::new(backend)).unwrap();
        let mut bufs: Vec<_> = names
            .iter()
            .map(|n| mgr.alloc_protected_named(n, 2 * ps).unwrap())
            .collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            b.as_mut_slice().fill(i as u8 + 1);
        }
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    let shared: Arc<dyn StorageBackend> = Arc::new(view);

    let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&shared)).unwrap();
    let eager = restore_at(&mgr, shared.as_ref(), 1).unwrap();
    let mgr2 = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&shared)).unwrap();
    let mut lazy = restore_lazy(&mgr2, Arc::clone(&shared), 1, None).unwrap();
    lazy.wait().unwrap();

    for state in [&eager, &lazy.state] {
        for (i, want) in names.iter().enumerate() {
            let buf = state
                .buffers
                .iter()
                .find(|b| b.name() == *want)
                .unwrap_or_else(|| panic!("buffer '{want}' lost its name in restore"));
            assert!(buf.as_slice().iter().all(|&b| b == i as u8 + 1));
        }
    }
}

/// Committing an epoch on the file backend must fsync the directory, or the
/// new segment's directory entry can vanish in a crash the manifest
/// survives.
#[test]
fn epoch_commit_fsyncs_directory() {
    let dir = tmpdir("fsync");
    let mgr = PageManager::new(cfg(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
    let mut buf = mgr.alloc_protected_named("d", page_size()).unwrap();
    buf.as_mut_slice()[0] = 1;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    let io = mgr.stats().io;
    assert!(
        io.dir_fsyncs >= 1,
        "publishing a segment must fsync the directory (dir_fsyncs {})",
        io.dir_fsyncs
    );
    // One epoch, one stream: three sync points — and, this being the
    // first commit of a fresh directory, one more directory fsync for the
    // manifest's own entry, plus the open's fsync of the parent for the
    // directory's own entry.
    assert_eq!(
        (io.segment_fsyncs, io.dir_fsyncs, io.manifest_fsyncs),
        (1, 3, 1)
    );
    drop(buf);
    drop(mgr);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint whose commit fails leaves nothing: no epoch, no record, no
/// file — there is no second artefact to clean up.
#[test]
fn failed_checkpoint_leaves_nothing_behind() {
    let dir = tmpdir("failed");
    let (failing, ctl) = FailingBackend::new(FileBackend::open(&dir).unwrap());
    let mgr = PageManager::new(CkptConfig::sync().with_max_pages(64), Box::new(failing)).unwrap();
    let backend = mgr.backend();
    let ps = page_size();
    let mut buf = mgr.alloc_protected_named("s", 2 * ps).unwrap();
    buf.as_mut_slice().fill(9);

    ctl.fail(FaultOp::Finish, true);
    mgr.checkpoint().unwrap_err();
    assert!(backend.epochs().unwrap().is_empty());
    assert!(
        dir_listing(&dir).iter().all(|n| n == "MANIFEST"),
        "aborted checkpoint left a file behind: {:?}",
        dir_listing(&dir)
    );

    ctl.heal();
    buf.as_mut_slice()[0] = 10;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    assert_eq!(backend.epochs().unwrap(), vec![2]);
    assert_eq!(dir_listing(&dir), ["MANIFEST", "epoch_0000000002.seg"]);
    assert!(backend.read_page_at(2, META_RECORD).unwrap().is_some());
    drop(buf);
    drop(mgr);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One flipped byte in the layout record under `parity*4`: verification
/// names the record, both doors restore the baseline bytes regardless, and
/// the explicit repair leaves the epoch clean on disk (a parity group
/// serves the degraded read and leaves the rot to the repair). Rot of the
/// layout record on a plain and on a replicated store is the crash sweep's
/// `file:read:{eager,lazy}:corrupt:1` and `replica2:read:…:corrupt:1`.
#[test]
fn flipped_layout_byte_heals_under_parity() {
    let dir = tmpdir("rot-par");
    let backend: Arc<dyn StorageBackend> =
        Arc::new(ParityBackend::new(FileBackend::open(&dir).unwrap(), 4));
    let expect = commit(&backend, 0xC3);
    let rot = SegmentRegion::PayloadOf {
        page: META_RECORD,
        byte: 11,
    };
    corrupt_segment_region(&dir, 1, rot).unwrap();
    let report = backend.verify_epoch(1).unwrap();
    assert_eq!(report.corrupt_pages, vec![META_RECORD]);
    for (door, result) in ["eager", "lazy"].iter().zip(restore_both(&backend, 1)) {
        assert!(result.unwrap() == expect, "{door}: restore diverged");
    }
    assert!(
        !backend.verify_epoch(1).unwrap().is_clean(),
        "no read-time heal"
    );
    backend.repair_epoch(1).unwrap();
    assert!(backend.verify_epoch(1).unwrap().is_clean(), "healed");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The layout is gone with its epoch: retiring an epoch leaves no trace of
/// it, and the survivors still restore.
#[test]
fn layout_retires_with_its_epoch() {
    let dir = tmpdir("retire");
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    commit(&backend, 0x11);
    let expect = commit(&backend, 0x22);
    backend.compact(2).unwrap();
    let newest = commit(&backend, 0x33);
    backend.remove_epochs(&[3]).unwrap();
    assert_eq!(dir_listing(&dir), ["MANIFEST", "full_0000000002.seg"]);
    assert!(backend.read_page_at(3, META_RECORD).is_err());
    for result in restore_both(&backend, 2) {
        assert!(result.unwrap() == expect);
    }
    assert_ne!(newest, expect);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A volatile fast tier over a file slow tier: the drain carries the layout
/// with the pages, so after a crash the slow tier alone restores — and each
/// drained epoch paid the file commit's three sync points.
#[test]
fn layout_drains_with_its_epoch_to_the_durable_tier() {
    let dir = tmpdir("drain");
    let slow = FileBackend::open(&dir).unwrap();
    let tiered: Arc<dyn StorageBackend> =
        Arc::new(TieredBackend::new(Box::new(MemoryBackend::new()), Box::new(slow), 8).unwrap());
    commit(&tiered, 0x44);
    let expect = commit(&tiered, 0x55);
    let io = tiered.io_stats();
    assert_eq!(
        (io.segment_fsyncs, io.dir_fsyncs, io.manifest_fsyncs),
        (2, 4, 2),
        "two drained epochs, three sync points each, plus the fresh \
         directory's first-commit fsync of the manifest entry and its \
         parent's fsync of the directory's own entry"
    );
    drop(tiered); // the fast tier dies with the process
    let slow: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    assert_eq!(slow.epochs().unwrap(), vec![1, 2]);
    for result in restore_both(&slow, 2) {
        assert!(result.unwrap() == expect);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Page ids double as record ids, so a page-id space that could reach the
/// reserved ones is refused at construction — before anything is allocated.
#[test]
fn max_pages_reaching_a_reserved_id_is_rejected() {
    let cfg = CkptConfig::ai_ckpt(1 << 20).with_max_pages(META_RECORD as usize + 1);
    let err = PageManager::new(cfg, Box::new(MemoryBackend::new()))
        .err()
        .expect("reserved ids are not pages");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}
