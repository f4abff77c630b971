//! At-rest corruption matrix (ISSUE 10 headline): flip one byte in every
//! structural region of a committed epoch's on-disk state — segment header,
//! record page id, encoding byte, payload byte, stored CRC, the epoch's
//! layout record, segment trailer, manifest record-count —
//! under every redundancy source the storage stack offers (a replica
//! member, a parity group, another level of a resilience policy), then
//! assert the full integrity lifecycle:
//!
//! 1. **detect** — a scrub pass over the damaged backend reports the epoch
//!    corrupt (no restore is materialised to find it);
//! 2. **repair** — the damaged segment is rewritten in place from the best
//!    surviving source, and a re-verify comes back clean;
//! 3. **serve** — eager *and* lazy demand-paged restores return
//!    byte-identical data to the never-corrupted baseline.
//!
//! When no redundant source survives the damage, the epoch must be
//! quarantined and both restore paths must fail loudly — silently serving
//! rotted bytes is the one unacceptable outcome.
//!
//! Epochs are committed through the real runtime (`PageManager` over the
//! wrapped `FileBackend`s) so the layout records, shard layout and manifest
//! are exactly what production writes.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ai_ckpt::{restore_latest, restore_latest_lazy, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    corrupt_manifest_byte, corrupt_manifest_count, corrupt_segment_region, is_page, write_epoch,
    FileBackend, ParityBackend, PolicyBuilder, ReplicatedBackend, ResilienceSpec, SegmentRegion,
    StorageBackend, TieredBackend, META_RECORD,
};

const PAGES: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-scrub-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One committer stream so each epoch lands in a single shard file:
/// `corrupt_segment_region` then hits the only copy of every record, making
/// the reparable/irreparable split of the matrix deterministic across
/// machines.
fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(2 * page_size())
        .with_max_pages(64)
        .with_committer_streams(1)
}

/// Commit one checkpoint of a deterministic pattern through the real
/// runtime and drain all maintenance (tier copies, level propagation).
/// Returns the byte image every later restore must reproduce.
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

/// Every structural byte class of the on-disk format, plus manifest
/// damage. `corrupt` flips exactly one byte of epoch 1 in `dir`.
type Corruptor = fn(&Path);

fn regions() -> Vec<(&'static str, Corruptor)> {
    fn header(dir: &Path) {
        corrupt_segment_region(dir, 1, SegmentRegion::Header).unwrap();
    }
    /// Covered by no payload CRC: only the trailer cross-check sees it.
    fn page_id(dir: &Path) {
        corrupt_segment_region(dir, 1, SegmentRegion::PageId).unwrap();
    }
    fn encoding(dir: &Path) {
        corrupt_segment_region(dir, 1, SegmentRegion::Encoding).unwrap();
    }
    fn payload(dir: &Path) {
        corrupt_segment_region(dir, 1, SegmentRegion::Payload { byte: 7 }).unwrap();
    }
    fn crc(dir: &Path) {
        corrupt_segment_region(dir, 1, SegmentRegion::Crc).unwrap();
    }
    /// The layout rots like any page — and must be found and healed like one.
    fn layout(dir: &Path) {
        let region = SegmentRegion::PayloadOf {
            page: META_RECORD,
            byte: 5,
        };
        corrupt_segment_region(dir, 1, region).unwrap();
    }
    /// An entry's offset field: the trailer's own CRC condemns the shard.
    fn trailer(dir: &Path) {
        corrupt_segment_region(dir, 1, SegmentRegion::Trailer { byte: 8 }).unwrap();
    }
    fn manifest(dir: &Path) {
        corrupt_manifest_count(dir, 1).unwrap();
    }
    vec![
        ("header", header),
        ("page-id", page_id),
        ("encoding", encoding),
        ("payload", payload),
        ("crc", crc),
        ("layout", layout),
        ("trailer", trailer),
        ("manifest", manifest),
    ]
}

/// Scrub the backend through a fresh manager's own scrubber, assert the
/// damage was detected and healed, then assert both restore paths serve
/// the pristine baseline.
fn assert_detect_repair_restore(backend: Arc<dyn StorageBackend>, expect: &[u8], ctx: &str) {
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    mgr.scrubber().full_pass(backend.as_ref()).unwrap();
    let stats = mgr.scrubber().stats();
    assert!(
        stats.corrupt_epochs >= 1,
        "{ctx}: scrub failed to detect the damage: {stats:?}"
    );
    assert!(
        stats.epochs_repaired >= 1,
        "{ctx}: damage detected but not repaired: {stats:?}"
    );
    assert_eq!(
        stats.epochs_quarantined, 0,
        "{ctx}: a repairable epoch was quarantined: {stats:?}"
    );
    // Trust but verify, from the outside too: a second pass over the
    // repaired chain must be entirely quiet.
    let recheck = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    recheck.scrubber().full_pass(backend.as_ref()).unwrap();
    assert_eq!(
        recheck.scrubber().stats().corrupt_epochs,
        0,
        "{ctx}: repair left residual damage"
    );
    drop(mgr);
    assert_both_restores_serve(&backend, expect, ctx);
}

/// Both restore doors, each on a fresh manager, return `expect` for the
/// newest checkpoint.
fn assert_both_restores_serve(backend: &Arc<dyn StorageBackend>, expect: &[u8], ctx: &str) {
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(backend)).unwrap();
    let eager = restore_latest(&mgr, backend.as_ref()).unwrap().unwrap();
    let buf = &eager.buffers[eager.by_name["state"]];
    assert!(
        buf.as_slice() == expect,
        "{ctx}: eager restore diverged from the pre-corruption baseline"
    );
    drop(eager);
    drop(mgr);

    let fresh = PageManager::with_shared_backend(cfg(), Arc::clone(backend)).unwrap();
    let mut lazy = restore_latest_lazy(&fresh, Arc::clone(backend), None)
        .unwrap()
        .unwrap();
    lazy.wait().unwrap();
    let buf = &lazy.state.buffers[lazy.state.by_name["state"]];
    assert!(
        buf.as_slice() == expect,
        "{ctx}: lazy restore diverged from the pre-corruption baseline"
    );
}

#[test]
fn replica_member_heals_every_region() {
    for (region, corrupt) in regions() {
        let dir0 = tmpdir(&format!("rep0-{region}"));
        let dir1 = tmpdir(&format!("rep1-{region}"));
        let backend: Arc<dyn StorageBackend> = Arc::new(ReplicatedBackend::new(vec![
            Box::new(FileBackend::open(&dir0).unwrap()),
            Box::new(FileBackend::open(&dir1).unwrap()),
        ]));
        let expect = commit(&backend, 0xA1);
        corrupt(&dir0);
        assert_detect_repair_restore(backend, &expect, &format!("replica/{region}"));
    }
}

#[test]
fn parity_group_heals_record_level_regions() {
    // Header and trailer damage are excluded here: parity records live in
    // the *same* segment file as the data they protect, so a shard nothing
    // can be located in takes the parity down with it — those combinations
    // are the quarantine cases covered below, not repair cases.
    for (region, corrupt) in regions() {
        if region == "header" || region == "trailer" {
            continue;
        }
        let dir = tmpdir(&format!("par-{region}"));
        let backend: Arc<dyn StorageBackend> =
            Arc::new(ParityBackend::new(FileBackend::open(&dir).unwrap(), 3));
        let expect = commit(&backend, 0xB2);
        corrupt(&dir);
        assert_detect_repair_restore(backend, &expect, &format!("parity/{region}"));
    }
}

#[test]
fn outer_policy_level_heals_every_region() {
    for (region, corrupt) in regions() {
        let dir0 = tmpdir(&format!("pol0-{region}"));
        let dir1 = tmpdir(&format!("pol1-{region}"));
        let dirs = [dir0.clone(), dir1.clone()];
        let spec = ResilienceSpec::parse("fast=plain -> safe=plain").unwrap();
        let policy = PolicyBuilder::new(spec)
            .unwrap()
            .build(|i, _| Box::new(FileBackend::open(&dirs[i]).unwrap()))
            .unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(policy);
        // `commit` drains maintenance, so the epoch is propagated to the
        // `safe` level before the `fast` copy is damaged.
        let expect = commit(&backend, 0xC3);
        corrupt(&dir0);
        assert_detect_repair_restore(backend, &expect, &format!("policy/{region}"));
    }
}

#[test]
fn unrecoverable_damage_quarantines_and_restores_fail_loudly() {
    // No redundancy anywhere: a plain file backend with a flipped payload
    // byte, and parity stacks whose shared segment lost its header or its
    // trailer.
    let plain_dir = tmpdir("quarantine-plain");
    let plain: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&plain_dir).unwrap());
    let parity = |tag: &str| -> (Arc<dyn StorageBackend>, PathBuf) {
        let dir = tmpdir(tag);
        let backend = ParityBackend::new(FileBackend::open(&dir).unwrap(), 3);
        (Arc::new(backend), dir)
    };
    let (parity_hdr, parity_hdr_dir) = parity("quarantine-parity-hdr");
    let (parity_trl, parity_trl_dir) = parity("quarantine-parity-trl");
    for (backend, dir, region, ctx) in [
        (
            plain,
            plain_dir,
            SegmentRegion::Payload { byte: 3 },
            "plain/payload",
        ),
        (
            parity_hdr,
            parity_hdr_dir,
            SegmentRegion::Header,
            "parity/header",
        ),
        (
            parity_trl,
            parity_trl_dir,
            SegmentRegion::Trailer { byte: 8 },
            "parity/trailer",
        ),
    ] {
        commit(&backend, 0xD4);
        corrupt_segment_region(&dir, 1, region).unwrap();

        let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
        mgr.scrubber().full_pass(backend.as_ref()).unwrap();
        let stats = mgr.scrubber().stats();
        assert!(
            stats.corrupt_epochs >= 1,
            "{ctx}: scrub failed to detect the damage: {stats:?}"
        );
        assert_eq!(
            stats.epochs_quarantined, 1,
            "{ctx}: irreparable epoch not quarantined: {stats:?}"
        );
        assert!(mgr.scrubber().is_quarantined(1), "{ctx}: epoch 1 flag");

        // Both restore paths must refuse — loudly, with the quarantine
        // message — instead of failing midway or serving rot.
        let eager = restore_latest(&mgr, backend.as_ref());
        let msg = eager
            .err()
            .map(|e| e.to_string())
            .unwrap_or_else(|| panic!("{ctx}: eager restore of a quarantined epoch succeeded"));
        assert!(
            msg.contains("quarantined"),
            "{ctx}: eager restore error is not the loud quarantine error: {msg}"
        );
        let lazy = restore_latest_lazy(&mgr, Arc::clone(&backend), None);
        let msg = lazy
            .err()
            .map(|e| e.to_string())
            .unwrap_or_else(|| panic!("{ctx}: lazy restore of a quarantined epoch succeeded"));
        assert!(
            msg.contains("quarantined"),
            "{ctx}: lazy restore error is not the loud quarantine error: {msg}"
        );
    }

    // file/manifest-record: the commit log itself rots, mid-log (record 1
    // of 2). There is no epoch list left to quarantine anything in — the
    // scrub pass and both restore doors fail `InvalidData` outright rather
    // than working from a log that reads shorter than it is.
    let ctx = "file/manifest-record";
    let dir = tmpdir("manifest-record");
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    commit(&backend, 0xD4);
    commit(&backend, 0xD5);
    corrupt_manifest_byte(&dir, MANIFEST_RECORD_1_EPOCH).unwrap();
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let loud = |result: std::io::Result<()>, door: &str| {
        let err = result
            .err()
            .unwrap_or_else(|| panic!("{ctx}: {door} succeeded over a corrupt manifest"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{ctx}: {err}");
    };
    loud(
        mgr.scrubber().full_pass(backend.as_ref()).map(drop),
        "scrub",
    );
    loud(restore_latest(&mgr, backend.as_ref()).map(drop), "eager");
    loud(
        restore_latest_lazy(&mgr, Arc::clone(&backend), None).map(drop),
        "lazy",
    );
}

/// Offset of the first manifest record's epoch field (magic 8 + kind 1).
const MANIFEST_RECORD_1_EPOCH: u64 = 9;

/// Spread `epoch` of the file root `dir` over two shard files, as two
/// contending committer streams would: its last page record moves from
/// `epoch_N.seg` into `epoch_N.s1.seg`. A scratch root writes each part as
/// a complete segment; the manifest's count still holds across the pair.
fn split_off_last_page(dir: &Path, epoch: u64) {
    let mut records = Vec::new();
    let backend = FileBackend::open(dir).unwrap();
    backend
        .read_epoch(epoch, &mut |p, d| records.push((p, d.to_vec())))
        .unwrap();
    let last = records.iter().rposition(|&(p, _)| is_page(p)).unwrap();
    let moved = vec![records.remove(last)];
    for (shard, part) in [("", records), (".s1", moved)] {
        let scratch = tmpdir(&format!("split{shard}"));
        write_epoch(&FileBackend::open(&scratch).unwrap(), epoch, part).unwrap();
        let name = |shard| format!("epoch_{epoch:010}{shard}.seg");
        fs::rename(scratch.join(name("")), dir.join(name(shard))).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }
}

#[test]
fn a_lost_shard_is_quarantined_and_both_restores_refuse_it() {
    // Epoch 2 rewrites every page over two shard files. Losing the second
    // leaves every remaining record intact: only the commit count says a
    // page is missing. Recounting would "heal" that, and every restore
    // would then serve the missing page's epoch-1 bytes without a word.
    let dir = tmpdir("lost-shard");
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    commit(&backend, 0x11);
    commit(&backend, 0x22);
    split_off_last_page(&dir, 2);
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    assert!(backend.verify_epoch(2).unwrap().is_clean(), "a whole epoch");
    fs::remove_file(dir.join("epoch_0000000002.s1.seg")).unwrap();
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());

    // Unscrubbed, both doors fail on the count, and nothing can repair it.
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let fails = |result: std::io::Result<()>, door: &str, says: &str| {
        let err = result
            .err()
            .unwrap_or_else(|| panic!("{door} restore served an epoch missing a shard"));
        assert!(err.to_string().contains(says), "{door}: {err}");
    };
    let eager = |mgr: &PageManager| restore_latest(mgr, backend.as_ref()).map(drop);
    let lazy = |mgr: &PageManager| restore_latest_lazy(mgr, Arc::clone(&backend), None).map(drop);
    fails(eager(&mgr), "eager", "manifest committed");
    fails(lazy(&mgr), "lazy", "manifest committed");

    mgr.scrubber().full_pass(backend.as_ref()).unwrap();
    let stats = mgr.scrubber().stats();
    assert_eq!(stats.epochs_repaired, 0, "recounted: {stats:?}");
    assert!(mgr.scrubber().is_quarantined(2), "{stats:?}");
    fails(eager(&mgr), "eager", "quarantined");
    fails(lazy(&mgr), "lazy", "quarantined");
}

#[test]
fn replica_serves_the_newest_epoch_past_a_member_with_a_rotted_manifest() {
    // The same mid-log manifest rot, but on replica 0 of a `replica*2`
    // level: every read door of that member fails loudly, so reads fall
    // through and the restore serves the newest epoch, byte-identical,
    // from replica 1.
    let dirs = [tmpdir("manrot-rep0"), tmpdir("manrot-rep1")];
    let spec = ResilienceSpec::parse("r=replica*2").unwrap();
    let policy = PolicyBuilder::new(spec)
        .unwrap()
        .build(|_, replica| Box::new(FileBackend::open(&dirs[replica]).unwrap()))
        .unwrap();
    let backend: Arc<dyn StorageBackend> = Arc::new(policy);
    commit(&backend, 0xA6);
    let expect = commit(&backend, 0xA7);
    corrupt_manifest_byte(&dirs[0], MANIFEST_RECORD_1_EPOCH).unwrap();
    assert_both_restores_serve(&backend, &expect, "replica*2/manifest-record");
}

#[test]
fn maintenance_worker_heals_damage_under_a_new_checkpoint() {
    // Damage epoch 1, then commit epoch 2 over it and simply wait for
    // maintenance to go idle. Nobody asks for a scrub: the manager's own
    // maintenance worker runs one paced cycle after the drain, and that
    // cycle alone must detect the rot, heal it from the surviving replica,
    // and leave the chain serving both restore paths byte-identically.
    let dir0 = tmpdir("chain0");
    let dir1 = tmpdir("chain1");
    let backend: Arc<dyn StorageBackend> = Arc::new(ReplicatedBackend::new(vec![
        Box::new(FileBackend::open(&dir0).unwrap()),
        Box::new(FileBackend::open(&dir1).unwrap()),
    ]));
    commit(&backend, 0xE5);
    corrupt_segment_region(&dir0, 1, SegmentRegion::Payload { byte: 11 }).unwrap();

    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let mut buf = mgr
        .alloc_protected_named("state", PAGES * page_size())
        .unwrap();
    for (p, chunk) in buf.as_mut_slice().chunks_mut(page_size()).enumerate() {
        chunk.fill(0xF6 ^ p as u8);
    }
    let expect = buf.as_slice().to_vec();
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    mgr.wait_maintenance_idle().unwrap();

    let stats = mgr.stats().integrity;
    assert!(
        stats.cycles >= 1 && stats.corrupt_epochs >= 1,
        "background maintenance scrub never saw the damage: {stats:?}"
    );
    assert!(
        stats.epochs_repaired >= 1,
        "background maintenance scrub saw the damage but did not heal it: {stats:?}"
    );
    assert_eq!(stats.epochs_quarantined, 0, "{stats:?}");

    // The heal is in place on disk: a fresh scrubber finds nothing.
    assert_detect_repair_restore_clean(backend, &expect, "chain/maintenance-heal");
}

#[test]
fn eager_restore_repairs_a_rotted_copy_nobody_scrubbed() {
    // No scrub cycle ever runs here. A tiered stack holds the epoch on both
    // tiers (`drain_one`'s crash window: copied out, never evicted) and the
    // fast copy rots. Tiered reads do not step over rot, so the restore's
    // own fill must hit the CRC failure, repair the fast copy from the
    // replica one tier down, read it again and return the baseline bytes —
    // the eager twin of `restore_lazy.rs::demand_fault_on_rotted_fast_tier…`.
    let fast_dir = tmpdir("eager-heal-fast");
    let slow_dir = tmpdir("eager-heal-slow");
    let open = || -> Arc<dyn StorageBackend> {
        Arc::new(
            TieredBackend::new(
                Box::new(FileBackend::open(&fast_dir).unwrap()),
                Box::new(FileBackend::open(&slow_dir).unwrap()),
                8,
            )
            .unwrap(),
        )
    };
    let expect = commit(&open(), 0xB7);
    for entry in fs::read_dir(&slow_dir).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), fast_dir.join(entry.file_name())).unwrap();
    }
    corrupt_segment_region(&fast_dir, 1, SegmentRegion::Payload { byte: 5 }).unwrap();

    let backend = open();
    assert!(!backend.verify_epoch(1).unwrap().is_clean(), "rot armed");
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let eager = restore_latest(&mgr, backend.as_ref())
        .expect("a surviving replica means the restore heals, not fails")
        .unwrap();
    let buf = &eager.buffers[eager.by_name["state"]];
    assert!(
        buf.as_slice() == expect,
        "eager restore diverged from the pre-corruption baseline"
    );
    // The heal is durable, not a read-side patch.
    assert!(backend.verify_epoch(1).unwrap().is_clean());
}

/// Like [`assert_detect_repair_restore`] but for a chain that was already
/// healed in the background: a fresh scrub must be quiet, and both restore
/// paths must serve `expect`.
fn assert_detect_repair_restore_clean(backend: Arc<dyn StorageBackend>, expect: &[u8], ctx: &str) {
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    mgr.scrubber().full_pass(backend.as_ref()).unwrap();
    let stats = mgr.scrubber().stats();
    assert_eq!(
        stats.corrupt_epochs, 0,
        "{ctx}: background heal left residual damage: {stats:?}"
    );
    drop(mgr);
    assert_both_restores_serve(&backend, expect, ctx);
}
