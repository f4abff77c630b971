//! The deterministic group crash/fault matrix: for every phase of the
//! two-phase global commit — a rank failing mid-flush, at `finish`, at the
//! layout-record write, at `begin_epoch`; a coordinator dying between phase 1
//! and phase 2; a tear mid-global-manifest-append — kill or fail one
//! participant and assert that `CheckpointGroup` restores **every** rank to
//! the last globally committed epoch, byte-identical, never a mix.
//!
//! The acceptance case: a healthy 4-rank group round-trips
//! checkpoint → crash → restore byte-identically.

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use ai_ckpt::CkptConfig;
use ai_ckpt_coord::{rank_dir, CheckpointGroup, GroupConfig, GLOBAL_MANIFEST_FILE};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::failing::{Fault, When};
use ai_ckpt_storage::{
    write_epoch, FailingBackend, FailureControl, FaultOp, FileBackend, StorageBackend,
};

const PAGES: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ai-ckpt-group-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn group_cfg(ranks: usize) -> GroupConfig {
    GroupConfig::new(ranks, CkptConfig::ai_ckpt(1 << 16).with_max_pages(64))
}

/// Open a group whose rank backends are failure-injectable file backends
/// under `root`; returns the per-rank failure controls alongside.
fn open_failing(ranks: usize, root: &Path) -> (CheckpointGroup, Vec<FailureControl>) {
    let ctls = RefCell::new(Vec::new());
    let group = CheckpointGroup::open(group_cfg(ranks), root.join(GLOBAL_MANIFEST_FILE), |r| {
        let (b, ctl) = FailingBackend::new(FileBackend::open(rank_dir(root, r))?);
        ctls.borrow_mut().push(ctl);
        Ok(Box::new(b))
    })
    .unwrap();
    (group, ctls.into_inner())
}

/// Deterministic page content for (rank, page, epoch).
fn value(rank: usize, page: usize, epoch: u64) -> u8 {
    (rank as u8)
        .wrapping_mul(77)
        .wrapping_add((page as u8).wrapping_mul(31))
        .wrapping_add((epoch as u8).wrapping_mul(13))
}

/// Write `epoch`'s content into the given pages of every rank's buffer.
fn fill(bufs: &mut [ai_ckpt::ProtectedBuffer], pages: &[usize], epoch: u64) {
    let ps = page_size();
    for (rank, buf) in bufs.iter_mut().enumerate() {
        let slice = buf.as_mut_slice();
        for &p in pages {
            slice[p * ps..(p + 1) * ps].fill(value(rank, p, epoch));
        }
    }
}

/// Snapshot every rank's buffer (the byte-identical model for restores).
fn snapshot(bufs: &[ai_ckpt::ProtectedBuffer]) -> Vec<Vec<u8>> {
    bufs.iter().map(|b| b.as_slice().to_vec()).collect()
}

fn alloc_all(group: &CheckpointGroup) -> Vec<ai_ckpt::ProtectedBuffer> {
    (0..group.ranks())
        .map(|r| {
            group
                .rank(r)
                .alloc_protected_named("state", PAGES * page_size())
                .unwrap()
        })
        .collect()
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

/// Reopen the group plainly (no failure wrappers) and assert every rank
/// restores to `want_epoch` with exactly `model`'s bytes.
fn assert_group_restores(root: &Path, ranks: usize, want_epoch: u64, model: &[Vec<u8>]) {
    let group = CheckpointGroup::open_dir(group_cfg(ranks), root).unwrap();
    assert_eq!(group.last_committed(), Some(want_epoch));
    let restored = group.restore_latest().unwrap().unwrap();
    assert_eq!(restored.checkpoint, want_epoch);
    assert_eq!(restored.ranks.len(), ranks);
    for (rank, state) in restored.ranks.iter().enumerate() {
        let buf = &state.buffers[state.by_name["state"]];
        assert_eq!(
            buf.as_slice(),
            &model[rank][..],
            "rank {rank} must land on epoch {want_epoch} byte-identically"
        );
    }
}

#[test]
fn healthy_four_rank_group_round_trips_byte_identical() {
    let root = tmpdir("healthy4");
    let model;
    {
        let mut group = CheckpointGroup::open_dir(group_cfg(4), &root).unwrap();
        assert!(group.restore_latest().unwrap().is_none(), "fresh start");
        let mut bufs = alloc_all(&group);
        fill(&mut bufs, &[0, 1, 2, 3], 1);
        assert_eq!(group.checkpoint().unwrap(), 1);
        fill(&mut bufs, &[1, 3], 2);
        assert_eq!(group.checkpoint().unwrap(), 2);
        fill(&mut bufs, &[0, 2], 3);
        assert_eq!(group.checkpoint().unwrap(), 3);
        model = snapshot(&bufs);
        let stats = group.stats();
        assert_eq!(stats.global_commits, 3);
        assert_eq!(stats.global_aborts, 0);
        assert_eq!(stats.ranks.len(), 4);
        assert!(stats.pages_flushed() >= 4 * 4 + 2 * 4 + 2 * 4);
        // "Crash": the group is dropped without any orderly shutdown beyond
        // process-internal joins.
    }
    assert_group_restores(&root, 4, 3, &model);
    // Different ranks really hold different bytes (no cross-rank mixing
    // could go unnoticed).
    assert_ne!(model[0], model[1]);
}

/// The per-rank fault points, driven through the whole runtime stack.
#[test]
fn rank_failure_matrix_aborts_the_group_epoch() {
    type Arm = fn(&FailureControl);
    let modes: [(&str, Arm); 4] = [
        ("mid-flush", |ctl| {
            ctl.arm(When::Kind(FaultOp::Write), Fault::FailAfter(1))
        }),
        ("finish", |ctl| ctl.fail(FaultOp::Finish, true)),
        ("begin-epoch", |ctl| ctl.fail(FaultOp::BeginEpoch, true)),
        // Epoch 2 dirties two pages per rank: a budget of exactly its data
        // records fails the layout record, the last write before `finish`.
        ("layout-record", |ctl| {
            ctl.arm(When::Kind(FaultOp::Write), Fault::FailAfter(2))
        }),
    ];
    for (name, arm) in modes {
        let root = tmpdir(&format!("fault-{name}"));
        let model;
        {
            let (mut group, ctls) = open_failing(3, &root);
            let mut bufs = alloc_all(&group);
            fill(&mut bufs, &[0, 1, 2, 3], 1);
            assert_eq!(group.checkpoint().unwrap(), 1, "{name}");

            // Fault one rank, dirty everyone, attempt group epoch 2.
            arm(&ctls[1]);
            fill(&mut bufs, &[0, 1], 2);
            let err = group.checkpoint().unwrap_err();
            assert!(err.to_string().contains("aborted"), "{name}: {err}");
            let stats = group.stats();
            assert_eq!(stats.global_aborts, 1, "{name}");
            assert_eq!(stats.last_committed, Some(1), "{name}");
            // No rank may keep a local epoch 2: the survivors' commits were
            // retired when the group epoch aborted.
            for r in 0..3 {
                assert_eq!(
                    group.rank_backend(r).epochs().unwrap(),
                    vec![1],
                    "{name}: rank {r} holds only the globally committed epoch"
                );
                assert_eq!(
                    dir_listing(&rank_dir(&root, r)),
                    ["MANIFEST", "epoch_0000000001.seg"],
                    "{name}: rank {r} keeps no orphan file of the aborted epoch"
                );
            }

            // Heal and retry: the aborted number stays burned, epoch 3
            // commits, and the run continues as if the fault never was.
            ctls[1].heal();
            fill(&mut bufs, &[0, 1, 2, 3], 3);
            assert_eq!(group.checkpoint().unwrap(), 3, "{name}");
            model = snapshot(&bufs);
        }
        assert_group_restores(&root, 3, 3, &model);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn crash_between_phase_one_and_phase_two_restores_previous_epoch() {
    let root = tmpdir("phase1-2");
    let model;
    {
        let mut group = CheckpointGroup::open_dir(group_cfg(2), &root).unwrap();
        let mut bufs = alloc_all(&group);
        fill(&mut bufs, &[0, 1, 2, 3], 1);
        group.checkpoint().unwrap();
        fill(&mut bufs, &[2], 2);
        group.checkpoint().unwrap();
        model = snapshot(&bufs);
    }
    // The coordinator died after every rank finished epoch 3 but before the
    // global append: both ranks hold a local epoch 3 the global manifest
    // never heard of.
    for r in 0..2 {
        let b = FileBackend::open(rank_dir(&root, r)).unwrap();
        write_epoch(&b, 3, vec![(0, vec![0xDE; 64]), (3, vec![0xAD; 64])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1, 2, 3]);
    }
    // Reopen: recovery retires the orphans; restore lands on epoch 2 for
    // both ranks, byte-identical — never the mixed/uncommitted epoch 3.
    assert_group_restores(&root, 2, 2, &model);
    for r in 0..2 {
        let b = FileBackend::open(rank_dir(&root, r)).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1, 2], "rank {r} orphan retired");
    }
    // The next group epoch skips the burned number 3 on every rank.
    {
        let mut group = CheckpointGroup::open_dir(group_cfg(2), &root).unwrap();
        let restored = group.restore_latest().unwrap().unwrap();
        let mut bufs: Vec<_> = restored
            .ranks
            .into_iter()
            .map(|mut s| s.buffers.remove(s.by_name["state"]))
            .collect();
        fill(&mut bufs, &[0, 1, 2, 3], 4);
        assert_eq!(group.checkpoint().unwrap(), 4);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn crash_mid_phase_one_with_uneven_ranks_stays_in_lockstep() {
    let root = tmpdir("uneven");
    let model;
    {
        let mut group = CheckpointGroup::open_dir(group_cfg(2), &root).unwrap();
        let mut bufs = alloc_all(&group);
        fill(&mut bufs, &[0, 1, 2, 3], 1);
        group.checkpoint().unwrap();
        model = snapshot(&bufs);
    }
    // The coordinator died mid-phase 1: rank 0 finished epoch 2, rank 1
    // never did.
    {
        let b = FileBackend::open(rank_dir(&root, 0)).unwrap();
        write_epoch(&b, 2, vec![(1, vec![0xBE; 64])]).unwrap();
    }
    assert_group_restores(&root, 2, 1, &model);
    {
        let mut group = CheckpointGroup::open_dir(group_cfg(2), &root).unwrap();
        let restored = group.restore_latest().unwrap().unwrap();
        let mut bufs: Vec<_> = restored
            .ranks
            .into_iter()
            .map(|mut s| s.buffers.remove(s.by_name["state"]))
            .collect();
        fill(&mut bufs, &[0, 1], 3);
        // Rank 0 burned number 2 (committed-then-retired); rank 1 never saw
        // it. The group levels both at the burned high-water mark.
        assert_eq!(group.checkpoint().unwrap(), 3, "lockstep above the burn");
        for r in 0..2 {
            assert_eq!(group.rank_backend(r).epochs().unwrap(), vec![1, 3]);
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn crash_mid_global_manifest_append_restores_previous_epoch() {
    let root = tmpdir("torn-global");
    let model;
    {
        let mut group = CheckpointGroup::open_dir(group_cfg(2), &root).unwrap();
        let mut bufs = alloc_all(&group);
        fill(&mut bufs, &[0, 1, 2, 3], 1);
        group.checkpoint().unwrap();
        fill(&mut bufs, &[1], 2);
        group.checkpoint().unwrap();
        model = snapshot(&bufs);
    }
    // The coordinator died *inside* the phase-2 append for epoch 3: every
    // rank finished, and the global manifest holds half a record.
    for r in 0..2 {
        let b = FileBackend::open(rank_dir(&root, r)).unwrap();
        write_epoch(&b, 3, vec![(2, vec![0xCC; 64])]).unwrap();
    }
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(GLOBAL_MANIFEST_FILE))
            .unwrap();
        f.write_all(&[0x5A; 13]).unwrap(); // torn mid-record
    }
    // A crash inside a log's creation leaves its staging file: the open
    // that owns the log removes it.
    let staging = root.join(GLOBAL_MANIFEST_FILE).with_extension("new");
    std::fs::write(&staging, b"AICKGLB1").unwrap();
    assert_group_restores(&root, 2, 2, &model);
    assert!(!staging.exists(), "GLOBAL.new swept at open");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn abort_survives_a_failing_retirement_via_reopen_recovery() {
    let root = tmpdir("retire-fail");
    let model;
    {
        let (mut group, ctls) = open_failing(2, &root);
        let mut bufs = alloc_all(&group);
        fill(&mut bufs, &[0, 1, 2, 3], 1);
        group.checkpoint().unwrap();
        model = snapshot(&bufs);

        // Rank 1 fails its finish AND rank 0 cannot retire its own epoch 2:
        // the abort leaves an orphan behind on rank 0.
        ctls[1].fail(FaultOp::Finish, true);
        ctls[0].fail(FaultOp::RemoveEpoch, true);
        fill(&mut bufs, &[0], 2);
        assert!(group.checkpoint().is_err());
        assert_eq!(
            group.rank_backend(0).epochs().unwrap(),
            vec![1, 2],
            "rank 0's epoch 2 could not be retired in-process"
        );
    }
    // Reopen recovery replays the retirement from the global manifest: the
    // abort record says epoch 2 never became consistent.
    assert_group_restores(&root, 2, 1, &model);
    let b = FileBackend::open(rank_dir(&root, 0)).unwrap();
    assert_eq!(b.epochs().unwrap(), vec![1], "orphan retired at reopen");
    std::fs::remove_dir_all(&root).unwrap();
}
