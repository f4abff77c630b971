//! The two group rows the crash sweep (`tests/crash_points.rs`, its
//! `group` stack) cannot judge. One needs two faults in one run: a rank
//! fails phase 1 *and* a survivor's retirement fails, so the abort leaves an
//! orphan for reopen recovery. The other counts fsyncs over two orphans,
//! which is a cost, not a crash property.

use std::path::PathBuf;

use ai_ckpt::{CkptConfig, ProtectedBuffer};
use ai_ckpt_coord::{rank_dir, CheckpointGroup, GroupConfig, GLOBAL_MANIFEST_FILE};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::log::Log;
use ai_ckpt_storage::{FailingBackend, FaultOp, FileBackend, StorageBackend};

const RANKS: usize = 2;
const PAGES: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ai-ckpt-gcrash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> GroupConfig {
    GroupConfig::new(RANKS, CkptConfig::ai_ckpt(1 << 16).with_max_pages(16))
}

/// Each rank's `state` buffer.
fn alloc(group: &CheckpointGroup) -> Vec<ProtectedBuffer> {
    let len = PAGES * page_size();
    let buf = |r| group.rank(r).alloc_protected_named("state", len).unwrap();
    (0..RANKS).map(buf).collect()
}

fn value(rank: usize, page: usize, epoch: u64) -> u8 {
    (rank as u8)
        .wrapping_mul(97)
        .wrapping_add((page as u8).wrapping_mul(13))
        .wrapping_add(epoch as u8)
}

#[test]
fn orphaned_phase1_epochs_retire_in_one_batch_per_rank() {
    // A coordinator that dies between phase 1 and phase 2 leaves every rank
    // with local epochs the global manifest never heard of. Reopen must
    // retire the whole orphan suffix — and does it with one batched
    // manifest append per rank (one fsync), not one per epoch.
    let root = tmpdir("orphan-batch");
    let ps = page_size();
    {
        let mut group = CheckpointGroup::open_dir(cfg(), &root).unwrap();
        let mut bufs = alloc(&group);
        for epoch in 1..=2u64 {
            for (rank, buf) in bufs.iter_mut().enumerate() {
                buf.as_mut_slice()[..ps].fill(value(rank, 0, epoch));
            }
            assert_eq!(group.checkpoint().unwrap(), epoch);
        }
    }
    // Simulate the died coordinator: epochs 3 and 4 commit rank-locally
    // (phase 1 succeeded) but no global record is ever appended.
    for rank in 0..RANKS {
        let backend = FileBackend::open(rank_dir(&root, rank)).unwrap();
        for epoch in 3..=4u64 {
            let w = backend.begin_epoch(epoch).unwrap();
            w.write_pages(&[(0, &vec![epoch as u8; ps][..])]).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(backend.epochs().unwrap(), vec![1, 2, 3, 4]);
    }
    let group = CheckpointGroup::open_dir(cfg(), &root).unwrap();
    assert_eq!(group.last_committed(), Some(2));
    for rank in 0..RANKS {
        let backend = group.rank_backend(rank);
        assert_eq!(
            backend.epochs().unwrap(),
            vec![1, 2],
            "rank {rank}: the orphan suffix is gone"
        );
        // The batched retirement is one manifest append+fsync on top of
        // the reopen's baseline: two retire records, one fsync.
        let io = backend.io_stats();
        assert_eq!(io.manifest_appends, 2, "rank {rank}: two retire records");
        assert_eq!(io.manifest_fsyncs, 1, "rank {rank}: in one batch");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn abort_survives_a_failing_retirement_via_reopen_recovery() {
    let root = tmpdir("retire-fail");
    let ps = page_size();
    let mut ctls = Vec::new();
    let global = Log::new(root.join(GLOBAL_MANIFEST_FILE), None);
    let mut group = CheckpointGroup::open(cfg(), global, |r| {
        let (b, ctl) = FailingBackend::new(FileBackend::open(rank_dir(&root, r))?);
        ctls.push(ctl);
        Ok(Box::new(b))
    })
    .unwrap();
    let mut bufs = alloc(&group);
    let fill = |bufs: &mut Vec<ProtectedBuffer>, epoch| {
        for (rank, buf) in bufs.iter_mut().enumerate() {
            buf.as_mut_slice()[..ps].fill(value(rank, 0, epoch));
        }
    };
    fill(&mut bufs, 1);
    group.checkpoint().unwrap();
    let model: Vec<Vec<u8>> = bufs.iter().map(|b| b.as_slice().to_vec()).collect();

    // Rank 1 fails its finish AND rank 0 cannot retire its own epoch 2:
    // the abort leaves an orphan behind on rank 0.
    ctls[1].fail(FaultOp::Finish, true);
    ctls[0].fail(FaultOp::RemoveEpoch, true);
    fill(&mut bufs, 2);
    assert!(group.checkpoint().is_err());
    assert_eq!(group.stats().global_aborts, 1, "the abort is counted");
    assert_eq!(
        group.rank_backend(0).epochs().unwrap(),
        vec![1, 2],
        "rank 0's epoch 2 could not be retired in-process"
    );
    drop(bufs);
    drop(group);

    // Reopen recovery replays the retirement from the global manifest: the
    // abort record says epoch 2 never became consistent.
    let group = CheckpointGroup::open_dir(cfg(), &root).unwrap();
    assert_eq!(group.last_committed(), Some(1));
    let restored = group.restore_latest().unwrap().unwrap();
    for (rank, state) in restored.ranks.iter().enumerate() {
        let buf = &state.buffers[state.by_name["state"]];
        assert_eq!(buf.as_slice(), &model[rank][..], "rank {rank}");
    }
    let epochs = group.rank_backend(0).epochs().unwrap();
    assert_eq!(epochs, vec![1], "orphan retired at reopen");
    std::fs::remove_dir_all(&root).unwrap();
}
