//! Crash cases around the phase-2 global commit that only the *order* of
//! global-manifest records can disambiguate.
//!
//! The subtle one: the coordinator's commit append physically reaches the
//! disk, but its success is never observed (an I/O error or crash after the
//! write). The coordinator then runs the ordinary abort path — retire every
//! rank's local epoch, append a compensating `Abort` — leaving the log with
//! `Commit(e)` *followed by* `Abort(e)`. The last record per epoch is
//! authoritative: a reopen must restore epoch `e-1`, not resurrect `e`
//! (whose rank segments are gone).

use std::path::PathBuf;

use ai_ckpt::CkptConfig;
use ai_ckpt_coord::{
    global, rank_dir, CheckpointGroup, GlobalRecord, GroupConfig, GLOBAL_MANIFEST_FILE,
};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::log::Log;
use ai_ckpt_storage::{FileBackend, StorageBackend};

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

fn value(rank: usize, page: usize, epoch: u64) -> u8 {
    (rank as u8)
        .wrapping_mul(97)
        .wrapping_add((page as u8).wrapping_mul(13))
        .wrapping_add(epoch as u8)
}

#[test]
fn abort_after_a_disk_reached_commit_wins_on_reopen() {
    let root = tmpdir("commit-reports-failure");
    let ps = page_size();
    let mut model_epoch2: Vec<Vec<u8>> = Vec::new();
    {
        let mut group = CheckpointGroup::open_dir(cfg(), &root).unwrap();
        let mut bufs: Vec<_> = (0..RANKS)
            .map(|r| {
                group
                    .rank(r)
                    .alloc_protected_named("state", PAGES * ps)
                    .unwrap()
            })
            .collect();
        for epoch in 1..=3u64 {
            for (rank, buf) in bufs.iter_mut().enumerate() {
                let slice = buf.as_mut_slice();
                for p in 0..PAGES {
                    slice[p * ps..(p + 1) * ps].fill(value(rank, p, epoch));
                }
            }
            if epoch == 3 {
                // The state the surviving checkpoint (epoch 2) holds.
                model_epoch2 = bufs.iter().map(|b| b.as_slice().to_vec()).collect();
                for (rank, m) in model_epoch2.iter_mut().enumerate() {
                    for p in 0..PAGES {
                        m[p * ps..(p + 1) * ps].fill(value(rank, p, 2));
                    }
                }
            }
            assert_eq!(group.checkpoint().unwrap(), epoch);
        }
    }
    // The epoch-3 commit append reached the disk (it is in the log above),
    // but the coordinator "observed" a failure and compensated exactly as
    // `CheckpointGroup` does when the phase-2 append errors: retire every
    // rank's epoch 3, append an abort burning the number.
    for rank in 0..RANKS {
        let backend = FileBackend::open(rank_dir(&root, rank)).unwrap();
        backend.remove_epochs(&[3]).unwrap();
    }
    global::append(
        &Log::new(root.join(GLOBAL_MANIFEST_FILE), None),
        GlobalRecord::abort(3, RANKS as u32, u64::MAX),
    )
    .unwrap();

    // Reopen: the log reads Commit(3), Abort(3) — the abort, being last,
    // is authoritative. Taking "any commit wins" here would pick epoch 3,
    // whose segments were just retired, and brick the restore.
    let mut group = CheckpointGroup::open_dir(cfg(), &root).unwrap();
    assert_eq!(
        group.last_committed(),
        Some(2),
        "the last record per epoch decides, not the newest commit"
    );
    let restored = group.restore_latest().unwrap().unwrap();
    assert_eq!(restored.checkpoint, 2);
    for (rank, state) in restored.ranks.iter().enumerate() {
        let buf = &state.buffers[state.by_name["state"]];
        assert_eq!(
            buf.as_slice(),
            &model_epoch2[rank][..],
            "rank {rank} restores epoch 2 byte-identically"
        );
    }
    // The burned number is never reused: the next group epoch is 4.
    assert_eq!(group.checkpoint().unwrap(), 4);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A group root that does not exist yet is created by rank 0's open, which
/// fsyncs the parent of each directory it creates: a power cut after the
/// first group commit cannot drop the root, and `GLOBAL` and every rank's
/// directory with it.
#[test]
fn a_fresh_root_is_a_durable_entry_before_the_first_commit() {
    let parent = tmpdir("fresh-root");
    let root = parent.join("group");
    let group = CheckpointGroup::open_dir(cfg(), &root).unwrap();
    let dir_fsyncs: Vec<u64> = (0..RANKS)
        .map(|rank| group.rank_backend(rank).io_stats().dir_fsyncs)
        .collect();
    // Rank 0 created the root and its own directory, every later rank
    // only its own.
    assert_eq!(dir_fsyncs, [2, 1]);
    drop(group);
    std::fs::remove_dir_all(&parent).unwrap();
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
        let mut bufs: Vec<_> = (0..RANKS)
            .map(|r| {
                group
                    .rank(r)
                    .alloc_protected_named("state", PAGES * ps)
                    .unwrap()
            })
            .collect();
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
fn a_corrupt_global_record_fails_the_open_before_any_rank_is_touched() {
    // Three committed group epochs, then one bit of the *first* commit
    // record rots. Read as "longest valid prefix" that is an empty log:
    // `last_committed() == None`, so open-time recovery would take every
    // rank epoch for a phase-1 orphan and retire epochs 1–3 on every rank —
    // and the repair pass would truncate the evidence. The open must fail
    // instead, with the log and every rank exactly as they were.
    let root = tmpdir("global-rot");
    let ps = page_size();
    {
        let mut group = CheckpointGroup::open_dir(cfg(), &root).unwrap();
        let mut bufs: Vec<_> = (0..RANKS)
            .map(|r| {
                group
                    .rank(r)
                    .alloc_protected_named("state", PAGES * ps)
                    .unwrap()
            })
            .collect();
        for epoch in 1..=3u64 {
            for (rank, buf) in bufs.iter_mut().enumerate() {
                buf.as_mut_slice()[..ps].fill(value(rank, 0, epoch));
            }
            assert_eq!(group.checkpoint().unwrap(), epoch);
        }
    }
    let global_path = root.join(GLOBAL_MANIFEST_FILE);
    let mut bytes = std::fs::read(&global_path).unwrap();
    assert_eq!(bytes.len(), 8 + 3 * 29, "magic + three 29-byte records");
    bytes[8 + 1] ^= 0x01; // record 1's epoch field
    std::fs::write(&global_path, &bytes).unwrap();

    let err = CheckpointGroup::open_dir(cfg(), &root)
        .err()
        .expect("open over a corrupt global log must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(
        std::fs::read(&global_path).unwrap(),
        bytes,
        "the log is left as found, not truncated to its valid prefix"
    );
    for rank in 0..RANKS {
        let backend = FileBackend::open(rank_dir(&root, rank)).unwrap();
        assert_eq!(
            backend.epochs().unwrap(),
            vec![1, 2, 3],
            "rank {rank}: no committed epoch was retired"
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}
