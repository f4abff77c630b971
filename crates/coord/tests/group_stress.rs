//! Concurrency stress: ranks sharing one checkpoint root, each behind a
//! tiered backend (volatile fast tier + file slow tier) with tier draining
//! and group-driven chain compaction running, while per-rank application
//! threads mutate their buffers between collectives. Asserts the rank
//! namespacing holds (same epoch numbers, zero cross-rank file collisions),
//! the byte accounting stays consistent, and the whole stack restores
//! byte-identically after a crash that wipes the fast tiers.

use std::path::{Path, PathBuf};

use ai_ckpt::{CkptConfig, CompactionPolicy};
use ai_ckpt_coord::{rank_dir, CheckpointGroup, GroupConfig, GLOBAL_MANIFEST_FILE};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::log::Log;
use ai_ckpt_storage::{FileBackend, MemoryBackend, StorageBackend, TieredBackend, META_RECORD};

const RANKS: usize = 2;
const PAGES: usize = 8;
const EPOCHS: u64 = 12;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ai-ckpt-gstress-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> GroupConfig {
    GroupConfig::new(
        RANKS,
        CkptConfig::ai_ckpt(1 << 16)
            .with_max_pages(64)
            .with_committer_streams(2),
    )
    .with_compaction(CompactionPolicy::chain_len(4))
}

/// Tiered rank backend: volatile fast tier, durable file tier in the
/// rank's namespace under the shared root.
fn tiered_backend(root: &Path, rank: usize) -> std::io::Result<Box<dyn StorageBackend>> {
    Ok(Box::new(TieredBackend::new(
        Box::new(MemoryBackend::new()),
        Box::new(FileBackend::open(rank_dir(root, rank))?),
        2,
    )?))
}

fn value(rank: usize, page: usize, epoch: u64) -> u8 {
    (rank as u8)
        .wrapping_mul(101)
        .wrapping_add((page as u8).wrapping_mul(17))
        .wrapping_add(epoch as u8)
}

/// The group over `root`, every rank on a tiered backend.
fn open(root: &Path) -> CheckpointGroup {
    let global = Log::new(root.join(GLOBAL_MANIFEST_FILE), None);
    CheckpointGroup::open(cfg(), global, |r| tiered_backend(root, r)).unwrap()
}

#[test]
fn two_ranks_share_a_root_under_drain_and_compaction() {
    let root = tmpdir("shared");
    let ps = page_size();
    let model: Vec<Vec<u8>>;
    {
        let mut group = open(&root);
        let mut bufs: Vec<_> = (0..RANKS)
            .map(|r| {
                group
                    .rank(r)
                    .alloc_protected_named("state", PAGES * ps)
                    .unwrap()
            })
            .collect();
        let mut expected_flushed = 0u64;
        for epoch in 1..=EPOCHS {
            // Each rank's application thread mutates its own buffer
            // concurrently (the inter-collective compute phase), then the
            // collective runs at the "barrier".
            std::thread::scope(|s| {
                for (rank, buf) in bufs.iter_mut().enumerate() {
                    s.spawn(move || {
                        let slice = buf.as_mut_slice();
                        let touched: Vec<usize> = if epoch == 1 {
                            (0..PAGES).collect()
                        } else {
                            vec![epoch as usize % PAGES, (epoch as usize * 3) % PAGES]
                        };
                        for p in touched {
                            slice[p * ps..(p + 1) * ps].fill(value(rank, p, epoch));
                        }
                    });
                }
            });
            let dirty = if epoch == 1 {
                PAGES
            } else {
                // The two touched pages may coincide ((e*3) % 8 == e % 8
                // when 2e % 8 == 0).
                if epoch as usize % PAGES == (epoch as usize * 3) % PAGES {
                    1
                } else {
                    2
                }
            };
            expected_flushed += (RANKS * dirty) as u64;
            assert_eq!(group.checkpoint().unwrap(), epoch);
        }
        model = bufs.iter().map(|b| b.as_slice().to_vec()).collect();
        // Let the tier drains catch up, then check the invariants.
        group.wait_maintenance_idle().unwrap();
        let stats = group.stats();
        assert_eq!(stats.global_commits, EPOCHS);
        assert_eq!(stats.global_aborts, 0);
        assert!(
            stats.group_compactions >= 1,
            "the chain_len(4) policy must have fired over {EPOCHS} epochs"
        );
        assert_eq!(stats.compaction_failures, 0);

        // Byte accounting stays consistent under streams + drain +
        // compaction: what the streams report writing is exactly what the
        // backends accepted, per rank.
        for (rank, rank_stats) in stats.ranks.iter().enumerate() {
            let stream_bytes: u64 = rank_stats.streams.iter().map(|s| s.bytes).sum();
            let stream_pages: u64 = rank_stats.streams.iter().map(|s| s.pages).sum();
            let backend = group.rank_backend(rank);
            // Besides its pages every epoch carries one layout record; the
            // buffers never change, so each is the size of the newest.
            let layout = backend.read_page_at(EPOCHS, META_RECORD).unwrap().unwrap();
            assert_eq!(
                backend.bytes_written(),
                stream_bytes + EPOCHS * layout.len() as u64,
                "rank {rank}: backend accounting matches the stream counters"
            );
            assert!(
                backend.bytes_stored() <= backend.bytes_written(),
                "rank {rank}: encoding never grows a record"
            );
            assert_eq!(stream_bytes, stream_pages * ps as u64);
        }
        assert_eq!(stats.pages_flushed(), expected_flushed);

        // Namespacing: both ranks committed the same epoch numbers (that
        // is the lockstep protocol) into disjoint namespaces — and after a
        // full drain the chains live in each rank's own directory with no
        // cross-rank files.
        for rank in 0..RANKS {
            let backend = group.rank_backend(rank);
            assert!(
                backend.drain_one().unwrap().is_none(),
                "rank {rank}: drain backlog empty after wait_maintenance_idle"
            );
            let chain = backend.chain().unwrap();
            assert!(
                chain.len() <= 4 + 1,
                "rank {rank}: compaction bounded the chain, got {chain:?}"
            );
            assert_eq!(
                chain.last().unwrap().epoch,
                EPOCHS,
                "rank {rank}: newest epoch is the last global commit"
            );
        }
        for rank in 0..RANKS {
            for entry in std::fs::read_dir(rank_dir(&root, rank)).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                assert!(
                    !name.contains("rank_"),
                    "rank {rank}: foreign namespace leaked into {name}"
                );
            }
        }
        // "Crash": the group drops; the volatile fast tiers evaporate.
    }
    // Rebuild with *fresh* fast tiers — only the drained slow tiers
    // survive, which must be enough for the last globally committed epoch.
    let group = open(&root);
    assert_eq!(group.last_committed(), Some(EPOCHS));
    let restored = group.restore_latest().unwrap().unwrap();
    assert_eq!(restored.checkpoint, EPOCHS);
    for (rank, state) in restored.ranks.iter().enumerate() {
        let buf = &state.buffers[state.by_name["state"]];
        assert_eq!(
            buf.as_slice(),
            &model[rank][..],
            "rank {rank} restores byte-identically from the slow tier"
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}
