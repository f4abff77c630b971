//! Cross-validation of the real coordinator against the discrete-event
//! cluster simulator on the same workload shape: N barrier-coupled ranks,
//! every page touched every iteration, a coordinated checkpoint every K
//! iterations. The simulator predicts how many checkpoints each rank takes
//! and how many page requests reach storage; the real `CheckpointGroup`
//! must measure exactly those counts.

use ai_ckpt::CkptConfig;
use ai_ckpt_coord::{CheckpointGroup, GroupConfig};
use ai_ckpt_mem::page_size;
use ai_ckpt_sim::{Cluster, ClusterConfig, Pattern, StorageModel, Strategy, SyntheticApp};
use ai_ckpt_storage::log::Log;
use ai_ckpt_storage::MemoryBackend;

const RANKS: usize = 4;
const PAGES: usize = 32;
const ITERATIONS: usize = 6;
const CKPT_EVERY: usize = 2;

fn sim_outcome(ckpt_at_end: bool) -> ai_ckpt_sim::SimOutcome {
    let cfg = ClusterConfig {
        ranks: RANKS,
        ranks_per_node: 1,
        iterations: ITERATIONS,
        ckpt_every: CKPT_EVERY,
        ckpt_at_end,
        strategy: Strategy::AiCkpt,
        committer_streams: 2,
        cow_slots: 16,
        barrier_ns: 1_000,
        fault_ns: 500,
        cow_copy_ns: 200,
        jitter: 0.01,
        async_compute_drag: 1.0,
        seed: 7,
    };
    Cluster::new(cfg, StorageModel::local_disk(RANKS), |_r| {
        Box::new(SyntheticApp::new(
            PAGES,
            4096,
            Pattern::Ascending,
            2_000,
            10_000,
        ))
    })
    .run()
}

/// Drive the real group through the simulator's iteration script: every
/// iteration writes all pages; the checkpoint placement mirrors the
/// cluster's barrier logic exactly.
fn real_outcome(ckpt_at_end: bool) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!(
        "ai-ckpt-simparity-{ckpt_at_end}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ps = page_size();
    let cfg = GroupConfig::new(
        RANKS,
        CkptConfig::ai_ckpt(1 << 16)
            .with_max_pages(64)
            .with_committer_streams(2),
    );
    let mut group = CheckpointGroup::open(cfg, Log::new(dir.join("GLOBAL"), None), |_r| {
        Ok(Box::new(MemoryBackend::new()))
    })
    .unwrap();
    let mut bufs: Vec<_> = (0..RANKS)
        .map(|r| {
            group
                .rank(r)
                .alloc_protected_named("state", PAGES * ps)
                .unwrap()
        })
        .collect();
    for iter in 1..=ITERATIONS {
        for (rank, buf) in bufs.iter_mut().enumerate() {
            let slice = buf.as_mut_slice();
            for p in 0..PAGES {
                slice[p * ps] = (rank as u8) ^ (p as u8).wrapping_add(iter as u8);
            }
        }
        // The cluster's post-barrier rule: checkpoint after every
        // `CKPT_EVERY`-th iteration, but the run ends at `ITERATIONS`
        // (`ckpt_at_end` adds the trailing MILC-style checkpoint).
        let app_done = iter >= ITERATIONS;
        if (!app_done && iter % CKPT_EVERY == 0) || (app_done && ckpt_at_end) {
            group.checkpoint().unwrap();
        }
    }
    let stats = group.stats();
    let commits = stats.global_commits;
    let flushed = stats.pages_flushed();
    std::fs::remove_dir_all(&dir).unwrap();
    (commits, flushed)
}

#[test]
fn group_matches_cluster_predictions() {
    for ckpt_at_end in [false, true] {
        let sim = sim_outcome(ckpt_at_end);
        let per_rank = sim.checkpoints_per_rank();
        assert!(
            per_rank.iter().all(|&c| c == per_rank[0]),
            "coordinated sim ranks checkpoint in lockstep: {per_rank:?}"
        );
        let (commits, flushed) = real_outcome(ckpt_at_end);
        assert_eq!(
            commits, per_rank[0] as u64,
            "ckpt_at_end={ckpt_at_end}: global commits == the simulator's \
             per-rank checkpoint count"
        );
        assert_eq!(
            flushed, sim.storage_requests,
            "ckpt_at_end={ckpt_at_end}: pages flushed by the real group == \
             page requests the simulated storage served"
        );
    }
}
