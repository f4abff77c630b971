//! Shape assertions on miniature versions of every figure: the qualitative
//! claims the reproduction stands on, checked in CI time. The full-scale
//! numbers live in EXPERIMENTS.md (regenerated by the `figures` binary).

use ai_ckpt_bench::presets;
use ai_ckpt_bench::{fig2, Fig2Config};
use ai_ckpt_sim::Strategy;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The one wall-clock test of this binary must not share the CPUs with the
/// CPU-bound simulator tests beside it: `fig2::run` measures each pattern's
/// baseline first and its three strategies after it, so sibling threads
/// that finish in between make the later runs (sync last) look cheaper
/// than the earlier ones (ours first), and the ordering asserts flip.
static CPUS: RwLock<()> = RwLock::new(());

fn cpus_alone() -> RwLockWriteGuard<'static, ()> {
    CPUS.write().unwrap_or_else(|e| e.into_inner())
}

fn cpus_shared() -> RwLockReadGuard<'static, ()> {
    CPUS.read().unwrap_or_else(|e| e.into_inner())
}

const STRATEGIES: [Strategy; 3] = [Strategy::Sync, Strategy::AsyncNoPattern, Strategy::AiCkpt];

#[test]
fn fig2_shape_real_runtime() {
    let _alone = cpus_alone();
    // Tiny but real: mprotect faults, background committer, throttle.
    let cfg = Fig2Config {
        region_bytes: 8 << 20,
        cow_bytes: 1 << 20,
        iterations: 9,
        ckpt_every: 3,
        ..Fig2Config::default()
    };
    let cells = fig2::run(&cfg).unwrap();
    assert_eq!(cells.len(), 9);
    let get = |pattern: &str, strategy: &str| {
        cells
            .iter()
            .find(|c| c.pattern == pattern && c.strategy == strategy)
            .unwrap()
    };
    for pattern in ["Ascending", "Random", "Descending"] {
        let ours = get(pattern, "our-approach");
        let sync = get(pattern, "sync");
        // Wall-clock assertions on a shared CI box need slack; require
        // sync to lose clearly rather than by an exact factor.
        assert!(
            ours.increase_secs < sync.increase_secs,
            "{pattern}: ours {:.2}s vs sync {:.2}s",
            ours.increase_secs,
            sync.increase_secs
        );
    }
    // The adaptive strategy must convert interference into CoW/AVOIDED
    // rather than sync-like stalls on the misaligned patterns.
    for pattern in ["Random", "Descending"] {
        let ours = get(pattern, "our-approach");
        let nop = get(pattern, "async-no-pattern");
        assert!(
            ours.increase_secs <= nop.increase_secs * 1.15,
            "{pattern}: ours {:.2}s should not lose to no-pattern {:.2}s",
            ours.increase_secs,
            nop.increase_secs
        );
        assert!(
            ours.cow_pages + ours.avoided_pages >= nop.cow_pages + nop.avoided_pages,
            "{pattern}: adaptation must avoid more interference"
        );
    }
}

#[test]
fn fig3_shape_ordering_and_scaling() {
    let _shared = cpus_shared();
    let small = presets::quick::cm1(2, 16 << 20, 1).compare(&STRATEGIES);
    let large = presets::quick::cm1(8, 16 << 20, 1).compare(&STRATEGIES);
    for cmp in [&small, &large] {
        let sync = cmp.row(Strategy::Sync).unwrap().increase_secs;
        let nop = cmp.row(Strategy::AsyncNoPattern).unwrap().increase_secs;
        let ours = cmp.row(Strategy::AiCkpt).unwrap().increase_secs;
        assert!(ours <= nop + 1e-9, "ours {ours:.2} vs no-pattern {nop:.2}");
        assert!(nop <= sync + 1e-9, "no-pattern {nop:.2} vs sync {sync:.2}");
    }
    // Sync checkpointing time grows with scale (PVFS burst congestion).
    let sync_small = small.row(Strategy::Sync).unwrap().mean_ckpt_secs;
    let sync_large = large.row(Strategy::Sync).unwrap().mean_ckpt_secs;
    assert!(
        sync_large >= sync_small,
        "sync ckpt time must not shrink with scale: {sync_small:.2} -> {sync_large:.2}"
    );
}

#[test]
fn fig4_shape_cow_monotonicity_and_convergence() {
    let _shared = cpus_shared();
    let reductions: Vec<(f64, f64)> = [0u64, 1 << 20, 16 << 20, 256 << 20]
        .iter()
        .map(|&cow| {
            let cmp = presets::quick::cm1(4, cow, 1).compare(&STRATEGIES);
            (
                cmp.reduction_vs_sync(Strategy::AsyncNoPattern).unwrap(),
                cmp.reduction_vs_sync(Strategy::AiCkpt).unwrap(),
            )
        })
        .collect();
    // Ours leads no-pattern at every size.
    for (i, &(nop, ours)) in reductions.iter().enumerate() {
        assert!(
            ours >= nop - 1.0,
            "size #{i}: ours {ours:.1}% must lead no-pattern {nop:.1}%"
        );
    }
    // Larger buffers help (weak monotonicity, jitter tolerance 5pp).
    assert!(reductions[2].1 >= reductions[0].1 - 5.0);
    assert!(reductions[3].0 >= reductions[1].0 - 5.0);
    // Convergence by the largest size.
    let (nop_max, ours_max) = reductions[3];
    assert!(
        (ours_max - nop_max).abs() < 15.0,
        "largest buffer: strategies should converge ({nop_max:.1}% vs {ours_max:.1}%)"
    );
}

#[test]
fn fig5_shape_local_disks() {
    let _shared = cpus_shared();
    let cmp = presets::quick::milc(20, 0, 1).compare(&STRATEGIES);
    let sync = cmp.row(Strategy::Sync).unwrap();
    let nop = cmp.row(Strategy::AsyncNoPattern).unwrap();
    let ours = cmp.row(Strategy::AiCkpt).unwrap();
    assert!(
        ours.increase_secs < sync.increase_secs * 0.75,
        "paper: >25% better"
    );
    assert!(ours.increase_secs <= nop.increase_secs);
    // Checkpoint time roughly flat across strategies (local disks).
    assert!(
        (ours.mean_ckpt_secs - sync.mean_ckpt_secs).abs() / sync.mean_ckpt_secs < 0.35,
        "ckpt times should be comparable: sync {:.2}s vs ours {:.2}s",
        sync.mean_ckpt_secs,
        ours.mean_ckpt_secs
    );
}

#[test]
fn simulation_is_deterministic_per_seed() {
    let _shared = cpus_shared();
    let a = presets::quick::cm1(3, 4 << 20, 9).run(Strategy::AiCkpt);
    let b = presets::quick::cm1(3, 4 << 20, 9).run(Strategy::AiCkpt);
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.storage_requests, b.storage_requests);
}
