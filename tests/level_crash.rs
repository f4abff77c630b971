//! What the crash sweep (`tests/crash_points.rs`) cannot reach yet of the
//! cross-level matrix for the multi-level resilience policy: a degraded
//! restore with the partner level dead beside an unbounded fast level, and
//! a level killed again mid-rebuild (a second outage after a heal). Both
//! assert that `restore_latest` *and* the lazy demand-paged restore come
//! back byte-identical from whatever levels survive.
//!
//! Epochs are committed through the real runtime (`PageManager` over the
//! `PolicyBackend`); level drains are driven explicitly through
//! `drain_one` so every kill lands at a deterministic point in the copy
//! pipeline.

use std::sync::Arc;

use ai_ckpt::{restore_latest, restore_latest_lazy, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    FailureControl, MemoryBackend, PolicyBackend, PolicyBuilder, ResilienceSpec, StorageBackend,
};

const PAGES: usize = 6;
const SPEC: &str = "nvme=plain -> partner=replica*2 -> cold=parity*4";

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(4 * page_size()).with_max_pages(64)
}

fn build() -> (PolicyBackend, Vec<FailureControl>) {
    let spec = ResilienceSpec::parse(SPEC).unwrap();
    PolicyBuilder::new(spec)
        .unwrap()
        .build_injected(|_, _| Box::new(MemoryBackend::new()))
        .unwrap()
}

/// Commit one full epoch of a deterministic pattern through the real
/// runtime; returns the byte image a restore of this epoch must produce.
fn commit_epoch(policy: &PolicyBackend, val: u8) -> Vec<u8> {
    let mgr = PageManager::new(cfg(), Box::new(policy.clone())).unwrap();
    let mut buf = mgr
        .alloc_protected_named("state", PAGES * page_size())
        .unwrap();
    for (p, chunk) in buf.as_mut_slice().chunks_mut(page_size()).enumerate() {
        chunk.fill(val ^ p as u8);
    }
    let snap = buf.as_slice().to_vec();
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    snap
}

/// Drive the policy's copy pipeline until it is quiescent. Copies that
/// cannot progress (their source or destination is down) surface errors;
/// give up after a few consecutive ones so a dead level never wedges the
/// test the way it must never wedge the maintenance barrier.
fn drain_tolerant(policy: &PolicyBackend) {
    let mut errs = 0;
    loop {
        match policy.drain_one() {
            Ok(Some(_)) => errs = 0,
            Ok(None) => return,
            Err(_) => {
                errs += 1;
                if errs > 8 {
                    return;
                }
            }
        }
    }
}

/// Both restore doors — eager `restore_latest` and the lazy demand-paged
/// restore, one filler behind both — must produce exactly `expect` (the
/// live bytes at commit, an oracle independent of either) from whatever
/// levels are alive.
fn assert_restores(policy: &PolicyBackend, expect: &[u8], ctx: &str) {
    let fresh = PageManager::new(cfg(), Box::new(policy.clone())).unwrap();
    let eager = restore_latest(&fresh, policy).unwrap().unwrap();
    let buf = &eager.buffers[eager.by_name["state"]];
    assert!(
        buf.as_slice() == expect,
        "{ctx}: eager restore diverged from the committed image"
    );
    drop(eager);
    drop(fresh);

    let shared: Arc<dyn StorageBackend> = Arc::new(policy.clone());
    let lazy_mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&shared)).unwrap();
    let mut lazy = restore_latest_lazy(&lazy_mgr, Arc::clone(&shared), None)
        .unwrap()
        .unwrap();
    lazy.wait().unwrap();
    let buf = &lazy.state.buffers[lazy.state.by_name["state"]];
    assert!(
        buf.as_slice() == expect,
        "{ctx}: lazy restore diverged from the committed image"
    );
}

/// Resident epoch count per level, via the policy's own stats.
fn resident(policy: &PolicyBackend) -> Vec<usize> {
    policy
        .stats()
        .levels
        .iter()
        .map(|l| l.resident_epochs)
        .collect()
}

/// The partner level dies mid-drain. The fast level here is unbounded, so
/// the levels still up hold the whole chain and a degraded restore is
/// exact; beside the crash sweep's bounded `hot` that restore is a known
/// bug, and the sweep skips it.
#[test]
fn killing_an_outer_level_mid_drain_defers_and_rebuilds() {
    let (policy, controls) = build();
    commit_epoch(&policy, 0x11);
    commit_epoch(&policy, 0x22);
    drain_tolerant(&policy);
    assert_eq!(resident(&policy), vec![2, 2, 2], "base drained");

    // Kill the partner, then commit epoch 3: its copy toward the dead
    // level must defer while every surviving level still catches up.
    controls[1].kill();
    let e3 = commit_epoch(&policy, 0x33);
    drain_tolerant(&policy);
    // A dead level cannot be probed: its stat reports 0.
    assert_eq!(resident(&policy), vec![3, 0, 3], "survivors kept draining");
    assert!(policy.stats().levels[1].suspect);
    assert_restores(&policy, &e3, "degraded");

    // Heal: the parked copy becomes a rebuild.
    controls[1].heal();
    drain_tolerant(&policy);
    assert_eq!(resident(&policy), vec![3, 3, 3], "converged");
    assert!(policy.stats().levels[1].rebuilds_in >= 1, "rebuilt");
}

#[test]
fn killing_a_level_mid_rebuild_reparks_and_converges() {
    for target in 1..=2usize {
        let ctx = format!("rebuild target {target}");
        let (policy, controls) = build();
        let _e1 = commit_epoch(&policy, 0x71);
        drain_tolerant(&policy);

        // Two epochs land while the target is down, so its rebuild after
        // heal needs two copy steps — killing between them is precisely
        // "mid-rebuild".
        controls[target].kill();
        let _e2 = commit_epoch(&policy, 0x72);
        let e3 = commit_epoch(&policy, 0x73);
        drain_tolerant(&policy);

        controls[target].heal();
        let copied = policy.drain_one().unwrap();
        assert!(copied.is_some(), "{ctx}: first rebuild step ran");
        controls[target].kill();
        drain_tolerant(&policy);
        assert_restores(&policy, &e3, &format!("{ctx}, killed mid-rebuild"));

        controls[target].heal();
        drain_tolerant(&policy);
        assert_eq!(resident(&policy), vec![3, 3, 3], "{ctx}: converged");
        assert!(
            policy.stats().levels[target].rebuilds_in >= 2,
            "{ctx}: both missing epochs rebuilt"
        );
        assert_eq!(policy.copies_owed(), 0, "{ctx}");

        // The twice-interrupted level alone restores the latest epoch.
        for (l, control) in controls.iter().enumerate() {
            if l != target {
                control.kill();
            }
        }
        assert_restores(&policy, &e3, &format!("{ctx}, sole survivor"));
    }
}
