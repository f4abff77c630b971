//! Cross-level fault matrix for the multi-level resilience policy
//! (ISSUE 9 headline): kill an entire level mid-drain and mid-rebuild,
//! and arm every injection point `FailureControl` supports, then assert
//! that `restore_latest` *and* the lazy demand-paged restore come back
//! byte-identical from whatever levels survive — and that a heal always
//! converges the cascade back to full redundancy.
//!
//! Epochs are committed through the real runtime (`PageManager` over the
//! `PolicyBackend`); level drains are driven explicitly through
//! `drain_one` so every kill lands at a deterministic point in the copy
//! pipeline.

use std::sync::Arc;

use ai_ckpt::{restore_latest, restore_latest_lazy, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::failing::{Fault, When};
use ai_ckpt_storage::{
    FailureControl, FaultOp, MemoryBackend, PolicyBackend, PolicyBuilder, ResilienceSpec,
    StorageBackend,
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

#[test]
fn killing_an_outer_level_mid_drain_defers_and_rebuilds() {
    for target in 1..=2usize {
        let ctx = format!("outer level {target}");
        let (policy, controls) = build();
        let _e1 = commit_epoch(&policy, 0x11);
        let e2 = commit_epoch(&policy, 0x22);
        drain_tolerant(&policy);
        assert_eq!(resident(&policy), vec![2, 2, 2], "{ctx}: base drained");

        // Kill the target, then commit epoch 3: its copy toward the dead
        // level must defer while every surviving level still catches up.
        controls[target].kill();
        let e3 = commit_epoch(&policy, 0x33);
        drain_tolerant(&policy);
        let res = resident(&policy);
        for (l, &r) in res.iter().enumerate() {
            if l == target {
                // A dead level cannot be probed: its stat reports 0.
                assert_eq!(r, 0, "{ctx}: dead level is unreadable");
            } else {
                assert_eq!(r, 3, "{ctx}: surviving level {l} kept draining");
            }
        }
        assert!(policy.stats().levels[target].suspect, "{ctx}");
        assert_restores(&policy, &e3, &format!("{ctx}, degraded"));

        // Heal: the parked copy becomes a rebuild and the cascade
        // converges back to full redundancy.
        controls[target].heal();
        drain_tolerant(&policy);
        assert_eq!(resident(&policy), vec![3, 3, 3], "{ctx}: converged");
        let stats = policy.stats();
        assert!(!stats.levels[target].suspect, "{ctx}");
        assert!(
            stats.levels[target].rebuilds_in >= 1,
            "{ctx}: deferred copy completed as a rebuild"
        );
        assert_eq!(policy.copies_owed(), 0, "{ctx}");

        // Single-survivor restore: the freshly rebuilt level alone must
        // serve the latest checkpoint byte-identically.
        for (l, control) in controls.iter().enumerate() {
            if l != target {
                control.kill();
            }
        }
        assert_restores(&policy, &e3, &format!("{ctx}, sole survivor"));

        // And after everything heals, the last drained epoch is still 2
        // everywhere below the latest — sanity that nothing was retired.
        for control in &controls {
            control.heal();
        }
        drain_tolerant(&policy);
        assert_restores(&policy, &e3, &format!("{ctx}, fully healed"));
        let _ = e2;
    }
}

#[test]
fn killing_the_fast_level_mid_drain_serves_the_last_drained_epoch() {
    let (policy, controls) = build();
    let _e1 = commit_epoch(&policy, 0x51);
    let e2 = commit_epoch(&policy, 0x52);
    drain_tolerant(&policy);

    // Strand epoch 3 on the fast level: both outer levels are down when
    // it commits, so no copy can leave level 0.
    controls[1].kill();
    controls[2].kill();
    let e3 = commit_epoch(&policy, 0x53);

    // Now the fast level dies and the outer levels come back — the
    // stranded epoch has no source, the drain surfaces errors instead of
    // wedging, and restores fall back to the newest fully drained epoch.
    controls[0].kill();
    controls[1].heal();
    controls[2].heal();
    drain_tolerant(&policy);
    assert_restores(&policy, &e2, "fast level dead, stranded epoch");

    // The stranded epoch was parked, not dropped: healing the fast level
    // lets the pipeline finish the interrupted drain.
    controls[0].heal();
    drain_tolerant(&policy);
    assert_eq!(resident(&policy), vec![3, 3, 3], "converged after heal");
    assert_eq!(policy.copies_owed(), 0);
    assert_restores(&policy, &e3, "fully healed");
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

#[test]
fn every_injection_point_on_the_partner_level_converges_after_heal() {
    type Arm = fn(&FailureControl);
    let matrix: &[(&str, Arm)] = &[
        ("kill", |c| c.kill()),
        ("fail_reads", |c| {
            c.fail(FaultOp::List, true);
            c.fail(FaultOp::Read, true);
        }),
        ("fail_begin_epoch", |c| c.fail(FaultOp::BeginEpoch, true)),
        ("fail_finish", |c| c.fail(FaultOp::Finish, true)),
        ("fail_writes_after_0", |c| {
            c.arm(When::Kind(FaultOp::Write), Fault::FailAfter(0))
        }),
        // The drain copy carries the epoch's data records, then its layout
        // record: this budget fails exactly the latter.
        ("fail_layout_write", |c| {
            c.arm(When::Kind(FaultOp::Write), Fault::FailAfter(PAGES as u64))
        }),
        ("fail_drain_one", |c| c.fail(FaultOp::DrainOne, true)),
        ("fail_install_compacted", |c| {
            c.fail(FaultOp::InstallCompacted, true)
        }),
    ];
    for (name, arm) in matrix {
        let (policy, controls) = build();
        let _e1 = commit_epoch(&policy, 0x91);
        drain_tolerant(&policy);

        arm(&controls[1]);
        let e2 = commit_epoch(&policy, 0x92);
        drain_tolerant(&policy);
        assert_restores(&policy, &e2, &format!("{name}, armed"));

        controls[1].heal();
        drain_tolerant(&policy);
        assert_eq!(resident(&policy), vec![2, 2, 2], "{name}: converged");
        let stats = policy.stats();
        assert!(!stats.levels[1].suspect, "{name}");
        assert_eq!(policy.copies_owed(), 0, "{name}");
        assert_restores(&policy, &e2, &format!("{name}, healed"));
    }
}

#[test]
fn retirement_with_a_failing_level_sticks_and_cleans_up_after_heal() {
    let (policy, controls) = build();
    let _e1 = commit_epoch(&policy, 0xB1);
    let e2 = commit_epoch(&policy, 0xB2);
    drain_tolerant(&policy);

    // remove_epochs fails on the partner level: the retirement is still
    // recorded policy-wide (the epoch disappears from every listing) and
    // the caller sees the error.
    controls[1].fail(FaultOp::RemoveEpoch, true);
    assert!(
        policy.remove_epochs(&[1]).is_err(),
        "failing level surfaces"
    );
    assert_eq!(policy.epochs().unwrap(), vec![2], "retired policy-wide");
    assert_restores(&policy, &e2, "retired while failing");

    // Heal: reconcile scrubs the stale epoch off the lagging level.
    controls[1].heal();
    drain_tolerant(&policy);
    assert_eq!(resident(&policy), vec![1, 1, 1], "stale epoch scrubbed");
    assert!(!policy.stats().levels[1].suspect);
    assert_restores(&policy, &e2, "healed after retirement");
}
