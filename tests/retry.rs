//! Transient-fault retry proofs (ISSUE 10): a bounded, deterministic-jitter
//! retry layer absorbs self-healing hiccups (EINTR-shaped bursts) on the
//! drain and read paths, while permanent and corrupt faults keep failing
//! exactly as fast as before. (A burst on every call of the drain is the
//! crash sweep's `burst` mode, `tests/crash_points.rs`: e.g.
//! `memory-over-file:burst:53`, the drain's read of the memory tier, and
//! `:59`, the slow tier's `finish` of its copy.)
//!
//! Attempt counts are asserted exactly — the calls the failure control
//! journals — and the jitter stream is seeded, so the schedule is
//! reproducible and the tests cannot flake on timing.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ai_ckpt::{restore_at, restore_latest, restore_latest_lazy, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::failing::{Fault, When};
use ai_ckpt_storage::{
    classify, errors::transient, FailingBackend, FailureControl, FaultClass, FaultOp,
    MemoryBackend, MemoryRoot, RetryPolicy, StorageBackend, META_RECORD,
};

const PAGES: usize = 4;

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(2 * page_size())
        .with_max_pages(64)
        .with_committer_streams(1)
}

/// Calls of `op` the control has numbered so far: every attempt, failed
/// or not.
fn calls_of(ctl: &FailureControl, op: FaultOp) -> usize {
    ctl.journal().iter().filter(|c| c.kind == op).count()
}

/// Record reads the control has numbered so far.
fn reads(ctl: &FailureControl) -> usize {
    calls_of(ctl, FaultOp::Read)
}

/// Arm a burst of `n` transient faults on every read.
fn read_burst(ctl: &FailureControl, n: u64) {
    ctl.arm(When::Kind(FaultOp::Read), Fault::Burst(n));
}

/// The last data page of `epoch` in first-write order.
fn last_page(store: &MemoryBackend, epoch: u64) -> u64 {
    let ids = store.epoch_page_ids(epoch).unwrap();
    *ids.iter().rfind(|&&p| p != META_RECORD).unwrap()
}

fn fill_and_checkpoint(mgr: &PageManager, val: u8) -> Vec<u8> {
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

/// Transient burst against a real stored epoch: attempt count is exactly
/// `burst + 1` and the bytes come back intact.
#[test]
fn read_burst_is_absorbed_with_exact_attempt_count() {
    let (backend, ctl) = FailingBackend::new(MemoryRoot::new().open("read-burst"));
    let backend: Arc<dyn StorageBackend> = Arc::new(backend);
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    fill_and_checkpoint(&mgr, 0x3C);
    mgr.wait_maintenance_idle().unwrap();
    drop(mgr);

    read_burst(&ctl, 2);
    let before = reads(&ctl);
    let policy = RetryPolicy {
        base: std::time::Duration::from_micros(50),
        ..RetryPolicy::default()
    };
    let (pages, attempts) = policy
        .run_counted(|| {
            let mut n = 0u32;
            backend.read_epoch(1, &mut |_, _| n += 1).map(|()| n)
        })
        .expect("a 2-fault burst fits inside the default 4-attempt budget");
    assert_eq!(attempts, 3, "two transient failures then success");
    assert_eq!(reads(&ctl) - before, 3, "burst spent, then one read");
    assert!(pages > 0);
}

/// A burst longer than the budget surfaces the transient error to the
/// caller after exactly `max_attempts` tries — bounded, not infinite.
#[test]
fn oversized_burst_gives_up_after_max_attempts() {
    let (backend, ctl) = FailingBackend::new(MemoryRoot::new().open("oversized"));
    let backend: Arc<dyn StorageBackend> = Arc::new(backend);
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    fill_and_checkpoint(&mgr, 0x5A);
    drop(mgr);

    read_burst(&ctl, 100);
    let before = reads(&ctl);
    let policy = RetryPolicy {
        max_attempts: 3,
        base: std::time::Duration::from_micros(50),
        ..RetryPolicy::default()
    };
    let calls = AtomicU32::new(0);
    let err = policy
        .run(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            backend.read_epoch(1, &mut |_, _| {})
        })
        .unwrap_err();
    assert_eq!(classify(&err), FaultClass::Transient);
    assert_eq!(calls.load(Ordering::SeqCst), 3, "exactly max_attempts");
    assert_eq!(
        reads(&ctl) - before,
        3,
        "each attempt reached the store once"
    );
}

/// Permanent faults are NOT retried: a killed backend fails on the first
/// attempt, so a policy level that is down parks its copies at once (the
/// crash sweep's `policy:down:L:k` cases).
#[test]
fn permanent_fault_is_never_retried() {
    let (store, view) = MemoryBackend::shared();
    let (backend, ctl) = FailingBackend::new(store);
    let backend: Arc<dyn StorageBackend> = Arc::new(backend);
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    fill_and_checkpoint(&mgr, 0x77);
    drop(mgr);

    ctl.kill();
    let calls = AtomicU32::new(0);
    let err = RetryPolicy::default()
        .run(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            backend.read_epoch(1, &mut |_, _| {})
        })
        .unwrap_err();
    assert_eq!(classify(&err), FaultClass::Permanent);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "no retry against dead media"
    );

    // And corrupt faults are not retried either: re-reading rot yields rot.
    ctl.heal();
    let page = last_page(&view, 1);
    view.corrupt_stored_page(1, page, 9).unwrap();
    let calls = AtomicU32::new(0);
    let err = RetryPolicy::default()
        .run(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            backend.read_page_at(1, page)
        })
        .unwrap_err();
    assert_eq!(classify(&err), FaultClass::Corrupt);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "corruption is repaired, not retried"
    );
}

/// The restore filler rides the retry layer too, behind both doors: a read
/// burst during a lazy or an eager restore is absorbed and the restored
/// image is byte-identical — no poisoned buffer, no surfaced error.
#[test]
fn lazy_restore_fill_absorbs_transient_read_burst() {
    let (backend, ctl) = FailingBackend::new(MemoryRoot::new().open("lazy-burst"));
    let backend: Arc<dyn StorageBackend> = Arc::new(backend);
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let expect = fill_and_checkpoint(&mgr, 0x4D);
    mgr.wait_maintenance_idle().unwrap();
    drop(mgr);

    read_burst(&ctl, 2);
    let before = reads(&ctl);
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let mut lazy = restore_latest_lazy(&mgr, Arc::clone(&backend), None)
        .unwrap()
        .unwrap();
    lazy.wait()
        .expect("burst absorbed by the filler's retry loop");
    let buf = &lazy.state.buffers[lazy.state.by_name["state"]];
    assert!(buf.as_slice() == expect, "healed fill is byte-identical");
    assert!(reads(&ctl) - before > 2, "burst spent");

    // The eager door is the same filler on the caller's thread: same burst,
    // same outcome.
    read_burst(&ctl, 2);
    let before = reads(&ctl);
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let eager = restore_latest(&mgr, backend.as_ref())
        .expect("burst absorbed by the retry schedule")
        .unwrap();
    let buf = &eager.buffers[eager.by_name["state"]];
    assert!(buf.as_slice() == expect, "healed fill is byte-identical");
    assert!(reads(&ctl) - before > 2, "burst spent");
}

/// A burst longer than the budget surfaces the transient error from the
/// eager restore itself; so does rot with no redundant source, which hits
/// mid-fill, after earlier pages were already published. Neither leaves a
/// half-restored buffer behind: the manager holds no protected memory and
/// checkpoints again.
#[test]
fn eager_restore_surfaces_faults_and_leaves_nothing_behind() {
    let (store, view) = MemoryBackend::shared();
    let (backend, ctl) = FailingBackend::new(store);
    let backend: Arc<dyn StorageBackend> = Arc::new(backend);
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    fill_and_checkpoint(&mgr, 0x6E);
    mgr.wait_maintenance_idle().unwrap();
    drop(mgr);

    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    read_burst(&ctl, 100);
    let err = restore_at(&mgr, backend.as_ref(), 1).err().unwrap();
    assert_eq!(
        classify(&err),
        FaultClass::Transient,
        "burst outlasts the budget"
    );
    assert_eq!(mgr.protected_bytes(), 0);
    ctl.heal();

    // Pages fill in first-write order, so the last page fails last.
    view.corrupt_stored_page(1, last_page(&view, 1), 9).unwrap();
    let mgr = PageManager::with_shared_backend(cfg(), Arc::clone(&backend)).unwrap();
    let err = restore_at(&mgr, backend.as_ref(), 1).err().unwrap();
    assert_eq!(classify(&err), FaultClass::Corrupt);
    assert_eq!(
        mgr.protected_bytes(),
        0,
        "half-restored buffers were dropped"
    );
    mgr.checkpoint()
        .expect("no poisoned page blocks the manager");
    mgr.wait_checkpoint().unwrap();
}

/// Sanity on the jitter schedule itself: deterministic per seed, bounded
/// by the cap, and never below half the nominal backoff.
#[test]
fn backoff_schedule_is_deterministic_and_bounded() {
    use ai_ckpt_core::rng::SplitMix64;
    let p = RetryPolicy::default().with_seed(7);
    let mut a = SplitMix64::new(p.seed);
    let mut b = SplitMix64::new(p.seed);
    for retry in 1..=6 {
        let da = p.delay(retry, &mut a);
        let db = p.delay(retry, &mut b);
        assert_eq!(da, db, "same seed, same schedule");
        assert!(da <= p.cap, "cap respected at retry {retry}");
        let nominal = p.base.saturating_mul(1 << (retry - 1)).min(p.cap);
        assert!(da >= nominal / 2, "jitter floor at retry {retry}");
    }
    let _ = transient("x");
}
