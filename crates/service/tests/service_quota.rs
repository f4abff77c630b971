//! Quota enforcement edges and lifecycle ordering of the multi-tenant
//! service: zero quotas, mid-epoch exhaustion, runtime quota raises, and
//! a tenant in bandwidth debt whose checkpoint ends through a buffer drop.

use std::sync::Arc;

use ai_ckpt::{restore_latest, CkptConfig};
use ai_ckpt_mem::page_size;
use ai_ckpt_service::{CkptService, ServiceConfig, TenantQuota};
use ai_ckpt_storage::{MemoryRoot, StorageBackend};

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(4 * page_size()).with_max_pages(64)
}

#[test]
fn zero_quota_rejects_at_begin_and_raise_unblocks() {
    let root = MemoryRoot::new();
    let svc = CkptService::new(ServiceConfig::default());
    let backend = root.open("zero");
    let mgr = svc
        .add_tenant(
            "zero",
            cfg(),
            Arc::new(backend.clone()),
            TenantQuota::capped(0, 0),
        )
        .unwrap();
    let tenant = mgr.tenant_id();

    let mut buf = mgr.alloc_protected_named("state", 2 * page_size()).unwrap();
    buf.as_mut_slice()[0] = 7;

    // Rejected before anything begins: a clean no-op, not an aborted epoch.
    let err = mgr.checkpoint().unwrap_err();
    assert!(
        err.to_string().contains("quota"),
        "admission error should name the quota: {err}"
    );
    assert!(
        backend.epochs().unwrap().is_empty(),
        "nothing was committed"
    );
    assert!(!mgr.checkpoint_in_progress(), "no epoch was begun");

    // The page is still dirty — the rejected checkpoint must not have
    // consumed the dirty set. Raising the quota unblocks the tenant and
    // the next checkpoint captures it.
    svc.set_quota(tenant, TenantQuota::default()).unwrap();
    let plan = mgr.checkpoint().unwrap();
    assert_eq!(plan.scheduled_pages, 1, "dirty page survived the rejection");
    mgr.wait_checkpoint().unwrap();
    assert_eq!(backend.epochs().unwrap(), vec![1]);

    let stats = svc.stats();
    assert_eq!(stats.admission_rejections, 1);
    assert_eq!(stats.tenants[0].quota_failures, 1);
}

#[test]
fn mid_epoch_exhaustion_aborts_cleanly_and_keeps_backend_restorable() {
    let root = MemoryRoot::new();
    let svc = CkptService::new(ServiceConfig::default());
    let backend = root.open("exhausted");
    let ps = page_size();
    let mgr = svc
        .add_tenant(
            "exhausted",
            cfg(),
            Arc::new(backend.clone()),
            TenantQuota::default(),
        )
        .unwrap();
    let tenant = mgr.tenant_id();

    // Epoch 1 under no quota: 2 pages committed.
    let mut buf = mgr.alloc_protected_named("state", 16 * ps).unwrap();
    buf.as_mut_slice()[0] = 1;
    buf.as_mut_slice()[ps] = 1;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    assert_eq!(backend.epochs().unwrap(), vec![1]);

    // Cap at 4 pages total. Committed is 2 — admission passes — but the
    // next epoch dirties 16 pages and must die mid-flight.
    svc.set_quota(tenant, TenantQuota::capped(4, u64::MAX))
        .unwrap();
    for page in 0..16 {
        buf.as_mut_slice()[page * ps] = 2;
    }
    mgr.checkpoint().unwrap();
    let err = mgr.wait_checkpoint().unwrap_err();
    assert!(
        err.to_string().contains("quota"),
        "mid-epoch kill should name the quota: {err}"
    );

    // The aborted epoch left no trace: epoch 1 is still the newest
    // committed state and restores byte-identical.
    assert_eq!(backend.epochs().unwrap(), vec![1]);
    drop(buf);
    drop(mgr);
    let fresh = ai_ckpt::PageManager::new(cfg(), Box::new(backend.clone())).unwrap();
    let restored = restore_latest(&fresh, &backend).unwrap().unwrap();
    let slice = restored.buffers[restored.by_name["state"]].as_slice();
    assert_eq!(slice[0], 1);
    assert_eq!(slice[ps], 1);
    assert_eq!(slice[2 * ps], 0, "page 2 was never committed");

    let stats = svc.stats();
    assert_eq!(stats.flushes_failed, 1);
    assert!(stats.tenants.is_empty(), "tenant detached on drop");
}

#[test]
fn quota_raise_recovers_a_mid_epoch_kill() {
    let root = MemoryRoot::new();
    let svc = CkptService::new(ServiceConfig::default());
    let backend = root.open("recover");
    let ps = page_size();
    let mgr = svc
        .add_tenant(
            "recover",
            cfg(),
            Arc::new(backend.clone()),
            TenantQuota::capped(2, u64::MAX),
        )
        .unwrap();
    let tenant = mgr.tenant_id();

    // 8 dirty pages against a 2-page cap: admitted (nothing committed
    // yet), killed mid-epoch.
    let mut buf = mgr.alloc_protected_named("state", 8 * ps).unwrap();
    for page in 0..8 {
        buf.as_mut_slice()[page * ps] = 3;
    }
    mgr.checkpoint().unwrap();
    assert!(mgr.wait_checkpoint().is_err());
    assert!(backend.epochs().unwrap().is_empty());

    // Raise and retry: the aborted epoch's pages are dirty again (the
    // abort re-protects nothing — they were never committed), so a full
    // re-dirty pass captures everything.
    svc.set_quota(tenant, TenantQuota::default()).unwrap();
    for page in 0..8 {
        buf.as_mut_slice()[page * ps] = 4;
    }
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    let epochs = backend.epochs().unwrap();
    assert_eq!(epochs.len(), 1, "exactly one committed epoch: {epochs:?}");

    drop(buf);
    drop(mgr);
    let fresh = ai_ckpt::PageManager::new(cfg(), Box::new(backend.clone())).unwrap();
    let restored = restore_latest(&fresh, &backend).unwrap().unwrap();
    let slice = restored.buffers[restored.by_name["state"]].as_slice();
    for page in 0..8 {
        assert_eq!(slice[page * ps], 4, "page {page}");
    }
}

#[test]
fn buffer_drop_under_bandwidth_debt_settles_before_detach() {
    let root = MemoryRoot::new();
    // One worker: claim-then-debt lets concurrent workers each take a
    // batch before the first charge lands.
    let svc = CkptService::new(ServiceConfig { workers: 1 });
    let ps = page_size();
    let backend = root.open("debtor");
    // One byte per second: the first claim rides on a zero balance, then
    // the tenant is in debt for the rest of the test and no further claim
    // can run. (The plain mid-flush drop is in the root
    // `front_door_conformance` script, for every front door.)
    let mgr = svc
        .add_tenant(
            "debtor",
            cfg().with_flush_batch_pages(2),
            Arc::new(backend.clone()),
            TenantQuota::bandwidth(1),
        )
        .unwrap();
    let mut buf = mgr.alloc_protected_named("state", 8 * ps).unwrap();
    for page in 0..8 {
        buf.as_mut_slice()[page * ps] = 9;
    }
    mgr.checkpoint().unwrap();
    let claimed = || mgr.stats().streams.iter().map(|s| s.pages).sum::<u64>();
    while claimed() < 2 {
        std::thread::yield_now();
    }

    // Dropping the buffer discards the six unclaimed pages: the checkpoint
    // completes *without any claim observing it*, and only the drop's
    // notification gets it finalised. Dropping the manager then waits for
    // that settlement before detaching.
    drop(buf);
    mgr.wait_checkpoint().unwrap();
    assert_eq!(claimed(), 2, "the debt held: one claim only");
    assert_eq!(backend.epochs().unwrap(), vec![1]);
    drop(mgr);

    // The service survived and is still fully functional for new tenants.
    let backend2 = root.open("after");
    let mgr2 = svc
        .add_tenant(
            "after",
            cfg(),
            Arc::new(backend2.clone()),
            TenantQuota::default(),
        )
        .unwrap();
    let mut buf2 = mgr2.alloc_protected_named("state", ps).unwrap();
    buf2.as_mut_slice()[0] = 5;
    mgr2.checkpoint().unwrap();
    mgr2.wait_checkpoint().unwrap();
    assert_eq!(backend2.epochs().unwrap().len(), 1);

    let stats = svc.stats();
    assert_eq!(stats.tenants.len(), 1, "debtor detached, after remains");
    assert_eq!(stats.tenants[0].name, "after");
}

#[test]
fn shutdown_rejects_new_work_but_leaves_committed_state() {
    let root = MemoryRoot::new();
    let mut svc = CkptService::new(ServiceConfig::default());
    let backend = root.open("t");
    let mgr = svc
        .add_tenant(
            "t",
            cfg(),
            Arc::new(backend.clone()),
            TenantQuota::default(),
        )
        .unwrap();
    let mut buf = mgr.alloc_protected_named("state", page_size()).unwrap();
    buf.as_mut_slice()[0] = 1;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();

    svc.shutdown();

    buf.as_mut_slice()[0] = 2;
    let err = mgr.checkpoint().unwrap_err();
    assert!(err.to_string().contains("shut down"), "{err}");
    assert!(svc
        .add_tenant(
            "late",
            cfg(),
            Arc::new(root.open("late")),
            TenantQuota::default()
        )
        .is_err());
    // Epoch 1 is intact and restorable after shutdown.
    assert_eq!(backend.epochs().unwrap(), vec![1]);
}

/// The service keeps nothing of a dropped tenant alive — in particular not
/// its backend handle — even when nobody ever polls `stats()`.
#[test]
fn dropped_tenant_releases_its_backend_unpolled() {
    let svc = CkptService::new(ServiceConfig::default());
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryRoot::new().open("gone"));
    let mgr = svc
        .add_tenant("gone", cfg(), Arc::clone(&backend), TenantQuota::default())
        .unwrap();
    let mut buf = mgr.alloc_protected(page_size()).unwrap();
    buf.as_mut_slice()[0] = 1;
    mgr.checkpoint().unwrap();
    mgr.wait_maintenance_idle().unwrap();
    assert!(Arc::strong_count(&backend) > 1);
    drop(buf);
    drop(mgr);
    assert_eq!(Arc::strong_count(&backend), 1);
}
