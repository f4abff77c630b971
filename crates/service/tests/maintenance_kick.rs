//! Every finalised epoch kicks the shared maintenance worker — not only
//! epochs that leave a tier backlog behind. A tenant on a plain
//! `FileBackend` (no tiers, so `drain_backlog()` is always 0) with a
//! chain-length compaction policy must see its chain folded without anyone
//! ever calling `wait_maintenance_idle`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ai_ckpt::{CkptConfig, CompactionPolicy};
use ai_ckpt_mem::page_size;
use ai_ckpt_service::{CkptService, ServiceConfig, TenantQuota};
use ai_ckpt_storage::{FileBackend, StorageBackend};

#[test]
fn file_backed_tenant_compacts_without_a_barrier() {
    let dir = std::env::temp_dir().join(format!("aickpt-svc-kick-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    let svc = CkptService::new(ServiceConfig::default());
    let cfg = CkptConfig::ai_ckpt(4 * page_size())
        .with_max_pages(64)
        .with_compaction(CompactionPolicy::chain_len(4));
    let mgr = svc
        .add_tenant("filer", cfg, Arc::clone(&backend), TenantQuota::default())
        .unwrap();
    let mut buf = mgr.alloc_protected_named("state", 4 * page_size()).unwrap();
    for round in 1..=12u8 {
        buf.as_mut_slice().fill(round);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }

    // No barrier: the worker catches up on its own, one cycle per epoch.
    let deadline = Instant::now() + Duration::from_secs(10);
    let settled = || {
        svc.stats().tenants[0].runtime.maintenance.compactions >= 1
            && backend.chain().unwrap().len() <= 4
    };
    while !settled() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let maint = svc.stats().tenants[0].runtime.maintenance;
    assert!(maint.compactions >= 1, "never compacted: {maint:?}");
    assert_eq!(maint.failures, 0);
    let chain = backend.chain().unwrap();
    assert!(chain.len() <= 4, "chain not bounded: {chain:?}");
    assert_eq!(chain.last().unwrap().epoch, 12);
    assert_eq!(mgr.stats().maintenance, maint, "same ledger either way");

    drop(buf);
    drop(mgr);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}
