//! Multi-tenant service stress: many tenants, skewed traffic, one shared
//! pool. The acceptance bar from the service design:
//!
//! - service thread count is **independent of tenant count** (128 tenants
//!   add zero threads),
//! - every tenant's data restores byte-identical despite all flushes being
//!   interleaved through the same workers.

use std::sync::Arc;

use ai_ckpt::{restore_latest, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_service::{CkptService, ServiceConfig, TenantQuota};
use ai_ckpt_storage::MemoryRoot;

const TENANTS: usize = 128;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

fn fill_value(tenant: usize, round: usize) -> u8 {
    (tenant.wrapping_mul(31).wrapping_add(round.wrapping_mul(7)) % 251) as u8 + 1
}

fn tenant_cfg() -> CkptConfig {
    // Small per-tenant footprint: the point is count, not volume.
    CkptConfig::ai_ckpt(4 * page_size()).with_max_pages(64)
}

#[test]
fn stress_128_skewed_tenants_share_one_pool() {
    let root = MemoryRoot::new();
    let svc = CkptService::new(ServiceConfig { workers: 4 });

    let threads_with_service = thread_count();

    // Skewed population: every 8th tenant is "heavy" (more pages, a
    // checkpoint every round); the rest are light (1–3 pages, a checkpoint
    // every third round).
    let mut tenants = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let name = format!("tenant-{i}");
        let mgr = svc
            .add_tenant(
                &name,
                tenant_cfg(),
                Arc::new(root.open(&name)),
                TenantQuota::default(),
            )
            .unwrap();
        let pages = if i % 8 == 0 { 16 } else { 1 + i % 3 };
        let buf = mgr
            .alloc_protected_named("state", pages * page_size())
            .unwrap();
        tenants.push((mgr, buf, 0usize));
    }

    assert_eq!(
        thread_count(),
        threads_with_service,
        "adding {TENANTS} tenants must not spawn a single thread"
    );

    let rounds = 6;
    for round in 1..=rounds {
        // Submit a whole round before waiting on any of it, so the shared
        // workers demonstrably interleave many tenants' flushes.
        let mut submitted = Vec::new();
        for (i, (mgr, buf, last_round)) in tenants.iter_mut().enumerate() {
            let heavy = i % 8 == 0;
            if !heavy && round % 3 != i % 3 {
                continue;
            }
            let val = fill_value(i, round);
            let ps = page_size();
            let slice = buf.as_mut_slice();
            for page in (0..slice.len()).step_by(ps) {
                slice[page] = val;
            }
            mgr.checkpoint().unwrap();
            *last_round = round;
            submitted.push(i);
        }
        for &i in &submitted {
            tenants[i].0.wait_checkpoint().unwrap();
        }
    }

    assert_eq!(
        thread_count(),
        threads_with_service,
        "six rounds of skewed traffic must not grow the pool"
    );

    let stats = svc.stats();
    assert_eq!(stats.tenants.len(), TENANTS);
    assert!(
        stats.flushes_completed >= TENANTS as u64,
        "every tenant checkpointed at least once (completed {})",
        stats.flushes_completed
    );
    assert_eq!(stats.flushes_failed, 0);
    assert!(stats.committed_bytes() > 0);
    let heavy_committed = stats.tenants[0].committed_bytes;
    let light_committed = stats.tenants[1].committed_bytes;
    assert!(
        heavy_committed > light_committed,
        "skew must show up in per-tenant accounting ({heavy_committed} vs {light_committed})"
    );

    // Byte-identical restores, every tenant: drop the live managers, then
    // rebuild each tenant's state from its namespace with a fresh
    // standalone manager.
    let expected: Vec<(usize, usize)> = tenants
        .iter()
        .enumerate()
        .map(|(i, (_, buf, last_round))| {
            assert!(*last_round > 0, "tenant {i} never checkpointed");
            (buf.as_slice().len(), *last_round)
        })
        .collect();
    drop(tenants);

    for (i, (len, last_round)) in expected.iter().enumerate() {
        let backend = root.open(&format!("tenant-{i}"));
        let mgr = PageManager::new(tenant_cfg(), Box::new(backend.clone())).unwrap();
        let restored = restore_latest(&mgr, &backend)
            .unwrap()
            .unwrap_or_else(|| panic!("tenant {i} has no checkpoint"));
        let buf = &restored.buffers[restored.by_name["state"]];
        let slice = buf.as_slice();
        assert_eq!(slice.len(), *len, "tenant {i} buffer length");
        let val = fill_value(i, *last_round);
        for page in (0..slice.len()).step_by(page_size()) {
            assert_eq!(
                slice[page], val,
                "tenant {i}: page {page} must hold round-{last_round} bytes"
            );
        }
    }
}
