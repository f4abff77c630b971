//! The multi-tenant checkpoint service: tenant policy over one shared
//! runtime [`FlushPool`].
//!
//! # Thread model
//!
//! `CkptService::new` builds one [`FlushPool`] — `workers` flush workers
//! plus one maintenance worker — and spawns nothing of its own, ever:
//! `add_tenant` attaches each tenant's [`PageManager`] to that pool, and a
//! manager owns no threads. Service thread count is therefore
//! **independent of tenant count** (128 mostly-idle tenants cost 128
//! engines' worth of metadata, not 128 parked thread sets). The schedule
//! the workers run (finalise → open → claim round-robin) and the
//! maintenance cycle (drain → compact → scrub) are the pool's, the same
//! ones a lone `PageManager::new` runs on its private pool.
//!
//! What this crate adds is policy, entering the pool through one
//! per-tenant [`TenantHook`]:
//!
//! # Fair drain arbitration
//!
//! Tiered backends accumulate a committed-but-undrained backlog. A shared
//! worker draining it in arrival order would let one tenant's burst starve
//! everyone else's tier, so the pool's drain queue is deficit round-robin
//! ([`ai_ckpt_core::fair`]): tenants share drain bandwidth by bytes
//! committed, not by arrival order.
//!
//! # Quotas
//!
//! [`TenantQuota`] page/byte limits are enforced twice: at admission
//! (`checkpoint()` fails as a clean no-op when the tenant is already at
//! its cap — a zero quota rejects everything) and at claim time (an epoch
//! that crosses the cap mid-flight is failed; it drains without further
//! writes and aborts at finalise, leaving the previous committed chain
//! restorable). Bandwidth limits never fail anything — they only delay
//! claims.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use ai_ckpt::{CkptConfig, FlushPool, PageManager, TenantHook};
use ai_ckpt_storage::{PolicyBackend, StorageBackend};

use crate::quota::{TenantQuota, TokenBucket};
use crate::stats::{ServiceStats, TenantStats};

/// Service-wide tuning: the pool width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shared flush workers. Defaults to the standalone default stream
    /// count (`min(4, cores)`), clamped to at least 1.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: ai_ckpt::config::default_committer_streams(),
        }
    }
}

/// Service-wide counters, shared with every tenant's hook.
#[derive(Default)]
struct Counters {
    shutdown: AtomicBool,
    flushes_completed: AtomicU64,
    flushes_failed: AtomicU64,
    admission_rejections: AtomicU64,
}

/// Mutable per-tenant accounting, all under one small lock.
struct TenantState {
    quota: TenantQuota,
    bucket: TokenBucket,
    committed_pages: u64,
    committed_bytes: u64,
    quota_failures: u64,
    /// The open epoch already crossed its quota and was failed (guard
    /// against charging a failure per subsequent drain-only claim).
    epoch_killed: bool,
}

/// Everything the service knows about one registered tenant: its name, its
/// quota ledger and the handles the stats rollup needs. The pool owns it as
/// the tenant's [`TenantHook`]; it (and its backend handles) is freed when
/// the manager detaches, whether or not anyone polls the service.
struct Tenant {
    name: String,
    backend: Arc<dyn StorageBackend>,
    /// Present when `backend` is a multi-level resilience policy: the
    /// typed handle behind the per-level stats rollup.
    policy: Option<PolicyBackend>,
    state: Mutex<TenantState>,
    counters: Arc<Counters>,
}

impl TenantHook for Tenant {
    fn admit(&self) -> io::Result<()> {
        if self.counters.shutdown.load(Ordering::Acquire) {
            self.counters
                .admission_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("checkpoint service is shut down"));
        }
        let mut st = self.state.lock();
        // At (or past) either cap no epoch may begin: a zero quota rejects
        // everything, and an exactly-full tenant cannot start an epoch it
        // could only abort.
        if st.committed_pages >= st.quota.max_pages || st.committed_bytes >= st.quota.max_bytes {
            st.quota_failures += 1;
            drop(st);
            self.counters
                .admission_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(
                "tenant quota exhausted: checkpoint rejected at admission",
            ));
        }
        Ok(())
    }

    fn may_claim(&self) -> bool {
        self.state.lock().bucket.allow()
    }

    /// Mid-epoch quota enforcement: charge the bandwidth bucket, then kill
    /// the epoch (once) if it crossed the tenant's storage caps.
    fn on_claim(&self, claim_bytes: u64, epoch_pages: u64, epoch_bytes: u64) -> Result<(), String> {
        let mut st = self.state.lock();
        st.bucket.charge(claim_bytes);
        let over = st.committed_pages.saturating_add(epoch_pages) > st.quota.max_pages
            || st.committed_bytes.saturating_add(epoch_bytes) > st.quota.max_bytes;
        if over && !st.epoch_killed {
            st.epoch_killed = true;
            st.quota_failures += 1;
            return Err("tenant quota exceeded: epoch aborted".into());
        }
        Ok(())
    }

    /// Committed totals are charged only here, on success, so an aborted
    /// epoch charges nothing.
    fn on_commit(&self, result: &io::Result<()>, pages: u64, bytes: u64) {
        let mut st = self.state.lock();
        st.epoch_killed = false;
        if result.is_ok() {
            st.committed_pages = st.committed_pages.saturating_add(pages);
            st.committed_bytes = st.committed_bytes.saturating_add(bytes);
            self.counters
                .flushes_completed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.flushes_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The multi-tenant checkpoint service: a tenant registry in front of one
/// shared flush-worker pool, one shared maintenance worker, a fair drain
/// scheduler and per-tenant quota enforcement. See the [crate
/// docs](crate) for the architecture.
///
/// ```no_run
/// use std::sync::Arc;
/// use ai_ckpt::CkptConfig;
/// use ai_ckpt_service::{CkptService, ServiceConfig, TenantQuota};
/// use ai_ckpt_storage::MemoryRoot;
///
/// let root = MemoryRoot::new();
/// let svc = CkptService::new(ServiceConfig::default());
/// let mgr = svc
///     .add_tenant(
///         "trainer-0",
///         CkptConfig::ai_ckpt(16 << 20),
///         Arc::new(root.open("trainer-0")),
///         TenantQuota::default(),
///     )
///     .unwrap();
/// let mut buf = mgr.alloc_protected(1 << 20).unwrap();
/// buf.as_mut_slice()[0] = 1;
/// mgr.checkpoint().unwrap();
/// ```
pub struct CkptService {
    pool: Arc<FlushPool>,
    /// Registry keyed by the pool's tenant ids. The pool holds the only
    /// strong reference (as the tenant's hook), so a dropped manager leaves
    /// just a dead entry here, swept by [`CkptService::live_tenants`].
    tenants: Mutex<BTreeMap<u64, Weak<Tenant>>>,
    counters: Arc<Counters>,
}

impl CkptService {
    /// Build the shared pool: `cfg.workers` flush workers plus one
    /// maintenance worker. No further threads are ever created, no matter
    /// how many tenants attach.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self {
            pool: FlushPool::new(cfg.workers).expect("spawn service pool threads"),
            tenants: Mutex::new(BTreeMap::new()),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Register a tenant: build a [`PageManager`] attached to the shared
    /// pool, namespaced to `backend`, limited by `quota`. The returned
    /// manager has the full standalone API (allocate, checkpoint, restore,
    /// stats); dropping it detaches the tenant after its last checkpoint
    /// settles.
    pub fn add_tenant(
        &self,
        name: &str,
        cfg: CkptConfig,
        backend: Arc<dyn StorageBackend>,
        quota: TenantQuota,
    ) -> io::Result<PageManager> {
        self.add_tenant_inner(name, cfg, backend, quota, None)
    }

    /// Register a tenant over a multi-level resilience policy. Identical
    /// to [`CkptService::add_tenant`] except that the service keeps the
    /// typed [`PolicyBackend`] handle: the maintenance worker's drains
    /// double as the policy's level copies and rebuilds, and
    /// [`CkptService::stats`] reports the per-level counters in
    /// [`TenantStats::levels`].
    pub fn add_tenant_with_policy(
        &self,
        name: &str,
        cfg: CkptConfig,
        policy: PolicyBackend,
        quota: TenantQuota,
    ) -> io::Result<PageManager> {
        let backend: Arc<dyn StorageBackend> = Arc::new(policy.clone());
        self.add_tenant_inner(name, cfg, backend, quota, Some(policy))
    }

    fn add_tenant_inner(
        &self,
        name: &str,
        cfg: CkptConfig,
        backend: Arc<dyn StorageBackend>,
        quota: TenantQuota,
        policy: Option<PolicyBackend>,
    ) -> io::Result<PageManager> {
        if self.counters.shutdown.load(Ordering::Acquire) {
            return Err(io::Error::other("checkpoint service is shut down"));
        }
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            backend: Arc::clone(&backend),
            policy,
            state: Mutex::new(TenantState {
                quota,
                bucket: TokenBucket::new(quota.flush_bandwidth),
                committed_pages: 0,
                committed_bytes: 0,
                quota_failures: 0,
                epoch_killed: false,
            }),
            counters: Arc::clone(&self.counters),
        });
        let weak = Arc::downgrade(&tenant);
        let manager = self.pool.attach(cfg, backend, tenant)?;
        let mut tenants = self.tenants.lock();
        tenants.retain(|_, t| t.strong_count() > 0);
        tenants.insert(manager.tenant_id(), weak);
        Ok(manager)
    }

    /// The registered tenants whose managers are still attached to the
    /// pool, forgetting the rest.
    fn live_tenants(&self) -> Vec<(u64, Arc<Tenant>)> {
        let mut tenants = self.tenants.lock();
        tenants.retain(|_, t| t.strong_count() > 0);
        tenants
            .iter()
            .filter_map(|(id, t)| Some((*id, t.upgrade()?)))
            .collect()
    }

    /// Replace a tenant's quota at runtime. Takes effect immediately:
    /// raised storage caps admit the next `checkpoint()` call, and a
    /// raised bandwidth rate starts paying down the tenant's token-bucket
    /// debt at the new speed.
    pub fn set_quota(&self, tenant: u64, quota: TenantQuota) -> io::Result<()> {
        let live = self.live_tenants();
        let (_, t) = live
            .iter()
            .find(|(id, _)| *id == tenant)
            .ok_or_else(|| io::Error::other("unknown tenant"))?;
        let mut st = t.state.lock();
        st.quota = quota;
        st.bucket.set_rate(quota.flush_bandwidth);
        Ok(())
    }

    /// Snapshot service-wide stats: per-tenant runtime rollups plus pool
    /// counters.
    pub fn stats(&self) -> ServiceStats {
        let (queued_flushes, active_flushes) = self.pool.depths();
        let mut out = ServiceStats {
            workers: self.pool.workers(),
            flushes_completed: self.counters.flushes_completed.load(Ordering::Relaxed),
            flushes_failed: self.counters.flushes_failed.load(Ordering::Relaxed),
            admission_rejections: self.counters.admission_rejections.load(Ordering::Relaxed),
            queued_flushes,
            active_flushes,
            ..ServiceStats::default()
        };
        for (id, t) in self.live_tenants() {
            // Detached between the listing and here: skip.
            let Some(runtime) = self.pool.tenant_stats(id) else {
                continue;
            };
            let integrity = runtime.integrity;
            out.integrity.cycles += integrity.cycles;
            out.integrity.epochs_verified += integrity.epochs_verified;
            out.integrity.records_verified += integrity.records_verified;
            out.integrity.bytes_verified += integrity.bytes_verified;
            out.integrity.corrupt_epochs += integrity.corrupt_epochs;
            out.integrity.epochs_repaired += integrity.epochs_repaired;
            out.integrity.pages_repaired += integrity.pages_repaired;
            out.integrity.repair_failures += integrity.repair_failures;
            out.integrity.epochs_quarantined += integrity.epochs_quarantined;
            let maint = runtime.maintenance;
            out.maintenance.compactions += maint.compactions;
            out.maintenance.segments_removed += maint.segments_removed;
            out.maintenance.bytes_reclaimed += maint.bytes_reclaimed;
            out.maintenance.bytes_compacted += maint.bytes_compacted;
            out.maintenance.epochs_drained += maint.epochs_drained;
            out.maintenance.failures += maint.failures;
            let st = t.state.lock();
            let backlog = t.backend.drain_backlog();
            out.drain_backlog += backlog;
            let levels = t
                .policy
                .as_ref()
                .map(|p| p.stats().levels)
                .unwrap_or_default();
            out.tenants.push(TenantStats {
                tenant: id,
                name: t.name.clone(),
                runtime,
                committed_pages: st.committed_pages,
                committed_bytes: st.committed_bytes,
                quota_failures: st.quota_failures,
                drain_backlog: backlog,
                levels,
            });
        }
        out
    }

    /// The number of shared flush workers (constant for the service's
    /// lifetime).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Stop accepting checkpoints, drain every queued and active flush to
    /// completion, finish outstanding tier maintenance, and join all
    /// threads. Called automatically on drop; explicit calls are
    /// idempotent.
    ///
    /// Tenants must not submit after this — their `checkpoint()` calls
    /// fail cleanly — but their managers stay usable for restores.
    pub fn shutdown(&mut self) {
        self.counters.shutdown.store(true, Ordering::Release);
        self.pool.shutdown();
    }
}

impl Drop for CkptService {
    fn drop(&mut self) {
        self.shutdown();
    }
}
