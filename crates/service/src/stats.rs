//! Service-wide observability: per-tenant rollups plus pool-level counters.

use ai_ckpt::{MaintenanceStats, RuntimeStats};
use ai_ckpt_storage::{IntegrityStats, LevelStats};

/// One tenant's slice of the service: its full runtime stats (exactly what
/// the tenant's own [`PageManager::stats`](ai_ckpt::PageManager::stats)
/// reports) plus the service-side accounting the quota machinery keeps.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// The tenant id handed out by `add_tenant`.
    pub tenant: u64,
    /// The name the tenant registered under.
    pub name: String,
    /// Runtime counters of the tenant's manager: `streams` has one entry
    /// per shared worker counting this tenant's pages only, `maintenance`
    /// is its share of the shared maintenance worker.
    pub runtime: RuntimeStats,
    /// Pages committed across all successful epochs (what page quotas
    /// charge; clean-dirty skips and aborted epochs are free).
    pub committed_pages: u64,
    /// Bytes committed across all successful epochs.
    pub committed_bytes: u64,
    /// Checkpoints refused or failed by quota enforcement — at admission
    /// (`checkpoint()` returned the quota error immediately) or mid-epoch
    /// (the epoch aborted when a claim crossed the limit).
    pub quota_failures: u64,
    /// Committed-but-undrained epochs the fair drain scheduler still owes
    /// this tenant (0 for backends without a drain backlog).
    pub drain_backlog: usize,
    /// Per-level drain/rebuild/read counters when the tenant sits on a
    /// multi-level resilience policy (registered through
    /// [`CkptService::add_tenant_with_policy`](crate::CkptService::add_tenant_with_policy));
    /// empty otherwise.
    pub levels: Vec<LevelStats>,
}

/// Rollup over every registered tenant plus the shared pools' own
/// counters. Built by [`CkptService::stats`](crate::CkptService::stats).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Shared flush workers serving all tenants (constant in tenant count).
    pub workers: usize,
    /// Currently registered tenants, in id order.
    pub tenants: Vec<TenantStats>,
    /// Checkpoints finalised successfully, all tenants.
    pub flushes_completed: u64,
    /// Checkpoints finalised with an error (storage failures, mid-epoch
    /// quota kills, rejected submissions), all tenants.
    pub flushes_failed: u64,
    /// Checkpoints refused at admission time by quota or shutdown.
    pub admission_rejections: u64,
    /// Flush requests queued behind the worker pool right now.
    pub queued_flushes: usize,
    /// Flushes currently being drained by the workers.
    pub active_flushes: usize,
    /// Epochs the fair drain scheduler has not yet moved to the durable
    /// tier, all tenants.
    pub drain_backlog: usize,
    /// Shared maintenance worker counters aggregated over all tenants.
    pub maintenance: MaintenanceStats,
    /// At-rest integrity scrub counters aggregated over all tenants (the
    /// shared maintenance worker paces one scrub cycle per tenant per
    /// pass). Per-tenant numbers are in each
    /// [`TenantStats::runtime`]`.integrity`.
    pub integrity: IntegrityStats,
}

impl ServiceStats {
    /// Total pages committed across every tenant's successful epochs.
    pub fn committed_pages(&self) -> u64 {
        self.tenants.iter().map(|t| t.committed_pages).sum()
    }

    /// Total bytes committed across every tenant's successful epochs.
    pub fn committed_bytes(&self) -> u64 {
        self.tenants.iter().map(|t| t.committed_bytes).sum()
    }
}
