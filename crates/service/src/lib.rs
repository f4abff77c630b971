//! Multi-tenant checkpoint service over the `ai-ckpt` runtime.
//!
//! A lone [`PageManager`](ai_ckpt::PageManager) runs on a private
//! [`FlushPool`](ai_ckpt::FlushPool) — its own flush workers and
//! maintenance worker — the right shape for one application checkpointing
//! one memory image. Hosting many tenants that way multiplies threads by
//! tenant count while most tenants sit idle. A [`CkptService`] instead
//! owns **one** shared pool and attaches every tenant's manager (built by
//! [`CkptService::add_tenant`]) to it: same workers, same schedule, same
//! maintenance cycle, thread count independent of tenant count.
//!
//! The service itself is the multi-tenant policy the runtime deliberately
//! does not know about, entering the pool through one
//! [`TenantHook`](ai_ckpt::TenantHook) per tenant:
//!
//! - **Fair drain arbitration** — committed epochs queue into the pool's
//!   [`ai_ckpt_core::DrainQueue`] and move to the durable tier in deficit
//!   round-robin order, so one tenant's burst cannot starve the others'
//!   tier drains. (The runtime's mechanism; listed here because only a
//!   shared pool has more than one tenant for it to arbitrate.)
//! - **Per-tenant quotas** ([`TenantQuota`]) — page/byte storage caps
//!   enforced at admission and at claim time, plus a token-bucket flush
//!   bandwidth governor.
//! - **Observability** ([`ServiceStats`]) — per-tenant runtime rollups
//!   plus pool-level counters.
//!
//! Tenant storage is namespaced, not shared: give each tenant its own
//! backend — [`MemoryRoot::open`](ai_ckpt_storage::MemoryRoot::open) for
//! in-memory namespaces, or [`tenant_dir`] for on-disk sub-roots
//! (`tenant_0000/`, `tenant_0001/`, … — the same layout the group
//! coordinator uses for ranks).

#![warn(missing_docs)]

mod quota;
mod service;
mod stats;

pub use quota::TenantQuota;
pub use service::{CkptService, ServiceConfig};
pub use stats::{ServiceStats, TenantStats};

use std::path::{Path, PathBuf};

/// The on-disk sub-root for tenant `index` under a shared service root:
/// `root/tenant_0000`, `root/tenant_0001`, … Unified with the group
/// coordinator's `rank_NNNN/` layout via
/// [`ai_ckpt_storage::namespace::scoped_dir`].
pub fn tenant_dir(root: &Path, index: usize) -> PathBuf {
    ai_ckpt_storage::namespace::scoped_dir(root, "tenant", index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_dirs_follow_the_namespace_scheme() {
        let d = tenant_dir(Path::new("/srv/ckpt"), 7);
        assert_eq!(d, Path::new("/srv/ckpt/tenant_0007"));
        assert_eq!(
            ai_ckpt_storage::namespace::scoped_index(
                d.file_name().unwrap().to_str().unwrap(),
                "tenant"
            ),
            Some(7)
        );
    }
}
