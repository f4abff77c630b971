//! # ai-ckpt — adaptive asynchronous incremental checkpointing
//!
//! A Rust reproduction of *AI-Ckpt: Leveraging Memory Access Patterns for
//! Adaptive Asynchronous Incremental Checkpointing* (Nicolae & Cappello,
//! HPDC '13): a checkpointing runtime for iterative applications that
//!
//! * tracks dirty pages by write-protecting them — userfaultfd
//!   write-protect, or the paper's `mprotect`/`SIGSEGV` where that does not
//!   open (incremental),
//! * flushes them from a pool of background committer streams while the
//!   application keeps running (asynchronous, multi-stream: see
//!   [`CkptConfig::committer_streams`](config::CkptConfig::committer_streams)),
//! * absorbs conflicting writes in a small, bounded copy-on-write buffer,
//! * and — the paper's contribution — orders the flush by the
//!   application's *current and past* memory access pattern so the
//!   application almost never has to wait (adaptive).
//!
//! ## Quickstart
//!
//! ```
//! use ai_ckpt::{CkptConfig, PageManager};
//! use ai_ckpt_storage::MemoryBackend;
//!
//! # fn main() -> std::io::Result<()> {
//! // The paper's `our-approach`, 1 MiB copy-on-write budget.
//! let manager = PageManager::new(
//!     CkptConfig::ai_ckpt(1 << 20),
//!     Box::new(MemoryBackend::new()),
//! )?;
//!
//! // malloc_protected: zero-filled, page-aligned, tracked memory.
//! let mut state = manager.alloc_protected_named("state", 1 << 16)?;
//! state.as_mut_slice()[0] = 42;
//!
//! // The CHECKPOINT primitive: returns as soon as the flush is scheduled.
//! let plan = manager.checkpoint()?;
//! assert!(plan.scheduled_pages >= 1);
//!
//! // ... keep computing while the committer flushes in the background ...
//! state.as_mut_slice()[1] = 43; // intercepted transparently if needed
//!
//! manager.wait_checkpoint()?;
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | module | role |
//! |--------|------|
//! | [`manager`] | the page manager: `CHECKPOINT`, fault handling, the batch-flush hot path |
//! | [`attach`] | the flush pool every manager attaches to: flush workers + maintenance |
//! | [`buffer`] | `ProtectedBuffer` (= `malloc_protected`/`free_protected`) |
//! | [`config`] | presets for the paper's three evaluated settings |
//! | [`restore`] | restart from an incremental checkpoint chain (eager or demand-paged) |
//! | [`transparent`] | allocator-interposed tracking (no source changes) |
//! | [`stats`] | checkpoint durations + access-type statistics |
//!
//! Storage backends live in [`ai_ckpt_storage`]; the scheduling/consistency
//! logic (shared with the cluster simulator) in [`ai_ckpt_core`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attach;
pub mod buffer;
pub mod config;
pub mod layout;
pub mod manager;
pub mod restore;
pub mod stats;
pub mod transparent;

pub use attach::{FlushPool, TenantHook};
pub use buffer::ProtectedBuffer;
pub use config::{CkptConfig, CkptMode, CompactionPolicy};
pub use manager::{with_mprotect_tracking, PageManager};
pub use restore::{
    restore_at, restore_latest, restore_latest_cached, restore_latest_lazy, restore_lazy,
    LazyRestore, RestoreStats, RestoredState,
};
pub use stats::{CheckpointRecord, MaintenanceStats, RuntimeStats};

// Re-export the vocabulary types users need alongside the runtime.
pub use ai_ckpt_core::{
    AccessType, CheckpointPlanInfo, EpochStats, LatencySnapshot, SchedulerKind,
};
