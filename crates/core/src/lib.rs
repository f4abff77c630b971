//! # ai-ckpt-core — the deterministic heart of AI-Ckpt
//!
//! This crate implements the checkpointing *logic* of
//! *AI-Ckpt: Leveraging Memory Access Patterns for Adaptive Asynchronous
//! Incremental Checkpointing* (Nicolae & Cappello, HPDC '13) as a passive,
//! deterministic state machine with no OS dependencies:
//!
//! * the page state machine and access-type taxonomy of §3.3
//!   ([`page`]),
//! * per-epoch access-pattern records and their history ([`history`]),
//! * the bounded copy-on-write slab of §3.1 ([`cow`]),
//! * the flush-ordering policies — the paper's adaptive Algorithm 4 and the
//!   evaluated baselines ([`schedule`]),
//! * and the engine tying them together as Algorithms 1–3
//!   ([`engine`]).
//!
//! Two front-ends drive this engine:
//!
//! * **`ai-ckpt`** (the runtime crate) — real dirty-page tracking with
//!   `mprotect`/`SIGSEGV`, a background committer thread and pluggable
//!   storage backends. The engine's hot entry points are allocation-free so
//!   the fault handler can call them under a [`spin::SpinLock`].
//! * **`ai-ckpt-sim`** — a discrete-event cluster simulator reproducing the
//!   paper's multi-node experiments (Grid'5000 + PVFS, Shamrock + local
//!   disks) on a laptop.
//!
//! Keeping a single implementation of the decision logic means the property
//! tests in this crate (snapshot consistency, flush completeness, slot
//! accounting) certify both front-ends at once.
//!
//! ## Quick tour
//!
//! ```
//! use ai_ckpt_core::{EngineConfig, EpochEngine, WriteOutcome, FlushSource};
//!
//! // 16 pages of 4 KiB, 4 CoW slots, the paper's adaptive strategy.
//! let mut engine = EpochEngine::new(EngineConfig::adaptive(16, 4096, 4)).unwrap();
//!
//! // The application dirties some pages (first writes are reported once).
//! assert_eq!(engine.on_write(3), WriteOutcome::Proceed);
//! assert_eq!(engine.on_write(7), WriteOutcome::Proceed);
//!
//! // CHECKPOINT: schedule the dirty set, then the committer drains it.
//! let plan = engine.begin_checkpoint().unwrap();
//! assert_eq!(plan.scheduled_pages, 2);
//! while let Some(item) = engine.select_next() {
//!     match item.source {
//!         FlushSource::Memory => { /* read the live page, write to storage */ }
//!         FlushSource::CowSlot(s) => { let _bytes = engine.slab_slot(s); }
//!     }
//!     engine.complete_flush(item);
//! }
//! assert!(!engine.checkpoint_active());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cow;
pub mod engine;
pub mod fair;
pub mod hist;
pub mod history;
pub mod page;
pub mod rng;
pub mod schedule;
pub mod spin;
pub mod stats;

pub use config::EngineConfig;
pub use cow::{CowSlab, CowSlotStore};
pub use engine::{EngineError, EpochEngine, WriteOutcome};
pub use fair::{DrainItem, DrainQueue};
pub use hist::{LatencyHistogram, LatencySnapshot};
pub use history::{EpochHistory, EpochRecord};
pub use page::{AccessType, FlushItem, FlushSource, PageId, PageState, StateTable, NO_SLOT};
pub use schedule::{FlushPlan, SchedulerKind};
pub use spin::{SpinGuard, SpinLock};
pub use stats::{CheckpointPlanInfo, EpochStats, StatsAggregate};
