//! # ai-ckpt-coord — coordinated multi-rank checkpoint groups
//!
//! The paper evaluates AI-Ckpt on MPI applications where *every rank*
//! checkpoints at a coordinated request; VELOC's engine generalises that to
//! multi-level coordinated commit at exascale, and DataStates-LLM meets the
//! same group-consistency problem for sharded model state. This crate is
//! that coordination layer for the reproduction's runtime: a
//! [`CheckpointGroup`] owns N per-rank page managers, namespaces their
//! epochs onto shared storage, and drives a **two-phase global commit** so
//! a restart always recovers every rank to one globally consistent epoch —
//! never a mix.
//!
//! * [`group`] — the coordinator: two-phase `checkpoint()`, open-time crash
//!   recovery, group-driven chain compaction, [`GroupRestore`];
//! * [`global`] — the `AICKGLB1` global manifest, the phase-2 commit
//!   point (a schema of the storage crate's one commit log);
//! * [`stats`] — [`GroupStats`], the per-rank
//!   [`RuntimeStats`](ai_ckpt::RuntimeStats) rollup.
//!
//! ## Quickstart
//!
//! ```
//! use ai_ckpt::CkptConfig;
//! use ai_ckpt_coord::{CheckpointGroup, GroupConfig};
//! use ai_ckpt_storage::{log::Log, MemoryBackend};
//!
//! # fn main() -> std::io::Result<()> {
//! # let dir = std::env::temp_dir().join(format!("coord-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir)?;
//! // Two ranks over in-memory backends; the global manifest is a file.
//! let cfg = GroupConfig::new(2, CkptConfig::ai_ckpt(1 << 16));
//! let global = Log::new(dir.join("GLOBAL"), None);
//! let mut group = CheckpointGroup::open(cfg, global, |_rank| {
//!     Ok(Box::new(MemoryBackend::new()))
//! })?;
//!
//! // Each rank allocates protected state through its own manager.
//! let mut bufs: Vec<_> = (0..2)
//!     .map(|r| group.rank(r).alloc_protected_named("state", 1 << 14))
//!     .collect::<Result<_, _>>()?;
//! for (r, buf) in bufs.iter_mut().enumerate() {
//!     buf.as_mut_slice()[0] = r as u8 + 1;
//! }
//!
//! // The collective: both ranks flush, then one global commit record.
//! let epoch = group.checkpoint()?;
//! assert_eq!(group.last_committed(), Some(epoch));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod global;
pub mod group;
pub mod stats;

pub use global::{GlobalRecord, GlobalRecordKind, GLOBAL_MAGIC};
pub use group::{rank_dir, CheckpointGroup, GroupConfig, GroupRestore, GLOBAL_MANIFEST_FILE};
pub use stats::GroupStats;
