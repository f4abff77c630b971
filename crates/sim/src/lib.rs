//! # ai-ckpt-sim — discrete-event cluster simulator for AI-Ckpt
//!
//! The paper's multi-node experiments ran on Grid'5000 (32 compute nodes +
//! PVFS on 10 storage nodes) and Shamrock (28 nodes × 10 ranks, local
//! disks). This crate reproduces those experiments on one machine with a
//! deterministic discrete-event simulation that reuses the *exact same*
//! checkpointing logic (`ai_ckpt_core::EpochEngine`) the real runtime uses —
//! only memory protection, storage and time are modelled.
//!
//! * [`time`] — integer-nanosecond simulated time;
//! * [`storage`] — FIFO bandwidth-server contention models (PVFS-like
//!   striped farm, node-local disks);
//! * [`app`] + [`synthetic`]/[`stencil`]/[`lattice`] — application models
//!   reduced to their page-touch sequence (the §4.3 benchmark, CM1-like,
//!   MILC-like);
//! * [`cluster`] — barrier-coupled ranks with per-rank engines and
//!   flushers, and the event loop;
//! * [`experiment`] — strategy comparisons and the paper's metrics;
//! * [`report`] — table rendering for the figure harness.
//!
//! See DESIGN.md §4 for the substitution argument (what each model stands
//! in for and why the relevant behaviour is preserved).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod cluster;
pub mod experiment;
pub mod lattice;
pub mod report;
pub mod stencil;
pub mod storage;
pub mod synthetic;
pub mod time;

pub use app::AppModel;
pub use cluster::{Cluster, ClusterConfig, RankStats, SimOutcome, Strategy};
pub use experiment::{AppKind, Comparison, Experiment, StrategyRow};
pub use lattice::{LatticeApp, LatticeConfig};
pub use report::Table;
pub use stencil::{StencilApp, StencilConfig};
pub use storage::{Routing, ServiceParams, StorageModel};
pub use synthetic::{Pattern, SyntheticApp};
pub use time::SimTime;

// Re-export the engine vocabulary the strategies are configured with.
pub use ai_ckpt_core::SchedulerKind;
