//! # ai-ckpt-repro — reproduction of AI-Ckpt (HPDC '13)
//!
//! Umbrella crate tying the workspace together for the examples and
//! integration tests. The functionality lives in the member crates:
//!
//! * [`ai_ckpt`] — the runtime (page manager, `CHECKPOINT`, restore);
//! * [`ai_ckpt_core`] — the deterministic engine (Algorithms 1–4);
//! * [`ai_ckpt_mem`] — mprotect/SIGSEGV substrate;
//! * [`ai_ckpt_storage`] — storage backends and incremental restore;
//! * [`ai_ckpt_service`] — the multi-tenant checkpoint service (shared
//!   worker pools, fair drain arbitration, per-tenant quotas);
//! * [`ai_ckpt_coord`] — coordinated multi-rank checkpoint groups
//!   (two-phase global commit, group restore);
//! * [`ai_ckpt_sim`] — the discrete-event cluster simulator.
//!
//! This crate holds the figure harness itself, the code that regenerates
//! every figure of the paper's evaluation:
//!
//! | figure | what | substrate |
//! |--------|------|-----------|
//! | Fig 2a/b/c | synthetic benchmark, 3 patterns × 3 strategies | **real** mprotect runtime + throttled storage ([`fig2`]) |
//! | Fig 3a/b | CM1 weak scaling on PVFS | simulator ([`presets::cm1_experiment`]) |
//! | Fig 4a/b | CoW-size sweeps (CM1 @32, MILC @280) | simulator |
//! | Fig 5 | MILC weak scaling on local disks | simulator |
//!
//! The `figures` binary (`cargo run --release --bin figures -- [--quick]
//! <fig>`) prints paper-vs-measured tables. The simulated panels are exact
//! per seed, and `FIGURES.txt` at the repository root is their full-scale
//! output. See `README.md` for a tour and `DESIGN.md` for the system
//! inventory.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fig2;
pub mod presets;

pub use fig2::{Fig2Cell, Fig2Config};

pub use ai_ckpt;
pub use ai_ckpt_coord;
pub use ai_ckpt_core;
pub use ai_ckpt_mem;
pub use ai_ckpt_service;
pub use ai_ckpt_sim;
pub use ai_ckpt_storage;
