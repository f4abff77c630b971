//! # ai-ckpt-storage — checkpoint storage substrate
//!
//! Pluggable stable-storage backends for AI-Ckpt (§3.2 of the paper: the
//! page manager "is designed in a modular fashion such that it is easy to
//! plug in different storage backends"), plus the incremental-restore logic
//! that turns a chain of epochs back into a memory image.
//!
//! * [`backend`] — the `StorageBackend` trait (epoch-structured page sink +
//!   source; an epoch's metadata rides inside it as a reserved record);
//! * [`file`](mod@file) — POSIX file-system backend: the commit engine over
//!   per-epoch segment files and an append-only commit manifest — naming,
//!   stream shards, group commit, compaction, GC (covers both local disks
//!   and PVFS-style parallel file systems, which mount as directories);
//! * [`segment`] — the `AICKSEG3` segment file, owned whole: record
//!   framing, header and CRC'd trailer, the one vectored zero-copy writer
//!   and the one record walk;
//! * [`memory`] — in-RAM reference backend for tests and experiments;
//! * [`throttle`] — bandwidth/latency emulation (the paper's 55 MB/s SATA
//!   disks, on modern hardware);
//! * [`failing`] — failure injection for error-path testing;
//! * [`replicate`] — n-way replication across backends (the paper's
//!   straightforward remedy for unreliable local storage);
//! * [`parity`] — XOR single-erasure coding (the cheaper remedy the paper
//!   cites from its prior work);
//! * [`tiered`] — fast-tier + slow-tier pipeline with a background drain
//!   queue (the VELOC-style multi-level checkpoint path);
//! * [`policy`] — declarative multi-level resilience policies
//!   (`ResilienceSpec`): local → partner-replica → parity levels with
//!   async drain, background rebuild and graceful degraded reads;
//! * `route` (private) — the one routing rule behind every multi-child
//!   composite above: a composite names its
//!   [`children`](StorageBackend::children) and the trait's provided half
//!   decides which child reads, which children a mutation reaches, and how
//!   a damaged epoch is repaired;
//! * [`io`] — the syscall layer under [`segment`]: a partial-write-safe
//!   `pwritev` wrapper, reusable aligned staging buffers
//!   and syscall-level I/O counters surfaced as [`IoStats`];
//! * [`log`] — the one CRC'd commit log (create, append, tear-vs-corruption
//!   rule) that the file backend's `MANIFEST` and the group coordinator's
//!   `GLOBAL` are both schemas of;
//! * [`manifest`] / [`checksum`] — the `AICKMAN3` record schema and the
//!   integrity primitives;
//! * [`codec`] — per-record payload encodings (raw / RLE / vendored LZ)
//!   and the one seal/open pair (encode + CRC over the uncompressed bytes,
//!   decode + CRC check) that segment records and the in-memory backend
//!   both go through;
//! * [`image`] — latest-wins reference replay, starting from the newest
//!   full (compacted) segment; what tests compare restores against;
//! * [`locator`] — page→epoch resolution without payload I/O, the index
//!   behind the runtime's restores (eager and lazy);
//! * [`cache`] — shared sharded LRU page cache with single-flight loading,
//!   so N concurrent restores of one checkpoint hit disk once per page;
//! * [`scrub`] — at-rest integrity scrubbing: incremental verification,
//!   self-healing repair from the best surviving redundant source, and
//!   quarantine of irreparable epochs;
//! * [`errors`] — the Transient/Permanent/Corrupt fault taxonomy and the
//!   deterministic-jitter [`RetryPolicy`];
//! * [`namespace`] — `label_NNNN/` sub-root naming shared by the group
//!   coordinator's per-rank directories and the multi-tenant service's
//!   per-tenant directories.
//!
//! The chain lifecycle — full → deltas → compaction → GC — is defined in
//! [`backend`]: `compact(up_to)` folds the live prefix into one full
//! segment so restore cost and segment count stay bounded no matter how
//! many checkpoints were ever taken.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cache;
pub mod checksum;
pub mod codec;
pub mod errors;
pub mod failing;
pub mod file;
pub mod image;
pub mod io;
pub mod locator;
pub mod log;
pub mod manifest;
pub mod memory;
pub mod namespace;
pub mod null;
pub mod parity;
pub mod policy;
pub mod replicate;
mod route;
pub mod scrub;
pub mod segment;
pub mod throttle;
pub mod tiered;

pub use backend::{
    is_page, replay_window, write_epoch, ChainEntry, CompactionStats, EpochKind, EpochWriter,
    PageRead, StorageBackend, META_RECORD,
};
pub use cache::{CacheStats, PageCache};
pub use checksum::{crc64, crc64_update};
pub use codec::{Compression, Encoding};
pub use errors::{classify, FaultClass, RetryPolicy};
pub use failing::{FailingBackend, FailureControl, FaultOp};
pub use file::{
    corrupt_manifest_byte, corrupt_manifest_count, corrupt_segment_region, FileBackend,
    SegmentRegion,
};
pub use image::CheckpointImage;
pub use io::{IoCounters, IoStats};
pub use locator::PageLocator;
pub use manifest::{ManifestRecord, RecordKind};
pub use memory::{MemoryBackend, MemoryRoot};
pub use null::NullBackend;
pub use parity::ParityBackend;
pub use policy::{
    LevelProtection, LevelSpec, LevelStats, PolicyBackend, PolicyBuilder, PolicyStats,
    ResilienceSpec,
};
pub use replicate::ReplicatedBackend;
pub use scrub::{
    quarantined_error, IntegrityStats, RecordMeta, RepairReport, ScrubPolicy, Scrubber,
    VerifyReport,
};
pub use throttle::ThrottledBackend;
pub use tiered::TieredBackend;
