//! Runtime configuration: checkpoint mode, flush strategy and resource
//! budgets (§4.2's three evaluated settings are presets here).

use ai_ckpt_core::SchedulerKind;
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{ChainEntry, RetryPolicy, ScrubPolicy};

/// How `CHECKPOINT` behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// Asynchronous: `CHECKPOINT` returns after scheduling; a background
    /// committer flushes while the application runs (the paper's default).
    Async,
    /// Synchronous: `CHECKPOINT` blocks until every dirty page is on stable
    /// storage (the paper's `sync` baseline). Dirty-page tracking is still
    /// used to find the increment.
    Sync,
}

/// When the background maintenance worker folds the checkpoint chain.
///
/// An incremental chain grows one segment per checkpoint; without bounds,
/// restore replays the job's entire history. The maintenance worker
/// compacts the committed chain into a single full segment whenever it
/// outgrows the bound, so on-disk segment count stays ≤ `max_chain_len` (+ the
/// epochs committed while a fold is in flight) and restore replays at most
/// that many segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionPolicy {
    /// Fold when the live chain exceeds this many segments (0 = never).
    pub max_chain_len: usize,
}

impl CompactionPolicy {
    /// No automatic compaction (the pre-compaction behaviour).
    pub const DISABLED: Self = Self { max_chain_len: 0 };

    /// Keep the live chain at or below `len` segments.
    pub fn chain_len(len: usize) -> Self {
        Self { max_chain_len: len }
    }

    /// True when the trigger can never fire.
    pub fn is_disabled(&self) -> bool {
        self.max_chain_len == 0
    }

    /// True when `chain` (a backend's live chain, ascending) should be
    /// folded: it is longer than `max_chain_len`.
    pub fn is_due(&self, chain: &[ChainEntry]) -> bool {
        self.max_chain_len > 0 && chain.len() > self.max_chain_len
    }
}

/// Configuration for a [`PageManager`](crate::PageManager).
#[derive(Debug, Clone)]
pub struct CkptConfig {
    /// Checkpoint mode.
    pub mode: CkptMode,
    /// Static flush order (Algorithm 4 vs. baselines).
    pub scheduler: SchedulerKind,
    /// Current-epoch adaptations (`WaitedPage` + CoW preference).
    pub dynamic_hints: bool,
    /// Copy-on-write budget in bytes; rounded down to whole pages. The
    /// paper's synthetic benchmark uses 16 MiB against 256 MiB of protected
    /// memory.
    pub cow_bytes: usize,
    /// Capacity of the page-id space. All per-page metadata is allocated up
    /// front (≈ 30 bytes/page), so this bounds the total protected memory:
    /// `max_pages * page_size`. Default 262 144 pages = 1 GiB at 4 KiB.
    pub max_pages: usize,
    /// Number of concurrent committer streams draining the flush plan into
    /// the storage backend. 1 reproduces the paper's single `ASYNC_COMMIT`
    /// thread; more streams exploit backend parallelism (striped parallel
    /// file systems, replicated fan-out, multi-channel devices). Also the
    /// number of a restore's fillers, the read-side dual of the flush
    /// (capped so that each fills at least one 64-page run). Default:
    /// `min(4, available cores)`. Clamped to at least 1.
    pub committer_streams: usize,
    /// Pages a committer stream claims from the flush plan per engine-lock
    /// acquisition (and writes per `write_pages` batch). Larger batches
    /// amortise locking and per-request storage overhead; smaller batches
    /// react faster to dynamic hints. Clamped to at least 1.
    pub flush_batch_pages: usize,
    /// Background chain compaction (see [`CompactionPolicy`]). Disabled by
    /// default: every preset reproduces the paper's unbounded chain unless
    /// the application opts into bounded-restore maintenance.
    pub compaction: CompactionPolicy,
    /// Checkpoint-numbering floor: epoch numbers start strictly above
    /// `max(backend history, epoch_floor)`. 0 (the default) defers entirely
    /// to the backend's high-water mark. Group hook: a multi-rank
    /// coordinator raises every rank's floor to the *group-wide* high-water
    /// mark so ranks stay in numbering lockstep even after an uneven crash
    /// recovery (one rank committed-then-retired an epoch the others never
    /// reached).
    pub epoch_floor: u64,
    /// Content-aware clean-dirty filtering: the runtime keeps a CRC-64
    /// digest of every page's last *committed* payload and the committer
    /// drops pages that faulted this epoch but are byte-identical to what
    /// storage already holds (same-value stores, page-granularity false
    /// sharing) before any I/O. Skips are counted in
    /// [`RuntimeStats::pages_skipped_clean`](crate::RuntimeStats). Restore
    /// seeds the table page by page as it fills, so a page rewritten with
    /// its restored bytes is recognised as clean-dirty too. Disabled by
    /// default (the paper's byte-oblivious behaviour); costs one CRC-64
    /// pass per flushed page plus 9 bytes of table per tracked page.
    pub content_filter: bool,
    /// Background at-rest integrity scrubbing, driven incrementally by the
    /// maintenance worker (no new threads). Enabled by default with an
    /// 8 MiB verified-byte budget per cycle; see
    /// [`ScrubPolicy`].
    pub scrub: ScrubPolicy,
    /// Bounded exponential backoff applied to transient storage faults on
    /// the drain and maintenance paths. Corrupt reads go to repair, never
    /// retry; permanent faults surface immediately.
    pub retry: RetryPolicy,
}

/// Default committer stream count: `min(4, available cores)`.
pub fn default_committer_streams() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(4)
}

/// Default pages per claimed flush batch.
pub const DEFAULT_FLUSH_BATCH_PAGES: usize = 32;

impl CkptConfig {
    /// The paper's `our-approach`: adaptive asynchronous incremental
    /// checkpointing with the given CoW budget.
    pub fn ai_ckpt(cow_bytes: usize) -> Self {
        Self {
            mode: CkptMode::Async,
            scheduler: SchedulerKind::Adaptive,
            dynamic_hints: true,
            cow_bytes,
            max_pages: 1 << 18,
            committer_streams: default_committer_streams(),
            flush_batch_pages: DEFAULT_FLUSH_BATCH_PAGES,
            compaction: CompactionPolicy::DISABLED,
            epoch_floor: 0,
            content_filter: false,
            scrub: ScrubPolicy::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// The paper's `async-no-pattern` baseline: identical machinery,
    /// ascending-address flush order, no dynamic adaptation.
    pub fn async_no_pattern(cow_bytes: usize) -> Self {
        Self {
            mode: CkptMode::Async,
            scheduler: SchedulerKind::AddressOrder,
            dynamic_hints: false,
            cow_bytes,
            max_pages: 1 << 18,
            committer_streams: default_committer_streams(),
            flush_batch_pages: DEFAULT_FLUSH_BATCH_PAGES,
            compaction: CompactionPolicy::DISABLED,
            epoch_floor: 0,
            content_filter: false,
            scrub: ScrubPolicy::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// The paper's `sync` baseline: blocking incremental checkpointing.
    pub fn sync() -> Self {
        Self {
            mode: CkptMode::Sync,
            scheduler: SchedulerKind::AddressOrder,
            dynamic_hints: false,
            cow_bytes: 0,
            max_pages: 1 << 18,
            committer_streams: default_committer_streams(),
            flush_batch_pages: DEFAULT_FLUSH_BATCH_PAGES,
            compaction: CompactionPolicy::DISABLED,
            epoch_floor: 0,
            content_filter: false,
            scrub: ScrubPolicy::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Override the page-id capacity.
    pub fn with_max_pages(mut self, max_pages: usize) -> Self {
        self.max_pages = max_pages;
        self
    }

    /// Override the scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Override the number of committer streams (clamped to ≥ 1).
    pub fn with_committer_streams(mut self, streams: usize) -> Self {
        self.committer_streams = streams.max(1);
        self
    }

    /// Override the flush batch size (clamped to ≥ 1).
    pub fn with_flush_batch_pages(mut self, pages: usize) -> Self {
        self.flush_batch_pages = pages.max(1);
        self
    }

    /// Enable background chain compaction under the given policy.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = policy;
        self
    }

    /// Enable (or disable) content-aware clean-dirty filtering.
    pub fn with_content_filter(mut self, on: bool) -> Self {
        self.content_filter = on;
        self
    }

    /// CoW slots implied by `cow_bytes` at the OS page size.
    pub fn cow_slots(&self) -> u32 {
        (self.cow_bytes / page_size()) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_settings() {
        let ours = CkptConfig::ai_ckpt(16 << 20);
        assert_eq!(ours.mode, CkptMode::Async);
        assert_eq!(ours.scheduler, SchedulerKind::Adaptive);
        assert!(ours.dynamic_hints);
        assert_eq!(ours.cow_slots() as usize, (16 << 20) / page_size());

        let base = CkptConfig::async_no_pattern(16 << 20);
        assert_eq!(base.scheduler, SchedulerKind::AddressOrder);
        assert!(!base.dynamic_hints);

        let sync = CkptConfig::sync();
        assert_eq!(sync.mode, CkptMode::Sync);
        assert_eq!(sync.cow_slots(), 0, "no CoW in sync mode");
    }

    #[test]
    fn compaction_disabled_by_default() {
        assert!(CkptConfig::ai_ckpt(0).compaction.is_disabled());
        assert!(CkptConfig::sync().compaction.is_disabled());
        let c = CkptConfig::ai_ckpt(0).with_compaction(CompactionPolicy::chain_len(8));
        assert!(!c.compaction.is_disabled());
        assert_eq!(c.compaction.max_chain_len, 8);
        assert_eq!(CompactionPolicy::default(), CompactionPolicy::DISABLED);
    }

    #[test]
    fn builders() {
        let c = CkptConfig::ai_ckpt(0)
            .with_max_pages(1024)
            .with_scheduler(SchedulerKind::AccessOrder)
            .with_committer_streams(0)
            .with_flush_batch_pages(0);
        assert_eq!(c.max_pages, 1024);
        assert_eq!(c.scheduler, SchedulerKind::AccessOrder);
        assert_eq!(c.committer_streams, 1, "clamped to at least one stream");
        assert_eq!(c.flush_batch_pages, 1, "clamped to at least one page");
    }

    #[test]
    fn default_streams_bounded_by_four() {
        let d = default_committer_streams();
        assert!((1..=4).contains(&d), "default streams {d}");
        assert_eq!(CkptConfig::ai_ckpt(0).committer_streams, d);
        assert_eq!(
            CkptConfig::ai_ckpt(0).flush_batch_pages,
            DEFAULT_FLUSH_BATCH_PAGES
        );
    }
}
