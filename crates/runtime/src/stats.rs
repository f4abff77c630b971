//! Runtime-level metrics: per-checkpoint durations and the closed epochs'
//! access-type statistics — the quantities plotted throughout §4 of the
//! paper.

use std::time::Duration;

use ai_ckpt_core::{EpochStats, LatencySnapshot};
use ai_ckpt_storage::{IntegrityStats, IoStats};

/// Everything known about one checkpoint after it finished.
#[derive(Debug, Clone, Default)]
pub struct CheckpointRecord {
    /// Checkpoint sequence number (1-based).
    pub seq: u64,
    /// Pages scheduled (the incremental dirty set).
    pub scheduled_pages: u64,
    /// Bytes scheduled.
    pub scheduled_bytes: u64,
    /// Wall time from the `CHECKPOINT` call to the last page durably
    /// committed — the paper's "checkpointing time" metric. `None` while
    /// still flushing.
    pub duration: Option<Duration>,
    /// The committer hit a storage error; the epoch was not committed.
    pub failed: bool,
    /// Access-type statistics of the epoch *preceding* this request (the
    /// epoch whose dirty set this checkpoint flushes).
    pub closed_epoch: EpochStats,
}

/// Cumulative work performed by one committer stream (since the manager
/// started). The flush pipeline's load balance is visible here: with `N`
/// streams on a parallel backend, pages/bytes should spread roughly evenly;
/// a single hot stream means the backend serialises internally.
///
/// The counters record work *issued to the backend*, including pages
/// written into an epoch session that was later aborted on a storage error
/// — they measure pipeline throughput, not durable data (use
/// [`CheckpointRecord::failed`] / the backend's `epochs()` for
/// durability).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream index (0-based).
    pub stream: usize,
    /// Pages this stream wrote to the backend.
    pub pages: u64,
    /// Payload bytes this stream wrote to the backend.
    pub bytes: u64,
    /// `write_pages` batches this stream issued.
    pub batches: u64,
}

impl StreamStats {
    /// Mean pages per issued batch.
    pub fn mean_batch_pages(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.pages as f64 / self.batches as f64
        }
    }
}

/// Cumulative work of the background maintenance worker (chain compaction,
/// segment GC and tier draining) since the manager started.
///
/// Invariants a healthy run upholds (asserted by the stress tests):
/// `bytes_reclaimed ≥ 0` with `bytes_compacted ≤` the payload folded
/// (latest-wins merges never grow), and `segments_removed ≥ compactions`
/// (every fold supersedes at least the segment it replaced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Chain compactions performed.
    pub compactions: u64,
    /// Superseded segments garbage-collected by those compactions.
    pub segments_removed: u64,
    /// Payload bytes freed: folded-away duplicates (bytes before the merge
    /// minus bytes after).
    pub bytes_reclaimed: u64,
    /// Payload bytes written into full (compacted) segments.
    pub bytes_compacted: u64,
    /// Epochs drained from a fast tier to the durable tier.
    pub epochs_drained: u64,
    /// Maintenance cycles that failed. Never fatal to the application: the
    /// worker retries the cycle (or, for a backend without compaction
    /// support, disarms the policy after recording one failure); the chain
    /// merely stays longer until a retry succeeds.
    pub failures: u64,
}

/// Snapshot of the runtime's accumulated metrics.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// One record per checkpoint, in sequence order.
    pub checkpoints: Vec<CheckpointRecord>,
    /// Statistics of the epoch currently accumulating (not yet closed by a
    /// checkpoint request).
    pub live_epoch: EpochStats,
    /// Per-committer-stream work counters, one entry per configured stream.
    pub streams: Vec<StreamStats>,
    /// Chain-maintenance counters (zero when compaction is disabled and the
    /// backend has no drain backlog).
    pub maintenance: MaintenanceStats,
    /// Clean-dirty pages dropped before any I/O by the content filter:
    /// pages that faulted this epoch but whose bytes equal the last
    /// committed version (`CkptConfig::content_filter`; always zero when
    /// the filter is off).
    pub pages_skipped_clean: u64,
    /// Payload bytes those skipped pages would have written.
    pub bytes_skipped: u64,
    /// Application write-stall distribution: entry-to-exit latency of every
    /// protected-write fault (first write per page per epoch), including
    /// copy-on-write copies and `MustWait` blocks — the paper's
    /// interference metric as p50/p99/max instead of a mean. Recorded
    /// lock-free from the SIGSEGV handler.
    pub write_stall: LatencySnapshot,
    /// Total engine-lock acquisitions since the manager started (fault
    /// handler, committer streams, checkpoint requests). The benchmark's
    /// `core.engine_lock_acq_per_page` tracks this against pages flushed:
    /// the steady-state flush path acquires the lock O(batches), never
    /// O(bytes).
    pub engine_lock_acquisitions: u64,
    /// Storage-syscall counters of the backend's vectored I/O engine:
    /// gathered (`pwritev`) writes and bytes per syscall, segment fsyncs
    /// (group commit pays one per shard per epoch) and manifest
    /// appends/fsyncs (batched appends coalesce). Zero for backends without
    /// file I/O; wrapper backends report their children's totals.
    pub io: IoStats,
    /// At-rest integrity scrubbing counters: epochs/records/bytes verified,
    /// damage found, repairs performed and the current quarantine size. The
    /// maintenance worker advances these one paced cycle per checkpoint
    /// (`CkptConfig::scrub`); all zero when scrubbing is disabled.
    pub integrity: IntegrityStats,
}

impl RuntimeStats {
    /// Mean checkpoint duration, skipping the first `skip` checkpoints (the
    /// paper omits the first, full, checkpoint). Unfinished/failed
    /// checkpoints are excluded.
    pub fn mean_checkpoint_time(&self, skip: usize) -> Option<Duration> {
        let times: Vec<Duration> = self
            .checkpoints
            .iter()
            .skip(skip)
            .filter(|c| !c.failed)
            .filter_map(|c| c.duration)
            .collect();
        if times.is_empty() {
            return None;
        }
        Some(times.iter().sum::<Duration>() / times.len() as u32)
    }

    /// Mean WAIT count per epoch, skipping the first `skip` epochs. The
    /// epoch stats attached to checkpoint *n+1* describe the interference
    /// experienced while checkpoint *n* was flushing.
    pub fn mean_wait(&self, skip: usize) -> f64 {
        self.mean_epoch(skip, |e| e.wait)
    }

    /// Mean AVOIDED count per epoch.
    pub fn mean_avoided(&self, skip: usize) -> f64 {
        self.mean_epoch(skip, |e| e.avoided)
    }

    /// Mean COW count per epoch.
    pub fn mean_cow(&self, skip: usize) -> f64 {
        self.mean_epoch(skip, |e| e.cow)
    }

    fn mean_epoch(&self, skip: usize, f: impl Fn(&EpochStats) -> u64) -> f64 {
        // Epoch k's stats are carried by checkpoint k+1's `closed_epoch`
        // (and the final epoch by `live_epoch`). Collect epochs >= skip.
        let vals: Vec<u64> = self
            .checkpoints
            .iter()
            .map(|c| &c.closed_epoch)
            .chain(std::iter::once(&self.live_epoch))
            .filter(|e| e.epoch as usize >= skip)
            .map(f)
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, ms: Option<u64>, failed: bool, wait: u64, epoch: u64) -> CheckpointRecord {
        CheckpointRecord {
            seq,
            duration: ms.map(Duration::from_millis),
            failed,
            closed_epoch: EpochStats {
                epoch,
                wait,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn mean_checkpoint_time_skips_and_filters() {
        let stats = RuntimeStats {
            checkpoints: vec![
                record(1, Some(100), false, 0, 0),
                record(2, Some(20), false, 0, 1),
                record(3, Some(40), false, 0, 2),
                record(4, None, true, 0, 3),
            ],
            live_epoch: EpochStats::default(),
            streams: Vec::new(),
            maintenance: MaintenanceStats::default(),
            ..Default::default()
        };
        assert_eq!(
            stats.mean_checkpoint_time(1),
            Some(Duration::from_millis(30))
        );
        assert_eq!(
            stats.mean_checkpoint_time(0),
            Some(Duration::from_millis(160) / 3)
        );
        assert_eq!(RuntimeStats::default().mean_checkpoint_time(0), None);
    }

    #[test]
    fn mean_wait_includes_live_epoch() {
        let stats = RuntimeStats {
            checkpoints: vec![
                record(1, Some(1), false, 100, 0),
                record(2, Some(1), false, 10, 1),
            ],
            live_epoch: EpochStats {
                epoch: 2,
                wait: 20,
                ..Default::default()
            },
            streams: Vec::new(),
            maintenance: MaintenanceStats::default(),
            ..Default::default()
        };
        // Epochs 1 and 2 (skip epoch 0 = pre-first-checkpoint).
        assert_eq!(stats.mean_wait(1), 15.0);
        assert_eq!(stats.mean_wait(0), 130.0 / 3.0);
    }
}
