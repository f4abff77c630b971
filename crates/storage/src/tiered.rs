//! Two-tier storage: a fast inner tier absorbs checkpoints at memory/SSD
//! speed, a background drain moves finished epochs to a slow durable outer
//! tier (the multi-level pipeline of VELOC and DataStates-LLM, applied to
//! this runtime's epoch chain).
//!
//! * [`StorageBackend::begin_epoch`] commits to the **fast** tier only —
//!   checkpoint latency is the fast tier's latency;
//! * [`StorageBackend::drain_one`] copies the oldest not-yet-drained epoch
//!   into the **slow** tier and evicts it from the fast tier (the runtime's
//!   maintenance worker calls this continuously);
//! * when the fast tier already holds `fast_capacity` undrained epochs, the
//!   next `begin_epoch` drains synchronously first — back-pressure instead
//!   of unbounded fast-tier growth;
//! * everything else is the routing rule of the `route` module over the
//!   two tiers as [`StorageBackend::children`], fast first: reads and
//!   listings see the union of both tiers, so an epoch is visible from the
//!   moment the fast tier committed it; verification, rewrites, repair and
//!   retirement reach *both* copies of an epoch that sits on both tiers (a
//!   drain whose eviction failed), and either copy heals the other;
//! * a fold ([`StorageBackend::compact`]) reads that union view and
//!   installs on the slow tier: `install_compacted` drains everything up
//!   to the target first — the long chain lives (and is bounded) there.
//!
//! Crash story: the fast tier is typically volatile
//! ([`MemoryBackend`](crate::memory::MemoryBackend)), so
//! a crash loses exactly the epochs that had not drained yet — the slow
//! tier always holds a consistent prefix of the chain (drains are
//! oldest-first and each epoch is committed to the slow tier before it is
//! evicted from the fast one). On reconstruction the pending queue is
//! recovered as every epoch the fast tier still holds: one the slow tier
//! holds too is a drain that died between its copy's commit and the
//! eviction, and the next drain just evicts it.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{EpochWriter, StorageBackend};
use crate::errors::RetryPolicy;
use crate::route;

struct TierState {
    /// Epochs the fast tier holds that no drain has evicted yet; ascending
    /// (pushed on commit, popped by drains).
    pending: VecDeque<u64>,
    /// Highest epoch ever committed through this backend (either tier).
    high_water: Option<u64>,
}

/// Fast tier + slow tier with an explicit drain queue between them.
pub struct TieredBackend {
    fast: Box<dyn StorageBackend>,
    slow: Box<dyn StorageBackend>,
    /// Undrained epochs the fast tier may hold before `begin_epoch` applies
    /// back-pressure (0 = unbounded).
    fast_capacity: usize,
    /// Shared with open epoch writers (they enqueue on `finish`).
    state: Arc<Mutex<TierState>>,
    /// Serialises drains (maintenance worker vs. inline back-pressure)
    /// without blocking commits or reads.
    drain_lock: Mutex<()>,
}

impl TieredBackend {
    /// Build a tiered backend; recovers the pending-drain queue from the
    /// fast tier's committed epochs.
    pub fn new(
        fast: Box<dyn StorageBackend>,
        slow: Box<dyn StorageBackend>,
        fast_capacity: usize,
    ) -> io::Result<Self> {
        let fast_epochs = fast.epochs()?;
        let slow_epochs = slow.epochs()?;
        let high_water = fast_epochs.last().copied().max(slow_epochs.last().copied());
        Ok(Self {
            fast,
            slow,
            fast_capacity,
            state: Arc::new(Mutex::new(TierState {
                pending: fast_epochs.into(),
                high_water,
            })),
            drain_lock: Mutex::new(()),
        })
    }

    /// The fast (inner) tier.
    pub fn fast(&self) -> &dyn StorageBackend {
        self.fast.as_ref()
    }

    /// The slow (outer) tier.
    pub fn slow(&self) -> &dyn StorageBackend {
        self.slow.as_ref()
    }

    /// Epochs waiting to drain, oldest first.
    pub fn pending_drain(&self) -> Vec<u64> {
        self.state.lock().pending.iter().copied().collect()
    }

    /// Drain until the fast tier holds no finished epoch.
    pub fn drain_all(&self) -> io::Result<u64> {
        let mut n = 0;
        while self.drain_one()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Drain until every epoch `<= up_to` is on the slow tier.
    fn drain_through(&self, up_to: u64) -> io::Result<()> {
        loop {
            let due = self
                .state
                .lock()
                .pending
                .front()
                .is_some_and(|&e| e <= up_to);
            if !due {
                return Ok(());
            }
            if self.drain_one()?.is_none() {
                return Ok(()); // raced another drainer to empty
            }
        }
    }
}

/// Fast-tier epoch session that enqueues the epoch for draining once the
/// fast tier committed it.
struct TieredEpochWriter {
    inner: Box<dyn EpochWriter>,
    state: Arc<Mutex<TierState>>,
    epoch: u64,
}

impl EpochWriter for TieredEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        self.inner.write_pages(batch)
    }

    fn finish(&self) -> io::Result<()> {
        self.inner.finish()?;
        let mut st = self.state.lock();
        st.pending.push_back(self.epoch);
        st.high_water = Some(st.high_water.map_or(self.epoch, |h| h.max(self.epoch)));
        Ok(())
    }

    fn abort(&self) -> io::Result<()> {
        self.inner.abort()
    }
}

impl StorageBackend for TieredBackend {
    fn children(&self) -> Vec<(&str, &dyn StorageBackend)> {
        // Fast first: a concurrent drain commits an epoch to the slow tier
        // *before* evicting it from the fast one, so fast-then-slow can
        // observe an in-flight epoch twice but never zero times.
        vec![("fast tier", &*self.fast), ("slow tier", &*self.slow)]
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        {
            let st = self.state.lock();
            if st.high_water.is_some_and(|h| epoch <= h) {
                return Err(io::Error::other(format!(
                    "epoch {epoch} not increasing across tiers"
                )));
            }
        }
        // Back-pressure: the fast tier may not grow past its capacity.
        if self.fast_capacity > 0 {
            while self.state.lock().pending.len() >= self.fast_capacity {
                if self.drain_one()?.is_none() {
                    break; // raced another drainer below capacity
                }
            }
        }
        let inner = self.fast.begin_epoch(epoch)?;
        Ok(Box::new(TieredEpochWriter {
            inner,
            state: Arc::clone(&self.state),
            epoch,
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        route::epochs(&self.children())
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        route::read_epoch(self, epoch, visit)
    }

    fn bytes_written(&self) -> u64 {
        // Logical checkpoint bytes: what the application committed (drain
        // copies to the slow tier are internal traffic).
        self.fast.bytes_written()
    }

    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        // The full segment belongs on the durable tier, so everything it
        // supersedes must have drained there first.
        self.drain_through(into)?;
        route::install_compacted(&self.children(), from, into, records)
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        // Hold the drain lock so no epoch changes tiers underfoot while
        // each tier retires its share.
        let _serial = self.drain_lock.lock();
        let result = route::remove_epochs(&self.children(), epochs, false);
        // Whatever the outcome, the queue keeps only what the fast tier
        // still holds: a stale entry would wedge every later drain.
        if let Ok(on_fast) = self.fast.epochs() {
            let gone = |e: &u64| epochs.contains(e) && !on_fast.contains(e);
            self.state.lock().pending.retain(|e| !gone(e));
        }
        result
    }

    fn drain_backlog(&self) -> usize {
        self.state.lock().pending.len()
    }

    fn drain_one(&self) -> io::Result<Option<u64>> {
        let _serial = self.drain_lock.lock();
        let Some(&epoch) = self.state.lock().pending.front() else {
            return Ok(None);
        };
        // A previous attempt may have committed the copy and then failed
        // the fast-tier eviction; re-running begin_epoch would then be
        // rejected forever ("epoch not increasing"). Detect and resume at
        // the eviction — as for an epoch `new` recovered from both tiers.
        if !self.slow.epochs()?.contains(&epoch) {
            // Copy fast → slow. Buffered: the epoch is bounded by the fast
            // tier's capacity, and the slow tier wants batched writes
            // anyway.
            let records = route::read_records(&*self.fast, epoch)?;
            route::write_records(&*self.slow, epoch, &records, &RetryPolicy::none())?;
        }
        // The epoch is durable on the slow tier: evict it from the fast
        // tier and release the queue slot. The queue only pops once the
        // eviction succeeded, so `pending` stays truthful (a failed
        // eviction is retried by the next drain, skipping the copy).
        self.fast.remove_epochs(&[epoch])?;
        self.state.lock().pending.pop_front();
        Ok(Some(epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::image::CheckpointImage;
    use crate::memory::MemoryBackend;

    fn tiered(capacity: usize) -> (TieredBackend, MemoryBackend, MemoryBackend) {
        let (fast, fast_view) = MemoryBackend::shared();
        let (slow, slow_view) = MemoryBackend::shared();
        (
            TieredBackend::new(Box::new(fast), Box::new(slow), capacity).unwrap(),
            fast_view,
            slow_view,
        )
    }

    #[test]
    fn commits_land_fast_and_drain_slow() {
        let (t, fast, slow) = tiered(0);
        write_epoch(&t, 1, vec![(0, vec![1])]).unwrap();
        write_epoch(&t, 2, vec![(1, vec![2])]).unwrap();
        assert_eq!(fast.epochs().unwrap(), vec![1, 2]);
        assert!(slow.epochs().unwrap().is_empty());
        assert_eq!(t.pending_drain(), vec![1, 2]);
        assert_eq!(t.epochs().unwrap(), vec![1, 2], "union view");

        assert_eq!(t.drain_one().unwrap(), Some(1), "oldest first");
        assert_eq!(slow.epochs().unwrap(), vec![1]);
        assert_eq!(fast.epochs().unwrap(), vec![2], "evicted after drain");
        assert_eq!(t.drain_all().unwrap(), 1);
        assert_eq!(t.drain_one().unwrap(), None);
        assert_eq!(slow.epochs().unwrap(), vec![1, 2]);
        assert_eq!(t.epochs().unwrap(), vec![1, 2]);

        // The image is identical whichever tier serves it.
        let img = CheckpointImage::load(&t, 2).unwrap();
        assert_eq!(img.page(0), Some(&[1u8][..]));
        assert_eq!(img.page(1), Some(&[2u8][..]));
    }

    #[test]
    fn capacity_applies_backpressure() {
        let (t, fast, slow) = tiered(2);
        write_epoch(&t, 1, vec![(0, vec![1])]).unwrap();
        write_epoch(&t, 2, vec![(1, vec![2])]).unwrap();
        // Third commit must synchronously drain the oldest epoch first.
        write_epoch(&t, 3, vec![(2, vec![3])]).unwrap();
        assert_eq!(slow.epochs().unwrap(), vec![1], "epoch 1 force-drained");
        assert!(fast.epochs().unwrap().len() <= 2);
        assert_eq!(t.pending_drain(), vec![2, 3]);
    }

    #[test]
    fn compact_drains_then_folds_the_slow_chain() {
        let (t, fast, slow) = tiered(0);
        write_epoch(&t, 1, vec![(0, vec![1]), (1, vec![1])]).unwrap();
        write_epoch(&t, 2, vec![(1, vec![2])]).unwrap();
        write_epoch(&t, 3, vec![(2, vec![3])]).unwrap();
        let stats = t.compact(3).unwrap();
        assert_eq!((stats.from, stats.into), (1, 3));
        assert!(fast.epochs().unwrap().is_empty(), "all drained");
        assert_eq!(slow.epochs().unwrap(), vec![3], "slow chain folded");
        let img = CheckpointImage::load(&t, 3).unwrap();
        assert_eq!(img.page(0), Some(&[1u8][..]));
        assert_eq!(img.page(1), Some(&[2u8][..]));
        assert_eq!(img.page(2), Some(&[3u8][..]));
    }

    #[test]
    fn integrity_reaches_an_epoch_both_tiers_hold() {
        // The same both-tiers state, with the *slow* copy rotted: asking the
        // first holder only would report the epoch clean, let the drain
        // retry evict the good copy, and leave a CRC mismatch nobody can
        // heal.
        let (t, fast, slow) = tiered(0);
        let pages = vec![(0, vec![1u8; 16]), (1, vec![2u8; 16])];
        write_epoch(&t, 1, pages.clone()).unwrap();
        write_epoch(&slow, 1, pages.clone()).unwrap();
        slow.corrupt_stored_page(1, 0, 3).unwrap();
        let report = t.verify_epoch(1).unwrap();
        assert_eq!(report.corrupt_pages, vec![0], "named before any eviction");
        assert_eq!(t.repair_epoch(1).unwrap().source, "fast tier");
        assert_eq!(slow.epoch_records(1).unwrap(), pages, "healed in place");
        assert!(t.verify_epoch(1).unwrap().is_clean());
        // A rewrite reaches both copies, so whichever survives the drain
        // retry serves the new bytes.
        t.rewrite_epoch(1, &[(0, &[9u8; 16])]).unwrap();
        assert_eq!(fast.epoch_records(1).unwrap(), vec![(0, vec![9u8; 16])]);
        assert_eq!(slow.epoch_records(1).unwrap(), vec![(0, vec![9u8; 16])]);
        assert_eq!(t.drain_one().unwrap(), Some(1));
        assert_eq!(t.read_page_at(1, 0).unwrap().unwrap(), vec![9u8; 16]);
    }
}
