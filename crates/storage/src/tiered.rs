//! Two-tier storage: a fast inner tier absorbs checkpoints at memory/SSD
//! speed, and a drain moves finished epochs to a slow durable outer tier
//! (the multi-level pipeline of VELOC and DataStates-LLM, applied to this
//! runtime's epoch chain).
//!
//! A [`TieredBackend`] is the two-level [`PolicyBackend`]
//! `fast=plain#cap -> slow=plain` and adds nothing to it: commits land on
//! the fast tier; [`StorageBackend::drain_one`] copies the oldest undrained
//! epoch to the slow tier and evicts it from the fast one (the runtime's
//! maintenance worker calls it continuously); once the fast tier holds
//! `cap` undrained epochs the next `begin_epoch` drains inline first —
//! back-pressure instead of unbounded fast-tier growth. Reads, listings,
//! verification, repair, folds and retirement are the policy's, over the
//! two tiers as levels `fast` and `slow` (see [`crate::policy`]).
//!
//! Crash story: the fast tier is typically volatile
//! ([`MemoryBackend`](crate::memory::MemoryBackend)), so a crash loses
//! exactly the epochs that had not drained yet — the slow tier always holds
//! a consistent prefix of the chain (drains are oldest-first and each epoch
//! is committed to the slow tier before it is evicted from the fast one).
//! Rebuilt over the same tiers, the policy owes a drain of every epoch the
//! fast tier still holds: one the slow tier holds too is a drain that died
//! between its copy's commit and the eviction, and the next drain just
//! evicts it.

use std::io;

use crate::backend::{EpochWriter, StorageBackend};
use crate::policy::{LevelProtection, LevelSpec, PolicyBackend, PolicyBuilder, ResilienceSpec};

/// Fast tier + slow tier: the policy `fast=plain#cap -> slow=plain`.
pub struct TieredBackend(PolicyBackend);

impl TieredBackend {
    /// Build a tiered backend over `fast` and `slow`. At `fast_capacity`
    /// undrained epochs a commit drains first; 0 means no back-pressure (a
    /// bound that is never reached — drains still evict).
    pub fn new(
        fast: Box<dyn StorageBackend>,
        slow: Box<dyn StorageBackend>,
        fast_capacity: usize,
    ) -> io::Result<Self> {
        let level = |name: &str, capacity| LevelSpec {
            name: name.to_owned(),
            protection: LevelProtection::None,
            capacity,
        };
        let bound = if fast_capacity == 0 {
            usize::MAX
        } else {
            fast_capacity
        };
        let spec = ResilienceSpec {
            levels: vec![level("fast", bound), level("slow", 0)],
        };
        let mut tiers = [Some(fast), Some(slow)];
        let take = |tier: usize, _| tiers[tier].take().expect("one store per tier");
        PolicyBuilder::new(spec)?.build(take).map(Self)
    }

    /// The slow (outer) tier.
    pub fn slow(&self) -> &dyn StorageBackend {
        self.0.children()[1].1
    }

    /// Epochs waiting to drain, oldest first.
    pub fn pending_drain(&self) -> Vec<u64> {
        self.0.staged(0)
    }
}

impl StorageBackend for TieredBackend {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.0)
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        self.0.begin_epoch(epoch)
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.0.epochs()
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.0.read_epoch(epoch, visit)
    }

    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }
}
