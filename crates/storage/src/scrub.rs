//! At-rest integrity scrubbing: detect → source-select → repair →
//! quarantine.
//!
//! Silent corruption (bitrot, torn blocks below the commit point) is only
//! harmful if it outlives the redundancy that could repair it. The
//! [`Scrubber`] walks the epoch chain *incrementally* — a cursor plus a
//! byte budget per cycle, driven by the existing maintenance worker so no
//! new threads appear — validating every record's CRC and the
//! manifest↔segment agreement via
//! [`StorageBackend::verify_epoch`]
//! without materializing a restore. On damage it asks the backend to
//! repair itself from the best surviving source
//! ([`StorageBackend::repair_epoch`]:
//! a replica member, XOR parity, or another policy level), re-verifies,
//! and only then trusts the epoch again. Epochs with no surviving source
//! are **quarantined**: restores refuse them loudly instead of serving
//! bad bytes, and the set is surfaced in [`IntegrityStats`].

use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::backend::StorageBackend;

/// What `verify_epoch` found. A clean report has no corrupt pages and no
/// structural findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// The epoch that was verified.
    pub epoch: u64,
    /// Records whose payload decoded and matched its CRC.
    pub records: u64,
    /// Uncompressed payload bytes verified.
    pub bytes: u64,
    /// Page ids whose stored record is damaged (CRC mismatch, bad
    /// encoding, undecodable payload, a frame that no longer matches its
    /// trailer entry). Parity-flagged ids may appear here
    /// for backends that store parity records inline.
    pub corrupt_pages: Vec<u64>,
    /// Damage not attributable to a single record: bad segment magic, a
    /// missing, torn or CRC-failing segment trailer, manifest↔segment
    /// record-count disagreement. Each
    /// entry is a human-readable description.
    pub structural: Vec<String>,
}

impl VerifyReport {
    /// Fresh (clean) report for `epoch`.
    pub fn new(epoch: u64) -> Self {
        Self {
            epoch,
            ..Self::default()
        }
    }

    /// True when nothing is damaged.
    pub fn is_clean(&self) -> bool {
        self.corrupt_pages.is_empty() && self.structural.is_empty()
    }

    /// Record a damaged page, keeping the list deduplicated.
    pub fn note_corrupt(&mut self, page: u64) {
        if !self.corrupt_pages.contains(&page) {
            self.corrupt_pages.push(page);
        }
    }

    /// Fold another backend's report into this one (replica sets verify
    /// each member and union the damage).
    pub fn merge(&mut self, other: &VerifyReport) {
        for &p in &other.corrupt_pages {
            self.note_corrupt(p);
        }
        self.structural.extend(other.structural.iter().cloned());
        self.records = self.records.max(other.records);
        self.bytes = self.bytes.max(other.bytes);
    }
}

/// What a successful `repair_epoch` did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// The repaired epoch.
    pub epoch: u64,
    /// Pages whose payload was rewritten from a surviving source. Empty
    /// with `rewrote_segment` set means the whole epoch was rewritten and
    /// callers should invalidate every cached page of it.
    pub pages: Vec<u64>,
    /// The entire segment (and its manifest record) was rewritten, not
    /// just individual records patched.
    pub rewrote_segment: bool,
    /// Human-readable description of the surviving source used
    /// (`"replica 1"`, `"parity"`, `"level cold"`, `"manifest recount"`).
    pub source: String,
}

/// Frame-level metadata of one stored record, without its payload.
/// Lets repair paths truncate padded parity reconstructions back to the
/// exact stored length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Uncompressed payload length in bytes.
    pub raw_len: u32,
    /// CRC-64 over the uncompressed payload, as stored in the frame.
    pub crc: u64,
}

/// Pacing knobs for background scrubbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubPolicy {
    /// Scrub at all. Disabled scrubbers never touch the backend and
    /// quarantine nothing.
    pub enabled: bool,
    /// Verified-byte budget per maintenance cycle; at least one epoch is
    /// scrubbed per cycle regardless, so progress never stalls.
    pub bytes_per_cycle: u64,
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            bytes_per_cycle: 8 << 20,
        }
    }
}

impl ScrubPolicy {
    /// A policy that never scrubs.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Builder-style budget override.
    pub fn with_budget(mut self, bytes_per_cycle: u64) -> Self {
        self.bytes_per_cycle = bytes_per_cycle;
        self
    }
}

/// Snapshot of scrubbing activity and epoch health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Scrub cycles completed.
    pub cycles: u64,
    /// Epoch verifications performed (an epoch re-verified later counts
    /// again).
    pub epochs_verified: u64,
    /// Records whose CRCs matched.
    pub records_verified: u64,
    /// Uncompressed payload bytes verified.
    pub bytes_verified: u64,
    /// Epochs found damaged (before any repair attempt).
    pub corrupt_epochs: u64,
    /// Epochs brought back to a fully-verifying state by repair.
    pub epochs_repaired: u64,
    /// Individual pages rewritten from a surviving source.
    pub pages_repaired: u64,
    /// Repair attempts that failed or left the epoch still damaged.
    pub repair_failures: u64,
    /// Epochs currently quarantined (irreparable; restores refuse them).
    pub epochs_quarantined: u64,
}

#[derive(Debug, Default)]
struct ScrubState {
    /// Next epoch to scrub; the rotation wraps past the newest epoch.
    cursor: u64,
    /// Irreparable epochs. Restores must refuse these.
    quarantined: BTreeSet<u64>,
}

/// Incremental integrity scrubber with quarantine tracking.
///
/// One `Scrubber` instance guards one backend (it holds the cursor and
/// the quarantine set for that chain); the runtime owns it per
/// `PageManager` and shares the same instance with the service's
/// maintenance worker.
#[derive(Debug, Default)]
pub struct Scrubber {
    policy: ScrubPolicy,
    state: Mutex<ScrubState>,
    cycles: AtomicU64,
    epochs_verified: AtomicU64,
    records_verified: AtomicU64,
    bytes_verified: AtomicU64,
    corrupt_epochs: AtomicU64,
    epochs_repaired: AtomicU64,
    pages_repaired: AtomicU64,
    repair_failures: AtomicU64,
}

impl Scrubber {
    /// A scrubber with the given pacing policy.
    pub fn new(policy: ScrubPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The pacing policy this scrubber runs under.
    pub fn policy(&self) -> ScrubPolicy {
        self.policy
    }

    /// True when `epoch` has been quarantined as irreparable.
    pub fn is_quarantined(&self, epoch: u64) -> bool {
        self.state.lock().quarantined.contains(&epoch)
    }

    /// The quarantined epochs, ascending.
    pub fn quarantined(&self) -> Vec<u64> {
        self.state.lock().quarantined.iter().copied().collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IntegrityStats {
        IntegrityStats {
            cycles: self.cycles.load(Ordering::Relaxed),
            epochs_verified: self.epochs_verified.load(Ordering::Relaxed),
            records_verified: self.records_verified.load(Ordering::Relaxed),
            bytes_verified: self.bytes_verified.load(Ordering::Relaxed),
            corrupt_epochs: self.corrupt_epochs.load(Ordering::Relaxed),
            epochs_repaired: self.epochs_repaired.load(Ordering::Relaxed),
            pages_repaired: self.pages_repaired.load(Ordering::Relaxed),
            repair_failures: self.repair_failures.load(Ordering::Relaxed),
            epochs_quarantined: self.state.lock().quarantined.len() as u64,
        }
    }

    /// One paced scrub cycle with no cache to invalidate. Returns the
    /// number of epochs verified.
    pub fn cycle(&self, backend: &dyn StorageBackend) -> io::Result<u64> {
        self.cycle_with(backend, &mut |_, _| {})
    }

    /// One paced scrub cycle: verify epochs starting at the cursor until
    /// the byte budget is spent (at least one epoch per cycle), repairing
    /// and quarantining as needed. `invalidate(epoch, pages)` is called
    /// after a successful repair so the owner can evict stale
    /// [`PageCache`](crate::PageCache) entries — an empty `pages` slice
    /// means the whole epoch was rewritten and every cached page of it is
    /// stale.
    ///
    /// Transient/permanent read errors propagate (the maintenance worker
    /// applies its retry policy); the cursor still advances past the
    /// failing epoch so one bad epoch cannot wedge the rotation. Corrupt
    /// findings never propagate — they are handled (repaired or
    /// quarantined) right here.
    pub fn cycle_with(
        &self,
        backend: &dyn StorageBackend,
        invalidate: &mut dyn FnMut(u64, &[u64]),
    ) -> io::Result<u64> {
        if !self.policy.enabled {
            return Ok(0);
        }
        let epochs = backend.epochs()?;
        {
            // Retired epochs leave quarantine: there is nothing left to
            // serve, so nothing left to refuse.
            let mut st = self.state.lock();
            st.quarantined.retain(|e| epochs.binary_search(e).is_ok());
        }
        self.cycles.fetch_add(1, Ordering::Relaxed);
        if epochs.is_empty() {
            return Ok(0);
        }
        let start = self.state.lock().cursor;
        let split = epochs.partition_point(|&e| e < start);
        let rotation = epochs[split..].iter().chain(epochs[..split].iter());
        let budget = self.policy.bytes_per_cycle.max(1);
        let mut spent = 0u64;
        let mut scrubbed = 0u64;
        for &epoch in rotation {
            self.state.lock().cursor = epoch + 1;
            let bytes = self.scrub_epoch(backend, epoch, invalidate)?;
            scrubbed += 1;
            spent += bytes.max(1);
            if spent >= budget {
                break;
            }
        }
        Ok(scrubbed)
    }

    /// Scrub every epoch the backend lists right now, regardless of the
    /// byte budget (tests and explicit "verify everything" calls).
    pub fn full_pass_with(
        &self,
        backend: &dyn StorageBackend,
        invalidate: &mut dyn FnMut(u64, &[u64]),
    ) -> io::Result<u64> {
        if !self.policy.enabled {
            return Ok(0);
        }
        let epochs = backend.epochs()?;
        {
            let mut st = self.state.lock();
            st.quarantined.retain(|e| epochs.binary_search(e).is_ok());
        }
        self.cycles.fetch_add(1, Ordering::Relaxed);
        let mut scrubbed = 0u64;
        for &epoch in &epochs {
            self.state.lock().cursor = epoch + 1;
            self.scrub_epoch(backend, epoch, invalidate)?;
            scrubbed += 1;
        }
        Ok(scrubbed)
    }

    /// [`Scrubber::full_pass_with`] without cache invalidation.
    pub fn full_pass(&self, backend: &dyn StorageBackend) -> io::Result<u64> {
        self.full_pass_with(backend, &mut |_, _| {})
    }

    /// Verify one epoch, repairing or quarantining on damage. Returns the
    /// bytes verified (budget accounting).
    fn scrub_epoch(
        &self,
        backend: &dyn StorageBackend,
        epoch: u64,
        invalidate: &mut dyn FnMut(u64, &[u64]),
    ) -> io::Result<u64> {
        let report = match backend.verify_epoch(epoch) {
            Ok(r) => r,
            // Retired between the listing and the walk: nothing to scrub.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        self.epochs_verified.fetch_add(1, Ordering::Relaxed);
        self.records_verified
            .fetch_add(report.records, Ordering::Relaxed);
        self.bytes_verified
            .fetch_add(report.bytes, Ordering::Relaxed);
        if report.is_clean() {
            // Healthy (possibly healed by an external rewrite): lift any
            // stale quarantine.
            self.state.lock().quarantined.remove(&epoch);
            return Ok(report.bytes);
        }
        self.corrupt_epochs.fetch_add(1, Ordering::Relaxed);
        let healed = match backend.repair_epoch(epoch) {
            Ok(rep) => match backend.verify_epoch(epoch) {
                // Trust but verify: the repair only counts if the epoch
                // verifies clean afterwards.
                Ok(after) if after.is_clean() => Some(rep),
                _ => None,
            },
            Err(_) => None,
        };
        match healed {
            Some(rep) => {
                self.epochs_repaired.fetch_add(1, Ordering::Relaxed);
                self.pages_repaired
                    .fetch_add(rep.pages.len() as u64, Ordering::Relaxed);
                invalidate(epoch, &rep.pages);
                self.state.lock().quarantined.remove(&epoch);
            }
            None => {
                self.repair_failures.fetch_add(1, Ordering::Relaxed);
                self.state.lock().quarantined.insert(epoch);
            }
        }
        Ok(report.bytes)
    }
}

/// The error restores raise for a quarantined epoch. Centralised so every
/// restore path fails with the same loud, grep-able message.
pub fn quarantined_error(epoch: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("epoch {epoch} is quarantined: irreparable at-rest corruption"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::memory::MemoryBackend;

    #[test]
    fn clean_chain_scrubs_clean() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1; 64]), (1, vec![2; 64])]).unwrap();
        write_epoch(&b, 2, vec![(0, vec![3; 64])]).unwrap();
        let s = Scrubber::new(ScrubPolicy::default());
        assert_eq!(s.full_pass(&b).unwrap(), 2);
        let st = s.stats();
        assert_eq!(st.epochs_verified, 2);
        assert_eq!(st.records_verified, 3);
        assert_eq!(st.corrupt_epochs, 0);
        assert_eq!(st.epochs_quarantined, 0);
        assert!(st.bytes_verified >= 3 * 64);
    }

    #[test]
    fn budget_paces_the_rotation_but_always_progresses() {
        let b = MemoryBackend::new();
        for e in 1..=4 {
            write_epoch(&b, e, vec![(0, vec![e as u8; 128])]).unwrap();
        }
        // Budget smaller than one epoch: exactly one epoch per cycle, and
        // four cycles complete the rotation.
        let s = Scrubber::new(ScrubPolicy::default().with_budget(1));
        for _ in 0..4 {
            assert_eq!(s.cycle(&b).unwrap(), 1);
        }
        assert_eq!(s.stats().epochs_verified, 4, "cursor rotated the chain");
        // The fifth cycle wraps around to the oldest epoch again.
        assert_eq!(s.cycle(&b).unwrap(), 1);
        assert_eq!(s.stats().epochs_verified, 5);
    }

    #[test]
    fn irreparable_corruption_is_quarantined_and_lifted_on_retire() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![9; 64])]).unwrap();
        write_epoch(&b, 2, vec![(0, vec![8; 64])]).unwrap();
        b.corrupt_stored_page(1, 0, 3).unwrap();
        let s = Scrubber::new(ScrubPolicy::default());
        s.full_pass(&b).unwrap();
        assert!(s.is_quarantined(1), "no redundant source: quarantined");
        assert!(!s.is_quarantined(2));
        let st = s.stats();
        assert_eq!(st.corrupt_epochs, 1);
        assert_eq!(st.repair_failures, 1);
        assert_eq!(st.epochs_quarantined, 1);
        // Retiring the epoch clears the quarantine entry.
        b.remove_epochs(&[1]).unwrap();
        s.cycle(&b).unwrap();
        assert!(!s.is_quarantined(1));
        assert_eq!(s.stats().epochs_quarantined, 0);
    }

    #[test]
    fn repair_invalidates_stale_page_cache_entries() {
        use crate::cache::PageCache;
        use crate::replicate::ReplicatedBackend;
        use std::sync::Arc;

        let m0 = MemoryBackend::new();
        let m1 = MemoryBackend::new();
        let b = ReplicatedBackend::new(vec![Box::new(m0.clone()), Box::new(m1.clone())]);
        write_epoch(&b, 1, vec![(0, vec![7; 64]), (1, vec![8; 64])]).unwrap();
        write_epoch(&b, 2, vec![(0, vec![9; 64])]).unwrap();
        m0.corrupt_stored_page(1, 0, 5).unwrap();

        // A restore storm cached pages of both epochs before the rot was
        // found; the repair must evict exactly the repaired epoch's
        // entries (pages unknown ⇒ whole-namespace invalidation) so no
        // reader can keep serving bytes that disagree with disk.
        let cache = PageCache::new(1 << 20);
        cache.insert(1, 0, Arc::from(vec![7u8; 64].into_boxed_slice()));
        cache.insert(1, 1, Arc::from(vec![8u8; 64].into_boxed_slice()));
        cache.insert(2, 0, Arc::from(vec![9u8; 64].into_boxed_slice()));

        let s = Scrubber::new(ScrubPolicy::default());
        s.full_pass_with(&b, &mut |epoch, pages| {
            if pages.is_empty() {
                cache.remove_ns(epoch);
            } else {
                for &p in pages {
                    cache.remove(epoch, p);
                }
            }
        })
        .unwrap();

        assert_eq!(s.stats().epochs_repaired, 1);
        assert!(cache.get(1, 0).is_none(), "repaired page evicted");
        assert!(
            cache.get(2, 0).is_some(),
            "untouched epoch keeps its cache entries"
        );
    }

    #[test]
    fn disabled_scrubber_is_inert() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1; 16])]).unwrap();
        b.corrupt_stored_page(1, 0, 0).unwrap();
        let s = Scrubber::new(ScrubPolicy::disabled());
        assert_eq!(s.cycle(&b).unwrap(), 0);
        assert_eq!(s.full_pass(&b).unwrap(), 0);
        assert_eq!(s.stats(), IntegrityStats::default());
        assert!(!s.is_quarantined(1));
    }
}
