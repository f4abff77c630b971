//! Per-epoch access-pattern bookkeeping: the current epoch's `Dirty`, `AT`
//! and `Index` tables and the previous epoch's `LastDirty`, `LastAT`,
//! `LastIndex` (Algorithm 1 of the paper).
//!
//! An *epoch* is the interval between two consecutive checkpoint requests
//! (§3.1). At each request, the just-finished epoch's records become the
//! history consulted by the scheduler (Algorithm 4), and fresh tables start
//! accumulating. Swapping the two table sets and clearing only the entries
//! that were actually dirty keeps the request O(|Dirty|) with zero
//! steady-state allocation.

use crate::page::{AccessType, PageId};

/// One epoch's worth of access records over a fixed page set.
#[derive(Debug)]
pub struct EpochRecord {
    /// `AT[p]`: access type triggered by page `p` this epoch.
    at: Box<[u8]>,
    /// `Index[p]`: 1-based position of `p`'s first write in the epoch's
    /// access order (0 = not written).
    index: Box<[u64]>,
    /// `Dirty`: pages first-written this epoch, in access order.
    dirty: Vec<PageId>,
    /// Running `AccessOrder` counter.
    counter: u64,
}

impl EpochRecord {
    /// Fresh record for `pages` pages, all `UNTOUCHED`.
    pub fn new(pages: usize) -> Self {
        Self {
            at: vec![AccessType::Untouched as u8; pages].into_boxed_slice(),
            index: vec![0u64; pages].into_boxed_slice(),
            dirty: Vec::with_capacity(pages),
            counter: 0,
        }
    }

    /// Access type recorded for `p` this epoch.
    #[inline]
    pub fn access_type(&self, p: PageId) -> AccessType {
        AccessType::from_u8(self.at[p as usize])
    }

    /// First-write order of `p` (0 if untouched).
    #[inline]
    pub fn index(&self, p: PageId) -> u64 {
        self.index[p as usize]
    }

    /// Pages dirtied so far, in first-write order.
    #[inline]
    pub fn dirty(&self) -> &[PageId] {
        &self.dirty
    }

    /// Number of pages dirtied so far.
    #[inline]
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Record the first write to `p` with the given access type
    /// (Algorithm 2, lines 19–21). First classification wins: a racing
    /// duplicate record for the same page is ignored, matching the paper's
    /// single-writer-per-rank model while staying safe under the engine lock
    /// with multithreaded applications.
    ///
    /// Returns `true` if this was indeed the first record for `p`.
    #[inline]
    pub fn record(&mut self, p: PageId, ty: AccessType) -> bool {
        debug_assert_ne!(ty, AccessType::Untouched, "cannot record UNTOUCHED");
        if self.at[p as usize] != AccessType::Untouched as u8 {
            return false;
        }
        self.at[p as usize] = ty as u8;
        self.counter += 1;
        self.index[p as usize] = self.counter;
        self.dirty.push(p);
        true
    }

    /// Remove a page's record (page freed mid-epoch). Leaves a tombstone in
    /// the dirty list — `at` reverts to `UNTOUCHED` while the list entry
    /// stays — so consumers must skip entries whose access type is
    /// `UNTOUCHED`. O(1), allocation-free (callable under the engine lock).
    #[inline]
    pub fn unrecord(&mut self, p: PageId) {
        self.at[p as usize] = AccessType::Untouched as u8;
        self.index[p as usize] = 0;
    }

    /// Clear only the entries touched this epoch (O(|Dirty|), no allocation).
    fn reset(&mut self) {
        for &p in &self.dirty {
            self.at[p as usize] = AccessType::Untouched as u8;
            self.index[p as usize] = 0;
        }
        self.dirty.clear();
        self.counter = 0;
    }
}

/// The current epoch's record plus the previous epoch's (`Last*`) record.
#[derive(Debug)]
pub struct EpochHistory {
    current: EpochRecord,
    last: EpochRecord,
    /// Number of completed epoch rollovers (== checkpoint requests served).
    epochs: u64,
}

impl EpochHistory {
    /// History over a fixed set of `pages` pages.
    pub fn new(pages: usize) -> Self {
        Self {
            current: EpochRecord::new(pages),
            last: EpochRecord::new(pages),
            epochs: 0,
        }
    }

    /// The in-flight epoch's record.
    #[inline]
    pub fn current(&self) -> &EpochRecord {
        &self.current
    }

    /// Mutable access for recording writes.
    #[inline]
    pub fn current_mut(&mut self) -> &mut EpochRecord {
        &mut self.current
    }

    /// The previous epoch's record (`LastDirty` / `LastAT` / `LastIndex`).
    #[inline]
    pub fn last(&self) -> &EpochRecord {
        &self.last
    }

    /// Mutable access for tombstoning a freed page.
    #[inline]
    pub(crate) fn last_mut(&mut self) -> &mut EpochRecord {
        &mut self.last
    }

    /// Number of rollovers performed so far.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Close the current epoch (checkpoint request): current becomes `Last*`,
    /// and a clean current record starts. O(|previous dirty|), allocation
    /// free after construction.
    pub fn roll(&mut self) {
        std::mem::swap(&mut self.current, &mut self.last);
        self.current.reset();
        self.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_assigns_monotonic_indices_in_access_order() {
        let mut r = EpochRecord::new(10);
        assert!(r.record(7, AccessType::After));
        assert!(r.record(2, AccessType::Cow));
        assert!(r.record(9, AccessType::Wait));
        assert_eq!(r.dirty(), &[7, 2, 9]);
        assert_eq!(r.index(7), 1);
        assert_eq!(r.index(2), 2);
        assert_eq!(r.index(9), 3);
        assert_eq!(r.access_type(2), AccessType::Cow);
        assert_eq!(r.access_type(0), AccessType::Untouched);
    }

    #[test]
    fn duplicate_record_is_ignored_first_wins() {
        let mut r = EpochRecord::new(4);
        assert!(r.record(1, AccessType::Wait));
        assert!(!r.record(1, AccessType::After), "second record ignored");
        assert_eq!(r.access_type(1), AccessType::Wait);
        assert_eq!(r.dirty_len(), 1);
        assert_eq!(r.index(1), 1);
    }

    #[test]
    fn roll_moves_current_into_last_and_cleans_current() {
        let mut h = EpochHistory::new(6);
        h.current_mut().record(3, AccessType::After);
        h.current_mut().record(5, AccessType::After);
        h.roll();
        assert_eq!(h.epochs(), 1);
        assert_eq!(h.last().dirty(), &[3, 5]);
        assert_eq!(h.last().access_type(3), AccessType::After);
        assert_eq!(h.current().dirty_len(), 0);
        assert_eq!(h.current().access_type(3), AccessType::Untouched);
        assert_eq!(h.current().index(3), 0);

        // Second epoch with different pages; last reflects it after roll.
        h.current_mut().record(0, AccessType::Cow);
        h.roll();
        assert_eq!(h.epochs(), 2);
        assert_eq!(h.last().dirty(), &[0]);
        assert_eq!(
            h.last().access_type(3),
            AccessType::Untouched,
            "page 3 was not dirty in epoch 2"
        );
    }

    #[test]
    fn roll_twice_recycles_buffers_without_stale_state() {
        let mut h = EpochHistory::new(4);
        for epoch in 0..5u64 {
            let p = (epoch % 4) as PageId;
            h.current_mut().record(p, AccessType::After);
            h.roll();
            assert_eq!(h.last().dirty(), &[p]);
            assert_eq!(h.last().index(p), 1);
        }
    }
}
