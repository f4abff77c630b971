//! Page-to-epoch resolution for demand-paged restore.
//!
//! The reference replay materialises the whole chain into memory
//! ([`crate::image::CheckpointImage`]). The runtime's restores — eager and
//! lazy — instead build a [`PageLocator`]: a map from page id to the
//! *newest* chain epoch holding that page, computed from per-epoch page-id
//! listings ([`crate::StorageBackend::epoch_page_ids`]) without touching a
//! single payload byte. Page contents are then fetched in runs with
//! [`crate::StorageBackend::read_pages_at`]: ahead of demand by the
//! prefetcher, whose order ([`PageLocator::pages_newest_first`]) is record
//! order within an epoch, so a run is mostly records stored back to back
//! and the file backend reads it with one `pread`; on demand as a run of
//! one.
//!
//! Both walk the same [`replay_window`] — same full-segment cut-off, same
//! latest-wins resolution — so a restore that fills every page is
//! byte-identical to the reference image.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;

use crate::backend::{is_page, replay_window, StorageBackend};

/// A map keyed by page id (or epoch number) under [`PageIdHasher`].
pub(crate) type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageIdHasher>>;

/// The hasher of the read path's id-keyed maps: one folded 64×64→128-bit
/// multiply (high half XOR low half). SipHash costs ≈ 48 ns an insert, and
/// a restore inserts one entry per page it resolves. A plain
/// multiply would be cheaper still but leaves the low bits — the bucket
/// index — zero for ids that differ only in high bits, such as
/// `META_RECORD = 1 << 62`; the fold carries the high bits down. The keys
/// are ids this program assigned (allocation-order page ids, epoch
/// numbers), never input crafted to collide, so no keyed hash is needed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PageIdHasher(u64);

/// Odd multiplier ⌊2^52 / golden ratio⌋. Below 2^52 on purpose: an id
/// under 2^12 multiplies without reaching the high half, so dense ids —
/// the common case — land on distinct low bits (an odd multiply is a
/// bijection modulo any power of two), where a full-width multiplier would
/// XOR a varying high half over them and bunch them up like a random hash.
const FOLD_K: u64 = 0x0009_E377_9B97_F4A7;

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * u128::from(FOLD_K);
        (wide >> 64) as u64 ^ wide as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys use this hasher; any other key folds in bytewise.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }
}

/// Index resolving `page id → newest epoch holding it` for one checkpoint
/// of a backend's chain, built without materialising any payload.
#[derive(Debug)]
pub struct PageLocator {
    /// The checkpoint this locator resolves.
    checkpoint: u64,
    /// Latest-wins resolution: the newest chain epoch recording each page.
    map: PageMap<u64>,
    /// Pages in discovery order: newest epoch first, record (arrival) order
    /// within an epoch. This doubles as the prefetch order — recent epochs
    /// hold the hottest pages, and within an epoch the record order is the
    /// first-write order the scheduler already optimised.
    order: Vec<u64>,
}

impl PageLocator {
    /// Build the locator for checkpoint `up_to`. Fails with `NotFound` when
    /// `up_to` is not a live chain epoch (same contract as
    /// `CheckpointImage::load`).
    pub fn build(backend: &dyn StorageBackend, up_to: u64) -> io::Result<Self> {
        let chain = backend.chain()?;
        let window = replay_window(&chain, up_to)?;
        let mut map = PageMap::default();
        let mut order = Vec::new();
        // Walk newest-first: the first sighting of a page is its newest
        // version, so one pass resolves latest-wins without any payload I/O.
        for entry in window.iter().rev() {
            for page in backend.epoch_page_ids(entry.epoch)? {
                if !is_page(page) {
                    continue; // the epoch's metadata record, not a page
                }
                if let std::collections::hash_map::Entry::Vacant(e) = map.entry(page) {
                    e.insert(entry.epoch);
                    order.push(page);
                }
            }
        }
        Ok(Self {
            checkpoint: up_to,
            map,
            order,
        })
    }

    /// The checkpoint this locator resolves.
    pub fn checkpoint(&self) -> u64 {
        self.checkpoint
    }

    /// The newest chain epoch holding `page`, or `None` when the checkpoint
    /// recorded no version of it (restore fills such pages with zeros).
    pub fn epoch_of(&self, page: u64) -> Option<u64> {
        self.map.get(&page).copied()
    }

    /// Every resolved page, in discovery order (newest epoch first, record
    /// order within an epoch) — the prefetcher's fill order.
    pub fn pages_newest_first(&self) -> &[u64] {
        &self.order
    }

    /// Number of distinct pages the checkpoint holds.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the checkpoint holds no pages at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::image::CheckpointImage;
    use crate::memory::MemoryBackend;

    #[test]
    fn resolves_latest_wins_across_deltas() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1]), (1, vec![1]), (2, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2])]).unwrap();
        write_epoch(&b, 3, vec![(2, vec![3]), (4, vec![3])]).unwrap();
        let loc = PageLocator::build(&b, 3).unwrap();
        assert_eq!(loc.checkpoint(), 3);
        assert_eq!(loc.epoch_of(0), Some(1));
        assert_eq!(loc.epoch_of(1), Some(2));
        assert_eq!(loc.epoch_of(2), Some(3));
        assert_eq!(loc.epoch_of(4), Some(3));
        assert_eq!(loc.epoch_of(9), None);
        assert_eq!(loc.len(), 4);
        // Newest epoch's pages lead the prefetch order.
        assert_eq!(loc.pages_newest_first(), &[2, 4, 1, 0]);
    }

    #[test]
    fn respects_target_epoch_cutoff() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(0, vec![2])]).unwrap();
        let loc = PageLocator::build(&b, 1).unwrap();
        assert_eq!(loc.epoch_of(0), Some(1), "newer epochs are ignored");
        assert!(PageLocator::build(&b, 7).is_err(), "not a live epoch");
    }

    #[test]
    fn agrees_with_eager_image_under_compaction() {
        // Dense low ids, and sparse ids that differ only in high bits (the
        // shape that defeats a plain multiplicative hash).
        let sparse = |e: u64| (e % 4 + 1) << 40 | (e % 2) << 52;
        let b = MemoryBackend::new();
        for e in 1..=6u64 {
            let pages = vec![
                (e % 3, vec![e as u8]),
                (10 + e, vec![e as u8]),
                (sparse(e), vec![e as u8]),
                ((e % 3) << 32, vec![e as u8]),
            ];
            write_epoch(&b, e, pages).unwrap();
        }
        b.compact(4).unwrap();
        let image = CheckpointImage::load(&b, 6).unwrap();
        let loc = PageLocator::build(&b, 6).unwrap();
        assert_eq!(loc.len(), image.len());
        for (page, data) in image.iter() {
            let epoch = loc.epoch_of(page).expect("locator resolves every page");
            let via_locator = b.read_page_at(epoch, page).unwrap().unwrap();
            assert_eq!(via_locator, data, "page {page} differs");
        }
        assert_eq!(loc.epoch_of(sparse(6)), Some(6));
        assert_eq!(loc.epoch_of(sparse(5)), Some(5));
        assert_eq!(loc.epoch_of(1 << 32), Some(4), "folded into the full image");
    }

    #[test]
    fn page_id_hasher_spreads_ids_that_differ_in_high_bits() {
        // 4 096 ids over the low 12 bits (a 4 096-bucket table's index):
        // dense, page-aligned, and ids living above bit 32 or bit 48.
        const IDS: u64 = 4096;
        for shift in [0, 12, 32, 48] {
            let mut buckets = vec![0u32; IDS as usize];
            for k in 0..IDS {
                let mut h = PageIdHasher::default();
                h.write_u64(k << shift);
                buckets[(h.finish() & (IDS - 1)) as usize] += 1;
            }
            let worst = *buckets.iter().max().unwrap();
            assert!(
                worst <= 4,
                "shift {shift}: a bucket holds {worst}× the mean"
            );
        }
    }
}
