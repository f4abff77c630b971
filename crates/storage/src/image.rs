//! Incremental restore: materialise the memory image of a checkpoint from a
//! chain of incremental epochs.
//!
//! This is the *reference replay* used by tests and offline tooling: it
//! reads whole segments in chain order and lets later epochs overwrite
//! earlier ones. The runtime restores through [`crate::PageLocator`] +
//! `read_page_at` instead (one page-resolution path for eager and lazy
//! restore alike), and its tests compare every restore against this
//! independent implementation.
//!
//! Incremental checkpointing (§2) stores only the pages that changed since
//! the previous checkpoint, so the state at checkpoint `n` is the
//! *latest-wins* union of epochs `1..=n`. [`CheckpointImage::load`] performs
//! that reconstruction; pages never written by the application are absent
//! and implicitly zero (protected regions are zero-filled at allocation).
//!
//! When the chain has been compacted, the replay starts at the newest
//! **full** segment at or below the target instead of epoch 0 — restore
//! cost is then bounded by the compaction policy, not by the age of the
//! job. Epochs below the compaction horizon are gone; asking for them
//! fails cleanly rather than returning a partial image.

use std::collections::BTreeMap;
use std::io;

use crate::backend::{is_page, replay_window, StorageBackend};

/// A reconstructed page image at some checkpoint.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CheckpointImage {
    pages: BTreeMap<u64, Vec<u8>>,
    checkpoint: u64,
}

impl CheckpointImage {
    /// Reconstruct the image as of checkpoint `up_to` (inclusive). Fails if
    /// `up_to` was never committed (or was compacted away).
    pub fn load<B: StorageBackend + ?Sized>(backend: &B, up_to: u64) -> io::Result<Self> {
        let chain = backend.chain()?;
        let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for c in replay_window(&chain, up_to)? {
            backend.read_epoch(c.epoch, &mut |p, d| {
                // Later epochs overwrite earlier versions (epochs ascend).
                // Reserved records (the epoch's metadata) are not pages.
                if is_page(p) {
                    pages.insert(p, d.to_vec());
                }
            })?;
        }
        Ok(Self {
            pages,
            checkpoint: up_to,
        })
    }

    /// Reconstruct the image at the most recent committed checkpoint, or
    /// `None` if no checkpoint exists.
    pub fn load_latest<B: StorageBackend + ?Sized>(backend: &B) -> io::Result<Option<Self>> {
        match backend.epochs()?.last() {
            Some(&last) => Ok(Some(Self::load(backend, last)?)),
            None => Ok(None),
        }
    }

    /// The checkpoint this image corresponds to.
    pub fn checkpoint(&self) -> u64 {
        self.checkpoint
    }

    /// Bytes of a page, if it was ever checkpointed.
    pub fn page(&self, id: u64) -> Option<&[u8]> {
        self.pages.get(&id).map(|d| &d[..])
    }

    /// Number of distinct pages in the image.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no page was ever checkpointed.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterate `(page id, bytes)` in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.iter().map(|(&p, d)| (p, &d[..]))
    }

    /// Apply every page into a caller-provided sink (e.g. copy back into
    /// re-allocated protected regions).
    pub fn apply(&self, mut sink: impl FnMut(u64, &[u8])) {
        for (&p, d) in &self.pages {
            sink(p, &d[..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::memory::MemoryBackend;

    #[test]
    fn latest_wins_across_epochs() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1]), (1, vec![1]), (2, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2])]).unwrap();
        write_epoch(&b, 3, vec![(2, vec![3]), (3, vec![3])]).unwrap();

        let at2 = CheckpointImage::load(&b, 2).unwrap();
        assert_eq!(at2.page(0), Some(&[1u8][..]));
        assert_eq!(at2.page(1), Some(&[2u8][..]), "epoch 2 wins");
        assert_eq!(at2.page(2), Some(&[1u8][..]), "epoch 3 not included");
        assert_eq!(at2.page(3), None);

        let at3 = CheckpointImage::load(&b, 3).unwrap();
        assert_eq!(at3.page(2), Some(&[3u8][..]));
        assert_eq!(at3.page(3), Some(&[3u8][..]));
        assert_eq!(at3.len(), 4);
    }

    #[test]
    fn load_latest_and_missing() {
        let b = MemoryBackend::new();
        assert!(CheckpointImage::load_latest(&b).unwrap().is_none());
        assert!(CheckpointImage::load(&b, 1).is_err());
        write_epoch(&b, 1, vec![(5, vec![9])]).unwrap();
        let img = CheckpointImage::load_latest(&b).unwrap().unwrap();
        assert_eq!(img.checkpoint(), 1);
        assert_eq!(img.page(5), Some(&[9u8][..]));
        assert!(!img.is_empty());
    }

    #[test]
    fn load_replays_only_from_the_newest_full_segment() {
        // A backend whose read_epoch panics for epochs below the fold: the
        // compacted prefix must never be touched by restore.
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1]), (1, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2])]).unwrap();
        write_epoch(&b, 3, vec![(2, vec![3])]).unwrap();
        b.compact(2).unwrap();
        let img = CheckpointImage::load(&b, 3).unwrap();
        assert_eq!(img.page(0), Some(&[1u8][..]));
        assert_eq!(img.page(1), Some(&[2u8][..]));
        assert_eq!(img.page(2), Some(&[3u8][..]));
        // Below the compaction horizon: clean failure, not silent garbage.
        let err = CheckpointImage::load(&b, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn apply_visits_in_page_order() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(9, vec![9]), (1, vec![1]), (5, vec![5])]).unwrap();
        let img = CheckpointImage::load(&b, 1).unwrap();
        let mut order = Vec::new();
        img.apply(|p, _| order.push(p));
        assert_eq!(order, vec![1, 5, 9]);
        assert_eq!(img.iter().count(), 3);
    }
}
