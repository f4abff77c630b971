//! In-memory storage backend: the reference implementation of the backend
//! contract, used by unit/property tests and by experiments that only care
//! about checkpointing dynamics, not durability.
//!
//! [`MemoryBackend::shared`] returns a handle pair so a test can hand the
//! backend to the committer while keeping a window into what was persisted.
//!
//! A finished epoch keeps its records in arrival order (what `read_epoch`
//! replays) plus a latest-wins `page → position` index, built under the
//! store lock by the first `read_page_at`/`record_meta` of that epoch. The
//! index lives beside the records it points into, so whatever replaces or
//! removes them (`rewrite_epoch`, `install_compacted`, `remove_epochs`)
//! drops it too. A restore therefore costs one hash lookup per page, not a
//! scan of the page's epoch.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{ChainEntry, EpochKind, EpochWriter, StorageBackend};
use crate::codec::{self, Compression, Sealed};
use crate::locator::PageMap;
use crate::scrub::RecordMeta;

/// One stored page payload: kept in its encoded form and sealed exactly
/// like an `AICKSEG3` record ([`codec::seal`]), so it is decoded and
/// CRC-verified on read by the same [`Sealed::open`] a segment frame goes
/// through — simulated at-rest corruption (see
/// [`MemoryBackend::corrupt_stored_page`]) fails exactly like a damaged
/// segment record would.
#[derive(Debug, Clone)]
struct StoredPayload {
    sealed: Sealed,
    stored: Vec<u8>,
}

impl StoredPayload {
    fn seal(data: &[u8], compression: Compression) -> Self {
        let (sealed, encoded) = codec::seal(data, compression);
        Self {
            sealed,
            stored: encoded.unwrap_or_else(|| data.to_vec()),
        }
    }

    fn open(&self, epoch: u64, page: u64) -> io::Result<Vec<u8>> {
        let opened = self.sealed.open(&self.stored);
        let decoded = opened.map_err(codec::in_record(epoch, page))?;
        Ok(decoded.unwrap_or_else(|| self.stored.clone()))
    }
}

/// Page records of one epoch, in arrival order.
type Records = Vec<(u64, StoredPayload)>;

/// One finished epoch: its records, and the index of each page's latest
/// record, built by the first lookup.
#[derive(Debug)]
struct Epoch {
    records: Records,
    by_page: Option<PageMap<usize>>,
}

impl Epoch {
    fn new(records: Records) -> Self {
        Self {
            records,
            by_page: None,
        }
    }

    /// `page`'s latest record — the one `read_epoch` visits last — if the
    /// epoch holds one.
    fn latest(&mut self, page: u64) -> Option<&mut StoredPayload> {
        let records = &self.records;
        let by_page = self.by_page.get_or_insert_with(|| {
            let mut by_page = PageMap::with_capacity_and_hasher(records.len(), Default::default());
            for (at, (page, _)) in records.iter().enumerate() {
                by_page.insert(*page, at);
            }
            by_page
        });
        let at = *by_page.get(&page)?;
        Some(&mut self.records[at].1)
    }
}

#[derive(Debug, Default)]
struct Store {
    /// epoch -> its records in arrival order, and their page index.
    finished: BTreeMap<u64, Epoch>,
    /// Epochs holding a full (compacted) image instead of a delta.
    full: std::collections::BTreeSet<u64>,
    /// Highest epoch number ever committed or retired — retired numbers
    /// must not be reused (mirrors the file backend's manifest history).
    high_water: Option<u64>,
    open: Option<(u64, Records)>,
}

impl Store {
    /// The finished `epoch`, or `NotFound`.
    fn epoch(&mut self, epoch: u64) -> io::Result<&mut Epoch> {
        self.finished
            .get_mut(&epoch)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("epoch {epoch}")))
    }
}

#[derive(Debug)]
struct Shared {
    store: Mutex<Store>,
    bytes_written: AtomicU64,
    bytes_stored: AtomicU64,
    compression: Compression,
}

impl Default for Shared {
    fn default() -> Self {
        Self {
            store: Mutex::default(),
            bytes_written: AtomicU64::new(0),
            bytes_stored: AtomicU64::new(0),
            // Raw by default: the common role of an in-memory backend is
            // the latency-critical fast tier (or a test double), where
            // encode-at-commit + decode-at-drain would be pure overhead —
            // the durable tier re-encodes anyway. Opt in per instance via
            // `MemoryBackend::with_compression`.
            compression: Compression::None,
        }
    }
}

/// Backend keeping everything in RAM.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    shared: Arc<Shared>,
}

impl MemoryBackend {
    /// Fresh, empty backend (records stored raw; see
    /// [`MemoryBackend::with_compression`] to opt into the `AICKSEG3`
    /// codec).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh backend with an explicit payload-encoding policy.
    pub fn with_compression(compression: Compression) -> Self {
        Self {
            shared: Arc::new(Shared {
                compression,
                ..Shared::default()
            }),
        }
    }

    /// A backend plus a second handle observing the same store (both are
    /// the same `Arc` under the hood).
    pub fn shared() -> (Self, Self) {
        let b = Self::new();
        (b.clone(), b)
    }

    /// Snapshot of a finished epoch's records, decoded (test convenience;
    /// panics on a corrupted store — use
    /// [`StorageBackend::verify_epoch`] to *observe* corruption).
    pub fn epoch_records(&self, epoch: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        self.shared.store.lock().finished.get(&epoch).map(|e| {
            e.records
                .iter()
                .map(|(p, d)| (*p, d.open(epoch, *p).expect("record decodes")))
                .collect()
        })
    }

    /// Test hook: flip one byte of the *stored* (encoded) payload of the
    /// latest record for `page` in a finished epoch — simulated at-rest
    /// bitrot below the commit point. `byte` indexes the stored payload
    /// modulo its length. Reads of the page fail with `InvalidData` until
    /// the record is rewritten.
    pub fn corrupt_stored_page(&self, epoch: u64, page: u64, byte: usize) -> io::Result<()> {
        let mut s = self.shared.store.lock();
        let rec = s.epoch(epoch)?.latest(page).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no record for page {page} in epoch {epoch}"),
            )
        })?;
        if rec.stored.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot corrupt an empty payload",
            ));
        }
        let len = rec.stored.len();
        rec.stored[byte % len] ^= 0xFF;
        Ok(())
    }

    /// Page count across all finished epochs.
    pub fn total_pages(&self) -> usize {
        self.shared
            .store
            .lock()
            .finished
            .values()
            .map(|e| e.records.len())
            .sum()
    }
}

/// A named collection of [`MemoryBackend`] namespaces — the in-RAM analogue
/// of a [`FileBackend`](crate::FileBackend) root directory holding
/// `tenant_NNNN/` sub-roots. A tenant that detaches and later re-opens the
/// same name gets the *same* store back, so crash/restart tests can run
/// entirely in memory.
#[derive(Debug, Clone, Default)]
pub struct MemoryRoot {
    namespaces: Arc<Mutex<BTreeMap<String, MemoryBackend>>>,
}

impl MemoryRoot {
    /// Fresh, empty root.
    pub fn new() -> Self {
        Self::default()
    }

    /// The backend for `name`, creating an empty one on first use. All
    /// handles for one name share a store.
    pub fn open(&self, name: &str) -> MemoryBackend {
        self.namespaces
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Names with a backend, in lexicographic order.
    pub fn names(&self) -> Vec<String> {
        self.namespaces.lock().keys().cloned().collect()
    }
}

/// Open-epoch session on a [`MemoryBackend`].
#[derive(Debug)]
struct MemoryEpochWriter {
    shared: Arc<Shared>,
    epoch: u64,
    closed: AtomicBool,
}

impl MemoryEpochWriter {
    /// Close the session; `commit` decides finished vs. discarded.
    fn close(&self, commit: bool) -> io::Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Err(io::Error::other("epoch session already closed"));
        }
        let mut s = self.shared.store.lock();
        match s.open.take() {
            Some((epoch, records)) => {
                debug_assert_eq!(epoch, self.epoch);
                if commit {
                    s.finished.insert(epoch, Epoch::new(records));
                    s.high_water = Some(s.high_water.map_or(epoch, |h| h.max(epoch)));
                }
                Ok(())
            }
            None => Err(io::Error::other("no open epoch")),
        }
    }
}

impl EpochWriter for MemoryEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        let mut s = self.shared.store.lock();
        // Checked under the store lock (close() flips the flag before it
        // takes the lock, so this cannot race a concurrent abort): the
        // epoch-number match below is not enough on its own — an aborted
        // epoch's number may be reused by a *new* session, and this stale
        // writer must not inject records into it.
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::other("epoch session closed"));
        }
        let bytes: u64 = batch.iter().map(|(_, d)| d.len() as u64).sum();
        let compression = self.shared.compression;
        match &mut s.open {
            Some((epoch, records)) if *epoch == self.epoch => {
                let mut stored_bytes = 0u64;
                records.extend(batch.iter().map(|&(p, d)| {
                    let rec = StoredPayload::seal(d, compression);
                    stored_bytes += rec.stored.len() as u64;
                    (p, rec)
                }));
                self.shared
                    .bytes_written
                    .fetch_add(bytes, Ordering::Relaxed);
                self.shared
                    .bytes_stored
                    .fetch_add(stored_bytes, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(io::Error::other("no open epoch")),
        }
    }

    fn finish(&self) -> io::Result<()> {
        self.close(true)
    }

    fn abort(&self) -> io::Result<()> {
        self.close(false)
    }
}

impl Drop for MemoryEpochWriter {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::Acquire) {
            let _ = self.close(false);
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        let mut s = self.shared.store.lock();
        if s.open.is_some() {
            return Err(io::Error::other("previous epoch still open"));
        }
        if s.high_water.is_some_and(|h| epoch <= h) {
            return Err(io::Error::other(format!("epoch {epoch} not increasing")));
        }
        s.open = Some((epoch, Vec::new()));
        Ok(Box::new(MemoryEpochWriter {
            shared: Arc::clone(&self.shared),
            epoch,
            closed: AtomicBool::new(false),
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        Ok(self.shared.store.lock().finished.keys().copied().collect())
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        Ok(self.shared.store.lock().high_water)
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        // Visit under the store lock (records are decoded one at a time,
        // never snapshot wholesale): `visit` must not reenter this backend,
        // which no restore-path consumer does.
        let mut s = self.shared.store.lock();
        for (page, data) in &s.epoch(epoch)?.records {
            let decoded = data.open(epoch, *page)?;
            visit(*page, &decoded);
        }
        Ok(())
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        let mut s = self.shared.store.lock();
        Ok(s.epoch(epoch)?.records.iter().map(|(p, _)| *p).collect())
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        let mut s = self.shared.store.lock();
        // Latest record wins, matching `read_epoch` replay semantics.
        s.epoch(epoch)?
            .latest(page)
            .map(|d| d.open(epoch, page))
            .transpose()
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        let mut s = self.shared.store.lock();
        Ok(s.epoch(epoch)?.latest(page).map(|d| RecordMeta {
            raw_len: d.sealed.raw_len,
            crc: d.sealed.crc,
        }))
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let mut s = self.shared.store.lock();
        if !s.finished.contains_key(&epoch) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rewrite_epoch: epoch {epoch} is not live"),
            ));
        }
        // Fresh encode under the current policy; the chain kind (full vs
        // delta) is untouched — repair replaces bytes, not semantics.
        let compression = self.shared.compression;
        let encoded: Records = records
            .iter()
            .map(|(p, d)| (*p, StoredPayload::seal(d, compression)))
            .collect();
        s.finished.insert(epoch, Epoch::new(encoded));
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.shared.bytes_written.load(Ordering::Relaxed)
    }

    fn bytes_stored(&self) -> u64 {
        self.shared.bytes_stored.load(Ordering::Relaxed)
    }

    fn chain(&self) -> io::Result<Vec<ChainEntry>> {
        let s = self.shared.store.lock();
        Ok(s.finished
            .keys()
            .map(|&epoch| ChainEntry {
                epoch,
                kind: if s.full.contains(&epoch) {
                    EpochKind::Full
                } else {
                    EpochKind::Delta
                },
            })
            .collect())
    }

    fn supports_compaction(&self) -> bool {
        true
    }

    fn install_compacted(&self, _from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let mut s = self.shared.store.lock();
        if !s.finished.contains_key(&into) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("install_compacted: epoch {into} is not live"),
            ));
        }
        // Like the file backend's fold: surviving pages are re-encoded
        // under the current policy.
        let compression = self.shared.compression;
        let encoded: Records = records
            .iter()
            .map(|(p, d)| (*p, StoredPayload::seal(d, compression)))
            .collect();
        s.finished.retain(|&e, _| e > into);
        s.full.retain(|&e| e > into);
        s.finished.insert(into, Epoch::new(encoded));
        s.full.insert(into);
        Ok(())
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        let mut s = self.shared.store.lock();
        // Validate the whole batch first: naming a non-live epoch fails
        // before anything is lost, like the file backend's batch.
        if let Some(epoch) = epochs.iter().find(|e| !s.finished.contains_key(e)) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("epoch {epoch} not live"),
            ));
        }
        for epoch in epochs {
            s.finished.remove(epoch);
            s.full.remove(epoch);
        }
        // Retired numbers stay burned (high_water already covers them).
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;

    #[test]
    fn epochs_are_ordered_and_isolated() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(10, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(20, vec![2])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1, 2]);
        assert_eq!(b.epoch_records(1).unwrap(), vec![(10, vec![1])]);
        assert_eq!(b.epoch_records(2).unwrap(), vec![(20, vec![2])]);
        assert_eq!(b.bytes_written(), 2);
    }

    #[test]
    fn non_increasing_epoch_rejected() {
        let b = MemoryBackend::new();
        b.begin_epoch(5).unwrap().finish().unwrap();
        assert!(b.begin_epoch(5).is_err());
        assert!(b.begin_epoch(4).is_err());
        b.begin_epoch(6).unwrap().finish().unwrap();
    }

    #[test]
    fn write_after_close_fails() {
        let b = MemoryBackend::new();
        let w = b.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[0])]).unwrap();
        w.finish().unwrap();
        assert!(w.write_pages(&[(1, &[1])]).is_err());
        assert!(w.finish().is_err(), "finish is exactly-once");
    }

    #[test]
    fn double_begin_fails() {
        let b = MemoryBackend::new();
        let _w = b.begin_epoch(1).unwrap();
        assert!(b.begin_epoch(2).is_err());
    }

    #[test]
    fn unfinished_epoch_is_invisible() {
        let b = MemoryBackend::new();
        let w = b.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[9])]).unwrap();
        assert!(b.epochs().unwrap().is_empty(), "not finished yet");
        assert!(b.read_epoch(1, &mut |_, _| {}).is_err());
    }

    #[test]
    fn aborted_epoch_discarded_and_number_reusable() {
        let b = MemoryBackend::new();
        let w = b.begin_epoch(3).unwrap();
        w.write_pages(&[(1, &[1, 1])]).unwrap();
        w.abort().unwrap();
        assert!(b.epochs().unwrap().is_empty());
        // An aborted epoch number may be retried (it was never committed).
        write_epoch(&b, 3, vec![(2, vec![2])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![3]);
    }

    #[test]
    fn stale_writer_cannot_inject_into_reused_epoch_number() {
        let b = MemoryBackend::new();
        let w1 = b.begin_epoch(3).unwrap();
        w1.write_pages(&[(0, &[9])]).unwrap();
        w1.abort().unwrap();
        // Same epoch number, fresh session: the stale writer must bounce.
        let w2 = b.begin_epoch(3).unwrap();
        assert!(w1.write_pages(&[(1, &[8])]).is_err(), "stale writer");
        w2.write_pages(&[(2, &[7])]).unwrap();
        w2.finish().unwrap();
        assert_eq!(b.epoch_records(3).unwrap(), vec![(2, vec![7])]);
    }

    #[test]
    fn default_compact_is_latest_wins() {
        use crate::backend::{ChainEntry, EpochKind};
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1]), (1, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2]), (2, vec![2])]).unwrap();
        write_epoch(&b, 3, vec![(0, vec![3])]).unwrap();
        let stats = b.compact(2).unwrap();
        assert_eq!((stats.from, stats.into), (1, 2));
        assert_eq!(stats.segments_removed, 2);
        assert_eq!(b.epochs().unwrap(), vec![2, 3], "epoch 3 untouched");
        assert_eq!(
            b.chain().unwrap(),
            vec![
                ChainEntry {
                    epoch: 2,
                    kind: EpochKind::Full
                },
                ChainEntry {
                    epoch: 3,
                    kind: EpochKind::Delta
                }
            ]
        );
        let mut seen = Vec::new();
        b.read_epoch(2, &mut |p, d| seen.push((p, d[0]))).unwrap();
        assert_eq!(seen, vec![(0, 1), (1, 2), (2, 2)]);
        // Epoch numbers below the fold stay burned.
        assert!(b.begin_epoch(3).is_err());
        write_epoch(&b, 4, vec![(9, vec![4])]).unwrap();
    }

    #[test]
    fn remove_epoch_burns_the_number() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2])]).unwrap();
        b.remove_epochs(&[1]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![2]);
        assert!(b.remove_epochs(&[1]).is_err());
        assert!(b.begin_epoch(1).is_err(), "retired number not reusable");
    }

    #[test]
    fn shared_handles_observe_each_other() {
        let (writer, reader) = MemoryBackend::shared();
        write_epoch(&writer, 1, vec![(7, vec![7, 7])]).unwrap();
        assert_eq!(reader.epoch_records(1).unwrap(), vec![(7, vec![7, 7])]);
    }

    #[test]
    fn at_rest_corruption_is_detected_and_rewrite_heals() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![1; 32]), (1, vec![2; 32])]).unwrap();
        b.corrupt_stored_page(1, 1, 5).unwrap();
        // Streaming and random-access reads both refuse the rotten page...
        assert_eq!(
            b.read_epoch(1, &mut |_, _| {}).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            b.read_page_at(1, 1).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // ...while the healthy page still serves.
        assert_eq!(b.read_page_at(1, 0).unwrap().unwrap(), vec![1; 32]);
        // verify_epoch localises the damage instead of erroring.
        let report = b.verify_epoch(1).unwrap();
        assert_eq!(report.corrupt_pages, vec![1]);
        assert_eq!(report.records, 1, "only the clean record verified");
        // A rewrite with healed bytes restores full health in place.
        b.rewrite_epoch(1, &[(0, &[1; 32]), (1, &[2; 32])]).unwrap();
        assert!(b.verify_epoch(1).unwrap().is_clean());
        assert_eq!(b.read_page_at(1, 1).unwrap().unwrap(), vec![2; 32]);
        assert!(
            b.record_meta(1, 1).unwrap().is_some(),
            "meta tracks the rewritten record"
        );
    }

    #[test]
    fn read_page_at_returns_the_record_read_epoch_visits_last() {
        let b = MemoryBackend::new();
        write_epoch(
            &b,
            1,
            vec![(5, vec![1; 8]), (7, vec![2; 8]), (5, vec![3; 9])],
        )
        .unwrap();
        let mut last = BTreeMap::new();
        b.read_epoch(1, &mut |p, d| {
            last.insert(p, d.to_vec());
        })
        .unwrap();
        assert_eq!(last[&5], vec![3; 9]);
        for (page, data) in &last {
            assert_eq!(&b.read_page_at(1, *page).unwrap().unwrap(), data);
            assert_eq!(
                b.record_meta(1, *page).unwrap().unwrap().raw_len,
                data.len() as u32
            );
        }
        assert_eq!(b.read_page_at(1, 6).unwrap(), None);
    }

    #[test]
    fn lookups_never_serve_a_stale_position() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(0, vec![10]), (1, vec![11]), (2, vec![12])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![21]), (3, vec![23])]).unwrap();
        write_epoch(&b, 3, vec![(4, vec![34])]).unwrap();
        let read = |epoch, page| b.read_page_at(epoch, page);
        // Build both indexes: epoch 2 maps page 1 → 0 and page 3 → 1.
        assert_eq!(read(1, 2).unwrap(), Some(vec![12]));
        assert_eq!(read(2, 3).unwrap(), Some(vec![23]));
        // Rewritten in another order: the old positions would serve the
        // wrong record for page 3 and a record at all for page 1.
        b.rewrite_epoch(2, &[(3, &[33]), (9, &[39])]).unwrap();
        assert_eq!(read(2, 3).unwrap(), Some(vec![33]));
        assert_eq!(read(2, 9).unwrap(), Some(vec![39]));
        assert_eq!(read(2, 1).unwrap(), None);
        // Folded: epoch 1 is gone, epoch 2 is the whole image.
        b.compact(2).unwrap();
        assert_eq!(read(1, 2).unwrap_err().kind(), io::ErrorKind::NotFound);
        let image = [(0, 10), (1, 11), (2, 12), (3, 33), (9, 39)];
        for (page, byte) in image {
            assert_eq!(read(2, page).unwrap(), Some(vec![byte]), "page {page}");
        }
        assert_eq!(
            b.record_meta(2, 9).unwrap().unwrap().crc,
            crate::checksum::crc64(&[39])
        );
        b.remove_epochs(&[2]).unwrap();
        assert_eq!(read(2, 0).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(read(3, 4).unwrap(), Some(vec![34]));
    }

    #[test]
    fn corrupting_an_indexed_page_still_fails_its_read() {
        let b = MemoryBackend::new();
        write_epoch(
            &b,
            1,
            vec![(0, vec![1; 32]), (0, vec![2; 32]), (1, vec![3; 32])],
        )
        .unwrap();
        assert_eq!(b.read_page_at(1, 0).unwrap().unwrap(), vec![2; 32]);
        b.corrupt_stored_page(1, 0, 4).unwrap();
        assert_eq!(
            b.read_page_at(1, 0).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(b.read_page_at(1, 1).unwrap().unwrap(), vec![3; 32]);
    }
}
