//! XOR-parity protection for checkpoint segments — a single-erasure code in
//! the spirit of the paper's pointer to its own prior work (§3.2, ref \[18\]:
//! "More cost-effective solutions based on erasure codes are also possible
//! in order to reduce both performance overhead and storage space
//! requirements").
//!
//! Pages are grouped in arrival order into groups of `k`; for each full
//! group (and the trailing partial group) one parity record is emitted whose
//! payload is the XOR of the members plus a header listing them. Storage
//! overhead is `1/k` instead of replication's `1×`, and any *single* lost or
//! corrupted page per group can be reconstructed with
//! [`ParityBackend::recover_page`].
//!
//! Parity records are stored through the same backend with the high bit of
//! the page id set; `read_epoch` filters them out so ordinary consumers (the
//! restore path) see only data pages.
//!
//! Under concurrent streams, group membership follows arrival order at the
//! session's accumulator (a mutex serialises the XOR state); which pages
//! share a group is then nondeterministic, but every data page still lands
//! in exactly one group, which is all the recovery invariant needs.
//!
//! Everything this wrapper does not change (the chain lifecycle, tier
//! draining, retirement, verification — a rotten parity record is reported
//! and repaired like any other page) reaches the wrapped backend through
//! [`StorageBackend::inner`]. The one twist is compaction: it merges *data*
//! records only and re-emits fresh parity groups over the folded full
//! segment, so [`ParityBackend::recover_page`] keeps working after the
//! deltas (and their now-stale parity records) are gone.

use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{as_batch, EpochWriter, StorageBackend};
use crate::scrub::RepairReport;

/// Page-id flag marking parity records inside the wrapped backend.
pub const PARITY_FLAG: u64 = 1 << 63;

/// Wraps a backend, adding one XOR parity record per `k` data pages.
pub struct ParityBackend<B> {
    inner: B,
    k: usize,
}

/// Accumulating parity group of one epoch session.
#[derive(Debug, Default)]
struct ParityState {
    /// Members of the currently accumulating group.
    group: Vec<u64>,
    /// Running XOR of the group members' payloads.
    xor: Vec<u8>,
    groups_emitted: u64,
}

impl ParityState {
    /// Fold one data page into the accumulating group.
    fn absorb(&mut self, page: u64, data: &[u8]) {
        if self.xor.len() < data.len() {
            self.xor.resize(data.len(), 0);
        }
        for (a, b) in self.xor.iter_mut().zip(data) {
            *a ^= b;
        }
        self.group.push(page);
    }

    /// Build the parity record payload for the current group, if any.
    fn take_parity_record(&mut self) -> Option<(u64, Vec<u8>)> {
        if self.group.is_empty() {
            return None;
        }
        // Payload: [k u32][member ids u64 * k][xor bytes]
        let mut payload = Vec::with_capacity(4 + self.group.len() * 8 + self.xor.len());
        payload.extend_from_slice(&(self.group.len() as u32).to_le_bytes());
        for &m in &self.group {
            payload.extend_from_slice(&m.to_le_bytes());
        }
        payload.extend_from_slice(&self.xor);
        let id = PARITY_FLAG | self.groups_emitted;
        self.groups_emitted += 1;
        self.group.clear();
        self.xor.clear();
        Some((id, payload))
    }
}

impl<B: StorageBackend> ParityBackend<B> {
    /// Group size `k` (storage overhead `1/k`). `k >= 2`.
    pub fn new(inner: B, k: usize) -> Self {
        assert!(k >= 2, "parity group needs at least 2 members");
        Self { inner, k }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Run `install` over `records` (a data-page image: compaction and
    /// repair paths never see parity records) followed by fresh parity
    /// groups covering them in order — one XOR record per `k` members plus
    /// the trailing partial group. Only the record *references* are
    /// re-collected; the image itself is never copied.
    fn install_with_parity(
        &self,
        records: &[(u64, &[u8])],
        install: impl FnOnce(&[(u64, &[u8])]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut parity = Vec::with_capacity(records.len() / self.k + 1);
        let mut state = ParityState::default();
        for &(page, data) in records {
            debug_assert_eq!(page & PARITY_FLAG, 0, "parity id in data image");
            state.absorb(page, data);
            if state.group.len() == self.k {
                parity.extend(state.take_parity_record());
            }
        }
        parity.extend(state.take_parity_record());
        let mut all = records.to_vec();
        all.extend(as_batch(&parity));
        install(&all)
    }

    /// Reconstruct a lost/corrupt page of a finished epoch from its parity
    /// group. Only works for a single loss per group (XOR code), and
    /// requires page ids to be unique within the epoch — which checkpoint
    /// epochs guarantee (the engine commits each page exactly once per
    /// checkpoint). Duplicate ids inside one group would XOR each other
    /// out.
    pub fn recover_page(&self, epoch: u64, lost: u64) -> io::Result<Vec<u8>> {
        // Random access only — never a full-epoch stream: the reason this
        // runs at all is usually that one record of the epoch is corrupt,
        // and `read_epoch` would fail at exactly that record. The page
        // listing (`epoch_page_ids`) touches no payload, and positioned
        // reads skip the bad record entirely.
        //
        // Pass 1: find the parity group containing `lost`.
        let parity_ids: Vec<u64> = self
            .inner
            .epoch_page_ids(epoch)?
            .into_iter()
            .filter(|id| id & PARITY_FLAG != 0)
            .collect();
        let mut group: Option<(Vec<u64>, Vec<u8>)> = None;
        for id in parity_ids {
            let Some(payload) = self.inner.read_page_at(epoch, id)? else {
                continue;
            };
            let k = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
            let mut members = Vec::with_capacity(k);
            for i in 0..k {
                let s = 4 + i * 8;
                members.push(u64::from_le_bytes(payload[s..s + 8].try_into().unwrap()));
            }
            if members.contains(&lost) {
                let xor = payload[4 + k * 8..].to_vec();
                group = Some((members, xor));
                break;
            }
        }
        let (members, mut acc) = group.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("page {lost} not covered by any parity group in epoch {epoch}"),
            )
        })?;
        // Pass 2: XOR the surviving members back out of the parity.
        for member in members {
            if member == lost {
                continue;
            }
            let payload = self.inner.read_page_at(epoch, member)?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("parity group member {member} missing from epoch {epoch}"),
                )
            })?;
            if acc.len() < payload.len() {
                acc.resize(payload.len(), 0);
            }
            for (a, b) in acc.iter_mut().zip(&payload) {
                *a ^= b;
            }
        }
        Ok(acc)
    }
}

/// Epoch session that interleaves parity records with the data stream.
struct ParityEpochWriter {
    inner: Box<dyn EpochWriter>,
    k: usize,
    state: Arc<Mutex<ParityState>>,
}

impl EpochWriter for ParityEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        for &(page, _) in batch {
            assert_eq!(page & PARITY_FLAG, 0, "page id collides with parity flag");
        }
        self.inner.write_pages(batch)?;
        // Fold the batch into the accumulating group under the state lock;
        // emit full groups' parity records through the inner session.
        let mut parity_records = Vec::new();
        {
            let mut st = self.state.lock();
            for &(page, data) in batch {
                st.absorb(page, data);
                if st.group.len() == self.k {
                    parity_records.extend(st.take_parity_record());
                }
            }
        }
        if !parity_records.is_empty() {
            let batch: Vec<(u64, &[u8])> = parity_records
                .iter()
                .map(|(id, payload)| (*id, payload.as_slice()))
                .collect();
            self.inner.write_pages(&batch)?;
        }
        Ok(())
    }

    fn finish(&self) -> io::Result<()> {
        // Trailing partial group.
        if let Some((id, payload)) = self.state.lock().take_parity_record() {
            self.inner.write_pages(&[(id, &payload)])?;
        }
        self.inner.finish()
    }

    fn abort(&self) -> io::Result<()> {
        let mut st = self.state.lock();
        st.group.clear();
        st.xor.clear();
        drop(st);
        self.inner.abort()
    }
}

impl<B: StorageBackend> StorageBackend for ParityBackend<B> {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.inner)
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        Ok(Box::new(ParityEpochWriter {
            inner: self.inner.begin_epoch(epoch)?,
            k: self.k,
            state: Arc::new(Mutex::new(ParityState::default())),
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.inner.epochs()
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.inner.read_epoch(epoch, &mut |id, data| {
            if id & PARITY_FLAG == 0 {
                visit(id, data);
            }
        })
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        // The inner backend's page listing, minus the parity ids.
        let mut ids = self.inner.epoch_page_ids(epoch)?;
        ids.retain(|id| id & PARITY_FLAG == 0);
        Ok(ids)
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        // Data ids are stored unflagged, so the inner seek finds them
        // directly. A payload the inner backend reports as corrupt
        // (`InvalidData`: CRC mismatch on a decoded record) is
        // reconstructed from its parity group — the single-page degraded
        // read this wrapper exists for.
        match self.inner.read_page_at(epoch, page) {
            Ok(hit) => Ok(hit),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let mut data = self.recover_page(epoch, page)?;
                // XOR reconstruction is zero-padded to the longest group
                // member; the stored frame still knows the page's exact
                // length, so the degraded read returns byte-identical data.
                if let Ok(Some(meta)) = self.inner.record_meta(epoch, page) {
                    if (meta.raw_len as usize) <= data.len() {
                        data.truncate(meta.raw_len as usize);
                    }
                }
                Ok(Some(data))
            }
            Err(e) => Err(e),
        }
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    // A fold (`compact`) never merges the inner backend's raw records:
    // parity ids collide across epochs (`PARITY_FLAG | group`), so old
    // groups would silently overwrite each other while covering superseded
    // page versions. The merge runs over *this* backend's parity-filtered
    // view (data records only) and commits here, where fresh groups are
    // re-emitted over the folded image.
    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        self.install_with_parity(records, |all| self.inner.install_compacted(from, into, all))
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        self.install_with_parity(records, |all| self.inner.rewrite_epoch(epoch, all))
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        let report = self.inner.verify_epoch(epoch)?;
        if report.is_clean() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("epoch {epoch} verifies clean; nothing to repair"),
            ));
        }
        if report.corrupt_pages.is_empty() {
            // Structural-only damage (e.g. a rotten manifest count) is the
            // inner backend's to heal — parity protects payloads.
            return self.inner.repair_epoch(epoch);
        }
        // Rebuild the data image via this wrapper's degraded reads (each
        // corrupt member reconstructs from its group — one loss per group),
        // then rewrite the segment with fresh parity over the healed data.
        // A second loss in any group fails the read and the error
        // propagates: the caller quarantines.
        let mut ids: Vec<u64> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for id in self.inner.epoch_page_ids(epoch)? {
            if id & PARITY_FLAG == 0 && seen.insert(id) {
                ids.push(id);
            }
        }
        let mut data = Vec::with_capacity(ids.len());
        for id in ids {
            let payload = self.read_page_at(epoch, id)?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("page {id} vanished from epoch {epoch} during repair"),
                )
            })?;
            data.push((id, payload));
        }
        self.rewrite_epoch(epoch, &as_batch(&data))?;
        Ok(RepairReport {
            epoch,
            pages: report.corrupt_pages,
            rewrote_segment: true,
            source: "parity".to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::memory::MemoryBackend;

    fn page(v: u8) -> Vec<u8> {
        vec![v; 32]
    }

    #[test]
    fn data_pages_visible_parity_hidden() {
        let b = ParityBackend::new(MemoryBackend::new(), 2);
        write_epoch(&b, 1, (0..5u64).map(|p| (p, page(p as u8)))).unwrap();
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, _| seen.push(p)).unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "parity records filtered");
        // Raw store holds 5 data + 3 parity (2+2+1 grouping).
        assert_eq!(b.inner().epoch_records(1).unwrap().len(), 8);
    }

    #[test]
    fn recovers_any_single_member() {
        let b = ParityBackend::new(MemoryBackend::new(), 3);
        write_epoch(&b, 1, (0..7u64).map(|p| (p, page(p as u8 + 10)))).unwrap();
        for lost in 0..7u64 {
            let recovered = b.recover_page(1, lost).unwrap();
            assert_eq!(
                &recovered[..32],
                &page(lost as u8 + 10)[..],
                "page {lost} reconstructed"
            );
        }
    }

    #[test]
    fn recovers_under_concurrent_streams() {
        let b = ParityBackend::new(MemoryBackend::new(), 3);
        let w: Arc<dyn EpochWriter> = Arc::from(b.begin_epoch(1).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..5u64 {
                        let p = t * 5 + i;
                        w.write_pages(&[(p, &page(p as u8))]).unwrap();
                    }
                });
            }
        });
        w.finish().unwrap();
        for lost in 0..20u64 {
            let recovered = b.recover_page(1, lost).unwrap();
            assert_eq!(&recovered[..32], &page(lost as u8)[..]);
        }
    }

    #[test]
    fn uncovered_page_is_an_error() {
        let b = ParityBackend::new(MemoryBackend::new(), 2);
        write_epoch(&b, 1, vec![(0, page(1))]).unwrap();
        assert!(b.recover_page(1, 99).is_err());
    }

    #[test]
    fn chain_api_forwards_to_inner() {
        let b = ParityBackend::new(MemoryBackend::new(), 2);
        assert!(b.supports_compaction(), "memory backend supports folds");
        write_epoch(&b, 1, vec![(0, page(1))]).unwrap();
        write_epoch(&b, 2, vec![(1, page(2))]).unwrap();
        assert_eq!(b.chain().unwrap().len(), 2);
        b.remove_epochs(&[1]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![2]);
        assert_eq!(b.drain_one().unwrap(), None, "single-tier: no backlog");
        assert_eq!(b.bytes_stored(), b.inner().bytes_stored());
    }

    #[test]
    fn compaction_reemits_parity_and_recovers() {
        use crate::backend::EpochKind;
        let b = ParityBackend::new(MemoryBackend::new(), 3);
        write_epoch(&b, 1, (0..7u64).map(|p| (p, page(p as u8)))).unwrap();
        write_epoch(&b, 2, (2..5u64).map(|p| (p, page(p as u8 + 100)))).unwrap();
        write_epoch(&b, 3, vec![(0, page(200))]).unwrap();
        let stats = b.compact(3).unwrap();
        assert_eq!((stats.from, stats.into), (1, 3));
        let chain = b.chain().unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].kind, EpochKind::Full);
        // Latest-wins image through the filtered view.
        let mut seen = Vec::new();
        b.read_epoch(3, &mut |p, d| seen.push((p, d[0]))).unwrap();
        assert_eq!(
            seen,
            vec![
                (0, 200),
                (1, 1),
                (2, 102),
                (3, 103),
                (4, 104),
                (5, 5),
                (6, 6)
            ]
        );
        // Every surviving page version is recoverable from the re-emitted
        // groups — the folded segment's parity covers the folded data, not
        // whatever grouping the superseded deltas had.
        let expect = [200u8, 1, 102, 103, 104, 5, 6];
        for (p, v) in expect.iter().enumerate() {
            let r = b.recover_page(3, p as u64).unwrap();
            assert_eq!(&r[..32], &page(*v)[..], "page {p} after compaction");
        }
        // 7 data pages in groups of 3 => 3 parity records in the raw store.
        assert_eq!(b.inner().epoch_records(3).unwrap().len(), 7 + 3);
    }

    #[test]
    fn parity_over_tiered_drains_and_compacts() {
        use crate::tiered::TieredBackend;
        let (fast, fast_view) = MemoryBackend::shared();
        let (slow, slow_view) = MemoryBackend::shared();
        let tiered = TieredBackend::new(Box::new(fast), Box::new(slow), 0).unwrap();
        let b = ParityBackend::new(tiered, 2);
        assert!(b.supports_compaction(), "forwarded through both wrappers");
        write_epoch(&b, 1, (0..5u64).map(|p| (p, page(p as u8)))).unwrap();
        write_epoch(&b, 2, vec![(1, page(91))]).unwrap();
        // Parity records ride the drain queue with their data.
        assert_eq!(b.drain_one().unwrap(), Some(1));
        assert!(!slow_view.epochs().unwrap().is_empty());
        // Compaction drains the rest and folds on the slow tier, with
        // parity re-emitted over the full image.
        b.compact(2).unwrap();
        assert!(fast_view.epochs().unwrap().is_empty(), "fast tier drained");
        assert_eq!(slow_view.epochs().unwrap(), vec![2], "folded on slow");
        for (p, v) in [(0u64, 0u8), (1, 91), (2, 2), (3, 3), (4, 4)] {
            assert_eq!(&b.recover_page(2, p).unwrap()[..32], &page(v)[..]);
        }
    }

    #[test]
    fn variable_sized_members_pad_with_zeros() {
        let b = ParityBackend::new(MemoryBackend::new(), 2);
        write_epoch(&b, 1, vec![(0, vec![0xAA; 8]), (1, vec![0x55; 16])]).unwrap();
        let r0 = b.recover_page(1, 0).unwrap();
        assert_eq!(&r0[..8], &[0xAA; 8]);
        let r1 = b.recover_page(1, 1).unwrap();
        assert_eq!(&r1[..16], &[0x55; 16]);
    }

    #[test]
    fn degraded_read_truncates_padded_reconstruction_to_exact_length() {
        // Page 0 is shorter than its group partner: the XOR image is padded
        // to 16 bytes, but the degraded read must return the original 8.
        let b = ParityBackend::new(MemoryBackend::new(), 2);
        write_epoch(&b, 1, vec![(0, vec![0xAA; 8]), (1, vec![0x55; 16])]).unwrap();
        b.inner().corrupt_stored_page(1, 0, 3).unwrap();
        let healed = b.read_page_at(1, 0).unwrap().unwrap();
        assert_eq!(healed, vec![0xAA; 8], "byte-identical, not padded");
    }

    #[test]
    fn repair_rebuilds_a_corrupt_member_and_reverifies_clean() {
        let b = ParityBackend::new(MemoryBackend::new(), 3);
        let pages: Vec<(u64, Vec<u8>)> = (0..7u64).map(|p| (p, page(p as u8 + 10))).collect();
        write_epoch(&b, 1, pages.clone()).unwrap();
        b.inner().corrupt_stored_page(1, 4, 0).unwrap();
        let report = b.verify_epoch(1).unwrap();
        assert_eq!(report.corrupt_pages, vec![4]);
        let repair = b.repair_epoch(1).unwrap();
        assert_eq!(repair.source, "parity");
        assert!(repair.rewrote_segment);
        assert!(b.verify_epoch(1).unwrap().is_clean());
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, pages, "healed epoch is byte-identical");
    }

    #[test]
    fn double_loss_in_one_group_is_irreparable() {
        let b = ParityBackend::new(MemoryBackend::new(), 2);
        // k=2: pages 0 and 1 share a group; corrupt both.
        write_epoch(&b, 1, vec![(0, page(1)), (1, page(2)), (2, page(3))]).unwrap();
        b.inner().corrupt_stored_page(1, 0, 0).unwrap();
        b.inner().corrupt_stored_page(1, 1, 0).unwrap();
        assert!(b.repair_epoch(1).is_err(), "XOR repairs one loss per group");
    }

    #[test]
    fn corrupt_parity_record_repairs_from_surviving_data() {
        let b = ParityBackend::new(MemoryBackend::new(), 2);
        let pages: Vec<(u64, Vec<u8>)> = vec![(0, page(7)), (1, page(8))];
        write_epoch(&b, 1, pages.clone()).unwrap();
        b.inner().corrupt_stored_page(1, PARITY_FLAG, 0).unwrap();
        assert!(!b.verify_epoch(1).unwrap().is_clean());
        b.repair_epoch(1).unwrap();
        assert!(b.verify_epoch(1).unwrap().is_clean());
        // The re-emitted parity actually protects the data again.
        b.inner().corrupt_stored_page(1, 0, 0).unwrap();
        assert_eq!(&b.read_page_at(1, 0).unwrap().unwrap()[..], &page(7)[..]);
    }
}
