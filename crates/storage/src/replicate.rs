//! Replication across multiple backends (§3.2: local storage "is prone to
//! failures and thus unreliable. However, there are several options to
//! overcome this issue, with data replication on different nodes being the
//! most straight-forward").
//!
//! Every write goes to all replicas; reads are served by the first replica
//! that can satisfy them, falling through on error — so a restore survives
//! the loss of any strict subset of replicas.

use std::io;

use crate::backend::{as_batch, EpochWriter, StorageBackend};
use crate::scrub::{RecordMeta, RepairReport, VerifyReport};

/// Mirrors every operation across `n` replicas.
pub struct ReplicatedBackend {
    replicas: Vec<Box<dyn StorageBackend>>,
}

impl ReplicatedBackend {
    /// Build from at least one replica.
    pub fn new(replicas: Vec<Box<dyn StorageBackend>>) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        Self { replicas }
    }

    /// Number of replicas.
    pub fn width(&self) -> usize {
        self.replicas.len()
    }

    /// Drop a replica (simulating the loss of a node). Panics if it is the
    /// last one.
    pub fn fail_replica(&mut self, idx: usize) {
        assert!(self.replicas.len() > 1, "cannot lose the last replica");
        self.replicas.remove(idx);
    }

    fn read_fallback<T>(
        &self,
        mut op: impl FnMut(&dyn StorageBackend) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut last_err = None;
        for r in &self.replicas {
            match op(r.as_ref()) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no replicas")))
    }
}

/// One epoch session fanned out over every replica's session.
struct ReplicatedEpochWriter {
    writers: Vec<Box<dyn EpochWriter>>,
}

impl EpochWriter for ReplicatedEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        for w in &self.writers {
            w.write_pages(batch)?;
        }
        Ok(())
    }

    fn finish(&self) -> io::Result<()> {
        for w in &self.writers {
            w.finish()?;
        }
        Ok(())
    }

    fn abort(&self) -> io::Result<()> {
        for w in &self.writers {
            w.abort()?;
        }
        Ok(())
    }
}

impl StorageBackend for ReplicatedBackend {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        let writers = self
            .replicas
            .iter()
            .map(|r| r.begin_epoch(epoch))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Box::new(ReplicatedEpochWriter { writers }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.read_fallback(|r| r.epochs())
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        // The max across replicas: a replica that got further before a
        // crash still burned its numbers everywhere numbering matters.
        let mut high = None;
        for r in &self.replicas {
            high = high.max(r.high_water()?);
        }
        Ok(high)
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        // Buffer from the first healthy replica, then deliver, so a replica
        // failing mid-stream cannot deliver half an epoch twice.
        let records = self.read_fallback(|r| {
            let mut buf: Vec<(u64, Vec<u8>)> = Vec::new();
            r.read_epoch(epoch, &mut |p, d| buf.push((p, d.to_vec())))?;
            Ok(buf)
        })?;
        for (p, d) in records {
            visit(p, &d);
        }
        Ok(())
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        self.read_fallback(|r| r.epoch_page_ids(epoch))
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        self.read_fallback(|r| r.read_page_at(epoch, page))
    }

    fn bytes_written(&self) -> u64 {
        // Logical payload bytes (not multiplied by replication factor).
        self.replicas.first().map_or(0, |r| r.bytes_written())
    }

    fn bytes_stored(&self) -> u64 {
        self.replicas.first().map_or(0, |r| r.bytes_stored())
    }

    fn chain(&self) -> io::Result<Vec<crate::backend::ChainEntry>> {
        self.read_fallback(|r| r.chain())
    }

    fn supports_compaction(&self) -> bool {
        self.replicas.iter().all(|r| r.supports_compaction())
    }

    fn compact(&self, up_to: u64) -> io::Result<crate::backend::CompactionStats> {
        // Every replica folds its own chain; the stats are logical (same on
        // each replica), so report the first's.
        let mut first = None;
        for r in &self.replicas {
            let stats = r.compact(up_to)?;
            first.get_or_insert(stats);
        }
        Ok(first.expect("at least one replica"))
    }

    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        for r in &self.replicas {
            r.install_compacted(from, into, records)?;
        }
        Ok(())
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        for r in &self.replicas {
            r.remove_epochs(epochs)?;
        }
        Ok(())
    }

    fn io_stats(&self) -> crate::io::IoStats {
        // Physical I/O is the sum across replicas: every copy pays its own
        // syscalls and fsyncs, unlike `bytes_written` which stays logical.
        let mut total = crate::io::IoStats::default();
        for r in &self.replicas {
            total = total.merged(r.io_stats());
        }
        total
    }

    fn drain_backlog(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.drain_backlog())
            .max()
            .unwrap_or(0)
    }

    fn drain_one(&self) -> io::Result<Option<u64>> {
        let mut drained = None;
        for r in &self.replicas {
            drained = drained.or(r.drain_one()?);
        }
        Ok(drained)
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        // Union of every replica's damage: a page rotten on one copy is
        // damage even while another copy still serves it — that surviving
        // copy is exactly what repair needs, so it must be found *before*
        // it rots too.
        let mut report = VerifyReport::new(epoch);
        for r in &self.replicas {
            report.merge(&r.verify_epoch(epoch)?);
        }
        Ok(report)
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        for r in &self.replicas {
            r.rewrite_epoch(epoch, records)?;
        }
        Ok(())
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        let reports = self
            .replicas
            .iter()
            .map(|r| r.verify_epoch(epoch))
            .collect::<io::Result<Vec<_>>>()?;
        if reports.iter().all(VerifyReport::is_clean) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("epoch {epoch} verifies clean; nothing to repair"),
            ));
        }
        // Assemble a healthy image page by page — each page from the first
        // replica that still reads it — so even damage scattered across
        // *different* replicas repairs, as long as every page survives
        // somewhere. Then rewrite only the damaged copies.
        let mut ids: Vec<u64> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for id in self.read_fallback(|r| r.epoch_page_ids(epoch))? {
            if seen.insert(id) {
                ids.push(id);
            }
        }
        let mut image = Vec::with_capacity(ids.len());
        for id in ids {
            let payload = self
                .read_fallback(|r| {
                    r.read_page_at(epoch, id)?.ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("page {id} missing from epoch {epoch}"),
                        )
                    })
                })
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::Unsupported,
                        format!("page {id} of epoch {epoch} survives on no replica: {e}"),
                    )
                })?;
            image.push((id, payload));
        }
        let mut pages = Vec::new();
        for (r, report) in self.replicas.iter().zip(&reports) {
            if report.is_clean() {
                continue;
            }
            r.rewrite_epoch(epoch, &as_batch(&image))?;
            for &p in &report.corrupt_pages {
                if !pages.contains(&p) {
                    pages.push(p);
                }
            }
        }
        Ok(RepairReport {
            epoch,
            pages,
            rewrote_segment: true,
            source: "replica".to_owned(),
        })
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        self.read_fallback(|r| r.record_meta(epoch, page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::memory::MemoryBackend;

    fn two_way() -> (ReplicatedBackend, MemoryBackend, MemoryBackend) {
        let (a, a_view) = MemoryBackend::shared();
        let (b, b_view) = MemoryBackend::shared();
        (
            ReplicatedBackend::new(vec![Box::new(a), Box::new(b)]),
            a_view,
            b_view,
        )
    }

    #[test]
    fn writes_reach_all_replicas() {
        let (r, a, b) = two_way();
        write_epoch(&r, 1, vec![(9, vec![5, 5])]).unwrap();
        assert_eq!(a.epoch_records(1).unwrap(), vec![(9, vec![5, 5])]);
        assert_eq!(b.epoch_records(1).unwrap(), vec![(9, vec![5, 5])]);
    }

    #[test]
    fn abort_propagates_to_all_replicas() {
        let (r, a, b) = two_way();
        let w = r.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[1])]).unwrap();
        w.abort().unwrap();
        assert!(a.epochs().unwrap().is_empty());
        assert!(b.epochs().unwrap().is_empty());
    }

    #[test]
    fn restore_survives_replica_loss() {
        let (mut r, _a, _b) = two_way();
        write_epoch(&r, 1, vec![(1, vec![1])]).unwrap();
        r.fail_replica(0);
        assert_eq!(r.width(), 1);
        let mut seen = Vec::new();
        r.read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(1, vec![1])]);
        assert_eq!(r.epochs().unwrap(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "cannot lose the last replica")]
    fn last_replica_cannot_fail() {
        let (mut r, _a, _b) = two_way();
        r.fail_replica(0);
        r.fail_replica(0);
    }

    #[test]
    fn repair_rewrites_only_the_damaged_copy() {
        let (r, a, b) = two_way();
        let pages: Vec<(u64, Vec<u8>)> = vec![(0, vec![1u8; 16]), (1, vec![2u8; 16])];
        write_epoch(&r, 1, pages.clone()).unwrap();
        a.corrupt_stored_page(1, 0, 5).unwrap();
        let report = r.verify_epoch(1).unwrap();
        assert_eq!(report.corrupt_pages, vec![0], "union sees replica 0's rot");
        let repair = r.repair_epoch(1).unwrap();
        assert_eq!(repair.source, "replica");
        assert_eq!(repair.pages, vec![0]);
        assert!(r.verify_epoch(1).unwrap().is_clean());
        assert_eq!(a.epoch_records(1).unwrap(), pages, "copy healed in place");
        assert_eq!(b.epoch_records(1).unwrap(), pages);
    }

    #[test]
    fn disjoint_damage_across_replicas_still_repairs() {
        let (r, a, b) = two_way();
        write_epoch(&r, 1, vec![(0, vec![1u8; 8]), (1, vec![2u8; 8])]).unwrap();
        a.corrupt_stored_page(1, 0, 0).unwrap();
        b.corrupt_stored_page(1, 1, 0).unwrap();
        r.repair_epoch(1).unwrap();
        assert!(r.verify_epoch(1).unwrap().is_clean());
        let mut seen = Vec::new();
        r.read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(0, vec![1u8; 8]), (1, vec![2u8; 8])]);
    }

    #[test]
    fn page_lost_on_every_replica_is_irreparable() {
        let (r, a, b) = two_way();
        write_epoch(&r, 1, vec![(0, vec![1u8; 8])]).unwrap();
        a.corrupt_stored_page(1, 0, 0).unwrap();
        b.corrupt_stored_page(1, 0, 0).unwrap();
        let err = r.repair_epoch(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("survives on no replica"));
    }
}
