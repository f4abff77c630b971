//! Replication across multiple backends (§3.2: local storage "is prone to
//! failures and thus unreliable. However, there are several options to
//! overcome this issue, with data replication on different nodes being the
//! most straight-forward").
//!
//! Every write goes to all replicas. Everything else is the routing rule
//! of the `route` module over the replicas as [`StorageBackend::children`]:
//! reads are served by the first replica that can satisfy them (a rotted
//! copy is healed from its peers before it is stepped over), so a restore
//! survives the loss of any strict subset of replicas; a fold or a
//! retirement is refused while any replica cannot be asked, so none comes
//! back holding what its peers folded away or retired.

use std::io;

use crate::backend::{EpochWriter, StorageBackend};
use crate::route;

/// Mirrors every operation across `n` replicas.
pub struct ReplicatedBackend {
    /// Each replica under the name reports use for it (`"replica 0"`, …).
    replicas: Vec<(String, Box<dyn StorageBackend>)>,
}

impl ReplicatedBackend {
    /// Build from at least one replica.
    pub fn new(replicas: Vec<Box<dyn StorageBackend>>) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let named = replicas.into_iter().enumerate();
        Self {
            replicas: named.map(|(i, r)| (format!("replica {i}"), r)).collect(),
        }
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
    fn children(&self) -> Vec<(&str, &dyn StorageBackend)> {
        let named = self.replicas.iter();
        named.map(|(name, r)| (name.as_str(), &**r)).collect()
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        let writers = self
            .replicas
            .iter()
            .map(|(_, r)| r.begin_epoch(epoch))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Box::new(ReplicatedEpochWriter { writers }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        route::epochs(&self.children())
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        route::read_epoch(self, epoch, visit)
    }

    fn bytes_written(&self) -> u64 {
        // Logical payload bytes (not multiplied by replication factor).
        self.replicas[0].1.bytes_written()
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
        assert_eq!(repair.source, "replica 1", "the clean copy is the source");
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
        assert!(err.to_string().contains("no surviving source"));
    }
}
