//! Replication across multiple backends (§3.2: local storage "is prone to
//! failures and thus unreliable. However, there are several options to
//! overcome this issue, with data replication on different nodes being the
//! most straight-forward").
//!
//! Every write goes to all replicas, and a failed `finish` retires the
//! epoch again from the replicas that had already finished it, so the
//! handle never counts a commit that failed. When even that retirement
//! fails the backend refuses new epochs until it is reopened; the reopen
//! lists the epoch again, served whole by the replicas that kept it, and
//! the replicas' chains differ until it is retired. Everything else is the
//! routing rule of the `route` module over the replicas as
//! [`StorageBackend::children`]:
//! reads are served by the first replica that can satisfy them (a rotted
//! copy is healed from its peers before it is stepped over), so a restore
//! survives the loss of any strict subset of replicas; a fold or a
//! retirement is refused while any replica cannot be asked, so none comes
//! back holding what its peers folded away or retired.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::backend::{EpochWriter, StorageBackend};
use crate::route;

/// Mirrors every operation across `n` replicas.
pub struct ReplicatedBackend {
    /// Each replica under the name reports use for it (`"replica 0"`, …).
    replicas: Vec<(String, Arc<dyn StorageBackend>)>,
    /// A failed commit stayed on a replica that had finished it.
    wedged: Arc<AtomicBool>,
}

impl ReplicatedBackend {
    /// Build from at least one replica.
    pub fn new(replicas: Vec<Box<dyn StorageBackend>>) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let named = replicas.into_iter().enumerate();
        Self {
            replicas: named
                .map(|(i, r)| (format!("replica {i}"), r.into()))
                .collect(),
            wedged: Arc::default(),
        }
    }
}

/// One epoch session fanned out over every replica's session.
struct ReplicatedEpochWriter {
    epoch: u64,
    /// Each replica with its session, in replica order.
    writers: Vec<(Arc<dyn StorageBackend>, Box<dyn EpochWriter>)>,
    wedged: Arc<AtomicBool>,
}

impl EpochWriter for ReplicatedEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        for (_, w) in &self.writers {
            w.write_pages(batch)?;
        }
        Ok(())
    }

    /// Finish on every replica in order. A failure retires the epoch from
    /// the replicas that already finished it, so no reader ever counts a
    /// commit that failed; a replica that cannot retire it wedges the
    /// backend.
    fn finish(&self) -> io::Result<()> {
        for (done, (_, w)) in self.writers.iter().enumerate() {
            if let Err(e) = w.finish() {
                let finished = self.writers[..done].iter();
                let undone: Vec<_> = finished
                    .map(|(r, _)| r.remove_epochs(&[self.epoch]))
                    .collect();
                if undone.iter().any(Result::is_err) {
                    self.wedged.store(true, Ordering::SeqCst);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn abort(&self) -> io::Result<()> {
        // Every session is aborted, whatever the first one answered.
        let aborted: Vec<_> = self.writers.iter().map(|(_, w)| w.abort()).collect();
        aborted.into_iter().collect()
    }
}

impl StorageBackend for ReplicatedBackend {
    fn children(&self) -> Vec<(&str, &dyn StorageBackend)> {
        let named = self.replicas.iter();
        named.map(|(name, r)| (name.as_str(), &**r)).collect()
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        if self.wedged.load(Ordering::SeqCst) {
            return Err(io::Error::other(
                "a failed commit could not be retired from every replica: reopen",
            ));
        }
        let writers = self
            .replicas
            .iter()
            .map(|(_, r)| Ok((Arc::clone(r), r.begin_epoch(epoch)?)))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Box::new(ReplicatedEpochWriter {
            epoch,
            writers,
            wedged: Arc::clone(&self.wedged),
        }))
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
    fn a_failed_finish_is_undone_or_wedges_the_backend() {
        use crate::failing::{FailingBackend, FaultOp};
        let (a, b) = (MemoryBackend::new(), MemoryBackend::new());
        let (first, first_ctl) = FailingBackend::new(a.clone());
        let (second, second_ctl) = FailingBackend::new(b.clone());
        let r = ReplicatedBackend::new(vec![Box::new(first), Box::new(second)]);
        // Replica 1 fails its finish: replica 0 retires the epoch again.
        second_ctl.fail(FaultOp::Finish, true);
        assert!(write_epoch(&r, 1, vec![(0, vec![1])]).is_err());
        assert!(a.epochs().unwrap().is_empty(), "undone on replica 0");
        assert!(r.epochs().unwrap().is_empty());
        second_ctl.heal();
        write_epoch(&r, 2, vec![(0, vec![2])]).unwrap();
        // The undo fails too: the handle refuses every new epoch.
        second_ctl.fail(FaultOp::Finish, true);
        first_ctl.fail(FaultOp::RemoveEpoch, true);
        assert!(write_epoch(&r, 3, vec![(0, vec![3])]).is_err());
        second_ctl.heal();
        first_ctl.heal();
        assert!(r.begin_epoch(4).is_err(), "wedged until reopened");
        // A reopen lists the epoch replica 0 kept, whole.
        let reopened = ReplicatedBackend::new(vec![Box::new(a), Box::new(b)]);
        assert_eq!(reopened.epochs().unwrap(), vec![2, 3]);
        assert_eq!(reopened.read_page_at(3, 0).unwrap(), Some(vec![3]));
        write_epoch(&reopened, 4, vec![(0, vec![4])]).unwrap();
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
