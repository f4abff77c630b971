//! Replication across multiple backends (§3.2: local storage "is prone to
//! failures and thus unreliable. However, there are several options to
//! overcome this issue, with data replication on different nodes being the
//! most straight-forward").
//!
//! Every write goes to all replicas, and a failed `finish` retires the
//! epoch again from the replicas that had already finished it, so the
//! handle never counts a commit that failed. A retirement that fails is
//! owed: the handle does not list the epoch, retries the retirement at the
//! next `begin_epoch` and refuses new epochs while it still fails; a reopen
//! before that lists the epoch again, served whole by the replicas that
//! kept it. A replica that retired an epoch's number sits out a later copy
//! of that epoch (a policy level's rebuild) while its peers take it, and a
//! fold retires what it replaced from a replica that lacks its target.
//! Everything else is the routing rule of the `route` module over the
//! replicas as [`StorageBackend::children`]:
//! reads are served by the first replica that can satisfy them (a rotted
//! copy is healed from its peers before it is stepped over), so a restore
//! survives the loss of any strict subset of replicas; a fold or a
//! retirement is refused while any replica cannot be asked, so none comes
//! back holding what its peers folded away or retired.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::backend::{EpochWriter, StorageBackend};
use crate::errors::{classify, FaultClass};
use crate::route;

/// Retirements a failed commit still owes: each replica with its epoch.
type Owed = Arc<Mutex<Vec<(Arc<dyn StorageBackend>, u64)>>>;

/// Mirrors every operation across `n` replicas.
pub struct ReplicatedBackend {
    /// Each replica under the name reports use for it (`"replica 0"`, …).
    replicas: Vec<(String, Arc<dyn StorageBackend>)>,
    owed: Owed,
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
            owed: Owed::default(),
        }
    }
}

/// One epoch session fanned out over every replica's session.
struct ReplicatedEpochWriter {
    epoch: u64,
    /// Each replica with its session, in replica order.
    writers: Vec<(Arc<dyn StorageBackend>, Box<dyn EpochWriter>)>,
    /// How many of `writers`, in order, have finished.
    finished: AtomicUsize,
    owed: Owed,
}

impl ReplicatedEpochWriter {
    /// Retire the epoch from every replica that finished it, owing each
    /// retirement that fails; how many had finished.
    fn undo(&self) -> usize {
        let finished = self.finished.swap(0, Ordering::SeqCst);
        for (r, _) in &self.writers[..finished] {
            if r.remove_epochs(&[self.epoch]).is_err() {
                self.owed.lock().unwrap().push((Arc::clone(r), self.epoch));
            }
        }
        finished
    }
}

impl EpochWriter for ReplicatedEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        for (_, w) in &self.writers {
            w.write_pages(batch)?;
        }
        Ok(())
    }

    /// Finish on every replica in order. A transient failure keeps what
    /// finished, for a retried `finish` to resume (`abort` or a drop
    /// undoes it); any other undoes it, so no reader ever counts a commit
    /// that failed.
    fn finish(&self) -> io::Result<()> {
        let resume = self.finished.load(Ordering::SeqCst);
        for (_, w) in &self.writers[resume..] {
            if let Err(e) = w.finish() {
                if classify(&e) != FaultClass::Transient {
                    self.undo();
                }
                return Err(e);
            }
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
        self.finished.store(0, Ordering::SeqCst); // committed: nothing to undo
        Ok(())
    }

    fn abort(&self) -> io::Result<()> {
        // Every unfinished session is aborted, whatever the first answered.
        let unfinished = self.writers[self.undo()..].iter();
        let aborted: Vec<_> = unfinished.map(|(_, w)| w.abort()).collect();
        aborted.into_iter().collect()
    }
}

impl Drop for ReplicatedEpochWriter {
    fn drop(&mut self) {
        self.undo();
    }
}

impl StorageBackend for ReplicatedBackend {
    fn children(&self) -> Vec<(&str, &dyn StorageBackend)> {
        let named = self.replicas.iter();
        named.map(|(name, r)| (name.as_str(), &**r)).collect()
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        // Retry what is owed (`NotFound`: already gone); refuse while any
        // retirement still fails.
        let mut owed = self.owed.lock().unwrap();
        owed.retain(|(r, e)| {
            r.remove_epochs(&[*e])
                .is_err_and(|e| e.kind() != io::ErrorKind::NotFound)
        });
        if let Some((_, e)) = owed.first() {
            return Err(io::Error::other(format!(
                "failed commit {e} cannot be retired"
            )));
        }
        drop(owed);
        let mut writers = Vec::new();
        for (_, r) in &self.replicas {
            match r.begin_epoch(epoch) {
                Ok(w) => writers.push((Arc::clone(r), w)),
                // The replica retired this number and can never take it.
                Err(_)
                    if r.high_water().is_ok_and(|hw| hw >= Some(epoch))
                        && !r.epochs()?.contains(&epoch) => {}
                Err(e) => return Err(e),
            }
        }
        if writers.is_empty() {
            return Err(io::Error::other(format!(
                "every replica retired epoch {epoch}"
            )));
        }
        Ok(Box::new(ReplicatedEpochWriter {
            epoch,
            writers,
            finished: AtomicUsize::new(0),
            owed: Arc::clone(&self.owed),
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        // A failed commit still owed a retirement is not listed.
        let mut listed = route::epochs(&self.children())?;
        let owed = self.owed.lock().unwrap();
        listed.retain(|&epoch| !owed.iter().any(|(_, e)| *e == epoch));
        Ok(listed)
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        route::read_epoch(self, epoch, visit)
    }

    fn bytes_written(&self) -> u64 {
        // Logical payload bytes (not multiplied by replication factor).
        self.replicas[0].1.bytes_written()
    }

    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        route::install_compacted(&self.children(), from, into, records)?;
        // A replica that lacks `into` still lists what the fold replaced.
        for (_, r) in &self.replicas {
            let replaced: Vec<u64> = r.epochs()?.into_iter().filter(|&e| e < into).collect();
            if !replaced.is_empty() {
                r.remove_epochs(&replaced)?;
            }
        }
        Ok(())
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
    fn abort_propagates_to_all_replicas() {
        let (r, a, b) = two_way();
        let w = r.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[1])]).unwrap();
        w.abort().unwrap();
        assert!(a.epochs().unwrap().is_empty());
        assert!(b.epochs().unwrap().is_empty());
    }

    #[test]
    fn a_failed_finish_is_undone_now_or_at_the_next_epoch() {
        use crate::failing::{FailingBackend, Fault, FaultOp, When};
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
        // The undo fails too: the retirement is owed, the epoch unlisted,
        // and every new epoch refused while the retirement fails.
        second_ctl.fail(FaultOp::Finish, true);
        first_ctl.fail(FaultOp::RemoveEpoch, true);
        assert!(write_epoch(&r, 3, vec![(0, vec![3])]).is_err());
        second_ctl.heal();
        assert_eq!(r.epochs().unwrap(), vec![2]);
        assert!(
            r.begin_epoch(4).is_err(),
            "refused until the retirement succeeds"
        );
        // A reopen before then lists the epoch replica 0 kept, whole.
        let reopened = ReplicatedBackend::new(vec![Box::new(a.clone()), Box::new(b)]);
        assert_eq!(reopened.epochs().unwrap(), vec![2, 3]);
        assert_eq!(reopened.read_page_at(3, 0).unwrap(), Some(vec![3]));
        first_ctl.heal();
        write_epoch(&r, 4, vec![(0, vec![4])]).unwrap();
        assert_eq!(a.epochs().unwrap(), vec![2, 4], "retired at the next epoch");
        // A transient failure keeps replica 0's finish: a retried finish
        // resumes at replica 1, and a session dropped instead undoes it.
        second_ctl.arm(When::Kind(FaultOp::Finish), Fault::Burst(1));
        let session = r.begin_epoch(5).unwrap();
        assert!(session.finish().is_err());
        session.finish().unwrap();
        second_ctl.arm(When::Kind(FaultOp::Finish), Fault::Burst(1));
        assert!(write_epoch(&r, 6, vec![(0, vec![6])]).is_err());
        assert_eq!(r.epochs().unwrap(), vec![2, 4, 5], "6 undone on drop");
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
