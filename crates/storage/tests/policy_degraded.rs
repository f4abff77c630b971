//! A policy stack while one of its stores is out of reach, or out of
//! service and not reconciled yet: a fold is refused before it reads
//! anything, a retirement leaves nobody behind, and an epoch only a suspect
//! level holds is still listed and served.

use ai_ckpt_storage::{
    write_epoch, ChainEntry, EpochWriter, FailingBackend, FailureControl, FaultOp, MemoryBackend,
    PolicyBackend, PolicyBuilder, ResilienceSpec, StorageBackend,
};
use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn epoch_pages(epoch: u64) -> Vec<(u64, Vec<u8>)> {
    (0..6u64)
        .map(|p| (p, vec![(epoch as u8) ^ (p as u8); 32]))
        .collect()
}

fn drain_all(policy: &PolicyBackend) {
    for _ in 0..64 {
        if policy.drain_one().unwrap().is_none() {
            return;
        }
    }
    panic!("drain did not converge");
}

/// Counts the stream reads that reach the store below it.
struct CountReads {
    inner: MemoryBackend,
    reads: Arc<AtomicU64>,
}

impl StorageBackend for CountReads {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.inner)
    }
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        self.inner.begin_epoch(epoch)
    }
    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.inner.epochs()
    }
    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_epoch(epoch, visit)
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

#[test]
fn refused_fold_reads_nothing_and_retirement_leaves_no_member_behind() {
    // One member of the replica level is unreachable — the state the
    // level's own union listing hides. The runtime asks for a fold after
    // every checkpoint once the chain is long; each refusal must come
    // before the chain is read, not after buffering all of it.
    let reads = Arc::new(AtomicU64::new(0));
    let member = FailureControl::new();
    let stores = RefCell::new(Vec::new());
    let spec = "nvme=plain#2 -> partner=replica*2 -> cold=parity*4";
    let policy = PolicyBuilder::new(ResilienceSpec::parse(spec).unwrap())
        .unwrap()
        .build(|level, replica| {
            let inner = MemoryBackend::new();
            stores.borrow_mut().push(inner.clone());
            let reads = Arc::clone(&reads);
            let store = CountReads { inner, reads };
            if (level, replica) == (1, 1) {
                Box::new(FailingBackend::with_control(store, member.clone()))
            } else {
                Box::new(store)
            }
        })
        .unwrap();
    for epoch in 1..=3u64 {
        write_epoch(&policy, epoch, epoch_pages(epoch)).unwrap();
    }
    drain_all(&policy);
    let stores = stores.into_inner();
    let stored = || -> Vec<Vec<ChainEntry>> { stores.iter().map(|s| s.chain().unwrap()).collect() };
    let before = stored();
    member.kill();
    reads.store(0, Ordering::SeqCst);
    let err = policy.compact(3).unwrap_err();
    assert!(
        err.to_string().contains("full redundancy"),
        "unexpected error: {err}"
    );
    assert_eq!(reads.load(Ordering::SeqCst), 0, "refused before any read");
    assert_eq!(stored(), before, "no store folded");
    // Retirement: the replica level refuses as a whole (its reachable
    // member keeps the epoch too), goes suspect, and drops the epoch from
    // the policy's ledger once the member is back.
    assert!(policy.remove_epochs(&[1]).is_err());
    assert!(policy.stats().levels[1].suspect);
    assert_eq!(
        stored()[1],
        before[1],
        "the reachable member was not left alone"
    );
    assert_eq!(policy.epochs().unwrap(), vec![2, 3]);
    member.heal();
    drain_all(&policy);
    assert!(!policy.stats().levels[1].suspect);
    for store in &stores {
        assert!(!store.epochs().unwrap().contains(&1));
    }
    policy.compact(3).unwrap();
    assert_eq!(policy.chain().unwrap().len(), 1);
}

#[test]
fn suspect_level_is_still_listed_and_read_until_reconciled() {
    let stores = RefCell::new(Vec::new());
    let spec = ResilienceSpec::parse("hot=plain -> cold=plain").unwrap();
    let (policy, controls) = PolicyBuilder::new(spec)
        .unwrap()
        .build_injected(|_, _| {
            let store = MemoryBackend::new();
            stores.borrow_mut().push(store.clone());
            Box::new(store)
        })
        .unwrap();
    let stores = stores.into_inner();
    write_epoch(&policy, 1, epoch_pages(1)).unwrap();
    drain_all(&policy);
    write_epoch(&policy, 2, epoch_pages(2)).unwrap();
    // The hot level fails one retirement: alive, but out of service until
    // the next drain tick reconciles it.
    controls[0].fail(FaultOp::RemoveEpoch, true);
    assert!(policy.remove_epochs(&[1]).is_err());
    controls[0].fail(FaultOp::RemoveEpoch, false);
    assert!(policy.stats().levels[0].suspect);
    assert_eq!(stores[0].epochs().unwrap(), vec![1, 2]);
    // In that window epoch 2, which only the suspect level holds, is still
    // listed and served — a restore must not silently pick an older epoch —
    // while epoch 1, which it also still holds, stays retired.
    assert_eq!(policy.epochs().unwrap(), vec![2]);
    assert_eq!(policy.chain().unwrap().len(), 1);
    assert_eq!(policy.high_water().unwrap(), Some(2));
    let want = epoch_pages(2).swap_remove(3).1;
    assert_eq!(policy.read_page_at(2, 3).unwrap().unwrap(), want);
    // Nothing verifies or mutates the suspect copy: to those it holds
    // nothing, and reconcile rebuilds it instead.
    let err = policy.rewrite_epoch(2, &[(0, &[1u8; 32])]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::NotFound);
    assert_eq!(policy.read_page_at(2, 3).unwrap().unwrap(), want);
    // The next tick reconciles: the stale epoch goes, service resumes.
    drain_all(&policy);
    assert!(!policy.stats().levels[0].suspect);
    assert_eq!(stores[0].epochs().unwrap(), vec![2]);
    assert_eq!(stores[1].epochs().unwrap(), vec![2]);
    assert!(policy.verify_epoch(2).unwrap().is_clean());
}
