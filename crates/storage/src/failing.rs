//! Failure-injecting wrapper: drives the committer's and restore's error
//! paths in tests (storage *will* fail in production — the whole point of
//! checkpointing is surviving faults, so the library itself must handle its
//! own substrate failing).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{EpochWriter, StorageBackend};
use crate::scrub::{RecordMeta, RepairReport, VerifyReport};

/// Operations a [`FailureControl`] can arm a *transient* burst against:
/// the next `n` calls fail with an `Interrupted`-kind error (the
/// [`Transient`](crate::errors::FaultClass::Transient) class), after which
/// the op heals itself — the EINTR-shaped hiccup the retry layer exists
/// for, as opposed to the permanent flags which stay armed until
/// [`FailureControl::heal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `begin_epoch` (the session never opens).
    BeginEpoch,
    /// `EpochWriter::finish` (the commit barrier).
    Finish,
    /// `remove_epochs`.
    RemoveEpoch,
    /// `drain_one` (the maintenance drain path).
    DrainOne,
    /// `install_compacted` (the compaction commit point).
    InstallCompacted,
    /// The payload read entry points (`read_epoch`, `epoch_page_ids`,
    /// `read_page_at`).
    Read,
}

impl FaultOp {
    const COUNT: usize = 6;

    fn idx(self) -> usize {
        self as usize
    }
}

/// Shared knob controlling when the wrapped backend starts failing. The
/// counters are atomics: failure budgets stay exact when multiple committer
/// streams write concurrently.
///
/// Beyond the original page-write budget and `finish` switch, every other
/// mutating entry point can be failed individually — epoch opens and the
/// whole chain API (`remove_epochs`, `drain_one`,
/// `install_compacted`), so manifest-append paths and the maintenance
/// worker are testable under fault too.
#[derive(Debug, Clone, Default)]
pub struct FailureControl {
    /// Records remaining before page writes start failing (`u64::MAX` =
    /// never).
    writes_until_failure: Arc<AtomicU64>,
    /// When set, `finish` fails.
    fail_finish: Arc<AtomicU64>,
    /// When set, `begin_epoch` fails (the session never opens).
    fail_begin_epoch: Arc<AtomicU64>,
    /// When set, `remove_epochs` fails (tier eviction / group abort path).
    fail_remove_epoch: Arc<AtomicU64>,
    /// When set, `drain_one` fails (maintenance drain path).
    fail_drain_one: Arc<AtomicU64>,
    /// When set, `install_compacted` fails (the compaction commit point).
    fail_install_compacted: Arc<AtomicU64>,
    /// When set, every read entry point fails (`epochs`, `high_water`,
    /// `read_epoch`, `epoch_page_ids`, `read_page_at`, `chain`) — the
    /// degraded-read half of losing a device.
    fail_reads: Arc<AtomicU64>,
    /// When set, *everything* fails — the whole store is gone. This is the
    /// policy layer's whole-level fault: one shared control wrapped around
    /// each store of a resilience level kills the level in a single switch,
    /// and liveness probes (`epochs()`) observe the loss immediately.
    killed: Arc<AtomicU64>,
    /// Per-[`FaultOp`] transient budgets: each entry counts failures still
    /// owed; ops decrement on the way through and fail `Interrupted` while
    /// non-zero (self-healing bursts).
    transient: Arc<[AtomicU64; FaultOp::COUNT]>,
    /// Armed at-rest corruption: `(epoch, page, byte)` triples whose reads
    /// fail `InvalidData` until the epoch is rewritten.
    corrupt: Arc<Mutex<Vec<(u64, u64, u64)>>>,
}

impl FailureControl {
    /// A control that never fails until configured.
    pub fn new() -> Self {
        Self {
            writes_until_failure: Arc::new(AtomicU64::new(u64::MAX)),
            ..Self::default()
        }
    }

    /// Let `n` more page records succeed, then fail every subsequent write.
    pub fn fail_writes_after(&self, n: u64) {
        self.writes_until_failure.store(n, Ordering::SeqCst);
    }

    /// Stop injecting failures of every kind (including a [`kill`]).
    ///
    /// [`kill`]: FailureControl::kill
    pub fn heal(&self) {
        self.writes_until_failure.store(u64::MAX, Ordering::SeqCst);
        for flag in [
            &self.fail_finish,
            &self.fail_begin_epoch,
            &self.fail_remove_epoch,
            &self.fail_drain_one,
            &self.fail_install_compacted,
            &self.fail_reads,
            &self.killed,
        ] {
            flag.store(0, Ordering::SeqCst);
        }
        for budget in self.transient.iter() {
            budget.store(0, Ordering::SeqCst);
        }
        // Armed corruption survives a heal on purpose: recovering the
        // transport cannot un-flip stored bytes. Only a rewrite (the
        // repair path) clears it.
    }

    /// Arm a transient burst: the next `n` calls of `op` fail with an
    /// `Interrupted`-kind error (classified
    /// [`Transient`](crate::errors::FaultClass::Transient)), after which
    /// the op succeeds again without any `heal` — a fault that fixes
    /// itself, which is exactly what the retry layer must absorb.
    pub fn fail_next_n(&self, op: FaultOp, n: u64) {
        self.transient[op.idx()].store(n, Ordering::SeqCst);
    }

    /// Transient failures still owed for `op` (0 = the burst is spent).
    pub fn transient_remaining(&self, op: FaultOp) -> u64 {
        self.transient[op.idx()].load(Ordering::SeqCst)
    }

    /// Arm at-rest corruption: every read touching `page` of `epoch`
    /// fails `InvalidData` — as if stored byte `byte` had rotted below
    /// the CRC — until the epoch is rewritten through the repair path
    /// ([`StorageBackend::rewrite_epoch`]). [`heal`](FailureControl::heal)
    /// deliberately does *not* clear this: corruption is data damage, not
    /// transport unavailability.
    pub fn corrupt_read_payload(&self, epoch: u64, page: u64, byte: u64) {
        self.corrupt.lock().push((epoch, page, byte));
    }

    /// Number of corruption entries still armed (test observability).
    pub fn corruptions_armed(&self) -> usize {
        self.corrupt.lock().len()
    }

    /// Consume one transient token for `op`, failing if one was armed.
    fn take_transient(&self, op: FaultOp) -> io::Result<()> {
        let budget = &self.transient[op.idx()];
        let mut cur = budget.load(Ordering::SeqCst);
        while cur > 0 {
            match budget.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Err(crate::errors::transient("injected transient fault")),
                Err(actual) => cur = actual,
            }
        }
        Ok(())
    }

    /// The armed corruption hit for `(epoch, page)`, if any.
    fn corrupt_hit(&self, epoch: u64, page: u64) -> Option<u64> {
        self.corrupt
            .lock()
            .iter()
            .find(|(e, p, _)| *e == epoch && *p == page)
            .map(|(_, _, byte)| *byte)
    }

    /// The first armed corruption for `epoch`, if any.
    fn first_corrupt(&self, epoch: u64) -> Option<(u64, u64)> {
        self.corrupt
            .lock()
            .iter()
            .find(|(e, _, _)| *e == epoch)
            .map(|(_, page, byte)| (*page, *byte))
    }

    /// All pages armed corrupt for `epoch`.
    fn corrupt_pages_for(&self, epoch: u64) -> Vec<u64> {
        self.corrupt
            .lock()
            .iter()
            .filter(|(e, _, _)| *e == epoch)
            .map(|(_, p, _)| *p)
            .collect()
    }

    /// A rewrite replaced the epoch's stored bytes: the armed rot is gone.
    fn clear_corruption(&self, epoch: u64) {
        self.corrupt.lock().retain(|(e, _, _)| *e != epoch);
    }

    /// Fail every operation — reads, writes, the whole chain API — as if
    /// the device vanished. [`heal`](FailureControl::heal) brings it back
    /// (the data was never touched: a kill is unavailability, not loss).
    pub fn kill(&self) {
        self.killed.store(1, Ordering::SeqCst);
    }

    /// Whether [`kill`](FailureControl::kill) is currently in effect.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst) != 0
    }

    /// Make every read entry point fail while writes still land (a device
    /// that lost its read path, or a fabric partition on the restore side).
    pub fn fail_reads(&self, yes: bool) {
        self.fail_reads.store(yes as u64, Ordering::SeqCst);
    }

    /// Make `finish` fail.
    pub fn fail_finish(&self, yes: bool) {
        self.fail_finish.store(yes as u64, Ordering::SeqCst);
    }

    /// Make `begin_epoch` fail.
    pub fn fail_begin_epoch(&self, yes: bool) {
        self.fail_begin_epoch.store(yes as u64, Ordering::SeqCst);
    }

    /// Make `remove_epochs` fail.
    pub fn fail_remove_epoch(&self, yes: bool) {
        self.fail_remove_epoch.store(yes as u64, Ordering::SeqCst);
    }

    /// Make `drain_one` fail.
    pub fn fail_drain_one(&self, yes: bool) {
        self.fail_drain_one.store(yes as u64, Ordering::SeqCst);
    }

    /// Make `install_compacted` fail.
    pub fn fail_install_compacted(&self, yes: bool) {
        self.fail_install_compacted
            .store(yes as u64, Ordering::SeqCst);
    }

    /// Gate a mutating entry point: fails when its individual flag is armed
    /// or the whole store is killed.
    fn gate(&self, flag: &AtomicU64) -> io::Result<()> {
        if self.killed.load(Ordering::SeqCst) != 0 || flag.load(Ordering::SeqCst) != 0 {
            return Err(injected());
        }
        Ok(())
    }

    /// Gate a read entry point: fails under `fail_reads` or a kill.
    fn read_gate(&self) -> io::Result<()> {
        if self.killed.load(Ordering::SeqCst) != 0 || self.fail_reads.load(Ordering::SeqCst) != 0 {
            return Err(injected());
        }
        Ok(())
    }

    fn take_write_token(&self) -> bool {
        if self.killed.load(Ordering::SeqCst) != 0 {
            return false;
        }
        let mut cur = self.writes_until_failure.load(Ordering::SeqCst);
        loop {
            if cur == u64::MAX {
                return true; // unlimited
            }
            if cur == 0 {
                return false;
            }
            match self.writes_until_failure.compare_exchange(
                cur,
                cur - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Backend wrapper that fails on command.
#[derive(Debug)]
pub struct FailingBackend<B> {
    inner: B,
    control: FailureControl,
}

impl<B: StorageBackend> FailingBackend<B> {
    /// Wrap `inner`; keep the returned control to trigger failures.
    pub fn new(inner: B) -> (Self, FailureControl) {
        let control = FailureControl::new();
        (Self::with_control(inner, control.clone()), control)
    }

    /// Wrap `inner` under an existing (possibly shared) control: the policy
    /// layer wraps every store of one resilience level with one control, so
    /// a single [`FailureControl::kill`] takes the whole level down — below
    /// the level's protection wrapper, where even direct parity-recovery
    /// reads cannot sidestep the fault.
    pub fn with_control(inner: B, control: FailureControl) -> Self {
        Self { inner, control }
    }
}

fn injected() -> io::Error {
    io::Error::other("injected storage failure")
}

fn corrupt_injected(epoch: u64, page: u64, byte: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("injected corrupt payload for page {page} in epoch {epoch} (stored byte {byte})"),
    )
}

/// Open-epoch session that consumes one failure token per record.
struct FailingEpochWriter {
    inner: Box<dyn EpochWriter>,
    control: FailureControl,
}

impl EpochWriter for FailingEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        // Consume tokens record by record: a budget of `n` lets exactly `n`
        // records through even when they arrive in one batch.
        let mut allowed = 0;
        for _ in batch {
            if !self.control.take_write_token() {
                break;
            }
            allowed += 1;
        }
        if allowed > 0 {
            self.inner.write_pages(&batch[..allowed])?;
        }
        if allowed < batch.len() {
            return Err(injected());
        }
        Ok(())
    }

    fn finish(&self) -> io::Result<()> {
        self.control.gate(&self.control.fail_finish)?;
        self.control.take_transient(FaultOp::Finish)?;
        self.inner.finish()
    }

    fn abort(&self) -> io::Result<()> {
        self.inner.abort()
    }
}

// Every entry point with an injection point is spelled out; the pure
// counters (`bytes_stored`, `supports_compaction`, `drain_backlog`,
// `io_stats`) cannot fail and reach the wrapped backend through `inner()`.
impl<B: StorageBackend> StorageBackend for FailingBackend<B> {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.inner)
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        self.control.gate(&self.control.fail_begin_epoch)?;
        self.control.take_transient(FaultOp::BeginEpoch)?;
        Ok(Box::new(FailingEpochWriter {
            inner: self.inner.begin_epoch(epoch)?,
            control: self.control.clone(),
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.control.read_gate()?;
        self.inner.epochs()
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.control.read_gate()?;
        self.control.take_transient(FaultOp::Read)?;
        // A stream cannot step over rot: the first armed page of the epoch
        // fails the whole read, exactly as a real CRC mismatch would.
        if let Some((page, byte)) = self.control.first_corrupt(epoch) {
            return Err(corrupt_injected(epoch, page, byte));
        }
        self.inner.read_epoch(epoch, visit)
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        // The page listing survives payload rot (ids come from the
        // segment index, not the payloads), so
        // armed corruption does not fire here — only gates and bursts.
        self.control.read_gate()?;
        self.control.take_transient(FaultOp::Read)?;
        self.inner.epoch_page_ids(epoch)
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        self.control.read_gate()?;
        self.control.take_transient(FaultOp::Read)?;
        if let Some(byte) = self.control.corrupt_hit(epoch, page) {
            return Err(corrupt_injected(epoch, page, byte));
        }
        self.inner.read_page_at(epoch, page)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn chain(&self) -> io::Result<Vec<crate::backend::ChainEntry>> {
        self.control.read_gate()?;
        self.inner.chain()
    }

    // A fold (`compact`) runs over this wrapper's gated `chain`/`read_epoch`
    // and commits here, so an armed `fail_install_compacted` hits the
    // compaction commit point exactly as it would on the real backend.
    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        self.control.gate(&self.control.fail_install_compacted)?;
        self.control.take_transient(FaultOp::InstallCompacted)?;
        self.inner.install_compacted(from, into, records)
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        self.control.gate(&self.control.fail_remove_epoch)?;
        self.control.take_transient(FaultOp::RemoveEpoch)?;
        self.inner.remove_epochs(epochs)
    }

    fn drain_one(&self) -> io::Result<Option<u64>> {
        self.control.gate(&self.control.fail_drain_one)?;
        self.control.take_transient(FaultOp::DrainOne)?;
        self.inner.drain_one()
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        self.control.read_gate()?;
        self.inner.high_water()
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        self.control.read_gate()?;
        let mut report = self.inner.verify_epoch(epoch)?;
        // Armed rot is real damage as far as readers are concerned — the
        // scrub surface must report it even though the inner store's bytes
        // are fine.
        for page in self.control.corrupt_pages_for(epoch) {
            report.note_corrupt(page);
            report.records = report.records.saturating_sub(1);
        }
        Ok(report)
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        // The rewrite shares `install_compacted`'s injection point: both
        // are the atomic install path.
        self.control.gate(&self.control.fail_install_compacted)?;
        self.inner.rewrite_epoch(epoch, records)?;
        // The stored bytes were replaced wholesale: the armed rot is gone.
        self.control.clear_corruption(epoch);
        Ok(())
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        if self.control.is_killed() {
            return Err(injected());
        }
        self.inner.repair_epoch(epoch)
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        self.control.read_gate()?;
        self.inner.record_meta(epoch, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;

    #[test]
    fn fails_after_budget_then_heals() {
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        let w = b.begin_epoch(1).unwrap();
        ctl.fail_writes_after(2);
        w.write_pages(&[(0, &[0])]).unwrap();
        w.write_pages(&[(1, &[1])]).unwrap();
        assert!(w.write_pages(&[(2, &[2])]).is_err());
        assert!(w.write_pages(&[(3, &[3])]).is_err(), "stays failed");
        ctl.heal();
        w.write_pages(&[(4, &[4])]).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn budget_applies_within_one_batch() {
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        let w = b.begin_epoch(1).unwrap();
        ctl.fail_writes_after(2);
        let err = w
            .write_pages(&[(0, &[0]), (1, &[1]), (2, &[2])])
            .unwrap_err();
        assert!(err.to_string().contains("injected"));
        ctl.heal();
        w.finish().unwrap();
        // Exactly the two budgeted records made it through.
        let mut pages = Vec::new();
        b.read_epoch(1, &mut |p, _| pages.push(p)).unwrap();
        assert_eq!(pages, vec![0, 1]);
    }

    #[test]
    fn begin_epoch_injection() {
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        ctl.fail_begin_epoch(true);
        assert!(b.begin_epoch(1).is_err());
        ctl.heal();
        b.begin_epoch(1).unwrap().finish().unwrap();
    }

    #[test]
    fn chain_api_injection() {
        use crate::backend::write_epoch;
        use crate::tiered::TieredBackend;
        let tier = TieredBackend::new(
            Box::new(MemoryBackend::new()),
            Box::new(MemoryBackend::new()),
            0,
        )
        .unwrap();
        let (b, ctl) = FailingBackend::new(tier);
        write_epoch(&b, 1, vec![(0, vec![1])]).unwrap();
        write_epoch(&b, 2, vec![(0, vec![2])]).unwrap();

        ctl.fail_drain_one(true);
        assert!(b.drain_one().is_err());
        ctl.fail_remove_epoch(true);
        assert!(b.remove_epochs(&[1]).is_err());
        ctl.fail_install_compacted(true);
        assert!(b.compact(2).is_err(), "compaction commit point injected");
        // Nothing was lost: both epochs still restore after healing.
        ctl.heal();
        assert_eq!(b.epochs().unwrap(), vec![1, 2]);
        assert_eq!(b.drain_one().unwrap(), Some(1));
        b.compact(2).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![2]);
        assert_eq!(b.high_water().unwrap(), Some(2));
    }

    #[test]
    fn read_injection_hits_every_read_entry_point() {
        use crate::backend::write_epoch;
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        write_epoch(&b, 1, vec![(0, vec![7])]).unwrap();
        ctl.fail_reads(true);
        assert!(b.epochs().is_err());
        assert!(b.high_water().is_err());
        assert!(b.read_epoch(1, &mut |_, _| {}).is_err());
        assert!(b.epoch_page_ids(1).is_err());
        assert!(b.read_page_at(1, 0).is_err());
        assert!(b.chain().is_err());
        // Writes still land: the store lost its read path, not its media.
        write_epoch(&b, 2, vec![(1, vec![8])]).unwrap();
        ctl.heal();
        assert_eq!(b.epochs().unwrap(), vec![1, 2]);
    }

    #[test]
    fn kill_takes_everything_down_and_heal_restores_the_data() {
        use crate::backend::write_epoch;
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        write_epoch(&b, 1, vec![(0, vec![3])]).unwrap();
        ctl.kill();
        assert!(ctl.is_killed());
        assert!(b.begin_epoch(2).is_err());
        assert!(b.epochs().is_err(), "liveness probe observes the kill");
        assert!(b.read_page_at(1, 0).is_err());
        assert!(b.remove_epochs(&[1]).is_err());
        assert!(b.drain_one().is_err());
        // An open writer dies with the store too.
        ctl.heal();
        let w = b.begin_epoch(2).unwrap();
        w.write_pages(&[(1, &[4])]).unwrap();
        ctl.kill();
        assert!(w.write_pages(&[(2, &[5])]).is_err());
        assert!(w.finish().is_err());
        ctl.heal();
        // A kill is unavailability, not loss.
        assert_eq!(b.epochs().unwrap(), vec![1]);
        assert_eq!(b.read_page_at(1, 0).unwrap().unwrap(), vec![3]);
    }

    #[test]
    fn shared_control_kills_every_wrapped_store_at_once() {
        let ctl = FailureControl::new();
        let a = FailingBackend::with_control(MemoryBackend::new(), ctl.clone());
        let b = FailingBackend::with_control(MemoryBackend::new(), ctl.clone());
        ctl.kill();
        assert!(a.epochs().is_err());
        assert!(b.epochs().is_err());
        ctl.heal();
        assert!(a.epochs().unwrap().is_empty());
        assert!(b.epochs().unwrap().is_empty());
    }

    #[test]
    fn transient_bursts_self_heal_without_a_heal_call() {
        use crate::backend::write_epoch;
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        write_epoch(&b, 1, vec![(0, vec![1])]).unwrap();
        ctl.fail_next_n(FaultOp::Read, 2);
        for _ in 0..2 {
            assert_eq!(
                b.read_page_at(1, 0).unwrap_err().kind(),
                io::ErrorKind::Interrupted,
                "transient class, not permanent"
            );
        }
        assert_eq!(b.read_page_at(1, 0).unwrap().unwrap(), vec![1]);
        assert_eq!(ctl.transient_remaining(FaultOp::Read), 0);
        ctl.fail_next_n(FaultOp::DrainOne, 1);
        assert!(b.drain_one().is_err());
        assert_eq!(b.drain_one().unwrap(), None, "burst spent");
        ctl.fail_next_n(FaultOp::Finish, 1);
        let w = b.begin_epoch(2).unwrap();
        w.write_pages(&[(0, &[2])]).unwrap();
        assert_eq!(w.finish().unwrap_err().kind(), io::ErrorKind::Interrupted);
        w.finish().unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1, 2]);
    }

    #[test]
    fn armed_corruption_fails_reads_until_a_rewrite() {
        use crate::backend::write_epoch;
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        write_epoch(&b, 1, vec![(0, vec![1]), (1, vec![2])]).unwrap();
        ctl.corrupt_read_payload(1, 1, 0);
        assert_eq!(
            b.read_page_at(1, 1).unwrap_err().kind(),
            io::ErrorKind::InvalidData,
            "corrupt class"
        );
        assert_eq!(b.read_page_at(1, 0).unwrap().unwrap(), vec![1]);
        assert!(b.read_epoch(1, &mut |_, _| {}).is_err());
        assert_eq!(b.verify_epoch(1).unwrap().corrupt_pages, vec![1]);
        // heal() fixes transport faults, not rot.
        ctl.heal();
        assert!(b.read_page_at(1, 1).is_err());
        // The repair path's rewrite replaces the stored bytes: rot gone.
        b.rewrite_epoch(1, &[(0, &[1]), (1, &[2])]).unwrap();
        assert_eq!(ctl.corruptions_armed(), 0);
        assert_eq!(b.read_page_at(1, 1).unwrap().unwrap(), vec![2]);
        assert!(b.verify_epoch(1).unwrap().is_clean());
    }

    #[test]
    fn finish_failure_injection() {
        let (b, ctl) = FailingBackend::new(MemoryBackend::new());
        let w = b.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[0])]).unwrap();
        ctl.fail_finish(true);
        assert!(w.finish().is_err());
        ctl.fail_finish(false);
        w.finish().unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1]);
    }
}
