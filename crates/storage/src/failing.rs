//! Failure injection: a transparent wrapper whose every call passes one
//! numbered gate, so a test can fail, burst or rot any backend operation —
//! storage *will* fail in production, and the whole point of checkpointing
//! is surviving that.
//!
//! # Numbering
//!
//! Every entry point [`FailingBackend`] spells out, and its sessions'
//! `write_pages`, `finish` and `abort`, pass the gate of its
//! [`FailureControl`] exactly once. The gate numbers the call — 1, 2, … on
//! the control's counter ([`FailureControl::ops`]) — and applies what the
//! control's one table has armed for it. A control shared through
//! [`FailingBackend::with_control`] numbers the calls of every store it
//! wraps, in call order; those stores are its *leaves*, numbered 0, 1, … in
//! the order they were wrapped. The pure counters (`bytes_written`,
//! `bytes_stored`, `io_stats`, `drain_backlog`, `supports_compaction`) are
//! not calls: they cannot fail.
//!
//! # Arming
//!
//! [`FailureControl::arm`] puts `(when, fault)` in the table, replacing
//! whatever was armed for the same `when`:
//!
//! | [`When`] | the calls it selects |
//! |---|---|
//! | `At(k)` | call `k` (then the entry is gone) |
//! | `From(k)` | call `k` and every later call: the process died at call `k`, so a session dropped after that is leaked, never aborted |
//! | `Kind(op)` | every call of one [`FaultOp`] kind |
//! | `Always` | every call (a [`kill`](FailureControl::kill)) |
//!
//! | [`Fault`] | what a selected call does |
//! |---|---|
//! | `Fail` | fails before it reaches the wrapped store ([`Permanent`](crate::FaultClass::Permanent)) |
//! | `Burst(n)` | fails `Interrupted` ([`Transient`](crate::FaultClass::Transient)) `n` times, then the entry is spent |
//! | `FailAfter(n)` | lets `n` more page records land, then fails: a batch that straddles the budget lands its first records |
//! | `Corrupt` | proceeds, with the first record it writes (a page batch's, an installed image's) rotten at rest: reads of it fail `InvalidData` until its epoch is rewritten |
//!
//! Entries stay armed until [`FailureControl::heal`]; rot survives it —
//! recovering the transport cannot un-flip stored bytes. The named setters
//! (`fail`, `fail_reads`, `fail_next_n`, `kill`, …) are one-line arms.

use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{EpochWriter, StorageBackend};
use crate::errors::transient;
use crate::scrub::{RecordMeta, RepairReport, VerifyReport};

/// The kind of a numbered call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `begin_epoch` (the session never opens).
    BeginEpoch,
    /// A session's `write_pages`.
    Write,
    /// A session's `finish` (the commit barrier).
    Finish,
    /// A session's `abort`.
    Abort,
    /// The listings: `epochs`, `chain`, `high_water`.
    List,
    /// The record reads: `read_epoch`, `epoch_page_ids`, `read_page_at`,
    /// `record_meta`, `verify_epoch`.
    Read,
    /// `remove_epochs` (tier eviction, group abort).
    RemoveEpoch,
    /// `drain_one` (the maintenance drain path).
    DrainOne,
    /// `install_compacted` (the compaction commit point).
    InstallCompacted,
    /// `rewrite_epoch` (the repair install path).
    RewriteEpoch,
    /// `repair_epoch`.
    RepairEpoch,
}

/// Which calls an armed [`Fault`] selects (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Call `k` alone.
    At(u64),
    /// Call `k` and every later call: a crash at call `k`.
    From(u64),
    /// Every call of one kind.
    Kind(FaultOp),
    /// Every call.
    Always,
}

/// What a selected call does (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail permanently.
    Fail,
    /// Fail transiently, this many times.
    Burst(u64),
    /// Let this many more page records land, then fail.
    FailAfter(u64),
    /// Proceed, with the first record the call writes rotten at rest.
    Corrupt,
}

/// One numbered call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Its number on the control's counter.
    pub number: u64,
    /// What it was.
    pub kind: FaultOp,
    /// The leaf it reached.
    pub leaf: usize,
}

/// At-rest rot the control keeps armed: reads of the record fail
/// `InvalidData` until its epoch is rewritten through the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rot {
    /// The leaf whose copy rotted; `None` rots it on every leaf.
    pub leaf: Option<usize>,
    /// The record's epoch.
    pub epoch: u64,
    /// The record's page id.
    pub page: u64,
    /// The stored byte that flipped (named in the error).
    pub byte: u64,
}

#[derive(Debug, Default)]
struct Table {
    /// Calls numbered so far.
    calls: u64,
    /// Leaves wrapped so far.
    leaves: usize,
    armed: Vec<(When, Fault)>,
    rot: Vec<Rot>,
    /// The first call an `At` or `From` entry selected.
    fired: Option<Call>,
    /// A `From` entry fired: sessions dropped from now on are leaked.
    crashed: bool,
}

/// The one gate and its arming table, shared by every [`FailingBackend`]
/// wrapped under it (clones share it too).
#[derive(Debug, Clone, Default)]
pub struct FailureControl {
    table: Arc<Mutex<Table>>,
}

impl FailureControl {
    /// A control with nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `fault` for the calls `when` selects, replacing whatever was
    /// armed for the same `when` (`Burst(0)` just disarms it).
    pub fn arm(&self, when: When, fault: Fault) {
        let mut table = self.table.lock();
        table.armed.retain(|(armed, _)| *armed != when);
        if fault != Fault::Burst(0) {
            table.armed.push((when, fault));
        }
    }

    /// Stop injecting failures of every kind, a kill and a crash included
    /// (armed rot stays: only a rewrite clears it).
    pub fn heal(&self) {
        let mut table = self.table.lock();
        table.armed.clear();
        table.crashed = false;
    }

    /// Calls numbered so far.
    pub fn ops(&self) -> u64 {
        self.table.lock().calls
    }

    /// The first call an `At` or `From` entry selected, if one did.
    pub fn fired(&self) -> Option<Call> {
        self.table.lock().fired
    }

    /// The rot still armed.
    pub fn rot(&self) -> Vec<Rot> {
        self.table.lock().rot.clone()
    }

    /// Let `n` more page records land, then fail every page write.
    pub fn fail_writes_after(&self, n: u64) {
        self.arm(When::Kind(FaultOp::Write), Fault::FailAfter(n));
    }

    /// The next `n` calls of `op` fail `Interrupted`, after which `op`
    /// succeeds again without a `heal` — the hiccup the retry layer exists
    /// for.
    pub fn fail_next_n(&self, op: FaultOp, n: u64) {
        self.arm(When::Kind(op), Fault::Burst(n));
    }

    /// Transient failures still owed for `op` (0 = the burst is spent).
    pub fn transient_remaining(&self, op: FaultOp) -> u64 {
        let table = self.table.lock();
        let owed = table.armed.iter().map(|armed| match *armed {
            (When::Kind(kind), Fault::Burst(n)) if kind == op => n,
            _ => 0,
        });
        owed.sum()
    }

    /// Rot `page` of `epoch` on every leaf, as if stored byte `byte` had
    /// flipped below the CRC.
    pub fn corrupt_read_payload(&self, epoch: u64, page: u64, byte: u64) {
        let rot = Rot {
            leaf: None,
            epoch,
            page,
            byte,
        };
        self.table.lock().rot.push(rot);
    }

    /// Fail every call, as if the device vanished; `heal` brings it back
    /// (a kill is unavailability, not loss).
    pub fn kill(&self) {
        self.arm(When::Always, Fault::Fail);
    }

    /// Fail every listing and read while writes still land (a device that
    /// lost its read path).
    pub fn fail_reads(&self, yes: bool) {
        self.fail(FaultOp::List, yes);
        self.fail(FaultOp::Read, yes);
    }

    /// Make every call of `op` fail — or, `yes = false`, stop.
    pub fn fail(&self, op: FaultOp, yes: bool) {
        let fault = if yes { Fault::Fail } else { Fault::Burst(0) };
        self.arm(When::Kind(op), fault);
    }

    /// The gate: number one call of `kind` on `leaf`, which writes
    /// `records` page records starting with `first`, and apply the table to
    /// it. `Ok` carries how many of the records may land.
    fn gate(
        &self,
        leaf: usize,
        kind: FaultOp,
        first: Option<(u64, u64)>,
        records: usize,
    ) -> io::Result<usize> {
        let mut table = self.table.lock();
        let Table {
            calls,
            armed,
            rot,
            fired,
            crashed,
            ..
        } = &mut *table;
        *calls += 1;
        let (number, mut land, mut failure) = (*calls, records, None);
        armed.retain_mut(|(when, fault)| {
            let selected = match *when {
                When::At(k) => k == number,
                When::From(k) => k <= number,
                When::Kind(op) => op == kind,
                When::Always => true,
            };
            if !selected {
                return true;
            }
            if let When::At(_) | When::From(_) = when {
                fired.get_or_insert(Call { number, kind, leaf });
                *crashed |= matches!(when, When::From(_));
            }
            match fault {
                Fault::Fail => {
                    failure.get_or_insert_with(injected);
                }
                Fault::Burst(n) => {
                    failure.get_or_insert_with(|| transient("injected transient fault"));
                    *n -= 1;
                }
                Fault::FailAfter(n) => {
                    land = land.min((*n).min(records as u64) as usize);
                    *n -= land as u64;
                }
                Fault::Corrupt => rot.extend(first.map(|(epoch, page)| Rot {
                    leaf: Some(leaf),
                    epoch,
                    page,
                    byte: 0,
                })),
            }
            !matches!(when, When::At(_)) && *fault != Fault::Burst(0)
        });
        failure.map_or(Ok(land), Err)
    }

    /// Gate one call that writes no page record, then make it.
    fn gated<T>(
        &self,
        leaf: usize,
        kind: FaultOp,
        call: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        self.gate(leaf, kind, None, 0)?;
        call()
    }

    /// The rot armed on `leaf`'s copy of `epoch`.
    fn rot_of(&self, leaf: usize, epoch: u64) -> Vec<Rot> {
        let table = self.table.lock();
        let on_leaf = |rot: &&Rot| rot.epoch == epoch && rot.leaf.is_none_or(|l| l == leaf);
        table.rot.iter().filter(on_leaf).copied().collect()
    }

    /// A rewrite replaced `leaf`'s copy of `epoch`: its rot is gone.
    fn clear_rot(&self, leaf: usize, epoch: u64) {
        let mut table = self.table.lock();
        table
            .rot
            .retain(|rot| rot.epoch != epoch || rot.leaf.is_some_and(|l| l != leaf));
    }
}

/// Backend wrapper that fails on command: one leaf of its control.
#[derive(Debug)]
pub struct FailingBackend<B> {
    inner: B,
    control: FailureControl,
    leaf: usize,
}

impl<B: StorageBackend> FailingBackend<B> {
    /// Wrap `inner`; keep the returned control to trigger failures.
    pub fn new(inner: B) -> (Self, FailureControl) {
        let control = FailureControl::new();
        (Self::with_control(inner, control.clone()), control)
    }

    /// Wrap `inner` as the next leaf of an existing (possibly shared)
    /// control: the policy layer wraps every store of one resilience level
    /// with one control, so a single [`FailureControl::kill`] takes the
    /// whole level down — below the level's protection wrapper, where even
    /// direct parity-recovery reads cannot sidestep the fault.
    pub fn with_control(inner: B, control: FailureControl) -> Self {
        let mut table = control.table.lock();
        table.leaves += 1;
        let leaf = table.leaves - 1;
        drop(table);
        Self {
            inner,
            control,
            leaf,
        }
    }

    fn gated<T>(&self, kind: FaultOp, call: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        self.control.gated(self.leaf, kind, call)
    }
}

fn injected() -> io::Error {
    io::Error::other("injected storage failure")
}

fn rotten(rot: &Rot) -> io::Error {
    let (epoch, page, byte) = (rot.epoch, rot.page, rot.byte);
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("injected corrupt payload for page {page} in epoch {epoch} (stored byte {byte})"),
    )
}

/// An open session on one leaf.
struct FailingEpochWriter {
    /// Taken only by `drop`.
    inner: Option<Box<dyn EpochWriter>>,
    control: FailureControl,
    leaf: usize,
    epoch: u64,
}

impl FailingEpochWriter {
    fn session(&self) -> &dyn EpochWriter {
        self.inner.as_deref().expect("open until dropped")
    }
}

impl EpochWriter for FailingEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        let first = batch.first().map(|&(page, _)| (self.epoch, page));
        let land = self
            .control
            .gate(self.leaf, FaultOp::Write, first, batch.len())?;
        if land > 0 {
            self.session().write_pages(&batch[..land])?;
        }
        match land < batch.len() {
            true => Err(injected()),
            false => Ok(()),
        }
    }

    fn finish(&self) -> io::Result<()> {
        self.control
            .gated(self.leaf, FaultOp::Finish, || self.session().finish())
    }

    fn abort(&self) -> io::Result<()> {
        self.control
            .gated(self.leaf, FaultOp::Abort, || self.session().abort())
    }
}

impl Drop for FailingEpochWriter {
    fn drop(&mut self) {
        // A dead process runs no cleanup: the session's files stay exactly
        // where the crash left them, for the next open to find.
        if self.control.table.lock().crashed {
            std::mem::forget(self.inner.take());
        }
    }
}

// Every call with a gate is spelled out; the pure counters reach the
// wrapped backend through `inner()`.
impl<B: StorageBackend> StorageBackend for FailingBackend<B> {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.inner)
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        let session = self.gated(FaultOp::BeginEpoch, || self.inner.begin_epoch(epoch))?;
        Ok(Box::new(FailingEpochWriter {
            inner: Some(session),
            control: self.control.clone(),
            leaf: self.leaf,
            epoch,
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.gated(FaultOp::List, || self.inner.epochs())
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.gated(FaultOp::Read, || {
            // A stream cannot step over rot: the first rotten record of the
            // epoch fails the whole read, exactly as a CRC mismatch would.
            match self.control.rot_of(self.leaf, epoch).first() {
                Some(rot) => Err(rotten(rot)),
                None => self.inner.read_epoch(epoch, visit),
            }
        })
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        // Page ids come from the segment index, not the payloads: the
        // listing survives rot.
        self.gated(FaultOp::Read, || self.inner.epoch_page_ids(epoch))
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        self.gated(FaultOp::Read, || {
            let rot = self.control.rot_of(self.leaf, epoch);
            match rot.iter().find(|rot| rot.page == page) {
                Some(rot) => Err(rotten(rot)),
                None => self.inner.read_page_at(epoch, page),
            }
        })
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn chain(&self) -> io::Result<Vec<crate::backend::ChainEntry>> {
        self.gated(FaultOp::List, || self.inner.chain())
    }

    // A fold (`compact`) runs over this wrapper's gated `chain`/`read_epoch`
    // and commits here, so a fault armed on the install hits the compaction
    // commit point exactly as it would on the real backend.
    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let first = records.first().map(|&(page, _)| (into, page));
        self.control
            .gate(self.leaf, FaultOp::InstallCompacted, first, 0)?;
        self.inner.install_compacted(from, into, records)
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        self.gated(FaultOp::RemoveEpoch, || self.inner.remove_epochs(epochs))
    }

    fn drain_one(&self) -> io::Result<Option<u64>> {
        self.gated(FaultOp::DrainOne, || self.inner.drain_one())
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        self.gated(FaultOp::List, || self.inner.high_water())
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        self.gated(FaultOp::Read, || {
            let mut report = self.inner.verify_epoch(epoch)?;
            // Armed rot is real damage as far as readers are concerned: the
            // scrub surface reports it although the stored bytes are fine.
            for rot in self.control.rot_of(self.leaf, epoch) {
                report.note_corrupt(rot.page);
                report.records = report.records.saturating_sub(1);
            }
            Ok(report)
        })
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        self.gated(FaultOp::RewriteEpoch, || {
            self.inner.rewrite_epoch(epoch, records)?;
            // The stored bytes were replaced wholesale: the rot is gone.
            self.control.clear_rot(self.leaf, epoch);
            Ok(())
        })
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        self.gated(FaultOp::RepairEpoch, || self.inner.repair_epoch(epoch))
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        self.gated(FaultOp::Read, || self.inner.record_meta(epoch, page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::memory::MemoryBackend;

    /// One fixed script of eight calls, each answering `.` (ok), `F`
    /// (failed), `T` (transient), `C` (corrupt) or `-` (no session to call).
    fn script(b: &dyn StorageBackend) -> String {
        let code = |r: io::Result<()>| match r.map_err(|e| e.kind()) {
            Ok(()) => '.',
            Err(io::ErrorKind::Interrupted) => 'T',
            Err(io::ErrorKind::InvalidData) => 'C',
            Err(_) => 'F',
        };
        let mut out = vec![
            code(b.epochs().map(drop)),
            code(b.read_page_at(1, 0).map(drop)),
        ];
        match b.begin_epoch(2) {
            Ok(w) => out.extend([
                '.',
                code(w.write_pages(&[(0, &[7]), (1, &[8]), (2, &[9])])),
                code(w.finish()),
            ]),
            Err(e) => out.extend([code(Err(e)), '-', '-']),
        }
        out.push(code(b.read_epoch(2, &mut |_, _| {})));
        out.push(code(b.drain_one().map(drop)));
        out.push(code(b.remove_epochs(&[1])));
        out.into_iter().collect()
    }

    #[test]
    fn the_arming_table() {
        type Arming = fn(&FailureControl);
        let rows: [(Arming, &str); 14] = [
            (|_| {}, "........"),
            (|c| c.arm(When::At(2), Fault::Fail), ".F......"),
            (|c| c.arm(When::From(5), Fault::Fail), "....FFFF"),
            (FailureControl::kill, "FFF--FFF"),
            (|c| c.fail_reads(true), "FF...F.."),
            (|c| c.fail(FaultOp::BeginEpoch, true), "..F--F.."),
            (|c| c.fail(FaultOp::Finish, true), "....FF.."),
            (|c| c.fail(FaultOp::DrainOne, true), "......F."),
            (|c| c.fail(FaultOp::RemoveEpoch, true), ".......F"),
            (|c| c.fail_writes_after(2), "...F...."),
            (|c| c.fail_next_n(FaultOp::Read, 1), ".T......"),
            (|c| c.fail_next_n(FaultOp::Read, 9), ".T...T.."),
            (|c| c.arm(When::At(4), Fault::Burst(1)), "...T...."),
            (|c| c.arm(When::At(4), Fault::Corrupt), ".....C.."),
        ];
        for (row, (arming, want)) in rows.into_iter().enumerate() {
            let (store, view) = MemoryBackend::shared();
            write_epoch(&view, 1, vec![(0, vec![1]), (1, vec![2])]).unwrap();
            let (b, ctl) = FailingBackend::new(store);
            arming(&ctl);
            assert_eq!(script(&b), want, "row {row}");
            assert_eq!(ctl.ops(), 8 - want.matches('-').count() as u64);
            match row {
                // A crash names the call it hit and leaks the session
                // dropped after it: the store still holds it open.
                2 => {
                    let hit = ctl.fired().unwrap();
                    assert_eq!((hit.number, hit.kind, hit.leaf), (5, FaultOp::Finish, 0));
                    assert!(view.begin_epoch(3).is_err(), "leaked, not aborted");
                }
                // A budget lands the first records of the batch it cuts.
                9 => assert_eq!(view.epoch_page_ids(2).unwrap(), vec![0, 1]),
                // A burst is spent call by call.
                10 => assert_eq!(ctl.transient_remaining(FaultOp::Read), 0),
                11 => assert_eq!(ctl.transient_remaining(FaultOp::Read), 7),
                // The batch's first record rots, through a heal, until a
                // rewrite replaces the epoch's bytes.
                13 => {
                    ctl.heal();
                    assert_eq!(b.verify_epoch(2).unwrap().corrupt_pages, vec![0]);
                    b.rewrite_epoch(2, &[(0, &[7])]).unwrap();
                    assert!(ctl.rot().is_empty() && b.read_epoch(2, &mut |_, _| {}).is_ok());
                }
                _ => {}
            }
            ctl.heal();
            assert!(b.epochs().is_ok() && b.drain_one().is_ok(), "row {row}");
        }
    }

    #[test]
    fn a_shared_control_numbers_every_leaf_in_call_order() {
        let ctl = FailureControl::new();
        let a = FailingBackend::with_control(MemoryBackend::new(), ctl.clone());
        let b = FailingBackend::with_control(MemoryBackend::new(), ctl.clone());
        ctl.arm(When::At(3), Fault::Fail);
        assert!(a.epochs().is_ok() && b.epochs().is_ok());
        assert!(a.epochs().is_err(), "call 3");
        assert_eq!(ctl.fired().map(|c| c.leaf), Some(0));
        // A kill takes every leaf down; rot armed for every leaf hits both.
        ctl.kill();
        assert!(a.epochs().is_err() && b.epochs().is_err());
        ctl.heal();
        ctl.corrupt_read_payload(1, 0, 3);
        for leaf in [&a, &b] {
            write_epoch(leaf, 1, vec![(0, vec![1])]).unwrap();
            assert!(leaf.read_page_at(1, 0).is_err());
        }
        a.rewrite_epoch(1, &[(0, &[1])]).unwrap();
        assert!(ctl.rot().is_empty(), "a rewrite of any leaf clears it");
        assert_eq!(ctl.ops(), 5 + 2 * 4 + 1);
    }
}
