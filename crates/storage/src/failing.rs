//! Failure injection: one numbered gate every call passes, so a test can
//! fail, burst, crash or rot any backend operation — and any mutating
//! syscall of the file engine under it. Storage *will* fail in production,
//! and the whole point of checkpointing is surviving that.
//!
//! # Numbering
//!
//! Every entry point [`FailingBackend`] spells out, and its sessions'
//! `write_pages`, `finish` and `abort`, pass the gate of its
//! [`FailureControl`] exactly once. So does every mutating syscall of a
//! [`FileBackend`](crate::FileBackend) opened on a leaf
//! ([`FileBackend::open_on`](crate::FileBackend::open_on)) — one call of
//! kind [`FaultOp::Sys`] each:
//!
//! | [`Syscall`] | where the file engine makes it |
//! |---|---|
//! | `Mkdir` | `open` creating its directory (each missing level) |
//! | `Create` | a segment shard or staged image; a commit log's staging file |
//! | `Write` | a segment's header, batch and trailer `pwritev`; a commit-log append or create |
//! | `SetLen` | a segment's seal; a commit log cutting a tear or undoing a failed append |
//! | `Fsync` | a segment's seal; a commit log's append or create |
//! | `DirSync` | an epoch commit, a staged rename, a log create, `open`'s new directory |
//! | `Rename` | a staged segment or log moved into place |
//! | `Unlink` | shard GC, abort, `open`'s orphan sweep |
//!
//! The gate numbers the call — 1, 2, … on the control's counter
//! ([`FailureControl::ops`], every call in [`FailureControl::journal`]) —
//! and applies what the control's one table has armed for it. A control
//! shared by several stores numbers the calls of each, in call order; those
//! stores are its *leaves*, numbered 0, 1, … in the order they were
//! registered ([`FailureControl::leaf`]; a `FileBackend` and the
//! `FailingBackend` around it share one). The pure counters
//! (`bytes_written`, `bytes_stored`, `io_stats`, `drain_backlog`,
//! `supports_compaction`) are not calls: they cannot fail.
//!
//! # Arming
//!
//! [`FailureControl::arm`] puts `(when, fault)` in the table, replacing
//! whatever was armed for the same `when`; [`FailureControl::arm_on`] puts
//! it there for one leaf's calls only — the entry's one extra field:
//!
//! | [`When`] | the calls it selects |
//! |---|---|
//! | `At(k)` | call `k` (then the entry is gone) |
//! | `From(k)` | call `k` and every later call: the process died at call `k`, so a session dropped after that is leaked, never aborted, and a write it stopped is kept whole ([`FailureControl::stopped_write`]) for a test to land a torn prefix of |
//! | `Kind(op)` | every call of one [`FaultOp`] kind |
//! | `Always` | every call (a [`kill`](FailureControl::kill)) |
//!
//! Armed on one leaf, `From(k)` is that leaf going down at call `k` while
//! its peers keep answering — an outage, not a crash: sessions dropped
//! afterwards are aborted as usual.
//!
//! | [`Fault`] | what a selected call does |
//! |---|---|
//! | `Fail` | fails before it reaches the wrapped store ([`Permanent`](crate::FaultClass::Permanent)); a syscall fails `EIO`, and a failed `Fsync` loses the file's unsynced bytes for good (below) |
//! | `Burst(n)` | fails `Interrupted` ([`Transient`](crate::FaultClass::Transient)) `n` times, then the entry is spent |
//! | `FailAfter(n)` | lets `n` more page records land, then fails: a batch that straddles the budget lands its first records, a run read (`read_pages_at`) its first pages |
//! | `Corrupt` | proceeds, with the record it writes first or reads rotten at rest — a page batch's first, an installed image's first, the page of a `read_page_at`, a run's middle page (the run fails there), a `read_epoch` stream's layout record ([`META_RECORD`]): reads of it fail `InvalidData` until its epoch is rewritten |
//!
//! Entries stay armed until [`FailureControl::heal`]; rot survives it —
//! recovering the transport cannot un-flip stored bytes. `kill` and `fail`
//! are the two named arms; everything else arms through `arm` directly.
//!
//! [`FailureControl::on_call`] hooks a test into the numbering: its
//! closure runs at every backend call (not a syscall), once the call is
//! numbered and before it reaches the wrapped store, on the calling thread
//! and outside the control's lock — so a test can act between numbered
//! calls, e.g. write the pages a flush is about to write.
//!
//! # The disk model
//!
//! Under a control the device is modeled, not asked: an `Fsync` or
//! `DirSync` is recorded, never issued. The control keeps what a power cut
//! would leave ([`FailureControl::power_cut`]): each file keeps the bytes it
//! had at its last fsync, each directory the entries it had at its last
//! directory fsync — creates and renames never synced vanish, unlinks never
//! synced come back, a directory whose own entry was never synced is gone
//! with everything in it. A failed fsync poisons its file, as on Linux: the
//! bytes it failed to flush never become durable, whatever a later fsync
//! reports, until a truncate cuts them off. One fault-free run records the
//! durable state after every barrier, so it answers `power_cut(k)` for
//! every `k`. Files and directories that existed before the control saw
//! them count as durable.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{EpochWriter, PageRead, StorageBackend, META_RECORD};
use crate::errors::transient;
use crate::io::Sys;
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
    /// The record reads: `read_epoch`, `epoch_page_ids`, `read_page_at`, a
    /// `read_pages_at` run, `record_meta`, `verify_epoch`.
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
    /// One mutating syscall of the file engine (see the module docs).
    Sys(Syscall),
}

/// A mutating syscall of the file engine (see the module docs' table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// `mkdir` of a checkpoint directory level.
    Mkdir,
    /// `open(O_CREAT | O_TRUNC)` of a file the engine writes.
    Create,
    /// A positioned write (`pwritev` or `pwrite`).
    Write,
    /// `ftruncate`.
    SetLen,
    /// `fsync` of a file.
    Fsync,
    /// `fsync` of a directory.
    DirSync,
    /// `rename`.
    Rename,
    /// `unlink`.
    Unlink,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Its number on the control's counter.
    pub number: u64,
    /// What it was.
    pub kind: FaultOp,
    /// The leaf it reached.
    pub leaf: usize,
    /// The file or directory a syscall named (a rename's target).
    pub path: Option<PathBuf>,
}

/// At-rest rot the control keeps armed: reads of the record fail
/// `InvalidData` until its epoch is rewritten through the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rot {
    /// The leaf whose copy rotted.
    pub leaf: usize,
    /// The record's epoch.
    pub epoch: u64,
    /// The record's page id.
    pub page: u64,
    /// The stored byte that flipped (named in the error).
    pub byte: u64,
}

/// The write a crash stopped: what a torn write would have landed a
/// prefix of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoppedWrite {
    /// The file written.
    pub path: PathBuf,
    /// Where the write started.
    pub at: u64,
    /// Everything it would have written.
    pub bytes: Vec<u8>,
}

/// What a power cut leaves of the files and directories a control modeled
/// (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PowerCut {
    /// Every file with a durable entry, and the bytes it keeps.
    pub files: BTreeMap<PathBuf, Arc<Vec<u8>>>,
    /// Every directory with a durable entry. One the control saw created
    /// and is not here is gone, with everything in it.
    pub dirs: BTreeSet<PathBuf>,
}

/// The durable half of the disk model: what a power cut keeps.
#[derive(Debug, Clone, Default)]
struct Durable {
    /// Path → inode of every entry a directory fsync made durable.
    names: BTreeMap<PathBuf, u64>,
    /// Inode → the bytes its last fsync made durable (absent: none).
    bytes: BTreeMap<u64, Arc<Vec<u8>>>,
}

/// The disk model behind [`FailureControl::power_cut`].
#[derive(Debug, Default)]
struct Disk {
    /// Path → inode, as the process sees the tree now.
    names: BTreeMap<PathBuf, u64>,
    /// The inodes that are directories.
    dirs: BTreeSet<u64>,
    /// The directories the control saw made: nothing appears in one but
    /// through the control.
    made: BTreeSet<u64>,
    /// Inodes handed out so far.
    inodes: u64,
    /// Inodes whose last fsync failed, with their durable length then: the
    /// bytes past it are lost until a truncate to that length.
    poisoned: BTreeMap<u64, u64>,
    durable: Durable,
    /// The durable state after each barrier, by the barrier's number.
    history: Vec<(u64, Durable)>,
}

impl Disk {
    /// The inode behind `path`, adopting — durable as found — a file or
    /// directory that existed before the control saw it.
    fn inode(&mut self, path: &Path) -> Option<u64> {
        if let Some(&ino) = self.names.get(path) {
            return Some(ino);
        }
        let parent = path.parent().and_then(|dir| self.names.get(dir));
        if parent.is_some_and(|dir| self.made.contains(dir)) {
            return None;
        }
        let meta = fs::metadata(path).ok()?;
        let ino = self.fresh(path);
        if meta.is_dir() {
            self.dirs.insert(ino);
        } else {
            let bytes = fs::read(path).unwrap_or_default();
            self.durable.bytes.insert(ino, Arc::new(bytes));
        }
        self.durable.names.insert(path.to_owned(), ino);
        Some(ino)
    }

    /// A new inode, named `path` from now on.
    fn fresh(&mut self, path: &Path) -> u64 {
        self.inodes += 1;
        self.names.insert(path.to_owned(), self.inodes);
        self.inodes
    }

    /// Before `sys` runs: adopt whatever it touches that already exists.
    fn before(&mut self, sys: &Sys<'_>) {
        self.inode(sys.path);
        if sys.kind == Syscall::Rename {
            self.inode(sys.from);
        }
    }

    /// `sys` failed `EIO`: a failed fsync poisons its file.
    fn failed(&mut self, sys: &Sys<'_>) {
        if sys.kind == Syscall::Fsync {
            if let Some(ino) = self.inode(sys.path) {
                let durable = self.durable.bytes.get(&ino).map_or(0, |b| b.len() as u64);
                self.poisoned.entry(ino).or_insert(durable);
            }
        }
    }

    /// After `sys`, call `number`, returned `Ok`.
    fn after(&mut self, number: u64, sys: &Sys<'_>) {
        let path = sys.path;
        match sys.kind {
            Syscall::Mkdir => {
                let ino = self.fresh(path);
                self.dirs.insert(ino);
                self.made.insert(ino);
            }
            // `O_TRUNC` cuts whatever a failed fsync left unflushed.
            Syscall::Create => match self.names.get(path) {
                Some(ino) => drop(self.poisoned.remove(ino)),
                None => drop(self.fresh(path)),
            },
            Syscall::Write => {}
            Syscall::SetLen => {
                if let Some(ino) = self.names.get(path) {
                    if self.poisoned.get(ino).is_some_and(|&good| sys.at <= good) {
                        self.poisoned.remove(ino);
                    }
                }
            }
            Syscall::Fsync => {
                let Some(&ino) = self.names.get(path) else {
                    return;
                };
                if !self.poisoned.contains_key(&ino) {
                    let bytes = fs::read(path).unwrap_or_default();
                    self.durable.bytes.insert(ino, Arc::new(bytes));
                    self.history.push((number, self.durable.clone()));
                }
            }
            Syscall::DirSync => {
                let in_dir = |entry: &&PathBuf| entry.parent() == Some(path);
                let named: BTreeSet<PathBuf> = (self.names.keys().filter(in_dir))
                    .chain(self.durable.names.keys().filter(in_dir))
                    .cloned()
                    .collect();
                for entry in named {
                    match self.names.get(&entry) {
                        Some(&ino) => self.durable.names.insert(entry, ino),
                        None => self.durable.names.remove(&entry),
                    };
                }
                self.history.push((number, self.durable.clone()));
            }
            Syscall::Rename => {
                if let Some(ino) = self.names.remove(sys.from) {
                    self.names.insert(path.to_owned(), ino);
                }
            }
            Syscall::Unlink => {
                self.names.remove(path);
            }
        }
    }

    /// What a power cut just before call `k` leaves.
    fn power_cut(&self, k: u64) -> PowerCut {
        let durable = match self.history.iter().rposition(|&(at, _)| at < k) {
            Some(i) => &self.history[i].1,
            None => &Durable::default(),
        };
        let mut cut = PowerCut::default();
        for (path, ino) in &durable.names {
            if self.dirs.contains(ino) {
                cut.dirs.insert(path.clone());
            } else {
                let bytes = durable.bytes.get(ino).cloned().unwrap_or_default();
                cut.files.insert(path.clone(), bytes);
            }
        }
        cut
    }
}

/// A test's closure run at every backend call.
#[derive(Clone)]
struct Hook(Arc<dyn Fn(&Call) + Send + Sync>);

impl std::fmt::Debug for Hook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Hook")
    }
}

#[derive(Debug, Default)]
struct Table {
    /// Calls numbered so far.
    calls: u64,
    /// Every call numbered so far, in order.
    journal: Vec<Call>,
    /// Leaves registered so far.
    leaves: usize,
    /// What is armed: the calls selected, on which leaf (`None`: any),
    /// and the fault.
    armed: Vec<(When, Option<usize>, Fault)>,
    rot: Vec<Rot>,
    /// The first call an `At` or `From` entry selected.
    fired: Option<Call>,
    /// A `From` entry fired: sessions dropped from now on are leaked.
    crashed: bool,
    /// The write the crash stopped, if it stopped one.
    stopped: Option<StoppedWrite>,
    disk: Disk,
    hook: Option<Hook>,
}

impl Table {
    /// Number one call of `kind` on `leaf` (naming `path`), which writes
    /// `records` page records starting with `first`, and apply what is
    /// armed to it. `Ok` carries how many of the records may land.
    fn gate(
        &mut self,
        leaf: usize,
        kind: FaultOp,
        path: Option<&Path>,
        first: Option<(u64, u64)>,
        records: usize,
    ) -> io::Result<usize> {
        let Table {
            calls,
            journal,
            armed,
            rot,
            fired,
            crashed,
            ..
        } = self;
        *calls += 1;
        let number = *calls;
        let call = Call {
            number,
            kind,
            leaf,
            path: path.map(Path::to_owned),
        };
        let (mut land, mut failure) = (records, None);
        armed.retain_mut(|(when, on, fault)| {
            let selected = match *when {
                When::At(k) => k == number,
                When::From(k) => k <= number,
                When::Kind(op) => op == kind,
                When::Always => true,
            };
            if !selected || on.is_some_and(|on| on != leaf) {
                return true;
            }
            if let When::At(_) | When::From(_) = when {
                fired.get_or_insert_with(|| call.clone());
                *crashed |= matches!(when, When::From(_)) && on.is_none();
            }
            match fault {
                Fault::Fail => {
                    failure.get_or_insert_with(|| injected(kind));
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
                    leaf,
                    epoch,
                    page,
                    byte: 0,
                })),
            }
            !matches!(when, When::At(_)) && *fault != Fault::Burst(0)
        });
        journal.push(call);
        failure.map_or(Ok(land), Err)
    }
}

/// The one gate and its arming table, shared by every leaf registered on
/// it (clones share it too).
#[derive(Debug, Clone, Default)]
pub struct FailureControl {
    table: Arc<Mutex<Table>>,
}

impl FailureControl {
    /// A control with nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the next leaf: a store whose calls this control numbers.
    pub fn leaf(&self) -> Leaf {
        let mut table = self.table.lock();
        table.leaves += 1;
        Leaf {
            control: self.clone(),
            index: table.leaves - 1,
        }
    }

    /// Arm `fault` for the calls `when` selects, replacing whatever was
    /// armed for the same `when` (`Burst(0)` just disarms it).
    pub fn arm(&self, when: When, fault: Fault) {
        self.arm_entry(when, None, fault);
    }

    /// [`arm`](Self::arm) for the calls of leaf `leaf` alone.
    pub fn arm_on(&self, leaf: usize, when: When, fault: Fault) {
        self.arm_entry(when, Some(leaf), fault);
    }

    fn arm_entry(&self, when: When, leaf: Option<usize>, fault: Fault) {
        let mut table = self.table.lock();
        table.armed.retain(|&(w, on, _)| (w, on) != (when, leaf));
        if fault != Fault::Burst(0) {
            table.armed.push((when, leaf, fault));
        }
    }

    /// Run `hook` at every backend call from now on (see the module docs).
    pub fn on_call(&self, hook: impl Fn(&Call) + Send + Sync + 'static) {
        self.table.lock().hook = Some(Hook(Arc::new(hook)));
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

    /// Every call numbered so far, in order.
    pub fn journal(&self) -> Vec<Call> {
        self.table.lock().journal.clone()
    }

    /// The first call an `At` or `From` entry selected, if one did.
    pub fn fired(&self) -> Option<Call> {
        self.table.lock().fired.clone()
    }

    /// The write a crash (`From`) stopped, if call `k` was a write.
    pub fn stopped_write(&self) -> Option<StoppedWrite> {
        self.table.lock().stopped.clone()
    }

    /// What a power cut just before call `k` would leave of the files and
    /// directories the leaves' syscalls touched (`u64::MAX`: a power cut
    /// now).
    pub fn power_cut(&self, k: u64) -> PowerCut {
        self.table.lock().disk.power_cut(k)
    }

    /// The rot still armed.
    pub fn rot(&self) -> Vec<Rot> {
        self.table.lock().rot.clone()
    }

    /// Fail every call, as if the device vanished; `heal` brings it back
    /// (a kill is unavailability, not loss).
    pub fn kill(&self) {
        self.arm(When::Always, Fault::Fail);
    }

    /// Make every call of `op` fail — or, `yes = false`, stop.
    pub fn fail(&self, op: FaultOp, yes: bool) {
        let fault = if yes { Fault::Fail } else { Fault::Burst(0) };
        self.arm(When::Kind(op), fault);
    }

    /// The rot armed on `leaf`'s copy of `epoch`.
    fn rot_of(&self, leaf: usize, epoch: u64) -> Vec<Rot> {
        let table = self.table.lock();
        let on_leaf = |rot: &&Rot| (rot.leaf, rot.epoch) == (leaf, epoch);
        table.rot.iter().filter(on_leaf).copied().collect()
    }

    /// A rewrite replaced `leaf`'s copy of `epoch`: its rot is gone.
    fn clear_rot(&self, leaf: usize, epoch: u64) {
        let mut table = self.table.lock();
        table
            .rot
            .retain(|rot| (rot.leaf, rot.epoch) != (leaf, epoch));
    }
}

/// One leaf of a control: the handle a store numbers its calls on.
#[derive(Debug, Clone)]
pub struct Leaf {
    control: FailureControl,
    index: usize,
}

impl Leaf {
    /// Gate one call that writes no page record, then make it.
    fn gated<T>(&self, kind: FaultOp, call: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        self.gate(kind, None, 0)?;
        call()
    }

    /// Gate one call of `kind` that writes `records` page records starting
    /// with `first`; `Ok` carries how many may land.
    fn gate(&self, kind: FaultOp, first: Option<(u64, u64)>, records: usize) -> io::Result<usize> {
        let mut table = self.control.table.lock();
        let result = table.gate(self.index, kind, None, first, records);
        let hooked = (table.hook.clone()).map(|Hook(hook)| (hook, table.journal.last().cloned()));
        drop(table);
        if let Some((hook, Some(call))) = hooked {
            hook(&call);
        }
        result
    }

    /// Gate the syscall `sys` (see [`crate::io`]): `Ok` carries its number,
    /// for [`Leaf::done`] once it returned `Ok`.
    pub(crate) fn enter(&self, sys: &Sys<'_>) -> io::Result<u64> {
        let mut table = self.control.table.lock();
        table.disk.before(sys);
        let kind = FaultOp::Sys(sys.kind);
        let result = table.gate(self.index, kind, Some(sys.path), None, 0);
        let number = table.calls;
        if result.is_err() {
            let crashed_here =
                table.crashed && table.fired.as_ref().map(|c| c.number) == Some(number);
            match sys.kind {
                Syscall::Write if crashed_here => {
                    table.stopped = Some(StoppedWrite {
                        path: sys.path.to_owned(),
                        at: sys.at,
                        bytes: sys.bytes.to_vec(),
                    });
                }
                _ if !crashed_here => table.disk.failed(sys),
                _ => {}
            }
        }
        result.map(|_| number)
    }

    /// The syscall numbered `number` returned `Ok`: the disk model follows.
    pub(crate) fn done(&self, number: u64, sys: &Sys<'_>) {
        self.control.table.lock().disk.after(number, sys);
    }
}

fn injected(kind: FaultOp) -> io::Error {
    match kind {
        FaultOp::Sys(_) => io::Error::from_raw_os_error(libc::EIO),
        _ => io::Error::other("injected storage failure"),
    }
}

/// Backend wrapper that fails on command: one leaf of its control.
#[derive(Debug)]
pub struct FailingBackend<B> {
    inner: B,
    leaf: Leaf,
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
        Self::on(inner, control.leaf())
    }

    /// Wrap `inner` as `leaf` — the leaf a `FileBackend` opened with
    /// [`open_on`](crate::FileBackend::open_on) numbers its syscalls on, so
    /// the store's calls and its syscalls share one leaf.
    pub fn on(inner: B, leaf: Leaf) -> Self {
        Self { inner, leaf }
    }

    fn gated<T>(&self, kind: FaultOp, call: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        self.leaf.gated(kind, call)
    }
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
    leaf: Leaf,
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
        let land = self.leaf.gate(FaultOp::Write, first, batch.len())?;
        if land > 0 {
            self.session().write_pages(&batch[..land])?;
        }
        match land < batch.len() {
            true => Err(injected(FaultOp::Write)),
            false => Ok(()),
        }
    }

    fn finish(&self) -> io::Result<()> {
        self.leaf.gated(FaultOp::Finish, || self.session().finish())
    }

    fn abort(&self) -> io::Result<()> {
        self.leaf.gated(FaultOp::Abort, || self.session().abort())
    }
}

impl Drop for FailingEpochWriter {
    fn drop(&mut self) {
        // A dead process runs no cleanup: the session's files stay exactly
        // where the crash left them, for the next open to find.
        if self.leaf.control.table.lock().crashed {
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
            leaf: self.leaf.clone(),
            epoch,
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.gated(FaultOp::List, || self.inner.epochs())
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.leaf
            .gate(FaultOp::Read, Some((epoch, META_RECORD)), 0)?;
        // A stream cannot step over rot: the first rotten record of the
        // epoch fails the whole read, exactly as a CRC mismatch would.
        match self.leaf.control.rot_of(self.leaf.index, epoch).first() {
            Some(rot) => Err(rotten(rot)),
            None => self.inner.read_epoch(epoch, visit),
        }
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        // Page ids come from the segment index, not the payloads: the
        // listing survives rot.
        self.gated(FaultOp::Read, || self.inner.epoch_page_ids(epoch))
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        self.leaf.gate(FaultOp::Read, Some((epoch, page)), 0)?;
        let rot = self.leaf.control.rot_of(self.leaf.index, epoch);
        match rot.iter().find(|rot| rot.page == page) {
            Some(rot) => Err(rotten(rot)),
            None => self.inner.read_page_at(epoch, page),
        }
    }

    // One gated call per run, as the file engine reads it with one `pread`:
    // the run lands up to its first rotten page or its `FailAfter` budget,
    // and that page fails.
    fn read_pages_at(
        &self,
        epoch: u64,
        pages: &[u64],
        buf: &mut Vec<u8>,
        visit: &mut dyn FnMut(u64, io::Result<PageRead<'_>>) -> ControlFlow<()>,
    ) {
        let middle = pages.get(pages.len() / 2).map(|&page| (epoch, page));
        let gated = self.leaf.gate(FaultOp::Read, middle, pages.len());
        let rot = self.leaf.control.rot_of(self.leaf.index, epoch);
        let rotten_at = |page: u64| rot.iter().find(|rot| rot.page == page);
        let land = *gated.as_ref().unwrap_or(&0);
        let end = pages[..land].iter().position(|&p| rotten_at(p).is_some());
        let (end, mut going) = (end.unwrap_or(land), true);
        if end > 0 {
            self.inner
                .read_pages_at(epoch, &pages[..end], buf, &mut |page, got| {
                    let ok = got.is_ok();
                    let flow = visit(page, got);
                    going = ok && flow.is_continue();
                    flow
                });
        }
        if let Some(&page) = pages.get(end).filter(|_| going) {
            let e = gated.err().or(rotten_at(page).map(rotten));
            let _ = visit(page, Err(e.unwrap_or_else(|| injected(FaultOp::Read))));
        }
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
        self.leaf.gate(FaultOp::InstallCompacted, first, 0)?;
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
            for rot in self.leaf.control.rot_of(self.leaf.index, epoch) {
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
            self.leaf.control.clear_rot(self.leaf.index, epoch);
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
    /// (failed), `T` (transient), `C` (corrupt) or `-` (no session to call)
    /// — in lower case where a run read failed after its first page landed.
    fn script(b: &dyn StorageBackend) -> String {
        let code = |r: io::Result<()>| match r.map_err(|e| e.kind()) {
            Ok(()) => '.',
            Err(io::ErrorKind::Interrupted) => 'T',
            Err(io::ErrorKind::InvalidData) => 'C',
            Err(_) => 'F',
        };
        let listed = code(b.epochs().map(drop));
        let mut run = '.';
        b.read_pages_at(1, &[0, 1], &mut Vec::new(), &mut |page, got| {
            if let Err(e) = got {
                let c = code(Err(e));
                run = if page == 0 { c } else { c.to_ascii_lowercase() };
            }
            ControlFlow::Continue(())
        });
        let mut out = vec![listed, run];
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
        let rows: [(Arming, &str); 16] = [
            (|_| {}, "........"),
            (|c| c.arm(When::At(2), Fault::Fail), ".F......"),
            (|c| c.arm(When::From(5), Fault::Fail), "....FFFF"),
            (FailureControl::kill, "FFF--FFF"),
            (|c| c.fail(FaultOp::Read, true), ".F...F.."),
            (|c| c.fail(FaultOp::BeginEpoch, true), "..F--F.."),
            (|c| c.fail(FaultOp::Finish, true), "....FF.."),
            (|c| c.fail(FaultOp::DrainOne, true), "......F."),
            (|c| c.fail(FaultOp::RemoveEpoch, true), ".......F"),
            (
                |c| c.arm(When::Kind(FaultOp::Write), Fault::FailAfter(2)),
                "...F....",
            ),
            (
                |c| c.arm(When::Kind(FaultOp::Read), Fault::Burst(1)),
                ".T......",
            ),
            (
                |c| c.arm(When::Kind(FaultOp::Read), Fault::Burst(9)),
                ".T...T..",
            ),
            (|c| c.arm(When::At(4), Fault::Burst(1)), "...T...."),
            (|c| c.arm(When::At(4), Fault::Corrupt), ".....C.."),
            // A run read lands its budget, and fails at its middle page rot.
            (|c| c.arm(When::At(2), Fault::FailAfter(1)), ".f......"),
            (|c| c.arm(When::At(2), Fault::Corrupt), ".c......"),
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
        let (a_store, a_view) = MemoryBackend::shared();
        let a = FailingBackend::with_control(a_store, ctl.clone());
        let b = FailingBackend::with_control(MemoryBackend::new(), ctl.clone());
        ctl.arm(When::At(3), Fault::Fail);
        assert!(a.epochs().is_ok() && b.epochs().is_ok());
        assert!(a.epochs().is_err(), "call 3");
        assert_eq!(ctl.fired().map(|c| c.leaf), Some(0));
        // A kill takes every leaf down.
        ctl.kill();
        assert!(a.epochs().is_err() && b.epochs().is_err());
        ctl.heal();
        // Leaf 0 goes down at call 7 while leaf 1 keeps answering: an
        // outage, not a crash, so the session dropped on it is aborted.
        ctl.arm_on(0, When::From(7), Fault::Fail);
        let session = a.begin_epoch(1).unwrap();
        assert!(b.epochs().is_ok() && session.finish().is_err());
        drop(session);
        assert!(a.epochs().is_err() && b.epochs().is_ok());
        ctl.heal();
        assert!(a_view.begin_epoch(1).is_ok(), "aborted, not leaked");
        assert_eq!(ctl.ops(), 10);
    }
}
