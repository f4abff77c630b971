//! Every backend call and every syscall of the file engine is a crash point.
//!
//! One small scenario — commit epochs 1–4, each closed by the layout record
//! of one real `PageManager` checkpoint; drain until idle; retire epoch 4 (a
//! rolled-back group checkpoint); fold the chain into epoch 3; commit epoch
//! 5; one full scrub pass — runs over five stacks: a lone `FileBackend`, a
//! `TieredBackend` over two file directories, one of memory over file, a
//! `ReplicatedBackend` over two file directories (`replica2`), and the
//! policy [`POLICY`] — a bounded plain level, a two-replica level and a
//! parity level — over four (`policy`). A sixth stack, `group`, is a
//! two-rank `CheckpointGroup`: each rank a file leaf in the root's
//! `rank_NNNN/`, `GLOBAL` on a third leaf. Its scenario drives real buffers:
//! group checkpoints 1–5, each rank's buffer written like the epoch's
//! records first; the group's fold after checkpoint 4; a scrub of each
//! rank. A seventh, `buffer`, is one `PageManager` over one file leaf (one
//! committer stream, the content filter on, two CoW slots) checkpointing
//! a six-page buffer five times; a gate hook
//! ([`FailureControl::on_call`]) hands a writer thread pages to write at
//! each flush's numbered calls, so a page is hit before its flush (a CoW),
//! during it (a WAIT) and after it. Every leaf store is wrapped under one
//! shared `FailureControl`, and every file leaf — `GLOBAL` too — numbers
//! its mutating syscalls on the same leaf (create, write, truncate, fsync,
//! directory fsync, rename, unlink, mkdir), so a fault-free run gives the
//! scenario's call count N. A case id names one call only if every run
//! numbers its calls the same way, so the fault-free scenario runs twice
//! and the two journals must agree call for call, and the fault of every
//! case must fire, at the fault-free run's call k. The sweep reruns the
//! scenario for **every** k in 1..=N: crash from k and fail at k; at a
//! backend call also burst it, and corrupt it if it writes records; and —
//! on a stack of several leaves other than the group, where a rank down is
//! a failed phase 1 — take that call's leaf L down from k while its peers
//! keep answering (`down:L:k`), and at a call on the policy's partner level
//! both of its leaves (`down:partner:k`); at a write, crash with each torn
//! prefix of it landed (every byte cut of a commit-log write, each frame
//! boundary ±1 of a segment write). A step that returns `Err` is aborted
//! and skipped, as the runtime would; a crash leaks its open sessions and
//! issues no further call; the drain retries transient faults exactly as
//! the maintenance worker does.
//!
//! Durability is modeled by the control: a power cut keeps each file's
//! bytes as of its last fsync and each directory's entries as of its last
//! directory fsync. The fault-free run's record answers a power cut just
//! before every k, and a failed fsync or directory fsync is followed by a
//! power cut at the end of its run. Damage at rest rides on the files the
//! fault-free run leaves: every byte of each file flipped, each file cut at
//! each frame (or record) boundary and at every byte of a segment's
//! trailer, each file removed — the segment half in a child process under
//! `ulimit -v`.
//!
//! The file-over-file, replicated, policy, group and buffer stacks are
//! *lean*: made of file leaves the lone stack already sweeps, they buy
//! their time there.
//! A syscall fault lands in a leaf's own recovery, which `file` crashes,
//! fails and tears at every syscall, so a lean stack is crashed and failed
//! at backend calls only, and its segments are flipped and cut once per
//! field kind only. No other stack has a `GLOBAL`, so its syscalls are
//! crashed, failed and torn at every k and its every byte flipped. The
//! ranks checkpoint synchronously with one committer stream and scrub only
//! as a step, so a case's calls follow the scenario, not the schedule. The
//! buffer is crashed, failed and burst at backend calls only, with no power
//! cut and no damage at rest.
//!
//! A `down` case is judged twice. First its live handle, while the leaves
//! are still down: every door of a restore of the newest epoch the others
//! list fails loudly where that epoch's replay window in a model that fits
//! the listing holds an epoch the listing lacks, and otherwise restores
//! that model's image of it; after a drain that ran wholly under the
//! outage, the outermost child whose leaves are all up holds every listed
//! epoch committed before it; a fold — and, outside the policy's retirement
//! ledger, a retirement — that ran wholly under the outage was refused
//! before it read a record, with every leaf's chain as it was. Healed, the
//! handle drains until idle (a heal always converges), each unbounded
//! policy level alone loads what the stack does, and the handle must show
//! what a reopen must. Then the reopen.
//!
//! After each case the stack is reopened, without the wrapper (armed rot
//! becomes real flipped bytes first), and one oracle judges it:
//! * it lists what the model lists with each failed step applied or not —
//!   never a mix; memory over file, after a crash or power cut, a prefix of
//!   that (the memory tier is gone);
//! * a verify of a damaged segment's epoch sees the damage;
//! * eager and lazy restores of the newest listed epoch equal
//!   `CheckpointImage::load` of it, which equals the model — where bytes
//!   are damaged, a door may fail loudly instead, and over a cut segment no
//!   other leaf holds every door must; over one another leaf holds, every
//!   door serves the model;
//! * a reopen that fails deletes nothing, and only damaged bytes may make it
//!   fail;
//! * no directory holds a file of an epoch its store does not list;
//! * a second reopen lists the same epochs and changes no byte;
//! * a drain to idle keeps the listing and leaves every epoch on the
//!   outermost child — a tiered stack nothing on its fast tier, while a
//!   policy's bounded level keeps resident copies;
//! * a burst on the drain, which is retried, changes nothing at all.
//!
//! Where real buffers are checkpointed — the group's and `buffer` — the
//! model is the buffer: epoch e restores the bytes it held at `CHECKPOINT`
//! e, whatever failed before it, and every listed epoch is loaded, not
//! just the newest (a page a failed checkpoint lost may be rewritten
//! later).
//!
//! On the group each rank is judged so (its bytes XORed with a salt of its
//! own; damage to one rank lets only its doors fail), then the group's
//! rules (see [`judge_group`]): one history on every rank, ending at the
//! last group commit; no checkpoint that returned `Err` while the
//! coordinator lived ever listed, nor a file of its epoch left on a rank
//! when it returned (judged before the reopen, whose recovery would
//! delete it); a reopen that appends nothing to a rank's log but
//! retirements; `restore_latest` the model's; the next
//! checkpoint numbered above every number a log names.
//!
//! The restore is a crash point too: the read sweep, two tests of its own
//! (on userfaultfd write-protect, and on the `mprotect` fallback). On each
//! stack's fault-free end state each door of a restore of the newest epoch
//! (on the group, of rank 0's store) runs once to list its R reads — calls
//! of kind `Read`, one per run on a file leaf — then once per read k and
//! mode: a burst, every call failing from k (`crash`), rot of what read k
//! fetches, a gate hook panicking, and on a stack of several leaves read
//! k's leaf down. A door yields the model or fails loudly; a burst, a leaf
//! down whose peers hold the replay window and rot a peer can repair must
//! restore (`load` retries nothing: a burst may fail it `Interrupted`), and
//! other rot fails `InvalidData`. Healed, the stack restores exactly. Every
//! door any case judges runs through [`open_door`], which judges the door's
//! own rules: nothing hangs, and a lazy fill is probed while it runs.
//!
//! A failure names its case — `stack:mode:k`, `stack:down:L:k`,
//! `policy:down:partner:k`, `stack:tear:k:b`, `stack:powercut:k`, `stack:rot|cut:FILE:b`,
//! `stack:lose:FILE`, `stack:read:DOOR:mode:k` (DOOR `load`, `eager` or
//! `lazy`; mode `burst`, `crash`, `corrupt`, `panic` or `down:L`; k counts
//! the door's reads) — with the call's kind, leaf and path. To replay one
//! case with its step log printed: `CRASH_POINTS=policy:down:1:187 cargo
//! test --test crash_points -- --nocapture` (`group:fail:78`: rank 1's
//! `finish` of checkpoint 2; `buffer:fail:36`: the `finish` of checkpoint
//! 2, whose pages checkpoint 3 must carry; `file:read:lazy:crash:5`: the
//! lazy door's second run read fails).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::ops::RangeInclusive;
use std::os::unix::fs::FileExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

use ai_ckpt::{
    layout, restore_at, restore_lazy, CkptConfig, CkptMode, CompactionPolicy, FlushPool,
    PageManager, ProtectedBuffer,
};
use ai_ckpt_coord::{
    global, rank_dir, CheckpointGroup, GroupConfig, GroupStats, GLOBAL_MANIFEST_FILE,
};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::failing::{Call, Fault, Leaf, PowerCut, StoppedWrite, Syscall, When};
use ai_ckpt_storage::{
    corrupt_segment_region, log, replay_window, write_epoch, ChainEntry, CheckpointImage,
    EpochKind, FailingBackend, FailureControl, FaultOp, FileBackend, ManifestRecord, MemoryBackend,
    PolicyBuilder, ReplicatedBackend, ResilienceSpec, RetryPolicy, ScrubPolicy, Scrubber,
    SegmentRegion, StorageBackend, TieredBackend, META_RECORD,
};

/// Pages of the scenario's one protected buffer.
const PAGES: u64 = 6;

/// Undrained epochs a fast tier may hold: commits 3 and 4 drain inline.
const FAST_CAPACITY: usize = 2;

/// The policy stack: a bounded plain level, a replicated level and a parity
/// level.
const POLICY: &str = "hot=plain#2 -> partner=replica*2 -> cold=parity*4";

/// The commit log's name, its magic and one wire record (33 + CRC); a
/// `GLOBAL` record is 21 + CRC.
const MANIFEST: &str = "MANIFEST";
const LOG_MAGIC: usize = 8;
const LOG_WIRE: usize = 41;
const GLOBAL_WIRE: usize = 29;

/// The group stack's ranks: leaves 0 and 1, with `GLOBAL` on leaf 2.
const RANKS: usize = 2;

/// A segment's header, record frame, trailer entry and trailer footer.
const SEG_HEADER: usize = 16;
const SEG_FRAME: usize = 25;
const SEG_ENTRY: usize = 16;
const SEG_FOOTER: usize = 24;

/// The test the segment half of the damage at rest runs in, re-run as a
/// child under an address-space limit, and the variable that marks it.
const SEGMENT_DAMAGE: &str = "segment_damage_at_rest_under_an_address_space_limit";
const CHILD: &str = "AICKPT_CRASH_POINTS_CHILD";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stack {
    File,
    FileOverFile,
    MemoryOverFile,
    /// `ReplicatedBackend` over two file stores.
    Replica2,
    /// [`POLICY`] over four file stores.
    Policy,
    /// A `CheckpointGroup` of [`RANKS`] file stores, `GLOBAL` beside them.
    Group,
    /// One `PageManager` over one file store; its model is the buffer.
    Buffer,
}

impl Stack {
    const ALL: [Stack; 6] = [
        Stack::File,
        Stack::FileOverFile,
        Stack::MemoryOverFile,
        Stack::Replica2,
        Stack::Policy,
        Stack::Group,
    ];

    fn name(self) -> &'static str {
        match self {
            Stack::File => "file",
            Stack::FileOverFile => "file-over-file",
            Stack::MemoryOverFile => "memory-over-file",
            Stack::Replica2 => "replica2",
            Stack::Policy => "policy",
            Stack::Group => "group",
            Stack::Buffer => "buffer",
        }
    }

    /// Each file store's directory name in case ids, in leaf order.
    fn dirs(self) -> &'static [&'static str] {
        match self {
            Stack::File | Stack::MemoryOverFile | Stack::Buffer => &[""],
            Stack::FileOverFile => &["fast", "slow"],
            Stack::Replica2 => &["replica0", "replica1"],
            Stack::Policy => &["hot", "partner0", "partner1", "cold"],
            // The ranks' directories live in the group's root, `GLOBAL` too.
            Stack::Group => &["rank0", "rank1", ""],
        }
    }

    /// A stack whose leaves are file stores the lone `file` stack already
    /// sweeps: a syscall fault lands in a leaf's own recovery, which `file`
    /// crashes, fails and tears at every syscall, so it is crashed and
    /// failed at backend calls only, and its segments are flipped and cut
    /// once per field kind, not at every byte and frame.
    fn lean(self) -> bool {
        !matches!(self, Stack::File | Stack::MemoryOverFile)
    }

    /// Whether the stack retires through the policy's ledger (a tiered
    /// stack is a policy): a retirement skips a level it cannot ask and
    /// settles it when the level heals, where any other composite refuses.
    fn ledger(self) -> bool {
        matches!(
            self,
            Stack::FileOverFile | Stack::MemoryOverFile | Stack::Policy
        )
    }

    /// Drain `b` until idle: the listing stays `listed`, every listed
    /// epoch is on the outermost child, and nothing is left on the
    /// innermost — the fast tier, the policy's bounded `hot`.
    fn drain_rule(self, b: &dyn StorageBackend, listed: &[u64]) -> Result<(), String> {
        let drained = (|| -> io::Result<()> {
            for _ in 0..64 {
                if b.drain_one()?.is_none() {
                    return Ok(());
                }
            }
            Err(io::Error::other("still busy after 64 drains"))
        })();
        let kids = composite(b).children();
        let ends = kids
            .first()
            .zip(kids.last())
            .filter(|_| self != Stack::Replica2);
        let Some(((_, inner), (_, outer))) = ends else {
            return drained.map_err(|e| format!("drain: {e}"));
        };
        let (left, on_outer, now) = (inner.epochs(), outer.epochs(), b.epochs());
        let holds_all = |o: &Vec<u64>| listed.iter().all(|e| o.contains(e));
        match drained.is_ok()
            && now.as_ref().is_ok_and(|now| now == listed)
            && on_outer.as_ref().is_ok_and(holds_all)
            && left.as_ref().is_ok_and(Vec::is_empty)
        {
            true => Ok(()),
            false => Err(format!(
                "drain {drained:?} left {left:?} inside, {on_outer:?} outermost, listing {now:?}"
            )),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Crash,
    Fail,
    Burst,
    Corrupt,
    /// Leaf `L` is down from call k while its peers keep answering.
    Down(usize),
    /// Both leaves of the policy's `partner` level are down from call k.
    PartnerDown,
    /// A gate hook panics at call k (a read of a restore door only).
    Panic,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Crash, Mode::Fail, Mode::Burst, Mode::Corrupt];

    /// The case id of the mode at call `k`: `mode:k`, `down:L:k` or
    /// `down:partner:k`.
    fn id(self, k: u64) -> Vec<String> {
        match self {
            Mode::Crash => id(&[&"crash", &k]),
            Mode::Fail => id(&[&"fail", &k]),
            Mode::Burst => id(&[&"burst", &k]),
            Mode::Corrupt => id(&[&"corrupt", &k]),
            Mode::Down(leaf) => id(&[&"down", &leaf, &k]),
            Mode::PartnerDown => id(&[&"down", &"partner", &k]),
            Mode::Panic => id(&[&"panic", &k]),
        }
    }

    /// The leaves the mode takes down.
    fn down(&self) -> &[usize] {
        match self {
            Mode::Down(leaf) => std::slice::from_ref(leaf),
            Mode::PartnerDown => &[1, 2],
            _ => &[],
        }
    }

    fn arm(self, ctl: &FailureControl, k: u64) {
        match self {
            Mode::Crash => ctl.arm(When::From(k), Fault::Fail),
            Mode::Fail => ctl.arm(When::At(k), Fault::Fail),
            Mode::Burst => ctl.arm(When::At(k), Fault::Burst(1)),
            Mode::Corrupt => ctl.arm(When::At(k), Fault::Corrupt),
            Mode::Panic => ctl.on_call(move |call| {
                if call.number == k {
                    panic!("injected panic");
                }
            }),
            _ => (self.down().iter()).for_each(|&l| ctl.arm_on(l, When::From(k), Fault::Fail)),
        }
    }

    /// Whether the mode is swept at `call` on `stack`: a syscall is crashed
    /// and failed, except on a lean stack (but for the group's `GLOBAL`);
    /// bursts and outages start at a backend call, and rot at one that
    /// writes records (anywhere else `corrupt:k` is the fault-free run).
    fn applies_to(self, call: &Call, stack: Stack) -> bool {
        let global = stack == Stack::Group && call.leaf == RANKS;
        match call.kind {
            FaultOp::Sys(_) => {
                matches!(self, Mode::Crash | Mode::Fail) && (!stack.lean() || global)
            }
            _ if stack == Stack::Buffer => self != Mode::Corrupt,
            FaultOp::Write | FaultOp::InstallCompacted => true,
            _ => self != Mode::Corrupt,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Open,
    Commit(u64),
    Drain,
    Retire(u64),
    Compact(u64),
    /// The group's fold after commit e: each rank whose chain is longer than
    /// [`GROUP_FOLD`] folds into e.
    Fold(u64),
    Scrub,
}

const SCRIPT: [Step; 10] = [
    Step::Open,
    Step::Commit(1),
    Step::Commit(2),
    Step::Commit(3),
    Step::Commit(4),
    Step::Drain,
    Step::Retire(4),
    Step::Compact(3),
    Step::Commit(5),
    Step::Scrub,
];

/// The group's scenario: `Commit(e)` is group checkpoint e, each rank's
/// buffer written like `records(e)` first. The group folds a rank's chain
/// after a commit that makes it longer than [`GROUP_FOLD`] — here after
/// checkpoint 4 —, and [`Case::run_group`] logs that fold as a
/// `Fold(e)` of its own. The buffer's scenario is its commits: each writes
/// a few pages, then is one checkpoint of the buffer, waited for.
const GROUP_SCRIPT: [Step; 7] = [
    Step::Open,
    Step::Commit(1),
    Step::Commit(2),
    Step::Commit(3),
    Step::Commit(4),
    Step::Commit(5),
    Step::Scrub,
];

/// The longest chain the group leaves unfolded.
const GROUP_FOLD: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Done,
    Failed,
    /// The step the crash hit: whatever it returned, it may or may not
    /// have taken effect.
    Crashed,
    /// A checkpoint of a real buffer that returned `Err` while the process
    /// lived: nothing of it may be listed, ever.
    Refused,
    NotRun,
}

/// One step of a run: what it was, how it ended, its calls, whether it
/// changed any leaf's chain (a refused group commit: whether it left a
/// file of its epoch on a rank) and — a commit of a real buffer — the
/// buffer at its `CHECKPOINT`.
#[derive(Clone, Debug)]
struct Entry {
    step: Step,
    outcome: Outcome,
    calls: RangeInclusive<u64>,
    touched: bool,
    buffer: Option<Held>,
}

/// Pages by id.
type Image = BTreeMap<u64, Vec<u8>>;

/// A buffer's pages, shown by their hash.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Held(Arc<Image>);

impl std::fmt::Debug for Held {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pages#{:016x}", digest(&self.0))
    }
}

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(1 << 16)
        .with_max_pages(64)
        .with_committer_streams(1)
}

/// The group's ranks checkpoint synchronously, so their flushes never
/// interleave, and scrub only as a step of the scenario.
fn group_cfg() -> GroupConfig {
    let mut ckpt = cfg().with_content_filter(true);
    ckpt.mode = CkptMode::Sync;
    ckpt.scrub = ScrubPolicy::disabled();
    ckpt.retry.base = Duration::ZERO;
    GroupConfig::new(RANKS, ckpt).with_compaction(CompactionPolicy::chain_len(GROUP_FOLD))
}

/// The buffer stack's manager: two CoW slots, the content filter on, no
/// scrub, and batches of two pages in address order — which pages a
/// numbered call holds never depends on when the writer thread ran.
fn buffer_cfg() -> CkptConfig {
    let mut cfg = CkptConfig::async_no_pattern(2 * page_size())
        .with_max_pages(64)
        .with_committer_streams(1)
        .with_flush_batch_pages(2)
        .with_content_filter(true);
    cfg.scrub = ScrubPolicy::disabled();
    cfg
}

/// What rank `rank` XORs into every byte it writes, so no rank's bytes
/// pass for another's (0 on every other stack).
fn salt(rank: usize) -> u8 {
    rank as u8 * 0x5A
}

/// The layout record of one real checkpoint of a `PAGES`-page buffer, and
/// the buffer's first page id.
struct Layout {
    record: Vec<u8>,
    base: u64,
}

fn layout() -> &'static Layout {
    static LAYOUT: OnceLock<Layout> = OnceLock::new();
    LAYOUT.get_or_init(|| {
        let store = MemoryBackend::new();
        let mgr = PageManager::new(cfg(), Box::new(store.clone())).unwrap();
        let mut buf = mgr
            .alloc_protected_named("state", PAGES as usize * page_size())
            .unwrap();
        buf.as_mut_slice().fill(1);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        let base = buf.base_page() as u64;
        let record = store.read_page_at(1, META_RECORD).unwrap().unwrap();
        Layout { record, base }
    })
}

/// Epoch `e`'s records: epoch 1 writes every page, later epochs two each,
/// and the layout record closes every epoch, as the runtime's do.
fn records(e: u64) -> Vec<(u64, Vec<u8>)> {
    let layout = layout();
    let pages = match e {
        1 => (0..PAGES).collect(),
        _ => vec![e % PAGES, (e + 3) % PAGES],
    };
    // Every third page is one byte repeated: its record is stored encoded.
    let payload = |i: u64| match i % 3 {
        0 => vec![(e * 7 + i) as u8; 64],
        _ => (0..64).map(|j| (i * 31 + e * 7 + j) as u8).collect(),
    };
    let data = pages.into_iter().map(|i| (layout.base + i, payload(i)));
    data.chain([(META_RECORD, layout.record.clone())]).collect()
}

/// What the storage must hold: the epochs listed, those whose pages count
/// (committed, folded or not, and not retired) and, on a stack that
/// checkpoints a real buffer, the buffer at each committed epoch's
/// `CHECKPOINT` — what that epoch restores, whatever failed before it.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
struct Model {
    listed: BTreeSet<u64>,
    committed: BTreeSet<u64>,
    buffers: BTreeMap<u64, Held>,
}

impl Model {
    fn apply(&mut self, step: Step, buffer: Option<&Held>) {
        match step {
            Step::Commit(e) => {
                self.listed.insert(e);
                self.committed.insert(e);
                self.buffers.extend(buffer.map(|b| (e, b.clone())));
            }
            Step::Retire(e) => {
                self.listed.remove(&e);
                self.committed.remove(&e);
            }
            Step::Compact(e) if self.listed.contains(&e) => self.listed.retain(|&x| x >= e),
            Step::Fold(e) if self.listed.len() > GROUP_FOLD => self.apply(Step::Compact(e), None),
            _ => {}
        }
    }

    /// The pages of `top`'s image: the buffer at its `CHECKPOINT`, or the
    /// committed records, latest wins.
    fn image(&self, top: u64) -> Image {
        if let Some(Held(buffer)) = self.buffers.get(&top) {
            return Image::clone(buffer);
        }
        let mut image = BTreeMap::new();
        for &e in self.committed.range(..=top) {
            image.extend(records(e).into_iter().filter(|&(p, _)| p != META_RECORD));
        }
        image
    }
}

/// Every model the run allows: each failed or crashed step applied or not.
fn models(log: &[Entry]) -> Vec<Model> {
    let mut models = vec![Model::default()];
    for entry in log {
        let applied = |m: &Model| {
            let mut m = m.clone();
            m.apply(entry.step, entry.buffer.as_ref());
            m
        };
        match entry.outcome {
            Outcome::Done => models = models.iter().map(applied).collect(),
            Outcome::Failed | Outcome::Crashed => {
                let after: Vec<Model> = models.iter().map(applied).collect();
                for m in after {
                    if !models.contains(&m) {
                        models.push(m);
                    }
                }
            }
            Outcome::Refused | Outcome::NotRun => {}
        }
    }
    models
}

/// The fault-free log as a power cut just before call `k` leaves it: the
/// step holding call `k` crashed, the ones after it never ran.
fn cut_at(log: &[Entry], k: u64) -> Vec<Entry> {
    let outcome = |e: &Entry| match () {
        _ if *e.calls.end() < k => Outcome::Done,
        _ if *e.calls.start() <= k => Outcome::Crashed,
        _ => Outcome::NotRun,
    };
    let cut = |e: &Entry| Entry {
        outcome: outcome(e),
        ..e.clone()
    };
    log.iter().map(cut).collect()
}

/// What a reopened stack shows: the union listing and each leaf's chain.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Seen {
    listed: Vec<u64>,
    chains: Vec<Vec<ChainEntry>>,
}

/// What a case allows the reopened stack to show.
struct Rules<'a> {
    models: Vec<Model>,
    /// The memory tier is gone: the listing may be a prefix of a model's.
    prefix_only: bool,
    /// The errors a restore door may fail with instead of restoring (the
    /// stored bytes are damaged); damage at rest may also make the reopen
    /// refuse, with `InvalidData`.
    loud: &'static [io::ErrorKind],
    at_rest: bool,
    /// Damage at rest to this epoch's segment: restores below it must not
    /// notice, and a verify of it must.
    intact_below: Option<u64>,
    /// The damage cut a segment short: every door of the newest epoch
    /// fails, and a verify of the cut epoch calls it structural.
    cut_segment: bool,
    /// A retried burst on the drain: the reopen must show exactly this.
    same_as: Option<&'a Seen>,
    /// The leaf whose stored bytes are damaged, if one is: the group's
    /// other ranks must restore exactly.
    damaged: Option<usize>,
    /// What the store XORs into the bytes it holds (a group rank's salt).
    salt: u8,
}

impl Rules<'_> {
    fn new(log: &[Entry]) -> Self {
        Rules {
            models: models(log),
            prefix_only: false,
            loud: &[],
            at_rest: false,
            intact_below: None,
            cut_segment: false,
            same_as: None,
            damaged: None,
            salt: 0,
        }
    }
}

/// The stores of one stack, in the order they are registered (leaf 0, 1).
struct Case {
    stack: Stack,
    dirs: Vec<PathBuf>,
    memory: MemoryBackend,
    /// Restores attach here: no thread is spawned per restore.
    pool: Arc<FlushPool>,
    /// The three doors' outcomes per state they read (see [`Case::key`]).
    doors: HashMap<Vec<u8>, [Door; 3]>,
    /// What each reopen judged green showed, by the state it reopened and
    /// the rules it met (see [`judge`]).
    judged: HashMap<u64, Option<Seen>>,
}

type Files = BTreeMap<PathBuf, Vec<u8>>;

/// A built stack.
type Stacked = Arc<dyn StorageBackend>;

/// A restore door's outcome: a hash of the pages it restored, or its error.
type Door = Result<u64, (io::ErrorKind, String)>;

fn digest(value: &impl Hash) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Where the sweep's directories live: a tmpfs when the host has one. The
/// sweep judges thousands of disk states, and on a journaling file system
/// their creates and unlinks cost more than everything else; durability
/// is modeled by the control either way.
fn scratch() -> PathBuf {
    let shm = Path::new("/dev/shm");
    match shm.is_dir() {
        true => shm.to_owned(),
        false => std::env::temp_dir(),
    }
}

impl Case {
    fn new(stack: Stack, tag: &str) -> Self {
        let (name, pid) = (stack.name(), std::process::id());
        let dir = |i: usize| scratch().join(format!("aickpt-points-{name}{tag}-{pid}-{i}"));
        let mut dirs: Vec<PathBuf> = (0..stack.dirs().len()).map(dir).collect();
        if stack == Stack::Group {
            // The layout of `CheckpointGroup::open_dir`, whose rank 0
            // creates the root; the root comes last, so a file's first
            // enclosing directory is its own.
            let root = dirs.pop().unwrap();
            dirs = (0..RANKS).map(|r| rank_dir(&root, r)).collect();
            dirs.push(root);
        }
        Self {
            stack,
            dirs,
            memory: MemoryBackend::new(),
            pool: FlushPool::new(1).unwrap(),
            doors: HashMap::new(),
            judged: HashMap::new(),
        }
    }

    /// Everything a restore of `top` reads: each commit log's records (a
    /// torn tail is never read), every other file's bytes (`files`, the
    /// stack's snapshot), the memory tier's chain and records.
    fn key(&self, top: u64, files: &Files) -> Vec<u8> {
        let mut key = format!("{top}").into_bytes();
        for (path, bytes) in files {
            key.extend(path.as_os_str().as_encoded_bytes());
            let name = path.file_name().unwrap();
            let records = match () {
                _ if name == MANIFEST => format!("{:?}", log::read::<ManifestRecord>(path)),
                _ if name == GLOBAL_MANIFEST_FILE => format!("{:?}", global::read(path)),
                _ => {
                    key.extend(&bytes[..]);
                    continue;
                }
            };
            key.extend(records.bytes());
        }
        for entry in self.memory.chain().unwrap_or_default() {
            let mut records = Vec::new();
            let read = self
                .memory
                .read_epoch(entry.epoch, &mut |p, d| records.push((p, d.to_vec())));
            key.extend(
                format!(
                    "{entry:?}{:?}{}",
                    read.map_err(|e| e.to_string()),
                    digest(&records)
                )
                .bytes(),
            );
        }
        key
    }

    fn reset(&mut self) {
        for dir in &self.dirs {
            let _ = fs::remove_dir_all(dir);
        }
        self.memory = MemoryBackend::new();
    }

    /// A file store on `dir`, its syscalls numbered on `leaf` and — `wrap`
    /// — its calls too.
    fn file_on(dir: &Path, leaf: Leaf, wrap: bool) -> io::Result<Box<dyn StorageBackend>> {
        let store = FileBackend::open_on(dir, leaf.clone())?;
        Ok(match wrap {
            true => Box::new(FailingBackend::on(store, leaf)),
            false => Box::new(store),
        })
    }

    /// Open the group: each rank a file leaf, as [`Case::open`] builds
    /// them, and `GLOBAL` on the leaf after them.
    fn open_group(&self, ctl: &FailureControl, wrap: bool) -> io::Result<CheckpointGroup> {
        let leaves: Vec<Leaf> = (0..=RANKS).map(|_| ctl.leaf()).collect();
        let path = self.dirs[RANKS].join(GLOBAL_MANIFEST_FILE);
        let global = log::Log::new(path, Some(leaves[RANKS].clone()));
        CheckpointGroup::open(group_cfg(), global, |r| {
            Self::file_on(&self.dirs[r], leaves[r].clone(), wrap)
        })
    }

    /// Build the stack, every file leaf numbering its syscalls on `ctl` and
    /// — `wrap` — every leaf wrapped under it.
    fn open(&self, ctl: &FailureControl, wrap: bool) -> io::Result<Stacked> {
        let leaf = |store: Box<dyn StorageBackend>| -> Box<dyn StorageBackend> {
            let leaf = ctl.leaf();
            match wrap {
                true => Box::new(FailingBackend::on(store, leaf)),
                false => store,
            }
        };
        let file = |i: usize| Self::file_on(&self.dirs[i], ctl.leaf(), wrap);
        Ok(match self.stack {
            Stack::File | Stack::Buffer => Arc::from(file(0)?),
            Stack::FileOverFile => {
                let fast = file(0)?;
                Arc::new(TieredBackend::new(fast, file(1)?, FAST_CAPACITY)?)
            }
            Stack::MemoryOverFile => {
                let fast = leaf(Box::new(self.memory.clone()));
                Arc::new(TieredBackend::new(fast, file(0)?, FAST_CAPACITY)?)
            }
            Stack::Replica2 => Arc::new(ReplicatedBackend::new(vec![file(0)?, file(1)?])),
            Stack::Group => unreachable!("a group opens with open_group"),
            Stack::Policy => {
                let mut leaves = (0..4)
                    .map(|i| file(i).map(Some))
                    .collect::<io::Result<Vec<_>>>()?;
                let spec = ResilienceSpec::parse(POLICY).unwrap();
                // Level 0 is leaf 0, the partner replicas 1 and 2, cold 3.
                let take = |level: usize, replica: usize| {
                    leaves[[0, 1, 3][level] + replica].take().unwrap()
                };
                Arc::new(PolicyBuilder::new(spec)?.build(take)?)
            }
        })
    }

    /// The directory of leaf `leaf`, if it is a file store.
    fn dir_of(&self, leaf: usize) -> Option<&PathBuf> {
        match self.stack {
            Stack::MemoryOverFile => leaf.checked_sub(1).map(|i| &self.dirs[i]),
            _ => self.dirs.get(leaf),
        }
    }

    /// A file's name in a case id: `NAME`, or `DIR/NAME` on a stack of two
    /// file stores (`fast/NAME`, `replica1/NAME`, `cold/NAME`, …).
    fn label(&self, path: &Path) -> String {
        let name = path.file_name().unwrap().to_string_lossy();
        let dir = self.dirs.iter().position(|d| path.starts_with(d)).unwrap();
        match self.stack.dirs()[dir] {
            "" => name.into_owned(),
            dir => format!("{dir}/{name}"),
        }
    }

    /// Run the scenario under `ctl` (armed for `mode`, if any): its log,
    /// and the stack it leaves open.
    fn run(&self, ctl: &FailureControl, mode: Option<Mode>) -> (Vec<Entry>, Option<Stacked>) {
        let dead = || mode == Some(Mode::Crash) && ctl.fired().is_some();
        match self.stack {
            Stack::Group => return (self.run_group(ctl, &dead), None),
            Stack::Buffer => return (self.run_buffer(ctl, &dead, mode.is_none()), None),
            _ => {}
        }
        let mut stack: Option<Stacked> = None;
        let mut log = Vec::new();
        for step in SCRIPT {
            let first = ctl.ops() + 1;
            let chains = |stack: &Option<Stacked>| match step {
                Step::Compact(_) | Step::Retire(_) => stack.as_deref().map(leaf_chains),
                _ => None,
            };
            let before = chains(&stack);
            let result = if dead() {
                None
            } else if step == Step::Open {
                Some(self.open(ctl, true).map(|opened| stack = Some(opened)))
            } else {
                stack.as_deref().map(|b| perform(b, step, &dead))
            };
            let outcome = match result {
                None => Outcome::NotRun,
                Some(_) if dead() => Outcome::Crashed,
                Some(Ok(())) => Outcome::Done,
                Some(Err(_)) => Outcome::Failed,
            };
            log.push(Entry {
                step,
                outcome,
                calls: first..=ctl.ops(),
                touched: chains(&stack) != before,
                buffer: None,
            });
        }
        (log, stack)
    }

    /// [`Case::run`] on the group. A fold the group ran after a commit is
    /// an entry of its own: the calls after the commit's last `GLOBAL` call.
    fn run_group(&self, ctl: &FailureControl, dead: &dyn Fn() -> bool) -> Vec<Entry> {
        let (mut group, mut log) = (None::<Ranks>, Vec::new());
        let stats = |g: &Option<Ranks>| g.as_ref().map(|g| g.group.stats());
        for step in GROUP_SCRIPT {
            let (first, before) = (ctl.ops() + 1, stats(&group));
            let result = match (step, &mut group) {
                _ if dead() => None,
                (Step::Open, _) => Some(self.open_group(ctl, true).and_then(|opened| {
                    group = Some(Ranks::new(opened)?);
                    Ok(())
                })),
                (_, Some(ranks)) => Some(ranks.perform(step)),
                (_, None) => None,
            };
            let end = ctl.ops();
            let folds = |s: &GroupStats| s.group_compactions + s.compaction_failures;
            let fold = before
                .zip(stats(&group))
                .filter(|(was, now)| folds(now) > folds(was));
            let global = |c: &&Call| (first..=end).contains(&c.number) && c.leaf == RANKS;
            let split = fold
                .as_ref()
                .and_then(|_| ctl.journal().iter().rfind(global).cloned());
            let split = split.map_or(end, |c| c.number);
            let crashed = |calls: &RangeInclusive<u64>| {
                dead() && ctl.fired().is_some_and(|c| calls.contains(&c.number))
            };
            let mut push = |step, outcome, calls, touched, buffer| {
                log.push(Entry {
                    step,
                    outcome,
                    calls,
                    touched,
                    buffer,
                })
            };
            let commit = matches!(step, Step::Commit(_)) && result.is_some();
            let buffer = group.as_ref().filter(|_| commit);
            let buffer = buffer.map(|g| Held(Arc::new(g.image.clone())));
            let outcome = match result {
                None => Outcome::NotRun,
                _ if crashed(&(first..=split)) => Outcome::Crashed,
                Some(Ok(())) => Outcome::Done,
                Some(Err(_)) if matches!(step, Step::Commit(_)) => Outcome::Refused,
                Some(Err(_)) => Outcome::Failed,
            };
            // The abort retires a refused epoch on every rank before the
            // group answers; the reopen's recovery would hide a leak.
            let touched = outcome == Outcome::Refused && self.leaked(step);
            push(step, outcome, first..=split, touched, buffer);
            if let (Some((was, now)), Step::Commit(e)) = (fold, step) {
                let outcome = match () {
                    _ if crashed(&(split + 1..=end)) => Outcome::Crashed,
                    _ if now.compaction_failures > was.compaction_failures => Outcome::Failed,
                    _ => Outcome::Done,
                };
                push(Step::Fold(e), outcome, split + 1..=end, false, None);
            }
        }
        log
    }

    /// [`Case::run`] on the buffer: the gate hook hands the writer thread
    /// pages to write during each flush; a fault-free run must see both CoW
    /// and WAIT.
    fn run_buffer(&self, ctl: &FailureControl, dead: &dyn Fn() -> bool, clean: bool) -> Vec<Entry> {
        let hooked = Arc::new(Mutex::new(Hooked::default()));
        let hook = Arc::clone(&hooked);
        ctl.on_call(move |call| hook.lock().unwrap().at(call));
        let (mut open, mut log) = (None::<(ProtectedBuffer, PageManager)>, Vec::new());
        for step in GROUP_SCRIPT.into_iter().filter(|&s| s != Step::Scrub) {
            let (first, mut buffer) = (ctl.ops() + 1, None);
            let result = match (step, &mut open) {
                _ if dead() => None,
                (Step::Open, _) => Some(self.open(ctl, true).and_then(|stack| {
                    let mgr = self.pool.attach(buffer_cfg(), stack, Arc::new(()))?;
                    let buf = mgr.alloc_protected_named("state", PAGES as usize * page_size())?;
                    hooked.lock().unwrap().writer = Some(Writer::new(buf.as_ptr() as usize));
                    open = Some((buf, mgr));
                    Ok(())
                })),
                (Step::Commit(e), Some((buf, mgr))) => {
                    let ps = page_size();
                    let pages: Vec<u64> = match e {
                        1 => (0..PAGES).collect(),
                        _ => vec![e % PAGES, (e + 3) % PAGES],
                    };
                    for &p in &pages {
                        buf.as_mut_slice()[p as usize * ps..][..ps].fill(0x80 | (e * 8 + p) as u8);
                    }
                    let base = layout().base;
                    let held = buf.as_slice().chunks(ps).map(<[u8]>::to_vec);
                    buffer = Some(Held(Arc::new((base..).zip(held).collect())));
                    {
                        let mut hooked = hooked.lock().unwrap();
                        hooked.owed.extend(pages);
                        hooked.checkpoint();
                    }
                    let done = mgr.checkpoint().and_then(|_| mgr.wait_checkpoint());
                    let mut hooked = hooked.lock().unwrap();
                    hooked.writer.as_ref().unwrap().idle();
                    if done.is_err() {
                        hooked.refused();
                    }
                    Some(done)
                }
                _ => None,
            };
            let outcome = match result {
                None => Outcome::NotRun,
                Some(_) if dead() => Outcome::Crashed,
                Some(Ok(())) => Outcome::Done,
                Some(Err(_)) if matches!(step, Step::Commit(_)) => Outcome::Refused,
                Some(Err(_)) => Outcome::Failed,
            };
            log.push(Entry {
                step,
                outcome,
                calls: first..=ctl.ops(),
                touched: outcome == Outcome::Refused && self.leaked(step),
                buffer,
            });
        }
        if let (true, Some((_, mgr))) = (clean, &open) {
            let stats = mgr.stats();
            let epochs = stats.checkpoints.iter().map(|c| c.closed_epoch);
            let (cow, wait) = epochs.fold((0, 0), |(c, w), e| (c + e.cow, w + e.wait));
            assert!(
                cow > 0 && wait > 0,
                "buffer: {cow} CoW and {wait} WAIT pages"
            );
        }
        if let Some(writer) = hooked.lock().unwrap().writer.take() {
            writer.stop();
        }
        log
    }

    /// Whether a file of `step`'s epoch is on disk.
    fn leaked(&self, step: Step) -> bool {
        let Step::Commit(e) = step else { return false };
        let of = |path: &PathBuf| path.ends_with(format!("epoch_{e:010}.seg"));
        self.snapshot().keys().any(of)
    }

    /// Every file of the stack's directories.
    fn snapshot(&self) -> Files {
        let mut files = Files::new();
        for dir in &self.dirs {
            for entry in fs::read_dir(dir).into_iter().flatten() {
                let entry = entry.unwrap();
                if !entry.file_type().unwrap().is_dir() {
                    files.insert(entry.path(), fs::read(entry.path()).unwrap());
                }
            }
        }
        files
    }

    /// Put exactly `files` back in the directories `keep` keeps.
    fn put_back<'a>(
        &self,
        files: impl IntoIterator<Item = (&'a PathBuf, &'a [u8])>,
        keep: &dyn Fn(&Path) -> bool,
    ) {
        self.dirs
            .iter()
            .for_each(|dir| drop(fs::remove_dir_all(dir)));
        for dir in self.dirs.iter().filter(|dir| keep(dir)) {
            fs::create_dir_all(dir).unwrap();
        }
        for (path, bytes) in files {
            if keep(path.parent().unwrap()) {
                fs::write(path, bytes).unwrap();
            }
        }
    }

    /// Put exactly `files` back in the stack's directories.
    fn restore(&self, files: &Files) {
        self.put_back(files.iter().map(|(p, b)| (p, &b[..])), &|_| true);
    }

    /// Leave on disk what `cut` says a power cut keeps — a directory whose
    /// own entry, or an enclosing one's, was lost goes with everything in
    /// it; the memory tier is gone.
    fn power_cut(&mut self, cut: &PowerCut) {
        let ours = |dir: &&Path| self.dirs.iter().any(|d| d == dir);
        let keep = |dir: &Path| dir.ancestors().filter(ours).all(|d| cut.dirs.contains(d));
        self.put_back(cut.files.iter().map(|(p, b)| (p, &b[..])), &keep);
        self.memory = MemoryBackend::new();
    }
}

/// An open group, each rank's buffer, which drops first, and what the
/// buffers hold, unsalted.
struct Ranks {
    bufs: Vec<ProtectedBuffer>,
    group: CheckpointGroup,
    image: Image,
}

impl Ranks {
    /// Each rank's buffer: restored if the group committed, else fresh.
    fn new(group: CheckpointGroup) -> io::Result<Self> {
        let mut bufs = Vec::new();
        match group.restore_latest()? {
            Some(restored) => {
                bufs.extend(restored.ranks.into_iter().map(|mut r| r.buffers.remove(0)))
            }
            None => {
                for r in 0..RANKS {
                    let len = PAGES as usize * page_size();
                    bufs.push(group.rank(r).alloc_protected_named("state", len)?);
                }
            }
        }
        Ok(Self {
            bufs,
            group,
            image: Image::new(),
        })
    }

    /// Write epoch `e`'s records — a few pages — into every rank's buffer,
    /// XORed with the rank's salt.
    fn write(&mut self, e: u64) {
        let pages: Vec<_> = records(e)
            .into_iter()
            .filter(|&(p, _)| p != META_RECORD)
            .collect();
        self.image.extend(pages.iter().cloned());
        for (rank, buf) in self.bufs.iter_mut().enumerate() {
            for (page, data) in pages.iter().cloned() {
                let at = (page - layout().base) as usize * page_size();
                let dst = &mut buf.as_mut_slice()[at..at + data.len()];
                dst.iter_mut()
                    .zip(&data)
                    .for_each(|(d, b)| *d = b ^ salt(rank));
            }
        }
    }

    /// `Commit(e)` is one group checkpoint (one off the number e fails the
    /// listing rule); a scrub scrubs each rank.
    fn perform(&mut self, step: Step) -> io::Result<()> {
        if let Step::Commit(e) = step {
            self.write(e);
            return self.group.checkpoint().map(drop);
        }
        let rank = |r: usize| self.group.rank_backend(r).as_ref();
        (0..RANKS).try_for_each(|r| perform(rank(r), step, &|| false))
    }
}

/// The buffer stack's gate hook: its writer, once the buffer is there, the
/// flushes seen, and the engine's page sets as the script makes them —
/// pages written since the last `CHECKPOINT`, and those of the checkpoint
/// being flushed.
#[derive(Default)]
struct Hooked {
    writer: Option<Writer>,
    begun: u64,
    wrote: bool,
    owed: BTreeSet<u64>,
    flushing: BTreeSet<u64>,
}

impl Hooked {
    /// At its n-th `BeginEpoch` a flush writes page n (its flush is ahead:
    /// a CoW); at the epoch's first `Write` the last page (ahead in address
    /// order: a CoW) and the flush's lowest page — its first batch, in
    /// flight: a WAIT; at `Finish` page n + 2 (behind).
    fn at(&mut self, call: &Call) {
        let pages = match call.kind {
            FaultOp::BeginEpoch => {
                (self.begun, self.wrote) = (self.begun + 1, false);
                vec![self.begun % PAGES]
            }
            FaultOp::Write if !self.wrote => {
                self.wrote = true;
                [PAGES - 1]
                    .into_iter()
                    .chain(self.flushing.first().copied())
                    .collect()
            }
            FaultOp::Finish => vec![(self.begun + 2) % PAGES],
            _ => vec![],
        };
        let Some(writer) = &mut self.writer else {
            return;
        };
        for page in pages {
            self.owed.insert(page);
            writer.write(page as usize, (call.number * 29 + page) as u8);
        }
    }

    /// `CHECKPOINT`: the pages owed are the flush's.
    fn checkpoint(&mut self) {
        self.flushing = std::mem::take(&mut self.owed);
    }

    /// The checkpoint did not commit: its pages are owed again.
    fn refused(&mut self) {
        self.owed.extend(std::mem::take(&mut self.flushing));
    }
}

/// How long the gate hook waits for a write before it takes the writer
/// thread to be parked in `MustWait`.
const PARK: Duration = Duration::from_millis(5);

/// The buffer stack's second application thread. The gate hook runs on
/// the flush worker, which would deadlock waiting on a page it holds, so
/// it hands each write to this thread and goes on once the write is done,
/// or the thread sleeps holding it — parked in `MustWait`, the one place
/// it sleeps then —, or [`PARK`] passed. A write merely slow, or asleep
/// elsewhere, changes no byte a flush reads, only whether its page counts
/// as a CoW or a WAIT.
struct Writer {
    /// Page indices and the byte to fill each with.
    send: mpsc::Sender<(usize, u8)>,
    thread: std::thread::JoinHandle<()>,
    /// Writes sent, taken and done, and the thread's `/proc` stat file.
    sent: u64,
    taken: Arc<AtomicU64>,
    done: Arc<AtomicU64>,
    stat: PathBuf,
}

impl Writer {
    /// The thread writing the buffer at `addr`.
    fn new(addr: usize) -> Self {
        let (send, recv) = mpsc::channel::<(usize, u8)>();
        let (taken, done) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (t, d) = (Arc::clone(&taken), Arc::clone(&done));
        let (tell, told) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            tell.send(fs::read_link("/proc/thread-self").unwrap())
                .unwrap();
            for (page, value) in recv {
                t.fetch_add(1, Ordering::Relaxed);
                let page = (addr + page * page_size()) as *mut u8;
                // SAFETY: a page of the run's buffer, which drops only after
                // this thread was joined.
                unsafe { std::ptr::write_bytes(page, value, page_size()) };
                // Release: a reader that sees the count sees the bytes.
                d.fetch_add(1, Ordering::Release);
            }
        });
        let stat = Path::new("/proc").join(told.recv().unwrap()).join("stat");
        Self {
            send,
            thread,
            sent: 0,
            taken,
            done,
            stat,
        }
    }

    /// Fill page `page` with `value`, waiting at most [`PARK`].
    fn write(&mut self, page: usize, value: u8) {
        self.send.send((page, value)).unwrap();
        self.sent += 1;
        let sent = std::time::Instant::now();
        while self.done.load(Ordering::Acquire) != self.sent && sent.elapsed() < PARK {
            if self.taken.load(Ordering::Relaxed) == self.sent && self.asleep() {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Whether the thread sleeps (its state in `/proc` is `S`).
    fn asleep(&self) -> bool {
        let stat = fs::read_to_string(&self.stat).unwrap_or_default();
        stat.rsplit(')')
            .next()
            .and_then(|s| s.split_whitespace().next())
            == Some("S")
    }

    /// Wait until every write sent is done.
    fn idle(&self) {
        while self.done.load(Ordering::Acquire) != self.sent {
            std::thread::yield_now();
        }
    }

    /// End the thread; the buffer may drop after this.
    fn stop(self) {
        drop(self.send);
        self.thread.join().expect("the writer thread panicked");
    }
}

fn perform(b: &dyn StorageBackend, step: Step, dead: &dyn Fn() -> bool) -> io::Result<()> {
    match step {
        Step::Open => Ok(()),
        Step::Commit(epoch) => {
            let records = records(epoch);
            let batch: Vec<(u64, &[u8])> = records.iter().map(|(p, d)| (*p, &d[..])).collect();
            let writer = b.begin_epoch(epoch)?;
            let done = writer.write_pages(&batch).and_then(|()| writer.finish());
            // The runtime aborts a failed epoch; a dead process aborts
            // nothing (the wrapper leaks the session when it drops).
            if done.is_err() && !dead() {
                let _ = writer.abort();
            }
            done
        }
        Step::Drain => {
            // The maintenance worker's drain loop, retry policy included.
            let retry = RetryPolicy {
                base: Duration::ZERO,
                ..RetryPolicy::default()
            };
            while retry.run(|| b.drain_one())?.is_some() {}
            Ok(())
        }
        Step::Retire(epoch) => b.remove_epochs(&[epoch]),
        Step::Compact(epoch) => b.compact(epoch).map(drop),
        Step::Scrub => Scrubber::new(ScrubPolicy::default()).full_pass(b).map(drop),
        Step::Fold(_) => unreachable!("only a group folds"),
    }
}

/// The composite below a stack's one-child wrappers — a tiered stack is a
/// policy behind one — or the leaf.
fn composite(stack: &dyn StorageBackend) -> &dyn StorageBackend {
    match stack.inner() {
        Some(inner) if stack.children().is_empty() => composite(inner),
        _ => stack,
    }
}

/// The leaf stores of a stack, in registration order: below every
/// wrapper, through every composite.
fn leaves(stack: &dyn StorageBackend) -> Vec<&dyn StorageBackend> {
    if let Some(inner) = stack.inner() {
        return leaves(inner);
    }
    match stack.children() {
        kids if kids.is_empty() => vec![stack],
        kids => kids.into_iter().flat_map(|(_, kid)| leaves(kid)).collect(),
    }
}

/// Each leaf's chain, as the leaf itself (below its gate) lists it.
fn leaf_chains(stack: &dyn StorageBackend) -> Vec<Option<Vec<ChainEntry>>> {
    leaves(stack).into_iter().map(|l| l.chain().ok()).collect()
}

fn seen(stack: &dyn StorageBackend) -> Result<Seen, String> {
    let listed = stack.epochs().map_err(|e| format!("listing: {e}"))?;
    let chains = leaves(stack).into_iter().map(|leaf| leaf.chain());
    let chains = chains
        .collect::<io::Result<_>>()
        .map_err(|e| format!("leaf chain: {e}"))?;
    Ok(Seen { listed, chains })
}

/// Whether a file of a checkpoint directory belongs to `chain` (a group
/// root's `GLOBAL` belongs to the empty chain of its leaf).
fn belongs(name: &str, chain: &[ChainEntry]) -> bool {
    // `{prefix}{epoch}.seg`, or `{prefix}{epoch}.s{k}.seg` for a shard.
    let epoch = |prefix: &str| -> Option<(u64, bool)> {
        let body = name.strip_prefix(prefix)?.strip_suffix(".seg")?;
        let (epoch, shard) = body.split_once(".s").unwrap_or((body, ""));
        Some((epoch.parse().ok()?, !shard.is_empty()))
    };
    let listed = |epoch, kind| chain.contains(&ChainEntry { epoch, kind });
    match (epoch("epoch_"), epoch("full_")) {
        (Some((e, _)), _) => listed(e, EpochKind::Delta),
        (_, Some((e, shard))) => listed(e, EpochKind::Full) && !shard,
        _ => name == MANIFEST || name == GLOBAL_MANIFEST_FILE,
    }
}

/// The restored buffer, page by page.
fn pages_of(buffers: &[ProtectedBuffer]) -> Vec<Vec<u8>> {
    let ps = page_size();
    buffers[0]
        .as_slice()
        .chunks(ps)
        .map(<[u8]>::to_vec)
        .collect()
}

/// `image`, whose buffer starts at page `base`, as the buffer a restore of
/// it must produce, each stored byte XORed with `salt`.
fn padded(image: &Image, base: u64, salt: u8) -> Vec<Vec<u8>> {
    let page = |i: u64| {
        let stored = image.get(&(base + i)).into_iter().flatten();
        let mut page: Vec<u8> = stored.map(|b| b ^ salt).collect();
        page.resize(page_size(), 0);
        page
    };
    (0..PAGES).map(page).collect()
}

/// The model's image of epoch `top` as a store that XORs `salt` holds it.
fn model_pages(model: &Model, top: u64, salt: u8) -> u64 {
    digest(&padded(&model.image(top), layout().base, salt))
}

/// Which handle a restore reads through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Handle {
    Reopened,
    /// A `down` case's, healed.
    Live,
    /// A `down` case's, with its leaves still down.
    Degraded,
}

/// `CheckpointImage::load` of `top` as the buffer it restores, whose first
/// page the epoch's own layout record names.
fn loaded(stack: &dyn StorageBackend, top: u64) -> io::Result<Vec<Vec<u8>>> {
    let image = CheckpointImage::load(stack, top)?;
    let meta = stack.read_page_at(top, META_RECORD)?.unwrap_or_default();
    let base = layout::decode(&meta)?.first().map_or(0, |b| b.base_page);
    Ok(padded(
        &image.iter().map(|(p, d)| (p, d.to_vec())).collect(),
        base,
        0,
    ))
}

/// The three doors of a restore of `top` — run once per state they read
/// (`files`, before any read healed it) and handle. `Err`: a door broke
/// its own rules (see [`open_door`]).
fn restores(
    case: &mut Case,
    stack: &Stacked,
    top: u64,
    files: &Files,
    handle: Handle,
    salt: u8,
) -> Result<[Door; 3], String> {
    let mut key = case.key(top, files);
    key.extend([handle as u8, salt]);
    if let Some(doors) = case.doors.get(&key) {
        return Ok(doors.clone());
    }
    let [load, eager, lazy] = DOORS.map(|(id, _)| open_door(id, stack, top, &case.pool));
    let doors = [load?.0, eager?.0, lazy?.0];
    case.doors.insert(key, doors.clone());
    Ok(doors)
}

/// The restore doors: each one's id in a case id, and its name.
const DOORS: [(&str, &str); 3] = [
    ("load", "CheckpointImage::load"),
    ("eager", "restore_at"),
    ("lazy", "restore_lazy"),
];

/// How long an eager or a lazy door may take.
const HUNG: Duration = Duration::from_secs(20);

/// What a lazy door's probe read while the fill ran: page index and digest.
type Probed = BTreeSet<(usize, u64)>;

/// Open door `id` of a restore of `top` and judge the door's own rules;
/// `Err` is red whatever the case allows. The eager and lazy doors run on a
/// thread of their own, on a fresh manager built on this thread, and must
/// end within [`HUNG`]; a failed eager door keeps no buffer. A lazy door is
/// probed while its fill runs ([`probe`]): a page it shows holds what the
/// restore ends with. Failed, it returns its error from a second `wait`
/// too, stays incomplete and refuses a checkpoint while its buffers live,
/// and one runs once they drop. A door that panics fails with "panicked".
/// `Ok` carries the door and what its probe read.
fn open_door(
    id: &str,
    stack: &Stacked,
    top: u64,
    pool: &Arc<FlushPool>,
) -> Result<(Door, Probed), String> {
    if id == "load" {
        return Ok((door(caught(|| loaded(stack.as_ref(), top))), Probed::new()));
    }
    let mgr = pool.attach(cfg(), Arc::new(MemoryBackend::new()), Arc::new(()));
    let (mgr, stack, (tx, rx)) = (mgr.unwrap(), Arc::clone(stack), mpsc::channel());
    let lazy = id == "lazy";
    let thread = std::thread::spawn(move || {
        let door = match lazy {
            true => lazy_door(&mgr, stack, top),
            false => eager_door(&mgr, &stack, top),
        };
        drop(mgr);
        let _ = tx.send(());
        door
    });
    let opened = match rx.recv_timeout(HUNG) {
        Err(mpsc::RecvTimeoutError::Timeout) => Err("hung".into()),
        _ => thread.join().unwrap_or_else(|_| Err("panicked".into())),
    };
    opened.map_err(|e| format!("{id}: {e}"))
}

fn door(got: io::Result<Vec<Vec<u8>>>) -> Door {
    got.map(|pages| digest(&pages))
        .map_err(|e| (e.kind(), e.to_string()))
}

/// `f`'s result, with a panic as an error.
fn caught<T>(f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(io::Error::other("panicked")))
}

fn eager_door(mgr: &PageManager, stack: &Stacked, top: u64) -> Result<(Door, Probed), String> {
    let got = caught(|| restore_at(mgr, stack.as_ref(), top).map(|s| pages_of(&s.buffers)));
    match mgr.protected_bytes() {
        kept @ 1.. if got.is_err() => Err(format!("{got:?}, and kept {kept} bytes")),
        _ => Ok((door(got), Probed::new())),
    }
}

fn lazy_door(mgr: &PageManager, stack: Stacked, top: u64) -> Result<(Door, Probed), String> {
    let mut lazy = match caught(|| restore_lazy(mgr, stack, top, None)) {
        Err(e) if mgr.protected_bytes() == 0 => return Ok((door(Err(e)), Probed::new())),
        got => got.map_err(|e| format!("{e}, and kept a buffer"))?,
    };
    let buf = &lazy.state.buffers[0];
    let (addr, len, done) = (buf.as_ptr() as usize, buf.len(), AtomicBool::new(false));
    let (waited, probed) = std::thread::scope(|s| {
        let probing = s.spawn(|| probe(addr, len, &done));
        let waited = lazy.wait();
        done.store(true, Ordering::Release);
        (waited, probing.join().unwrap())
    });
    let probed = probed?;
    let Err(e) = waited else {
        let pages = pages_of(&lazy.state.buffers);
        return match probed.iter().find(|&&(i, seen)| seen != digest(&pages[i])) {
            Some((i, _)) => Err(format!("showed page {i} with bytes it did not end with")),
            None if lazy.is_complete() => Ok((door(Ok(pages)), probed)),
            None => Err("incomplete".into()),
        };
    };
    let again = lazy.wait().map(drop).map_err(|e| e.to_string());
    let (complete, refused) = (lazy.is_complete(), mgr.checkpoint().is_err());
    if again != Err(e.to_string()) || complete || !refused {
        let why = format!("again {again:?}, complete {complete}, refused {refused}");
        return Err(format!("{e}: {why}"));
    }
    drop(lazy);
    let next = mgr.checkpoint().and_then(|_| mgr.wait_checkpoint());
    next.map_err(|e| format!("{e}: a checkpoint once its buffers dropped"))?;
    Ok((door(Err(e)), probed))
}

/// Read each page of `[addr, addr + len)` with `write(2)` into a pipe, over
/// and over until `done` and once more after. A syscall takes no demand
/// fault: a page not installed yet, or poisoned, fails with `EFAULT`.
fn probe(addr: usize, len: usize, done: &AtomicBool) -> Result<Probed, String> {
    let (mut rx, mut tx) = io::pipe().map_err(|e| e.to_string())?;
    let (ps, mut probed) = (page_size(), Probed::new());
    let mut page = vec![0u8; ps];
    loop {
        let last = done.load(Ordering::Acquire);
        for i in 0..len / ps {
            // SAFETY: a page of a buffer that outlives the probe; only the
            // kernel reads it.
            let src = unsafe { std::slice::from_raw_parts((addr + i * ps) as *const u8, ps) };
            match tx.write(src) {
                Ok(n) if n == ps => {
                    rx.read_exact(&mut page).map_err(|e| e.to_string())?;
                    probed.insert((i, digest(&page)));
                }
                Err(e) if e.raw_os_error() == Some(libc::EFAULT) => {}
                other => return Err(format!("probe: write(2) of page {i}: {other:?}")),
            }
        }
        if last {
            return Ok(probed);
        }
        std::thread::yield_now();
    }
}

/// What the stack shows must fit the case: the listing one of its models
/// (or, after the memory tier was lost, a prefix of one), a verify of a
/// damaged segment's epoch the damage, and restores of the newest listed
/// epoch — and below damage at rest — that model's image, as the store
/// holds it (`rules.salt`). `Ok` carries the model.
fn judge_view(
    case: &mut Case,
    stack: &Stacked,
    now: &Seen,
    files: &Files,
    rules: &Rules,
    replay: bool,
    handle: Handle,
) -> Result<Model, String> {
    let fits = |m: &&Model| {
        let want = m.listed.iter().copied();
        match rules.prefix_only {
            true => now.listed.iter().copied().eq(want.take(now.listed.len())),
            false => now.listed.iter().copied().eq(want),
        }
    };
    let model = rules.models.iter().find(fits).ok_or_else(|| {
        let allowed: Vec<_> = rules.models.iter().map(|m| &m.listed).collect();
        format!("lists {:?}, the model allows {allowed:?}", now.listed)
    })?;

    // The scrubber sees damage at rest to a segment (before a read heals
    // it from a peer copy).
    if let Some(e) = rules.intact_below {
        let report = stack.verify_epoch(e);
        let seen = match &report {
            Ok(r) if rules.cut_segment => !r.structural.is_empty(),
            Ok(r) => !r.is_clean(),
            Err(_) => true,
        };
        if !seen {
            return Err(format!("verify of epoch {e} missed the damage: {report:?}"));
        }
    }

    // Restores of the newest listed epoch — and, below damage at rest to
    // epoch `e`, of the newest epoch under it, which must not notice.
    let below = rules
        .intact_below
        .and_then(|e| now.listed.iter().rfind(|&&x| x < e));
    let newest = (now.listed.last()).map(|&top| (top, rules.loud, rules.cut_segment));
    let below = below.map(|&e| (e, &[][..], false));
    for (top, loud, must_fail) in newest.into_iter().chain(below) {
        let want = model_pages(model, top, rules.salt);
        let doors = restores(case, stack, top, files, handle, rules.salt)?;
        for ((_, door), got) in DOORS.iter().zip(doors) {
            if replay {
                println!("{door} of epoch {top}: {got:?}");
            }
            match got {
                Ok(_) if must_fail => {
                    return Err(format!("{door} of epoch {top} read a cut segment"))
                }
                Ok(pages) if pages == want => {}
                Ok(_) => return Err(format!("{door} of epoch {top} differs from the model")),
                Err((kind, _)) if loud.contains(&kind) => {}
                Err((_, e)) => return Err(format!("{door} of epoch {top} failed: {e}")),
            }
        }
    }

    // A checkpointed buffer's older epochs restore its bytes at their
    // `CHECKPOINT` too: a lost write may be rewritten before the newest.
    let older = now.listed.iter().rev().skip(1);
    for &e in older.filter(|e| rules.loud.is_empty() && model.buffers.contains_key(e)) {
        let got = loaded(stack.as_ref(), e).map(|pages| digest(&pages));
        if got.ok() != Some(model_pages(model, e, rules.salt)) {
            return Err(format!(
                "CheckpointImage::load of epoch {e} differs from the model"
            ));
        }
    }
    Ok(model.clone())
}

/// The live handle of a `down` case: `mode`'s leaves are down from call
/// `from` until `ctl` heals them.
struct Live<'a> {
    stack: Stacked,
    ctl: FailureControl,
    mode: Mode,
    from: u64,
    log: &'a [Entry],
}

/// Judge the live handle of a `down` case before anything reopens: while
/// its leaves are down, then healed (see the module docs).
fn judge_live(case: &mut Case, live: Live, rules: &Rules, replay: bool) -> Result<(), String> {
    let down = live.mode.down();
    let listed = live
        .stack
        .epochs()
        .map_err(|e| format!("degraded listing: {e}"))?;
    if let Some(&top) = listed.last() {
        // Some model that fits the listing explains every door: where top's
        // replay window in it holds an epoch the listing lacks, all fail;
        // elsewhere all restore its image.
        let holds = |m: &&Model| listed.iter().all(|e| m.listed.contains(e));
        let files = case.snapshot();
        let doors = restores(case, &live.stack, top, &files, Handle::Degraded, 0)?;
        if replay {
            println!("degraded, listing {listed:?}: epoch {top}'s doors {doors:?}");
        }
        let explains = |m: &Model| match m.listed.range(..=top).any(|e| !listed.contains(e)) {
            true => doors.iter().all(|d| d.is_err()),
            false => (doors.iter()).all(|d| d.as_ref().ok() == Some(&model_pages(m, top, 0))),
        };
        if !rules.models.iter().filter(holds).any(explains) {
            return Err(format!(
                "degraded, listing {listed:?}: epoch {top} restored {doors:?}"
            ));
        }
    }
    // The outermost child whose leaves are all up.
    let mut leaf = 0;
    let up = composite(live.stack.as_ref())
        .children()
        .into_iter()
        .filter(|(_, kid)| {
            let own = leaf..leaf + leaves(*kid).len();
            leaf = own.end;
            !down.iter().any(|l| own.contains(l))
        });
    let under = |e: &&Entry| *e.calls.start() >= live.from;
    let drain = (live.log.iter()).position(|e| e.step == Step::Drain && under(&e));
    if let (Some((name, outer)), Some(i)) = (up.last(), drain) {
        let held = outer
            .epochs()
            .map_err(|e| format!("degraded, {name}: {e}"))?;
        let left = |e: &&Entry| match (e.step, e.outcome) {
            (Step::Commit(x), Outcome::Done) => listed.contains(&x) && !held.contains(&x),
            _ => false,
        };
        if let Some(e) = live.log[..i].iter().find(left) {
            return Err(format!(
                "degraded, listing {listed:?}: the drain left {:?} off {name}",
                e.step
            ));
        }
    }
    let journal = live.ctl.journal();
    live.ctl.heal();
    for e in live.log.iter().filter(under) {
        let refused = match e.step {
            Step::Compact(_) => true,
            Step::Retire(_) => !case.stack.ledger(),
            _ => false,
        };
        let reads = |c: &&Call| e.calls.contains(&c.number) && c.kind == FaultOp::Read;
        let read = journal.iter().any(|c| reads(&c));
        if refused && (e.outcome == Outcome::Done || e.touched || read) {
            let (step, outcome, touched) = (e.step, e.outcome, e.touched);
            return Err(format!(
                "{step:?} with leaves {down:?} down: {outcome:?}, read a record: {read}, \
                 a leaf's chain changed: {touched}"
            ));
        }
    }
    let now = seen(live.stack.as_ref())?;
    case.stack
        .drain_rule(live.stack.as_ref(), &now.listed)
        .map_err(|e| format!("the healed handle: {e}"))?;
    // The bounded `hot` holds nothing drained; every other level holds the
    // chain.
    if let Some(&top) = now.listed.last().filter(|_| case.stack == Stack::Policy) {
        let whole = CheckpointImage::load(live.stack.as_ref(), top).ok();
        for (name, level) in live.stack.children().into_iter().skip(1) {
            if CheckpointImage::load(level, top).ok() != whole {
                return Err(format!(
                    "the healed handle: {name} alone restores epoch {top} wrong"
                ));
            }
        }
    }
    let files = case.snapshot();
    judge_view(case, &live.stack, &now, &files, rules, replay, Handle::Live).map(drop)
}

/// Reopen after a case and judge it; `Ok` carries what the reopen showed
/// (`None`: a reopen that refused damaged bytes). A reopen reads nothing
/// but the files and the memory tier, so a state already judged green
/// under the same rules is not judged again.
fn judge(case: &mut Case, rules: &Rules, replay: bool) -> Result<Option<Seen>, String> {
    let before = case.snapshot();
    let flags = (
        rules.prefix_only,
        rules.at_rest,
        rules.cut_segment,
        rules.same_as.is_some(),
    );
    let bounds = (rules.loud, rules.intact_below, rules.damaged);
    let key = digest(&(case.key(0, &before), &rules.models, flags, bounds));
    if let Some(seen) = case.judged.get(&key).filter(|_| !replay) {
        return Ok(seen.clone());
    }
    let seen = judge_reopen(case, before, rules, replay)?;
    case.judged.insert(key, seen.clone());
    Ok(seen)
}

/// Reopen twice with `reopen`, showing `seen`: the first reopen fails only
/// on damage at rest, and then changes no file (`Ok(None)`); its recovery
/// only deletes (on the group it may also append retirements of orphans
/// to a rank's log: the records read before are a prefix of the records
/// after) and leaves no file of an epoch its store does not list; the
/// second changes nothing. `Ok` carries the second reopen,
/// what it shows and the files.
fn reopen_twice<T>(
    case: &Case,
    before: &Files,
    rules: &Rules,
    reopen: impl Fn(&Case) -> io::Result<T>,
    seen: impl Fn(&T) -> Result<Seen, String>,
) -> Result<Option<(T, Seen, Files)>, String> {
    let records = |path: &Path| log::read::<ManifestRecord>(path).ok();
    let rank_log = |path: &&PathBuf| case.stack == Stack::Group && path.ends_with(MANIFEST);
    let rank_logs = before.keys().filter(rank_log);
    let logs: HashMap<_, _> = rank_logs.map(|p| (p, records(p))).collect();
    let first = match reopen(case) {
        Ok(first) => first,
        Err(_) if case.snapshot() != *before => return Err("a failed reopen changed files".into()),
        Err(e) if rules.at_rest && e.kind() == io::ErrorKind::InvalidData => return Ok(None),
        Err(e) => return Err(format!("reopen: {e}")),
    };
    let now = seen(&first)?;
    let files = case.snapshot();
    let retirement = |r: &ManifestRecord| *r == ManifestRecord::compacted_into(r.epoch, 0);
    let retired = |path: &PathBuf| match (logs.get(path), records(path)) {
        (Some(Some(was)), Some(now)) => {
            now.starts_with(was) && now[was.len()..].iter().all(retirement)
        }
        _ => false,
    };
    let rewritten = |(path, b): &(&PathBuf, &Vec<u8>)| before.get(*path) != Some(*b);
    if let Some((path, _)) = files.iter().filter(rewritten).find(|(p, _)| !retired(p)) {
        return Err(format!("the reopen wrote {path:?}"));
    }
    for (leaf, chain) in now.chains.iter().enumerate() {
        let Some(dir) = case.dir_of(leaf) else {
            continue;
        };
        for entry in fs::read_dir(dir).map_err(|e| format!("{dir:?}: {e}"))? {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            if !entry.file_type().unwrap().is_dir() && !belongs(&name, chain) {
                return Err(format!("orphan {name} in leaf {leaf} (chain {chain:?})"));
            }
        }
    }
    drop(first);
    let again = reopen(case).map_err(|e| format!("second reopen: {e}"))?;
    if seen(&again)? != now {
        return Err("a second reopen lists differently".into());
    }
    if case.snapshot() != files {
        return Err("a second reopen changed bytes on disk".into());
    }
    Ok(Some((again, now, files)))
}

/// [`judge`], on a state it has not judged yet. Each file leaf of a reopen
/// numbers its syscalls on a control of its own, so its fsyncs are
/// modeled, never issued.
fn judge_reopen(
    case: &mut Case,
    before: Files,
    rules: &Rules,
    replay: bool,
) -> Result<Option<Seen>, String> {
    if case.stack == Stack::Group {
        let reopen = |case: &Case| case.open_group(&FailureControl::new(), false);
        let reopened = reopen_twice(case, &before, rules, reopen, group_seen)?;
        return match reopened {
            Some((group, now, files)) => {
                judge_group(case, group, &files, rules, replay).map(|()| Some(now))
            }
            None => Ok(None),
        };
    }
    let reopen = |case: &Case| case.open(&FailureControl::new(), false);
    let seen_of = |stack: &Stacked| seen(stack.as_ref());
    let Some((again, now, files)) = reopen_twice(case, &before, rules, reopen, seen_of)? else {
        return Ok(None);
    };
    judge_view(case, &again, &now, &files, rules, replay, Handle::Reopened)?;

    // A burst on the drain is retried away: nothing may differ.
    if let Some(baseline) = rules.same_as {
        if &now != baseline {
            return Err(format!(
                "a retried burst left {now:?}, fault-free {baseline:?}"
            ));
        }
    }

    // No epoch number the stack accounts for is handed out again.
    if let Some(&top) = now.listed.last() {
        if let Ok(session) = again.begin_epoch(top) {
            session.abort().unwrap();
            return Err(format!("epoch {top} opened again"));
        }
    }

    // The stack's drain rule holds (a damaged epoch cannot move).
    let damaged = !rules.loud.is_empty();
    let drained = case.stack.drain_rule(again.as_ref(), &now.listed);
    if !damaged {
        drained?;
    }

    // The store keeps working: the next epoch commits on top of whatever
    // the case left (a torn log tail is cut, never built on) and reads back.
    if !damaged {
        let next = again.high_water().map_err(|e| e.to_string())?.unwrap_or(0) + 1;
        let records = records(next);
        write_epoch(again.as_ref(), next, records.clone())
            .map_err(|e| format!("committing epoch {next} after the reopen: {e}"))?;
        let (page, data) = &records[0];
        let read = again.read_page_at(next, *page).map_err(|e| e.to_string())?;
        if again.epochs().ok().and_then(|e| e.last().copied()) != Some(next)
            || read.as_ref() != Some(data)
        {
            return Err(format!(
                "epoch {next}, committed after the reopen, does not read back"
            ));
        }
    }
    Ok(Some(now))
}

/// What a reopened group shows: its last commit, each rank's chain, and no
/// chain on `GLOBAL`'s leaf (whose directory may hold `GLOBAL` alone).
fn group_seen(group: &CheckpointGroup) -> Result<Seen, String> {
    let ranks = (0..RANKS).map(|r| group.rank_backend(r).chain());
    let chains = ranks.chain([Ok(vec![])]).collect::<io::Result<_>>();
    let chains = chains.map_err(|e| format!("rank chain: {e}"))?;
    let listed = group.last_committed().into_iter().collect();
    Ok(Seen { listed, chains })
}

/// The highest epoch number a rank's log or `GLOBAL` names.
fn numbers_used(case: &Case) -> io::Result<u64> {
    let global = global::read(&case.dirs[RANKS].join(GLOBAL_MANIFEST_FILE))?;
    let mut used = global::high_water(&global).unwrap_or(0);
    for dir in &case.dirs[..RANKS] {
        let records = log::read::<ManifestRecord>(&dir.join(MANIFEST))?;
        used = used.max(records.iter().map(|r| r.epoch).max().unwrap_or(0));
    }
    Ok(used)
}

/// The group's half of [`judge_reopen`]. Each rank is judged as a stack of
/// its own, with its salt and — where the damage is not — no damage. Then
/// the group's rules: with nothing damaged, the ranks list one history
/// above the oldest epoch they all list (a fold that failed on one rank
/// leaves its chain longer), whose newest epoch is the group's last
/// commit; `restore_latest` gives each rank the model's image of it; and
/// the next checkpoint commits, on every rank, under a number above every
/// one a log names.
fn judge_group(
    case: &mut Case,
    group: CheckpointGroup,
    files: &Files,
    rules: &Rules,
    replay: bool,
) -> Result<(), String> {
    let mut models = Vec::new();
    let mut lists = Vec::new();
    for rank in 0..RANKS {
        let own = rules.damaged.is_none_or(|leaf| leaf == rank);
        let rules = Rules {
            models: rules.models.clone(),
            loud: if own { rules.loud } else { &[] },
            intact_below: rules.intact_below.filter(|_| own),
            cut_segment: rules.cut_segment && own,
            salt: salt(rank),
            ..Rules::new(&[])
        };
        let stack = Arc::clone(group.rank_backend(rank));
        let now = seen(stack.as_ref())?;
        // A rank's restores read its own files only.
        let mut mine = files.clone();
        mine.retain(|path, _| path.parent() == Some(&case.dirs[rank]));
        let model = judge_view(case, &stack, &now, &mine, &rules, replay, Handle::Reopened);
        models.push(model.map_err(|e| format!("rank {rank}: {e}"))?);
        lists.push(now.listed);
    }
    let last = group.last_committed();
    let damaged = !rules.loud.is_empty();
    let floor = lists.iter().filter_map(|l| l.first()).max().copied();
    let above =
        |l: &Vec<u64>| -> Vec<u64> { l.iter().copied().filter(|&e| Some(e) >= floor).collect() };
    let one = lists
        .iter()
        .all(|l| above(l) == above(&lists[0]) && l.last() == last.as_ref());
    if !damaged && !one {
        return Err(format!("the ranks list {lists:?}, GLOBAL {last:?}"));
    }

    let mut ranks = match Ranks::new(group) {
        Ok(ranks) => ranks,
        Err(e) if rules.loud.contains(&e.kind()) => return Ok(()),
        Err(e) => return Err(format!("restore_latest: {e}")),
    };
    if let Some(g) = last {
        for (rank, (buf, model)) in ranks.bufs.iter().zip(&models).enumerate() {
            let got = digest(&pages_of(std::slice::from_ref(buf)));
            if got != model_pages(model, g, salt(rank)) {
                return Err(format!("restore_latest of {g} differs on rank {rank}"));
            }
        }
    }
    if damaged {
        return Ok(());
    }
    // The group keeps working, under a number no log has named yet.
    let used = numbers_used(case).map_err(|e| e.to_string())?;
    ranks.write(used + 1);
    let next = ranks.group.checkpoint();
    let next = next.map_err(|e| format!("next checkpoint: {e}"))?;
    let newest = |r: usize| ranks.group.rank_backend(r).epochs().ok()?.last().copied();
    match next > used && (0..RANKS).all(|r| newest(r) == Some(next)) {
        true => Ok(()),
        false => Err(format!("next checkpoint {next}, the logs name {used}")),
    }
}

/// One case of a sweep: its id, and what to do with a verdict.
struct Sweep {
    stack: Stack,
    only: Option<Vec<String>>,
}

impl Sweep {
    fn new(stack: Stack) -> Self {
        let only = std::env::var("CRASH_POINTS")
            .ok()
            .map(|spec| spec.split(':').map(str::to_owned).collect());
        Self { stack, only }
    }

    /// Whether the case `parts` (after the stack name) runs at all.
    fn wants(&self, parts: &[String]) -> bool {
        match &self.only {
            None => true,
            Some(only) => only[0] == self.stack.name() && only[1..] == *parts,
        }
    }

    fn replay(&self) -> bool {
        self.only.is_some()
    }

    /// Judge one case — its `live` handle first, if it kept one — and fail
    /// the test, naming it, on a red verdict. In the child each case is
    /// logged as it starts and ends, so a case that kills the process is
    /// still named.
    fn check(
        &self,
        case: &mut Case,
        id: &[String],
        rules: &Rules,
        live: Option<Live>,
        context: &dyn Fn() -> String,
    ) {
        let child = std::env::var_os(CHILD).is_some();
        let name = format!("{}:{}", self.stack.name(), id.join(":"));
        if child {
            println!("judging {name}");
        }
        let live = live.map_or(Ok(()), |live| judge_live(case, live, rules, self.replay()));
        let verdict = live.and_then(|()| judge(case, rules, self.replay()));
        if child {
            println!("judged {name}");
        }
        if self.replay() {
            println!("{}\n{verdict:?}", context());
        }
        if let Err(why) = verdict {
            let id = id.join(":");
            panic!("{}:{id} — {why}\n{}", self.stack.name(), context());
        }
    }
}

fn id(parts: &[&dyn std::fmt::Display]) -> Vec<String> {
    parts.iter().map(|p| p.to_string()).collect()
}

/// The wire record length of the commit log (or its staging file) at
/// `path`: `None` for a segment.
fn log_wire(path: &Path) -> Option<usize> {
    match path.file_stem().unwrap().to_str() {
        Some(MANIFEST) => Some(LOG_WIRE),
        Some(GLOBAL_MANIFEST_FILE) => Some(GLOBAL_WIRE),
        _ => None,
    }
}

/// The byte counts a torn `write` may land: every cut of a commit-log
/// write, each frame boundary ±1 of a segment write.
fn tears(write: &StoppedWrite) -> Vec<usize> {
    let len = write.bytes.len();
    if log_wire(&write.path).is_some() {
        return (0..len).collect();
    }
    let around = segment_bounds(&write.bytes, write.at == 0)
        .into_iter()
        .flat_map(|b| [b.saturating_sub(1), b, b + 1]);
    let cuts: BTreeSet<usize> = around.filter(|&b| b < len).collect();
    cuts.into_iter().collect()
}

/// The frame boundaries inside one segment write: a header's magic and
/// epoch, a batch's frames and payloads, a trailer's entries and footer.
fn segment_bounds(bytes: &[u8], header: bool) -> Vec<usize> {
    let le = |at: usize, n: usize| {
        let mut word = [0u8; 8];
        word[..n].copy_from_slice(&bytes[at..at + n]);
        u64::from_le_bytes(word) as usize
    };
    let len = bytes.len();
    if header {
        return vec![0, 8, SEG_HEADER.min(len)];
    }
    if bytes.ends_with(b"AICKTRL1") {
        let entries = (len - SEG_FOOTER) / SEG_ENTRY;
        let mut bounds: Vec<usize> = (0..=entries).map(|i| i * SEG_ENTRY).collect();
        bounds.extend([len - 16, len - 8, len]);
        return bounds;
    }
    let (mut bounds, mut at) = (vec![], 0);
    while at + SEG_FRAME <= len {
        let stored = le(at + 13, 4);
        bounds.extend([at, at + SEG_FRAME]);
        at += SEG_FRAME + stored;
    }
    bounds.push(len);
    bounds
}

/// Where a whole segment file is cut: at the header's and every record's
/// frame boundaries, and in the trailer at every byte (`every_byte`: the
/// lone stack) or at its entries' and footer's boundaries (the tiers, which
/// route the same failure).
fn segment_file_bounds(bytes: &[u8], every_byte: bool) -> Vec<usize> {
    let len = bytes.len();
    let count = u64::from_le_bytes(bytes[len - SEG_FOOTER..][..8].try_into().unwrap()) as usize;
    let trailer = len - SEG_FOOTER - count * SEG_ENTRY;
    let mut bounds = segment_bounds(&bytes[..SEG_HEADER], true);
    let records = segment_bounds(&bytes[SEG_HEADER..trailer], false);
    bounds.extend(records.into_iter().map(|b| SEG_HEADER + b));
    match every_byte {
        true => bounds.extend(trailer..len),
        false => bounds.extend(
            segment_bounds(&bytes[trailer..], false)
                .iter()
                .map(|b| trailer + b),
        ),
    }
    bounds.dedup();
    bounds
}

/// One byte of each field kind of a whole segment file: the header's magic
/// and epoch, the first record's frame and payload, the trailer's first
/// entry and the footer's count, CRC and magic — where a lean stack's
/// segments are flipped and cut.
fn segment_fields(bytes: &[u8]) -> Vec<usize> {
    let len = bytes.len();
    let count = u64::from_le_bytes(bytes[len - SEG_FOOTER..][..8].try_into().unwrap()) as usize;
    let trailer = len - SEG_FOOTER - count * SEG_ENTRY;
    let first = [SEG_HEADER, SEG_HEADER + SEG_FRAME]
        .into_iter()
        .filter(|&b| b < trailer);
    let footer = [len - SEG_FOOTER, len - 16, len - 8];
    [0, 8]
        .into_iter()
        .chain(first)
        .chain([trailer])
        .chain(footer)
        .collect()
}

/// The fault-free run of `stack`: its log, the calls it made, what the
/// reopen showed, the files it left and what a power cut at each call
/// would have left.
struct Baseline {
    log: Vec<Entry>,
    ctl: FailureControl,
    seen: Seen,
    files: Files,
    memory: MemoryBackend,
}

impl Baseline {
    fn run(sweep: &Sweep, case: &mut Case) -> Self {
        let stack = sweep.stack.name();
        // A case id names one call only if every run numbers its calls the
        // same way: run the scenario twice.
        case.reset();
        let first = FailureControl::new();
        drop(case.run(&first, None));
        case.reset();
        let ctl = FailureControl::new();
        let (log, _) = case.run(&ctl, None);
        same_calls(stack, &first.journal(), &ctl.journal());
        let files = case.snapshot();
        let memory = copy_of(&case.memory);
        let seen = judge(case, &Rules::new(&log), false)
            .unwrap_or_else(|e| panic!("{stack}: the fault-free run: {e}\n{log:#?}"))
            .expect("a fault-free reopen");
        Self {
            log,
            ctl,
            seen,
            files,
            memory,
        }
    }

    /// Put the fault-free end state back.
    fn restore(&self, case: &mut Case) {
        case.restore(&self.files);
        case.memory = copy_of(&self.memory);
    }

    /// The step that wrote the last record of the log at `path`.
    fn last_writer_of(&self, path: &Path) -> Option<usize> {
        let writes = |c: &&Call| {
            let kind = matches!(c.kind, FaultOp::Sys(Syscall::Write | Syscall::Rename));
            kind && c.path.as_deref() == Some(path)
        };
        let last = self.ctl.journal().iter().rev().find(writes)?.number;
        self.log.iter().position(|e| e.calls.contains(&last))
    }
}

/// Fail on the first call whose kind, leaf or path differs between two runs
/// of the scenario, naming both, or on a run that stopped short: a case id
/// names one call only if every run numbers its calls the same way,
/// whatever the schedule.
fn same_calls(what: &str, a: &[Call], b: &[Call]) {
    let key = |c: &Call| (c.kind, c.leaf, c.path.clone());
    if let Some((x, y)) = a.iter().zip(b).find(|(x, y)| key(x) != key(y)) {
        panic!(
            "{what}: call {} differs between two runs: {x:?}, then {y:?}",
            x.number
        );
    }
    let (n, m) = (a.len(), b.len());
    assert_eq!(n, m, "{what}: one run made {n} calls, the other {m}");
}

/// The epoch a segment file belongs to, from its name.
fn epoch_of(path: &Path) -> u64 {
    let name = path.file_name().unwrap().to_string_lossy();
    let digits = name.trim_start_matches(|c: char| !c.is_ascii_digit());
    digits[..10].parse().unwrap()
}

/// A memory store holding what `store` holds (its chain is all deltas).
fn copy_of(store: &MemoryBackend) -> MemoryBackend {
    let copy = MemoryBackend::new();
    for entry in store.chain().unwrap() {
        assert_eq!(entry.kind, EpochKind::Delta, "a memory tier never folds");
        let mut records = Vec::new();
        store
            .read_epoch(entry.epoch, &mut |p, d| records.push((p, d.to_vec())))
            .unwrap();
        write_epoch(&copy, entry.epoch, records).unwrap();
    }
    copy
}

/// Crash, fail, burst and corrupt every call; take each leaf of a stack of
/// several down from each of its backend calls; tear every write; cut the
/// power before every call.
fn sweep_calls(sweep: &Sweep, case: &mut Case, base: &Baseline) {
    let stack = sweep.stack;
    let memory_tier = stack == Stack::MemoryOverFile;
    let n = base.ctl.ops();
    println!("{}: N = {n}", stack.name());
    let journal = base.ctl.journal();
    // A group's rank going down is a failed phase 1, which `fail:k` is.
    let several = !matches!(stack, Stack::File | Stack::Group | Stack::Buffer);
    for call in &journal {
        let partner = stack == Stack::Policy && matches!(call.leaf, 1 | 2);
        let downs = [
            several.then_some(Mode::Down(call.leaf)),
            partner.then_some(Mode::PartnerDown),
        ];
        for mode in Mode::ALL.into_iter().chain(downs.into_iter().flatten()) {
            let k = call.number;
            let crash_id = mode.id(k);
            let any_tear = mode == Mode::Crash
                && matches!(call.kind, FaultOp::Sys(Syscall::Write))
                && (sweep.only.as_ref()).is_none_or(|o| o[1] == "tear" && o[2] == k.to_string());
            if !mode.applies_to(call, stack) || !(sweep.wants(&crash_id) || any_tear) {
                continue;
            }
            case.reset();
            let ctl = FailureControl::new();
            mode.arm(&ctl, k);
            let (log, stacked) = case.run(&ctl, Some(mode));
            // Up to the fault, a case is the fault-free run: its fault hits
            // the fault-free run's call k.
            let what = format!("{}:{}", stack.name(), crash_id.join(":"));
            let fired = ctl.fired();
            same_calls(&what, &journal[k as usize - 1..][..1], fired.as_slice());
            let leaked = |e: &Entry| e.outcome == Outcome::Refused && e.touched;
            if log.iter().any(leaked) {
                panic!("{what}: a refused commit left a file\n{log:#?}");
            }
            let outage = !mode.down().is_empty();
            if !outage {
                ctl.heal();
            }
            let context = || format!("call {k} is {fired:?}\n{log:#?}");
            let live = stacked.filter(|_| outage).map(|stack| Live {
                stack,
                ctl: ctl.clone(),
                mode,
                from: k,
                log: &log,
            });
            // Armed rot becomes real damage before anything reopens.
            for rot in ctl.rot() {
                let (epoch, page, byte) = (rot.epoch, rot.page, rot.byte);
                match case.dir_of(rot.leaf) {
                    Some(dir) => {
                        let region = SegmentRegion::PayloadOf { page, byte };
                        let _ = corrupt_segment_region(dir, epoch, region);
                    }
                    None => {
                        let _ = case.memory.corrupt_stored_page(epoch, page, byte as usize);
                    }
                }
            }
            let mut rules = Rules::new(&log);
            rules.prefix_only = mode == Mode::Crash && memory_tier;
            if let Some(rot) = ctl.rot().first() {
                rules.loud = &[io::ErrorKind::InvalidData];
                rules.damaged = Some(rot.leaf);
            }
            let burst_step = log.iter().find(|e| e.calls.contains(&k)).map(|e| e.step);
            if (mode, burst_step) == (Mode::Burst, Some(Step::Drain)) {
                rules.same_as = Some(&base.seen);
            }
            // The write the crash stopped, to tear once the case is judged.
            let stopped = ctl.stopped_write();
            let crashed = stopped.as_ref().map(|_| case.snapshot());
            if mode == Mode::Crash {
                case.memory = MemoryBackend::new(); // a crash loses the memory tier
            }
            if sweep.wants(&crash_id) {
                sweep.check(case, &crash_id, &rules, live, &context);
            }
            // A failed barrier, then the power: what did it make durable?
            let barrier = matches!(call.kind, FaultOp::Sys(Syscall::Fsync | Syscall::DirSync));
            if mode == Mode::Fail && barrier && sweep.wants(&crash_id) {
                case.power_cut(&ctl.power_cut(u64::MAX));
                rules.prefix_only = memory_tier;
                sweep.check(case, &crash_id, &rules, None, &|| {
                    format!("power cut after: {}", context())
                });
            }
            // The write the crash stopped, torn at each cut.
            let (Some(write), Some(crashed)) = (stopped, crashed) else {
                continue;
            };
            for cut in tears(&write) {
                let tear_id = id(&[&"tear", &k, &cut]);
                if !sweep.wants(&tear_id) {
                    continue;
                }
                case.restore(&crashed);
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(&write.path)
                    .unwrap();
                file.write_all_at(&write.bytes[..cut], write.at).unwrap();
                case.memory = MemoryBackend::new();
                let context = || format!("{} of {write:?}: {}", cut, context());
                sweep.check(case, &tear_id, &rules, None, &context);
            }
        }
    }
    // The power fails just before call k (k = N + 1: after the scenario);
    // the buffer's leaf is `file`'s.
    for k in (1..=n + 1).filter(|_| stack != Stack::Buffer) {
        let cut_id = id(&[&"powercut", &k]);
        if !sweep.wants(&cut_id) {
            continue;
        }
        let log = cut_at(&base.log, k);
        case.power_cut(&base.ctl.power_cut(k));
        let mut rules = Rules::new(&log);
        rules.prefix_only = memory_tier;
        let call = journal.get(k as usize - 1);
        sweep.check(case, &cut_id, &rules, None, &|| {
            format!("call {k} is {call:?}\n{log:#?}")
        });
    }
}

/// Damage at rest to the files the fault-free run left: every byte
/// flipped, each frame (or record) boundary cut, each file lost — the
/// commit logs when `logs`, else the segments.
fn sweep_at_rest(sweep: &Sweep, case: &mut Case, base: &Baseline, logs: bool) {
    let stack = sweep.stack;
    let lone = stack == Stack::File;
    // Every prefix of the scenario, each step done or not run.
    let prefixes: Vec<Model> = (0..=base.log.len())
        .map(|i| {
            let done = |(j, e): (usize, &Entry)| Entry {
                outcome: if j < i {
                    Outcome::Done
                } else {
                    Outcome::NotRun
                },
                ..e.clone()
            };
            let log: Vec<Entry> = base.log.iter().enumerate().map(done).collect();
            models(&log).remove(0)
        })
        .collect();
    for (path, bytes) in &base.files {
        let label = case.label(path);
        let wire = log_wire(path).unwrap_or(0);
        let log = wire > 0;
        if log != logs {
            continue;
        }
        let mut cases: Vec<(Vec<String>, Option<usize>, Option<usize>)> = Vec::new();
        let lean = !log && stack.lean();
        let flips = match lean {
            true => segment_fields(bytes),
            false => (0..bytes.len()).collect(),
        };
        let flips = flips.into_iter().filter(|&b| b < bytes.len());
        cases.extend(flips.map(|b| (id(&[&"rot", &label, &b]), Some(b), None)));
        // A commit log cut at a record boundary is a shorter valid log — an
        // older commit, which only a lone store can be judged against.
        let bounds = match log {
            true if lone => (0..=(bytes.len() - LOG_MAGIC) / wire)
                .map(|r| LOG_MAGIC + r * wire)
                .chain([0])
                .collect(),
            true => vec![],
            false if lean => segment_fields(bytes),
            false => segment_file_bounds(bytes, lone),
        };
        let cut = bounds.into_iter().filter(|&b| b < bytes.len());
        cases.extend(cut.map(|b| (id(&[&"cut", &label, &b]), None, Some(b))));
        if !log || lone {
            cases.push((id(&[&"lose", &label]), None, None));
        }
        for (case_id, flip, cut) in cases {
            if !sweep.wants(&case_id) {
                continue;
            }
            base.restore(case);
            let mut models = vec![models(&base.log).remove(0)];
            match (flip, cut) {
                (Some(b), _) => {
                    let mut damaged = bytes.clone();
                    damaged[b] ^= 0xFF;
                    fs::write(path, damaged).unwrap();
                    // Rot confined to a log's last record reads as a torn
                    // append of it: that commit never happened.
                    if log && b >= bytes.len() - wire {
                        let writer = base.last_writer_of(path).expect("the log's writer");
                        let mut log = base.log.clone();
                        log[writer].outcome = Outcome::Failed;
                        models.extend(self::models(&log));
                    }
                }
                (None, Some(c)) => fs::write(path, &bytes[..c]).unwrap(),
                (None, None) => fs::remove_file(path).unwrap(),
            }
            if log && flip.is_none() {
                models = prefixes.clone();
            }
            // A segment whose epoch another leaf holds too is served from
            // that copy: every door restores the model.
            let epoch = (!log).then(|| epoch_of(path));
            let copy_elsewhere = |(leaf, chain): (usize, &Vec<ChainEntry>)| {
                let elsewhere = case.dir_of(leaf).map(PathBuf::as_path) != path.parent();
                elsewhere && chain.iter().any(|c| Some(c.epoch) == epoch)
            };
            // A group's ranks hold their own epochs, no copies.
            let redundant =
                stack != Stack::Group && base.seen.chains.iter().enumerate().any(copy_elsewhere);
            let rules = Rules {
                models,
                prefix_only: false,
                loud: match (log, flip.or(cut)) {
                    _ if redundant => &[],
                    (false, Some(_)) => &[io::ErrorKind::InvalidData],
                    _ => &[io::ErrorKind::InvalidData, io::ErrorKind::NotFound],
                },
                at_rest: true,
                intact_below: epoch,
                cut_segment: !log && cut.is_some() && !redundant,
                same_as: None,
                salt: 0,
                damaged: (0..=case.dirs.len())
                    .find(|&l| case.dir_of(l).map(PathBuf::as_path) == path.parent()),
            };
            sweep.check(case, &case_id, &rules, None, &|| String::new());
        }
    }
}

/// The read sweep of a stack's fault-free end state (see the module docs):
/// each door of a restore of the newest epoch — on the group, of rank 0's
/// store — run unarmed to list its reads, then once per read k and mode.
fn sweep_reads(sweep: &Sweep, case: &mut Case, base: &Baseline) {
    let model = models(&base.log).remove(0);
    let top = *base.seen.listed.last().expect("the scenario commits");
    let want = padded(&model.image(top), layout().base, salt(0));
    let (stack, restored): (_, Door) = (sweep.stack.name(), Ok(digest(&want)));
    let open = |case: &mut Case, ctl: &FailureControl| -> Stacked {
        base.restore(case);
        match case.stack {
            Stack::Group => Arc::from(Case::file_on(&case.dirs[0], ctl.leaf(), true).unwrap()),
            _ => case.open(ctl, true).unwrap(),
        }
    };
    for (door, name) in DOORS {
        let ctl = FailureControl::new();
        let stacked = open(case, &ctl);
        let opened = ctl.ops() as usize;
        let (got, _) = open_door(door, &stacked, top, &case.pool).unwrap();
        assert_eq!(got, restored, "{stack}: {name} unarmed");
        let journal = ctl.journal().into_iter().skip(opened);
        let reads: Vec<Call> = journal.filter(|c| c.kind == FaultOp::Read).collect();
        println!("{stack}: {door} R = {}", reads.len());
        let (chains, chain) = (leaf_chains(stacked.as_ref()), stacked.chain().unwrap());
        let window: Vec<u64> = replay_window(&chain, top)
            .unwrap()
            .iter()
            .map(|c| c.epoch)
            .collect();
        for (k, call) in (1..).zip(&reads) {
            let down = (chains.len() > 1).then_some(Mode::Down(call.leaf));
            let modes = [Mode::Burst, Mode::Crash, Mode::Corrupt, Mode::Panic];
            for mode in modes.into_iter().chain(down) {
                let id = [vec!["read".into(), door.into()], mode.id(k)].concat();
                if !sweep.wants(&id) {
                    continue;
                }
                let what = format!("{stack}:{}", id.join(":"));
                let ctl = FailureControl::new();
                let stacked = open(case, &ctl);
                mode.arm(&ctl, call.number);
                let armed = open_door(door, &stacked, top, &case.pool);
                if mode != Mode::Panic {
                    same_calls(&what, std::slice::from_ref(call), ctl.fired().as_slice());
                }
                // Rot on a leaf that lists no such epoch fetched nothing.
                let rotten = || {
                    ctl.rot()
                        .into_iter()
                        .find(|r| holds(&chains, r.leaf, r.epoch))
                };
                // Where the mode leaves a way the door must restore; where
                // not, a burst may fail `Interrupted`, rot `InvalidData`.
                let (must, loud) = match (mode, rotten()) {
                    (Mode::Burst, _) => (door != "load", Some(io::ErrorKind::Interrupted)),
                    (Mode::Down(leaf), _) => (peers_hold(&chains, leaf, &window), None),
                    (Mode::Corrupt, rot) => {
                        let repairable =
                            rot.is_none_or(|r| peers_hold(&chains, r.leaf, &[r.epoch]));
                        (repairable, Some(io::ErrorKind::InvalidData))
                    }
                    _ => (false, None),
                };
                let armed = armed.and_then(|(got, probed)| {
                    if sweep.replay() {
                        println!("{name} {what}, read {k} {call:?}: {got:?}");
                    }
                    let fine = match &got {
                        Ok(_) => got == restored,
                        Err((kind, _)) => !must && loud.is_none_or(|l| l == *kind),
                    };
                    match probed.iter().find(|&&(i, d)| d != digest(&want[i])) {
                        Some((i, _)) => Err(format!("the probe read page {i} wrong")),
                        None if fine => Ok(()),
                        None => Err(format!("{got:?}")),
                    }
                });
                // Healed, the same stack restores exactly — or fails again
                // on rot no read repaired.
                ctl.heal();
                ctl.on_call(|_| {});
                let healed =
                    open_door(door, &stacked, top, &case.pool).and_then(|(got, _)| {
                        match (&got, rotten()) {
                            (Err((io::ErrorKind::InvalidData, _)), Some(_)) => Ok(()),
                            (_, None) if got == restored => Ok(()),
                            _ => Err(format!("healed: {got:?}")),
                        }
                    });
                if let Err(why) = armed.and(healed) {
                    panic!("{what} — {why}\nread {k} is {call:?}");
                }
            }
        }
    }
}

/// Whether leaf `leaf`'s chain lists `epoch`.
fn holds(chains: &[Option<Vec<ChainEntry>>], leaf: usize, epoch: u64) -> bool {
    chains[leaf].iter().flatten().any(|c| c.epoch == epoch)
}

/// Whether a leaf other than `leaf` holds each of `epochs`.
fn peers_hold(chains: &[Option<Vec<ChainEntry>>], leaf: usize, epochs: &[u64]) -> bool {
    let elsewhere = |&e: &u64| (0..chains.len()).any(|l| l != leaf && holds(chains, l, e));
    epochs.iter().all(elsewhere)
}

/// The sweep of one stack in this process: every call, and damage at rest
/// to its commit logs — or, `reads`, every read of every restore door. Its
/// directories carry `tag`: two sweeps of one stack in one process must
/// not share them.
fn sweep(stack: Stack, tag: &str, reads: bool) {
    let sweep = Sweep::new(stack);
    if sweep.only.as_ref().is_some_and(|o| o[0] != stack.name()) {
        return;
    }
    let mut case = Case::new(stack, tag);
    let base = Baseline::run(&sweep, &mut case);
    match (reads, stack) {
        (true, _) => sweep_reads(&sweep, &mut case, &base),
        (false, Stack::Buffer) => sweep_calls(&sweep, &mut case, &base),
        (false, _) => {
            sweep_calls(&sweep, &mut case, &base);
            sweep_at_rest(&sweep, &mut case, &base, true);
        }
    }
    case.reset();
}

#[test]
fn every_call_of_a_lone_file_backend_is_a_crash_point() {
    sweep(Stack::File, "", false);
}

#[test]
fn every_call_of_file_over_file_tiers_is_a_crash_point() {
    sweep(Stack::FileOverFile, "", false);
}

#[test]
fn every_call_of_memory_over_file_tiers_is_a_crash_point() {
    sweep(Stack::MemoryOverFile, "", false);
}

#[test]
fn every_call_of_two_file_replicas_is_a_crash_point() {
    sweep(Stack::Replica2, "", false);
}

#[test]
fn every_call_of_a_three_level_policy_is_a_crash_point() {
    sweep(Stack::Policy, "", false);
}

#[test]
fn every_call_of_a_two_rank_group_is_a_crash_point() {
    sweep(Stack::Group, "", false);
}

#[test]
fn every_call_of_a_checkpointed_buffer_is_a_crash_point() {
    sweep(Stack::Buffer, "", false);
}

/// The buffer stack again, every manager of the sweep tracking writes with
/// `mprotect` + `SIGSEGV`: the path of a host without userfaultfd
/// write-protect.
#[test]
fn every_call_of_a_checkpointed_buffer_is_a_crash_point_on_mprotect() {
    ai_ckpt::with_mprotect_tracking(|| sweep(Stack::Buffer, "-mprotect", false));
}

/// Every stack's read sweep; on the group, rank 0's store.
fn every_read(tag: &str) {
    for stack in Stack::ALL.into_iter().chain([Stack::Buffer]) {
        sweep(stack, tag, true);
    }
}

#[test]
fn every_read_of_every_restore_door_is_a_crash_point() {
    every_read("-reads");
}

/// The read sweep with every manager tracking writes with `mprotect` +
/// `SIGSEGV`: a lazy restore lands through a userfaultfd of its own, which
/// closes once the fill ends.
#[test]
fn every_read_of_every_restore_door_is_a_crash_point_on_mprotect() {
    ai_ckpt::with_mprotect_tracking(|| every_read("-reads-mprotect"));
}

/// Damage at rest to every segment file of every stack, in a child process
/// under `ulimit -v` (an address-space limit is per process and cannot be
/// raised again): a rotted length field used to make the decoders reserve
/// what the frame claimed, an abort on any memory-limited node.
#[test]
fn segment_damage_at_rest_under_an_address_space_limit() {
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new("sh")
            .arg("-c")
            .arg("ulimit -v 2097152 && exec \"$0\" \"$@\"")
            .arg(std::env::current_exe().unwrap())
            .args(["--exact", SEGMENT_DAMAGE, "--test-threads=1", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let judged: BTreeSet<&str> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("judged "))
            .collect();
        let started = stdout.lines().filter_map(|l| l.strip_prefix("judging "));
        let unfinished: Vec<&str> = started.filter(|id| !judged.contains(id)).collect();
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child under a 2 GiB address-space limit: {:?}, cases unfinished {unfinished:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        if std::env::var_os("CRASH_POINTS").is_some() {
            println!("{stdout}");
        }
        return;
    }
    std::thread::scope(|scope| {
        for stack in Stack::ALL {
            let sweep = Sweep::new(stack);
            if sweep.only.as_ref().is_some_and(|o| o[0] != stack.name()) {
                continue;
            }
            scope.spawn(move || {
                let mut case = Case::new(stack, "-rest");
                let base = Baseline::run(&sweep, &mut case);
                sweep_at_rest(&sweep, &mut case, &base, false);
                case.reset();
            });
        }
    });
}
