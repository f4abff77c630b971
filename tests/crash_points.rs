//! Every backend call is a crash point.
//!
//! One small scenario — commit epochs 1–4, each closed by the layout record
//! of one real `PageManager` checkpoint; drain until idle; retire epoch 4 (a
//! rolled-back group checkpoint); fold the chain into epoch 3; commit epoch
//! 5; one full scrub pass — runs over three stacks: a lone `FileBackend`, a
//! `TieredBackend` over two file directories, and one of memory over file.
//! Every leaf store is wrapped under one shared `FailureControl`, which
//! numbers each backend call, so a fault-free run gives the scenario's call
//! count N. The sweep reruns the scenario for **every** k in 1..=N, four
//! ways: crash from k, fail at k, burst at k, corrupt at k. A step that
//! returns `Err` is aborted and skipped, as the runtime would; a crash leaks
//! its open sessions and issues no further call; the drain retries transient
//! faults exactly as the maintenance worker does.
//!
//! After each run the stack is reopened, without the wrapper (armed rot
//! becomes real flipped bytes first), and one oracle judges it:
//! * it lists what the model lists with each failed step applied or not —
//!   never a mix; memory over file, after a crash, a prefix of that (the
//!   memory tier is gone);
//! * eager and lazy restores of the newest listed epoch equal
//!   `CheckpointImage::load` of it, which equals the model — where rot was
//!   armed, a door may fail loudly instead;
//! * no directory holds a file of an epoch its store does not list;
//! * a second reopen lists the same epochs and changes no byte, and a drain
//!   after it leaves every epoch on the slow tier;
//! * a burst on the drain, which is retried, changes nothing at all.
//!
//! A failure names its stack, mode and k, and the kind and leaf of call k.
//! To replay one case with its step log printed:
//! `CRASH_POINTS=file-over-file:fail:38 cargo test --test crash_points -- --nocapture`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ai_ckpt::{restore_at, restore_lazy, CkptConfig, PageManager, ProtectedBuffer};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::failing::{Fault, When};
use ai_ckpt_storage::{
    corrupt_segment_region, ChainEntry, CheckpointImage, EpochKind, FailingBackend, FailureControl,
    FileBackend, MemoryBackend, RetryPolicy, ScrubPolicy, Scrubber, SegmentRegion, StorageBackend,
    TieredBackend, META_RECORD,
};

/// Pages of the scenario's one protected buffer.
const PAGES: u64 = 6;

/// Undrained epochs a fast tier may hold: commits 3 and 4 drain inline.
const FAST_CAPACITY: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stack {
    File,
    FileOverFile,
    MemoryOverFile,
}

impl Stack {
    fn name(self) -> &'static str {
        match self {
            Stack::File => "file",
            Stack::FileOverFile => "file-over-file",
            Stack::MemoryOverFile => "memory-over-file",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Crash,
    Fail,
    Burst,
    Corrupt,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Crash, Mode::Fail, Mode::Burst, Mode::Corrupt];

    fn name(self) -> &'static str {
        match self {
            Mode::Crash => "crash",
            Mode::Fail => "fail",
            Mode::Burst => "burst",
            Mode::Corrupt => "corrupt",
        }
    }

    fn arm(self, ctl: &FailureControl, k: u64) {
        match self {
            Mode::Crash => ctl.arm(When::From(k), Fault::Fail),
            Mode::Fail => ctl.arm(When::At(k), Fault::Fail),
            Mode::Burst => ctl.arm(When::At(k), Fault::Burst(1)),
            Mode::Corrupt => ctl.arm(When::At(k), Fault::Corrupt),
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Done,
    Failed,
    /// The step the crash hit: whatever it returned, it may or may not
    /// have taken effect.
    Crashed,
    NotRun,
}

/// One step of a run: what it was, how it ended, and its calls.
#[derive(Debug)]
struct Entry {
    step: Step,
    outcome: Outcome,
    calls: std::ops::RangeInclusive<u64>,
}

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(1 << 16)
        .with_max_pages(64)
        .with_committer_streams(1)
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
    let payload = |i: u64| (0..64).map(|j| (i * 31 + e * 7 + j) as u8).collect();
    let data = pages.into_iter().map(|i| (layout.base + i, payload(i)));
    data.chain([(META_RECORD, layout.record.clone())]).collect()
}

/// What the storage must hold: the epochs listed, and those whose pages
/// count (committed, folded or not, and not retired).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
struct Model {
    listed: BTreeSet<u64>,
    committed: BTreeSet<u64>,
}

impl Model {
    fn apply(&mut self, step: Step) {
        match step {
            Step::Commit(e) => {
                self.listed.insert(e);
                self.committed.insert(e);
            }
            Step::Retire(e) => {
                self.listed.remove(&e);
                self.committed.remove(&e);
            }
            Step::Compact(e) if self.listed.contains(&e) => self.listed.retain(|&x| x >= e),
            _ => {}
        }
    }

    /// The pages of `top`'s image, latest wins.
    fn image(&self, top: u64) -> BTreeMap<u64, Vec<u8>> {
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
            m.apply(entry.step);
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
            Outcome::NotRun => {}
        }
    }
    models
}

/// What a reopened stack shows: the union listing and each leaf's chain.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Seen {
    listed: Vec<u64>,
    chains: Vec<Vec<ChainEntry>>,
}

/// The stores of one stack, in the order they are wrapped (leaf 0, 1).
struct Case {
    stack: Stack,
    dirs: Vec<PathBuf>,
    memory: MemoryBackend,
}

impl Case {
    fn new(stack: Stack) -> Self {
        let dirs = match stack {
            Stack::FileOverFile => 2,
            _ => 1,
        };
        let dirs = (0..dirs)
            .map(|i| {
                std::env::temp_dir().join(format!(
                    "aickpt-points-{}-{}-{i}",
                    stack.name(),
                    std::process::id()
                ))
            })
            .collect();
        Self {
            stack,
            dirs,
            memory: MemoryBackend::new(),
        }
    }

    fn reset(&mut self) {
        for dir in &self.dirs {
            let _ = fs::remove_dir_all(dir);
        }
        self.memory = MemoryBackend::new();
    }

    /// Build the stack, every leaf wrapped under `ctl` when one is given.
    fn open(&self, ctl: Option<&FailureControl>) -> io::Result<Arc<dyn StorageBackend>> {
        let leaf = |store: Box<dyn StorageBackend>| -> Box<dyn StorageBackend> {
            match ctl {
                Some(ctl) => Box::new(FailingBackend::with_control(store, ctl.clone())),
                None => store,
            }
        };
        let file = |i: usize| -> io::Result<Box<dyn StorageBackend>> {
            Ok(leaf(Box::new(FileBackend::open(&self.dirs[i])?)))
        };
        Ok(match self.stack {
            Stack::File => Arc::from(file(0)?),
            Stack::FileOverFile => {
                let fast = file(0)?;
                Arc::new(TieredBackend::new(fast, file(1)?, FAST_CAPACITY)?)
            }
            Stack::MemoryOverFile => {
                let fast = leaf(Box::new(self.memory.clone()));
                Arc::new(TieredBackend::new(fast, file(0)?, FAST_CAPACITY)?)
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

    /// Run the scenario under `ctl` (armed for `mode`, if any).
    fn run(&self, ctl: &FailureControl, mode: Option<Mode>) -> Vec<Entry> {
        let dead = || mode == Some(Mode::Crash) && ctl.fired().is_some();
        let mut stack = None;
        let mut log = Vec::new();
        for step in SCRIPT {
            let first = ctl.ops() + 1;
            let result = if dead() {
                None
            } else if step == Step::Open {
                Some(self.open(Some(ctl)).map(|opened| stack = Some(opened)))
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
            });
        }
        log
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
    }
}

/// The leaves of a reopened (unwrapped) stack, in wrap order.
fn leaves(stack: &dyn StorageBackend) -> Vec<&dyn StorageBackend> {
    let kids: Vec<&dyn StorageBackend> = stack.children().into_iter().map(|(_, c)| c).collect();
    match kids.is_empty() {
        true => vec![stack],
        false => kids,
    }
}

fn seen(stack: &dyn StorageBackend) -> Result<Seen, String> {
    let listed = stack.epochs().map_err(|e| format!("listing: {e}"))?;
    let chains = leaves(stack).into_iter().map(|leaf| leaf.chain());
    let chains = chains
        .collect::<io::Result<_>>()
        .map_err(|e| format!("leaf chain: {e}"))?;
    Ok(Seen { listed, chains })
}

/// Whether a file of a checkpoint directory belongs to `chain`.
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
        _ => name == "MANIFEST",
    }
}

type Files = BTreeMap<PathBuf, Vec<u8>>;

fn snapshot(case: &Case) -> Files {
    let mut files = Files::new();
    for dir in &case.dirs {
        for entry in fs::read_dir(dir).into_iter().flatten() {
            let path = entry.unwrap().path();
            files.insert(path.clone(), fs::read(&path).unwrap());
        }
    }
    files
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

/// `image` as the buffer a restore of it must produce.
fn padded(image: &BTreeMap<u64, Vec<u8>>) -> Vec<Vec<u8>> {
    let base = layout().base;
    let page = |i: u64| {
        let mut page = image.get(&(base + i)).cloned().unwrap_or_default();
        page.resize(page_size(), 0);
        page
    };
    (0..PAGES).map(page).collect()
}

/// The three doors of a restore of `top`.
fn restores(stack: &Arc<dyn StorageBackend>, top: u64) -> [io::Result<Vec<Vec<u8>>>; 3] {
    let load = CheckpointImage::load(stack.as_ref(), top).map(|image| {
        let image = image.iter().map(|(p, d)| (p, d.to_vec())).collect();
        padded(&image)
    });
    let mgr = PageManager::new(cfg(), Box::new(MemoryBackend::new())).unwrap();
    let eager = restore_at(&mgr, stack.as_ref(), top).map(|state| pages_of(&state.buffers));
    let mgr = PageManager::new(cfg(), Box::new(MemoryBackend::new())).unwrap();
    let lazy = restore_lazy(&mgr, Arc::clone(stack), top, None).and_then(|mut lazy| {
        lazy.wait()?;
        Ok(pages_of(&lazy.state.buffers))
    });
    [load, eager, lazy]
}

/// Reopen after a run and judge it; `Ok` carries what the reopen showed.
fn judge(
    case: &mut Case,
    mode: Option<Mode>,
    log: &[Entry],
    ctl: &FailureControl,
    k: u64,
    baseline: Option<&Seen>,
) -> Result<Seen, String> {
    let crashed = mode == Some(Mode::Crash);
    if crashed {
        case.memory = MemoryBackend::new(); // a crash loses the memory tier
    }
    // Armed rot becomes real damage before anything reopens.
    for rot in ctl.rot() {
        let (epoch, page, byte) = (rot.epoch, rot.page, rot.byte);
        match rot.leaf.and_then(|leaf| case.dir_of(leaf)) {
            Some(dir) => {
                let region = SegmentRegion::PayloadOf { page, byte };
                let _ = corrupt_segment_region(dir, epoch, region);
            }
            None if !crashed => {
                let _ = case.memory.corrupt_stored_page(epoch, page, byte as usize);
            }
            None => {}
        }
    }
    let stack = case.open(None).map_err(|e| format!("reopen: {e}"))?;
    let now = seen(stack.as_ref())?;

    // The listing: each failed step applied or not, never a mix — or,
    // after a crash lost the memory tier, a prefix of that.
    let prefix_only = crashed && case.stack == Stack::MemoryOverFile;
    let models = models(log);
    let fits = |m: &&Model| {
        let want = m.listed.iter().copied();
        match prefix_only {
            true => now.listed.iter().copied().eq(want.take(now.listed.len())),
            false => now.listed.iter().copied().eq(want),
        }
    };
    let model = models.iter().find(fits).ok_or_else(|| {
        let allowed: Vec<_> = models.iter().map(|m| &m.listed).collect();
        format!("lists {:?}, the model allows {allowed:?}", now.listed)
    })?;

    // No file of an epoch its store does not list.
    for (leaf, chain) in now.chains.iter().enumerate() {
        let Some(dir) = case.dir_of(leaf) else {
            continue;
        };
        for entry in fs::read_dir(dir).map_err(|e| format!("{dir:?}: {e}"))? {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if !belongs(&name, chain) {
                return Err(format!("orphan {name} in leaf {leaf} (chain {chain:?})"));
            }
        }
    }

    // Restores of the newest listed epoch.
    let rot_armed = !ctl.rot().is_empty();
    if let Some(&top) = now.listed.last() {
        let want = padded(&model.image(top));
        let doors = ["CheckpointImage::load", "restore_at", "restore_lazy"];
        for (door, got) in doors.iter().zip(restores(&stack, top)) {
            if only().is_some() {
                println!("{door} of epoch {top}: {:?}", got.as_ref().map(|_| "ok"));
            }
            match got {
                Ok(pages) if pages == want => {}
                Ok(_) => return Err(format!("{door} of epoch {top} differs from the model")),
                Err(e) if rot_armed && e.kind() == io::ErrorKind::InvalidData => {}
                Err(e) => return Err(format!("{door} of epoch {top} failed: {e}")),
            }
        }
    }

    // A burst on the drain is retried away: nothing may differ.
    let burst_step = log.iter().find(|e| e.calls.contains(&k)).map(|e| e.step);
    if let (Some(Mode::Burst), Some(Step::Drain), Some(baseline)) = (mode, burst_step, baseline) {
        if &now != baseline {
            return Err(format!(
                "a retried burst left {now:?}, fault-free {baseline:?}"
            ));
        }
    }

    // A second reopen is a no-op.
    let files = snapshot(case);
    drop(stack);
    let again = case.open(None).map_err(|e| format!("second reopen: {e}"))?;
    if seen(again.as_ref())? != now {
        return Err("a second reopen lists differently".into());
    }
    if snapshot(case) != files {
        return Err("a second reopen changed bytes on disk".into());
    }

    // No epoch number the stack accounts for is handed out again.
    if let Some(&top) = now.listed.last() {
        if let Ok(session) = again.begin_epoch(top) {
            session.abort().unwrap();
            return Err(format!("epoch {top} opened again"));
        }
    }

    // Nothing is stranded on a fast tier: a drain settles every epoch (a
    // rotten one cannot move).
    if let [(_, fast), _] = again.children()[..] {
        let drained = (|| -> io::Result<()> {
            while again.drain_one()?.is_some() {}
            Ok(())
        })();
        let (fast, listed) = (fast.epochs().unwrap(), again.epochs().unwrap());
        if !rot_armed && (drained.is_err() || !fast.is_empty() || listed != now.listed) {
            return Err(format!("drain {drained:?} left {fast:?} on the fast tier"));
        }
    }
    Ok(now)
}

/// `CRASH_POINTS=stack:mode:k` narrows the sweep to that one case.
fn only() -> Option<(String, String, u64)> {
    let spec = std::env::var("CRASH_POINTS").ok()?;
    let mut parts = spec.split(':');
    let (stack, mode) = (parts.next()?.to_owned(), parts.next()?.to_owned());
    Some((stack, mode, parts.next()?.parse().ok()?))
}

fn sweep(stack: Stack) {
    let only = only();
    if only.as_ref().is_some_and(|(s, _, _)| s != stack.name()) {
        return;
    }
    let mut case = Case::new(stack);
    case.reset();
    let ctl = FailureControl::new();
    let log = case.run(&ctl, None);
    let n = ctl.ops();
    let baseline = judge(&mut case, None, &log, &ctl, 0, None)
        .unwrap_or_else(|e| panic!("{}: the fault-free run: {e}\n{log:#?}", stack.name()));
    println!("{}: N = {n}", stack.name());
    for mode in Mode::ALL {
        for k in 1..=n {
            if let Some((_, m, at)) = &only {
                if m != mode.name() || *at != k {
                    continue;
                }
            }
            case.reset();
            let ctl = FailureControl::new();
            mode.arm(&ctl, k);
            let log = case.run(&ctl, Some(mode));
            ctl.heal();
            let verdict = judge(&mut case, Some(mode), &log, &ctl, k, Some(&baseline));
            let call = ctl.fired();
            if only.is_some() {
                println!("{call:?}\n{log:#?}\n{verdict:?}");
            }
            if let Err(why) = verdict {
                panic!(
                    "{}:{}:{k} — call {k} is {call:?}: {why}\n{log:#?}",
                    stack.name(),
                    mode.name()
                );
            }
        }
    }
    case.reset();
}

#[test]
fn every_call_of_a_lone_file_backend_is_a_crash_point() {
    sweep(Stack::File);
}

#[test]
fn every_call_of_file_over_file_tiers_is_a_crash_point() {
    sweep(Stack::FileOverFile);
}

#[test]
fn every_call_of_memory_over_file_tiers_is_a_crash_point() {
    sweep(Stack::MemoryOverFile);
}
