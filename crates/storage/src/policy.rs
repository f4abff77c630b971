//! Multi-level resilience policies (the VELOC-style blueprint): a
//! declarative [`ResilienceSpec`] — e.g. *L0 local NVMe → L1 partner-rank
//! replica → L2 parity cold tier* — composed out of the existing backend
//! primitives into one [`PolicyBackend`] that implements
//! [`StorageBackend`].
//!
//! ## Spec grammar
//!
//! Levels are listed fastest-first, separated by `->`. Each level is
//! `name=kind` with an optional `#capacity` suffix — how many epochs the
//! level may *stage*: hold while an outward level in service still lacks
//! them (`0` or absent means unbounded; the last level is never bounded):
//!
//! ```text
//! nvme=plain#4 -> partner=replica*2 -> cold=parity*4
//! ```
//!
//! * `plain` — a single store, no redundancy inside the level;
//! * `replica*N` — N-way replication ([`ReplicatedBackend`]) inside the
//!   level (the paper's partner-copy remedy);
//! * `parity*K` — XOR single-erasure groups of K pages
//!   ([`ParityBackend`]) inside the level.
//!
//! ## Drain / rebuild lifecycle
//!
//! An epoch commits to level 0 only; [`EpochWriter::finish`] enqueues a
//! *copy* of that epoch toward every outer level. [`PolicyBackend::drain_one`]
//! — driven by the service maintenance worker through its per-tenant
//! `DrainQueue` — performs one copy per call: smallest pending epoch
//! first, read through the policy's own read rule, written through the
//! destination level's protection wrapper. A failed copy marks the
//! destination level *suspect* and parks the item on a deferred list so
//! the maintenance barrier is never wedged by a dead level — nor cut short:
//! the same call still performs the copies the live levels are owed. Every
//! `drain_one` call — and `drain_backlog` while some level is suspect —
//! first re-probes suspect levels; a level that answers again is
//! *reconciled* — deferred copies re-queued as **rebuilds**, epochs retired
//! while it was dead removed — and resumes normal service.
//!
//! A bounded level is a staging buffer, not a window: the copy after which
//! no outward level in service is owed an epoch any more evicts it from
//! every bounded level below its destination, so a bounded level holds
//! nothing its outward levels all hold, and reconcile evicts what they do.
//! (Evicting at the *first* outward copy would strand an epoch on a level
//! that then goes down before the next one has it.) At level 0's bound
//! `begin_epoch` drains inline first — back-pressure on the writer — and
//! fails when that cannot make room; a bound on a later level only evicts
//! and never blocks a copy. An unbounded level keeps every epoch until it
//! is retired, stays owed a copy until it holds the epoch, and a rebuild
//! skips what a level's full image covers. A policy built over stores a
//! previous process left queues what that process still owed: every epoch
//! an inner level holds that an outer one lacks, and the eviction of every
//! epoch a bounded level holds that all outer ones hold.
//!
//! ## Levels are children
//!
//! The policy names its levels as its [`StorageBackend::children`],
//! fastest first, and everything it does not add itself is the routing rule
//! of the `route` module: reads fall through levels in order — fast tier
//! first, partner next, cold parity last — healing rot a peer level can
//! repair before stepping over it, and fail only when **no** level can
//! serve them, so `restore_latest` and demand-paged (lazy) restore both
//! keep working on a degraded stack; verification, rewrites, repair and
//! folds reach every level that holds the epoch. What a *level* adds —
//! bounded retry of transient read faults, hit/fall-through counters, going
//! suspect when it cannot list its epochs or fails a mutation, and, while
//! suspect, still being listed and read (it may hold the only copy of an
//! undrained epoch) but holding nothing as far as verification and
//! mutations are concerned (reconcile rebuilds it wholesale) — lives in one
//! private wrapper around each level's store instead of in every operation.
//!
//! What the policy itself adds, and therefore still overrides: the commit
//! (level 0 only, under its own high-water mark and level 0's bound), the
//! read of a whole epoch (straight from the level that serves it), the
//! drain queues,
//! `install_compacted`'s precondition — a fold commits only under full
//! redundancy: every copy toward the target drained and every level in
//! service, else it refuses — and the retirement ledger: `epochs`/`chain`
//! never list a retired epoch a level not reconciled yet still holds, and
//! `remove_epochs` is the one retirement that skips a level that cannot be
//! asked and takes an epoch no level lists without error (a level that is
//! out of service may still hold it; reconcile removes it there). And the
//! listing rule: `chain()` refuses a window with a live epoch no answering
//! level holds. The union of the levels that answer may list a delta whose
//! base only a silent level holds (a bounded level evicted it), and a
//! restore would replay that delta over nothing; so the policy keeps a
//! ledger of the epochs committed and not retired or folded away, and
//! `chain()` fails — `Other`, neither "not here" nor damage to repair —
//! when the newest listed epoch's replay window misses one. A policy built
//! while a level could not list its epochs does not know what that level
//! alone holds, so until it reconciles a window that starts at no `Full`
//! beside a bounded level inward of a silent one is refused too. `epochs()`
//! still lists the union.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::backend::{ChainEntry, EpochKind, EpochWriter, StorageBackend};
use crate::errors::RetryPolicy;
use crate::failing::{FailingBackend, FailureControl};
use crate::parity::ParityBackend;
use crate::replicate::ReplicatedBackend;
use crate::route;
use crate::scrub::VerifyReport;

/// Redundancy scheme *inside* one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelProtection {
    /// One store, no intra-level redundancy.
    None,
    /// N-way replication across stores of this level.
    Replicated {
        /// Replica count (≥ 2).
        copies: usize,
    },
    /// XOR parity groups of `group` pages within one store.
    Parity {
        /// Pages per parity group (≥ 2).
        group: usize,
    },
}

/// One level of a [`ResilienceSpec`], fastest-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSpec {
    /// Human-readable level name (unique within the spec).
    pub name: String,
    /// Redundancy scheme inside the level.
    pub protection: LevelProtection,
    /// Epochs the level may stage — hold while an outward level in service
    /// still lacks them (0 = unbounded). Drains evict what every outward
    /// level holds, and at level 0's bound a commit drains first. Ignored
    /// for the last level, which keeps everything until it is retired.
    pub capacity: usize,
}

/// A declarative multi-level resilience policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceSpec {
    /// Levels, fastest (level 0, the commit target) first.
    pub levels: Vec<LevelSpec>,
}

fn spec_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

impl ResilienceSpec {
    /// Parse the `name=kind[#cap] -> ...` grammar (see the module docs).
    pub fn parse(text: &str) -> io::Result<ResilienceSpec> {
        let mut levels = Vec::new();
        for raw in text.split("->") {
            let token = raw.trim();
            if token.is_empty() {
                return Err(spec_err(format!("empty level in spec {text:?}")));
            }
            let (name, rest) = token
                .split_once('=')
                .ok_or_else(|| spec_err(format!("level {token:?}: expected name=kind")))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(spec_err(format!("level {token:?}: empty name")));
            }
            let (kind, capacity) = match rest.split_once('#') {
                Some((kind, cap)) => {
                    let capacity = cap
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| spec_err(format!("level {token:?}: bad capacity {cap:?}")))?;
                    (kind.trim(), capacity)
                }
                None => (rest.trim(), 0),
            };
            let protection = if kind == "plain" {
                LevelProtection::None
            } else if let Some(n) = kind.strip_prefix("replica*") {
                let copies = n
                    .parse::<usize>()
                    .map_err(|_| spec_err(format!("level {token:?}: bad replica count")))?;
                if copies < 2 {
                    return Err(spec_err(format!("level {token:?}: replica*N needs N >= 2")));
                }
                LevelProtection::Replicated { copies }
            } else if let Some(k) = kind.strip_prefix("parity*") {
                let group = k
                    .parse::<usize>()
                    .map_err(|_| spec_err(format!("level {token:?}: bad parity group")))?;
                if group < 2 {
                    return Err(spec_err(format!("level {token:?}: parity*K needs K >= 2")));
                }
                LevelProtection::Parity { group }
            } else {
                return Err(spec_err(format!(
                    "level {token:?}: unknown kind {kind:?} (plain | replica*N | parity*K)"
                )));
            };
            levels.push(LevelSpec {
                name: name.to_string(),
                protection,
                capacity,
            });
        }
        let spec = ResilienceSpec { levels };
        spec.validate()?;
        Ok(spec)
    }

    /// Reject empty or ambiguous specs.
    pub fn validate(&self) -> io::Result<()> {
        if self.levels.is_empty() {
            return Err(spec_err("spec needs at least one level"));
        }
        let mut names = BTreeSet::new();
        for level in &self.levels {
            if !names.insert(level.name.as_str()) {
                return Err(spec_err(format!("duplicate level name {:?}", level.name)));
            }
        }
        Ok(())
    }

    /// Canonical textual form (round-trips through [`ResilienceSpec::parse`]).
    pub fn to_spec_string(&self) -> String {
        self.levels
            .iter()
            .map(|l| {
                let kind = match l.protection {
                    LevelProtection::None => "plain".to_string(),
                    LevelProtection::Replicated { copies } => format!("replica*{copies}"),
                    LevelProtection::Parity { group } => format!("parity*{group}"),
                };
                if l.capacity > 0 {
                    format!("{}={kind}#{}", l.name, l.capacity)
                } else {
                    format!("{}={kind}", l.name)
                }
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Why a copy was queued toward a level — steady-state drain of a fresh
/// epoch, or rebuild of a level that lost it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyKind {
    Drain,
    Rebuild,
}

#[derive(Default)]
struct LevelCounters {
    drains_in: AtomicU64,
    rebuilds_in: AtomicU64,
    evictions: AtomicU64,
    copy_bytes: AtomicU64,
    copy_failures: AtomicU64,
    read_hits: AtomicU64,
    read_fallthroughs: AtomicU64,
}

/// One level: its store behind the level's protection wrapper, and — as a
/// transparent [`StorageBackend`] wrapper around that store — what being a
/// *level* adds to it. The policy hands these out as its children.
struct Level {
    name: String,
    /// Epochs the level may stage (see [`LevelSpec::capacity`]); 0 =
    /// unbounded, always so for the last level.
    capacity: usize,
    store: Box<dyn StorageBackend>,
    /// Set when an operation against this level failed; cleared once a
    /// liveness probe succeeds and the level has been reconciled.
    suspect: AtomicBool,
    counters: LevelCounters,
}

impl Level {
    fn is_suspect(&self) -> bool {
        self.suspect.load(Ordering::SeqCst)
    }

    /// A failed mutation (or liveness probe) takes the level out of
    /// service until reconcile has brought it back in line with its peers.
    fn suspect_on_err<T>(&self, result: io::Result<T>) -> io::Result<T> {
        if result.is_err() {
            self.suspect.store(true, Ordering::SeqCst);
        }
        result
    }

    /// While suspect the level holds nothing as far as verification and
    /// mutations go — `NotFound`, which the routing rule skips like any
    /// non-holder: reconcile rebuilds its copies wholesale instead.
    fn in_service(&self) -> io::Result<()> {
        if !self.is_suspect() {
            return Ok(());
        }
        let what = format!("level {} is out of service until reconciled", self.name);
        Err(io::Error::new(io::ErrorKind::NotFound, what))
    }

    /// A read under the default retry schedule (transient faults only;
    /// corrupt ones go to repair), counted as a hit, or as a fall-through
    /// when the level held (or should have held) the epoch.
    fn read<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let result = RetryPolicy::default().run(op);
        let counter = match &result {
            Ok(_) => &self.counters.read_hits,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return result,
            Err(_) => &self.counters.read_fallthroughs,
        };
        counter.fetch_add(1, Ordering::SeqCst);
        result
    }

    /// One epoch's records, buffered per attempt: a retried stream must
    /// not visit twice.
    fn records(&self, epoch: u64) -> io::Result<route::Records> {
        self.read(|| route::read_records(&*self.store, epoch))
    }
}

impl StorageBackend for Level {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&*self.store)
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        self.store.begin_epoch(epoch)
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.suspect_on_err(self.store.epochs())
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        for (page, data) in self.records(epoch)? {
            visit(page, &data);
        }
        Ok(())
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        self.read(|| self.store.epoch_page_ids(epoch))
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        self.read(|| self.store.read_page_at(epoch, page))
    }

    fn bytes_written(&self) -> u64 {
        self.store.bytes_written()
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        self.in_service()?;
        self.store.verify_epoch(epoch)
    }

    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        self.in_service()?;
        self.suspect_on_err(self.store.install_compacted(from, into, records))
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        self.in_service()?;
        self.suspect_on_err(self.store.remove_epochs(epochs))
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        self.in_service()?;
        self.suspect_on_err(self.store.rewrite_epoch(epoch, records))
    }
}

/// Point-in-time statistics for one level of a [`PolicyBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelStats {
    /// Level name from the spec.
    pub name: String,
    /// Epochs currently resident (0 when the level is down).
    pub resident_epochs: usize,
    /// Whether the level is currently marked suspect (last operation
    /// against it failed and it has not been reconciled yet).
    pub suspect: bool,
    /// Steady-state drain copies completed into this level.
    pub drains_in: u64,
    /// Rebuild copies (post-failure re-population) completed into it.
    pub rebuilds_in: u64,
    /// Epochs this bounded level evicted once its outward levels held them.
    pub evictions: u64,
    /// Payload bytes copied into this level.
    pub copy_bytes: u64,
    /// Copies into this level that failed (each parks one deferred item).
    pub copy_failures: u64,
    /// Copies currently queued toward this level.
    pub queued: usize,
    /// Copies parked because the level was down.
    pub deferred: usize,
    /// Reads this level served.
    pub read_hits: u64,
    /// Reads that had to fall through past this level although it held
    /// (or should have held) the epoch.
    pub read_fallthroughs: u64,
}

/// Point-in-time statistics for a whole [`PolicyBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyStats {
    /// One entry per level, fastest-first.
    pub levels: Vec<LevelStats>,
}

struct PolicyState {
    /// Pending copies *into* each level, ascending by epoch. `queues[0]`
    /// only ever receives rebuild items — fresh epochs commit straight to
    /// level 0.
    queues: Vec<VecDeque<(u64, CopyKind)>>,
    /// Copies parked because their destination level was down.
    deferred: Vec<Vec<(u64, CopyKind)>>,
    /// Per level, the epochs a bounded level stages: holds and has not
    /// evicted yet, because an outward level in service is still owed a
    /// copy or the eviction is (always empty for an unbounded level).
    /// Level 0's is what its bound counts.
    staged: Vec<BTreeSet<u64>>,
    /// Epochs retired through the policy (so a level that slept through
    /// the retirement drops them on reconcile instead of resurrecting
    /// them).
    retired: BTreeSet<u64>,
    /// Every epoch the policy knows is committed and neither retired nor
    /// folded away: what a replay window must find listed.
    live: BTreeSet<u64>,
    /// Levels that could not list their epochs when the policy was built
    /// and have not reconciled since: what they alone hold is not in `live`.
    unseen: BTreeSet<usize>,
    high_water: Option<u64>,
}

struct Shared {
    levels: Vec<Level>,
    state: Mutex<PolicyState>,
    /// Serialises drain/reconcile I/O so `drain_one` callers from the
    /// maintenance worker and direct callers never interleave copies.
    drain_lock: Mutex<()>,
}

/// Builder for a [`PolicyBackend`]: a spec plus a store factory.
pub struct PolicyBuilder {
    spec: ResilienceSpec,
}

impl PolicyBuilder {
    /// Start building from a validated spec.
    pub fn new(spec: ResilienceSpec) -> io::Result<PolicyBuilder> {
        spec.validate()?;
        Ok(PolicyBuilder { spec })
    }

    /// Instantiate the policy. `factory(level, replica)` supplies one
    /// store per level (and per replica for `replica*N` levels; plain and
    /// parity levels call it with `replica == 0` once).
    pub fn build<F>(self, mut factory: F) -> io::Result<PolicyBackend>
    where
        F: FnMut(usize, usize) -> Box<dyn StorageBackend>,
    {
        self.build_wrapped(|level, replica| factory(level, replica))
    }

    /// Instantiate the policy with one shared [`FailureControl`] per
    /// level wrapped around every store of that level, *below* the
    /// level's protection wrapper — `controls[l].kill()` takes the whole
    /// level down at once (every replica, every parity store), which is
    /// exactly what the cross-level fault matrix needs.
    pub fn build_injected<F>(
        self,
        mut factory: F,
    ) -> io::Result<(PolicyBackend, Vec<FailureControl>)>
    where
        F: FnMut(usize, usize) -> Box<dyn StorageBackend>,
    {
        let controls: Vec<FailureControl> = (0..self.spec.levels.len())
            .map(|_| FailureControl::new())
            .collect();
        let per_level = controls.clone();
        let backend = self.build_wrapped(move |level, replica| {
            let store = factory(level, replica);
            Box::new(FailingBackend::with_control(
                store,
                per_level[level].clone(),
            )) as Box<dyn StorageBackend>
        })?;
        Ok((backend, controls))
    }

    fn build_wrapped<F>(self, mut factory: F) -> io::Result<PolicyBackend>
    where
        F: FnMut(usize, usize) -> Box<dyn StorageBackend>,
    {
        let last = self.spec.levels.len() - 1;
        let mut levels = Vec::with_capacity(self.spec.levels.len());
        for (l, spec) in self.spec.levels.iter().enumerate() {
            let store: Box<dyn StorageBackend> = match spec.protection {
                LevelProtection::None => factory(l, 0),
                LevelProtection::Replicated { copies } => Box::new(ReplicatedBackend::new(
                    (0..copies).map(|r| factory(l, r)).collect(),
                )),
                LevelProtection::Parity { group } => {
                    Box::new(ParityBackend::new(factory(l, 0), group))
                }
            };
            levels.push(Level {
                name: spec.name.clone(),
                capacity: if l == last { 0 } else { spec.capacity },
                store,
                suspect: AtomicBool::new(false),
                counters: LevelCounters::default(),
            });
        }
        // Resume numbering above anything the level stores already hold,
        // and the work a previous process still owed: a copy of every
        // epoch an inner level holds toward each outer level that lacks it
        // (a bounded one only while an outer level lacks it too), and the
        // eviction of every epoch a bounded level holds that every outer
        // level holds — queued toward the last level, where the drain finds
        // the copy made and evicts. A level that cannot list its epochs
        // starts suspect, and reconcile settles it.
        let mut high_water = None;
        let mut held: Vec<BTreeSet<u64>> = Vec::new();
        let mut unseen = BTreeSet::new();
        for (l, level) in levels.iter().enumerate() {
            if let Ok(hw) = level.store.high_water() {
                high_water = high_water.max(hw);
            }
            let listed = level.store.epochs();
            if listed.is_err() {
                unseen.insert(l);
            }
            level.suspect.store(listed.is_err(), Ordering::SeqCst);
            held.push(listed.unwrap_or_default().into_iter().collect());
        }
        let live = held.iter().flatten().copied().collect();
        let n = levels.len();
        let bounded = |l: usize| levels[l].capacity > 0;
        let held_outward = |l: usize, e: &u64| (l + 1..n).all(|m| held[m].contains(e));
        // Level `m` is owed `e` unless it holds it, or is bounded and every
        // level outward of it does.
        let owes = |m: usize, e: &u64| !(held[m].contains(e) || bounded(m) && held_outward(m, e));
        let mut owed = vec![BTreeSet::new(); n];
        let mut staged = vec![BTreeSet::new(); n];
        for (l, mine) in held.iter().enumerate() {
            for &e in mine {
                if held_outward(l, &e) && bounded(l) {
                    owed[n - 1].insert(e);
                }
                for m in (l + 1..n).filter(|&m| owes(m, &e)) {
                    owed[m].insert(e);
                }
            }
            if bounded(l) {
                staged[l] = mine.clone();
            }
        }
        let queues = owed
            .into_iter()
            .map(|epochs| epochs.into_iter().map(|e| (e, CopyKind::Drain)).collect());
        Ok(PolicyBackend {
            shared: Arc::new(Shared {
                levels,
                state: Mutex::new(PolicyState {
                    queues: queues.collect(),
                    deferred: (0..n).map(|_| Vec::new()).collect(),
                    staged,
                    retired: BTreeSet::new(),
                    live,
                    unseen,
                    high_water,
                }),
                drain_lock: Mutex::new(()),
            }),
        })
    }
}

/// A multi-level resilience policy as a [`StorageBackend`]: commits land
/// on level 0, maintenance drains copies outward, reads fall through
/// levels in order. Cheap to clone (shared state).
#[derive(Clone)]
pub struct PolicyBackend {
    shared: Arc<Shared>,
}

impl PolicyBackend {
    /// Number of levels in the policy.
    pub fn level_count(&self) -> usize {
        self.shared.levels.len()
    }

    /// Names of the levels, fastest-first.
    pub fn level_names(&self) -> Vec<String> {
        self.shared.levels.iter().map(|l| l.name.clone()).collect()
    }

    /// Point-in-time per-level statistics.
    pub fn stats(&self) -> PolicyStats {
        let state = self.shared.state.lock().unwrap();
        let levels = self
            .shared
            .levels
            .iter()
            .enumerate()
            .map(|(l, level)| {
                let c = &level.counters;
                let resident = if level.is_suspect() {
                    0
                } else {
                    level.store.epochs().map(|e| e.len()).unwrap_or(0)
                };
                LevelStats {
                    name: level.name.clone(),
                    resident_epochs: resident,
                    suspect: level.is_suspect(),
                    drains_in: c.drains_in.load(Ordering::SeqCst),
                    rebuilds_in: c.rebuilds_in.load(Ordering::SeqCst),
                    evictions: c.evictions.load(Ordering::SeqCst),
                    copy_bytes: c.copy_bytes.load(Ordering::SeqCst),
                    copy_failures: c.copy_failures.load(Ordering::SeqCst),
                    queued: state.queues[l].len(),
                    deferred: state.deferred[l].len(),
                    read_hits: c.read_hits.load(Ordering::SeqCst),
                    read_fallthroughs: c.read_fallthroughs.load(Ordering::SeqCst),
                }
            })
            .collect();
        PolicyStats { levels }
    }

    /// Copies still owed (queued or deferred) toward any level. The
    /// maintenance barrier drains `drain_backlog()` (queued only); this
    /// also counts parked items, for tests asserting eventual
    /// convergence after a heal.
    pub fn copies_owed(&self) -> usize {
        let state = self.shared.state.lock().unwrap();
        state.queues.iter().map(|q| q.len()).sum::<usize>()
            + state.deferred.iter().map(|d| d.len()).sum::<usize>()
    }

    /// Epochs waiting to drain off `level`, oldest first: what the bounded
    /// level stages.
    pub(crate) fn staged(&self, level: usize) -> Vec<u64> {
        let state = self.shared.state.lock().unwrap();
        state.staged[level].iter().copied().collect()
    }

    /// One epoch's records through the read rule, straight from the level
    /// that serves it (no second buffering through the level's
    /// `read_epoch`).
    fn records(&self, epoch: u64) -> io::Result<route::Records> {
        let levels = self.shared.levels.iter();
        let kids: Vec<(&str, &Level)> = levels.map(|l| (l.name.as_str(), l)).collect();
        route::read(self, &kids, epoch, |level| level.records(epoch))
    }

    /// Probe suspect levels; reconcile any that answer again. Called at
    /// the top of every `drain_one`, and of `drain_backlog` while a level
    /// is suspect, so a healed level re-enters service on the next
    /// maintenance tick. Caller holds `drain_lock`.
    fn reconcile_suspects(&self) {
        for (l, level) in self.shared.levels.iter().enumerate() {
            if !level.is_suspect() {
                continue;
            }
            let Ok(present) = level.store.epochs() else {
                // Still down: park anything queued for this level. The
                // items cannot progress until the level answers a probe,
                // and leaving them queued would both hide them from the
                // `deferred` stat and make `drain_backlog` count copies
                // no drain step can perform.
                let mut state = self.shared.state.lock().unwrap();
                let parked: Vec<(u64, CopyKind)> = state.queues[l].drain(..).collect();
                state.deferred[l].extend(parked);
                continue;
            };
            let present: BTreeSet<u64> = present.into_iter().collect();
            // A fold left a full image that covers every epoch below it.
            let folded = level.store.chain().ok().and_then(|chain| {
                let full = chain.into_iter().rfind(|c| c.kind == EpochKind::Full);
                full.map(|c| c.epoch)
            });
            // What the other levels in service hold: inward as one set,
            // outward level by level. (A suspect level that just answered
            // its probe is not a reference until reconciled.)
            let (mut inward, mut outward) = (BTreeSet::new(), Vec::new());
            for (o, other) in self.shared.levels.iter().enumerate() {
                if o == l || other.is_suspect() {
                    continue;
                }
                let eps = other.store.epochs().unwrap_or_default();
                match o < l {
                    true => inward.extend(eps),
                    false => outward.push(eps.into_iter().collect::<BTreeSet<u64>>()),
                }
            }
            // A bounded level keeps only what an outward level in service
            // still lacks, and evicts the rest; every level drops what was
            // retired while it was down. One batch.
            let bounded = level.capacity > 0;
            let retired = self.shared.state.lock().unwrap().retired.clone();
            let drained = |e: &u64| {
                bounded && !outward.is_empty() && outward.iter().all(|held| held.contains(e))
            };
            let gone: BTreeSet<u64> = (present.iter().copied())
                .filter(|e| retired.contains(e) || drained(e))
                .collect();
            let batch: Vec<u64> = gone.iter().copied().collect();
            if !batch.is_empty() && level.store.remove_epochs(&batch).is_err() {
                continue; // went down again mid-reconcile; retry later
            }
            let evicted = gone.iter().filter(|e| drained(e)).count();
            (level.counters.evictions).fetch_add(evicted as u64, Ordering::SeqCst);
            // Re-queue deferred copies as rebuilds, plus anything the
            // level is missing against its peers.
            let mut state = self.shared.state.lock().unwrap();
            let mut merged: BTreeMap<u64, CopyKind> = state.queues[l].iter().copied().collect();
            let outward = outward.iter().flatten().filter(|_| !bounded);
            let peers = inward.iter().chain(outward);
            let deferred = state.deferred[l].iter().map(|&(e, _)| e);
            for e in deferred.chain(peers.copied()) {
                merged.entry(e).or_insert(CopyKind::Rebuild);
            }
            let wanted = |e: &u64| {
                !present.contains(e)
                    && !retired.contains(e)
                    && !drained(e)
                    && folded.is_none_or(|f| *e > f)
            };
            state.queues[l] = merged.into_iter().filter(|(e, _)| wanted(e)).collect();
            state.deferred[l].clear();
            if bounded {
                state.staged[l] = present.difference(&gone).copied().collect();
            }
            state.live.extend(present.difference(&retired));
            state.unseen.remove(&l);
            level.suspect.store(false, Ordering::SeqCst);
        }
    }

    /// One copy step: pick the smallest pending epoch across level
    /// queues, copy it in, evict it from the bounded levels below. A copy
    /// a level fails parks its item and marks that level suspect, and the
    /// step goes on with what the levels still in service are owed before
    /// it reports the failure: a maintenance cycle stops at the first
    /// `Err`, and stopping here would leave a live level's copy queued
    /// behind a dead one's for the barrier to miss. Caller holds
    /// `drain_lock`.
    fn copy_step(&self) -> io::Result<Option<u64>> {
        let mut failed: Option<io::Error> = None;
        loop {
            let picked = {
                let mut state = self.shared.state.lock().unwrap();
                let mut best: Option<(u64, usize)> = None;
                for (l, queue) in state.queues.iter().enumerate() {
                    if self.shared.levels[l].is_suspect() {
                        continue;
                    }
                    if let Some(&(epoch, _)) = queue.front() {
                        if best.is_none_or(|(e, _)| epoch < e) {
                            best = Some((epoch, l));
                        }
                    }
                }
                match best {
                    // Retired while queued: dropped here.
                    Some((epoch, l)) if state.retired.contains(&epoch) => {
                        state.queues[l].pop_front();
                        continue;
                    }
                    Some((_, l)) => state.queues[l].pop_front().map(|item| (l, item)),
                    None => None,
                }
            };
            let Some((dest, (epoch, kind))) = picked else {
                return failed.map_or(Ok(None), Err);
            };
            let level = &self.shared.levels[dest];
            let dest_store = &*level.store;
            // Already there (reconcile raced a queued drain, or a previous
            // process died between a copy and its eviction): only evict.
            match dest_store.epochs() {
                Ok(eps) if eps.contains(&epoch) => {}
                Ok(_) => {
                    // A bounded destination burned this epoch number (it
                    // held and then evicted it): it can never be
                    // re-committed there. Leave it to the other levels.
                    let burned = || dest_store.high_water().is_ok_and(|hw| hw >= Some(epoch));
                    if level.capacity > 0 && burned() {
                        continue;
                    }
                    // Source: the policy's own read rule — the fastest level
                    // that holds the epoch (the destination does not).
                    let records = match self.records(epoch) {
                        Ok(records) => records,
                        Err(e) => {
                            // No readable source right now. Put the item back
                            // at the front (order preserved) and surface the
                            // error so the maintenance worker backs off and
                            // retries.
                            let mut state = self.shared.state.lock().unwrap();
                            state.queues[dest].push_front((epoch, kind));
                            return Err(e);
                        }
                    };
                    // Copy through the destination's protection wrapper.
                    // Transient faults retry per step; permanent faults park
                    // the item and mark the destination suspect.
                    let retry = RetryPolicy::default();
                    if let Err(e) = route::write_records(dest_store, epoch, &records, &retry) {
                        level.counters.copy_failures.fetch_add(1, Ordering::SeqCst);
                        self.park(dest, epoch, kind);
                        failed.get_or_insert(e);
                        continue;
                    }
                    let c = &level.counters;
                    let bytes: usize = records.iter().map(|(_, d)| d.len()).sum();
                    c.copy_bytes.fetch_add(bytes as u64, Ordering::SeqCst);
                    match kind {
                        CopyKind::Drain => c.drains_in.fetch_add(1, Ordering::SeqCst),
                        CopyKind::Rebuild => c.rebuilds_in.fetch_add(1, Ordering::SeqCst),
                    };
                    if level.capacity > 0 {
                        self.shared.state.lock().unwrap().staged[dest].insert(epoch);
                    }
                }
                Err(e) => {
                    self.park(dest, epoch, kind);
                    failed.get_or_insert(e);
                    continue;
                }
            }
            if let Err(e) = self.evict_below(dest, epoch) {
                failed.get_or_insert(e);
            }
            if failed.is_none() {
                return Ok(Some(epoch));
            }
        }
    }

    /// `epoch` has landed on `dest`: evict it from every bounded level
    /// below that stages it once no level outward of that one in service
    /// is still owed a copy. A level out of service, or whose eviction
    /// fails (it goes suspect), keeps the epoch staged until reconcile
    /// evicts it there.
    fn evict_below(&self, dest: usize, epoch: u64) -> io::Result<()> {
        let levels = &self.shared.levels;
        let mut result = Ok(());
        for (l, level) in levels[..dest].iter().enumerate() {
            let due = {
                let state = self.shared.state.lock().unwrap();
                let owed = |m: usize| state.queues[m].iter().any(|&(e, _)| e == epoch);
                let owed_outward =
                    (l + 1..levels.len()).any(|m| !levels[m].is_suspect() && owed(m));
                state.staged[l].contains(&epoch) && !owed_outward
            };
            if !due || level.is_suspect() {
                continue;
            }
            match level.remove_epochs(&[epoch]) {
                Ok(()) => {
                    self.shared.state.lock().unwrap().staged[l].remove(&epoch);
                    level.counters.evictions.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => result = result.and(Err(e)),
            }
        }
        result
    }

    /// Park a failed copy on the destination's deferred list and mark the
    /// level suspect (reconciled once it answers a probe again).
    fn park(&self, dest: usize, epoch: u64, kind: CopyKind) {
        self.shared.levels[dest]
            .suspect
            .store(true, Ordering::SeqCst);
        let mut state = self.shared.state.lock().unwrap();
        state.deferred[dest].push((epoch, kind));
    }
}

struct PolicyWriter {
    shared: Arc<Shared>,
    inner: Box<dyn EpochWriter>,
    epoch: u64,
}

impl EpochWriter for PolicyWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        self.inner.write_pages(batch)
    }

    fn finish(&self) -> io::Result<()> {
        self.inner.finish()?;
        let mut state = self.shared.state.lock().unwrap();
        state.high_water = state.high_water.max(Some(self.epoch));
        state.live.insert(self.epoch);
        for l in 1..self.shared.levels.len() {
            state.queues[l].push_back((self.epoch, CopyKind::Drain));
        }
        if self.shared.levels[0].capacity > 0 {
            state.staged[0].insert(self.epoch);
        }
        Ok(())
    }

    fn abort(&self) -> io::Result<()> {
        self.inner.abort()
    }
}

impl PolicyBackend {
    /// `install_compacted`'s precondition: every copy toward an epoch
    /// `<= into` drained and every level in service, or refuse. Folding
    /// while copies are still owed would destroy the only consistent
    /// source, and a level that sleeps through a fold would wake up serving
    /// a delta where its peers hold the full image. Caller holds
    /// `drain_lock`.
    fn settle_through(&self, into: u64) -> io::Result<()> {
        let refuse = |kind, why: String| {
            let what = format!("compact({into}) requires full redundancy: {why}");
            io::Error::new(kind, what)
        };
        self.reconcile_suspects();
        loop {
            let pending = {
                let state = self.shared.state.lock().unwrap();
                let mut fronts = state.queues.iter().filter_map(|q| q.front());
                fronts.any(|&(e, _)| e <= into)
            };
            if !pending {
                break;
            }
            self.copy_step()
                .map_err(|e| refuse(e.kind(), e.to_string()))?;
        }
        let state = self.shared.state.lock().unwrap();
        if state.deferred.iter().flatten().any(|&(e, _)| e <= into) {
            let why = "copies deferred to a down level".to_owned();
            return Err(refuse(io::ErrorKind::Other, why));
        }
        match self.shared.levels.iter().find(|l| l.is_suspect()) {
            Some(level) => {
                let why = format!("level {} is out of service", level.name);
                Err(refuse(io::ErrorKind::Other, why))
            }
            None => Ok(()),
        }
    }
}

impl PolicyBackend {
    /// `listed` less what the ledger retired: a healed level that has not
    /// been reconciled yet may still hold epochs retired while it was down
    /// — never list them.
    fn unretired<T>(&self, mut listed: Vec<T>, epoch_of: impl Fn(&T) -> u64) -> Vec<T> {
        let state = self.shared.state.lock().unwrap();
        listed.retain(|entry| !state.retired.contains(&epoch_of(entry)));
        listed
    }

    /// The newest listed epoch replays from the newest listed `Full` (or
    /// the first epoch): refuse `chain` when a live epoch in that window is
    /// not in it, or — while a level silent at build has not reconciled —
    /// when the window starts at no `Full`, a bounded level lies inward of
    /// a level in `silent`, and the ledger never saw a number in it (what
    /// the bounded level evicted, only the silent one may hold). `Other`:
    /// neither "not here" nor damage to repair.
    fn whole_window(&self, chain: &[ChainEntry], silent: &[usize]) -> io::Result<()> {
        let Some(top) = chain.last().map(|c| c.epoch) else {
            return Ok(());
        };
        let base = chain.iter().rfind(|c| c.kind == EpochKind::Full);
        let levels = &self.shared.levels;
        let state = self.shared.state.lock().unwrap();
        let listed = |e: u64| chain.binary_search_by_key(&e, |c| c.epoch).is_ok();
        let window = state.live.range(base.map_or(0, |c| c.epoch)..=top);
        let evicted = |m: usize| levels[..m].iter().any(|l| l.capacity > 0);
        let blind =
            base.is_none() && !state.unseen.is_empty() && silent.iter().any(|&m| evicted(m));
        let unknown = |e: &u64| !state.live.contains(e) && !state.retired.contains(e);
        let hole = window.copied().find(|&e| !listed(e));
        let Some(hole) = hole.or_else(|| blind.then(|| (1..=top).find(unknown)).flatten()) else {
            return Ok(());
        };
        let names: Vec<&str> = silent.iter().map(|&m| levels[m].name.as_str()).collect();
        Err(io::Error::other(format!(
            "epoch {top} replays over epoch {hole}, which no level that answers holds \
             (silent: {names:?})"
        )))
    }
}

impl StorageBackend for PolicyBackend {
    fn children(&self) -> Vec<(&str, &dyn StorageBackend)> {
        let levels = self.shared.levels.iter();
        levels
            .map(|l| (l.name.as_str(), l as &dyn StorageBackend))
            .collect()
    }

    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        {
            let state = self.shared.state.lock().unwrap();
            if let Some(hw) = state.high_water {
                if epoch <= hw {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("epoch {epoch} not above policy high water {hw}"),
                    ));
                }
            }
        }
        // Back-pressure: at its bound, level 0 drains inline first.
        let level0 = &self.shared.levels[0];
        let staged = || self.shared.state.lock().unwrap().staged[0].len();
        let full = || level0.capacity > 0 && staged() >= level0.capacity;
        while full() {
            let drained = self.drain_one();
            if !full() {
                break;
            }
            if drained?.is_none() {
                return Err(io::Error::other(format!(
                    "level {} stages {} epochs and none can drain",
                    level0.name, level0.capacity
                )));
            }
        }
        let inner = level0.store.begin_epoch(epoch)?;
        Ok(Box::new(PolicyWriter {
            shared: Arc::clone(&self.shared),
            inner,
            epoch,
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        Ok(self.unretired(route::epochs(&self.children())?, |e| *e))
    }

    fn chain(&self) -> io::Result<Vec<ChainEntry>> {
        let (chain, silent) = route::chain(&self.children())?;
        let chain = self.unretired(chain, |c| c.epoch);
        self.whole_window(&chain, &silent)?;
        Ok(chain)
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        for (page, data) in self.records(epoch)? {
            visit(page, &data);
        }
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        // Logical ingest: what the application committed, not the N
        // redundant copies maintenance fanned out.
        self.shared.levels[0].store.bytes_written()
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        // The policy's own mark covers what was committed through it even
        // while the levels that hold it are out of service.
        let own = self.shared.state.lock().unwrap().high_water;
        Ok(own.max(route::high_water(&self.children()).ok().flatten()))
    }

    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let _drain = self.shared.drain_lock.lock().unwrap();
        self.settle_through(into)?;
        route::install_compacted(&self.children(), from, into, records)?;
        let mut state = self.shared.state.lock().unwrap();
        state.live = state.live.split_off(&into);
        Ok(())
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        // Under the drain lock, so no copy lands a retired epoch on a
        // level behind the ledger's back. Each level in service retires
        // its share as ONE batch — one manifest fsync per file-backed
        // level however many epochs go; a level that cannot be asked goes
        // suspect and drops them, through the ledger, when it reconciles.
        let _drain = self.shared.drain_lock.lock().unwrap();
        let result = route::remove_epochs(&self.children(), epochs, true);
        let mut state = self.shared.state.lock().unwrap();
        state.retired.extend(epochs);
        state.live.retain(|e| !epochs.contains(e));
        for queue in &mut state.queues {
            queue.retain(|(e, _)| !epochs.contains(e));
        }
        for deferred in &mut state.deferred {
            deferred.retain(|(e, _)| !epochs.contains(e));
        }
        for staged in &mut state.staged {
            staged.retain(|e| !epochs.contains(e));
        }
        result
    }

    fn drain_one(&self) -> io::Result<Option<u64>> {
        let _drain = self.shared.drain_lock.lock().unwrap();
        self.reconcile_suspects();
        self.copy_step()
    }

    fn drain_backlog(&self) -> usize {
        // Probe-and-reconcile here too while a level is suspect: the
        // maintenance barrier seeds its queue from this count, so a healed
        // level's rebuild work becomes visible on the next barrier without
        // any drain having run. Otherwise no lock a drain holds is taken:
        // the flush pool asks after every commit. Deferred items are
        // *excluded* — they cannot make progress until their level answers
        // a probe, and counting them would wedge the barrier against a dead
        // level forever.
        if self.shared.levels.iter().any(Level::is_suspect) {
            let _drain = self.shared.drain_lock.lock().unwrap();
            self.reconcile_suspects();
        }
        let state = self.shared.state.lock().unwrap();
        state.queues.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::image::CheckpointImage;
    use crate::memory::MemoryBackend;

    const SPEC: &str = "nvme=plain#2 -> partner=replica*2 -> cold=parity*4";
    /// [`SPEC`] with an unbounded level 0, which keeps a copy of every
    /// epoch to damage.
    const UNBOUNDED: &str = "nvme=plain -> partner=replica*2 -> cold=parity*4";

    /// The policy, one failure control per level, and each level's stores
    /// (to damage at rest).
    fn build_injected(spec: &str) -> (PolicyBackend, Vec<FailureControl>, Vec<Vec<MemoryBackend>>) {
        let spec = ResilienceSpec::parse(spec).unwrap();
        let mut stores = vec![Vec::new(); spec.levels.len()];
        let (policy, controls) = PolicyBuilder::new(spec)
            .unwrap()
            .build_injected(|level, _| {
                let store = MemoryBackend::new();
                stores[level].push(store.clone());
                Box::new(store)
            })
            .unwrap();
        (policy, controls, stores)
    }

    /// Every store of `stores` verifies `epoch` clean on its own.
    fn clean_at_rest(stores: &[MemoryBackend], epoch: u64) -> bool {
        stores
            .iter()
            .all(|s| s.verify_epoch(epoch).unwrap().is_clean())
    }

    fn drain_all(policy: &PolicyBackend) {
        for _ in 0..64 {
            match policy.drain_one() {
                Ok(Some(_)) => {}
                Ok(None) => return,
                Err(e) => panic!("drain failed: {e}"),
            }
        }
        panic!("drain did not converge");
    }

    fn epoch_pages(epoch: u64) -> Vec<(u64, Vec<u8>)> {
        (0..6u64)
            .map(|p| (p, vec![(epoch as u8) ^ (p as u8); 32]))
            .collect()
    }

    /// One step of a [`degraded_chains_restore_the_model_or_refuse`] row.
    #[derive(Clone, Copy, Debug)]
    enum Act {
        /// Commit the next epoch: its six pages `epoch ^ page`, or one page.
        Full,
        Page(u64),
        Kill(usize),
        Heal(usize),
        /// One `drain_one`, which must copy an epoch.
        DrainOne,
        /// Drain until idle; a dead level's errors never wedge it.
        Drain,
        /// Fold the chain into the newest epoch.
        Fold,
        /// Drop the policy and build it again over the same stores.
        Rebuild,
        /// `CheckpointImage::load` of the newest epoch is the model's image.
        Load,
        /// It fails, naming this epoch as the hole.
        Refuse(u64),
        /// Nothing is owed, every level holds every epoch, and the levels
        /// took at least this many rebuilds.
        Synced(u64),
    }

    /// Run `acts` over `spec` on memory stores, one failure control per
    /// level.
    fn run_row(spec: &str, acts: &[Act]) {
        let spec = ResilienceSpec::parse(spec).unwrap();
        let ctls: Vec<FailureControl> = spec.levels.iter().map(|_| FailureControl::new()).collect();
        let mut stores = BTreeMap::new();
        let mut build = || {
            let builder = PolicyBuilder::new(spec.clone()).unwrap();
            (builder.build(|l, r| {
                let store: &MemoryBackend = stores.entry((l, r)).or_default();
                Box::new(FailingBackend::with_control(store.clone(), ctls[l].clone()))
            }))
            .unwrap()
        };
        let (mut policy, mut top, mut image) = (build(), 0u64, BTreeMap::new());
        let load = |policy: &PolicyBackend, top| {
            let image = CheckpointImage::load(policy, top)?;
            Ok::<BTreeMap<_, _>, io::Error>(image.iter().map(|(p, d)| (p, d.to_vec())).collect())
        };
        for (i, &act) in acts.iter().enumerate() {
            let ctx = format!("{} step {i} {act:?}", spec.to_spec_string());
            match act {
                Act::Full | Act::Page(_) => {
                    top += 1;
                    let pages = match act {
                        Act::Page(p) => vec![(p, vec![0x80 | top as u8; 32])],
                        _ => epoch_pages(top),
                    };
                    image.extend(pages.clone());
                    write_epoch(&policy, top, pages).unwrap();
                }
                Act::Kill(l) => ctls[l].kill(),
                Act::Heal(l) => ctls[l].heal(),
                Act::DrainOne => assert!(policy.drain_one().unwrap().is_some(), "{ctx}"),
                Act::Drain => {
                    for _ in 0..64 {
                        if let Ok(None) = policy.drain_one() {
                            break;
                        }
                    }
                }
                Act::Fold => drop(policy.compact(top).unwrap()),
                Act::Rebuild => {
                    drop(policy);
                    policy = build();
                }
                Act::Load => assert!(load(&policy, top).ok() == Some(image.clone()), "{ctx}"),
                Act::Refuse(hole) => {
                    let e = load(&policy, top).expect_err(&ctx);
                    let named = e.to_string().contains(&format!("over epoch {hole},"));
                    assert!(e.kind() == io::ErrorKind::Other && named, "{ctx}: {e}");
                }
                Act::Synced(rebuilds) => {
                    let stats = policy.stats().levels;
                    assert_eq!(policy.copies_owed(), 0, "{ctx}");
                    let held = stats.iter().all(|s| s.resident_epochs == top as usize);
                    let rebuilt: u64 = stats.iter().map(|s| s.rebuilds_in).sum();
                    assert!(held && rebuilt >= rebuilds, "{ctx}: {stats:?}");
                }
            }
        }
    }

    /// Degraded and rebuilt policies restore the newest epoch exactly, or
    /// refuse naming the hole in its replay window.
    #[test]
    fn degraded_chains_restore_the_model_or_refuse() {
        use Act::*;
        const TIERED: &str = "fast=plain#2 -> slow=plain";
        const THREE: &str = "hot=plain#3 -> partner=replica*2 -> cold=parity*4";
        #[rustfmt::skip]
        let rows: [(&str, &[Act]); 7] = [
            // Refused: the slow tier down beside the fast tier's window.
            (TIERED, &[Full, Full, Drain, Kill(1), Page(0), Refuse(1), Heal(1), Drain, Load]),
            // Refused: `cold` down while `hot` evicts after `partner`'s copy,
            // then `partner` down: only `partner` holds epoch 2.
            (THREE, &[Kill(2), Full, Drain, Page(3), Drain, Heal(2), Page(0), Kill(1), Refuse(2),
                    Heal(1), Drain, Load]),
            // Refused: rebuilt while the level that alone holds epoch 1 is down.
            (TIERED, &[Full, Drain, Page(3), Kill(1), Rebuild, Refuse(1), Heal(1), Drain, Load]),
            // Restored: a fold above the hole starts the window at its `Full`.
            ("fast=plain#2 -> mid=plain -> slow=plain",
             &[Full, Drain, Page(3), Fold, Page(0), Kill(2), Rebuild, Load]),
            // Restored: an unbounded level 0 evicts nothing, so with `partner`
            // down the levels that answer hold the whole chain.
            (UNBOUNDED, &[Full, Page(1), Drain, Synced(0), Kill(1), Page(2), Drain, Load, Heal(1),
                          Drain, Synced(1)]),
            // Restored: a level killed again mid-rebuild re-parks its copies,
            // converges once healed, and alone restores the newest epoch.
            (UNBOUNDED, &[Full, Drain, Kill(1), Page(2), Page(4), Drain, Heal(1), DrainOne, Kill(1),
                          Drain, Load, Heal(1), Drain, Synced(2), Kill(0), Kill(2), Load]),
            (UNBOUNDED, &[Full, Drain, Kill(2), Page(2), Page(4), Drain, Heal(2), DrainOne, Kill(2),
                          Drain, Load, Heal(2), Drain, Synced(2), Kill(0), Kill(1), Load]),
        ];
        for (spec, acts) in rows {
            run_row(spec, acts);
        }
    }

    #[test]
    fn spec_grammar_round_trips_and_rejects_garbage() {
        let spec = ResilienceSpec::parse(SPEC).unwrap();
        assert_eq!(spec.levels.len(), 3);
        assert_eq!(spec.levels[0].capacity, 2);
        assert_eq!(
            spec.levels[1].protection,
            LevelProtection::Replicated { copies: 2 }
        );
        assert_eq!(
            spec.levels[2].protection,
            LevelProtection::Parity { group: 4 }
        );
        assert_eq!(ResilienceSpec::parse(&spec.to_spec_string()).unwrap(), spec);

        for bad in [
            "",
            "a=plain -> ",
            "nameless",
            "x=replica*1",
            "x=parity*1",
            "x=warp*3",
            "x=plain#lots",
            "dup=plain -> dup=plain",
        ] {
            assert!(
                ResilienceSpec::parse(bad).is_err(),
                "spec {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn drain_copies_epochs_outward_and_capacity_evicts() {
        let (policy, _controls, _) = build_injected(SPEC);
        for epoch in 1..=2u64 {
            write_epoch(&policy, epoch, epoch_pages(epoch)).unwrap();
        }
        assert_eq!(policy.drain_backlog(), 4, "2 epochs x 2 outer levels");
        assert_eq!(policy.staged(0), vec![1, 2]);
        drain_all(&policy);
        assert_eq!(policy.drain_backlog(), 0);
        let stats = policy.stats();
        // The bounded level 0 holds no drained epoch; the outer levels
        // hold everything.
        assert_eq!(stats.levels[0].resident_epochs, 0);
        assert_eq!(stats.levels[0].evictions, 2);
        assert!(policy.staged(0).is_empty());
        assert_eq!(stats.levels[1].resident_epochs, 2);
        assert_eq!(stats.levels[2].resident_epochs, 2);
        assert_eq!(stats.levels[1].drains_in, 2);
        assert_eq!(stats.levels[2].drains_in, 2);
        assert_eq!(policy.epochs().unwrap(), vec![1, 2]);
        // An evicted epoch still reads — from the outer levels.
        let mut seen = Vec::new();
        policy
            .read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, epoch_pages(1));
    }

    #[test]
    fn capacity_applies_backpressure() {
        let (policy, controls, stores) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        write_epoch(&policy, 2, epoch_pages(2)).unwrap();
        // The third commit must drain the oldest epoch inline first.
        write_epoch(&policy, 3, epoch_pages(3)).unwrap();
        assert_eq!(
            stores[1][0].epochs().unwrap(),
            vec![1],
            "epoch 1 force-drained"
        );
        assert_eq!(stores[0][0].epochs().unwrap(), vec![2, 3], "and evicted");
        assert_eq!(policy.staged(0), vec![2, 3]);
        // With every outer level down nothing can make room: the commit
        // fails instead of growing level 0 past its bound.
        for ctl in &controls[1..] {
            ctl.kill();
        }
        assert!(policy.begin_epoch(4).is_err());
        assert_eq!(stores[0][0].epochs().unwrap(), vec![2, 3]);
    }

    #[test]
    fn integrity_reaches_an_epoch_both_tiers_hold() {
        // An epoch both tiers hold (a drain whose eviction failed), with
        // the *slow* copy rotted: asking the first holder only would report
        // the epoch clean, let the drain retry evict the good copy, and
        // leave a CRC mismatch nobody can heal.
        let (fast, fast_view) = MemoryBackend::shared();
        let (slow, slow_view) = MemoryBackend::shared();
        let t = crate::tiered::TieredBackend::new(Box::new(fast), Box::new(slow), 0).unwrap();
        let pages = vec![(0, vec![1u8; 16]), (1, vec![2u8; 16])];
        write_epoch(&t, 1, pages.clone()).unwrap();
        write_epoch(&slow_view, 1, pages.clone()).unwrap();
        slow_view.corrupt_stored_page(1, 0, 3).unwrap();
        let report = t.verify_epoch(1).unwrap();
        assert_eq!(report.corrupt_pages, vec![0], "named before any eviction");
        assert_eq!(t.repair_epoch(1).unwrap().source, "fast");
        assert_eq!(
            slow_view.epoch_records(1).unwrap(),
            pages,
            "healed in place"
        );
        assert!(t.verify_epoch(1).unwrap().is_clean());
        // A rewrite reaches both copies, so whichever survives the drain
        // retry serves the new bytes.
        t.rewrite_epoch(1, &[(0, &[9u8; 16])]).unwrap();
        assert_eq!(
            fast_view.epoch_records(1).unwrap(),
            vec![(0, vec![9u8; 16])]
        );
        assert_eq!(
            slow_view.epoch_records(1).unwrap(),
            vec![(0, vec![9u8; 16])]
        );
        assert_eq!(t.drain_one().unwrap(), Some(1));
        assert_eq!(t.read_page_at(1, 0).unwrap().unwrap(), vec![9u8; 16]);
    }

    #[test]
    fn begin_epoch_enforces_policy_wide_monotonicity() {
        let (policy, _controls, _) = build_injected(SPEC);
        write_epoch(&policy, 3, epoch_pages(3)).unwrap();
        let err = match policy.begin_epoch(3) {
            Err(e) => e,
            Ok(_) => panic!("re-using epoch 3 must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        write_epoch(&policy, 4, epoch_pages(4)).unwrap();
    }

    #[test]
    fn batched_retirement_costs_one_manifest_fsync_per_level() {
        let root = std::env::temp_dir().join(format!(
            "aickpt-policy-batchrm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let spec = ResilienceSpec::parse("hot=plain -> cold=plain").unwrap();
        let policy = PolicyBuilder::new(spec)
            .unwrap()
            .build(|level, _| {
                Box::new(crate::file::FileBackend::open(root.join(format!("l{level}"))).unwrap())
            })
            .unwrap();
        for epoch in 1..=5u64 {
            write_epoch(&policy, epoch, epoch_pages(epoch)).unwrap();
        }
        drain_all(&policy);
        let fsyncs = |l: usize| policy.shared.levels[l].store.io_stats().manifest_fsyncs;
        let before = [fsyncs(0), fsyncs(1)];
        policy.remove_epochs(&[1, 2, 3, 4]).unwrap();
        for (l, before) in before.into_iter().enumerate() {
            assert_eq!(
                fsyncs(l) - before,
                1,
                "level {l}: a 4-epoch retirement is one manifest commit"
            );
        }
        assert_eq!(policy.epochs().unwrap(), vec![5]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A wrapper that reports `InvalidData` for one page id — the parity
    /// level must reconstruct that page from its XOR group instead of
    /// falling through.
    struct CorruptPage<B> {
        inner: B,
        page: u64,
    }

    impl<B: StorageBackend> StorageBackend for CorruptPage<B> {
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
            self.inner.read_epoch(epoch, visit)
        }
        fn bytes_written(&self) -> u64 {
            self.inner.bytes_written()
        }
        fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
            if page == self.page {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "injected corrupt record",
                ));
            }
            self.inner.read_page_at(epoch, page)
        }
    }

    #[test]
    fn parity_level_reconstructs_a_corrupt_record_in_place() {
        let spec = ResilienceSpec::parse("hot=plain -> cold=parity*3").unwrap();
        let policy = PolicyBuilder::new(spec)
            .unwrap()
            .build(|level, _| {
                if level == 1 {
                    Box::new(CorruptPage {
                        inner: MemoryBackend::new(),
                        page: 2,
                    })
                } else {
                    Box::new(MemoryBackend::new())
                }
            })
            .unwrap();
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        assert_eq!(policy.stats().levels[1].drains_in, 1);
        // Ask the parity level's protection view for the corrupt page:
        // `ParityBackend::read_page_at` must reconstruct it from the XOR
        // group instead of surfacing `InvalidData` to the policy.
        let parity_view = &policy.shared.levels[1].store;
        let want = epoch_pages(1);
        assert_eq!(
            parity_view.read_page_at(1, 2).unwrap().unwrap(),
            want[2].1,
            "corrupt record reconstructed from its XOR group"
        );
    }

    #[test]
    fn verify_merges_damage_and_repair_heals_across_levels() {
        let (policy, _controls, stores) = build_injected(UNBOUNDED);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Rot one record at rest on the plain fast level. The level has no
        // redundancy of its own — repair must source from a peer level.
        stores[0][0].corrupt_stored_page(1, 2, 1).unwrap();
        let report = policy.verify_epoch(1).unwrap();
        assert_eq!(report.corrupt_pages, vec![2]);
        let rep = policy.repair_epoch(1).unwrap();
        assert!(rep.rewrote_segment);
        assert_eq!(rep.pages, vec![2]);
        assert!(
            rep.source.contains("partner"),
            "healed from the replica level, got {:?}",
            rep.source
        );
        assert!(clean_at_rest(&stores[0], 1), "rewrite replaced the rot");
        assert!(policy.verify_epoch(1).unwrap().is_clean());
        assert_eq!(
            policy.read_page_at(1, 2).unwrap().unwrap(),
            epoch_pages(1)[2].1
        );
    }

    #[test]
    fn self_healed_parity_level_rescues_the_plain_level() {
        let (policy, controls, stores) = build_injected(UNBOUNDED);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Kill the replica level so the only clean source candidates are
        // the two damaged ones: the parity level must first heal itself
        // (XOR group), then serve as the source for the plain level.
        controls[1].kill();
        stores[0][0].corrupt_stored_page(1, 2, 0).unwrap();
        stores[2][0].corrupt_stored_page(1, 3, 0).unwrap();
        let rep = policy.repair_epoch(1).unwrap();
        assert!(
            rep.source.contains("cold") && rep.source.contains("parity"),
            "parity self-heal recorded, got {:?}",
            rep.source
        );
        assert!(clean_at_rest(&stores[0], 1) && clean_at_rest(&stores[2], 1));
        assert!(policy.verify_epoch(1).unwrap().is_clean());
    }

    #[test]
    fn damage_on_every_level_is_irreparable() {
        let (policy, _controls, stores) = build_injected(UNBOUNDED);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Pages 0 and 1 share a parity group (group size 4), so even the
        // parity level cannot self-heal a double loss; both members of the
        // replica level rot alike.
        for store in stores.iter().flatten() {
            store.corrupt_stored_page(1, 0, 0).unwrap();
            store.corrupt_stored_page(1, 1, 0).unwrap();
        }
        let err = policy.repair_epoch(1).unwrap_err();
        assert!(
            err.to_string().contains("no surviving source"),
            "unexpected error: {err}"
        );
        assert!(!policy.verify_epoch(1).unwrap().is_clean());
    }

    #[test]
    fn corrupt_stream_read_heals_the_level_in_place() {
        let (policy, controls, stores) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Only the parity level is alive; its stream read trips over the
        // rot. The read path must repair the level in place (XOR group) and
        // then serve the bytes — not fail the restore.
        controls[0].kill();
        controls[1].kill();
        stores[2][0].corrupt_stored_page(1, 2, 0).unwrap();
        let mut seen = Vec::new();
        policy
            .read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, epoch_pages(1));
        assert!(
            clean_at_rest(&stores[2], 1),
            "the read healed the rot instead of working around it"
        );
        // Every level dead: reads fail instead of lying.
        controls[2].kill();
        assert!(policy.read_page_at(1, 0).is_err());
        assert!(policy.epochs().is_err());
    }
}
