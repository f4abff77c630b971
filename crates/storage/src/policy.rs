//! Multi-level resilience policies (the VELOC-style blueprint): a
//! declarative [`ResilienceSpec`] — e.g. *L0 local NVMe → L1 partner-rank
//! replica → L2 parity cold tier* — composed out of the existing backend
//! primitives into one [`PolicyBackend`] that implements
//! [`StorageBackend`].
//!
//! ## Spec grammar
//!
//! Levels are listed fastest-first, separated by `->`. Each level is
//! `name=kind` with an optional `#capacity` suffix (maximum resident
//! epochs; `0` or absent means unbounded; the last level never evicts):
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
//! first, read from the lowest alive level that holds it, written through
//! the destination level's protection wrapper. A failed copy marks the
//! destination level *suspect* and parks the item on a deferred list so
//! the maintenance barrier is never wedged by a dead level. Every
//! `drain_one`/`drain_backlog` call first re-probes suspect levels; a
//! level that answers again is *reconciled* — deferred copies re-queued
//! as **rebuilds**, epochs retired while it was dead removed — and
//! resumes normal service. Levels with a capacity evict their oldest
//! epoch once a higher (slower) level holds a durable copy.
//!
//! ## Degraded reads
//!
//! Every read falls through levels in order — fast tier first, partner
//! next, cold parity last. A level that errors (or no longer holds the
//! epoch) is skipped; inside a parity level a single corrupt record is
//! reconstructed from its XOR group. Reads fail only when **no** level
//! can serve them, so `restore_latest` and demand-paged (lazy) restore
//! both keep working on a degraded stack.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::backend::{
    as_batch, ChainEntry, CompactionStats, EpochKind, EpochWriter, StorageBackend,
};
use crate::errors::{classify, FaultClass, RetryPolicy};
use crate::failing::{FailingBackend, FailureControl};
use crate::io::IoStats;
use crate::parity::ParityBackend;
use crate::replicate::ReplicatedBackend;
use crate::scrub::{RecordMeta, RepairReport, VerifyReport};

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
    /// Maximum resident epochs (0 = unbounded). Ignored for the last
    /// level, which never evicts.
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

/// The protection wrapper actually instantiated for one level.
enum Protection {
    Plain(Box<dyn StorageBackend>),
    Replicated(ReplicatedBackend),
    Parity(ParityBackend<Box<dyn StorageBackend>>),
}

impl Protection {
    fn store(&self) -> &dyn StorageBackend {
        match self {
            Protection::Plain(b) => &**b,
            Protection::Replicated(r) => r,
            Protection::Parity(p) => p,
        }
    }
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

struct Level {
    name: String,
    capacity: usize,
    protection: Protection,
    /// Set when an operation against this level failed; cleared once a
    /// liveness probe succeeds and the level has been reconciled.
    suspect: AtomicBool,
    counters: LevelCounters,
}

impl Level {
    fn store(&self) -> &dyn StorageBackend {
        self.protection.store()
    }

    fn is_suspect(&self) -> bool {
        self.suspect.load(Ordering::SeqCst)
    }

    /// Whether the level currently lists `epoch`; `Err` when it cannot
    /// even be probed.
    fn holds(&self, epoch: u64) -> io::Result<bool> {
        Ok(self.store().epochs()?.contains(&epoch))
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
    /// Epochs evicted from this level under its capacity bound.
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
    /// Epochs retired through the policy (so a level that slept through
    /// the retirement drops them on reconcile instead of resurrecting
    /// them).
    retired: BTreeSet<u64>,
    high_water: Option<u64>,
}

struct Shared {
    levels: Vec<Level>,
    state: Mutex<PolicyState>,
    /// Serialises drain/reconcile I/O so `drain_one` callers from the
    /// maintenance worker and direct callers never interleave copies.
    drain_lock: Mutex<()>,
    /// Backoff schedule applied to transient faults during copies and
    /// fall-through reads. Permanent faults keep the suspect/deferred
    /// semantics untouched; corrupt faults go to repair, never retry.
    retry: Mutex<RetryPolicy>,
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
        let mut levels = Vec::with_capacity(self.spec.levels.len());
        for (l, spec) in self.spec.levels.iter().enumerate() {
            let protection = match spec.protection {
                LevelProtection::None => Protection::Plain(factory(l, 0)),
                LevelProtection::Replicated { copies } => Protection::Replicated(
                    ReplicatedBackend::new((0..copies).map(|r| factory(l, r)).collect()),
                ),
                LevelProtection::Parity { group } => {
                    Protection::Parity(ParityBackend::new(factory(l, 0), group))
                }
            };
            levels.push(Level {
                name: spec.name.clone(),
                capacity: spec.capacity,
                protection,
                suspect: AtomicBool::new(false),
                counters: LevelCounters::default(),
            });
        }
        // Resume numbering above anything the level stores already hold.
        let mut high_water = None;
        for level in &levels {
            if let Ok(hw) = level.store().high_water() {
                high_water = high_water.max(hw);
            }
        }
        let n = levels.len();
        Ok(PolicyBackend {
            shared: Arc::new(Shared {
                levels,
                state: Mutex::new(PolicyState {
                    queues: (0..n).map(|_| VecDeque::new()).collect(),
                    deferred: (0..n).map(|_| Vec::new()).collect(),
                    retired: BTreeSet::new(),
                    high_water,
                }),
                drain_lock: Mutex::new(()),
                retry: Mutex::new(RetryPolicy::default()),
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

/// One epoch's `(page, payload)` records, buffered.
type EpochRecords = Vec<(u64, Vec<u8>)>;

/// Buffered records of one epoch read through a level's protection view.
fn try_read_epoch(store: &dyn StorageBackend, epoch: u64) -> io::Result<Option<EpochRecords>> {
    match store.epochs() {
        Ok(eps) if !eps.contains(&epoch) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    store.read_epoch(epoch, &mut |p, d| records.push((p, d.to_vec())))?;
    Ok(Some(records))
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

    /// Replace the transient-fault backoff schedule (copies and
    /// fall-through reads). Takes effect on the next operation.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.shared.retry.lock().unwrap() = policy;
    }

    /// The transient-fault backoff schedule currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.shared.retry.lock().unwrap()
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
                    level.store().epochs().map(|e| e.len()).unwrap_or(0)
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

    fn last_level(&self) -> usize {
        self.shared.levels.len() - 1
    }

    /// Probe suspect levels; reconcile any that answer again. Called at
    /// the top of every `drain_one`/`drain_backlog` so a healed level
    /// re-enters service on the next maintenance tick. Caller holds
    /// `drain_lock`.
    fn reconcile_suspects(&self) {
        for l in 0..self.shared.levels.len() {
            if !self.shared.levels[l].is_suspect() {
                continue;
            }
            let level = &self.shared.levels[l];
            let Ok(present) = level.store().epochs() else {
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
            // Reference view: the union of what the other alive levels
            // hold. (A suspect level that just answered its probe is not
            // a reference until reconciled.)
            let mut reference: BTreeSet<u64> = BTreeSet::new();
            for (o, other) in self.shared.levels.iter().enumerate() {
                if o == l || other.is_suspect() {
                    continue;
                }
                if let Ok(eps) = other.store().epochs() {
                    reference.extend(eps);
                }
            }
            // Drop epochs retired while the level was down.
            let (stale, retired_snapshot) = {
                let state = self.shared.state.lock().unwrap();
                let stale: Vec<u64> = present
                    .iter()
                    .copied()
                    .filter(|e| state.retired.contains(e))
                    .collect();
                (stale, state.retired.clone())
            };
            if !stale.is_empty() && level.store().remove_epochs(&stale).is_err() {
                continue; // went down again mid-reconcile; retry later
            }
            // Re-queue deferred copies as rebuilds, plus anything the
            // level is missing against the reference window.
            let mut state = self.shared.state.lock().unwrap();
            let mut wanted: BTreeSet<u64> = reference
                .iter()
                .copied()
                .filter(|e| !retired_snapshot.contains(e))
                .collect();
            if level.capacity > 0 && l != self.last_level() {
                // Capacity-bounded levels only hold the newest window —
                // do not resurrect epochs the policy already evicted.
                while wanted.len() > level.capacity {
                    let oldest = *wanted.iter().next().unwrap();
                    wanted.remove(&oldest);
                }
            }
            let queued: BTreeSet<u64> = state.queues[l].iter().map(|&(e, _)| e).collect();
            let mut merged: BTreeMap<u64, CopyKind> = BTreeMap::new();
            for &(e, kind) in state.queues[l].iter() {
                merged.insert(e, kind);
            }
            for &(e, _) in state.deferred[l].iter() {
                merged.entry(e).or_insert(CopyKind::Rebuild);
            }
            for e in wanted {
                if !present.contains(&e) && !queued.contains(&e) {
                    merged.entry(e).or_insert(CopyKind::Rebuild);
                }
            }
            state.queues[l] = merged
                .into_iter()
                .filter(|(e, _)| !present.contains(e))
                .collect();
            state.deferred[l].clear();
            level.suspect.store(false, Ordering::SeqCst);
        }
    }

    /// One copy step: pick the smallest pending epoch across level
    /// queues, copy it in, apply capacity eviction. Caller holds
    /// `drain_lock`.
    fn copy_step(&self) -> io::Result<Option<u64>> {
        loop {
            let picked = {
                let mut state = self.shared.state.lock().unwrap();
                let mut best: Option<(u64, usize)> = None;
                for (l, queue) in state.queues.iter().enumerate() {
                    if self.shared.levels[l].is_suspect() {
                        continue;
                    }
                    if let Some(&(epoch, _)) = queue.front() {
                        if best.map(|(e, _)| epoch < e).unwrap_or(true) {
                            best = Some((epoch, l));
                        }
                    }
                }
                match best {
                    Some((_, l)) => state.queues[l].pop_front().map(|item| (l, item)),
                    None => None,
                }
            };
            let Some((dest, (epoch, kind))) = picked else {
                return Ok(None);
            };
            // Retired while queued: drop silently.
            if self.shared.state.lock().unwrap().retired.contains(&epoch) {
                continue;
            }
            let level = &self.shared.levels[dest];
            let dest_store = level.store();
            // Already there (reconcile raced a queued drain): done.
            match dest_store.epochs() {
                Ok(eps) if eps.contains(&epoch) => {
                    self.evict_over_capacity();
                    return Ok(Some(epoch));
                }
                Ok(_) => {}
                Err(e) => {
                    self.park(dest, epoch, kind);
                    return Err(e);
                }
            }
            // The destination burned this epoch number (it held and then
            // evicted it): it can never be re-committed there. Leave it
            // to the other levels.
            if let Ok(Some(hw)) = dest_store.high_water() {
                if hw >= epoch {
                    continue;
                }
            }
            // Source: lowest alive level that still holds the epoch.
            // Transient read hiccups are retried with backoff before the
            // level is written off as suspect.
            let retry = self.retry_policy();
            let mut records: Option<Vec<(u64, Vec<u8>)>> = None;
            let mut last_err: Option<io::Error> = None;
            for (src, source) in self.shared.levels.iter().enumerate() {
                if src == dest || source.is_suspect() {
                    continue;
                }
                match retry.run(|| try_read_epoch(source.store(), epoch)) {
                    Ok(Some(recs)) => {
                        records = Some(recs);
                        break;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        source
                            .counters
                            .read_fallthroughs
                            .fetch_add(1, Ordering::SeqCst);
                        source.suspect.store(true, Ordering::SeqCst);
                        last_err = Some(e);
                    }
                }
            }
            let Some(records) = records else {
                // No readable source right now. Put the item back at the
                // front (order preserved) and surface the error so the
                // maintenance worker backs off and retries.
                let mut state = self.shared.state.lock().unwrap();
                state.queues[dest].push_front((epoch, kind));
                return Err(last_err.unwrap_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no level holds epoch {epoch} to copy from"),
                    )
                }));
            };
            // Copy through the destination's protection wrapper. Each
            // step retries transient faults independently (a burst on
            // `finish` must not replay `begin_epoch` against a
            // half-written epoch); permanent faults still park the item
            // and mark the destination suspect exactly as before.
            let outcome = (|| -> io::Result<u64> {
                let writer = retry.run(|| dest_store.begin_epoch(epoch))?;
                let mut bytes = 0u64;
                for (page, data) in &records {
                    retry.run(|| writer.write_pages(&[(*page, data.as_slice())]))?;
                    bytes += data.len() as u64;
                }
                retry.run(|| writer.finish())?;
                Ok(bytes)
            })();
            match outcome {
                Ok(bytes) => {
                    let c = &level.counters;
                    c.copy_bytes.fetch_add(bytes, Ordering::SeqCst);
                    match kind {
                        CopyKind::Drain => c.drains_in.fetch_add(1, Ordering::SeqCst),
                        CopyKind::Rebuild => c.rebuilds_in.fetch_add(1, Ordering::SeqCst),
                    };
                    self.evict_over_capacity();
                    return Ok(Some(epoch));
                }
                Err(e) => {
                    level.counters.copy_failures.fetch_add(1, Ordering::SeqCst);
                    self.park(dest, epoch, kind);
                    return Err(e);
                }
            }
        }
    }

    /// Run one level's read with the fault taxonomy applied: transient
    /// errors retry with backoff, and a *corrupt* result triggers the
    /// level's own in-place repair (replica member, XOR group) followed by
    /// one final attempt. A level that cannot repair keeps its original
    /// error and the caller falls through to the next level — degraded
    /// reads never got worse, they just heal in place when they can.
    fn level_read<T>(
        &self,
        level: &Level,
        epoch: u64,
        op: impl Fn() -> io::Result<T>,
    ) -> io::Result<T> {
        match self.retry_policy().run(&op) {
            Err(e) if classify(&e) == FaultClass::Corrupt => {
                if level.store().repair_epoch(epoch).is_ok() {
                    op()
                } else {
                    Err(e)
                }
            }
            other => other,
        }
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

    /// Evict over-capacity epochs (oldest first) from bounded levels —
    /// only once a higher (slower) alive level holds the epoch.
    fn evict_over_capacity(&self) {
        let last = self.last_level();
        for (l, level) in self.shared.levels.iter().enumerate() {
            if l == last || level.capacity == 0 || level.is_suspect() {
                continue;
            }
            let Ok(mut present) = level.store().epochs() else {
                continue;
            };
            present.sort_unstable();
            let mut idx = 0;
            while present.len() - idx > level.capacity && idx < present.len() {
                let oldest = present[idx];
                let held_higher = self.shared.levels[l + 1..]
                    .iter()
                    .any(|higher| !higher.is_suspect() && higher.holds(oldest).unwrap_or(false));
                if !held_higher {
                    break; // never drop the sole durable copy
                }
                if level.store().remove_epochs(&[oldest]).is_err() {
                    break;
                }
                level.counters.evictions.fetch_add(1, Ordering::SeqCst);
                idx += 1;
            }
        }
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
        for l in 1..self.shared.levels.len() {
            state.queues[l].push_back((self.epoch, CopyKind::Drain));
        }
        Ok(())
    }

    fn abort(&self) -> io::Result<()> {
        self.inner.abort()
    }
}

impl StorageBackend for PolicyBackend {
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
        let inner = self.shared.levels[0].store().begin_epoch(epoch)?;
        Ok(Box::new(PolicyWriter {
            shared: Arc::clone(&self.shared),
            inner,
            epoch,
        }))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        let mut union = BTreeSet::new();
        let mut any_ok = false;
        let mut last_err = None;
        for level in &self.shared.levels {
            match level.store().epochs() {
                Ok(eps) => {
                    union.extend(eps);
                    any_ok = true;
                }
                Err(e) => last_err = Some(e),
            }
        }
        if any_ok {
            // A healed level that has not been reconciled yet may still
            // hold epochs retired while it was down — never list them.
            let state = self.shared.state.lock().unwrap();
            Ok(union
                .into_iter()
                .filter(|e| !state.retired.contains(e))
                .collect())
        } else {
            Err(last_err.unwrap())
        }
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        let mut hw = self.shared.state.lock().unwrap().high_water;
        for level in &self.shared.levels {
            if let Ok(level_hw) = level.store().high_water() {
                hw = hw.max(level_hw);
            }
        }
        Ok(hw)
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        let mut last_err = None;
        for level in &self.shared.levels {
            // Buffer before replay so a level failing mid-stream never
            // leaks a partial visit to the caller.
            match self.level_read(level, epoch, || try_read_epoch(level.store(), epoch)) {
                Ok(Some(records)) => {
                    level.counters.read_hits.fetch_add(1, Ordering::SeqCst);
                    for (page, data) in records {
                        visit(page, &data);
                    }
                    return Ok(());
                }
                Ok(None) => {}
                Err(e) => {
                    level
                        .counters
                        .read_fallthroughs
                        .fetch_add(1, Ordering::SeqCst);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("epoch {epoch} not found on any level"),
            )
        }))
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        let mut last_err = None;
        for level in &self.shared.levels {
            match level.holds(epoch) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            }
            match self.level_read(level, epoch, || level.store().epoch_page_ids(epoch)) {
                Ok(ids) => {
                    level.counters.read_hits.fetch_add(1, Ordering::SeqCst);
                    return Ok(ids);
                }
                Err(e) => {
                    level
                        .counters
                        .read_fallthroughs
                        .fetch_add(1, Ordering::SeqCst);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("epoch {epoch} not found on any level"),
            )
        }))
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        let mut last_err = None;
        for level in &self.shared.levels {
            match level.holds(epoch) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(e) => {
                    // A level that cannot even be probed should have held
                    // the epoch: the read falls through past it.
                    level
                        .counters
                        .read_fallthroughs
                        .fetch_add(1, Ordering::SeqCst);
                    last_err = Some(e);
                    continue;
                }
            }
            // Inside a parity level this already reconstructs a corrupt
            // record from its XOR group before we ever fall through.
            match self.level_read(level, epoch, || level.store().read_page_at(epoch, page)) {
                Ok(hit) => {
                    level.counters.read_hits.fetch_add(1, Ordering::SeqCst);
                    return Ok(hit);
                }
                Err(e) => {
                    level
                        .counters
                        .read_fallthroughs
                        .fetch_add(1, Ordering::SeqCst);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("epoch {epoch} not found on any level"),
            )
        }))
    }

    fn bytes_written(&self) -> u64 {
        // Logical ingest: what the application committed, not the N
        // redundant copies maintenance fanned out.
        self.shared.levels[0].store().bytes_written()
    }

    fn bytes_stored(&self) -> u64 {
        self.shared.levels[0].store().bytes_stored()
    }

    fn chain(&self) -> io::Result<Vec<ChainEntry>> {
        let mut merged: BTreeMap<u64, EpochKind> = BTreeMap::new();
        let mut any_ok = false;
        let mut last_err = None;
        for level in &self.shared.levels {
            match level.store().chain() {
                Ok(chain) => {
                    any_ok = true;
                    for entry in chain {
                        let kind = merged.entry(entry.epoch).or_insert(entry.kind);
                        if entry.kind == EpochKind::Full {
                            *kind = EpochKind::Full;
                        }
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        if any_ok {
            let state = self.shared.state.lock().unwrap();
            Ok(merged
                .into_iter()
                .filter(|(epoch, _)| !state.retired.contains(epoch))
                .map(|(epoch, kind)| ChainEntry { epoch, kind })
                .collect())
        } else {
            Err(last_err.unwrap())
        }
    }

    fn compact(&self, up_to: u64) -> io::Result<CompactionStats> {
        // Compaction rewrites every level's chain; doing that while
        // copies toward `up_to` are still owed would destroy the only
        // consistent source. Drain first, cleanly, or refuse.
        let _drain = self.shared.drain_lock.lock().unwrap();
        self.reconcile_suspects();
        loop {
            let pending = {
                let state = self.shared.state.lock().unwrap();
                state
                    .queues
                    .iter()
                    .any(|q| q.front().map(|&(e, _)| e <= up_to).unwrap_or(false))
            };
            if !pending {
                break;
            }
            if let Err(e) = self.copy_step() {
                return Err(io::Error::new(
                    e.kind(),
                    format!("compact({up_to}) requires full redundancy: {e}"),
                ));
            }
        }
        {
            let state = self.shared.state.lock().unwrap();
            if state
                .deferred
                .iter()
                .any(|d| d.iter().any(|&(e, _)| e <= up_to))
            {
                return Err(io::Error::other(format!(
                    "compact({up_to}) requires full redundancy: \
                     copies deferred to a down level"
                )));
            }
        }
        let mut stats: Option<CompactionStats> = None;
        let mut last_err = None;
        for level in &self.shared.levels {
            if level.is_suspect() {
                continue;
            }
            if !level.holds(up_to).unwrap_or(false) {
                continue; // e.g. capacity-evicted past the fold point
            }
            match level.store().compact(up_to) {
                Ok(s) => {
                    if stats.is_none() {
                        stats = Some(s);
                    }
                }
                Err(e) => {
                    level.suspect.store(true, Ordering::SeqCst);
                    last_err = Some(e);
                }
            }
        }
        match (stats, last_err) {
            (Some(s), None) => Ok(s),
            (_, Some(e)) => Err(e),
            (None, None) => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("compact({up_to}): no live epoch at or below it"),
            )),
        }
    }

    fn supports_compaction(&self) -> bool {
        self.shared
            .levels
            .iter()
            .all(|l| l.store().supports_compaction())
    }

    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let mut last_err = None;
        for level in &self.shared.levels {
            if let Err(e) = level.store().install_compacted(from, into, records) {
                level.suspect.store(true, Ordering::SeqCst);
                last_err = Some(e);
            }
        }
        last_err.map_or(Ok(()), Err)
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        // Partition once per level (one `epochs()` probe) and retire each
        // healthy level's share as ONE batch — one manifest fsync per
        // file-backed level however many epochs go.
        let mut last_err = None;
        for level in &self.shared.levels {
            if level.is_suspect() {
                continue; // cleaned up on reconcile via the retired set
            }
            let Ok(present) = level.store().epochs() else {
                // The level is down: it cannot act now, but the retired
                // set below guarantees the epochs are dropped when it
                // reconciles — not an error for the caller.
                level.suspect.store(true, Ordering::SeqCst);
                continue;
            };
            let held: Vec<u64> = epochs
                .iter()
                .copied()
                .filter(|e| present.contains(e))
                .collect();
            if held.is_empty() {
                continue;
            }
            if let Err(e) = level.store().remove_epochs(&held) {
                level.suspect.store(true, Ordering::SeqCst);
                last_err = Some(e);
            }
        }
        let mut state = self.shared.state.lock().unwrap();
        state.retired.extend(epochs);
        for queue in &mut state.queues {
            queue.retain(|(e, _)| !epochs.contains(e));
        }
        for deferred in &mut state.deferred {
            deferred.retain(|(e, _)| !epochs.contains(e));
        }
        last_err.map_or(Ok(()), Err)
    }

    fn drain_one(&self) -> io::Result<Option<u64>> {
        let _drain = self.shared.drain_lock.lock().unwrap();
        self.reconcile_suspects();
        self.copy_step()
    }

    fn drain_backlog(&self) -> usize {
        // Probe-and-reconcile here too: the maintenance barrier seeds its
        // queue from this count, so a healed level's rebuild work becomes
        // visible on the next barrier without any drain having run.
        // Deferred items are *excluded* — they cannot make progress until
        // their level answers a probe, and counting them would wedge the
        // barrier against a dead level forever.
        let _drain = self.shared.drain_lock.lock().unwrap();
        self.reconcile_suspects();
        let state = self.shared.state.lock().unwrap();
        state.queues.iter().map(|q| q.len()).sum()
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        // Union of the damage across every alive level that holds the
        // epoch. Suspect levels are skipped — their copies are rebuilt
        // wholesale on reconcile, not patched record-by-record — and a
        // level that errors mid-verify contributes its error only if no
        // level could be verified at all.
        let mut merged: Option<VerifyReport> = None;
        let mut last_err = None;
        for level in &self.shared.levels {
            if level.is_suspect() {
                continue;
            }
            match level.holds(epoch) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            }
            match level.store().verify_epoch(epoch) {
                Ok(report) => match &mut merged {
                    Some(m) => m.merge(&report),
                    None => merged = Some(report),
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => last_err = Some(e),
            }
        }
        match (merged, last_err) {
            (Some(m), _) => Ok(m),
            (None, Some(e)) => Err(e),
            (None, None) => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("epoch {epoch} not found on any level"),
            )),
        }
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        // Rewrite every alive holder. A level that fails the rewrite is
        // marked suspect: reconcile rebuilds it wholesale from a clean
        // peer, which is itself a repair.
        let mut rewrote = false;
        let mut last_err = None;
        for level in &self.shared.levels {
            if level.is_suspect() {
                continue;
            }
            if !level.holds(epoch).unwrap_or(false) {
                continue;
            }
            match level.store().rewrite_epoch(epoch, records) {
                Ok(()) => rewrote = true,
                Err(e) => {
                    level.suspect.store(true, Ordering::SeqCst);
                    last_err = Some(e);
                }
            }
        }
        if rewrote {
            Ok(())
        } else {
            Err(last_err.unwrap_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("epoch {epoch} not found on any level"),
                )
            }))
        }
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        // Source-select, fastest-first: each damaged level first tries its
        // own intra-level redundancy (replica member, XOR group); a level
        // that cannot self-heal is rewritten wholesale from the lowest
        // level that verifies clean. Only when *no* level holds a healthy
        // image does the repair fail — and the scrubber quarantines.
        let mut damaged: Vec<usize> = Vec::new();
        let mut clean: Vec<usize> = Vec::new();
        let mut pages: Vec<u64> = Vec::new();
        for (l, level) in self.shared.levels.iter().enumerate() {
            if level.is_suspect() {
                continue;
            }
            if !level.holds(epoch).unwrap_or(false) {
                continue;
            }
            match level.store().verify_epoch(epoch) {
                Ok(r) if r.is_clean() => clean.push(l),
                Ok(r) => {
                    for &p in &r.corrupt_pages {
                        if !pages.contains(&p) {
                            pages.push(p);
                        }
                    }
                    damaged.push(l);
                }
                Err(_) => {}
            }
        }
        if damaged.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("epoch {epoch} verifies clean on every level; nothing to repair"),
            ));
        }
        // Pass 1: intra-level self-heal (a replica member, an XOR group).
        // A level that heals itself becomes a source for pass 2 — so a
        // parity level surviving single-record rot can resurrect levels
        // with no redundancy of their own.
        let mut sources: Vec<String> = Vec::new();
        let mut still_damaged: Vec<usize> = Vec::new();
        for &l in &damaged {
            let level = &self.shared.levels[l];
            let self_healed = level.store().repair_epoch(epoch).ok().filter(|_| {
                // Trust but verify before using it as a source.
                level
                    .store()
                    .verify_epoch(epoch)
                    .map(|after| after.is_clean())
                    .unwrap_or(false)
            });
            match self_healed {
                Some(rep) => {
                    sources.push(format!("level {} ({})", level.name, rep.source));
                    clean.push(l);
                }
                None => still_damaged.push(l),
            }
        }
        clean.sort_unstable(); // prefer the fastest clean level as source
                               // Pass 2: rewrite what remains from the fastest clean image.
        for &l in &still_damaged {
            let level = &self.shared.levels[l];
            let mut healed_from = None;
            for &src in &clean {
                if let Ok(Some(records)) = try_read_epoch(self.shared.levels[src].store(), epoch) {
                    level.store().rewrite_epoch(epoch, &as_batch(&records))?;
                    healed_from = Some(src);
                    break;
                }
            }
            let Some(src) = healed_from else {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!(
                        "no surviving source to repair epoch {epoch}: \
                         level {} is damaged and no level verifies clean",
                        level.name
                    ),
                ));
            };
            sources.push(format!("level {}", self.shared.levels[src].name));
        }
        Ok(RepairReport {
            epoch,
            pages,
            rewrote_segment: true,
            source: sources.join(", "),
        })
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        let mut last_err = None;
        for level in &self.shared.levels {
            if level.is_suspect() {
                continue;
            }
            if !level.holds(epoch).unwrap_or(false) {
                continue;
            }
            match level.store().record_meta(epoch, page) {
                Ok(meta) => return Ok(meta),
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    fn io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for level in &self.shared.levels {
            total = total.merged(level.store().io_stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::memory::MemoryBackend;

    const SPEC: &str = "nvme=plain#2 -> partner=replica*2 -> cold=parity*4";

    fn build_injected(spec: &str) -> (PolicyBackend, Vec<FailureControl>) {
        PolicyBuilder::new(ResilienceSpec::parse(spec).unwrap())
            .unwrap()
            .build_injected(|_, _| Box::new(MemoryBackend::new()))
            .unwrap()
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
        let (policy, _controls) = build_injected(SPEC);
        for epoch in 1..=4u64 {
            write_epoch(&policy, epoch, epoch_pages(epoch)).unwrap();
        }
        assert_eq!(policy.drain_backlog(), 8, "4 epochs x 2 outer levels");
        drain_all(&policy);
        assert_eq!(policy.drain_backlog(), 0);
        let stats = policy.stats();
        // Level 0 holds only the newest 2 epochs (capacity), outer levels
        // hold everything.
        assert_eq!(stats.levels[0].resident_epochs, 2);
        assert_eq!(stats.levels[0].evictions, 2);
        assert_eq!(stats.levels[1].resident_epochs, 4);
        assert_eq!(stats.levels[2].resident_epochs, 4);
        assert_eq!(stats.levels[1].drains_in, 4);
        assert_eq!(stats.levels[2].drains_in, 4);
        assert_eq!(policy.epochs().unwrap(), vec![1, 2, 3, 4]);
        // An evicted epoch still reads — from the outer levels.
        let mut seen = Vec::new();
        policy
            .read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, epoch_pages(1));
    }

    #[test]
    fn begin_epoch_enforces_policy_wide_monotonicity() {
        let (policy, _controls) = build_injected(SPEC);
        write_epoch(&policy, 3, epoch_pages(3)).unwrap();
        let err = match policy.begin_epoch(3) {
            Err(e) => e,
            Ok(_) => panic!("re-using epoch 3 must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        write_epoch(&policy, 4, epoch_pages(4)).unwrap();
    }

    #[test]
    fn killed_level_defers_copies_then_heals_into_rebuilds() {
        let (policy, controls) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);

        controls[1].kill();
        write_epoch(&policy, 2, epoch_pages(2)).unwrap();
        // Copy toward the dead partner level fails and parks.
        let mut deferred = 0;
        for _ in 0..8 {
            match policy.drain_one() {
                Ok(Some(_)) | Ok(None) => {}
                Err(_) => deferred += 1,
            }
            if policy.drain_backlog() == 0 {
                break;
            }
        }
        assert!(deferred >= 1, "copy into the killed level must fail");
        let stats = policy.stats();
        assert!(stats.levels[1].suspect);
        assert_eq!(stats.levels[1].deferred, 1);
        // The cold level still got its copy; reads fall through.
        assert_eq!(policy.epochs().unwrap(), vec![1, 2]);

        controls[1].heal();
        // The next backlog probe reconciles the level and exposes the
        // rebuild work; draining completes it.
        assert!(policy.drain_backlog() >= 1);
        drain_all(&policy);
        let stats = policy.stats();
        assert!(!stats.levels[1].suspect);
        assert_eq!(stats.levels[1].deferred, 0);
        assert_eq!(stats.levels[1].rebuilds_in, 1);
        assert_eq!(stats.levels[1].resident_epochs, 2);
    }

    #[test]
    fn reads_fall_through_a_killed_fast_level() {
        let (policy, controls) = build_injected(SPEC);
        for epoch in 1..=2u64 {
            write_epoch(&policy, epoch, epoch_pages(epoch)).unwrap();
        }
        drain_all(&policy);
        controls[0].kill();
        assert_eq!(policy.epochs().unwrap(), vec![1, 2]);
        let mut seen = Vec::new();
        policy
            .read_epoch(2, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, epoch_pages(2));
        assert_eq!(
            policy.read_page_at(2, 3).unwrap().unwrap(),
            epoch_pages(2)[3].1
        );
        assert_eq!(policy.epoch_page_ids(2).unwrap(), vec![0, 1, 2, 3, 4, 5]);
        let stats = policy.stats();
        assert!(stats.levels[1].read_hits > 0, "partner level served reads");

        // Kill the partner too: the parity cold level is the last line.
        controls[1].kill();
        let mut seen = Vec::new();
        policy
            .read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, epoch_pages(1));

        // All levels dead: reads error instead of lying.
        controls[2].kill();
        assert!(policy.read_page_at(1, 0).is_err());
        assert!(policy.epochs().is_err());
    }

    #[test]
    fn retirement_while_a_level_is_down_sticks_after_heal() {
        let (policy, controls) = build_injected(SPEC);
        for epoch in 1..=3u64 {
            write_epoch(&policy, epoch, epoch_pages(epoch)).unwrap();
        }
        drain_all(&policy);
        controls[1].kill();
        policy.remove_epochs(&[1]).unwrap();
        controls[1].heal();
        policy.drain_backlog();
        assert_eq!(policy.epochs().unwrap(), vec![2, 3]);
        // Kill everything but the healed level: epoch 1 must be gone
        // there too, not resurrected.
        controls[0].kill();
        controls[2].kill();
        assert_eq!(policy.epochs().unwrap(), vec![2, 3]);
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
        let fsyncs = |l: usize| policy.shared.levels[l].store().io_stats().manifest_fsyncs;
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

    #[test]
    fn compact_refuses_while_degraded_then_folds_after_heal() {
        let (policy, controls) = build_injected(SPEC);
        for epoch in 1..=3u64 {
            write_epoch(&policy, epoch, epoch_pages(epoch)).unwrap();
        }
        controls[2].kill();
        let err = policy.compact(3).unwrap_err();
        assert!(
            err.to_string().contains("full redundancy"),
            "unexpected error: {err}"
        );
        controls[2].heal();
        drain_all(&policy);
        let stats = policy.compact(3).unwrap();
        assert_eq!(stats.into, 3);
        assert!(stats.segments_removed > 0);
        let chain = policy.chain().unwrap();
        assert_eq!(chain.last().unwrap().kind, EpochKind::Full);
        // Restore is byte-identical post-compaction from any single level.
        for dead in [[0usize, 1], [0, 2], [1, 2]] {
            let mut seen = std::collections::BTreeMap::new();
            for &l in &dead {
                controls[l].kill();
            }
            policy
                .read_epoch(3, &mut |p, d| {
                    seen.insert(p, d.to_vec());
                })
                .unwrap();
            for (p, d) in epoch_pages(3) {
                assert_eq!(seen.get(&p), Some(&d), "page {p} after killing {dead:?}");
            }
            for &l in &dead {
                controls[l].heal();
            }
            policy.drain_backlog();
        }
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
        let parity_view = policy.shared.levels[1].store();
        let want = epoch_pages(1);
        assert_eq!(
            parity_view.read_page_at(1, 2).unwrap().unwrap(),
            want[2].1,
            "corrupt record reconstructed from its XOR group"
        );
    }

    #[test]
    fn source_loss_surfaces_an_error_and_retries_after_heal() {
        let (policy, controls) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        // Kill the only source (level 0) before any copy happened.
        controls[0].kill();
        let err = policy.drain_one().unwrap_err();
        assert!(err.to_string().contains("injected") || err.kind() == io::ErrorKind::NotFound);
        // Nothing was lost: the item is still owed.
        assert!(policy.copies_owed() >= 2);
        controls[0].heal();
        drain_all(&policy);
        assert_eq!(policy.stats().levels[1].resident_epochs, 1);
        assert_eq!(policy.stats().levels[2].resident_epochs, 1);
    }

    #[test]
    fn transient_drain_burst_is_absorbed_by_retry() {
        use crate::failing::FaultOp;
        let (policy, controls) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        // Two EINTR-shaped hiccups on the cold level's commit barrier:
        // within the default 4-attempt budget, so the copy lands without
        // the level ever being marked suspect or the item parked.
        controls[2].fail_next_n(FaultOp::Finish, 2);
        drain_all(&policy);
        let stats = policy.stats();
        assert!(!stats.levels[2].suspect, "transient faults never park");
        assert_eq!(stats.levels[2].copy_failures, 0);
        assert_eq!(stats.levels[2].drains_in, 1);
        assert_eq!(controls[2].transient_remaining(FaultOp::Finish), 0);

        // A burst longer than the attempt budget degrades into exactly
        // the old suspect/deferred semantics at the moment it fails...
        controls[2].fail_next_n(FaultOp::BeginEpoch, 16);
        write_epoch(&policy, 2, epoch_pages(2)).unwrap();
        let mut failed = false;
        for _ in 0..8 {
            match policy.drain_one() {
                Err(e) => {
                    failed = true;
                    assert_eq!(classify(&e), FaultClass::Transient);
                    assert!(policy.stats().levels[2].suspect, "over-budget parks");
                    break;
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
            }
        }
        assert!(failed, "an over-budget burst still surfaces");
        // ...and because the fault is self-healing, the normal
        // probe/reconcile cycle converges without any explicit heal.
        for _ in 0..8 {
            let _ = policy.drain_one();
        }
        drain_all(&policy);
        assert!(!policy.stats().levels[2].suspect);
        assert_eq!(policy.stats().levels[2].resident_epochs, 2);
    }

    #[test]
    fn verify_merges_damage_and_repair_heals_across_levels() {
        let (policy, controls) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Rot one record at rest on the plain fast level. The level has no
        // redundancy of its own — repair must source from a peer level.
        controls[0].corrupt_read_payload(1, 2, 40);
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
        assert_eq!(controls[0].corruptions_armed(), 0, "rewrite cleared rot");
        assert!(policy.verify_epoch(1).unwrap().is_clean());
        assert_eq!(
            policy.read_page_at(1, 2).unwrap().unwrap(),
            epoch_pages(1)[2].1
        );
    }

    #[test]
    fn self_healed_parity_level_rescues_the_plain_level() {
        let (policy, controls) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Kill the replica level so the only clean source candidates are
        // the two damaged ones: the parity level must first heal itself
        // (XOR group), then serve as the source for the plain level.
        controls[1].kill();
        controls[0].corrupt_read_payload(1, 2, 0);
        controls[2].corrupt_read_payload(1, 3, 0);
        let rep = policy.repair_epoch(1).unwrap();
        assert!(
            rep.source.contains("cold") && rep.source.contains("parity"),
            "parity self-heal recorded, got {:?}",
            rep.source
        );
        assert_eq!(controls[0].corruptions_armed(), 0);
        assert_eq!(controls[2].corruptions_armed(), 0);
        assert!(policy.verify_epoch(1).unwrap().is_clean());
    }

    #[test]
    fn damage_on_every_level_is_irreparable() {
        let (policy, controls) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Pages 0 and 1 share a parity group (group size 4), so even the
        // parity level cannot self-heal a double loss; the replica level's
        // shared injection control rots both members alike.
        for control in &controls {
            control.corrupt_read_payload(1, 0, 0);
            control.corrupt_read_payload(1, 1, 0);
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
        let (policy, controls) = build_injected(SPEC);
        write_epoch(&policy, 1, epoch_pages(1)).unwrap();
        drain_all(&policy);
        // Only the parity level is alive; its stream read trips over the
        // armed rot. The read path must repair the level in place (XOR
        // group) and then serve the bytes — not fail the restore.
        controls[0].kill();
        controls[1].kill();
        controls[2].corrupt_read_payload(1, 2, 0);
        let mut seen = Vec::new();
        policy
            .read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, epoch_pages(1));
        assert_eq!(
            controls[2].corruptions_armed(),
            0,
            "the read healed the rot instead of working around it"
        );
    }
}
