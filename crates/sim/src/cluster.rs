//! The simulated cluster: barrier-coupled MPI-like ranks running an
//! [`AppModel`], each with its own checkpoint engine and background flusher,
//! sharing a [`StorageModel`] — a discrete-event reproduction of the
//! paper's Grid'5000 and Shamrock experiments.
//!
//! ## Event model
//!
//! Two event kinds drive everything:
//!
//! * `Resume(rank)` — the rank continues executing its iteration script
//!   (page writes → barrier → possibly `CHECKPOINT`);
//! * `FlushDone(rank, stream)` — one of the rank's in-flight storage
//!   requests completed (a rank keeps up to
//!   [`ClusterConfig::committer_streams`] requests in flight).
//!
//! A rank's writes are processed inline (no event per write) *up to the
//! horizon of the next scheduled event*, so engine state observed by the
//! application is always current — the standard run-ahead technique that
//! keeps the event count at
//! `O(first-writes + flushes)` instead of `O(all writes)`.
//!
//! Only the first iteration after a checkpoint request interacts with the
//! engine (first writes); subsequent iterations of the epoch touch already
//! unprotected pages and are advanced as single compute blocks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_core::{
    EngineConfig, EpochEngine, EpochStats, FlushItem, PageId, SchedulerKind, WriteOutcome,
};

use crate::app::AppModel;
use crate::storage::StorageModel;
use crate::time::SimTime;

/// Checkpointing strategy of a run (§4.2's three settings plus "off").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Checkpointing disabled — the baseline runs are measured against.
    None,
    /// Blocking incremental checkpointing.
    Sync,
    /// Asynchronous, ascending address order, no adaptation.
    AsyncNoPattern,
    /// The paper's adaptive approach (Algorithm 4 + dynamic hints).
    AiCkpt,
    /// Any other engine configuration (ablations).
    Custom {
        /// Static flush order.
        scheduler: SchedulerKind,
        /// Current-epoch adaptations on/off.
        hints: bool,
        /// Block the application during the flush.
        sync: bool,
    },
}

impl Strategy {
    /// Label used in reports (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::None => "baseline",
            Strategy::Sync => "sync",
            Strategy::AsyncNoPattern => "async-no-pattern",
            Strategy::AiCkpt => "our-approach",
            Strategy::Custom { .. } => "custom",
        }
    }

    fn is_sync(&self) -> bool {
        matches!(self, Strategy::Sync | Strategy::Custom { sync: true, .. })
    }

    fn engine_config(
        &self,
        pages: usize,
        page_bytes: usize,
        cow_slots: u32,
    ) -> Option<EngineConfig> {
        let (scheduler, hints) = match self {
            Strategy::None => return None,
            Strategy::Sync => (SchedulerKind::AddressOrder, false),
            Strategy::AsyncNoPattern => (SchedulerKind::AddressOrder, false),
            Strategy::AiCkpt => (SchedulerKind::Adaptive, true),
            Strategy::Custom {
                scheduler, hints, ..
            } => (*scheduler, *hints),
        };
        Some(EngineConfig {
            pages,
            page_bytes,
            cow_slots: if self.is_sync() { 0 } else { cow_slots },
            scheduler,
            dynamic_hints: hints,
            cow_data: false,
        })
    }
}

/// Cluster-level configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Ranks per node (for node-local storage routing).
    pub ranks_per_node: usize,
    /// Total iterations to run.
    pub iterations: usize,
    /// Checkpoint after every `ckpt_every`-th iteration.
    pub ckpt_every: usize,
    /// Also checkpoint after the final iteration (MILC's "end of each
    /// trajectory" placement). Completion then accounts for the trailing
    /// flush.
    pub ckpt_at_end: bool,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Concurrent committer streams per rank: how many storage requests a
    /// rank's flusher keeps in flight simultaneously (the runtime's
    /// `CkptConfig::committer_streams`). 1 reproduces the paper's single
    /// `ASYNC_COMMIT` thread; more streams exploit storage-fabric
    /// parallelism (striping spreads the in-flight requests over servers).
    /// Clamped to at least 1.
    pub committer_streams: usize,
    /// Copy-on-write slots per rank.
    pub cow_slots: u32,
    /// Barrier cost once every rank has arrived.
    pub barrier_ns: u64,
    /// Cost of trapping one first write (signal + mprotect round trip).
    pub fault_ns: u64,
    /// Cost of one copy-on-write page copy.
    pub cow_copy_ns: u64,
    /// Per-iteration multiplicative compute jitter (e.g. 0.02 = up to 2%).
    pub jitter: f64,
    /// Slow-down of the application's compute while an asynchronous flush
    /// is in progress (committer thread, fault handling and page copies
    /// compete for cores and memory bandwidth; §4.4.1 calls this the
    /// interference of background checkpointing). 1.0 = none; the paper-era
    /// 4-core nodes are modelled at ~1.2. Sync runs are unaffected: their
    /// application is stopped during the flush.
    pub async_compute_drag: f64,
    /// Master seed (jitter streams are derived per rank).
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Executing iteration writes at `pos` in the touch order.
    Running,
    /// Blocked in the fault handler on a page.
    Blocked(PageId),
    /// Arrived at the end-of-iteration barrier.
    AtBarrier,
    /// At a checkpoint boundary, waiting for the previous flush to finish.
    WaitCkptDone,
    /// Sync mode: blocked while the flush drains.
    SyncFlush,
    /// Finished all iterations.
    Done,
}

/// Per-rank measurements.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Completion time of the rank's last iteration.
    pub finish: SimTime,
    /// Number of page waits experienced.
    pub waits: u64,
    /// Total page writes executed (all iterations).
    pub writes: u64,
    /// Total time spent blocked on pages.
    pub wait_ns: u64,
    /// (start, end) of every checkpoint flush.
    pub checkpoints: Vec<(SimTime, SimTime)>,
    /// Closed epoch statistics (epoch k = interference while checkpoint k
    /// flushed), including the final epoch at simulation end.
    pub epochs: Vec<EpochStats>,
}

struct Rank {
    node: usize,
    engine: Option<EpochEngine>,
    app: Box<dyn AppModel>,
    state: RankState,
    /// Completed iterations.
    iter: usize,
    /// Position within the current iteration's touch order.
    pos: usize,
    /// Iteration index (1-based) at which the current epoch started, i.e.
    /// the first iteration after the last checkpoint request; only that
    /// iteration generates first writes.
    epoch_first_iter: usize,
    /// The current iteration's tail compute has been performed (the rank is
    /// between tail and barrier, possibly yielding to earlier events).
    tail_done: bool,
    io_seq: u64,
    /// One slot per committer stream; `Some` while that stream has a
    /// storage request in flight.
    inflight: Vec<Option<FlushItem>>,
    wait_started: SimTime,
    ckpt_started: SimTime,
    jitter: SplitMix64,
    stats: RankStats,
    /// Monotonicity guard: a rank's logical time may never move backwards.
    clock: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Resume(usize),
    /// `(rank, stream slot)`: the request issued by that stream completed.
    FlushDone(usize, usize),
}

/// The simulated cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    ranks: Vec<Rank>,
    storage: StorageModel,
    queue: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    seq: u64,
    /// Ranks currently parked at the barrier.
    at_barrier: usize,
    /// Latest arrival time at the current barrier.
    barrier_high: SimTime,
}

impl Cluster {
    /// Build a cluster: one engine + app per rank (apps built per rank so
    /// random patterns can differ per rank if the factory chooses).
    pub fn new(
        cfg: ClusterConfig,
        storage: StorageModel,
        mut app_factory: impl FnMut(usize) -> Box<dyn AppModel>,
    ) -> Self {
        assert!(cfg.ranks > 0 && cfg.ranks_per_node > 0);
        let mut ranks = Vec::with_capacity(cfg.ranks);
        for r in 0..cfg.ranks {
            let app = app_factory(r);
            let engine = cfg
                .strategy
                .engine_config(app.pages(), app.page_bytes(), cfg.cow_slots)
                .map(|ec| EpochEngine::new(ec).expect("valid sim engine config"));
            ranks.push(Rank {
                node: r / cfg.ranks_per_node,
                engine,
                app,
                state: RankState::Running,
                iter: 0,
                pos: 0,
                epoch_first_iter: 1,
                io_seq: 0,
                tail_done: false,
                inflight: vec![None; cfg.committer_streams.max(1)],
                wait_started: SimTime::ZERO,
                ckpt_started: SimTime::ZERO,
                jitter: SplitMix64::new(cfg.seed ^ (r as u64).wrapping_mul(0x9E3779B97F4A7C15)),
                stats: RankStats::default(),
                clock: SimTime::ZERO,
            });
        }
        Self {
            cfg,
            ranks,
            storage,
            queue: BinaryHeap::new(),
            seq: 0,
            at_barrier: 0,
            barrier_high: SimTime::ZERO,
        }
    }

    fn push(&mut self, t: SimTime, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse((t, self.seq, ev)));
    }

    fn horizon(&self) -> SimTime {
        self.queue
            .peek()
            .map(|Reverse((t, _, _))| *t)
            .unwrap_or(SimTime(u64::MAX))
    }

    /// Run to completion; returns per-rank stats.
    pub fn run(mut self) -> SimOutcome {
        for r in 0..self.ranks.len() {
            self.push(SimTime::ZERO, Ev::Resume(r));
        }
        while let Some(Reverse((t, _, ev))) = self.queue.pop() {
            match ev {
                Ev::Resume(r) if self.ranks[r].state == RankState::AtBarrier => {
                    // Barrier release: decide finish / checkpoint / next
                    // iteration with all earlier events applied.
                    self.after_barrier(r, t)
                }
                Ev::Resume(r) => self.step(r, t),
                Ev::FlushDone(r, slot) => self.flush_done(r, slot, t),
            }
        }
        // Close out the final epoch's statistics.
        for rank in &mut self.ranks {
            debug_assert_eq!(rank.state, RankState::Done);
            if let Some(eng) = &rank.engine {
                rank.stats.epochs.push(eng.current_stats());
            }
        }
        // Completion covers the application's end *and* the last flush: a
        // job is not finished until its final checkpoint is durable (this is
        // what makes the trailing MILC checkpoint comparable across sync
        // and async strategies).
        let completion = self
            .ranks
            .iter()
            .map(|r| {
                let last_flush = r
                    .stats
                    .checkpoints
                    .last()
                    .map(|&(_, e)| e)
                    .unwrap_or(SimTime::ZERO);
                r.stats.finish.max(last_flush)
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        SimOutcome {
            completion,
            ranks: self.ranks.into_iter().map(|r| r.stats).collect(),
            storage_requests: self.storage.requests(),
        }
    }

    /// Advance rank `r` from time `now` until it blocks or passes the next
    /// scheduled event.
    fn step(&mut self, r: usize, mut now: SimTime) {
        debug_assert!(
            now >= self.ranks[r].clock,
            "rank {r} time moved backwards: {now:?} < {:?} (state {:?})",
            self.ranks[r].clock,
            self.ranks[r].state
        );
        self.ranks[r].clock = now;
        loop {
            // Respect the global event horizon so engine state stays
            // causally consistent.
            if now > self.horizon() {
                self.push(now, Ev::Resume(r));
                return;
            }
            let rank = &mut self.ranks[r];
            match rank.state {
                RankState::Done => return,
                RankState::Blocked(_)
                | RankState::AtBarrier
                | RankState::WaitCkptDone
                | RankState::SyncFlush => return, // resumed by other events
                RankState::Running => {}
            }

            let order_len = rank.app.touch_order().len();
            if rank.pos < order_len {
                let interacting = rank.iter + 1 == rank.epoch_first_iter;
                if !interacting {
                    // Fast path: the rest of this iteration cannot fault.
                    // Drag is sampled at entry (approximation: a flush
                    // completing mid-iteration stops dragging only at the
                    // next iteration).
                    let mut cost = rank.app.remaining_write_ns(rank.pos);
                    if let Some(eng) = &rank.engine {
                        if eng.checkpoint_active() && !self.cfg.strategy.is_sync() {
                            cost = (cost as f64 * self.cfg.async_compute_drag) as u64;
                        }
                    }
                    now += cost;
                    rank.stats.writes += (order_len - rank.pos) as u64;
                    rank.pos = order_len;
                    continue;
                }
                // First iteration of the epoch: each write may interact.
                let p = rank.app.touch_order()[rank.pos];
                let mut write_cost = rank.app.per_write_ns() + rank.app.write_gap_ns(rank.pos);
                if let Some(eng) = &rank.engine {
                    if eng.checkpoint_active() && !self.cfg.strategy.is_sync() {
                        write_cost = (write_cost as f64 * self.cfg.async_compute_drag) as u64;
                    }
                }
                if let Some(eng) = &mut rank.engine {
                    match eng.on_write(p) {
                        WriteOutcome::Proceed | WriteOutcome::AlreadyHandled => {
                            write_cost += self.cfg.fault_ns;
                        }
                        WriteOutcome::CopyToSlot(_) => {
                            write_cost += self.cfg.fault_ns + self.cfg.cow_copy_ns;
                        }
                        WriteOutcome::MustWait => {
                            rank.state = RankState::Blocked(p);
                            rank.wait_started = now;
                            rank.stats.waits += 1;
                            return; // FlushDone will resume us
                        }
                    }
                }
                rank.pos += 1;
                rank.stats.writes += 1;
                now += write_cost;
                continue;
            }

            // Iteration complete: tail compute + jitter...
            if !rank.tail_done {
                let it_ns = rank.app.iteration_ns();
                let extra = (it_ns as f64 * self.cfg.jitter * rank.jitter.next_f64()) as u64;
                let mut tail = rank.app.tail_compute_ns() + extra;
                if let Some(eng) = &rank.engine {
                    if eng.checkpoint_active() && !self.cfg.strategy.is_sync() {
                        tail = (tail as f64 * self.cfg.async_compute_drag) as u64;
                    }
                }
                now += tail;
                rank.tail_done = true;
                // Loop back through the horizon check: events scheduled
                // before the tail's end (e.g. the previous checkpoint's
                // final FlushDone) must be applied before the barrier
                // decides whether a new checkpoint can start.
                continue;
            }
            // ...then the barrier, at a clean horizon.
            rank.iter += 1;
            rank.pos = 0;
            rank.tail_done = false;
            rank.state = RankState::AtBarrier;
            self.barrier_arrive(now);
            return;
        }
    }

    /// A rank reached the end-of-iteration barrier at `now`.
    fn barrier_arrive(&mut self, now: SimTime) {
        self.at_barrier += 1;
        self.barrier_high = self.barrier_high.max(now);
        if self.at_barrier < self.ranks.len() {
            return;
        }
        // Everyone arrived: release all at the straggler's time + cost. The
        // release goes through the event queue so every event that precedes
        // it (in-flight flush completions in particular) is applied before
        // any rank decides whether its next checkpoint must wait.
        let release = self.barrier_high + self.cfg.barrier_ns;
        self.at_barrier = 0;
        self.barrier_high = SimTime::ZERO;
        for r in 0..self.ranks.len() {
            self.push(release, Ev::Resume(r));
        }
    }

    /// Post-barrier logic for one rank: finish, checkpoint, or next
    /// iteration.
    fn after_barrier(&mut self, r: usize, now: SimTime) {
        let rank = &mut self.ranks[r];
        if std::env::var_os("AICKPT_SIM_TRACE").is_some() && r == 0 {
            eprintln!("[trace] rank0 iter={} released at {now}", rank.iter);
        }
        let app_done = rank.iter >= self.cfg.iterations;
        let due = !app_done
            && rank.engine.is_some()
            && self.cfg.ckpt_every > 0
            && rank.iter.is_multiple_of(self.cfg.ckpt_every);
        let final_due = app_done && self.cfg.ckpt_at_end && rank.engine.is_some();
        if due || final_due {
            if rank.engine.as_ref().unwrap().checkpoint_active() {
                // Algorithm 1 lines 2-4: wait for the previous flush.
                rank.state = RankState::WaitCkptDone;
                return;
            }
            self.begin_checkpoint(r, now);
            return;
        }
        if app_done {
            rank.state = RankState::Done;
            rank.stats.finish = now;
            return;
        }
        rank.state = RankState::Running;
        self.push(now, Ev::Resume(r));
    }

    /// The CHECKPOINT primitive for rank `r` at time `now`.
    fn begin_checkpoint(&mut self, r: usize, now: SimTime) {
        let is_sync = self.cfg.strategy.is_sync();
        let iterations = self.cfg.iterations;
        let rank = &mut self.ranks[r];
        let eng = rank.engine.as_mut().expect("checkpoint without engine");
        rank.app.reseed_epoch(eng.checkpoints() + 1);
        let info = eng.begin_checkpoint().expect("previous checkpoint done");
        rank.stats.epochs.push(info.closed_epoch);
        rank.ckpt_started = now;
        rank.epoch_first_iter = rank.iter + 1;
        let app_done = rank.iter >= iterations;
        if info.scheduled_pages == 0 {
            rank.stats.checkpoints.push((now, now));
            self.resume_or_finish(r, now, app_done);
            return;
        }
        if is_sync {
            rank.state = RankState::SyncFlush;
        } else {
            self.resume_or_finish(r, now, app_done);
        }
        self.issue_flush(r, now);
    }

    /// After a checkpoint request was served (async) or its flush finished
    /// (sync/empty): continue iterating or finish the application.
    fn resume_or_finish(&mut self, r: usize, now: SimTime, app_done: bool) {
        let rank = &mut self.ranks[r];
        if app_done {
            rank.state = RankState::Done;
            rank.stats.finish = now;
        } else {
            rank.state = RankState::Running;
            self.push(now, Ev::Resume(r));
        }
    }

    /// Top up rank `r`'s committer streams: issue one storage request per
    /// idle stream while the engine still yields selectable pages.
    fn issue_flush(&mut self, r: usize, now: SimTime) {
        loop {
            let rank = &mut self.ranks[r];
            let Some(slot) = rank.inflight.iter().position(Option::is_none) else {
                return; // every stream busy
            };
            let Some(eng) = rank.engine.as_mut() else {
                return;
            };
            let Some(item) = eng.select_next() else {
                return; // nothing selectable right now
            };
            rank.inflight[slot] = Some(item);
            let app_running = rank.state == RankState::Running;
            let bytes = rank.app.page_bytes() as u64;
            let seq = rank.io_seq;
            rank.io_seq += 1;
            let node = rank.node;
            let issue = now + self.storage.client_overhead(app_running);
            let done = self.storage.submit(issue, r, node, seq, bytes);
            self.push(done, Ev::FlushDone(r, slot));
        }
    }

    /// The storage request of rank `r`'s stream `slot` completed at `now`.
    fn flush_done(&mut self, r: usize, slot: usize, now: SimTime) {
        // Phase 1: engine bookkeeping and state transitions on the rank.
        let (ckpt_done, resume_at, deferred_ckpt, sync_finished) = {
            let rank = &mut self.ranks[r];
            let item: FlushItem = rank.inflight[slot]
                .take()
                .expect("completion without request");
            let eng = rank.engine.as_mut().expect("flush without engine");
            eng.complete_flush(item);
            let ckpt_done = !eng.checkpoint_active();

            // Wake a writer blocked on this page.
            let mut resume_at = None;
            if let RankState::Blocked(p) = rank.state {
                if eng.states().is_processed(p) {
                    eng.complete_wait(p);
                    rank.stats.wait_ns += now - rank.wait_started;
                    rank.state = RankState::Running;
                    // The blocked write now proceeds (fault cost already
                    // paid as part of the wait).
                    let finished = rank.pos;
                    rank.pos += 1;
                    rank.stats.writes += 1;
                    resume_at =
                        Some(now + rank.app.per_write_ns() + rank.app.write_gap_ns(finished));
                }
            }

            let mut deferred_ckpt = false;
            let mut sync_finished = false;
            if ckpt_done {
                let started = rank.ckpt_started;
                rank.stats.checkpoints.push((started, now));
                match rank.state {
                    RankState::SyncFlush => sync_finished = true,
                    RankState::WaitCkptDone => deferred_ckpt = true,
                    _ => {}
                }
            }
            (ckpt_done, resume_at, deferred_ckpt, sync_finished)
        };
        // Phase 2: scheduling, with the rank borrow released.
        if let Some(t) = resume_at {
            self.push(t, Ev::Resume(r));
        }
        if sync_finished {
            let app_done = self.ranks[r].iter >= self.cfg.iterations;
            self.resume_or_finish(r, now, app_done);
        }
        if deferred_ckpt {
            // Start the checkpoint that was waiting on this flush.
            self.begin_checkpoint(r, now);
        } else if !ckpt_done {
            self.issue_flush(r, now);
        }
    }
}

/// Result of one cluster run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Time at which the slowest rank finished.
    pub completion: SimTime,
    /// Per-rank measurements.
    pub ranks: Vec<RankStats>,
    /// Total storage requests served.
    pub storage_requests: u64,
}

impl SimOutcome {
    /// Checkpoints each rank performed, indexed by rank. Coordinated runs
    /// produce the same count on every rank — the quantity a real
    /// checkpoint-group coordinator is validated against.
    pub fn checkpoints_per_rank(&self) -> Vec<usize> {
        self.ranks.iter().map(|r| r.checkpoints.len()).collect()
    }

    /// Mean checkpoint flush duration across ranks, skipping each rank's
    /// first `skip` checkpoints (the paper skips the full first one).
    pub fn mean_checkpoint_secs(&self, skip: usize) -> f64 {
        let durations: Vec<f64> = self
            .ranks
            .iter()
            .flat_map(|r| r.checkpoints.iter().skip(skip))
            .map(|(s, e)| (*e - *s) as f64 / 1e9)
            .collect();
        if durations.is_empty() {
            return 0.0;
        }
        durations.iter().sum::<f64>() / durations.len() as f64
    }

    /// Mean per-checkpoint WAIT count per rank over epochs `>= skip`.
    pub fn mean_wait_pages(&self, skip: usize) -> f64 {
        self.mean_epoch(skip, |e| e.wait)
    }

    /// Mean per-checkpoint AVOIDED count per rank over epochs `>= skip`.
    pub fn mean_avoided_pages(&self, skip: usize) -> f64 {
        self.mean_epoch(skip, |e| e.avoided)
    }

    /// Mean per-checkpoint COW count per rank over epochs `>= skip`.
    pub fn mean_cow_pages(&self, skip: usize) -> f64 {
        self.mean_epoch(skip, |e| e.cow)
    }

    fn mean_epoch(&self, skip: usize, f: impl Fn(&EpochStats) -> u64) -> f64 {
        let vals: Vec<u64> = self
            .ranks
            .iter()
            .flat_map(|r| r.epochs.iter().filter(|e| e.epoch as usize >= skip.max(1)))
            .map(&f)
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageModel;
    use crate::synthetic::{Pattern, SyntheticApp};

    fn tiny_cfg(strategy: Strategy) -> ClusterConfig {
        ClusterConfig {
            ranks: 2,
            ranks_per_node: 1,
            iterations: 6,
            ckpt_every: 2,
            ckpt_at_end: false,
            strategy,
            committer_streams: 1,
            cow_slots: 2,
            barrier_ns: 1_000,
            fault_ns: 500,
            cow_copy_ns: 200,
            jitter: 0.01,
            async_compute_drag: 1.0,
            seed: 42,
        }
    }

    fn tiny_storage() -> StorageModel {
        StorageModel::local_disk(2)
    }

    fn tiny_app(_r: usize) -> Box<dyn AppModel> {
        Box::new(SyntheticApp::new(
            32,
            4096,
            Pattern::Ascending,
            2_000,
            10_000,
        ))
    }

    #[test]
    fn baseline_runs_to_completion_without_checkpoints() {
        let out = Cluster::new(tiny_cfg(Strategy::None), tiny_storage(), tiny_app).run();
        assert!(out.completion > SimTime::ZERO);
        assert_eq!(out.storage_requests, 0);
        assert!(out.ranks.iter().all(|r| r.checkpoints.is_empty()));
    }

    #[test]
    fn checkpoints_happen_at_the_right_iterations() {
        let out = Cluster::new(tiny_cfg(Strategy::AiCkpt), tiny_storage(), tiny_app).run();
        // 6 iterations, every 2nd => checkpoints after iters 2 and 4 (iter 6
        // is the last, no checkpoint after it).
        for r in &out.ranks {
            assert_eq!(r.checkpoints.len(), 2, "{:?}", r.checkpoints);
        }
        assert_eq!(out.checkpoints_per_rank(), vec![2, 2]);
        // Every dirty page flushed: 32 pages x 2 checkpoints x 2 ranks.
        assert_eq!(out.storage_requests, 32 * 2 * 2);
    }

    #[test]
    fn sync_blocks_so_it_finishes_later_than_async() {
        let base = Cluster::new(tiny_cfg(Strategy::None), tiny_storage(), tiny_app)
            .run()
            .completion;
        let ours = Cluster::new(tiny_cfg(Strategy::AiCkpt), tiny_storage(), tiny_app)
            .run()
            .completion;
        let sync = Cluster::new(tiny_cfg(Strategy::Sync), tiny_storage(), tiny_app)
            .run()
            .completion;
        assert!(ours >= base, "checkpointing cannot speed things up");
        assert!(sync > base);
        // With this tiny workload async should not be slower than sync.
        assert!(ours <= sync, "ours {ours} vs sync {sync}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Cluster::new(tiny_cfg(Strategy::AiCkpt), tiny_storage(), tiny_app).run();
        let b = Cluster::new(tiny_cfg(Strategy::AiCkpt), tiny_storage(), tiny_app).run();
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.storage_requests, b.storage_requests);
        let mut cfg = tiny_cfg(Strategy::AiCkpt);
        cfg.seed = 43;
        let c = Cluster::new(cfg, tiny_storage(), tiny_app).run();
        assert_ne!(a.completion, c.completion, "seed changes jitter");
    }

    #[test]
    fn all_epoch_pages_flushed_exactly_once() {
        let out = Cluster::new(tiny_cfg(Strategy::AsyncNoPattern), tiny_storage(), tiny_app).run();
        for r in &out.ranks {
            // Epoch stats recorded: one per checkpoint + final epoch.
            assert_eq!(r.epochs.len(), 3);
            // Each closed epoch dirtied all 32 pages.
            for e in &r.epochs {
                assert_eq!(e.dirty_pages, 32, "epoch {e:?}");
            }
        }
    }

    #[test]
    fn more_streams_shorten_flushes_on_striped_storage() {
        // 8 striped servers, fixed service cost: one stream serialises the
        // round trips, four streams keep four servers busy.
        let run = |streams: usize| {
            let mut cfg = tiny_cfg(Strategy::AiCkpt);
            cfg.committer_streams = streams;
            cfg.jitter = 0.0;
            let storage = StorageModel::new(
                8,
                crate::storage::ServiceParams::fixed(200_000, 1e9),
                crate::storage::Routing::Striped,
                10_000,
                1.0,
            );
            Cluster::new(cfg, storage, tiny_app).run()
        };
        let s1 = run(1);
        let s4 = run(4);
        assert_eq!(
            s1.storage_requests, s4.storage_requests,
            "same pages flushed regardless of stream count"
        );
        let t1 = s1.mean_checkpoint_secs(0);
        let t4 = s4.mean_checkpoint_secs(0);
        assert!(
            t4 < t1 * 0.6,
            "4 streams must overlap service time: {t4:.6}s vs {t1:.6}s"
        );
    }

    #[test]
    fn slow_storage_produces_interference_stats() {
        let mut cfg = tiny_cfg(Strategy::AiCkpt);
        cfg.cow_slots = 1;
        // Very slow storage: 50 KB/s, so flushing 32 pages takes far longer
        // than an iteration — collisions guaranteed.
        let storage = StorageModel::new(
            1,
            crate::storage::ServiceParams::fixed(100_000, 50.0 * 1024.0),
            crate::storage::Routing::NodeLocal,
            1_000,
            1.0,
        );
        let out = Cluster::new(cfg, storage, tiny_app).run();
        let waits: u64 = out.ranks.iter().map(|r| r.waits).sum();
        let cows: f64 = out.mean_cow_pages(1);
        assert!(
            waits > 0 || cows > 0.0,
            "no interference under pathological storage"
        );
    }
}
