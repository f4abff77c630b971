//! The flush pool: the one place checkpoints are drained, committed and
//! maintained — the paper's `ASYNC_COMMIT` module (Algorithm 3), widened to
//! N workers and any number of page managers.
//!
//! Every [`PageManager`] is a *tenant* of exactly one [`FlushPool`].
//! [`PageManager::new`] builds a private pool of
//! `CkptConfig::committer_streams` workers and attaches as its only tenant;
//! a multi-tenant service or a rank group builds one pool and calls
//! [`FlushPool::attach`] once per manager, so its thread count
//! (`workers + 1`) is independent of how many managers it hosts. A manager
//! owns no threads of its own.
//!
//! # Flush workers
//!
//! There is no coordinator thread. The workers self-organise over one
//! shared schedule with a fixed priority:
//!
//! 1. **Finalise** a drained flush (commit or abort its epoch, wake the
//!    tenant's `wait_checkpoint` callers). Exactly-once by construction:
//!    the finalising worker removes the flush from the active list under
//!    the schedule lock.
//! 2. **Open** a queued checkpoint (`begin_epoch` may block on a tiered
//!    backend's backpressure, so it runs outside the schedule lock).
//! 3. **Claim** a batch from an active flush, round-robin across flushes,
//!    skipping tenants whose [`TenantHook::may_claim`] says "not now".
//!    Claims for different tenants interleave freely, so a large
//!    checkpoint does not head-of-line-block a small one.
//!
//! A worker with nothing to do parks on a condition variable. A checkpoint
//! completes either inside a claim (the claiming worker sees it and
//! finalises on its next pass) or when a
//! [`ProtectedBuffer`](crate::ProtectedBuffer) drop discards its last
//! pending page, which notifies the pool. The only timed wait is the re-poll
//! while some tenant's hook is refusing claims: a bandwidth debt expires on
//! the clock, not on a notification.
//!
//! # Maintenance worker
//!
//! One low-priority worker serves every tenant. Each finalised epoch (and
//! each [`PageManager::wait_maintenance_idle`] call) marks its tenant due
//! and kicks the worker; a cycle first drains tier backlogs in the pool's
//! [`DrainQueue`] order (committed epochs queue with their byte cost, so a
//! shared pool shares drain bandwidth fairly; over one tenant it is plain
//! FIFO), then for every due tenant
//! settles what is left of its backlog, folds its chain if its
//! [`CompactionPolicy`] fires and advances its integrity scrub one paced
//! step. Errors are counted and retried after a backoff, never fatal: a
//! failed fold leaves the (longer) chain fully restorable. An upkeep
//! drains only when `drain_backlog`, a counter, reports work, so a tenant
//! with no backlog, no fold policy and no background scrub (a group's
//! ranks) makes no backend call however often the worker wakes.
//!
//! Everything here is mechanism. Policy — quotas, bandwidth limits, which
//! tenants exist — enters through [`TenantHook`].

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ai_ckpt_core::DrainQueue;
use ai_ckpt_storage::{RetryPolicy, Scrubber, StorageBackend};

use crate::config::{CkptConfig, CompactionPolicy};
use crate::manager::{
    complete_checkpoint, finalize_flush, flush_one_batch, BatchClaim, ClaimScratch, Ctl, FlushJob,
    PageManager,
};
use crate::stats::{MaintenanceStats, RuntimeStats, StreamStats};

/// Re-poll period while a tenant's hook refuses claims (bandwidth debts
/// expire on the clock). Not used on any completion path.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Backoff after a failed maintenance cycle before retrying it.
const MAINT_RETRY: Duration = Duration::from_millis(50);

/// Re-check period while a detaching tenant is still held by a pool thread.
const DETACH_POLL: Duration = Duration::from_micros(100);

/// The error every checkpoint gets once the pool stopped accepting work.
const SHUT_DOWN: &str = "flush pool is shut down";

/// Per-tenant policy consulted by the pool. Every method defaults to
/// "yes"/no-op, so `()` is the hook of an unrestricted tenant.
pub trait TenantHook: Send + Sync {
    /// Admission control, called by `CHECKPOINT` before any engine or
    /// protection state changes: an `Err` rejects the checkpoint as a clean
    /// no-op (the dirty set is preserved).
    fn admit(&self) -> io::Result<()> {
        Ok(())
    }

    /// May a worker claim a batch of this tenant's flush right now? `false`
    /// only delays the flush; the pool re-asks on a short timer.
    fn may_claim(&self) -> bool {
        true
    }

    /// A claim wrote `claim_bytes`; the open epoch has written
    /// `epoch_pages`/`epoch_bytes` so far (clean-dirty skips excluded). An
    /// `Err` fails the epoch: the rest of it drains without writing and it
    /// aborts at finalise time with this message.
    fn on_claim(&self, claim_bytes: u64, epoch_pages: u64, epoch_bytes: u64) -> Result<(), String> {
        let _ = (claim_bytes, epoch_pages, epoch_bytes);
        Ok(())
    }

    /// The epoch was finalised with `result`, having written `pages`/`bytes`
    /// (durable only when `result` is `Ok`). Runs before the tenant's
    /// `wait_checkpoint` callers wake.
    fn on_commit(&self, result: &io::Result<()>, pages: u64, bytes: u64) {
        let _ = (result, pages, bytes);
    }
}

impl TenantHook for () {}

/// Work counters of one worker slot on behalf of one tenant (bumped by the
/// worker, snapshot by [`Tenant::stats`]).
#[derive(Default)]
struct StreamCounters {
    pages: AtomicU64,
    bytes: AtomicU64,
    batches: AtomicU64,
}

/// Everything the pool holds for one attached manager.
pub(crate) struct Tenant {
    pub(crate) id: u64,
    pub(crate) ctl: Arc<Ctl>,
    pub(crate) backend: Arc<dyn StorageBackend>,
    /// The integrity scrubber restores consult for quarantine; the
    /// maintenance worker paces it one cycle per finalised epoch.
    pub(crate) scrubber: Arc<Scrubber>,
    hook: Arc<dyn TenantHook>,
    batch_pages: usize,
    retry: RetryPolicy,
    /// Disarmed (set to `DISABLED`) once the backend reports compaction as
    /// unsupported.
    compaction: Mutex<CompactionPolicy>,
    /// One entry per worker slot, counting this tenant's work only.
    streams: Box<[StreamCounters]>,
    maint: Mutex<MaintenanceStats>,
    /// Set by every kick; the maintenance cycle that clears it runs this
    /// tenant's compaction and scrub step.
    maint_due: AtomicBool,
}

impl Tenant {
    /// Snapshot of the tenant's runtime metrics.
    pub(crate) fn stats(&self) -> RuntimeStats {
        let (pages_skipped_clean, bytes_skipped) =
            self.ctl.filter.as_ref().map_or((0, 0), |f| f.skipped());
        // O(1) under the records lock: clone the Arc, materialise outside.
        let records = Arc::clone(&self.ctl.stats.lock());
        RuntimeStats {
            pages_skipped_clean,
            bytes_skipped,
            checkpoints: (*records).clone(),
            write_stall: self.ctl.shared.stall.snapshot(),
            engine_lock_acquisitions: self.ctl.shared.engine_locks.load(Ordering::Relaxed),
            live_epoch: self.ctl.shared.engine().current_stats(),
            streams: self
                .streams
                .iter()
                .enumerate()
                .map(|(stream, c)| StreamStats {
                    stream,
                    pages: c.pages.load(Ordering::Relaxed),
                    bytes: c.bytes.load(Ordering::Relaxed),
                    batches: c.batches.load(Ordering::Relaxed),
                })
                .collect(),
            maintenance: *self.maint.lock(),
            io: self.backend.io_stats(),
            integrity: self.scrubber.stats(),
        }
    }

    /// This tenant's share of a maintenance cycle: settle the tier backlog,
    /// fold the chain if the policy says so, then advance the integrity
    /// scrub by one paced step. Transient storage faults on each step retry
    /// with bounded backoff (`CkptConfig::retry`) before counting as a
    /// failure; corrupt findings never surface here — the scrubber repairs
    /// or quarantines them internally. With no backlog, no fold policy and
    /// the scrub disabled it makes no backend call, so where the worker's
    /// cycles land in time never shows in what the backend sees.
    fn upkeep(&self) -> io::Result<()> {
        let backend = self.backend.as_ref();
        // Tier drain first: it shortens the fast tier, and compaction works
        // on the durable chain below. The fair queue has usually drained
        // everything already; this catches what it never saw (cascaded
        // level copies, rebuilds queued by a healed level). Every
        // `drain_one` answers `None` exactly when `drain_backlog` is 0, so
        // asking the counter first skips only the call that would find
        // nothing.
        if backend.drain_backlog() > 0 {
            while self.retry.run(|| backend.drain_one())?.is_some() {
                self.maint.lock().epochs_drained += 1;
            }
        }
        let policy = *self.compaction.lock();
        let folded = compact_chain_if_due(backend, policy);
        if let Ok(Some(c)) = &folded {
            let mut m = self.maint.lock();
            m.compactions += 1;
            m.segments_removed += c.segments_removed;
            m.bytes_reclaimed += c.bytes_reclaimed();
            m.bytes_compacted += c.bytes_after;
        }
        // Scrub last, even after a failed fold (the longer chain is still
        // live and still deserves verification): verify the chain this
        // cycle just settled rather than segments about to be superseded.
        let scrubbed = self.retry.run(|| self.scrubber.cycle(backend));
        folded?;
        scrubbed?;
        Ok(())
    }
}

/// Fold the committed chain into one full segment when `policy` fires.
/// Returns the compaction's stats when one ran, `None` when the policy is
/// satisfied already.
fn compact_chain_if_due(
    backend: &dyn StorageBackend,
    policy: CompactionPolicy,
) -> io::Result<Option<ai_ckpt_storage::CompactionStats>> {
    if policy.is_disabled() {
        return Ok(None);
    }
    let chain = backend.chain()?;
    match chain.last() {
        Some(head) if policy.is_due(&chain) => Ok(Some(backend.compact(head.epoch)?)),
        _ => Ok(None),
    }
}

/// A begun checkpoint handed to the pool: the engine holds a scheduled
/// dirty set, every region is re-protected, and the application may already
/// be running (async mode) — someone must drain this, successfully or not,
/// or MustWait writers block forever.
struct Request {
    tenant: Arc<Tenant>,
    /// The absolute epoch number being committed.
    seq: u64,
    started: Instant,
    layout: Vec<u8>,
}

/// A checkpoint whose epoch session is open and draining.
struct Flush {
    req: Request,
    job: FlushJob,
    /// No further claim can succeed (a claim came back empty); only the
    /// job's `drained` flag matters now.
    quiescent: AtomicBool,
}

/// The worker-shared schedule.
#[derive(Default)]
struct Sched {
    queue: VecDeque<Request>,
    active: Vec<Arc<Flush>>,
    /// Round-robin cursor over `active` for claim fairness.
    cursor: usize,
    shutdown: bool,
}

/// What a worker decided to do while holding the schedule lock; executed
/// after dropping it.
enum Work {
    Finalize(Arc<Flush>),
    Open(Request),
    Claim(Arc<Flush>),
}

/// Maintenance-worker shared state.
struct MaintState {
    queue: DrainQueue,
    /// Bumped per kick; the worker runs until it has served them all.
    kicks: u64,
    /// Highest kick value a *completed* cycle had observed when it started
    /// (a barrier waits for this to catch its own kick up, so a cycle
    /// already in flight cannot satisfy it).
    served: u64,
    shutdown: bool,
}

/// The pool state shared by its threads, its managers and (through
/// [`Ctl`]) their protected buffers.
pub(crate) struct PoolInner {
    workers: usize,
    tenants: Mutex<BTreeMap<u64, Arc<Tenant>>>,
    next_id: AtomicU64,
    sched: Mutex<Sched>,
    /// Workers wait here for queue/active/shutdown changes.
    work: Condvar,
    maint: Mutex<MaintState>,
    maint_wake: Condvar,
    maint_done: Condvar,
}

impl PoolInner {
    /// Worker step 1–3 selection. Returns `None` to shut the worker down.
    fn next_work(&self) -> Option<Work> {
        let mut sched = self.sched.lock();
        loop {
            // 1. Finalise a drained flush. Removing it under the lock makes
            // finalisation exactly-once.
            let drained = |f: &Arc<Flush>| f.job.drained.load(Ordering::Acquire);
            if let Some(i) = sched.active.iter().position(drained) {
                let flush = sched.active.remove(i);
                if sched.cursor > i {
                    sched.cursor -= 1;
                }
                if sched.shutdown {
                    // The schedule shrank: parked workers re-check for exit.
                    self.work.notify_all();
                }
                return Some(Work::Finalize(flush));
            }
            // 2. Open a queued checkpoint.
            if let Some(req) = sched.queue.pop_front() {
                return Some(Work::Open(req));
            }
            // 3. Claim round-robin over active flushes.
            let n = sched.active.len();
            let mut refused = false;
            let picked = (0..n).map(|k| (sched.cursor + k) % n).find(|&i| {
                let f = &sched.active[i];
                if f.quiescent.load(Ordering::Relaxed) {
                    return false;
                }
                let may = f.req.tenant.hook.may_claim();
                refused |= !may;
                may
            });
            if let Some(i) = picked {
                sched.cursor = (i + 1) % n;
                return Some(Work::Claim(Arc::clone(&sched.active[i])));
            }
            // 4. Nothing to do (the queue is empty here).
            if sched.shutdown && sched.active.is_empty() {
                return None;
            }
            if refused {
                self.work.wait_for(&mut sched, IDLE_POLL);
            } else {
                // Every wake-up source changes the schedule under its lock
                // and notifies: submit, open, shutdown (and a finalise
                // during it) and `checkpoint_drained`. A worker whose own
                // claim drained a flush, or that opened one already over,
                // finds it at step 1 on its next pass.
                self.work.wait(&mut sched);
            }
        }
    }

    /// `ASYNC_COMMIT` (Algorithm 3), one worker of it.
    fn worker_loop(&self, slot: usize) {
        // Pool allocations (backend buffers, error strings) must never be
        // routed into protected regions by the transparent-tracking
        // allocator: the hooks take the page-manager lock, which can
        // deadlock against an application thread waiting for this thread.
        ai_ckpt_mem::alloc::exempt_thread_from_tracking(true);
        let mut scratch = ClaimScratch::default();
        while let Some(work) = self.next_work() {
            match work {
                Work::Finalize(flush) => self.finalize(flush),
                Work::Open(req) => {
                    // A failed open is not an error here: the flush becomes
                    // drain-only and the failure surfaces at finalise.
                    let job = FlushJob::open(req.tenant.backend.as_ref(), req.seq, self.workers);
                    let flush = Arc::new(Flush {
                        req,
                        job,
                        quiescent: AtomicBool::new(false),
                    });
                    self.sched.lock().active.push(Arc::clone(&flush));
                    // A buffer drop may have ended the checkpoint while it
                    // was queued or opening: its notice found no flush.
                    // Checked after the push, so one of the two sees it.
                    if !flush.req.tenant.ctl.shared.engine().checkpoint_active() {
                        flush.job.drained.store(true, Ordering::Release);
                    }
                    drop(flush);
                    self.work.notify_all();
                }
                Work::Claim(flush) => {
                    let t = &flush.req.tenant;
                    match flush_one_batch(&t.ctl, &flush.job, slot, t.batch_pages, &mut scratch) {
                        BatchClaim::Empty | BatchClaim::Drained => {
                            flush.quiescent.store(true, Ordering::Relaxed);
                        }
                        BatchClaim::Flushed {
                            batches,
                            pages,
                            bytes,
                            drained,
                        } => {
                            let c = &t.streams[slot];
                            c.batches.fetch_add(batches, Ordering::Relaxed);
                            c.pages.fetch_add(pages, Ordering::Relaxed);
                            c.bytes.fetch_add(bytes, Ordering::Relaxed);
                            if drained {
                                flush.quiescent.store(true, Ordering::Relaxed);
                            }
                            let (wp, wb) = flush.job.written();
                            if let Err(msg) = t.hook.on_claim(bytes, wp, wb) {
                                flush.job.fail(&msg);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Commit or abort a drained flush, publish the verdict to its manager
    /// and hand the epoch to maintenance.
    fn finalize(&self, mut flush: Arc<Flush>) {
        // Sole ownership first: a worker whose claim raced the completion
        // may hold a handle for a few more instructions (its pages are
        // done; only bookkeeping is left). The epoch session must be gone
        // before the manager may begin the next epoch — a failed `finish`
        // is only aborted by the session's drop.
        let Flush { req, job, .. } = loop {
            match Arc::try_unwrap(flush) {
                Ok(f) => break f,
                Err(shared) => {
                    flush = shared;
                    std::thread::yield_now();
                }
            }
        };
        let t = &req.tenant;
        let result = finalize_flush(&t.ctl, &job, &req.layout);
        let (pages, bytes) = job.written();
        drop(job);
        t.hook.on_commit(&result, pages, bytes);
        complete_checkpoint(&t.ctl, req.seq, req.started, &result, true);
        // Queue the committed epoch for the fair tier drain, weighted by
        // what it wrote (backends without a tier never show a backlog).
        if result.is_ok() && t.backend.drain_backlog() > 0 {
            self.maint.lock().queue.push(t.id, req.seq, bytes.max(1));
        }
        // A new epoch may have pushed the chain past the compaction
        // policy's bound, and the scrubber is paced per checkpoint.
        self.kick(t);
    }

    /// Mark `t` due for maintenance and wake the worker. Returns the kick
    /// number a completed cycle must have observed to have served it.
    fn kick(&self, t: &Tenant) -> u64 {
        t.maint_due.store(true, Ordering::Release);
        let mut m = self.maint.lock();
        m.kicks += 1;
        self.maint_wake.notify_all();
        m.kicks
    }

    /// One maintenance cycle: drain the fair queue dry, then run every due
    /// tenant's [`Tenant::upkeep`]. Returns true when something failed and
    /// was left for a retry (on the `last_call` before shutdown, failed
    /// work is given up instead).
    fn maintenance_cycle(&self, last_call: bool) -> bool {
        let mut failed = false;
        loop {
            let Some(item) = self.maint.lock().queue.pop() else {
                break;
            };
            let Some(t) = self.tenants.lock().get(&item.tenant).cloned() else {
                continue; // detached while queued
            };
            match t.retry.run(|| t.backend.drain_one()) {
                Ok(Some(_)) => t.maint.lock().epochs_drained += 1,
                // Already drained (by the tenant's own upkeep): nothing owed.
                Ok(None) => {}
                Err(_) => {
                    t.maint.lock().failures += 1;
                    failed = true;
                    if !last_call {
                        // Put it back and stop: hot-looping on a failing
                        // backend helps nobody; retry after the backoff.
                        let mut m = self.maint.lock();
                        m.queue.push(item.tenant, item.item, item.cost);
                    }
                    break;
                }
            }
        }
        let due: Vec<Arc<Tenant>> = self
            .tenants
            .lock()
            .values()
            .filter(|t| t.maint_due.swap(false, Ordering::AcqRel))
            .cloned()
            .collect();
        for t in due {
            let Err(e) = t.upkeep() else { continue };
            t.maint.lock().failures += 1;
            if e.kind() == io::ErrorKind::Unsupported {
                *t.compaction.lock() = CompactionPolicy::DISABLED;
            } else {
                failed = true;
                if !last_call {
                    // Re-run this tenant's upkeep even if no new checkpoint
                    // ever arrives.
                    t.maint_due.store(true, Ordering::Release);
                    self.maint.lock().kicks += 1;
                }
            }
        }
        failed
    }

    /// The low-priority maintenance worker: never blocks an active
    /// checkpoint (compaction only touches *committed* epochs; an open epoch
    /// session is invisible to `chain()` until its `finish`). On shutdown it
    /// finishes the outstanding kicks and queued drains first.
    fn maintenance_loop(&self) {
        ai_ckpt_mem::alloc::exempt_thread_from_tracking(true);
        loop {
            let (target, last_call) = {
                let mut m = self.maint.lock();
                while m.kicks == m.served && m.queue.is_empty() {
                    if m.shutdown {
                        return;
                    }
                    self.maint_wake.wait(&mut m);
                }
                (m.kicks, m.shutdown)
            };
            let failed = self.maintenance_cycle(last_call);
            let mut m = self.maint.lock();
            m.served = m.served.max(target);
            self.maint_done.notify_all();
            if failed && !m.shutdown {
                // A kick or shutdown cuts the backoff short.
                self.maint_wake.wait_for(&mut m, MAINT_RETRY);
            }
        }
    }

    /// Admission control for `t`'s next checkpoint.
    pub(crate) fn admit(&self, t: &Tenant) -> io::Result<()> {
        if self.sched.lock().shutdown {
            return Err(io::Error::other(SHUT_DOWN));
        }
        t.hook.admit()
    }

    /// Take ownership of a begun checkpoint. On `Err` the request has
    /// already been resolved here (engine drained, busy cleared, record
    /// stamped failed) — the caller only propagates the error.
    pub(crate) fn submit(
        &self,
        tenant: Arc<Tenant>,
        seq: u64,
        started: Instant,
        layout: Vec<u8>,
    ) -> io::Result<()> {
        let req = Request {
            tenant,
            seq,
            started,
            layout,
        };
        {
            let mut sched = self.sched.lock();
            if !sched.shutdown {
                sched.queue.push_back(req);
                drop(sched);
                // One worker opens the epoch; it wakes the rest to claim.
                self.work.notify_one();
                return Ok(());
            }
        }
        // Shut down between admit and submit: refuse the flush without
        // touching storage. Drain the engine on this thread so page states
        // settle and blocked writers wake — a drain-only job (no writer,
        // pre-failed) over a dirty set nobody else claims.
        let t = &req.tenant;
        let job = FlushJob::new(None, Some(io::Error::other(SHUT_DOWN)), 1);
        let mut scratch = ClaimScratch::default();
        loop {
            match flush_one_batch(&t.ctl, &job, 0, t.batch_pages, &mut scratch) {
                BatchClaim::Drained => break,
                BatchClaim::Empty => std::thread::yield_now(),
                BatchClaim::Flushed { .. } => {}
            }
        }
        let result = Err(io::Error::other(SHUT_DOWN));
        t.hook.on_commit(&result, 0, 0);
        // Returned synchronously, so not parked for later surfacing.
        complete_checkpoint(&t.ctl, req.seq, req.started, &result, false);
        result
    }

    /// A buffer drop discarded the last pending page of one of `tenant`'s
    /// checkpoints: possibly no claim will ever observe that completion, so
    /// flag the flush drained here and wake a worker to finalise it.
    ///
    /// The notify runs after the drop released the engine lock, so by now a
    /// worker's claim may have seen the completion, finalised that epoch,
    /// and the tenant's *next* checkpoint may be the active flush. Hence the
    /// re-check: a tenant has at most one flush, and it is over exactly when
    /// the engine says no checkpoint is active. (A checkpoint still queued
    /// or mid-open has no flush yet; the worker opening it checks the same
    /// condition.)
    pub(crate) fn checkpoint_drained(&self, tenant: u64) {
        let sched = self.sched.lock();
        if let Some(f) = sched.active.iter().find(|f| f.req.tenant.id == tenant) {
            if !f.req.tenant.ctl.shared.engine().checkpoint_active() {
                f.job.drained.store(true, Ordering::Release);
                self.work.notify_one();
            }
        }
    }

    /// Block until a maintenance cycle that started after this call has
    /// completed for `t`.
    pub(crate) fn maintenance_barrier(&self, t: &Tenant) {
        let target = self.kick(t);
        let mut m = self.maint.lock();
        while m.served < target && !m.shutdown {
            self.maint_done.wait(&mut m);
        }
    }

    /// The manager is dropping; forget the tenant and its queued drains,
    /// then wait until no pool thread holds it any more: a maintenance
    /// cycle or a finaliser may have taken a handle before the removal, and
    /// the tenant's backend must not outlive its manager. Other tenants'
    /// work is never waited for.
    pub(crate) fn detach(&self, tenant: &Arc<Tenant>) {
        self.tenants.lock().remove(&tenant.id);
        self.maint.lock().queue.remove_tenant(tenant.id);
        while Arc::strong_count(tenant) > 1 {
            std::thread::sleep(DETACH_POLL);
        }
    }
}

#[derive(Default)]
struct Threads {
    workers: Vec<JoinHandle<()>>,
    maint: Option<JoinHandle<()>>,
}

/// A pool of flush workers plus one maintenance worker, serving every
/// [`PageManager`] attached to it. See the [module docs](self).
pub struct FlushPool {
    pub(crate) inner: Arc<PoolInner>,
    threads: Mutex<Threads>,
}

impl FlushPool {
    /// Spawn `workers` flush workers (at least one) and the maintenance
    /// worker. No further threads are ever created, however many managers
    /// attach.
    pub fn new(workers: usize) -> io::Result<Arc<Self>> {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            workers,
            tenants: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            sched: Mutex::new(Sched::default()),
            work: Condvar::new(),
            maint: Mutex::new(MaintState {
                queue: DrainQueue::new(),
                kicks: 0,
                served: 0,
                shutdown: false,
            }),
            maint_wake: Condvar::new(),
            maint_done: Condvar::new(),
        });
        // Built before the first spawn so that a failed spawn drops it,
        // which releases and joins the threads already started.
        let pool = Arc::new(Self {
            inner,
            threads: Mutex::new(Threads::default()),
        });
        for slot in 0..workers {
            let inner = Arc::clone(&pool.inner);
            let handle = std::thread::Builder::new()
                .name(format!("ai-ckpt-flush-{slot}"))
                .spawn(move || inner.worker_loop(slot))?;
            pool.threads.lock().workers.push(handle);
        }
        let inner = Arc::clone(&pool.inner);
        let handle = std::thread::Builder::new()
            .name("ai-ckpt-maintenance".into())
            .spawn(move || inner.maintenance_loop())?;
        pool.threads.lock().maint = Some(handle);
        Ok(pool)
    }

    /// Build a [`PageManager`] over `backend` whose checkpoints this pool
    /// drains and maintains, governed by `hook` (`Arc::new(())` for none).
    /// The manager has the full API — allocate, checkpoint, restore, stats
    /// — and detaches when dropped, after its last checkpoint settles.
    pub fn attach(
        self: &Arc<Self>,
        cfg: CkptConfig,
        backend: Arc<dyn StorageBackend>,
        hook: Arc<dyn TenantHook>,
    ) -> io::Result<PageManager> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (ctl, epoch_base) = PageManager::build_ctl(&cfg, &backend, &self.inner, id)?;
        let mut maint = MaintenanceStats::default();
        let mut compaction = cfg.compaction;
        if !compaction.is_disabled() && !backend.supports_compaction() {
            // Record the impossible policy once and disarm it.
            maint.failures = 1;
            compaction = CompactionPolicy::DISABLED;
        }
        let tenant = Arc::new(Tenant {
            id,
            ctl,
            scrubber: Arc::new(Scrubber::new(cfg.scrub)),
            hook,
            batch_pages: cfg.flush_batch_pages.max(1),
            retry: cfg.retry,
            compaction: Mutex::new(compaction),
            streams: (0..self.inner.workers)
                .map(|_| StreamCounters::default())
                .collect(),
            maint: Mutex::new(maint),
            maint_due: AtomicBool::new(false),
            backend,
        });
        self.inner.tenants.lock().insert(id, Arc::clone(&tenant));
        if tenant.backend.drain_backlog() > 0 {
            // Backlog inherited from a previous process.
            self.inner.kick(&tenant);
        }
        Ok(PageManager::on_pool(
            Arc::clone(self),
            tenant,
            cfg,
            epoch_base,
        ))
    }

    /// The number of flush workers (constant for the pool's lifetime).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// [`PageManager::stats`] of the attached manager `tenant`, without
    /// holding the manager itself (which the application owns).
    pub fn tenant_stats(&self, tenant: u64) -> Option<RuntimeStats> {
        let t = self.inner.tenants.lock().get(&tenant).cloned()?;
        Some(t.stats())
    }

    /// `(queued, active)`: checkpoints waiting for a worker to open them,
    /// and flushes being drained right now.
    pub fn depths(&self) -> (usize, usize) {
        let sched = self.inner.sched.lock();
        (sched.queue.len(), sched.active.len())
    }

    /// Stop accepting checkpoints, drain every queued and active flush to
    /// completion, finish outstanding maintenance and join all threads.
    /// Runs on drop; explicit calls are idempotent. Attached managers stay
    /// usable for restores; their `checkpoint()` calls fail cleanly.
    pub fn shutdown(&self) {
        let Threads { workers, maint } = std::mem::take(&mut *self.threads.lock());
        self.inner.sched.lock().shutdown = true;
        self.inner.work.notify_all();
        for w in workers {
            let _ = w.join();
        }
        self.inner.maint.lock().shutdown = true;
        self.inner.maint_wake.notify_all();
        self.inner.maint_done.notify_all();
        if let Some(m) = maint {
            let _ = m.join();
        }
    }
}

impl Drop for FlushPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
