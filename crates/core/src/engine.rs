//! The checkpoint engine: a deterministic implementation of the paper's
//! Algorithms 1–4, shared by the threaded mprotect runtime and the
//! discrete-event simulator.
//!
//! The engine is a passive state machine. Front-ends drive it through four
//! entry points and supply the actual mechanics (memory protection, storage
//! I/O, blocking, time):
//!
//! * [`EpochEngine::begin_checkpoint`] — Algorithm 1 (`CHECKPOINT`): close
//!   the epoch, snapshot its records into history, schedule the dirty set
//!   and build the flush plan.
//! * [`EpochEngine::on_write`] — Algorithm 2 (`PROTECTED_PAGE_HANDLER`):
//!   classify a first write and decide between proceed / copy-on-write /
//!   wait.
//! * [`EpochEngine::select_next`] — Algorithm 4 (`SELECT_NEXT_PAGE`): pick
//!   the next page to commit, honouring the `WaitedPage` hint and the
//!   current-epoch CoW preference when dynamic hints are enabled.
//! * [`EpochEngine::complete_flush`] — Algorithm 3's post-commit bookkeeping
//!   (release slots, mark `PAGE_PROCESSED`, detect checkpoint completion).
//!
//! Everything reachable from [`EpochEngine::on_write`],
//! [`EpochEngine::complete_wait`] and [`EpochEngine::complete_flush`] is
//! allocation-free, so the threaded runtime may call them from a SIGSEGV
//! handler while holding a [`SpinLock`](crate::spin::SpinLock).
//! [`EpochEngine::begin_checkpoint`] allocates (plan building) and must be
//! called from normal context — which matches the paper, where `CHECKPOINT`
//! is an explicit application-level call.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::config::EngineConfig;
use crate::history::EpochHistory;
use crate::page::{AccessType, FlushItem, FlushSource, PageId, PageState, StateTable, NO_SLOT};
use crate::schedule::FlushPlan;
use crate::stats::{CheckpointPlanInfo, EpochStats};
use crate::{CowSlab, CowSlotStore};

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `begin_checkpoint` while the previous checkpoint is still flushing.
    /// The paper's `CHECKPOINT` waits for completion instead; front-ends
    /// implement that wait and then retry.
    CheckpointInProgress,
    /// The configuration failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::CheckpointInProgress => {
                write!(f, "a checkpoint is still in progress")
            }
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// What the fault handler must do after reporting a first write
/// (Algorithm 2's three-way branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write may proceed immediately; the access was recorded as
    /// `AVOIDED` or `AFTER`.
    Proceed,
    /// A copy-on-write slot was reserved. The caller must copy the page's
    /// *pre-write* content into the slot **before** making the page
    /// writable to anyone (the threaded runtime does the copy while still
    /// holding the engine lock), then proceed. Recorded as `COW`.
    CopyToSlot(u32),
    /// No slot was available or the page is being flushed right now. The
    /// caller must block until
    /// [`StateTable::is_processed`] for this page, then call
    /// [`EpochEngine::complete_wait`], then proceed. The page was published
    /// as the `WaitedPage` hint.
    MustWait,
    /// A racing thread already handled this page this epoch; proceed without
    /// further bookkeeping.
    AlreadyHandled,
}

/// The paper's page manager core (see module docs).
#[derive(Debug)]
pub struct EpochEngine {
    cfg: EngineConfig,
    /// Shared page-state table; waiters poll it lock-free.
    states: Arc<StateTable>,
    history: EpochHistory,
    /// `CowPage` slot assignment: page -> slot or `NO_SLOT`.
    cow_slot_of: Box<[u32]>,
    slab: CowSlab,
    /// Pages that took a CoW slot in the *current* epoch, FIFO; preferred by
    /// `select_next` to recycle slots quickly (§3.1: "we still prefer pages
    /// that triggered copy-on-write, as this keeps the buffer free for dark
    /// times").
    cow_now: VecDeque<PageId>,
    /// The `WaitedPage` hint (single cell, as in the paper).
    waited: Option<PageId>,
    plan: FlushPlan,
    /// Reusable page-id buffer for [`EpochEngine::select_batch`] claims.
    batch_scratch: Vec<PageId>,
    /// Pages of the active checkpoint not yet committed.
    pending: usize,
    /// `CheckpointInProgress`.
    ckpt_active: bool,
    /// Number of `begin_checkpoint` calls served.
    checkpoint_seq: u64,
    current_stats: EpochStats,
}

impl EpochEngine {
    /// Build an engine for a fixed page set.
    pub fn new(cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate().map_err(EngineError::InvalidConfig)?;
        let states = Arc::new(StateTable::new(cfg.pages));
        let slab = CowSlab::new(cfg.cow_slots, cfg.page_bytes, cfg.cow_data);
        let mut cow_now = VecDeque::new();
        cow_now.reserve_exact(cfg.cow_slots as usize + 1);
        Ok(Self {
            history: EpochHistory::new(cfg.pages),
            cow_slot_of: vec![NO_SLOT; cfg.pages].into_boxed_slice(),
            slab,
            cow_now,
            waited: None,
            plan: FlushPlan::empty(),
            batch_scratch: Vec::new(),
            pending: 0,
            ckpt_active: false,
            checkpoint_seq: 0,
            current_stats: EpochStats::default(),
            states,
            cfg,
        })
    }

    /// The engine's configuration.
    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Shared page-state table (clone the `Arc` for lock-free waiting).
    #[inline]
    pub fn states(&self) -> &Arc<StateTable> {
        &self.states
    }

    /// `CheckpointInProgress` flag.
    #[inline]
    pub fn checkpoint_active(&self) -> bool {
        self.ckpt_active
    }

    /// Pages of the active checkpoint still to be committed.
    #[inline]
    pub fn pending_pages(&self) -> usize {
        self.pending
    }

    /// Number of checkpoints requested so far.
    #[inline]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Live statistics of the epoch currently accumulating.
    #[inline]
    pub fn current_stats(&self) -> EpochStats {
        let mut s = self.current_stats;
        s.peak_cow_slots = self.slab.peak_in_use();
        s
    }

    /// Access to the epoch history (tests, introspection).
    #[inline]
    pub fn history(&self) -> &EpochHistory {
        &self.history
    }

    /// Read a CoW slot's bytes (committer side).
    #[inline]
    pub fn slab_slot(&self, slot: u32) -> &[u8] {
        self.slab.slot(slot)
    }

    /// The shared CoW byte store. A committer stream clones this `Arc` once
    /// and then reads *claimed* slots lock-free via
    /// [`CowSlotStore::slot`] — see the slot-ownership rule in
    /// [`crate::cow`]. The engine lock is only needed for slot accounting
    /// (acquire/release), never for payload movement.
    #[inline]
    pub fn slab_store(&self) -> &Arc<CowSlotStore> {
        self.slab.store()
    }

    /// Write a CoW slot's bytes (fault-handler side, after
    /// [`WriteOutcome::CopyToSlot`]).
    #[inline]
    pub fn slab_slot_mut(&mut self, slot: u32) -> &mut [u8] {
        self.slab.slot_mut(slot)
    }

    /// Currently occupied CoW slots.
    #[inline]
    pub fn cow_in_use(&self) -> u32 {
        self.slab.in_use()
    }

    /// Algorithm 1: `CHECKPOINT`. Closes the current epoch, schedules its
    /// dirty set for flushing and prepares the flush plan from the history.
    ///
    /// Returns [`EngineError::CheckpointInProgress`] if the previous
    /// checkpoint has not finished; the caller is responsible for waiting
    /// (the paper's lines 2–4) and retrying.
    pub fn begin_checkpoint(&mut self) -> Result<CheckpointPlanInfo, EngineError> {
        if self.ckpt_active {
            return Err(EngineError::CheckpointInProgress);
        }
        debug_assert_eq!(self.slab.in_use(), 0, "slots leaked across checkpoints");
        debug_assert!(self.cow_now.is_empty());

        // Close the epoch's statistics.
        let mut closed = self.current_stats;
        closed.peak_cow_slots = self.slab.peak_in_use();
        self.checkpoint_seq += 1;
        self.current_stats = EpochStats {
            epoch: self.checkpoint_seq,
            ..EpochStats::default()
        };
        self.slab.reset_peak();
        self.waited = None;

        // Dirty/AT/Index -> LastDirty/LastAT/LastIndex (lines 5-9).
        self.history.roll();

        // Schedule every page of LastDirty (lines 15-17), skipping tombstones
        // left by `discard_page`.
        let last = self.history.last();
        let mut scheduled: u64 = 0;
        for &p in last.dirty() {
            if last.access_type(p) == AccessType::Untouched {
                continue; // discarded page
            }
            self.states.set(p, PageState::Scheduled);
            scheduled += 1;
        }
        self.pending = scheduled as usize;
        self.plan = FlushPlan::build(self.cfg.scheduler, self.history.last());
        // The plan filters the same tombstones the loop above skipped; a
        // divergence would desynchronise `planned()`/`remaining()` from the
        // committer's pending count.
        debug_assert_eq!(
            self.plan.planned() as u64,
            scheduled,
            "flush plan disagrees with the scheduled page count"
        );
        self.ckpt_active = self.pending > 0;

        Ok(CheckpointPlanInfo {
            checkpoint: self.checkpoint_seq,
            scheduled_pages: scheduled,
            scheduled_bytes: scheduled * self.cfg.page_bytes as u64,
            closed_epoch: closed,
        })
    }

    /// Algorithm 2: `PROTECTED_PAGE_HANDLER`. Report the first write to page
    /// `p` this epoch and learn how to proceed. Allocation-free.
    pub fn on_write(&mut self, p: PageId) -> WriteOutcome {
        if self.history.current().access_type(p) != AccessType::Untouched {
            // A racing thread fully handled this page already.
            return WriteOutcome::AlreadyHandled;
        }
        match self.states.get(p) {
            PageState::Processed => {
                // Lines 5-10: nothing to preserve; classify by whether the
                // checkpoint is still running.
                let ty = if self.ckpt_active {
                    AccessType::Avoided
                } else {
                    AccessType::After
                };
                self.record(p, ty);
                WriteOutcome::Proceed
            }
            PageState::Scheduled => {
                if let Some(slot) = self.slab.acquire() {
                    // Lines 2-4: reserve a slot; the caller copies the page
                    // into it, then the write proceeds on the original page.
                    self.states.set(p, PageState::Cowed);
                    self.cow_slot_of[p as usize] = slot;
                    if self.cfg.dynamic_hints {
                        // Only the adaptive strategy consumes this queue;
                        // async-no-pattern reaches CoW'd pages through its
                        // static address order.
                        self.cow_now.push_back(p);
                    }
                    self.record(p, AccessType::Cow);
                    WriteOutcome::CopyToSlot(slot)
                } else {
                    // Lines 11-17: no slots left; wait for this very page.
                    self.waited = Some(p);
                    WriteOutcome::MustWait
                }
            }
            PageState::InProgress => {
                self.waited = Some(p);
                WriteOutcome::MustWait
            }
            PageState::Cowed => {
                // A racing thread performed the copy; content is preserved,
                // the write may proceed (AT was recorded by that thread).
                WriteOutcome::AlreadyHandled
            }
        }
    }

    /// Finish a [`WriteOutcome::MustWait`]: the caller observed
    /// `states().is_processed(p)` and now records the `WAIT` access
    /// (Algorithm 2, lines 16-21). Allocation-free.
    pub fn complete_wait(&mut self, p: PageId) {
        debug_assert!(
            self.states.is_processed(p),
            "complete_wait before page {p} was processed"
        );
        if self.waited == Some(p) {
            self.waited = None;
        }
        self.record(p, AccessType::Wait);
    }

    /// Algorithm 4: `SELECT_NEXT_PAGE`. Pick the next page to commit and
    /// lock it (`PAGE_INPROGRESS`). Returns `None` when nothing is currently
    /// selectable — with a single committer stream that means the checkpoint
    /// is complete; with several streams it can also mean every remaining
    /// page is `PAGE_INPROGRESS` on another stream, so callers must check
    /// [`EpochEngine::checkpoint_active`] before concluding the drain is
    /// done.
    pub fn select_next(&mut self) -> Option<FlushItem> {
        if !self.ckpt_active {
            return None;
        }
        if let Some(item) = self.select_dynamic() {
            return Some(item);
        }
        // Lines 8-17: static history order.
        let states = &self.states;
        let next = self
            .plan
            .next(|p| matches!(states.get(p), PageState::Scheduled | PageState::Cowed));
        next.map(|p| self.take(p))
    }

    /// The dynamic-hint half of Algorithm 4: the `WaitedPage` preempts
    /// everything (lines 2-4), then current-epoch CoW pages are preferred
    /// to free slots early (lines 5-7). `None` when no hint applies (or
    /// hints are disabled).
    fn select_dynamic(&mut self) -> Option<FlushItem> {
        if !self.cfg.dynamic_hints {
            return None;
        }
        if let Some(w) = self.waited {
            match self.states.get(w) {
                PageState::Scheduled | PageState::Cowed => return Some(self.take(w)),
                // InProgress: already being committed; Processed: the
                // waiter will wake up on its own.
                _ => {}
            }
        }
        while let Some(&p) = self.cow_now.front() {
            if self.states.get(p) == PageState::Cowed {
                self.cow_now.pop_front();
                return Some(self.take(p));
            }
            // Already taken through another path; drop the stale entry.
            self.cow_now.pop_front();
        }
        None
    }

    /// Batched [`EpochEngine::select_next`]: claim up to `max` pages under
    /// one lock acquisition, in the same priority order, appending to `out`.
    /// Returns how many were claimed.
    ///
    /// This is what the multi-stream committer calls: each worker stream
    /// takes a run of pages per engine-lock acquisition, performs the
    /// storage I/O outside the lock, then completes them. Dynamic hints
    /// (the `WaitedPage` and current-epoch CoW preferences) head the run,
    /// then the remainder is claimed from the static plan in one
    /// [`FlushPlan::next_batch`](crate::schedule::FlushPlan::next_batch)
    /// call. Hints cannot change mid-claim — they are only set under the
    /// same engine lock the caller holds — and hints raised *after* the
    /// batch was claimed are picked up by the next claim (with one stream
    /// and `max == 1` this degenerates to exactly the paper's Algorithm 4
    /// loop).
    ///
    /// Claimed items' sources are stable until the claiming stream calls
    /// [`EpochEngine::complete_flush`]: memory-sourced pages are
    /// `PAGE_INPROGRESS` (writers block in the fault handler), and a
    /// CoW-sourced item's slot can only be released by completing that very
    /// item — so both may be read after unlocking (the slab via a brief
    /// re-lock for [`EpochEngine::slab_slot`]). Amortised allocation-free
    /// (an internal scratch buffer grows to the largest `max` seen).
    pub fn select_batch(&mut self, max: usize, out: &mut Vec<FlushItem>) -> usize {
        if !self.ckpt_active {
            return 0;
        }
        let mut taken = 0;
        // Dynamic hints head the run...
        while taken < max {
            match self.select_dynamic() {
                Some(item) => {
                    out.push(item);
                    taken += 1;
                }
                None => break,
            }
        }
        // ...then one next_batch claim fills the rest from the static plan.
        // Taking the claimed pages *after* the whole run was popped is
        // sound because a FlushPlan lists every scheduled page exactly once
        // (its documented invariant): the pending-state predicate can never
        // admit the same page twice within one run.
        if taken < max {
            let mut scratch = std::mem::take(&mut self.batch_scratch);
            scratch.clear();
            let states = &self.states;
            self.plan.next_batch(
                max - taken,
                |p| matches!(states.get(p), PageState::Scheduled | PageState::Cowed),
                &mut scratch,
            );
            for &p in &scratch {
                out.push(self.take(p));
            }
            taken += scratch.len();
            self.batch_scratch = scratch;
        }
        taken
    }

    /// Post-commit bookkeeping for a flushed page (Algorithm 3, lines 6-14).
    /// Publishes `PAGE_PROCESSED` and reconciles the engine's counters.
    /// Allocation-free.
    pub fn complete_flush(&mut self, item: FlushItem) {
        debug_assert_eq!(
            self.states.get(item.page),
            PageState::InProgress,
            "complete_flush for a page that was not selected"
        );
        self.states.set(item.page, PageState::Processed);
        self.reconcile_flush(item);
    }

    /// Post-commit bookkeeping for a page whose `PAGE_PROCESSED` state the
    /// caller already published through the shared [`StateTable`] — the
    /// multi-stream runtime's fast wake path: after a sub-batch's storage
    /// I/O completes, the stream stores `Processed` for each page *without
    /// the engine lock* (one atomic store per page, waking `MustWait`
    /// writers immediately), then reconciles the engine's counters for the
    /// whole sub-batch under one lock hold via this method.
    ///
    /// Between the publication and this call the page is `Processed` to
    /// every observer — writers proceed (recorded `AVOIDED`/`AFTER`),
    /// `discard_page` no-ops — while the pending count and any CoW slot are
    /// still owed; both settle here. Allocation-free.
    pub fn complete_published(&mut self, item: FlushItem) {
        debug_assert_eq!(
            self.states.get(item.page),
            PageState::Processed,
            "complete_published before the state was published"
        );
        self.reconcile_flush(item);
    }

    /// Shared tail of [`EpochEngine::complete_flush`] /
    /// [`EpochEngine::complete_published`]: release the CoW slot, count the
    /// flush, detect checkpoint completion.
    fn reconcile_flush(&mut self, item: FlushItem) {
        if let FlushSource::CowSlot(slot) = item.source {
            debug_assert_eq!(self.cow_slot_of[item.page as usize], slot);
            self.slab.release(slot);
            self.cow_slot_of[item.page as usize] = NO_SLOT;
            self.current_stats.flushed_from_cow += 1;
        }
        self.current_stats.flushed_pages += 1;
        self.current_stats.flushed_bytes += self.cfg.page_bytes as u64;
        self.pending -= 1;
        if self.pending == 0 {
            self.ckpt_active = false;
        }
    }

    /// The last checkpoint is known not to have committed (its `finish`
    /// failed, or a coordinator retired its epoch): every page it scheduled
    /// is owed again, so it joins the dirty set of the epoch being built.
    /// A page not rewritten since stays write-protected; recording it here
    /// sends its next fault down the [`WriteOutcome::AlreadyHandled`] path.
    /// Call between checkpoints. Allocation-free.
    pub fn requeue_last(&mut self) {
        debug_assert!(!self.ckpt_active, "requeue_last during a checkpoint");
        for i in 0..self.history.last().dirty_len() {
            let p = self.history.last().dirty()[i];
            if self.history.last().access_type(p) != AccessType::Untouched {
                self.record(p, AccessType::After);
            }
        }
    }

    /// Remove a page from checkpointing entirely (used by `free_protected`:
    /// the owning region is going away, its content no longer matters).
    ///
    /// If the page is `InProgress` the committer still holds it; returns
    /// `false` and the caller must wait for `is_processed` and retry.
    pub fn discard_page(&mut self, p: PageId) -> bool {
        match self.states.get(p) {
            PageState::Scheduled => {
                self.states.set(p, PageState::Processed);
                self.pending -= 1;
                if self.pending == 0 {
                    self.ckpt_active = false;
                }
            }
            PageState::Cowed => {
                let slot = std::mem::replace(&mut self.cow_slot_of[p as usize], NO_SLOT);
                debug_assert_ne!(slot, NO_SLOT);
                self.slab.release(slot);
                self.states.set(p, PageState::Processed);
                self.pending -= 1;
                if self.pending == 0 {
                    self.ckpt_active = false;
                }
            }
            PageState::InProgress => return false,
            PageState::Processed => {}
        }
        // Drop the page from both dirty sets, so neither the *next*
        // checkpoint nor a requeue of this one flushes freed memory.
        self.history.current_mut().unrecord(p);
        self.history.last_mut().unrecord(p);
        if self.waited == Some(p) {
            self.waited = None;
        }
        true
    }

    /// Lock a page for committing and describe where to read it from.
    fn take(&mut self, p: PageId) -> FlushItem {
        let source = match self.states.get(p) {
            PageState::Scheduled => FlushSource::Memory,
            PageState::Cowed => FlushSource::CowSlot(self.cow_slot_of[p as usize]),
            s => unreachable!("take() on page {p} in state {s:?}"),
        };
        self.states.set(p, PageState::InProgress);
        FlushItem { page: p, source }
    }

    /// Record a first write and bump statistics.
    fn record(&mut self, p: PageId, ty: AccessType) {
        if self.history.current_mut().record(p, ty) {
            self.current_stats.bump(ty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SchedulerKind;

    fn engine(pages: usize, cow_slots: u32) -> EpochEngine {
        EpochEngine::new(EngineConfig::adaptive(pages, 64, cow_slots).without_cow_data()).unwrap()
    }

    /// Drain the whole checkpoint, returning the flush order.
    fn drain(e: &mut EpochEngine) -> Vec<PageId> {
        let mut order = Vec::new();
        while let Some(item) = e.select_next() {
            order.push(item.page);
            e.complete_flush(item);
        }
        order
    }

    #[test]
    fn first_checkpoint_flushes_written_pages_only() {
        let mut e = engine(8, 2);
        assert_eq!(e.on_write(3), WriteOutcome::Proceed);
        assert_eq!(e.on_write(1), WriteOutcome::Proceed);
        let info = e.begin_checkpoint().unwrap();
        assert_eq!(info.checkpoint, 1);
        assert_eq!(info.scheduled_pages, 2);
        assert_eq!(
            info.closed_epoch.after, 2,
            "pre-checkpoint writes are AFTER"
        );
        assert!(e.checkpoint_active());
        let order = drain(&mut e);
        assert_eq!(order.len(), 2);
        assert!(!e.checkpoint_active());
    }

    #[test]
    fn empty_checkpoint_completes_immediately() {
        let mut e = engine(4, 0);
        let info = e.begin_checkpoint().unwrap();
        assert_eq!(info.scheduled_pages, 0);
        assert!(!e.checkpoint_active());
        assert!(e.select_next().is_none());
    }

    #[test]
    fn begin_while_active_is_rejected() {
        let mut e = engine(4, 0);
        e.on_write(0);
        e.begin_checkpoint().unwrap();
        assert_eq!(
            e.begin_checkpoint().unwrap_err(),
            EngineError::CheckpointInProgress
        );
        drain(&mut e);
        assert!(e.begin_checkpoint().is_ok());
    }

    #[test]
    fn write_to_scheduled_page_takes_cow_slot() {
        let mut e = engine(4, 1);
        e.on_write(2);
        e.begin_checkpoint().unwrap();
        match e.on_write(2) {
            WriteOutcome::CopyToSlot(slot) => assert_eq!(slot, 0),
            other => panic!("expected CopyToSlot, got {other:?}"),
        }
        assert_eq!(e.cow_in_use(), 1);
        // The CoW'd page is selected first (dynamic hint) and its flush
        // releases the slot.
        let item = e.select_next().unwrap();
        assert_eq!(item.page, 2);
        assert_eq!(item.source, FlushSource::CowSlot(0));
        e.complete_flush(item);
        assert_eq!(e.cow_in_use(), 0);
        assert!(!e.checkpoint_active());
        assert_eq!(e.current_stats().cow, 1);
    }

    #[test]
    fn write_with_exhausted_slab_must_wait_and_is_prioritized() {
        let mut e = engine(8, 0);
        e.on_write(5);
        e.on_write(6);
        e.begin_checkpoint().unwrap();
        assert_eq!(e.on_write(6), WriteOutcome::MustWait);
        // The waited page jumps the queue even though page 5 was accessed
        // earlier last epoch.
        let item = e.select_next().unwrap();
        assert_eq!(item.page, 6);
        assert_eq!(item.source, FlushSource::Memory);
        e.complete_flush(item);
        assert!(e.states().is_processed(6));
        e.complete_wait(6);
        assert_eq!(e.current_stats().wait, 1);
        let rest = drain(&mut e);
        assert_eq!(rest, vec![5]);
    }

    #[test]
    fn avoided_and_after_classification() {
        let mut e = engine(4, 0);
        e.on_write(0);
        e.on_write(1);
        e.begin_checkpoint().unwrap();
        // Flush page 0 only; then a write to it is AVOIDED (ckpt active).
        let item = e.select_next().unwrap();
        let first = item.page;
        e.complete_flush(item);
        assert_eq!(e.on_write(first), WriteOutcome::Proceed);
        // Finish the checkpoint; a write to a fresh page is AFTER.
        drain(&mut e);
        assert!(!e.checkpoint_active());
        assert_eq!(e.on_write(3), WriteOutcome::Proceed);
        let stats = e.current_stats();
        assert_eq!(stats.avoided, 1);
        assert_eq!(stats.after, 1);
    }

    #[test]
    fn adaptive_history_orders_next_checkpoint() {
        let mut e = engine(16, 0);
        // Epoch 0: touch pages 1,2,3 (AFTER).
        for p in [1, 2, 3] {
            e.on_write(p);
        }
        e.begin_checkpoint().unwrap();
        // Epoch 1: page 3 waits (hint flushes it first); 1 and 2 flushed
        // normally; then re-touch 1,2,3 again in order 2,3,1.
        assert_eq!(e.on_write(3), WriteOutcome::MustWait);
        let item = e.select_next().unwrap();
        assert_eq!(item.page, 3);
        e.complete_flush(item);
        e.complete_wait(3);
        drain(&mut e);
        // Re-dirty in a specific order; all are AVOIDED/AFTER now.
        for p in [2, 1] {
            e.on_write(p);
        }
        // Checkpoint 2: page 3 has WAIT history -> flushed first.
        e.begin_checkpoint().unwrap();
        // 3 wasn't re-touched in epoch 1 after its wait... it *was* recorded
        // as WAIT, so it's in LastDirty with AT=WAIT.
        let order = drain(&mut e);
        assert_eq!(order[0], 3, "WAIT-history page first");
        assert_eq!(&order[1..], &[1, 2], "rest in address order (AFTER bucket)");
    }

    #[test]
    fn no_pattern_ignores_waited_hint() {
        let mut e =
            EpochEngine::new(EngineConfig::no_pattern(8, 64, 0).without_cow_data()).unwrap();
        for p in [0, 1, 2, 3] {
            e.on_write(p);
        }
        e.begin_checkpoint().unwrap();
        assert_eq!(e.on_write(3), WriteOutcome::MustWait);
        // Address order proceeds 0,1,2,3 regardless of the wait on 3.
        let order = drain(&mut e);
        assert_eq!(order, vec![0, 1, 2, 3]);
        e.complete_wait(3);
        assert_eq!(e.current_stats().wait, 1);
    }

    #[test]
    fn cow_preference_recycles_slots() {
        let mut e = engine(8, 1);
        for p in 0..8 {
            e.on_write(p);
        }
        e.begin_checkpoint().unwrap();
        // Page 7 cows (one slot); page 6 must wait (slab full).
        assert!(matches!(e.on_write(7), WriteOutcome::CopyToSlot(_)));
        assert_eq!(e.on_write(6), WriteOutcome::MustWait);
        // Waited page 6 preempts, then the CoW'd page 7 to recycle the slot,
        // then address order for the rest.
        let i1 = e.select_next().unwrap();
        assert_eq!(i1.page, 6);
        e.complete_flush(i1);
        e.complete_wait(6);
        let i2 = e.select_next().unwrap();
        assert_eq!(i2.page, 7);
        assert!(matches!(i2.source, FlushSource::CowSlot(_)));
        e.complete_flush(i2);
        assert_eq!(e.cow_in_use(), 0);
        let rest = drain(&mut e);
        assert_eq!(rest, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn select_batch_claims_runs_and_interleaves_with_streams() {
        let mut e = engine(16, 0);
        for p in 0..8 {
            e.on_write(p);
        }
        e.begin_checkpoint().unwrap();
        // Two "streams" claim disjoint runs.
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert_eq!(e.select_batch(3, &mut a), 3);
        assert_eq!(e.select_batch(3, &mut b), 3);
        let pages_a: Vec<_> = a.iter().map(|i| i.page).collect();
        let pages_b: Vec<_> = b.iter().map(|i| i.page).collect();
        assert!(pages_a.iter().all(|p| !pages_b.contains(p)), "disjoint");
        // Stream B finishes first; the checkpoint stays active because A
        // still holds InProgress pages plus two are unclaimed.
        for item in b {
            e.complete_flush(item);
        }
        assert!(e.checkpoint_active());
        // A drains its run and the tail.
        for item in a {
            e.complete_flush(item);
        }
        let mut tail = Vec::new();
        assert_eq!(e.select_batch(8, &mut tail), 2, "two pages left");
        for item in tail {
            e.complete_flush(item);
        }
        assert!(!e.checkpoint_active());
    }

    #[test]
    fn select_batch_prioritizes_waited_page_within_run() {
        let mut e = engine(8, 0);
        for p in [0, 1, 2, 3] {
            e.on_write(p);
        }
        e.begin_checkpoint().unwrap();
        assert_eq!(e.on_write(3), WriteOutcome::MustWait);
        let mut run = Vec::new();
        e.select_batch(4, &mut run);
        assert_eq!(run[0].page, 3, "waited page heads the batch");
        for item in run {
            e.complete_flush(item);
        }
        e.complete_wait(3);
    }

    #[test]
    fn complete_published_after_external_state_store() {
        // The runtime's fast wake path: PAGE_PROCESSED is stored through the
        // shared StateTable first (lock-free), the engine reconciles later.
        let mut e = engine(4, 1);
        e.on_write(0);
        e.on_write(1);
        e.begin_checkpoint().unwrap();
        assert!(matches!(e.on_write(0), WriteOutcome::CopyToSlot(_)));
        let states = Arc::clone(e.states());
        let mut run = Vec::new();
        assert_eq!(e.select_batch(4, &mut run), 2);
        for item in &run {
            states.set(item.page, PageState::Processed);
            assert!(states.is_processed(item.page));
        }
        assert!(e.checkpoint_active(), "counters not yet reconciled");
        assert_eq!(e.cow_in_use(), 1, "slot still owed");
        for item in run {
            e.complete_published(item);
        }
        assert!(!e.checkpoint_active());
        assert_eq!(e.cow_in_use(), 0);
        let s = e.current_stats();
        assert_eq!(s.flushed_pages, 2);
        assert_eq!(s.flushed_from_cow, 1);
    }

    #[test]
    fn already_handled_on_double_report() {
        let mut e = engine(4, 2);
        e.on_write(1);
        e.begin_checkpoint().unwrap();
        assert!(matches!(e.on_write(1), WriteOutcome::CopyToSlot(_)));
        assert_eq!(e.on_write(1), WriteOutcome::AlreadyHandled);
        drain(&mut e);
    }

    #[test]
    fn discard_scheduled_page_shrinks_checkpoint() {
        let mut e = engine(4, 1);
        e.on_write(0);
        e.on_write(1);
        e.begin_checkpoint().unwrap();
        assert_eq!(e.pending_pages(), 2);
        assert!(e.discard_page(0));
        assert_eq!(e.pending_pages(), 1);
        let order = drain(&mut e);
        assert_eq!(order, vec![1]);
    }

    #[test]
    fn discard_cowed_page_releases_slot() {
        let mut e = engine(4, 1);
        e.on_write(0);
        e.begin_checkpoint().unwrap();
        assert!(matches!(e.on_write(0), WriteOutcome::CopyToSlot(_)));
        assert_eq!(e.cow_in_use(), 1);
        assert!(e.discard_page(0));
        assert_eq!(e.cow_in_use(), 0);
        assert!(!e.checkpoint_active());
    }

    #[test]
    fn discard_in_progress_page_is_refused() {
        let mut e = engine(4, 0);
        e.on_write(0);
        e.begin_checkpoint().unwrap();
        let item = e.select_next().unwrap();
        assert!(!e.discard_page(0), "page is locked by the committer");
        e.complete_flush(item);
        assert!(e.discard_page(0), "trivially succeeds once processed");
    }

    #[test]
    fn discarded_page_leaves_no_plan_tombstone() {
        // Regression: tombstones used to land in the flush queues, so
        // planned() exceeded the scheduled count and select_batch
        // skip-scanned dead entries.
        let mut e = engine(8, 0);
        for p in 0..4 {
            e.on_write(p);
        }
        e.discard_page(2);
        let info = e.begin_checkpoint().unwrap();
        assert_eq!(info.scheduled_pages, 3);
        let mut run = Vec::new();
        assert_eq!(e.select_batch(8, &mut run), 3, "no dead entries");
        let mut pages: Vec<_> = run.iter().map(|i| i.page).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![0, 1, 3]);
        for item in run {
            e.complete_flush(item);
        }
        assert!(!e.checkpoint_active());
    }

    #[test]
    fn discarded_page_not_rescheduled_next_epoch() {
        let mut e = engine(4, 0);
        e.on_write(0);
        e.on_write(1);
        e.begin_checkpoint().unwrap();
        drain(&mut e);
        // Dirty both again, then discard page 0 before the next request.
        e.on_write(0);
        e.on_write(1);
        assert!(e.discard_page(0));
        let info = e.begin_checkpoint().unwrap();
        assert_eq!(info.scheduled_pages, 1);
        assert_eq!(drain(&mut e), vec![1]);
    }

    #[test]
    fn stats_flushed_from_cow_counted() {
        let mut e = engine(4, 2);
        e.on_write(0);
        e.on_write(1);
        e.begin_checkpoint().unwrap();
        assert!(matches!(e.on_write(0), WriteOutcome::CopyToSlot(_)));
        drain(&mut e);
        let s = e.current_stats();
        assert_eq!(s.flushed_pages, 2);
        assert_eq!(s.flushed_from_cow, 1);
        assert_eq!(s.flushed_bytes, 2 * 64);
    }

    #[test]
    fn random_scheduler_flushes_everything() {
        let mut e = EpochEngine::new(
            EngineConfig::adaptive(32, 64, 0)
                .without_cow_data()
                .with_scheduler(SchedulerKind::Random(7)),
        )
        .unwrap();
        for p in 0..32 {
            e.on_write(p);
        }
        e.begin_checkpoint().unwrap();
        let mut order = drain(&mut e);
        order.sort_unstable();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }
}
