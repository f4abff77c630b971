//! Restart: rebuild a fresh process's protected buffers from a checkpoint
//! chain (the "Restart" half of Checkpoint-Restart).
//!
//! The committer stores the layout of the live buffers (name, base page,
//! length) as a reserved record of every epoch — committed, checksummed,
//! replicated and retired with the pages it describes. Every restore —
//! eager or lazy — is the same two steps. **Prepare** refuses quarantined
//! epochs, replays the layout against a *fresh* [`PageManager`] (same
//! allocation order ⇒ same page ids; no payload I/O), resolves every page to the
//! newest epoch holding it through a [`PageLocator`], and maps every
//! to-be-restored page `PROT_NONE`. **Fill** is one loop, `filler_loop`: it
//! reads each page with `read_page_at` (through the shared [`PageCache`]
//! when given one, so N concurrent restores of one checkpoint hit disk once
//! per page; transient faults retried, a corrupt read repaired in place and
//! re-read), writes it through `/proc/self/mem` (which bypasses page
//! protections; one write per address-contiguous run of fills, up to 64
//! pages) while the page stays `PROT_NONE`, seeds the content-filter
//! digest, then drops the protection to `PROT_READ` and publishes the fill
//! (in address-contiguous runs: every 32 sweep fills under a lazy restore,
//! once at the filler's end under an eager one) — so no window exists in
//! which a thread could observe a half-filled page, and the fill itself
//! never faults. Pages the application never wrote are absent from every
//! epoch and remain zero, which is exactly their pre-crash content (regions
//! are zero-filled).
//!
//! The fill is the read-side dual of the flush: it runs on as many fillers
//! as the manager has committer streams, capped so that each owns at least
//! one 64-page run (a one-stream manager or an image under two runs spawns
//! no thread). The fillers share one prefetch order — the checkpoint's
//! recorded first-write order, replayed through the same [`EpochRecord`]
//! machinery the tracker uses — and claim it 64 entries at a time from one
//! cursor, so all of them stay near its front. Whoever pops a demand hint
//! for a page another filler holds read-but-unpublished asks every filler
//! to publish at once; poisoning waits until every filler has stopped.
//!
//! The two doors differ only in *who runs the fill*. [`restore_at`] /
//! [`restore_latest`] run it to completion on the calling thread (plus the
//! scoped helpers) and return the filled buffers. [`restore_lazy`] hands it
//! to a background thread and returns at once — time-to-first-instruction
//! is layout work only, independent of image size, and an application
//! access that outruns the fillers faults, posts a priority hint to the
//! demand ring, and blocks only for that single page's read.
//!
//! ## After a restore
//!
//! Restored pages are clean, read-only and digest-seeded at fill time, so
//! the first checkpoint after any restore sees exactly the pages the
//! application actually wrote: it is incremental in coverage as well as in
//! bytes. That rests on one contract both doors share: the manager's own
//! backend must hold the chain being restored (the next delta is only
//! meaningful on top of it), and restoring a `seq` below the chain head and
//! then checkpointing requires retiring the newer epochs first.

use std::collections::HashMap;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ai_ckpt_core::{AccessType, EpochRecord, PageId};
use ai_ckpt_mem::Protection;
use ai_ckpt_storage::{
    classify, crc64, quarantined_error, replay_window, FaultClass, PageCache, PageLocator,
    RetryPolicy, StorageBackend, META_RECORD,
};

use crate::layout;
use crate::manager::{Ctl, PageManager};
use crate::ProtectedBuffer;

/// The outcome of a restore: the rebuilt buffers, in layout order, plus an
/// index by name.
pub struct RestoredState {
    /// Rebuilt protected buffers, in the original allocation order.
    pub buffers: Vec<ProtectedBuffer>,
    /// Indices into `buffers`, keyed by buffer name (anonymous buffers are
    /// not indexed).
    pub by_name: HashMap<String, usize>,
    /// The checkpoint sequence number that was restored.
    pub checkpoint: u64,
}

/// Restore the most recent committed checkpoint, or `None` if the backend
/// holds no checkpoint yet (fresh start).
pub fn restore_latest(
    manager: &PageManager,
    backend: &dyn StorageBackend,
) -> io::Result<Option<RestoredState>> {
    restore_latest_cached(manager, backend, None)
}

/// [`restore_latest`] with page payloads resolved through the shared
/// [`PageCache`], keyed exactly as [`restore_lazy`] keys them, so a restart
/// storm — N processes restoring the same checkpoint, eagerly or lazily —
/// reads every page from the backend once, not N times.
pub fn restore_latest_cached(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    cache: Option<&PageCache>,
) -> io::Result<Option<RestoredState>> {
    match backend.epochs()?.last() {
        Some(&seq) => restore_eager(manager, backend, seq, cache).map(Some),
        None => Ok(None),
    }
}

/// Restore a specific checkpoint. `manager` must be fresh: no buffers
/// allocated yet (page ids must replay identically).
pub fn restore_at(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    seq: u64,
) -> io::Result<RestoredState> {
    restore_eager(manager, backend, seq, None)
}

/// Eager restore: prepare, then run the fill to completion right here — one
/// filler on this thread, the rest scoped, each publishing once at its end
/// (see [`PendingPublish`]). A failed fill drops the half-restored buffers
/// with the error.
fn restore_eager(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    seq: u64,
    cache: Option<&PageCache>,
) -> io::Result<RestoredState> {
    let (state, plan) = prepare(manager, backend, seq)?;
    fill(&manager.ctl, backend, cache, &plan, usize::MAX)?;
    Ok(state)
}

/// Refuse to serve a checkpoint whose replay chain includes a quarantined
/// epoch: the scrubber found irreparable at-rest corruption there, and a
/// restore would either fail midway or deliver damaged bytes. Failing up
/// front is the loud, greppable alternative
/// ([`quarantined_error`](ai_ckpt_storage::quarantined_error)). Only the
/// segments a restore of `seq` actually replays can disqualify it; older
/// quarantined history is already superseded.
fn refuse_quarantined(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    seq: u64,
) -> io::Result<()> {
    let quarantined = manager.scrubber().quarantined();
    if quarantined.is_empty() {
        return Ok(());
    }
    let chain = backend.chain()?;
    match replay_window(&chain, seq)?
        .iter()
        .find(|c| quarantined.contains(&c.epoch))
    {
        Some(c) => Err(quarantined_error(c.epoch)),
        None => Ok(()),
    }
}

/// Per-restore metrics of a lazy restore (snapshot via
/// [`LazyRestore::stats`] or returned by [`LazyRestore::wait`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Demand faults taken by application threads on not-yet-filled pages.
    pub demand_faults: u64,
    /// Pages filled in response to a demand-ring hint (an application
    /// access outran the prefetcher).
    pub demanded_pages: u64,
    /// Pages filled by the background prefetch sweep before anything asked.
    pub prefetched_pages: u64,
    /// Buffer pages absent from the image and left zero (never marked lazy,
    /// never fetched — reading them costs nothing).
    pub zero_pages: u64,
    /// Filled pages whose payload came from the shared [`PageCache`]
    /// instead of a backend read.
    pub pages_from_cache: u64,
    /// Payload bytes served from the shared cache.
    pub bytes_from_cache: u64,
    /// Total payload bytes written into restored pages so far.
    pub bytes_filled: u64,
}

/// Filler-side counters behind the [`RestoreStats`] snapshot.
#[derive(Default)]
struct FillCounters {
    demanded_pages: AtomicU64,
    prefetched_pages: AtomicU64,
    pages_from_cache: AtomicU64,
    bytes_from_cache: AtomicU64,
    bytes_filled: AtomicU64,
}

/// Handle to an in-flight lazy restore: the rebuilt (still-filling) buffers
/// plus the background fill.
///
/// The application may use `state.buffers` immediately — accesses to pages
/// the filler has not reached yet block for exactly that page's read.
/// Dropping the handle **aborts** an unfinished restore: every filler stops,
/// remaining pages are poisoned (touching them raises a genuine SIGSEGV,
/// and `CHECKPOINT` refuses to run) — call [`LazyRestore::wait`] first when
/// the restore must complete.
pub struct LazyRestore {
    /// The rebuilt buffers, exactly as [`restore_at`] would return them
    /// (the bytes just arrive in the background).
    pub state: RestoredState,
    ctl: Arc<Ctl>,
    /// The background thread: one filler that also runs and joins the rest.
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
    /// The fill's error once joined, returned by every later [`wait`].
    ///
    /// [`wait`]: LazyRestore::wait
    failed: Option<io::Error>,
    /// What the fillers owe and share; its `order` is also the poison set.
    plan: Arc<FillPlan>,
    /// `Shared::lazy_demand_faults` at restore start (the shared counter is
    /// cumulative across restores on one manager).
    fault_baseline: u64,
}

impl LazyRestore {
    /// Point-in-time metrics of this restore.
    pub fn stats(&self) -> RestoreStats {
        let counters = &self.plan.counters;
        RestoreStats {
            demand_faults: self
                .ctl
                .shared
                .lazy_demand_faults
                .load(Ordering::Relaxed)
                .saturating_sub(self.fault_baseline),
            demanded_pages: counters.demanded_pages.load(Ordering::Relaxed),
            prefetched_pages: counters.prefetched_pages.load(Ordering::Relaxed),
            zero_pages: self.plan.zero_pages,
            pages_from_cache: counters.pages_from_cache.load(Ordering::Relaxed),
            bytes_from_cache: counters.bytes_from_cache.load(Ordering::Relaxed),
            bytes_filled: counters.bytes_filled.load(Ordering::Relaxed),
        }
    }

    /// True once every marked page has been filled.
    pub fn is_complete(&self) -> bool {
        self.ctl.shared.lazy_unfilled.load(Ordering::Acquire) == 0
    }

    /// Block until the fillers delivered every page (or failed), returning
    /// the final metrics. Idempotent: a failed fill returns its first error
    /// on every call.
    pub fn wait(&mut self) -> io::Result<RestoreStats> {
        if let Some(thread) = self.thread.take() {
            self.failed = thread.join().unwrap_or_else(|_| Err(panicked())).err();
        }
        match &self.failed {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(self.stats()),
        }
    }
}

impl Drop for LazyRestore {
    fn drop(&mut self) {
        self.plan.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // Poison whatever no filler delivered: state the application could
        // observe as silently zero must instead fault loudly. (A restore
        // that ran to completion has nothing left to poison; the buffers
        // dropping right after this resolve the states for good.)
        self.plan.poison_owed(&self.ctl.shared);
    }
}

/// Lazily restore the most recent committed checkpoint, or `None` on a
/// fresh backend. See [`restore_lazy`].
pub fn restore_latest_lazy(
    manager: &PageManager,
    backend: Arc<dyn StorageBackend>,
    cache: Option<Arc<PageCache>>,
) -> io::Result<Option<LazyRestore>> {
    match backend.epochs()?.last() {
        Some(&seq) => restore_lazy(manager, backend, seq, cache).map(Some),
        None => Ok(None),
    }
}

/// Demand-paged restore of checkpoint `seq` (see the module docs): prepares
/// exactly as [`restore_at`] does, then starts the fill on a background
/// thread (one filler, which runs the others scoped) and returns as soon as
/// the buffers exist.
///
/// `manager` must be fresh (same contract as [`restore_at`]); `cache`, when
/// given, is shared across concurrent restores of the same checkpoint so
/// each page is read from `backend` once per storm, not once per reader.
pub fn restore_lazy(
    manager: &PageManager,
    backend: Arc<dyn StorageBackend>,
    seq: u64,
    cache: Option<Arc<PageCache>>,
) -> io::Result<LazyRestore> {
    let ctl = Arc::clone(&manager.ctl);
    let fault_baseline = ctl.shared.lazy_demand_faults.load(Ordering::Relaxed);
    let (state, plan) = prepare(manager, backend.as_ref(), seq)?;
    let plan = Arc::new(plan);
    let thread = {
        let (ctl, plan) = (Arc::clone(&ctl), Arc::clone(&plan));
        filler_thread().spawn(move || {
            fill(
                &ctl,
                backend.as_ref(),
                cache.as_deref(),
                &plan,
                SWEEP_PUBLISH_BATCH,
            )
        })?
    };
    Ok(LazyRestore {
        state,
        ctl,
        thread: Some(thread),
        failed: None,
        plan,
        fault_baseline,
    })
}

/// What a prepared restore still owes, and what its fillers share.
struct FillPlan {
    /// Page → newest epoch holding it.
    locator: PageLocator,
    /// Every page marked for fill, in prefetch (predicted-access) order.
    order: Vec<u64>,
    /// Buffer pages the image never held (left zero and readable).
    zero_pages: u64,
    retry: RetryPolicy,
    /// How many fillers run: the manager's committer streams, capped so
    /// that each owns at least one [`RUN_PAGES`] run of `order`.
    fillers: usize,
    /// Next unclaimed entry of `order`; a filler claims [`RUN_PAGES`] at a
    /// time.
    cursor: AtomicUsize,
    /// The fillers' shared read position in the demand ring.
    demand_tail: AtomicUsize,
    /// Bumped by a filler that popped a hint for a page another filler
    /// holds `FILLING`: every filler that sees it move publishes at once.
    publish_requests: AtomicU64,
    /// Raised by a failing filler (the others wind down) and by an abort.
    stop: AtomicBool,
    counters: FillCounters,
}

impl FillPlan {
    /// The next page of this filler's claimed slice of `order`, claiming the
    /// next [`RUN_PAGES`] entries once the slice is used up; `None` when the
    /// whole order is claimed.
    fn next_page(&self, mine: &mut std::ops::Range<usize>) -> Option<u64> {
        if mine.start == mine.end {
            // Relaxed: the cursor publishes nothing; `order` is immutable
            // and was shared before any filler started.
            let start = self.cursor.fetch_add(RUN_PAGES, Ordering::Relaxed);
            let len = self.order.len();
            *mine = start.min(len)..(start + RUN_PAGES).min(len);
        }
        mine.next().map(|i| self.order[i])
    }

    /// Poison every page still owed. Only once no filler runs: a page a
    /// filler holds `FILLING` must not be poisoned under it.
    fn poison_owed(&self, shared: &crate::manager::Shared) {
        for &page in &self.order {
            shared.lazy_poison(page as usize);
        }
    }
}

/// Everything a restore does before the first payload byte moves: quarantine
/// check, layout replay, page → epoch resolution, `PROT_NONE` marking in
/// prefetch order, zero-page digests. Returns the rebuilt, still-empty
/// buffers and what the fill owes them.
fn prepare(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    seq: u64,
) -> io::Result<(RestoredState, FillPlan)> {
    refuse_quarantined(manager, backend, seq)?;
    // Setup reads ride the same transient-retry schedule as the filler:
    // a fabric hiccup during locator construction must not abort a
    // restore the very next read would have served.
    let retry = manager.config().retry;
    let record = read_healed(backend, &retry, seq, META_RECORD)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("checkpoint {seq} holds no layout record"),
        )
    })?;
    let layouts = layout::decode(&record)?;
    // Resolve page → owning epoch up front (manifest metadata only; no
    // payload is materialised).
    let locator = retry.run(|| PageLocator::build(backend, seq))?;
    let page_bytes = ai_ckpt_mem::page_size();
    let shared = &manager.ctl.shared;
    debug_assert_eq!(
        shared.lazy_unfilled.load(Ordering::Acquire),
        0,
        "one restore per manager at a time"
    );
    shared.lazy_poisoned.store(false, Ordering::Release);

    let mut buffers = Vec::with_capacity(layouts.len());
    let mut by_name = HashMap::new();
    for l in &layouts {
        let buf = manager.alloc_protected_named(&l.name, l.len_bytes as usize)?;
        if buf.base_page() as u64 != l.base_page {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "layout replay diverged: buffer '{}' expected base page {}, got {} \
                     (restore requires a fresh PageManager)",
                    l.name,
                    l.base_page,
                    buf.base_page()
                ),
            ));
        }
        if !l.name.is_empty() {
            by_name.insert(l.name.clone(), buffers.len());
        }
        buffers.push(buf);
    }

    // Mark every image page that lands in a replayed buffer: PROT_NONE so
    // any access traps, fill state UNFILLED so the handler knows to wait
    // rather than treat the trap as a tracked write. Image pages outside
    // every layout (allocation shrank before the crash) are unreachable and
    // simply skipped.
    let max_pages = manager.config().max_pages;
    // Derive the prefetch order by replaying the image's newest-first page
    // sequence — per epoch, the segment's *recorded first-write order* —
    // through the tracker's own first-wins machinery.
    let mut predicted = EpochRecord::new(max_pages);
    let mut marked_addrs: Vec<usize> = Vec::new();
    for &page in locator.pages_newest_first() {
        let idx = page as usize;
        if idx >= max_pages || shared.page_addr[idx].load(Ordering::Acquire) == 0 {
            continue;
        }
        if predicted.record(idx as PageId, AccessType::After) {
            shared.lazy_mark_unfilled(idx);
            marked_addrs.push(shared.page_addr[idx].load(Ordering::Acquire));
        }
    }
    let marked = marked_addrs.len() as u64;
    // Apply PROT_NONE in address order, one mprotect per contiguous run —
    // time-to-first-instruction must not scale with per-page syscalls.
    marked_addrs.sort_unstable();
    // SAFETY: registered pages of buffers we just allocated; nothing can
    // access them before this function returns.
    unsafe { protect_runs(marked_addrs.iter().copied(), page_bytes, Protection::None)? };
    let order: Vec<u64> = predicted.dirty().iter().map(|&p| p as u64).collect();

    // Pages the image never held stay zero and readable; seed their
    // digests now (pure arithmetic — no page is touched), as the filler
    // seeds every page it writes.
    let total_pages: u64 = layouts.iter().map(|l| l.pages).sum();
    if let Some(filter) = &manager.ctl.filter {
        let zero_digest = crc64(&vec![0u8; page_bytes]);
        for l in &layouts {
            for page in l.base_page..l.base_page + l.pages {
                if locator.epoch_of(page).is_none() {
                    filter.set(page, zero_digest);
                }
            }
        }
    }
    let state = RestoredState {
        buffers,
        by_name,
        checkpoint: seq,
    };
    let streams = manager.config().committer_streams;
    let plan = FillPlan {
        locator,
        fillers: (order.len() / RUN_PAGES).min(streams).max(1),
        order,
        zero_pages: total_pages - marked,
        retry,
        cursor: AtomicUsize::new(0),
        demand_tail: AtomicUsize::new(shared.demand_head.load(Ordering::Acquire)),
        publish_requests: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        counters: FillCounters::default(),
    };
    Ok((state, plan))
}

/// Read one record the way every restore read goes: never fail while a
/// redundant source survives. Transient faults back off and retry; a corrupt
/// read asks the backend to repair the epoch in place, then reads the healed
/// bytes once more.
fn read_healed(
    backend: &dyn StorageBackend,
    retry: &RetryPolicy,
    epoch: u64,
    id: u64,
) -> io::Result<Option<Vec<u8>>> {
    match retry.run(|| backend.read_page_at(epoch, id)) {
        Err(e) if classify(&e) == FaultClass::Corrupt => {
            backend.repair_epoch(epoch).map_err(|_| e)?;
            backend.read_page_at(epoch, id)
        }
        other => other,
    }
}

/// Set `prot` on every page in `addrs` (ascending page addresses), one
/// `mprotect` per address-contiguous run.
///
/// # Safety
/// Every address must be a live page of a registered region that no other
/// thread is relying on staying at its current protection.
unsafe fn protect_runs(
    addrs: impl Iterator<Item = usize>,
    page_bytes: usize,
    prot: Protection,
) -> io::Result<()> {
    let mut addrs = addrs.peekable();
    while let Some(start) = addrs.next() {
        let mut end = start + page_bytes;
        while addrs.next_if_eq(&end).is_some() {
            end += page_bytes;
        }
        // SAFETY: forwarded from the caller's contract.
        unsafe { ai_ckpt_mem::set_protection(start, end - start, prot)? };
    }
    Ok(())
}

/// One filler's sweep fills whose publication (mprotect + `FILLED`) is
/// deferred: up to [`SWEEP_PUBLISH_BATCH`] at a time under a lazy restore,
/// the filler's whole share under an eager one. The newest
/// address-contiguous run of page-sized payloads is held back too and
/// written with one `/proc/self/mem` call
/// (at most [`RUN_PAGES`] pages): when the next payload does not extend
/// it, and before any publication — so no page is published before its
/// bytes land. A fill's payload is copied once, into the run.
///
/// Why defer: lifting protection is an `mmap_lock`-write + TLB-shootdown
/// per call, and a filler streaming a fast backend would issue one per
/// page — hundreds of thousands per second. That write-lock storm starves
/// the *application's* page-fault path (which needs the lock to classify
/// the fault), delaying SIGSEGV delivery — and with it the demand hint —
/// by milliseconds. Batching collapses address-contiguous runs into one
/// `mprotect` each; a demand hint (posted by any waiter, including one
/// stuck on a still-pending `FILLING` page) flushes the batch of the
/// filler that pops it immediately, and every other filler's at its next
/// turn when the page is theirs, so the worst extra wait is one in-flight
/// storage read. An eager restore has no waiter to serve (no caller holds
/// a pointer into its buffers before it returns), and a batch cut from a
/// random first-write order holds no contiguous run, so each filler
/// publishes once, at its end: one `mprotect` per run of its share.
struct PendingPublish {
    /// (page id, page address, payload bytes).
    pages: Vec<(usize, usize, u64)>,
    /// Payloads of the run not yet written, back to back.
    run: Vec<u8>,
    /// Address the run's first byte belongs at.
    run_at: usize,
}

/// Max sweep fills a lazy restore holds back before a forced publication.
const SWEEP_PUBLISH_BATCH: usize = 32;

/// Max pages one run write carries (256 KiB of 4 KiB pages).
const RUN_PAGES: usize = 64;

impl PendingPublish {
    fn new(pages: usize, page_bytes: usize) -> Self {
        Self {
            pages: Vec::with_capacity(pages),
            run: Vec::with_capacity(RUN_PAGES * page_bytes),
            run_at: 0,
        }
    }

    /// Hold back the sweep fill of page `idx` at `addr`. A page-sized
    /// payload joins the run when its address directly follows it;
    /// otherwise the run is written and a new one starts. A short payload
    /// is written alone, at once.
    fn push(
        &mut self,
        mem: &std::fs::File,
        idx: usize,
        addr: usize,
        payload: &[u8],
        page_bytes: usize,
    ) -> io::Result<()> {
        if payload.len() == page_bytes {
            if self.run_at + self.run.len() != addr || self.run.len() == RUN_PAGES * page_bytes {
                self.submit(mem)?;
                self.run_at = addr;
            }
            self.run.extend_from_slice(payload);
        } else {
            mem.write_all_at(payload, addr as u64)?;
        }
        self.pages.push((idx, addr, payload.len() as u64));
        Ok(())
    }

    /// Write the run into place with one positioned write.
    fn submit(&mut self, mem: &std::fs::File) -> io::Result<()> {
        if !self.run.is_empty() {
            mem.write_all_at(&self.run, self.run_at as u64)?;
            self.run.clear();
        }
        Ok(())
    }

    fn publish(
        &mut self,
        mem: &std::fs::File,
        shared: &crate::manager::Shared,
        counters: &FillCounters,
        page_bytes: usize,
    ) -> io::Result<()> {
        self.submit(mem)?;
        if self.pages.is_empty() {
            return Ok(());
        }
        // One mprotect per address-contiguous run (prefetch order is the
        // recorded first-write order, which is near-sequential for the
        // array sweeps this library targets).
        self.pages.sort_unstable_by_key(|&(_, addr, _)| addr);
        let addrs = self.pages.iter().map(|&(_, addr, _)| addr);
        // SAFETY: live registered pages, each pinned by its FILLING state
        // until `lazy_finish_fill` below.
        unsafe { protect_runs(addrs, page_bytes, Protection::ReadOnly)? };
        for &(idx, _, len) in &self.pages {
            shared.lazy_finish_fill(idx);
            counters.bytes_filled.fetch_add(len, Ordering::Relaxed);
            counters.prefetched_pages.fetch_add(1, Ordering::Relaxed);
        }
        self.pages.clear();
        Ok(())
    }
}

/// Run the fill on `plan.fillers` fillers: this thread and the rest on
/// scoped threads, all sharing the plan. Once every filler has stopped,
/// poisons whatever is still owed if one failed or the restore was stopped
/// — silent zeroes are not an option, and a waiter must not hang. Returns
/// the first error.
fn fill(
    ctl: &Ctl,
    backend: &dyn StorageBackend,
    cache: Option<&PageCache>,
    plan: &FillPlan,
    publish_batch: usize,
) -> io::Result<()> {
    let run = || filler_loop(ctl, backend, cache, plan, publish_batch);
    let result = std::thread::scope(|s| {
        let mut helpers = Vec::with_capacity(plan.fillers - 1);
        let mut result = Ok(());
        for _ in 1..plan.fillers {
            match filler_thread().spawn_scoped(s, run) {
                Ok(helper) => helpers.push(helper),
                Err(e) => {
                    plan.stop.store(true, Ordering::Release);
                    result = Err(e);
                    break;
                }
            }
        }
        result = result.and(run());
        for helper in helpers {
            result = result.and(helper.join().unwrap_or_else(|_| Err(panicked())));
        }
        result
    });
    if result.is_err() || plan.stop.load(Ordering::Acquire) {
        plan.poison_owed(&ctl.shared);
    }
    result
}

fn filler_thread() -> std::thread::Builder {
    std::thread::Builder::new().name("ai-ckpt-restore".into())
}

fn panicked() -> io::Error {
    io::Error::other("restore filler thread panicked")
}

/// One filler: demand hints first, then its claimed slices of the shared
/// prefetch order. Runs until the whole order is claimed and its own fills
/// are published, `stop` is raised, or storage fails (then it raises
/// `stop`, so the other fillers wind down, and [`fill`] poisons what is
/// owed). A lazy restore's fillers publish every [`SWEEP_PUBLISH_BATCH`]
/// sweep fills, an eager one's with `publish_batch = usize::MAX` (see
/// [`PendingPublish`]).
///
/// Faults on the payload-read path follow the error taxonomy: transient
/// errors retry with bounded backoff, a corrupt read triggers
/// `repair_epoch` on the backend (replica/parity/policy wrappers self-heal
/// in place) and one final read, and only a permanent fault — or damage
/// with no surviving redundant source — fails the fill.
fn filler_loop(
    ctl: &Ctl,
    backend: &dyn StorageBackend,
    cache: Option<&PageCache>,
    plan: &FillPlan,
    publish_batch: usize,
) -> io::Result<()> {
    // Checkpointing-machinery exemption, same as the committer threads: the
    // filler's allocations must never route into protected regions. Put
    // back on exit — an eager restore runs on an application thread.
    let was_exempt = ai_ckpt_mem::alloc::thread_exempt();
    ai_ckpt_mem::alloc::exempt_thread_from_tracking(true);
    let shared = &ctl.shared;
    let FillPlan {
        locator,
        order,
        retry,
        counters,
        ..
    } = plan;
    let result = (|| -> io::Result<()> {
        // FOLL_FORCE semantics: writes through /proc/self/mem land in our
        // anonymous mappings regardless of page protection, so a page can
        // be filled while it is still PROT_NONE — no window in which a
        // concurrent reader could see half a page.
        let mem = std::fs::File::options()
            .write(true)
            .open("/proc/self/mem")?;
        let page_bytes = shared.page_bytes;
        let ns = locator.checkpoint();
        let mut mine = 0..0;
        let mut asked = plan.publish_requests.load(Ordering::Acquire);
        let mut pending = PendingPublish::new(publish_batch.min(order.len()), page_bytes);
        loop {
            if plan.stop.load(Ordering::Acquire) {
                // Publish what is already read — strictly fewer pages for
                // the abort path to poison.
                pending.publish(&mem, shared, counters, page_bytes)?;
                return Ok(());
            }
            // Demand hints outrank the sweep: a hinted page has an
            // application thread spinning on it right now. A hint also
            // flushes the publication batch — the waiter may be blocked on
            // a page that is read but not yet written or published — and so
            // does another filler's request for that.
            let hint = shared.lazy_next_demand(&plan.demand_tail);
            let requests = plan.publish_requests.load(Ordering::Acquire);
            if hint.is_some() || requests != asked || pending.pages.len() >= publish_batch {
                asked = requests;
                pending.publish(&mem, shared, counters, page_bytes)?;
            }
            let (page, demanded) = match hint {
                Some(p) => (p, true),
                None => match plan.next_page(&mut mine) {
                    Some(p) => (p, false),
                    // Order exhausted: every page is claimed, and a page
                    // another filler still holds is in its slice or batch,
                    // which it fills and publishes before it stops (and
                    // serves any hint for it meanwhile).
                    None => {
                        pending.publish(&mem, shared, counters, page_bytes)?;
                        return Ok(());
                    }
                },
            };
            let idx = page as usize;
            if !shared.lazy_begin_fill(idx) {
                // Already filled, or its buffer went away — or another
                // filler holds it read but unpublished while a thread waits
                // on it: have every filler publish now.
                if demanded && shared.lazy_filling(idx) {
                    plan.publish_requests.fetch_add(1, Ordering::AcqRel);
                }
                continue;
            }
            // `begin_fill` won the page, so its buffer teardown (which
            // resolves fill states *before* clearing addresses) is blocked
            // on our FILLING state: the address below stays valid until
            // `lazy_finish_fill`.
            let addr = shared.page_addr[idx].load(Ordering::Acquire);
            debug_assert_ne!(addr, 0, "FILLING pins the page's registration");
            let epoch = locator
                .epoch_of(page)
                .expect("only image pages are marked for fill");
            // Errors never enter the cache (failed fills are not
            // memoised), so a later retry re-reads storage.
            let vanished = || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("page {page} vanished from epoch {epoch}"),
                )
            };
            let (cached, read);
            let payload: &[u8] = match cache {
                Some(cache) => {
                    let mut loaded = false;
                    cached = cache
                        .get_or_load(ns, page, || {
                            loaded = true;
                            read_healed(backend, retry, epoch, page)
                        })?
                        .ok_or_else(vanished)?;
                    if !loaded {
                        counters.pages_from_cache.fetch_add(1, Ordering::Relaxed);
                        counters
                            .bytes_from_cache
                            .fetch_add(cached.len() as u64, Ordering::Relaxed);
                    }
                    &cached
                }
                None => {
                    read = read_healed(backend, retry, epoch, page)?.ok_or_else(vanished)?;
                    &read
                }
            };
            // Seed the content filter with the digest of the page *as it
            // now reads*: the payload, zero-padded to the page (payloads
            // from the runtime are always page-sized; padding only matters
            // for hand-written epochs).
            if let Some(filter) = &ctl.filter {
                if payload.len() == page_bytes {
                    filter.set(page, crc64(payload));
                } else {
                    let mut whole = vec![0u8; page_bytes];
                    whole[..payload.len()].copy_from_slice(payload);
                    filter.set(page, crc64(&whole));
                }
            }
            if demanded {
                // A thread is spinning on this page right now: write and
                // publish it alone, immediately (its hint already wrote the
                // run and published the batch).
                mem.write_all_at(payload, addr as u64)?;
                // SAFETY: a live registered page (pinned by FILLING, see
                // above).
                unsafe {
                    ai_ckpt_mem::set_protection(addr, page_bytes, Protection::ReadOnly)?;
                }
                shared.lazy_finish_fill(idx);
                counters
                    .bytes_filled
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                counters.demanded_pages.fetch_add(1, Ordering::Relaxed);
            } else {
                pending.push(&mem, idx, addr, payload, page_bytes)?;
            }
        }
    })();
    if result.is_err() {
        plan.stop.store(true, Ordering::Release);
    }
    ai_ckpt_mem::alloc::exempt_thread_from_tracking(was_exempt);
    result
}
