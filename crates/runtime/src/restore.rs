//! Restart: rebuild a fresh process's protected buffers from a checkpoint
//! chain (the "Restart" half of Checkpoint-Restart).
//!
//! The committer stores the layout of the live buffers (name, base page,
//! length) as a reserved record of every epoch — committed, checksummed,
//! replicated and retired with the pages it describes. Every restore —
//! eager or lazy — is the same two steps. **Prepare** refuses quarantined
//! epochs, replays the layout against a *fresh* [`PageManager`] (same
//! allocation order ⇒ same page ids; no payload I/O), resolves every page to the
//! newest epoch holding it through a [`PageLocator`], and marks every
//! to-be-restored page (how, the door decides: see `Door`). **Fill** is
//! one loop, `filler_loop`: it
//! reads its pages in runs — the stretch of its 64-entry slice of the
//! prefetch order that one epoch holds, which is that epoch's records in
//! record order, so mostly records stored back to back — with one
//! [`StorageBackend::read_pages_at`] each (the file backend reads a run of
//! adjacent records with one `pread`; a demand hint is a run of one; with
//! the shared [`PageCache`] every page is a lookup and a miss a run of one,
//! so N concurrent restores of one checkpoint hit disk once per page;
//! transient faults retried, a corrupt read repaired in place and re-read).
//! A sweep page is claimed once it is read, and every fill seeds the
//! content-filter digest (the record's CRC when it covers the whole page:
//! one CRC pass per restored byte). Pages the application never wrote are
//! absent from every epoch and remain zero, which is exactly their
//! pre-crash content (regions are zero-filled).
//!
//! The two doors differ in who runs the fill and in how a fill lands.
//! [`restore_at`] / [`restore_latest`] run it to completion on the calling
//! thread (plus the scoped helpers) and return the filled buffers. No
//! thread holds a pointer into them before that, so prepare advises huge
//! pages on them and leaves the marked pages writable, each filler copies
//! each verified payload straight to its page, and once every filler has
//! joined the door write-protects each buffer with one call (see
//! `Door::Eager`) and publishes every page `FILLED`. [`restore_lazy`]
//! hands the fill to a background thread and returns at once —
//! time-to-first-instruction is layout work only, independent of image
//! size. Its buffers are born write-protected with no page present, and
//! prepare registers each address-contiguous run of marked pages for
//! missing-page faults with a userfaultfd ([`Uffd`]): the manager's own,
//! which already tracks writes on those ranges, or on the `mprotect`
//! fallback one of the restore's own. An application access that outruns
//! the fillers raises `SIGBUS` (a write on the fallback `SIGSEGV`), posts a
//! priority hint to the demand ring and blocks only for that single page's
//! read. A lazy filler turns to the demand ring after every page and breaks
//! its run for a hint, so a hint waits for at most the read in flight. It
//! gathers each address-contiguous run of fills, every payload zero-padded
//! to its page, and installs it with one `UFFDIO_COPY` — when its claimed
//! slice of the prefetch order ends, sooner when the next fill does not
//! extend the run — which makes
//! the pages present, readable and write-protected in one atomic step, so
//! no window exists in which a thread could observe a half-filled page,
//! and no `mprotect` publishes anything. A syscall that reads a page not
//! yet installed fails with `EFAULT`, as it would on `PROT_NONE` memory. A
//! failed or stopped fill makes every page it still owes `PROT_NONE` (the
//! poison). A descriptor of the restore's own then closes at once, which
//! drops its registrations — after the poison, because once nothing is
//! registered a page never installed reads as zero. The manager's
//! descriptor stays, and the marked runs stay registered for missing-page
//! faults as long as their buffers live: no call drops that mode and keeps
//! the write protection (a narrower `UFFDIO_REGISTER` changes nothing, and
//! `UFFDIO_UNREGISTER` lifts the protection of every installed page, which
//! would leave writes untracked until it was put back). Once the fill is
//! done every marked page is present, so the mode costs nothing but the
//! mappings between the runs and the pages the image lacks (a page the
//! application drops gets the zero page: see `fault_entry`). Where no
//! userfaultfd can be opened (`ENOSYS`, `EPERM` under a seccomp profile,
//! `EINVAL` before Linux 5.11) the lazy door runs the eager one and returns
//! a restore that is already complete: the same bytes, only
//! time-to-first-instruction is lost. The crash sweep
//! (`tests/crash_points.rs`) judges every read of every door, on both
//! write-tracking paths: burst, failed for good, rotten, panicking, and its
//! leaf down.
//!
//! The fill is the read-side dual of the flush: it runs on as many fillers
//! as the manager has committer streams, capped so that each owns at least
//! one 64-page run (a one-stream manager or an image under two runs spawns
//! no thread). The fillers share one prefetch order — the checkpoint's
//! recorded first-write order, replayed through the same [`EpochRecord`]
//! machinery the tracker uses — and claim it 64 entries at a time from one
//! cursor, so all of them stay near its front. Under a lazy restore,
//! whoever pops a demand hint for a page another filler holds
//! read-but-unpublished asks every filler to publish at once; poisoning
//! waits until every filler has stopped.
//!
//! ## After a restore
//!
//! Restored pages are clean, write-protected and digest-seeded at fill
//! time, so the first checkpoint after any restore sees exactly the pages
//! the application actually wrote: it is incremental in coverage as well
//! as in bytes. That rests on one contract both doors share: the manager's
//! own backend must hold the chain being restored (the next delta is only
//! meaningful on top of it), and restoring a `seq` below the chain head and
//! then checkpointing requires retiring the newer epochs first.
//!
//! One restore runs per manager at a time. A child forked during a lazy
//! restore inherits neither its fillers nor its userfaultfd registration:
//! a page the parent had not installed at the fork reads as zero in the
//! child. More generally, a child forked from a process that tracks writes
//! with userfaultfd write-protect inherits no tracking: the descriptor
//! does not ask for `UFFD_FEATURE_EVENT_FORK`, so the child's copies of
//! the mappings drop the registration and every write-protect bit, and the
//! child's writes are not tracked.

use std::collections::HashMap;
use std::io;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ai_ckpt_core::{AccessType, EpochRecord, PageId};
use ai_ckpt_mem::{Protection, Uffd};
use ai_ckpt_storage::{
    classify, crc64, quarantined_error, replay_window, FaultClass, PageCache, PageLocator,
    PageRead, RetryPolicy, StorageBackend, META_RECORD,
};

use crate::layout;
use crate::manager::{ContentFilter, Ctl, PageManager, Shared};
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
        Some(&seq) => Ok(Some(restore_eager(manager, backend, seq, cache)?.0)),
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
    Ok(restore_eager(manager, backend, seq, None)?.0)
}

/// Eager restore: prepare, then run the fill to completion right here — one
/// filler on this thread, the rest scoped, each copying its fills in place
/// — and publish every page at once (see [`Door::Eager`]). A failed fill
/// drops the half-restored buffers with the error. Returns the plan with
/// the buffers: nothing is owed on it.
fn restore_eager(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    seq: u64,
    cache: Option<&PageCache>,
) -> io::Result<(RestoredState, FillPlan)> {
    let (state, plan) = prepare(manager, backend, seq, Door::Eager)?;
    fill(&manager.ctl, backend, cache, &plan, None)?;
    let shared = &manager.ctl.shared;
    for buf in &state.buffers {
        // A buffer this restore rebuilt: no thread holds a pointer into it
        // before we return, and every filler has joined.
        let sealed = shared.protect(buf.as_ptr() as usize, buf.pages() * shared.page_bytes);
        if let Err(e) = sealed {
            // A page left `FILLING` would hold up its buffer's teardown.
            plan.poison_owed(shared);
            return Err(e);
        }
    }
    for &page in &plan.order {
        shared.lazy_finish_fill(page as usize);
    }
    Ok((state, plan))
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

/// Filler-side counters behind the [`RestoreStats`] snapshot. Every filler
/// adds to them, so a filler sums its sweep fills and adds once per
/// publication.
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
/// remaining pages are poisoned (`PROT_NONE`: touching them raises a
/// genuine SIGSEGV, and `CHECKPOINT` refuses to run) — call
/// [`LazyRestore::wait`] first when the restore must complete.
pub struct LazyRestore {
    /// The rebuilt buffers, exactly as [`restore_at`] would return them
    /// (the bytes just arrive in the background).
    pub state: RestoredState,
    ctl: Arc<Ctl>,
    /// The background thread: one filler that also runs and joins the rest,
    /// and holds the userfaultfd until the fill ends. `None` once joined,
    /// and from the start where the eager door stood in.
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
/// the buffers exist. Where userfaultfd is not available it restores
/// eagerly instead and returns a restore that is already complete.
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
    // Land through the manager's write-protect descriptor, which holds the
    // buffers' ranges already; on the mprotect fallback, through one of the
    // restore's own.
    let own = match &manager.ctl.shared.tracker {
        Some(_) => None,
        None => match Uffd::open() {
            Ok(uffd) => Some(uffd),
            Err(_) => {
                return restore_lazy_eagerly(manager, backend.as_ref(), seq, cache.as_deref())
            }
        },
    };
    let ctl = Arc::clone(&manager.ctl);
    let fault_baseline = ctl.shared.lazy_demand_faults.load(Ordering::Relaxed);
    let door = Door::Lazy(landing(&own, &ctl.shared));
    let (state, plan) = prepare(manager, backend.as_ref(), seq, door)?;
    let plan = Arc::new(plan);
    let thread = {
        let (ctl, plan) = (Arc::clone(&ctl), Arc::clone(&plan));
        filler_thread().spawn(move || {
            let uffd = landing(&own, &ctl.shared);
            let filled = fill(&ctl, backend.as_ref(), cache.as_deref(), &plan, Some(uffd));
            // A descriptor of the restore's own closes at once: a fill that
            // failed or stopped poisoned what it owed first, so no page
            // left unregistered reads as zero. The manager's stays, and
            // with it the marked runs' registration for missing-page
            // faults: a narrower registration changes nothing, and
            // unregistering would drop the write-protection of every
            // installed page (see the module docs).
            drop(own);
            filled
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

/// The descriptor a lazy restore lands through: its own, or else the
/// manager's write-protect one.
fn landing<'a>(own: &'a Option<Uffd>, shared: &'a Shared) -> &'a Uffd {
    own.as_ref()
        .or(shared.tracker.as_ref())
        .expect("a lazy restore lands through a userfaultfd")
}

/// The lazy door where no userfaultfd opens: the eager door, returned as a
/// restore that is already complete — the same bytes, only
/// time-to-first-instruction is lost. Its stats count no fill.
fn restore_lazy_eagerly(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    seq: u64,
    cache: Option<&PageCache>,
) -> io::Result<LazyRestore> {
    let ctl = Arc::clone(&manager.ctl);
    let fault_baseline = ctl.shared.lazy_demand_faults.load(Ordering::Relaxed);
    let (state, plan) = restore_eager(manager, backend, seq, cache)?;
    Ok(LazyRestore {
        state,
        ctl,
        thread: None,
        failed: None,
        plan: Arc::new(plan),
        fault_baseline,
    })
}

/// Which door a restore serves: it decides how a fill lands.
#[derive(Clone, Copy)]
enum Door<'u> {
    /// [`restore_at`] / [`restore_latest`]: no thread holds a pointer into
    /// the buffers before the door returns, so prepare advises huge pages on
    /// them and leaves the marked pages writable with no page table under
    /// them, while each page the image lacks is write-protected: its 2 MiB
    /// range gets a page table, so it fills on base pages and the page
    /// costs no memory. (On write-protect the buffers are born unprotected
    /// and the holes protected with one `UFFDIO_WRITEPROTECT` per run; on
    /// the `mprotect` fallback they are born read-only and the marked runs
    /// made writable, which splits each hole's range off.) Each filler
    /// copies each payload straight to its page and publishes nothing; once
    /// every filler has joined `Ok`, the door write-protects each buffer
    /// with one call and marks every page `FILLED`.
    Eager,
    /// [`restore_lazy`]: the application runs during the fill, so prepare
    /// registers the marked runs of the still write-protected, never-touched
    /// buffers with this userfaultfd for missing-page faults — the
    /// manager's own on write-protect, which adds the mode to the runs, or
    /// the restore's own on the fallback — and the fillers install and
    /// publish each run with one copy (see [`PendingPublish`]). A page the
    /// image lacks is not registered so: it reads as zero and only its first
    /// write traps.
    Lazy(&'u Uffd),
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
    /// The next run of this filler's claimed slice `mine` of `order` — its
    /// front stretch of pages one epoch holds — with that epoch, claiming
    /// the next [`RUN_PAGES`] entries once the slice is used up; `None` when
    /// the whole order is claimed. The caller moves `mine` past what it
    /// read. Within an epoch the order is record order, so a run is mostly
    /// records stored back to back.
    fn next_run(&self, mine: &mut Range<usize>) -> Option<(u64, &[u64])> {
        if mine.start == mine.end {
            // Relaxed: the cursor publishes nothing; `order` is immutable
            // and was shared before any filler started.
            let start = self.cursor.fetch_add(RUN_PAGES, Ordering::Relaxed);
            let len = self.order.len();
            *mine = start.min(len)..(start + RUN_PAGES).min(len);
        }
        let slice = &self.order[mine.clone()];
        let epoch = self.locator.epoch_of(*slice.first()?).expect(MARKED);
        let same = slice
            .iter()
            .take_while(|&&p| self.locator.epoch_of(p) == Some(epoch));
        Some((epoch, &slice[..same.count()]))
    }

    /// Poison every page still owed: claim it (`FILLING` pins its address
    /// against its buffer's teardown; a page a stopped filler held is
    /// claimed already), make it `PROT_NONE`, then mark it `POISONED`. Only
    /// once no filler runs: a page a filler holds must not be poisoned
    /// under it. `PROT_NONE` first, because once the userfaultfd closes a
    /// page never installed would read as zero: touching a poisoned page
    /// must be a genuine SIGSEGV.
    fn poison_owed(&self, shared: &Shared) {
        let owed: Vec<usize> = self
            .order
            .iter()
            .map(|&page| page as usize)
            .filter(|&idx| shared.lazy_filling(idx) || shared.lazy_begin_fill(idx))
            .collect();
        let mut addrs: Vec<usize> = owed
            .iter()
            .map(|&idx| shared.page_addr[idx].load(Ordering::Acquire))
            .collect();
        addrs.sort_unstable();
        // SAFETY: live registered pages, each pinned by FILLING, that no
        // filler touches any more. An error (no memory for the split
        // mapping) leaves a page read-only: its `POISONED` state still
        // refuses a checkpoint and fails a write.
        let _ = for_each_run(addrs.into_iter(), shared.page_bytes, |start, len| unsafe {
            ai_ckpt_mem::set_protection(start, len, Protection::None)
        });
        for idx in owed {
            shared.lazy_poison(idx);
        }
    }
}

/// Everything a restore does before the first payload byte moves: quarantine
/// check, layout replay, page → epoch resolution, marking in prefetch order
/// (registered with the userfaultfd, or writable for `door`
/// [`Door::Eager`]), zero-page digests. Returns the rebuilt, still-empty
/// buffers and what the fill owes them.
fn prepare(
    manager: &PageManager,
    backend: &dyn StorageBackend,
    seq: u64,
    door: Door<'_>,
) -> io::Result<(RestoredState, FillPlan)> {
    refuse_quarantined(manager, backend, seq)?;
    // Setup reads ride the same transient-retry schedule as the filler:
    // a fabric hiccup during locator construction must not abort a
    // restore the very next read would have served.
    let retry = manager.config().retry;
    let mut layouts = None;
    read_healed(
        backend,
        &retry,
        seq,
        &[META_RECORD],
        &mut Vec::new(),
        &mut |_, record| {
            layouts = record
                .map(|(record, _)| layout::decode(record))
                .transpose()?;
            Ok(ControlFlow::Continue(()))
        },
    )?;
    let layouts = layouts.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("checkpoint {seq} holds no layout record"),
        )
    })?;
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
    let write_protect = shared.tracker.as_ref();
    // An eager restore on write-protect protects its buffers at publish:
    // a write-protect now would give every 2 MiB range a page table.
    let protect = !matches!((door, write_protect), (Door::Eager, Some(_)));
    for l in &layouts {
        let buf = manager.alloc_region(&l.name, l.len_bytes as usize, protect)?;
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

    // Mark every image page that lands in a replayed buffer: fill state
    // UNFILLED, and under the lazy door registered for missing-page faults,
    // so any access traps and the handler knows to wait rather than treat
    // the trap as a tracked write. Image pages outside every layout
    // (allocation shrank before the crash) are unreachable and simply
    // skipped.
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
    // In address order, one syscall per contiguous run —
    // time-to-first-instruction must not scale with per-page syscalls.
    marked_addrs.sort_unstable();
    let runs = marked_addrs.iter().copied();
    match (door, write_protect) {
        (Door::Eager, Some(uffd)) => {
            let mut holes: Vec<usize> = Vec::new();
            for buf in &buffers {
                let addr = buf.as_ptr() as usize;
                ai_ckpt_mem::advise_huge_pages(addr, buf.pages() * page_bytes);
                holes.extend((0..buf.pages()).map(|i| addr + i * page_bytes));
            }
            holes.sort_unstable();
            holes.retain(|addr| marked_addrs.binary_search(addr).is_err());
            for_each_run(holes.into_iter(), page_bytes, |start, len| {
                uffd.write_protect(start, len)
            })?;
        }
        (Door::Eager, None) => {
            for buf in &buffers {
                ai_ckpt_mem::advise_huge_pages(buf.as_ptr() as usize, buf.pages() * page_bytes);
            }
            // SAFETY: registered pages of buffers we just allocated; nothing
            // can access them before this function returns.
            for_each_run(runs, page_bytes, |start, len| unsafe {
                ai_ckpt_mem::set_protection(start, len, Protection::ReadWrite)
            })?;
        }
        // Nothing has touched the buffers, so no marked page is present:
        // registering is all it takes.
        (Door::Lazy(uffd), Some(_)) => for_each_run(runs, page_bytes, |start, len| {
            uffd.register_write_protect(start, len, true)
        })?,
        (Door::Lazy(uffd), None) => for_each_run(runs, page_bytes, |start, len| {
            uffd.register_missing(start, len)
        })?,
    }
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

/// A restore read's visitor: each page of the run with what the backend
/// returned for it, answering whether the run goes on.
type Visit<'v> = dyn FnMut(u64, PageRead<'_>) -> io::Result<ControlFlow<()>> + 'v;

/// Read `pages` of `epoch` the way every restore read goes: never fail
/// while a redundant source survives. One [`StorageBackend::read_pages_at`]
/// reads the run, and its first failing page is attempt 1 of `retry`: a
/// transient fault backs off and reads that page again, a corrupt read asks
/// the backend to repair the epoch in place and then reads the healed bytes
/// once more, and the run goes on after the page. `visit` gets every page
/// in order until it breaks the run or fails.
fn read_healed(
    backend: &dyn StorageBackend,
    retry: &RetryPolicy,
    epoch: u64,
    pages: &[u64],
    buf: &mut Vec<u8>,
    visit: &mut Visit<'_>,
) -> io::Result<()> {
    let mut next = 0;
    while next < pages.len() {
        // The visitor's end of the run (`Ok` when it broke it), or the
        // backend's error on page `next`.
        let (mut ended, mut failed) = (None, None);
        backend.read_pages_at(epoch, &pages[next..], buf, &mut |page, got| {
            let got = match got {
                Ok(got) => got,
                Err(e) => {
                    failed = Some(e);
                    return ControlFlow::Break(());
                }
            };
            next += 1;
            match visit(page, got) {
                Ok(ControlFlow::Continue(())) => ControlFlow::Continue(()),
                end => {
                    ended = Some(end.map(drop));
                    ControlFlow::Break(())
                }
            }
        });
        if let Some(end) = ended {
            return end;
        }
        if next == pages.len() {
            break;
        }
        let page = pages[next];
        let mut first = Some(failed.unwrap_or_else(|| short_read(epoch, page)));
        let again = || {
            first
                .take()
                .map_or_else(|| read_one(backend, epoch, page, buf), Err)
        };
        let got = match retry.run(again) {
            Err(e) if classify(&e) == FaultClass::Corrupt => {
                backend.repair_epoch(epoch).map_err(|_| e)?;
                read_one(backend, epoch, page, buf)
            }
            other => other,
        }?;
        next += 1;
        if visit(page, got.as_ref().map(|(d, crc)| (&d[..], *crc)))?.is_break() {
            break;
        }
    }
    Ok(())
}

/// One page through [`StorageBackend::read_pages_at`] (a run of one),
/// owned: what a retry reads.
fn read_one(
    backend: &dyn StorageBackend,
    epoch: u64,
    page: u64,
    buf: &mut Vec<u8>,
) -> io::Result<Option<(Vec<u8>, Option<u64>)>> {
    let mut got = Err(short_read(epoch, page));
    backend.read_pages_at(epoch, &[page], buf, &mut |_, read| {
        got = read.map(|read| read.map(|(d, crc)| (d.to_vec(), crc)));
        ControlFlow::Break(())
    });
    got
}

/// A backend's run that ended, without an error, before visiting `page`.
fn short_read(epoch: u64, page: u64) -> io::Error {
    io::Error::other(format!("a read of epoch {epoch} ended before page {page}"))
}

/// Call `run(start, len)` once per address-contiguous run of `addrs`
/// (ascending page addresses), stopping at the first error.
fn for_each_run(
    addrs: impl Iterator<Item = usize>,
    page_bytes: usize,
    mut run: impl FnMut(usize, usize) -> io::Result<()>,
) -> io::Result<()> {
    let mut addrs = addrs.peekable();
    while let Some(start) = addrs.next() {
        let mut end = start + page_bytes;
        while addrs.next_if_eq(&end).is_some() {
            end += page_bytes;
        }
        run(start, end - start)?;
    }
    Ok(())
}

/// A lazy filler's write side: its newest address-contiguous run of sweep
/// fills, each payload zero-padded to its page — the same bytes as the
/// payload over a zero page — whose installation and publication are
/// deferred while each next fill extends the run, until the filler's
/// claimed slice of [`RUN_PAGES`] ends — so never more than one slice.
/// Publishing is one `UFFDIO_COPY` of the run, which makes its pages
/// present and write-protected in one step, then `FILLED` for each page and
/// one add to the shared counters. A fill's payload is copied once, into
/// the run.
///
/// Why defer: every publication is a syscall that takes the mmap lock for
/// reading, and a filler streaming a fast backend would issue one per page
/// — hundreds of thousands per second. Publishing a run at a time keeps
/// that to one per run; it needs no `mprotect` (the mmap lock for writing
/// and a TLB shootdown per call, which starve the application's own page
/// faults). A demand hint (posted by any waiter, including one stuck on a
/// still-pending `FILLING` page) publishes the run of the filler that pops
/// it immediately, and every other filler's at its next turn when the page
/// is theirs, so the worst extra wait is one in-flight storage read. An
/// eager restore has none of this: no caller holds a pointer into its
/// buffers before it returns, so its fillers hold nothing back — they copy
/// each fill in place, and the door publishes every page at once (see
/// [`Door::Eager`]).
struct PendingPublish<'a> {
    uffd: &'a Uffd,
    shared: &'a Shared,
    counters: &'a FillCounters,
    page_bytes: usize,
    /// (page id, payload bytes) of each page of the run, in address order.
    pages: Vec<(usize, u64)>,
    /// The run's pages, back to back.
    run: Vec<u8>,
    /// Address of the run's first page.
    run_at: usize,
    /// How many of `pages` the shared cache served, and their bytes.
    cached: (u64, u64),
}

/// What every page of `order` is: a page the locator resolved.
const MARKED: &str = "only image pages are marked for fill";

/// The entries of `order` a filler claims at a time (256 KiB of 4 KiB
/// pages), and so the most pages one run read carries.
const RUN_PAGES: usize = 64;

impl<'a> PendingPublish<'a> {
    fn new(uffd: &'a Uffd, shared: &'a Shared, counters: &'a FillCounters) -> Self {
        let page_bytes = shared.page_bytes;
        Self {
            uffd,
            shared,
            counters,
            page_bytes,
            pages: Vec::with_capacity(RUN_PAGES),
            run: Vec::with_capacity(RUN_PAGES * page_bytes),
            run_at: 0,
            cached: (0, 0),
        }
    }

    /// Hold back the fill of page `idx` at `addr`, publishing the run
    /// first when `addr` does not directly follow it.
    fn push(
        &mut self,
        (idx, addr): (usize, usize),
        payload: &[u8],
        cached: bool,
    ) -> io::Result<()> {
        if !self.pages.is_empty() && self.run_at + self.run.len() != addr {
            self.publish(&self.counters.prefetched_pages)?;
        }
        if self.pages.is_empty() {
            self.run_at = addr;
        }
        self.run.extend_from_slice(payload);
        self.run
            .resize(self.run.len() + self.page_bytes - payload.len(), 0);
        let len = payload.len() as u64;
        self.pages.push((idx, len));
        if cached {
            self.cached = (self.cached.0 + 1, self.cached.1 + len);
        }
        Ok(())
    }

    /// Install the run with one copy, mark its pages `FILLED`, and add them
    /// to `count` (prefetched or demanded) and the byte counters — once per
    /// publication, not per page.
    fn publish(&mut self, count: &AtomicU64) -> io::Result<()> {
        if self.pages.is_empty() {
            return Ok(());
        }
        // Every page of the run is FILLING, which pins its address against
        // its buffer's teardown, and no other thread installs it. On
        // write-protect it lands tracked.
        let write_protect = self.shared.tracker.is_some();
        self.uffd.copy(self.run_at, &self.run, write_protect)?;
        self.run.clear();
        let mut bytes = 0;
        for &(idx, len) in &self.pages {
            self.shared.lazy_finish_fill(idx);
            bytes += len;
        }
        let counters = self.counters;
        count.fetch_add(self.pages.len() as u64, Ordering::Relaxed);
        counters.bytes_filled.fetch_add(bytes, Ordering::Relaxed);
        if self.cached.0 > 0 {
            counters
                .pages_from_cache
                .fetch_add(self.cached.0, Ordering::Relaxed);
            counters
                .bytes_from_cache
                .fetch_add(self.cached.1, Ordering::Relaxed);
        }
        self.pages.clear();
        self.cached = (0, 0);
        Ok(())
    }
}

/// Where one filler's payloads come from: the backend, through the shared
/// [`PageCache`] when the restore has one, and the scratch buffer its run
/// reads reuse (the filler's own, freed with it).
struct Source<'a> {
    backend: &'a dyn StorageBackend,
    cache: Option<&'a PageCache>,
    retry: &'a RetryPolicy,
    /// The cache namespace: the checkpoint being restored.
    ns: u64,
    /// No payload is longer than a page: a longer one would be written
    /// past its page, into whatever mapping follows.
    page_bytes: usize,
    buf: Vec<u8>,
}

impl Source<'_> {
    /// Read `pages` of `epoch` and visit each with its payload, its record
    /// CRC when the backend reported one, and whether the cache served it,
    /// until the visitor breaks the run. Without a cache the pages are one
    /// [`read_healed`] run; with one, each page is a lookup and a miss
    /// reads it as a run of one, so N concurrent restores read it once. A
    /// page the epoch lacks, or one longer than a page, fails the read.
    fn read(
        &mut self,
        epoch: u64,
        pages: &[u64],
        mut visit: impl FnMut(u64, &[u8], Option<u64>, bool) -> io::Result<ControlFlow<()>>,
    ) -> io::Result<()> {
        let Source {
            backend,
            cache,
            retry,
            ns,
            page_bytes,
            buf,
        } = self;
        let page_bytes = *page_bytes;
        let Some(cache) = cache else {
            return read_healed(*backend, retry, epoch, pages, buf, &mut |page, got| {
                let (payload, crc) = fits(epoch, page, got, page_bytes)?;
                visit(page, payload, crc, false)
            });
        };
        for &page in pages {
            // `Some(crc)` once this lookup read the page itself. Errors
            // never enter the cache (failed fills are not memoised), so a
            // later retry re-reads storage.
            let mut loaded = None;
            let payload = cache.get_or_load(*ns, page, || {
                let mut got = None;
                read_healed(*backend, retry, epoch, &[page], buf, &mut |_, read| {
                    let (d, crc) = fits(epoch, page, read, page_bytes)?;
                    got = Some((Arc::<[u8]>::from(d), crc));
                    Ok(ControlFlow::Continue(()))
                })?;
                loaded = Some(got.as_ref().and_then(|&(_, crc)| crc));
                Ok(got.map(|(d, _)| d))
            })?;
            let (payload, _) = fits(
                epoch,
                page,
                payload.as_deref().map(|d| (d, None)),
                page_bytes,
            )?;
            if visit(page, payload, loaded.flatten(), loaded.is_none())?.is_break() {
                break;
            }
        }
        Ok(())
    }
}

/// What a restore read holds for `page` of `epoch`: its payload and CRC,
/// if the epoch has the page and its payload fits in `page_bytes`.
fn fits(
    epoch: u64,
    page: u64,
    got: PageRead<'_>,
    page_bytes: usize,
) -> io::Result<(&[u8], Option<u64>)> {
    let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
    match got {
        None => Err(invalid(format!("page {page} vanished from epoch {epoch}"))),
        Some((payload, _)) if payload.len() > page_bytes => Err(invalid(format!(
            "page {page} in epoch {epoch} holds {} bytes, more than a page ({page_bytes})",
            payload.len()
        ))),
        Some(read) => Ok(read),
    }
}

/// One filler's write side: where fills land, what it holds back, and its
/// place at the demand ring.
struct Filler<'a> {
    shared: &'a Shared,
    filter: Option<&'a ContentFilter>,
    plan: &'a FillPlan,
    page_bytes: usize,
    /// What a lazy filler holds back; `None` under an eager restore, whose
    /// fills land in place and take no hint.
    pending: Option<PendingPublish<'a>>,
    /// `plan.publish_requests` as of this filler's last look.
    asked: u64,
    /// A demand hint popped mid-run, served as soon as the run stops.
    hint: Option<u64>,
}

impl Filler<'_> {
    /// One turn at the demand ring, taken before every run and after every
    /// page of one: a lazy filler pops a hint unless one is held, and
    /// publishes when a hint came or another filler asked for it (an eager
    /// one holds nothing back and takes no hint). A held hint and a stopped
    /// restore break the run.
    fn turn(&mut self) -> io::Result<ControlFlow<()>> {
        if self.pending.is_some() {
            // A hint flushes the held run: the waiter may be blocked on a
            // page that is read but not yet installed or published.
            let hinted = self.hint.is_none() && {
                self.hint = self.shared.lazy_next_demand(&self.plan.demand_tail);
                self.hint.is_some()
            };
            let requests = self.plan.publish_requests.load(Ordering::Acquire);
            if hinted || requests != self.asked {
                self.asked = requests;
                self.publish()?;
            }
        }
        if self.hint.is_some() || self.plan.stop.load(Ordering::Acquire) {
            return Ok(ControlFlow::Break(()));
        }
        Ok(ControlFlow::Continue(()))
    }

    fn publish(&mut self) -> io::Result<()> {
        match &mut self.pending {
            Some(pending) => pending.publish(&self.plan.counters.prefetched_pages),
            None => Ok(()),
        }
    }

    /// Seed the content filter with the digest of the page *as it now
    /// reads*: the payload, zero-padded to the page (payloads from the
    /// runtime are always page-sized; padding only matters for
    /// hand-written epochs). A record CRC over a whole page is that digest
    /// already.
    fn seed_digest(&self, page: u64, payload: &[u8], crc: Option<u64>) {
        let Some(filter) = self.filter else { return };
        let digest = match crc {
            Some(crc) if payload.len() == self.page_bytes => crc,
            _ if payload.len() == self.page_bytes => crc64(payload),
            _ => {
                let mut whole = vec![0u8; self.page_bytes];
                whole[..payload.len()].copy_from_slice(payload);
                crc64(&whole)
            }
        };
        filter.set(page, digest);
    }

    /// A sweep page, read: claim it — a page is anyone's until it is read,
    /// so a demand for it is served by whoever pops the hint rather than
    /// after this run — hold its fill back, and take a turn.
    fn sweep(
        &mut self,
        page: u64,
        payload: &[u8],
        crc: Option<u64>,
        cached: bool,
    ) -> io::Result<ControlFlow<()>> {
        let idx = page as usize;
        if self.shared.lazy_begin_fill(idx) {
            // `begin_fill` won the page, so its buffer teardown (which
            // resolves fill states *before* clearing addresses) is blocked
            // on our FILLING state: the address stays valid until
            // `lazy_finish_fill`.
            let addr = self.shared.page_addr[idx].load(Ordering::Acquire);
            debug_assert_ne!(addr, 0, "FILLING pins the page's registration");
            self.seed_digest(page, payload, crc);
            match &mut self.pending {
                Some(pending) => pending.push((idx, addr), payload, cached)?,
                // SAFETY: an eager restore's page, made writable by
                // `prepare` and held FILLING by this filler. No other thread
                // reads or writes it, or changes its protection, before the
                // door publishes it: no caller holds a pointer into an eager
                // restore's buffers before it returns, and `checkpoint()`
                // (the one protection change of live regions) waits at the lazy drain
                // barrier while any page is unfilled. `fits` bounds the
                // payload to the page.
                None => unsafe {
                    std::ptr::copy_nonoverlapping(payload.as_ptr(), addr as *mut u8, payload.len())
                },
            }
        }
        self.turn()
    }

    /// A demanded page, claimed (`FILLING`) at `addr` before its read: a
    /// thread is spinning on it right now, so install and publish it alone,
    /// at once — a one-page copy (its hint already published the run).
    /// Lazy only: an eager filler takes no hint.
    fn demanded(
        &mut self,
        at: (usize, usize),
        payload: &[u8],
        crc: Option<u64>,
        cached: bool,
    ) -> io::Result<ControlFlow<()>> {
        self.seed_digest(at.0 as u64, payload, crc);
        let pending = self
            .pending
            .as_mut()
            .expect("only a lazy filler takes hints");
        pending.push(at, payload, cached)?;
        pending.publish(&self.plan.counters.demanded_pages)?;
        Ok(ControlFlow::Continue(()))
    }
}

/// Run the fill on `plan.fillers` fillers: this thread and the rest on
/// scoped threads, all sharing the plan, installing through `uffd` under
/// the lazy door (`None`: the eager door, in place). Once every filler has
/// stopped, poisons whatever is still owed if one failed or the restore was
/// stopped — silent zeroes are not an option, and a waiter must not hang.
/// Returns the first error.
fn fill(
    ctl: &Ctl,
    backend: &dyn StorageBackend,
    cache: Option<&PageCache>,
    plan: &FillPlan,
    uffd: Option<&Uffd>,
) -> io::Result<()> {
    let run = || filler_loop(ctl, backend, cache, plan, uffd);
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
        // This filler's panic fails the fill like a helper's: unwinding past
        // the poison below would leave a page `FILLING` for ever.
        result =
            result.and(catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Err(panicked())));
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
/// prefetch order, one run per stretch of a slice that one epoch holds.
/// Runs until the whole order is claimed and its own fills are published,
/// `stop` is raised, or storage fails (then it raises `stop`, so the other
/// fillers wind down, and [`fill`] poisons what is owed). A lazy restore's
/// fillers publish each run of sweep fills, at most the slice of
/// [`RUN_PAGES`] it came from, with one copy through `uffd` (see
/// [`PendingPublish`]); an eager one's publish nothing (see [`Door::Eager`]).
///
/// Faults on the payload-read path follow the error taxonomy (see
/// [`read_healed`]): transient errors retry with bounded backoff, a corrupt
/// read triggers `repair_epoch` on the backend (replica/parity/policy
/// wrappers self-heal in place) and one final read, and only a permanent
/// fault — or damage with no surviving redundant source — fails the fill.
fn filler_loop(
    ctl: &Ctl,
    backend: &dyn StorageBackend,
    cache: Option<&PageCache>,
    plan: &FillPlan,
    uffd: Option<&Uffd>,
) -> io::Result<()> {
    // Checkpointing-machinery exemption, same as the committer threads: the
    // filler's allocations must never route into protected regions. Put
    // back on exit — an eager restore runs on an application thread.
    let was_exempt = ai_ckpt_mem::alloc::thread_exempt();
    ai_ckpt_mem::alloc::exempt_thread_from_tracking(true);
    let shared = &*ctl.shared;
    let result = (|| -> io::Result<()> {
        let mut source = Source {
            backend,
            cache,
            retry: &plan.retry,
            ns: plan.locator.checkpoint(),
            page_bytes: shared.page_bytes,
            buf: Vec::new(),
        };
        let mut filler = Filler {
            shared,
            filter: ctl.filter.as_ref(),
            plan,
            page_bytes: shared.page_bytes,
            pending: uffd.map(|uffd| PendingPublish::new(uffd, shared, &plan.counters)),
            asked: plan.publish_requests.load(Ordering::Acquire),
            hint: None,
        };
        let mut mine = 0..0;
        loop {
            if plan.stop.load(Ordering::Acquire) {
                // Publish what is already read — strictly fewer pages for
                // the abort path to poison.
                return filler.publish();
            }
            // Demand hints outrank the sweep: a hinted page has an
            // application thread spinning on it right now.
            let _ = filler.turn()?;
            if let Some(page) = filler.hint.take() {
                let idx = page as usize;
                if !shared.lazy_begin_fill(idx) {
                    // Already filled, or its buffer went away — or another
                    // filler holds it read but unpublished while a thread
                    // waits on it: have every filler publish now.
                    if shared.lazy_filling(idx) {
                        plan.publish_requests.fetch_add(1, Ordering::AcqRel);
                    }
                    continue;
                }
                let at = (idx, shared.page_addr[idx].load(Ordering::Acquire));
                let epoch = plan.locator.epoch_of(page).expect(MARKED);
                source.read(epoch, &[page], |_, payload, crc, cached| {
                    filler.demanded(at, payload, crc, cached)
                })?;
                continue;
            }
            // Order exhausted: every page is claimed, and a page another
            // filler still holds is in its slice or batch, which it fills
            // and publishes before it stops (and serves any hint for it
            // meanwhile).
            let Some((epoch, run)) = plan.next_run(&mut mine) else {
                return filler.publish();
            };
            let mut read = 0;
            source.read(epoch, run, |page, payload, crc, cached| {
                read += 1;
                filler.sweep(page, payload, crc, cached)
            })?;
            mine.start += read;
            if mine.is_empty() {
                filler.publish()?;
            }
        }
    })();
    if result.is_err() {
        plan.stop.store(true, Ordering::Release);
    }
    ai_ckpt_mem::alloc::exempt_thread_from_tracking(was_exempt);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkptConfig;
    use ai_ckpt_storage::{CheckpointImage, MemoryBackend};

    #[test]
    fn without_userfaultfd_the_lazy_door_restores_eagerly_and_complete() {
        let ps = ai_ckpt_mem::page_size();
        let cfg = CkptConfig::ai_ckpt(1 << 20)
            .with_max_pages(512)
            .with_committer_streams(2);
        let (backend, view) = MemoryBackend::shared();
        {
            // Two fillers' worth of pages, every fifth one never written.
            let mgr = PageManager::new(cfg.clone(), Box::new(backend)).unwrap();
            let mut buf = mgr.alloc_protected_named("w", 200 * ps).unwrap();
            for (i, page) in buf.as_mut_slice().chunks_mut(ps).enumerate() {
                if i % 5 != 0 {
                    page.fill(i as u8);
                }
            }
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
        }
        let backend: Arc<dyn StorageBackend> = Arc::new(view);
        let image = CheckpointImage::load(backend.as_ref(), 1).unwrap();
        let mgr = PageManager::with_shared_backend(cfg, Arc::clone(&backend)).unwrap();

        let mut lr = restore_lazy_eagerly(&mgr, backend.as_ref(), 1, None).unwrap();
        assert!(lr.is_complete(), "the eager door returns every page filled");
        let zeros = vec![0u8; ps];
        let buf = &lr.state.buffers[0];
        for (i, got) in buf.as_slice().chunks(ps).enumerate() {
            let want = image.page((buf.base_page() + i) as u64).unwrap_or(&zeros);
            assert_eq!(got, want, "page {i}");
        }
        let stats = lr.wait().unwrap();
        assert_eq!(stats.zero_pages, 40);
        assert!(lr.wait().is_ok(), "wait stays Ok");
        // Nothing is owed, and restored pages are clean: a checkpoint right
        // after has nothing to write.
        assert_eq!(mgr.checkpoint().unwrap().scheduled_pages, 0);
        mgr.wait_checkpoint().unwrap();
    }
}
