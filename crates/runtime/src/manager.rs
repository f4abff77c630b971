//! The page manager: "the central actor of our approach" (§3.2), tying the
//! deterministic engine to real memory protection and a storage backend.
//! It owns no threads: every manager is a tenant of a
//! [`FlushPool`](crate::attach) — private to it, or shared with other
//! managers — whose workers run the batch-flush hot path defined here.
//!
//! The paper's two concurrent modules (§3.3), generalised to N workers:
//!
//! * **Application threads** run `PROTECTED_PAGE_HANDLER` inside the fault
//!   handler (`fault_entry`): they take the engine spin lock briefly, may
//!   copy a page into a CoW slot under it, may spin-wait (lock-free, on the
//!   shared [`StateTable`]) until a flush worker processes their page,
//!   then lift the page's write protection and retry the faulting
//!   instruction. Every handler entry's latency lands in the write-stall
//!   histogram ([`RuntimeStats::write_stall`]).
//! * **The pool's flush workers** run `ASYNC_COMMIT`: each claims a
//!   *batch* of pages under the engine lock
//!   ([`EpochEngine::select_batch`], built on `FlushPlan::next_batch`) and
//!   does everything else *outside* it (`flush_one_batch`) — payload bytes
//!   are handed to the backend **zero-copy** (batch slices point straight at
//!   application page memory and the shared CoW slot store; the file
//!   backend builds iovecs over them, so page bytes cross no intermediate
//!   buffer between the application and the kernel), clean-dirty digests
//!   probe a page-id-sharded table, storage I/O goes through a shared
//!   per-epoch [`EpochWriter`] session, and completed pages are published
//!   `PAGE_PROCESSED` straight through the lock-free [`StateTable`] (one
//!   atomic store per page, waking `MustWait` writers immediately). The
//!   engine lock is re-taken only once per sub-batch, to reconcile slot
//!   and pending counters ([`EpochEngine::complete_published`]). Whichever
//!   worker sees the drain complete commits the epoch atomically
//!   (`finalize_flush`: `finish`, then merge each slot's private
//!   digest-update buffer into the sharded filter table) or aborts it if
//!   any claim failed — a failed claim never leaves a partially visible
//!   epoch.
//! * **`CHECKPOINT`** (any application thread) waits for the previous
//!   checkpoint, rolls the epoch under the engine lock, re-protects every
//!   region, and hands the begun epoch to the pool (async mode) or waits
//!   for it (sync mode).
//!
//! Lock domains (see DESIGN.md §4 for the full inventory): the engine spin
//! lock guards scheduling state only (plan cursor, slot *accounting*, epoch
//! bookkeeping); page states, page addresses, CoW slot *bytes* and the
//! stall histogram are atomics or ownership-protected shared memory; the
//! digest table is sharded by page id; per-stream buffers need no
//! synchronisation at all. The steady-state flush path performs **zero**
//! engine-lock acquisitions for payload staging or digest filtering —
//! debug builds assert this with a per-thread lock-acquisition counter.
//!
//! Lock ordering: `regions` → `engine`. The engine lock is the only lock
//! touched by the fault handler; nothing allocates while holding it.
//!
//! ## How a first write traps
//!
//! Each manager opens one userfaultfd for write-protect
//! ([`Uffd::open_write_protect`]) and keeps it for its life. A region is a
//! read-write mapping registered with it; `alloc_protected` and every
//! `CHECKPOINT` write-protect each region with one `UFFDIO_WRITEPROTECT`,
//! and a first write raises `SIGBUS`. The handler records the write, then
//! lifts just that page with one more ioctl: protection lives in the page
//! tables, so a region stays one mapping whatever order its pages are
//! written in, and no write pattern can run the process into
//! `vm.max_map_count`.
//!
//! Where that descriptor does not open (`ENOSYS`, `EPERM` under seccomp,
//! a kernel before 6.4), the manager tracks as the paper does: the region
//! is `mprotect`ed `PROT_READ`, a first write raises `SIGSEGV`, and the
//! handler `mprotect`s the page writable — which splits the mapping around
//! it. Two things keep that path alive at any scale: each region is
//! written once before its first protect, so all its pieces share one
//! `anon_vma` and merge back at every checkpoint; and a lift that fails for
//! want of mappings (`ENOMEM`) lifts the page's 2 MiB block, then the whole
//! region, recording every page of it as written (`on_write` each: CoW,
//! wait or nothing, by its state) — a lift over pieces merges them and
//! needs no new mapping. The path is chosen from what the descriptor's
//! open returns, nothing else (tests reach the fallback through
//! [`with_mprotect_tracking`]).
//!
//! ## Caller contract (same as the paper's)
//!
//! `CHECKPOINT` must not race with writes to protected memory from *other*
//! threads of the same rank: the paper's MPI model has one writer per
//! process that itself calls `CHECKPOINT` at iteration boundaries.
//! Concurrent writers between checkpoints are fine (the handler is
//! thread-safe); only the request itself must be quiesced.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use ai_ckpt_core::{
    CheckpointPlanInfo, CowSlotStore, EngineConfig, EpochEngine, FlushItem, FlushSource,
    LatencyHistogram, PageId, PageState, SpinGuard, SpinLock, StateTable, WriteOutcome,
};
use ai_ckpt_mem::{page_size, registry, sigsegv, MappedRegion, Protection, RegionHit, Uffd};
use ai_ckpt_storage::{crc64, EpochWriter, Scrubber, StorageBackend, META_RECORD};

use crate::attach::{FlushPool, PoolInner, Tenant};
use crate::config::{CkptConfig, CkptMode};
use crate::layout::{self, BufferLayout};
use crate::stats::{CheckpointRecord, RuntimeStats};

/// Per-page fill states of the demand-paged restore path (values of
/// [`Shared::fill`]). Transitions are CAS-only (except the initial mark and
/// the filler's terminal store), so the fault handler, the filler thread and
/// `ProtectedBuffer::drop` can race without ever losing a page:
///
/// ```text
/// NOT_LAZY ──mark──▶ UNFILLED ──fault──▶ DEMANDED
///                        │                   │
///                        └──────filler───────┴─▶ FILLING ─▶ FILLED
///                                 (error/abort paths: ─▶ POISONED)
/// ```
pub(crate) mod fill {
    /// Page is not under lazy restore (the steady-state value).
    pub const NOT_LAZY: u8 = 0;
    /// Content pending; the page is not present in a range registered for
    /// missing-page faults (any access raises `SIGBUS` — on the `mprotect`
    /// fallback a write to its read-only page raises `SIGSEGV` first), and
    /// nobody asked for it yet.
    pub const UNFILLED: u8 = 1;
    /// A fault hit the page; its id sits in the demand ring.
    pub const DEMANDED: u8 = 2;
    /// The filler is writing the page's bytes right now.
    pub const FILLING: u8 = 3;
    /// Content present and write-protected: normal tracking applies.
    pub const FILLED: u8 = 4;
    /// The restore died before this page, which is `PROT_NONE`; any access
    /// is a real fault.
    pub const POISONED: u8 = 5;
}

/// Demand-ring capacity. Overflow only loses *priority hints* — the
/// prefetch sweep still fills every page — so a modest fixed size suffices.
const DEMAND_RING_SLOTS: usize = 1024;

/// The `mprotect` fallback's first escalation when lifting one page runs
/// out of mappings: the page's aligned block of this many pages (2 MiB of
/// 4 KiB pages) within its region.
const LIFT_BLOCK_PAGES: usize = 512;

thread_local! {
    /// Set by [`with_mprotect_tracking`] while its closure runs.
    static MPROTECT_TRACKING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with every manager it builds on this thread tracking writes with
/// `mprotect` + `SIGSEGV`, the path a host without userfaultfd
/// write-protect takes, so that tests reach it where write-protect opens.
#[doc(hidden)]
pub fn with_mprotect_tracking<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            MPROTECT_TRACKING.set(self.0);
        }
    }
    let _reset = Reset(MPROTECT_TRACKING.replace(true));
    f()
}

/// State reachable from the SIGSEGV handler. Lives behind an `Arc` whose
/// address is the registry token, so the handler can reach it without any
/// global lookup table.
pub(crate) struct Shared {
    pub(crate) engine: SpinLock<EpochEngine>,
    /// Lock-free view of page states for blocked writers.
    pub(crate) states: Arc<StateTable>,
    /// CoW slab byte store, readable by committer streams *without* the
    /// engine lock under the slot-ownership rule (see
    /// [`CowSlotStore`]): a claimed slot belongs to exactly one stream
    /// until that stream completes the flush.
    pub(crate) slab_store: Arc<CowSlotStore>,
    pub(crate) page_bytes: usize,
    /// Global page id -> page base address (0 = unregistered). Written at
    /// buffer allocation, read by the committer.
    pub(crate) page_addr: Box<[AtomicUsize]>,
    /// Application write-stall distribution: entry-to-exit latency of every
    /// protected-write fault (lock-free; recorded from the SIGSEGV
    /// handler). The paper's interference metric as a histogram.
    pub(crate) stall: LatencyHistogram,
    /// Total engine-lock acquisitions (all threads; relaxed counter).
    pub(crate) engine_locks: AtomicU64,
    /// Per-page demand-paged-restore fill state (see [`fill`]); all
    /// `NOT_LAZY` outside an active lazy restore.
    pub(crate) fill: Box<[AtomicU8]>,
    /// Pages marked for lazy restore whose fill has not *succeeded* yet
    /// (states `UNFILLED`/`DEMANDED`/`FILLING`/`POISONED`). `CHECKPOINT`
    /// drains this to zero before snapshotting an epoch.
    pub(crate) lazy_unfilled: AtomicU64,
    /// Set when a lazy restore died leaving `POISONED` pages behind.
    pub(crate) lazy_poisoned: AtomicBool,
    /// Demand faults taken on not-yet-filled pages (cumulative; a restore
    /// snapshots a baseline to report per-restore numbers).
    pub(crate) lazy_demand_faults: AtomicU64,
    /// Fault-to-filler priority hints: slots hold `page + 1` (0 = empty),
    /// written at `demand_head % len` by the handler, consumed through the
    /// tail the restore's fillers share. Purely advisory — see
    /// [`DEMAND_RING_SLOTS`].
    pub(crate) demand_ring: Box<[AtomicU64]>,
    /// Next demand-ring write position (monotonic; wraps via modulo).
    pub(crate) demand_head: AtomicUsize,
    /// The userfaultfd every region is registered and write-protected with;
    /// `None` on the `mprotect` fallback (see the module docs). A lazy
    /// restore lands its fills through it too.
    pub(crate) tracker: Option<Uffd>,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Engine-lock acquisitions by *this* thread, via [`Shared::engine`].
    /// Debug-build proof harness: the committer's staging/digest sections
    /// assert this counter does not move while they run, i.e. the payload
    /// path is engine-lock-free. (`fault_entry` bypasses `Shared::engine`
    /// and this TLS — no thread-local access from signal context.)
    static ENGINE_LOCKS_BY_THREAD: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Engine-lock acquisitions performed by the calling thread so far
/// (debug builds only; see [`ENGINE_LOCKS_BY_THREAD`]).
#[cfg(debug_assertions)]
pub(crate) fn engine_locks_by_this_thread() -> u64 {
    ENGINE_LOCKS_BY_THREAD.with(|c| c.get())
}

impl Shared {
    /// Acquire the engine lock, counting the acquisition (process-wide
    /// always; per-thread in debug builds). Every normal-context lock
    /// acquisition goes through here; the SIGSEGV handler uses
    /// [`Shared::engine_from_handler`] instead (no TLS in signal context).
    #[inline]
    pub(crate) fn engine(&self) -> SpinGuard<'_, EpochEngine> {
        self.engine_locks.fetch_add(1, Ordering::Relaxed);
        #[cfg(debug_assertions)]
        ENGINE_LOCKS_BY_THREAD.with(|c| c.set(c.get() + 1));
        self.engine.lock()
    }

    /// [`Shared::engine`] for the fault handler: counts the process-wide
    /// total only (atomics are async-signal-safe; thread-locals are not
    /// guaranteed to be).
    #[inline]
    fn engine_from_handler(&self) -> SpinGuard<'_, EpochEngine> {
        self.engine_locks.fetch_add(1, Ordering::Relaxed);
        self.engine.lock()
    }

    /// Put `page` under lazy restore: content pending, any access must wait
    /// for the filler. Caller contract (restore): before the first
    /// application access can happen, every access to the page traps — it
    /// is not present and registered for missing-page faults (an eager
    /// restore's pages are reachable by no application thread until the
    /// door returns).
    pub(crate) fn lazy_mark_unfilled(&self, page: usize) {
        self.lazy_unfilled.fetch_add(1, Ordering::AcqRel);
        self.fill[page].store(fill::UNFILLED, Ordering::Release);
    }

    /// Filler: claim `page` for filling. `false` means the page no longer
    /// needs work (already filled, or its buffer was dropped).
    pub(crate) fn lazy_begin_fill(&self, page: usize) -> bool {
        loop {
            let cur = self.fill[page].load(Ordering::Acquire);
            match cur {
                fill::UNFILLED | fill::DEMANDED => {
                    if self.fill[page]
                        .compare_exchange(cur, fill::FILLING, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return true;
                    }
                }
                _ => return false,
            }
        }
    }

    /// Filler: publish `page` as filled (content written and
    /// write-protected) and retire it from the unfilled count. Blocked
    /// faulting threads wake on this store.
    pub(crate) fn lazy_finish_fill(&self, page: usize) {
        debug_assert_eq!(self.fill[page].load(Ordering::Acquire), fill::FILLING);
        self.fill[page].store(fill::FILLED, Ordering::Release);
        self.lazy_unfilled.fetch_sub(1, Ordering::AcqRel);
    }

    /// Filler (error/abort paths): poison `page` — the restore will never
    /// deliver its content. Accessors get a genuine SIGSEGV; `CHECKPOINT`
    /// refuses to run. The page stays in the unfilled count until its
    /// buffer drops.
    pub(crate) fn lazy_poison(&self, page: usize) {
        loop {
            let cur = self.fill[page].load(Ordering::Acquire);
            match cur {
                fill::UNFILLED | fill::DEMANDED | fill::FILLING => {
                    if self.fill[page]
                        .compare_exchange(cur, fill::POISONED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.lazy_poisoned.store(true, Ordering::Release);
                        return;
                    }
                }
                _ => return,
            }
        }
    }

    /// Filler: pop the next demand hint, if any. `tail` is the read cursor
    /// every filler of one restore shares: a filler owns the slot it
    /// advances the cursor past and consumes it by swapping it back to 0.
    pub(crate) fn lazy_next_demand(&self, tail: &AtomicUsize) -> Option<u64> {
        loop {
            let t = tail.load(Ordering::Acquire);
            let slot = &self.demand_ring[t % self.demand_ring.len()];
            if slot.load(Ordering::Acquire) == 0 {
                return None;
            }
            if tail
                .compare_exchange(t, t + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                match slot.swap(0, Ordering::AcqRel) {
                    0 => continue,
                    v => return Some(v - 1),
                }
            }
        }
    }

    /// Whether a filler holds `page` right now (read, not yet published).
    pub(crate) fn lazy_filling(&self, page: usize) -> bool {
        self.fill[page].load(Ordering::Acquire) == fill::FILLING
    }

    /// Write-protect `[addr, addr + len)` of a registered region: the next
    /// write to each page is a tracked first write. One
    /// `UFFDIO_WRITEPROTECT`, or one `mprotect(PROT_READ)` on the fallback.
    pub(crate) fn protect(&self, addr: usize, len: usize) -> io::Result<()> {
        match &self.tracker {
            Some(uffd) => uffd.write_protect(addr, len),
            // SAFETY: a page-aligned range of a region this manager owns;
            // the fault handler is installed.
            None => unsafe { ai_ckpt_mem::set_protection(addr, len, Protection::ReadOnly) },
        }
    }
}

/// Committer/manager shared control block.
pub(crate) struct Ctl {
    pub(crate) shared: Arc<Shared>,
    pub(crate) status: Mutex<Status>,
    pub(crate) done: Condvar,
    /// Per-checkpoint records behind an `Arc` so
    /// [`PageManager::stats`] can snapshot them O(1) under the lock and
    /// clone outside it; writers use `Arc::make_mut` (copy-on-write only
    /// while a reader still holds a snapshot).
    pub(crate) stats: Mutex<Arc<Vec<CheckpointRecord>>>,
    /// Clean-dirty filtering state; `None` when
    /// `CkptConfig::content_filter` is off.
    pub(crate) filter: Option<ContentFilter>,
    /// The pool draining this manager and the id it knows the manager by:
    /// how a buffer drop that ends a checkpoint reaches the finaliser.
    pub(crate) pool: Arc<PoolInner>,
    pub(crate) tenant: u64,
}

/// Per-page CRC-64 digests of the last *committed* payload version.
/// `present` distinguishes "never committed" from a digest that happens to
/// be any particular value.
pub(crate) struct DigestTable {
    present: Box<[bool]>,
    digest: Box<[u64]>,
}

impl DigestTable {
    fn new(pages: usize) -> Self {
        Self {
            present: vec![false; pages].into_boxed_slice(),
            digest: vec![0u64; pages].into_boxed_slice(),
        }
    }

    fn matches(&self, idx: usize, digest: u64) -> bool {
        self.present[idx] && self.digest[idx] == digest
    }

    fn set(&mut self, idx: usize, digest: u64) {
        self.present[idx] = true;
        self.digest[idx] = digest;
    }

    fn forget(&mut self, idx: usize) {
        self.present[idx] = false;
    }
}

/// Number of digest-table shards. Page `p` lives in shard
/// `p % DIGEST_SHARDS` at local index `p / DIGEST_SHARDS`, so consecutive
/// pages of one claimed run spread across shards and concurrent streams
/// rarely meet on a shard lock.
pub(crate) const DIGEST_SHARDS: usize = 16;

/// Content-filter state: the page-id-sharded digest table plus skip
/// accounting. There is deliberately no table-wide lock: the flush hot path
/// takes one shard lock per digest probe (uncontended in steady state),
/// never a global one.
///
/// Lifecycle: flush workers *read* the shards to drop clean-dirty pages
/// and stage `(page, digest)` updates in private per-slot buffers
/// ([`FlushJob::digest_updates`]); the finaliser merges the buffers into
/// the shards only after the epoch's `finish` succeeded — an aborted epoch
/// must leave the table describing what storage still holds. Restore seeds
/// the table page by page as it fills (`restore::filler_loop`).
pub(crate) struct ContentFilter {
    shards: Box<[Mutex<DigestTable>]>,
    skipped_pages: AtomicU64,
    skipped_bytes: AtomicU64,
}

impl ContentFilter {
    fn new(pages: usize) -> Self {
        let per_shard = pages.div_ceil(DIGEST_SHARDS);
        Self {
            shards: (0..DIGEST_SHARDS)
                .map(|_| Mutex::new(DigestTable::new(per_shard)))
                .collect(),
            skipped_pages: AtomicU64::new(0),
            skipped_bytes: AtomicU64::new(0),
        }
    }

    /// True when `page`'s last committed payload had this digest.
    fn matches(&self, page: u64, digest: u64) -> bool {
        let shard = page as usize % DIGEST_SHARDS;
        self.shards[shard]
            .lock()
            .matches(page as usize / DIGEST_SHARDS, digest)
    }

    /// Record `page`'s committed payload digest.
    pub(crate) fn set(&self, page: u64, digest: u64) {
        let shard = page as usize % DIGEST_SHARDS;
        self.shards[shard]
            .lock()
            .set(page as usize / DIGEST_SHARDS, digest);
    }

    /// Forget `page`'s digest: storage no longer holds the payload it
    /// describes.
    fn forget(&self, page: u64) {
        let shard = page as usize % DIGEST_SHARDS;
        self.shards[shard]
            .lock()
            .forget(page as usize / DIGEST_SHARDS);
    }

    /// `(pages, bytes)` skipped as clean-dirty across committed epochs.
    pub(crate) fn skipped(&self) -> (u64, u64) {
        (
            self.skipped_pages.load(Ordering::Relaxed),
            self.skipped_bytes.load(Ordering::Relaxed),
        )
    }
}

#[derive(Default)]
pub(crate) struct Status {
    pub(crate) busy: bool,
    pub(crate) failed: Option<String>,
}

/// Registered-region bookkeeping (the MappedRegion itself is owned by the
/// [`ProtectedBuffer`](crate::ProtectedBuffer)).
pub(crate) struct RegionEntry {
    pub(crate) addr: usize,
    pub(crate) len: usize,
    pub(crate) base_page: usize,
    pub(crate) pages: usize,
    pub(crate) len_bytes: usize,
    pub(crate) name: String,
    pub(crate) handle: registry::RegionHandle,
}

#[derive(Default)]
pub(crate) struct Regions {
    pub(crate) entries: Vec<Option<RegionEntry>>,
    pub(crate) next_page: usize,
}

impl Regions {
    pub(crate) fn live(&self) -> impl Iterator<Item = &RegionEntry> {
        self.entries.iter().flatten()
    }

    fn layout(&self) -> Vec<BufferLayout> {
        let mut v: Vec<BufferLayout> = self
            .live()
            .map(|e| BufferLayout {
                name: e.name.clone(),
                base_page: e.base_page as u64,
                pages: e.pages as u64,
                len_bytes: e.len_bytes as u64,
            })
            .collect();
        v.sort_by_key(|l| l.base_page);
        v
    }
}

/// One epoch's `(page, digest)` pairs staged by a committer stream.
type DigestUpdates = Vec<(u64, u64)>;

/// Upper bound on pages written+completed per sub-batch inside a claimed
/// run: caps how long a MustWait-blocked application thread can be stuck
/// behind in-flight batch I/O (the seed's single committer completed per
/// page; large uncut batches would multiply that wait by the batch size).
const WAKE_BATCH_PAGES: usize = 8;

/// One checkpoint's shared drain state: the open epoch session plus what
/// the pool workers draining it accumulate.
pub(crate) struct FlushJob {
    /// The epoch session every worker writes into. `None` when opening the
    /// epoch failed — the workers then drain the engine *without* writing
    /// so page states settle and blocked writers wake.
    pub(crate) writer: Option<Arc<dyn EpochWriter>>,
    /// Set by the first worker that hits a storage error; later batches are
    /// skipped (drain-only) and the finaliser aborts the epoch.
    pub(crate) failed: AtomicBool,
    /// The first storage error's message (first writer wins).
    pub(crate) error: Mutex<Option<String>>,
    /// `(page, digest)` pairs of the payloads written into this epoch, one
    /// private buffer per worker slot: slot `i` is appended to only by
    /// the worker draining as slot `i` (under a mutex that is uncontended
    /// by construction), and the finaliser reads the slots only after the
    /// drain completed — the flush hot path shares no digest-update state
    /// across slots. Applied to the digest shards iff `finish` succeeds
    /// (unused when the content filter is off).
    pub(crate) digest_updates: Box<[Mutex<DigestUpdates>]>,
    /// Clean-dirty pages dropped while draining this epoch; folded into
    /// the filter's counters by the finaliser iff `finish` succeeds, so
    /// the stats describe committed checkpoints only (a retried epoch must
    /// not double-count its skips).
    pub(crate) skipped_pages: AtomicU64,
    /// Pages actually written to the epoch session so far (excludes
    /// clean-dirty skips). What tenant quotas are charged.
    pub(crate) written_pages: AtomicU64,
    /// Bytes actually written to the epoch session so far.
    pub(crate) written_bytes: AtomicU64,
    /// Set once the engine's checkpoint completed (every scheduled page
    /// processed or discarded) — the signal that the epoch session may be
    /// finalised. Monotonic: never cleared.
    pub(crate) drained: AtomicBool,
}

impl FlushJob {
    /// A job over an already-opened epoch session (`writer = None` encodes
    /// a failed open: the drain then settles page states without writing).
    pub(crate) fn new(
        writer: Option<Arc<dyn EpochWriter>>,
        open_error: Option<io::Error>,
        slots: usize,
    ) -> Self {
        Self {
            writer,
            failed: AtomicBool::new(open_error.is_some()),
            error: Mutex::new(open_error.map(|e| e.to_string())),
            digest_updates: (0..slots.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            skipped_pages: AtomicU64::new(0),
            written_pages: AtomicU64::new(0),
            written_bytes: AtomicU64::new(0),
            drained: AtomicBool::new(false),
        }
    }

    /// Open epoch `seq` on `backend` and wrap the session in a job with
    /// `slots` digest-update slots. An open failure becomes a drain-only
    /// job (the error is surfaced at finalise time).
    pub(crate) fn open(backend: &dyn StorageBackend, seq: u64, slots: usize) -> Self {
        match backend.begin_epoch(seq) {
            Ok(w) => Self::new(Some(Arc::<dyn EpochWriter>::from(w)), None, slots),
            Err(e) => Self::new(None, Some(e), slots),
        }
    }

    /// Pages and bytes written to the epoch session so far (excludes
    /// clean-dirty skips) — what quota accounting charges.
    pub(crate) fn written(&self) -> (u64, u64) {
        (
            self.written_pages.load(Ordering::Relaxed),
            self.written_bytes.load(Ordering::Relaxed),
        )
    }

    /// Record a storage failure (first error wins); the drain continues
    /// without writing and the epoch aborts at finalise time.
    pub(crate) fn fail(&self, msg: &str) {
        if !self.failed.swap(true, Ordering::AcqRel) {
            *self.error.lock() = Some(msg.to_string());
        }
    }
}

/// The AI-Ckpt runtime entry point. One per process is typical (the paper's
/// page manager), but multiple independent managers are supported.
///
/// A manager owns no threads: it is a tenant of a [`FlushPool`], whose
/// workers drain its checkpoints and maintain its backend.
pub struct PageManager {
    pub(crate) ctl: Arc<Ctl>,
    pub(crate) regions: Arc<Mutex<Regions>>,
    cfg: CkptConfig,
    /// The pool this manager is attached to — private to it
    /// ([`PageManager::new`]) or shared ([`FlushPool::attach`]); dropping
    /// the last handle shuts the pool down.
    pool: Arc<FlushPool>,
    /// The pool's side of this manager: backend, scrubber, hook, counters.
    tenant: Arc<Tenant>,
    /// Backend epochs committed before this manager started (restart case):
    /// checkpoint `n` of this manager persists as epoch `epoch_base + n`.
    epoch_base: u64,
}

impl PageManager {
    /// Create a manager with the given configuration and storage backend,
    /// installing the process-wide SIGSEGV handler if necessary.
    pub fn new(cfg: CkptConfig, backend: Box<dyn StorageBackend>) -> io::Result<Self> {
        Self::with_shared_backend(cfg, Arc::from(backend))
    }

    /// Like [`PageManager::new`], but over a backend the caller keeps a
    /// handle to (for restores, or to inspect what was committed).
    ///
    /// Builds a private [`FlushPool`] of `cfg.committer_streams` workers
    /// and attaches to it as its only tenant: drains are FIFO and nothing
    /// is refused. The pool's threads exit when the manager drops.
    pub fn with_shared_backend(
        cfg: CkptConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> io::Result<Self> {
        FlushPool::new(cfg.committer_streams)?.attach(cfg, backend, Arc::new(()))
    }

    /// The manager half of [`FlushPool::attach`].
    pub(crate) fn on_pool(
        pool: Arc<FlushPool>,
        tenant: Arc<Tenant>,
        cfg: CkptConfig,
        epoch_base: u64,
    ) -> Self {
        Self {
            ctl: Arc::clone(&tenant.ctl),
            regions: Arc::new(Mutex::new(Regions::default())),
            cfg,
            pool,
            tenant,
            epoch_base,
        }
    }

    /// Fault handler, epoch numbering, engine and the control block of a
    /// manager that will be tenant `tenant` of `pool`.
    pub(crate) fn build_ctl(
        cfg: &CkptConfig,
        backend: &Arc<dyn StorageBackend>,
        pool: &Arc<PoolInner>,
        tenant: u64,
    ) -> io::Result<(Arc<Ctl>, u64)> {
        // Page ids double as storage record ids; the top of that space is
        // reserved (the epoch's layout record, parity groups).
        if cfg.max_pages as u64 > META_RECORD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "max_pages {} reaches the reserved record ids",
                    cfg.max_pages
                ),
            ));
        }
        sigsegv::install(fault_entry)?;
        // Resume epoch numbering above everything the backend has ever
        // accounted for — committed *or* retired: a chain whose newest
        // epoch was drained or folded away must not hand its number out
        // again. `epoch_floor` lets a coordinator raise the base further
        // (numbering lockstep across ranks).
        let epoch_base = backend.high_water()?.unwrap_or(0).max(cfg.epoch_floor);
        let ps = page_size();
        let engine_cfg = EngineConfig {
            pages: cfg.max_pages,
            page_bytes: ps,
            cow_slots: cfg.cow_slots(),
            scheduler: cfg.scheduler,
            dynamic_hints: cfg.dynamic_hints,
            cow_data: true,
        };
        let engine = EpochEngine::new(engine_cfg)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let states = Arc::clone(engine.states());
        let slab_store = Arc::clone(engine.slab_store());
        let mut page_addr = Vec::with_capacity(cfg.max_pages);
        page_addr.resize_with(cfg.max_pages, || AtomicUsize::new(0));
        let mut fill = Vec::with_capacity(cfg.max_pages);
        fill.resize_with(cfg.max_pages, || AtomicU8::new(fill::NOT_LAZY));
        let mut demand_ring = Vec::with_capacity(DEMAND_RING_SLOTS);
        demand_ring.resize_with(DEMAND_RING_SLOTS, || AtomicU64::new(0));
        let tracker = match MPROTECT_TRACKING.get() {
            true => None,
            false => Uffd::open_write_protect().ok(),
        };
        let shared = Arc::new(Shared {
            engine: SpinLock::new(engine),
            states,
            slab_store,
            page_bytes: ps,
            page_addr: page_addr.into_boxed_slice(),
            stall: LatencyHistogram::new(),
            engine_locks: AtomicU64::new(0),
            fill: fill.into_boxed_slice(),
            lazy_unfilled: AtomicU64::new(0),
            lazy_poisoned: AtomicBool::new(false),
            lazy_demand_faults: AtomicU64::new(0),
            demand_ring: demand_ring.into_boxed_slice(),
            demand_head: AtomicUsize::new(0),
            tracker,
        });
        let ctl = Arc::new(Ctl {
            shared,
            status: Mutex::new(Status::default()),
            done: Condvar::new(),
            stats: Mutex::new(Arc::new(Vec::new())),
            filter: cfg
                .content_filter
                .then(|| ContentFilter::new(cfg.max_pages)),
            pool: Arc::clone(pool),
            tenant,
        });
        Ok((ctl, epoch_base))
    }

    /// The configuration this manager runs with.
    pub fn config(&self) -> &CkptConfig {
        &self.cfg
    }

    /// Whether this manager tracks writes with userfaultfd write-protect
    /// (`false`: the `mprotect` fallback). For tests that assert a path.
    #[doc(hidden)]
    pub fn tracks_writes_by_write_protect(&self) -> bool {
        self.ctl.shared.tracker.is_some()
    }

    /// The id this manager is attached to its pool under — what the pool
    /// owner's control surface keys on (`FlushPool::tenant_stats`,
    /// `CkptService::set_quota`).
    pub fn tenant_id(&self) -> u64 {
        self.tenant.id
    }

    /// The storage backend this manager commits to. Restores and group
    /// coordination read/retire epochs through this handle; mutating calls
    /// that race an in-flight checkpoint are the caller's responsibility to
    /// avoid (the group coordinator only acts between checkpoints).
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.tenant.backend
    }

    /// Allocate an anonymous protected buffer (the paper's
    /// `malloc_protected`). The memory is zero-filled, page-aligned and
    /// write-protected from the start: every first write per epoch is
    /// tracked.
    pub fn alloc_protected(&self, len: usize) -> io::Result<crate::ProtectedBuffer> {
        self.alloc_protected_named("", len)
    }

    /// Like [`PageManager::alloc_protected`] but with a name recorded in the
    /// checkpoint layout, so restore can find the buffer again.
    pub fn alloc_protected_named(
        &self,
        name: &str,
        len: usize,
    ) -> io::Result<crate::ProtectedBuffer> {
        self.alloc_region(name, len, true)
    }

    /// Map, number and register a region, and put it under write tracking,
    /// write-protected at once when `protect` (an eager restore protects its
    /// buffers itself, once they are filled).
    ///
    /// On write-protect the region is registered with the manager's
    /// userfaultfd. On the fallback it is first written once, and the page
    /// dropped again at once, which costs nothing but gives the mapping an
    /// `anon_vma` before any `mprotect` splits it: every piece then shares
    /// it, so the pieces merge back whenever a checkpoint re-protects the
    /// region.
    pub(crate) fn alloc_region(
        &self,
        name: &str,
        len: usize,
        protect: bool,
    ) -> io::Result<crate::ProtectedBuffer> {
        let region = MappedRegion::new(len)?;
        let pages = region.pages();
        let mut regions = self.regions.lock();
        let base = regions.next_page;
        if base + pages > self.cfg.max_pages {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                format!(
                    "page-id space exhausted: {} + {} pages exceeds max_pages {}",
                    base, pages, self.cfg.max_pages
                ),
            ));
        }
        regions.next_page = base + pages;
        for i in 0..pages {
            self.ctl.shared.page_addr[base + i].store(
                region.addr() + i * self.ctl.shared.page_bytes,
                Ordering::Release,
            );
        }
        let token = Arc::as_ptr(&self.ctl.shared) as usize;
        let handle = registry::register(region.addr(), region.len(), token, base)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let shared = &self.ctl.shared;
        let tracked = match &shared.tracker {
            Some(uffd) => uffd.register_write_protect(region.addr(), region.len(), false),
            None => {
                // SAFETY: the first page of a fresh read-write mapping no
                // other thread knows of yet; MADV_DONTNEED only drops it.
                unsafe {
                    region.as_ptr().write_volatile(0);
                    let first = region.addr() as *mut libc::c_void;
                    libc::madvise(first, shared.page_bytes, libc::MADV_DONTNEED);
                }
                Ok(())
            }
        }
        .and_then(|()| match protect {
            true => shared.protect(region.addr(), region.len()),
            false => Ok(()),
        });
        if let Err(e) = tracked {
            registry::deregister(handle);
            return Err(e);
        }
        let entry = RegionEntry {
            addr: region.addr(),
            len: region.len(),
            base_page: base,
            pages,
            len_bytes: len,
            name: name.to_string(),
            handle,
        };
        let slot = regions.entries.iter().position(Option::is_none);
        let entry_idx = match slot {
            Some(i) => {
                regions.entries[i] = Some(entry);
                i
            }
            None => {
                regions.entries.push(Some(entry));
                regions.entries.len() - 1
            }
        };
        drop(regions);
        Ok(crate::ProtectedBuffer::new(
            Arc::clone(&self.ctl),
            Arc::clone(&self.regions),
            region,
            entry_idx,
            base,
            pages,
            len,
            name.to_string(),
        ))
    }

    /// The `CHECKPOINT` primitive (Algorithm 1). Waits for any previous
    /// checkpoint to complete, snapshots the epoch, schedules the dirty set
    /// and (in async mode) returns while the committer flushes in the
    /// background. In sync mode, blocks until everything is on storage.
    ///
    /// Returns the plan (pages/bytes scheduled, closed-epoch statistics).
    /// Surfaces a pending committer failure from a *previous* checkpoint as
    /// an error (cleared on return, so the application can decide whether to
    /// continue).
    pub fn checkpoint(&self) -> io::Result<CheckpointPlanInfo> {
        // A checkpoint must capture fully-restored state: wait until any
        // in-flight lazy restore has filled every marked page (the filler
        // is on it; this is a drain barrier, not a trigger).
        self.wait_lazy_restore_drained()?;
        // Lines 2-4: wait until the previous checkpoint completed.
        {
            let mut st = self.ctl.status.lock();
            while st.busy {
                self.ctl.done.wait(&mut st);
            }
            if let Some(msg) = st.failed.take() {
                return Err(io::Error::other(format!(
                    "previous checkpoint failed: {msg}"
                )));
            }
            st.busy = true;
        }
        // Admission control: the pool may refuse the epoch outright — quota
        // exhausted, pool shut down — *before* any engine or protection
        // state changes, so a rejected checkpoint is a clean no-op the
        // application can retry after a quota raise.
        if let Err(e) = self.pool.inner.admit(&self.tenant) {
            let mut st = self.ctl.status.lock();
            st.busy = false;
            self.ctl.done.notify_all();
            return Err(e);
        }
        let started = Instant::now();
        let (mut info, layout) = {
            let regions = self.regions.lock();
            let mut eng = self.ctl.shared.engine();
            let info = eng
                .begin_checkpoint()
                .expect("no checkpoint can be active here");
            // Write-protect every region so the new epoch's first writes
            // trap (Algorithm 1 lines 10-14): one call per region, before
            // the pool can start the flush.
            for e in regions.live() {
                self.ctl
                    .shared
                    .protect(e.addr, e.len)
                    .expect("write-protecting an own region cannot fail");
            }
            (info, layout::encode(&regions.layout()))
        };
        // Report and persist under the absolute epoch number.
        info.checkpoint += self.epoch_base;
        Arc::make_mut(&mut *self.ctl.stats.lock()).push(CheckpointRecord {
            seq: info.checkpoint,
            scheduled_pages: info.scheduled_pages,
            scheduled_bytes: info.scheduled_bytes,
            duration: None,
            failed: false,
            closed_epoch: info.closed_epoch,
        });
        // On `Err` the pool has already resolved the request (engine
        // drained, busy cleared, record stamped failed) — the error
        // returned here is the whole story.
        self.pool
            .inner
            .submit(Arc::clone(&self.tenant), info.checkpoint, started, layout)?;
        if self.cfg.mode == CkptMode::Sync {
            self.wait_checkpoint()?;
        }
        Ok(info)
    }

    /// Drain barrier against an in-flight lazy restore: returns once no
    /// page is pending fill, or an error if the restore died (`POISONED`
    /// pages hold state no checkpoint should capture).
    fn wait_lazy_restore_drained(&self) -> io::Result<()> {
        let shared = &self.ctl.shared;
        loop {
            if shared.lazy_unfilled.load(Ordering::Acquire) == 0 {
                return Ok(());
            }
            if shared.lazy_poisoned.load(Ordering::Acquire) {
                return Err(io::Error::other(
                    "lazy restore failed; checkpoint would capture unrestored pages",
                ));
            }
            std::thread::sleep(std::time::Duration::from_micros(20));
        }
    }

    /// Block until the in-flight checkpoint (if any) is durably committed.
    /// Returns the committer's error, if it failed.
    pub fn wait_checkpoint(&self) -> io::Result<()> {
        let mut st = self.ctl.status.lock();
        while st.busy {
            self.ctl.done.wait(&mut st);
        }
        match st.failed.take() {
            Some(msg) => Err(io::Error::other(format!("checkpoint failed: {msg}"))),
            None => Ok(()),
        }
    }

    /// True while a checkpoint is being flushed in the background.
    pub fn checkpoint_in_progress(&self) -> bool {
        self.ctl.status.lock().busy
    }

    /// Snapshot of runtime metrics. `streams` has one entry per worker
    /// slot of the pool draining this manager and counts this manager's
    /// pages only; `maintenance` is this manager's share of the pool's
    /// maintenance worker.
    pub fn stats(&self) -> RuntimeStats {
        self.tenant.stats()
    }

    /// The at-rest integrity scrubber guarding this manager's backend: its
    /// counters, pacing policy and — most importantly — its quarantine set,
    /// which every restore path consults before serving an epoch. The
    /// pool's maintenance worker paces it one cycle per checkpoint.
    pub fn scrubber(&self) -> &Arc<Scrubber> {
        &self.tenant.scrubber
    }

    /// Block until the maintenance worker has completed a cycle that
    /// started after every checkpoint finished so far — i.e. chain
    /// compaction and tier draining have caught up with the committed
    /// state. Mainly for tests and orderly shutdown points; the worker
    /// needs no help making progress.
    pub fn wait_maintenance_idle(&self) -> io::Result<()> {
        self.wait_checkpoint()?;
        self.pool.inner.maintenance_barrier(&self.tenant);
        Ok(())
    }

    /// The last checkpoint's epoch was retired after it committed (a group
    /// abort): its pages are owed again, so they join the epoch being
    /// built, and the content filter forgets their digests — storage no
    /// longer holds the payloads they describe. Waits for a checkpoint in
    /// flight to finish first, and holds off the next one until done: a
    /// page of a flush under way must not be recorded as written after it.
    pub fn requeue_last_checkpoint(&self) {
        let mut st = self.ctl.status.lock();
        while st.busy {
            self.ctl.done.wait(&mut st);
        }
        let pages = {
            let mut eng = self.ctl.shared.engine();
            eng.requeue_last();
            eng.history().last().dirty().to_vec()
        };
        if let Some(filter) = &self.ctl.filter {
            pages.into_iter().for_each(|p| filter.forget(p as u64));
        }
        drop(st);
    }

    /// Number of checkpoints requested so far.
    pub fn checkpoints(&self) -> u64 {
        self.ctl.shared.engine().checkpoints()
    }

    /// Total protected bytes currently registered.
    pub fn protected_bytes(&self) -> usize {
        self.regions.lock().live().map(|e| e.len).sum()
    }
}

impl Drop for PageManager {
    fn drop(&mut self) {
        // An in-flight flush drains on the pool's workers and holds its own
        // handles — wait it out so the epoch commits or aborts atomically
        // before the tenant disappears, then detach (which waits out any
        // pool thread still holding the tenant). A private pool shuts down
        // right after, when its last handle (ours) drops.
        let _ = self.wait_checkpoint();
        self.pool.inner.detach(&self.tenant);
    }
}

/// `PROTECTED_PAGE_HANDLER` (Algorithm 2), invoked from the fault handler
/// for `SIGBUS` and `SIGSEGV`. The page's fill state decides what the fault
/// is: a page a lazy restore still owes is a demand fault, whatever the
/// signal; any other page takes write tracking — a `SIGBUS` on
/// write-protect, a `SIGSEGV` on the `mprotect` fallback.
///
/// Async-signal-safety: engine spin lock, atomics, `memcpy`, `mprotect`,
/// `ioctl`, `sched_yield`/`nanosleep`, `clock_gettime` (for the
/// write-stall histogram; AS-safe on Linux). No allocation, no ordinary
/// mutexes, no thread-locals.
fn fault_entry(sig: libc::c_int, hit: RegionHit, _addr: usize) -> bool {
    // SAFETY: the token is the address of the manager's `Shared`, kept alive
    // by the `Arc` in `Ctl` (and buffers); regions are deregistered before
    // any of that is dropped.
    let shared = unsafe { &*(hit.token as *const Shared) };
    // Entry-to-exit latency of the handler IS the application's write
    // stall: the faulting store retries the moment we return.
    let stall_started = Instant::now();
    let p = hit.page as PageId;
    // Demand-paged restore: a page whose content has not been installed
    // yet is not present in a range registered for missing-page faults,
    // with a live fill state — any access lands here (as SIGBUS; a write on
    // the mprotect fallback as SIGSEGV, its page being read-only), *before*
    // write tracking can apply. Demand the page from the filler and wait it
    // out; everything used below is async-signal-safe (atomics,
    // spin/yield/nanosleep).
    let fill_cell = &shared.fill[p as usize];
    let mut fill_state = fill_cell.load(Ordering::Acquire);
    if fill_state != fill::NOT_LAZY && fill_state != fill::FILLED {
        let mut spins = 0u32;
        let mut hint_posted = false;
        loop {
            match fill_state {
                fill::NOT_LAZY | fill::FILLED => break,
                // The restore died before delivering this page: there is no
                // content to expose. Decline the fault — the default action
                // (a genuine SIGSEGV) is the honest outcome.
                fill::POISONED => return false,
                fill::UNFILLED => {
                    if fill_cell
                        .compare_exchange(
                            fill::UNFILLED,
                            fill::DEMANDED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        // Hand the filler a priority hint (slot value is
                        // page+1 so 0 can mean empty; a wrapped-over slot
                        // only loses the hint, never the fill).
                        let slot = shared.demand_head.fetch_add(1, Ordering::AcqRel)
                            % shared.demand_ring.len();
                        shared.demand_ring[slot].store(p as u64 + 1, Ordering::Release);
                        shared.lazy_demand_faults.fetch_add(1, Ordering::Relaxed);
                        hint_posted = true;
                    }
                }
                // DEMANDED | FILLING: the filler is on it; same graduated
                // wait as MustWait below — storage reads are µs-to-ms.
                // Post one hint even so: a FILLING page may be sitting in
                // the filler's deferred publication batch, and a hint is
                // what flushes that batch (duplicates are benign — a
                // consumed hint for a done page is simply skipped).
                _ => {
                    if !hint_posted {
                        let slot = shared.demand_head.fetch_add(1, Ordering::AcqRel)
                            % shared.demand_ring.len();
                        shared.demand_ring[slot].store(p as u64 + 1, Ordering::Release);
                        shared.lazy_demand_faults.fetch_add(1, Ordering::Relaxed);
                        hint_posted = true;
                    }
                    spins = spins.saturating_add(1);
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 72 {
                        // A short yield phase only: on a loaded (or
                        // single-CPU) box each yield can cost a scheduler
                        // quantum against the CPU-bound filler, so get to
                        // the timed sleep quickly — the fill we are waiting
                        // for is at least one storage read away anyway.
                        std::thread::yield_now();
                    } else {
                        let ts = libc::timespec {
                            tv_sec: 0,
                            tv_nsec: 20_000, // 20 µs
                        };
                        // SAFETY: nanosleep with a valid timespec;
                        // async-signal-safe.
                        unsafe { libc::nanosleep(&ts, std::ptr::null_mut()) };
                    }
                }
            }
            fill_state = fill_cell.load(Ordering::Acquire);
        }
        if fill_state == fill::FILLED {
            // Content is in place and write-protected. Retry the
            // instruction: a read proceeds; a *write* re-faults and takes
            // the normal tracking path on its second trip (so the dirty-set
            // bookkeeping below never runs for plain reads).
            shared
                .stall
                .record(stall_started.elapsed().as_nanos() as u64);
            return true;
        }
        // NOT_LAZY: the page left lazy restore under us (buffer teardown);
        // fall through to the normal path.
    }
    let lifted = match (&shared.tracker, sig) {
        // A write-protected page took its first write. (A read that raced
        // its page's install — the SIGBUS raised before, the fill state
        // read after — lands here too: its page is stored once more,
        // byte-identical.)
        (Some(uffd), libc::SIGBUS) => {
            if record_write(shared, p, hit.page_addr) {
                // A second trip this epoch: the page is not there, in a run
                // a lazy restore registered for missing-page faults (the
                // application dropped it, `MADV_DONTNEED`). Map the zero
                // page, what a dropped page reads; one that is there (a
                // racing first writer's) refuses it.
                let _ = uffd.zero(hit.page_addr, shared.page_bytes);
            }
            uffd.unprotect(hit.page_addr, shared.page_bytes).is_ok()
        }
        (None, libc::SIGSEGV) => {
            record_write(shared, p, hit.page_addr);
            lift_by_mprotect(shared, &hit)
        }
        // On the fallback only a page the lazy fill had not installed
        // raises SIGBUS. FILLED: the install landed between the fault and
        // the look above, so the read retries and succeeds. NOT_LAZY: not a
        // page under fill — decline.
        (None, _) => return fill_state == fill::FILLED,
        // On write-protect no page the tracker owes is read-only: a SIGSEGV
        // is a genuine crash.
        (Some(_), _) => return false,
    };
    shared
        .stall
        .record(stall_started.elapsed().as_nanos() as u64);
    lifted
}

/// Algorithm 2 lines 5-20 for page `p` at `addr`, still write-protected:
/// record the write, copying the page's pre-write bytes to a CoW slot or
/// waiting until the committer processed it, as its state decides. The
/// caller then lifts the protection (line 22). `true`: the page's write was
/// recorded this epoch already.
fn record_write(shared: &Shared, p: PageId, addr: usize) -> bool {
    let mut must_wait = false;
    {
        let mut eng = shared.engine_from_handler();
        match eng.on_write(p) {
            WriteOutcome::AlreadyHandled => return true,
            WriteOutcome::Proceed => {}
            WriteOutcome::CopyToSlot(slot) => {
                // Copy the pre-write content while still holding the lock,
                // so no other thread can see the page writable before the
                // snapshot is safe (see WriteOutcome::CopyToSlot docs).
                let dst = eng.slab_slot_mut(slot);
                // SAFETY: addr is a live page of page_bytes; dst is a slot
                // of the same size; ranges cannot overlap.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        addr as *const u8,
                        dst.as_mut_ptr(),
                        shared.page_bytes,
                    );
                }
            }
            WriteOutcome::MustWait => must_wait = true,
        }
    }
    if must_wait {
        // Algorithm 2 lines 12-15: block until the committer processed this
        // very page. Spin, then yield, then sleep — storage is slow (ms),
        // burning a core for the whole wait would add the very interference
        // we are measuring.
        let mut spins = 0u32;
        while !shared.states.is_processed(p) {
            spins = spins.saturating_add(1);
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 256 {
                std::thread::yield_now();
            } else {
                let ts = libc::timespec {
                    tv_sec: 0,
                    tv_nsec: 20_000, // 20 µs
                };
                // SAFETY: nanosleep with a valid timespec; async-signal-safe.
                unsafe { libc::nanosleep(&ts, std::ptr::null_mut()) };
            }
        }
        shared.engine_from_handler().complete_wait(p);
    }
    false
}

/// The fallback's Algorithm 2 line 22: `mprotect` the page `hit` names
/// writable. A split past `vm.max_map_count` fails with `ENOMEM`; then lift
/// the page's aligned block of [`LIFT_BLOCK_PAGES`], and failing that the
/// whole region — each page of the range recorded as written first, since
/// none of them will trap again this epoch. A range over many pieces
/// merges them as it goes, so it needs fewer mappings, not more. Not while
/// a restore owes pages: a range could make a page it never installed, or
/// poisoned, writable.
fn lift_by_mprotect(shared: &Shared, hit: &RegionHit) -> bool {
    let ps = shared.page_bytes;
    let escalate = shared.lazy_unfilled.load(Ordering::Acquire) == 0;
    let (start, end) = hit.region;
    let base_page = hit.page - (hit.page_addr - start) / ps;
    let block = LIFT_BLOCK_PAGES * ps;
    let block_start = start + (hit.page_addr - start) / block * block;
    let ranges = [
        (hit.page_addr, hit.page_addr + ps),
        (block_start, end.min(block_start + block)),
        (start, end),
    ];
    for (i, &(from, to)) in ranges.iter().enumerate() {
        if i > 0 {
            if !escalate {
                return false;
            }
            for addr in (from..to).step_by(ps) {
                record_write(shared, (base_page + (addr - start) / ps) as PageId, addr);
            }
        }
        // SAFETY: page-aligned pages of a registered region.
        match unsafe { ai_ckpt_mem::set_protection_raw(from, to - from, Protection::ReadWrite) } {
            Ok(()) => return true,
            Err(libc::ENOMEM) => continue,
            Err(_) => return false,
        }
    }
    false
}

/// Commit or abort `job`'s epoch session after its drain completed (the
/// caller provides the completion barrier: `job.drained` observed, and no
/// worker still inside a claim). On success, merges the per-slot digest
/// updates and skip counts into the content filter.
pub(crate) fn finalize_flush(ctl: &Ctl, job: &FlushJob, layout: &[u8]) -> io::Result<()> {
    let error = job.error.lock().take();
    match (&job.writer, error) {
        (Some(writer), None) => {
            // The layout rides inside its epoch as a reserved record: it
            // commits, and is protected and retired, with the pages it
            // describes.
            if let Err(e) = writer.write_pages(&[(META_RECORD, layout)]) {
                // Abort explicitly rather than relying on the writer Arc's
                // last drop: a worker may still hold its FlushJob clone for
                // a moment, and the next checkpoint's begin_epoch must not
                // race that drop and see the session still open.
                let _ = writer.abort();
                return Err(e);
            }
            writer.finish()?;
            // The epoch is durable: the digest table may now describe its
            // payloads, and the epoch's skips count. (On any failure path
            // above, both die with the job — the table keeps describing
            // what storage actually holds, and a retried epoch does not
            // double-count its skips.)
            if let Some(filter) = &ctl.filter {
                // Merge every slot's private digest buffer into the
                // sharded table — the drain barrier has passed, so no
                // worker touches its buffer anymore.
                for slot in job.digest_updates.iter() {
                    let updates = slot.lock();
                    for &(page, digest) in updates.iter() {
                        filter.set(page, digest);
                    }
                }
                let skipped = job.skipped_pages.load(Ordering::Relaxed);
                if skipped > 0 {
                    filter.skipped_pages.fetch_add(skipped, Ordering::Relaxed);
                    filter
                        .skipped_bytes
                        .fetch_add(skipped * ctl.shared.page_bytes as u64, Ordering::Relaxed);
                }
            }
            Ok(())
        }
        (writer, Some(msg)) => {
            if let Some(w) = writer {
                let _ = w.abort(); // never expose a partial epoch
            }
            Err(io::Error::other(msg))
        }
        (None, None) => unreachable!("no writer implies an open error"),
    }
}

/// Publish a finished checkpoint's verdict: stamp its stats record, clear
/// the busy flag and wake `wait_checkpoint` callers. A failed checkpoint
/// committed nothing, so before `busy` clears its pages rejoin the epoch
/// being built ([`EpochEngine::requeue_last`]). With `surface_error`
/// the failure is also parked in `Status::failed` for the next
/// `checkpoint()`/`wait_checkpoint()` call to surface; a caller that
/// already returned the error synchronously passes `false` so it is not
/// reported twice.
pub(crate) fn complete_checkpoint(
    ctl: &Ctl,
    seq: u64,
    started: Instant,
    result: &io::Result<()>,
    surface_error: bool,
) {
    let duration = started.elapsed();
    {
        let mut stats = ctl.stats.lock();
        let records = Arc::make_mut(&mut stats);
        if let Some(rec) = records.iter_mut().rev().find(|r| r.seq == seq) {
            rec.duration = Some(duration);
            rec.failed = result.is_err();
        }
    }
    if result.is_err() {
        ctl.shared.engine().requeue_last();
    }
    let mut st = ctl.status.lock();
    if let Err(e) = result {
        if surface_error {
            st.failed = Some(e.to_string());
        }
    }
    st.busy = false;
    ctl.done.notify_all();
}

/// Resolve a claimed flush item to the memory its payload already lives in
/// — the zero-copy handoff: the returned slice is passed straight to
/// `EpochWriter::write_pages`, where the file backend points an iovec at
/// it, so page bytes cross no intermediate buffer between the application
/// and the kernel.
///
/// Soundness of the borrow (it outlives digesting *and* the backend write):
///
/// * `FlushSource::Memory` — the page is `PAGE_INPROGRESS`, so any
///   application writer faults into `MustWait` and blocks until this stream
///   publishes `Processed` (which happens only after `write_pages`
///   returned); a page that faulted *before* the claim was re-sourced to a
///   CoW slot by the handler. The bytes cannot change under the borrow.
/// * `FlushSource::CowSlot` — the slot is claimed by this stream until its
///   `complete_published` call (the slot-ownership rule, see
///   [`CowSlotStore`]); the claim's lock release/acquire pair ordered the
///   fault handler's copy before these reads.
#[inline]
fn flush_src<'a>(shared: &'a Shared, item: &FlushItem) -> &'a [u8] {
    match item.source {
        FlushSource::Memory => {
            let addr = shared.page_addr[item.page as usize].load(Ordering::Acquire);
            debug_assert_ne!(addr, 0, "flushing an unregistered page");
            // SAFETY: addr is a live registered page of page_bytes, mapped
            // (at least PROT_READ) for the region's registered lifetime and
            // write-stable per the state argument above.
            unsafe { std::slice::from_raw_parts(addr as *const u8, shared.page_bytes) }
        }
        // SAFETY: the slot is owned by this stream (see above).
        FlushSource::CowSlot(slot) => unsafe { shared.slab_store.slot(slot) },
    }
}

/// Reusable per-worker staging buffers for [`flush_one_batch`]: the flush
/// hot path stays allocation-free in steady state.
#[derive(Default)]
pub(crate) struct ClaimScratch {
    items: Vec<FlushItem>,
    skip: Vec<bool>,
    digests: Vec<u64>,
    updates: Vec<(u64, u64)>,
}

/// Outcome of one [`flush_one_batch`] call.
pub(crate) enum BatchClaim {
    /// Nothing claimable, but the checkpoint is still active: the remaining
    /// pages are `PAGE_INPROGRESS` on other workers (or will complete via a
    /// buffer-drop discard). The caller should not spin on this claim.
    Empty,
    /// Nothing claimable and the checkpoint completed — the job may be
    /// finalised.
    Drained,
    /// A batch was claimed and completed.
    Flushed {
        /// Backend write calls issued.
        batches: u64,
        /// Pages written (excludes clean-dirty skips).
        pages: u64,
        /// Bytes written.
        bytes: u64,
        /// True when completing this claim finished the whole checkpoint.
        drained: bool,
    },
}

/// Claim and complete one batch of `job`'s checkpoint: the hot path every
/// flush-pool worker runs, for whichever manager the flush belongs to.
/// Digest updates land in `job.digest_updates[slot]`.
///
/// The steady-state hot path takes the engine lock exactly twice per
/// claimed run: once to claim the batch, and once per completed sub-batch
/// to reconcile counters. Payload resolution ([`flush_src`]: application
/// memory *and* CoW slots, borrowed zero-copy) and digest filtering run
/// entirely outside the engine lock — asserted in debug builds via the
/// thread-local acquisition counter.
///
/// Within one epoch a page only ever moves Scheduled/Cowed → InProgress →
/// Processed, so the claimable set shrinks monotonically: [`BatchClaim::Empty`]
/// now means empty forever *for this job* — no tail polling. Checkpoint
/// completion is detected under the same engine-lock hold that observes it
/// (empty claim, or the final `complete_published`), so exactly the workers
/// between which the completion raced agree through `job.drained`.
pub(crate) fn flush_one_batch(
    ctl: &Ctl,
    job: &FlushJob,
    slot: usize,
    batch_pages: usize,
    scratch: &mut ClaimScratch,
) -> BatchClaim {
    let shared = &ctl.shared;
    let page_bytes = shared.page_bytes;
    let batch_pages = batch_pages.max(1);
    let ClaimScratch {
        items,
        skip,
        digests,
        updates,
    } = scratch;
    items.clear();
    {
        let mut eng = shared.engine();
        eng.select_batch(batch_pages, items);
        if items.is_empty() {
            // Checked under the same lock hold that saw the empty claim: a
            // buffer-drop discard can complete the checkpoint outside any
            // claim, and this worker must not report a stale Empty for a
            // checkpoint that is already over.
            if !eng.checkpoint_active() {
                drop(eng);
                job.drained.store(true, Ordering::Release);
                return BatchClaim::Drained;
            }
            return BatchClaim::Empty;
        }
    }
    // Drain-only (a worker failed, or the epoch never opened): skip the
    // digest probes — nothing will be written; only the bookkeeping below
    // matters, so blocked writers wake without gratuitous CRC work over
    // the whole remaining dirty set.
    let drain_only = job.writer.is_none() || job.failed.load(Ordering::Acquire);
    // Clean-dirty filtering: `skip[i]` marks claimed pages whose CRC-64
    // matches the last committed version — storage already holds these
    // exact bytes, so they complete without any I/O.
    skip.clear();
    skip.resize(items.len(), false);
    #[cfg(debug_assertions)]
    let locks_before_staging = engine_locks_by_this_thread();
    if !drain_only {
        if let Some(filter) = &ctl.filter {
            // Digest the payloads in place ([`flush_src`] borrows, no
            // copy; reused scratch buffer), then probe the sharded table:
            // one uncontended shard lock per page, no global filter lock,
            // no engine lock. The bytes digested here are the bytes
            // `write_pages` will read: both borrows are write-stable until
            // this worker completes the page.
            digests.clear();
            digests.extend(items.iter().map(|item| crc64(flush_src(shared, item))));
            for (i, item) in items.iter().enumerate() {
                skip[i] = filter.matches(item.page as u64, digests[i]);
            }
            let skipped = skip.iter().filter(|&&s| s).count() as u64;
            if skipped > 0 {
                // Job-level, not the filter's counters: skips only count
                // once the epoch commits.
                job.skipped_pages.fetch_add(skipped, Ordering::Relaxed);
            }
            // Written pages' digests accumulate in this slot's private
            // buffer; the finaliser merges it iff the epoch commits.
            updates.clear();
            updates.extend(
                items
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !skip[i])
                    .map(|(i, item)| (item.page as u64, digests[i])),
            );
        }
    }
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        engine_locks_by_this_thread(),
        locks_before_staging,
        "payload resolution / digest filtering must not take the engine lock"
    );
    let mut batches = 0u64;
    let mut pages = 0u64;
    let mut bytes = 0u64;
    let mut checkpoint_done = false;
    // Write and complete in wake-bounded sub-batches: completing only
    // after the whole claimed run's I/O would make a MustWait-blocked
    // application thread sleep for up to `flush_batch_pages` pages of
    // storage time instead of a few — a sub-batch caps that latency at
    // WAKE_BATCH_PAGES pages while still amortising per-request backend
    // overhead and engine-lock acquisitions.
    let sub = batch_pages.clamp(1, WAKE_BATCH_PAGES);
    let mut idx = 0;
    while idx < items.len() {
        let end = (idx + sub).min(items.len());
        if !drain_only && !job.failed.load(Ordering::Acquire) {
            if let Some(writer) = &job.writer {
                // Stack-built batch (sub ≤ WAKE_BATCH_PAGES): the hot
                // flush path stays allocation-free. Clean-dirty pages are
                // left out — they complete below with no I/O. Each entry
                // borrows the payload's home memory zero-copy
                // ([`flush_src`]); the backend's iovecs point at these
                // very bytes.
                let mut batch: [(u64, &[u8]); WAKE_BATCH_PAGES] = [(0, &[]); WAKE_BATCH_PAGES];
                let mut n = 0;
                for (item, i) in items[idx..end].iter().zip(idx..end) {
                    if skip[i] {
                        continue;
                    }
                    batch[n] = (item.page as u64, flush_src(shared, item));
                    n += 1;
                }
                let batch = &batch[..n];
                // An all-clean sub-batch issues no write at all.
                if !batch.is_empty() {
                    match writer.write_pages(batch) {
                        Ok(()) => {
                            batches += 1;
                            pages += batch.len() as u64;
                            bytes += (batch.len() * page_bytes) as u64;
                        }
                        Err(e) => {
                            // First error wins; every worker switches to
                            // drain-only so the epoch aborts atomically.
                            job.fail(&e.to_string());
                        }
                    }
                }
            }
        }
        // Publish PAGE_PROCESSED for the sub-batch lock-free, straight
        // through the shared state table: a MustWait-blocked writer wakes
        // on this atomic store — it no longer queues behind other workers'
        // engine-lock holds to learn its page is done.
        for item in &items[idx..end] {
            shared.states.set(item.page, PageState::Processed);
        }
        // Then reconcile the engine's counters (CoW slot release, pending
        // count, checkpoint completion) under one lock hold per sub-batch.
        let mut eng = shared.engine();
        for &item in &items[idx..end] {
            eng.complete_published(item);
        }
        idx = end;
        if idx >= items.len() {
            // Completion check under the same hold as the final
            // reconciliation (see the function docs).
            checkpoint_done = !eng.checkpoint_active();
        }
        drop(eng);
    }
    items.clear();
    if pages > 0 {
        job.written_pages.fetch_add(pages, Ordering::Relaxed);
        job.written_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
    if !updates.is_empty() {
        // Slot-private by convention (one worker per slot at a time), so
        // this lock is uncontended; taken once per claim, off the engine
        // lock.
        job.digest_updates[slot].lock().append(updates);
    }
    if checkpoint_done {
        job.drained.store(true, Ordering::Release);
    }
    BatchClaim::Flushed {
        batches,
        pages,
        bytes,
        drained: checkpoint_done,
    }
}
