//! `ProtectedBuffer`: the safe, owned handle to a protected memory region —
//! what `malloc_protected` returns in the paper's API (§3.4).
//!
//! Dropping the buffer is `free_protected`: its pages are withdrawn from any
//! in-flight checkpoint (waiting out pages the committer holds locked), the
//! region is removed from the fault registry and unmapped.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ai_ckpt_core::PageId;
use ai_ckpt_mem::{registry, MappedRegion};
use parking_lot::Mutex;

use crate::manager::{fill, Ctl, Regions};

/// Owned protected memory. Reads are always plain; writes may fault into
/// the page manager's handler (transparently — the write simply proceeds
/// after bookkeeping, exactly like a soft page fault).
pub struct ProtectedBuffer {
    ctl: Arc<Ctl>,
    regions: Arc<Mutex<Regions>>,
    region: Option<MappedRegion>,
    entry_idx: usize,
    base_page: usize,
    pages: usize,
    len: usize,
    name: String,
}

impl ProtectedBuffer {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctl: Arc<Ctl>,
        regions: Arc<Mutex<Regions>>,
        region: MappedRegion,
        entry_idx: usize,
        base_page: usize,
        pages: usize,
        len: usize,
        name: String,
    ) -> Self {
        Self {
            ctl,
            regions,
            region: Some(region),
            entry_idx,
            base_page,
            pages,
            len,
            name,
        }
    }

    fn region(&self) -> &MappedRegion {
        self.region.as_ref().expect("region present until drop")
    }

    /// Requested length in bytes (the mapping is rounded up to pages).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length requests (still occupying one page).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First global page id (stable across the buffer's life; recorded in
    /// the checkpoint layout).
    pub fn base_page(&self) -> usize {
        self.base_page
    }

    /// Number of pages backing the buffer.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// The name given at allocation ("" if anonymous).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Base pointer.
    pub fn as_ptr(&self) -> *mut u8 {
        self.region().as_ptr()
    }

    /// Read access to the buffer.
    ///
    /// Note for mixed workloads: while a checkpoint is in flight the
    /// committer also reads pages of this buffer (never writes), which is
    /// why this takes `&self` and stays sound.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: we own the mapping; len <= mapping length; writers need
        // &mut self, so no mutable alias can exist while this borrow lives.
        unsafe { std::slice::from_raw_parts(self.region().as_ptr(), self.len) }
    }

    /// Write access. Writes to pages that are being checkpointed are
    /// transparently intercepted by the page manager (copy-on-write or a
    /// short wait), preserving snapshot consistency.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: exclusive borrow of the owned mapping. The committer may
        // concurrently *read* pages in PAGE_INPROGRESS state, but those
        // reads happen via raw pointers only while any writing thread is
        // blocked in the fault handler, which serialises the access.
        unsafe { std::slice::from_raw_parts_mut(self.region().as_ptr(), self.len) }
    }

    /// View as a slice of plain-old-data elements (e.g. `f64` grid cells).
    /// Panics if the buffer is not large/aligned enough (page alignment
    /// satisfies every primitive type).
    pub fn as_slice_of<T: Copy>(&self) -> &[T] {
        let n = self.len / std::mem::size_of::<T>();
        assert_eq!(
            self.as_ptr() as usize % std::mem::align_of::<T>(),
            0,
            "page-aligned buffer misaligned for T?!"
        );
        // SAFETY: within the owned mapping; alignment checked; T: Copy
        // forbids drop glue. Contents are plain bytes (zero-initialised).
        unsafe { std::slice::from_raw_parts(self.as_ptr() as *const T, n) }
    }

    /// Mutable typed view; see [`ProtectedBuffer::as_slice_of`].
    pub fn as_mut_slice_of<T: Copy>(&mut self) -> &mut [T] {
        let n = self.len / std::mem::size_of::<T>();
        assert_eq!(self.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: as above, with exclusive borrow.
        unsafe { std::slice::from_raw_parts_mut(self.as_ptr() as *mut T, n) }
    }
}

impl Drop for ProtectedBuffer {
    fn drop(&mut self) {
        // 1. Remove from the manager's table so the next CHECKPOINT neither
        //    protects nor lays out this region.
        let handle = {
            let mut regions = self.regions.lock();
            let entry = regions.entries[self.entry_idx]
                .take()
                .expect("entry taken once, by drop");
            entry.handle
        };
        // 2. Resolve any lazy-restore fill states first: a page a filler
        //    holds *right now* (read, its run not yet installed with one
        //    UFFDIO_COPY) must finish before the mapping can go away, and
        //    pages still pending fill leave the unfilled count (or
        //    `CHECKPOINT`'s drain barrier would wait for fills that will
        //    never happen).
        for p in self.base_page..self.base_page + self.pages {
            let cell = &self.ctl.shared.fill[p];
            loop {
                match cell.load(Ordering::Acquire) {
                    // Mid-fill: wait the filler out (it holds a page for
                    // one storage read + its run's copy, µs-to-ms).
                    fill::FILLING => std::thread::yield_now(),
                    fill::NOT_LAZY | fill::FILLED => {
                        cell.store(fill::NOT_LAZY, Ordering::Release);
                        break;
                    }
                    cur => {
                        // UNFILLED | DEMANDED | POISONED: still counted as
                        // unfilled; retire the page from the count. CAS —
                        // the filler may claim it concurrently.
                        if cell
                            .compare_exchange(
                                cur,
                                fill::NOT_LAZY,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            self.ctl.shared.lazy_unfilled.fetch_sub(1, Ordering::AcqRel);
                            break;
                        }
                    }
                }
            }
        }
        // 3. Withdraw every page from checkpointing. discard_page refuses
        //    while the committer holds a page locked; wait it out with
        //    bounded exponential backoff — the committer holds a page for
        //    storage-write time (µs to ms), so an unbounded yield_now loop
        //    would burn a core for the whole wait behind a slow backend.
        for p in self.base_page..self.base_page + self.pages {
            let mut attempts = 0u32;
            loop {
                let mut eng = self.ctl.shared.engine();
                let was_active = eng.checkpoint_active();
                let done = eng.discard_page(p as PageId);
                let ended_checkpoint = was_active && !eng.checkpoint_active();
                drop(eng);
                if ended_checkpoint {
                    // The discard completed the in-flight checkpoint outside
                    // any worker's claim: tell the pool now (not after the
                    // remaining pages), or nobody may finalise the epoch.
                    self.ctl.pool.checkpoint_drained(self.ctl.tenant);
                }
                if done {
                    break;
                }
                attempts = attempts.saturating_add(1);
                if attempts < 4 {
                    std::hint::spin_loop();
                } else if attempts < 16 {
                    std::thread::yield_now();
                } else {
                    // 10 µs doubling to a 1.28 ms ceiling: sub-ms reaction
                    // to fast backends, negligible CPU against slow ones.
                    let exp = (attempts - 16).min(7);
                    std::thread::sleep(std::time::Duration::from_micros(10u64 << exp));
                }
            }
            self.ctl.shared.page_addr[p].store(0, Ordering::Release);
        }
        // 4. Stop routing faults for these addresses...
        registry::deregister(handle);
        // 5. ...and only then unmap (Region drop).
        self.region.take();
    }
}

// SAFETY: the buffer owns its mapping; cross-thread hand-off is safe. It is
// intentionally NOT Sync-shareable for writing (writes need &mut).
unsafe impl Send for ProtectedBuffer {}
