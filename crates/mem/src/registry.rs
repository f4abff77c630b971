//! Global, async-signal-safe registry mapping fault addresses to protected
//! regions.
//!
//! The SIGSEGV handler must translate a fault address into "which protected
//! region, which page" without taking locks or allocating. The registry is a
//! fixed-capacity table of atomically published entries:
//!
//! * registration (normal context) takes a spin lock, finds a free slot,
//!   writes the entry's fields and publishes `start` last with `Release`;
//! * the handler scans used slots with `Acquire` loads of `start`, so a
//!   non-zero `start` guarantees the other fields are visible and
//!   consistent;
//! * deregistration zeroes `start` first, so a slot being recycled is simply
//!   invisible in between.
//!
//! Each entry carries an opaque `token` (the runtime stores a pointer to its
//! shared page-manager state) and the `base_page` at which the region's
//! pages start in the engine's global page numbering.

use std::sync::atomic::{AtomicUsize, Ordering};

use ai_ckpt_core::SpinLock;

/// Maximum number of simultaneously registered regions. The paper's
/// workloads use a handful of large allocations per rank; 2048 leaves ample
/// slack for allocator-tracked applications that spray many medium-sized
/// allocations. (16 words each — the table is a fixed 256 KiB of statics.)
pub const MAX_REGIONS: usize = 2048;

struct Entry {
    /// Base address; 0 = slot free / being updated.
    start: AtomicUsize,
    /// One past the last byte.
    end: AtomicUsize,
    /// Opaque owner token delivered to the fault callback.
    token: AtomicUsize,
    /// Global page id of the region's first page.
    base_page: AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_ENTRY: Entry = Entry {
    start: AtomicUsize::new(0),
    end: AtomicUsize::new(0),
    token: AtomicUsize::new(0),
    base_page: AtomicUsize::new(0),
};

static ENTRIES: [Entry; MAX_REGIONS] = [EMPTY_ENTRY; MAX_REGIONS];
/// One past the highest slot ever used; bounds the handler's scan.
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);
/// Serialises registration/deregistration (not touched by the handler).
static MUTATION: SpinLock<()> = SpinLock::new(());

/// A successful fault-address lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHit {
    /// The registrant's opaque token.
    pub token: usize,
    /// Global page id of the faulting page (`base_page + offset/page_size`).
    pub page: usize,
    /// Page-aligned address of the faulting page.
    pub page_addr: usize,
    /// The registered region the page lies in: its first byte and one past
    /// its last.
    pub region: (usize, usize),
}

/// Handle returned by [`register`]; pass it to [`deregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHandle(usize);

/// Errors from registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// All [`MAX_REGIONS`] slots are occupied.
    Full,
    /// The range overlaps an already registered region.
    Overlap,
    /// Zero-length or otherwise degenerate range.
    BadRange,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Full => write!(f, "region registry is full ({MAX_REGIONS} slots)"),
            RegistryError::Overlap => write!(f, "region overlaps an existing registration"),
            RegistryError::BadRange => write!(f, "degenerate region range"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Register `[start, start+len)` with an owner `token` and the global page
/// id of its first page. Normal-context only.
pub fn register(
    start: usize,
    len: usize,
    token: usize,
    base_page: usize,
) -> Result<RegionHandle, RegistryError> {
    if start == 0 || len == 0 {
        return Err(RegistryError::BadRange);
    }
    let end = start.checked_add(len).ok_or(RegistryError::BadRange)?;
    let _g = MUTATION.lock();
    // Overlap check against live entries.
    let hw = HIGH_WATER.load(Ordering::Relaxed);
    for e in &ENTRIES[..hw] {
        let s = e.start.load(Ordering::Relaxed);
        if s == 0 {
            continue;
        }
        let en = e.end.load(Ordering::Relaxed);
        if start < en && s < end {
            return Err(RegistryError::Overlap);
        }
    }
    // Find a free slot.
    for (i, e) in ENTRIES.iter().enumerate() {
        if e.start.load(Ordering::Relaxed) == 0 {
            e.end.store(end, Ordering::Relaxed);
            e.token.store(token, Ordering::Relaxed);
            e.base_page.store(base_page, Ordering::Relaxed);
            // Publish last; Release pairs with the handler's Acquire.
            e.start.store(start, Ordering::Release);
            if i + 1 > hw {
                HIGH_WATER.store(i + 1, Ordering::Release);
            }
            return Ok(RegionHandle(i));
        }
    }
    Err(RegistryError::Full)
}

/// Remove a registration. The caller must guarantee no thread can still
/// fault inside the region (i.e. the region is unprotected or unmapped
/// *after* this returns, never before).
pub fn deregister(handle: RegionHandle) {
    let _g = MUTATION.lock();
    ENTRIES[handle.0].start.store(0, Ordering::Release);
}

/// Async-signal-safe lookup: which region (if any) contains `addr`?
///
/// Called from the SIGSEGV handler: only atomic loads, no locks, no
/// allocation.
#[inline]
pub fn lookup(addr: usize) -> Option<RegionHit> {
    let hw = HIGH_WATER.load(Ordering::Acquire);
    let ps = crate::page_size();
    for e in &ENTRIES[..hw] {
        let start = e.start.load(Ordering::Acquire);
        if start == 0 || addr < start {
            continue;
        }
        let end = e.end.load(Ordering::Relaxed);
        if addr >= end {
            continue;
        }
        let token = e.token.load(Ordering::Relaxed);
        let base_page = e.base_page.load(Ordering::Relaxed);
        let page_off = (addr - start) / ps;
        return Some(RegionHit {
            token,
            page: base_page + page_off,
            page_addr: start + page_off * ps,
            region: (start, end),
        });
    }
    None
}

/// Number of live registrations (diagnostics).
pub fn live_regions() -> usize {
    let hw = HIGH_WATER.load(Ordering::Acquire);
    ENTRIES[..hw]
        .iter()
        .filter(|e| e.start.load(Ordering::Relaxed) != 0)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the registry is process-global; tests use disjoint synthetic
    // address ranges high above anything mmap returns in practice is NOT
    // guaranteed, so we use obviously fake ranges and deregister carefully.

    fn ps() -> usize {
        crate::page_size()
    }

    #[test]
    fn register_lookup_deregister() {
        let base = 0x7000_0000_0000usize;
        let h = register(base, 4 * ps(), 0xABCD, 100).unwrap();
        let hit = lookup(base + 2 * ps() + 17).expect("address inside region");
        assert_eq!(hit.token, 0xABCD);
        assert_eq!(hit.page, 102);
        assert_eq!(hit.page_addr, base + 2 * ps());
        assert!(lookup(base - 1).is_none());
        assert!(lookup(base + 4 * ps()).is_none());
        deregister(h);
        assert!(lookup(base).is_none());
    }

    #[test]
    fn overlapping_registration_rejected() {
        let base = 0x7100_0000_0000usize;
        let h = register(base, 2 * ps(), 1, 0).unwrap();
        assert_eq!(
            register(base + ps(), 2 * ps(), 2, 0).unwrap_err(),
            RegistryError::Overlap
        );
        // Adjacent (non-overlapping) is fine.
        let h2 = register(base + 2 * ps(), ps(), 3, 0).unwrap();
        deregister(h);
        deregister(h2);
    }

    #[test]
    fn degenerate_ranges_rejected() {
        assert_eq!(
            register(0, ps(), 1, 0).unwrap_err(),
            RegistryError::BadRange
        );
        assert_eq!(
            register(0x7200_0000_0000, 0, 1, 0).unwrap_err(),
            RegistryError::BadRange
        );
        assert_eq!(
            register(usize::MAX - 10, 100, 1, 0).unwrap_err(),
            RegistryError::BadRange
        );
    }

    #[test]
    fn slot_reuse_after_deregister() {
        let base = 0x7300_0000_0000usize;
        let before = live_regions();
        let h1 = register(base, ps(), 1, 0).unwrap();
        deregister(h1);
        let h2 = register(base, ps(), 2, 7).unwrap();
        let hit = lookup(base).unwrap();
        assert_eq!(hit.token, 2);
        assert_eq!(hit.page, 7);
        deregister(h2);
        assert_eq!(live_regions(), before);
    }

    #[test]
    fn concurrent_lookups_during_churn() {
        // Hammer lookups from several threads while registering and
        // deregistering; the property is "no torn entries": every hit must
        // be fully consistent (token matches the range it was bound to).
        let base = 0x7400_0000_0000usize;
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4 {
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if let Some(hit) = lookup(base + t * ps()) {
                            assert_eq!(hit.token, 0xFEED);
                        }
                    }
                });
            }
            for _ in 0..200 {
                let h = register(base, 8 * ps(), 0xFEED, 0).unwrap();
                std::hint::spin_loop();
                deregister(h);
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
