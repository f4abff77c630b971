//! # ai-ckpt-mem — OS memory substrate for AI-Ckpt
//!
//! The mechanisms of §3.4 of the paper, from scratch on Linux:
//!
//! * [`region`] — page-aligned anonymous mappings for protected memory
//!   regions;
//! * [`protect`] — typed `mprotect` wrappers (including an
//!   async-signal-safe variant for the fault path);
//! * [`registry`] — a lock-free, fixed-capacity table resolving fault
//!   addresses to regions from inside the signal handler;
//! * [`sigsegv`] — SIGSEGV (and userfaultfd SIGBUS) installation, dispatch
//!   to the page manager's callback, and faithful forwarding of genuine
//!   crashes;
//! * [`uffd`] — a userfaultfd that write-protects pages without splitting
//!   their mapping (the write tracker's trap) and installs whole pages
//!   atomically (the lazy restore's landing);
//! * [`alloc`] — transparent capture of large allocations through a
//!   `#[global_allocator]` wrapper (the equivalent of the paper's preloaded
//!   jemalloc-based interposition library).
//!
//! This crate is deliberately mechanism-only: *policy* (what to do on a
//! write fault) lives in `ai-ckpt-core`, and the `ai-ckpt` runtime wires the
//! two together.
//!
//! ## Platform support
//!
//! Linux only (`mprotect`, userfaultfd, `SIGSEGV`/`SIGBUS` + `SA_SIGINFO`,
//! `sysconf`). The paper's evaluation platforms (Grid'5000, Shamrock) were
//! Linux clusters.
//!
//! ## A note the paper also makes
//!
//! System calls that *write* into write-protected user memory (e.g.
//! `read(2)` into a protected buffer) do not raise `SIGSEGV` or `SIGBUS` —
//! they fail with `EFAULT`. The paper traps the affected syscalls and
//! pre-faults the pages; our runtime exposes [`touch_pages`] for
//! applications to do the same explicitly before handing protected buffers
//! to the kernel.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg(target_os = "linux")]

pub mod alloc;
pub mod page_size;
pub mod protect;
pub mod region;
pub mod registry;
pub mod sigsegv;
pub mod uffd;

pub use page_size::{page_base, page_size, round_up_to_page};
pub use protect::{set_protection, set_protection_raw, Protection};
pub use region::MappedRegion;
pub use registry::{RegionHandle, RegionHit, RegistryError, MAX_REGIONS};
pub use sigsegv::{clear_callback, install, is_installed, FaultCallback};
pub use uffd::Uffd;

/// Pre-fault a byte range by performing a volatile read-modify-write of one
/// byte per page. Use before passing protected buffers to syscalls that
/// write into them (see the crate docs).
///
/// # Safety
/// `ptr..ptr+len` must be valid, writable-after-fault memory owned by the
/// caller (i.e. a protected region with the runtime's handler installed).
pub unsafe fn touch_pages(ptr: *mut u8, len: usize) {
    if len == 0 {
        return;
    }
    let ps = page_size();
    let start = page_base(ptr as usize);
    let end = ptr as usize + len;
    let mut addr = start;
    while addr < end {
        // Touch the first byte covered by the caller's range on this page.
        let target = addr.max(ptr as usize) as *mut u8;
        // SAFETY: in-range per the function contract; volatile RMW defeats
        // the optimizer without changing the value.
        unsafe {
            let v = target.read_volatile();
            target.write_volatile(v);
        }
        addr += ps;
    }
}

/// Ask the kernel to back `[addr, addr + len)` with transparent huge pages
/// (`madvise(MADV_HUGEPAGE)`). Only whole 2 MiB ranges of one writable
/// mapping get them, at their first touch; a range that a protection
/// change splits stays on base pages. The call is advice: it changes no
/// byte and no protection, so its error (THP off, an unaligned or unmapped
/// range) is ignored.
pub fn advise_huge_pages(addr: usize, len: usize) {
    // SAFETY: MADV_HUGEPAGE only sets a paging hint on whatever is mapped
    // in the range; it cannot change memory contents.
    let _ = unsafe { libc::madvise(addr as *mut libc::c_void, len, libc::MADV_HUGEPAGE) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_pages_covers_every_page() {
        let region = MappedRegion::new(4 * page_size()).unwrap();
        // No protection involved: just verify it doesn't stray out of range
        // and touches without changing content.
        unsafe {
            region.as_ptr().add(10).write(123);
            touch_pages(region.as_ptr().add(5), 3 * page_size());
        }
        assert_eq!(unsafe { region.as_slice() }[10], 123);
    }

    #[test]
    fn huge_page_advice_changes_no_byte() {
        let region = MappedRegion::new(4 * page_size()).unwrap();
        unsafe { region.as_ptr().add(10).write(123) };
        advise_huge_pages(region.addr(), region.len());
        assert_eq!(unsafe { region.as_slice() }[10], 123);
        // Advice over nothing mapped is ignored.
        advise_huge_pages(0x10_0000_0000, page_size());
    }

    #[test]
    fn touch_pages_zero_len_is_noop() {
        unsafe { touch_pages(std::ptr::null_mut(), 0) };
    }
}
