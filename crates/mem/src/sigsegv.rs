//! SIGSEGV interception and dispatch to the page manager's fault callback —
//! the trap half of the paper's dirty-page tracking (§3.4: "If the
//! application attempts to write to such pages, the kernel will trigger a
//! SIGSEGV signal, which we trap using a custom signal handler that
//! implements PROTECTED_PAGE_HANDLER").
//!
//! The same handler takes `SIGBUS` with `si_code` `BUS_ADRERR`: what a
//! [`Uffd`](crate::uffd::Uffd) raises for a fault in a range it registered
//! — a first write to a page it write-protected (the write tracker's trap
//! where userfaultfd write-protect opens; the `mprotect` + `SIGSEGV` trap
//! is the fallback elsewhere), or an access to a page the lazy restore has
//! not installed yet (its demand fault). The callback learns which signal
//! it got; which of the two a `SIGBUS` is, the runtime tells by the page's
//! fill state.
//!
//! The installed handler is deliberately tiny and auditable:
//!
//! 1. save `errno`;
//! 2. resolve the fault address through the lock-free
//!    [`registry`];
//! 3. if it belongs to a protected region, invoke the registered callback
//!    (the runtime's `PROTECTED_PAGE_HANDLER`), which must itself stay
//!    async-signal-safe: atomics, spinlock, `memcpy`, `mprotect`, `ioctl`,
//!    `sched_yield`/`nanosleep` only;
//! 4. otherwise forward to whatever handler was installed before ours for
//!    that signal, or re-raise it with the default disposition so genuine
//!    crashes still crash.

use std::io;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::registry::{self, RegionHit};

/// The runtime's fault entry point, given the signal (`SIGSEGV`, or
/// `SIGBUS` for a userfaultfd fault: a write-protected or a missing page).
/// Returns `true` if the fault was handled (the faulting instruction will
/// be retried), `false` to escalate.
pub type FaultCallback = fn(sig: libc::c_int, hit: RegionHit, fault_addr: usize) -> bool;

static CALLBACK: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);
/// The signals the handler takes.
const SIGNALS: [libc::c_int; 2] = [libc::SIGSEGV, libc::SIGBUS];
/// Previous disposition of each of [`SIGNALS`], captured exactly once at
/// install time.
static mut PREVIOUS: [MaybeUninit<libc::sigaction>; 2] = [MaybeUninit::uninit(); 2];

#[cfg(debug_assertions)]
thread_local! {
    /// Handler nesting depth of this thread. Debug-build tripwire for the
    /// callback discipline: the fault callback must never itself write to
    /// protected memory (or otherwise fault) — a nested SIGSEGV on the same
    /// thread would re-enter the engine spin lock and deadlock. Const-init
    /// TLS compiles to a plain TLS-block access (no lazy allocation), which
    /// keeps the debug path tolerably signal-safe; release builds skip it
    /// entirely.
    static HANDLER_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Debug guard asserting the SIGSEGV callback is never re-entered on the
/// same thread. Constructed at callback dispatch, dropped on return.
#[cfg(debug_assertions)]
struct ReentryGuard;

#[cfg(debug_assertions)]
impl ReentryGuard {
    fn enter() -> Self {
        HANDLER_DEPTH.with(|d| {
            let depth = d.get() + 1;
            d.set(depth);
            assert_eq!(
                depth, 1,
                "SIGSEGV handler re-entered on the same thread: the fault \
                 callback touched protected memory or faulted itself"
            );
        });
        ReentryGuard
    }
}

#[cfg(debug_assertions)]
impl Drop for ReentryGuard {
    fn drop(&mut self) {
        HANDLER_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Install the handler for `SIGSEGV` and `SIGBUS` (idempotent) and set the
/// fault callback.
///
/// Must be called before any region is write-protected; the runtime does
/// this during page-manager construction.
pub fn install(callback: FaultCallback) -> io::Result<()> {
    CALLBACK.store(callback as usize, Ordering::Release);
    if INSTALLED.swap(true, Ordering::AcqRel) {
        return Ok(()); // already installed; callback swapped above
    }
    // SAFETY: standard sigaction installation; `PREVIOUS` is written only
    // here, each slot before its signal can possibly be routed to
    // `forward`.
    unsafe {
        let mut action: libc::sigaction = std::mem::zeroed();
        action.sa_sigaction = handler as *const () as usize;
        action.sa_flags = libc::SA_SIGINFO;
        libc::sigemptyset(&mut action.sa_mask);
        let prev_ptr = &raw mut PREVIOUS;
        for (i, sig) in SIGNALS.into_iter().enumerate() {
            if libc::sigaction(sig, &action, (*prev_ptr)[i].as_mut_ptr()) != 0 {
                let err = io::Error::last_os_error();
                // Put back what this call already replaced.
                for (j, done) in SIGNALS.into_iter().enumerate().take(i) {
                    libc::sigaction(done, (*prev_ptr)[j].as_ptr(), std::ptr::null_mut());
                }
                INSTALLED.store(false, Ordering::Release);
                return Err(err);
            }
        }
    }
    Ok(())
}

/// Whether the handler has been installed.
pub fn is_installed() -> bool {
    INSTALLED.load(Ordering::Acquire)
}

/// Clear the callback (used by tests between scenarios). Faults on
/// registered regions after this escalate to the previous disposition.
pub fn clear_callback() {
    CALLBACK.store(0, Ordering::Release);
}

unsafe extern "C" fn handler(sig: libc::c_int, info: *mut libc::siginfo_t, ctx: *mut libc::c_void) {
    // SAFETY: errno location is thread-local and always valid.
    let saved_errno = unsafe { *libc::__errno_location() };
    // SAFETY: the kernel hands us a valid siginfo for SA_SIGINFO handlers.
    let (addr, code) = unsafe { ((*info).si_addr() as usize, (*info).si_code) };
    // A SIGBUS other than a missing address (a hardware memory error) is
    // never ours: retrying its instruction would fault for ever.
    let ours = sig == libc::SIGSEGV || code == libc::BUS_ADRERR;
    if let Some(hit) = registry::lookup(addr).filter(|_| ours) {
        let cb = CALLBACK.load(Ordering::Acquire);
        if cb != 0 {
            // SAFETY: only ever stores a valid `FaultCallback` (or 0).
            let f: FaultCallback = unsafe { std::mem::transmute(cb) };
            #[cfg(debug_assertions)]
            let _reentry = ReentryGuard::enter();
            if f(sig, hit, addr) {
                // SAFETY: restoring thread-local errno.
                unsafe { *libc::__errno_location() = saved_errno };
                return;
            }
        }
    }
    // Not ours (or unhandled): forward to the pre-existing disposition.
    // SAFETY: see `forward`.
    unsafe { forward(sig, info, ctx) };
}

/// Chain to the handler that was installed before ours for `sig`, or
/// restore `sig`'s default action so the re-executed instruction terminates
/// the process with the usual semantics (core dump, crash reporters, ...).
unsafe fn forward(sig: libc::c_int, info: *mut libc::siginfo_t, ctx: *mut libc::c_void) {
    let slot = SIGNALS.iter().position(|&s| s == sig).unwrap_or(0);
    // SAFETY: PREVIOUS was initialised at install time (forward is only
    // reachable from the installed handler, for one of `SIGNALS`).
    let prev = unsafe { PREVIOUS[slot].assume_init() };
    let prev_fn = prev.sa_sigaction;
    if prev_fn == libc::SIG_DFL || prev_fn == libc::SIG_IGN {
        // SAFETY: reinstalling the default disposition; returning will
        // re-execute the faulting instruction and terminate the process.
        unsafe {
            let mut dfl: libc::sigaction = std::mem::zeroed();
            dfl.sa_sigaction = libc::SIG_DFL;
            libc::sigemptyset(&mut dfl.sa_mask);
            libc::sigaction(sig, &dfl, std::ptr::null_mut());
        }
        return;
    }
    if prev.sa_flags & libc::SA_SIGINFO != 0 {
        // SAFETY: the previous handler declared the 3-argument signature.
        let f: unsafe extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void) =
            unsafe { std::mem::transmute(prev_fn) };
        // SAFETY: forwarding the kernel-provided arguments verbatim.
        unsafe { f(sig, info, ctx) };
    } else {
        // SAFETY: the previous handler declared the 1-argument signature.
        let f: unsafe extern "C" fn(libc::c_int) = unsafe { std::mem::transmute(prev_fn) };
        // SAFETY: forwarding the signal number.
        unsafe { f(sig) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::Protection;
    use crate::region::MappedRegion;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// Faulting tests share process-global handler state; serialise them.
    static FAULT_TEST_LOCK: Mutex<()> = Mutex::new(());

    static FAULTS: AtomicUsize = AtomicUsize::new(0);
    static LAST_PAGE: AtomicUsize = AtomicUsize::new(usize::MAX);

    fn unprotect_and_count(_sig: libc::c_int, hit: RegionHit, _addr: usize) -> bool {
        FAULTS.fetch_add(1, Ordering::Relaxed);
        LAST_PAGE.store(hit.page, Ordering::Relaxed);
        // SAFETY: page_addr is page-aligned inside a registered mapping.
        unsafe {
            crate::protect::set_protection_raw(
                hit.page_addr,
                crate::page_size(),
                Protection::ReadWrite,
            )
            .unwrap();
        }
        true
    }

    #[test]
    fn write_fault_is_trapped_and_resumed() {
        let _g = FAULT_TEST_LOCK.lock().unwrap();
        let region = MappedRegion::new(4 * crate::page_size()).unwrap();
        install(unprotect_and_count).unwrap();
        let handle = registry::register(region.addr(), region.len(), 0x11, 1000).unwrap();
        region.protect(Protection::ReadOnly).unwrap();

        FAULTS.store(0, Ordering::Relaxed);
        // Write to page 2: exactly one fault, then writes flow freely.
        let p2 = region.page_addr(2) as *mut u8;
        unsafe {
            p2.write_volatile(55);
            p2.add(1).write_volatile(56);
        }
        assert_eq!(FAULTS.load(Ordering::Relaxed), 1);
        assert_eq!(LAST_PAGE.load(Ordering::Relaxed), 1002);
        assert_eq!(unsafe { region.page_slice(2) }[0], 55);
        assert_eq!(unsafe { region.page_slice(2) }[1], 56);

        // Reads never fault.
        let _ = unsafe { region.page_slice(3) }[0];
        assert_eq!(FAULTS.load(Ordering::Relaxed), 1);

        region.protect(Protection::ReadWrite).unwrap();
        registry::deregister(handle);
        clear_callback();
    }

    #[test]
    fn faults_from_multiple_threads_each_handled() {
        let _g = FAULT_TEST_LOCK.lock().unwrap();
        let pages = 8;
        let region = MappedRegion::new(pages * crate::page_size()).unwrap();
        install(unprotect_and_count).unwrap();
        let handle = registry::register(region.addr(), region.len(), 0x22, 0).unwrap();
        region.protect(Protection::ReadOnly).unwrap();
        FAULTS.store(0, Ordering::Relaxed);

        let base = region.addr();
        std::thread::scope(|s| {
            for t in 0..pages {
                s.spawn(move || {
                    let p = (base + t * crate::page_size()) as *mut u8;
                    // SAFETY: in-bounds write to our own mapping.
                    unsafe { p.write_volatile(t as u8 + 1) };
                });
            }
        });
        assert_eq!(FAULTS.load(Ordering::Relaxed), pages);
        for t in 0..pages {
            assert_eq!(unsafe { region.page_slice(t) }[0], t as u8 + 1);
        }
        region.protect(Protection::ReadWrite).unwrap();
        registry::deregister(handle);
        clear_callback();
    }

    /// The descriptor [`fill_missing_page`] copies through, while a test
    /// holds it.
    static UFFD: AtomicUsize = AtomicUsize::new(0);
    static LAST_SIG: AtomicUsize = AtomicUsize::new(0);

    /// Install the faulting page with every byte its page index + 1.
    fn fill_missing_page(sig: libc::c_int, hit: RegionHit, _addr: usize) -> bool {
        FAULTS.fetch_add(1, Ordering::Relaxed);
        LAST_SIG.store(sig as usize, Ordering::Relaxed);
        // SAFETY: the test stores a live `Uffd` before any access and
        // clears it only after the last one.
        let uffd = unsafe { &*(UFFD.load(Ordering::Acquire) as *const crate::uffd::Uffd) };
        uffd.copy(hit.page_addr, &[hit.page as u8 + 1; 4096], false)
            .is_ok()
    }

    #[test]
    fn a_read_of_a_registered_missing_page_is_a_sigbus_the_callback_fills() {
        let _g = FAULT_TEST_LOCK.lock().unwrap();
        let ps = crate::page_size();
        if ps != 4096 {
            return; // the callback installs a fixed 4 KiB page
        }
        let region = MappedRegion::new(4 * ps).unwrap();
        install(fill_missing_page).unwrap();
        let handle = registry::register(region.addr(), region.len(), 0x33, 0).unwrap();
        region.protect(Protection::ReadOnly).unwrap();
        let uffd = crate::uffd::Uffd::open().unwrap();
        uffd.register_missing(region.page_addr(1), 2 * ps).unwrap();
        UFFD.store(&uffd as *const _ as usize, Ordering::Release);
        FAULTS.store(0, Ordering::Relaxed);

        // A page outside the registration reads zero without a fault.
        assert_eq!(unsafe { region.page_slice(0) }[7], 0);
        assert_eq!(FAULTS.load(Ordering::Relaxed), 0);
        // A registered page raises SIGBUS once; the copy lands it whole.
        let p2 = unsafe { region.page_slice(2) };
        assert_eq!(unsafe { std::ptr::read_volatile(&p2[100]) }, 3);
        assert_eq!(FAULTS.load(Ordering::Relaxed), 1);
        assert_eq!(LAST_SIG.load(Ordering::Relaxed), libc::SIGBUS as usize);
        assert!(p2.iter().all(|&b| b == 3));
        assert_eq!(FAULTS.load(Ordering::Relaxed), 1, "installed once");

        UFFD.store(0, Ordering::Release);
        drop(uffd);
        region.protect(Protection::ReadWrite).unwrap();
        registry::deregister(handle);
        clear_callback();
    }

    /// Lift the write protection of the faulting page through the test's
    /// descriptor.
    fn lift_write_protect(sig: libc::c_int, hit: RegionHit, _addr: usize) -> bool {
        FAULTS.fetch_add(1, Ordering::Relaxed);
        LAST_SIG.store(sig as usize, Ordering::Relaxed);
        LAST_PAGE.store(hit.page, Ordering::Relaxed);
        // SAFETY: as in `fill_missing_page`.
        let uffd = unsafe { &*(UFFD.load(Ordering::Acquire) as *const crate::uffd::Uffd) };
        uffd.unprotect(hit.page_addr, crate::page_size()).is_ok()
    }

    #[test]
    fn a_write_to_a_write_protected_page_is_one_sigbus_the_callback_lifts() {
        let _g = FAULT_TEST_LOCK.lock().unwrap();
        let ps = crate::page_size();
        let region = MappedRegion::new(4 * ps).unwrap();
        // Page 1 is resident; pages 0, 2 and 3 were never touched.
        unsafe { region.as_ptr().add(ps).write_volatile(7) };
        install(lift_write_protect).unwrap();
        let handle = registry::register(region.addr(), region.len(), 0x44, 500).unwrap();
        let uffd = crate::uffd::Uffd::open_write_protect().unwrap();
        uffd.register_write_protect(region.addr(), region.len(), false)
            .unwrap();
        uffd.write_protect(region.addr(), region.len()).unwrap();
        UFFD.store(&uffd as *const _ as usize, Ordering::Release);
        FAULTS.store(0, Ordering::Relaxed);

        // Reads never fault, resident or not.
        let read = |i: usize| unsafe { (region.page_addr(i) as *const u8).read_volatile() };
        assert_eq!((read(0), read(1), read(3)), (0, 7, 0));
        assert_eq!(FAULTS.load(Ordering::Relaxed), 0);
        // A write to each page raises one SIGBUS, then writes flow freely.
        for (i, page) in [(1, 501), (2, 502)] {
            let p = region.page_addr(i) as *mut u8;
            unsafe {
                p.write_volatile(40 + i as u8);
                p.add(1).write_volatile(41 + i as u8);
            }
            assert_eq!(LAST_PAGE.load(Ordering::Relaxed), page);
        }
        assert_eq!(FAULTS.load(Ordering::Relaxed), 2, "one fault per page");
        assert_eq!(LAST_SIG.load(Ordering::Relaxed), libc::SIGBUS as usize);
        assert_eq!(unsafe { region.page_slice(1) }[..2], [41, 42]);
        assert_eq!(unsafe { region.page_slice(2) }[..2], [42, 43]);
        assert_eq!(read(3), 0);
        assert_eq!(FAULTS.load(Ordering::Relaxed), 2);

        // Closing the descriptor drops the protection of the rest.
        UFFD.store(0, Ordering::Release);
        drop(uffd);
        unsafe { region.as_ptr().write_volatile(1) };
        assert_eq!(FAULTS.load(Ordering::Relaxed), 2);
        registry::deregister(handle);
        clear_callback();
    }

    #[test]
    fn install_is_idempotent() {
        let _g = FAULT_TEST_LOCK.lock().unwrap();
        install(unprotect_and_count).unwrap();
        install(unprotect_and_count).unwrap();
        assert!(is_installed());
        clear_callback();
    }
}
