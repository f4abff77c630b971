//! A userfaultfd: the write tracker's write-protect, and the lazy
//! restore's atomic landing.
//!
//! **Write-protect.** A range registered with
//! [`Uffd::register_write_protect`] traps the first write to each page that
//! [`Uffd::write_protect`] (`UFFDIO_WRITEPROTECT`) protected, and
//! [`Uffd::unprotect`] lifts one page again with one ioctl. Protection
//! lives in the page tables, not in the mapping's flags, so neither call
//! splits the mapping: a region stays one mapping whatever pattern its
//! writes take. The descriptor [`Uffd::open_write_protect`] returns asks
//! for `UFFD_FEATURE_WP_UNPOPULATED`, so protecting a page that was never
//! touched leaves a marker in the page table and its first write traps
//! too (Linux 6.4).
//!
//! **Landing.** A range registered for missing-page faults holds no page
//! until one is copied in: [`Uffd::copy`] (`UFFDIO_COPY`) allocates the
//! pages, fills them and maps them in one step, so no thread can ever
//! observe a half-written page, and the mapping's protection applies to
//! them as to any page (copied into `PROT_READ` memory, a page is read-only
//! at once — no `mprotect` publishes it; copied write-protected into a
//! write-protect range, it is tracked at once).
//!
//! Every descriptor asks for `UFFD_FEATURE_SIGBUS`: a user-mode fault in a
//! registered range — a write to a protected page, or any access to a page
//! not present yet — raises `SIGBUS`, which [`sigsegv`](crate::sigsegv)
//! dispatches to the same callback as `SIGSEGV`; a kernel-mode access (a
//! syscall reading a missing page or writing a protected one) fails with
//! `EFAULT`. Closing the descriptor drops every registration, after which
//! a page never copied reads as zero and no page is write-protected. A
//! range one descriptor registered refuses another (`EBUSY`): a mapping
//! has one owner, and the runtime lands a lazy restore through the
//! descriptor that already tracks the buffer.
//!
//! It opens with `UFFD_USER_MODE_ONLY`, which an unprivileged process may
//! use since Linux 5.11 whatever `vm.unprivileged_userfaultfd` says.

use std::io;

/// An open userfaultfd that raises `SIGBUS` for the faults of its
/// registered ranges; closed on drop, which drops its registrations.
#[derive(Debug)]
pub struct Uffd {
    fd: libc::c_int,
}

impl Uffd {
    /// Open a descriptor for landing pages (missing-page faults only). Fails
    /// where userfaultfd is not available: `ENOSYS` (not built in), `EPERM`
    /// (a seccomp profile), `EINVAL` (before Linux 5.11).
    pub fn open() -> io::Result<Self> {
        Self::open_with(libc::UFFD_FEATURE_SIGBUS)
    }

    /// Open a descriptor for write tracking: missing-page and write-protect
    /// faults, `UFFD_FEATURE_WP_UNPOPULATED` included. Before it returns it
    /// checks on a scratch mapping of two pages that everything the tracker
    /// relies on works here: registering a range for write-protect faults
    /// (and one for missing-page faults too) and write-protecting across
    /// both in one call. Fails like [`Uffd::open`], and with `EINVAL` where
    /// the kernel lacks a feature (anonymous write-protect before 5.7,
    /// `WP_UNPOPULATED` before 6.4).
    pub fn open_write_protect() -> io::Result<Self> {
        let uffd = Self::open_with(libc::UFFD_FEATURE_SIGBUS | libc::UFFD_FEATURE_WP_UNPOPULATED)?;
        let ps = crate::page_size();
        let probe = crate::MappedRegion::new(2 * ps)?;
        uffd.register_write_protect(probe.addr(), ps, true)?;
        uffd.register_write_protect(probe.addr() + ps, ps, false)?;
        uffd.write_protect(probe.addr(), 2 * ps)?;
        Ok(uffd)
    }

    /// Open with `UFFD_USER_MODE_ONLY | O_CLOEXEC | O_NONBLOCK` and make the
    /// API handshake asking for `features`.
    fn open_with(features: u64) -> io::Result<Self> {
        let flags = libc::UFFD_USER_MODE_ONLY | libc::O_CLOEXEC | libc::O_NONBLOCK;
        // SAFETY: userfaultfd(2) takes one flags argument and returns a new
        // descriptor or -1.
        let fd = unsafe { libc::syscall(libc::SYS_userfaultfd, flags) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let uffd = Self {
            fd: fd as libc::c_int,
        };
        let mut api = libc::uffdio_api {
            api: libc::UFFD_API,
            features,
            ioctls: 0,
        };
        uffd.ioctl(libc::UFFDIO_API, &mut api)?;
        Ok(uffd)
    }

    /// Register `[addr, addr + len)` for missing-page faults. The range
    /// must be page-aligned and lie in private anonymous mappings.
    pub fn register_missing(&self, addr: usize, len: usize) -> io::Result<()> {
        self.register(addr, len, libc::UFFDIO_REGISTER_MODE_MISSING)
    }

    /// Register `[addr, addr + len)` for write-protect faults, and for
    /// missing-page faults too when `missing`. A range this descriptor
    /// holds already takes both modes when asked for both; asked for fewer
    /// modes than it has, it keeps them all (only closing the descriptor
    /// drops a mode, and with it every write-protection of the range).
    pub fn register_write_protect(&self, addr: usize, len: usize, missing: bool) -> io::Result<()> {
        let mode = match missing {
            true => libc::UFFDIO_REGISTER_MODE_MISSING | libc::UFFDIO_REGISTER_MODE_WP,
            false => libc::UFFDIO_REGISTER_MODE_WP,
        };
        self.register(addr, len, mode)
    }

    fn register(&self, addr: usize, len: usize, mode: u64) -> io::Result<()> {
        let mut register = libc::uffdio_register {
            range: libc::uffdio_range {
                start: addr as u64,
                len: len as u64,
            },
            mode,
            ioctls: 0,
        };
        self.ioctl(libc::UFFDIO_REGISTER, &mut register)
    }

    /// Write-protect `[addr, addr + len)`, which must lie in ranges
    /// registered for write-protect faults: the next write to each page
    /// traps, present or not.
    pub fn write_protect(&self, addr: usize, len: usize) -> io::Result<()> {
        self.change_protection(addr, len, libc::UFFDIO_WRITEPROTECT_MODE_WP)
    }

    /// Lift the write protection of `[addr, addr + len)`: the writes
    /// retried after it land without a fault.
    ///
    /// Async-signal-safe: one ioctl, no allocation.
    pub fn unprotect(&self, addr: usize, len: usize) -> io::Result<()> {
        self.change_protection(addr, len, libc::UFFDIO_WRITEPROTECT_MODE_DONTWAKE)
    }

    fn change_protection(&self, addr: usize, len: usize, mode: u64) -> io::Result<()> {
        let mut wp = libc::uffdio_writeprotect {
            range: libc::uffdio_range {
                start: addr as u64,
                len: len as u64,
            },
            mode,
        };
        self.ioctl(libc::UFFDIO_WRITEPROTECT, &mut wp)
    }

    /// Install `src` at `dst`: the pages become present with `src`'s bytes
    /// in one step, write-protected too when `write_protect` (the range
    /// must then be registered for write-protect faults). `dst` must be
    /// page-aligned in a registered range and `src` a whole number of
    /// pages, inside one mapping. A partial copy (`EAGAIN`) goes on from
    /// the bytes already copied; any other error fails the copy —
    /// `EEXIST` too, which means a page was present already.
    ///
    /// Async-signal-safe: one ioctl per attempt, no allocation.
    pub fn copy(&self, dst: usize, src: &[u8], write_protect: bool) -> io::Result<()> {
        let mode = if write_protect {
            libc::UFFDIO_COPY_MODE_WP
        } else {
            0
        };
        let mut done = 0;
        while done < src.len() {
            let mut copy = libc::uffdio_copy {
                dst: (dst + done) as u64,
                src: src[done..].as_ptr() as u64,
                len: (src.len() - done) as u64,
                mode,
                copy: 0,
            };
            match self.ioctl(libc::UFFDIO_COPY, &mut copy) {
                Ok(()) => return Ok(()),
                Err(e) if e.raw_os_error() == Some(libc::EAGAIN) => {
                    // `copy` holds the bytes copied, or -EAGAIN for none.
                    done += copy.copy.max(0) as usize;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Map the zero page over `[addr, addr + len)`, page-aligned in a
    /// registered range with no page present: it reads zero, and its first
    /// write is an ordinary copy-on-write, not a userfaultfd fault. `EEXIST`
    /// if a page was present already.
    ///
    /// Async-signal-safe: one ioctl, no allocation.
    pub fn zero(&self, addr: usize, len: usize) -> io::Result<()> {
        let mut zero = libc::uffdio_zeropage {
            range: libc::uffdio_range {
                start: addr as u64,
                len: len as u64,
            },
            mode: 0,
            zeropage: 0,
        };
        self.ioctl(libc::UFFDIO_ZEROPAGE, &mut zero)
    }

    fn ioctl<T>(&self, request: libc::c_ulong, arg: &mut T) -> io::Result<()> {
        // SAFETY: every request this type issues takes a pointer to the
        // struct it is paired with, which lives across the call.
        let rc = unsafe { libc::ioctl(self.fd, request, arg as *mut T) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

impl Drop for Uffd {
    fn drop(&mut self) {
        // SAFETY: the descriptor is ours and closed exactly once.
        unsafe { libc::close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_size;
    use crate::protect::{set_protection, Protection};
    use crate::region::MappedRegion;

    #[test]
    fn a_copy_installs_whole_pages_into_read_only_memory_once() {
        let ps = page_size();
        let region = MappedRegion::new(4 * ps).unwrap();
        unsafe { set_protection(region.addr(), region.len(), Protection::ReadOnly).unwrap() };
        let uffd = Uffd::open().unwrap();
        uffd.register_missing(region.addr(), region.len()).unwrap();
        let src: Vec<u8> = (0..2 * ps).map(|i| (i / ps) as u8 + 1).collect();
        uffd.copy(region.page_addr(1), &src, false).unwrap();
        let bytes = unsafe { region.as_slice() };
        assert!(bytes[ps..2 * ps].iter().all(|&b| b == 1));
        assert!(bytes[2 * ps..3 * ps].iter().all(|&b| b == 2));
        // A present page refuses a second copy.
        let again = uffd
            .copy(region.page_addr(2), &src[..ps], false)
            .unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::AlreadyExists, "{again}");
        // Closing drops the registration: a page never copied reads zero.
        drop(uffd);
        assert!(bytes[..ps].iter().all(|&b| b == 0));
        assert!(bytes[3 * ps..].iter().all(|&b| b == 0));
    }
}
