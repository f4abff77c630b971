//! A userfaultfd for installing page contents atomically — the lazy
//! restore's landing mechanism.
//!
//! A range registered for missing-page faults holds no page until one is
//! copied in: [`Uffd::copy`] (`UFFDIO_COPY`) allocates the pages, fills
//! them and maps them in one step, so no thread can ever observe a
//! half-written page, and the mapping's protection applies to them as to
//! any page (copied into `PROT_READ` memory, a page is read-only at once —
//! no `mprotect` publishes it). The descriptor asks for
//! `UFFD_FEATURE_SIGBUS`: a user-mode access to a registered page not
//! present yet raises `SIGBUS`, which [`sigsegv`](crate::sigsegv) dispatches
//! to the same callback as `SIGSEGV`; a kernel-mode access (a syscall
//! reading the page) fails with `EFAULT`. Closing the descriptor drops
//! every registration, after which a page never copied reads as zero.
//!
//! It opens with `UFFD_USER_MODE_ONLY`, which an unprivileged process may
//! use since Linux 5.11 whatever `vm.unprivileged_userfaultfd` says.

use std::io;

/// An open userfaultfd that raises `SIGBUS` for missing pages; closed on
/// drop, which drops its registrations.
#[derive(Debug)]
pub struct Uffd {
    fd: libc::c_int,
}

impl Uffd {
    /// Open a descriptor (`UFFD_USER_MODE_ONLY | O_CLOEXEC | O_NONBLOCK`)
    /// and make the API handshake asking for `UFFD_FEATURE_SIGBUS`. Fails
    /// where userfaultfd is not available: `ENOSYS` (not built in), `EPERM`
    /// (a seccomp profile), `EINVAL` (before Linux 5.11, or without the
    /// feature).
    pub fn open() -> io::Result<Self> {
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
            features: libc::UFFD_FEATURE_SIGBUS,
            ioctls: 0,
        };
        uffd.ioctl(libc::UFFDIO_API, &mut api)?;
        Ok(uffd)
    }

    /// Register `[addr, addr + len)` for missing-page faults. The range
    /// must be page-aligned and lie in private anonymous mappings.
    pub fn register_missing(&self, addr: usize, len: usize) -> io::Result<()> {
        let mut register = libc::uffdio_register {
            range: libc::uffdio_range {
                start: addr as u64,
                len: len as u64,
            },
            mode: libc::UFFDIO_REGISTER_MODE_MISSING,
            ioctls: 0,
        };
        self.ioctl(libc::UFFDIO_REGISTER, &mut register)
    }

    /// Install `src` at `dst`: the pages become present with `src`'s bytes
    /// in one step. `dst` must be page-aligned in a registered range and
    /// `src` a whole number of pages, inside one mapping. A partial copy
    /// (`EAGAIN`) goes on from the bytes already copied; any other error
    /// fails the copy — `EEXIST` too, which means a page was present
    /// already.
    ///
    /// Async-signal-safe: one ioctl per attempt, no allocation.
    pub fn copy(&self, dst: usize, src: &[u8]) -> io::Result<()> {
        let mut done = 0;
        while done < src.len() {
            let mut copy = libc::uffdio_copy {
                dst: (dst + done) as u64,
                src: src[done..].as_ptr() as u64,
                len: (src.len() - done) as u64,
                mode: 0,
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
        uffd.copy(region.page_addr(1), &src).unwrap();
        let bytes = unsafe { region.as_slice() };
        assert!(bytes[ps..2 * ps].iter().all(|&b| b == 1));
        assert!(bytes[2 * ps..3 * ps].iter().all(|&b| b == 2));
        // A present page refuses a second copy.
        let again = uffd.copy(region.page_addr(2), &src[..ps]).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::AlreadyExists, "{again}");
        // Closing drops the registration: a page never copied reads zero.
        drop(uffd);
        assert!(bytes[..ps].iter().all(|&b| b == 0));
        assert!(bytes[3 * ps..].iter().all(|&b| b == 0));
    }
}
