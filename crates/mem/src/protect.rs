//! Thin, typed wrapper over `mprotect(2)` — the mechanism the paper uses to
//! trap first writes (§3.4: "In order to trap writes to memory, we rely on
//! the mprotect system call to mark specific pages as read only"), which
//! the runtime keeps as its fallback where userfaultfd write-protect
//! ([`Uffd`](crate::uffd::Uffd)) does not open, and for poison.

use std::io;

/// Page protection level. On the write-tracking path we never remove read
/// permission (the committer reads live pages while they are
/// write-protected); [`Protection::None`] exists for the demand-paged restore
/// path, where a page whose content will never arrive must trap on *any*
/// access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// `PROT_NONE`: any access traps with `SIGSEGV`. Used for poison only:
    /// a failed or stopped restore makes every page it still owed
    /// `PROT_NONE`, so touching one is a genuine crash rather than a read
    /// of zeroes. (The lazy door's pages await their fill as
    /// userfaultfd-registered memory; an eager restore fills writable pages
    /// in place.)
    None,
    /// `PROT_READ`: reads allowed, writes trap with `SIGSEGV`.
    ReadOnly,
    /// `PROT_READ | PROT_WRITE`: normal access.
    ReadWrite,
}

impl Protection {
    fn to_prot(self) -> libc::c_int {
        match self {
            Protection::None => libc::PROT_NONE,
            Protection::ReadOnly => libc::PROT_READ,
            Protection::ReadWrite => libc::PROT_READ | libc::PROT_WRITE,
        }
    }
}

/// Change protection on `[addr, addr + len)`.
///
/// # Safety
/// `addr` must be page-aligned and the range must lie within a mapping owned
/// by the caller. Revoking write access to memory that other code expects to
/// write without a fault handler installed will crash the process; the
/// runtime guarantees a handler is installed before any region is protected.
pub unsafe fn set_protection(addr: usize, len: usize, prot: Protection) -> io::Result<()> {
    debug_assert_eq!(addr % crate::page_size(), 0, "unaligned mprotect");
    if len == 0 {
        return Ok(());
    }
    // SAFETY: caller upholds the range contract.
    let rc = unsafe { libc::mprotect(addr as *mut libc::c_void, len, prot.to_prot()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Async-signal-safe variant for the fault handler: returns the raw errno
/// instead of constructing an `io::Error` (which could allocate via its
/// `Display` machinery later, but construction itself is fine — we avoid it
/// anyway to keep the handler path trivially auditable).
///
/// # Safety
/// Same contract as [`set_protection`].
#[inline]
pub unsafe fn set_protection_raw(addr: usize, len: usize, prot: Protection) -> Result<(), i32> {
    // SAFETY: caller upholds the range contract.
    let rc = unsafe { libc::mprotect(addr as *mut libc::c_void, len, prot.to_prot()) };
    if rc == 0 {
        Ok(())
    } else {
        // SAFETY: errno read is async-signal-safe.
        Err(unsafe { *libc::__errno_location() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::MappedRegion;

    #[test]
    fn protect_and_unprotect_round_trip() {
        let region = MappedRegion::new(crate::page_size() * 2).unwrap();
        // Writable by default.
        unsafe { region.as_ptr().write(42) };
        unsafe {
            set_protection(region.addr(), region.len(), Protection::ReadOnly).unwrap();
        }
        // Reads still fine.
        assert_eq!(unsafe { region.as_ptr().read() }, 42);
        unsafe {
            set_protection(region.addr(), region.len(), Protection::ReadWrite).unwrap();
        }
        unsafe { region.as_ptr().write(43) };
        assert_eq!(unsafe { region.as_ptr().read() }, 43);
    }

    #[test]
    fn prot_none_blocks_until_lifted() {
        let region = MappedRegion::new(crate::page_size()).unwrap();
        unsafe { region.as_ptr().write(7) };
        unsafe {
            set_protection(region.addr(), region.len(), Protection::None).unwrap();
        }
        // Can't touch the page from here without faulting, but lifting the
        // protection must expose the original contents unchanged.
        unsafe {
            set_protection(region.addr(), region.len(), Protection::ReadWrite).unwrap();
        }
        assert_eq!(unsafe { region.as_ptr().read() }, 7);
    }

    #[test]
    fn zero_len_is_noop() {
        unsafe { set_protection(0x1000, 0, Protection::ReadOnly).unwrap() };
    }

    #[test]
    fn raw_variant_reports_errno() {
        // Unmapped (but aligned) address — mprotect fails with ENOMEM.
        let bogus = 0x10_0000_0000usize;
        let err = unsafe {
            set_protection_raw(bogus, crate::page_size(), Protection::ReadOnly).unwrap_err()
        };
        assert_eq!(err, libc::ENOMEM);
    }
}
