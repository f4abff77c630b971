//! Low-level vectored I/O engine behind the [`crate::segment`] writer and reader.
//!
//! The write path built on this module is zero-copy for raw payloads: each
//! page record becomes two iovec entries — a 25-byte frame staged in a
//! reusable aligned buffer and a payload entry pointing *straight at the
//! caller's bytes* (live page memory or a CoW slot) — gathered into one
//! `pwritev(2)` per batch. Nothing passes through a `BufWriter`, so the
//! kernel copies each payload exactly once, from its home into the page
//! cache.
//!
//! Five pieces live here:
//!
//! * the one gate of the file engine's mutating syscalls: `GatedFile`
//!   (create, positioned writes, truncate, fsync of a file the engine
//!   writes) and the directory calls beside it (mkdir, directory fsync,
//!   rename, unlink). `segment`, `log` and `file` make no mutating syscall
//!   any other way. Under a [`Leaf`] each is one numbered call of its
//!   [`FailureControl`](crate::FailureControl) — crashable, failable, with
//!   durability modeled (see [`crate::failing`]); production opens pass no
//!   leaf, and pay one `Option` test per syscall;
//! * [`pwritev_full`] — a positioned vectored write that survives partial
//!   writes, `EINTR` and `IOV_MAX` chunking, the way `write_all` does for
//!   plain writes;
//! * [`AlignedBuf`] — a reusable page-aligned growable buffer for staging
//!   record frames and compressed payloads (reused across batches, so the
//!   steady state allocates nothing);
//! * [`IoCounters`] / [`IoStats`] — syscall-level accounting (vectored
//!   writes, fsyncs, manifest append coalescing, bytes per syscall) that
//!   backends surface through `StorageBackend::io_stats` and the runtime
//!   re-exports in its `RuntimeStats`.

use std::alloc::{self, Layout};
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::failing::{Leaf, Syscall};

/// Alignment of [`AlignedBuf`] allocations: one 4 KiB page, the natural
/// unit for page-cache-friendly staging (and a hard requirement if the
/// backend ever opens segments with `O_DIRECT`).
pub const BUF_ALIGN: usize = 4096;

/// One mutating syscall, as the gate sees it: its kind, the file or
/// directory it names (a rename's target) and what its kind needs besides.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sys<'a> {
    pub(crate) kind: Syscall,
    pub(crate) path: &'a Path,
    /// A rename's source.
    pub(crate) from: &'a Path,
    /// A write's offset; a truncate's length.
    pub(crate) at: u64,
    /// What a write carries — gathered only under a leaf.
    pub(crate) bytes: &'a [u8],
}

impl<'a> Sys<'a> {
    fn new(kind: Syscall, path: &'a Path) -> Self {
        let (from, at, bytes) = (Path::new(""), 0, &[][..]);
        Self {
            kind,
            path,
            from,
            at,
            bytes,
        }
    }
}

/// The gate: under a leaf, number `sys` on its control and apply what is
/// armed, then make the call and tell the control's disk model; with none,
/// just make the call.
fn syscall<T>(
    gate: Option<&Leaf>,
    sys: Sys<'_>,
    call: impl FnOnce() -> io::Result<T>,
) -> io::Result<T> {
    let Some(leaf) = gate else {
        return call();
    };
    let number = leaf.enter(&sys)?;
    let out = call()?;
    leaf.done(number, &sys);
    Ok(out)
}

/// A durability barrier through the gate: issued for real without a leaf;
/// under one the control's disk model records it instead.
fn barrier(
    gate: Option<&Leaf>,
    sys: Sys<'_>,
    sync: impl FnOnce() -> io::Result<()>,
) -> io::Result<()> {
    syscall(gate, sys, || match gate {
        Some(_) => Ok(()),
        None => sync(),
    })
}

/// A file the engine writes. Every mutating call on it is one syscall
/// through the gate; reads go to [`GatedFile::file`] directly.
#[derive(Debug)]
pub(crate) struct GatedFile {
    pub(crate) file: File,
    /// The leaf its calls are numbered on, and its name for the disk model
    /// (`None` in production: nothing is allocated for it).
    gate: Option<(Leaf, PathBuf)>,
}

impl GatedFile {
    /// Create (truncating) `path` for writing.
    pub(crate) fn create(gate: Option<&Leaf>, path: &Path) -> io::Result<Self> {
        let file = syscall(gate, Sys::new(Syscall::Create, path), || {
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(path)
        })?;
        Ok(Self::wrap(gate, path, file))
    }

    /// Open the existing `path` for reading and writing (creating nothing,
    /// so no call of the gate).
    pub(crate) fn open(gate: Option<&Leaf>, path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Self::wrap(gate, path, file))
    }

    fn wrap(gate: Option<&Leaf>, path: &Path, file: File) -> Self {
        let gate = gate.map(|leaf| (leaf.clone(), path.to_owned()));
        Self { file, gate }
    }

    fn leaf(&self) -> Option<&Leaf> {
        self.gate.as_ref().map(|(leaf, _)| leaf)
    }

    fn path(&self) -> &Path {
        self.gate.as_ref().map_or(Path::new(""), |(_, path)| path)
    }

    /// [`pwritev_full`] of `iov` at `at`.
    pub(crate) fn write_vectored_at(
        &self,
        iov: &mut [libc::iovec],
        at: u64,
        counters: &IoCounters,
    ) -> io::Result<u64> {
        let bytes = self.gate.as_ref().map(|_| gather(iov));
        let bytes = bytes.as_deref().unwrap_or_default();
        let sys = Sys {
            at,
            bytes,
            ..Sys::new(Syscall::Write, self.path())
        };
        syscall(self.leaf(), sys, || {
            pwritev_full(&self.file, iov, at, counters)
        })
    }

    /// Write all of `bytes` at `at`.
    pub(crate) fn write_at(&self, bytes: &[u8], at: u64) -> io::Result<()> {
        let sys = Sys {
            at,
            bytes,
            ..Sys::new(Syscall::Write, self.path())
        };
        syscall(self.leaf(), sys, || self.file.write_all_at(bytes, at))
    }

    /// Truncate (or extend) to `len` bytes.
    pub(crate) fn truncate(&self, len: u64) -> io::Result<()> {
        let sys = Sys {
            at: len,
            ..Sys::new(Syscall::SetLen, self.path())
        };
        syscall(self.leaf(), sys, || self.file.set_len(len))
    }

    /// fsync.
    pub(crate) fn sync(&self) -> io::Result<()> {
        barrier(self.leaf(), Sys::new(Syscall::Fsync, self.path()), || {
            self.file.sync_all()
        })
    }
}

/// The bytes `iov` points at, in order.
fn gather(iov: &[libc::iovec]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for v in iov {
        // SAFETY: every entry points at `iov_len` live bytes for as long as
        // the write it was built for, which has not started yet.
        bytes.extend_from_slice(unsafe {
            std::slice::from_raw_parts(v.iov_base as *const u8, v.iov_len)
        });
    }
    bytes
}

/// Make the entries of `dir` durable: fsync the directory itself.
pub(crate) fn sync_dir(gate: Option<&Leaf>, dir: &Path) -> io::Result<()> {
    barrier(gate, Sys::new(Syscall::DirSync, dir), || {
        File::open(dir)?.sync_all()
    })
}

/// `rename(from, to)`.
pub(crate) fn rename(gate: Option<&Leaf>, from: &Path, to: &Path) -> io::Result<()> {
    let sys = Sys {
        from,
        ..Sys::new(Syscall::Rename, to)
    };
    syscall(gate, sys, || fs::rename(from, to))
}

/// `unlink(path)`.
pub(crate) fn unlink(gate: Option<&Leaf>, path: &Path) -> io::Result<()> {
    syscall(gate, Sys::new(Syscall::Unlink, path), || {
        fs::remove_file(path)
    })
}

/// Create `dir` and every missing ancestor; returns the directories it
/// created, outermost first — each one's parent owes an fsync before its
/// entry survives a power cut.
pub(crate) fn mkdir_all(gate: Option<&Leaf>, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut made = Vec::new();
    mkdir_into(gate, dir, &mut made)?;
    Ok(made)
}

fn mkdir_into(gate: Option<&Leaf>, dir: &Path, made: &mut Vec<PathBuf>) -> io::Result<()> {
    let mkdir = || syscall(gate, Sys::new(Syscall::Mkdir, dir), || fs::create_dir(dir));
    match mkdir() {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => return Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
            mkdir_into(gate, parent.ok_or(e)?, made)?;
            match mkdir() {
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => return Ok(()),
                other => other?,
            }
        }
        Err(e) => return Err(e),
    }
    made.push(dir.to_owned());
    Ok(())
}

/// Write *all* of `iov` to `file` at `offset` with positioned vectored
/// writes, retrying on `EINTR` and short writes and chunking at `IOV_MAX`.
/// Entries are consumed (and mutated on partial progress) front to back.
/// Returns the total byte count written.
///
/// Positioned writes make a failed call self-healing: the caller's logical
/// offset only advances on success, so a torn tail left by a partial write
/// is overwritten by the next attempt (and excised by the final
/// `set_len` at commit time).
pub fn pwritev_full(
    file: &File,
    iov: &mut [libc::iovec],
    offset: u64,
    counters: &IoCounters,
) -> io::Result<u64> {
    let fd = file.as_raw_fd();
    let total: u64 = iov.iter().map(|v| v.iov_len as u64).sum();
    let mut written = 0u64;
    let mut idx = 0usize;
    while written < total {
        // Skip exhausted (and any zero-length) entries.
        while idx < iov.len() && iov[idx].iov_len == 0 {
            idx += 1;
        }
        let cnt = (iov.len() - idx).min(libc::IOV_MAX as usize);
        let n = unsafe {
            libc::pwritev(
                fd,
                iov[idx..].as_ptr(),
                cnt as libc::c_int,
                (offset + written) as libc::off_t,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "pwritev returned zero",
            ));
        }
        counters.vectored_writes.fetch_add(1, Ordering::Relaxed);
        counters
            .write_syscall_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        written += n as u64;
        // Advance the iovec window past what the kernel consumed.
        let mut rem = n as usize;
        while idx < iov.len() && rem >= iov[idx].iov_len {
            rem -= iov[idx].iov_len;
            idx += 1;
        }
        if rem > 0 {
            iov[idx].iov_base = unsafe { (iov[idx].iov_base as *mut u8).add(rem) } as *mut _;
            iov[idx].iov_len -= rem;
        }
    }
    Ok(total)
}

/// XOR the byte of the file at `path` at `pos` with `0xFF` — the one
/// at-rest rot injector behind the segment and manifest corruption helpers.
pub(crate) fn flip_byte_at(path: &Path, pos: u64) -> io::Result<()> {
    let file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut b = [0u8; 1];
    file.read_exact_at(&mut b, pos)?;
    b[0] ^= 0xFF;
    file.write_all_at(&b, pos)
}

/// A growable byte buffer whose allocation is always [`BUF_ALIGN`]-aligned.
///
/// Used as reusable staging for record frames and compressed payloads:
/// `clear` keeps the allocation, so after warm-up a stream writer stages
/// every batch into the same memory. Growth preserves contents but may
/// move the allocation — callers therefore record *offsets* during a
/// staging pass and materialise pointers only once the pass is complete.
#[derive(Debug)]
pub struct AlignedBuf {
    ptr: NonNull<u8>,
    cap: usize,
    len: usize,
}

// SAFETY: the buffer owns its allocation exclusively; &mut access is the
// only way to mutate it.
unsafe impl Send for AlignedBuf {}

impl Default for AlignedBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl AlignedBuf {
    /// An empty buffer; allocates nothing until first use.
    pub fn new() -> Self {
        Self {
            ptr: NonNull::dangling(),
            cap: 0,
            len: 0,
        }
    }

    /// Bytes currently staged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop the contents, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Base pointer of the staged bytes (valid until the next growth).
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr.as_ptr()
    }

    /// The staged bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `len <= cap` bytes are initialised.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn grow_to(&mut self, need: usize) {
        let new_cap = need.next_multiple_of(BUF_ALIGN).max(self.cap * 2);
        let new_layout = Layout::from_size_align(new_cap, BUF_ALIGN).expect("buffer too large");
        // SAFETY: fresh allocation; old contents copied then freed.
        unsafe {
            let new_ptr = alloc::alloc(new_layout);
            let Some(new_ptr) = NonNull::new(new_ptr) else {
                alloc::handle_alloc_error(new_layout);
            };
            if self.cap != 0 {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len);
                alloc::dealloc(
                    self.ptr.as_ptr(),
                    Layout::from_size_align_unchecked(self.cap, BUF_ALIGN),
                );
            }
            self.ptr = new_ptr;
            self.cap = new_cap;
        }
    }

    /// Append `bytes`, growing (amortised) as needed. Returns the offset
    /// the bytes were staged at, stable across later growth.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) -> usize {
        let at = self.len;
        let need = self.len + bytes.len();
        if need > self.cap {
            self.grow_to(need);
        }
        // SAFETY: capacity was just ensured; regions cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr.as_ptr().add(at), bytes.len());
        }
        self.len = need;
        at
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: allocated with this exact layout in `grow_to`.
            unsafe {
                alloc::dealloc(
                    self.ptr.as_ptr(),
                    Layout::from_size_align_unchecked(self.cap, BUF_ALIGN),
                );
            }
        }
    }
}

/// Shared atomic syscall accounting for one backend (see [`IoStats`]).
#[derive(Debug, Default)]
pub struct IoCounters {
    /// `pwritev` calls issued by the segment writer: one per segment
    /// header, one per batch, one per sealed segment's trailer — delta
    /// shards and staged images (compaction, rewrite, repair) alike.
    pub vectored_writes: AtomicU64,
    /// Bytes pushed through those calls (frames + payloads + trailers).
    pub write_syscall_bytes: AtomicU64,
    /// `fsync` calls on segment/shard files (group commit: one per shard
    /// per epoch, none on the write hot path).
    pub segment_fsyncs: AtomicU64,
    /// Manifest records appended.
    pub manifest_appends: AtomicU64,
    /// `fsync` calls paid for those appends; batched appends commit many
    /// records under one fsync, so this lags `manifest_appends`.
    pub manifest_fsyncs: AtomicU64,
    /// Directory `fsync` calls: one per epoch commit (new segment files
    /// must be durable entries before the manifest names them) and one per
    /// compacted/rewritten segment rename.
    pub dir_fsyncs: AtomicU64,
    /// Pages read by the restore path (`read_pages_at`; `read_page_at` is
    /// a run of one). One count per *page* record actually fetched from
    /// disk, however many share one `pread` — cache hits upstream do not
    /// reach this counter, and neither
    /// does a restore's read of the epoch's reserved metadata record
    /// (`META_RECORD`): that is metadata, not a page.
    pub page_reads: AtomicU64,
    /// Bytes read to build per-epoch segment indexes: each shard's 16-byte
    /// header plus its trailer (`16·n + 24` bytes for `n` records) — never
    /// a payload byte. Surfaced by `FileBackend::index_bytes_read`, not by
    /// [`IoStats`]: the repository benchmark builds `IoStats` from an
    /// exhaustive field list, so that struct cannot grow.
    pub index_bytes_read: AtomicU64,
}

impl IoCounters {
    /// Consistent-enough snapshot for diagnostics.
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            vectored_writes: self.vectored_writes.load(Ordering::Relaxed),
            write_syscall_bytes: self.write_syscall_bytes.load(Ordering::Relaxed),
            segment_fsyncs: self.segment_fsyncs.load(Ordering::Relaxed),
            manifest_appends: self.manifest_appends.load(Ordering::Relaxed),
            manifest_fsyncs: self.manifest_fsyncs.load(Ordering::Relaxed),
            dir_fsyncs: self.dir_fsyncs.load(Ordering::Relaxed),
            page_reads: self.page_reads.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a backend's syscall-level I/O accounting.
///
/// Wrappers (tiering, replication) sum the stats of their children; the
/// runtime surfaces the backend's snapshot in `RuntimeStats::io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Vectored (`pwritev`) segment writes issued (a header, the batches
    /// and a trailer per segment written, staged images included).
    pub vectored_writes: u64,
    /// Bytes written through them (framing + payload + trailers).
    pub write_syscall_bytes: u64,
    /// Segment/shard `fsync` calls (≈ one per stream shard per epoch).
    pub segment_fsyncs: u64,
    /// Manifest records appended.
    pub manifest_appends: u64,
    /// Manifest `fsync` calls paid for those appends.
    pub manifest_fsyncs: u64,
    /// Directory `fsync` calls: one per epoch commit, one per compacted or
    /// rewritten segment rename.
    pub dir_fsyncs: u64,
    /// Pages read by `read_pages_at` (and `read_page_at`, a run of one),
    /// counted per page, not per syscall; the per-restore read of an
    /// epoch's metadata record is not counted.
    pub page_reads: u64,
}

impl IoStats {
    /// Manifest records that rode along on another record's fsync — the
    /// savings from batched (`append_batch`) commits.
    pub fn coalesced_appends(&self) -> u64 {
        self.manifest_appends.saturating_sub(self.manifest_fsyncs)
    }

    /// Mean payload-carrying bytes per vectored write syscall.
    pub fn bytes_per_syscall(&self) -> u64 {
        self.write_syscall_bytes / self.vectored_writes.max(1)
    }

    /// Field-wise sum (wrappers aggregating children).
    pub fn merged(self, other: IoStats) -> IoStats {
        IoStats {
            vectored_writes: self.vectored_writes + other.vectored_writes,
            write_syscall_bytes: self.write_syscall_bytes + other.write_syscall_bytes,
            segment_fsyncs: self.segment_fsyncs + other.segment_fsyncs,
            manifest_appends: self.manifest_appends + other.manifest_appends,
            manifest_fsyncs: self.manifest_fsyncs + other.manifest_fsyncs,
            dir_fsyncs: self.dir_fsyncs + other.dir_fsyncs,
            page_reads: self.page_reads + other.page_reads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn tmpfile(tag: &str) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "aickpt-io-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        (path, file)
    }

    fn iov(parts: &[&[u8]]) -> Vec<libc::iovec> {
        parts
            .iter()
            .map(|p| libc::iovec {
                iov_base: p.as_ptr() as *mut _,
                iov_len: p.len(),
            })
            .collect()
    }

    #[test]
    fn pwritev_gathers_all_parts_at_offset() {
        let (path, file) = tmpfile("gather");
        let counters = IoCounters::default();
        let parts: [&[u8]; 4] = [b"head", b"", b"-mid-", b"tail"];
        let mut v = iov(&parts);
        let n = pwritev_full(&file, &mut v, 3, &counters).unwrap();
        assert_eq!(n, 13);
        let mut got = Vec::new();
        File::open(&path).unwrap().read_to_end(&mut got).unwrap();
        assert_eq!(&got, b"\0\0\0head-mid-tail");
        let stats = counters.snapshot();
        assert_eq!(stats.write_syscall_bytes, 13);
        assert!(stats.vectored_writes >= 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pwritev_chunks_past_iov_max() {
        let (path, file) = tmpfile("chunks");
        let counters = IoCounters::default();
        let one = [0xABu8; 3];
        let parts: Vec<&[u8]> = (0..2 * libc::IOV_MAX as usize + 7)
            .map(|_| &one[..])
            .collect();
        let mut v = iov(&parts);
        let total = pwritev_full(&file, &mut v, 0, &counters).unwrap();
        assert_eq!(total, 3 * parts.len() as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            total,
            "every chunk landed"
        );
        assert!(
            counters.snapshot().vectored_writes >= 3,
            "at least one syscall per IOV_MAX chunk"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_iovec_writes_nothing() {
        let (path, file) = tmpfile("empty");
        let counters = IoCounters::default();
        assert_eq!(pwritev_full(&file, &mut [], 0, &counters).unwrap(), 0);
        assert_eq!(counters.snapshot().vectored_writes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aligned_buf_reuses_and_stays_aligned() {
        let mut b = AlignedBuf::new();
        assert!(b.is_empty());
        let at0 = b.extend_from_slice(b"hello");
        let at1 = b.extend_from_slice(&[7u8; 8192]);
        assert_eq!((at0, at1), (0, 5));
        assert_eq!(b.len(), 5 + 8192);
        assert_eq!(b.as_ptr() as usize % BUF_ALIGN, 0);
        assert_eq!(&b.as_slice()[..5], b"hello");
        assert_eq!(b.as_slice()[5..], [7u8; 8192]);
        let ptr = b.as_ptr();
        b.clear();
        b.extend_from_slice(b"again");
        assert_eq!(b.as_ptr(), ptr, "clear keeps the allocation");
        assert_eq!(b.as_slice(), b"again");
    }

    #[test]
    fn io_stats_derived_metrics() {
        let s = IoStats {
            vectored_writes: 4,
            write_syscall_bytes: 4096,
            segment_fsyncs: 2,
            manifest_appends: 10,
            manifest_fsyncs: 3,
            dir_fsyncs: 1,
            page_reads: 5,
        };
        assert_eq!(s.coalesced_appends(), 7);
        assert_eq!(s.bytes_per_syscall(), 1024);
        assert_eq!(IoStats::default().bytes_per_syscall(), 0, "no div by zero");
        let sum = s.merged(s);
        assert_eq!(sum.manifest_appends, 20);
        assert_eq!(sum.write_syscall_bytes, 8192);
        assert_eq!(sum.dir_fsyncs, 2);
        assert_eq!(sum.page_reads, 10);
    }
}
