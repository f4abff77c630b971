//! POSIX file-system backend: one segment file per epoch plus the manifest.
//!
//! This is the paper's "conventional" storage path (local disk on Shamrock,
//! PVFS through its POSIX/FUSE interface on Grid'5000 — a parallel file
//! system mounts as a directory, so the same backend covers both).
//!
//! Layout inside the checkpoint directory:
//!
//! ```text
//! MANIFEST                  the commit log: `AICKMAN3` records (see
//!                           `manifest`) in the one log format (see `log`)
//! epoch_0000000001.seg      page records of checkpoint 1 (stream shard 0)
//! epoch_0000000001.s1.seg   further stream shards of the same epoch,
//!                           created only under committer-stream contention
//! epoch_0000000002.seg      ...
//! full_0000000005.seg       compacted full image as of checkpoint 5
//! ```
//!
//! ## Segment format
//!
//! One format, `AICKSEG3` (any other magic is rejected loudly, naming what
//! was found). All integers little-endian:
//!
//! ```text
//! header   AICKSEG3 | epoch u64                                   16 bytes
//! records  n x [page u64][enc u8][raw_len u32][stored_len u32]
//!              [crc64 u64][stored payload]                   25 + stored
//! trailer  n x [page u64][record offset u64]        one per record, in
//!              record order; the offset is that of the record's frame
//!          n u64 | crc64(entries ‖ n) u64 | AICKTRL1              24 bytes
//! ```
//!
//! `enc` is a [`codec::Encoding`] and a record's `crc64` covers the
//! *uncompressed* payload — restore verification is independent of the
//! encoding, and a corrupt compressed stream surfaces as `InvalidData`
//! either from the decoder or from the CRC check.
//!
//! The trailer only says *where* each record is. Indexing an epoch
//! (`epoch_page_ids`, the first `read_page_at`) reads the header and the
//! trailer — `16·n + 40` bytes per segment, never a payload — and a random
//! read is one `preadv` of the record's extent (its offset up to the next
//! record's, or to the trailer), scattered into the frame and a payload
//! buffer of exactly the stored size. Frames stay the single source of truth for
//! `enc`, the lengths and the payload CRC: every read re-checks the frame
//! it fetched against the trailer entry that led to it (page id, extent),
//! so a flipped page id — which the payload CRC does not cover — fails the
//! read instead of silently renaming the page. A missing, torn or
//! CRC-failing trailer fails every read of the segment with `InvalidData`
//! and is structural damage to the scrubber; there is no fallback walk.
//!
//! CRCs are verified on read; a mismatch fails the restore rather than
//! silently resurrecting corrupt state. The per-record encoding is chosen
//! by [`FileBackend::compression`] ([`Compression::Auto`] by default:
//! smallest of raw/RLE/LZ, falling back to raw so incompressible data costs
//! nothing but the 5 extra frame bytes).
//!
//! ## Compaction and crash recovery
//!
//! `install_compacted` writes the merged full image to `full_N.seg.tmp`,
//! fsyncs, renames it to `full_N.seg`, and only then appends the
//! `Full` manifest record — the atomic commit point. Garbage collection of
//! the superseded delta segments happens *after* the commit, so a crash at
//! any instant leaves either the old chain (no `Full` record yet) or the
//! new one (superseded segments are mere orphans). [`FileBackend::open`]
//! sweeps the directory for such orphans — `*.tmp` files, segment files
//! whose epoch was never committed (a process killed mid-checkpoint), and
//! segments superseded by a committed compaction — which also fixes the
//! historical leak of `.tmp`/segment files after an `abort()`-ed epoch
//! whose `remove_file` never ran (killed process). One process per
//! checkpoint directory is assumed, as everywhere in this backend.
//!
//! ## The vectored zero-copy write path
//!
//! An open epoch is a small set of per-stream **shard files**, each an
//! independent `AICKSEG3` segment: shard 0 keeps the legacy
//! `epoch_N.seg` name, shards `k >= 1` are `epoch_N.sK.seg`. A committer
//! stream claims the first momentarily uncontended shard slot (`try_lock`
//! scan), lazily creating its file on first touch — a single-stream
//! workload therefore never leaves shard 0 and produces the exact
//! pre-shard on-disk layout, while N contending streams fan out to up to
//! `MAX_STREAM_SHARDS` files with no writer mutex shared between them.
//!
//! Batches are submitted as `pwritev` vectored writes whose payload iovecs
//! point *straight at the caller's bytes* (live page memory, CoW slot
//! bytes): raw records are never copied in user space. Record frames and
//! compressed payloads stage into per-shard reusable aligned buffers
//! ([`crate::io::AlignedBuf`]), so the steady state allocates nothing.
//!
//! `finish` is a group commit: each shard is truncated to its last
//! complete batch (excising any torn tail a failed vectored write left),
//! sealed with its trailer (one more `pwritev`; entries are appended only
//! after their batch's write succeeded, so a torn batch never reaches it)
//! and fsynced exactly once — fsyncs per epoch equal the shards actually
//! created (= 1 per active stream, 1 total when serial), never the batch
//! count — then the directory is fsynced (the shard files' entries) and
//! the single manifest record commits the epoch; the very first commit of
//! a fresh directory pays one more directory fsync, for the manifest's own
//! entry (see `log::append`). The manifest record's `records` count is the
//! total across shards; every reader sums the shards' record counts and
//! cross-checks that total, so a missing shard or torn segment fails
//! restore loudly instead of silently dropping pages.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{is_page, ChainEntry, EpochKind, EpochWriter, StorageBackend};
use crate::checksum::{crc64, crc64_update};
use crate::codec::{self, Compression, Encoding};
use crate::io::{preadv_exact, pwritev_full, AlignedBuf, IoCounters, IoStats};
use crate::log;
use crate::manifest::{self, ManifestRecord, RecordKind};
use crate::scrub::{RecordMeta, RepairReport, VerifyReport};

/// Magic prefix of a segment file (per-record encodings, trailer).
pub const SEGMENT_MAGIC: &[u8; 8] = b"AICKSEG3";

/// Magic closing a segment's trailer: the last 8 bytes of the file.
const TRAILER_MAGIC: &[u8; 8] = b"AICKTRL1";

/// Name of the append-only commit log inside the checkpoint directory
/// (shared by the read path and the epoch writer's commit point).
const MANIFEST_FILE: &str = "MANIFEST";

/// Length of a segment header (magic + epoch).
const SEGMENT_HEADER_LEN: usize = 16;

/// Length of a record frame (page, encoding, lengths, CRC).
const FRAME_LEN: usize = 25;

/// Length of one trailer entry (page, record offset).
const TRAILER_ENTRY_LEN: usize = 16;

/// Length of the trailer's fixed footer (count, CRC, magic).
const TRAILER_FOOTER_LEN: usize = 24;

/// Per-epoch stream shard slots. Shard files are created lazily under
/// actual contention, so a serial workload only ever sees shard 0.
pub const MAX_STREAM_SHARDS: usize = 8;

#[derive(Debug, Default)]
struct FileShared {
    /// Payload bytes accepted across all sessions (diagnostics).
    bytes_written: AtomicU64,
    /// Physical bytes stored after per-record encoding (diagnostics; equals
    /// `bytes_written` when compression never pays or is disabled).
    bytes_stored: AtomicU64,
    /// At most one epoch session may be open.
    epoch_open: AtomicBool,
    /// Serialises manifest appends between the committer's `finish` and the
    /// maintenance worker's compaction/retirement (an append first truncates
    /// any torn tail, which must not race another append).
    manifest_lock: Mutex<()>,
    /// Cached high-water mark: highest epoch the manifest has ever recorded
    /// *plus one* (0 = manifest empty). Seeded once at `open` and advanced
    /// on every successful manifest append, so `begin_epoch` never re-reads
    /// the manifest.
    high_water: AtomicU64,
    /// Syscall-level I/O accounting (see [`IoStats`]).
    io: IoCounters,
    /// Lazily built per-epoch segment indexes for the random-access read
    /// path (`read_page_at`): page → record extent, from the trailers.
    /// Entries are dropped when compaction or retirement removes the epoch.
    page_index: Mutex<HashMap<u64, Arc<EpochIndex>>>,
}

impl FileShared {
    /// Record that `epoch` now exists in the manifest.
    fn note_epoch(&self, epoch: u64) {
        self.high_water
            .fetch_max(epoch.saturating_add(1), Ordering::AcqRel);
    }

    /// Durably append `records` to the manifest at `path` as one commit
    /// (one fsync however many records), under the manifest lock, and
    /// account for it.
    fn commit(&self, path: &Path, records: &[ManifestRecord]) -> io::Result<()> {
        let _manifest = self.manifest_lock.lock();
        if log::append(path, records)? {
            // First commit of a fresh directory: creating the log fsynced
            // the directory once more, for the manifest's own entry.
            self.io.dir_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.io
            .manifest_appends
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.io.manifest_fsyncs.fetch_add(1, Ordering::Relaxed);
        for r in records {
            self.note_epoch(r.epoch);
        }
        Ok(())
    }

    /// Make directory-entry changes in `dir` (new segment files, a
    /// compacted-segment rename) durable by fsyncing the directory itself:
    /// a file is only crash-safe once its directory entry is on disk.
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()?;
        self.io.dir_fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// File-system storage backend.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    shared: Arc<FileShared>,
    /// `fsync` on epoch finish (segments, directory, manifest). Disable
    /// only for throughput experiments where durability is irrelevant.
    pub sync_on_finish: bool,
    /// Per-record payload encoding policy for new segments (v2 framing
    /// either way; see the module docs).
    pub compression: Compression,
}

/// Where one record's stored payload lives during batch staging.
#[derive(Debug, Clone, Copy)]
enum PayloadSrc {
    /// Stored verbatim: the iovec points at the caller's bytes (zero-copy).
    Caller(usize),
    /// Compressed: staged at `(offset, len)` in the shard's reuse buffer.
    Staged(usize, usize),
}

/// One per-stream shard of an open epoch: an `AICKSEG3` file owned
/// exclusively by whichever stream holds the slot lock.
#[derive(Debug)]
struct Shard {
    file: File,
    /// Next write offset = bytes of complete batches (a failed vectored
    /// write never advances it, so its torn tail is overwritten by the
    /// next batch and excised by `finish`'s truncate).
    offset: u64,
    records: u64,
    payload_bytes: u64,
    /// Trailer entries of every record in a *completed* batch (a failed
    /// vectored write appends nothing, so its torn tail is never named).
    trailer: Vec<u8>,
    /// Reusable staging for record frames (25 bytes per record).
    frames: AlignedBuf,
    /// Reusable staging for compressed payloads.
    staged: AlignedBuf,
    /// Per-record payload sources of the batch being staged.
    plan: Vec<PayloadSrc>,
}

impl Shard {
    /// Create shard `index` of `epoch` and write its segment header.
    fn create(dir: &Path, epoch: u64, index: usize, io: &IoCounters) -> io::Result<Shard> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(shard_path(dir, epoch, index))?;
        let mut header = [0u8; SEGMENT_HEADER_LEN];
        header[..8].copy_from_slice(SEGMENT_MAGIC);
        header[8..].copy_from_slice(&epoch.to_le_bytes());
        let mut iov = [libc::iovec {
            iov_base: header.as_ptr() as *mut _,
            iov_len: header.len(),
        }];
        pwritev_full(&file, &mut iov, 0, io)?;
        Ok(Shard {
            file,
            offset: SEGMENT_HEADER_LEN as u64,
            records: 0,
            payload_bytes: 0,
            trailer: Vec::new(),
            frames: AlignedBuf::new(),
            staged: AlignedBuf::new(),
            plan: Vec::new(),
        })
    }

    /// Seal the shard: excise any torn tail a failed vectored write left
    /// past the last complete batch, append the trailer, and (when `sync`)
    /// fsync once — the only fsync this shard ever pays.
    fn seal(&mut self, sync: bool, io: &IoCounters) -> io::Result<()> {
        self.file.set_len(self.offset)?;
        write_trailer(&self.file, &mut self.trailer, self.offset, io)?;
        if sync {
            self.file.sync_all()?;
        }
        Ok(())
    }
}

/// Append one trailer entry (`page`, offset of its record's frame).
fn push_trailer_entry(entries: &mut Vec<u8>, page: u64, record_at: u64) {
    entries.extend_from_slice(&page.to_le_bytes());
    entries.extend_from_slice(&record_at.to_le_bytes());
}

/// Close `entries` (see [`push_trailer_entry`]) with the footer — count,
/// CRC-64 over entries ‖ count, trailer magic — and write the trailer at
/// `at`, the end of the segment's last record. The one trailer writer:
/// delta shards and staged full images both seal through it.
fn write_trailer(file: &File, entries: &mut Vec<u8>, at: u64, io: &IoCounters) -> io::Result<()> {
    let count = (entries.len() / TRAILER_ENTRY_LEN) as u64;
    entries.extend_from_slice(&count.to_le_bytes());
    let crc = crc64(entries);
    entries.extend_from_slice(&crc.to_le_bytes());
    entries.extend_from_slice(TRAILER_MAGIC);
    let mut iov = [libc::iovec {
        iov_base: entries.as_ptr() as *mut _,
        iov_len: entries.len(),
    }];
    pwritev_full(file, &mut iov, at, io)?;
    Ok(())
}

/// Path of shard `index` of a delta epoch (index 0 keeps the legacy
/// single-file name so serial layouts stay byte-compatible).
fn shard_path(dir: &Path, epoch: u64, index: usize) -> PathBuf {
    if index == 0 {
        FileBackend::segment_path(dir, epoch)
    } else {
        dir.join(format!("epoch_{epoch:010}.s{index}.seg"))
    }
}

/// Best-effort removal of every shard file of a delta epoch (directory
/// scan, so it also cleans up after abnormal shard histories).
fn remove_delta_files(dir: &Path, epoch: u64) {
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(name) = entry.file_name().to_str() {
                if parse_segment_name(name, "epoch_").map(|(e, _)| e) == Some(epoch) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// All shard files of a delta epoch, ordered by shard index.
fn delta_shard_files(dir: &Path, epoch: u64) -> io::Result<Vec<PathBuf>> {
    let mut found: Vec<(u32, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let Some(name) = entry.file_name().to_str().map(str::to_owned) else {
            continue;
        };
        if let Some((e, shard)) = parse_segment_name(&name, "epoch_") {
            if e == epoch {
                found.push((shard, entry.path()));
            }
        }
    }
    found.sort();
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

impl FileBackend {
    /// Open (creating if needed) a checkpoint directory, sweeping orphaned
    /// files left by a crashed or killed predecessor (uncommitted segments,
    /// `*.tmp` compaction images, segments superseded by a committed
    /// compaction whose GC never ran).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let backend = Self {
            dir,
            shared: Arc::new(FileShared::default()),
            sync_on_finish: true,
            compression: Compression::default(),
        };
        // One manifest read seeds both the orphan sweep and the cached
        // high-water mark; `begin_epoch` never reads the manifest again.
        let records = backend.manifest_records()?;
        if let Some(max) = records.iter().map(|r| r.epoch).max() {
            backend.shared.note_epoch(max);
        }
        backend.sweep_orphans(&records)?;
        Ok(backend)
    }

    /// Set the payload-encoding policy for subsequently written segments.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes read so far to build epoch indexes (segment headers and
    /// trailers; see [`IoCounters::index_bytes_read`]).
    pub fn index_bytes_read(&self) -> u64 {
        self.shared.io.index_bytes_read.load(Ordering::Relaxed)
    }

    fn segment_path(dir: &Path, epoch: u64) -> PathBuf {
        dir.join(format!("epoch_{epoch:010}.seg"))
    }

    fn full_path(dir: &Path, epoch: u64) -> PathBuf {
        dir.join(format!("full_{epoch:010}.seg"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    fn manifest_records(&self) -> io::Result<Vec<ManifestRecord>> {
        log::read(&self.manifest_path())
    }

    /// The live chain as full manifest records (commit counts included).
    fn live_records(&self) -> io::Result<Vec<ManifestRecord>> {
        Ok(manifest::fold_live(&self.manifest_records()?))
    }

    /// Delete every file in the directory that the manifest (`records`)
    /// does not account for. Safe at open time only: no epoch session or
    /// compaction of *this* process can be in flight.
    fn sweep_orphans(&self, records: &[ManifestRecord]) -> io::Result<()> {
        let live: std::collections::BTreeMap<u64, RecordKind> = manifest::fold_live(records)
            .iter()
            .map(|r| (r.epoch, r.kind))
            .collect();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let doomed = if name.ends_with(".tmp") {
                // Half-written compaction or rewrite image.
                true
            } else if let Some((epoch, _shard)) = parse_segment_name(name, "epoch_") {
                // A delta shard is live only while its manifest record is
                // the live entry (a Full entry means compaction superseded
                // it; absence means the writer died before the commit or
                // after a retirement whose GC never ran).
                live.get(&epoch) != Some(&RecordKind::Delta)
            } else if let Some((epoch, shard)) = parse_segment_name(name, "full_") {
                // Full images are never sharded.
                shard != 0 || live.get(&epoch) != Some(&RecordKind::Full)
            } else {
                false
            };
            if doomed {
                fs::remove_file(&path)?;
            }
        }
        Ok(())
    }
}

/// Parse `"{prefix}{epoch:010}.seg"` / `"{prefix}{epoch:010}.s{k}.seg"`
/// names into `(epoch, shard)`; `None` for anything else.
fn parse_segment_name(name: &str, prefix: &str) -> Option<(u64, u32)> {
    let body = name.strip_prefix(prefix)?.strip_suffix(".seg")?;
    match body.split_once(".s") {
        None => Some((body.parse().ok()?, 0)),
        Some((epoch, shard)) => Some((epoch.parse().ok()?, shard.parse().ok()?)),
    }
}

/// Append one page record under `compression`, returning the stored
/// (post-encoding) payload length. The CRC covers the uncompressed payload.
fn write_record(
    w: &mut impl Write,
    page: u64,
    data: &[u8],
    compression: Compression,
) -> io::Result<u64> {
    let (enc, encoded) = codec::encode(data, compression);
    let stored = encoded.as_deref().unwrap_or(data);
    w.write_all(&page.to_le_bytes())?;
    w.write_all(&[enc as u8])?;
    w.write_all(&(data.len() as u32).to_le_bytes())?;
    w.write_all(&(stored.len() as u32).to_le_bytes())?;
    w.write_all(&crc64(data).to_le_bytes())?;
    w.write_all(stored)?;
    Ok(stored.len() as u64)
}

/// Open-epoch session on a [`FileBackend`]: a set of per-stream shard
/// slots with no lock shared between concurrent `write_pages` callers.
struct FileEpochWriter {
    shared: Arc<FileShared>,
    dir: PathBuf,
    epoch: u64,
    sync_on_finish: bool,
    compression: Compression,
    /// Set once `finish`/`abort` ran; `write_pages` then refuses.
    closed: AtomicBool,
    /// Shard slots; slot 0 is created by `begin_epoch` (legacy layout),
    /// the rest lazily on first claim under contention.
    shards: Box<[Mutex<Option<Shard>>]>,
    /// Round-robin pick for the rare moment every slot is busy.
    next_slot: AtomicUsize,
}

impl FileEpochWriter {
    fn release_session(&self) {
        self.shared.epoch_open.store(false, Ordering::Release);
    }

    /// Run `f` on an exclusively held shard: the first momentarily
    /// uncontended slot wins (creating its file on first touch), so a lone
    /// stream always lands in shard 0 while contending streams fan out.
    fn with_shard<R>(&self, f: impl FnOnce(&mut Shard) -> io::Result<R>) -> io::Result<R> {
        for (index, slot) in self.shards.iter().enumerate() {
            if let Some(mut guard) = slot.try_lock() {
                return f(self.ensure_shard(&mut guard, index)?);
            }
        }
        // Every slot busy: block on one, round-robin.
        let index = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut guard = self.shards[index].lock();
        f(self.ensure_shard(&mut guard, index)?)
    }

    fn ensure_shard<'a>(
        &self,
        slot: &'a mut Option<Shard>,
        index: usize,
    ) -> io::Result<&'a mut Shard> {
        if slot.is_none() {
            *slot = Some(Shard::create(
                &self.dir,
                self.epoch,
                index,
                &self.shared.io,
            )?);
        }
        Ok(slot.as_mut().unwrap())
    }

    /// Stage one batch into `shard`'s reusable buffers and submit it as a
    /// single vectored write. Raw payload iovecs point at the caller's
    /// bytes — the zero-copy path; compressed payloads stage once into the
    /// shard's aligned reuse buffer.
    fn write_batch(&self, shard: &mut Shard, batch: &[(u64, &[u8])]) -> io::Result<()> {
        shard.frames.clear();
        shard.staged.clear();
        shard.plan.clear();
        let mut payload_bytes = 0u64;
        let mut stored_bytes = 0u64;
        for &(page, data) in batch {
            let (enc, encoded) = codec::encode(data, self.compression);
            let src = match encoded {
                None => PayloadSrc::Caller(data.len()),
                Some(v) => PayloadSrc::Staged(shard.staged.extend_from_slice(&v), v.len()),
            };
            let stored_len = match src {
                PayloadSrc::Caller(len) | PayloadSrc::Staged(_, len) => len,
            };
            let mut frame = [0u8; FRAME_LEN];
            frame[0..8].copy_from_slice(&page.to_le_bytes());
            frame[8] = enc as u8;
            frame[9..13].copy_from_slice(&(data.len() as u32).to_le_bytes());
            frame[13..17].copy_from_slice(&(stored_len as u32).to_le_bytes());
            frame[17..25].copy_from_slice(&crc64(data).to_le_bytes());
            shard.frames.extend_from_slice(&frame);
            shard.plan.push(src);
            payload_bytes += data.len() as u64;
            stored_bytes += stored_len as u64;
        }
        // Staging buffers are final — pointers are stable from here on.
        let frames_base = shard.frames.as_ptr();
        let staged_base = shard.staged.as_ptr();
        let mut iov: Vec<libc::iovec> = Vec::with_capacity(batch.len() * 2);
        for (i, src) in shard.plan.iter().enumerate() {
            iov.push(libc::iovec {
                iov_base: unsafe { frames_base.add(i * FRAME_LEN) } as *mut _,
                iov_len: FRAME_LEN,
            });
            match *src {
                PayloadSrc::Caller(len) if len > 0 => iov.push(libc::iovec {
                    iov_base: batch[i].1.as_ptr() as *mut _,
                    iov_len: len,
                }),
                PayloadSrc::Staged(at, len) => iov.push(libc::iovec {
                    iov_base: unsafe { staged_base.add(at) } as *mut _,
                    iov_len: len,
                }),
                PayloadSrc::Caller(_) => {} // empty payload: frame only
            }
        }
        let written = pwritev_full(&shard.file, &mut iov, shard.offset, &self.shared.io)?;
        let mut record_at = shard.offset;
        for (&(page, _), src) in batch.iter().zip(&shard.plan) {
            push_trailer_entry(&mut shard.trailer, page, record_at);
            let (PayloadSrc::Caller(len) | PayloadSrc::Staged(_, len)) = *src;
            record_at += (FRAME_LEN + len) as u64;
        }
        shard.offset += written;
        shard.records += batch.len() as u64;
        shard.payload_bytes += payload_bytes;
        self.shared
            .bytes_written
            .fetch_add(payload_bytes, Ordering::Relaxed);
        self.shared
            .bytes_stored
            .fetch_add(stored_bytes, Ordering::Relaxed);
        Ok(())
    }
}

impl EpochWriter for FileEpochWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::other("epoch session closed"));
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.with_shard(|shard| self.write_batch(shard, batch))
    }

    fn finish(&self) -> io::Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Err(io::Error::other("epoch session closed"));
        }
        let result = (|| {
            // The finish contract says every write_pages call has
            // returned, so these locks are uncontended.
            let mut shards: Vec<Shard> = self
                .shards
                .iter()
                .filter_map(|slot| slot.lock().take())
                .collect();
            let records: u64 = shards.iter().map(|s| s.records).sum();
            let payload_bytes: u64 = shards.iter().map(|s| s.payload_bytes).sum();
            // Group commit: seal every shard touched (truncate → trailer →
            // one fsync) — no fsync was paid on the write path. Multi-shard
            // epochs seal concurrently: the fsyncs wait on the same device,
            // so overlapping them costs the epoch one flush latency, not
            // one per shard.
            let (sync, io) = (self.sync_on_finish, &self.shared.io);
            match &mut shards[..] {
                [] => {}
                [shard] => shard.seal(sync, io)?,
                many => std::thread::scope(|scope| {
                    let waves: Vec<_> = many
                        .iter_mut()
                        .map(|shard| scope.spawn(move || shard.seal(sync, io)))
                        .collect();
                    waves
                        .into_iter()
                        .try_for_each(|wave| wave.join().expect("shard seal panicked"))
                })?,
            }
            if sync {
                self.shared
                    .io
                    .segment_fsyncs
                    .fetch_add(shards.len() as u64, Ordering::Relaxed);
                // The shard files were created during this session: their
                // directory entries must be durable before the manifest
                // names the epoch.
                self.shared.sync_dir(&self.dir)?;
            }
            // Commit point: the manifest record makes the epoch visible.
            self.shared.commit(
                &self.dir.join(MANIFEST_FILE),
                &[ManifestRecord::delta(self.epoch, records, payload_bytes)],
            )
        })();
        if result.is_err() {
            // Failed commit: the manifest never saw the epoch, so drop the
            // shard files like an abort would.
            remove_delta_files(&self.dir, self.epoch);
        }
        // Win or lose, the session is over — a finish error must not wedge
        // the backend (`begin_epoch` would otherwise refuse forever).
        self.release_session();
        result
    }

    fn abort(&self) -> io::Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Ok(()); // already finished or aborted
        }
        for slot in self.shards.iter() {
            drop(slot.lock().take());
        }
        // Best-effort cleanup; the manifest never saw this epoch, so
        // leftover files would be ignored (and swept at reopen) anyway.
        remove_delta_files(&self.dir, self.epoch);
        self.release_session();
        Ok(())
    }
}

impl Drop for FileEpochWriter {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::Acquire) {
            let _ = self.abort();
        }
    }
}

impl FileBackend {
    /// `begin_epoch` body returning the concrete writer (separated so
    /// white-box tests can reach shard slots directly).
    fn begin_epoch_impl(&self, epoch: u64) -> io::Result<FileEpochWriter> {
        if self.shared.epoch_open.swap(true, Ordering::AcqRel) {
            return Err(io::Error::other("previous epoch still open"));
        }
        let open_or_err = (|| {
            // Epoch numbers must rise above everything the manifest ever
            // recorded — including retired epochs, whose numbers must not
            // be reused after a drain or compaction. The cached high-water
            // mark answers this without re-reading the manifest.
            let hw = self.shared.high_water.load(Ordering::Acquire);
            if hw != 0 && epoch < hw {
                return Err(io::Error::other(format!(
                    "epoch {epoch} not greater than committed epoch {}",
                    hw - 1
                )));
            }
            // Shard 0 is created eagerly: an epoch finished without writes
            // still leaves a readable (header-only) segment, as before.
            Shard::create(&self.dir, epoch, 0, &self.shared.io)
        })();
        match open_or_err {
            Ok(shard0) => {
                let mut slots = Vec::with_capacity(MAX_STREAM_SHARDS);
                slots.push(Mutex::new(Some(shard0)));
                for _ in 1..MAX_STREAM_SHARDS {
                    slots.push(Mutex::new(None));
                }
                Ok(FileEpochWriter {
                    shared: Arc::clone(&self.shared),
                    dir: self.dir.clone(),
                    epoch,
                    sync_on_finish: self.sync_on_finish,
                    compression: self.compression,
                    closed: AtomicBool::new(false),
                    shards: slots.into_boxed_slice(),
                    next_slot: AtomicUsize::new(0),
                })
            }
            Err(e) => {
                self.shared.epoch_open.store(false, Ordering::Release);
                Err(e)
            }
        }
    }
}

impl StorageBackend for FileBackend {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        Ok(Box::new(self.begin_epoch_impl(epoch)?))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        Ok(self.live_records()?.iter().map(|r| r.epoch).collect())
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        // Over *all* manifest records, not just the live chain: a retired
        // epoch's number stays burned (`begin_epoch` enforces the same).
        // Served from the cache seeded at `open` and advanced on append.
        let hw = self.shared.high_water.load(Ordering::Acquire);
        Ok((hw != 0).then(|| hw - 1))
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        let rec = self.live_record(epoch)?;
        let total = match rec.kind {
            RecordKind::Full => read_segment(&Self::full_path(&self.dir, epoch), epoch, visit)?,
            _ => {
                let shards = delta_shard_files(&self.dir, epoch)?;
                if shards.is_empty() {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("epoch {epoch}: segment file missing"),
                    ));
                }
                let mut total = 0u64;
                for path in shards {
                    total += read_segment(&path, epoch, visit)?;
                }
                total
            }
        };
        // Cross-check against the committed count: a vanished shard or a
        // truncated chain must fail restore loudly.
        if total != rec.records {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "epoch {epoch}: manifest committed {} records but segments hold {total}",
                    rec.records
                ),
            ));
        }
        Ok(())
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        Ok(self.epoch_index(epoch)?.pages.clone())
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        let index = self.epoch_index(epoch)?;
        let Some(loc) = index.by_page.get(&page) else {
            return Ok(None);
        };
        // One positioned read of the record's extent, scattered into the
        // frame and a payload buffer of exactly the stored size.
        let mut frame = [0u8; FRAME_LEN];
        let mut stored = vec![0u8; loc.len as usize - FRAME_LEN];
        let file = &index.files[loc.file as usize];
        preadv_exact(file, &mut frame, &mut stored, loc.offset)?;
        if is_page(page) {
            // The epoch's metadata record is not a page (see `IoCounters`).
            self.shared.io.page_reads.fetch_add(1, Ordering::Relaxed);
        }
        let frame = Frame::parse(&frame);
        frame.check_against_trailer(page, loc.len, epoch)?;
        let enc = Encoding::from_u8(frame.enc)?;
        let decoded = codec::decode(enc, &stored, frame.raw_len as usize)?;
        let payload = decoded.unwrap_or(stored);
        if crc64(&payload) != frame.crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("CRC mismatch for page {page} in epoch {epoch}"),
            ));
        }
        Ok(Some(payload))
    }

    fn bytes_written(&self) -> u64 {
        self.shared.bytes_written.load(Ordering::Relaxed)
    }

    fn bytes_stored(&self) -> u64 {
        self.shared.bytes_stored.load(Ordering::Relaxed)
    }

    fn supports_compaction(&self) -> bool {
        true
    }

    fn chain(&self) -> io::Result<Vec<ChainEntry>> {
        Ok(self
            .live_records()?
            .iter()
            .map(|r| ChainEntry {
                epoch: r.epoch,
                kind: match r.kind {
                    RecordKind::Full => EpochKind::Full,
                    _ => EpochKind::Delta,
                },
            })
            .collect())
    }

    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let superseded: Vec<ManifestRecord> = self
            .live_records()?
            .into_iter()
            .filter(|r| r.epoch <= into)
            .collect();
        if !superseded.iter().any(|r| r.epoch == into) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("install_compacted: epoch {into} is not live"),
            ));
        }
        // 1. Write the full image to a temp name and make it durable. The
        //    folded segment re-encodes every surviving page under the
        //    current policy (deltas may have been written raw; the rewrite
        //    is the natural place to shrink them).
        let final_path = Self::full_path(&self.dir, into);
        let (tmp, payload_bytes) = self.stage_segment(&final_path, into, records)?;
        // 2. Move it into place (still invisible: no manifest record yet)
        //    and make the directory entry durable before the commit record
        //    can reference it.
        self.publish_staged(&tmp, &final_path)?;
        // 3. Commit: one durable manifest append. A crash before this line
        //    leaves the old chain intact plus one orphan file.
        self.shared.commit(
            &self.manifest_path(),
            &[ManifestRecord::full(
                into,
                records.len() as u64,
                payload_bytes,
                from,
            )],
        )?;
        // 4. GC the superseded segments. A crash in here leaves orphans
        //    that the next `open` sweeps; restore is already correct.
        self.invalidate_index(superseded.iter().map(|r| r.epoch));
        for r in superseded {
            match r.kind {
                RecordKind::Full => {
                    let _ = fs::remove_file(Self::full_path(&self.dir, r.epoch));
                }
                _ => remove_delta_files(&self.dir, r.epoch),
            }
        }
        Ok(())
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        if epochs.is_empty() {
            return Ok(());
        }
        let live = self.live_records()?;
        let mut doomed = Vec::with_capacity(epochs.len());
        let mut batch = Vec::with_capacity(epochs.len());
        for &epoch in epochs {
            let rec = live.iter().find(|r| r.epoch == epoch).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("epoch {epoch} not live"))
            })?;
            doomed.push(*rec);
            batch.push(ManifestRecord::compacted_into(epoch, 0));
        }
        // One durable manifest append for the whole batch: N retirements,
        // one fsync.
        self.shared.commit(&self.manifest_path(), &batch)?;
        self.invalidate_index(doomed.iter().map(|r| r.epoch));
        for rec in doomed {
            match rec.kind {
                RecordKind::Full => {
                    let _ = fs::remove_file(Self::full_path(&self.dir, rec.epoch));
                }
                _ => remove_delta_files(&self.dir, rec.epoch),
            }
        }
        Ok(())
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        let rec = self.live_record(epoch)?;
        let mut report = VerifyReport::new(epoch);
        let paths = match rec.kind {
            RecordKind::Full => vec![Self::full_path(&self.dir, epoch)],
            _ => delta_shard_files(&self.dir, epoch)?,
        };
        if paths.is_empty() {
            report
                .structural
                .push(format!("epoch {epoch}: segment file missing"));
            return Ok(report);
        }
        let mut walk_clean = true;
        for path in &paths {
            let sv = match verify_segment_file(path, epoch) {
                Ok(sv) => sv,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    walk_clean = false;
                    report
                        .structural
                        .push(format!("epoch {epoch}: shard vanished mid-verify"));
                    continue;
                }
                Err(e) => return Err(e),
            };
            report.records += sv.records;
            report.bytes += sv.payload_bytes;
            for page in sv.corrupt {
                report.note_corrupt(page);
            }
            if let Some(s) = sv.structural {
                walk_clean = false;
                report.structural.push(s);
            }
        }
        // Only a clean walk can meaningfully disagree with the manifest: a
        // truncated shard already under-counts by construction.
        if walk_clean && report.records != rec.records {
            report.structural.push(format!(
                "epoch {epoch}: manifest committed {} records but segments hold {}",
                rec.records, report.records
            ));
        }
        Ok(report)
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let rec = self.live_record(epoch)?;
        let final_path = match rec.kind {
            RecordKind::Full => Self::full_path(&self.dir, epoch),
            _ => Self::segment_path(&self.dir, epoch),
        };
        // 1. Stage the replacement segment and make it durable. The old
        //    segment files are never read — repair must work when they are
        //    arbitrarily damaged.
        let (tmp, payload_bytes) = self.stage_segment(&final_path, epoch, records)?;
        // 2. Collapse the epoch to exactly one file: stale extra shards
        //    would double-count against the corrective manifest record.
        //    A crash in here leaves the epoch detectably damaged (it
        //    already was) and the next scrub cycle repairs it again.
        if rec.kind != RecordKind::Full {
            for path in delta_shard_files(&self.dir, epoch)? {
                if path != final_path {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        self.publish_staged(&tmp, &final_path)?;
        // 3. Corrective commit: re-appending the epoch's record replaces it
        //    in the folded view (latest record per epoch wins), repairing a
        //    damaged count/byte field while preserving the chain kind.
        let fixed = match rec.kind {
            RecordKind::Full => {
                ManifestRecord::full(epoch, records.len() as u64, payload_bytes, rec.aux)
            }
            _ => ManifestRecord::delta(epoch, records.len() as u64, payload_bytes),
        };
        self.shared.commit(&self.manifest_path(), &[fixed])?;
        self.invalidate_index([epoch]);
        Ok(())
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        let rec = self.live_record(epoch)?;
        // The only damage a lone file backend can heal from its own bytes
        // is a corrupted manifest commit count: every record still
        // verifies, so recounting the segments restores agreement. Payload
        // damage needs a redundant source (replica, parity, another level).
        let report = self.verify_epoch(epoch)?;
        let count_damage_only = report.corrupt_pages.is_empty()
            && report.structural.len() == 1
            && report.structural[0].contains("manifest committed");
        if !count_damage_only {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("no redundant source to repair epoch {epoch}"),
            ));
        }
        let fixed = match rec.kind {
            RecordKind::Full => ManifestRecord::full(epoch, report.records, report.bytes, rec.aux),
            _ => ManifestRecord::delta(epoch, report.records, report.bytes),
        };
        self.shared.commit(&self.manifest_path(), &[fixed])?;
        self.invalidate_index([epoch]);
        Ok(RepairReport {
            epoch,
            pages: Vec::new(),
            rewrote_segment: false,
            source: "manifest recount".to_owned(),
        })
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        let index = self.epoch_index(epoch)?;
        let Some(loc) = index.by_page.get(&page) else {
            return Ok(None);
        };
        let mut frame = [0u8; FRAME_LEN];
        index.files[loc.file as usize].read_exact_at(&mut frame, loc.offset)?;
        let frame = Frame::parse(&frame);
        frame.check_against_trailer(page, loc.len, epoch)?;
        Ok(Some(RecordMeta {
            raw_len: frame.raw_len,
            crc: frame.crc,
        }))
    }

    fn io_stats(&self) -> IoStats {
        self.shared.io.snapshot()
    }
}

/// Read and validate a segment header: `AICKSEG3` magic (anything else is
/// rejected by name — there is exactly one format) and the expected epoch.
fn read_segment_header(reader: &mut impl Read, epoch: u64) -> io::Result<()> {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    reader.read_exact(&mut header)?;
    if &header[..8] != SEGMENT_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "bad segment magic {:?} (expected \"AICKSEG3\")",
                String::from_utf8_lossy(&header[..8])
            ),
        ));
    }
    let seg_epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if seg_epoch != epoch {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("segment claims epoch {seg_epoch}, expected {epoch}"),
        ));
    }
    Ok(())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A segment's decoded trailer: where every record starts and where the
/// records end. CRC-verified and bounds-checked by [`open_segment`], so
/// every extent derived from it lies inside the file.
#[derive(Debug)]
struct Trailer {
    /// `(page, offset of the record's frame)` in record order.
    entries: Vec<(u64, u64)>,
    /// Offset just past the last record = where the trailer starts.
    records_end: u64,
}

impl Trailer {
    /// Bytes a trailer of this many entries occupies on disk.
    fn disk_len(&self) -> u64 {
        (self.entries.len() * TRAILER_ENTRY_LEN + TRAILER_FOOTER_LEN) as u64
    }

    /// Each entry with the end of its record's extent (the next record's
    /// offset, or the trailer's start).
    fn extents(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let ends = self.entries.iter().skip(1).map(|&(_, at)| at);
        self.entries
            .iter()
            .zip(ends.chain([self.records_end]))
            .map(|(&(page, at), end)| (page, at, end))
    }
}

/// Open one segment (shard) file of `epoch`: validate the header, then
/// read the fixed-size footer from the tail, bounds-check its count
/// against the file length, read the entries with one `pread`, verify
/// their CRC and check that they tile `header..trailer` with room for a
/// frame each. No record byte is touched. The handle comes back positioned
/// at the first record.
fn open_segment(path: &Path, epoch: u64) -> io::Result<(File, Trailer)> {
    let file = File::open(path)?;
    read_segment_header(&mut &file, epoch)?;
    let len = file.metadata()?.len();
    let torn = || invalid(format!("epoch {epoch}: segment trailer missing or torn"));
    let footer_at = len
        .checked_sub(TRAILER_FOOTER_LEN as u64)
        .filter(|&at| at >= SEGMENT_HEADER_LEN as u64)
        .ok_or_else(torn)?;
    let mut footer = [0u8; TRAILER_FOOTER_LEN];
    file.read_exact_at(&mut footer, footer_at)?;
    if &footer[16..] != TRAILER_MAGIC {
        return Err(torn());
    }
    let count = u64::from_le_bytes(footer[..8].try_into().unwrap());
    let records_end = count
        .checked_mul(TRAILER_ENTRY_LEN as u64)
        .and_then(|bytes| footer_at.checked_sub(bytes))
        .filter(|&at| at >= SEGMENT_HEADER_LEN as u64)
        .ok_or_else(|| {
            invalid(format!(
                "epoch {epoch}: trailer claims {count} records in a {len}-byte segment"
            ))
        })?;
    let mut raw = vec![0u8; (footer_at - records_end) as usize];
    file.read_exact_at(&mut raw, records_end)?;
    if crc64_update(crc64(&raw), &footer[..8])
        != u64::from_le_bytes(footer[8..16].try_into().unwrap())
    {
        return Err(invalid(format!(
            "epoch {epoch}: segment trailer CRC mismatch"
        )));
    }
    let entries: Vec<(u64, u64)> = raw
        .chunks_exact(TRAILER_ENTRY_LEN)
        .map(|e| {
            (
                u64::from_le_bytes(e[..8].try_into().unwrap()),
                u64::from_le_bytes(e[8..].try_into().unwrap()),
            )
        })
        .collect();
    // Walking back from the trailer, every record must leave room for its
    // frame, and the first must start right after the header.
    let first = entries.iter().rev().try_fold(records_end, |end, &(_, at)| {
        at.checked_add(FRAME_LEN as u64)
            .filter(|&frame_end| frame_end <= end)
            .map(|_| at)
    });
    if first != Some(SEGMENT_HEADER_LEN as u64) {
        return Err(invalid(format!(
            "epoch {epoch}: trailer offsets do not tile the segment"
        )));
    }
    Ok((
        file,
        Trailer {
            entries,
            records_end,
        },
    ))
}

/// One record frame, decoded field by field (nothing validated: an at-rest
/// flip of, say, the encoding byte must condemn that record when it is
/// *read*, not break walking the segment).
#[derive(Debug, Clone, Copy)]
struct Frame {
    page: u64,
    enc: u8,
    raw_len: u32,
    stored_len: u32,
    /// CRC-64 over the uncompressed payload.
    crc: u64,
}

impl Frame {
    /// Decode the frame heading `record` (at least [`FRAME_LEN`] bytes:
    /// every trailer-derived extent is, see [`open_segment`]).
    fn parse(record: &[u8]) -> Frame {
        let buf = &record[..FRAME_LEN];
        Frame {
            page: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            enc: buf[8],
            raw_len: u32::from_le_bytes(buf[9..13].try_into().unwrap()),
            stored_len: u32::from_le_bytes(buf[13..17].try_into().unwrap()),
            crc: u64::from_le_bytes(buf[17..25].try_into().unwrap()),
        }
    }

    /// Fail unless this frame is the record its trailer entry promised:
    /// the same page id, and a stored length filling exactly the entry's
    /// extent. The payload CRC covers neither field.
    fn check_against_trailer(&self, page: u64, extent_len: u64, epoch: u64) -> io::Result<()> {
        if self.page == page && FRAME_LEN as u64 + self.stored_len as u64 == extent_len {
            return Ok(());
        }
        Err(invalid(format!(
            "epoch {epoch}: record frame (page {}, {} stored bytes) disagrees with its \
             trailer entry (page {page}, {extent_len}-byte extent)",
            self.page, self.stored_len
        )))
    }
}

/// Stream one segment (shard) file's records — the reference replay —
/// verifying magic, epoch, trailer and per-record CRCs (always computed
/// over the uncompressed payload, so a compressed record that decodes
/// wrongly can never pass verification), and cross-checking every walked
/// frame against its trailer entry. Returns the record count read; the
/// caller cross-checks the total against the manifest.
fn read_segment(path: &Path, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<u64> {
    let (file, trailer) = open_segment(path, epoch)?;
    let mut reader = BufReader::with_capacity(1 << 20, file);
    let mut record = Vec::new();
    for (page, at, end) in trailer.extents() {
        record.resize((end - at) as usize, 0);
        reader.read_exact(&mut record)?;
        let frame = Frame::parse(&record);
        frame.check_against_trailer(page, end - at, epoch)?;
        let stored = &record[FRAME_LEN..];
        let enc = Encoding::from_u8(frame.enc)?;
        let decoded = codec::decode(enc, stored, frame.raw_len as usize)?;
        let payload = decoded.as_deref().unwrap_or(stored);
        if crc64(payload) != frame.crc {
            return Err(invalid(format!(
                "CRC mismatch for page {page} in epoch {epoch}"
            )));
        }
        visit(page, payload);
    }
    Ok(trailer.entries.len() as u64)
}

/// Damage inventory of one segment (shard) file, from
/// [`verify_segment_file`]'s forgiving walk.
struct SegmentVerify {
    /// Records whose frames were walked, damaged or not.
    records: u64,
    /// Sum of the walked records' uncompressed payload lengths.
    payload_bytes: u64,
    /// Pages whose stored record failed decode or CRC verification, or
    /// whose frame no longer matches its trailer entry.
    corrupt: Vec<u64>,
    /// Damage that leaves (the rest of) the file unaccounted for: a bad
    /// header, a missing, torn or CRC-failing trailer.
    structural: Option<String>,
}

/// Walk one segment file end-to-end verifying every record but — unlike
/// [`read_segment`] — continuing past per-record damage: a flipped
/// payload, CRC, encoding, length or page-id byte condemns that page alone
/// (named by its CRC-protected trailer entry), because the trailer still
/// tells the walk where the next record starts. Only structural damage (an
/// unreadable header or trailer) ends the scan. `Err` is reserved for
/// environmental failures (the file vanishing mid-walk), so scrub pacing
/// can distinguish "damaged" from "unreadable".
fn verify_segment_file(path: &Path, epoch: u64) -> io::Result<SegmentVerify> {
    let mut out = SegmentVerify {
        records: 0,
        payload_bytes: 0,
        corrupt: Vec::new(),
        structural: None,
    };
    let (file, trailer) = match open_segment(path, epoch) {
        Ok(opened) => opened,
        Err(e)
            if e.kind() == io::ErrorKind::InvalidData
                || e.kind() == io::ErrorKind::UnexpectedEof =>
        {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("segment");
            out.structural = Some(format!("{name}: {e}"));
            return Ok(out);
        }
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::with_capacity(1 << 20, file);
    let mut record = Vec::new();
    for (page, at, end) in trailer.extents() {
        record.resize((end - at) as usize, 0);
        reader.read_exact(&mut record)?;
        let frame = Frame::parse(&record);
        let stored = &record[FRAME_LEN..];
        out.records += 1;
        out.payload_bytes += frame.raw_len as u64;
        let verified = frame
            .check_against_trailer(page, end - at, epoch)
            .and_then(|()| Encoding::from_u8(frame.enc))
            .and_then(|enc| codec::decode(enc, stored, frame.raw_len as usize))
            .map(|decoded| crc64(decoded.as_deref().unwrap_or(stored)) == frame.crc)
            .unwrap_or(false);
        if !verified {
            out.corrupt.push(page);
        }
    }
    Ok(out)
}

/// Location of one page record inside an epoch's segment files: the extent
/// (frame + stored payload) a single positioned read fetches. Everything
/// else — encoding, lengths, CRC — is read from the frame itself.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    /// Index into [`EpochIndex::files`].
    file: u32,
    /// Byte offset of the record's frame.
    offset: u64,
    /// Extent length: up to the next record, or to the trailer.
    len: u64,
}

/// Trailer-built index of one committed epoch: every record's extent, no
/// record byte read. File handles stay open so `read_page_at` is one
/// positioned read + decode, immune to concurrent renames of the paths.
#[derive(Debug)]
struct EpochIndex {
    files: Vec<File>,
    /// Page of every record, in record (arrival) order — possibly with
    /// duplicates, matching `read_epoch` visit order.
    pages: Vec<u64>,
    /// Latest-wins location per page.
    by_page: HashMap<u64, RecordLoc>,
}

impl FileBackend {
    /// The cached (building on first use) segment index of a committed
    /// epoch. Fails like `read_epoch` for unknown epochs, and cross-checks
    /// the indexed record count against the manifest's committed count.
    fn epoch_index(&self, epoch: u64) -> io::Result<Arc<EpochIndex>> {
        if let Some(idx) = self.shared.page_index.lock().get(&epoch) {
            return Ok(Arc::clone(idx));
        }
        let rec = self.live_record(epoch)?;
        let paths = match rec.kind {
            RecordKind::Full => vec![Self::full_path(&self.dir, epoch)],
            _ => {
                let shards = delta_shard_files(&self.dir, epoch)?;
                if shards.is_empty() {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("epoch {epoch}: segment file missing"),
                    ));
                }
                shards
            }
        };
        let mut files = Vec::with_capacity(paths.len());
        let mut pages = Vec::new();
        let mut by_page = HashMap::new();
        for (i, path) in paths.iter().enumerate() {
            let (file, trailer) = open_segment(path, epoch)?;
            self.shared.io.index_bytes_read.fetch_add(
                SEGMENT_HEADER_LEN as u64 + trailer.disk_len(),
                Ordering::Relaxed,
            );
            for (page, at, end) in trailer.extents() {
                pages.push(page);
                let loc = RecordLoc {
                    file: i as u32,
                    offset: at,
                    len: end - at,
                };
                by_page.insert(page, loc);
            }
            files.push(file);
        }
        if pages.len() as u64 != rec.records {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "epoch {epoch}: manifest committed {} records but segments hold {}",
                    rec.records,
                    pages.len()
                ),
            ));
        }
        let idx = Arc::new(EpochIndex {
            files,
            pages,
            by_page,
        });
        self.shared
            .page_index
            .lock()
            .insert(epoch, Arc::clone(&idx));
        Ok(idx)
    }

    /// The live manifest record of `epoch`, or `NotFound` like `read_epoch`.
    fn live_record(&self, epoch: u64) -> io::Result<ManifestRecord> {
        self.live_records()?
            .into_iter()
            .find(|r| r.epoch == epoch)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("epoch {epoch} not committed (or compacted away)"),
                )
            })
    }

    /// Drop cached segment indexes of epochs that no longer exist.
    fn invalidate_index(&self, epochs: impl IntoIterator<Item = u64>) {
        let mut cache = self.shared.page_index.lock();
        for epoch in epochs {
            cache.remove(&epoch);
        }
    }

    /// Write `records` as a complete segment of `epoch` under
    /// `final_path`'s temp name and make it durable — not yet renamed into
    /// place. Returns the temp path and the uncompressed payload bytes.
    fn stage_segment(
        &self,
        final_path: &Path,
        epoch: u64,
        records: &[(u64, &[u8])],
    ) -> io::Result<(PathBuf, u64)> {
        let tmp = final_path.with_extension("seg.tmp");
        let mut w = BufWriter::with_capacity(1 << 20, File::create(&tmp)?);
        w.write_all(SEGMENT_MAGIC)?;
        w.write_all(&epoch.to_le_bytes())?;
        let mut payload_bytes = 0u64;
        let mut trailer =
            Vec::with_capacity(records.len() * TRAILER_ENTRY_LEN + TRAILER_FOOTER_LEN);
        let mut record_at = SEGMENT_HEADER_LEN as u64;
        for &(page, data) in records {
            push_trailer_entry(&mut trailer, page, record_at);
            record_at += FRAME_LEN as u64 + write_record(&mut w, page, data, self.compression)?;
            payload_bytes += data.len() as u64;
        }
        let file = w
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        write_trailer(&file, &mut trailer, record_at, &self.shared.io)?;
        if self.sync_on_finish {
            file.sync_all()?;
            self.shared
                .io
                .segment_fsyncs
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok((tmp, payload_bytes))
    }

    /// Rename a staged segment into place and make the directory entry
    /// durable.
    fn publish_staged(&self, tmp: &Path, final_path: &Path) -> io::Result<()> {
        fs::rename(tmp, final_path)?;
        if self.sync_on_finish {
            self.shared.sync_dir(&self.dir)?;
        }
        Ok(())
    }
}

/// Corrupt a single byte of the first record's *stored* payload inside a
/// finished segment — test helper for integrity verification (exposed so
/// integration tests and failure-injection examples can share it).
/// `byte_offset` is taken modulo the stored payload length.
pub fn corrupt_record_payload(dir: &Path, epoch: u64, byte_offset: u64) -> io::Result<()> {
    corrupt_segment_region(dir, epoch, SegmentRegion::Payload { byte: byte_offset })
}

/// XOR one byte of `f` at `pos` with `0xFF` (read-modify-write).
fn flip_byte_at(f: &mut File, pos: u64) -> io::Result<()> {
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(pos))?;
    f.read_exact(&mut b)?;
    b[0] ^= 0xFF;
    f.seek(SeekFrom::Start(pos))?;
    f.write_all(&b)?;
    Ok(())
}

/// Which structural region of an epoch's (shard-0 or full) segment file
/// [`corrupt_segment_region`] should damage — one variant per field of the
/// on-disk format, so integrity tests can hit every byte class the
/// scrubber must detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentRegion {
    /// The segment header magic: structural damage, the whole shard
    /// becomes unreadable (`verify_epoch` reports it in `structural`).
    Header,
    /// The first record's page id: the payload and its CRC are intact, but
    /// the record no longer is the page its trailer entry names.
    PageId,
    /// The first record's encoding byte: per-record damage localized to
    /// that page.
    Encoding,
    /// A byte of the first record's *stored* payload (offset taken modulo
    /// the stored length).
    Payload {
        /// Byte offset within the stored payload (modulo its length).
        byte: u64,
    },
    /// A byte of the first record's stored CRC-64 field: the payload is
    /// intact but can no longer prove it.
    Crc,
    /// A byte of the *stored* payload of the record with id `page`
    /// (wherever it sits in the segment).
    PayloadOf {
        /// Record id to damage.
        page: u64,
        /// Byte offset within the stored payload (modulo its length).
        byte: u64,
    },
    /// A byte of the trailer (entries, count, CRC or magic): structural
    /// damage, no record of the shard can be located any more.
    Trailer {
        /// Byte offset within the trailer (modulo its length).
        byte: u64,
    },
}

/// Flip one byte of the given `region` of `epoch`'s segment file — at-rest
/// corruption injection for integrity tests (the counterpart the scrubber
/// is built to catch). Targets the delta shard-0 file when present, else
/// the compacted `full_` image. The segment must be intact (the target is
/// found through its trailer).
pub fn corrupt_segment_region(dir: &Path, epoch: u64, region: SegmentRegion) -> io::Result<()> {
    let delta = FileBackend::segment_path(dir, epoch);
    let path = if delta.exists() {
        delta
    } else {
        FileBackend::full_path(dir, epoch)
    };
    let (_, trailer) = open_segment(&path, epoch)?;
    // The target record: the first one, or the one named.
    let named = match region {
        SegmentRegion::PayloadOf { page, .. } => Some(page),
        _ => None,
    };
    let record = || {
        trailer
            .extents()
            .find(|&(page, ..)| named.is_none_or(|n| n == page))
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "segment holds no such record")
            })
    };
    let pos = match region {
        SegmentRegion::Header => 0,
        SegmentRegion::Trailer { byte } => trailer.records_end + byte % trailer.disk_len(),
        SegmentRegion::PageId => record()?.1,
        SegmentRegion::Encoding => record()?.1 + 8,
        SegmentRegion::Crc => record()?.1 + 17,
        SegmentRegion::Payload { byte } | SegmentRegion::PayloadOf { byte, .. } => {
            let (_, at, end) = record()?;
            let stored_len = end - at - FRAME_LEN as u64;
            if stored_len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "target record has an empty payload",
                ));
            }
            at + FRAME_LEN as u64 + byte % stored_len
        }
    };
    flip_byte_at(
        &mut OpenOptions::new().read(true).write(true).open(path)?,
        pos,
    )
}

/// Rewrite the manifest so `epoch`'s latest commit record carries a wrong
/// record count under a *valid* CRC — a miscounted commit rather than rot,
/// which `verify_epoch` reports as a structural manifest↔segment
/// disagreement and `repair_epoch` heals by recounting. (Rot of the log's
/// own bytes is [`corrupt_manifest_byte`].)
pub fn corrupt_manifest_count(dir: &Path, epoch: u64) -> io::Result<()> {
    let path = dir.join(MANIFEST_FILE);
    let mut records: Vec<ManifestRecord> = log::read(&path)?;
    // The latest non-retirement record for the epoch is the one the folded
    // view serves.
    let target = records
        .iter_mut()
        .rev()
        .find(|r| r.epoch == epoch && r.kind != RecordKind::CompactedInto)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no manifest record for epoch {epoch}"),
            )
        })?;
    target.records ^= 0xFF;
    fs::remove_file(&path)?;
    log::append(&path, &records).map(drop)
}

/// Flip the manifest byte at `offset` (magic included) — at-rest rot of
/// the commit log itself, which no record CRC survives.
pub fn corrupt_manifest_byte(dir: &Path, offset: u64) -> io::Result<()> {
    let path = dir.join(MANIFEST_FILE);
    flip_byte_at(
        &mut OpenOptions::new().read(true).write(true).open(path)?,
        offset,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aickpt-file-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[track_caller]
    fn assert_invalid(e: io::Error) {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    fn epoch_round_trip_with_crc() {
        let dir = tmpdir("rt");
        let b = FileBackend::open(&dir).unwrap();
        let w = b.begin_epoch(1).unwrap();
        w.write_pages(&[(42, &[1u8; 128]), (7, &[2u8; 128])])
            .unwrap();
        w.finish().unwrap();

        assert_eq!(b.epochs().unwrap(), vec![1]);
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, 42);
        assert_eq!(seen[0].1, vec![1u8; 128]);
        assert_eq!(seen[1].0, 7);
        assert_eq!(b.bytes_written(), 256);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_epoch_is_not_visible_after_reopen() {
        let dir = tmpdir("crash");
        {
            let b = FileBackend::open(&dir).unwrap();
            write_epoch(&b, 1, vec![(0, vec![1, 2, 3])]).unwrap();
            let w = b.begin_epoch(2).unwrap();
            w.write_pages(&[(1, &[4, 5, 6])]).unwrap();
            // Simulated crash: never finish epoch 2. (std::mem::forget keeps
            // even the implicit-drop abort from tidying the segment file up,
            // exactly like a killed process.)
            std::mem::forget(w);
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(
            b.epochs().unwrap(),
            vec![1],
            "epoch 2 segment exists but is uncommitted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_removes_segment_and_frees_session() {
        let dir = tmpdir("abort");
        let b = FileBackend::open(&dir).unwrap();
        let w = b.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[1])]).unwrap();
        w.abort().unwrap();
        assert!(b.epochs().unwrap().is_empty());
        assert!(!FileBackend::segment_path(&dir, 1).exists());
        write_epoch(&b, 1, vec![(0, vec![2])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_finish_releases_session() {
        // A finish error (here: the directory vanished under the writer, so
        // the manifest append fails) must not wedge the backend — the next
        // begin_epoch must succeed instead of reporting "still open".
        let dir = tmpdir("ffin");
        let b = FileBackend::open(&dir).unwrap();
        let w = b.begin_epoch(1).unwrap();
        w.write_pages(&[(0, &[1])]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(w.finish().is_err(), "manifest append cannot succeed");
        fs::create_dir_all(&dir).unwrap();
        write_epoch(&b, 1, vec![(0, vec![2])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_batches_one_epoch() {
        let dir = tmpdir("conc");
        let b = FileBackend::open(&dir).unwrap();
        let w: std::sync::Arc<dyn EpochWriter> = std::sync::Arc::from(b.begin_epoch(1).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = std::sync::Arc::clone(&w);
                s.spawn(move || {
                    let data = [t as u8; 64];
                    let batch: Vec<(u64, &[u8])> = (0..8).map(|i| (t * 8 + i, &data[..])).collect();
                    w.write_pages(&batch).unwrap();
                });
            }
        });
        w.finish().unwrap();
        let mut pages = Vec::new();
        b.read_epoch(1, &mut |p, d| {
            assert!(d.iter().all(|&x| x as u64 == p / 8), "no torn records");
            pages.push(p);
        })
        .unwrap();
        pages.sort_unstable();
        assert_eq!(pages, (0..32).collect::<Vec<u64>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(3, vec![9u8; 64])]).unwrap();
        corrupt_record_payload(&dir, 1, 10).unwrap();
        let err = b.read_epoch(1, &mut |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_localizes_per_record_damage() {
        // Each per-record region flip condemns exactly the damaged page;
        // the other record keeps verifying and the walk stays structural-
        // clean. Incompressible payloads keep the stored bytes raw so the
        // flipped byte is guaranteed to land in page 3's record.
        let noise = |seed: u8| -> Vec<u8> { (0..64u32).map(|i| seed ^ (i as u8)).collect() };
        for region in [
            SegmentRegion::Payload { byte: 10 },
            SegmentRegion::Crc,
            SegmentRegion::Encoding,
            SegmentRegion::PageId,
        ] {
            let dir = tmpdir("verify-local");
            let b = FileBackend::open(&dir).unwrap();
            write_epoch(&b, 1, vec![(3, noise(0x5a)), (4, noise(0xa5))]).unwrap();
            assert!(b.verify_epoch(1).unwrap().is_clean());
            corrupt_segment_region(&dir, 1, region).unwrap();
            let report = b.verify_epoch(1).unwrap();
            assert_eq!(report.corrupt_pages, vec![3], "{region:?}");
            assert!(report.structural.is_empty(), "{region:?}");
            assert_eq!(report.records, 2, "both records walked ({region:?})");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn verify_reports_structural_damage_for_header_and_trailer_flips() {
        // Trailer bytes: 0 = first entry's page, 8 = its offset, then (one
        // record) 16 = count, 24 = CRC, 32 = magic.
        let trailer = [0, 8, 16, 24, 32].map(|byte| SegmentRegion::Trailer { byte });
        for region in [SegmentRegion::Header].into_iter().chain(trailer) {
            let dir = tmpdir("verify-hdr");
            let b = FileBackend::open(&dir).unwrap();
            write_epoch(&b, 1, vec![(0, vec![7u8; 32])]).unwrap();
            corrupt_segment_region(&dir, 1, region).unwrap();
            let report = b.verify_epoch(1).unwrap();
            assert!(!report.structural.is_empty(), "{region:?} is structural");
            assert!(report.corrupt_pages.is_empty(), "{region:?}");
            assert_invalid(b.read_epoch(1, &mut |_, _| {}).unwrap_err());
            assert_invalid(b.epoch_page_ids(1).unwrap_err());
            assert_invalid(b.read_page_at(1, 0).unwrap_err());
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn flipped_page_id_fails_every_read_door() {
        // The payload CRC does not cover the record's page id and the
        // record count still matches the manifest: only the cross-check
        // against the CRC'd trailer entry stands between a flipped id and
        // a restore that silently renames page 3.
        let dir = tmpdir("pageid");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(3, vec![9u8; 64]), (4, vec![8u8; 64])]).unwrap();
        corrupt_segment_region(&dir, 1, SegmentRegion::PageId).unwrap();
        assert_eq!(b.verify_epoch(1).unwrap().corrupt_pages, vec![3]);
        assert_invalid(b.read_page_at(1, 3).unwrap_err());
        assert_invalid(b.record_meta(1, 3).unwrap_err());
        assert_invalid(b.read_epoch(1, &mut |_, _| {}).unwrap_err());
        assert_invalid(crate::image::CheckpointImage::load(&b, 1).unwrap_err());
        // The locator resolves pages from the trailer, so it still names
        // page 3; the fill is what fails.
        let locator = crate::locator::PageLocator::build(&b, 1).unwrap();
        assert_eq!(locator.pages_newest_first(), [3, 4]);
        assert_invalid(b.read_page_at(locator.epoch_of(3).unwrap(), 3).unwrap_err());
        assert_eq!(b.read_page_at(1, 4).unwrap().unwrap(), vec![8u8; 64]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_batch_never_reaches_the_trailer() {
        let dir = tmpdir("failbatch");
        let b = FileBackend::open(&dir).unwrap();
        let w = b.begin_epoch_impl(1).unwrap();
        w.write_pages(&[(0, &[1u8; 64])]).unwrap();
        // Swap in a handle `pwritev` must refuse (read-only: EBADF).
        let read_only = File::open(shard_path(&dir, 1, 0)).unwrap();
        let good = std::mem::replace(&mut w.shards[0].lock().as_mut().unwrap().file, read_only);
        assert!(w.write_pages(&[(1, &[2u8; 64])]).is_err());
        w.shards[0].lock().as_mut().unwrap().file = good;
        w.write_pages(&[(2, &[3u8; 64])]).unwrap();
        w.finish().unwrap();
        assert_eq!(b.epoch_page_ids(1).unwrap(), vec![0, 2]);
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d[0]))).unwrap();
        assert_eq!(seen, vec![(0, 1), (2, 3)]);
        assert_eq!(b.read_page_at(1, 2).unwrap().unwrap(), vec![3u8; 64]);
        assert_eq!(b.read_page_at(1, 1).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn indexing_an_epoch_reads_its_trailer_not_its_payload() {
        const N: u64 = 512;
        let dir = tmpdir("indexbytes");
        {
            let b = FileBackend::open(&dir)
                .unwrap()
                .with_compression(Compression::None);
            write_epoch(&b, 1, (0..N).map(|p| (p, vec![p as u8; 4096]))).unwrap();
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.index_bytes_read(), 0);
        assert_eq!(b.epoch_page_ids(1).unwrap().len(), N as usize);
        let indexed = b.index_bytes_read();
        assert!(
            (16 * N..=16 * N + 64).contains(&indexed),
            "one shard, {N} records: {indexed} bytes"
        );
        for p in 0..N {
            assert_eq!(b.read_page_at(1, p).unwrap().unwrap(), vec![p as u8; 4096]);
        }
        b.epoch_page_ids(1).unwrap();
        assert_eq!(b.index_bytes_read(), indexed, "the index is built once");
        assert_eq!(b.io_stats().page_reads, N);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_count_damage_self_heals_by_recount() {
        let dir = tmpdir("recount");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(0, vec![1u8; 16]), (1, vec![2u8; 16])]).unwrap();
        corrupt_manifest_count(&dir, 1).unwrap();
        let report = b.verify_epoch(1).unwrap();
        assert!(report.corrupt_pages.is_empty());
        assert_eq!(report.structural.len(), 1, "count disagreement only");
        assert_eq!(
            b.read_epoch(1, &mut |_, _| {}).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let repair = b.repair_epoch(1).unwrap();
        assert_eq!(repair.source, "manifest recount");
        assert!(b.verify_epoch(1).unwrap().is_clean());
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d[0]))).unwrap();
        assert_eq!(seen, vec![(0, 1), (1, 2)], "reads recover");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_damage_has_no_lone_backend_repair() {
        let dir = tmpdir("norepair");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(0, (0..64u8).collect())]).unwrap();
        corrupt_record_payload(&dir, 1, 3).unwrap();
        assert_eq!(
            b.repair_epoch(1).unwrap_err().kind(),
            io::ErrorKind::Unsupported,
            "payload rot needs a redundant source"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_epoch_replaces_a_damaged_segment_in_place() {
        let dir = tmpdir("rewrite");
        let b = FileBackend::open(&dir).unwrap();
        let pages: Vec<(u64, Vec<u8>)> = vec![(0, (0..64u8).collect()), (9, (64..128u8).collect())];
        write_epoch(&b, 1, pages.clone()).unwrap();
        write_epoch(&b, 2, vec![(0, vec![9u8; 8])]).unwrap();
        corrupt_segment_region(&dir, 1, SegmentRegion::Header).unwrap();
        assert!(b.read_epoch(1, &mut |_, _| {}).is_err());
        b.rewrite_epoch(1, &crate::backend::as_batch(&pages))
            .unwrap();
        assert!(b.verify_epoch(1).unwrap().is_clean());
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, pages, "byte-identical to the original epoch");
        // The chain shape is untouched: still two deltas, and the
        // corrective record survives reopen.
        assert_eq!(b.epochs().unwrap(), vec![1, 2]);
        drop(b);
        let b = FileBackend::open(&dir).unwrap();
        assert!(b.verify_epoch(1).unwrap().is_clean());
        assert_eq!(b.epochs().unwrap(), vec![1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_preserves_full_kind_for_compacted_epochs() {
        let dir = tmpdir("rewrite-full");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(0, vec![1u8; 16])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2u8; 16])]).unwrap();
        b.compact(2).unwrap();
        corrupt_segment_region(&dir, 2, SegmentRegion::Payload { byte: 0 }).unwrap();
        assert!(!b.verify_epoch(2).unwrap().is_clean());
        b.rewrite_epoch(2, &[(0, &[1u8; 16]), (1, &[2u8; 16])])
            .unwrap();
        assert!(b.verify_epoch(2).unwrap().is_clean());
        assert_eq!(
            b.chain().unwrap(),
            vec![ChainEntry {
                epoch: 2,
                kind: EpochKind::Full
            }],
            "rewrite keeps the full-image kind, unlike install_compacted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_meta_reports_frame_metadata() {
        let dir = tmpdir("meta");
        let b = FileBackend::open(&dir).unwrap();
        let data: Vec<u8> = (0..100u8).collect();
        write_epoch(&b, 1, vec![(5, data.clone())]).unwrap();
        let meta = b.record_meta(1, 5).unwrap().unwrap();
        assert_eq!(meta.raw_len, 100);
        assert_eq!(meta.crc, crc64(&data));
        assert_eq!(b.record_meta(1, 6).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_sweeps_uncommitted_segments_and_tmp_files() {
        let dir = tmpdir("sweep");
        {
            let b = FileBackend::open(&dir).unwrap();
            write_epoch(&b, 1, vec![(0, vec![1, 2, 3])]).unwrap();
            let w = b.begin_epoch(2).unwrap();
            w.write_pages(&[(1, &[4, 5, 6])]).unwrap();
            // Killed process: neither finish nor the implicit-drop abort.
            std::mem::forget(w);
            // A crash mid-compaction leaves a temp file too.
            fs::write(dir.join("full_0000000009.seg.tmp"), b"half").unwrap();
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1]);
        assert!(
            !FileBackend::segment_path(&dir, 2).exists(),
            "uncommitted segment swept at reopen"
        );
        assert!(
            !dir.join("full_0000000009.seg.tmp").exists(),
            "tmp compaction image swept"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_folds_chain_into_full_segment() {
        let dir = tmpdir("compact");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(0, vec![1; 16]), (1, vec![1; 16])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2; 16]), (2, vec![2; 16])]).unwrap();
        write_epoch(&b, 3, vec![(0, vec![3; 16])]).unwrap();
        let stats = b.compact(3).unwrap();
        assert_eq!((stats.from, stats.into), (1, 3));
        assert_eq!(stats.segments_removed, 3);
        assert_eq!(stats.bytes_before, 5 * 16);
        assert_eq!(stats.bytes_after, 3 * 16, "one version per page remains");
        // The chain is now a single full segment; deltas are gone from disk.
        assert_eq!(b.epochs().unwrap(), vec![3]);
        assert_eq!(
            b.chain().unwrap(),
            vec![ChainEntry {
                epoch: 3,
                kind: EpochKind::Full
            }]
        );
        for e in 1..=3 {
            assert!(!FileBackend::segment_path(&dir, e).exists(), "epoch {e}");
        }
        assert!(FileBackend::full_path(&dir, 3).exists());
        let mut seen = Vec::new();
        b.read_epoch(3, &mut |p, d| seen.push((p, d[0]))).unwrap();
        assert_eq!(seen, vec![(0, 3), (1, 2), (2, 2)], "latest-wins image");
        // Epochs after the compaction stack on top as deltas.
        write_epoch(&b, 4, vec![(5, vec![4])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![3, 4]);
        // Restore below the horizon fails cleanly.
        assert_eq!(
            b.read_epoch(2, &mut |_, _| {}).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        // Compacting a lone full epoch is a no-op.
        let again = b.compact(3).unwrap();
        assert_eq!(again.segments_removed, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compacted_chain_survives_reopen() {
        let dir = tmpdir("compact-reopen");
        {
            let b = FileBackend::open(&dir).unwrap();
            write_epoch(&b, 1, vec![(0, vec![1])]).unwrap();
            write_epoch(&b, 2, vec![(1, vec![2])]).unwrap();
            b.compact(2).unwrap();
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![2]);
        let mut seen = Vec::new();
        b.read_epoch(2, &mut |p, d| seen.push((p, d[0]))).unwrap();
        assert_eq!(seen, vec![(0, 1), (1, 2)]);
        // Epoch numbers continue above the compaction point after reopen.
        assert!(b.begin_epoch(2).is_err());
        write_epoch(&b, 3, vec![(0, vec![3])]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_epoch_retires_and_is_durable() {
        let dir = tmpdir("retire");
        {
            let b = FileBackend::open(&dir).unwrap();
            write_epoch(&b, 1, vec![(0, vec![1])]).unwrap();
            write_epoch(&b, 2, vec![(1, vec![2])]).unwrap();
            b.remove_epochs(&[1]).unwrap();
            assert_eq!(b.epochs().unwrap(), vec![2]);
            assert!(!FileBackend::segment_path(&dir, 1).exists());
            assert!(b.remove_epochs(&[1]).is_err(), "already retired");
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![2], "retirement survived reopen");
        assert!(b.begin_epoch(1).is_err(), "retired numbers are not reused");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_numbers_must_increase_across_reopen() {
        let dir = tmpdir("inc");
        {
            let b = FileBackend::open(&dir).unwrap();
            b.begin_epoch(3).unwrap().finish().unwrap();
        }
        let b = FileBackend::open(&dir).unwrap();
        assert!(b.begin_epoch(3).is_err());
        assert!(b.begin_epoch(2).is_err());
        b.begin_epoch(4).unwrap().finish().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lone_stream_stays_in_legacy_single_file_layout() {
        let dir = tmpdir("shard0");
        let b = FileBackend::open(&dir).unwrap();
        let w = b.begin_epoch(1).unwrap();
        for i in 0..16u64 {
            w.write_pages(&[(i, &[i as u8; 64])]).unwrap();
        }
        w.finish().unwrap();
        assert!(FileBackend::segment_path(&dir, 1).exists());
        assert!(
            !shard_path(&dir, 1, 1).exists(),
            "no contention, no extra shards"
        );
        // Single-stream write order is preserved, as before.
        let mut pages = Vec::new();
        b.read_epoch(1, &mut |p, _| pages.push(p)).unwrap();
        assert_eq!(pages, (0..16).collect::<Vec<u64>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contended_writer_spills_to_shard_files() {
        let dir = tmpdir("spill");
        let b = FileBackend::open(&dir).unwrap();
        let w = b.begin_epoch_impl(1).unwrap();
        {
            // Hold shard slot 0 (as a concurrent stream would) and write:
            // the batch must claim shard 1 instead of blocking.
            let _slot0 = w.shards[0].lock();
            w.write_pages(&[(0, &[7u8; 32])]).unwrap();
            assert!(shard_path(&dir, 1, 1).exists(), "spilled to shard 1");
        }
        // Slot 0 free again: next batch lands there.
        w.write_pages(&[(1, &[9u8; 32])]).unwrap();
        w.finish().unwrap();
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d[0]))).unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 7), (1, 9)], "both shards restored");
        // Retirement removes every shard file of the epoch.
        b.remove_epochs(&[1]).unwrap();
        assert!(!FileBackend::segment_path(&dir, 1).exists());
        assert!(!shard_path(&dir, 1, 1).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_epoch_commits_and_reads_back_empty() {
        let dir = tmpdir("empty");
        let b = FileBackend::open(&dir).unwrap();
        b.begin_epoch(1).unwrap().finish().unwrap();
        let mut n = 0;
        b.read_epoch(1, &mut |_, _| n += 1).unwrap();
        assert_eq!(n, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_pays_one_fsync_per_epoch_and_stream() {
        let dir = tmpdir("iostats");
        let b = FileBackend::open(&dir)
            .unwrap()
            .with_compression(Compression::None);
        let w = b.begin_epoch(1).unwrap();
        for i in 0..10u64 {
            w.write_pages(&[(i, &[i as u8; 256])]).unwrap();
        }
        w.finish().unwrap();
        let s = b.io_stats();
        assert_eq!(s.segment_fsyncs, 1, "10 batches, one coalesced fsync");
        assert_eq!((s.manifest_appends, s.manifest_fsyncs), (1, 1));
        assert!(s.vectored_writes >= 10, "one pwritev per batch at least");
        assert!(
            s.write_syscall_bytes >= 10 * 256,
            "payload flowed through vectored writes"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_epochs_batches_manifest_fsyncs() {
        let dir = tmpdir("batchrm");
        let b = FileBackend::open(&dir).unwrap();
        for e in 1..=3u64 {
            write_epoch(&b, e, vec![(e, vec![e as u8; 16])]).unwrap();
        }
        let before = b.io_stats();
        b.remove_epochs(&[1, 2]).unwrap();
        let after = b.io_stats();
        assert_eq!(
            after.manifest_appends - before.manifest_appends,
            2,
            "two retirement records"
        );
        assert_eq!(
            after.manifest_fsyncs - before.manifest_fsyncs,
            1,
            "one fsync for the batch"
        );
        assert!(after.coalesced_appends() > before.coalesced_appends());
        assert_eq!(b.epochs().unwrap(), vec![3]);
        // Retired numbers stay burned after the batched append too.
        assert!(b.begin_epoch(2).is_err());
        // A batch naming a non-live epoch fails before any file is lost.
        assert!(b.remove_epochs(&[3, 99]).is_err());
        assert_eq!(b.epochs().unwrap(), vec![3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn high_water_is_served_from_cache_and_survives_reopen() {
        let dir = tmpdir("hw");
        {
            let b = FileBackend::open(&dir).unwrap();
            assert_eq!(b.high_water().unwrap(), None);
            write_epoch(&b, 5, vec![(0, vec![1])]).unwrap();
            assert_eq!(b.high_water().unwrap(), Some(5));
            b.remove_epochs(&[5]).unwrap();
            assert_eq!(b.high_water().unwrap(), Some(5), "retired number burned");
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.high_water().unwrap(), Some(5), "cache reseeded at open");
        assert!(b.begin_epoch(5).is_err());
        write_epoch(&b, 6, vec![(0, vec![2])]).unwrap();
        assert_eq!(b.high_water().unwrap(), Some(6));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_page_at_matches_streamed_read() {
        let dir = tmpdir("pageat");
        // Auto compression: the index must round-trip encoded records too.
        let b = FileBackend::open(&dir).unwrap();
        let compressible = vec![7u8; 4096];
        let mut incompressible = vec![0u8; 4096];
        for (i, x) in incompressible.iter_mut().enumerate() {
            *x = (i as u8).wrapping_mul(31).wrapping_add((i >> 8) as u8);
        }
        write_epoch(
            &b,
            1,
            vec![
                (3, compressible.clone()),
                (9, incompressible.clone()),
                (4, vec![]),
            ],
        )
        .unwrap();
        assert_eq!(b.read_page_at(1, 3).unwrap().unwrap(), compressible);
        assert_eq!(b.read_page_at(1, 9).unwrap().unwrap(), incompressible);
        assert_eq!(b.read_page_at(1, 4).unwrap().unwrap(), Vec::<u8>::new());
        assert_eq!(b.read_page_at(1, 77).unwrap(), None, "absent page");
        assert!(b.read_page_at(9, 3).is_err(), "unknown epoch");
        assert_eq!(b.epoch_page_ids(1).unwrap(), vec![3, 9, 4]);
        assert!(b.io_stats().page_reads >= 3);
        // Corruption surfaces on the random-access path too.
        let b2 = FileBackend::open(&dir).unwrap();
        corrupt_record_payload(&dir, 1, 1).unwrap();
        let err = b2.read_page_at(1, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_page_at_survives_compaction_and_sharded_epochs() {
        let dir = tmpdir("pageat2");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(0, vec![1; 32]), (1, vec![1; 32])]).unwrap();
        write_epoch(&b, 2, vec![(1, vec![2; 32])]).unwrap();
        // Prime the index cache, then compact underneath it.
        assert_eq!(b.read_page_at(2, 1).unwrap().unwrap(), vec![2; 32]);
        b.compact(2).unwrap();
        assert_eq!(
            b.read_page_at(2, 0).unwrap().unwrap(),
            vec![1; 32],
            "full segment indexed after invalidation"
        );
        assert_eq!(b.read_page_at(2, 1).unwrap().unwrap(), vec![2; 32]);
        // Sharded epoch: records spread across shard files are all indexed.
        let w = b.begin_epoch_impl(3).unwrap();
        {
            let _slot0 = w.shards[0].lock();
            w.write_pages(&[(5, &[5u8; 32])]).unwrap();
        }
        w.write_pages(&[(6, &[6u8; 32])]).unwrap();
        w.finish().unwrap();
        assert_eq!(b.read_page_at(3, 5).unwrap().unwrap(), vec![5; 32]);
        assert_eq!(b.read_page_at(3, 6).unwrap().unwrap(), vec![6; 32]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_commit_syncs_shards_then_directory_then_manifest() {
        let dir = tmpdir("commitsync");
        let b = FileBackend::open(&dir).unwrap();
        for epoch in 1..=3u64 {
            let before = b.io_stats();
            write_epoch(&b, epoch, vec![(0, vec![epoch as u8; 64])]).unwrap();
            let after = b.io_stats();
            // One sync point each: the new segment's directory entry is
            // durable before the manifest names the epoch. A fresh
            // directory's first commit also creates the manifest, whose
            // own entry costs one more directory fsync — or the commit
            // would return `Ok` behind a name a power loss can drop.
            assert_eq!(after.segment_fsyncs - before.segment_fsyncs, 1);
            assert_eq!(
                after.dir_fsyncs - before.dir_fsyncs,
                if epoch == 1 { 2 } else { 1 }
            );
            assert_eq!(after.manifest_fsyncs - before.manifest_fsyncs, 1);
        }
        // Nothing but the manifest and the segments lives in the directory.
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "MANIFEST",
                "epoch_0000000001.seg",
                "epoch_0000000002.seg",
                "epoch_0000000003.seg"
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn variable_record_sizes() {
        let dir = tmpdir("var");
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, vec![(0, vec![]), (1, vec![1]), (2, vec![2u8; 9000])]).unwrap();
        let mut sizes = Vec::new();
        b.read_epoch(1, &mut |_, d| sizes.push(d.len())).unwrap();
        assert_eq!(sizes, vec![0, 1, 9000]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
