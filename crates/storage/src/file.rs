//! POSIX file-system backend: the commit engine over segment files and the
//! manifest.
//!
//! This is the paper's "conventional" storage path (local disk on Shamrock,
//! PVFS through its POSIX/FUSE interface on Grid'5000 — a parallel file
//! system mounts as a directory, so the same backend covers both).
//!
//! This file is a facade over two narrow stores: [`crate::segment`] owns
//! every byte of an `AICKSEG3` segment file (framing, the one writer, the
//! one walk), and [`crate::log`] + [`crate::manifest`] own the commit log.
//! What is left here is which files make up an epoch, when they count, and
//! in what order they are made durable.
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
//! ## Stream shards and the group commit
//!
//! An open epoch is a small set of per-stream **shard files**, each an
//! independent segment: shard 0 keeps the legacy `epoch_N.seg` name, shards
//! `k >= 1` are `epoch_N.sK.seg`. A committer stream claims the first
//! momentarily uncontended shard slot (`try_lock` scan), lazily creating
//! its file on first touch — a single-stream workload therefore never
//! leaves shard 0 and produces the exact pre-shard on-disk layout, while N
//! contending streams fan out to up to `MAX_STREAM_SHARDS` files with no
//! writer mutex shared between them.
//!
//! `finish` is a group commit: each shard is sealed (truncate → trailer →
//! fsync, see [`crate::segment`]) exactly once — fsyncs per epoch equal the
//! shards actually created (= 1 per active stream, 1 total when serial),
//! never the batch count — then the directory is fsynced (the shard files'
//! entries) and the single manifest record commits the epoch; the very
//! first commit of a fresh directory pays one more directory fsync, for the
//! manifest's own entry (see `log::append`). The manifest record's
//! `records` count is the total across shards; every reader sums the
//! shards' record counts and cross-checks that total, so a missing shard or
//! torn segment fails restore loudly instead of silently dropping pages.
//!
//! Readers find an epoch's shards by name, not by listing the directory:
//! the writer creates them as a contiguous run of slots, so a reader opens
//! slot 0, 1, … until an `open` fails `NotFound` — one failed `open` past
//! the last shard per epoch read, where a directory scan would cost every
//! file of the chain. A gap hides the shards behind it, and the count
//! check fails the epoch loudly. Cleanup unlinks every slot name, so no gap
//! strands a file. The one directory scan is `open`'s orphan sweep.
//!
//! ## Compaction and crash recovery
//!
//! `install_compacted` stages the merged full image in `full_N.seg.tmp`
//! (through the same segment writer a delta shard uses), fsyncs, renames it
//! to `full_N.seg`, and only then appends the
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
//! Staged images (compaction, `rewrite_epoch`, every repair) are internal
//! traffic: their syscalls are counted in [`IoStats`] like any other, but
//! their bytes are not `bytes_written`/`bytes_stored`.

use std::fs;
use std::io;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::backend::{is_page, ChainEntry, EpochKind, EpochWriter, PageRead, StorageBackend};
use crate::failing::Leaf;
use crate::io::{self as sys, flip_byte_at, IoCounters, IoStats};
use crate::locator::PageMap;
use crate::log::{self, Log};
use crate::manifest::{self, ManifestRecord, RecordKind};
use crate::scrub::{RecordMeta, RepairReport, VerifyReport};
use crate::segment::{self, Extent, Segment, SegmentWriter};
use crate::Compression;

pub use crate::segment::{SegmentRegion, SEGMENT_MAGIC};

/// Name of the append-only commit log inside the checkpoint directory
/// (shared by the read path and the epoch writer's commit point).
const MANIFEST_FILE: &str = "MANIFEST";

/// File-name prefix of a delta epoch's shard files.
const DELTA_PREFIX: &str = "epoch_";

/// File-name prefix of a compacted full image.
const FULL_PREFIX: &str = "full_";

/// Per-epoch stream shard slots. Shard files are created lazily under
/// actual contention, so a serial workload only ever sees shard 0.
pub const MAX_STREAM_SHARDS: usize = 8;

/// Records per vectored write when staging a whole image: a frame and a
/// payload iovec each, so one batch is one `pwritev` call.
const STAGE_BATCH: usize = libc::IOV_MAX as usize / 2;

#[derive(Debug)]
struct FileShared {
    /// Payload bytes accepted across all sessions (diagnostics).
    bytes_written: AtomicU64,
    /// Physical bytes stored after per-record encoding (diagnostics; equals
    /// `bytes_written` when compression never pays or is disabled).
    bytes_stored: AtomicU64,
    /// At most one epoch session may be open.
    epoch_open: AtomicBool,
    /// The manifest. Its handle serialises appends between the committer's
    /// `finish` and the maintenance worker's compaction/retirement (an
    /// append first truncates any torn tail, which must not race another
    /// append), and refuses them once a failed one could not be undone.
    manifest: Log,
    /// Held by every change to a committed epoch — a fold, a retirement, a
    /// rewrite, a recount — from reading its live record to the commit: a
    /// retirement racing a rewrite of the same epoch must not end with the
    /// rewrite's corrective record naming files the retirement unlinked.
    edits: Mutex<()>,
    /// The leaf every mutating syscall is numbered on (tests only).
    gate: Option<Leaf>,
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
    page_index: Mutex<PageMap<Arc<EpochIndex>>>,
}

impl FileShared {
    /// Record that `epoch` now exists in the manifest.
    fn note_epoch(&self, epoch: u64) {
        self.high_water
            .fetch_max(epoch.saturating_add(1), Ordering::AcqRel);
    }

    /// Durably append `records` to the manifest as one commit (one fsync
    /// however many records) and account for it.
    fn commit(&self, records: &[ManifestRecord]) -> io::Result<()> {
        if self.manifest.append(records)? {
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
        sys::sync_dir(self.gate.as_ref(), dir)?;
        self.io.dir_fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Best-effort removal of shard slots `first..MAX_STREAM_SHARDS` of the
    /// `prefix`-named `epoch` in `dir`. Every slot name is unlinked whether
    /// or not its file exists, so a gap in the slots cannot strand a file
    /// behind it.
    fn remove_shards(&self, dir: &Path, prefix: &str, epoch: u64, first: usize) {
        for index in first..MAX_STREAM_SHARDS {
            let _ = sys::unlink(self.gate.as_ref(), &shard_path(dir, prefix, epoch, index));
        }
    }
}

/// File-system storage backend.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    shared: Arc<FileShared>,
    /// Per-record payload encoding policy for new segments (see
    /// [`crate::segment`]).
    pub compression: Compression,
}

/// Path of shard `index` of the `prefix`-named epoch (index 0 keeps the
/// legacy single-file name so serial layouts stay byte-compatible).
fn shard_path(dir: &Path, prefix: &str, epoch: u64, index: usize) -> PathBuf {
    if index == 0 {
        dir.join(format!("{prefix}{epoch:010}.seg"))
    } else {
        dir.join(format!("{prefix}{epoch:010}.s{index}.seg"))
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

impl FileBackend {
    /// Open (creating if needed) a checkpoint directory, sweeping orphaned
    /// files left by a crashed or killed predecessor (uncommitted segments,
    /// `*.tmp` compaction images, the manifest's staging file, segments
    /// superseded by a committed compaction whose GC never ran). Creating
    /// the directory fsyncs its parent — one directory fsync per level
    /// created, counted in [`IoStats::dir_fsyncs`] — so a power cut after a
    /// commit cannot drop the directory itself; reopening an existing one
    /// pays nothing. An open that fails deletes nothing.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_gated(dir.into(), None)
    }

    /// [`open`](Self::open), with every mutating syscall of the backend —
    /// this open's included — numbered on `leaf` (see [`crate::failing`]):
    /// crashable, failable, and durable only as the leaf's disk model says.
    pub fn open_on(dir: impl Into<PathBuf>, leaf: Leaf) -> io::Result<Self> {
        Self::open_gated(dir.into(), Some(leaf))
    }

    fn open_gated(dir: PathBuf, gate: Option<Leaf>) -> io::Result<Self> {
        let shared = FileShared {
            bytes_written: AtomicU64::new(0),
            bytes_stored: AtomicU64::new(0),
            epoch_open: AtomicBool::new(false),
            manifest: Log::new(dir.join(MANIFEST_FILE), gate.clone()),
            edits: Mutex::new(()),
            gate,
            high_water: AtomicU64::new(0),
            io: IoCounters::default(),
            page_index: Mutex::default(),
        };
        for made in sys::mkdir_all(shared.gate.as_ref(), &dir)? {
            let parent = made.parent().filter(|p| !p.as_os_str().is_empty());
            shared.sync_dir(parent.unwrap_or(Path::new(".")))?;
        }
        let backend = Self {
            dir,
            shared: Arc::new(shared),
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
        shard_path(dir, DELTA_PREFIX, epoch, 0)
    }

    fn full_path(dir: &Path, epoch: u64) -> PathBuf {
        shard_path(dir, FULL_PREFIX, epoch, 0)
    }

    fn manifest_records(&self) -> io::Result<Vec<ManifestRecord>> {
        log::read(self.shared.manifest.path())
    }

    /// The live chain as full manifest records (commit counts included).
    fn live_records(&self) -> io::Result<Vec<ManifestRecord>> {
        Ok(manifest::fold_live(&self.manifest_records()?))
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

    /// The file-name prefix `rec`'s epoch lives under — the one place a
    /// record kind becomes a file name.
    fn prefix_of(rec: &ManifestRecord) -> &'static str {
        match rec.kind {
            RecordKind::Full => FULL_PREFIX,
            _ => DELTA_PREFIX,
        }
    }

    /// The shard files of `rec`'s epoch, each passed through `open`, in
    /// shard order: slots 0, 1, … up to the first one `open` reports
    /// `NotFound` — no directory scan. A writer creates its shards as a
    /// contiguous run of slots, so that is every shard of an intact epoch;
    /// shards behind a gap are not seen, and the record count then fails
    /// the epoch loudly. `NotFound` when shard 0 is missing.
    fn open_shards<T>(
        &self,
        rec: &ManifestRecord,
        mut open: impl FnMut(&Path) -> io::Result<T>,
    ) -> io::Result<Vec<T>> {
        let prefix = Self::prefix_of(rec);
        let mut shards = Vec::new();
        for index in 0..MAX_STREAM_SHARDS {
            match open(&shard_path(&self.dir, prefix, rec.epoch, index)) {
                Ok(shard) => shards.push(shard),
                Err(e) if e.kind() == io::ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            }
        }
        if shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("epoch {}: segment file missing", rec.epoch),
            ));
        }
        Ok(shards)
    }

    /// The opened segments of `rec`'s epoch, in shard order.
    fn open_segments(&self, rec: &ManifestRecord) -> io::Result<Vec<Segment>> {
        self.open_shards(rec, |path| Segment::open(path, rec.epoch))
    }

    /// Best-effort removal of the files holding `rec`'s epoch (GC after the
    /// manifest stopped naming it; leftovers are swept at the next `open`).
    fn remove_segment_files(&self, rec: &ManifestRecord) {
        self.shared
            .remove_shards(&self.dir, Self::prefix_of(rec), rec.epoch, 0);
    }

    /// Fail unless the segments of `rec`'s epoch hold exactly the record
    /// count its commit named: a vanished shard or a truncated chain must
    /// fail restore loudly.
    fn check_count(rec: &ManifestRecord, found: u64) -> io::Result<()> {
        if found == rec.records {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            count_mismatch(rec, found),
        ))
    }

    /// Delete every file in the directory that the manifest (`records`)
    /// does not account for. Safe at open time only: no epoch session or
    /// compaction of *this* process can be in flight.
    fn sweep_orphans(&self, records: &[ManifestRecord]) -> io::Result<()> {
        let live: std::collections::BTreeMap<u64, RecordKind> = manifest::fold_live(records)
            .iter()
            .map(|r| (r.epoch, r.kind))
            .collect();
        let staging = log::staging_path(self.shared.manifest.path());
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let doomed = if name.ends_with(".tmp") || path == staging {
                // Half-written compaction or rewrite image, or a manifest
                // whose creation never reached its rename.
                true
            } else if let Some((epoch, _shard)) = parse_segment_name(name, DELTA_PREFIX) {
                // A delta shard is live only while its manifest record is
                // the live entry (a Full entry means compaction superseded
                // it; absence means the writer died before the commit or
                // after a retirement whose GC never ran).
                live.get(&epoch) != Some(&RecordKind::Delta)
            } else if let Some((epoch, shard)) = parse_segment_name(name, FULL_PREFIX) {
                // Full images are never sharded.
                shard != 0 || live.get(&epoch) != Some(&RecordKind::Full)
            } else {
                false
            };
            if doomed {
                sys::unlink(self.shared.gate.as_ref(), &path)?;
            }
        }
        Ok(())
    }
}

/// The manifest↔segment disagreement message (`repair_epoch` recognises a
/// lone one as count damage it can heal by recounting).
fn count_mismatch(rec: &ManifestRecord, found: u64) -> String {
    format!(
        "epoch {}: manifest committed {} records but segments hold {found}",
        rec.epoch, rec.records
    )
}

/// Open-epoch session on a [`FileBackend`]: a set of per-stream shard
/// slots with no lock shared between concurrent `write_pages` callers.
struct FileEpochWriter {
    shared: Arc<FileShared>,
    dir: PathBuf,
    epoch: u64,
    compression: Compression,
    /// Set once `finish`/`abort` ran; `write_pages` then refuses.
    closed: AtomicBool,
    /// Shard slots; slot 0 is created by `begin_epoch` (legacy layout),
    /// the rest lazily on first claim under contention.
    shards: Box<[Mutex<Option<SegmentWriter>>]>,
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
    fn with_shard<R>(&self, f: impl FnOnce(&mut SegmentWriter) -> io::Result<R>) -> io::Result<R> {
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
        slot: &'a mut Option<SegmentWriter>,
        index: usize,
    ) -> io::Result<&'a mut SegmentWriter> {
        if slot.is_none() {
            let path = shard_path(&self.dir, DELTA_PREFIX, self.epoch, index);
            let gate = self.shared.gate.as_ref();
            *slot = Some(SegmentWriter::create(
                &path,
                self.epoch,
                &self.shared.io,
                gate,
            )?);
        }
        Ok(slot.as_mut().unwrap())
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
        let (payload_bytes, stored_bytes) =
            self.with_shard(|shard| shard.write_batch(batch, self.compression, &self.shared.io))?;
        self.shared
            .bytes_written
            .fetch_add(payload_bytes, Ordering::Relaxed);
        self.shared
            .bytes_stored
            .fetch_add(stored_bytes, Ordering::Relaxed);
        Ok(())
    }

    fn finish(&self) -> io::Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Err(io::Error::other("epoch session closed"));
        }
        let result = (|| {
            // The finish contract says every write_pages call has
            // returned, so these locks are uncontended.
            let mut shards: Vec<SegmentWriter> = self
                .shards
                .iter()
                .filter_map(|slot| slot.lock().take())
                .collect();
            let records: u64 = shards.iter().map(|s| s.records()).sum();
            let payload_bytes: u64 = shards.iter().map(|s| s.payload_bytes()).sum();
            // Group commit: seal every shard touched (truncate → trailer →
            // one fsync) — no fsync was paid on the write path. Multi-shard
            // epochs seal concurrently: the fsyncs wait on the same device,
            // so overlapping them costs the epoch one flush latency, not
            // one per shard.
            let io = &self.shared.io;
            match &mut shards[..] {
                [] => {}
                [shard] => shard.seal(io)?,
                many => std::thread::scope(|scope| {
                    let waves: Vec<_> = many
                        .iter_mut()
                        .map(|shard| scope.spawn(move || shard.seal(io)))
                        .collect();
                    waves
                        .into_iter()
                        .try_for_each(|wave| wave.join().expect("shard seal panicked"))
                })?,
            }
            io.segment_fsyncs
                .fetch_add(shards.len() as u64, Ordering::Relaxed);
            // The shard files were created during this session: their
            // directory entries must be durable before the manifest names
            // the epoch.
            self.shared.sync_dir(&self.dir)?;
            // Commit point: the manifest record makes the epoch visible.
            self.shared
                .commit(&[ManifestRecord::delta(self.epoch, records, payload_bytes)])
        })();
        if result.is_err() {
            // Failed commit: the manifest never saw the epoch (a failed
            // append is undone), so drop the shard files like an abort would.
            self.shared
                .remove_shards(&self.dir, DELTA_PREFIX, self.epoch, 0);
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
        self.shared
            .remove_shards(&self.dir, DELTA_PREFIX, self.epoch, 0);
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
        // Shard 0 is created eagerly: an epoch finished without writes
        // still leaves a readable (header-only) segment, as before.
        let shard0 = self
            .check_epoch_rises(epoch)
            .and_then(|()| {
                let path = Self::segment_path(&self.dir, epoch);
                SegmentWriter::create(&path, epoch, &self.shared.io, self.shared.gate.as_ref())
            })
            .inspect_err(|_| self.shared.epoch_open.store(false, Ordering::Release))?;
        let mut slots = Vec::with_capacity(MAX_STREAM_SHARDS);
        slots.push(Mutex::new(Some(shard0)));
        slots.resize_with(MAX_STREAM_SHARDS, || Mutex::new(None));
        Ok(FileEpochWriter {
            shared: Arc::clone(&self.shared),
            dir: self.dir.clone(),
            epoch,
            compression: self.compression,
            closed: AtomicBool::new(false),
            shards: slots.into_boxed_slice(),
            next_slot: AtomicUsize::new(0),
        })
    }

    /// Epoch numbers must rise above everything the manifest ever recorded
    /// — including retired epochs, whose numbers must not be reused after
    /// a drain or compaction. The cached high-water mark answers this
    /// without re-reading the manifest.
    fn check_epoch_rises(&self, epoch: u64) -> io::Result<()> {
        let hw = self.shared.high_water.load(Ordering::Acquire);
        if hw != 0 && epoch < hw {
            return Err(io::Error::other(format!(
                "epoch {epoch} not greater than committed epoch {}",
                hw - 1
            )));
        }
        Ok(())
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
        // The reference replay: each segment's strict walk, failing on the
        // first record that does not open, then the count cross-check.
        let rec = self.live_record(epoch)?;
        let mut total = 0u64;
        for segment in self.open_segments(&rec)? {
            total += segment.records();
            segment.walk(|page, _, payload| {
                visit(page, payload?);
                Ok(())
            })?;
        }
        Self::check_count(&rec, total)
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        let index = self.epoch_index(epoch)?;
        let pages = index.segments.iter().flat_map(Segment::extents);
        Ok(pages.map(|(page, _)| page).collect())
    }

    /// A run of one of [`StorageBackend::read_pages_at`], copied out.
    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        let mut got = Ok(None);
        self.read_pages_at(epoch, &[page], &mut Vec::new(), &mut |_, read| {
            got = read.map(|read| read.map(|(payload, _)| payload.to_vec()));
            ControlFlow::Break(())
        });
        got
    }

    fn read_pages_at(
        &self,
        epoch: u64,
        pages: &[u64],
        buf: &mut Vec<u8>,
        visit: &mut dyn FnMut(u64, io::Result<PageRead<'_>>) -> ControlFlow<()>,
    ) {
        let index = match (self.epoch_index(epoch), pages.first()) {
            (Ok(index), _) => index,
            (Err(e), Some(&first)) => {
                let _ = visit(first, Err(e));
                return;
            }
            (Err(_), None) => return,
        };
        // Maximal runs of records that lie back to back in one shard file,
        // each read with one `pread`; a page the epoch lacks ends a run.
        let mut run: Vec<(u64, Extent)> = Vec::with_capacity(pages.len());
        let mut file = 0;
        for &page in pages {
            let loc = index.locate(page);
            let extends = match (loc, run.last()) {
                (Some(loc), Some(&(_, last))) => {
                    loc.file == file && loc.extent.at == last.at + last.len
                }
                _ => false,
            };
            if !extends && !run.is_empty() {
                let segment = &index.segments[file as usize];
                if self.read_run(segment, &run, buf, visit).is_break() {
                    return;
                }
                run.clear();
            }
            match loc {
                Some(loc) => {
                    file = loc.file;
                    run.push((page, loc.extent));
                }
                None if visit(page, Ok(None)).is_break() => return,
                None => {}
            }
        }
        if !run.is_empty() {
            let _ = self.read_run(&index.segments[file as usize], &run, buf, visit);
        }
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
        let _edit = self.shared.edits.lock();
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
        self.shared.commit(&[ManifestRecord::full(
            into,
            records.len() as u64,
            payload_bytes,
            from,
        )])?;
        // 4. GC the superseded segments. A crash in here leaves orphans
        //    that the next `open` sweeps; restore is already correct.
        self.invalidate_index(superseded.iter().map(|r| r.epoch));
        for rec in &superseded {
            self.remove_segment_files(rec);
        }
        Ok(())
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        if epochs.is_empty() {
            return Ok(());
        }
        let _edit = self.shared.edits.lock();
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
        self.shared.commit(&batch)?;
        self.invalidate_index(doomed.iter().map(|r| r.epoch));
        for rec in &doomed {
            self.remove_segment_files(rec);
        }
        Ok(())
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        let rec = self.live_record(epoch)?;
        let mut report = VerifyReport::new(epoch);
        let exists = |path: &Path| fs::metadata(path).map(|_| path.to_owned());
        let paths = match self.open_shards(&rec, exists) {
            Ok(paths) => paths,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                report.structural.push(e.to_string());
                return Ok(report);
            }
            Err(e) => return Err(e),
        };
        let mut walk_clean = true;
        for path in &paths {
            let finding = match verify_segment_file(path, epoch, &mut report) {
                Ok(finding) => finding,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    Some(format!("epoch {epoch}: shard vanished mid-verify"))
                }
                Err(e) => return Err(e),
            };
            if let Some(finding) = finding {
                walk_clean = false;
                report.structural.push(finding);
            }
        }
        // Only a clean walk can meaningfully disagree with the manifest: a
        // truncated shard already under-counts by construction.
        if walk_clean && report.records != rec.records {
            report.structural.push(count_mismatch(&rec, report.records));
        }
        Ok(report)
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        let _edit = self.shared.edits.lock();
        let rec = self.live_record(epoch)?;
        let final_path = shard_path(&self.dir, Self::prefix_of(&rec), epoch, 0);
        // 1. Stage the replacement segment and make it durable. The old
        //    segment files are never read — repair must work when they are
        //    arbitrarily damaged.
        let (tmp, payload_bytes) = self.stage_segment(&final_path, epoch, records)?;
        // 2. Collapse the epoch to exactly one file: stale extra shards
        //    would double-count against the corrective manifest record.
        //    A crash in here leaves the epoch detectably damaged (it
        //    already was) and the next scrub cycle repairs it again.
        self.shared
            .remove_shards(&self.dir, Self::prefix_of(&rec), epoch, 1);
        self.publish_staged(&tmp, &final_path)?;
        // 3. Corrective commit: re-appending the epoch's record replaces it
        //    in the folded view (latest record per epoch wins), repairing a
        //    damaged count/byte field while preserving the chain kind.
        self.recommit(&rec, records.len() as u64, payload_bytes)
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        let _edit = self.shared.edits.lock();
        let rec = self.live_record(epoch)?;
        // The only damage a lone file backend can heal from its own bytes
        // is a corrupted manifest commit count: every record still
        // verifies, so recounting the segments restores agreement. The
        // commit's payload-byte total must still match what the segments
        // hold — otherwise records are missing (a lost shard), and a
        // recount would make restore serve older bytes for them. Payload
        // damage needs a redundant source (replica, parity, another level).
        let report = self.verify_epoch(epoch)?;
        let count_damage_only = report.corrupt_pages.is_empty()
            && report.structural.len() == 1
            && report.structural[0].contains("manifest committed")
            && report.bytes == rec.payload_bytes;
        if !count_damage_only {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("no redundant source to repair epoch {epoch}"),
            ));
        }
        self.recommit(&rec, report.records, report.bytes)?;
        Ok(RepairReport {
            epoch,
            pages: Vec::new(),
            rewrote_segment: false,
            source: "manifest recount".to_owned(),
        })
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        let index = self.epoch_index(epoch)?;
        let Some(loc) = index.locate(page) else {
            return Ok(None);
        };
        let frame = index.segments[loc.file as usize].read_frame(page, loc.extent)?;
        Ok(Some(RecordMeta {
            raw_len: frame.sealed.raw_len,
            crc: frame.sealed.crc,
        }))
    }

    fn io_stats(&self) -> IoStats {
        self.shared.io.snapshot()
    }
}

/// Verify every record of one segment file into `report` — the forgiving
/// visitor of [`Segment::walk`]: a flipped payload, CRC, encoding, length
/// or page-id byte condemns that page alone (named by its CRC-protected
/// trailer entry) and the walk goes on. Damage that leaves the file
/// unaccounted for (a bad header, a missing, torn or CRC-failing trailer)
/// comes back as the structural finding. `Err` is reserved for
/// environmental failures (the file vanishing mid-walk), so scrub pacing
/// can distinguish "damaged" from "unreadable".
fn verify_segment_file(
    path: &Path,
    epoch: u64,
    report: &mut VerifyReport,
) -> io::Result<Option<String>> {
    let segment = match Segment::open(path, epoch) {
        Ok(segment) => segment,
        Err(e)
            if e.kind() == io::ErrorKind::InvalidData
                || e.kind() == io::ErrorKind::UnexpectedEof =>
        {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("segment");
            return Ok(Some(format!("{name}: {e}")));
        }
        Err(e) => return Err(e),
    };
    segment.walk(|page, frame, payload| {
        report.records += 1;
        report.bytes += frame.sealed.raw_len as u64;
        if payload.is_err() {
            report.note_corrupt(page);
        }
        Ok(())
    })?;
    Ok(None)
}

/// Location of one page record inside an epoch's segment files.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    /// Index into [`EpochIndex::segments`].
    file: u32,
    extent: Extent,
}

/// Trailer-built index of one committed epoch: every record's extent, no
/// record byte read. File handles stay open so `read_page_at` is one
/// positioned read + decode, immune to concurrent renames of the paths.
#[derive(Debug)]
struct EpochIndex {
    /// The epoch's opened segments, in shard order: their trailers name
    /// every record in arrival order — possibly with duplicate pages,
    /// matching `read_epoch` visit order.
    segments: Vec<Segment>,
    /// Latest-wins location per page, built by the first lookup. Listing
    /// an epoch (`epoch_page_ids`, hence every `PageLocator::build`) reads
    /// the trailers alone, and a restore looks pages up in only the few
    /// epochs that still hold the newest version of something.
    by_page: OnceLock<PageMap<RecordLoc>>,
}

impl EpochIndex {
    /// Where `page`'s latest record of this epoch lives, if it has one.
    fn locate(&self, page: u64) -> Option<RecordLoc> {
        let by_page = self.by_page.get_or_init(|| {
            let records = self.segments.iter().map(Segment::records).sum::<u64>();
            let mut by_page =
                PageMap::with_capacity_and_hasher(records as usize, Default::default());
            // Shard order, then record order: the record `read_epoch`
            // visits last wins.
            for (file, segment) in self.segments.iter().enumerate() {
                for (page, extent) in segment.extents() {
                    let file = file as u32;
                    by_page.insert(page, RecordLoc { file, extent });
                }
            }
            by_page
        });
        by_page.get(&page).copied()
    }
}

impl FileBackend {
    /// The cached (building on first use) segment index of a committed
    /// epoch. Fails like `read_epoch` for unknown epochs, and cross-checks
    /// the indexed record count against the manifest's committed count:
    /// every shard is opened and its trailer CRC-checked here, whether or
    /// not a page of the epoch is ever looked up.
    fn epoch_index(&self, epoch: u64) -> io::Result<Arc<EpochIndex>> {
        if let Some(idx) = self.shared.page_index.lock().get(&epoch) {
            return Ok(Arc::clone(idx));
        }
        let rec = self.live_record(epoch)?;
        let segments = self.open_segments(&rec)?;
        let index_bytes = segments.iter().map(Segment::index_bytes).sum();
        self.shared
            .io
            .index_bytes_read
            .fetch_add(index_bytes, Ordering::Relaxed);
        Self::check_count(&rec, segments.iter().map(Segment::records).sum())?;
        let idx = Arc::new(EpochIndex {
            segments,
            by_page: OnceLock::new(),
        });
        self.shared
            .page_index
            .lock()
            .insert(epoch, Arc::clone(&idx));
        Ok(idx)
    }

    /// One run of [`StorageBackend::read_pages_at`] from `segment`,
    /// counting each page it visits as one page read (the epoch's metadata
    /// record is not a page; see `IoCounters`).
    fn read_run(
        &self,
        segment: &Segment,
        run: &[(u64, Extent)],
        buf: &mut Vec<u8>,
        visit: &mut dyn FnMut(u64, io::Result<PageRead<'_>>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut pages = 0;
        let flow = segment.read_run(run, buf, &mut |page, got| {
            pages += u64::from(is_page(page));
            visit(page, got.map(|(payload, crc)| Some((payload, Some(crc)))))
        });
        self.shared
            .io
            .page_reads
            .fetch_add(pages, Ordering::Relaxed);
        flow
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
    /// Internal traffic: nothing is added to `bytes_written`/`bytes_stored`.
    fn stage_segment(
        &self,
        final_path: &Path,
        epoch: u64,
        records: &[(u64, &[u8])],
    ) -> io::Result<(PathBuf, u64)> {
        let tmp = final_path.with_extension("seg.tmp");
        let io = &self.shared.io;
        let mut writer = SegmentWriter::create(&tmp, epoch, io, self.shared.gate.as_ref())?;
        for batch in records.chunks(STAGE_BATCH) {
            writer.write_batch(batch, self.compression, io)?;
        }
        writer.seal(io)?;
        io.segment_fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok((tmp, writer.payload_bytes()))
    }

    /// Rename a staged segment into place and make the directory entry
    /// durable.
    fn publish_staged(&self, tmp: &Path, final_path: &Path) -> io::Result<()> {
        sys::rename(self.shared.gate.as_ref(), tmp, final_path)?;
        self.shared.sync_dir(&self.dir)
    }

    /// Corrective commit: re-append `rec` with the counts its segments
    /// actually hold (latest record per epoch wins in the folded view),
    /// keeping its kind and companion epoch.
    fn recommit(&self, rec: &ManifestRecord, records: u64, payload_bytes: u64) -> io::Result<()> {
        let fixed = ManifestRecord {
            records,
            payload_bytes,
            ..*rec
        };
        self.shared.commit(&[fixed])?;
        self.invalidate_index([rec.epoch]);
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

/// Flip one byte of the given `region` of `epoch`'s segment file — at-rest
/// corruption injection for integrity tests (see [`SegmentRegion`]).
/// Targets the delta shard-0 file when present, else the compacted `full_`
/// image. The segment must be intact (the target is found through its
/// trailer).
pub fn corrupt_segment_region(dir: &Path, epoch: u64, region: SegmentRegion) -> io::Result<()> {
    let delta = FileBackend::segment_path(dir, epoch);
    let path = if delta.exists() {
        delta
    } else {
        FileBackend::full_path(dir, epoch)
    };
    segment::corrupt_region(&path, epoch, region)
}

/// Rewrite the manifest so `epoch`'s latest commit record carries a wrong
/// record count under a *valid* CRC — a miscounted commit rather than rot,
/// which `verify_epoch` reports as a structural manifest↔segment
/// disagreement and `repair_epoch` heals by recounting. (Rot of the log's
/// own bytes is [`corrupt_manifest_byte`].)
pub fn corrupt_manifest_count(dir: &Path, epoch: u64) -> io::Result<()> {
    manifest::miscount(&dir.join(MANIFEST_FILE), epoch)
}

/// Flip the manifest byte at `offset` (magic included) — at-rest rot of
/// the commit log itself, which no record CRC survives.
pub fn corrupt_manifest_byte(dir: &Path, offset: u64) -> io::Result<()> {
    flip_byte_at(&dir.join(MANIFEST_FILE), offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_epoch;
    use crate::checksum::crc64;
    use crate::locator::PageLocator;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aickpt-file-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
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

    /// A tier's drain retires an epoch while a read heals the same epoch
    /// with a rewrite. Unserialised, the rewrite's corrective record could
    /// land after the retirement and list the epoch again, its segment
    /// unlinked.
    #[test]
    fn a_retirement_racing_a_rewrite_of_the_same_epoch_stays_retired() {
        let dir = tmpdir("edit-race");
        let b = FileBackend::open(&dir).unwrap();
        for epoch in 1..=8u64 {
            let page = [epoch as u8; 64];
            write_epoch(&b, epoch, vec![(0, page.to_vec())]).unwrap();
            let (rewrites, retiring) = (AtomicUsize::new(0), AtomicBool::new(false));
            std::thread::scope(|s| {
                s.spawn(|| {
                    // The last rewrite is in flight when the retirement
                    // starts (or, once that has committed, fails NotFound).
                    while !retiring.load(Ordering::Acquire) {
                        let _ = b.rewrite_epoch(epoch, &[(0, &page)]);
                        rewrites.fetch_add(1, Ordering::Release);
                    }
                });
                // Retire once a rewrite has completed: the next one runs.
                while rewrites.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                retiring.store(true, Ordering::Release);
                b.remove_epochs(&[epoch]).unwrap();
            });
            assert!(
                !b.epochs().unwrap().contains(&epoch),
                "epoch {epoch} is listed again after its retirement"
            );
        }
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
            !shard_path(&dir, DELTA_PREFIX, 1, 1).exists(),
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
            assert!(
                shard_path(&dir, DELTA_PREFIX, 1, 1).exists(),
                "spilled to shard 1"
            );
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
        assert!(!shard_path(&dir, DELTA_PREFIX, 1, 1).exists());
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

    /// Epochs of `b` whose page map has been built, ascending.
    fn page_maps_built(b: &FileBackend) -> Vec<u64> {
        let cache = b.shared.page_index.lock();
        let mut built: Vec<u64> = cache
            .iter()
            .filter(|(_, idx)| idx.by_page.get().is_some())
            .map(|(&epoch, _)| epoch)
            .collect();
        built.sort_unstable();
        built
    }

    #[test]
    fn listing_an_epoch_builds_no_page_map_until_a_page_is_read() {
        let dir = tmpdir("lazymap");
        let b = FileBackend::open(&dir).unwrap();
        for e in 1..=3u64 {
            write_epoch(&b, e, (e..e + 4).map(|p| (p, vec![e as u8; 32]))).unwrap();
        }
        let loc = PageLocator::build(&b, 3).unwrap();
        assert_eq!(b.shared.page_index.lock().len(), 3, "every epoch indexed");
        assert_eq!(page_maps_built(&b), Vec::<u64>::new());
        // Page 1 lives in epoch 1 alone: reading it builds that map only.
        assert_eq!(loc.epoch_of(1), Some(1));
        assert_eq!(b.read_page_at(1, 1).unwrap().unwrap(), vec![1u8; 32]);
        assert_eq!(page_maps_built(&b), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_page_at_returns_the_record_read_epoch_visits_last() {
        let dir = tmpdir("lastwins");
        let b = FileBackend::open(&dir).unwrap();
        let w = b.begin_epoch_impl(1).unwrap();
        // Shard 0: page 5 twice in one batch.
        w.write_pages(&[(5, &[1u8; 32]), (7, &[2u8; 32]), (5, &[3u8; 32])])
            .unwrap();
        {
            // Slot 0 held: page 7 again, in shard 1.
            let _slot0 = w.shards[0].lock();
            w.write_pages(&[(7, &[4u8; 32])]).unwrap();
        }
        w.finish().unwrap();
        for b in [&b, &FileBackend::open(&dir).unwrap()] {
            let mut last = std::collections::BTreeMap::new();
            b.read_epoch(1, &mut |p, d| {
                last.insert(p, d.to_vec());
            })
            .unwrap();
            assert_eq!(last[&5], vec![3u8; 32], "later record of one shard");
            assert_eq!(last[&7], vec![4u8; 32], "shard 1 is visited last");
            for (page, data) in &last {
                assert_eq!(&b.read_page_at(1, *page).unwrap().unwrap(), data);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One page of a read, owned: its payload (`None` when the epoch lacks
    /// it) or the error text.
    type Visited = (u64, Result<Option<Vec<u8>>, String>);

    /// What `read_pages_at` visits for `pages`, checking that every CRC it
    /// reports is the payload's.
    fn run_read(b: &FileBackend, epoch: u64, pages: &[u64]) -> Vec<Visited> {
        let mut seen = Vec::new();
        b.read_pages_at(epoch, pages, &mut Vec::new(), &mut |page, got| {
            let got = got.map(|read| {
                read.map(|(payload, crc)| {
                    assert_eq!(crc, Some(crc64(payload)), "page {page}");
                    payload.to_vec()
                })
            });
            seen.push((page, got.map_err(|e| e.to_string())));
            ControlFlow::Continue(())
        });
        seen
    }

    /// What the reference replay (`read_epoch`, the segment walk) holds
    /// for `pages`: the last record of each page, `None` for a page the
    /// epoch lacks.
    fn walked(b: &FileBackend, epoch: u64, pages: &[u64]) -> Vec<Visited> {
        let mut held = std::collections::HashMap::new();
        b.read_epoch(epoch, &mut |page, data| {
            held.insert(page, data.to_vec());
        })
        .unwrap();
        pages
            .iter()
            .map(|p| (*p, Ok(held.get(p).cloned())))
            .collect()
    }

    #[test]
    fn read_pages_at_equals_the_reference_replay_page_for_page() {
        let dir = tmpdir("runs");
        let b = FileBackend::open(&dir).unwrap();
        let noise = |seed: u64| -> Vec<u8> {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..4096)
                .map(|_| {
                    x = x.wrapping_mul(0xD129_0209_3482_1899).rotate_left(23);
                    x as u8
                })
                .collect()
        };
        // Epochs 1 and 2, compacted into a full segment at 2.
        write_epoch(&b, 1, (30..34).map(|p| (p, noise(p)))).unwrap();
        write_epoch(&b, 2, vec![(31, noise(99))]).unwrap();
        b.compact(2).unwrap();
        // Epoch 3, compressed (Auto): raw, RLE, empty and LZ records.
        let phrase: Vec<u8> = b"run reads ".iter().copied().cycle().take(4096).collect();
        let three = vec![(0, noise(0)), (1, vec![1; 4096]), (2, vec![]), (3, phrase)];
        write_epoch(&b, 3, three).unwrap();
        // Epoch 4, sharded: pages 10 and 11 in slots 0 and 1.
        let (p10, p11) = (noise(10), noise(11));
        write_sharded(&b, 4, &[(10, &p10), (11, &p11)]);
        // Epoch 5: page 20 twice (the later record wins), page 21 between.
        let w = b.begin_epoch_impl(5).unwrap();
        w.write_pages(&[(20, &[1u8; 64]), (21, &[2u8; 64]), (20, &[3u8; 64])])
            .unwrap();
        w.finish().unwrap();

        let cases: [(u64, &[u64]); 7] = [
            (2, &[30, 31, 32, 33]),
            (2, &[33, 31, 4, 30]),
            (3, &[0, 1, 2, 3]),
            (3, &[3, 77, 0, 2, 1]), // an absent page; extents out of order
            (4, &[10, 11]),
            (4, &[11, 10, 10]),
            (5, &[20, 21, 20]),
        ];
        for (epoch, pages) in cases {
            let before = b.io_stats().page_reads;
            let seen = run_read(&b, epoch, pages);
            let held = seen.iter().filter(|(_, got)| got == &Ok(None)).count();
            assert_eq!(
                b.io_stats().page_reads - before,
                (pages.len() - held) as u64,
                "epoch {epoch} {pages:?}: one page read per page held"
            );
            assert_eq!(seen, walked(&b, epoch, pages), "epoch {epoch} {pages:?}");
            for (page, got) in seen {
                assert_eq!(got, b.read_page_at(epoch, page).map_err(|e| e.to_string()));
            }
        }
        assert_eq!(run_read(&b, 5, &[20])[0].1, Ok(Some(vec![3u8; 64])));
        assert!(run_read(&b, 1, &[30])[0].1.is_err(), "a folded epoch");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_byte_in_a_run_fails_its_page_alone() {
        let dir = tmpdir("runrot");
        let b = FileBackend::open(&dir)
            .unwrap()
            .with_compression(Compression::None);
        let payload = |p: u64| vec![p as u8 ^ 0x5A; 4096];
        write_epoch(&b, 1, (0..64).map(|p| (p, payload(p)))).unwrap();
        let pages: Vec<u64> = (0..64).collect();
        let k = 37;
        corrupt_segment_region(&dir, 1, SegmentRegion::PayloadOf { page: k, byte: 100 }).unwrap();
        let seen = run_read(&b, 1, &pages);
        assert_eq!(seen.len(), k as usize + 1, "the run ends at page {k}");
        for (page, got) in &seen[..k as usize] {
            assert_eq!(got, &Ok(Some(payload(*page))), "page {page} before the rot");
        }
        let want = b.read_page_at(1, k).unwrap_err().to_string();
        assert_eq!(seen[k as usize], (k, Err(want)));
        // The pages after it read on.
        let rest = run_read(&b, 1, &pages[k as usize + 1..]);
        assert!(rest.iter().all(|(p, got)| got == &Ok(Some(payload(*p)))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_run_read_is_charged_to_the_record_whose_extent_fails() {
        let dir = tmpdir("runeof");
        let b = FileBackend::open(&dir)
            .unwrap()
            .with_compression(Compression::None);
        let payload = |p: u64| vec![p as u8 ^ 0x3C; 4096];
        write_epoch(&b, 1, (0..64).map(|p| (p, payload(p)))).unwrap();
        let pages: Vec<u64> = (0..64).collect();
        assert_eq!(run_read(&b, 1, &pages[..1]).len(), 1, "the index is cached");
        // Cut the file inside record k: the one read of the whole run
        // fails, and so does a read of record k alone.
        let k = 21;
        let at = b.epoch_index(1).unwrap().locate(k).unwrap().extent.at;
        let file = fs::OpenOptions::new()
            .write(true)
            .open(FileBackend::segment_path(&dir, 1))
            .unwrap();
        file.set_len(at + 100).unwrap();
        let seen = run_read(&b, 1, &pages);
        assert_eq!(seen.len(), k as usize + 1, "the run ends at page {k}");
        for (page, got) in &seen[..k as usize] {
            assert_eq!(got, &Ok(Some(payload(*page))), "page {page} before the cut");
        }
        let want = b.read_page_at(1, k).unwrap_err();
        assert_eq!(want.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(seen[k as usize], (k, Err(want.to_string())));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An open session of `epoch` holding one record per page of `pages`,
    /// the `k`-th in shard slot `k` (earlier slots held, as contending
    /// streams would).
    fn sharded_session(b: &FileBackend, epoch: u64, pages: &[(u64, &[u8])]) -> FileEpochWriter {
        let w = b.begin_epoch_impl(epoch).unwrap();
        for (k, page) in pages.iter().enumerate() {
            let _held: Vec<_> = w.shards[..k].iter().map(|slot| slot.lock()).collect();
            w.write_pages(&[*page]).unwrap();
        }
        let slots: Vec<usize> = (0..pages.len()).collect();
        assert_eq!(slot_files(&b.dir, DELTA_PREFIX, epoch), slots);
        w
    }

    /// [`sharded_session`], committed.
    fn write_sharded(b: &FileBackend, epoch: u64, pages: &[(u64, &[u8])]) {
        sharded_session(b, epoch, pages).finish().unwrap();
    }

    /// The shard slots of `prefix`-named `epoch` that have a file.
    fn slot_files(dir: &Path, prefix: &str, epoch: u64) -> Vec<usize> {
        (0..MAX_STREAM_SHARDS)
            .filter(|&k| shard_path(dir, prefix, epoch, k).exists())
            .collect()
    }

    #[test]
    fn damage_to_a_superseded_epoch_still_fails_the_locator() {
        use io::ErrorKind::{InvalidData, NotFound};
        /// What was done to epoch 1, how, and the error the locator owes.
        type Row = (&'static str, fn(&Path), io::ErrorKind);
        fn shard(dir: &Path, k: usize) -> PathBuf {
            shard_path(dir, DELTA_PREFIX, 1, k)
        }
        let rows: [Row; 6] = [
            (
                "flipped trailer byte",
                |dir| corrupt_segment_region(dir, 1, SegmentRegion::Trailer { byte: 3 }).unwrap(),
                InvalidData,
            ),
            (
                "last shard missing",
                |dir| fs::remove_file(shard(dir, 2)).unwrap(),
                InvalidData,
            ),
            (
                "shard 1 missing, shard 2 present",
                |dir| fs::remove_file(shard(dir, 1)).unwrap(),
                InvalidData,
            ),
            (
                "shard 0 missing, shards 1 and 2 present",
                |dir| fs::remove_file(shard(dir, 0)).unwrap(),
                NotFound,
            ),
            (
                "every shard missing",
                |dir| (0..3).for_each(|k| fs::remove_file(shard(dir, k)).unwrap()),
                NotFound,
            ),
            (
                "miscounted commit",
                |dir| corrupt_manifest_count(dir, 1).unwrap(),
                InvalidData,
            ),
        ];
        for (damage, inflict, kind) in rows {
            let dir = tmpdir("superseded");
            {
                // Epoch 1 (three shards) is entirely rewritten by epoch 2,
                // so a restore of 3 reads no page from it.
                let b = FileBackend::open(&dir).unwrap();
                let old = [1u8; 32];
                write_sharded(&b, 1, &[(0, &old), (1, &old), (2, &old)]);
                write_epoch(&b, 2, (0..3).map(|p| (p, vec![2u8; 32]))).unwrap();
                write_epoch(&b, 3, vec![(9, vec![3u8; 32])]).unwrap();
            }
            inflict(&dir);
            let b = FileBackend::open(&dir).unwrap();
            let err = PageLocator::build(&b, 3).unwrap_err();
            assert_eq!(err.kind(), kind, "{damage}: {err}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_lost_shard_is_not_healed_by_a_recount() {
        use crate::image::CheckpointImage;
        use io::ErrorKind::InvalidData;
        let dir = tmpdir("lostshard");
        {
            let b = FileBackend::open(&dir).unwrap();
            write_epoch(&b, 1, (0..3).map(|p| (p, vec![1u8; 32]))).unwrap();
            write_sharded(&b, 2, &[(0, &[2u8; 32]), (1, &[2u8; 32])]);
        }
        fs::remove_file(shard_path(&dir, DELTA_PREFIX, 2, 1)).unwrap();
        let b = FileBackend::open(&dir).unwrap();
        let report = b.verify_epoch(2).unwrap();
        assert_eq!(
            report.structural,
            vec!["epoch 2: manifest committed 2 records but segments hold 1"]
        );
        // The records are intact but page 1's is gone: a recount would make
        // every read serve page 1 from epoch 1.
        let err = b.repair_epoch(2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        assert_eq!(
            CheckpointImage::load(&b, 2).unwrap_err().kind(),
            InvalidData
        );
        assert_eq!(PageLocator::build(&b, 2).unwrap_err().kind(), InvalidData);
        assert_eq!(b.read_page_at(2, 0).unwrap_err().kind(), InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retiring_rewriting_or_folding_a_gapped_epoch_leaves_no_slot_file() {
        let dir = tmpdir("gapgc");
        let b = FileBackend::open(&dir).unwrap();
        let data = [7u8; 32];
        let image: [(u64, &[u8]); 3] = [(0, &data), (1, &data), (2, &data)];
        for epoch in 1..=3 {
            write_sharded(&b, epoch, &image);
            fs::remove_file(shard_path(&dir, DELTA_PREFIX, epoch, 1)).unwrap();
        }
        write_epoch(&b, 4, vec![(0, vec![4u8; 32])]).unwrap();
        let none = Vec::<usize>::new();
        b.remove_epochs(&[1]).unwrap();
        assert_eq!(slot_files(&dir, DELTA_PREFIX, 1), none, "retired");
        b.rewrite_epoch(3, &image).unwrap();
        assert_eq!(slot_files(&dir, DELTA_PREFIX, 3), vec![0], "rewritten");
        assert!(b.verify_epoch(3).unwrap().is_clean());
        // The fold installs the image it is handed; gapped epoch 2 is never
        // read, only superseded.
        b.install_compacted(2, 3, &image).unwrap();
        assert_eq!(slot_files(&dir, DELTA_PREFIX, 2), none, "folded");
        assert_eq!(slot_files(&dir, DELTA_PREFIX, 3), none, "folded");
        assert_eq!(slot_files(&dir, FULL_PREFIX, 3), vec![0]);
        assert_eq!(b.epochs().unwrap(), vec![3, 4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborting_a_sharded_session_removes_every_slot() {
        let dir = tmpdir("abortshards");
        let b = FileBackend::open(&dir).unwrap();
        let data = [1u8; 32];
        let w = sharded_session(&b, 1, &[(0, &data), (1, &data), (2, &data)]);
        w.abort().unwrap();
        assert_eq!(slot_files(&dir, DELTA_PREFIX, 1), Vec::<usize>::new());
        assert!(b.epochs().unwrap().is_empty());
        write_epoch(&b, 1, vec![(0, vec![2u8; 32])]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_commit_syncs_shards_then_directory_then_manifest() {
        let dir = tmpdir("commitsync");
        let b = FileBackend::open(&dir).unwrap();
        // Creating the directory fsyncs its parent once, for the
        // directory's own entry; reopening it pays nothing.
        assert_eq!(b.io_stats().dir_fsyncs, 1);
        assert_eq!(FileBackend::open(&dir).unwrap().io_stats().dir_fsyncs, 0);
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
}
