//! The `AICKSEG3` segment: the one module that knows a byte of the format.
//!
//! A segment file holds the page records of one epoch (or one stream shard
//! of it, or a compacted full image — the bytes are the same). Which files
//! make up an epoch, and when they count, is [`crate::file`]'s business;
//! what a payload looks like once stored is [`crate::codec`]'s. This module
//! frames, heads, trails, writes and walks records, and nothing else does.
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
//! `enc`, `raw_len` and `crc64` are a [`codec::Sealed`]: the CRC covers the
//! *uncompressed* payload — restore verification is independent of the
//! encoding, and a corrupt compressed stream surfaces as `InvalidData`
//! either from the decoder or from the CRC check. The per-record encoding
//! is chosen by the writer's [`Compression`] ([`Compression::Auto`] by
//! default: smallest of raw/RLE/LZ, falling back to raw so incompressible
//! data costs nothing but the 5 extra frame bytes).
//!
//! The trailer only says *where* each record is. Opening a segment
//! (`Segment::open`) reads the header and the trailer — `16·n + 40` bytes,
//! never a payload — and a read is a run of adjacent records
//! (`Segment::read_run`): one `pread` of their extents (each a record's
//! offset up to the next record's, or to the trailer) into a buffer the
//! caller reuses, each record then opened in place; a single page is a run
//! of one. Frames stay the single source of truth for `enc`, the lengths
//! and the payload CRC: every read re-checks the frame it fetched
//! against the trailer entry that led to it (page id, extent), so a flipped
//! page id — which the payload CRC does not cover — fails the read instead
//! of silently renaming the page. A missing, torn or CRC-failing trailer
//! fails every read of the segment with `InvalidData` and is structural
//! damage to the scrubber; there is no fallback walk.
//!
//! CRCs are verified on read; a mismatch fails the restore rather than
//! silently resurrecting corrupt state. There is one walk
//! (`Segment::walk`): it hands each record's page, frame and opened
//! payload — or the reason it would not open — to a visitor. The reference
//! replay propagates the first failure; the scrubber notes the page and
//! keeps going, because the trailer still says where the next record starts.
//!
//! ## The vectored zero-copy write path
//!
//! There is one writer (`SegmentWriter`): create (header) → any number of
//! batches → seal (trailer, optional fsync). Delta epochs write through it
//! shard by shard; compacted, rewritten and repaired images stage through
//! it into a temp file.
//!
//! Batches are submitted as `pwritev` vectored writes whose payload iovecs
//! point *straight at the caller's bytes* (live page memory, CoW slot
//! bytes): raw records are never copied in user space. Record frames and
//! compressed payloads stage into per-writer reusable aligned buffers
//! ([`crate::io::AlignedBuf`]) and the iovec array is reused the same way,
//! so the steady state allocates nothing.
//!
//! The write offset only advances past a batch whose vectored write
//! succeeded, and trailer entries are appended only then, so a torn batch is
//! overwritten by the next one, never named by the trailer, and excised by
//! `seal`'s truncate. `seal` is truncate → trailer (one more `pwritev`) →
//! at most one fsync: the only fsync a segment ever pays.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::ops::ControlFlow;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::checksum::{crc64, crc64_update};
use crate::codec::{self, Compression, Sealed};
use crate::failing::Leaf;
use crate::io::{flip_byte_at, AlignedBuf, GatedFile, IoCounters};

/// Magic prefix of a segment file (per-record encodings, trailer).
pub const SEGMENT_MAGIC: &[u8; 8] = b"AICKSEG3";

/// Magic closing a segment's trailer: the last 8 bytes of the file.
const TRAILER_MAGIC: &[u8; 8] = b"AICKTRL1";

/// Length of a segment header (magic + epoch).
const HEADER_LEN: usize = 16;

/// Length of a record frame (page, encoding, lengths, CRC).
const FRAME_LEN: usize = 25;

/// Length of one trailer entry (page, record offset).
const TRAILER_ENTRY_LEN: usize = 16;

/// Length of the trailer's fixed footer (count, CRC, magic).
const TRAILER_FOOTER_LEN: usize = 24;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn le32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn le64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// One iovec over `bytes` (the kernel only reads through it on a write).
fn iovec(bytes: &[u8]) -> libc::iovec {
    libc::iovec {
        iov_base: bytes.as_ptr() as *mut _,
        iov_len: bytes.len(),
    }
}

fn header(epoch: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..].copy_from_slice(&epoch.to_le_bytes());
    header
}

/// Validate a segment header: `AICKSEG3` magic (anything else is rejected
/// by name — there is exactly one format) and the expected epoch.
fn check_header(header: &[u8; HEADER_LEN], epoch: u64) -> io::Result<()> {
    if &header[..8] != SEGMENT_MAGIC {
        return Err(invalid(format!(
            "bad segment magic {:?} (expected \"AICKSEG3\")",
            String::from_utf8_lossy(&header[..8])
        )));
    }
    let seg_epoch = le64(header, 8);
    if seg_epoch != epoch {
        return Err(invalid(format!(
            "segment claims epoch {seg_epoch}, expected {epoch}"
        )));
    }
    Ok(())
}

/// One record frame, field by field (nothing validated by [`Frame::parse`]:
/// an at-rest flip of, say, the encoding byte must condemn that record when
/// it is *read*, not break walking the segment).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    page: u64,
    /// Encoding, uncompressed length and CRC of the payload.
    pub(crate) sealed: Sealed,
    stored_len: u32,
}

impl Frame {
    const PAGE_AT: usize = 0;
    const ENC_AT: usize = 8;
    const RAW_LEN_AT: usize = 9;
    const STORED_LEN_AT: usize = 13;
    const CRC_AT: usize = 17;

    fn encode(&self) -> [u8; FRAME_LEN] {
        let mut buf = [0u8; FRAME_LEN];
        buf[Self::PAGE_AT..Self::ENC_AT].copy_from_slice(&self.page.to_le_bytes());
        buf[Self::ENC_AT] = self.sealed.enc;
        buf[Self::RAW_LEN_AT..Self::STORED_LEN_AT]
            .copy_from_slice(&self.sealed.raw_len.to_le_bytes());
        buf[Self::STORED_LEN_AT..Self::CRC_AT].copy_from_slice(&self.stored_len.to_le_bytes());
        buf[Self::CRC_AT..].copy_from_slice(&self.sealed.crc.to_le_bytes());
        buf
    }

    /// Decode the frame heading `record` (at least [`FRAME_LEN`] bytes:
    /// every trailer-derived extent is, see [`Segment::open`]).
    fn parse(record: &[u8]) -> Frame {
        Frame {
            page: le64(record, Self::PAGE_AT),
            sealed: Sealed {
                enc: record[Self::ENC_AT],
                raw_len: le32(record, Self::RAW_LEN_AT),
                crc: le64(record, Self::CRC_AT),
            },
            stored_len: le32(record, Self::STORED_LEN_AT),
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

    /// Open `stored` as this frame's payload, once the frame is known to be
    /// the record `page`'s trailer entry promised.
    fn open(
        &self,
        stored: &[u8],
        page: u64,
        extent_len: u64,
        epoch: u64,
    ) -> io::Result<Option<Vec<u8>>> {
        self.check_against_trailer(page, extent_len, epoch)?;
        self.sealed
            .open(stored)
            .map_err(codec::in_record(epoch, page))
    }
}

/// Where one record's stored payload lives during batch staging.
#[derive(Debug, Clone, Copy)]
enum PayloadSrc {
    /// Stored verbatim: the iovec points at the caller's bytes (zero-copy).
    Caller(usize),
    /// Compressed: staged at `(offset, len)` in the writer's reuse buffer.
    Staged(usize, usize),
}

/// The one segment writer: an `AICKSEG3` file being filled, owned
/// exclusively by whoever holds it.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    file: GatedFile,
    /// Next write offset = bytes of complete batches (a failed vectored
    /// write never advances it, so its torn tail is overwritten by the
    /// next batch and excised by `seal`'s truncate).
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
    /// The batch's iovecs (reused like the staging buffers; the pointers in
    /// it are dead once its vectored write returns).
    iov: IovecList,
}

/// A reusable iovec array. Its entries point into a batch only between
/// being pushed and the `pwritev` they are built for; kept across batches
/// it is capacity and nothing else.
#[derive(Default)]
struct IovecList(Vec<libc::iovec>);

// SAFETY: the raw pointers inside are never dereferenced by this process —
// the kernel reads through them during the one `pwritev` of the batch that
// pushed them, on the thread holding `&mut SegmentWriter` — and the list is
// cleared before every use. Moving the stale values to another thread is
// moving integers.
unsafe impl Send for IovecList {}

impl std::fmt::Debug for IovecList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IovecList(capacity {})", self.0.capacity())
    }
}

impl SegmentWriter {
    /// Create (truncating) the segment of `epoch` at `path` and write its
    /// header — every syscall through the gate, numbered on `gate` if given.
    pub(crate) fn create(
        path: &Path,
        epoch: u64,
        io: &IoCounters,
        gate: Option<&Leaf>,
    ) -> io::Result<Self> {
        let file = GatedFile::create(gate, path)?;
        file.write_vectored_at(&mut [iovec(&header(epoch))], 0, io)?;
        Ok(Self {
            file,
            offset: HEADER_LEN as u64,
            records: 0,
            payload_bytes: 0,
            trailer: Vec::new(),
            frames: AlignedBuf::new(),
            staged: AlignedBuf::new(),
            plan: Vec::new(),
            iov: IovecList::default(),
        })
    }

    /// Records of completed batches.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Uncompressed payload bytes of completed batches.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Stage one batch into the reusable buffers and submit it as a single
    /// vectored write. Raw payload iovecs point at the caller's bytes — the
    /// zero-copy path; compressed payloads stage once into the aligned
    /// reuse buffer. Returns the batch's `(payload, stored)` byte counts.
    pub(crate) fn write_batch(
        &mut self,
        batch: &[(u64, &[u8])],
        compression: Compression,
        io: &IoCounters,
    ) -> io::Result<(u64, u64)> {
        self.frames.clear();
        self.staged.clear();
        self.plan.clear();
        let mut payload_bytes = 0u64;
        let mut stored_bytes = 0u64;
        for &(page, data) in batch {
            let (sealed, encoded) = codec::seal(data, compression);
            let src = match encoded {
                None => PayloadSrc::Caller(data.len()),
                Some(v) => PayloadSrc::Staged(self.staged.extend_from_slice(&v), v.len()),
            };
            let (PayloadSrc::Caller(stored_len) | PayloadSrc::Staged(_, stored_len)) = src;
            let frame = Frame {
                page,
                sealed,
                stored_len: stored_len as u32,
            };
            self.frames.extend_from_slice(&frame.encode());
            self.plan.push(src);
            payload_bytes += data.len() as u64;
            stored_bytes += stored_len as u64;
        }
        // Staging buffers are final — pointers are stable from here on.
        let frames = self.frames.as_slice();
        let staged = self.staged.as_slice();
        let iov = &mut self.iov.0;
        iov.clear();
        for (i, src) in self.plan.iter().enumerate() {
            iov.push(iovec(&frames[i * FRAME_LEN..(i + 1) * FRAME_LEN]));
            match *src {
                PayloadSrc::Caller(0) => {} // empty payload: frame only
                PayloadSrc::Caller(_) => iov.push(iovec(batch[i].1)),
                PayloadSrc::Staged(at, len) => iov.push(iovec(&staged[at..at + len])),
            }
        }
        let written = self.file.write_vectored_at(iov, self.offset, io)?;
        let mut record_at = self.offset;
        for (&(page, _), src) in batch.iter().zip(&self.plan) {
            self.trailer.extend_from_slice(&page.to_le_bytes());
            self.trailer.extend_from_slice(&record_at.to_le_bytes());
            let (PayloadSrc::Caller(len) | PayloadSrc::Staged(_, len)) = *src;
            record_at += (FRAME_LEN + len) as u64;
        }
        self.offset += written;
        self.records += batch.len() as u64;
        self.payload_bytes += payload_bytes;
        Ok((payload_bytes, stored_bytes))
    }

    /// Seal the segment: excise any torn tail a failed vectored write left
    /// past the last complete batch, close the trailer entries with the
    /// footer — count, CRC-64 over entries ‖ count, trailer magic — and
    /// append them, then fsync once.
    pub(crate) fn seal(&mut self, io: &IoCounters) -> io::Result<()> {
        self.file.truncate(self.offset)?;
        self.trailer.extend_from_slice(&self.records.to_le_bytes());
        let crc = crc64(&self.trailer);
        self.trailer.extend_from_slice(&crc.to_le_bytes());
        self.trailer.extend_from_slice(TRAILER_MAGIC);
        let trailer = &mut [iovec(&self.trailer)];
        self.file.write_vectored_at(trailer, self.offset, io)?;
        self.file.sync()
    }
}

/// One record's extent in its segment file: the frame at `at` plus the
/// stored payload, `len` bytes in all (up to the next record, or to the
/// trailer) — what a single positioned read fetches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) at: u64,
    pub(crate) len: u64,
}

/// An opened segment file: the handle plus its decoded trailer — where
/// every record starts and where the records end. CRC-verified and
/// bounds-checked by [`Segment::open`], so every extent derived from it
/// lies inside the file and holds at least a frame.
#[derive(Debug)]
pub(crate) struct Segment {
    file: File,
    epoch: u64,
    /// `(page, offset of the record's frame)` in record order.
    entries: Vec<(u64, u64)>,
    /// Offset just past the last record = where the trailer starts.
    records_end: u64,
}

/// A run read's visitor: each record's page with its verified payload and
/// CRC, or why it would not open; it answers whether the run goes on.
pub(crate) type RecordVisit<'v> = dyn FnMut(u64, io::Result<(&[u8], u64)>) -> ControlFlow<()> + 'v;

impl Segment {
    /// Open one segment (shard) file of `epoch`: validate the header, then
    /// read the fixed-size footer from the tail, bounds-check its count
    /// against the file length, read the entries with one `pread`, verify
    /// their CRC and check that they tile `header..trailer` with room for a
    /// frame each. No record byte is touched. The handle comes back
    /// positioned at the first record.
    pub(crate) fn open(path: &Path, epoch: u64) -> io::Result<Segment> {
        let file = File::open(path)?;
        let mut head = [0u8; HEADER_LEN];
        (&file).read_exact(&mut head).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => invalid(format!("epoch {epoch}: segment header torn")),
            _ => e,
        })?;
        check_header(&head, epoch)?;
        let len = file.metadata()?.len();
        let torn = || invalid(format!("epoch {epoch}: segment trailer missing or torn"));
        let footer_at = len
            .checked_sub(TRAILER_FOOTER_LEN as u64)
            .filter(|&at| at >= HEADER_LEN as u64)
            .ok_or_else(torn)?;
        let mut footer = [0u8; TRAILER_FOOTER_LEN];
        file.read_exact_at(&mut footer, footer_at)?;
        if &footer[16..] != TRAILER_MAGIC {
            return Err(torn());
        }
        let count = le64(&footer, 0);
        let records_end = count
            .checked_mul(TRAILER_ENTRY_LEN as u64)
            .and_then(|bytes| footer_at.checked_sub(bytes))
            .filter(|&at| at >= HEADER_LEN as u64)
            .ok_or_else(|| {
                invalid(format!(
                    "epoch {epoch}: trailer claims {count} records in a {len}-byte segment"
                ))
            })?;
        let mut raw = vec![0u8; (footer_at - records_end) as usize];
        file.read_exact_at(&mut raw, records_end)?;
        if crc64_update(crc64(&raw), &footer[..8]) != le64(&footer, 8) {
            return Err(invalid(format!(
                "epoch {epoch}: segment trailer CRC mismatch"
            )));
        }
        let entries: Vec<(u64, u64)> = raw
            .chunks_exact(TRAILER_ENTRY_LEN)
            .map(|e| (le64(e, 0), le64(e, 8)))
            .collect();
        // Walking back from the trailer, every record must leave room for its
        // frame, and the first must start right after the header.
        let first = entries.iter().rev().try_fold(records_end, |end, &(_, at)| {
            at.checked_add(FRAME_LEN as u64)
                .filter(|&frame_end| frame_end <= end)
                .map(|_| at)
        });
        if first != Some(HEADER_LEN as u64) {
            return Err(invalid(format!(
                "epoch {epoch}: trailer offsets do not tile the segment"
            )));
        }
        Ok(Segment {
            file,
            epoch,
            entries,
            records_end,
        })
    }

    /// Records the trailer names.
    pub(crate) fn records(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Bytes the trailer occupies on disk.
    fn trailer_len(&self) -> u64 {
        (self.entries.len() * TRAILER_ENTRY_LEN + TRAILER_FOOTER_LEN) as u64
    }

    /// Bytes [`Segment::open`] read to index this segment: header + trailer.
    pub(crate) fn index_bytes(&self) -> u64 {
        HEADER_LEN as u64 + self.trailer_len()
    }

    /// Each record's page and extent, in record order.
    pub(crate) fn extents(&self) -> impl Iterator<Item = (u64, Extent)> + '_ {
        let ends = self.entries.iter().skip(1).map(|&(_, at)| at);
        self.entries
            .iter()
            .zip(ends.chain([self.records_end]))
            .map(|(&(page, at), end)| (page, Extent { at, len: end - at }))
    }

    /// The frame of the record the trailer places at `extent` for `page`.
    pub(crate) fn read_frame(&self, page: u64, extent: Extent) -> io::Result<Frame> {
        let mut frame = [0u8; FRAME_LEN];
        self.file.read_exact_at(&mut frame, extent.at)?;
        let frame = Frame::parse(&frame);
        frame.check_against_trailer(page, extent.len, self.epoch)?;
        Ok(frame)
    }

    /// Read the records of `run` — pages with their extents, each extent
    /// starting where the one before it ends — with one positioned read
    /// into `buf` (grown, never shrunk), then open each record (frame
    /// against trailer entry, encoding, decode, CRC) and visit its page
    /// with the verified payload (a raw record's is a slice of `buf`) and
    /// its CRC, in order, while `visit` continues. The first record that
    /// does not open is visited with its error and ends the run with
    /// `Break`. A run whose read fails is read again record by record, so
    /// the error is charged to the record whose extent fails.
    pub(crate) fn read_run(
        &self,
        run: &[(u64, Extent)],
        buf: &mut Vec<u8>,
        visit: &mut RecordVisit<'_>,
    ) -> ControlFlow<()> {
        let (Some(&(first, head)), Some(&(_, tail))) = (run.first(), run.last()) else {
            return ControlFlow::Continue(());
        };
        let len = (tail.at + tail.len - head.at) as usize;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        if let Err(e) = self.file.read_exact_at(&mut buf[..len], head.at) {
            if run.len() == 1 {
                let _ = visit(first, Err(e));
                return ControlFlow::Break(());
            }
            return run
                .iter()
                .try_for_each(|record| self.read_run(std::slice::from_ref(record), buf, visit));
        }
        for &(page, extent) in run {
            let record = &buf[(extent.at - head.at) as usize..][..extent.len as usize];
            let frame = Frame::parse(record);
            let stored = &record[FRAME_LEN..];
            match frame.open(stored, page, extent.len, self.epoch) {
                Ok(opened) => {
                    let payload = opened.as_deref().unwrap_or(stored);
                    visit(page, Ok((payload, frame.sealed.crc)))?;
                }
                Err(e) => {
                    let _ = visit(page, Err(e));
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Stream the records front to back — the one walk. `visit` gets each
    /// record's page (from the CRC-protected trailer), its frame as found,
    /// and the payload: opened and verified, or why it would not open (the
    /// frame disagrees with its trailer entry, an unknown encoding, a decode
    /// failure, a CRC mismatch). What a bad record means is the visitor's
    /// call; `Err` from the walk itself is the visitor's or the file's.
    pub(crate) fn walk(
        self,
        mut visit: impl FnMut(u64, &Frame, io::Result<&[u8]>) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut reader = BufReader::with_capacity(1 << 20, &self.file);
        let mut record = Vec::new();
        for (page, extent) in self.extents() {
            record.resize(extent.len as usize, 0);
            reader.read_exact(&mut record)?;
            let frame = Frame::parse(&record);
            let stored = &record[FRAME_LEN..];
            match frame.open(stored, page, extent.len, self.epoch) {
                Ok(decoded) => visit(page, &frame, Ok(decoded.as_deref().unwrap_or(stored)))?,
                Err(e) => visit(page, &frame, Err(e))?,
            }
        }
        Ok(())
    }
}

/// Which structural region of an epoch's (shard-0 or full) segment file
/// [`corrupt_segment_region`](crate::file::corrupt_segment_region) should damage — one variant per field of the on-disk
/// format, so integrity tests can hit every byte class the scrubber must
/// detect.
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
    /// A byte of the first record's uncompressed-length field: nothing
    /// checksums it, and the decoders size their output by it — the record
    /// must fail to open, not take the process down with a huge reservation.
    RawLen {
        /// Byte offset within the 4-byte field (modulo 4).
        byte: u64,
    },
    /// A byte of the first record's stored-length field: the record no
    /// longer fills the extent its trailer entry gives it.
    StoredLen {
        /// Byte offset within the 4-byte field (modulo 4).
        byte: u64,
    },
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

/// Flip one byte of the given `region` of the segment file of `epoch` at
/// `path` — at-rest corruption injection for integrity tests (the
/// counterpart the scrubber is built to catch). The segment must be intact
/// (the target is found through its trailer).
pub(crate) fn corrupt_region(path: &Path, epoch: u64, region: SegmentRegion) -> io::Result<()> {
    let segment = Segment::open(path, epoch)?;
    // The target record: the first one, or the one named.
    let named = match region {
        SegmentRegion::PayloadOf { page, .. } => Some(page),
        _ => None,
    };
    let record = || {
        segment
            .extents()
            .find(|&(page, _)| named.is_none_or(|n| n == page))
            .map(|(_, extent)| extent)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "segment holds no such record")
            })
    };
    let pos = match region {
        SegmentRegion::Header => 0,
        SegmentRegion::Trailer { byte } => segment.records_end + byte % segment.trailer_len(),
        SegmentRegion::PageId => record()?.at + Frame::PAGE_AT as u64,
        SegmentRegion::Encoding => record()?.at + Frame::ENC_AT as u64,
        SegmentRegion::RawLen { byte } => record()?.at + Frame::RAW_LEN_AT as u64 + byte % 4,
        SegmentRegion::StoredLen { byte } => record()?.at + Frame::STORED_LEN_AT as u64 + byte % 4,
        SegmentRegion::Crc => record()?.at + Frame::CRC_AT as u64,
        SegmentRegion::Payload { byte } | SegmentRegion::PayloadOf { byte, .. } => {
            let extent = record()?;
            let stored_len = extent.len - FRAME_LEN as u64;
            if stored_len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "target record has an empty payload",
                ));
            }
            extent.at + FRAME_LEN as u64 + byte % stored_len
        }
    };
    flip_byte_at(path, pos)
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;

    use super::*;
    use crate::backend::{write_epoch, StorageBackend};
    use crate::file::{corrupt_segment_region, FileBackend};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aickpt-segment-{tag}-{}-{:?}",
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
    fn golden_bytes() {
        // The documented layout, assembled by hand: header, two raw
        // records, two trailer entries, count, CRC, trailer magic.
        let (a, b) = ([0xA5u8; 5], [0x3Cu8; 3]);
        let mut golden = Vec::new();
        golden.extend_from_slice(b"AICKSEG3");
        golden.extend_from_slice(&7u64.to_le_bytes());
        for (page, data) in [(3u64, &a[..]), (9, &b[..])] {
            golden.extend_from_slice(&page.to_le_bytes());
            golden.push(0); // Encoding::Raw
            golden.extend_from_slice(&(data.len() as u32).to_le_bytes()); // raw_len
            golden.extend_from_slice(&(data.len() as u32).to_le_bytes()); // stored_len
            golden.extend_from_slice(&crc64(data).to_le_bytes());
            golden.extend_from_slice(data);
        }
        let trailer_at = golden.len();
        golden.extend_from_slice(&3u64.to_le_bytes());
        golden.extend_from_slice(&16u64.to_le_bytes());
        golden.extend_from_slice(&9u64.to_le_bytes());
        golden.extend_from_slice(&(16 + 25 + 5u64).to_le_bytes());
        golden.extend_from_slice(&2u64.to_le_bytes());
        let crc = crc64(&golden[trailer_at..]);
        golden.extend_from_slice(&crc.to_le_bytes());
        golden.extend_from_slice(b"AICKTRL1");
        assert_eq!(golden.len(), 16 + (25 + 5) + (25 + 3) + 2 * 16 + 24);
        assert_eq!(SEGMENT_MAGIC, b"AICKSEG3");

        let dir = tmpdir("golden");
        let backend = FileBackend::open(&dir)
            .unwrap()
            .with_compression(Compression::None);
        write_epoch(&backend, 7, vec![(3, a.to_vec()), (9, b.to_vec())]).unwrap();
        let delta = fs::read(dir.join("epoch_0000000007.seg")).unwrap();
        assert_eq!(delta, golden, "delta epoch, byte for byte");

        // One writer: the same records staged as a compacted image are the
        // same bytes (the header names the same epoch here, so all of them).
        backend.compact(7).unwrap();
        assert!(!dir.join("epoch_0000000007.seg").exists());
        let full = fs::read(dir.join("full_0000000007.seg")).unwrap();
        assert_eq!(full[16..], golden[16..], "staged image, from byte 16 on");
        assert_eq!(full, golden);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_batch_never_reaches_the_trailer() {
        let dir = tmpdir("failbatch");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch_0000000001.seg");
        let io = IoCounters::default();
        let mut w = SegmentWriter::create(&path, 1, &io, None).unwrap();
        let write = |w: &mut SegmentWriter, page: u64, fill: u8| {
            w.write_batch(&[(page, &[fill; 64])], Compression::None, &io)
        };
        write(&mut w, 0, 1).unwrap();
        // Swap in a handle `pwritev` must refuse (read-only: EBADF).
        let good = std::mem::replace(&mut w.file.file, File::open(&path).unwrap());
        assert!(write(&mut w, 1, 2).is_err());
        w.file.file = good;
        write(&mut w, 2, 3).unwrap();
        w.seal(&io).unwrap();
        assert_eq!((w.records(), w.payload_bytes()), (2, 128));

        let segment = Segment::open(&path, 1).unwrap();
        let extents: Vec<(u64, Extent)> = segment.extents().collect();
        assert_eq!(extents.iter().map(|e| e.0).collect::<Vec<_>>(), [0, 2]);
        let mut read = None;
        let _ = segment.read_run(&extents[1..], &mut Vec::new(), &mut |page, got| {
            read = Some((page, got.map(|(payload, _)| payload.to_vec()).unwrap()));
            ControlFlow::Continue(())
        });
        assert_eq!(read, Some((2, vec![3u8; 64])));
        let mut seen = Vec::new();
        segment
            .walk(|page, _, payload| {
                seen.push((page, payload?[0]));
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, vec![(0, 1), (2, 3)]);
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

    /// One epoch per encoding, the record under test first: a noise page
    /// (stored raw), a constant page (RLE) and a phrase page (LZ).
    fn one_record_of_each_encoding(dir: &Path) -> FileBackend {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(0xD129_0209_3482_1899).rotate_left(23);
                x as u8
            })
            .collect();
        let phrase: Vec<u8> = b"adaptive asynchronous incremental checkpointing; "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let b = FileBackend::open(dir).unwrap();
        for (epoch, (enc, first)) in [
            (codec::Encoding::Raw, noise),
            (codec::Encoding::Rle, vec![0x5A; 4096]),
            (codec::Encoding::Lz, phrase),
        ]
        .into_iter()
        .enumerate()
        {
            let epoch = epoch as u64 + 1;
            write_epoch(&b, epoch, vec![(3, first), (4, vec![epoch as u8; 64])]).unwrap();
            let path = dir.join(format!("epoch_{epoch:010}.seg"));
            let segment = Segment::open(&path, epoch).unwrap();
            let (page, extent) = segment.extents().next().unwrap();
            let frame = segment.read_frame(page, extent).unwrap();
            assert_eq!(frame.sealed.enc, enc as u8, "epoch {epoch} is {enc:?}");
        }
        b
    }

    /// Flip `region` of each encoding's record in a fresh root and check
    /// that every read door fails loudly on exactly that record.
    fn assert_length_field_rot_fails_loudly(tag: &str, region: SegmentRegion) {
        for epoch in 1..=3u64 {
            let dir = tmpdir(tag);
            let b = one_record_of_each_encoding(&dir);
            corrupt_segment_region(&dir, epoch, region).unwrap();
            let report = b.verify_epoch(epoch).unwrap();
            assert_eq!(report.corrupt_pages, vec![3], "epoch {epoch} {region:?}");
            assert!(report.structural.is_empty(), "epoch {epoch} {region:?}");
            assert_eq!(report.records, 2, "epoch {epoch} {region:?}");
            assert_invalid(b.read_page_at(epoch, 3).unwrap_err());
            assert_invalid(crate::image::CheckpointImage::load(&b, epoch).unwrap_err());
            assert_eq!(
                b.read_page_at(epoch, 4).unwrap().unwrap(),
                vec![epoch as u8; 64]
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn every_flipped_length_byte_fails_every_read_door() {
        for byte in 0..4 {
            assert_length_field_rot_fails_loudly("lenrot", SegmentRegion::RawLen { byte });
            assert_length_field_rot_fails_loudly("lenrot", SegmentRegion::StoredLen { byte });
        }
    }

    /// Name of the test below, as the harness filters it.
    const RAW_LEN_CHILD: &str =
        "segment::tests::rotted_raw_len_high_byte_under_an_address_space_limit";

    /// The regression test for "a flipped `raw_len` bit aborts the process":
    /// flipping the field's high byte makes a 4 KiB record claim ≈ 4 GiB,
    /// and the decoders used to reserve that much before reading a byte —
    /// harmless where memory is overcommitted, `SIGABRT` from inside the
    /// scrubber on any memory-limited node. The body runs in a child process
    /// under `ulimit -v` (an address-space limit is per process, and it
    /// cannot be raised again), where that reservation cannot succeed.
    #[test]
    fn rotted_raw_len_high_byte_under_an_address_space_limit() {
        const ENV: &str = "AICKPT_RAW_LEN_CHILD";
        if std::env::var_os(ENV).is_some() {
            assert_length_field_rot_fails_loudly("lenrot-child", SegmentRegion::RawLen { byte: 3 });
            return;
        }
        let out = std::process::Command::new("sh")
            .arg("-c")
            .arg("ulimit -v 1048576 && exec \"$0\" \"$@\"")
            .arg(std::env::current_exe().unwrap())
            .args(["--exact", RAW_LEN_CHILD, "--test-threads=1"])
            .env(ENV, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child under a 1 GiB address-space limit: {:?}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
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
