//! The commit log: one append-only file of fixed-size CRC'd records behind
//! a magic. Every byte-level decision of such a log is made here, once —
//! how the file comes to exist, which magic it may carry, which records
//! count, what a torn append looks like and who removes it. The two logs
//! of the system, the file backend's `MANIFEST`
//! ([`ManifestRecord`](crate::ManifestRecord), `AICKMAN3`) and the group
//! coordinator's `GLOBAL` (`AICKGLB1`), are schemas over it: a [`Record`]
//! names its magic and encodes a fixed-length payload, nothing else.
//!
//! ## Layout
//!
//! ```text
//! magic                                                  8 bytes
//! n x [payload][crc64(payload) ^ salt, u64 LE]           PAYLOAD_LEN + 8
//! ```
//!
//! `salt` is the magic read as a little-endian `u64`: the CRC-64 of
//! all-zero input is 0, so without it a zero-filled block (a fallocate'd
//! tail, a zeroed sector) would validate as a record of zeros; with it a
//! record of one log never validates in another either.
//!
//! ## One rule for a bad record
//!
//! A record *counts* when its CRC matches. The log's content is every
//! record up to the **last** one that counts:
//!
//! * whatever follows it — a short record, garbage, zero-filled blocks —
//!   is a **tear**, the remains of an append that never returned `Ok`.
//!   Readers ignore it and the next [`append`] truncates it away;
//! * a record that fails its CRC *before* it is **corruption**: [`read`]
//!   fails with `InvalidData` naming the record's index. The log is never
//!   silently shortened to the prefix in front of the damage — that would
//!   roll committed epochs back (and let an orphan sweep delete their
//!   segments) on the strength of one flipped bit.
//!
//! The one residual: rot confined to the *last* record is indistinguishable
//! from a torn append and reads as "that commit never happened".
//!
//! A missing file is an empty log. Any other magic — including a file too
//! short to hold one — is foreign data and fails every entry point with
//! `InvalidData` naming what was found; the create path below never leaves
//! such a file behind (a crash inside it leaves only the staging file,
//! `<log>.new`, which the open that owns the log removes:
//! [`Log::remove_staging`]).
//!
//! ## A failed append commits nothing
//!
//! An append that fails after its write — the fsync fails, the write lands
//! half — truncates the log back to where it started (a failed create
//! unlinks the log it just renamed in), so readers in this process never
//! count a record whose commit returned `Err`. If that undo fails too, a
//! `Log` handle refuses every further append until the log is opened
//! again. Every mutating syscall goes through the gate in [`crate::io`].

use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::checksum::crc64;
use crate::failing::Leaf;
use crate::io::{self as sys, GatedFile};

const MAGIC_LEN: usize = 8;
const CRC_LEN: usize = 8;

/// A commit-log schema: the magic of its file and a fixed-length payload.
pub trait Record: Sized {
    /// Magic prefix of the log file (also salts every record CRC).
    const MAGIC: &'static [u8; 8];
    /// Encoded payload length; a wire record is 8 bytes longer.
    const PAYLOAD_LEN: usize;
    /// Encode into `out` (`PAYLOAD_LEN` bytes, zeroed).
    fn encode(&self, out: &mut [u8]);
    /// Decode a CRC-valid payload. An error here means the writer stored
    /// something this schema does not know — `InvalidData`, never a tear.
    fn decode(payload: &[u8]) -> io::Result<Self>;
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn salt(magic: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*magic)
}

/// `buf` minus its magic, or the foreign-file error naming what `buf`
/// starts with instead.
fn strip_magic<'a>(buf: &'a [u8], magic: &[u8; 8]) -> io::Result<&'a [u8]> {
    buf.strip_prefix(magic).ok_or_else(|| {
        invalid(format!(
            "bad commit-log magic {:?} (expected {:?})",
            String::from_utf8_lossy(&buf[..buf.len().min(MAGIC_LEN)]),
            String::from_utf8_lossy(magic),
        ))
    })
}

fn counts(wire: &[u8], salt: u64) -> bool {
    let (payload, crc) = wire.split_at(wire.len() - CRC_LEN);
    crc64(payload) ^ salt == u64::from_le_bytes(crc.try_into().expect("8-byte CRC field"))
}

/// How many records of `body` (the file after its magic) are the log's
/// content — the module's one rule.
fn committed(body: &[u8], wire_len: usize, salt: u64) -> io::Result<usize> {
    let mut content = 0;
    let mut first_bad = None;
    for (i, wire) in body.chunks_exact(wire_len).enumerate() {
        if counts(wire, salt) {
            content = i + 1;
        } else if first_bad.is_none() {
            first_bad = Some(i);
        }
    }
    match first_bad {
        Some(bad) if bad < content => Err(invalid(format!(
            "commit log corrupt: record {bad} of {content} fails its CRC"
        ))),
        _ => Ok(content),
    }
}

/// Every committed record of the log at `path`, in append order.
pub fn read<R: Record>(path: &Path) -> io::Result<Vec<R>> {
    let buf = match fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let body = strip_magic(&buf, R::MAGIC)?;
    let wire_len = R::PAYLOAD_LEN + CRC_LEN;
    let n = committed(body, wire_len, salt(R::MAGIC))?;
    body.chunks_exact(wire_len)
        .take(n)
        .map(|wire| R::decode(&wire[..R::PAYLOAD_LEN]))
        .collect()
}

/// Append `records` as one durable commit: one write and one fsync however
/// many records, after truncating any tear. All-or-nothing under the tear
/// rule — a crash mid-batch leaves a tail that no reader counts — so no
/// record of the batch is committed until this returns, and one that fails
/// is undone (see the module docs). Appends to one log must be serialised by
/// the caller (a `Log` does it); readers may run concurrently.
///
/// O(1) in log size on a clean log: only the magic and the last record are
/// read (whether *earlier* records still verify is a reader's question).
///
/// Returns whether the log was **created** by this call. Creation pays one
/// fsync of the parent directory — until then the first commit of a fresh
/// directory would sit behind a directory entry a power loss can drop — and
/// callers that count directory fsyncs count that one.
///
/// This is a one-off append through a fresh [`Log`]: a writer that appends
/// again holds its `Log`, so a failed undo stops it building on a record
/// whose commit failed.
pub fn append<R: Record>(path: &Path, records: &[R]) -> io::Result<bool> {
    Log::new(path.to_owned(), None).append(records)
}

/// The staging file a log is created under before its rename: a crash
/// between the two leaves it, and the open that owns the log removes it.
pub(crate) fn staging_path(path: &Path) -> PathBuf {
    path.with_extension("new")
}

/// One process's handle on the commit log at a path: appends serialised,
/// numbered on a leaf if given, and refused for good once an append failed
/// in a way it could not undo — until the log is opened again.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    gate: Option<Leaf>,
    /// Appends run under this lock; `true` once the log is wedged.
    wedged: Mutex<bool>,
}

impl Log {
    /// A handle on the log at `path`, its syscalls numbered on `gate`.
    pub fn new(path: PathBuf, gate: Option<Leaf>) -> Self {
        Self {
            path,
            gate,
            wedged: Mutex::new(false),
        }
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Remove the log's staging file, if a crash left one: the open that
    /// owns the log does, through the log's gate (with none there, no call).
    pub fn remove_staging(&self) -> io::Result<()> {
        let staging = staging_path(&self.path);
        if !staging.exists() {
            return Ok(());
        }
        match sys::unlink(self.gate.as_ref(), &staging) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// [`append`] through this handle.
    pub fn append<R: Record>(&self, records: &[R]) -> io::Result<bool> {
        let mut wedged = self.wedged.lock();
        if *wedged {
            return Err(io::Error::other(format!(
                "{}: a failed append could not be undone; reopen the log",
                self.path.display()
            )));
        }
        let (result, clean) = try_append(self.gate.as_ref(), &self.path, records);
        *wedged = !clean;
        result
    }
}

/// [`append`], and whether the log is clean after it — `false` only when
/// the append failed and its undo failed too.
fn try_append<R: Record>(
    gate: Option<&Leaf>,
    path: &Path,
    records: &[R],
) -> (io::Result<bool>, bool) {
    if records.is_empty() {
        return (Ok(false), true);
    }
    let (wire_len, salt) = (R::PAYLOAD_LEN + CRC_LEN, salt(R::MAGIC));
    let mut batch = vec![0u8; records.len() * wire_len];
    for (record, wire) in records.iter().zip(batch.chunks_exact_mut(wire_len)) {
        let (payload, crc) = wire.split_at_mut(R::PAYLOAD_LEN);
        record.encode(payload);
        crc.copy_from_slice(&(crc64(payload) ^ salt).to_le_bytes());
    }
    let file = match GatedFile::open(gate, path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return create(gate, path, R::MAGIC, &batch);
        }
        Err(e) => return (Err(e), true),
    };
    let end = match tail(&file.file, wire_len, salt, R::MAGIC) {
        Ok(end) => end,
        Err(e) => return (Err(e), true),
    };
    let appended = (|| {
        if end.1 {
            file.truncate(end.0)?;
        }
        file.write_at(&batch, end.0)?;
        file.sync()
    })();
    match appended {
        Ok(()) => (Ok(false), true),
        // Nothing of the batch may stay for readers to count: cut the log
        // back to where the append started, durably.
        Err(e) => {
            let undone = file.truncate(end.0).and_then(|()| file.sync());
            (Err(e), undone.is_ok())
        }
    }
}

/// Where the log's content ends, and whether a tear follows it that an
/// append must cut first.
fn tail(file: &fs::File, wire_len: usize, salt: u64, magic: &[u8; 8]) -> io::Result<(u64, bool)> {
    let len = file.metadata()?.len();
    let mut head = [0u8; MAGIC_LEN];
    let head = &mut head[..len.min(MAGIC_LEN as u64) as usize];
    file.read_exact_at(head, 0)?;
    strip_magic(head, magic)?;

    let (first, wire) = (MAGIC_LEN as u64, wire_len as u64);
    let aligned = len - (len - first) % wire;
    let clean = aligned == first || {
        let mut last = vec![0u8; wire_len];
        file.read_exact_at(&mut last, aligned - wire)?;
        counts(&last, salt)
    };
    let end = if clean {
        aligned
    } else {
        // A record-aligned tear: find where the content ends the way
        // readers do (and fail like them if the damage is not a tear).
        let mut body = vec![0u8; (len - first) as usize];
        file.read_exact_at(&mut body, first)?;
        first + committed(&body, wire_len, salt)? as u64 * wire
    };
    Ok((end, end < len))
}

/// First use: build the log aside, fsync it, rename it in and fsync the
/// directory. Creating it in place would let a concurrent reader open it
/// between creation and the magic write and reject it as foreign; with the
/// rename a reader sees `NotFound` (an empty log) or the complete file. If
/// the directory fsync fails, the log just renamed in holds nothing but the
/// failed batch: it is unlinked again.
fn create(
    gate: Option<&Leaf>,
    path: &Path,
    magic: &[u8; 8],
    batch: &[u8],
) -> (io::Result<bool>, bool) {
    let tmp = staging_path(path);
    let staged = (|| {
        let file = GatedFile::create(gate, &tmp)?;
        file.write_at(&[&magic[..], batch].concat(), 0)?;
        file.sync()?;
        sys::rename(gate, &tmp, path)
    })();
    if let Err(e) = staged {
        return (Err(e), true);
    }
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    match sys::sync_dir(gate, parent) {
        Ok(()) => (Ok(true), true),
        Err(e) => (Err(e), sys::unlink(gate, path).is_ok()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schema of opaque bytes: the log must not care what a payload says.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Opaque([u8; 5]);

    impl Record for Opaque {
        const MAGIC: &'static [u8; 8] = b"AICKTST1";
        const PAYLOAD_LEN: usize = 5;
        fn encode(&self, out: &mut [u8]) {
            out.copy_from_slice(&self.0);
        }
        fn decode(payload: &[u8]) -> io::Result<Self> {
            Ok(Opaque(payload.try_into().unwrap()))
        }
    }

    const WIRE: u64 = 13;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aickpt-log-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("LOG")
    }

    use std::fs::OpenOptions;
    use std::io::Write;

    fn scribble(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn batches_round_trip_and_only_the_first_append_creates() {
        let path = tmp("rt");
        assert!(read::<Opaque>(&path).unwrap().is_empty(), "missing = empty");
        assert!(!append::<Opaque>(&path, &[]).unwrap(), "empty batch: no-op");
        assert!(!path.exists());
        let (a, b, c) = (Opaque([1; 5]), Opaque([0; 5]), Opaque([3; 5]));
        assert!(append(&path, &[a, b]).unwrap(), "created");
        assert!(!append(&path, &[c]).unwrap(), "extended");
        assert_eq!(read::<Opaque>(&path).unwrap(), vec![a, b, c]);
        assert_eq!(fs::metadata(&path).unwrap().len(), 8 + 3 * WIRE);
        assert!(!path.with_extension("new").exists(), "renamed, not copied");
    }

    #[test]
    fn every_shape_of_tear_is_ignored_then_excised() {
        let (a, b) = (Opaque([7; 5]), Opaque([9; 5]));
        let tears: [&[u8]; 4] = [
            &[0xAB; 4],  // short record
            &[0u8; 13],  // one zero-filled record: CRC 0 must not validate
            &[0u8; 100], // zero-filled blocks, unaligned
            &[0xEE; 26], // two records of garbage
        ];
        for tear in tears {
            let path = tmp("tear");
            append(&path, &[a]).unwrap();
            scribble(&path, tear);
            assert_eq!(read::<Opaque>(&path).unwrap(), vec![a], "tear ignored");
            append(&path, &[b]).unwrap();
            assert_eq!(read::<Opaque>(&path).unwrap(), vec![a, b]);
            assert_eq!(fs::metadata(&path).unwrap().len(), 8 + 2 * WIRE, "excised");
        }
    }

    #[test]
    fn a_bad_record_before_a_good_one_is_corruption_for_readers_and_appends() {
        let path = tmp("mid");
        let log = [Opaque([1; 5]), Opaque([2; 5]), Opaque([3; 5])];
        append(&path, &log).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8 + WIRE as usize + 2] ^= 1; // one bit of record 1
        fs::write(&path, &bytes).unwrap();
        let err = read::<Opaque>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("record 1"), "{err}");
        // A clean tail appends in O(1) without judging earlier records …
        append(&path, &[Opaque([4; 5])]).unwrap();
        // … but an append that must scan for a tear sees what readers see.
        scribble(&path, &[0xCD; 13]);
        let err = append(&path, &[Opaque([5; 5])]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            8 + 5 * WIRE,
            "untouched"
        );
    }

    #[test]
    fn a_failed_append_is_undone_or_wedges_its_handle() {
        use crate::failing::{FailureControl, Fault, FaultOp, Syscall, When};
        let path = tmp("undo");
        let ctl = FailureControl::new();
        let log = Log::new(path.clone(), Some(ctl.leaf()));
        let (a, b) = (Opaque([1; 5]), Opaque([2; 5]));
        log.append(&[a]).unwrap();
        // The fsync after the write fails: the record is cut off again.
        ctl.arm(When::At(ctl.ops() + 2), Fault::Fail);
        assert!(log.append(&[b]).is_err());
        assert_eq!(
            read::<Opaque>(&path).unwrap(),
            vec![a],
            "no record of a failed commit"
        );
        log.append(&[b]).unwrap();
        // Every fsync fails, the undo's too: the handle refuses every append
        // until the log is opened again.
        ctl.fail(FaultOp::Sys(Syscall::Fsync), true);
        assert!(log.append(&[a]).is_err());
        ctl.heal();
        assert!(log.append(&[a]).is_err(), "wedged");
        Log::new(path.clone(), None).append(&[a]).unwrap();
        assert_eq!(read::<Opaque>(&path).unwrap(), vec![a, b, a]);
    }

    #[test]
    fn foreign_and_short_magics_are_rejected_by_name() {
        let path = tmp("magic");
        for found in [&b"AICKTST0____"[..], b"AICK", b""] {
            fs::write(&path, found).unwrap();
            for err in [
                read::<Opaque>(&path).unwrap_err(),
                append(&path, &[Opaque([1; 5])]).unwrap_err(),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let shown = String::from_utf8_lossy(&found[..found.len().min(8)]);
                assert!(err.to_string().contains(&format!("{shown:?}")), "{err}");
            }
            assert_eq!(fs::read(&path).unwrap(), found, "left as found");
        }
    }
}
