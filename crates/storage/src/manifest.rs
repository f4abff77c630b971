//! The checkpoint manifest: a tiny append-only binary log recording which
//! epochs are durably complete and how the chain has been compacted.
//!
//! An epoch's segment file only "counts" once its manifest record exists —
//! the record is appended *after* the segment is fsynced, so a crash during
//! checkpointing can never yield a half-written checkpoint that restore
//! would trust. (This is the standard write-ahead ordering for atomic
//! commit; hand-rolled here because the format is a few dozen bytes per
//! record and a serde dependency would be heavier than the format itself.)
//!
//! ## Format
//!
//! `AICKMAN2`: an 8-byte magic followed by fixed 33-byte records, each a
//! *kind* plus an auxiliary field:
//!   - [`RecordKind::Delta`] — an incremental epoch commit;
//!   - [`RecordKind::Full`] — epoch `epoch` is a *full* segment covering
//!     every live epoch `aux ..= epoch`; it supersedes all earlier live
//!     epochs (appended as the atomic commit point of a compaction);
//!   - [`RecordKind::CompactedInto`] — epoch `epoch` was retired from this
//!     backend; `aux` names the epoch that absorbed it (0 when it was
//!     drained to another tier rather than folded locally).
//!
//! There is exactly one format. A file with any other magic is rejected
//! loudly (`InvalidData`, naming the magic found) by reads and appends
//! alike — never treated as an empty log.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic prefix of a manifest (kinded records).
pub const MANIFEST_MAGIC_V2: &[u8; 8] = b"AICKMAN2";

/// What a manifest record says about its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordKind {
    /// Incremental epoch commit.
    #[default]
    Delta,
    /// The epoch's segment is a full image superseding all earlier live
    /// epochs; `aux` records the oldest epoch it folded.
    Full,
    /// The epoch was retired: folded into epoch `aux` by compaction, or
    /// drained to another tier (`aux == 0`).
    CompactedInto,
}

impl RecordKind {
    fn to_wire(self) -> u8 {
        match self {
            RecordKind::Delta => 0,
            RecordKind::Full => 1,
            RecordKind::CompactedInto => 2,
        }
    }

    fn from_wire(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(RecordKind::Delta),
            1 => Ok(RecordKind::Full),
            2 => Ok(RecordKind::CompactedInto),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown manifest record kind {other}"),
            )),
        }
    }
}

/// One manifest entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManifestRecord {
    /// Epoch (checkpoint) number.
    pub epoch: u64,
    /// Number of page records in the segment (0 for `CompactedInto`).
    pub records: u64,
    /// Total payload bytes (excluding framing).
    pub payload_bytes: u64,
    /// What this record means for the chain.
    pub kind: RecordKind,
    /// Kind-dependent companion epoch (see [`RecordKind`]).
    pub aux: u64,
}

impl ManifestRecord {
    /// A plain epoch commit.
    pub fn delta(epoch: u64, records: u64, payload_bytes: u64) -> Self {
        Self {
            epoch,
            records,
            payload_bytes,
            kind: RecordKind::Delta,
            aux: 0,
        }
    }

    /// A compaction commit: `epoch`'s segment is now a full image folding
    /// the live chain since `from`.
    pub fn full(epoch: u64, records: u64, payload_bytes: u64, from: u64) -> Self {
        Self {
            epoch,
            records,
            payload_bytes,
            kind: RecordKind::Full,
            aux: from,
        }
    }

    /// A retirement: `epoch` is gone from this backend (`into == 0` means
    /// drained elsewhere, not folded locally).
    pub fn compacted_into(epoch: u64, into: u64) -> Self {
        Self {
            epoch,
            records: 0,
            payload_bytes: 0,
            kind: RecordKind::CompactedInto,
            aux: into,
        }
    }

    const WIRE_LEN_V2: usize = 33;

    fn to_bytes_v2(self) -> [u8; Self::WIRE_LEN_V2] {
        let mut out = [0u8; Self::WIRE_LEN_V2];
        out[0] = self.kind.to_wire();
        out[1..9].copy_from_slice(&self.epoch.to_le_bytes());
        out[9..17].copy_from_slice(&self.records.to_le_bytes());
        out[17..25].copy_from_slice(&self.payload_bytes.to_le_bytes());
        out[25..33].copy_from_slice(&self.aux.to_le_bytes());
        out
    }

    fn from_bytes_v2(b: &[u8]) -> io::Result<Self> {
        Ok(Self {
            kind: RecordKind::from_wire(b[0])?,
            epoch: u64::from_le_bytes(b[1..9].try_into().unwrap()),
            records: u64::from_le_bytes(b[9..17].try_into().unwrap()),
            payload_bytes: u64::from_le_bytes(b[17..25].try_into().unwrap()),
            aux: u64::from_le_bytes(b[25..33].try_into().unwrap()),
        })
    }
}

fn read_raw(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(Some(buf))
}

fn bad_magic(found: &[u8]) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "bad manifest magic {:?} (expected \"AICKMAN2\")",
            String::from_utf8_lossy(found)
        ),
    )
}

fn parse(buf: &[u8]) -> io::Result<Vec<ManifestRecord>> {
    let Some(body) = buf.strip_prefix(MANIFEST_MAGIC_V2) else {
        return Err(bad_magic(&buf[..buf.len().min(MANIFEST_MAGIC_V2.len())]));
    };
    // Torn trailing record (crash mid-append) is ignored, matching the
    // commit protocol: the epoch never became visible.
    body.chunks_exact(ManifestRecord::WIRE_LEN_V2)
        .map(ManifestRecord::from_bytes_v2)
        .collect()
}

/// Append one record, durably (O_APPEND + fsync). Creates the manifest
/// with its magic header on first use.
pub fn append(path: &Path, record: ManifestRecord) -> io::Result<()> {
    append_batch(path, &[record])
}

/// Append a batch of records as one durable commit: every record is written
/// in order and the file is fsynced **once**, so N retirements (or a
/// coordinated group's worth of commits) cost one manifest fsync instead of
/// N. The batch is all-or-nothing under the same torn-tail rule as single
/// appends: a crash mid-batch leaves a tear that readers ignore and the
/// next append truncates away — so callers must not treat *any* record of
/// the batch as committed until `append_batch` returns.
pub fn append_batch(path: &Path, records: &[ManifestRecord]) -> io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    let body: Vec<u8> = records.iter().flat_map(|r| r.to_bytes_v2()).collect();
    // Peek only the magic — appends must stay O(1) in manifest size.
    let mut magic = [0u8; 8];
    match File::open(path) {
        Ok(mut f) => {
            f.read_exact(&mut magic)?;
            if magic != *MANIFEST_MAGIC_V2 {
                return Err(bad_magic(&magic));
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            // First use: build the file aside and rename it in. Creating
            // the manifest in place would let a concurrent reader (e.g. a
            // `chain()` racing the very first commit) open it between
            // creation and the magic write and reject the 0-byte file as
            // foreign; with the rename a reader sees NotFound (empty log)
            // or the complete file, never anything between.
            let tmp = path.with_extension("new");
            let mut f = File::create(&tmp)?;
            f.write_all(MANIFEST_MAGIC_V2)?;
            f.write_all(&body)?;
            f.sync_all()?;
            return std::fs::rename(&tmp, path);
        }
        Err(e) => return Err(e),
    }
    // A crash mid-append can leave a torn trailing record. Readers ignore
    // it, but appending *after* it would misalign every future record —
    // truncate the tear away before the new commit lands.
    let len = std::fs::metadata(path)?.len();
    let torn = (len - magic.len() as u64) % ManifestRecord::WIRE_LEN_V2 as u64;
    if torn != 0 {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len - torn)?;
        f.sync_all()?;
    }
    let mut f = OpenOptions::new().append(true).open(path)?;
    f.write_all(&body)?;
    f.sync_all()
}

/// Read all complete records; a torn trailing record (crash mid-append) is
/// ignored, matching the commit protocol.
pub fn read(path: &Path) -> io::Result<Vec<ManifestRecord>> {
    match read_raw(path)? {
        None => Ok(Vec::new()),
        Some(buf) => parse(&buf),
    }
}

/// The live chain implied by a record log: fold commits, compactions and
/// retirements into the record list a restore may replay, ascending by
/// epoch.
///
/// * `Delta{e}` adds `e`;
/// * `Full{e}` replaces every live epoch `<= e` with one full entry at `e`
///   (compaction always folds the live prefix);
/// * `CompactedInto{e}` removes `e`.
pub fn fold_live(records: &[ManifestRecord]) -> Vec<ManifestRecord> {
    let mut live: std::collections::BTreeMap<u64, ManifestRecord> =
        std::collections::BTreeMap::new();
    for r in records {
        match r.kind {
            RecordKind::Delta => {
                live.insert(r.epoch, *r);
            }
            RecordKind::Full => {
                live.retain(|&e, _| e > r.epoch);
                live.insert(r.epoch, *r);
            }
            RecordKind::CompactedInto => {
                live.remove(&r.epoch);
            }
        }
    }
    live.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aickpt-manifest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("MANIFEST")
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = tmp();
        let _ = std::fs::remove_file(&path);
        assert!(read(&path).unwrap().is_empty(), "missing file = no records");
        let r1 = ManifestRecord::delta(1, 10, 40960);
        let r2 = ManifestRecord::delta(2, 3, 12288);
        append(&path, r1).unwrap();
        append(&path, r2).unwrap();
        assert_eq!(read(&path).unwrap(), vec![r1, r2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kinded_records_round_trip() {
        let path = tmp();
        let _ = std::fs::remove_file(&path);
        let records = vec![
            ManifestRecord::delta(1, 4, 64),
            ManifestRecord::delta(2, 1, 16),
            ManifestRecord::full(2, 5, 80, 1),
            ManifestRecord::compacted_into(3, 0),
        ];
        for r in &records {
            append(&path, *r).unwrap();
        }
        assert_eq!(read(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp();
        let _ = std::fs::remove_file(&path);
        let r = ManifestRecord::delta(7, 1, 8);
        append(&path, r).unwrap();
        // Simulate a crash mid-append: write half a record.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0u8; 10]).unwrap();
        }
        assert_eq!(read(&path).unwrap(), vec![r], "torn record dropped");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_torn_tail_realigns() {
        let path = tmp();
        let _ = std::fs::remove_file(&path);
        let r1 = ManifestRecord::delta(1, 1, 8);
        append(&path, r1).unwrap();
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 21]).unwrap(); // crash mid-append
        }
        let r2 = ManifestRecord::full(1, 1, 8, 1);
        append(&path, r2).unwrap();
        assert_eq!(read(&path).unwrap(), vec![r1, r2], "tear excised");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_an_error() {
        let path = tmp();
        std::fs::write(&path, b"NOTMAGIC____________________").unwrap();
        assert!(read(&path).is_err());
        assert!(append(&path, ManifestRecord::delta(1, 0, 0)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_batch_commits_all_records_in_order() {
        let path = tmp();
        let _ = std::fs::remove_file(&path);
        let batch = vec![
            ManifestRecord::delta(1, 1, 8),
            ManifestRecord::compacted_into(1, 0),
            ManifestRecord::delta(2, 2, 16),
        ];
        append_batch(&path, &batch).unwrap();
        assert_eq!(read(&path).unwrap(), batch);
        // Empty batch is a no-op, even on a missing file.
        append_batch(&path, &[]).unwrap();
        assert_eq!(read(&path).unwrap().len(), 3);
        // A later batch appends after the existing records.
        append_batch(&path, &[ManifestRecord::delta(3, 1, 8)]).unwrap();
        assert_eq!(read(&path).unwrap().len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fold_live_applies_compactions() {
        let log = vec![
            ManifestRecord::delta(1, 1, 8),
            ManifestRecord::delta(2, 1, 8),
            ManifestRecord::delta(3, 1, 8),
            ManifestRecord::delta(4, 1, 8),
            // Compaction of 1..=3 committed while epoch 4 already exists.
            ManifestRecord::full(3, 3, 24, 1),
            // Epoch 4 drained to another tier.
            ManifestRecord::compacted_into(4, 0),
        ];
        let kinds = |rs: &[ManifestRecord]| {
            fold_live(rs)
                .iter()
                .map(|r| (r.epoch, r.kind))
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(&log), vec![(3, RecordKind::Full)]);
        assert_eq!(
            kinds(&log[..5]),
            vec![(3, RecordKind::Full), (4, RecordKind::Delta)]
        );
        assert_eq!(
            kinds(&log[..3]),
            vec![
                (1, RecordKind::Delta),
                (2, RecordKind::Delta),
                (3, RecordKind::Delta)
            ]
        );
        // The live full record keeps its own counts, not the delta's.
        assert_eq!(fold_live(&log)[0].records, 3);
    }
}
