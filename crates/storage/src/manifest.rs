//! The file backend's commit manifest — the `AICKMAN3` schema of the
//! [commit log](crate::log): which epochs are durably complete and how the
//! chain has been compacted.
//!
//! An epoch's segment file only "counts" once its manifest record exists —
//! the record is appended *after* the segment is fsynced, so a crash during
//! checkpointing can never yield a half-written checkpoint that restore
//! would trust. How records reach the file, and what a torn or corrupt one
//! means, is [`log`]'s business; this module only says what a
//! record *is* and how a record list folds into the live chain.
//!
//! ## Payload (33 bytes, integers little-endian)
//!
//! ```text
//! [kind u8][epoch u64][records u64][payload_bytes u64][aux u64]
//! ```
//!
//!   - [`RecordKind::Delta`] — an incremental epoch commit;
//!   - [`RecordKind::Full`] — epoch `epoch` is a *full* segment covering
//!     every live epoch `aux ..= epoch`; it supersedes all earlier live
//!     epochs (appended as the atomic commit point of a compaction);
//!   - [`RecordKind::CompactedInto`] — epoch `epoch` was retired from this
//!     backend; `aux` names the epoch that absorbed it (0 when it was
//!     drained to another tier rather than folded locally).
//!
//! There is exactly one format: the un-CRC'd `AICKMAN2` is rejected like
//! any foreign magic.

use std::io;
use std::path::Path;

use crate::log;

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
}

impl log::Record for ManifestRecord {
    const MAGIC: &'static [u8; 8] = b"AICKMAN3";
    const PAYLOAD_LEN: usize = 33;

    fn encode(&self, out: &mut [u8]) {
        out[0] = self.kind.to_wire();
        out[1..9].copy_from_slice(&self.epoch.to_le_bytes());
        out[9..17].copy_from_slice(&self.records.to_le_bytes());
        out[17..25].copy_from_slice(&self.payload_bytes.to_le_bytes());
        out[25..33].copy_from_slice(&self.aux.to_le_bytes());
    }

    fn decode(b: &[u8]) -> io::Result<Self> {
        Ok(Self {
            kind: RecordKind::from_wire(b[0])?,
            epoch: u64::from_le_bytes(b[1..9].try_into().unwrap()),
            records: u64::from_le_bytes(b[9..17].try_into().unwrap()),
            payload_bytes: u64::from_le_bytes(b[17..25].try_into().unwrap()),
            aux: u64::from_le_bytes(b[25..33].try_into().unwrap()),
        })
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

/// Rewrite the log at `path` so `epoch`'s latest commit record carries a
/// wrong record count under a *valid* CRC — the body of the file backend's
/// `corrupt_manifest_count` test helper, kept beside the schema it damages.
pub(crate) fn miscount(path: &Path, epoch: u64) -> io::Result<()> {
    let mut records: Vec<ManifestRecord> = log::read(path)?;
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
    std::fs::remove_file(path)?;
    log::append(path, &records).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::log::Record;

    #[test]
    fn every_kind_round_trips_through_its_payload() {
        for record in [
            ManifestRecord::delta(1, 4, 64),
            ManifestRecord::full(2, 5, 80, 1),
            ManifestRecord::compacted_into(3, 0),
            ManifestRecord::delta(u64::MAX, u64::MAX, u64::MAX),
        ] {
            let mut payload = [0u8; ManifestRecord::PAYLOAD_LEN];
            record.encode(&mut payload);
            assert_eq!(ManifestRecord::decode(&payload).unwrap(), record);
        }
    }

    #[test]
    fn an_unknown_kind_is_invalid_data_not_a_tear() {
        let mut payload = [0u8; ManifestRecord::PAYLOAD_LEN];
        ManifestRecord::delta(1, 1, 8).encode(&mut payload);
        payload[0] = 3;
        let err = ManifestRecord::decode(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
