//! The global commit manifest — the `AICKGLB1` schema of the storage
//! crate's [commit log](ai_ckpt_storage::log): which *group* epochs are
//! globally consistent, the phase-2 commit point of the two-phase protocol
//! in [`CheckpointGroup`](crate::CheckpointGroup).
//!
//! A group epoch only "counts" once its [`GlobalRecordKind::Commit`] record
//! exists: the record is appended *after* every rank durably finished the
//! epoch, so a crash at any instant leaves either the previous globally
//! consistent epoch (no record yet — the ranks' newer local epochs are
//! orphans that open-time recovery retires) or the new one. It is the same
//! log as the per-rank manifest, byte for byte: creation, appends, torn
//! tails and corrupt records are [`log`]'s business, and a corrupt record
//! fails the read — and so the group's open, before any rank epoch is
//! retired — instead of shortening the log.
//!
//! ## Payload (21 bytes, integers little-endian)
//!
//! ```text
//! [kind u8][epoch u64][ranks u32][aux u64]
//! ```

use std::io;
use std::path::Path;

use ai_ckpt_storage::log;

/// Magic prefix of the global manifest.
pub const GLOBAL_MAGIC: &[u8; 8] = b"AICKGLB1";

/// What a global record says about its group epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalRecordKind {
    /// Every rank durably committed the epoch: it is globally consistent
    /// and restorable.
    Commit,
    /// The group epoch was aborted (some rank failed phase 1); the number
    /// is burned and the already-finished ranks' local epochs were retired.
    Abort,
}

impl GlobalRecordKind {
    fn to_wire(self) -> u8 {
        match self {
            GlobalRecordKind::Commit => 0,
            GlobalRecordKind::Abort => 1,
        }
    }

    fn from_wire(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(GlobalRecordKind::Commit),
            1 => Ok(GlobalRecordKind::Abort),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown global record kind {other}"),
            )),
        }
    }
}

/// One global-manifest entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalRecord {
    /// Commit or abort.
    pub kind: GlobalRecordKind,
    /// Group epoch number (equals every rank's local epoch number for this
    /// checkpoint — the coordinator keeps ranks in numbering lockstep).
    pub epoch: u64,
    /// Group size when the record was appended (diagnostics; restore
    /// cross-checks it against the group it is asked to rebuild).
    pub ranks: u32,
    /// Kind-dependent companion: for [`GlobalRecordKind::Abort`], the index
    /// of the first rank that failed phase 1; 0 for commits.
    pub aux: u64,
}

impl GlobalRecord {
    /// A successful global commit.
    pub fn commit(epoch: u64, ranks: u32) -> Self {
        Self {
            kind: GlobalRecordKind::Commit,
            epoch,
            ranks,
            aux: 0,
        }
    }

    /// An aborted group epoch (`failed_rank` = first rank that failed).
    pub fn abort(epoch: u64, ranks: u32, failed_rank: u64) -> Self {
        Self {
            kind: GlobalRecordKind::Abort,
            epoch,
            ranks,
            aux: failed_rank,
        }
    }
}

impl log::Record for GlobalRecord {
    const MAGIC: &'static [u8; 8] = GLOBAL_MAGIC;
    const PAYLOAD_LEN: usize = 21;

    fn encode(&self, out: &mut [u8]) {
        out[0] = self.kind.to_wire();
        out[1..9].copy_from_slice(&self.epoch.to_le_bytes());
        out[9..13].copy_from_slice(&self.ranks.to_le_bytes());
        out[13..21].copy_from_slice(&self.aux.to_le_bytes());
    }

    fn decode(b: &[u8]) -> io::Result<Self> {
        Ok(Self {
            kind: GlobalRecordKind::from_wire(b[0])?,
            epoch: u64::from_le_bytes(b[1..9].try_into().unwrap()),
            ranks: u32::from_le_bytes(b[9..13].try_into().unwrap()),
            aux: u64::from_le_bytes(b[13..21].try_into().unwrap()),
        })
    }
}

/// Every committed record of the global manifest at `path`.
pub fn read(path: &Path) -> io::Result<Vec<GlobalRecord>> {
    log::read(path)
}

/// Durably append one record (the phase-2 commit point, or an abort)
/// through the group's handle on the log: one whose failed append could
/// not be undone refuses every later append until the group reopens.
pub fn append(log: &log::Log, record: GlobalRecord) -> io::Result<()> {
    log.append(&[record]).map(drop)
}

/// The newest globally consistent epoch of a record log, if any.
///
/// The log is append-ordered and the **last** record per epoch is
/// authoritative: a `Commit` whose append reached disk but whose success
/// was never observed (crash or I/O error after the write) gets a
/// compensating `Abort` appended by the coordinator, which then retires
/// the ranks' local epochs — the earlier `Commit` must not resurrect an
/// epoch whose segments are gone.
pub fn last_committed(records: &[GlobalRecord]) -> Option<u64> {
    let mut last: std::collections::HashMap<u64, GlobalRecordKind> =
        std::collections::HashMap::new();
    for r in records {
        last.insert(r.epoch, r.kind);
    }
    last.into_iter()
        .filter(|&(_, kind)| kind == GlobalRecordKind::Commit)
        .map(|(epoch, _)| epoch)
        .max()
}

/// The highest group epoch number the log has ever accounted for —
/// committed *or* aborted (aborted numbers stay burned: every rank's
/// engine consumed them).
pub fn high_water(records: &[GlobalRecord]) -> Option<u64> {
    records.iter().map(|r| r.epoch).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    use ai_ckpt_storage::log::Record;

    #[test]
    fn both_kinds_round_trip_through_their_payload() {
        for record in [
            GlobalRecord::commit(1, 4),
            GlobalRecord::abort(2, 4, 3),
            GlobalRecord::abort(u64::MAX, u32::MAX, u64::MAX),
        ] {
            let mut payload = [0u8; GlobalRecord::PAYLOAD_LEN];
            record.encode(&mut payload);
            assert_eq!(GlobalRecord::decode(&payload).unwrap(), record);
        }
        let mut payload = [0u8; GlobalRecord::PAYLOAD_LEN];
        payload[0] = 2;
        let err = GlobalRecord::decode(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "unknown kind");
    }
}
