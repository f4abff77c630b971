//! The storage backend abstraction (§3.2: "The page manager is designed in a
//! modular fashion such that it is easy to plug in different storage
//! backends where the dirty pages can be committed").
//!
//! A backend persists *epochs*: for each checkpoint, a set of
//! `(page id, page bytes)` records, finished atomically. Restore walks
//! epochs oldest-to-newest and applies records latest-wins (incremental
//! checkpointing semantics).
//!
//! ## The multi-stream write contract
//!
//! Committing an epoch goes through a per-epoch [`EpochWriter`] session so
//! that several committer streams can feed one epoch concurrently:
//!
//! * [`StorageBackend::begin_epoch`] opens the session (at most one may be
//!   open per backend; epoch numbers must be strictly increasing);
//! * [`EpochWriter::write_pages`] appends a *batch* of page records and may
//!   be called from any number of threads concurrently — implementations
//!   serialise internally as needed;
//! * [`EpochWriter::finish`] is the single atomic commit barrier: it is
//!   called exactly once, after every `write_pages` call has returned, and
//!   must make the epoch durable before returning (the paper's
//!   "successfully committed to stable storage");
//! * [`EpochWriter::abort`] discards the session on the error path — the
//!   epoch must never become visible to `epochs`/`read_epoch`. Dropping a
//!   writer without finishing aborts implicitly.
//!
//! Record order *within* an epoch is unspecified when multiple streams
//! write concurrently. That is sound because the engine commits each page
//! at most once per checkpoint, so latest-wins reconstruction never depends
//! on intra-epoch order. Single-stream writers (tests, `write_epoch`)
//! still observe their own write order on `read_epoch`.
//!
//! ## The chain lifecycle (compaction + tiering)
//!
//! An incremental chain grows one delta segment per checkpoint, so restore
//! cost and segment count grow without bound. Two trait operations bound
//! them:
//!
//! * [`StorageBackend::compact`] folds the live chain prefix `..= up_to`
//!   into a single **full** segment stored under epoch `up_to` (latest-wins
//!   merge) and garbage-collects the superseded segments. Restore then
//!   replays from the newest full segment instead of epoch 0. Restore
//!   points *below* the compaction horizon are intentionally given up —
//!   that is the trade that bounds the chain.
//! * [`StorageBackend::drain_one`] moves the oldest epoch of a fast tier
//!   toward a slower durable tier (see `TieredBackend`); it is a no-op for
//!   single-tier backends.
//!
//! `compact` has **one body and no overrides**: it materialises the merged
//! image in memory over the backend's *own* view (`chain`/`read_epoch` — a
//! parity wrapper's filtered view, a composite's union of its children) and
//! hands it to the backend's own [`StorageBackend::install_compacted`] — the
//! one primitive a backend must implement (atomically: after a crash either
//! the old chain or the new full segment is visible, never neither) to opt
//! into compaction. Whatever a backend needs to hold before a fold may
//! commit (a tier's "drained first", a policy's "full redundancy or
//! refuse") is a precondition of its `install_compacted`.
//!
//! ## Required core, provided rest, one delegate, named children
//!
//! Four methods are required; everything else is provided, and every
//! provided default forwards to [`StorageBackend::inner`] when the backend
//! names one. A transparent wrapper is therefore the four required methods
//! plus `inner()`; whatever else it overrides is, by construction, what it
//! changes — there is no forwarding to forget.
//!
//! A multi-child composite (`ReplicatedBackend`, `TieredBackend`,
//! `PolicyBackend`), for which no single child can answer, names its
//! children instead: [`StorageBackend::children`], in read-preference
//! order. Every provided default then applies the one routing rule of
//! the `route` module — reads ask the children in order, healing rot a peer
//! can repair before stepping over it; listings aggregate; everything else
//! reaches every child that holds the epoch; repair is one two-pass
//! algorithm. A composite is the four required methods, `children()`, and
//! what it adds (a drain queue, a retirement ledger).

use std::collections::BTreeMap;
use std::io;
use std::ops::ControlFlow;

use crate::errors::{classify, FaultClass};
use crate::io::IoStats;
use crate::route;
use crate::scrub::{RecordMeta, RepairReport, VerifyReport};

/// Reserved record id under which an epoch carries its writer's metadata
/// (the runtime stores its region layout there). It is a record like any
/// other — committed, checksummed, replicated, parity-covered, scrubbed,
/// folded latest-wins and retired with its epoch — so backends never look
/// at it; only consumers that want *pages* skip it, through [`is_page`].
/// The bit above it is [`crate::parity::PARITY_FLAG`].
pub const META_RECORD: u64 = 1 << 62;

/// Whether a record id names an application page, as opposed to a reserved
/// record ([`META_RECORD`], parity groups).
pub fn is_page(id: u64) -> bool {
    id < META_RECORD
}

/// One page of a [`StorageBackend::read_pages_at`] run: its verified
/// payload and, when the backend has it, the CRC-64 of exactly that payload
/// (a restore seeds its content-filter digest from it); `None` when the
/// epoch holds no record for the page.
pub type PageRead<'a> = Option<(&'a [u8], Option<u64>)>;

/// One open epoch-commit session. See the module docs for the contract.
pub trait EpochWriter: Send + Sync {
    /// Append a batch of page records. Thread-safe: committer streams call
    /// this concurrently on the same session.
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()>;

    /// Durably complete the epoch (the atomic commit barrier). Must be
    /// called at most once, after all `write_pages` calls have returned.
    fn finish(&self) -> io::Result<()>;

    /// Discard the epoch (committer error path): it must never become
    /// visible to `epochs`/`read_epoch`.
    fn abort(&self) -> io::Result<()>;
}

/// How a live epoch's segment relates to the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// Full image: restore may start here, ignoring everything earlier.
    Full,
    /// Incremental delta over the preceding live epoch.
    Delta,
}

/// One live epoch of a backend's chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainEntry {
    /// Epoch number.
    pub epoch: u64,
    /// Full or delta segment.
    pub kind: EpochKind,
}

/// The segments a restore of checkpoint `up_to` replays, oldest first: the
/// newest full segment at or below `up_to` and every delta after it, up to
/// and including `up_to` (everything earlier is already folded in and may no
/// longer exist). `chain` is ascending, as [`StorageBackend::chain`] returns
/// it. `NotFound` when `up_to` is not a live epoch — never committed, or
/// compacted away.
pub fn replay_window(chain: &[ChainEntry], up_to: u64) -> io::Result<&[ChainEntry]> {
    let live = &chain[..chain.partition_point(|c| c.epoch <= up_to)];
    if live.last().map(|c| c.epoch) != Some(up_to) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("checkpoint {up_to} was never committed (or was compacted away)"),
        ));
    }
    let start = live
        .iter()
        .rposition(|c| c.kind == EpochKind::Full)
        .unwrap_or(0);
    Ok(&live[start..])
}

/// Outcome of one [`StorageBackend::compact`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Oldest epoch folded.
    pub from: u64,
    /// Epoch now holding the full segment.
    pub into: u64,
    /// Superseded segments removed (0 when the call was a no-op).
    pub segments_removed: u64,
    /// Payload bytes of the superseded segments.
    pub bytes_before: u64,
    /// Payload bytes of the new full segment (≤ `bytes_before`: the
    /// latest-wins merge keeps at most one version per page).
    pub bytes_after: u64,
}

impl CompactionStats {
    /// Payload bytes the compaction freed.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

/// A sink + source of checkpoint epochs. `Send + Sync`: the runtime shares
/// one backend between the checkpoint requester, N committer streams and
/// restore.
///
/// Four methods are **required** (`begin_epoch`, `epochs`, `read_epoch`,
/// `bytes_written`). Every other method is
/// **provided**, and every provided default has the same shape: forward to
/// [`StorageBackend::inner`] when there is one, else route through
/// [`StorageBackend::children`] when there are any, else the leaf behaviour
/// its doc describes. A leaf backend overrides what it can do better than
/// the leaf default; a wrapper or composite overrides only what it changes.
pub trait StorageBackend: Send + Sync {
    /// Open the commit session for a new epoch. Epoch numbers must be
    /// strictly increasing; at most one epoch may be open at a time.
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>>;

    /// All *finished* epochs, ascending.
    fn epochs(&self) -> io::Result<Vec<u64>>;

    /// Stream the records of a finished epoch, verifying integrity.
    /// `visit(page, bytes)` is called per record.
    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()>;

    /// Total payload bytes written since creation (diagnostics; excludes
    /// framing overhead). Implementations keep this in atomics so the count
    /// stays exact under concurrent streams.
    fn bytes_written(&self) -> u64;

    /// The single backend this one wraps, if it is a transparent wrapper.
    /// Returning `Some` turns every provided method below into a forward to
    /// that backend, so a wrapper is the four required methods, `inner`, and
    /// the methods whose behaviour it actually changes. Leaf backends and
    /// multi-child composites (which name [`StorageBackend::children`]
    /// instead) keep the default `None`.
    fn inner(&self) -> Option<&dyn StorageBackend> {
        None
    }

    /// The backends a multi-child composite (replicas, tiers, policy
    /// levels) is made of, in read-preference order, each with the name
    /// reports use for it. Consulted only when [`StorageBackend::inner`] is
    /// `None`; naming any turns every provided method below into the one
    /// routing rule of the `route` module. Empty (the default) for leaves and
    /// one-child wrappers.
    fn children(&self) -> Vec<(&str, &dyn StorageBackend)> {
        Vec::new()
    }

    /// The highest epoch number this backend has ever *accounted for* —
    /// committed, compacted away or retired. New epochs must exceed it.
    /// The leaf default derives it from [`StorageBackend::epochs`], which is
    /// only correct for backends that never burn numbers; backends with a
    /// retirement history (manifest, high-water mark) override it so a
    /// fresh process resumes numbering above retired epochs instead of
    /// colliding with them. A composite reports the highest mark of its
    /// children. `None` means the backend is untouched.
    fn high_water(&self) -> io::Result<Option<u64>> {
        if let Some(inner) = self.inner() {
            return inner.high_water();
        }
        match route::composite(self) {
            Some(kids) => route::high_water(&kids),
            None => Ok(self.epochs()?.last().copied()),
        }
    }

    /// Page ids recorded in a finished epoch, in record (arrival) order,
    /// *without* materialising payloads. The demand-paged restore path uses
    /// this to build its locator and to derive the prefetch order. The
    /// leaf default streams the epoch and discards payloads; backends with a
    /// segment index override it to walk frames only. A composite applies
    /// the read rule.
    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        if let Some(inner) = self.inner() {
            return inner.epoch_page_ids(epoch);
        }
        if let Some(kids) = route::composite(self) {
            return route::read(self, &kids, epoch, |child| child.epoch_page_ids(epoch));
        }
        let mut pages = Vec::new();
        self.read_epoch(epoch, &mut |p, _| pages.push(p))?;
        Ok(pages)
    }

    /// Random-access read of one page's payload from a finished epoch
    /// (decoded, integrity-checked), or `None` when the epoch holds no
    /// record for `page`. When an epoch somehow carries duplicate records
    /// for a page the latest one wins, matching `read_epoch` replay
    /// semantics. The leaf default streams the whole epoch; backends with a
    /// segment index override it to seek straight to the record. A
    /// composite applies the read rule.
    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        if let Some(inner) = self.inner() {
            return inner.read_page_at(epoch, page);
        }
        if let Some(kids) = route::composite(self) {
            return route::read(self, &kids, epoch, |child| child.read_page_at(epoch, page));
        }
        let mut hit: Option<Vec<u8>> = None;
        self.read_epoch(epoch, &mut |p, d| {
            if p == page {
                hit = Some(d.to_vec());
            }
        })?;
        Ok(hit)
    }

    /// Read `pages` of a finished epoch as one run: `visit` gets each page
    /// in order with what [`StorageBackend::read_page_at`] would return for
    /// it, plus the record's CRC-64 when the backend read one covering
    /// exactly that payload, and says whether the run goes on. A page's
    /// error is visited, not returned, and ends the run: no later page is
    /// visited. `buf` is scratch the caller owns and reuses across runs.
    ///
    /// The default asks [`StorageBackend::read_page_at`] page by page (so a
    /// wrapper's own read rule, fault gate or fallback applies to each page
    /// exactly as before, and no CRC is reported); the file backend reads
    /// each run of adjacent records with one positioned read into `buf`.
    fn read_pages_at(
        &self,
        epoch: u64,
        pages: &[u64],
        buf: &mut Vec<u8>,
        visit: &mut dyn FnMut(u64, io::Result<PageRead<'_>>) -> ControlFlow<()>,
    ) {
        let _ = buf;
        for &page in pages {
            let flow = match self.read_page_at(epoch, page) {
                Ok(data) => visit(page, Ok(data.as_deref().map(|d| (d, None)))),
                Err(e) => {
                    let _ = visit(page, Err(e));
                    ControlFlow::Break(())
                }
            };
            if flow.is_break() {
                return;
            }
        }
    }

    /// Physical payload bytes stored after per-record encoding
    /// (diagnostics). Leaf backends without a compression stage report
    /// [`StorageBackend::bytes_written`]. `bytes_stored <= bytes_written`
    /// whenever compression is active (the encoder never grows a record).
    /// A composite reports its first child's: logical bytes, not
    /// multiplied by the copies it keeps.
    fn bytes_stored(&self) -> u64 {
        if let Some(inner) = self.inner() {
            return inner.bytes_stored();
        }
        match self.children().first() {
            Some((_, first)) => first.bytes_stored(),
            None => self.bytes_written(),
        }
    }

    /// The live chain with per-epoch kinds, ascending. The leaf default
    /// derives it from [`StorageBackend::epochs`]: all deltas
    /// (pre-compaction semantics — restore replays everything). A composite
    /// reports the union of its children's chains, `Full` winning.
    fn chain(&self) -> io::Result<Vec<ChainEntry>> {
        if let Some(inner) = self.inner() {
            return inner.chain();
        }
        if let Some(kids) = route::composite(self) {
            return route::chain(&kids).map(|(chain, _)| chain);
        }
        Ok(self
            .epochs()?
            .into_iter()
            .map(|epoch| ChainEntry {
                epoch,
                kind: EpochKind::Delta,
            })
            .collect())
    }

    /// Fold the live chain prefix `..= up_to` into one full segment stored
    /// under epoch `up_to`, superseding (and reclaiming) every earlier live
    /// epoch. Restore to epochs below `up_to` becomes impossible; restore
    /// to `up_to` and beyond is byte-identical to the uncompacted chain.
    ///
    /// One body, never overridden and never forwarded: the latest-wins
    /// merge runs over *this* backend's own `chain`/`read_epoch` and
    /// commits through its own [`StorageBackend::install_compacted`], so a
    /// wrapper's view (parity ids filtered out and re-emitted, an injected
    /// fault at the install, a throttled read) and a composite's union view
    /// are what gets folded, and the complete image is what every child
    /// installs. The chain is read once, with every child of a composite
    /// below answering, and that read is the probe: while a child cannot be
    /// asked the fold is refused — "requires full redundancy" — before any
    /// record is read (the install would refuse anyway, a degraded stack is
    /// asked again after every checkpoint, and a union missing a child would
    /// fold only the others' window). Safe to call while a *later* epoch
    /// session is open — the open epoch is not part of the committed chain
    /// yet.
    fn compact(&self, up_to: u64) -> io::Result<CompactionStats> {
        compact_latest_wins(self, up_to)
    }

    /// Whether this backend can fold its chain (cheap capability probe
    /// [`StorageBackend::compact`] checks before doing any work, and
    /// policy-driven callers check before scheduling folds at all). Leaf
    /// backends override it to `true` together with
    /// [`StorageBackend::install_compacted`]; a composite can when all its
    /// children can.
    fn supports_compaction(&self) -> bool {
        if let Some(inner) = self.inner() {
            return inner.supports_compaction();
        }
        let kids = self.children();
        !kids.is_empty() && kids.iter().all(|(_, child)| child.supports_compaction())
    }

    /// Compaction primitive behind [`StorageBackend::compact`]: atomically
    /// replace the live epochs `from ..= into` with one full segment at
    /// `into` containing `records` (borrowed, the same batch shape
    /// [`EpochWriter::write_pages`] takes, so a wrapper can append records
    /// of its own without copying the image), then reclaim the superseded
    /// segments. Unsupported on leaves by default — implementing this (plus
    /// [`StorageBackend::supports_compaction`]) opts a backend into
    /// latest-wins compaction. A composite installs on every child that
    /// holds `into`, and refuses before touching any unless every child can
    /// be asked.
    fn install_compacted(&self, from: u64, into: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        if let Some(inner) = self.inner() {
            return inner.install_compacted(from, into, records);
        }
        if let Some(kids) = route::composite(self) {
            return route::install_compacted(&kids, from, into, records);
        }
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "backend does not support compaction",
        ))
    }

    /// Retire a batch of committed epochs from this backend (tier
    /// eviction, group abort, orphan sweeps) — the one retirement entry
    /// point. The caller must guarantee the epochs are durable elsewhere or
    /// dispensable: dropping a delta from the middle of a single-tier chain
    /// corrupts restore. Backends with a commit log append all retirement
    /// records under **one** log fsync; a composite hands each child that
    /// lists any of them its share as one batch, and refuses before
    /// anything is retired when a child cannot be asked (it would come back
    /// listing what its peers retired) or, `NotFound`, when no child lists
    /// one of them. The batch is not
    /// atomic across backends: on error, part of `epochs` may already be
    /// retired. Unsupported on leaves by default.
    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        if let Some(inner) = self.inner() {
            return inner.remove_epochs(epochs);
        }
        if let Some(kids) = route::composite(self) {
            return route::remove_epochs(&kids, epochs, false);
        }
        if epochs.is_empty() {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("backend cannot retire epochs {epochs:?}"),
        ))
    }

    /// Move the oldest not-yet-drained epoch one tier outward (see
    /// `TieredBackend`), returning it, or `None` when there is no backlog.
    /// Single-tier leaves have no backlog; a composite drains each child
    /// once.
    fn drain_one(&self) -> io::Result<Option<u64>> {
        if let Some(inner) = self.inner() {
            return inner.drain_one();
        }
        let mut drained = None;
        let mut first_err = None;
        for (_, child) in self.children() {
            match child.drain_one() {
                Ok(epoch) => drained = drained.or(epoch),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(drained), Err)
    }

    /// Epochs currently waiting in the drain backlog (committed to a fast
    /// tier but not yet evicted to the durable one). Always 0 for
    /// single-tier leaves, the longest child backlog for a composite; a
    /// drain scheduler reads this to seed and balance its arbitration.
    /// Best-effort: the value may be stale by the time the caller acts on
    /// it.
    fn drain_backlog(&self) -> usize {
        if let Some(inner) = self.inner() {
            return inner.drain_backlog();
        }
        let backlogs = self.children().into_iter().map(|(_, c)| c.drain_backlog());
        backlogs.max().unwrap_or(0)
    }

    /// Syscall-level I/O accounting (vectored writes, fsyncs, manifest
    /// append coalescing). Zero for leaves without a syscall path (memory,
    /// null); composites sum their children — every copy pays its own
    /// syscalls and fsyncs, unlike `bytes_written`, which stays logical.
    fn io_stats(&self) -> IoStats {
        if let Some(inner) = self.inner() {
            return inner.io_stats();
        }
        let each = self.children().into_iter().map(|(_, c)| c.io_stats());
        each.fold(IoStats::default(), IoStats::merged)
    }

    /// Validate every stored record of a finished epoch — per-record CRCs,
    /// decodability, manifest↔segment agreement — *without* materialising
    /// a restore, and report the damage instead of erroring on the first
    /// bad byte. Corruption is a **finding**, not a failure: only
    /// transport-level errors (epoch missing, tier unreachable) return
    /// `Err`.
    ///
    /// The leaf default streams [`StorageBackend::read_epoch`]; when that
    /// trips an integrity error it falls back to per-page random reads to
    /// localise which records are damaged. Backends with a record index
    /// (the file backend's segment trailers) override this to walk records
    /// directly and to keep going past damage the streaming path cannot
    /// step over. A composite merges the findings of every child that
    /// holds the epoch.
    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        if let Some(inner) = self.inner() {
            return inner.verify_epoch(epoch);
        }
        if let Some(kids) = route::composite(self) {
            return route::verify_epoch(&kids, epoch);
        }
        let mut report = VerifyReport::new(epoch);
        let stream = self.read_epoch(epoch, &mut |_, d| {
            report.records += 1;
            report.bytes += d.len() as u64;
        });
        let err = match stream {
            Ok(()) => return Ok(report),
            Err(e) if classify(&e) == FaultClass::Corrupt => e,
            Err(e) => return Err(e),
        };
        // The stream died on damage: localise it page by page. Counts are
        // rebuilt from scratch — the partial stream tally double-counts
        // nothing that way.
        report.records = 0;
        report.bytes = 0;
        let ids = match self.epoch_page_ids(epoch) {
            Ok(ids) => ids,
            Err(_) => {
                // Not even the page listing survives: structural damage.
                report.structural.push(err.to_string());
                return Ok(report);
            }
        };
        let mut seen = std::collections::BTreeSet::new();
        for id in ids {
            if !seen.insert(id) {
                continue;
            }
            match self.read_page_at(epoch, id) {
                Ok(Some(d)) => {
                    report.records += 1;
                    report.bytes += d.len() as u64;
                }
                Ok(None) => {}
                Err(e) if classify(&e) == FaultClass::Corrupt => report.note_corrupt(id),
                Err(e) => return Err(e),
            }
        }
        if report.is_clean() {
            // Every record reads fine individually, yet the stream failed:
            // the damage is structural (e.g. the manifest's record count
            // disagrees with the segments).
            report.structural.push(err.to_string());
        }
        Ok(report)
    }

    /// Atomically replace a finished epoch's stored records with
    /// `records`, preserving the epoch's chain kind (unlike
    /// [`StorageBackend::install_compacted`], which folds to a full
    /// segment). This is the rewrite primitive repair paths install
    /// healed bytes through; it must work even when the existing segment
    /// is unreadable. Unsupported on leaves by default; a composite
    /// rewrites every child that holds the epoch.
    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, &[u8])]) -> io::Result<()> {
        if let Some(inner) = self.inner() {
            return inner.rewrite_epoch(epoch, records);
        }
        if let Some(kids) = route::composite(self) {
            let rewrite = |(_, child): route::Child<'_>| child.rewrite_epoch(epoch, records);
            return route::each_holder(&kids, epoch, rewrite).map(drop);
        }
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("backend cannot rewrite epoch {epoch}"),
        ))
    }

    /// Repair a damaged epoch from the best surviving redundant source
    /// (replica member, parity reconstruction, another tier or policy
    /// level), rewriting the damaged bytes in place via
    /// [`StorageBackend::rewrite_epoch`]. A composite runs the two-pass
    /// repair of the `route` module over its children. Leaves with no
    /// redundancy fail by default — the scrubber then quarantines the epoch
    /// rather than serving bad bytes.
    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        if let Some(inner) = self.inner() {
            return inner.repair_epoch(epoch);
        }
        if let Some(kids) = route::composite(self) {
            return route::repair_epoch(&kids, epoch);
        }
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("no redundant source to repair epoch {epoch}"),
        ))
    }

    /// Frame metadata (uncompressed length, stored CRC) of a page's record
    /// in a finished epoch, without reading or validating its payload.
    /// `None` when the epoch has no record for the page, or when the leaf
    /// keeps no per-record metadata (the default). A composite applies the
    /// read rule.
    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        if let Some(inner) = self.inner() {
            return inner.record_meta(epoch, page);
        }
        if let Some(kids) = route::composite(self) {
            return route::read(self, &kids, epoch, |child| child.record_meta(epoch, page));
        }
        Ok(None)
    }
}

// A boxed backend is a transparent wrapper around its pointee: composed
// stacks (`ParityBackend<Box<dyn StorageBackend>>`, the policy layer's
// per-level stores) hold trait objects.
impl StorageBackend for Box<dyn StorageBackend> {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        (**self).begin_epoch(epoch)
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        (**self).epochs()
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        (**self).read_epoch(epoch, visit)
    }

    fn bytes_written(&self) -> u64 {
        (**self).bytes_written()
    }

    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&**self)
    }

    fn read_pages_at(
        &self,
        epoch: u64,
        pages: &[u64],
        buf: &mut Vec<u8>,
        visit: &mut dyn FnMut(u64, io::Result<PageRead<'_>>) -> ControlFlow<()>,
    ) {
        (**self).read_pages_at(epoch, pages, buf, visit)
    }
}

/// The body of [`StorageBackend::compact`]: merge the live chain prefix
/// `..= up_to` through `backend`'s own `chain`/`read_epoch` and commit the
/// image through its own `install_compacted`.
fn compact_latest_wins<B: StorageBackend + ?Sized>(
    backend: &B,
    up_to: u64,
) -> io::Result<CompactionStats> {
    // Refuse what cannot install *before* materialising the merge: an
    // unsupported backend, or — after every checkpoint of a degraded run —
    // a composite with a child that cannot be asked. The one chain read,
    // every child answering, is that probe.
    if !backend.supports_compaction() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "backend does not support compaction",
        ));
    }
    let chain = route::chain_of_all(backend).map_err(|e| {
        let why = format!("compact({up_to}) requires full redundancy: {e}");
        io::Error::new(e.kind(), why)
    })?;
    let live: Vec<ChainEntry> = chain.into_iter().filter(|c| c.epoch <= up_to).collect();
    let Some(&last) = live.last() else {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("compact({up_to}): no live epoch at or below it"),
        ));
    };
    if last.epoch != up_to {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "compact({up_to}): epoch not live (newest live at or below is {})",
                last.epoch
            ),
        ));
    }
    if live.len() == 1 && last.kind == EpochKind::Full {
        // Already a lone full segment at the target: nothing to fold.
        return Ok(CompactionStats {
            from: up_to,
            into: up_to,
            ..CompactionStats::default()
        });
    }
    let from = live[0].epoch;
    let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut bytes_before = 0u64;
    for c in &live {
        backend.read_epoch(c.epoch, &mut |p, d| {
            bytes_before += d.len() as u64;
            pages.insert(p, d.to_vec());
        })?;
    }
    // One record per surviving page version, ascending by page id.
    let records: Vec<(u64, &[u8])> = pages.iter().map(|(p, d)| (*p, d.as_slice())).collect();
    backend.install_compacted(from, up_to, &records)?;
    Ok(CompactionStats {
        from,
        into: up_to,
        segments_removed: live.len() as u64,
        bytes_before,
        bytes_after: records.iter().map(|(_, d)| d.len() as u64).sum(),
    })
}

/// Borrow owned page records as the batch shape [`EpochWriter::write_pages`],
/// [`StorageBackend::install_compacted`] and
/// [`StorageBackend::rewrite_epoch`] take.
pub(crate) fn as_batch(records: &[(u64, Vec<u8>)]) -> Vec<(u64, &[u8])> {
    records.iter().map(|(p, d)| (*p, d.as_slice())).collect()
}

/// Convenience: write a full epoch from an iterator through a single stream
/// (used by tests and simple callers).
pub fn write_epoch<B: StorageBackend + ?Sized>(
    backend: &B,
    epoch: u64,
    pages: impl IntoIterator<Item = (u64, Vec<u8>)>,
) -> io::Result<()> {
    let writer = backend.begin_epoch(epoch)?;
    for (page, data) in pages {
        writer.write_pages(&[(page, &data)])?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use std::sync::Arc;

    #[test]
    fn write_epoch_helper_round_trips() {
        let b = MemoryBackend::new();
        write_epoch(&b, 1, vec![(3, vec![1, 2]), (5, vec![3, 4])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1]);
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(3, vec![1, 2]), (5, vec![3, 4])]);
    }

    #[test]
    fn concurrent_streams_commit_one_epoch() {
        let b = MemoryBackend::new();
        let writer: Arc<dyn EpochWriter> = Arc::from(b.begin_epoch(1).unwrap());
        std::thread::scope(|s| {
            for stream in 0..4u64 {
                let writer = Arc::clone(&writer);
                s.spawn(move || {
                    for i in 0..8u64 {
                        let page = stream * 8 + i;
                        let data = [page as u8; 16];
                        writer.write_pages(&[(page, &data)]).unwrap();
                    }
                });
            }
        });
        writer.finish().unwrap();
        let mut seen = Vec::new();
        b.read_epoch(1, &mut |p, d| seen.push((p, d[0]))).unwrap();
        seen.sort_unstable();
        assert_eq!(seen.len(), 32, "every stream's records landed");
        for (p, v) in seen {
            assert_eq!(v as u64, p, "no torn records under concurrency");
        }
        assert_eq!(b.bytes_written(), 32 * 16);
    }

    #[test]
    fn dropped_writer_aborts_epoch() {
        let b = MemoryBackend::new();
        {
            let w = b.begin_epoch(1).unwrap();
            w.write_pages(&[(0, &[1, 2, 3])]).unwrap();
            // Dropped without finish: implicit abort.
        }
        assert!(b.epochs().unwrap().is_empty());
        // The backend accepts a new session afterwards.
        write_epoch(&b, 1, vec![(0, vec![9])]).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1]);
    }
}
