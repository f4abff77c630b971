//! The checkpoint-group coordinator: N per-rank page managers driven
//! through a two-phase global commit, so a multi-rank job restores to one
//! globally consistent epoch — never a mix of per-rank states.
//!
//! ## The two-phase protocol
//!
//! [`CheckpointGroup::checkpoint`] is a collective (call it at a barrier,
//! with every rank's writers quiesced, exactly like the paper's per-rank
//! `CHECKPOINT`):
//!
//! 1. **Phase 1 — rank finish.** Every rank's manager takes checkpoint `e`
//!    (kick all, then wait all: the flushes interleave on the one
//!    [`FlushPool`] the group hosts every rank on — `committer_streams`
//!    workers plus a maintenance worker, whatever the rank count). A rank
//!    epoch is durable once its `EpochWriter::finish` committed it to the
//!    rank's manifest.
//! 2. **Phase 2 — global append.** Only after *every* rank committed does
//!    the coordinator append a [`GlobalRecord::commit`] to the `AICKGLB1`
//!    global manifest — the single atomic commit point of the group epoch.
//! 3. **Per-rank GC.** Group-driven maintenance (chain compaction under the
//!    group's [`CompactionPolicy`]) runs strictly after the global append
//!    and never folds past the globally committed horizon, so every rank
//!    can always replay the newest consistent epoch.
//!
//! If any rank fails phase 1, the group epoch aborts: already-finished
//! ranks retire their local epoch (`remove_epochs`), every rank owes the
//! epoch's pages to its next checkpoint
//! ([`PageManager::requeue_last_checkpoint`]), a
//! [`GlobalRecord::abort`] burns the number, and the error surfaces to the
//! caller. A crash anywhere in the protocol is recovered at
//! [`CheckpointGroup::open`]: rank-local epochs newer than the last global
//! commit are orphans (phase 1 survivors of a died coordinator) and are
//! retired before the managers come up.
//!
//! ## Rank namespacing
//!
//! Every rank owns a private namespace on shared storage. For the
//! file-system layout ([`CheckpointGroup::open_dir`]) that namespace is a
//! rank-prefixed subdirectory of one shared checkpoint root:
//!
//! ```text
//! root/GLOBAL             the AICKGLB1 global manifest (phase-2 commits)
//! root/rank_0000/         rank 0's segments + AICKMAN3 manifest
//! root/rank_0001/         rank 1's ...
//! ```
//!
//! so segment names can never collide across ranks, and each
//! rank's manifest/commit machinery is reused unchanged. Custom layouts
//! (memory tiers, throttled fabrics, failure injection) plug in through the
//! factory form of [`CheckpointGroup::open`], which also takes the global
//! manifest as the group's [`Log`] handle on it: `Log::new(path, None)`,
//! or a log whose syscalls a failure-injection leaf numbers — every create,
//! write, fsync, rename, directory fsync and unlink of `GLOBAL`, the
//! open's staging sweep included.
//!
//! ## Numbering lockstep
//!
//! Rank epoch numbers equal the group epoch number. After an uneven crash
//! (one rank committed-then-retired epoch `e`, another never reached it)
//! the ranks' backends disagree about the highest number ever used; the
//! coordinator levels this at open time by raising every manager's
//! [`CkptConfig::epoch_floor`] to the group-wide high-water mark — the max
//! over the global manifest (commits *and* burned aborts) and every rank
//! backend's [`StorageBackend::high_water`].

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ai_ckpt::restore::{restore_at, RestoredState};
use ai_ckpt::{CkptConfig, CompactionPolicy, FlushPool, PageManager};
use ai_ckpt_storage::log::Log;
use ai_ckpt_storage::{FileBackend, StorageBackend};

use crate::global::{self, GlobalRecord};
use crate::stats::GroupStats;

/// File name of the global manifest inside a shared checkpoint root.
pub const GLOBAL_MANIFEST_FILE: &str = "GLOBAL";

/// Rank `rank`'s namespace under a shared checkpoint root (a rank-prefixed
/// subdirectory; see the module docs). Shares the `label_NNNN/` naming
/// scheme with the multi-tenant service's per-tenant sub-roots.
pub fn rank_dir(root: &Path, rank: usize) -> PathBuf {
    ai_ckpt_storage::namespace::scoped_dir(root, "rank", rank)
}

/// Configuration of a [`CheckpointGroup`].
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Number of ranks in the group.
    pub ranks: usize,
    /// Per-rank runtime configuration. Its `compaction` policy is ignored
    /// (forced to disabled inside each manager): per-rank folds must not
    /// cross the globally committed horizon, so chain compaction is
    /// group-driven — see [`GroupConfig::compaction`]. Tier draining stays
    /// with the pool's maintenance worker (it never loses epochs).
    /// `committer_streams` sizes the group's shared pool.
    pub ckpt: CkptConfig,
    /// Group-level chain compaction: when either trigger fires on a rank's
    /// chain, the coordinator folds that chain up to the newest *globally
    /// committed* epoch, strictly after the phase-2 append.
    pub compaction: CompactionPolicy,
}

impl GroupConfig {
    /// A group of `ranks` identical managers, no chain compaction.
    pub fn new(ranks: usize, ckpt: CkptConfig) -> Self {
        Self {
            ranks,
            ckpt,
            compaction: CompactionPolicy::DISABLED,
        }
    }

    /// Enable group-driven chain compaction.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = policy;
        self
    }
}

/// One rank: its manager (the backend is reachable through
/// [`PageManager::backend`], the runtime's group hook).
struct RankCell {
    manager: PageManager,
}

impl RankCell {
    fn backend(&self) -> &Arc<dyn StorageBackend> {
        self.manager.backend()
    }
}

/// The result of [`CheckpointGroup::restore_latest`]: every rank rebuilt at
/// the same globally consistent epoch.
pub struct GroupRestore {
    /// The group epoch every rank was restored to.
    pub checkpoint: u64,
    /// Per-rank restored buffers, indexed by rank.
    pub ranks: Vec<RestoredState>,
}

/// A coordinated multi-rank checkpoint group. See the module docs for the
/// protocol.
pub struct CheckpointGroup {
    ranks: Vec<RankCell>,
    /// The global manifest: this group's one handle on it.
    global: Log,
    policy: CompactionPolicy,
    /// Next group epoch number (every attempt consumes one, success or
    /// abort — each rank's engine counts requests, not commits).
    next_epoch: u64,
    last_committed: Option<u64>,
    commits: u64,
    aborts: u64,
    group_compactions: u64,
    compaction_failures: u64,
    /// Set when rank numbering desynchronised (a protocol invariant was
    /// violated); further checkpoints are refused.
    poisoned: bool,
}

impl CheckpointGroup {
    /// Open a group over per-rank backends produced by `backend_for_rank`,
    /// with `global` the group's handle on its global manifest
    /// (`Log::new(path, None)`; a gate numbers its syscalls, as a file
    /// backend's `open_on` does).
    ///
    /// Performs crash recovery first: rank-local epochs newer than the last
    /// globally committed epoch are retired (they are phase-1 survivors of
    /// a coordinator that died before the phase-2 append — restoring any of
    /// them would mix epochs across ranks). The global manifest is
    /// authoritative: backends handed to a group must only ever be written
    /// through a group.
    pub fn open<F>(cfg: GroupConfig, global: Log, mut backend_for_rank: F) -> io::Result<Self>
    where
        F: FnMut(usize) -> io::Result<Box<dyn StorageBackend>>,
    {
        if cfg.ranks == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a checkpoint group needs at least one rank",
            ));
        }
        // Read before touching any rank: a corrupt global log fails the
        // open here, with every rank's epochs still in place — recovery
        // below retires whatever the log does not vouch for, so it must
        // never run on a log that merely *reads* shorter than it is.
        let records = global::read(global.path())?;
        // A crash inside the log's first append leaves its staging file;
        // the open that owns the log removes it.
        global.remove_staging()?;
        let committed = global::last_committed(&records);
        // The numbering floor starts at the global log's high-water mark:
        // aborted group epochs burned their number on every rank that got
        // as far as consuming it.
        let mut floor = global::high_water(&records).unwrap_or(0);
        let mut backends: Vec<Arc<dyn StorageBackend>> = Vec::with_capacity(cfg.ranks);
        for rank in 0..cfg.ranks {
            let backend: Arc<dyn StorageBackend> = Arc::from(backend_for_rank(rank)?);
            // Recovery: retire orphaned phase-1 epochs in one batch — the
            // whole orphan suffix lands as a single manifest append/fsync
            // per rank instead of one per epoch.
            let orphans: Vec<u64> = backend
                .epochs()?
                .into_iter()
                .filter(|&epoch| committed.is_none_or(|g| epoch > g))
                .collect();
            backend.remove_epochs(&orphans)?;
            floor = floor.max(backend.high_water()?.unwrap_or(0));
            backends.push(backend);
        }
        // Every manager gets the same floor, so rank numbering starts in
        // lockstep whatever each backend's individual history says.
        let mut rank_cfg = cfg.ckpt.clone();
        rank_cfg.compaction = CompactionPolicy::DISABLED;
        rank_cfg.epoch_floor = floor;
        // One pool hosts every rank: `committer_streams + 1` threads
        // whatever the rank count. The ranks' handles keep it alive.
        let pool = FlushPool::new(rank_cfg.committer_streams)?;
        let mut ranks = Vec::with_capacity(cfg.ranks);
        for backend in backends {
            ranks.push(RankCell {
                manager: pool.attach(rank_cfg.clone(), backend, Arc::new(()))?,
            });
        }
        Ok(Self {
            ranks,
            global,
            policy: cfg.compaction,
            next_epoch: floor + 1,
            last_committed: committed,
            commits: 0,
            aborts: 0,
            group_compactions: 0,
            compaction_failures: 0,
            poisoned: false,
        })
    }

    /// Open a group over the standard file-system layout: the global
    /// manifest and one rank-prefixed subdirectory per rank under `root`
    /// (see the module docs).
    pub fn open_dir(cfg: GroupConfig, root: impl AsRef<Path>) -> io::Result<Self> {
        // No `create_dir_all` here: rank 0's open creates a missing root
        // and fsyncs its parent, so the root's entry is durable before the
        // first commit (a missing root reads as an empty global log).
        let root = root.as_ref();
        let global = Log::new(root.join(GLOBAL_MANIFEST_FILE), None);
        CheckpointGroup::open(cfg, global, |rank| {
            Ok(Box::new(FileBackend::open(rank_dir(root, rank))?))
        })
    }

    /// Number of ranks in the group.
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Rank `rank`'s page manager (allocate the rank's protected buffers
    /// through this, exactly as in single-rank use).
    pub fn rank(&self, rank: usize) -> &PageManager {
        &self.ranks[rank].manager
    }

    /// Rank `rank`'s storage backend.
    pub fn rank_backend(&self, rank: usize) -> &Arc<dyn StorageBackend> {
        self.ranks[rank].backend()
    }

    /// The newest globally consistent epoch, if any checkpoint committed.
    pub fn last_committed(&self) -> Option<u64> {
        self.last_committed
    }

    /// The group `CHECKPOINT` collective: two-phase commit of one epoch
    /// across every rank (see the module docs). Caller contract: invoked at
    /// a barrier, with no rank writing its protected memory during the
    /// call. Returns the globally committed epoch number.
    ///
    /// On error the group epoch was aborted atomically: no rank keeps a
    /// local epoch the global manifest does not account for, and the next
    /// call uses the next number.
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "checkpoint group poisoned by a numbering desync",
            ));
        }
        let expected = self.next_epoch;
        self.next_epoch += 1;
        // Phase 1a: kick every rank. In async mode each call returns once
        // the flush is scheduled, so the pool's workers drain the ranks
        // concurrently.
        let mut failures: Vec<(usize, io::Error)> = Vec::new();
        let mut kicked = vec![false; self.ranks.len()];
        for (rank, cell) in self.ranks.iter().enumerate() {
            match cell.manager.checkpoint() {
                Ok(info) => {
                    kicked[rank] = true;
                    if info.checkpoint != expected {
                        // A rank off the group's numbering can never commit
                        // a consistent epoch again: poison the group, but
                        // fall through to the ordinary abort path — the
                        // other kicked ranks' flushes must still be waited
                        // for and their commits retired, or they would
                        // linger as orphans until the next open. (The rogue
                        // rank's own off-number epoch is beyond the last
                        // global commit, so reopen recovery retires it.)
                        self.poisoned = true;
                        failures.push((
                            rank,
                            io::Error::other(format!(
                                "numbering desync: checkpoint {} != group epoch {expected}",
                                info.checkpoint
                            )),
                        ));
                    }
                }
                Err(e) => failures.push((rank, e)),
            }
        }
        // Phase 1b: wait for every kicked rank's flush verdict.
        for (rank, cell) in self.ranks.iter().enumerate() {
            if !kicked[rank] {
                continue;
            }
            if let Err(e) = cell.manager.wait_checkpoint() {
                failures.push((rank, e));
            }
        }
        if failures.is_empty() {
            // Phase 2: the global append is the group's atomic commit
            // point. If it fails, roll phase 1 back so storage matches the
            // manifest (the rank epochs would otherwise be orphans that
            // only the next open could retire).
            if let Err(e) = global::append(
                &self.global,
                GlobalRecord::commit(expected, self.ranks.len() as u32),
            ) {
                self.abort_epoch(expected, u64::MAX);
                return Err(io::Error::other(format!(
                    "global commit of epoch {expected} failed: {e}"
                )));
            }
            self.last_committed = Some(expected);
            self.commits += 1;
            self.maybe_compact(expected);
            return Ok(expected);
        }
        failures.sort_by_key(|&(rank, _)| rank);
        let first_failed = failures[0].0 as u64;
        self.abort_epoch(expected, first_failed);
        let detail: Vec<String> = failures
            .iter()
            .map(|(rank, e)| format!("rank {rank}: {e}"))
            .collect();
        Err(io::Error::other(format!(
            "group epoch {expected} aborted ({})",
            detail.join("; ")
        )))
    }

    /// Abort group epoch `epoch`: retire it from every rank that committed
    /// it and burn the number in the global manifest. Best-effort on
    /// purpose — any step this misses (a rank whose retirement also fails)
    /// is exactly what open-time recovery replays from the global manifest.
    /// Either way no rank's `epoch` counts, so every rank writes its pages
    /// again at the next checkpoint (for a rank whose own commit failed,
    /// that already happened).
    fn abort_epoch(&mut self, epoch: u64, failed_rank: u64) {
        for cell in &self.ranks {
            if cell
                .backend()
                .epochs()
                .is_ok_and(|epochs| epochs.contains(&epoch))
            {
                let _ = cell.backend().remove_epochs(&[epoch]);
            }
            cell.manager.requeue_last_checkpoint();
        }
        let _ = global::append(
            &self.global,
            GlobalRecord::abort(epoch, self.ranks.len() as u32, failed_rank),
        );
        self.aborts += 1;
    }

    /// Group-driven chain maintenance, run strictly after a global commit:
    /// fold any rank chain the policy flags, never past the globally
    /// committed epoch `g`. Failures are counted, not fatal — a longer
    /// chain is still fully restorable.
    fn maybe_compact(&mut self, g: u64) {
        if self.policy.is_disabled() {
            return;
        }
        for cell in &self.ranks {
            if !cell.backend().supports_compaction() {
                continue;
            }
            let chain = match cell.backend().chain() {
                Ok(c) => c,
                Err(_) => {
                    self.compaction_failures += 1;
                    continue;
                }
            };
            if !self.policy.is_due(&chain) {
                continue;
            }
            match cell.backend().compact(g) {
                Ok(_) => self.group_compactions += 1,
                Err(_) => self.compaction_failures += 1,
            }
        }
    }

    /// Restore every rank to the newest globally consistent epoch, or
    /// `None` when no group checkpoint ever committed. The managers must be
    /// fresh (no buffers allocated) — call this right after
    /// [`CheckpointGroup::open`], before touching any rank.
    pub fn restore_latest(&self) -> io::Result<Option<GroupRestore>> {
        let Some(g) = self.last_committed else {
            return Ok(None);
        };
        let mut ranks = Vec::with_capacity(self.ranks.len());
        for cell in &self.ranks {
            ranks.push(restore_at(&cell.manager, cell.backend().as_ref(), g)?);
        }
        Ok(Some(GroupRestore {
            checkpoint: g,
            ranks,
        }))
    }

    /// Block until the maintenance worker (tier draining) caught up with
    /// every rank's committed state.
    pub fn wait_maintenance_idle(&self) -> io::Result<()> {
        for cell in &self.ranks {
            cell.manager.wait_maintenance_idle()?;
        }
        Ok(())
    }

    /// Snapshot of the group's metrics: the per-rank
    /// [`RuntimeStats`](ai_ckpt::RuntimeStats) rollup plus the global
    /// commit/abort history.
    pub fn stats(&self) -> GroupStats {
        GroupStats {
            ranks: self.ranks.iter().map(|c| c.manager.stats()).collect(),
            global_commits: self.commits,
            global_aborts: self.aborts,
            group_compactions: self.group_compactions,
            compaction_failures: self.compaction_failures,
            last_committed: self.last_committed,
        }
    }
}
