//! The benchmark's whole view of the repository: every type it names and
//! every function it calls comes through this file, so a change that
//! shrinks or renames public API sees here, in one place, what the
//! benchmark needs kept. Workload and probe code imports from `crate::api`
//! only.
//!
//! Calls into a layer are wrapped in a span named `<layer>.<function>`
//! (recorded only during the traced pass; see `trace.rs`).
//!
//! Besides the free functions below, the benchmark calls these methods on
//! the re-exported types directly (reading a counter, driving a probe):
//!
//! * `StorageBackend`: `begin_epoch` (+ `EpochWriter::write_pages`/`finish`),
//!   `epochs`, `read_epoch`, `read_page_at`, `epoch_page_ids`, `verify_epoch`,
//!   `compact`, `remove_epochs`, `drain_one`, `bytes_written`, `bytes_stored`,
//!   `io_stats`;
//! * `TieredBackend::{slow, pending_drain}`, `ThrottledBackend::throttled_time`,
//!   `MemoryBackend::{new, shared}`, `PageCache::{new, insert, get, stats}`;
//! * `CkptConfig::ai_ckpt` and its `with_*` builders, `CompactionPolicy::chain_len`;
//! * `PageManager::backend`, `ProtectedBuffer::{as_slice, as_mut_slice, len}`,
//!   `LazyRestore::state`,
//!   `RuntimeStats` / `CheckpointRecord` / `EpochStats` / `IoStats` fields;
//! * `CkptService::stats` and the `ServiceStats` / `TenantStats` fields;
//! * `EpochEngine::{new, on_write, begin_checkpoint, select_batch,
//!   complete_flush}`, `EngineConfig::adaptive`;
//! * `MappedRegion::{new, protect, protect_page}`.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::trace::span;

// ---- vocabulary types ---------------------------------------------------

pub use ai_ckpt::{
    CheckpointPlanInfo, CheckpointRecord, CkptConfig, CompactionPolicy, LazyRestore, PageManager,
    ProtectedBuffer, RestoredState, RuntimeStats,
};
pub use ai_ckpt_core::{EngineConfig, EpochEngine, WriteOutcome};
pub use ai_ckpt_mem::{MappedRegion, Protection};
pub use ai_ckpt_service::{CkptService, ServiceConfig, TenantQuota};
pub use ai_ckpt_storage::{
    Compression, Encoding, FileBackend, IoStats, MemoryBackend, PageCache, PageLocator,
    StorageBackend, ThrottledBackend, TieredBackend,
};

/// Shared handle every manager and restore takes.
pub type Backend = Arc<dyn StorageBackend>;

// ---- mem ------------------------------------------------------------------

pub fn page_size() -> usize {
    ai_ckpt_mem::page_size()
}

// ---- storage: backends ------------------------------------------------------

/// `FileBackend` with fsync on (its default) and the given record encoding.
pub fn open_file_backend(dir: &Path, compression: Compression) -> io::Result<FileBackend> {
    let _s = span("storage.file.open");
    Ok(FileBackend::open(dir)?.with_compression(compression))
}

/// A memory-speed device slowed to `bytes_per_sec` per committer stream.
pub fn throttled_memory(
    inner: MemoryBackend,
    bytes_per_sec: f64,
) -> ThrottledBackend<MemoryBackend> {
    ThrottledBackend::new(inner, bytes_per_sec, Duration::ZERO)
}

/// Memory fast tier draining to a file slow tier.
pub fn tiered_memory_over_file(
    dir: &Path,
    compression: Compression,
    fast_capacity: usize,
) -> io::Result<TieredBackend> {
    let slow = open_file_backend(dir, compression)?;
    TieredBackend::new(
        Box::new(MemoryBackend::new()),
        Box::new(slow),
        fast_capacity,
    )
}

pub fn tenant_dir(root: &Path, index: usize) -> std::path::PathBuf {
    ai_ckpt_service::tenant_dir(root, index)
}

// ---- storage: primitives the probes time directly ---------------------------

pub fn crc64(data: &[u8]) -> u64 {
    ai_ckpt_storage::crc64(data)
}

pub fn codec_encode(data: &[u8], mode: Compression) -> (Encoding, Option<Vec<u8>>) {
    ai_ckpt_storage::codec::encode(data, mode)
}

pub fn codec_decode(enc: Encoding, stored: &[u8], raw_len: usize) -> io::Result<Option<Vec<u8>>> {
    ai_ckpt_storage::codec::decode(enc, stored, raw_len)
}

/// Fold the whole committed chain into one full segment.
pub fn compact_all(backend: &dyn StorageBackend) -> io::Result<()> {
    let _s = span("storage.compact");
    match backend.epochs()?.last() {
        Some(&last) => backend.compact(last).map(|_| ()),
        None => Ok(()),
    }
}

pub fn locator_build(backend: &dyn StorageBackend, up_to: u64) -> io::Result<PageLocator> {
    let _s = span("storage.locator.build");
    PageLocator::build(backend, up_to)
}

// ---- runtime ----------------------------------------------------------------

pub fn manager_new(cfg: CkptConfig, backend: Backend) -> io::Result<PageManager> {
    let _s = span("runtime.manager_new");
    PageManager::with_shared_backend(cfg, backend)
}

pub fn alloc_protected(mgr: &PageManager, name: &str, len: usize) -> io::Result<ProtectedBuffer> {
    let _s = span("runtime.alloc_protected");
    mgr.alloc_protected_named(name, len)
}

pub fn checkpoint(mgr: &PageManager) -> io::Result<CheckpointPlanInfo> {
    let _s = span("runtime.checkpoint");
    mgr.checkpoint()
}

pub fn wait_checkpoint(mgr: &PageManager) -> io::Result<()> {
    let _s = span("runtime.wait_checkpoint");
    mgr.wait_checkpoint()
}

pub fn wait_maintenance_idle(mgr: &PageManager) -> io::Result<()> {
    let _s = span("runtime.wait_maintenance_idle");
    mgr.wait_maintenance_idle()
}

pub fn runtime_stats(mgr: &PageManager) -> RuntimeStats {
    let _s = span("runtime.stats");
    mgr.stats()
}

/// Eager restore of the newest checkpoint, bypassing the page cache.
pub fn restore_eager(
    mgr: &PageManager,
    backend: &dyn StorageBackend,
) -> io::Result<Option<RestoredState>> {
    let _s = span("runtime.restore_latest_cached");
    ai_ckpt::restore_latest_cached(mgr, backend, None)
}

pub fn restore_lazy(
    mgr: &PageManager,
    backend: Backend,
    seq: u64,
    cache: Option<Arc<PageCache>>,
) -> io::Result<LazyRestore> {
    let _s = span("runtime.restore_lazy");
    ai_ckpt::restore_lazy(mgr, backend, seq, cache)
}

pub fn lazy_wait(restore: &mut LazyRestore) -> io::Result<ai_ckpt::RestoreStats> {
    let _s = span("runtime.lazy_wait");
    restore.wait()
}

// ---- service ------------------------------------------------------------------

pub fn service_new(workers: usize) -> CkptService {
    let _s = span("service.new");
    CkptService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
}

pub fn add_tenant(
    svc: &CkptService,
    name: &str,
    cfg: CkptConfig,
    backend: Backend,
) -> io::Result<PageManager> {
    let _s = span("service.add_tenant");
    svc.add_tenant(name, cfg, backend, TenantQuota::default())
}
