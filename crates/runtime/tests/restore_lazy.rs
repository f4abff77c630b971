//! Demand-paged restore: both restore doors against the reference replay
//! (`CheckpointImage::load`) at one filler and at four, restore storms over
//! a shared page cache, demand-fault prioritisation (a hint reaches the
//! filler that holds the page), the `CHECKPOINT` drain barrier, and the
//! failures the crash sweep's read cases (`tests/crash_points.rs`, which
//! arm every read of every door of its stacks) do not reach: four fillers,
//! a record longer than its page, an abort, a demand fault that blocks on
//! a repair.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ai_ckpt::{
    restore_at, restore_lazy, CkptConfig, CompactionPolicy, LazyRestore, PageManager,
    ProtectedBuffer, RestoreStats, RestoredState,
};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    corrupt_segment_region, is_page, CheckpointImage, EpochWriter, FailingBackend, FaultOp,
    FileBackend, MemoryBackend, PageCache, SegmentRegion, StorageBackend, TieredBackend,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-lazy-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(1 << 20).with_max_pages(512)
}

/// Pages enough for four fillers: a restore runs one per committer stream,
/// capped so that each owns at least one 64-page run.
const FOUR_RUNS: usize = 4 * 64;

/// Allocate a [`FOUR_RUNS`]-page buffer named `runs` and write every page
/// with bytes that differ from its neighbours'.
fn alloc_four_runs(mgr: &PageManager) -> ProtectedBuffer {
    let ps = page_size();
    let mut buf = mgr.alloc_protected_named("runs", FOUR_RUNS * ps).unwrap();
    for (i, chunk) in buf.as_mut_slice().chunks_mut(ps).enumerate() {
        for (j, byte) in chunk.iter_mut().enumerate() {
            *byte = (i * 31 + j) as u8;
        }
    }
    buf
}

/// Assert `state` holds exactly the reference replay of its checkpoint:
/// every buffer page equals the image's page, or zeros where the image has
/// none.
fn assert_matches_reference(state: &RestoredState, image: &CheckpointImage, door: &str) {
    assert_eq!(state.checkpoint, image.checkpoint());
    let zeros = vec![0u8; page_size()];
    for buf in &state.buffers {
        for (i, got) in buf.as_slice().chunks(page_size()).enumerate() {
            let want = image.page((buf.base_page() + i) as u64).unwrap_or(&zeros);
            assert!(
                got == &want[..got.len()],
                "{door} restore: page {i} of '{}' diverged from the reference replay",
                buf.name()
            );
        }
    }
}

/// Restore `seq` through both doors, at one stream and at four, over the
/// same backend and compare each with `CheckpointImage::load` — the doors
/// share one fill path, so comparing them with each other would prove
/// nothing. Returns each lazy handle's final stats.
fn assert_both_doors_match_reference(
    backend: Arc<dyn StorageBackend>,
    cfg: &CkptConfig,
    seq: u64,
) -> Vec<RestoreStats> {
    let image = CheckpointImage::load(backend.as_ref(), seq).unwrap();
    let mut stats = Vec::new();
    for streams in [1, 4] {
        let cfg = cfg.clone().with_committer_streams(streams);
        let eager_mgr =
            PageManager::with_shared_backend(cfg.clone(), Arc::clone(&backend)).unwrap();
        let eager = restore_at(&eager_mgr, backend.as_ref(), seq).unwrap();
        assert_matches_reference(&eager, &image, &format!("eager ({streams} streams)"));
        let lazy_mgr = PageManager::with_shared_backend(cfg, Arc::clone(&backend)).unwrap();
        let mut lr = restore_lazy(&lazy_mgr, Arc::clone(&backend), seq, None).unwrap();
        stats.push(lr.wait().unwrap());
        assert!(lr.is_complete());
        assert_matches_reference(&lr.state, &image, &format!("lazy ({streams} streams)"));
    }
    stats
}

#[test]
fn lazy_matches_eager_after_incremental_chain() {
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg();
    let mgr = PageManager::new(cfg.clone(), Box::new(backend)).unwrap();
    let ps = page_size();
    let mut a = mgr.alloc_protected_named("a", 6 * ps).unwrap();
    let mut b = mgr.alloc_protected_named("b", 3 * ps).unwrap();
    let mut runs = alloc_four_runs(&mgr);
    // Epoch 1: everything; epochs 2-3: sliding partial updates, so the
    // locator must stitch pages from three different epochs.
    a.as_mut_slice().fill(1);
    b.as_mut_slice().fill(2);
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    a.as_mut_slice()[2 * ps] = 33;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    a.as_mut_slice()[5 * ps] = 44;
    b.as_mut_slice()[0] = 55;
    runs.as_mut_slice()[100 * ps] = 66;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    drop((a, b, runs, mgr));

    let backend: Arc<dyn StorageBackend> = Arc::new(view);
    let pages = 9 + FOUR_RUNS as u64;
    for stats in assert_both_doors_match_reference(backend, &cfg, 3) {
        assert_eq!(
            stats.prefetched_pages + stats.demanded_pages,
            pages,
            "every image page delivered by the fillers"
        );
        assert_eq!(stats.bytes_filled, pages * ps as u64);
    }
}

#[test]
fn lazy_matches_eager_under_compaction_and_compression() {
    let dir = tmpdir("compact");
    let cfg = small_cfg().with_compaction(CompactionPolicy::chain_len(3));
    {
        // FileBackend defaults to Compression::Auto, so runs of equal bytes
        // are stored encoded and the lazy read path must decode per record.
        let mgr =
            PageManager::new(cfg.clone(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
        let ps = page_size();
        let mut grid = mgr.alloc_protected_named("grid", 16 * ps).unwrap();
        let runs = alloc_four_runs(&mgr);
        for e in 0..8u64 {
            let slice = grid.as_mut_slice();
            // Compressible stripe + incompressible stripe each epoch.
            let p1 = ((e * 3) % 16) as usize;
            let p2 = ((e * 5 + 1) % 16) as usize;
            slice[p1 * ps..(p1 + 1) * ps].fill(e as u8 + 1);
            for (i, byte) in slice[p2 * ps..(p2 + 1) * ps].iter_mut().enumerate() {
                *byte = (i as u64 * 2654435761 + e) as u8;
            }
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
        }
        mgr.wait_maintenance_idle().unwrap();
        drop((grid, runs));
    }
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    let chain = backend.chain().unwrap();
    assert!(
        chain.len() <= 4,
        "compaction should have folded the 8-epoch chain, got {}",
        chain.len()
    );
    assert_both_doors_match_reference(backend, &cfg, 8);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lazy_matches_eager_through_tiered_drain() {
    let dir = tmpdir("tiered");
    let cfg = small_cfg();
    let make_backend = || -> Arc<dyn StorageBackend> {
        Arc::new(
            TieredBackend::new(
                Box::new(MemoryBackend::new()),
                Box::new(FileBackend::open(&dir).unwrap()),
                1, // one undrained epoch max: almost everything lands slow
            )
            .unwrap(),
        )
    };
    {
        let backend = make_backend();
        let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&backend)).unwrap();
        let ps = page_size();
        let mut buf = mgr.alloc_protected_named("t", 8 * ps).unwrap();
        let _runs = alloc_four_runs(&mgr);
        for e in 0..4u64 {
            let slice = buf.as_mut_slice();
            slice[(e as usize % 8) * ps] = e as u8 + 10;
            slice[((e as usize + 3) % 8) * ps] = e as u8 + 50;
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
        }
        mgr.wait_maintenance_idle().unwrap();
    }
    // Fresh tiered stack over the same slow tier (the fast tier's memory
    // died with the "process"): reads must fall through to the slow tier.
    let backend = make_backend();
    assert_both_doors_match_reference(backend, &cfg, 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restore_storm_hits_disk_once_per_page() {
    // One filler per restore, then four: the single-flight cache still
    // reads each page once when sixteen fillers race for it.
    for (streams, pages) in [(1, 48), (4, FOUR_RUNS)] {
        restore_storm(small_cfg().with_committer_streams(streams), pages);
    }
}

/// Four concurrent lazy restores of one `pages`-page checkpoint over one
/// shared cache, each reading its whole state mid-fill: disk sees each page
/// once.
fn restore_storm(cfg: CkptConfig, pages: usize) {
    let dir = tmpdir("storm");
    let ps = page_size();
    {
        let mgr =
            PageManager::new(cfg.clone(), Box::new(FileBackend::open(&dir).unwrap())).unwrap();
        let mut buf = mgr.alloc_protected_named("s", pages * ps).unwrap();
        for (i, chunk) in buf.as_mut_slice().chunks_mut(ps).enumerate() {
            for (j, byte) in chunk.iter_mut().enumerate() {
                *byte = (i * 31 + j) as u8;
            }
        }
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        drop(buf);
    }
    // One backend instance (one io-counter set), one shared cache, four
    // concurrent lazy restores that read their whole state mid-fill.
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
    let cache = Arc::new(PageCache::new(8 << 20));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let backend = Arc::clone(&backend);
            let cache = Arc::clone(&cache);
            let cfg = cfg.clone();
            s.spawn(move || {
                let mgr = PageManager::with_shared_backend(cfg, Arc::clone(&backend)).unwrap();
                let mut lr = restore_lazy(&mgr, Arc::clone(&backend), 1, Some(cache)).unwrap();
                // Race the prefetcher: read every page right now. Reads on
                // not-yet-filled pages demand-fault and block per page.
                let got = lr.state.buffers[0].as_slice().to_vec();
                for (i, chunk) in got.chunks(ps).enumerate() {
                    for (j, &byte) in chunk.iter().enumerate() {
                        assert_eq!(byte, (i * 31 + j) as u8, "page {i} byte {j}");
                    }
                }
                lr.wait().unwrap();
            });
        }
    });
    let io = backend.io_stats();
    assert_eq!(
        io.page_reads, pages as u64,
        "shared cache must collapse 4 restores to one disk read per page"
    );
    let cs = cache.stats();
    assert!(
        cs.hits >= 2 * pages as u64,
        "later restores should hit the cache (hits {})",
        cs.hits
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Test wrapper around single-record reads: the first `free` go straight
/// through, and every later one runs `trip` on its page id first — a sleep
/// (a slow store, so the prefetch sweep races deterministically), a gate (a
/// read held mid-restore), or a failure (a store that dies after the
/// checkpoint was taken). Every page id asked for is logged, in order.
struct Tripwire<B> {
    inner: B,
    free: AtomicU64,
    trip: Box<dyn Fn(u64) -> io::Result<()> + Send + Sync>,
    log: Mutex<Vec<u64>>,
}

impl<B> Tripwire<B> {
    fn new(
        inner: B,
        free: u64,
        trip: impl Fn(u64) -> io::Result<()> + Send + Sync + 'static,
    ) -> Self {
        Self {
            inner,
            free: AtomicU64::new(free),
            trip: Box::new(trip),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Every read delayed by `delay`.
    fn slow(inner: B, delay: Duration) -> Self {
        Self::new(inner, 0, move |_| {
            std::thread::sleep(delay);
            Ok(())
        })
    }

    /// Page ids asked for so far.
    fn log(&self) -> Vec<u64> {
        self.log.lock().unwrap().clone()
    }
}

impl<B: StorageBackend> StorageBackend for Tripwire<B> {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.inner)
    }
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        self.inner.begin_epoch(epoch)
    }
    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.inner.epochs()
    }
    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.inner.read_epoch(epoch, visit)
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        self.log.lock().unwrap().push(page);
        let spent = |n: u64| n.checked_sub(1);
        if self.free.fetch_update(SeqCst, SeqCst, spent).is_err() {
            (self.trip)(page)?;
        }
        self.inner.read_page_at(epoch, page)
    }
}

/// The byte [`seed_pages`] fills page `i` with: never zero.
fn byte_of(i: usize) -> u8 {
    (i % 255) as u8 + 1
}

/// Checkpoint a `pages`-page ascending workload into `backend`; page `i`
/// is filled with [`byte_of`]`(i)`.
fn seed_pages(backend: Box<dyn StorageBackend>, cfg: &CkptConfig, pages: usize) {
    let mgr = PageManager::new(cfg.clone(), backend).unwrap();
    let ps = page_size();
    let mut buf = mgr.alloc_protected_named("w", pages * ps).unwrap();
    for (i, chunk) in buf.as_mut_slice().chunks_mut(ps).enumerate() {
        chunk.fill(byte_of(i));
    }
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
}

#[test]
fn demand_faults_prioritise_touched_pages() {
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg();
    seed_pages(Box::new(backend), &cfg, 16);

    let slow: Arc<dyn StorageBackend> = Arc::new(Tripwire::slow(view, Duration::from_millis(10)));
    let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&slow)).unwrap();
    let mut lr = restore_lazy(&mgr, Arc::clone(&slow), 1, None).unwrap();
    let ps = page_size();
    // The prefetcher walks pages 0..16 in recorded first-write order at
    // 10 ms per page; page 15 is ~150 ms out. Touch it immediately: the
    // access must demand-fault, jump the queue and return long before the
    // sweep would reach it.
    let byte = lr.state.buffers[0].as_slice()[15 * ps];
    assert_eq!(byte, 16, "page 15 contents served on demand");
    let stats = lr.wait().unwrap();
    assert!(
        stats.demand_faults >= 1,
        "touching an unfilled page must count a demand fault (stats {stats:?})"
    );
    assert!(
        stats.demanded_pages >= 1,
        "page 15 filled via the demand ring"
    );
    assert_eq!(stats.demanded_pages + stats.prefetched_pages, 16);
    for (i, chunk) in lr.state.buffers[0].as_slice().chunks(ps).enumerate() {
        assert!(chunk.iter().all(|&b| b == byte_of(i)), "page {i}");
    }
}

#[test]
fn a_syscall_reading_an_unfilled_page_fails_with_efault_until_it_is_filled() {
    use std::io::Write;

    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg();
    seed_pages(Box::new(backend), &cfg, 16);

    let slow: Arc<dyn StorageBackend> = Arc::new(Tripwire::slow(view, Duration::from_millis(10)));
    let mgr = PageManager::with_shared_backend(cfg, Arc::clone(&slow)).unwrap();
    let mut lr = restore_lazy(&mgr, Arc::clone(&slow), 1, None).unwrap();
    let ps = page_size();
    // Page 15 is ~150 ms out. A write(2) from it reads it in the kernel,
    // which takes no demand fault: the call fails as it would on PROT_NONE
    // memory, rather than carrying zeroes.
    let page15 = 15 * ps..16 * ps;
    let path = tmpdir("efault");
    let mut file = std::fs::File::create(&path).unwrap();
    let err = file
        .write_all(&lr.state.buffers[0].as_slice()[page15.clone()])
        .unwrap_err();
    assert_eq!(err.raw_os_error(), Some(14), "EFAULT expected: {err}");
    assert_eq!(file.metadata().unwrap().len(), 0, "no zero bytes landed");

    lr.wait().unwrap();
    file.write_all(&lr.state.buffers[0].as_slice()[page15])
        .unwrap();
    let written = std::fs::read(&path).unwrap();
    assert_eq!(written.len(), ps);
    assert!(written.iter().all(|&b| b == byte_of(15)), "page 15's bytes");
    std::fs::remove_file(&path).unwrap();
}

/// During a lazy restore, a write to a page already installed and a write
/// to one not installed yet are each tracked once, a read is not tracked,
/// and the next checkpoint stores exactly the two written pages.
fn writes_during_a_lazy_restore_row(mprotect: bool) {
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg();
    seed_pages(Box::new(backend), &cfg, 16);

    let slow: Arc<dyn StorageBackend> = Arc::new(Tripwire::slow(view, Duration::from_millis(10)));
    let build = || PageManager::with_shared_backend(cfg.clone(), Arc::clone(&slow));
    let mgr = match mprotect {
        true => ai_ckpt::with_mprotect_tracking(build),
        false => build(),
    }
    .unwrap();
    let mut lr = restore_lazy(&mgr, Arc::clone(&slow), 1, None).unwrap();
    let ps = page_size();
    let buf = &mut lr.state.buffers[0];
    // A read demands page 2 alone: it is installed before the read returns.
    assert_eq!(buf.as_slice()[2 * ps], byte_of(2));
    let stalls = mgr.stats().write_stall.count;
    buf.as_mut_slice()[2 * ps] = 0xE2;
    let installed = mgr.stats().write_stall.count - stalls;
    // Page 12 is ~100 ms out: the write demands it, then is tracked.
    buf.as_mut_slice()[12 * ps + 1] = 0xEC;
    // A read of page 7 is no write (the checkpoint below holds two pages),
    // and the same two pages written again take no fault.
    assert_eq!(buf.as_slice()[7 * ps], byte_of(7));
    let stalls = mgr.stats().write_stall.count;
    buf.as_mut_slice()[2 * ps + 3] = 0xE2;
    buf.as_mut_slice()[12 * ps + 3] = 0xEC;
    assert_eq!(mgr.stats().write_stall.count, stalls, "tracked once each");
    assert_eq!(installed, 1, "a write to an installed page is one fault");

    let plan = mgr.checkpoint().unwrap();
    assert_eq!(plan.scheduled_pages, 2, "exactly the written pages");
    mgr.wait_checkpoint().unwrap();
    lr.wait().unwrap();
    let base = lr.state.buffers[0].base_page() as u64;
    let mut stored = slow.epoch_page_ids(2).unwrap();
    stored.retain(|&p| is_page(p));
    stored.sort_unstable();
    assert_eq!(stored, [base + 2, base + 12]);
    let img = CheckpointImage::load(slow.as_ref(), 2).unwrap();
    assert_eq!(img.page(base + 2).unwrap()[..4], [0xE2, 2 + 1, 2 + 1, 0xE2]);
    assert_eq!(img.page(base + 12).unwrap()[..4], [13, 0xEC, 13, 0xEC]);
}

#[test]
fn writes_during_a_lazy_restore_are_tracked_once_on_write_protect() {
    writes_during_a_lazy_restore_row(false);
}

#[test]
fn writes_during_a_lazy_restore_are_tracked_once_on_mprotect() {
    writes_during_a_lazy_restore_row(true);
}

#[test]
fn checkpoint_drains_lazy_restore_and_stays_incremental() {
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg();
    seed_pages(Box::new(backend), &cfg, 16);

    let shared: Arc<dyn StorageBackend> = Arc::new(Tripwire::slow(view, Duration::from_millis(5)));
    let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&shared)).unwrap();
    let mut lr = restore_lazy(&mgr, Arc::clone(&shared), 1, None).unwrap();
    let ps = page_size();
    // Mutate one page while the filler is still streaming, then request a
    // checkpoint: the drain barrier must wait for every fill, and the
    // epoch's dirty set must contain ONLY the mutated page — the filler's
    // UFFDIO_COPY installs never fault, so restored-but-untouched pages
    // stay out of the increment.
    lr.state.buffers[0].as_mut_slice()[3 * ps] = 200;
    let plan = mgr.checkpoint().unwrap();
    assert!(
        lr.is_complete(),
        "CHECKPOINT ran before the restore finished"
    );
    assert_eq!(
        plan.scheduled_pages, 1,
        "only the app-touched page is dirty after a lazy restore"
    );
    mgr.wait_checkpoint().unwrap();
    lr.wait().unwrap();

    let img = CheckpointImage::load(shared.as_ref(), 2).unwrap();
    let base = lr.state.buffers[0].base_page() as u64;
    assert_eq!(img.page(base + 3).unwrap()[0], 200);
    assert_eq!(
        img.page(base + 3).unwrap()[1],
        4,
        "rest of the page restored"
    );
    assert_eq!(img.page(base + 15).unwrap()[0], 16, "untouched page intact");
}

/// Both doors of a restore of `epoch` over a fresh `backend()` each fail
/// with `why`: the eager one within 30 s, keeping no half-restored buffer;
/// the lazy one's `wait`, every time, leaving it incomplete and its
/// poisoned buffers refusing a checkpoint rather than committing zeroes as
/// data. Returns the lazy restore and its manager.
fn both_doors_fail<B>(
    cfg: &CkptConfig,
    epoch: u64,
    backend: impl Fn() -> B,
    why: &str,
) -> (PageManager, LazyRestore)
where
    B: StorageBackend + 'static,
{
    let fresh = || {
        let backend: Arc<dyn StorageBackend> = Arc::new(backend());
        let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&backend));
        (mgr.unwrap(), backend)
    };
    let (mgr, eager) = fresh();
    let (tx, rx) = std::sync::mpsc::channel();
    let eager = std::thread::spawn(move || {
        let err = restore_at(&mgr, eager.as_ref(), epoch).err();
        tx.send((err, mgr.protected_bytes())).unwrap();
    });
    let hung = Duration::from_secs(30);
    let (eager_err, kept) = rx.recv_timeout(hung).expect("eager hung");
    eager.join().unwrap();
    let eager_err = eager_err.expect("eager restored");
    assert!(eager_err.to_string().contains(why), "eager: {eager_err}");
    assert_eq!(kept, 0, "eager keeps no half-restored buffer");

    let (mgr, lazy) = fresh();
    let mut lr = restore_lazy(&mgr, lazy, epoch, None).unwrap();
    let err = lr.wait().unwrap_err();
    assert!(err.to_string().contains(why), "{err}");
    assert_eq!(err.kind(), eager_err.kind(), "both doors fail alike");
    let again = lr.wait().unwrap_err();
    assert_eq!(again.to_string(), err.to_string(), "wait keeps the error");
    assert!(!lr.is_complete());
    let err = mgr.checkpoint().unwrap_err();
    assert!(err.to_string().contains("lazy restore failed"), "{err}");
    (mgr, lr)
}

#[test]
fn aborted_lazy_restore_leaves_backend_restorable() {
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg();
    seed_pages(Box::new(backend), &cfg, 16);

    let slow: Arc<dyn StorageBackend> = Arc::new(Tripwire::slow(view, Duration::from_millis(5)));
    {
        let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&slow)).unwrap();
        let lr: LazyRestore = restore_lazy(&mgr, Arc::clone(&slow), 1, None).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        drop(lr); // abort mid-restore ("kill" the restart attempt)
    }
    // The aborted restore read but never wrote: a fresh eager restore must
    // still see the full checkpoint.
    let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&slow)).unwrap();
    let restored = restore_at(&mgr, slow.as_ref(), 1).unwrap();
    let ps = page_size();
    for (i, chunk) in restored.buffers[0].as_slice().chunks(ps).enumerate() {
        assert!(chunk.iter().all(|&b| b == byte_of(i)), "page {i}");
    }
}

#[test]
fn a_read_of_a_page_in_an_unsubmitted_run_sees_its_bytes() {
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg();
    seed_pages(Box::new(backend), &cfg, 16);

    // The layout read and six page reads pass; the seventh waits at the
    // gate. The six pages read so far are one address-contiguous run the
    // filler holds back: neither written nor published (it publishes when
    // its slice of 16 ends). The log's order is one filler's, so one stream.
    let cfg = cfg.with_committer_streams(1);
    let open = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&open);
    let held = Arc::new(Tripwire::new(view, 7, move |_| {
        while !gate.load(SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }));
    let backend: Arc<dyn StorageBackend> = held.clone();
    let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&backend)).unwrap();
    let mut lr = restore_lazy(&mgr, backend, 1, None).unwrap();
    while held.log().len() < 8 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(lr.stats().prefetched_pages, 0, "nothing published yet");

    // Read the third page of the run. The access faults, hints the filler
    // and waits; only then does the gate open, so the filler's next turn
    // must write the run before it publishes the page.
    let ps = page_size();
    let base = lr.state.buffers[0].base_page() as u64;
    let i = (held.log()[3] - base) as usize;
    let page = &lr.state.buffers[0].as_slice()[i * ps..(i + 1) * ps];
    let got = std::thread::scope(|s| {
        let reader = s.spawn(|| page.to_vec());
        while lr.stats().demand_faults == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        open.store(true, SeqCst);
        reader.join().unwrap()
    });
    assert!(
        got.iter().all(|&b| b == byte_of(i)),
        "page {i} read {got:?}"
    );
    lr.wait().unwrap();
    for (i, chunk) in lr.state.buffers[0].as_slice().chunks(ps).enumerate() {
        assert!(chunk.iter().all(|&b| b == byte_of(i)), "page {i}");
    }
}

/// Poll `done` every millisecond for up to 5 s; whether it came true.
fn within_5s(done: impl Fn() -> bool) -> bool {
    let t = std::time::Instant::now();
    while !done() {
        if t.elapsed() > Duration::from_secs(5) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Whether the page at `addr` is mapped readable (`/proc/self/maps`).
fn readable(addr: usize) -> bool {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    maps.lines().any(|line| {
        let (range, rest) = line.split_once(' ').unwrap();
        let (lo, hi) = range.split_once('-').unwrap();
        let lo = usize::from_str_radix(lo, 16).unwrap();
        let hi = usize::from_str_radix(hi, 16).unwrap();
        (lo..hi).contains(&addr) && rest.starts_with('r')
    })
}

/// The pages of the lazy restore's only buffer that are mapped readable:
/// each holds its [`byte_of`] bytes.
fn published(lr: &LazyRestore, pages: usize) -> Vec<usize> {
    let (ps, buf) = (page_size(), &lr.state.buffers[0]);
    let published: Vec<usize> = (0..pages)
        .filter(|i| readable(buf.as_ptr() as usize + i * ps))
        .collect();
    for &i in &published {
        let page = &buf.as_slice()[i * ps..(i + 1) * ps];
        assert!(page.iter().all(|&b| b == byte_of(i)), "page {i}");
    }
    published
}

/// A [`Tripwire`] over `view` whose store loses its read path after the
/// layout read and `pages` page reads.
fn dying(view: &MemoryBackend, pages: u64) -> Tripwire<FailingBackend<MemoryBackend>> {
    let (failing, control) = FailingBackend::new(view.clone());
    Tripwire::new(failing, pages + 1, move |_| {
        control.fail(FaultOp::List, true);
        control.fail(FaultOp::Read, true);
        Ok(())
    })
}

#[test]
fn reads_failing_mid_fill_at_four_fillers_publish_no_zeros() {
    const PAGES: usize = FOUR_RUNS + 64;
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg().with_committer_streams(4);
    seed_pages(Box::new(backend), &cfg, PAGES);
    // 100 page reads succeed, spread over four fillers.
    let (_mgr, lr) = both_doors_fail(&cfg, 1, || dying(&view, 100), "injected");
    // A filler that failed stopped the others, and they published what they
    // had written: every page is published with its bytes, or PROT_NONE and
    // poisoned. Only a page that was read can be published.
    let published = published(&lr, PAGES);
    assert!(published.len() <= 100, "{published:?}");
}

#[test]
fn a_read_of_a_page_in_another_fillers_unsubmitted_run_sees_its_bytes() {
    let (backend, view) = MemoryBackend::shared();
    let cfg = small_cfg().with_committer_streams(4);
    seed_pages(Box::new(backend), &cfg, FOUR_RUNS);

    // The prefetch order is ascending, so whichever filler claims the first
    // run reads pages 0-5 into it, neither written nor published, and then
    // waits at the first gate on page 6. The other three fill their runs
    // at 2 ms a page, turning to the demand ring between reads. Page 7
    // waits at a second gate until the read below has its bytes. A gate
    // left shut for 5 s opens by itself and marks the run late, so a
    // broken rule fails the test instead of hanging it.
    let (first, served, timed_out) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (gate1, gate2, late) = (
        Arc::clone(&first),
        Arc::clone(&served),
        Arc::clone(&timed_out),
    );
    let held = Arc::new(Tripwire::new(view, 1, move |page| {
        let gate = match page {
            6 => &gate1,
            7 => &gate2,
            _ => {
                std::thread::sleep(Duration::from_millis(2));
                return Ok(());
            }
        };
        if !within_5s(|| gate.load(SeqCst)) {
            late.store(true, SeqCst);
        }
        Ok(())
    }));
    let backend: Arc<dyn StorageBackend> = held.clone();
    let mgr = PageManager::with_shared_backend(cfg, Arc::clone(&backend)).unwrap();
    let mut lr = restore_lazy(&mgr, backend, 1, None).unwrap();
    assert_eq!(lr.state.buffers[0].base_page(), 0);
    while !held.log().contains(&6) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(lr.stats().prefetched_pages, 0, "nothing published yet");

    // Read page 3. The access faults and hints; the holder is stuck on
    // page 6, so another filler pops the hint and must have the holder
    // write and publish its run at its next turn.
    let ps = page_size();
    let page = &lr.state.buffers[0].as_slice()[3 * ps..4 * ps];
    let got = std::thread::scope(|s| {
        let reader = s.spawn(|| page.to_vec());
        while lr.stats().demand_faults == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Seven more reads: one of the three other fillers made two full
        // turns since the hint was posted, so the hint is popped.
        let posted = held.log().len();
        within_5s(|| held.log().len() >= posted + 7);
        first.store(true, SeqCst);
        let got = reader.join().unwrap();
        served.store(true, SeqCst);
        got
    });
    assert!(got.iter().all(|&b| b == byte_of(3)), "page 3 read {got:?}");
    assert!(
        !timed_out.load(SeqCst),
        "a gate timed out: page 3 was not served by its holder's next turn"
    );
    lr.wait().unwrap();
    for (i, chunk) in lr.state.buffers[0].as_slice().chunks(ps).enumerate() {
        assert!(chunk.iter().all(|&b| b == byte_of(i)), "page {i}");
    }
}

#[test]
fn demand_fault_on_rotted_fast_tier_blocks_on_repair_and_heals() {
    use ai_ckpt::restore_latest_lazy;

    // A tiered stack caught in `drain_one`'s documented recovery window:
    // the epoch's copy committed to the durable tier but the fast-tier
    // eviction never happened (crash between the two), so BOTH tiers hold
    // it — and then the fast copy rots. A demand fault on the rotted page
    // reads the fast copy first, fails its CRC, and must block on the
    // cross-tier repair and deliver the healed bytes; poisoning the page
    // would be a silent-loss bug, because a perfectly good copy survives
    // one tier down. The restore runs four fillers, so the repair races
    // three other readers of the epoch.
    let fast_dir = tmpdir("heal-fast");
    let slow_dir = tmpdir("heal-slow");
    let cfg = small_cfg().with_committer_streams(1);
    let ps = page_size();
    const PAGES: usize = FOUR_RUNS;
    {
        let backend: Arc<dyn StorageBackend> = Arc::new(
            TieredBackend::new(
                Box::new(FileBackend::open(&fast_dir).unwrap()),
                Box::new(FileBackend::open(&slow_dir).unwrap()),
                8,
            )
            .unwrap(),
        );
        let mgr = PageManager::with_shared_backend(cfg.clone(), Arc::clone(&backend)).unwrap();
        let mut buf = mgr.alloc_protected_named("s", PAGES * ps).unwrap();
        for (i, chunk) in buf.as_mut_slice().chunks_mut(ps).enumerate() {
            chunk.fill(0x21 ^ i as u8);
        }
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
        mgr.wait_maintenance_idle().unwrap(); // drain the copy to the slow tier
    }
    // Recreate the failed-eviction state: the fast tier holds exactly the
    // bytes the drain had copied out (mirror the slow tier back), then rot
    // one payload byte of that fast copy.
    for entry in std::fs::read_dir(&slow_dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), fast_dir.join(entry.file_name())).unwrap();
    }
    corrupt_segment_region(&fast_dir, 1, SegmentRegion::Payload { byte: 5 }).unwrap();
    let backend: Arc<dyn StorageBackend> = Arc::new(
        TieredBackend::new(
            Box::new(FileBackend::open(&fast_dir).unwrap()),
            Box::new(FileBackend::open(&slow_dir).unwrap()),
            8,
        )
        .unwrap(),
    );

    let cfg = cfg.with_committer_streams(4);
    let mgr = PageManager::with_shared_backend(cfg, Arc::clone(&backend)).unwrap();
    let mut lr = restore_latest_lazy(&mgr, Arc::clone(&backend), None)
        .unwrap()
        .unwrap();
    // Touch every page up front: whichever record the flip landed in is
    // read on demand, fails its CRC, and the filler must repair — not
    // poison — before completing the fault.
    for (i, chunk) in lr.state.buffers[0].as_slice().chunks(ps).enumerate() {
        for &byte in chunk {
            assert_eq!(byte, 0x21 ^ i as u8, "page {i} after in-fault heal");
        }
    }
    lr.wait()
        .expect("no page may be poisoned while the slow tier survives");

    // The heal is durable, not a read-side patch: the fast tier's segment
    // verifies clean again for every later reader.
    assert!(backend.verify_epoch(1).unwrap().is_clean());
}

#[test]
fn a_record_longer_than_its_page_fails_both_doors_and_publishes_nothing() {
    use ai_ckpt_storage::{write_epoch, META_RECORD};

    const PAGES: usize = 4;
    let ps = page_size();
    let last = PAGES as u64 - 1;
    for filter in [false, true] {
        let (backend, view) = MemoryBackend::shared();
        let cfg = small_cfg()
            .with_committer_streams(1)
            .with_content_filter(filter);
        seed_pages(Box::new(backend), &cfg, PAGES);
        // Epoch 2, written by hand: the layout again, and two pages' worth
        // of bytes for the buffer's last page, which a restore would write
        // into whatever mapping follows the buffer.
        let layout = view.read_page_at(1, META_RECORD).unwrap().unwrap();
        write_epoch(
            &view,
            2,
            [(META_RECORD, layout), (last, vec![0xEE; 2 * ps])],
        )
        .unwrap();
        let why = format!("page {last} in epoch 2");
        let (_mgr, mut lr) = both_doors_fail(&cfg, 2, || view.clone(), &why);
        let err = lr.wait().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The newest epoch's page is the first read, so nothing before it
        // was published.
        assert!(
            published(&lr, PAGES).is_empty(),
            "filter {filter}: no page is published"
        );
    }
}
