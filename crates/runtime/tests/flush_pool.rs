//! The flush pool seen through its public surface: `FlushPool::attach` and
//! `TenantHook`.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ai_ckpt::{CkptConfig, FlushPool, TenantHook};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{is_page, EpochWriter, MemoryBackend, StorageBackend};

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(4 * page_size()).with_max_pages(64)
}

/// Refuses every claim while `closed`, and counts what it is told.
#[derive(Default)]
struct Gate {
    closed: AtomicBool,
    commits: AtomicU64,
    committed_pages: AtomicU64,
}

impl TenantHook for Gate {
    fn may_claim(&self) -> bool {
        !self.closed.load(Ordering::Acquire)
    }
    fn on_commit(&self, result: &std::io::Result<()>, pages: u64, _bytes: u64) {
        assert!(result.is_ok());
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.committed_pages.fetch_add(pages, Ordering::Relaxed);
    }
}

/// A buffer drop that ends a checkpoint must reach the finaliser by
/// notification. Here no claim can ever run (the hook refuses them all), so
/// the epoch can only complete through the discard path — and only commit
/// if the drop tells the pool.
#[test]
fn buffer_drop_that_ends_a_checkpoint_wakes_the_finaliser() {
    let (mem, view) = MemoryBackend::shared();
    let pool = FlushPool::new(2).unwrap();
    let gate = Arc::new(Gate::default());
    let mgr = pool
        .attach(cfg(), Arc::new(mem), Arc::clone(&gate) as _)
        .unwrap();
    let mut buf = mgr.alloc_protected(8 * page_size()).unwrap();
    buf.as_mut_slice().fill(3);

    gate.closed.store(true, Ordering::Release);
    mgr.checkpoint().unwrap();
    // Wait until a worker has opened the epoch and found every claim
    // refused: the flush is active, nothing is in progress.
    while pool.depths() != (0, 1) {
        std::thread::yield_now();
    }
    assert!(mgr.checkpoint_in_progress());
    drop(buf);
    mgr.wait_checkpoint().unwrap();

    assert_eq!(view.epochs().unwrap(), vec![1], "the empty epoch commits");
    assert_eq!(gate.commits.load(Ordering::Relaxed), 1);
    assert_eq!(gate.committed_pages.load(Ordering::Relaxed), 0);
}

/// A backend whose `begin_epoch` waits until released (six required
/// methods + `inner`; everything else forwards by itself).
struct HeldOpen {
    inner: MemoryBackend,
    hold: Arc<AtomicBool>,
}

impl StorageBackend for HeldOpen {
    fn inner(&self) -> Option<&dyn StorageBackend> {
        Some(&self.inner)
    }
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        while self.hold.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
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
}

/// The same completion, one step earlier: the drop ends the checkpoint
/// while its epoch is still opening, so the notice finds no flush to flag.
/// The worker that opens the epoch must notice by itself — no claim will
/// (the hook refuses them all).
#[test]
fn checkpoint_that_ends_before_its_epoch_opens_is_finalised() {
    let (mem, view) = MemoryBackend::shared();
    let hold = Arc::new(AtomicBool::new(true));
    let backend = HeldOpen {
        inner: mem,
        hold: Arc::clone(&hold),
    };
    let pool = FlushPool::new(1).unwrap();
    let gate = Arc::new(Gate::default());
    gate.closed.store(true, Ordering::Release);
    let mgr = pool.attach(cfg(), Arc::new(backend), gate).unwrap();
    let mut buf = mgr.alloc_protected(8 * page_size()).unwrap();
    buf.as_mut_slice().fill(3);

    mgr.checkpoint().unwrap();
    drop(buf);
    hold.store(false, Ordering::Release);
    mgr.wait_checkpoint().unwrap();
    assert_eq!(view.epochs().unwrap(), vec![1]);
}

/// A backend whose `drain_one` — the first call of every maintenance upkeep
/// that sees a backlog — parks while `hold` is set, raising `parked` first.
/// It reports a backlog of one while held, so the upkeep makes that call.
struct HeldDrain {
    inner: MemoryBackend,
    hold: Arc<AtomicBool>,
    parked: Arc<AtomicBool>,
}

impl StorageBackend for HeldDrain {
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
    fn drain_one(&self) -> io::Result<Option<u64>> {
        while self.hold.load(Ordering::Acquire) {
            self.parked.store(true, Ordering::Release);
            std::thread::yield_now();
        }
        self.inner.drain_one()
    }
    fn drain_backlog(&self) -> usize {
        self.hold.load(Ordering::Acquire) as usize
    }
}

/// The maintenance worker takes a handle on a tenant before it runs the
/// tenant's upkeep. Dropping the manager meanwhile must wait that upkeep
/// out: once the drop returns, the pool holds nothing of the tenant — not
/// its backend — and writes nothing more for it. The upkeep is parked
/// inside the backend until a releaser lets it go; a drop that waits can
/// only return after that, whatever the timing. The releaser's 20 ms sleep
/// only gives a drop that does not wait the time to return first.
#[test]
fn dropping_a_manager_waits_for_the_upkeep_that_holds_its_tenant() {
    let hold = Arc::new(AtomicBool::new(true));
    let parked = Arc::new(AtomicBool::new(false));
    let backend: Arc<dyn StorageBackend> = Arc::new(HeldDrain {
        inner: MemoryBackend::new(),
        hold: Arc::clone(&hold),
        parked: Arc::clone(&parked),
    });
    let pool = FlushPool::new(1).unwrap();
    let mgr = pool
        .attach(cfg(), Arc::clone(&backend), Arc::new(()))
        .unwrap();
    let mut buf = mgr.alloc_protected(page_size()).unwrap();
    buf.as_mut_slice()[0] = 1;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    while !parked.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    drop(buf);
    let dropped = AtomicBool::new(false);
    let dropped_first = std::thread::scope(|s| {
        let releaser = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            let first = dropped.load(Ordering::Acquire);
            hold.store(false, Ordering::Release);
            first
        });
        drop(mgr);
        dropped.store(true, Ordering::Release);
        releaser.join().unwrap()
    });
    assert!(
        !dropped_first,
        "the drop returned while the upkeep held the tenant"
    );
    assert_eq!(
        Arc::strong_count(&backend),
        1,
        "the pool released the backend"
    );
}

/// Two managers on one pool: each one's `stats().streams` has one entry per
/// worker slot and counts its own pages only.
#[test]
fn per_manager_stream_counters_on_a_shared_pool() {
    let pool = FlushPool::new(3).unwrap();
    let ps = page_size();
    let managers: Vec<_> = (0..2)
        .map(|_| {
            pool.attach(cfg(), Arc::new(MemoryBackend::new()), Arc::new(()))
                .unwrap()
        })
        .collect();
    let mut bufs = Vec::new();
    for (i, mgr) in managers.iter().enumerate() {
        let pages = 5 + 7 * i;
        let mut buf = mgr.alloc_protected(pages * ps).unwrap();
        buf.as_mut_slice().fill(i as u8 + 1);
        mgr.checkpoint().unwrap();
        bufs.push((buf, pages as u64));
    }
    for (mgr, (_, pages)) in managers.iter().zip(&bufs) {
        mgr.wait_checkpoint().unwrap();
        let stats = mgr.stats();
        assert_eq!(stats.streams.len(), 3);
        assert_eq!(stats.streams.iter().map(|s| s.pages).sum::<u64>(), *pages);
        let id = mgr.tenant_id();
        assert_eq!(pool.tenant_stats(id).unwrap().streams, stats.streams);
    }
    drop(bufs);
    drop(managers);
    assert!(pool.tenant_stats(0).is_none() && pool.tenant_stats(1).is_none());
}

/// A buffer drop reports the completion it caused after releasing the
/// engine lock, and may keep discarding for a long time afterwards. By the
/// time the notice lands, a worker's claim may have finalised that epoch
/// and the tenant's *next* checkpoint may be its active flush: the notice
/// must not finalise that one while it still has pending pages.
///
/// Epoch 1 is the scratch buffer's first page, held back by the hook until
/// the drop has discarded it; the drop then spends 100k engine-lock round
/// trips (~2 ms) on the clean tail. Meanwhile a worker, woken through a
/// second tenant, claims, finds epoch 1 over and finalises it, and epoch 2
/// — the state buffer, every claim refused — becomes the active flush. A
/// notice delivered at the end of the drop committed it empty in about
/// half the rounds.
#[test]
fn late_drop_notice_never_finalises_the_next_checkpoint() {
    const STATE_PAGES: usize = 8;
    const SCRATCH_PAGES: usize = 100_000;
    let ps = page_size();
    let pool = FlushPool::new(2).unwrap();
    let waker = pool
        .attach(cfg(), Arc::new(MemoryBackend::new()), Arc::new(()))
        .unwrap();
    for round in 0..20u8 {
        let (mem, view) = MemoryBackend::shared();
        let gate = Arc::new(Gate::default());
        let big = CkptConfig::ai_ckpt(4 * ps).with_max_pages(STATE_PAGES + SCRATCH_PAGES);
        let mgr = pool
            .attach(big, Arc::new(mem), Arc::clone(&gate) as _)
            .unwrap();
        let mut state = mgr.alloc_protected(STATE_PAGES * ps).unwrap();
        let mut scratch = mgr.alloc_protected(SCRATCH_PAGES * ps).unwrap();
        scratch.as_mut_slice()[0] = 1;

        gate.closed.store(true, Ordering::Release);
        mgr.checkpoint().unwrap();
        while pool.depths() != (0, 1) {
            std::thread::yield_now();
        }
        std::thread::scope(|s| {
            let dropper = s.spawn(move || drop(scratch));
            // Thread start-up plus the drop's passes before the discards.
            std::thread::sleep(Duration::from_micros(500));
            gate.closed.store(false, Ordering::Release);
            waker.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();

            gate.closed.store(true, Ordering::Release);
            state.as_mut_slice().fill(round + 1);
            mgr.checkpoint().unwrap();
            dropper.join().unwrap();
            gate.closed.store(false, Ordering::Release);
            mgr.wait_checkpoint().unwrap();
        });
        waker.wait_checkpoint().unwrap();

        let mut pages = 0;
        view.read_epoch(2, &mut |id, _| pages += is_page(id) as usize)
            .unwrap();
        assert_eq!(pages, STATE_PAGES, "round {round}: epoch 2 is truncated");
    }
}
