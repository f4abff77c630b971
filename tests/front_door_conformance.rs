//! Front-door conformance: however a `PageManager` is obtained —
//! `PageManager::new` (a private one-tenant pool), `CkptService::add_tenant`
//! (the service's shared pool) or a `CheckpointGroup` rank (the group's
//! shared pool) — it runs the same flush path, so one behavioural script
//! must hold for all three: restored bytes, `stats()` shape, error
//! surfacing and thread release.
//!
//! One `#[test]` on purpose: the thread-count assertions read
//! `/proc/self/task`, which any test running beside this one would shift.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ai_ckpt::{restore_latest, CkptConfig, PageManager, ProtectedBuffer};
use ai_ckpt_coord::{CheckpointGroup, GroupConfig};
use ai_ckpt_mem::page_size;
use ai_ckpt_service::{CkptService, ServiceConfig, TenantQuota};
use ai_ckpt_storage::log::Log;
use ai_ckpt_storage::{
    is_page, FailingBackend, FaultOp, FileBackend, MemoryBackend, StorageBackend, ThrottledBackend,
    TieredBackend, META_RECORD,
};

/// Flush workers behind every door; each pool adds one maintenance worker.
const WORKERS: usize = 2;
const POOL_THREADS: usize = WORKERS + 1;

fn cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(4 * page_size())
        .with_max_pages(64)
        .with_committer_streams(WORKERS)
        .with_flush_batch_pages(2)
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Joined threads leave `/proc/self/task` a moment after `join` returns.
fn assert_threads(expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(thread_count(), expected, "{what}");
}

#[derive(Clone, Copy, Debug)]
enum Door {
    Standalone,
    ServiceTenant,
    GroupRank,
}

/// A manager obtained through one door, plus whatever hosts it. Field
/// order is drop order: the manager goes before its host.
struct Front {
    own: Option<PageManager>,
    group: Option<CheckpointGroup>,
    svc: Option<CkptService>,
    dir: Option<PathBuf>,
}

impl Front {
    fn open(door: Door, backend: Box<dyn StorageBackend>) -> Self {
        let mut front = Front {
            own: None,
            group: None,
            svc: None,
            dir: None,
        };
        match door {
            Door::Standalone => front.own = Some(PageManager::new(cfg(), backend).unwrap()),
            Door::ServiceTenant => {
                let svc = CkptService::new(ServiceConfig { workers: WORKERS });
                let mgr = svc.add_tenant("t", cfg(), Arc::from(backend), TenantQuota::default());
                front.own = Some(mgr.unwrap());
                front.svc = Some(svc);
            }
            Door::GroupRank => {
                static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "aickpt-front-door-{}-{}",
                    std::process::id(),
                    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).unwrap();
                // Rank 0 gets the backend under test; rank 1 idles on the
                // same pool.
                let mut backend = Some(backend);
                let global = Log::new(dir.join("GLOBAL"), None);
                let group = CheckpointGroup::open(GroupConfig::new(2, cfg()), global, |_| {
                    Ok(backend
                        .take()
                        .unwrap_or_else(|| Box::new(MemoryBackend::new())))
                });
                front.group = Some(group.unwrap());
                front.dir = Some(dir);
            }
        }
        front
    }

    fn mgr(&self) -> &PageManager {
        match &self.group {
            Some(group) => group.rank(0),
            None => self.own.as_ref().unwrap(),
        }
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.own.take();
        self.group.take();
        self.svc.take();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn scribble(buf: &mut ProtectedBuffer, pages: std::ops::Range<usize>, val: u8) {
    let ps = page_size();
    for p in pages {
        buf.as_mut_slice()[p * ps..(p + 1) * ps].fill(val ^ p as u8);
    }
}

/// Rebuild "state" from `view` through a fresh standalone manager. Eager
/// restore fills on the calling thread: the process gains no task across it
/// (a spawned-and-joined filler would still be listed right after its join).
fn restored_state(view: &dyn StorageBackend) -> Vec<u8> {
    let fresh = PageManager::new(cfg(), Box::new(MemoryBackend::new())).unwrap();
    let tasks = thread_count();
    let restored = restore_latest(&fresh, view).unwrap().unwrap();
    assert!(thread_count() <= tasks, "eager restore spawned a thread");
    restored.buffers[restored.by_name["state"]]
        .as_slice()
        .to_vec()
}

/// `wait_checkpoint` with a watchdog: a completion nobody notices would
/// otherwise hang the suite instead of failing it.
fn settle(mgr: &PageManager, what: &str) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while mgr.checkpoint_in_progress() {
        assert!(
            Instant::now() < deadline,
            "{what}: checkpoint never settled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    mgr.wait_checkpoint()
}

/// `idle` is the process's thread count before any door opened: a count
/// read right after the previous door's pool joined can still include a
/// worker that has not exited yet.
fn run_script(door: Door, idle: usize) {
    let ps = page_size();
    let tag = |what: &str| format!("{door:?}: {what}");

    // 1. Checkpoint twice; restored bytes and the shape of `stats()`.
    {
        let (mem, view) = MemoryBackend::shared();
        let front = Front::open(door, Box::new(mem));
        assert_threads(idle + POOL_THREADS, &tag("a pool is workers + 1 threads"));
        let mgr = front.mgr();
        let mut buf = mgr.alloc_protected_named("state", 8 * ps).unwrap();
        scribble(&mut buf, 0..8, 0x11);
        mgr.checkpoint().unwrap();
        scribble(&mut buf, 2..5, 0x22);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();

        let stats = mgr.stats();
        assert_eq!(
            stats.streams.len(),
            WORKERS,
            "{}",
            tag("one entry per slot")
        );
        let pages: u64 = stats.streams.iter().map(|s| s.pages).sum();
        let bytes: u64 = stats.streams.iter().map(|s| s.bytes).sum();
        assert_eq!(
            pages,
            8 + 3,
            "{}",
            tag("streams count this manager's pages")
        );
        assert_eq!(bytes, pages * ps as u64);
        // Each epoch carries its layout as one more record; nothing else.
        let layout_bytes: usize = [1, 2]
            .iter()
            .map(|&e| view.read_page_at(e, META_RECORD).unwrap().unwrap().len())
            .sum();
        assert_eq!(view.bytes_written(), bytes + layout_bytes as u64);
        assert_eq!(stats.checkpoints.len(), 2);
        assert!(stats
            .checkpoints
            .iter()
            .all(|c| !c.failed && c.duration.is_some()));
        assert_eq!(stats.maintenance.failures, 0);

        let expected = buf.as_slice().to_vec();
        drop(buf);
        drop(front);
        assert_threads(idle, &tag("threads released"));
        assert_eq!(restored_state(&view), expected, "{}", tag("restore"));
    }

    // 2. Drop a buffer mid-flush behind a slow backend: its unflushed pages
    //    are discarded, and the checkpoint must still settle and commit
    //    whether its last page went through a claim or a discard.
    {
        let (mem, view) = MemoryBackend::shared();
        let slow = ThrottledBackend::new(mem, (4 * ps) as f64 * 10.0, Duration::ZERO);
        let front = Front::open(door, Box::new(slow));
        let mgr = front.mgr();
        let mut buf = mgr.alloc_protected_named("state", ps).unwrap();
        let mut doomed = mgr.alloc_protected(8 * ps).unwrap();
        scribble(&mut buf, 0..1, 0x33);
        scribble(&mut doomed, 0..8, 0x33);
        mgr.checkpoint().unwrap();
        drop(doomed);
        settle(mgr, &tag("buffer dropped mid-flush")).unwrap();
        assert_eq!(view.epochs().unwrap(), vec![1]);

        scribble(&mut buf, 0..1, 0x44);
        mgr.checkpoint().unwrap();
        settle(mgr, &tag("checkpoint after the drop")).unwrap();
        assert_eq!(view.epochs().unwrap(), vec![1, 2]);
        let expected = buf.as_slice().to_vec();
        drop(buf);
        drop(front);
        assert_eq!(restored_state(&view), expected, "{}", tag("restore"));
    }

    // 3. A failed `begin_epoch` and a failed `finish`: the epoch drains
    //    without committing, the error surfaces exactly once, and the next
    //    checkpoint succeeds. On a file backend, so "left nothing behind"
    //    covers the directory too.
    {
        let dir = std::env::temp_dir().join(format!(
            "aickpt-front-door-faults-{}-{door:?}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (failing, ctl) = FailingBackend::new(FileBackend::open(&dir).unwrap());
        let front = Front::open(door, Box::new(failing));
        let mgr = front.mgr();
        let view = Arc::clone(mgr.backend());
        let mut buf = mgr.alloc_protected_named("state", 4 * ps).unwrap();

        scribble(&mut buf, 0..4, 0x55);
        ctl.fail(FaultOp::BeginEpoch, true);
        mgr.checkpoint().unwrap();
        settle(mgr, &tag("failed begin_epoch")).unwrap_err();
        mgr.wait_checkpoint().unwrap(); // surfaced once, not twice
        assert!(view.epochs().unwrap().is_empty());

        ctl.heal();
        scribble(&mut buf, 0..4, 0x66);
        mgr.checkpoint().unwrap();
        settle(mgr, &tag("after failed begin_epoch")).unwrap();
        assert_eq!(view.epochs().unwrap(), vec![2]);

        scribble(&mut buf, 1..3, 0x77);
        ctl.fail(FaultOp::Finish, true);
        mgr.checkpoint().unwrap();
        settle(mgr, &tag("failed finish")).unwrap_err();
        assert_eq!(view.epochs().unwrap(), vec![2]);
        // The failed epoch left no record and no file behind; the committed
        // one holds exactly one layout record.
        assert!(view.read_page_at(3, META_RECORD).is_err());
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                name == "MANIFEST" || name.starts_with("epoch_0000000002."),
                "{}",
                tag(&format!("orphan file {name}"))
            );
        }
        let ids = view.epoch_page_ids(2).unwrap();
        assert_eq!(ids.iter().filter(|&&id| !is_page(id)).count(), 1);
        assert!(ids.contains(&META_RECORD));

        ctl.heal();
        scribble(&mut buf, 1..3, 0x88);
        // The failure is surfaced by whichever call comes first; it was
        // `wait_checkpoint` above, so this one starts clean.
        mgr.checkpoint().unwrap();
        settle(mgr, &tag("after failed finish")).unwrap();
        assert_eq!(view.epochs().unwrap(), vec![2, 4]);

        let failed: Vec<bool> = mgr.stats().checkpoints.iter().map(|c| c.failed).collect();
        assert_eq!(failed, [true, false, true, false], "{}", tag("records"));
        let expected = buf.as_slice().to_vec();
        drop(buf);
        drop(view);
        drop(front);
        let view = FileBackend::open(&dir).unwrap();
        assert_eq!(restored_state(&view), expected, "{}", tag("restore"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // 4. `wait_maintenance_idle` on a tiered backend: the fast tier is
    //    empty and every epoch sits in the durable one.
    {
        let (fast, fast_view) = MemoryBackend::shared();
        let (slow, slow_view) = MemoryBackend::shared();
        let tiered = TieredBackend::new(Box::new(fast), Box::new(slow), 8).unwrap();
        let front = Front::open(door, Box::new(tiered));
        let mgr = front.mgr();
        let mut buf = mgr.alloc_protected_named("state", 4 * ps).unwrap();
        for round in 1..=3u8 {
            scribble(&mut buf, 0..4, round);
            mgr.checkpoint().unwrap();
        }
        mgr.wait_maintenance_idle().unwrap();
        assert!(fast_view.epochs().unwrap().is_empty());
        assert_eq!(slow_view.epochs().unwrap(), vec![1, 2, 3]);
        let maint = mgr.stats().maintenance;
        assert_eq!(maint.epochs_drained, 3, "{}", tag("drained"));
        assert_eq!(maint.failures, 0);
        let expected = buf.as_slice().to_vec();
        drop(buf);
        drop(front);
        assert_eq!(restored_state(&slow_view), expected, "{}", tag("restore"));
    }

    // 5. Drop the manager (and its host) with an epoch in flight: the drop
    //    waits the flush out, the epoch commits whole, the threads go away.
    {
        let (mem, view) = MemoryBackend::shared();
        let slow = ThrottledBackend::new(mem, (4 * ps) as f64 * 20.0, Duration::ZERO);
        let front = Front::open(door, Box::new(slow));
        let mut buf = front.mgr().alloc_protected_named("state", 8 * ps).unwrap();
        scribble(&mut buf, 0..8, 0x99);
        front.mgr().checkpoint().unwrap();
        assert!(front.mgr().checkpoint_in_progress());
        drop(front);
        assert_threads(idle, &tag("threads released with an epoch in flight"));
        assert_eq!(view.epochs().unwrap(), vec![1]);
        let expected = buf.as_slice().to_vec();
        drop(buf);
        assert_eq!(restored_state(&view), expected, "{}", tag("restore"));
    }
}

#[test]
fn one_script_three_front_doors() {
    let idle = thread_count();
    for door in [Door::Standalone, Door::ServiceTenant, Door::GroupRank] {
        run_script(door, idle);
    }

    // Thread count does not depend on how many managers a pool hosts: a
    // six-rank group runs on exactly as many threads as a two-rank one.
    for ranks in [2, 6] {
        let dir = std::env::temp_dir().join(format!(
            "aickpt-front-door-ranks-{}-{ranks}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let global = Log::new(dir.join("GLOBAL"), None);
        let mut group = CheckpointGroup::open(GroupConfig::new(ranks, cfg()), global, |_| {
            Ok(Box::new(MemoryBackend::new()))
        })
        .unwrap();
        let mut bufs: Vec<_> = (0..ranks)
            .map(|r| group.rank(r).alloc_protected(2 * page_size()).unwrap())
            .collect();
        for (r, buf) in bufs.iter_mut().enumerate() {
            scribble(buf, 0..2, r as u8 + 1);
        }
        assert_eq!(group.checkpoint().unwrap(), 1);
        assert_threads(idle + POOL_THREADS, &format!("{ranks}-rank group"));
        drop(bufs);
        drop(group);
        assert_threads(idle, &format!("{ranks}-rank group released"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
