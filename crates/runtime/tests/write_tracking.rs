//! Write tracking at scale and at its edges, on both paths: userfaultfd
//! write-protect (where it opens, as here) and the `mprotect` fallback
//! (reached through `ai_ckpt::with_mprotect_tracking`).
//!
//! The scale rows and the dropped-page row run in a child process each
//! (this test binary, filtered to the row) under a timeout: a tracker that
//! kills the process — an `mprotect` past `vm.max_map_count` used to end in
//! SIGSEGV — or faults for ever then reports a red row instead of taking
//! the rest of the binary down with it.

use std::io::{Read, Write};
use std::process::Command;
use std::sync::Arc;

use ai_ckpt::{
    restore_at, restore_lazy, with_mprotect_tracking, CkptConfig, PageManager, ProtectedBuffer,
};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{Compression, MemoryBackend, StorageBackend};

/// Set in the child a row re-runs itself in.
const CHILD: &str = "AI_CKPT_WRITE_TRACKING_CHILD";

/// How long a row's child may run before `timeout(1)` kills it as hung
/// (exit status 124).
const CHILD_TIMEOUT: &str = "60";

/// Run `row` in a child process: this binary, filtered to the test `name`.
fn in_child(name: &str, row: impl FnOnce()) {
    if std::env::var_os(CHILD).is_some() {
        row();
        return;
    }
    let out = Command::new("timeout")
        .arg(CHILD_TIMEOUT)
        .arg(std::env::current_exe().unwrap())
        .args(["--exact", name, "--test-threads=1", "--nocapture"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} in a child process: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The path a row runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Path {
    WriteProtect,
    Mprotect,
}

impl Path {
    /// Build a manager on this path. A host where write-protect does not
    /// open builds the fallback either way.
    fn manager(self, cfg: CkptConfig, backend: Box<dyn StorageBackend>) -> PageManager {
        let mgr = match self {
            Path::WriteProtect => PageManager::new(cfg, backend),
            Path::Mprotect => with_mprotect_tracking(|| PageManager::new(cfg, backend)),
        }
        .unwrap();
        if self == Path::Mprotect {
            assert!(!mgr.tracks_writes_by_write_protect());
        }
        mgr
    }
}

/// Mappings of this process that overlap `buf` (`/proc/self/maps`).
fn mappings(buf: &ProtectedBuffer) -> usize {
    let (start, end) = (
        buf.as_ptr() as usize,
        buf.as_ptr() as usize + buf.pages() * page_size(),
    );
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    maps.lines()
        .filter(|line| {
            let range = line.split(' ').next().unwrap();
            let (lo, hi) = range.split_once('-').unwrap();
            let lo = usize::from_str_radix(lo, 16).unwrap();
            let hi = usize::from_str_radix(hi, 16).unwrap();
            lo < end && start < hi
        })
        .count()
}

/// `0..n` in a seeded random order (Fisher–Yates over xorshift64).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut x = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// Pages of the stride-2 row: past `vm.max_map_count` (65 530 by default)
/// had every written page cost the fallback two mappings.
const STRIDE_PAGES: usize = 70_000;

/// What the stride-2 row writes at the start of page `p` in epoch `e`.
fn stamp(p: usize, e: u64) -> u64 {
    (p as u64) << 8 | e
}

/// Every other page of 70 000 written in address order, two epochs in a
/// row, each checkpointed; an eager restore of the second holds exactly
/// those bytes.
fn stride_2_row(path: Path) {
    let ps = page_size();
    let cfg = CkptConfig::ai_ckpt(1 << 20).with_max_pages(STRIDE_PAGES);
    // Compressed: a page holds 8 bytes over zeros.
    let view = MemoryBackend::with_compression(Compression::Auto);
    let backend = view.clone();
    {
        let mgr = path.manager(cfg.clone(), Box::new(backend));
        let mut buf = mgr
            .alloc_protected_named("stride", STRIDE_PAGES * ps)
            .unwrap();
        for e in 1..=2 {
            let slice = buf.as_mut_slice();
            for p in (0..STRIDE_PAGES).step_by(2) {
                slice[p * ps..p * ps + 8].copy_from_slice(&stamp(p, e).to_le_bytes());
            }
            mgr.checkpoint().unwrap();
            mgr.wait_checkpoint().unwrap();
        }
    }
    let mgr = path.manager(cfg, Box::new(MemoryBackend::new()));
    let restored = restore_at(&mgr, &view, 2).unwrap();
    let buf = &restored.buffers[restored.by_name["stride"]];
    for (p, page) in buf.as_slice().chunks(ps).enumerate() {
        let want = match p % 2 {
            0 => stamp(p, 2),
            _ => 0,
        };
        assert_eq!(page[..8], want.to_le_bytes(), "page {p}");
        assert!(page[8..].iter().all(|&b| b == 0), "page {p}");
    }
}

#[test]
fn stride_2_writes_over_70_000_pages_survive_two_checkpoints_on_write_protect() {
    in_child(
        "stride_2_writes_over_70_000_pages_survive_two_checkpoints_on_write_protect",
        || stride_2_row(Path::WriteProtect),
    );
}

#[test]
fn stride_2_writes_over_70_000_pages_survive_two_checkpoints_on_mprotect() {
    in_child(
        "stride_2_writes_over_70_000_pages_survive_two_checkpoints_on_mprotect",
        || stride_2_row(Path::Mprotect),
    );
}

/// Half of 8 192 pages written in a random order: the region is back to a
/// handful of mappings after the checkpoint — and on write-protect never
/// leaves it.
fn random_order_row(path: Path) {
    const PAGES: usize = 8192;
    let ps = page_size();
    let cfg = CkptConfig::ai_ckpt(1 << 20).with_max_pages(PAGES);
    let mgr = path.manager(cfg, Box::new(MemoryBackend::new()));
    let mut buf = mgr.alloc_protected_named("random", PAGES * ps).unwrap();
    let order = permutation(PAGES, 0x5eed_cafe);
    let written = &order[..PAGES / 2];
    let mut peak = 0;
    for (i, &p) in written.iter().enumerate() {
        buf.as_mut_slice()[p * ps] = 1;
        if i == written.len() / 2 {
            peak = mappings(&buf);
        }
    }
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    let after = mappings(&buf);
    eprintln!("{path:?}: {peak} mappings mid-epoch, {after} after the checkpoint");
    assert!(
        after <= 4,
        "{path:?}: {after} mappings after the checkpoint"
    );
    if mgr.tracks_writes_by_write_protect() {
        assert!(peak <= 4, "{path:?}: {peak} mappings mid-epoch");
    }
    assert_eq!(
        mgr.stats().checkpoints[0].scheduled_pages,
        written.len() as u64
    );
}

#[test]
fn a_random_order_epoch_leaves_a_handful_of_mappings_on_write_protect() {
    in_child(
        "a_random_order_epoch_leaves_a_handful_of_mappings_on_write_protect",
        || random_order_row(Path::WriteProtect),
    );
}

#[test]
fn a_random_order_epoch_leaves_a_handful_of_mappings_on_mprotect() {
    in_child(
        "a_random_order_epoch_leaves_a_handful_of_mappings_on_mprotect",
        || random_order_row(Path::Mprotect),
    );
}

/// A `read(2)` into a tracked page — one never touched, one written in an
/// earlier epoch — fails with `EFAULT` and lands no byte; once the pages
/// are touched (`touch_pages`) it succeeds, and the next checkpoint holds
/// both pages.
fn syscall_row(path: Path) {
    let ps = page_size();
    let mgr = path.manager(
        CkptConfig::ai_ckpt(1 << 20).with_max_pages(64),
        Box::new(MemoryBackend::new()),
    );
    let mut buf = mgr.alloc_protected_named("io", 4 * ps).unwrap();
    buf.as_mut_slice()[ps] = 7;
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();

    let file =
        std::env::temp_dir().join(format!("ai-ckpt-tracking-{}-{path:?}", std::process::id()));
    std::fs::File::create(&file)
        .unwrap()
        .write_all(&[0xAB; 16])
        .unwrap();
    for p in [1, 2] {
        let page = &mut buf.as_mut_slice()[p * ps..(p + 1) * ps];
        let err = std::fs::File::open(&file).unwrap().read(page).unwrap_err();
        assert_eq!(
            err.raw_os_error(),
            Some(libc::EFAULT),
            "{path:?}: page {p}: {err}"
        );
    }
    assert_eq!(buf.as_slice()[ps], 7, "{path:?}: no byte landed");
    assert_eq!(buf.as_slice()[2 * ps], 0, "{path:?}: no byte landed");

    unsafe { ai_ckpt_mem::touch_pages(buf.as_ptr().add(ps), 2 * ps) };
    for p in [1, 2] {
        let page = &mut buf.as_mut_slice()[p * ps..(p + 1) * ps];
        assert_eq!(std::fs::File::open(&file).unwrap().read(page).unwrap(), 16);
    }
    std::fs::remove_file(&file).unwrap();
    assert_eq!(mgr.checkpoint().unwrap().scheduled_pages, 2, "{path:?}");
    mgr.wait_checkpoint().unwrap();
}

#[test]
fn a_syscall_writing_into_a_tracked_page_fails_with_efault_on_write_protect() {
    syscall_row(Path::WriteProtect);
}

#[test]
fn a_syscall_writing_into_a_tracked_page_fails_with_efault_on_mprotect() {
    syscall_row(Path::Mprotect);
}

/// A lazily restored page that the application drops with `MADV_DONTNEED`
/// and then writes, and another it drops and reads: each access completes,
/// each page reads zero but for what was written, and the written page is
/// tracked once — the next checkpoint stores exactly its bytes. On
/// write-protect the restore's marked runs stay registered for missing-page
/// faults after the fill, and such a write used to fault for ever.
fn dropped_page_row(path: Path) {
    let ps = page_size();
    let cfg = CkptConfig::ai_ckpt(1 << 20).with_max_pages(64);
    let view = MemoryBackend::new();
    let mgr = path.manager(cfg.clone(), Box::new(view.clone()));
    let mut written = mgr.alloc_protected_named("d", 16 * ps).unwrap();
    written.as_mut_slice().fill(7);
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    drop((written, mgr));

    let mgr = path.manager(cfg, Box::new(view.clone()));
    let mut lazy = restore_lazy(&mgr, Arc::new(view.clone()), 1, None).unwrap();
    lazy.wait().unwrap();
    let (buf, zero) = (&mut lazy.state.buffers[0], vec![0; ps]);
    // SAFETY: two pages of the buffer, which no other thread touches.
    let at = unsafe { buf.as_ptr().add(3 * ps) } as _;
    assert_eq!(unsafe { libc::madvise(at, 2 * ps, libc::MADV_DONTNEED) }, 0);
    buf.as_mut_slice()[3 * ps + 1] = 0xD3;
    assert!(buf.as_slice()[4 * ps..5 * ps] == zero, "{path:?}: read");
    let stalls = mgr.stats().write_stall.count;
    buf.as_mut_slice()[3 * ps + 2] = 0xD3;
    assert_eq!(mgr.stats().write_stall.count, stalls, "{path:?}");
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
    let stored = view.read_page_at(2, buf.base_page() as u64 + 3).unwrap();
    let want = [&zero[..1], &[0xD3; 2], &zero[3..]].concat();
    assert!(stored == Some(want), "{path:?}: page 3 stored wrong");
}

#[test]
fn a_dropped_page_of_a_lazy_restore_reads_zero_and_takes_a_write_on_write_protect() {
    in_child(
        "a_dropped_page_of_a_lazy_restore_reads_zero_and_takes_a_write_on_write_protect",
        || dropped_page_row(Path::WriteProtect),
    );
}

#[test]
fn a_dropped_page_of_a_lazy_restore_reads_zero_and_takes_a_write_on_mprotect() {
    in_child(
        "a_dropped_page_of_a_lazy_restore_reads_zero_and_takes_a_write_on_mprotect",
        || dropped_page_row(Path::Mprotect),
    );
}
