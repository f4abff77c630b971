//! Restore ablation: eager versus demand-paged restart.
//!
//! Part 1 measures *time to first instruction* — how long a restarting
//! process waits before it can touch its state. Both restores prepare the
//! same way (layout replay, pages mapped `PROT_NONE`) and fill through the
//! same filler; eager waits for the whole fill, so TTFI grows linearly with
//! image size, while lazy returns first and faults the first page in on
//! demand, so TTFI stays flat across a 16x image-size sweep.
//!
//! Part 2 is the restore storm: N processes restarting from the same
//! checkpoint (the common failure mode — a whole job restarts at once)
//! through one shared [`PageCache`]. The quantity of interest is disk
//! reads per page, which should stay at 1 regardless of N; it prints its
//! own table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ai_ckpt::{restore_at, restore_lazy, CkptConfig, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{FileBackend, PageCache, StorageBackend};

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("aickpt-bench-restore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checkpoint a `pages`-page buffer (page i filled with i) into `dir`.
fn build_image(dir: &PathBuf, pages: usize, cfg: &CkptConfig) {
    let mgr = PageManager::new(cfg.clone(), Box::new(FileBackend::open(dir).unwrap())).unwrap();
    let ps = page_size();
    let mut buf = mgr.alloc_protected_named("state", pages * ps).unwrap();
    for (i, chunk) in buf.as_mut_slice().chunks_mut(ps).enumerate() {
        // Incompressible-ish contents so storage does real per-page work.
        for (j, byte) in chunk.iter_mut().enumerate() {
            *byte = (i * 2654435761 + j * 40503) as u8;
        }
    }
    mgr.checkpoint().unwrap();
    mgr.wait_checkpoint().unwrap();
}

/// Times only restore-start -> first touch; manager construction and state
/// teardown are restart costs both paths share, so they stay outside the
/// measurement. Prints its own table (criterion's loop would time the
/// teardown too).
fn bench_time_to_first_instruction(_c: &mut Criterion) {
    const SAMPLES: u32 = 10;
    println!("ablation_restore/ttfi  (restore start -> first byte readable, mean of {SAMPLES})");
    for &pages in &[64usize, 256, 1024] {
        let cfg = CkptConfig::ai_ckpt(1 << 20).with_max_pages(pages + 64);
        let dir = tmpdir(&format!("ttfi-{pages}"));
        build_image(&dir, pages, &cfg);
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());

        let time = |lazy: bool| {
            let mut total = std::time::Duration::ZERO;
            for i in 0..=SAMPLES {
                let mgr =
                    PageManager::with_shared_backend(cfg.clone(), Arc::clone(&backend)).unwrap();
                let start = Instant::now();
                let first = if lazy {
                    let lr = restore_lazy(&mgr, Arc::clone(&backend), 1, None).unwrap();
                    let first = lr.state.buffers[0].as_slice()[0];
                    let elapsed = start.elapsed();
                    drop(black_box(lr));
                    if i > 0 {
                        total += elapsed; // i == 0 is warm-up
                    }
                    first
                } else {
                    let restored = restore_at(&mgr, backend.as_ref(), 1).unwrap();
                    let first = restored.buffers[0].as_slice()[0];
                    if i > 0 {
                        total += start.elapsed();
                    }
                    first
                };
                black_box(first);
            }
            total / SAMPLES
        };
        let eager = time(false);
        let lazy = time(true);
        println!(
            "  {:>4} pages ({:>5.1} MiB): eager {:>9.1?}  lazy {:>9.1?}",
            pages,
            (pages * page_size()) as f64 / (1 << 20) as f64,
            eager,
            lazy,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// N concurrent restores of the same image through one shared page cache.
/// Prints wall time and the disk-read amplification (reads / unique
/// pages), which a shared cache keeps at 1.0.
fn bench_restore_storm(_c: &mut Criterion) {
    const PAGES: usize = 512;
    let cfg = CkptConfig::ai_ckpt(1 << 20).with_max_pages(PAGES + 64);
    let dir = tmpdir("storm");
    build_image(&dir, PAGES, &cfg);
    println!("ablation_restore/storm  ({PAGES}-page image, shared cache, full read per restorer)");
    for n in [1usize, 2, 4, 8] {
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&dir).unwrap());
        let cache = Arc::new(PageCache::new(64 << 20));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..n {
                let backend = Arc::clone(&backend);
                let cache = Arc::clone(&cache);
                let cfg = cfg.clone();
                s.spawn(move || {
                    let mgr = PageManager::with_shared_backend(cfg, Arc::clone(&backend)).unwrap();
                    let mut lr = restore_lazy(&mgr, Arc::clone(&backend), 1, Some(cache)).unwrap();
                    let mut sum = 0u64;
                    for &byte in lr.state.buffers[0].as_slice() {
                        sum = sum.wrapping_add(byte as u64);
                    }
                    black_box(sum);
                    lr.wait().unwrap();
                });
            }
        });
        let wall = start.elapsed();
        let io = backend.io_stats();
        let cs = cache.stats();
        println!(
            "  n={n}: {:.1} ms  disk reads {} ({:.2}x pages)  cache hits {}",
            wall.as_secs_f64() * 1e3,
            io.page_reads,
            io.page_reads as f64 / PAGES as f64,
            cs.hits,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_time_to_first_instruction,
    bench_restore_storm
);
criterion_main!(benches);
