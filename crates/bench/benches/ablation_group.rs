//! Group ablation: coordinated-checkpoint wall time across a ranks ×
//! streams sweep, on the real mprotect runtime. Every rank flushes through
//! its own throttled storage channel set (one emulated channel per
//! committer stream, as on a striped parallel file system), and the group
//! hosts every rank on one flush pool of `streams` workers, so the
//! headline expectations are:
//!
//! * **streams**: wall time drops with the stream count, exactly like the
//!   single-rank `ablation_streams` — the pool's workers are the
//!   multi-stream pipeline;
//! * **ranks**: wall time grows with the group's total dirty set over the
//!   shared workers (ranks × pages ÷ streams); the group adds one tiny
//!   manifest append in phase 2 and no threads per rank.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use ai_ckpt::CkptConfig;
use ai_ckpt_coord::{CheckpointGroup, GroupConfig};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::log::Log;
use ai_ckpt_storage::{NullBackend, ThrottledBackend};

/// One coordinated checkpoint of `pages` dirty pages on every rank, each
/// rank behind its own ~12 MiB/s-per-stream emulated channel; returns the
/// collective's wall time.
fn group_flush_secs(ranks: usize, streams: usize, pages: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "ai-ckpt-ablgroup-{ranks}-{streams}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench tmpdir");
    let ps = page_size();
    let cfg = GroupConfig::new(
        ranks,
        CkptConfig::ai_ckpt(0)
            .with_max_pages(pages + 16)
            .with_committer_streams(streams),
    );
    let mut group = CheckpointGroup::open(cfg, Log::new(dir.join("GLOBAL"), None), |_rank| {
        Ok(Box::new(ThrottledBackend::new(
            NullBackend::new(),
            12.0 * 1024.0 * 1024.0,
            Duration::ZERO,
        )))
    })
    .expect("group");
    let mut bufs: Vec<_> = (0..ranks)
        .map(|r| group.rank(r).alloc_protected(pages * ps).expect("alloc"))
        .collect();
    for buf in &mut bufs {
        buf.as_mut_slice().fill(1);
    }
    let t0 = Instant::now();
    group.checkpoint().expect("group checkpoint");
    let secs = t0.elapsed().as_secs_f64();
    drop(bufs);
    drop(group);
    let _ = std::fs::remove_dir_all(&dir);
    secs
}

/// The sweep prints its own table (the quantity of interest is the
/// collective's wall time, not the harness' per-iteration mean, which would
/// fold manager setup in).
fn bench_group_sweep(_c: &mut Criterion) {
    let pages = 128; // 512 KiB/rank at 4 KiB pages ≈ 43 ms serial at 12 MiB/s
    println!(
        "ablation_group/runtime_throttled  (one coordinated flush, {pages} pages/rank, \
         12 MiB/s per stream channel)"
    );
    for ranks in [1usize, 2, 4] {
        for streams in [1usize, 2, 4] {
            let secs = group_flush_secs(ranks, streams, pages);
            println!("  ranks={ranks} streams={streams}: {:>8.1} ms", secs * 1e3);
        }
    }
}

criterion_group!(benches, bench_group_sweep);
criterion_main!(benches);
