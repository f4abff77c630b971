//! Content ablation: how much of the flush pipeline's traffic the
//! content-aware payload path removes, swept over the clean-dirty fraction
//! and the compressibility ratio.
//!
//! Two halves:
//!
//! * **Runtime** — the real mprotect runtime against a throttled in-memory
//!   backend, on a 50% clean-dirty, RLE-friendly workload: the digest
//!   filter (`CkptConfig::content_filter`) drops the clean-dirty half
//!   before any I/O, and `AICKSEG3` encoding shrinks what remains. The
//!   headline acceptance bound (≥ 2× flushed-byte reduction with a
//!   byte-identical restore) is asserted by `tests/content_pipeline.rs`;
//!   this bench prints the actual numbers.
//! * **Simulator** — the discrete-event cluster sweeping both knobs per
//!   scheduler, reporting flushed bytes and mean flush time.

use criterion::{criterion_group, criterion_main, Criterion};

use ai_ckpt::{CkptConfig, PageManager};
use ai_ckpt_core::SchedulerKind;
use ai_ckpt_mem::page_size;
use ai_ckpt_sim::{Cluster, ClusterConfig, Pattern, StorageModel, Strategy, SyntheticApp};
use ai_ckpt_storage::{
    CheckpointImage, Compression, MemoryBackend, StorageBackend, ThrottledBackend,
};

const PAGES: usize = 64;
const EPOCHS: usize = 6;

/// One runtime configuration of the ablation: run the 50% clean-dirty,
/// RLE-friendly workload and report traffic + flush time.
fn run_runtime(
    scheduler: SchedulerKind,
    filter: bool,
    compression: Compression,
) -> (u64, u64, u64, f64, CheckpointImage) {
    let ps = page_size();
    let store = MemoryBackend::with_compression(compression);
    let view = store.clone();
    // Throttled so flush time is visible: ~80 MiB/s, 20 µs/op.
    let backend = ThrottledBackend::new(
        store,
        80.0 * 1024.0 * 1024.0,
        std::time::Duration::from_micros(20),
    );
    let cfg = CkptConfig::ai_ckpt(1 << 20)
        .with_max_pages(PAGES * 2)
        .with_scheduler(scheduler)
        .with_content_filter(filter);
    let mgr = PageManager::new(cfg, Box::new(backend)).unwrap();
    let mut buf = mgr.alloc_protected_named("state", PAGES * ps).unwrap();
    for epoch in 0..EPOCHS as u8 {
        let slice = buf.as_mut_slice();
        for p in 0..PAGES {
            // Every page faults each epoch; the lower half re-stores its
            // previous value (clean-dirty), the upper half takes an
            // epoch-dependent constant fill (dirty, RLE-friendly).
            let fill = if p < PAGES / 2 { p as u8 } else { 0x80 + epoch };
            slice[p * ps..(p + 1) * ps].fill(fill);
        }
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    let stats = mgr.stats();
    let flush_ms = stats
        .mean_checkpoint_time(1)
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    let image = CheckpointImage::load_latest(&view).unwrap().unwrap();
    (
        view.bytes_written(),
        view.bytes_stored(),
        stats.pages_skipped_clean,
        flush_ms,
        image,
    )
}

fn bench_runtime_content(_c: &mut Criterion) {
    let ps = page_size();
    println!(
        "ablation_content/runtime  ({PAGES} pages x {EPOCHS} epochs, 50% clean-dirty, \
         RLE-friendly, throttled backend; logical traffic {} KiB)",
        PAGES * EPOCHS * ps / 1024
    );
    for scheduler in [SchedulerKind::Adaptive, SchedulerKind::AddressOrder] {
        let mut baseline_image = None;
        for (label, filter, compression) in [
            ("raw            ", false, Compression::None),
            ("compressed     ", false, Compression::Auto),
            ("filtered       ", true, Compression::None),
            ("filtered+compr.", true, Compression::Auto),
        ] {
            let (written, stored, skipped, flush_ms, image) =
                run_runtime(scheduler, filter, compression);
            // Whatever the pipeline drops or shrinks, the restore must not
            // change by a single byte.
            match &baseline_image {
                None => baseline_image = Some(image),
                Some(base) => assert_eq!(base, &image, "restore must be byte-identical"),
            }
            println!(
                "  {:>13} {label}: flushed {:>8} B (of {:>8} B written), \
                 {skipped:>3} pages skipped, flush {flush_ms:>7.3} ms",
                scheduler.label(),
                stored,
                written,
            );
        }
    }
}

fn bench_sim_content_sweep(_c: &mut Criterion) {
    println!("ablation_content/sim  (4 ranks, 512 pages/rank, local-disk model)");
    println!("  scheduler        clean  ratio   flushed MiB   flush s");
    for scheduler in [
        SchedulerKind::Adaptive,
        SchedulerKind::AddressOrder,
        SchedulerKind::Random(7),
    ] {
        for (clean, ratio) in [(0.0, 1.0), (0.5, 1.0), (0.0, 0.25), (0.5, 0.25), (0.9, 0.1)] {
            let cfg = ClusterConfig {
                ranks: 4,
                ranks_per_node: 2,
                iterations: 8,
                ckpt_every: 2,
                ckpt_at_end: false,
                strategy: Strategy::Custom {
                    scheduler,
                    hints: scheduler == SchedulerKind::Adaptive,
                    sync: false,
                },
                committer_streams: 2,
                cow_slots: 64,
                barrier_ns: 50_000,
                fault_ns: 3_000,
                cow_copy_ns: 1_500,
                jitter: 0.01,
                async_compute_drag: 1.1,
                seed: 29,
            };
            let out = Cluster::new(cfg, StorageModel::local_disk(2), move |r| {
                Box::new(
                    SyntheticApp::new(512, 4096, Pattern::Ascending, 4_000, 5_000_000)
                        .with_content(clean, ratio)
                        .with_content_seed(0xC0DE ^ r as u64),
                ) as Box<dyn ai_ckpt_sim::AppModel>
            })
            .run();
            println!(
                "  {:>15}  {clean:>5.2}  {ratio:>5.2}  {:>12.2}  {:>8.4}",
                scheduler.label(),
                out.storage_bytes as f64 / (1024.0 * 1024.0),
                out.mean_checkpoint_secs(1),
            );
        }
    }
}

criterion_group!(benches, bench_runtime_content, bench_sim_content_sweep);
criterion_main!(benches);
