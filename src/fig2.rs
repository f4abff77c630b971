//! Figure 2 (§4.3): the memory-intensive synthetic benchmark, reproduced on
//! the **real** mprotect/SIGSEGV runtime.
//!
//! The paper's setup: a 256 MiB region touched byte-by-byte every iteration
//! (Ascending / Random / Descending order), 39 iterations, a checkpoint
//! every 10, a 16 MiB CoW buffer, checkpoints on a ≈ 55 MB/s local disk.
//! Metrics: increase in execution time vs. a checkpointing-free baseline
//! (2a), pages that triggered WAIT (2b) and AVOIDED (2c).
//!
//! ## Calibration
//!
//! The regime that produces the paper's curves is the *ratio* between the
//! application's page-write rate and the storage's page-flush rate
//! (≈ 1.3 on the 2013 testbed: a 3.4 s iteration against a 4.65 s flush).
//! 2026 hardware moves both numbers by different factors, so by default the
//! harness measures one iteration and throttles the backend to hold that
//! ratio; `fixed_bandwidth` reproduces the literal 55 MB/s instead.

use std::time::{Duration, Instant};

use ai_ckpt::{CkptConfig, PageManager};
use ai_ckpt_sim::Pattern;
use ai_ckpt_storage::{NullBackend, ThrottledBackend};

/// Configuration of the Figure 2 harness.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Protected region size (paper: 256 MiB).
    pub region_bytes: usize,
    /// CoW buffer size (paper: 16 MiB).
    pub cow_bytes: usize,
    /// Iterations (paper: 39).
    pub iterations: usize,
    /// Checkpoint every N iterations (paper: 10).
    pub ckpt_every: usize,
    /// Target per-page flush-time : write-time ratio (see module docs).
    pub flush_ratio: f64,
    /// Fixed storage bandwidth in bytes/s; overrides the calibrated ratio.
    pub fixed_bandwidth: Option<f64>,
    /// Seed for the Random pattern.
    pub seed: u64,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Self {
            region_bytes: 256 << 20,
            cow_bytes: 16 << 20,
            iterations: 39,
            ckpt_every: 10,
            flush_ratio: 0.9,
            fixed_bandwidth: None,
            seed: 42,
        }
    }
}

impl Fig2Config {
    /// A scaled-down variant for quick runs and CI (same ratios).
    pub fn quick() -> Self {
        Self {
            region_bytes: 32 << 20,
            cow_bytes: 2 << 20,
            iterations: 13,
            ckpt_every: 4,
            ..Self::default()
        }
    }
}

/// One (pattern, strategy) measurement.
#[derive(Debug, Clone)]
pub struct Fig2Cell {
    /// Access pattern label.
    pub pattern: String,
    /// Strategy label (paper legend names).
    pub strategy: String,
    /// Baseline (no checkpointing) run time, seconds.
    pub baseline_secs: f64,
    /// Fig 2a: increase in execution time over the baseline, seconds.
    pub increase_secs: f64,
    /// Fig 2b: mean pages per checkpoint that triggered WAIT.
    pub wait_pages: f64,
    /// Fig 2c: mean pages per checkpoint that triggered AVOIDED.
    pub avoided_pages: f64,
    /// Mean pages per checkpoint that took a CoW slot.
    pub cow_pages: f64,
    /// Mean checkpoint flush time (skipping the first full checkpoint), s.
    pub ckpt_secs: f64,
}

/// Touch one page with a loop-carried data dependency so the per-byte
/// transformation cannot be vectorised — on 2026 CPUs a vectorised
/// byte-increment would make the iteration ~100× faster than the 2013
/// benchmark and collapse the regime the figure studies.
#[inline]
fn touch_page(page: &mut [u8], acc: &mut u32) {
    let mut a = *acc;
    for b in page.iter_mut() {
        let v = b.wrapping_add((a as u8) | 1);
        *b = v;
        a = a.wrapping_mul(0x9E37_79B1).wrapping_add(v as u32);
    }
    *acc = a;
}

/// One full iteration: touch every page in `order`.
fn touch_all(slice: &mut [u8], order: &[u32], page_bytes: usize, acc: &mut u32) {
    for &p in order {
        let s = p as usize * page_bytes;
        touch_page(&mut slice[s..s + page_bytes], acc);
    }
}

fn build_order(pages: usize, pattern: Pattern) -> Vec<u32> {
    use ai_ckpt_sim::AppModel;
    AppModel::touch_order(&ai_ckpt_sim::SyntheticApp::new(pages, 1, pattern, 0, 0)).to_vec()
}

/// Strategies compared in the figure, pinned to a single committer stream
/// *and* per-page batches: the paper's system has one `ASYNC_COMMIT` thread
/// selecting one page at a time against one SATA disk. The throttled
/// backend's bandwidth is per stream (default `min(4, cores)` streams would
/// quietly emulate a 4-channel device), and batched claims would delay the
/// `WaitedPage` hint by up to a batch of throttled I/O — penalising exactly
/// the adaptive strategy the figure measures.
fn strategies(cow_bytes: usize) -> Vec<(&'static str, CkptConfig)> {
    let pin = |cfg: CkptConfig| cfg.with_committer_streams(1).with_flush_batch_pages(1);
    vec![
        ("our-approach", pin(CkptConfig::ai_ckpt(cow_bytes))),
        (
            "async-no-pattern",
            pin(CkptConfig::async_no_pattern(cow_bytes)),
        ),
        ("sync", pin(CkptConfig::sync())),
    ]
}

/// Run the full figure: 3 patterns × 3 strategies.
pub fn run(cfg: &Fig2Config) -> std::io::Result<Vec<Fig2Cell>> {
    let page_bytes = ai_ckpt_mem::page_size();
    let pages = cfg.region_bytes / page_bytes;
    let mut cells = Vec::new();
    for pattern in [
        Pattern::Ascending,
        Pattern::Random(cfg.seed),
        Pattern::Descending,
    ] {
        let order = build_order(pages, pattern);

        // ---- Baseline on plain (untracked) memory.
        let mut plain = vec![0u8; cfg.region_bytes];
        let mut acc = 1u32;
        touch_all(&mut plain, &order, page_bytes, &mut acc); // warm-up/fault-in
        let t0 = Instant::now();
        for _ in 0..cfg.iterations {
            touch_all(&mut plain, &order, page_bytes, &mut acc);
        }
        let baseline = t0.elapsed();
        drop(plain);

        // ---- Calibration of the gating phase: in every epoch, the race
        // happens during its *first* iteration, where each write additionally
        // pays a SIGSEGV + 2x mprotect round trip. Measure that faulted
        // iteration on a real protected buffer so the throttle is set
        // relative to the actual write-front speed.
        let t_iter_faulted = {
            let mgr = PageManager::new(
                CkptConfig::ai_ckpt(0).with_max_pages(pages + 16),
                Box::new(NullBackend::new()),
            )?;
            let mut buf = mgr.alloc_protected(cfg.region_bytes)?;
            let mut acc = 1u32;
            let t0 = Instant::now();
            touch_all(buf.as_mut_slice(), &order, page_bytes, &mut acc);
            t0.elapsed()
        };

        let bandwidth = cfg
            .fixed_bandwidth
            .unwrap_or(cfg.region_bytes as f64 / (cfg.flush_ratio * t_iter_faulted.as_secs_f64()));

        // ---- Measured runs.
        for (label, ckpt_cfg) in strategies(cfg.cow_bytes) {
            let backend = ThrottledBackend::new(NullBackend::new(), bandwidth, Duration::ZERO);
            let manager = PageManager::new(ckpt_cfg.with_max_pages(pages + 16), Box::new(backend))?;
            let mut buf = manager.alloc_protected_named("bench", cfg.region_bytes)?;
            let mut acc = 1u32;
            let t0 = Instant::now();
            for it in 1..=cfg.iterations {
                touch_all(buf.as_mut_slice(), &order, page_bytes, &mut acc);
                if it % cfg.ckpt_every == 0 {
                    manager.checkpoint()?;
                }
            }
            manager.wait_checkpoint()?;
            let total = t0.elapsed();
            let stats = manager.stats();
            cells.push(Fig2Cell {
                pattern: pattern.label().to_string(),
                strategy: label.to_string(),
                baseline_secs: baseline.as_secs_f64(),
                increase_secs: (total.saturating_sub(baseline)).as_secs_f64(),
                wait_pages: stats.mean_wait(1),
                avoided_pages: stats.mean_avoided(1),
                cow_pages: stats.mean_cow(1),
                ckpt_secs: stats
                    .mean_checkpoint_time(1)
                    .unwrap_or_default()
                    .as_secs_f64(),
            });
            drop(buf);
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_page_mutates_every_byte_and_is_order_sensitive() {
        let mut a = vec![0u8; 256];
        let mut acc = 1;
        touch_page(&mut a, &mut acc);
        assert!(a.iter().any(|&b| b != 0));
        let first = a.clone();
        touch_page(&mut a, &mut acc);
        assert_ne!(a, first, "accumulator chains across calls");
    }

    #[test]
    fn order_builders_match_patterns() {
        assert_eq!(build_order(4, Pattern::Ascending), vec![0, 1, 2, 3]);
        assert_eq!(build_order(4, Pattern::Descending), vec![3, 2, 1, 0]);
        let mut r = build_order(16, Pattern::Random(7));
        r.sort_unstable();
        assert_eq!(r, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn strategy_list_is_the_papers() {
        let s = strategies(1 << 20);
        let labels: Vec<&str> = s.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["our-approach", "async-no-pattern", "sync"]);
    }
}
