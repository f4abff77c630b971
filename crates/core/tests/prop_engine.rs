//! Property-based tests for the checkpoint engine.
//!
//! The central invariant of asynchronous incremental checkpointing — the one
//! the paper's whole design protects — is *snapshot consistency*: the data
//! committed for checkpoint `n` must equal the content of the protected
//! memory at the moment `CHECKPOINT` was called, no matter how application
//! writes interleave with the background flushing. These tests drive the
//! engine with arbitrary interleavings of writes, single-page flush steps
//! and checkpoint requests — some of which fail — against a model "memory",
//! and assert the invariant (plus completeness and slot accounting) on every
//! checkpoint: the committed image equals memory at `CHECKPOINT`, whatever
//! checkpoints failed before it.

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_core::{
    AccessType, EngineConfig, EpochEngine, FlushSource, SchedulerKind, WriteOutcome,
};
use std::collections::HashMap;

const PAGE_BYTES: usize = 8;

/// One step of the generated workload.
#[derive(Debug, Clone)]
enum Op {
    /// The application writes `val` over a whole page.
    Write { page: u32, val: u8 },
    /// The committer flushes one page (if a checkpoint is active).
    FlushOne,
    /// The application requests a checkpoint (waiting for the previous one
    /// to drain first, as Algorithm 1 does).
    Checkpoint,
    /// A checkpoint whose commit fails: storage drops its flushes.
    FailCheckpoint,
}

/// Seeded workload generator (stands in for the proptest strategies the
/// original tests used; write, flush and checkpoint weigh 4:3:1, and one
/// checkpoint in two fails).
fn gen_ops(rng: &mut SplitMix64, pages: u32, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.next_below(16) {
            0..=7 => Op::Write {
                page: rng.next_below(pages as u64) as u32,
                val: rng.next_u64() as u8,
            },
            8..=13 => Op::FlushOne,
            14 => Op::Checkpoint,
            _ => Op::FailCheckpoint,
        })
        .collect()
}

/// Test harness: engine + model memory + model stable storage.
struct Harness {
    engine: EpochEngine,
    /// The application's live memory, one flat buffer.
    memory: Vec<u8>,
    /// What reached "stable storage", per page, for the active checkpoint.
    storage: HashMap<u32, Vec<u8>>,
    /// Expected snapshot (memory at CHECKPOINT time) for scheduled pages.
    expected: HashMap<u32, Vec<u8>>,
    /// The image the committed checkpoints restore, and memory at the
    /// active checkpoint's `CHECKPOINT`, which it must equal once that
    /// checkpoint commits.
    image: Vec<u8>,
    snapshot: Vec<u8>,
    /// The active checkpoint fails: its flushes never commit.
    failing: bool,
    /// Pages already first-written this epoch (their protection is lifted,
    /// so subsequent writes bypass the engine).
    touched: Vec<bool>,
    pages: u32,
    checkpoints_verified: usize,
    flushes_per_checkpoint: Vec<usize>,
}

impl Harness {
    fn new(pages: u32, cow_slots: u32, scheduler: SchedulerKind, hints: bool) -> Self {
        let cfg = EngineConfig::adaptive(pages as usize, PAGE_BYTES, cow_slots)
            .with_scheduler(scheduler)
            .with_dynamic_hints(hints);
        Self {
            engine: EpochEngine::new(cfg).unwrap(),
            memory: vec![0u8; pages as usize * PAGE_BYTES],
            storage: HashMap::new(),
            expected: HashMap::new(),
            image: vec![0u8; pages as usize * PAGE_BYTES],
            snapshot: Vec::new(),
            failing: false,
            touched: vec![false; pages as usize],
            pages,
            checkpoints_verified: 0,
            flushes_per_checkpoint: Vec::new(),
        }
    }

    fn page_buf(&self, p: u32) -> &[u8] {
        let s = p as usize * PAGE_BYTES;
        &self.memory[s..s + PAGE_BYTES]
    }

    fn write_page(&mut self, p: u32, val: u8) {
        if !self.touched[p as usize] {
            // First write this epoch: goes through the fault handler.
            match self.engine.on_write(p) {
                WriteOutcome::Proceed | WriteOutcome::AlreadyHandled => {}
                WriteOutcome::CopyToSlot(slot) => {
                    // Preserve the pre-write content for the committer.
                    let page: Vec<u8> = self.page_buf(p).to_vec();
                    self.engine.slab_slot_mut(slot).copy_from_slice(&page);
                }
                WriteOutcome::MustWait => {
                    // The application blocks; the committer keeps flushing
                    // until this page is processed.
                    while !self.engine.states().is_processed(p) {
                        assert!(
                            self.flush_one(),
                            "engine stalled while a writer waits on page {p}"
                        );
                    }
                    self.engine.complete_wait(p);
                }
            }
            self.touched[p as usize] = true;
        }
        let s = p as usize * PAGE_BYTES;
        self.memory[s..s + PAGE_BYTES].fill(val);
    }

    /// Flush a single page; returns false when nothing was selectable.
    fn flush_one(&mut self) -> bool {
        let Some(item) = self.engine.select_next() else {
            return false;
        };
        let data: Vec<u8> = match item.source {
            FlushSource::Memory => self.page_buf(item.page).to_vec(),
            FlushSource::CowSlot(slot) => self.engine.slab_slot(slot).to_vec(),
        };
        self.storage.insert(item.page, data);
        self.engine.complete_flush(item);
        if !self.engine.checkpoint_active() {
            self.verify_checkpoint();
        }
        true
    }

    fn checkpoint(&mut self, failing: bool) {
        // Algorithm 1 lines 2-4: wait (here: drive) until the previous
        // checkpoint completes.
        while self.engine.checkpoint_active() {
            assert!(self.flush_one());
        }
        self.storage.clear();
        self.expected.clear();
        self.snapshot = self.memory.clone();
        self.failing = failing;
        let info = self.engine.begin_checkpoint().unwrap();
        // The snapshot the checkpoint must capture: memory *now*, for every
        // scheduled page.
        let scheduled: Vec<u32> = self
            .engine
            .history()
            .last()
            .dirty()
            .iter()
            .copied()
            .filter(|&p| self.engine.history().last().access_type(p) != AccessType::Untouched)
            .collect();
        assert_eq!(scheduled.len() as u64, info.scheduled_pages);
        for p in scheduled {
            self.expected.insert(p, self.page_buf(p).to_vec());
        }
        // New epoch: every page is write-protected again.
        self.touched.iter_mut().for_each(|t| *t = false);
        self.flushes_per_checkpoint.push(0);
        if !self.engine.checkpoint_active() {
            self.verify_checkpoint(); // empty checkpoint
        }
    }

    fn verify_checkpoint(&mut self) {
        // Completeness: exactly the scheduled pages reached storage.
        let mut stored: Vec<u32> = self.storage.keys().copied().collect();
        let mut wanted: Vec<u32> = self.expected.keys().copied().collect();
        stored.sort_unstable();
        wanted.sort_unstable();
        assert_eq!(stored, wanted, "flushed page set != scheduled page set");
        // Snapshot consistency: committed bytes equal memory-at-CHECKPOINT.
        for (p, want) in &self.expected {
            assert_eq!(
                self.storage.get(p).unwrap(),
                want,
                "page {p} committed with post-checkpoint data"
            );
        }
        // Slot accounting: all CoW slots returned.
        assert_eq!(self.engine.cow_in_use(), 0, "CoW slots leaked");
        self.checkpoints_verified += 1;
        if self.failing {
            // Nothing committed: the scheduled pages are owed again.
            self.engine.requeue_last();
            return;
        }
        for (p, data) in &self.storage {
            let s = *p as usize * PAGE_BYTES;
            self.image[s..s + PAGE_BYTES].copy_from_slice(data);
        }
        assert_eq!(
            self.image, self.snapshot,
            "the committed image differs from memory at CHECKPOINT"
        );
    }

    fn run(&mut self, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Write { page, val } => self.write_page(page % self.pages, val),
                Op::FlushOne => {
                    self.flush_one();
                }
                Op::Checkpoint => self.checkpoint(false),
                Op::FailCheckpoint => self.checkpoint(true),
            }
        }
        // Drain whatever is still in flight so the last checkpoint verifies.
        while self.engine.checkpoint_active() {
            assert!(self.flush_one());
        }
    }
}

/// The flagship invariant, for the paper's adaptive strategy.
#[test]
fn snapshot_consistency_adaptive() {
    let mut rng = SplitMix64::new(0xA1);
    for case in 0..192u64 {
        let cow_slots = (case % 5) as u32;
        let len = 1 + rng.next_below(199) as usize;
        let ops = gen_ops(&mut rng, 12, len);
        let mut h = Harness::new(12, cow_slots, SchedulerKind::Adaptive, true);
        h.run(&ops);
    }
}

/// Same invariant for the async-no-pattern baseline (address order, no
/// dynamic hints) — correctness must not depend on the schedule.
#[test]
fn snapshot_consistency_no_pattern() {
    let mut rng = SplitMix64::new(0xB2);
    for case in 0..192u64 {
        let cow_slots = (case % 5) as u32;
        let len = 1 + rng.next_below(199) as usize;
        let ops = gen_ops(&mut rng, 12, len);
        let mut h = Harness::new(12, cow_slots, SchedulerKind::AddressOrder, false);
        h.run(&ops);
    }
}

/// And for the ablation schedulers.
#[test]
fn snapshot_consistency_other_schedulers() {
    let mut rng = SplitMix64::new(0xC3);
    for case in 0..144u64 {
        let cow_slots = (case % 4) as u32;
        let kind = [
            SchedulerKind::AccessOrder,
            SchedulerKind::ReverseAddress,
            SchedulerKind::Random(0xC0FFEE),
        ][(case / 4 % 3) as usize];
        let len = 1 + rng.next_below(149) as usize;
        let ops = gen_ops(&mut rng, 10, len);
        let mut h = Harness::new(10, cow_slots, kind, true);
        h.run(&ops);
    }
}

/// Every dirty page is flushed exactly once per checkpoint and the
/// engine always drains (no live-lock, no lost pages).
#[test]
fn flush_completeness() {
    let mut rng = SplitMix64::new(0xD4);
    for _ in 0..128u64 {
        let len = 1 + rng.next_below(119) as usize;
        let ops = gen_ops(&mut rng, 8, len);
        let mut h = Harness::new(8, 2, SchedulerKind::Adaptive, true);
        h.run(&ops);
        // If any checkpoint was requested it must have verified.
        let requested = ops
            .iter()
            .filter(|o| matches!(o, Op::Checkpoint | Op::FailCheckpoint))
            .count();
        assert!(h.checkpoints_verified >= requested.min(1));
    }
}

/// Deterministic regression companion: the same harness, fixed scenario,
/// checked without proptest shrinkage in the way.
#[test]
fn harness_smoke() {
    let mut h = Harness::new(4, 1, SchedulerKind::Adaptive, true);
    h.run(&[
        Op::Write { page: 0, val: 1 },
        Op::Write { page: 1, val: 2 },
        Op::Checkpoint,
        Op::Write { page: 0, val: 3 }, // CoW or wait during flush
        Op::Write { page: 1, val: 4 },
        Op::FlushOne,
        Op::FlushOne,
        Op::Checkpoint,
        Op::FlushOne,
        Op::FlushOne,
    ]);
    assert!(h.checkpoints_verified >= 2);
}
