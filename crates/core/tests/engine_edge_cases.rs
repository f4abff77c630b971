//! Edge-case tests for the engine that the module-level unit tests and the
//! randomised property tests are unlikely to pin down explicitly.

use ai_ckpt_core::{
    EngineConfig, EngineError, EpochEngine, FlushSource, SchedulerKind, WriteOutcome,
};

fn engine(pages: usize, cow: u32) -> EpochEngine {
    EpochEngine::new(EngineConfig::adaptive(pages, 128, cow).without_cow_data()).unwrap()
}

fn drain(e: &mut EpochEngine) -> Vec<u32> {
    let mut order = Vec::new();
    while let Some(item) = e.select_next() {
        order.push(item.page);
        e.complete_flush(item);
    }
    order
}

#[test]
fn error_display_is_informative() {
    assert_eq!(
        EngineError::CheckpointInProgress.to_string(),
        "a checkpoint is still in progress"
    );
    assert!(EngineError::InvalidConfig("x".into())
        .to_string()
        .contains("x"));
    let bad = EpochEngine::new(EngineConfig::adaptive(0, 128, 0)).unwrap_err();
    assert!(matches!(bad, EngineError::InvalidConfig(_)));
}

#[test]
fn avoided_vs_after_transitions_across_epochs() {
    let mut e = engine(4, 0);
    e.on_write(0);
    e.on_write(1);
    e.begin_checkpoint().unwrap();
    // Flush page 0; touch it -> AVOIDED (checkpoint still active on page 1).
    let i0 = e.select_next().unwrap();
    let p0 = i0.page;
    e.complete_flush(i0);
    assert_eq!(e.on_write(p0), WriteOutcome::Proceed);
    // Finish; touch page 2 -> AFTER.
    drain(&mut e);
    e.on_write(2);
    let s = e.current_stats();
    assert_eq!((s.avoided, s.after), (1, 1));

    // Next epoch: AVOIDED page flushes before AFTER page per Algorithm 4.
    e.begin_checkpoint().unwrap();
    let order = drain(&mut e);
    assert_eq!(order.first().copied(), Some(p0), "AVOIDED bucket first");
    assert!(order.contains(&2));
}

#[test]
fn wait_history_beats_cow_history_next_epoch() {
    let mut e = engine(8, 1);
    e.on_write(5);
    e.on_write(6);
    e.begin_checkpoint().unwrap();
    // Page 6 takes the single CoW slot; page 5 must wait.
    assert!(matches!(e.on_write(6), WriteOutcome::CopyToSlot(_)));
    assert_eq!(e.on_write(5), WriteOutcome::MustWait);
    // Boost flushes 5 first, then the cow'd 6.
    let first = e.select_next().unwrap();
    assert_eq!(first.page, 5);
    e.complete_flush(first);
    e.complete_wait(5);
    drain(&mut e);
    // Epoch 2: LastAT[5]=WAIT, LastAT[6]=COW -> 5 before 6.
    e.begin_checkpoint().unwrap();
    let order = drain(&mut e);
    assert_eq!(order, vec![5, 6]);
}

#[test]
fn cow_slot_data_round_trip() {
    let mut e = EpochEngine::new(EngineConfig::adaptive(2, 16, 1)).unwrap();
    e.on_write(0);
    e.begin_checkpoint().unwrap();
    let slot = match e.on_write(0) {
        WriteOutcome::CopyToSlot(s) => s,
        other => panic!("expected CoW, got {other:?}"),
    };
    e.slab_slot_mut(slot).copy_from_slice(&[7u8; 16]);
    let item = e.select_next().unwrap();
    assert_eq!(item.source, FlushSource::CowSlot(slot));
    assert_eq!(e.slab_slot(slot), &[7u8; 16]);
    e.complete_flush(item);
    assert_eq!(e.cow_in_use(), 0);
}

#[test]
fn reverse_scheduler_and_hints_compose() {
    let mut e = EpochEngine::new(
        EngineConfig::adaptive(6, 128, 0)
            .without_cow_data()
            .with_scheduler(SchedulerKind::ReverseAddress),
    )
    .unwrap();
    for p in 0..6 {
        e.on_write(p);
    }
    e.begin_checkpoint().unwrap();
    // Hint on page 1 overrides the reverse order momentarily.
    assert_eq!(e.on_write(1), WriteOutcome::MustWait);
    let first = e.select_next().unwrap();
    assert_eq!(first.page, 1, "waited page preempts");
    e.complete_flush(first);
    e.complete_wait(1);
    let rest = drain(&mut e);
    assert_eq!(rest, vec![5, 4, 3, 2, 0], "then strict reverse address");
}

#[test]
fn tombstoned_pages_never_reach_storage() {
    let mut e = engine(6, 0);
    for p in 0..6 {
        e.on_write(p);
    }
    // Free half of the region mid-epoch.
    for p in [1, 3, 5] {
        assert!(e.discard_page(p));
    }
    let info = e.begin_checkpoint().unwrap();
    assert_eq!(info.scheduled_pages, 3);
    // Page 2 is freed while its epoch flushes, and that epoch then fails:
    // the requeue owes pages 0 and 4 again, never the freed page.
    let first = e.select_next().unwrap();
    e.complete_flush(first);
    assert!(e.discard_page(2));
    assert_eq!(drain(&mut e), vec![4]);
    e.requeue_last();
    assert_eq!(e.begin_checkpoint().unwrap().scheduled_pages, 2);
    assert_eq!(drain(&mut e), vec![0, 4]);
}

#[test]
fn untouched_pages_are_never_flushed() {
    let mut e = engine(128, 0);
    for p in (0..128).step_by(7) {
        e.on_write(p);
    }
    e.begin_checkpoint().unwrap();
    let flushed = drain(&mut e);
    let expected: Vec<u32> = (0..128).step_by(7).collect();
    assert_eq!(flushed, expected, "address order of the AFTER bucket");
    // Epoch 2 with no writes: empty checkpoint.
    let info = e.begin_checkpoint().unwrap();
    assert_eq!(info.scheduled_pages, 0);
    assert!(!e.checkpoint_active());
}

#[test]
fn per_epoch_indices_restart_from_one() {
    let mut e = engine(4, 0);
    e.on_write(3);
    e.on_write(1);
    e.begin_checkpoint().unwrap();
    drain(&mut e);
    e.on_write(2);
    assert_eq!(
        e.history().current().index(2),
        1,
        "fresh epoch, fresh order"
    );
    assert_eq!(e.history().last().index(3), 1);
    assert_eq!(e.history().last().index(1), 2);
}

#[test]
fn stats_peak_cow_slots_reported_per_epoch() {
    let mut e = engine(8, 4);
    for p in 0..4 {
        e.on_write(p);
    }
    e.begin_checkpoint().unwrap();
    for p in 0..3 {
        assert!(matches!(e.on_write(p), WriteOutcome::CopyToSlot(_)));
    }
    drain(&mut e);
    let info = e.begin_checkpoint().unwrap();
    assert_eq!(info.closed_epoch.peak_cow_slots, 3);
    assert_eq!(info.closed_epoch.cow, 3);
}
