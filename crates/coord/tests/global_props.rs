//! Properties of the `AICKGLB1` schema: arbitrary commit/abort
//! interleavings round-trip exactly through the commit log and fold to the
//! right views. What the *log* does with cuts, tears and flipped bytes is
//! schema-independent and lives with it
//! (`crates/storage/tests/log_props.rs`, run at this schema's 21-byte
//! payload size among others).

use std::path::PathBuf;

use ai_ckpt_coord::global::{self, GlobalRecord};
use ai_ckpt_coord::GlobalRecordKind;
use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_storage::log::Log;

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-glbprop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("GLOBAL")
}

/// A random but protocol-shaped log: strictly increasing epochs, each one
/// committed, aborted, committed and then aborted (a commit append that
/// reached the disk but reported failure, compensated by the coordinator's
/// abort), or aborted and then committed (never written in practice, but
/// the order alone must decide), with varying rank counts and aux fields.
fn random_log(rng: &mut SplitMix64) -> Vec<GlobalRecord> {
    let ranks = 1 + rng.next_below(16) as u32;
    let mut epoch = 0u64;
    let n = 1 + rng.next_below(20);
    let mut log = Vec::new();
    for _ in 0..n {
        epoch += 1 + rng.next_below(3);
        let abort = GlobalRecord::abort(epoch, ranks, rng.next_below(ranks as u64));
        match rng.next_below(5) {
            0 => log.push(abort),
            1 => log.extend([GlobalRecord::commit(epoch, ranks), abort]),
            2 => log.extend([abort, GlobalRecord::commit(epoch, ranks)]),
            _ => log.push(GlobalRecord::commit(epoch, ranks)),
        }
    }
    log
}

#[test]
fn arbitrary_interleavings_round_trip() {
    let mut rng = SplitMix64::new(0x91B1_C0DE);
    for case in 0..24u64 {
        let path = tmpfile(&format!("rt-{case}"));
        let _ = std::fs::remove_file(&path);
        let log = random_log(&mut rng);
        let handle = Log::new(path.clone(), None);
        for r in &log {
            global::append(&handle, *r).unwrap();
        }
        assert_eq!(global::read(&path).unwrap(), log, "case {case}");
        // The folded views agree with a straight scan of the log: the last
        // record per epoch decides, so an abort after a commit wins.
        let last_of = |e: u64| log.iter().rev().find(|r| r.epoch == e).unwrap();
        let want_committed = log
            .iter()
            .filter(|r| last_of(r.epoch).kind == GlobalRecordKind::Commit)
            .map(|r| r.epoch)
            .max();
        assert_eq!(global::last_committed(&log), want_committed);
        assert_eq!(
            global::high_water(&log),
            log.iter().map(|r| r.epoch).max(),
            "aborts burn numbers too"
        );
        std::fs::remove_file(&path).unwrap();
    }
    assert_eq!(global::last_committed(&[]), None);
}
