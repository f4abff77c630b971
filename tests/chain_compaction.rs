//! End-to-end acceptance for chain compaction (ISSUE 2): a long-running
//! job checkpointing through the real mprotect runtime onto a real
//! checkpoint directory keeps its on-disk segment count bounded, and a
//! restart restores byte-identically to a job whose chain was never
//! compacted.

use std::fs;
use std::path::{Path, PathBuf};

use ai_ckpt::{restore_latest, CkptConfig, CompactionPolicy, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{EpochKind, FileBackend, StorageBackend};

const PAGES: usize = 48;
const EPOCHS: u8 = 52;
const MAX_CHAIN: usize = 6;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-accept-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn scribble(buf: &mut ai_ckpt::ProtectedBuffer, epoch: u8) {
    let ps = page_size();
    let slice = buf.as_mut_slice();
    for p in 0..PAGES {
        // Leave a few pages untouched per epoch so deltas differ in size.
        if epoch > 1 && p % 5 == (epoch as usize) % 5 {
            continue;
        }
        let v = (p as u8) ^ epoch.wrapping_mul(0x5D);
        slice[p * ps..(p + 1) * ps].fill(v);
    }
}

/// Live on-disk segments: distinct `epoch_N` / `full_N` numbers, not files —
/// an epoch committed by several contending streams is one segment spread
/// over one shard file per stream (`epoch_N.seg`, `epoch_N.s1.seg`, …), and
/// how many shards an epoch gets depends on thread scheduling.
fn segment_count(dir: &Path) -> usize {
    let segments: std::collections::BTreeSet<String> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            let stem = name.strip_suffix(".seg")?;
            (stem.starts_with("epoch_") || stem.starts_with("full_"))
                .then(|| stem.split('.').next().unwrap().to_owned())
        })
        .collect();
    segments.len()
}

/// Run EPOCHS checkpoints under `policy`; returns the peak on-disk segment
/// count observed after maintenance quiesced at each step.
fn run_job(dir: &Path, policy: CompactionPolicy) -> usize {
    let cfg = CkptConfig::ai_ckpt(4 * page_size()).with_compaction(policy);
    let mgr = PageManager::new(cfg, Box::new(FileBackend::open(dir).unwrap())).unwrap();
    let mut buf = mgr
        .alloc_protected_named("state", PAGES * page_size())
        .unwrap();
    let mut peak = 0;
    for e in 1..=EPOCHS {
        scribble(&mut buf, e);
        mgr.checkpoint().unwrap();
        if e % 8 == 0 || e == EPOCHS {
            // Quiesce so the bound is measured, not raced.
            mgr.wait_checkpoint().unwrap();
            mgr.wait_maintenance_idle().unwrap();
            peak = peak.max(segment_count(dir));
        }
    }
    mgr.wait_checkpoint().unwrap();
    mgr.wait_maintenance_idle().unwrap();
    peak.max(segment_count(dir))
}

#[test]
fn bounded_segments_and_byte_identical_restore_after_52_epochs() {
    let dir = tmpdir("bounded");
    let twin_dir = tmpdir("unbounded");

    let peak = run_job(&dir, CompactionPolicy::chain_len(MAX_CHAIN));
    let twin_peak = run_job(&twin_dir, CompactionPolicy::DISABLED);

    // Segment-count bound (+1 for an epoch committed since the last fold).
    assert!(
        peak <= MAX_CHAIN + 1,
        "on-disk segments not bounded: peak {peak} > {}",
        MAX_CHAIN + 1
    );
    assert_eq!(
        twin_peak, EPOCHS as usize,
        "twin must grow one segment per epoch (sanity)"
    );

    // The compacted chain ends in full + deltas; the twin is all deltas.
    let backend = FileBackend::open(&dir).unwrap();
    let twin_backend = FileBackend::open(&twin_dir).unwrap();
    assert!(backend
        .chain()
        .unwrap()
        .iter()
        .any(|c| c.kind == EpochKind::Full));
    assert_eq!(backend.epochs().unwrap().last(), Some(&(EPOCHS as u64)));

    // Full runtime restore from both directories: byte-identical buffers.
    let restore = |backend: &FileBackend| {
        let fresh = PageManager::new(
            CkptConfig::ai_ckpt(4 * page_size()),
            Box::new(FileBackend::open(backend.dir()).unwrap()),
        )
        .unwrap();
        let state = restore_latest(&fresh, backend)
            .unwrap()
            .expect("checkpoints exist");
        assert_eq!(state.checkpoint, EPOCHS as u64);
        let buf = &state.buffers[state.by_name["state"]];
        buf.as_slice().to_vec()
    };
    let a = restore(&backend);
    let b = restore(&twin_backend);
    assert_eq!(
        a, b,
        "restore from the compacted chain diverged from the uncompacted one"
    );

    // And both match the deterministic final pattern.
    let ps = page_size();
    for p in 0..PAGES {
        // The last epoch that touched page p.
        let mut tag = 0u8;
        for e in 1..=EPOCHS {
            if !(e > 1 && p % 5 == (e as usize) % 5) {
                tag = e;
            }
        }
        let want = (p as u8) ^ tag.wrapping_mul(0x5D);
        assert!(
            a[p * ps..(p + 1) * ps].iter().all(|&x| x == want),
            "page {p}: expected fill {want:#x}"
        );
    }

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&twin_dir).unwrap();
}
