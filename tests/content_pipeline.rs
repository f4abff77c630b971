//! End-to-end acceptance for the content-aware payload pipeline (ISSUE 3):
//!
//! * on a 50% clean-dirty, RLE-friendly workload, the digest filter plus
//!   `AICKSEG3` compression cut flushed bytes by at least 2× while the
//!   restored image stays byte-identical;
//! * a parity + tiered + compaction stack compacts under
//!   `CompactionPolicy` and `recover_page` still works on a
//!   post-compaction full segment.

use std::fs;
use std::path::PathBuf;

use ai_ckpt::{CkptConfig, CompactionPolicy, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    CheckpointImage, Compression, EpochKind, FileBackend, MemoryBackend, ParityBackend,
    StorageBackend, TieredBackend, META_RECORD,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-content-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const PAGES: usize = 32;
const EPOCHS: u8 = 6;

/// The acceptance workload: every page faults each epoch; the lower half
/// re-stores its existing value (clean-dirty), the upper half takes a fresh
/// constant fill (dirty, RLE-friendly).
fn scribble(buf: &mut ai_ckpt::ProtectedBuffer, epoch: u8) {
    let ps = page_size();
    let slice = buf.as_mut_slice();
    for p in 0..PAGES {
        let fill = if p < PAGES / 2 { p as u8 } else { 0x80 + epoch };
        slice[p * ps..(p + 1) * ps].fill(fill);
    }
}

/// Returns (bytes written, bytes stored, restored image, bytes of the
/// epochs' layout records — which both byte counters include).
fn run_workload(filter: bool, compression: Compression) -> (u64, u64, CheckpointImage, u64) {
    let store = MemoryBackend::with_compression(compression);
    let view = store.clone();
    let cfg = CkptConfig::ai_ckpt(1 << 20)
        .with_max_pages(PAGES * 2)
        .with_content_filter(filter);
    let mgr = PageManager::new(cfg, Box::new(store)).unwrap();
    let mut buf = mgr
        .alloc_protected_named("state", PAGES * page_size())
        .unwrap();
    for epoch in 0..EPOCHS {
        scribble(&mut buf, epoch);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    drop(mgr);
    let image = CheckpointImage::load_latest(&view).unwrap().unwrap();
    let layout_bytes: usize = (1..=EPOCHS as u64)
        .map(|e| view.read_page_at(e, META_RECORD).unwrap().unwrap().len())
        .sum();
    (
        view.bytes_written(),
        view.bytes_stored(),
        image,
        layout_bytes as u64,
    )
}

#[test]
fn flushed_bytes_drop_at_least_2x_with_byte_identical_restore() {
    let (base_written, base_stored, base_image, layout_bytes) =
        run_workload(false, Compression::None);
    assert_eq!(
        base_written, base_stored,
        "no compression: stored == written"
    );
    assert_eq!(
        base_written,
        (PAGES * EPOCHS as usize * page_size()) as u64 + layout_bytes,
        "byte-oblivious pipeline flushes every dirty page in full"
    );
    let (aware_written, aware_stored, aware_image, _) = run_workload(true, Compression::Auto);
    assert_eq!(
        base_image, aware_image,
        "content awareness must never change restored bytes"
    );
    // The filter drops the clean-dirty half of every epoch after the first
    // (the first epoch is all-novel, so filter-only converges to 2× from
    // below); here 5 of 6 epochs flush half their pages.
    let full = (PAGES * page_size()) as u64;
    assert_eq!(
        aware_written,
        full + (EPOCHS as u64 - 1) * full / 2 + layout_bytes,
        "digest filter drops exactly the clean-dirty half per epoch"
    );
    assert!(
        aware_stored * 2 <= base_stored,
        "acceptance bound: >= 2x flushed-byte reduction \
         ({aware_stored} vs {base_stored})"
    );
}

#[test]
fn parity_tiered_compaction_stack_recovers_from_the_full_segment() {
    const K: usize = 3;
    const MAX_CHAIN: usize = 4;
    let dir = tmpdir("parity-stack");
    let slow = FileBackend::open(&dir).unwrap();
    let (fast, _fast_view) = MemoryBackend::shared();
    let stack = ParityBackend::new(
        TieredBackend::new(Box::new(fast), Box::new(slow), 0).unwrap(),
        K,
    );
    let cfg = CkptConfig::ai_ckpt(1 << 20)
        .with_max_pages(PAGES * 2)
        .with_compaction(CompactionPolicy::chain_len(MAX_CHAIN));
    let mgr = PageManager::new(cfg, Box::new(stack)).unwrap();
    let mut buf = mgr
        .alloc_protected_named("state", PAGES * page_size())
        .unwrap();
    for epoch in 0..10u8 {
        scribble(&mut buf, epoch);
        mgr.checkpoint().unwrap();
        mgr.wait_checkpoint().unwrap();
    }
    mgr.wait_maintenance_idle().unwrap();
    let expected: Vec<u8> = buf.as_mut_slice().to_vec();
    let base_page = buf.base_page() as u64;
    let stats = mgr.stats();
    assert!(
        stats.maintenance.compactions >= 1,
        "the policy must fire through parity + tiered forwarding: {:?}",
        stats.maintenance
    );
    assert!(stats.maintenance.epochs_drained >= 1, "tier must drain");
    assert_eq!(stats.maintenance.failures, 0, "{:?}", stats.maintenance);
    drop(mgr);

    // Everything durable lives on the slow file tier now; reopen it cold.
    let slow = FileBackend::open(&dir).unwrap();
    let chain = slow.chain().unwrap();
    assert!(
        chain.len() <= MAX_CHAIN + 1,
        "chain stayed bounded: {chain:?}"
    );
    let full = chain
        .iter()
        .find(|c| c.kind == EpochKind::Full)
        .expect("a post-compaction full segment")
        .epoch;
    let reader = ParityBackend::new(slow, K);
    // The restored image equals the final protected memory…
    let img = CheckpointImage::load_latest(&reader).unwrap().unwrap();
    let ps = page_size();
    for p in 0..PAGES {
        assert_eq!(
            img.page(base_page + p as u64).unwrap(),
            &expected[p * ps..(p + 1) * ps],
            "page {p} restores byte-identically"
        );
    }
    // …and every page of the full segment is reconstructible from its
    // re-emitted parity group alone.
    let mut full_pages: Vec<(u64, Vec<u8>)> = Vec::new();
    reader
        .read_epoch(full, &mut |p, d| full_pages.push((p, d.to_vec())))
        .unwrap();
    assert!(!full_pages.is_empty());
    for (p, want) in &full_pages {
        let got = reader.recover_page(full, *p).unwrap();
        assert_eq!(&got[..want.len()], &want[..], "page {p} from parity");
    }
    fs::remove_dir_all(&dir).unwrap();
}
