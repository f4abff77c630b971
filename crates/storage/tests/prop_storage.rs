//! Randomized-model tests for the storage substrate: the incremental-restore
//! reconstruction must equal a sequentially applied write log for arbitrary
//! epoch contents, across backends and wrappers. Inputs are generated from
//! the workspace's deterministic `SplitMix64` (the offline stand-in for the
//! proptest strategies this file originally used).

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_storage::{
    write_epoch, CheckpointImage, EpochWriter, FailureControl, FileBackend, MemoryBackend,
    PageLocator, ParityBackend, PolicyBuilder, ReplicatedBackend, ResilienceSpec, StorageBackend,
    ThrottledBackend,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An arbitrary epoch: pages (small id space to force overwrites) and
/// payloads of 1..64 bytes.
/// A `FileBackend` whose syscalls go through a failure control that arms
/// nothing: its fsyncs are modeled, not issued (no property here judges
/// durability).
fn open(dir: &std::path::Path) -> FileBackend {
    FileBackend::open_on(dir, FailureControl::new().leaf()).unwrap()
}

fn gen_epoch(rng: &mut SplitMix64) -> Vec<(u64, Vec<u8>)> {
    let records = rng.next_below(32) as usize;
    (0..records)
        .map(|_| {
            let page = rng.next_below(24);
            let len = 1 + rng.next_below(63) as usize;
            let payload = (0..len).map(|_| rng.next_u64() as u8).collect();
            (page, payload)
        })
        .collect()
}

fn gen_epochs(rng: &mut SplitMix64, max: u64) -> Vec<Vec<(u64, Vec<u8>)>> {
    let n = rng.next_below(max) as usize;
    (0..n).map(|_| gen_epoch(rng)).collect()
}

/// Model: apply epochs in order, last write per page wins (within an epoch
/// the later record wins too — write order is preserved by read_epoch).
fn model(epochs: &[Vec<(u64, Vec<u8>)>]) -> BTreeMap<u64, Vec<u8>> {
    let mut m = BTreeMap::new();
    for epoch in epochs {
        for (p, d) in epoch {
            m.insert(*p, d.clone());
        }
    }
    m
}

fn check_backend<B: StorageBackend>(backend: B, epochs: &[Vec<(u64, Vec<u8>)>]) {
    for (i, epoch) in epochs.iter().enumerate() {
        write_epoch(&backend, i as u64 + 1, epoch.clone()).unwrap();
    }
    if epochs.is_empty() {
        assert!(CheckpointImage::load_latest(&backend).unwrap().is_none());
        return;
    }
    let img = CheckpointImage::load_latest(&backend).unwrap().unwrap();
    let want = model(epochs);
    assert_eq!(img.len(), want.len());
    for (p, d) in &want {
        assert_eq!(img.page(*p), Some(d.as_slice()), "page {p}");
    }
    // Intermediate restore points also match their prefixes.
    let mid = epochs.len() / 2;
    if mid > 0 {
        let img_mid = CheckpointImage::load(&backend, mid as u64).unwrap();
        let want_mid = model(&epochs[..mid]);
        assert_eq!(img_mid.len(), want_mid.len());
        for (p, d) in &want_mid {
            assert_eq!(img_mid.page(*p), Some(d.as_slice()));
        }
    }
}

#[test]
fn memory_backend_restore_equals_log() {
    let mut rng = SplitMix64::new(0x51);
    for _ in 0..64 {
        let epochs = gen_epochs(&mut rng, 6);
        check_backend(MemoryBackend::new(), &epochs);
    }
}

#[test]
fn file_backend_restore_equals_log() {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-prop-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut rng = SplitMix64::new(0x52);
    for _ in 0..24 {
        let epochs = gen_epochs(&mut rng, 4);
        let _ = std::fs::remove_dir_all(&dir);
        let b = open(&dir);
        check_backend(b, &epochs);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parity_backend_is_transparent_and_recoverable() {
    let mut rng = SplitMix64::new(0x53);
    for case in 0..48u64 {
        let k = 2 + (case % 3) as usize;
        // Unique page ids per epoch, as checkpoint epochs guarantee (the
        // engine commits each page exactly once per checkpoint); duplicate
        // ids in one XOR group are unrecoverable by design.
        let n_epochs = 1 + rng.next_below(3) as usize;
        let epochs: Vec<Vec<(u64, Vec<u8>)>> = (0..n_epochs)
            .map(|_| {
                let mut set: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
                for _ in 0..1 + rng.next_below(19) {
                    let page = rng.next_below(24);
                    let len = 1 + rng.next_below(63) as usize;
                    set.insert(page, (0..len).map(|_| rng.next_u64() as u8).collect());
                }
                set.into_iter().collect()
            })
            .collect();
        let inner = MemoryBackend::new();
        check_backend(ParityBackend::new(inner.clone(), k), &epochs);
        // Every data page of the last epoch is reconstructible from parity.
        let reader = ParityBackend::new(inner, k);
        let last = epochs.len() as u64;
        let mut pages: Vec<(u64, Vec<u8>)> = Vec::new();
        reader
            .read_epoch(last, &mut |p, d| pages.push((p, d.to_vec())))
            .unwrap();
        for (p, want) in pages {
            let got = reader.recover_page(last, p).unwrap();
            assert!(
                got.len() >= want.len() && got[..want.len()] == want[..],
                "page {p}: recovered {} bytes != written {} bytes",
                got.len(),
                want.len()
            );
        }
    }
}

/// Every page of `image`, read back the way a restore reads it: the
/// `PageLocator` names the epoch, `read_page_at` returns the record.
fn assert_point_reads_match(backend: &dyn StorageBackend, image: &CheckpointImage, case: u64) {
    let locator = PageLocator::build(backend, image.checkpoint()).unwrap();
    assert_eq!(locator.len(), image.len(), "case {case}: locator size");
    for (page, data) in image.iter() {
        let epoch = locator.epoch_of(page).unwrap();
        let got = backend.read_page_at(epoch, page).unwrap();
        assert_eq!(got.as_deref(), Some(data), "case {case}: page {page}");
    }
}

/// The image a chain materialises must be invariant under any interleaving
/// of compactions (fold the committed prefix), tier drains (migrate the
/// oldest epoch outward) and further checkpoints: all of them are
/// representation changes, never data changes — and every page of it reads
/// back the same one record at a time, whatever the folds did to the
/// epochs' indexes.
#[test]
fn compacted_chain_image_equals_uncompacted_chain_image() {
    let mut rng = SplitMix64::new(0xC0_FFEE);
    for case in 0..96u64 {
        // Twin setup: `plain` only ever appends; `folded` additionally
        // compacts/drains at random points.
        let plain = MemoryBackend::new();
        let memory = || Box::new(MemoryBackend::new()) as Box<dyn StorageBackend>;
        let folded: Box<dyn StorageBackend> = match case % 3 {
            0 => memory(),
            // A bounded level has evicted what it drained by the time it
            // folds: the fold must install the whole image, not the bounded
            // level's undrained tail. At its bound a commit drains inline.
            1 => {
                let spec = format!("hot=plain#{} -> cold=plain", 1 + rng.next_below(3));
                let spec = ResilienceSpec::parse(&spec).unwrap();
                Box::new(
                    PolicyBuilder::new(spec)
                        .unwrap()
                        .build(|_, _| memory())
                        .unwrap(),
                )
            }
            _ => Box::new(ReplicatedBackend::new(vec![memory(), memory()])),
        };
        let mut committed = 0u64;
        for _ in 0..(2 + rng.next_below(12)) {
            match rng.next_below(10) {
                // 60%: take a checkpoint (same content on both chains).
                0..=5 => {
                    committed += 1;
                    let epoch = gen_epoch(&mut rng);
                    write_epoch(&plain, committed, epoch.clone()).unwrap();
                    write_epoch(folded.as_ref(), committed, epoch).unwrap();
                }
                // 20%: compact everything committed so far.
                6 | 7 => {
                    if committed > 0 {
                        folded.compact(committed).unwrap();
                    }
                }
                // 20%: drain one epoch outward (no-op on single tier).
                _ => {
                    folded.drain_one().unwrap();
                }
            }
            // Invariant after *every* step, not just at the end.
            match (
                CheckpointImage::load_latest(&plain).unwrap(),
                CheckpointImage::load_latest(folded.as_ref()).unwrap(),
            ) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a, b, "case {case}: images diverged");
                    assert_point_reads_match(folded.as_ref(), &b, case);
                }
                (a, b) => panic!(
                    "case {case}: presence diverged (plain {:?} vs folded {:?})",
                    a.map(|i| i.checkpoint()),
                    b.map(|i| i.checkpoint())
                ),
            }
        }
        // Restore at the head must also agree via explicit epoch number.
        if committed > 0 {
            let a = CheckpointImage::load(&plain, committed).unwrap();
            let b = CheckpointImage::load(folded.as_ref(), committed).unwrap();
            assert_eq!(a, b, "case {case}: head image diverged");
        }
    }
}

/// The same property on disk: the file backend's compaction (manifest v2,
/// full segments, GC) must never change restored bytes.
#[test]
fn file_backend_compaction_preserves_the_image() {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-prop-compact-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut rng = SplitMix64::new(0xF0_1DED);
    for case in 0..12u64 {
        let _ = std::fs::remove_dir_all(&dir);
        let b = open(&dir);
        let plain = MemoryBackend::new();
        let mut committed = 0u64;
        for _ in 0..(3 + rng.next_below(8)) {
            if committed == 0 || rng.next_below(4) < 3 {
                committed += 1;
                let epoch = gen_epoch(&mut rng);
                write_epoch(&b, committed, epoch.clone()).unwrap();
                write_epoch(&plain, committed, epoch).unwrap();
            } else {
                b.compact(committed).unwrap();
            }
        }
        let want = CheckpointImage::load(&plain, committed).unwrap();
        let got = CheckpointImage::load(&b, committed).unwrap();
        assert_eq!(got, want, "case {case}");
        // And across a reopen (manifest + segments re-parsed from disk).
        drop(b);
        let b = open(&dir);
        let got = CheckpointImage::load(&b, committed).unwrap();
        assert_eq!(got, want, "case {case} after reopen");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hammer one epoch session from several threads and return the exact
/// payload byte total the threads pushed.
fn hammer_concurrently(backend: &dyn StorageBackend, threads: u64, writes: u64) -> u64 {
    let writer: Arc<dyn EpochWriter> = Arc::from(backend.begin_epoch(1).unwrap());
    std::thread::scope(|s| {
        for t in 0..threads {
            let writer = Arc::clone(&writer);
            s.spawn(move || {
                for i in 0..writes {
                    let page = t * writes + i;
                    let len = 1 + (page % 96) as usize;
                    writer
                        .write_pages(&[(page, &vec![page as u8; len])])
                        .unwrap();
                }
            });
        }
    });
    writer.finish().unwrap();
    let mut expected = 0;
    for t in 0..threads {
        for i in 0..writes {
            expected += 1 + ((t * writes + i) % 96);
        }
    }
    expected
}

#[test]
fn bytes_written_is_exact_under_concurrent_streams() {
    // The diagnostics counters are atomics: no updates may be lost when
    // several committer streams write the same epoch session.
    let threads = 8;
    let writes = 200;

    let mem = MemoryBackend::new();
    let expected = hammer_concurrently(&mem, threads, writes);
    assert_eq!(mem.bytes_written(), expected, "memory backend");

    let throttled = ThrottledBackend::new(
        MemoryBackend::new(),
        1e12, // effectively unthrottled: this test is about accounting
        std::time::Duration::ZERO,
    );
    let expected = hammer_concurrently(&throttled, threads, writes);
    assert_eq!(throttled.bytes_written(), expected, "throttled wrapper");

    let (a, a_view) = MemoryBackend::shared();
    let (b, b_view) = MemoryBackend::shared();
    let replicated = ReplicatedBackend::new(vec![Box::new(a), Box::new(b)]);
    let expected = hammer_concurrently(&replicated, threads, writes);
    assert_eq!(
        replicated.bytes_written(),
        expected,
        "replication reports logical bytes, not replication-factor bytes"
    );
    assert_eq!(a_view.bytes_written(), expected);
    assert_eq!(b_view.bytes_written(), expected);
}

#[test]
fn crc_detects_any_single_corruption() {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-crc-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut rng = SplitMix64::new(0x54);
    for _ in 0..32 {
        let len = 21 + rng.next_below(235) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let flip_at = rng.next_below(payload.len() as u64 - 20);
        let _ = std::fs::remove_dir_all(&dir);
        let b = open(&dir);
        write_epoch(&b, 1, vec![(0, payload.clone())]).unwrap();
        ai_ckpt_storage::file::corrupt_record_payload(&dir, 1, flip_at).unwrap();
        let err = b.read_epoch(1, &mut |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
