//! Mixed-encoding segment properties: chains whose prefix was written under
//! one `Compression` policy and whose suffix under the other (a reopen with
//! a changed policy) must read back byte-identically, whatever the payload
//! shapes, and survive a latest-wins fold.

use std::fs;
use std::path::PathBuf;

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_storage::{write_epoch, CheckpointImage, Compression, FileBackend, StorageBackend};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-codecprop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn payload(rng: &mut SplitMix64) -> Vec<u8> {
    let len = 1 + rng.next_below(600) as usize;
    match rng.next_below(3) {
        0 => vec![rng.next_u64() as u8; len],
        1 => (0..len).map(|i| (i / 7) as u8).collect(),
        _ => (0..len).map(|_| rng.next_u64() as u8).collect(),
    }
}

#[test]
fn mixed_encoding_chains_read_back_and_fold_identically() {
    let mut rng = SplitMix64::new(0x002C_E551);
    for case in 0..12u64 {
        let dir = tmpdir(&format!("mix-{case}"));
        let (before, after) = if case % 2 == 0 {
            (Compression::None, Compression::Auto)
        } else {
            (Compression::Auto, Compression::None)
        };
        // Model: page -> latest payload, built alongside the chain.
        let mut model: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        let epochs = 2 + rng.next_below(4);
        // Prefix, written by "the old process" under the other policy.
        let old = FileBackend::open(&dir).unwrap().with_compression(before);
        for e in 1..=epochs {
            let pages: Vec<(u64, Vec<u8>)> = (0..1 + rng.next_below(6))
                .map(|_| (rng.next_below(24), payload(&mut rng)))
                .collect();
            let mut dedup: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
            for (p, d) in pages {
                dedup.insert(p, d);
            }
            let pages: Vec<(u64, Vec<u8>)> = dedup.into_iter().collect();
            for (p, d) in &pages {
                model.insert(*p, d.clone());
            }
            write_epoch(&old, e, pages).unwrap();
        }
        drop(old);
        // Suffix, written after a reopen with the policy flipped.
        let b = FileBackend::open(&dir).unwrap().with_compression(after);
        for e in epochs + 1..=epochs + 3 {
            let pages: Vec<(u64, Vec<u8>)> = (0..1 + rng.next_below(6))
                .map(|_| (rng.next_below(24), payload(&mut rng)))
                .collect();
            let mut dedup: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
            for (p, d) in pages {
                dedup.insert(p, d);
            }
            let pages: Vec<(u64, Vec<u8>)> = dedup.into_iter().collect();
            for (p, d) in &pages {
                model.insert(*p, d.clone());
            }
            write_epoch(&b, e, pages).unwrap();
        }
        let head = epochs + 3;
        let check = |b: &FileBackend, tag: &str| {
            let img = CheckpointImage::load(b, head).unwrap();
            assert_eq!(img.len(), model.len(), "case {case} {tag}");
            for (p, d) in &model {
                assert_eq!(img.page(*p).unwrap(), &d[..], "case {case} {tag} page {p}");
            }
        };
        check(&b, "mixed chain");
        // Folding the mixed chain re-encodes everything under the current
        // policy; bytes must not change.
        b.compact(head).unwrap();
        check(&b, "after fold");
        // …and a cold reopen reads the same.
        let b = FileBackend::open(&dir).unwrap();
        check(&b, "after reopen");
        fs::remove_dir_all(&dir).unwrap();
    }
}
