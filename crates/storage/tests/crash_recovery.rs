//! Crash-recovery harness for the file backend's chain invariants: whatever
//! instant a process dies at — mid-manifest-append, mid-segment-write,
//! between a compaction's commit and its GC — reopening the directory must
//! either restore byte-identically from the surviving prefix or fail
//! cleanly. It must never return corrupt or partial data as if it were a
//! checkpoint.
//!
//! Crashes are simulated mechanically: files are truncated, deleted or
//! resurrected exactly as an ill-timed `kill -9` would leave them (the
//! manifest's append-then-fsync protocol means every crash state is some
//! prefix of the append stream plus arbitrary orphan files).

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ai_ckpt_storage::{
    corrupt_manifest_byte, log, write_epoch, CheckpointImage, FileBackend, ManifestRecord,
    PageLocator, StorageBackend,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic epoch contents: epoch `e` dirties pages `e-1 ..= e+2` with
/// an epoch-dependent fill.
fn epoch_pages(e: u64) -> Vec<(u64, Vec<u8>)> {
    (e.saturating_sub(1)..=e + 2)
        .map(|p| (p, vec![(p as u8) ^ (e as u8).wrapping_mul(0x5D); 64]))
        .collect()
}

/// Latest-wins model of epochs `1..=n`.
fn model(n: u64) -> BTreeMap<u64, Vec<u8>> {
    let mut m = BTreeMap::new();
    for e in 1..=n {
        for (p, d) in epoch_pages(e) {
            m.insert(p, d);
        }
    }
    m
}

fn assert_image_matches(b: &dyn StorageBackend, up_to: u64) {
    let img = CheckpointImage::load(b, up_to).unwrap();
    let want = model(up_to);
    assert_eq!(img.len(), want.len(), "page count at checkpoint {up_to}");
    for (p, d) in &want {
        assert_eq!(img.page(*p), Some(d.as_slice()), "page {p} at {up_to}");
    }
}

fn populate(dir: &Path, epochs: u64) -> FileBackend {
    let b = FileBackend::open(dir).unwrap();
    for e in 1..=epochs {
        write_epoch(&b, e, epoch_pages(e)).unwrap();
    }
    b
}

#[test]
fn truncated_manifest_restores_the_surviving_prefix() {
    let dir = tmpdir("torn-manifest");
    populate(&dir, 5);
    let manifest = dir.join("MANIFEST");
    let full_len = fs::metadata(&manifest).unwrap().len();
    // Chop the manifest mid-record: epoch 5's commit (a wire record is 41
    // bytes) loses its last 12 bytes.
    let f = OpenOptions::new().write(true).open(&manifest).unwrap();
    f.set_len(full_len - 12).unwrap();
    drop(f);
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.epochs().unwrap(), vec![1, 2, 3, 4], "torn tail dropped");
    assert_image_matches(&b, 4);
    drop(b);
    // The prefix keeps working as a live backend: epoch 5 can be retaken.
    let b = FileBackend::open(&dir).unwrap();
    write_epoch(&b, 5, epoch_pages(5)).unwrap();
    assert_image_matches(&b, 5);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_torn_cut_of_the_last_record_is_survivable() {
    // Like above but exhaustively: each cut gets a fresh directory, so the
    // orphan sweep cannot interfere with later cuts.
    for cut in [1u64, 8, 16, 32] {
        let dir = tmpdir(&format!("torn-{cut}"));
        populate(&dir, 3);
        let manifest = dir.join("MANIFEST");
        let full_len = fs::metadata(&manifest).unwrap().len();
        let f = OpenOptions::new().write(true).open(&manifest).unwrap();
        f.set_len(full_len - cut).unwrap();
        drop(f);
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.epochs().unwrap(), vec![1, 2], "cut {cut}");
        assert_image_matches(&b, 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn missing_segment_with_manifest_record_fails_cleanly() {
    let dir = tmpdir("lost-segment");
    populate(&dir, 4);
    // The storage device lost epoch 3's segment but the manifest survived.
    fs::remove_file(dir.join("epoch_0000000003.seg")).unwrap();
    let b = FileBackend::open(&dir).unwrap();
    // The chain still lists epoch 3 (the manifest is the source of truth) …
    assert_eq!(b.epochs().unwrap(), vec![1, 2, 3, 4]);
    // … but materialising any image that needs it must error, not silently
    // skip the epoch.
    assert!(CheckpointImage::load(&b, 3).is_err(), "missing segment");
    assert!(
        CheckpointImage::load(&b, 4).is_err(),
        "chain broken below 4"
    );
    // Epochs below the hole are still byte-identical.
    assert_image_matches(&b, 2);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_segment_fails_cleanly() {
    let dir = tmpdir("short-segment");
    populate(&dir, 2);
    let seg = dir.join("epoch_0000000002.seg");
    let len = fs::metadata(&seg).unwrap().len();
    let f = OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);
    let b = FileBackend::open(&dir).unwrap();
    assert!(CheckpointImage::load(&b, 2).is_err(), "truncated segment");
    // The cut lands in the trailer, so the runtime's restore door fails
    // before it resolves a single page — not midway through the fill.
    let err = PageLocator::build(&b, 2).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_image_matches(&b, 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_v2_segment_with_compressed_record_fails_cleanly() {
    // A v2 epoch whose payloads compress (constant fill -> RLE): tearing
    // the segment anywhere inside a compressed record must fail the
    // restore of that epoch cleanly — decoder error or short read, never a
    // partial/garbage page — while earlier epochs stay byte-identical.
    let dir = tmpdir("torn-v2");
    {
        let b = FileBackend::open(&dir).unwrap();
        write_epoch(&b, 1, epoch_pages(1)).unwrap();
        write_epoch(
            &b,
            2,
            vec![
                (0, vec![0x5A; 4096]),
                (1, vec![0xA5; 4096]),
                (2, vec![7; 64]),
            ],
        )
        .unwrap();
    }
    let seg = dir.join("epoch_0000000002.seg");
    let full_len = fs::metadata(&seg).unwrap().len();
    assert!(
        full_len < 16 + 3 * (25 + 4096),
        "compression kicked in ({full_len} bytes), so cuts land inside \
         compressed records"
    );
    for cut in [1u64, 3, 9, full_len / 2, full_len - 17] {
        let dir2 = tmpdir(&format!("torn-v2-{cut}"));
        fs::create_dir_all(&dir2).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let e = entry.unwrap();
            fs::copy(e.path(), dir2.join(e.file_name())).unwrap();
        }
        let seg2 = dir2.join("epoch_0000000002.seg");
        let f = OpenOptions::new().write(true).open(&seg2).unwrap();
        f.set_len(full_len - cut).unwrap();
        drop(f);
        let b = FileBackend::open(&dir2).unwrap();
        assert!(
            CheckpointImage::load(&b, 2).is_err(),
            "cut {cut}: torn compressed record must not restore"
        );
        assert_image_matches(&b, 1);
        fs::remove_dir_all(&dir2).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_full_segment_fails_cleanly() {
    let dir = tmpdir("bad-full");
    let b = populate(&dir, 3);
    b.compact(3).unwrap();
    drop(b);
    // Flip one payload byte inside the full segment (header 16 + frame 20).
    let path = dir.join("full_0000000003.seg");
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    f.seek(SeekFrom::Start(16 + 20 + 5)).unwrap();
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xFF;
    f.seek(SeekFrom::Start(16 + 20 + 5)).unwrap();
    f.write_all(&byte).unwrap();
    drop(f);
    let b = FileBackend::open(&dir).unwrap();
    let err = CheckpointImage::load(&b, 3).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "CRC caught it");
    fs::remove_dir_all(&dir).unwrap();
}

/// Snapshot every file of a directory (for resurrecting "the GC never ran"
/// states).
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn killed_between_compaction_commit_and_gc_restores_identically() {
    let dir = tmpdir("kill-pre-gc");
    let before = {
        let b = populate(&dir, 6);
        drop(b);
        snapshot(&dir)
    };
    let b = FileBackend::open(&dir).unwrap();
    b.compact(6).unwrap();
    drop(b);
    // Resurrect the superseded delta segments the compaction GC'd — the
    // on-disk state of a process killed right after the manifest append.
    for (name, data) in &before {
        if name.starts_with("epoch_") && !dir.join(name).exists() {
            fs::write(dir.join(name), data).unwrap();
        }
    }
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.epochs().unwrap(), vec![6], "full record is the truth");
    assert_image_matches(&b, 6);
    // The sweep finished the interrupted GC.
    for name in before.keys() {
        if name.starts_with("epoch_") {
            assert!(!dir.join(name).exists(), "{name} swept at reopen");
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_before_compaction_commit_keeps_the_old_chain() {
    let dir = tmpdir("kill-pre-commit");
    {
        let b = populate(&dir, 4);
        drop(b);
    }
    // A compaction died after writing (even renaming) the full image but
    // before the manifest append: both possible leftovers.
    fs::write(dir.join("full_0000000004.seg.tmp"), b"partial").unwrap();
    fs::write(dir.join("full_0000000003.seg"), b"renamed but uncommitted").unwrap();
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.epochs().unwrap(), vec![1, 2, 3, 4], "old chain intact");
    assert_image_matches(&b, 4);
    assert!(!dir.join("full_0000000004.seg.tmp").exists(), "tmp swept");
    assert!(!dir.join("full_0000000003.seg").exists(), "orphan swept");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_after_recovery_composes_with_torn_manifest() {
    // Crash tears the manifest, recovery reopens, compaction folds, another
    // crash resurrects GC'd files … the invariant holds at every step.
    let dir = tmpdir("compose");
    populate(&dir, 5);
    let manifest = dir.join("MANIFEST");
    let len = fs::metadata(&manifest).unwrap().len();
    let f = OpenOptions::new().write(true).open(&manifest).unwrap();
    f.set_len(len - 12).unwrap(); // tear epoch 5's record
    drop(f);
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.epochs().unwrap(), vec![1, 2, 3, 4]);
    b.compact(4).unwrap();
    assert_image_matches(&b, 4);
    drop(b);
    let b = FileBackend::open(&dir).unwrap();
    assert_image_matches(&b, 4);
    write_epoch(&b, 5, epoch_pages(5)).unwrap();
    assert_image_matches(&b, 5);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segment_count_stays_bounded_across_fifty_epochs() {
    // The acceptance bound: ≥ 50 epochs with periodic compaction, on-disk
    // segment count never exceeds the chain bound, and the final image is
    // byte-identical to an uncompacted twin.
    const EPOCHS: u64 = 56;
    const MAX_CHAIN: usize = 8;
    let dir = tmpdir("bounded");
    let twin_dir = tmpdir("bounded-twin");
    let b = FileBackend::open(&dir).unwrap();
    let twin = FileBackend::open(&twin_dir).unwrap();
    let count_segments = |dir: &Path| {
        fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let n = name.to_string_lossy().into_owned();
                (n.starts_with("epoch_") || n.starts_with("full_")) && n.ends_with(".seg")
            })
            .count()
    };
    for e in 1..=EPOCHS {
        write_epoch(&b, e, epoch_pages(e)).unwrap();
        write_epoch(&twin, e, epoch_pages(e)).unwrap();
        if b.chain().unwrap().len() > MAX_CHAIN {
            b.compact(e).unwrap();
        }
        assert!(
            count_segments(&dir) <= MAX_CHAIN + 1,
            "epoch {e}: {} segments on disk",
            count_segments(&dir)
        );
    }
    assert!(
        count_segments(&twin_dir) as u64 == EPOCHS,
        "twin grew linearly (sanity)"
    );
    // Byte-identical final image, across a reopen.
    drop(b);
    let b = FileBackend::open(&dir).unwrap();
    let compacted = CheckpointImage::load(&b, EPOCHS).unwrap();
    let unbounded = CheckpointImage::load(&twin, EPOCHS).unwrap();
    assert_eq!(compacted, unbounded, "compaction changed restored bytes");
    assert_image_matches(&b, EPOCHS);
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&twin_dir).unwrap();
}

/// Overwrite the 8-byte magic at the head of `path`.
fn stamp_magic(path: &Path, magic: &[u8; 8]) {
    let mut f = OpenOptions::new().write(true).open(path).unwrap();
    f.write_all(magic).unwrap();
}

#[test]
fn v1_magics_are_rejected_loudly_never_read_as_empty() {
    // The never-deployed v1 formats are gone. A directory carrying their
    // magics is foreign data: every entry point must refuse it by name
    // (`InvalidData`), never treat it as an empty log or an empty epoch.
    let expect = |err: std::io::Error, magic: &str| {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains(magic),
            "error names {magic}: {err}"
        );
    };
    let dir = tmpdir("v1-reject");
    let b = populate(&dir, 2);

    // A v1 segment under a current manifest: streaming reads, the frame
    // index and random reads all fail; the scrubber reports it structural.
    stamp_magic(&dir.join("epoch_0000000001.seg"), b"AICKSEG1");
    expect(b.read_epoch(1, &mut |_, _| {}).unwrap_err(), "AICKSEG1");
    expect(b.epoch_page_ids(1).unwrap_err(), "AICKSEG1");
    expect(b.read_page_at(1, 0).unwrap_err(), "AICKSEG1");
    let report = b.verify_epoch(1).unwrap();
    assert!(report.structural.iter().any(|s| s.contains("AICKSEG1")));
    assert!(CheckpointImage::load(&b, 2).is_err(), "restore refuses");
    drop(b);

    // A v1 manifest, or the un-CRC'd v2 one: open, read and append all
    // fail, and nothing in the directory is swept on the way.
    let manifest = dir.join("MANIFEST");
    let before = listing(&dir);
    for old in [b"AICKMAN1", b"AICKMAN2"] {
        let name = std::str::from_utf8(old).unwrap();
        stamp_magic(&manifest, old);
        expect(FileBackend::open(&dir).unwrap_err(), name);
        expect(log::read::<ManifestRecord>(&manifest).unwrap_err(), name);
        let record = ManifestRecord::delta(3, 0, 0);
        expect(log::append(&manifest, &[record]).unwrap_err(), name);
        assert_eq!(listing(&dir), before, "{name}: nothing swept");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// File names of `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    snapshot(dir).into_keys().collect()
}

fn assert_invalid<T>(result: std::io::Result<T>, ctx: &str) {
    match result {
        Ok(_) => panic!("{ctx}: succeeded on a corrupt manifest"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{ctx}: {e}"),
    }
}

/// Bytes of the manifest magic and of one wire record (33 + CRC).
const MAGIC: u64 = 8;
const WIRE: u64 = 41;

#[test]
fn a_flipped_kind_bit_mid_manifest_fails_the_open_and_sweeps_nothing() {
    // One bit of record 2's kind byte: `Delta` (0) becomes `CompactedInto`
    // (2). Without a record CRC that reads as "epoch 2 was retired": the
    // open succeeds, lists [1, 3], restores a chain with a hole in it as
    // "latest", verifies clean — and sweeps epoch 2's segment as an orphan.
    let dir = tmpdir("kind-flip");
    drop(populate(&dir, 3));
    let before = listing(&dir);
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("MANIFEST"))
        .unwrap();
    let kind_at = MAGIC + WIRE;
    let mut kind = [0u8; 1];
    f.seek(SeekFrom::Start(kind_at)).unwrap();
    f.read_exact(&mut kind).unwrap();
    assert_eq!(kind[0], 0, "record 2 is a delta commit");
    f.seek(SeekFrom::Start(kind_at)).unwrap();
    f.write_all(&[2]).unwrap();
    drop(f);
    assert_invalid(FileBackend::open(&dir), "open");
    assert_eq!(listing(&dir), before, "a failed open deletes nothing");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_flipped_manifest_byte_is_loud_or_the_documented_tail_tear() {
    let dir = tmpdir("flip-all");
    // A handle opened before the rot: it must not keep serving the chain
    // from a log it could no longer open.
    let live = populate(&dir, 3);
    let before = listing(&dir);
    let len = fs::metadata(dir.join("MANIFEST")).unwrap().len();
    assert_eq!(len, MAGIC + 3 * WIRE);
    for at in 0..len {
        corrupt_manifest_byte(&dir, at).unwrap();
        let ctx = format!("byte {at}");
        if at < MAGIC + 2 * WIRE {
            // The magic, or a record with a good record after it.
            assert_invalid(FileBackend::open(&dir), &ctx);
            assert_eq!(listing(&dir), before, "{ctx}: nothing swept");
            assert_invalid(live.epochs(), &ctx);
            assert_invalid(live.chain(), &ctx);
            assert_invalid(live.read_epoch(3, &mut |_, _| {}), &ctx);
            assert_invalid(PageLocator::build(&live, 3), &ctx);
            assert_invalid(CheckpointImage::load(&live, 3), &ctx);
        } else {
            // Rot confined to the last record cannot be told from a torn
            // append of it: epoch 3 "never committed", 1–2 are intact. (On
            // a copy — the open sweeps epoch 3's now-orphaned segment.)
            let copy = tmpdir("flip-tail");
            fs::create_dir_all(&copy).unwrap();
            for (name, data) in snapshot(&dir) {
                fs::write(copy.join(name), data).unwrap();
            }
            let b = FileBackend::open(&copy).unwrap();
            assert_eq!(b.epochs().unwrap(), vec![1, 2], "{ctx}");
            assert_image_matches(&b, 2);
            fs::remove_dir_all(&copy).unwrap();
        }
        corrupt_manifest_byte(&dir, at).unwrap(); // flip it back
    }
    assert_image_matches(&live, 3);
    fs::remove_dir_all(&dir).unwrap();
}
