//! The file backend's chain, beside the crash states: every crash, torn
//! write, power cut and flipped or lost byte of the file engine is a case of
//! the crash-points sweep (`tests/crash_points.rs`), which numbers each
//! mutating syscall. What stays here is what no crash state shows: a
//! compaction after a torn tail was recovered, foreign magics, a handle
//! opened before its manifest rotted, a torn batch followed by a good one in
//! the same session, every byte cut of a trailer — and the vectored I/O
//! engine's own invariants: byte-identical restores whatever the shard
//! interleaving, and its bounds (segment count, shard GC, fsyncs per
//! retirement, the byte ledger).

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use ai_ckpt_storage::{
    corrupt_manifest_byte, corrupt_segment_region, log, write_epoch, CheckpointImage, Compression,
    FileBackend, ManifestRecord, MemoryBackend, PageLocator, ReplicatedBackend, SegmentRegion,
    StorageBackend,
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

/// Deterministic page payload: page `p` of epoch `e` under generator `g`.
/// Half the pages are constant-fill (RLE-friendly), half pseudo-random
/// (stored raw), so both encoder paths cross the vectored writer.
fn payload(p: u64, e: u64, g: u64) -> Vec<u8> {
    if p.is_multiple_of(2) {
        vec![(p as u8) ^ (e as u8).wrapping_mul(0x5D); 256]
    } else {
        let mut x = p
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(e)
            .wrapping_add(g);
        (0..256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }
}

fn commit_epoch(b: &dyn StorageBackend, e: u64, pages: std::ops::Range<u64>) {
    let w = b.begin_epoch(e).unwrap();
    for p in pages {
        let d = payload(p, e, 0);
        w.write_pages(&[(p, &d)]).unwrap();
    }
    w.finish().unwrap();
}

fn read_all(b: &dyn StorageBackend, e: u64) -> BTreeMap<u64, Vec<u8>> {
    let mut got = BTreeMap::new();
    b.read_epoch(e, &mut |p, d| {
        got.insert(p, d.to_vec());
    })
    .unwrap();
    got
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
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
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

/// Rot of the manifest under a handle opened before it: every read door of
/// that handle fails loudly rather than serving the chain from a log it
/// could no longer open. (What a reopen of each flipped byte does — refuse
/// with nothing deleted, or read rot in the last record as its torn append
/// — is the crash-points sweep's `file:rot:MANIFEST:b`.)
#[test]
fn every_flipped_manifest_byte_fails_a_handle_opened_before_it() {
    let dir = tmpdir("flip-all");
    let live = populate(&dir, 3);
    let len = fs::metadata(dir.join("MANIFEST")).unwrap().len();
    assert_eq!(len, MAGIC + 3 * WIRE);
    // The magic, or a record with a good record after it.
    for at in 0..MAGIC + 2 * WIRE {
        corrupt_manifest_byte(&dir, at).unwrap();
        let ctx = format!("byte {at}");
        assert_invalid(live.epochs(), &ctx);
        assert_invalid(live.chain(), &ctx);
        assert_invalid(live.read_epoch(3, &mut |_, _| {}), &ctx);
        assert_invalid(PageLocator::build(&live, 3), &ctx);
        assert_invalid(CheckpointImage::load(&live, 3), &ctx);
        corrupt_manifest_byte(&dir, at).unwrap(); // flip it back
    }
    assert_image_matches(&live, 3);
    fs::remove_dir_all(&dir).unwrap();
}

/// A vectored write that fails part-way leaves a torn tail past the
/// shard's last complete batch. The next good batch overwrites it from the
/// same offset and `finish` seals truncate → trailer, so the trailer names
/// the committed records only and sits flush at end-of-file — however much
/// longer than the good batch the torn tail was.
#[test]
fn torn_batch_then_a_good_one_seals_a_trailer_of_committed_records_only() {
    let dir = tmpdir("torn-then-good");
    let b = FileBackend::open(&dir)
        .unwrap()
        .with_compression(Compression::None);
    let w = b.begin_epoch(1).unwrap();
    let first = payload(1, 1, 0);
    w.write_pages(&[(1, &first)]).unwrap();
    // What an ill-timed partial `pwritev` leaves: bytes past the shard's
    // logical offset that no completed batch accounts for — here far more
    // than the next batch plus the trailer will cover.
    let seg = dir.join("epoch_0000000001.seg");
    OpenOptions::new()
        .append(true)
        .open(&seg)
        .unwrap()
        .write_all(&[0xAB; 10_000])
        .unwrap();
    let second = payload(3, 1, 0);
    w.write_pages(&[(3, &second)]).unwrap();
    w.finish().unwrap();
    // header + 2 × (frame + 256) + 2 entries + footer: the tail is gone.
    assert_eq!(
        fs::metadata(&seg).unwrap().len(),
        16 + 2 * (25 + 256) + 2 * 16 + 24
    );
    for backend in [&b, &FileBackend::open(&dir).unwrap()] {
        assert_eq!(backend.epoch_page_ids(1).unwrap(), vec![1, 3]);
        assert_eq!(
            read_all(backend, 1),
            BTreeMap::from([(1, first.clone()), (3, second.clone())])
        );
        assert_eq!(backend.read_page_at(1, 1).unwrap().unwrap(), first);
        assert_eq!(backend.read_page_at(1, 3).unwrap().unwrap(), second);
        assert!(backend.verify_epoch(1).unwrap().is_clean());
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Many threads share one epoch session and interleave freely across the
/// per-stream shards; whatever the interleaving, the committed epoch must
/// restore byte-identically — under both the zero-copy raw path
/// (`Compression::None`) and the staged compressed path (`Auto`).
#[test]
fn concurrent_stream_interleaving_restores_byte_identically() {
    for (tag, compression) in [("none", Compression::None), ("auto", Compression::Auto)] {
        let dir = tmpdir(&format!("interleave-{tag}"));
        const THREADS: u64 = 4;
        const PAGES_PER_THREAD: u64 = 64;
        let b = FileBackend::open(&dir)
            .unwrap()
            .with_compression(compression);
        let w = b.begin_epoch(1).unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let w = &w;
                s.spawn(move || {
                    let base = t * PAGES_PER_THREAD;
                    for chunk in (base..base + PAGES_PER_THREAD)
                        .collect::<Vec<_>>()
                        .chunks(8)
                    {
                        let data: Vec<Vec<u8>> = chunk.iter().map(|&p| payload(p, 1, t)).collect();
                        let batch: Vec<(u64, &[u8])> = chunk
                            .iter()
                            .zip(&data)
                            .map(|(&p, d)| (p, d.as_slice()))
                            .collect();
                        w.write_pages(&batch).unwrap();
                    }
                });
            }
        });
        w.finish().unwrap();
        let io = b.io_stats();
        assert!(io.vectored_writes > 0, "{tag}: the gathered path was used");
        // Byte-identity, from the live handle and from a cold reopen.
        for backend in [&b, &FileBackend::open(&dir).unwrap()] {
            let got = read_all(backend, 1);
            assert_eq!(got.len(), (THREADS * PAGES_PER_THREAD) as usize, "{tag}");
            for (&p, d) in &got {
                assert_eq!(d, &payload(p, 1, p / PAGES_PER_THREAD), "{tag}: page {p}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Shard files live and die with their epoch: retirement and compaction
/// must remove every shard, not just the legacy single file.
#[test]
fn shard_files_are_garbage_collected_with_their_epoch() {
    let dir = tmpdir("gc");
    let b = FileBackend::open(&dir).unwrap();
    // Concurrent writers fan out across shards (spill is contention-driven;
    // the GC assertions below hold for any layout that resulted).
    for e in 1..=3u64 {
        let w = b.begin_epoch(e).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = &w;
                s.spawn(move || {
                    for p in (t * 16)..(t * 16 + 16) {
                        let d = payload(p, e, 0);
                        w.write_pages(&[(p, &d)]).unwrap();
                    }
                });
            }
        });
        w.finish().unwrap();
    }
    // Retiring epoch 1 leaves no file of it behind, shards included.
    b.remove_epochs(&[1]).unwrap();
    assert!(
        !listing(&dir).iter().any(|n| n.contains("0000000001")),
        "every epoch-1 shard removed, got {:?}",
        listing(&dir)
    );
    // Compaction folds 2..=3 into one full segment and GCs all their
    // shards.
    b.compact(3).unwrap();
    assert_eq!(
        listing(&dir),
        ["MANIFEST", "full_0000000003.seg"],
        "only the fold survives"
    );
    let got = read_all(&b, 3);
    assert_eq!(got.len(), 64);
    for (&p, d) in &got {
        assert_eq!(d, &payload(p, 3, 0), "page {p} folded latest-wins");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Batched retirement is one manifest commit: N records, one fsync —
/// observable through the backend's I/O counters.
#[test]
fn batched_retirement_coalesces_manifest_fsyncs() {
    let dir = tmpdir("batch-retire");
    let b = FileBackend::open(&dir).unwrap();
    for e in 1..=3u64 {
        commit_epoch(&b, e, 0..4);
    }
    let before = b.io_stats();
    b.remove_epochs(&[1, 2]).unwrap();
    let after = b.io_stats();
    assert_eq!(after.manifest_appends - before.manifest_appends, 2);
    assert_eq!(after.manifest_fsyncs - before.manifest_fsyncs, 1);
    assert_eq!(b.epochs().unwrap(), vec![3]);
    fs::remove_dir_all(&dir).unwrap();
}

/// The reference replay and the scrubber are two visitors of one segment
/// walk, and `read_page_at` opens records through the same seal: for every
/// region of the format flipped in turn, the three must tell one story.
#[test]
fn the_strict_and_the_forgiving_visitor_agree_on_every_region() {
    const PAGES: u64 = 4;
    let regions = [
        SegmentRegion::Header,
        SegmentRegion::PageId,
        SegmentRegion::Encoding,
        SegmentRegion::RawLen { byte: 0 },
        SegmentRegion::RawLen { byte: 3 },
        SegmentRegion::StoredLen { byte: 1 },
        SegmentRegion::Payload { byte: 7 },
        SegmentRegion::Crc,
        SegmentRegion::PayloadOf { page: 3, byte: 200 },
        SegmentRegion::Trailer { byte: 0 },
        SegmentRegion::Trailer { byte: 16 * PAGES }, // the count
        SegmentRegion::Trailer {
            byte: 16 * PAGES + 8,
        }, // the CRC
        SegmentRegion::Trailer {
            byte: 16 * PAGES + 16,
        }, // the magic
    ];
    for region in regions {
        let dir = tmpdir("visitors");
        let b = FileBackend::open(&dir).unwrap();
        commit_epoch(&b, 1, 0..PAGES);
        assert!(b.verify_epoch(1).unwrap().is_clean());
        corrupt_segment_region(&dir, 1, region).unwrap();

        let report = b.verify_epoch(1).unwrap();
        assert!(!report.is_clean(), "{region:?} went unnoticed");
        let replay = b.read_epoch(1, &mut |_, _| {});
        assert_eq!(replay.is_err(), !report.is_clean(), "{region:?}");
        let failing: Vec<u64> = (0..PAGES)
            .filter(|&p| b.read_page_at(1, p).is_err())
            .collect();
        if report.structural.is_empty() {
            assert_eq!(failing, report.corrupt_pages, "{region:?}");
        } else {
            // No record of the segment can be located any more.
            assert!(report.corrupt_pages.is_empty(), "{region:?}");
            assert_eq!(failing, (0..PAGES).collect::<Vec<_>>(), "{region:?}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    // The in-memory backend opens its records through the same seal: the
    // same flip in the same stored bytes is the same error, word for word.
    let pages = || (0..PAGES).map(|p| (p, payload(p, 1, 0)));
    let dir = tmpdir("visitors-mem");
    let file = FileBackend::open(&dir).unwrap();
    let memory = MemoryBackend::with_compression(file.compression);
    write_epoch(&file, 1, pages()).unwrap();
    write_epoch(&memory, 1, pages()).unwrap();
    corrupt_segment_region(&dir, 1, SegmentRegion::Payload { byte: 7 }).unwrap();
    memory.corrupt_stored_page(1, 0, 7).unwrap();
    let from_file = file.read_page_at(1, 0).unwrap_err();
    let from_memory = memory.read_page_at(1, 0).unwrap_err();
    assert_eq!(from_memory.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(from_memory.kind(), from_file.kind());
    assert_eq!(from_memory.to_string(), from_file.to_string());
    assert!(from_file.to_string().starts_with("page 0 in epoch 1: "));
    fs::remove_dir_all(&dir).unwrap();
}

/// Compacted, rewritten and repaired images go through the same vectored
/// writer a delta epoch does — their syscalls are counted — but they are
/// internal traffic: nothing the application committed, so nothing in
/// `bytes_written` / `bytes_stored`.
#[test]
fn staged_images_stay_out_of_the_byte_ledger() {
    #[track_caller]
    fn staged(b: &dyn StorageBackend, ledger: (u64, u64), writes: &mut u64) {
        let now = b.io_stats().vectored_writes;
        assert!(now > *writes, "the image went through the vectored writer");
        *writes = now;
        assert_eq!((b.bytes_written(), b.bytes_stored()), ledger);
    }

    let dir = tmpdir("ledger");
    let b = FileBackend::open(&dir).unwrap();
    for e in 1..=3u64 {
        commit_epoch(&b, e, 0..8);
    }
    let ledger = (b.bytes_written(), b.bytes_stored());
    assert_eq!(ledger.0, 3 * 8 * 256);
    let mut writes = b.io_stats().vectored_writes;
    b.compact(2).unwrap();
    staged(&b, ledger, &mut writes);
    let image: Vec<(u64, Vec<u8>)> = read_all(&b, 3).into_iter().collect();
    let batch: Vec<(u64, &[u8])> = image.iter().map(|(p, d)| (*p, d.as_slice())).collect();
    b.rewrite_epoch(3, &batch).unwrap();
    staged(&b, ledger, &mut writes);
    assert_eq!(read_all(&b, 3), image.into_iter().collect());
    fs::remove_dir_all(&dir).unwrap();

    // A scrub repair: the file replica is rewritten from its healthy twin.
    let dir = tmpdir("ledger-repair");
    let pair = ReplicatedBackend::new(vec![
        Box::new(FileBackend::open(&dir).unwrap()),
        Box::new(MemoryBackend::new()),
    ]);
    commit_epoch(&pair, 1, 0..8);
    let ledger = (pair.bytes_written(), pair.bytes_stored());
    let mut writes = pair.io_stats().vectored_writes;
    corrupt_segment_region(&dir, 1, SegmentRegion::Header).unwrap();
    assert!(pair.repair_epoch(1).unwrap().rewrote_segment);
    staged(&pair, ledger, &mut writes);
    assert!(pair.verify_epoch(1).unwrap().is_clean());
    fs::remove_dir_all(&dir).unwrap();
}
