//! Crash-consistency harness for the vectored per-stream I/O engine: torn
//! gathered writes, torn trailers, crashes between the group-commit segment
//! fsync and the manifest append, and concurrent-stream shard interleavings. The commit
//! point is the manifest record — everything before it must be invisible
//! (and swept) on reopen, everything after it byte-identical.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use ai_ckpt_storage::{
    corrupt_segment_region, write_epoch, Compression, FileBackend, MemoryBackend, PageLocator,
    ReplicatedBackend, SegmentRegion, StorageBackend,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-iocrash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
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

fn epoch_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("epoch_") || n.starts_with("full_"))
        .collect();
    names.sort();
    names
}

/// A writer that dies mid-epoch — segment bytes on disk, no manifest
/// record, possibly a torn gathered write at a shard tail — must be
/// invisible and swept at the next open.
#[test]
fn torn_vectored_write_without_commit_is_swept_on_reopen() {
    let dir = tmpdir("torn");
    {
        let b = FileBackend::open(&dir).unwrap();
        commit_epoch(&b, 1, 0..8);
        // Epoch 2 crashes mid-flight: pages written (vectored, possibly
        // multiple shards), then the process dies before `finish` — no
        // abort, no Drop, exactly like `kill -9`.
        let w = b.begin_epoch(2).unwrap();
        for p in 0..8u64 {
            let d = payload(p, 2, 0);
            w.write_pages(&[(p, &d)]).unwrap();
        }
        std::mem::forget(w);
    }
    // Worse: the last gathered write itself tore — append a partial frame
    // to the shard file an ill-timed pwritev would leave.
    let seg2 = dir.join("epoch_0000000002.seg");
    assert!(seg2.exists(), "the crashed epoch left segment bytes");
    OpenOptions::new()
        .append(true)
        .open(&seg2)
        .unwrap()
        .write_all(&[0xAB; 13])
        .unwrap();
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.epochs().unwrap(), vec![1], "uncommitted epoch invisible");
    assert!(!seg2.exists(), "orphan segment swept at open");
    assert_eq!(
        epoch_files(&dir),
        vec!["epoch_0000000001.seg".to_string()],
        "only the committed epoch's files survive"
    );
    let got = read_all(&b, 1);
    assert_eq!(got.len(), 8);
    for (p, d) in got {
        assert_eq!(d, payload(p, 1, 0), "page {p} of epoch 1 intact");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The group-commit ordering: shards are truncated and fsynced *before*
/// the manifest append. A crash exactly between the two leaves durable,
/// fully valid segment files whose epoch the manifest never heard of —
/// still invisible, still swept.
#[test]
fn crash_between_segment_fsync_and_manifest_append_is_invisible() {
    let dir = tmpdir("fsync-gap");
    {
        let b = FileBackend::open(&dir).unwrap();
        commit_epoch(&b, 1, 0..4);
        let w = b.begin_epoch(2).unwrap();
        for p in 0..4u64 {
            let d = payload(p, 2, 0);
            w.write_pages(&[(p, &d)]).unwrap();
        }
        std::mem::forget(w);
    }
    // Simulate "the segment fsync happened, the manifest append did not":
    // fsync the crashed epoch's segment file for real, touch nothing else.
    let seg2 = dir.join("epoch_0000000002.seg");
    fs::File::open(&seg2).unwrap().sync_all().unwrap();
    let manifest_before = fs::read(dir.join("MANIFEST")).unwrap();

    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.epochs().unwrap(), vec![1]);
    assert!(
        b.read_epoch(2, &mut |_, _| {}).is_err(),
        "the fsynced-but-unappended epoch does not read back"
    );
    assert!(!seg2.exists(), "swept despite being durable and valid");
    assert_eq!(
        fs::read(dir.join("MANIFEST")).unwrap(),
        manifest_before,
        "recovery rewrites no history"
    );
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

/// A committed segment whose trailer is cut anywhere — inside the magic,
/// the CRC, the count or the entries — locates nothing: every read door
/// fails with `InvalidData` (there is no fallback frame walk), the scrubber
/// calls it structural, and the epochs below stay byte-identical. Epoch 3
/// rewrites every page of epoch 2, so a restore of 3 reads nothing from the
/// cut segment — and still fails.
#[test]
fn every_cut_of_the_trailer_fails_every_read_loudly() {
    let dir = tmpdir("torn-trailer");
    {
        let b = FileBackend::open(&dir).unwrap();
        commit_epoch(&b, 1, 0..4);
        commit_epoch(&b, 2, 2..6);
        commit_epoch(&b, 3, 2..6);
    }
    let seg = dir.join("epoch_0000000002.seg");
    let whole = fs::read(&seg).unwrap();
    let trailer_len = 4 * 16 + 24;
    for cut in 1..=trailer_len {
        fs::write(&seg, &whole[..whole.len() - cut]).unwrap();
        let b = FileBackend::open(&dir).unwrap();
        let invalid = |e: std::io::Error| {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "cut {cut}: {e}")
        };
        invalid(b.read_epoch(2, &mut |_, _| {}).unwrap_err());
        invalid(b.epoch_page_ids(2).unwrap_err());
        invalid(b.read_page_at(2, 3).unwrap_err());
        invalid(PageLocator::build(&b, 2).unwrap_err());
        invalid(PageLocator::build(&b, 3).unwrap_err());
        let report = b.verify_epoch(2).unwrap();
        assert!(!report.structural.is_empty(), "cut {cut}: {report:?}");
        assert_eq!(read_all(&b, 1).len(), 4, "cut {cut}: epoch 1 untouched");
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
        !epoch_files(&dir).iter().any(|n| n.contains("0000000001")),
        "every epoch-1 shard removed, got {:?}",
        epoch_files(&dir)
    );
    // Compaction folds 2..=3 into one full segment and GCs all their
    // shards.
    b.compact(3).unwrap();
    let files = epoch_files(&dir);
    assert_eq!(
        files,
        vec!["full_0000000003.seg".to_string()],
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
