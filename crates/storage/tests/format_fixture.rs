//! On-disk compatibility against bytes another commit wrote.
//!
//! `fixtures/file_root/` (a `FileBackend` directory: two epochs, `MANIFEST`)
//! and `fixtures/GLOBAL` were written by commit 06db052 — the last one whose
//! CRC-64 was slicing-by-8 only — by running [`regenerate`] there. Every
//! test that builds its expectation with `crc64` itself passes for a
//! checksum that is wrong *consistently*; these files and the literal CRCs
//! below do not. A change to the checksum, the codec or either format keeps
//! this test green untouched or is a format break. The last two tests run
//! the other way: this checkout *writes* the fixture's content again and
//! must produce the checked-in files byte for byte, because which encoding
//! wins and every byte of an LZ block or RLE stream is the encoder's choice.
//!
//! The records cross every checksum path: 4 KiB and 4 KiB + 7 raw payloads
//! (whole 64-byte blocks, and blocks plus a tail), a 100-byte raw payload
//! and the 21/33-byte log records (below the folding threshold), and RLE
//! and LZ payloads, whose CRC covers the decoded bytes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ai_ckpt_storage::{
    corrupt_segment_region, crc64, log, write_epoch, CheckpointImage, Compression, FileBackend,
    SegmentRegion, StorageBackend,
};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn noise(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// The fixture's epochs: `(page, payload)` in write order.
fn epoch_pages(epoch: u64) -> Vec<(u64, Vec<u8>)> {
    let phrase = b"adaptive asynchronous incremental checkpointing; ";
    let mut mixed = noise(0xC0FFEE, 512);
    mixed.resize(4096, 0x11);
    match epoch {
        1 => vec![
            (0, noise(0x0123_4567_89AB_CDEF, 4096)),
            (1, vec![0x5A; 4096]),
            (2, phrase.iter().copied().cycle().take(8192).collect()),
            (7, noise(7, 100)),
        ],
        2 => vec![(0, noise(0xFEED_FACE, 4096 + 7)), (3, mixed)],
        _ => unreachable!("the fixture has two epochs"),
    }
}

/// CRC-64 of each fixture payload as the writing commit computed it.
const STORED_CRCS: [(u64, u64, u64); 6] = [
    (1, 0, 0x8321_28E5_259C_C702),
    (1, 1, 0xAAEB_6175_0E7A_A982),
    (1, 2, 0x0688_D20C_44CE_DFA9),
    (1, 7, 0x9B1B_0154_D57A_CB3B),
    (2, 0, 0x05BE_B878_7E55_85C1),
    (2, 3, 0x921A_8F7C_FE46_9E14),
];

/// The `AICKGLB1` schema as opaque payloads (`[kind u8][epoch u64][ranks
/// u32][aux u64]`; the coordinator crate owns the decoded form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GlobalWire([u8; 21]);

impl GlobalWire {
    fn new(kind: u8, epoch: u64, ranks: u32, aux: u64) -> Self {
        let mut b = [0u8; 21];
        b[0] = kind;
        b[1..9].copy_from_slice(&epoch.to_le_bytes());
        b[9..13].copy_from_slice(&ranks.to_le_bytes());
        b[13..21].copy_from_slice(&aux.to_le_bytes());
        Self(b)
    }
}

impl log::Record for GlobalWire {
    const MAGIC: &'static [u8; 8] = b"AICKGLB1";
    const PAYLOAD_LEN: usize = 21;
    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.0);
    }
    fn decode(payload: &[u8]) -> io::Result<Self> {
        Ok(Self(payload.try_into().expect("PAYLOAD_LEN bytes")))
    }
}

/// Two commits and an abort of a four-rank group.
fn global_records() -> [GlobalWire; 3] {
    [
        GlobalWire::new(0, 1, 4, 0),
        GlobalWire::new(0, 2, 4, 0),
        GlobalWire::new(1, 3, 4, 2),
    ]
}

/// A fresh path for this process's `tag` (nothing there yet).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aickpt-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The fixture's two epochs written by this checkout's writer into `root`.
fn write_fixture_epochs(root: &Path) {
    let b = FileBackend::open(root)
        .unwrap()
        .with_compression(Compression::Auto);
    for epoch in [1, 2] {
        write_epoch(&b, epoch, epoch_pages(epoch)).unwrap();
    }
}

/// A private, writable copy of the fixture (opening a root may sweep it,
/// and one test damages it).
fn scratch_copy(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    fs::create_dir_all(dir.join("file_root")).unwrap();
    for entry in fs::read_dir(fixtures().join("file_root")).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dir.join("file_root").join(entry.file_name())).unwrap();
    }
    fs::copy(fixtures().join("GLOBAL"), dir.join("GLOBAL")).unwrap();
    dir
}

#[test]
fn fixture_written_before_the_folding_kernel_opens_verifies_and_restores() {
    let dir = scratch_copy("read");
    let root = dir.join("file_root");
    let names_before = file_names(&root);
    let b = FileBackend::open(&root).unwrap();
    assert_eq!(file_names(&root), names_before, "open swept a fixture file");
    assert_eq!(b.epochs().unwrap(), vec![1, 2]);

    for epoch in [1, 2] {
        let pages = epoch_pages(epoch);
        let report = b.verify_epoch(epoch).unwrap();
        assert!(report.is_clean(), "epoch {epoch}: {report:?}");
        assert_eq!(report.records, pages.len() as u64);
        assert_eq!(
            report.bytes,
            pages.iter().map(|(_, d)| d.len() as u64).sum::<u64>()
        );
        for (page, data) in &pages {
            let meta = b.record_meta(epoch, *page).unwrap().expect("stored record");
            let literal = STORED_CRCS
                .iter()
                .find(|(e, p, _)| (*e, *p) == (epoch, *page))
                .expect("every fixture record has a literal")
                .2;
            assert_eq!(meta.crc, literal, "stored CRC of epoch {epoch} page {page}");
            assert_eq!(crc64(data), literal, "crc64 of epoch {epoch} page {page}");
            assert_eq!(
                b.read_page_at(epoch, *page).unwrap().as_deref(),
                Some(data.as_slice()),
                "epoch {epoch} page {page}"
            );
        }
    }

    // Latest-wins replay of the chain, byte for byte.
    let image = CheckpointImage::load(&b, 2).unwrap();
    let mut want = std::collections::BTreeMap::new();
    for epoch in [1, 2] {
        want.extend(epoch_pages(epoch));
    }
    assert_eq!(image.len(), want.len());
    for (page, data) in &want {
        assert_eq!(image.page(*page), Some(data.as_slice()), "page {page}");
    }

    assert_eq!(
        log::read::<GlobalWire>(&dir.join("GLOBAL")).unwrap(),
        global_records()
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_flipped_byte_of_the_fixture_still_fails_loudly() {
    let dir = scratch_copy("rot");
    let root = dir.join("file_root");
    // Epoch 1's first record is the 4 KiB raw page: the folding kernel's
    // input. One byte in the middle of a 64-byte block.
    corrupt_segment_region(&root, 1, SegmentRegion::Payload { byte: 2048 + 21 }).unwrap();
    let b = FileBackend::open(&root).unwrap();
    let report = b.verify_epoch(1).unwrap();
    assert_eq!(report.corrupt_pages, vec![0], "{report:?}");
    assert!(b.verify_epoch(2).unwrap().is_clean());
    let err = b.read_page_at(1, 0).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    let err = CheckpointImage::load(&b, 2).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

    // GLOBAL: rot in a record with a good one behind it is corruption.
    let global = dir.join("GLOBAL");
    let mut bytes = fs::read(&global).unwrap();
    bytes[8 + 5] ^= 0x04;
    fs::write(&global, bytes).unwrap();
    let err = log::read::<GlobalWire>(&global).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// The read tests above prove bytes a past commit wrote still open; this is
/// the other direction. The encoder's choices are part of the format — which
/// encoding wins, every token of an LZ block, every RLE pair — so a faster
/// encoder either emits the file commit 06db052 emitted or is a format
/// change (readable, but every committed `stored_ratio` and
/// `flushed_bytes_per_dirty_byte` moves, and so does which pages stay raw).
#[test]
fn writing_the_fixture_epochs_again_reproduces_its_segments_byte_for_byte() {
    let dir = scratch_dir("rewrite-seg");
    write_fixture_epochs(&dir);
    for name in ["epoch_0000000001.seg", "epoch_0000000002.seg"] {
        let written = fs::read(dir.join(name)).unwrap();
        let pinned = fs::read(fixtures().join("file_root").join(name)).unwrap();
        assert!(
            written == pinned,
            "{name}: {} bytes written, {} pinned, first difference at {:?}",
            written.len(),
            pinned.len(),
            written.iter().zip(&pinned).position(|(a, b)| a != b)
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The commit logs the same way — what the two commits and the three group
/// records append today is the `MANIFEST` and the `GLOBAL` 06db052 appended.
#[test]
fn writing_the_fixture_again_reproduces_its_commit_logs_byte_for_byte() {
    let dir = scratch_dir("rewrite-log");
    write_fixture_epochs(&dir);
    assert_eq!(
        fs::read(dir.join("MANIFEST")).unwrap(),
        fs::read(fixtures().join("file_root/MANIFEST")).unwrap(),
        "MANIFEST"
    );
    let global = dir.join("GLOBAL");
    log::append(&global, &global_records()).unwrap();
    assert_eq!(
        fs::read(&global).unwrap(),
        fs::read(fixtures().join("GLOBAL")).unwrap(),
        "GLOBAL"
    );
    fs::remove_dir_all(&dir).unwrap();
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Rewrites the fixture and prints the literals for `STORED_CRCS`. Run on
/// the commit whose bytes the fixture is to pin, never together with a
/// checksum or format change:
/// `cargo test -p ai-ckpt-storage --test format_fixture -- --ignored --nocapture`.
#[test]
#[ignore = "rewrites the checked-in fixture"]
fn regenerate() {
    let root = fixtures().join("file_root");
    let _ = fs::remove_dir_all(&root);
    write_fixture_epochs(&root);
    for epoch in [1, 2] {
        for (page, data) in epoch_pages(epoch) {
            println!("    ({epoch}, {page}, {:#018X}),", crc64(&data));
        }
    }
    let global = fixtures().join("GLOBAL");
    let _ = fs::remove_file(&global);
    log::append(&global, &global_records()).unwrap();
}
