//! Properties of the one commit log (`ai_ckpt_storage::log`), run once per
//! payload size in use — 33 bytes (the `AICKMAN3` manifest) and 21 bytes
//! (the `AICKGLB1` global manifest) — over opaque payloads, because the log
//! must not care what a record says:
//!
//! * **cut** — truncating the file at *every* byte offset at or past the
//!   magic reads as the complete-record prefix, and the next append lands
//!   record-aligned right after it; a cut inside the magic is a foreign
//!   file;
//! * **tear** — garbage of every length after the last record is ignored
//!   and then excised;
//! * **flip** — flipping *any* byte reads as exactly one of: the prefix in
//!   front of the last record (the flip hit the tail — the documented
//!   residual), or `InvalidData` (it hit the magic or an earlier record).
//!   Never a silently shorter log, never a record that was not written.

use std::fmt::Debug;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_storage::log::{self, Record};

/// `N` opaque payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Raw<const N: usize>([u8; N]);

macro_rules! raw_schema {
    ($n:literal, $magic:literal) => {
        impl Record for Raw<$n> {
            const MAGIC: &'static [u8; 8] = $magic;
            const PAYLOAD_LEN: usize = $n;
            fn encode(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.0);
            }
            fn decode(payload: &[u8]) -> io::Result<Self> {
                Ok(Raw(payload.try_into().unwrap()))
            }
        }
    };
}
raw_schema!(33, b"AICKMAN3");
raw_schema!(21, b"AICKGLB1");

fn random<const N: usize>(rng: &mut SplitMix64) -> Raw<N> {
    // A third of the records are all-zero: the payload whose plain CRC is 0.
    let zero = rng.next_below(3) == 0;
    Raw(std::array::from_fn(|_| {
        if zero {
            0
        } else {
            rng.next_u64() as u8
        }
    }))
}

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-logprop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir.join("LOG")
}

fn assert_invalid<T: Debug>(result: io::Result<T>, ctx: &str) -> String {
    let err = result.expect_err(ctx);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{ctx}: {err}");
    err.to_string()
}

fn cut_at_every_offset<const N: usize>(seed: u64)
where
    Raw<N>: Record,
{
    let wire = N + 8;
    let path = tmpfile(&format!("cut-{N}"));
    let mut rng = SplitMix64::new(seed);
    let written: Vec<Raw<N>> = (0..5).map(|_| random(&mut rng)).collect();
    // Two batches: a batch boundary must be invisible on disk.
    log::append(&path, &written[..2]).unwrap();
    log::append(&path, &written[2..]).unwrap();
    let full = fs::read(&path).unwrap();
    assert_eq!(full.len(), 8 + written.len() * wire);
    let probe = random(&mut rng);
    for cut in 0..=full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        if cut < 8 {
            // Creation is by rename: no crash leaves a short magic behind.
            assert_invalid(log::read::<Raw<N>>(&path), "short magic read");
            assert_invalid(log::append(&path, &[probe]), "short magic append");
            continue;
        }
        let complete = (cut - 8) / wire;
        let mut expect = written[..complete].to_vec();
        assert_eq!(log::read::<Raw<N>>(&path).unwrap(), expect, "cut {cut}");
        assert!(!log::append(&path, &[probe]).unwrap(), "cut {cut}: extends");
        expect.push(probe);
        assert_eq!(log::read::<Raw<N>>(&path).unwrap(), expect, "cut {cut}");
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            8 + expect.len() * wire,
            "cut {cut}: tear excised, log aligned"
        );
    }
}

fn garbage_of_every_length_is_a_tear<const N: usize>(seed: u64)
where
    Raw<N>: Record,
{
    let wire = N + 8;
    let mut rng = SplitMix64::new(seed);
    let (first, next) = (random::<N>(&mut rng), random::<N>(&mut rng));
    for tear in 1..=2 * wire + 1 {
        for fill in [0x00u8, 0xEE] {
            let path = tmpfile(&format!("tear-{N}"));
            log::append(&path, &[first]).unwrap();
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&vec![fill; tear]).unwrap();
            drop(f);
            assert_eq!(log::read::<Raw<N>>(&path).unwrap(), vec![first]);
            log::append(&path, &[next]).unwrap();
            assert_eq!(log::read::<Raw<N>>(&path).unwrap(), vec![first, next]);
            assert_eq!(
                fs::metadata(&path).unwrap().len() as usize,
                8 + 2 * wire,
                "{tear} bytes of {fill:#04x} excised"
            );
        }
    }
}

fn flip_every_byte<const N: usize>(seed: u64)
where
    Raw<N>: Record,
{
    let wire = N + 8;
    let path = tmpfile(&format!("flip-{N}"));
    let mut rng = SplitMix64::new(seed);
    let written: Vec<Raw<N>> = (0..4).map(|_| random(&mut rng)).collect();
    log::append(&path, &written).unwrap();
    let pristine = fs::read(&path).unwrap();
    let last = written.len() - 1;
    for i in 0..pristine.len() {
        for mask in [0x01u8, 0x40, 0xFF] {
            let mut bytes = pristine.clone();
            bytes[i] ^= mask;
            fs::write(&path, &bytes).unwrap();
            let ctx = format!("byte {i} ^ {mask:#04x}");
            let got = log::read::<Raw<N>>(&path);
            if i < 8 {
                assert_invalid(got, &ctx);
                continue;
            }
            let record = (i - 8) / wire;
            if record == last {
                // Indistinguishable from a torn append of that record.
                assert_eq!(got.unwrap(), written[..last], "{ctx}: tail ⇒ prefix");
            } else {
                let msg = assert_invalid(got, &ctx);
                assert!(msg.contains(&format!("record {record} ")), "{ctx}: {msg}");
            }
        }
    }
}

#[test]
fn manifest_sized_log_survives_a_cut_at_every_byte_offset() {
    cut_at_every_offset::<33>(0x7C07_7A11);
}

#[test]
fn global_sized_log_survives_a_cut_at_every_byte_offset() {
    cut_at_every_offset::<21>(0x7C07_7A12);
}

#[test]
fn manifest_sized_log_treats_garbage_of_every_length_as_a_tear() {
    garbage_of_every_length_is_a_tear::<33>(0xEE_33);
}

#[test]
fn global_sized_log_treats_garbage_of_every_length_as_a_tear() {
    garbage_of_every_length_is_a_tear::<21>(0xEE_21);
}

#[test]
fn manifest_sized_log_flip_is_tail_prefix_or_loud_error() {
    flip_every_byte::<33>(0xF11F_0033);
}

#[test]
fn global_sized_log_flip_is_tail_prefix_or_loud_error() {
    flip_every_byte::<21>(0xF11F_0021);
}
