//! Per-record payload encodings for `AICKSEG3` segments.
//!
//! The paper's premise is that checkpoint cost is dominated by moving page
//! payloads to storage; VELOC structures exactly this stage as pluggable
//! serialization/compression modules between capture and the storage tiers.
//! This module is that stage for the epoch pipeline: every page record
//! carries an encoding byte, chosen per record, and integrity (CRC-64) is
//! always computed over the *uncompressed* payload so restore verification
//! is independent of the encoding.
//!
//! Encodings:
//!
//! * [`Encoding::Raw`] — payload stored verbatim (always available, always
//!   the fallback when compression does not pay);
//! * [`Encoding::Rle`] — `(run length 1-255, byte)` pairs; optimal for the
//!   constant-fill pages numerical applications produce in bulk (zero
//!   pages, initialized-but-unwritten halos);
//! * [`Encoding::Lz`] — the vendored [`minilz`] LZ77-style block codec for
//!   structured-but-not-constant payloads.
//!
//! [`encode`] never grows a record: it picks the smallest candidate the
//! [`Compression`] mode allows and falls back to `Raw` otherwise, so the
//! worst case over incompressible data stores the payload bytes unchanged.
//! RLE wins a tie with LZ. The candidates are tried in an order that lets
//! each stop as soon as its result cannot be kept: RLE bounded at 1/64 of
//! the payload (a constant-ish page, stored without trying LZ), then LZ,
//! then RLE again bounded by LZ's length. LZ runs before that second RLE
//! pass because its length is the bound: on a page of some noise and one
//! long run, LZ wins at about half RLE's length, and the bounded scan gives
//! up half-way through the noise instead of building a stream it discards.
//!
//! What the encoders emit is part of the format: which candidate wins and
//! every byte of an RLE stream or LZ block decide the stored size, and a
//! past commit's files pin them. The RLE scan here and both `minilz`
//! directions run a word at a time, and each keeps its byte-at-a-time
//! predecessor in its test module as the reference it must equal — output
//! for output, and `Ok(bytes)` / `Err` for every flipped or truncated
//! stream. The candidate order has its reference too: `reference_encode`
//! is the try-everything `encode` it replaced, and must pick the same
//! encoding and bytes. `tests/format_fixture.rs` re-writes a checked-in
//! root and compares the files.
//!
//! [`decode`] is also where a record's declared length stops being
//! trusted: the frame field it comes from is covered by no checksum, so a
//! claim larger than any stream of the stored size can decode to is
//! `InvalidData` before a decoder reserves a byte for it.
//!
//! [`seal`] and [`Sealed::open`] are the one place a payload is sealed
//! (encode + CRC) and the one place it is opened (decode + CRC check):
//! the segment frame ([`crate::segment`]) and the in-memory backend both
//! store a [`Sealed`] next to the stored bytes and nothing else.

use std::io;

use crate::checksum::crc64;

/// Wire value of a record's payload encoding (one byte in the record frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Verbatim payload.
    Raw = 0,
    /// Byte-level run-length encoding.
    Rle = 1,
    /// LZ77-style block codec (vendored `minilz`).
    Lz = 2,
}

impl Encoding {
    /// Parse the wire byte.
    pub fn from_u8(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(Encoding::Raw),
            1 => Ok(Encoding::Rle),
            2 => Ok(Encoding::Lz),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown payload encoding {other}"),
            )),
        }
    }
}

/// Compression policy of a backend's write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Store every record raw.
    None,
    /// Per record, store the smallest of Raw / RLE / LZ.
    #[default]
    Auto,
}

/// Longest run a single RLE pair can carry (the count is one byte).
const MAX_RUN: usize = 255;

/// Most uncompressed bytes any encoding yields per stored byte: an RLE pair
/// carries [`MAX_RUN`] in two, an LZ length-extension byte 255 in one.
const MAX_EXPANSION: usize = 255;

/// RLE-encode `data` as `(count, byte)` pairs, or `None` when the stream
/// would be longer than `limit` bytes or not smaller than `data`: the scan
/// stops at the first pair that would cross that bound.
fn rle_compress(data: &[u8], limit: usize) -> Option<Vec<u8>> {
    let limit = limit.min(data.len().checked_sub(1)?);
    let mut out = Vec::with_capacity(limit);
    let mut i = 0;
    while i < data.len() {
        if out.len() + 2 > limit {
            return None; // cannot win any more
        }
        let b = data[i];
        let window = &data[i..data.len().min(i + MAX_RUN)];
        // A page that is not one long fill is mostly singletons: those are
        // settled by one byte compare, and only a repeated byte goes wide.
        let run = if window.get(1) == Some(&b) {
            2 + minilz::run_len(&window[2..], b)
        } else {
            1
        };
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    Some(out)
}

/// Decode an RLE payload into exactly `raw_len` bytes ([`decode`] has
/// bounded `raw_len` by the stream's length before it is reserved here).
fn rle_decompress(stored: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
    if !stored.len().is_multiple_of(2) {
        return Err(corrupt("odd RLE stream length"));
    }
    let mut out = Vec::with_capacity(raw_len);
    for pair in stored.chunks_exact(2) {
        let (run, b) = (pair[0] as usize, pair[1]);
        if run == 0 || out.len() + run > raw_len {
            return Err(corrupt("RLE run overflows declared length"));
        }
        out.resize(out.len() + run, b);
    }
    if out.len() != raw_len {
        return Err(corrupt("RLE decoded length mismatch"));
    }
    Ok(out)
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Encode one record payload under `mode`. Returns the encoding byte and,
/// for non-`Raw` choices, the owned compressed bytes (`None` payload means
/// "store `data` verbatim" — no copy on the raw path).
///
/// `Auto` tries the candidates in an order that lets each stop early:
/// 1. RLE bounded at `n/64` bytes: a stream that short is a constant-ish
///    page, stored without trying LZ;
/// 2. otherwise LZ;
/// 3. then RLE again, bounded by LZ's length, so the scan stops as soon as
///    it can no longer win; RLE wins a tie;
/// 4. otherwise LZ if it is shorter than `n`, else raw.
pub fn encode(data: &[u8], mode: Compression) -> (Encoding, Option<Vec<u8>>) {
    if mode == Compression::None {
        return (Encoding::Raw, None);
    }
    if let Some(rle) = rle_compress(data, data.len() / 64) {
        return (Encoding::Rle, Some(rle));
    }
    let lz = minilz::compress(data);
    if let Some(rle) = rle_compress(data, lz.len()) {
        return (Encoding::Rle, Some(rle));
    }
    if lz.len() < data.len() {
        return (Encoding::Lz, Some(lz));
    }
    (Encoding::Raw, None)
}

/// Decode a stored record payload back to its `raw_len` uncompressed bytes.
/// `Raw` borrows nothing — the caller uses the stored bytes directly — so
/// this returns `None` for `Raw` and the owned decoded bytes otherwise.
pub fn decode(enc: Encoding, stored: &[u8], raw_len: usize) -> io::Result<Option<Vec<u8>>> {
    // `raw_len` arrives from a record frame no checksum covers, and the
    // decoders size their output by it. A claim past what `stored` could
    // expand to is rot: refuse it here, before anything is reserved.
    if raw_len > stored.len().saturating_mul(MAX_EXPANSION) {
        return Err(corrupt("declared length exceeds what the record can hold"));
    }
    match enc {
        Encoding::Raw => {
            if stored.len() != raw_len {
                return Err(corrupt("raw record length mismatch"));
            }
            Ok(None)
        }
        Encoding::Rle => rle_decompress(stored, raw_len).map(Some),
        Encoding::Lz => minilz::decompress(stored, raw_len)
            .map(Some)
            .map_err(|e| corrupt(&e.to_string())),
    }
}

/// What a stored payload needs to be opened again: how it was encoded, how
/// long it is uncompressed, and the CRC-64 of those uncompressed bytes.
/// `enc` is the wire byte as stored — validated by [`Sealed::open`], not
/// before, so an at-rest flip of it condemns the record when it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sealed {
    /// Wire byte of the payload's [`Encoding`].
    pub enc: u8,
    /// Uncompressed payload length.
    pub raw_len: u32,
    /// CRC-64 over the uncompressed payload.
    pub crc: u64,
}

/// Seal one record payload under `mode`: [`encode`] it and checksum the
/// uncompressed bytes. The `None` payload means "store `data` verbatim".
pub fn seal(data: &[u8], mode: Compression) -> (Sealed, Option<Vec<u8>>) {
    let (enc, encoded) = encode(data, mode);
    let sealed = Sealed {
        enc: enc as u8,
        raw_len: u32::try_from(data.len()).expect("record payload under 4 GiB"),
        crc: crc64(data),
    };
    (sealed, encoded)
}

impl Sealed {
    /// Open `stored`: [`decode`] it and verify the CRC over the
    /// uncompressed bytes, so a record that decodes wrongly can never pass.
    /// `None` means `stored` *is* the verified payload (a raw record crosses
    /// without a copy). Every failure is `InvalidData`.
    pub fn open(&self, stored: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let enc = Encoding::from_u8(self.enc)?;
        let decoded = decode(enc, stored, self.raw_len as usize)?;
        if crc64(decoded.as_deref().unwrap_or(stored)) != self.crc {
            return Err(corrupt("CRC mismatch"));
        }
        Ok(decoded)
    }
}

/// Name the record a failed [`Sealed::open`] belongs to (for `map_err`).
pub(crate) fn in_record(epoch: u64, page: u64) -> impl FnOnce(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("page {page} in epoch {epoch}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8], mode: Compression) -> Encoding {
        let (enc, stored) = encode(data, mode);
        let stored = stored.as_deref().unwrap_or(data);
        let decoded = decode(enc, stored, data.len()).unwrap();
        assert_eq!(decoded.as_deref().unwrap_or(stored), data);
        enc
    }

    #[test]
    fn none_mode_is_always_raw() {
        assert_eq!(round_trip(&[7u8; 4096], Compression::None), Encoding::Raw);
        assert_eq!(round_trip(b"", Compression::None), Encoding::Raw);
    }

    #[test]
    fn constant_page_picks_rle() {
        let (enc, stored) = encode(&[0u8; 4096], Compression::Auto);
        assert_eq!(enc, Encoding::Rle);
        let stored = stored.unwrap();
        assert!(stored.len() <= 34, "constant page: {} bytes", stored.len());
        assert_eq!(
            decode(enc, &stored, 4096).unwrap().unwrap(),
            vec![0u8; 4096]
        );
    }

    #[test]
    fn structured_page_picks_lz() {
        let data: Vec<u8> = (0..1024u32).flat_map(|i| (i / 3).to_le_bytes()).collect();
        let (enc, stored) = encode(&data, Compression::Auto);
        assert_eq!(enc, Encoding::Lz);
        assert!(stored.as_ref().unwrap().len() < data.len());
        assert_eq!(
            decode(enc, &stored.unwrap(), data.len()).unwrap().unwrap(),
            data
        );
    }

    #[test]
    fn incompressible_falls_back_to_raw() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..512)
            .map(|_| {
                x = x.wrapping_mul(0xD129_0209_3482_1899).rotate_left(23);
                x as u8
            })
            .collect();
        let (enc, stored) = encode(&data, Compression::Auto);
        assert_eq!(enc, Encoding::Raw);
        assert!(stored.is_none(), "raw never copies");
    }

    #[test]
    fn empty_payload() {
        let (enc, stored) = encode(&[], Compression::Auto);
        assert_eq!(enc, Encoding::Raw);
        assert!(decode(enc, stored.as_deref().unwrap_or(&[]), 0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn corrupt_streams_are_errors() {
        assert!(decode(Encoding::Rle, &[1], 1).is_err(), "odd stream");
        assert!(decode(Encoding::Rle, &[0, 7], 1).is_err(), "zero run");
        assert!(decode(Encoding::Rle, &[5, 7], 3).is_err(), "overflow");
        assert!(decode(Encoding::Raw, &[1, 2], 3).is_err(), "length");
        assert!(decode(Encoding::Lz, &[0xFF, 0x01], 64).is_err(), "lz");
        assert!(Encoding::from_u8(9).is_err());
    }

    /// SplitMix64-driven payload generator covering the shapes checkpoint
    /// pages actually take: constant fills, long runs, structured records,
    /// random noise, and tiny/empty payloads.
    fn arbitrary_payload(rng: &mut ai_ckpt_core::rng::SplitMix64) -> Vec<u8> {
        let len = match rng.next_below(4) {
            0 => rng.next_below(16) as usize,
            1 => 64 + rng.next_below(512) as usize,
            _ => 1024 + rng.next_below(4096) as usize,
        };
        match rng.next_below(4) {
            0 => vec![rng.next_u64() as u8; len],
            1 => {
                // Runs of random bytes and random lengths.
                let mut v = Vec::with_capacity(len);
                while v.len() < len {
                    let run = 1 + rng.next_below(300) as usize;
                    let b = rng.next_u64() as u8;
                    v.extend(std::iter::repeat_n(b, run.min(len - v.len())));
                }
                v
            }
            2 => {
                // Structured: repeating small records with slow counters.
                (0..len)
                    .map(|i| ((i / 9) as u8).wrapping_add((i % 9) as u8 * 31))
                    .collect()
            }
            _ => (0..len).map(|_| rng.next_u64() as u8).collect(),
        }
    }

    #[test]
    fn property_every_encoding_round_trips_arbitrary_payloads() {
        let mut rng = ai_ckpt_core::rng::SplitMix64::new(0x0DEC_0DEC);
        for _ in 0..256 {
            let data = arbitrary_payload(&mut rng);
            // Raw: trivially exact.
            assert!(decode(Encoding::Raw, &data, data.len()).unwrap().is_none());
            // RLE: whenever the encoder produces a stream, it must invert.
            if let Some(rle) = rle_compress(&data, usize::MAX) {
                assert!(rle.len() < data.len());
                assert_eq!(rle_decompress(&rle, data.len()).unwrap(), data);
                assert_eq!(
                    decode(Encoding::Rle, &rle, data.len()).unwrap().unwrap(),
                    data
                );
            }
            // LZ: always invertible, never trusted to shrink.
            let lz = minilz::compress(&data);
            assert_eq!(
                decode(Encoding::Lz, &lz, data.len()).unwrap().unwrap(),
                data
            );
            // Auto: picks one of the three and stays exact + never larger.
            let (enc, stored) = encode(&data, Compression::Auto);
            let stored = stored.as_deref().unwrap_or(&data);
            assert!(stored.len() <= data.len(), "auto never grows a record");
            let decoded = decode(enc, stored, data.len()).unwrap();
            assert_eq!(decoded.as_deref().unwrap_or(stored), &data[..]);
        }
    }

    #[test]
    fn property_decode_never_panics_on_corrupt_streams() {
        let mut rng = ai_ckpt_core::rng::SplitMix64::new(0xBAD_C0DE);
        for _ in 0..256 {
            let data = arbitrary_payload(&mut rng);
            let (enc, stored) = encode(&data, Compression::Auto);
            let mut stored = stored.unwrap_or_else(|| data.clone());
            if stored.is_empty() {
                continue;
            }
            // Flip one random byte; decoding must error or produce bytes of
            // the declared length — never panic or over-allocate.
            let at = rng.next_below(stored.len() as u64) as usize;
            stored[at] ^= 1 << rng.next_below(8);
            if let Ok(Some(out)) = decode(enc, &stored, data.len()) {
                assert_eq!(out.len(), data.len());
            }
        }
    }

    /// `rle_compress` as it was before the word-wide scan, verbatim: the
    /// definition of the bytes an RLE record must consist of.
    fn reference_rle_compress(data: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(data.len() / 2);
        let mut i = 0;
        while i < data.len() {
            if out.len() + 2 >= data.len() {
                return None; // cannot win any more
            }
            let b = data[i];
            let mut run = 1usize;
            while run < 255 && i + run < data.len() && data[i + run] == b {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        (out.len() < data.len()).then_some(out)
    }

    /// `encode` as it was before the candidates stopped early, verbatim
    /// but for its RLE call (the unbounded scan, now the reference's): the
    /// definition of which encoding a record is stored under.
    fn reference_encode(data: &[u8], mode: Compression) -> (Encoding, Option<Vec<u8>>) {
        if mode == Compression::None {
            return (Encoding::Raw, None);
        }
        let mut best: (Encoding, Option<Vec<u8>>) = (Encoding::Raw, None);
        let mut best_len = data.len();
        if let Some(rle) = reference_rle_compress(data) {
            if rle.len() < best_len {
                best_len = rle.len();
                best = (Encoding::Rle, Some(rle));
            }
        }
        // RLE already at < 1/64 of raw means a constant-ish page; LZ cannot
        // meaningfully beat it and is the expensive candidate — skip it.
        if best_len * 64 > data.len() {
            let lz = minilz::compress(data);
            if lz.len() < best_len {
                best = (Encoding::Lz, Some(lz));
            }
        }
        best
    }

    /// `rle_decompress` as it was when `raw_len` was trusted, verbatim.
    fn reference_rle_decompress(stored: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
        if !stored.len().is_multiple_of(2) {
            return Err(corrupt("odd RLE stream length"));
        }
        let mut out = Vec::with_capacity(raw_len);
        for pair in stored.chunks_exact(2) {
            let (run, b) = (pair[0] as usize, pair[1]);
            if run == 0 || out.len() + run > raw_len {
                return Err(corrupt("RLE run overflows declared length"));
            }
            out.resize(out.len() + run, b);
        }
        if out.len() != raw_len {
            return Err(corrupt("RLE decoded length mismatch"));
        }
        Ok(out)
    }

    /// The differential inputs: [`arbitrary_payload`]'s shapes and lengths,
    /// the benchmark's page (1/8 noise, then 7/8 one run), runs around the
    /// 255-byte pair limit, and 70 000-byte runs.
    fn differential_payloads(
        rng: &mut ai_ckpt_core::rng::SplitMix64,
        arbitrary: usize,
    ) -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..arbitrary).map(|_| arbitrary_payload(rng)).collect();
        let mut mixed: Vec<u8> = (0..512).map(|_| rng.next_u64() as u8).collect();
        mixed.resize(4096, 0x11);
        inputs.push(mixed);
        for run in [1usize, 2, 3, 8, 9, 10, 254, 255, 256, 257, 510, 511, 70_000] {
            let mut v = vec![1u8; run];
            v.extend(std::iter::repeat_n(2u8, run));
            v.push(3);
            inputs.push(v);
        }
        inputs
    }

    #[test]
    fn rle_compress_emits_the_reference_bytes() {
        let mut rng = ai_ckpt_core::rng::SplitMix64::new(0x1DE1_71CA);
        for data in differential_payloads(&mut rng, 4000) {
            assert_eq!(
                rle_compress(&data, usize::MAX),
                reference_rle_compress(&data),
                "{} bytes",
                data.len()
            );
        }
    }

    /// `n` bytes in `pairs` runs of near-equal length, each a byte other
    /// than its neighbours': an RLE stream of exactly `pairs` pairs, which
    /// LZ (a literal and a match per run) cannot beat.
    fn runs_page(n: usize, pairs: usize) -> Vec<u8> {
        (0..pairs)
            .flat_map(|i| std::iter::repeat_n(i as u8, n / pairs + usize::from(i < n % pairs)))
            .collect()
    }

    /// `blocks` copies of a 1 KiB block of four single bytes and four
    /// 255-byte runs (an RLE stream of exactly 1/64 of its length, which LZ
    /// beats by matching the period), then `tail` single bytes.
    fn periodic_runs_page(blocks: usize, tail: usize) -> Vec<u8> {
        let mut block = vec![1u8, 2, 3, 4];
        for b in 5..9u8 {
            block.extend([b; 255]);
        }
        let mut page = block.repeat(blocks);
        page.extend((0..tail).map(|i| 9 + i as u8));
        page
    }

    #[test]
    fn encode_picks_the_reference_candidate() {
        #[track_caller]
        fn assert_same(data: &[u8]) {
            for mode in [Compression::Auto, Compression::None] {
                assert_eq!(
                    encode(data, mode),
                    reference_encode(data, mode),
                    "{} bytes, {mode:?}",
                    data.len()
                );
            }
        }
        let mut rng = ai_ckpt_core::rng::SplitMix64::new(0xE4C0_DE00);
        for data in differential_payloads(&mut rng, 4000) {
            assert_same(&data);
        }
        // The benchmark's page: 1/8 noise, then 7/8 one run.
        for n in [4096usize, 4095, 8192] {
            for _ in 0..32 {
                let mut page: Vec<u8> = (0..n / 8).map(|_| rng.next_u64() as u8).collect();
                page.resize(n, rng.next_u64() as u8);
                assert_same(&page);
            }
        }
        // Both sides of the rule that skips LZ: an RLE stream of exactly
        // `n/64` bytes (or the even length just under it), and one pair more.
        for n in [
            64usize, 127, 128, 1000, 4095, 4096, 4097, 4160, 6400, 8192, 9216,
        ] {
            let at_bound = n / 64 / 2;
            for pairs in [at_bound.saturating_sub(1), at_bound, at_bound + 1] {
                if pairs > 0 && pairs * 255 >= n {
                    assert_same(&runs_page(n, pairs));
                }
            }
        }
        // The same where LZ is the shorter candidate: at the bound RLE is
        // stored anyway, one pair past it LZ is.
        for blocks in [4, 8] {
            for (tail, want) in [(0, Encoding::Rle), (1, Encoding::Lz)] {
                let page = periodic_runs_page(blocks, tail);
                let rle = reference_rle_compress(&page).expect("runs shrink").len();
                assert_eq!(rle * 64 <= page.len(), tail == 0);
                assert!(minilz::compress(&page).len() < rle);
                assert_eq!(encode(&page, Compression::Auto).0, want);
                assert_same(&page);
            }
        }
        // RLE and LZ of equal length: RLE is stored.
        let mut ties = 0;
        for _ in 0..20_000 {
            let pairs = 1 + rng.next_below(6) as usize;
            let data: Vec<u8> = (0..pairs)
                .flat_map(|_| {
                    let b = rng.next_below(3) as u8;
                    std::iter::repeat_n(b, 1 + rng.next_below(12) as usize)
                })
                .collect();
            let rle = reference_rle_compress(&data).map(|r| r.len());
            ties += usize::from(rle == Some(minilz::compress(&data).len()));
            assert_same(&data);
        }
        assert!(ties > 0, "no tie between RLE and LZ generated");
        // Lengths 0-2.
        assert_same(&[]);
        for a in 0..=255u8 {
            assert_same(&[a]);
            assert_same(&[a, a]);
            assert_same(&[a, a ^ 0x81]);
        }
    }

    #[test]
    fn rle_decode_agrees_with_the_reference_on_every_flip_and_truncation() {
        // Through `decode`, the door records come in by: its bound on
        // `raw_len` must not change one outcome.
        #[track_caller]
        fn assert_agree(stored: &[u8], raw_len: usize) {
            let got = decode(Encoding::Rle, stored, raw_len).map(|d| d.expect("RLE owns"));
            let want = reference_rle_decompress(stored, raw_len);
            assert_eq!(got.ok(), want.ok());
        }
        let mut rng = ai_ckpt_core::rng::SplitMix64::new(0xDEC0_DE5A);
        for data in differential_payloads(&mut rng, 48) {
            let Some(stored) = rle_compress(&data, usize::MAX) else {
                continue;
            };
            assert_eq!(rle_decompress(&stored, data.len()).unwrap(), data);
            for raw_len in [0, data.len().saturating_sub(1), data.len() + 1] {
                assert_agree(&stored, raw_len);
            }
            for cut in 0..stored.len() {
                assert_agree(&stored[..cut], data.len());
            }
            let mut bad = stored.clone();
            for i in 0..bad.len() {
                let mask = 1 + rng.next_below(255) as u8;
                bad[i] ^= mask;
                assert_agree(&bad, data.len());
                bad[i] ^= mask;
            }
        }
    }

    #[test]
    fn declared_length_is_never_a_reservation() {
        // `raw_len` is a frame field nothing checksums. A claim no stream of
        // this size can decode to is `InvalidData` before any decoder sizes
        // a buffer by it (the parent reserved 4 GiB, or overflowed capacity).
        let data = vec![7u8; 4096];
        let lz = minilz::compress(&data);
        let rle = rle_compress(&data, usize::MAX).unwrap();
        for claim in [u32::MAX as usize, usize::MAX] {
            for (enc, stored) in [
                (Encoding::Rle, &rle[..]),
                (Encoding::Lz, &lz[..]),
                (Encoding::Raw, &data[..]),
            ] {
                let err = decode(enc, stored, claim).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{enc:?}: {err}");
            }
        }
        // The bound is tight where it matters: the densest honest streams
        // (255 bytes per pair; a lone fill) still decode.
        let dense = vec![9u8; 255 * 40];
        let stored = rle_compress(&dense, usize::MAX).unwrap();
        assert_eq!(stored.len(), 80);
        assert_eq!(
            decode(Encoding::Rle, &stored, dense.len()).unwrap(),
            Some(dense)
        );
        let fill = vec![3u8; 70_000];
        let stored = minilz::compress(&fill);
        assert_eq!(
            decode(Encoding::Lz, &stored, fill.len()).unwrap(),
            Some(fill)
        );
    }

    #[test]
    fn rle_mixed_runs() {
        let mut data = Vec::new();
        for (run, b) in [(300usize, 1u8), (1, 2), (2, 3), (255, 4), (256, 5)] {
            data.extend(std::iter::repeat_n(b, run));
        }
        let out = rle_compress(&data, usize::MAX).unwrap();
        assert_eq!(rle_decompress(&out, data.len()).unwrap(), data);
    }
}
