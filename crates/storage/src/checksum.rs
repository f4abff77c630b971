//! CRC-64 (ECMA-182 polynomial) for page-record integrity.
//!
//! Checkpoint data that restarts depend on must be verifiable: a silently
//! corrupted page defeats the whole purpose of checkpoint/restart. Every
//! page record in a segment carries a CRC-64 of its payload, checked on
//! restore.
//!
//! The CRC sits on every hot path — each byte is checksummed when it is
//! sealed on flush, again by the per-epoch scrub, again on a tier drain
//! (open + re-seal), as the content-filter digest, and on every restored
//! page — so its speed bounds the whole pipeline. The code is MSB-first,
//! not reflected, init 0, no final XOR: `crc(M) = M(x)·x⁶⁴ mod P`, and a
//! register carried into [`crc64_update`] is the same as XORing it into the
//! first eight message bytes. Three implementations, one value:
//!
//! * **carry-less-multiply folding** (`clmul`, `x86_64` with `pclmulqdq` +
//!   `ssse3`, detected at run time, inputs ≥ 128 bytes): four 128-bit
//!   accumulators folded 64 bytes per iteration, ≈ 4–5× the table walk on a
//!   4 KiB page;
//! * **slicing-by-8**, the portable path — other architectures, CPUs
//!   without the features, short inputs such as commit-log records, and
//!   the kernel's 16 folded bytes plus the `< 64`-byte tail: eight derived
//!   tables let one iteration fold a full 64-bit word with eight
//!   independent lookups the CPU can overlap;
//! * the **bytewise** table walk, kept in the tests as the reference the
//!   other two must match bit for bit.
//!
//! [`crc64_update`] is the one dispatch point; there is no option. Tables
//! and folding constants are derived from `POLY` at first use.
//!
//! Nothing here is reachable from the SIGSEGV handler: `ai-ckpt-mem` has
//! no storage dependency and the runtime's `fault_entry` touches atomics,
//! the engine spin lock, `memcpy` and `mprotect` only — digests and seals
//! are computed by flush workers and restore fillers. The `OnceLock`
//! initialisation and the feature detection therefore need not be
//! async-signal-safe.

use std::sync::OnceLock;

const POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// `tables()[0]` is the classic bytewise table; `tables()[k]` is that
/// table advanced `k` further zero-byte steps, so processing a word is
/// the XOR of one lookup per byte.
fn tables() -> &'static [[u64; 256]; 8] {
    static TABLES: OnceLock<Box<[[u64; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u64; 256]; 8]);
        for i in 0..256usize {
            let mut crc = (i as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ POLY
                } else {
                    crc << 1
                };
            }
            t[0][i] = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            }
        }
        t
    })
}

/// CRC-64/ECMA of `data`.
pub fn crc64(data: &[u8]) -> u64 {
    crc64_update(0, data)
}

/// Continue a CRC-64 computation (for chunked hashing).
pub fn crc64_update(crc: u64, data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN {
        if let Some(kernel) = clmul::Kernel::get() {
            // The kernel leaves a 16-byte message with the same CRC as
            // `crc` followed by the whole 64-byte blocks; the portable
            // routine reduces it and whatever did not fill a block.
            let (blocks, tail) = data.split_at(data.len() & !63);
            let folded = kernel.fold(crc, blocks);
            return crc64_sliced(crc64_sliced(0, &folded), tail);
        }
    }
    crc64_sliced(crc, data)
}

/// Slicing-by-8: the portable path.
fn crc64_sliced(mut crc: u64, data: &[u8]) -> u64 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // The register is exactly one word wide: fold it into the next
        // eight message bytes, then advance each byte the remaining
        // distance through its own table.
        let x = crc ^ u64::from_be_bytes(chunk.try_into().unwrap());
        crc = t[7][(x >> 56) as usize]
            ^ t[6][(x >> 48) as usize & 0xFF]
            ^ t[5][(x >> 40) as usize & 0xFF]
            ^ t[4][(x >> 32) as usize & 0xFF]
            ^ t[3][(x >> 24) as usize & 0xFF]
            ^ t[2][(x >> 16) as usize & 0xFF]
            ^ t[1][(x >> 8) as usize & 0xFF]
            ^ t[0][x as usize & 0xFF];
    }
    for &b in chunks.remainder() {
        let idx = ((crc >> 56) as u8 ^ b) as usize;
        crc = (crc << 8) ^ t[0][idx];
    }
    crc
}

/// PCLMULQDQ folding. A 128-bit accumulator `hi·x⁶⁴ + lo` moved `d` bits up
/// the message is congruent (mod `P`) to `hi·(x^(d+64) mod P) +
/// lo·(x^d mod P)` — two 64×64 carry-less multiplies whose 127-bit
/// products XOR into the 16 message bytes that sit there. All `unsafe` and
/// every intrinsic of this file live in this module.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_set_epi64x,
        _mm_set_epi8, _mm_shuffle_epi8, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::OnceLock;

    use super::POLY;

    /// Below this the set-up and the 16-byte reduction cost more than the
    /// table walk they replace.
    pub(super) const MIN_LEN: usize = 128;

    /// `x^n mod P`, by shift-and-reduce from `x⁰`.
    pub(super) fn x_pow_mod_p(n: u32) -> u64 {
        (0..n).fold(1u64, |r, _| (r << 1) ^ if r >> 63 != 0 { POLY } else { 0 })
    }

    /// The folding constants. A value of this type exists only on a CPU
    /// where `pclmulqdq` and `ssse3` were detected, which is what lets
    /// [`Kernel::fold`] be a safe function.
    pub(super) struct Kernel {
        /// `[x⁵⁷⁶, x⁵¹²] mod P`: one accumulator 64 bytes up the message.
        pub(super) by_64_bytes: [u64; 2],
        /// `[x¹⁹², x¹²⁸] mod P`: one accumulator onto its 16-byte neighbour.
        pub(super) by_16_bytes: [u64; 2],
        _detected: (),
    }

    impl Kernel {
        pub(super) fn get() -> Option<&'static Kernel> {
            static KERNEL: OnceLock<Option<Kernel>> = OnceLock::new();
            KERNEL
                .get_or_init(|| {
                    let detected = std::arch::is_x86_feature_detected!("pclmulqdq")
                        && std::arch::is_x86_feature_detected!("ssse3");
                    detected.then(|| Kernel {
                        by_64_bytes: [x_pow_mod_p(576), x_pow_mod_p(512)],
                        by_16_bytes: [x_pow_mod_p(192), x_pow_mod_p(128)],
                        _detected: (),
                    })
                })
                .as_ref()
        }

        /// Folds `blocks` (a non-zero multiple of 64 bytes) behind the
        /// register `crc` into 16 bytes `r` with
        /// `crc64_update(0, r) == crc64_update(crc, blocks)`.
        pub(super) fn fold(&self, crc: u64, blocks: &[u8]) -> [u8; 16] {
            assert!(!blocks.is_empty() && blocks.len().is_multiple_of(64));
            // SAFETY: `self` exists, so `get` detected both features.
            unsafe { fold_blocks(self, crc, blocks) }
        }
    }

    /// 16 message bytes as a polynomial: byte 0 in bits 127‥120.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn load_be(bytes: &[u8]) -> __m128i {
        assert!(bytes.len() >= 16);
        let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        // SAFETY: the 16 bytes read are inside `bytes` (asserted above);
        // `loadu` has no alignment requirement.
        let le = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        _mm_shuffle_epi8(le, reverse)
    }

    /// `acc` moved up by the distance of `k = [x^(d+64), x^d] mod P`, onto
    /// `data`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn fold_onto(acc: __m128i, k: __m128i, data: __m128i) -> __m128i {
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), data)
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn fold_blocks(kernel: &Kernel, crc: u64, blocks: &[u8]) -> [u8; 16] {
        let [k_hi, k_lo] = kernel.by_64_bytes;
        let by_64 = _mm_set_epi64x(k_hi as i64, k_lo as i64);
        let [k_hi, k_lo] = kernel.by_16_bytes;
        let by_16 = _mm_set_epi64x(k_hi as i64, k_lo as i64);

        let mut blocks = blocks.chunks_exact(64);
        let first = blocks.next().expect("at least one block");
        // The incoming register is XORed into the first eight bytes.
        let mut a0 = _mm_xor_si128(load_be(first), _mm_set_epi64x(crc as i64, 0));
        let mut a1 = load_be(&first[16..]);
        let mut a2 = load_be(&first[32..]);
        let mut a3 = load_be(&first[48..]);
        for block in blocks {
            a0 = fold_onto(a0, by_64, load_be(block));
            a1 = fold_onto(a1, by_64, load_be(&block[16..]));
            a2 = fold_onto(a2, by_64, load_be(&block[32..]));
            a3 = fold_onto(a3, by_64, load_be(&block[48..]));
        }
        let acc = fold_onto(fold_onto(fold_onto(a0, by_16, a1), by_16, a2), by_16, a3);

        let hi = _mm_cvtsi128_si64(_mm_srli_si128::<8>(acc)) as u64;
        let lo = _mm_cvtsi128_si64(acc) as u64;
        (((hi as u128) << 64) | lo as u128).to_be_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-slicing implementation, kept as the reference the other
    /// paths must agree with bit-for-bit.
    fn crc64_bytewise(mut crc: u64, data: &[u8]) -> u64 {
        let t = tables();
        for &b in data {
            let idx = ((crc >> 56) as u8 ^ b) as usize;
            crc = (crc << 8) ^ t[0][idx];
        }
        crc
    }

    fn xorshift_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn known_vector() {
        // CRC-64/ECMA-182 of "123456789".
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_phase() {
        // xorshift data, lengths crossing every chunk boundary, updates
        // starting from a non-zero register.
        let data = xorshift_bytes(4096 + 7);
        for len in (0..64).chain([255, 256, 257, 4095, 4096, 4097, 4103]) {
            let d = &data[..len];
            assert_eq!(crc64(d), crc64_bytewise(0, d), "len {len}");
            assert_eq!(
                crc64_update(0xDEAD_BEEF, d),
                crc64_bytewise(0xDEAD_BEEF, d),
                "len {len} from a mid-stream register"
            );
            assert_eq!(crc64_sliced(0xDEAD_BEEF, d), crc64_bytewise(0xDEAD_BEEF, d));
        }
    }

    /// Every seam of the dispatch: the 128-byte threshold, each 64-byte
    /// block boundary and tail length around it, page-sized and multi-page
    /// inputs, at every load alignment, with and without a carried register.
    #[test]
    fn dispatch_matches_bytewise_at_every_length_offset_and_register() {
        let data = xorshift_bytes(15 + 65_536 + 64);
        let lens = (0..=1100)
            .chain([4095, 4096, 4097])
            .chain(65_536..65_536 + 64);
        for len in lens {
            for offset in 0..16 {
                let d = &data[offset..offset + len];
                for register in [0, 0xDEAD_BEEF_0BAD_F00D] {
                    assert_eq!(
                        crc64_update(register, d),
                        crc64_bytewise(register, d),
                        "len {len} at offset {offset} from {register:#x}"
                    );
                }
            }
        }
    }

    /// kernel → portable tail → kernel again: a register that leaves one
    /// path enters the other at every position of a page-and-a-bit buffer.
    #[test]
    fn every_two_and_three_way_split_equals_the_whole() {
        let data = xorshift_bytes(4096 + 7);
        let n = data.len();
        let whole = crc64_bytewise(0, &data);
        // prefix[i] = CRC of data[..i], checked against the reference.
        let mut reference = 0;
        let prefix: Vec<u64> = (0..=n)
            .map(|i| {
                if i > 0 {
                    reference = crc64_bytewise(reference, &data[i - 1..i]);
                }
                assert_eq!(crc64(&data[..i]), reference, "prefix {i}");
                reference
            })
            .collect();
        for j in 0..=n {
            // Two-way: [..j] then [j..].
            assert_eq!(crc64_update(prefix[j], &data[j..]), whole, "split at {j}");
            // Three-way: [..i], [i..j], [j..] — the last leg is the line
            // above, so the middle leg arriving at prefix[j] closes it.
            for i in 0..j {
                assert_eq!(
                    crc64_update(prefix[i], &data[i..j]),
                    prefix[j],
                    "split at {i} and {j}"
                );
            }
        }
    }

    /// `x^(8k+64) mod P` is the CRC of a one followed by `k` zero bytes —
    /// derived through the bytewise table, not through the shift-and-reduce
    /// the kernel uses.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_match_an_independent_derivation() {
        let x_pow = |n: usize| {
            let mut message = vec![0u8; 1 + (n - 64) / 8];
            message[0] = 0x01;
            crc64_bytewise(0, &message)
        };
        assert_eq!(x_pow(64), POLY);
        for n in [64, 128, 192, 512, 576] {
            assert_eq!(clmul::x_pow_mod_p(n as u32), x_pow(n), "x^{n} mod P");
        }
        if let Some(kernel) = clmul::Kernel::get() {
            assert_eq!(kernel.by_64_bytes, [x_pow(576), x_pow(512)]);
            assert_eq!(kernel.by_16_bytes, [x_pow(192), x_pow(128)]);
        }
    }

    /// The kernel's own contract, without the dispatch around it: sixteen
    /// bytes that stand in for `register ‖ blocks`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folded_blocks_stand_in_for_the_message() {
        let Some(kernel) = clmul::Kernel::get() else {
            return; // no pclmulqdq here: the dispatch tests ran the portable path
        };
        let data = xorshift_bytes(3 + 64 * 9);
        for blocks in 1..=9 {
            let d = &data[3..3 + 64 * blocks];
            for register in [0, u64::MAX, 0xDEAD_BEEF] {
                let folded = kernel.fold(register, d);
                assert_eq!(
                    crc64_bytewise(0, &folded),
                    crc64_bytewise(register, d),
                    "{blocks} blocks from {register:#x}"
                );
            }
        }
    }

    #[test]
    fn chunked_equals_whole() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc64(data);
        let mut crc = 0;
        for chunk in data.chunks(7) {
            crc = crc64_update(crc, chunk);
        }
        assert_eq!(crc, whole);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xAAu8; 4096];
        let clean = crc64(&data);
        data[2048] ^= 1;
        assert_ne!(crc64(&data), clean);
    }
}
