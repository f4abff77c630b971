//! Seeded input generators. Everything the program under test sees —
//! page contents, page orders, dirty sets — comes from here, so one
//! `--seed` reproduces one run's inputs exactly.

/// xorshift64* — small, fast, and good enough that LZ finds nothing in its
/// output (the `fig2` `touch_page` recurrence collapses to a short cycle and
/// compresses 100:1, which would make stored-byte metrics meaningless).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble: nearby seeds (1, 2, 3…) must not give
        // correlated streams, and the state must never be zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    /// A generator for an independent sub-stream (per workload, per round).
    pub fn fork(&self, salt: u64) -> Self {
        Self::new(self.0 ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2^-40
    /// for every bound the benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fill `out` with incompressible bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// "Mixed" page content: the first eighth random, the rest one repeated
/// byte — compresses to roughly 1/8 + a few frame bytes, the shape of
/// sparse numerical state (a few live values in a padded block).
pub fn fill_mixed(page: &mut [u8], rng: &mut Rng) {
    let head = page.len() / 8;
    let run = (rng.next_u64() as u8) | 1;
    rng.fill(&mut page[..head]);
    page[head..].fill(run);
}

/// The application's per-page "compute" for the paced workload: `passes`
/// read-modify-write sweeps with a loop-carried dependency, so the work per
/// page cannot be vectorised away and the sweep time is set by `passes`.
/// The final content still depends on every prior byte and on `salt`.
#[inline]
pub fn mix_page(page: &mut [u8], passes: u32, salt: u64) {
    let mut a = salt | 1;
    for _ in 0..passes {
        for w in page.chunks_exact_mut(8) {
            let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            a = (a ^ v).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(23);
            w.copy_from_slice(&a.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Rng::new(8);
        assert_ne!(xs[0], c.next_u64(), "adjacent seeds decorrelate");
        let root = Rng::new(7);
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
        assert_eq!(root.fork(3).next_u64(), root.fork(3).next_u64());
    }

    #[test]
    fn fill_covers_ragged_tails_and_is_not_constant() {
        let mut rng = Rng::new(1);
        let mut buf = [0u8; 21];
        rng.fill(&mut buf);
        assert!(buf[16..].iter().any(|&b| b != 0), "tail bytes written");
        let mut page = vec![0u8; 4096];
        rng.fill(&mut page);
        let mut seen = [false; 256];
        page.iter().for_each(|&b| seen[b as usize] = true);
        assert!(
            seen.iter().filter(|&&s| s).count() > 200,
            "byte values spread"
        );
    }

    #[test]
    fn permutation_is_a_permutation_and_seeded() {
        let p = permutation(1000, &mut Rng::new(5));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        assert_eq!(p, permutation(1000, &mut Rng::new(5)));
        assert_ne!(p, permutation(1000, &mut Rng::new(6)));
        assert_ne!(p, sorted, "not the identity");
    }

    #[test]
    fn mixed_pages_are_one_eighth_random() {
        let mut page = vec![0u8; 4096];
        fill_mixed(&mut page, &mut Rng::new(9));
        let run = page[512];
        assert_ne!(run, 0);
        assert!(page[512..].iter().all(|&b| b == run));
        assert!(page[..512].iter().any(|&b| b != run));
    }

    #[test]
    fn mix_page_depends_on_content_passes_and_salt() {
        let base: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        let run = |passes, salt| {
            let mut p = base.clone();
            mix_page(&mut p, passes, salt);
            p
        };
        assert_eq!(run(2, 1), run(2, 1));
        assert_ne!(run(2, 1), run(3, 1));
        assert_ne!(run(2, 1), run(2, 3));
        let mut other = base.clone();
        other[4095] ^= 1;
        mix_page(&mut other, 2, 1);
        assert_ne!(run(2, 1), other);
    }
}
