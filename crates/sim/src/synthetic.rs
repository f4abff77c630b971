//! The paper's §4.3 memory-intensive benchmark: a large region touched
//! byte-by-byte every iteration in a configurable order — Ascending, Random
//! (a fixed permutation reused every iteration) or Descending.

use ai_ckpt_core::rng::SplitMix64;
use ai_ckpt_core::PageId;

use crate::app::AppModel;

/// The §4.3 access patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Page-by-page from the beginning towards the end.
    Ascending,
    /// A fixed random permutation of all pages (seeded).
    Random(u64),
    /// From the end towards the beginning.
    Descending,
}

impl Pattern {
    /// Label used by reports ("Ascending" / "Random" / "Descending").
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Ascending => "Ascending",
            Pattern::Random(_) => "Random",
            Pattern::Descending => "Descending",
        }
    }
}

/// The synthetic memory-intensive benchmark.
#[derive(Debug)]
pub struct SyntheticApp {
    order: Vec<PageId>,
    page_bytes: usize,
    per_write_ns: u64,
    tail_ns: u64,
}

impl SyntheticApp {
    /// `pages` of `page_bytes`, touched per `pattern`; one iteration takes
    /// `pages * per_write_ns + tail_ns`.
    pub fn new(
        pages: usize,
        page_bytes: usize,
        pattern: Pattern,
        per_write_ns: u64,
        tail_ns: u64,
    ) -> Self {
        let mut order: Vec<PageId> = (0..pages as PageId).collect();
        match pattern {
            Pattern::Ascending => {}
            Pattern::Descending => order.reverse(),
            Pattern::Random(seed) => SplitMix64::new(seed).shuffle(&mut order),
        }
        Self {
            order,
            page_bytes,
            per_write_ns,
            tail_ns,
        }
    }
}

impl AppModel for SyntheticApp {
    fn pages(&self) -> usize {
        self.order.len()
    }

    fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    fn touch_order(&self) -> &[PageId] {
        &self.order
    }

    fn per_write_ns(&self) -> u64 {
        self.per_write_ns
    }

    fn tail_compute_ns(&self) -> u64 {
        self.tail_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_and_descending_orders() {
        let asc = SyntheticApp::new(4, 4096, Pattern::Ascending, 10, 0);
        assert_eq!(asc.touch_order(), &[0, 1, 2, 3]);
        let desc = SyntheticApp::new(4, 4096, Pattern::Descending, 10, 0);
        assert_eq!(desc.touch_order(), &[3, 2, 1, 0]);
    }

    #[test]
    fn random_is_seeded_permutation() {
        let a = SyntheticApp::new(64, 4096, Pattern::Random(1), 10, 0);
        let b = SyntheticApp::new(64, 4096, Pattern::Random(1), 10, 0);
        let c = SyntheticApp::new(64, 4096, Pattern::Random(2), 10, 0);
        assert_eq!(a.touch_order(), b.touch_order());
        assert_ne!(a.touch_order(), c.touch_order());
        let mut sorted = a.touch_order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn labels() {
        assert_eq!(Pattern::Ascending.label(), "Ascending");
        assert_eq!(Pattern::Random(0).label(), "Random");
        assert_eq!(Pattern::Descending.label(), "Descending");
    }
}
