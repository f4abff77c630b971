//! Application models: iterative computations described by the page-touch
//! sequence of one iteration.
//!
//! Only the *page-touch order and timing* of an application interact with
//! the checkpointing runtime (first writes per epoch trigger Algorithm 2;
//! everything else is opaque compute). An [`AppModel`] therefore reduces an
//! application to:
//!
//! * a protected page set (`pages`, `page_bytes`),
//! * a touch order, repeated every iteration (the iterative-application
//!   assumption the paper's adaptation rests on),
//! * per-write and per-iteration compute costs.
//!
//! Concrete models: [`SyntheticApp`](crate::synthetic::SyntheticApp) (the
//! §4.3 benchmark), [`StencilApp`](crate::stencil::StencilApp) (CM1-like)
//! and [`LatticeApp`](crate::lattice::LatticeApp) (MILC-like).

use ai_ckpt_core::PageId;

/// An iterative application, reduced to its memory behaviour.
pub trait AppModel: Send {
    /// Number of protected pages (simulation granularity, not necessarily
    /// 4 KiB — see DESIGN.md on block granularity).
    fn pages(&self) -> usize;

    /// Bytes per page/block.
    fn page_bytes(&self) -> usize;

    /// The order in which one iteration first-touches its pages. Fixed
    /// across iterations (the paper's repetitive-pattern assumption); models
    /// may perturb it per-epoch via [`AppModel::reseed_epoch`].
    fn touch_order(&self) -> &[PageId];

    /// Compute time consumed per page write.
    fn per_write_ns(&self) -> u64;

    /// Extra compute inserted *after* the write at position `pos` of the
    /// touch order (default none). Models bursty write phases: e.g. a
    /// stencil step that first-touches one slab of fields quickly, then
    /// computes without new first-writes until the next step.
    fn write_gap_ns(&self, _pos: usize) -> u64 {
        0
    }

    /// Total compute from position `pos` to the end of the write sequence
    /// (including gaps). Used by the simulator's fast path for iterations
    /// that cannot fault; must equal the sum of per-write costs and gaps.
    fn remaining_write_ns(&self, pos: usize) -> u64 {
        (self.touch_order().len().saturating_sub(pos)) as u64 * self.per_write_ns()
    }

    /// Compute time per iteration not attributable to page writes
    /// (communication staging, reductions, ...).
    fn tail_compute_ns(&self) -> u64;

    /// Hook called at each checkpoint request, letting a model deviate from
    /// the previous epoch's pattern (the CM1 stencil's per-epoch swaps).
    /// Default: stable pattern.
    fn reseed_epoch(&mut self, _epoch: u64) {}

    /// Total bytes touched per iteration (diagnostics).
    fn touched_bytes(&self) -> u64 {
        self.touch_order().len() as u64 * self.page_bytes() as u64
    }

    /// Duration of one unimpeded iteration.
    fn iteration_ns(&self) -> u64 {
        self.remaining_write_ns(0) + self.tail_compute_ns()
    }
}

/// Helper shared by models: derive the per-write compute cost from a target
/// iteration duration.
pub fn per_write_from_iteration(iteration_ns: u64, writes: usize, tail_ns: u64) -> u64 {
    if writes == 0 {
        return 0;
    }
    iteration_ns.saturating_sub(tail_ns) / writes as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        order: Vec<PageId>,
    }

    impl AppModel for Toy {
        fn pages(&self) -> usize {
            8
        }
        fn page_bytes(&self) -> usize {
            4096
        }
        fn touch_order(&self) -> &[PageId] {
            &self.order
        }
        fn per_write_ns(&self) -> u64 {
            100
        }
        fn tail_compute_ns(&self) -> u64 {
            1_000
        }
    }

    #[test]
    fn derived_quantities() {
        let toy = Toy {
            order: vec![0, 1, 2, 3],
        };
        assert_eq!(toy.touched_bytes(), 4 * 4096);
        assert_eq!(toy.iteration_ns(), 4 * 100 + 1_000);
    }

    #[test]
    fn per_write_from_iteration_math() {
        assert_eq!(per_write_from_iteration(1_000_000, 100, 0), 10_000);
        assert_eq!(per_write_from_iteration(1_000_000, 100, 500_000), 5_000);
        assert_eq!(per_write_from_iteration(1_000, 0, 0), 0);
        assert_eq!(per_write_from_iteration(100, 10, 500), 0, "saturates");
    }
}
