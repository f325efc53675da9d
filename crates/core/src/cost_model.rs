//! Cost models for the progressive indexing algorithms (Table 1 of the
//! paper).
//!
//! The cost models serve two purposes:
//!
//! 1. **Budget translation** — given a user-chosen time budget
//!    `t_budget`, compute the fraction δ of indexing work a query may
//!    perform in the current phase (`δ = t_budget / t_pivot`,
//!    `t_budget / t_swap`, `t_budget / t_bucket`, …).
//! 2. **Prediction** — predict the total execution time of a query given
//!    the current index state (ρ, α, δ), which the paper validates against
//!    measurements in Figures 8 and 9.
//!
//! All formulas are expressed in terms of the hardware constants of
//! Table 1, which are either *measured at start-up* on the host machine
//! ([`CostConstants::calibrate`]) — exactly as the paper's implementation
//! does — or fixed to deterministic synthetic values for reproducible unit
//! tests ([`CostConstants::synthetic`]).

use std::time::Instant;

/// Hardware cost constants (system section of Table 1).
///
/// All values are in **seconds** per unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// ω — cost of a sequential page *read*.
    pub omega: f64,
    /// κ — cost of a sequential page *write*.
    pub kappa: f64,
    /// φ — cost of a random page access.
    pub phi: f64,
    /// γ — number of column elements per page.
    pub gamma: f64,
    /// σ — cost of swapping two elements (Progressive Quicksort).
    pub sigma: f64,
    /// τ — cost of one memory (bucket-block) allocation.
    pub tau: f64,
}

impl CostConstants {
    /// Deterministic constants loosely modelled on a laptop-class CPU with
    /// DRAM-resident data. Used by unit tests and documentation examples so
    /// results do not depend on the host machine.
    pub fn synthetic() -> Self {
        CostConstants {
            omega: 2.0e-7, // ~200ns to stream one 4 KiB page
            kappa: 2.5e-7, // writes slightly more expensive than reads
            phi: 1.0e-7,   // ~100ns per random access (cache/TLB miss)
            gamma: 512.0,  // 4 KiB page / 8-byte values
            sigma: 2.0e-9, // ~2ns per element swap
            tau: 1.0e-7,   // ~100ns per block allocation
        }
    }

    /// Measures the constants on the current machine with short
    /// micro-benchmarks, mirroring the paper's start-up calibration.
    ///
    /// The calibration uses a working set of a few megabytes and takes on
    /// the order of tens of milliseconds; it is intended to be run once per
    /// process and shared across indexes.
    pub fn calibrate() -> Self {
        const ELEMENTS: usize = 1 << 21; // 2 Mi elements = 16 MiB
        const PAGE_BYTES: f64 = 4096.0;
        const ELEM_BYTES: f64 = 8.0;
        let gamma = PAGE_BYTES / ELEM_BYTES;
        let pages = ELEMENTS as f64 / gamma;

        let mut data: Vec<u64> = (0..ELEMENTS as u64).map(|i| i.wrapping_mul(31)).collect();

        // ω: sequential read — predicated sum over the array.
        let start = Instant::now();
        let mut acc: u64 = 0;
        for &v in &data {
            acc = acc.wrapping_add(v);
        }
        let omega = start.elapsed().as_secs_f64() / pages;
        std::hint::black_box(acc);

        // κ: sequential write — overwrite every element.
        let start = Instant::now();
        for (i, v) in data.iter_mut().enumerate() {
            *v = i as u64;
        }
        let kappa = start.elapsed().as_secs_f64() / pages;
        std::hint::black_box(&data);

        // φ: random page access — strided reads that defeat the prefetcher.
        let accesses = 1 << 16;
        let mut idx: usize = 1;
        let start = Instant::now();
        let mut acc: u64 = 0;
        for _ in 0..accesses {
            idx = (idx.wrapping_mul(1103515245).wrapping_add(12345)) % ELEMENTS;
            acc = acc.wrapping_add(data[idx]);
        }
        let phi = start.elapsed().as_secs_f64() / accesses as f64;
        std::hint::black_box(acc);

        // σ: element swap cost.
        let swaps = ELEMENTS / 2;
        let start = Instant::now();
        for i in 0..swaps {
            data.swap(i, ELEMENTS - 1 - i);
        }
        let sigma = start.elapsed().as_secs_f64() / swaps as f64;
        std::hint::black_box(&data);

        // τ: cost of allocating a bucket block.
        let allocations = 1 << 12;
        let start = Instant::now();
        let mut blocks: Vec<Vec<u64>> = Vec::with_capacity(allocations);
        for _ in 0..allocations {
            blocks.push(Vec::with_capacity(crate::buckets::DEFAULT_BLOCK_CAPACITY));
        }
        let tau = start.elapsed().as_secs_f64() / allocations as f64;
        std::hint::black_box(&blocks);

        // Guard against zero measurements on very fast machines / coarse
        // clocks: fall back to the synthetic constant for any degenerate
        // value so downstream divisions stay well-defined.
        let fallback = Self::synthetic();
        CostConstants {
            omega: positive_or(omega, fallback.omega),
            kappa: positive_or(kappa, fallback.kappa),
            phi: positive_or(phi, fallback.phi),
            gamma,
            sigma: positive_or(sigma, fallback.sigma),
            tau: positive_or(tau, fallback.tau),
        }
    }
}

fn positive_or(value: f64, fallback: f64) -> f64 {
    if value.is_finite() && value > 0.0 {
        value
    } else {
        fallback
    }
}

/// Cost model for one column of `n` elements, parameterised by the
/// hardware constants. Provides the per-phase formulas of Section 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    constants: CostConstants,
    n: f64,
}

impl CostModel {
    /// Creates a cost model for a column of `n` elements.
    pub fn new(constants: CostConstants, n: usize) -> Self {
        CostModel {
            constants,
            n: n as f64,
        }
    }

    /// The hardware constants in use.
    pub fn constants(&self) -> &CostConstants {
        &self.constants
    }

    /// Number of elements the model was built for.
    pub fn n(&self) -> f64 {
        self.n
    }

    /// `t_scan = ω · N / γ` — full sequential scan of the base column.
    pub fn t_scan(&self) -> f64 {
        self.constants.omega * self.n / self.constants.gamma
    }

    /// `t_pivot = (κ + ω) · N / γ` — reading the base column and writing
    /// the pivoted copy (Progressive Quicksort creation).
    pub fn t_pivot(&self) -> f64 {
        (self.constants.kappa + self.constants.omega) * self.n / self.constants.gamma
    }

    /// `t_swap = κ · N / γ` — predicated in-place swapping of N elements
    /// (Progressive Quicksort refinement).
    pub fn t_swap(&self) -> f64 {
        self.constants.kappa * self.n / self.constants.gamma
    }

    /// `t_lookup = h · φ` — descending a binary tree of height `h`.
    pub fn t_tree_lookup(&self, height: usize) -> f64 {
        height as f64 * self.constants.phi
    }

    /// `t_lookup = log2(n) · φ` — binary search over the sorted array
    /// (consolidation phase, before the B+-tree is finished).
    pub fn t_binary_search(&self) -> f64 {
        if self.n <= 1.0 {
            0.0
        } else {
            self.n.log2() * self.constants.phi
        }
    }

    /// `t_bscan = t_scan + φ · N / s_b` — scanning bucketed data: a
    /// sequential scan plus one random access per block of `block_capacity`
    /// elements.
    pub fn t_bucket_scan(&self, block_capacity: usize) -> f64 {
        self.t_scan() + self.constants.phi * self.n / block_capacity as f64
    }

    /// `t_bucket = (κ + ω) · N / γ + τ · N / s_b` — radix-clustering N
    /// elements into buckets made of `block_capacity`-element blocks.
    pub fn t_bucketize(&self, block_capacity: usize) -> f64 {
        (self.constants.kappa + self.constants.omega) * self.n / self.constants.gamma
            + self.constants.tau * self.n / block_capacity as f64
    }

    /// `log2(b) · t_bucket` — equi-height bucketing, which pays an extra
    /// binary search over the `bucket_count` boundaries per element.
    pub fn t_bucketize_equiheight(&self, block_capacity: usize, bucket_count: usize) -> f64 {
        (bucket_count.max(2) as f64).log2() * self.t_bucketize(block_capacity)
    }

    /// `t_copy = N_copy · κ / γ` — copying `n_copy` elements into the
    /// B+-tree's internal levels (consolidation phase).
    pub fn t_consolidate(&self, n_copy: usize) -> f64 {
        n_copy as f64 * self.constants.kappa / self.constants.gamma
    }

    // ----- per-phase total-cost predictions -------------------------------

    /// Creation-phase prediction for Progressive Quicksort:
    /// `(1 - ρ + α - δ) · t_scan + δ · t_pivot`.
    pub fn quicksort_creation(&self, rho: f64, alpha: f64, delta: f64) -> f64 {
        ((1.0 - rho + alpha - delta).max(0.0)) * self.t_scan() + delta * self.t_pivot()
    }

    /// Refinement-phase prediction for Progressive Quicksort:
    /// `h·φ + α · t_scan + δ · t_swap`.
    pub fn quicksort_refinement(&self, tree_height: usize, alpha: f64, delta: f64) -> f64 {
        self.t_tree_lookup(tree_height) + alpha * self.t_scan() + delta * self.t_swap()
    }

    /// Consolidation-phase prediction (shared by all algorithms):
    /// `log2(n)·φ + α · t_scan + δ · t_copy`.
    pub fn consolidation(&self, alpha: f64, delta: f64, n_copy: usize) -> f64 {
        self.t_binary_search() + alpha * self.t_scan() + delta * self.t_consolidate(n_copy)
    }

    /// Creation-phase prediction for Progressive Radixsort (MSD and LSD):
    /// `(1 - ρ - δ) · t_scan + α · t_bscan + δ · t_bucket`.
    pub fn radix_creation(&self, rho: f64, alpha: f64, delta: f64, block_capacity: usize) -> f64 {
        ((1.0 - rho - delta).max(0.0)) * self.t_scan()
            + alpha * self.t_bucket_scan(block_capacity)
            + delta * self.t_bucketize(block_capacity)
    }

    /// Refinement-phase prediction for Progressive Radixsort (MSD and LSD):
    /// `α · t_bscan + δ · t_bucket`.
    pub fn radix_refinement(&self, alpha: f64, delta: f64, block_capacity: usize) -> f64 {
        alpha * self.t_bucket_scan(block_capacity) + delta * self.t_bucketize(block_capacity)
    }

    /// Creation-phase prediction for Progressive Bucketsort (Equi-Height):
    /// `(1 - ρ - δ) · t_scan + α · t_bscan + δ · log2(b) · t_bucket`.
    pub fn bucketsort_creation(
        &self,
        rho: f64,
        alpha: f64,
        delta: f64,
        block_capacity: usize,
        bucket_count: usize,
    ) -> f64 {
        ((1.0 - rho - delta).max(0.0)) * self.t_scan()
            + alpha * self.t_bucket_scan(block_capacity)
            + delta * self.t_bucketize_equiheight(block_capacity, bucket_count)
    }
}

/// Clamps a computed δ into `(0, 1]`, guarding against degenerate budgets
/// and division blow-ups. A floor of `1e-6` keeps progress strictly
/// positive so convergence stays deterministic even with absurdly small
/// budgets.
pub fn clamp_delta(delta: f64) -> f64 {
    if !delta.is_finite() {
        return 1.0;
    }
    delta.clamp(1e-6, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize) -> CostModel {
        CostModel::new(CostConstants::synthetic(), n)
    }

    #[test]
    fn scan_cost_scales_linearly() {
        let m1 = model(1_000_000);
        let m2 = model(2_000_000);
        assert!((m2.t_scan() / m1.t_scan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pivot_cost_exceeds_scan_cost() {
        let m = model(1_000_000);
        assert!(m.t_pivot() > m.t_scan());
        assert!(m.t_swap() < m.t_pivot());
    }

    #[test]
    fn bucket_scan_slower_than_plain_scan() {
        let m = model(1_000_000);
        assert!(m.t_bucket_scan(1024) > m.t_scan());
    }

    #[test]
    fn equiheight_bucketing_costs_log_b_more() {
        let m = model(1_000_000);
        let plain = m.t_bucketize(1024);
        let equi = m.t_bucketize_equiheight(1024, 64);
        assert!((equi / plain - 6.0).abs() < 1e-9);
    }

    #[test]
    fn creation_cost_decreases_as_rho_grows() {
        let m = model(10_000_000);
        let early = m.quicksort_creation(0.0, 0.0, 0.1);
        let late = m.quicksort_creation(0.9, 0.05, 0.1);
        assert!(late < early);
    }

    #[test]
    fn delta_is_clamped_to_unit_interval() {
        assert_eq!(clamp_delta(1e9), 1.0);
        assert_eq!(clamp_delta(0.0), 1e-6);
        assert_eq!(clamp_delta(0.25), 0.25);
        assert_eq!(clamp_delta(f64::NAN), 1.0);
        assert_eq!(clamp_delta(f64::INFINITY), 1.0);
    }

    #[test]
    fn binary_search_cost_is_logarithmic() {
        let m1 = model(1 << 10);
        let m2 = model(1 << 20);
        assert!((m2.t_binary_search() / m1.t_binary_search() - 2.0).abs() < 1e-9);
        assert_eq!(model(1).t_binary_search(), 0.0);
    }

    #[test]
    fn calibration_produces_positive_constants() {
        let c = CostConstants::calibrate();
        assert!(c.omega > 0.0);
        assert!(c.kappa > 0.0);
        assert!(c.phi > 0.0);
        assert!(c.sigma > 0.0);
        assert!(c.tau > 0.0);
        assert_eq!(c.gamma, 512.0);
    }

    #[test]
    fn refinement_prediction_accounts_for_tree_height() {
        let m = model(1_000_000);
        let shallow = m.quicksort_refinement(1, 0.1, 0.1);
        let deep = m.quicksort_refinement(20, 0.1, 0.1);
        assert!(deep > shallow);
    }
}
