//! # pi-bench — Criterion benchmarks
//!
//! The benchmark targets live in `benches/`; this library only hosts the
//! small helpers they share (sized-down workloads and index construction)
//! so each bench file stays focused on what it measures.
//!
//! Benchmarks are *shape* reproductions of the paper's experiments: they
//! use laptop-scale columns (10^5–10^6 elements) so `cargo bench`
//! completes in minutes, while preserving the relative comparisons the
//! paper reports (who wins, and roughly by how much).
//!
//! | Paper artefact | Bench target |
//! |---|---|
//! | substrate micro-benchmarks | `substrates` |
//! | Figures 5 & 6 (workload generation) | `workload_generation` |
//! | Figure 7 (δ impact) | `fig7_delta_impact` |
//! | Figures 8 & 9 (budget modes) | `fig8_fig9_budgets` |
//! | Table 2 / Figure 10 (SkyServer comparison) | `table2_fig10_skyserver` |
//! | Tables 3–5 (synthetic grid) | `tables3_4_5_synthetic` |
//!
//! The serving engine is not benchmarked here: `pibench/` measures it end
//! to end with every answer oracle-checked (`scripts/pibench_ab.sh` for a
//! before/after; `tests/pibench_smoke.rs` runs it in tier-1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::CostConstants;
use pi_experiments::{AlgorithmId, Scale, Workload};
use pi_storage::Column;
use pi_workloads::{Distribution, Pattern, RangeQuery};

/// Default benchmark scale: large enough that indexing work dominates
/// fixed overheads, small enough that a full Criterion run stays fast.
pub const BENCH_SCALE: Scale = Scale {
    column_size: 100_000,
    query_count: 100,
};

/// A prepared benchmark workload: column plus query log.
pub struct BenchWorkload {
    /// The data column.
    pub column: Arc<Column>,
    /// The query log.
    pub queries: Vec<RangeQuery>,
}

/// The SkyServer-substitute workload at benchmark scale.
pub fn skyserver_workload() -> BenchWorkload {
    let w = Workload::skyserver(BENCH_SCALE);
    BenchWorkload {
        column: w.column,
        queries: w.queries,
    }
}

/// A synthetic workload at benchmark scale.
pub fn synthetic_workload(distribution: Distribution, pattern: Pattern) -> BenchWorkload {
    let w = Workload::synthetic(distribution, pattern, BENCH_SCALE, false);
    BenchWorkload {
        column: w.column,
        queries: w.queries,
    }
}

/// Runs the whole query log of `workload` against a freshly built index,
/// returning a checksum so the optimiser cannot discard the work.
pub fn run_full_workload(
    algorithm: AlgorithmId,
    workload: &BenchWorkload,
    policy: BudgetPolicy,
) -> u128 {
    let mut index = algorithm.build(
        Arc::clone(&workload.column),
        policy,
        CostConstants::synthetic(),
    );
    let mut checksum = 0u128;
    for q in &workload.queries {
        checksum = checksum.wrapping_add(index.query(q.low, q.high).sum);
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_consistent_checksums_across_algorithms() {
        let workload = synthetic_workload(Distribution::UniformRandom, Pattern::Random);
        let policy = BudgetPolicy::FixedDelta(0.25);
        let reference = run_full_workload(AlgorithmId::FullScan, &workload, policy);
        for algorithm in [
            AlgorithmId::ProgressiveQuicksort,
            AlgorithmId::StandardCracking,
            AlgorithmId::FullIndex,
        ] {
            assert_eq!(
                run_full_workload(algorithm, &workload, policy),
                reference,
                "{algorithm}"
            );
        }
    }

    #[test]
    fn bench_workloads_have_expected_scale() {
        let w = skyserver_workload();
        assert_eq!(w.column.len(), BENCH_SCALE.column_size);
        assert_eq!(w.queries.len(), BENCH_SCALE.query_count);
    }
}
