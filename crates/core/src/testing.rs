//! Test support shared by the progressive indexes, the adaptive-indexing
//! baselines and the integration tests.
//!
//! The public helpers are the ones `pi-cracking`, the workspace-level
//! integration tests and downstream users share: deterministic data
//! generation, a scan-based reference answer and a "run a workload,
//! checking every answer" harness. The "until convergence" harness the
//! algorithms' unit tests share is compiled for tests only.

use std::sync::Arc;

use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{Column, Value};

use crate::index::RangeIndex;

/// Deterministic xorshift64* generator used by the test helpers, so tests
/// never depend on external RNG crates or on global seeding.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a non-zero seed (zero is mapped to a fixed
    /// constant).
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`. `bound == 0` returns 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A column of `n` pseudo-random values uniformly distributed in
/// `[0, domain)`.
pub fn random_column(n: usize, domain: u64, seed: u64) -> Column {
    let mut rng = TestRng::new(seed);
    Column::from_vec((0..n).map(|_| rng.below(domain.max(1))).collect())
}

/// Scan-based reference oracle: answers every query with a predicated full
/// scan of a private copy of the data.
#[derive(Debug, Clone)]
pub struct ReferenceIndex {
    data: Vec<Value>,
}

impl ReferenceIndex {
    /// Captures a copy of the column to answer reference queries against.
    pub fn new(column: &Column) -> Self {
        ReferenceIndex {
            data: column.data().to_vec(),
        }
    }

    /// Reference answer for `SELECT SUM(a), COUNT(a) WHERE a BETWEEN low
    /// AND high`.
    pub fn query(&self, low: Value, high: Value) -> ScanResult {
        scan_range_sum(&self.data, low, high)
    }
}

/// Runs `queries` random range queries, checking correctness but not
/// requiring convergence. Returns whether the index converged.
pub fn check_correctness_under_workload<F>(
    factory: F,
    n: usize,
    domain: u64,
    queries: usize,
) -> bool
where
    F: FnOnce(Arc<Column>) -> Box<dyn RangeIndex>,
{
    let column = Arc::new(random_column(n, domain, 0xBEEF));
    let reference = ReferenceIndex::new(&column);
    let mut index = factory(Arc::clone(&column));
    let mut rng = TestRng::new(7);
    for q in 0..queries {
        let low = rng.below(domain.max(1));
        let high = low + rng.below((domain / 20).max(1));
        let result = index.query(low, high);
        let expected = reference.query(low, high);
        assert_eq!(
            result.scan_result(),
            expected,
            "{}: wrong answer for query #{q} [{low}, {high}]",
            index.name()
        );
    }
    index.is_converged()
}

#[cfg(test)]
/// Runs a random range-query workload against an index built by
/// `factory` over a fresh uniform column of `n` values in `[0, domain)`,
/// asserting that:
///
/// 1. every single answer matches the scan-based reference, and
/// 2. the index converges within a generous query bound.
///
/// Panics with a descriptive message when either property is violated.
pub(crate) fn assert_index_converges<F>(factory: F, n: usize, domain: u64)
where
    F: FnOnce(Arc<Column>) -> Box<dyn RangeIndex>,
{
    let column = Arc::new(random_column(n, domain, 0xC0FFEE));
    let reference = ReferenceIndex::new(&column);
    let mut index = factory(Arc::clone(&column));
    let mut rng = TestRng::new(42);

    // Enough queries for even δ = 0.05-style configurations to converge on
    // the small test columns; algorithms converge far earlier in practice.
    let max_queries = 5_000;
    let selectivity = (domain / 10).max(1);
    for q in 0..max_queries {
        let low = rng.below(domain.max(1));
        let high = (low + rng.below(selectivity)).min(domain.saturating_sub(1).max(low));
        let result = index.query(low, high);
        let expected = reference.query(low, high);
        assert_eq!(
            result.scan_result(),
            expected,
            "{}: wrong answer for query #{q} [{low}, {high}]",
            index.name()
        );
        if index.is_converged() {
            // A converged index must stay correct too.
            let result = index.query(low, high);
            assert_eq!(
                result.scan_result(),
                expected,
                "{}: wrong answer after convergence",
                index.name()
            );
            return;
        }
    }
    panic!(
        "{}: did not converge within {max_queries} queries (n = {n})",
        index.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(5);
        let mut b = TestRng::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_zero_seed_is_remapped() {
        let mut r = TestRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn random_column_respects_domain() {
        let c = random_column(10_000, 500, 3);
        assert_eq!(c.len(), 10_000);
        assert!(c.max() < 500);
    }

    #[test]
    fn reference_index_matches_direct_scan() {
        let c = random_column(1_000, 1_000, 9);
        let r = ReferenceIndex::new(&c);
        assert_eq!(r.query(10, 700), scan_range_sum(c.data(), 10, 700));
    }
}
