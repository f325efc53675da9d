//! Property-based tests: for arbitrary columns and arbitrary query
//! sequences, every indexing technique must agree with the scan-based
//! oracle, and the structural invariants of the underlying data structures
//! must hold.

use std::sync::Arc;

use proptest::prelude::*;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::CostConstants;
use pi_core::testing::ReferenceIndex;
use pi_cracking::crack::crack_in_two;
use pi_cracking::AlgorithmId;
use pi_cracking::CrackedColumn;
use pi_storage::{sorted, Column};
use pi_workloads::{patterns, Pattern, WorkloadSpec};

/// Strategy: a small column of values within a bounded domain (duplicates
/// likely), plus a sequence of query bounds over the same domain.
fn column_and_queries() -> impl Strategy<Value = (Vec<u64>, Vec<(u64, u64)>)> {
    let domain = 2_000u64;
    (
        prop::collection::vec(0..domain, 1..400),
        prop::collection::vec((0..domain, 0..domain), 1..25),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every algorithm returns exactly the oracle's answer on every query,
    /// regardless of the data and the query sequence.
    #[test]
    fn every_algorithm_matches_the_oracle((values, raw_queries) in column_and_queries()) {
        let column = Arc::new(Column::from_vec(values));
        let reference = ReferenceIndex::new(&column);
        for algorithm in AlgorithmId::ALL {
            let mut index = algorithm.build(
                Arc::clone(&column),
                BudgetPolicy::FixedDelta(0.5),
                CostConstants::synthetic(),
            );
            for &(a, b) in &raw_queries {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let got = index.query(low, high);
                let expected = reference.query(low, high);
                prop_assert_eq!(
                    (got.sum, got.count),
                    (expected.sum, expected.count),
                    "{} on [{}, {}]", algorithm, low, high
                );
            }
        }
    }

    /// Progressive indexes keep returning oracle answers after they have
    /// converged (the index rebuild must preserve the multiset of values).
    #[test]
    fn converged_progressive_indexes_stay_correct(values in prop::collection::vec(0..5_000u64, 1..300)) {
        let column = Arc::new(Column::from_vec(values));
        let reference = ReferenceIndex::new(&column);
        for algorithm in AlgorithmId::PROGRESSIVE {
            let mut index = algorithm.build(
                Arc::clone(&column),
                BudgetPolicy::FixedDelta(1.0),
                CostConstants::synthetic(),
            );
            // δ = 1 converges within a bounded number of queries.
            let mut guard = 0;
            while !index.is_converged() {
                index.query(0, 2_500);
                guard += 1;
                prop_assert!(guard < 200, "{} did not converge", algorithm);
            }
            for (low, high) in [(0, 0), (100, 4_000), (4_999, 5_000), (0, u64::MAX)] {
                let got = index.query(low, high);
                let expected = reference.query(low, high);
                prop_assert_eq!((got.sum, got.count), (expected.sum, expected.count));
            }
        }
    }

    /// `crack_in_two` partitions correctly and is a permutation.
    #[test]
    fn crack_in_two_partitions_and_permutes(
        mut values in prop::collection::vec(0..1_000u64, 0..500),
        pivot in 0..1_000u64,
    ) {
        let mut expected = values.clone();
        expected.sort_unstable();
        let n = values.len();
        let result = crack_in_two(&mut values, 0, n, pivot);
        prop_assert!(values[..result.split].iter().all(|&v| v < pivot));
        prop_assert!(values[result.split..].iter().all(|&v| v >= pivot));
        values.sort_unstable();
        prop_assert_eq!(values, expected);
    }

    /// Arbitrary crack sequences never change query answers and keep the
    /// cracker column a permutation of the original.
    #[test]
    fn cracked_column_preserves_answers(
        values in prop::collection::vec(0..3_000u64, 1..300),
        pivots in prop::collection::vec(0..3_000u64, 0..20),
        query in (0..3_000u64, 0..3_000u64),
    ) {
        let column = Column::from_vec(values.clone());
        let reference = ReferenceIndex::new(&column);
        let mut cracked = CrackedColumn::new(&column);
        let (a, b) = query;
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        for &p in &pivots {
            cracked.crack_exact(p);
            let answer = cracked.answer(low, high);
            let expected = reference.query(low, high);
            prop_assert_eq!(answer.result, expected);
        }
        let mut reordered = cracked.data().to_vec();
        reordered.sort_unstable();
        let mut original = values;
        original.sort_unstable();
        prop_assert_eq!(reordered, original);
    }

    /// Binary-search helpers agree with a linear definition on sorted data.
    #[test]
    fn sorted_bounds_match_linear_scan(
        mut values in prop::collection::vec(0..500u64, 0..300),
        key in 0..500u64,
    ) {
        values.sort_unstable();
        let lower = sorted::lower_bound(&values, key);
        let upper = sorted::upper_bound(&values, key);
        prop_assert_eq!(lower, values.iter().filter(|&&v| v < key).count());
        prop_assert_eq!(upper, values.iter().filter(|&&v| v <= key).count());
    }

    /// Workload generators always produce in-domain, well-formed queries.
    #[test]
    fn workload_patterns_stay_in_domain(
        domain in 100..50_000u64,
        count in 1..200usize,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::range(domain, count).with_seed(seed);
        for pattern in Pattern::ALL {
            let queries = patterns::generate(pattern, &spec);
            prop_assert_eq!(queries.len(), count);
            for q in &queries {
                prop_assert!(q.low <= q.high, "{}: {:?}", pattern, q);
                prop_assert!(q.high < domain, "{}: {:?}", pattern, q);
            }
        }
    }
}
