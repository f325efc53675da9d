//! The maintenance step is an empty predicate (`query(1, 0)`, what
//! `MutableIndex::advance` issues): it must do its δ·N of indexing like any
//! other query and answer nothing, in every phase of every algorithm.
//!
//! Two indexes over the same column run in lockstep, one fed only the
//! empty predicate, the other only the full domain (the one non-empty
//! predicate that steers Progressive Quicksort's refinement to the same
//! node an unfocused step picks, so the two stay in the same state).

use std::sync::Arc;

use pi_core::testing::random_column;
use pi_core::{Algorithm, BudgetPolicy, Phase};
use pi_storage::scan::{scan_range_sum, ScanResult};

#[test]
fn an_empty_predicate_indexes_like_any_other_query_in_every_phase() {
    let column = Arc::new(random_column(30_000, 1 << 30, 47));
    let everything = scan_range_sum(column.data(), 0, u64::MAX);
    for algorithm in Algorithm::ALL {
        let policy = BudgetPolicy::FixedDelta(0.1);
        let mut empty = algorithm.build(Arc::clone(&column), policy);
        let mut full = algorithm.build(Arc::clone(&column), policy);
        let mut seen = Vec::new();
        while !full.is_converged() {
            let phase = full.status().phase;
            let nothing = empty.query(1, 0);
            let all = full.query(0, u64::MAX);
            assert_eq!(
                nothing.scan_result(),
                ScanResult::EMPTY,
                "{algorithm} {phase:?}"
            );
            assert_eq!(all.scan_result(), everything, "{algorithm} {phase:?}");
            assert_eq!(nothing.phase, all.phase, "{algorithm} {phase:?}");
            assert_eq!(
                nothing.indexing_ops, all.indexing_ops,
                "{algorithm} {phase:?}"
            );
            if seen.last() != Some(&all.phase) {
                seen.push(all.phase);
            }
        }
        assert!(empty.is_converged(), "{algorithm}");
        assert_eq!(
            seen,
            [Phase::Creation, Phase::Refinement, Phase::Consolidation],
            "{algorithm}"
        );
        assert_eq!(empty.query(1, 0).scan_result(), ScanResult::EMPTY);
    }
}
