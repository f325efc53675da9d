//! Property-based oracle for mutable progressive indexes: range-query
//! answers must be exact after **arbitrary** interleavings of inserts,
//! deletes, updates, refinement steps and queries, at every refinement
//! stage, for all four progressive algorithms — including mutations
//! applied after the index has fully converged.
//!
//! The ground truth is a sorted `Vec` of the live values: every query is
//! double-checked against a binary-search range sum over it, and delete
//! victims are removed by binary search, so the oracle itself is
//! O(log n + k) per operation and cannot drift.

use std::sync::Arc;

use proptest::prelude::*;

use pi_core::mutation::{MutableIndex, Mutation};
use pi_core::{Algorithm, BudgetPolicy};
use pi_storage::scan::ScanResult;
use pi_storage::{Column, Value};

/// Sorted-Vec ground truth over the live multiset.
struct SortedOracle {
    live: Vec<Value>,
}

impl SortedOracle {
    fn new(mut values: Vec<Value>) -> Self {
        values.sort_unstable();
        SortedOracle { live: values }
    }

    fn apply(&mut self, m: &Mutation) -> bool {
        match *m {
            Mutation::Insert(v) => {
                let at = self.live.partition_point(|&x| x <= v);
                self.live.insert(at, v);
                true
            }
            Mutation::Delete(v) => {
                let at = self.live.partition_point(|&x| x < v);
                if self.live.get(at) == Some(&v) {
                    self.live.remove(at);
                    true
                } else {
                    false
                }
            }
            Mutation::Update { old, new } => {
                if self.apply(&Mutation::Delete(old)) {
                    self.apply(&Mutation::Insert(new));
                    true
                } else {
                    false
                }
            }
        }
    }

    fn query(&self, low: Value, high: Value) -> ScanResult {
        if low > high {
            return ScanResult::EMPTY;
        }
        let start = self.live.partition_point(|&x| x < low);
        let end = self.live.partition_point(|&x| x <= high);
        let slice = &self.live[start..end];
        ScanResult {
            sum: slice.iter().map(|&v| v as u128).sum(),
            count: slice.len() as u64,
        }
    }
}

const DOMAIN: u64 = 4_096;

/// One scripted step of the interleaving, decoded from generated tuples
/// (the shim has no enum strategies; a small integer tag picks the op).
fn decode(tag: u64, a: u64, b: u64) -> Op {
    match tag % 6 {
        0 => Op::Apply(Mutation::Insert(a)),
        1 => Op::Apply(Mutation::Delete(a)),
        2 => Op::Apply(Mutation::Update { old: a, new: b }),
        3 => Op::Advance,
        // Two query variants: narrow and full-domain (the latter crosses
        // every pivot/bucket boundary).
        4 => Op::Query(a.min(b), a.max(b)),
        _ => Op::Query(0, DOMAIN * 2),
    }
}

enum Op {
    Apply(Mutation),
    Advance,
    Query(Value, Value),
}

fn run_script(algorithm: Algorithm, base: &[u64], script: &[(u64, u64, u64)]) {
    let column = Arc::new(Column::from_vec(base.to_vec()));
    let mut oracle = SortedOracle::new(base.to_vec());
    let mut index = MutableIndex::new(column, algorithm, BudgetPolicy::FixedDelta(0.3));
    for (step, &(tag, a, b)) in script.iter().enumerate() {
        match decode(tag, a, b) {
            Op::Apply(m) => {
                let got = index.apply(&m);
                let want = oracle.apply(&m);
                assert_eq!(got, want, "{}: step {} {:?}", algorithm, step, m);
            }
            Op::Advance => {
                index.advance();
            }
            Op::Query(low, high) => {
                let got = index.query(low, high).scan_result();
                let want = oracle.query(low, high);
                assert_eq!(
                    got, want,
                    "{}: step {} query [{}, {}]",
                    algorithm, step, low, high
                );
            }
        }
    }
    // Drive to the terminal state and re-verify: convergence is reached
    // and the merged snapshot serves the exact live multiset.
    let mut guard = 0;
    while index.advance() {
        guard += 1;
        assert!(guard < 1_000_000, "{}: did not converge", algorithm);
    }
    assert!(index.is_converged());
    for (low, high) in [(0, DOMAIN * 2), (DOMAIN / 4, DOMAIN / 2), (7, 7)] {
        assert_eq!(
            index.query(low, high).scan_result(),
            oracle.query(low, high),
            "{}: post-convergence query [{}, {}]",
            algorithm,
            low,
            high
        );
    }
    assert_eq!(index.live_rows(), oracle.live.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The oracle property over all four algorithms, with merges forced
    /// often (tiny merge threshold) so scripts exercise mid-merge
    /// queries, mutations during merges, and repeated lifecycle restarts.
    #[test]
    fn mutation_interleavings_match_sorted_vec_oracle(
        base in prop::collection::vec(0..DOMAIN, 0..600),
        script in prop::collection::vec((0..6u64, 0..DOMAIN, 0..DOMAIN), 1..120),
    ) {
        for algorithm in Algorithm::ALL {
            run_script(algorithm, &base, &script);
        }
    }

    /// Mutating an index *after* convergence keeps answers exact and
    /// re-converges — the "mutated converged shard re-enters maintenance"
    /// property at the single-index level, for all four algorithms.
    #[test]
    fn mutations_after_convergence_stay_exact(
        base in prop::collection::vec(0..DOMAIN, 1..400),
        script in prop::collection::vec((0..6u64, 0..DOMAIN, 0..DOMAIN), 1..60),
    ) {
        for algorithm in Algorithm::ALL {
            let column = Arc::new(Column::from_vec(base.clone()));
            let mut oracle = SortedOracle::new(base.clone());
            let mut index = MutableIndex::new(
                Arc::clone(&column),
                algorithm,
                BudgetPolicy::FixedDelta(0.5),
            );
            // Converge first.
            let mut guard = 0;
            while index.advance() {
                guard += 1;
                assert!(guard < 1_000_000);
            }
            assert!(index.is_converged(), "{}", algorithm);
            // Then run the script against the converged index.
            for &(tag, a, b) in &script {
                match decode(tag, a, b) {
                    Op::Apply(m) => {
                        let got = index.apply(&m);
                        let want = oracle.apply(&m);
                        assert_eq!(got, want, "{}: {:?}", algorithm, m);
                    }
                    Op::Advance => {
                        index.advance();
                    }
                    Op::Query(low, high) => {
                        assert_eq!(
                            index.query(low, high).scan_result(),
                            oracle.query(low, high),
                            "{}: query [{}, {}]", algorithm, low, high
                        );
                    }
                }
            }
            // A converged verdict implies no pending deltas (the reverse
            // doesn't hold: a completed merge leaves a delta-free but
            // freshly rebuilt — unconverged — inner index).
            if index.is_converged() {
                assert!(!index.has_pending(), "{}", algorithm);
            }
            while index.advance() {}
            assert!(index.is_converged(), "{}", algorithm);
            assert_eq!(
                index.query(0, DOMAIN * 2).scan_result(),
                oracle.query(0, DOMAIN * 2),
                "{}", algorithm
            );
        }
    }
}
