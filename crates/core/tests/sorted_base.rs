//! Converged means one copy, and convergence is kept.
//!
//! Once an index has sorted its column the sorted array *is* the column:
//! every handle on the unsorted one is released, and whatever is later
//! built over sorted values — a column loaded in order, the output of a
//! delta merge over a sorted base — has nothing to sort and starts at
//! consolidation. A merge only ever starts over a sorted base, so once an
//! index has merged, its base stays sorted.

use std::sync::Arc;

use proptest::prelude::*;

use pi_core::mutation::{MutableIndex, Mutation};
use pi_core::testing::{random_column, TestRng};
use pi_core::{Algorithm, BudgetPolicy, Phase};
use pi_storage::btree::{BTreeBuilder, DEFAULT_FANOUT};
use pi_storage::scan::scan_range_sum;
use pi_storage::sorted::is_sorted;
use pi_storage::{Column, Value};

const DOMAIN: u64 = 4_096;

/// Applies `m` to the sorted-`Vec` ground truth.
fn oracle_apply(live: &mut Vec<Value>, m: &Mutation) -> bool {
    match *m {
        Mutation::Insert(v) => {
            let at = live.partition_point(|&x| x <= v);
            live.insert(at, v);
            true
        }
        Mutation::Delete(v) => {
            let at = live.partition_point(|&x| x < v);
            let found = live.get(at) == Some(&v);
            if found {
                live.remove(at);
            }
            found
        }
        Mutation::Update { old, new } => {
            oracle_apply(live, &Mutation::Delete(old)) && oracle_apply(live, &Mutation::Insert(new))
        }
    }
}

fn decode(tag: u64, a: u64, b: u64) -> Mutation {
    match tag % 3 {
        0 => Mutation::Insert(a),
        1 => Mutation::Delete(a),
        _ => Mutation::Update { old: a, new: b },
    }
}

/// The index answers, peeks and materialises exactly `live`.
fn assert_exact(index: &mut MutableIndex, live: &[Value], low: Value, high: Value, context: &str) {
    let want = scan_range_sum(live, low, high);
    assert_eq!(index.query(low, high).scan_result(), want, "{context}");
    let mut values = index.live_values();
    if index.snapshot_parts().0.is_sorted() {
        assert!(
            is_sorted(&values),
            "{context}: live_values of a sorted base"
        );
    }
    values.sort_unstable();
    assert_eq!(values, live, "{context}: live_values");
}

#[test]
fn from_consolidation_on_the_sorted_array_is_the_only_copy() {
    let mut rng = TestRng::new(17);
    let mostly_one_value: Vec<Value> = (0..6_000)
        .map(|i| if i % 10 == 0 { rng.below(1 << 20) } else { 77 })
        .collect();
    let shapes: [(&str, Vec<Value>); 5] = [
        ("uniform", random_column(6_000, 1 << 20, 5).into_vec()),
        ("90% duplicates", mostly_one_value),
        ("single value", vec![9; 3_000]),
        ("already sorted", (0..6_000).map(|i| i * 3).collect()),
        ("reverse sorted", (0..6_000).rev().collect()),
    ];
    for (shape, values) in shapes {
        for algorithm in Algorithm::ALL {
            let context = format!("{algorithm} on {shape}");
            let original = Arc::new(Column::from_vec(values.clone()));
            let mut index = MutableIndex::new(
                Arc::clone(&original),
                algorithm,
                BudgetPolicy::FixedDelta(0.2),
            );
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for query in 0..2_000 {
                let base = index.snapshot_parts().0;
                if index.status().phase >= Phase::Consolidation {
                    assert!(base.is_sorted() && base.data() == sorted, "{context}");
                    if original.is_sorted() {
                        // Nothing was ever copied: the column is its own
                        // sorted base.
                        assert!(Arc::ptr_eq(&base, &original), "{context}");
                    } else {
                        assert_eq!(Arc::strong_count(&original), 1, "{context}, query {query}");
                    }
                } else {
                    assert!(Arc::ptr_eq(&base, &original), "{context}, query {query}");
                }
                if index.is_converged() {
                    break;
                }
                // Every way of stepping the inner index hands over.
                match query % 3 {
                    0 => drop(index.query(100, 5_000)),
                    1 => drop(index.advance()),
                    _ => drop(index.apply(&Mutation::Delete(Value::MAX))),
                }
            }
            assert!(index.is_converged(), "{context} did not converge");
        }
    }
}

#[test]
fn a_sorted_column_is_born_at_consolidation() {
    let delta = 0.1;
    let values: Vec<Value> = (0..50_000).map(|i| i / 3).collect();
    let total = BTreeBuilder::total_copies(values.len(), DEFAULT_FANOUT);
    let share = (delta * total as f64).ceil() as u64;
    for algorithm in Algorithm::ALL {
        let column = Arc::new(Column::from_vec(values.clone()));
        let mut index = algorithm.build(column, BudgetPolicy::FixedDelta(delta));
        assert_eq!(index.status().phase, Phase::Consolidation, "{algorithm}");
        let first = index.query(1_000, 1_999);
        assert_eq!(first.phase, Phase::Consolidation, "{algorithm}");
        assert_eq!(
            (first.count, first.sum),
            (3_000, 3 * (1_000..2_000).sum::<u128>())
        );
        assert!(
            (1..=share).contains(&first.indexing_ops),
            "{algorithm}: {} ops for a share of {share}",
            first.indexing_ops
        );
        let mut queries = 1;
        while !index.is_converged() {
            let phase = index.query(0, 10).phase;
            assert!(phase >= Phase::Consolidation, "{algorithm}: {phase:?}");
            queries += 1;
        }
        // The whole life is the tree build: 1/δ queries of N/63 copies.
        assert_eq!(queries, (1.0_f64 / delta).ceil() as u32, "{algorithm}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Convergence, once reached, is kept across writes: every merge over a
    /// sorted base leaves a sorted base and an index that only has a tree
    /// to build.
    #[test]
    fn merges_after_convergence_keep_the_base_sorted(
        base in prop::collection::vec(0..DOMAIN, 1..500),
        script in prop::collection::vec((0..4u64, 0..DOMAIN, 0..DOMAIN), 1..150),
    ) {
        for algorithm in Algorithm::ALL {
            let mut live = base.clone();
            live.sort_unstable();
            let mut index = MutableIndex::new(
                Arc::new(Column::from_vec(base.clone())),
                algorithm,
                BudgetPolicy::FixedDelta(0.4),
            );
            while index.advance() {}
            for (step, &(tag, a, b)) in script.iter().enumerate() {
                let context = format!("{algorithm}, step {step}");
                if tag == 3 {
                    index.advance();
                } else {
                    let m = decode(tag, a, b);
                    assert_eq!(index.apply(&m), oracle_apply(&mut live, &m), "{context}: {m:?}");
                }
                assert_exact(&mut index, &live, a.min(b), a.max(b), &context);
                assert!(index.snapshot_parts().0.is_sorted(), "{context}");
                assert!(index.status().phase >= Phase::Consolidation, "{context}");
            }
            while index.advance() {}
            assert_eq!(index.snapshot_parts().0.data(), live, "{}", algorithm);
        }
    }
}

/// Lower bounds cycling through the quarters of the domain.
fn a_quarter(step: usize) -> Value {
    (step as u64 % 4) * (DOMAIN / 4)
}

/// Writes that arrive before the base is sorted wait in the sidecar, past
/// the merge threshold or not: the merge they get is a merge of sorted runs,
/// it leaves a sorted base, and the lifecycle never goes back further than
/// consolidation.
#[test]
fn a_merge_never_starts_over_an_unsorted_base() {
    for algorithm in Algorithm::ALL {
        let column = random_column(2_000, DOMAIN, 29);
        assert!(!column.is_sorted());
        let mut live = column.data().to_vec();
        live.sort_unstable();
        let mut index =
            MutableIndex::new(Arc::new(column), algorithm, BudgetPolicy::FixedDelta(0.05));
        let mut rng = TestRng::new(31);
        for _ in 0..600 {
            let m = Mutation::Insert(rng.below(DOMAIN));
            assert!(
                index.apply(&m) && oracle_apply(&mut live, &m),
                "{algorithm}"
            );
        }
        let mut previous = index.status().phase;
        for step in 0..10_000 {
            let context = format!("{algorithm}, step {step}");
            let phase = index.status().phase;
            assert!(
                phase >= previous.min(Phase::Consolidation),
                "{context}: {previous:?} -> {phase:?}"
            );
            if index.merges_completed() == 0 && phase < Phase::Consolidation {
                assert!(index.has_pending(), "{context}: the writes must wait");
            }
            if index.merges_completed() > 0 {
                assert!(index.snapshot_parts().0.is_sorted(), "{context}");
            }
            previous = phase;
            assert_exact(&mut index, &live, a_quarter(step), DOMAIN, &context);
            if !index.advance() {
                break;
            }
        }
        assert!(
            index.is_converged() && index.merges_completed() > 0,
            "{}",
            algorithm
        );
        assert_eq!(index.snapshot_parts().0.data(), live, "{}", algorithm);
    }
}
