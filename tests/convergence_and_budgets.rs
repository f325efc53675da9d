//! Convergence and budget-policy tests for the progressive indexing
//! algorithms: every algorithm must converge deterministically under every
//! budget policy, keep answering correctly after convergence, and the
//! phase lifecycle must only ever move forward.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::{CostConstants, CostModel};
use pi_core::result::Phase;
use pi_core::testing::{random_column, ReferenceIndex, TestRng};
use pi_core::RangeIndex;
use pi_cracking::AlgorithmId;
use pi_storage::Column;

const N: usize = 25_000;
const DOMAIN: u64 = 50_000;

fn policies(n: usize) -> Vec<(&'static str, BudgetPolicy)> {
    let model = CostModel::new(CostConstants::synthetic(), n);
    vec![
        ("fixed-delta-0.1", BudgetPolicy::FixedDelta(0.1)),
        ("fixed-delta-1.0", BudgetPolicy::FixedDelta(1.0)),
        (
            "fixed-budget-0.2-scan",
            BudgetPolicy::fixed_scan_fraction(&model, 0.2),
        ),
        (
            "adaptive-0.2-scan",
            BudgetPolicy::adaptive_scan_fraction(&model, 0.2),
        ),
    ]
}

fn drive_to_convergence(
    index: &mut Box<dyn RangeIndex>,
    reference: &ReferenceIndex,
    context: &str,
) -> usize {
    let mut rng = TestRng::new(0xD1CE);
    let max_queries = 20_000;
    for q in 1..=max_queries {
        let low = rng.below(DOMAIN);
        let high = low + rng.below(DOMAIN / 10).max(1);
        let got = index.query(low, high);
        let expected = reference.query(low, high);
        assert_eq!(
            (got.sum, got.count),
            (expected.sum, expected.count),
            "{context}: query #{q} [{low}, {high}]"
        );
        if index.is_converged() {
            return q;
        }
    }
    panic!("{context}: did not converge within {max_queries} queries");
}

#[test]
fn every_progressive_algorithm_converges_under_every_policy() {
    let column = Arc::new(random_column(N, DOMAIN, 0xABCD));
    let reference = ReferenceIndex::new(&column);
    for algorithm in AlgorithmId::PROGRESSIVE {
        for (policy_name, policy) in policies(N) {
            let mut index =
                algorithm.build(Arc::clone(&column), policy, CostConstants::synthetic());
            let queries = drive_to_convergence(
                &mut index,
                &reference,
                &format!("{algorithm}/{policy_name}"),
            );
            assert!(queries >= 1);

            // Converged indexes must stay correct and report a stable
            // status.
            let status = index.status();
            assert_eq!(status.phase, Phase::Converged, "{algorithm}/{policy_name}");
            assert_eq!(status.fraction_indexed, 1.0, "{algorithm}/{policy_name}");
            let expected = reference.query(1_000, 9_999);
            let got = index.query(1_000, 9_999);
            assert_eq!((got.sum, got.count), (expected.sum, expected.count));
        }
    }
}

#[test]
fn higher_fixed_delta_never_converges_later() {
    let column = Arc::new(random_column(N, DOMAIN, 0xBEEF));
    let reference = ReferenceIndex::new(&column);
    for algorithm in AlgorithmId::PROGRESSIVE {
        let mut convergence = Vec::new();
        for delta in [0.05, 0.25, 1.0] {
            let mut index = algorithm.build(
                Arc::clone(&column),
                BudgetPolicy::FixedDelta(delta),
                CostConstants::synthetic(),
            );
            convergence.push(drive_to_convergence(
                &mut index,
                &reference,
                &format!("{algorithm}/delta-{delta}"),
            ));
        }
        assert!(
            convergence[0] >= convergence[1] && convergence[1] >= convergence[2],
            "{algorithm}: convergence counts {convergence:?} not monotone in δ"
        );
    }
}

#[test]
fn phases_only_move_forward() {
    let column = Arc::new(random_column(N, DOMAIN, 0xCAFE));
    for algorithm in AlgorithmId::PROGRESSIVE {
        let mut index = algorithm.build(
            Arc::clone(&column),
            BudgetPolicy::FixedDelta(0.2),
            CostConstants::synthetic(),
        );
        let mut rng = TestRng::new(3);
        let mut last_phase = Phase::Creation;
        for _ in 0..2_000 {
            let low = rng.below(DOMAIN);
            let result = index.query(low, low + 500);
            assert!(
                result.phase >= last_phase,
                "{algorithm}: phase moved backwards from {last_phase} to {}",
                result.phase
            );
            last_phase = result.phase;
            if index.is_converged() {
                break;
            }
        }
        assert!(index.is_converged(), "{algorithm} should converge");
    }
}

#[test]
fn convergence_is_deterministic_for_identical_inputs() {
    let column = Arc::new(random_column(N, DOMAIN, 0xF00D));
    for algorithm in AlgorithmId::PROGRESSIVE {
        let run = |col: Arc<Column>| {
            let mut index = algorithm.build(
                col,
                BudgetPolicy::FixedDelta(0.3),
                CostConstants::synthetic(),
            );
            let mut rng = TestRng::new(77);
            let mut count = 0usize;
            while !index.is_converged() {
                let low = rng.below(DOMAIN);
                index.query(low, low + 1_000);
                count += 1;
                assert!(count < 10_000);
            }
            count
        };
        let a = run(Arc::clone(&column));
        let b = run(Arc::clone(&column));
        assert_eq!(
            a, b,
            "{algorithm}: convergence query count must be deterministic"
        );
    }
}

#[test]
fn empty_columns_start_converged_and_answer_empty() {
    let column = Arc::new(Column::from_vec(Vec::new()));
    for algorithm in AlgorithmId::PROGRESSIVE {
        let mut index = algorithm.build(
            Arc::clone(&column),
            BudgetPolicy::FixedDelta(0.5),
            CostConstants::synthetic(),
        );
        let result = index.query(0, u64::MAX);
        assert_eq!(result.count, 0, "{algorithm}");
        assert_eq!(result.sum, 0, "{algorithm}");
        assert!(index.is_converged(), "{algorithm}");
    }
}

#[test]
fn adaptive_budget_keeps_indexing_ops_bounded_per_query() {
    // Under the adaptive budget, per-query indexing work is bounded by
    // δ ≤ 1, i.e. never more than one full pass of the phase's unit work.
    let column = Arc::new(random_column(N, DOMAIN, 0x1234));
    let model = CostModel::new(CostConstants::synthetic(), N);
    for algorithm in AlgorithmId::PROGRESSIVE {
        let mut index = algorithm.build(
            Arc::clone(&column),
            BudgetPolicy::adaptive_scan_fraction(&model, 0.2),
            CostConstants::synthetic(),
        );
        let mut rng = TestRng::new(5);
        for _ in 0..200 {
            let low = rng.below(DOMAIN);
            let result = index.query(low, low + 2_000);
            assert!(
                result.delta <= 1.0 + 1e-9,
                "{algorithm}: delta {} out of range",
                result.delta
            );
            // Indexing work per query can never exceed a small multiple of
            // the column size (one full pass of creation or refinement).
            assert!(
                result.indexing_ops <= 4 * N as u64,
                "{algorithm}: {} indexing ops in one query",
                result.indexing_ops
            );
            if index.is_converged() {
                break;
            }
        }
    }
}
