//! Trajectory pins: for fixed columns and query scripts, every algorithm
//! must walk exactly the recorded `(phase, indexing ops, elements
//! scanned)` sequence and converge on the recorded query, with every
//! answer matching the scan oracle on the way.
//!
//! The constants were recorded at the last commit that still had a scalar
//! twin of every refinement loop; they replaced the tuned-vs-scalar
//! equivalence proptest when the twins were deleted. A change that moves
//! one of them has changed how much indexing a query does — the paper's
//! per-query δ·N promise — and must say so.
//!
//! A second table pins the `(phase, indexing ops)` sequence alone: the
//! indexing schedule, which depends only on the column's values. A kernel
//! that visits a node's values in another order may move `elements
//! scanned` (where a half-finished node's known regions lie) and so the
//! first table, but must leave the second one alone. The three Quicksort
//! rows of the first table were re-recorded when the pivot-tree partition
//! became one predicated pass; the second table did not move.

use std::sync::Arc;

use pi_core::testing::{random_column, ReferenceIndex, TestRng};
use pi_core::{Algorithm, BudgetPolicy, CostConstants, CostModel};
use pi_storage::{Column, Value};

/// One pinned (column, budget, query script) triple.
struct Case {
    name: &'static str,
    values: Vec<Value>,
    domain: u64,
    policy: BudgetPolicy,
    script_seed: u64,
}

fn cases() -> Vec<Case> {
    // Skewed with heavy duplication: 90% of the rows share 1000 values at
    // the bottom of a 40-bit domain, so one radix bucket holds most of the
    // column and is re-partitioned level after level.
    let mut rng = TestRng::new(23);
    let skewed: Vec<Value> = (0..20_000)
        .map(|i| {
            if i % 10 == 9 {
                rng.below(1 << 40)
            } else {
                rng.below(1_000)
            }
        })
        .collect();
    let wide = random_column(30_000, u64::MAX / 2, 31).into_vec();
    let wide_model = CostModel::new(CostConstants::synthetic(), wide.len());
    vec![
        Case {
            name: "uniform",
            values: random_column(20_000, 1 << 20, 11).into_vec(),
            domain: 1 << 20,
            policy: BudgetPolicy::FixedDelta(0.1),
            script_seed: 101,
        },
        Case {
            name: "skewed_duplicates",
            values: skewed,
            domain: 1 << 40,
            policy: BudgetPolicy::FixedDelta(0.07),
            script_seed: 103,
        },
        Case {
            name: "wide_adaptive",
            values: wide,
            domain: u64::MAX / 2,
            policy: BudgetPolicy::adaptive_scan_fraction(&wide_model, 0.2),
            script_seed: 107,
        },
    ]
}

/// The `step`-th query of a script: mostly ranges of up to a tenth of the
/// domain, every fifth a point query on a value the column holds, every
/// 17th the full domain, every 29th inverted (empty).
fn script_query(rng: &mut TestRng, case: &Case, step: u64) -> (Value, Value) {
    let low = rng.below(case.domain);
    let width = rng.below(case.domain / 10);
    if step % 29 == 28 {
        (low.max(1), low.max(1) - 1)
    } else if step % 17 == 16 {
        (0, u64::MAX)
    } else if step % 5 == 4 {
        let v = case.values[(low % case.values.len() as u64) as usize];
        (v, v)
    } else {
        (low, low.saturating_add(width))
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs `algorithm` over `case` to convergence; returns the FNV-1a hashes
/// of the per-query `(phase, indexing_ops, elements_scanned)` and
/// `(phase, indexing_ops)` sequences and the number of queries it took.
fn trajectory(algorithm: Algorithm, case: &Case) -> (u64, u64, u64) {
    let column = Arc::new(Column::from_vec(case.values.clone()));
    let reference = ReferenceIndex::new(&column);
    let mut index = algorithm.build_with_constants(
        Arc::clone(&column),
        case.policy,
        CostConstants::synthetic(),
    );
    let mut rng = TestRng::new(case.script_seed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut schedule = hash;
    let mut queries = 0u64;
    while !index.is_converged() {
        let (low, high) = script_query(&mut rng, case, queries);
        let result = index.query(low, high);
        assert_eq!(
            result.scan_result(),
            reference.query(low, high),
            "{algorithm} on {}: query #{queries} [{low}, {high}]",
            case.name
        );
        for h in [&mut hash, &mut schedule] {
            fnv(h, &[result.phase as u8]);
            fnv(h, &result.indexing_ops.to_le_bytes());
        }
        fnv(&mut hash, &result.elements_scanned.to_le_bytes());
        queries += 1;
        assert!(queries < 100_000, "{algorithm} on {}: stalled", case.name);
    }
    for (low, high) in [(0, u64::MAX), (case.domain / 4, case.domain / 2), (5, 3)] {
        assert_eq!(
            index.query(low, high).scan_result(),
            reference.query(low, high),
            "{algorithm} on {}: converged [{low}, {high}]",
            case.name
        );
    }
    (hash, schedule, queries)
}

/// `(case, algorithm, trajectory hash, queries to converge)`.
const PINS: [(&str, Algorithm, u64, u64); 12] = [
    ("uniform", Algorithm::Quicksort, 0x9056b66a127a8023, 46),
    ("uniform", Algorithm::RadixsortMsd, 0xe4204b2ed48b6f8f, 30),
    ("uniform", Algorithm::Bucketsort, 0x16bf00367aa9a502, 40),
    ("uniform", Algorithm::RadixsortLsd, 0xe48e1b9b3afd2e39, 64),
    (
        "skewed_duplicates",
        Algorithm::Quicksort,
        0x33c8e70d345d4755,
        450,
    ),
    (
        "skewed_duplicates",
        Algorithm::RadixsortMsd,
        0x117c7a5d24c532c9,
        107,
    ),
    (
        "skewed_duplicates",
        Algorithm::Bucketsort,
        0x0561e6d574cd5c79,
        56,
    ),
    (
        "skewed_duplicates",
        Algorithm::RadixsortLsd,
        0xf36d1d9757f9bf23,
        134,
    ),
    (
        "wide_adaptive",
        Algorithm::Quicksort,
        0xea4750f8ea44f7d9,
        31,
    ),
    (
        "wide_adaptive",
        Algorithm::RadixsortMsd,
        0x08afa822db01d863,
        25,
    ),
    (
        "wide_adaptive",
        Algorithm::Bucketsort,
        0xe41b96f877bac3ca,
        83,
    ),
    (
        "wide_adaptive",
        Algorithm::RadixsortLsd,
        0xd39a9b56e4e4cb08,
        146,
    ),
];

/// `(case, algorithm, schedule hash)`: the `(phase, indexing_ops)`
/// sequence of the same runs.
const SCHEDULE_PINS: [(&str, Algorithm, u64); 12] = [
    ("uniform", Algorithm::Quicksort, 0x1238860c27ebcfda),
    ("uniform", Algorithm::RadixsortMsd, 0xca46170f82137bf8),
    ("uniform", Algorithm::Bucketsort, 0x90ceb1bf7fb140ba),
    ("uniform", Algorithm::RadixsortLsd, 0xb3591ed16553e8d9),
    (
        "skewed_duplicates",
        Algorithm::Quicksort,
        0x8ef3c2d36669c69a,
    ),
    (
        "skewed_duplicates",
        Algorithm::RadixsortMsd,
        0xb8229cbcc35332a0,
    ),
    (
        "skewed_duplicates",
        Algorithm::Bucketsort,
        0xf56e8d76f9571bd7,
    ),
    (
        "skewed_duplicates",
        Algorithm::RadixsortLsd,
        0xa25094928ed2e00c,
    ),
    ("wide_adaptive", Algorithm::Quicksort, 0xd17df5ced8466c25),
    ("wide_adaptive", Algorithm::RadixsortMsd, 0x0167dca819aaa7d9),
    ("wide_adaptive", Algorithm::Bucketsort, 0xb30a9942c381b1e2),
    ("wide_adaptive", Algorithm::RadixsortLsd, 0xf742fb31063fbe37),
];

/// Every case × algorithm: `(case, algorithm, trajectory hash, schedule
/// hash, queries to converge)`.
fn observed() -> Vec<(&'static str, Algorithm, u64, u64, u64)> {
    let mut observed = Vec::new();
    for case in &cases() {
        for algorithm in Algorithm::ALL {
            let (hash, schedule, queries) = trajectory(algorithm, case);
            observed.push((case.name, algorithm, hash, schedule, queries));
        }
    }
    observed
}

#[test]
fn refinement_trajectories_match_the_recorded_pins() {
    let observed: Vec<_> = observed()
        .into_iter()
        .map(|(c, a, h, _, q)| (c, a, h, q))
        .collect();
    // On a mismatch the whole observed table is printed, in `PINS` syntax.
    assert_eq!(
        observed,
        PINS,
        "observed:\n{}",
        observed
            .iter()
            .map(|(c, a, h, q)| format!("    (\"{c}\", Algorithm::{a:?}, {h:#018x}, {q}),\n"))
            .collect::<String>()
    );
}

#[test]
fn indexing_schedules_match_the_recorded_pins() {
    let observed: Vec<_> = observed()
        .into_iter()
        .map(|(c, a, _, s, _)| (c, a, s))
        .collect();
    assert_eq!(
        observed,
        SCHEDULE_PINS,
        "observed:\n{}",
        observed
            .iter()
            .map(|(c, a, s)| format!("    (\"{c}\", Algorithm::{a:?}, {s:#018x}),\n"))
            .collect::<String>()
    );
}

/// Degenerate shapes the pinned columns do not hit: every answer must
/// match the oracle at every stage up to convergence.
#[test]
fn degenerate_columns_answer_exactly_until_converged() {
    let shapes: [Vec<Value>; 4] = [
        vec![42],
        vec![7; 500],
        (0..500).collect(),
        (0..500).rev().collect(),
    ];
    for values in shapes {
        let case = Case {
            name: "degenerate",
            values,
            domain: 1_000,
            policy: BudgetPolicy::FixedDelta(0.3),
            script_seed: 109,
        };
        for algorithm in Algorithm::ALL {
            trajectory(algorithm, &case);
        }
    }
}
