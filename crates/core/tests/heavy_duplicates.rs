//! A heavy duplicate value costs one pass, not one pass per level.
//!
//! The paper promises convergence in a number of queries set by δ, not by
//! the data (§3). A column in which one value holds most of the rows
//! breaks that promise when a sorting algorithm re-partitions the value's
//! run level after level. Split keys land on such a value (equi-depth
//! shards, equi-height buckets, a column minimum), so the run sits at a
//! node's edge, and Quicksort, Bucketsort and MSD split it off in one
//! extra pass. These tests count the queries each of the four algorithms
//! needs to converge at a fixed δ on two shapes:
//!
//! * shape A: 99k values, 90% of them the column minimum, the rest spread
//!   above it, and its mirror image, 90% the column maximum. Each
//!   algorithm converges within 2× its count on a uniform column of the
//!   same size; LSD does not look at values, so its count is the uniform
//!   one.
//! * shape B: 125k values at δ = 0.05, 90% of them one 8-byte string code
//!   inside the domain, the rest spread over all of `u64`. A midpoint never
//!   lands on the value, so Quicksort and MSD still pay a pass per level;
//!   the counts are bounds that must not grow.
//!
//! Every answer on the way is checked against a scan. The counts are
//! exact: a fixed δ spends the same operations per query whatever the
//! machine.

use std::sync::Arc;

use pi_core::testing::{random_column, ReferenceIndex, TestRng};
use pi_core::{Algorithm, BudgetPolicy, Phase, RangeIndex};
use pi_storage::{Column, Value};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Quicksort,
    Algorithm::RadixsortMsd,
    Algorithm::Bucketsort,
    Algorithm::RadixsortLsd,
];

/// The u64 of `"customer"`, pibench's hot string prefix.
const CUSTOMER: Value = u64::from_be_bytes(*b"customer");

/// Shape A's domain above the heavy minimum: as wide as string codes get.
const WIDE: u64 = 1 << 62;

/// `n` values, 90% of them `heavy`, the rest drawn by `spread`.
fn heavy_column(
    n: usize,
    heavy: Value,
    seed: u64,
    spread: impl Fn(&mut TestRng) -> Value,
) -> Column {
    let mut rng = TestRng::new(seed);
    Column::from_vec(
        (0..n)
            .map(|_| {
                if rng.below(10) < 9 {
                    heavy
                } else {
                    spread(&mut rng)
                }
            })
            .collect(),
    )
}

/// Shape A: 99k values, 90% equal to the column minimum.
fn shape_a() -> Column {
    heavy_column(99_000, 1_000, 3, |rng| 1_001 + rng.below(WIDE))
}

/// Shape B: 125k values, 90% equal to `CUSTOMER`, inside the domain.
fn shape_b(seed: u64) -> Column {
    heavy_column(125_000, CUSTOMER, seed, TestRng::next_u64)
}

/// Queries to converge, and how many of them ran in each phase
/// (creation, refinement, consolidation), for `algorithm` at
/// `FixedDelta(delta)` over ranges of `width` starting at random values.
fn converge(algorithm: Algorithm, column: Column, delta: f64, width: u64) -> (u64, [u64; 3]) {
    let column = Arc::new(column);
    let reference = ReferenceIndex::new(&column);
    let mut index = algorithm.build(Arc::clone(&column), BudgetPolicy::FixedDelta(delta));
    let mut rng = TestRng::new(17);
    let mut by_phase = [0u64; 3];
    let mut queries = 0u64;
    while !index.is_converged() {
        let low = rng.next_u64();
        let high = low.saturating_add(width);
        let result = index.query(low, high);
        assert_eq!(
            result.scan_result(),
            reference.query(low, high),
            "{algorithm}: query #{queries} [{low}, {high}]"
        );
        let phase = match result.phase {
            Phase::Creation => 0,
            Phase::Refinement => 1,
            _ => 2,
        };
        by_phase[phase] += 1;
        queries += 1;
        assert!(queries < 10_000, "{algorithm}: stalled");
    }
    (queries, by_phase)
}

#[test]
fn a_heavy_minimum_or_maximum_costs_at_most_twice_the_uniform_count() {
    // Shape A mirrored to the top of `u64`: 90% of the values are the
    // column maximum.
    let mirrored = || Column::from_vec(shape_a().data().iter().map(|&v| u64::MAX - v).collect());
    for algorithm in ALGORITHMS {
        let (uniform, _) = converge(algorithm, random_column(99_000, WIDE, 5), 0.25, WIDE / 64);
        for (edge, column) in [("minimum", shape_a()), ("maximum", mirrored())] {
            let (heavy, phases) = converge(algorithm, column, 0.25, WIDE / 64);
            assert!(
                heavy <= 2 * uniform,
                "{algorithm}: {heavy} queries {phases:?} on a 90% {edge}, {uniform} uniform"
            );
            if algorithm == Algorithm::RadixsortLsd {
                assert_eq!(heavy, uniform, "LSD's passes do not depend on the values");
            }
        }
    }
}

#[test]
fn a_heavy_value_inside_the_domain_costs_no_more_than_before() {
    // Queries to converge at seed 1 before the edge counts. A midpoint
    // never lands on the heavy value, so Quicksort's and MSD's counts
    // stay; Bucketsort's equi-height bounds do land on it, so the value
    // is a bucket's minimum and its count falls to within 2× uniform.
    let before = [
        (Algorithm::Quicksort, 1_181),
        (Algorithm::RadixsortMsd, 223),
        (Algorithm::Bucketsort, 1_180),
        (Algorithm::RadixsortLsd, 271),
    ];
    for (algorithm, bound) in before {
        let (heavy, phases) = converge(algorithm, shape_b(1), 0.05, 1 << 50);
        assert!(
            heavy <= bound,
            "{algorithm}: {heavy} queries {phases:?}, {bound} before"
        );
        if algorithm == Algorithm::Bucketsort {
            let uniform = random_column(125_000, u64::MAX, 1);
            let (uniform, _) = converge(algorithm, uniform, 0.05, 1 << 50);
            assert!(heavy <= 2 * uniform, "{heavy} queries, {uniform} uniform");
        }
    }
}
