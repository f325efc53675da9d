//! Trace pins: for fixed columns and query scripts, every non-progressive
//! entry of the registry must answer, count and reorganise exactly as
//! recorded. Per query the trace hashes `(count, sum, indexing_ops,
//! elements_scanned, phase)` of the result and `(phase_progress,
//! converged)` of the status after it; the pins hold the hash and the
//! total `indexing_ops` of every (column, technique) pair.
//!
//! The columns reach every arm of the crack rules:
//!
//! * `uniform` (100k rows): the first piece is above both the 16,384- and
//!   the 32,768-element thresholds, so stochastic cracking takes random
//!   pivots and progressive stochastic cracking runs swap-capped partial
//!   cracks;
//! * `zero_heavy` (half the rows are 0): random pivots land on 0, which
//!   reaches the pivot-0 fallbacks, and adaptive adaptive indexing
//!   re-partitions its oversized first partition until it is left with a
//!   piece of zeros it cannot split;
//! * `tiny` (40 rows): fewer rows than the 64 ways of the coarse granular
//!   index;
//! * `constant` (one value): no partition boundary survives dedup;
//! * `empty`: every query answers nothing and builds nothing.
//!
//! A change that moves a pin has changed what a cracking baseline does per
//! query and must say so.

use std::sync::Arc;

use pi_core::testing::{random_column, ReferenceIndex, TestRng};
use pi_core::{BudgetPolicy, CostConstants, RangeIndex};
use pi_cracking::AlgorithmId;
use pi_storage::{Column, Value};

/// One pinned column with the domain its query script draws from.
struct Case {
    name: &'static str,
    values: Vec<Value>,
    domain: u64,
}

fn cases() -> Vec<Case> {
    let mut rng = TestRng::new(41);
    let zero_heavy: Vec<Value> = (0..100_000)
        .map(|i| match i % 10 {
            0..=4 => 0,
            5..=8 => 1 + rng.below(999),
            _ => rng.below(1 << 20),
        })
        .collect();
    vec![
        Case {
            name: "uniform",
            values: random_column(100_000, 1 << 20, 43).into_vec(),
            domain: 1 << 20,
        },
        Case {
            name: "zero_heavy",
            values: zero_heavy,
            domain: 1 << 20,
        },
        Case {
            name: "tiny",
            values: random_column(40, 1_000, 47).into_vec(),
            domain: 1_000,
        },
        Case {
            name: "constant",
            values: vec![7; 40_000],
            domain: 20,
        },
        Case {
            name: "empty",
            values: Vec::new(),
            domain: 1_000,
        },
    ]
}

/// The query script of `case`: random ranges of up to a tenth of the
/// domain, a sequential sweep over it in twenty steps, point queries on
/// values the column holds, one query up to `u64::MAX`, one inverted
/// range, then random ranges again.
fn script(case: &Case) -> Vec<(Value, Value)> {
    let mut rng = TestRng::new(53);
    let mut random_ranges = |count: usize, queries: &mut Vec<(Value, Value)>| {
        for _ in 0..count {
            let low = rng.below(case.domain);
            queries.push((low, low + rng.below(case.domain / 10 + 1)));
        }
    };
    let mut queries = Vec::new();
    random_ranges(30, &mut queries);
    let step = case.domain / 20;
    queries.extend((0..20).map(|i| (i * step, (i + 1) * step - 1)));
    for i in 0..10u64 {
        let value = match case.values.len() {
            0 => i,
            n => case.values[(i as usize * 7_919) % n],
        };
        queries.push((value, value));
    }
    queries.push((case.domain / 3, u64::MAX));
    queries.push((case.domain / 2 + 1, case.domain / 2));
    random_ranges(20, &mut queries);
    queries
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs `technique` over `case`'s script, checking every answer; returns
/// the trace hash and the total `indexing_ops`.
fn trace(technique: AlgorithmId, case: &Case) -> (u64, u64) {
    let column = Arc::new(Column::from_vec(case.values.clone()));
    let reference = ReferenceIndex::new(&column);
    let mut index = technique.build(
        Arc::clone(&column),
        BudgetPolicy::FixedDelta(0.25),
        CostConstants::synthetic(),
    );
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut total_ops = 0u64;
    for (q, (low, high)) in script(case).into_iter().enumerate() {
        let result = index.query(low, high);
        assert_eq!(
            result.scan_result(),
            reference.query(low, high),
            "{technique} on {}: query #{q} [{low}, {high}]",
            case.name
        );
        let status = index.status();
        fnv(&mut hash, &result.count.to_le_bytes());
        fnv(&mut hash, &result.sum.to_le_bytes());
        fnv(&mut hash, &result.indexing_ops.to_le_bytes());
        fnv(&mut hash, &result.elements_scanned.to_le_bytes());
        fnv(&mut hash, &[result.phase as u8]);
        fnv(&mut hash, &status.phase_progress.to_bits().to_le_bytes());
        fnv(&mut hash, &[status.converged as u8]);
        total_ops += result.indexing_ops;
    }
    (hash, total_ops)
}

/// The registry's entries that are not progressive indexes.
fn baselines() -> impl Iterator<Item = AlgorithmId> {
    AlgorithmId::ALL
        .into_iter()
        .filter(|a| !matches!(a, AlgorithmId::Progressive(_)))
}

/// `(case, technique, trace hash, total indexing ops)`.
const PINS: [(&str, AlgorithmId, u64, u64); 35] = [
    ("uniform", AlgorithmId::FullScan, 0xdd1999aea3e63e7b, 0),
    (
        "uniform",
        AlgorithmId::FullIndex,
        0x15e532c2ba0735a8,
        101588,
    ),
    (
        "uniform",
        AlgorithmId::StandardCracking,
        0x39691360f3b10e85,
        142935,
    ),
    (
        "uniform",
        AlgorithmId::StochasticCracking,
        0xc167d24d400e3f84,
        146873,
    ),
    (
        "uniform",
        AlgorithmId::ProgressiveStochasticCracking,
        0x2a0a8299ce02127c,
        143993,
    ),
    (
        "uniform",
        AlgorithmId::CoarseGranularIndex,
        0xf5df77589e932322,
        124611,
    ),
    (
        "uniform",
        AlgorithmId::AdaptiveAdaptive,
        0xf5df77589e932322,
        124611,
    ),
    ("zero_heavy", AlgorithmId::FullScan, 0xa9b85a8ad69454fd, 0),
    (
        "zero_heavy",
        AlgorithmId::FullIndex,
        0x89431ee1d86b08ac,
        101588,
    ),
    (
        "zero_heavy",
        AlgorithmId::StandardCracking,
        0x1a81c352fff823ca,
        63213,
    ),
    (
        "zero_heavy",
        AlgorithmId::StochasticCracking,
        0x488c2740b1d6c3f7,
        64866,
    ),
    (
        "zero_heavy",
        AlgorithmId::ProgressiveStochasticCracking,
        0x005f704823135a71,
        62454,
    ),
    (
        "zero_heavy",
        AlgorithmId::CoarseGranularIndex,
        0x9bf527f5835a58f2,
        142890,
    ),
    (
        "zero_heavy",
        AlgorithmId::AdaptiveAdaptive,
        0x82e1ed04a6520837,
        556895,
    ),
    ("tiny", AlgorithmId::FullScan, 0x320b9462d0eb25e9, 0),
    ("tiny", AlgorithmId::FullIndex, 0x569bf6fbc6efddfc, 40),
    (
        "tiny",
        AlgorithmId::StandardCracking,
        0x56f982671e40368d,
        46,
    ),
    (
        "tiny",
        AlgorithmId::StochasticCracking,
        0x56f982671e40368d,
        46,
    ),
    (
        "tiny",
        AlgorithmId::ProgressiveStochasticCracking,
        0x56f982671e40368d,
        46,
    ),
    (
        "tiny",
        AlgorithmId::CoarseGranularIndex,
        0x8142af8942fccf64,
        47,
    ),
    (
        "tiny",
        AlgorithmId::AdaptiveAdaptive,
        0x6f1381e0b2dd80fc,
        44,
    ),
    ("constant", AlgorithmId::FullScan, 0xf6add689c266f199, 0),
    (
        "constant",
        AlgorithmId::FullIndex,
        0xafda1f793be3d864,
        40635,
    ),
    (
        "constant",
        AlgorithmId::StandardCracking,
        0x1834f7a705eb0fad,
        0,
    ),
    (
        "constant",
        AlgorithmId::StochasticCracking,
        0x4ac41ea705e5032d,
        0,
    ),
    (
        "constant",
        AlgorithmId::ProgressiveStochasticCracking,
        0x4ac41ea705e5032d,
        0,
    ),
    (
        "constant",
        AlgorithmId::CoarseGranularIndex,
        0x1834f7a705eb0fad,
        0,
    ),
    (
        "constant",
        AlgorithmId::AdaptiveAdaptive,
        0xe7ab12075d339bac,
        120000,
    ),
    ("empty", AlgorithmId::FullScan, 0x8f3d7cdd611b53f5, 0),
    ("empty", AlgorithmId::FullIndex, 0x223a779ce5044e35, 0),
    (
        "empty",
        AlgorithmId::StandardCracking,
        0x8f3d7cdd611b53f5,
        0,
    ),
    (
        "empty",
        AlgorithmId::StochasticCracking,
        0x8f3d7cdd611b53f5,
        0,
    ),
    (
        "empty",
        AlgorithmId::ProgressiveStochasticCracking,
        0x8f3d7cdd611b53f5,
        0,
    ),
    (
        "empty",
        AlgorithmId::CoarseGranularIndex,
        0x8f3d7cdd611b53f5,
        0,
    ),
    (
        "empty",
        AlgorithmId::AdaptiveAdaptive,
        0x8f3d7cdd611b53f5,
        0,
    ),
];

#[test]
fn baseline_traces_match_the_recorded_pins() {
    let mut observed = Vec::new();
    for case in &cases() {
        for technique in baselines() {
            let (hash, ops) = trace(technique, case);
            observed.push((case.name, technique, hash, ops));
        }
    }
    // On a mismatch the whole observed table is printed, in `PINS` syntax.
    assert_eq!(
        observed,
        PINS,
        "observed:\n{}",
        observed
            .iter()
            .map(|(c, a, h, o)| format!("    (\"{c}\", AlgorithmId::{a:?}, {h:#018x}, {o}),\n"))
            .collect::<String>()
    );
}
