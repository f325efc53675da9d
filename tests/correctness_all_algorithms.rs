//! Workspace-level correctness tests: every indexing technique — the four
//! progressive indexes, the five adaptive baselines and the two reference
//! points — must return exactly the same answers as a scan-based oracle on
//! every workload pattern and data distribution.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::CostConstants;
use pi_core::testing::ReferenceIndex;
use pi_cracking::AlgorithmId;
use pi_storage::Column;
use pi_workloads::skyserver::{self, SkyServerConfig};
use pi_workloads::{data, patterns, Pattern, RangeQuery, WorkloadSpec};

const N: usize = 30_000;
const QUERIES: usize = 60;

fn check_workload(column: Arc<Column>, queries: &[RangeQuery], context: &str) {
    let reference = ReferenceIndex::new(&column);
    for algorithm in AlgorithmId::ALL {
        let mut index = algorithm.build(
            Arc::clone(&column),
            BudgetPolicy::FixedDelta(0.25),
            CostConstants::synthetic(),
        );
        for (i, q) in queries.iter().enumerate() {
            let got = index.query(q.low, q.high);
            let expected = reference.query(q.low, q.high);
            assert_eq!(
                (got.sum, got.count),
                (expected.sum, expected.count),
                "{context}/{algorithm}: query #{i} [{}, {}]",
                q.low,
                q.high
            );
        }
    }
}

#[test]
fn all_algorithms_agree_on_uniform_data_all_patterns() {
    let column = Arc::new(Column::from_vec(data::uniform_random(N, 11)));
    for pattern in Pattern::ALL {
        let queries = patterns::generate(pattern, &WorkloadSpec::range(N as u64, QUERIES));
        check_workload(Arc::clone(&column), &queries, &format!("uniform/{pattern}"));
    }
}

#[test]
fn all_algorithms_agree_on_skewed_data_all_patterns() {
    let column = Arc::new(Column::from_vec(data::skewed(N, 12)));
    for pattern in Pattern::ALL {
        let queries = patterns::generate(pattern, &WorkloadSpec::range(N as u64, QUERIES));
        check_workload(Arc::clone(&column), &queries, &format!("skewed/{pattern}"));
    }
}

#[test]
fn all_algorithms_agree_on_point_queries() {
    let column = Arc::new(Column::from_vec(data::uniform_random(N, 13)));
    for pattern in Pattern::POINT_QUERY_PATTERNS {
        let queries = patterns::generate(pattern, &WorkloadSpec::point(N as u64, QUERIES));
        check_workload(Arc::clone(&column), &queries, &format!("point/{pattern}"));
    }
}

#[test]
fn all_algorithms_agree_on_the_skyserver_workload() {
    let generated = skyserver::generate(SkyServerConfig {
        column_size: N,
        query_count: QUERIES,
        domain: N as u64,
        ..SkyServerConfig::tiny()
    });
    let column = Arc::new(Column::from_vec(generated.data));
    check_workload(column, &generated.queries, "skyserver");
}

#[test]
fn all_algorithms_agree_on_duplicate_heavy_data() {
    // Only 16 distinct values: exercises the duplicate-handling paths of
    // pivots, bucket boundaries and crack positions.
    let values: Vec<u64> = (0..N as u64).map(|i| i % 16).collect();
    let column = Arc::new(Column::from_vec(values));
    let queries: Vec<RangeQuery> = (0..16u64)
        .flat_map(|v| [RangeQuery::new(v, v), RangeQuery::new(v, (v + 3).min(15))])
        .collect();
    check_workload(column, &queries, "duplicates");
}

#[test]
fn all_algorithms_handle_extreme_and_empty_ranges() {
    let column = Arc::new(Column::from_vec(data::uniform_random(5_000, 14)));
    let reference = ReferenceIndex::new(&column);
    let edge_queries = [
        RangeQuery::new(0, 0),
        RangeQuery::new(0, u64::MAX),
        RangeQuery::new(4_999, 4_999),
        RangeQuery::new(5_000, u64::MAX), // nothing qualifies
        RangeQuery::new(2_500, 2_499),    // reversed → empty
    ];
    for algorithm in AlgorithmId::ALL {
        let mut index = algorithm.build(
            Arc::clone(&column),
            BudgetPolicy::FixedDelta(1.0),
            CostConstants::synthetic(),
        );
        for q in &edge_queries {
            let got = index.query(q.low, q.high);
            let expected = if q.low > q.high {
                pi_storage::ScanResult::EMPTY
            } else {
                reference.query(q.low, q.high)
            };
            assert_eq!(
                (got.sum, got.count),
                (expected.sum, expected.count),
                "{algorithm}: [{}, {}]",
                q.low,
                q.high
            );
        }
    }
}

#[test]
fn all_algorithms_handle_single_element_and_constant_columns() {
    for values in [vec![7u64], vec![42u64; 1_000]] {
        let column = Arc::new(Column::from_vec(values));
        let reference = ReferenceIndex::new(&column);
        for algorithm in AlgorithmId::ALL {
            let mut index = algorithm.build(
                Arc::clone(&column),
                BudgetPolicy::FixedDelta(0.5),
                CostConstants::synthetic(),
            );
            for (low, high) in [(0, 100), (7, 7), (42, 42), (43, 1_000)] {
                let got = index.query(low, high);
                let expected = reference.query(low, high);
                assert_eq!(
                    (got.sum, got.count),
                    (expected.sum, expected.count),
                    "{algorithm} on column of len {}: [{low}, {high}]",
                    column.len()
                );
            }
        }
    }
}
