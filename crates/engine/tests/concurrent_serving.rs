//! Acceptance test for the serving engine: ≥4 concurrent client threads
//! over a ≥4-shard, multi-column table, with results bit-identical to the
//! full-scan baseline and every shard converging.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_engine::{ColumnSpec, Executor, ExecutorConfig, Table, TableQuery};
use pi_storage::scan::scan_range_sum;
use pi_workloads::data::{self, Distribution};
use pi_workloads::multi_client::{self, MultiClientSpec, PatternAssignment};
use pi_workloads::WorkloadSpec;

const ROWS: usize = 60_000;
const SHARDS: usize = 4;
const CLIENTS: usize = 8;

fn serving_table() -> (Arc<Table>, Vec<u64>, Vec<u64>) {
    let uniform = data::generate(Distribution::UniformRandom, ROWS, 21);
    let skewed = data::generate(Distribution::Skewed, ROWS, 22);
    let table = Arc::new(
        Table::builder()
            .column(
                ColumnSpec::new("uniform", uniform.clone())
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .column(
                ColumnSpec::new("skewed", skewed.clone())
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .build(),
    );
    (table, uniform, skewed)
}

#[test]
fn concurrent_clients_over_multi_column_table() {
    let (table, uniform, skewed) = serving_table();
    let executor = Arc::new(Executor::with_config(
        Arc::clone(&table),
        ExecutorConfig {
            worker_threads: 4,
            maintenance_steps: 0,
            background_maintenance: true,
        },
    ));

    // Eight clients, one Figure-6 pattern each, interleaved over both
    // columns in batches.
    let streams = multi_client::generate(&MultiClientSpec {
        clients: CLIENTS,
        base: WorkloadSpec::range(ROWS as u64, 60),
        assignment: PatternAssignment::AllPatterns,
    });

    std::thread::scope(|scope| {
        for stream in &streams {
            let executor = Arc::clone(&executor);
            let uniform = &uniform;
            let skewed = &skewed;
            scope.spawn(move || {
                for chunk in stream.queries.chunks(10) {
                    let batch: Vec<TableQuery> = chunk
                        .iter()
                        .enumerate()
                        .map(|(i, q)| {
                            let column = if (stream.client + i) % 2 == 0 {
                                "uniform"
                            } else {
                                "skewed"
                            };
                            TableQuery::new(column, q.low, q.high)
                        })
                        .collect();
                    let results = executor.execute_batch(&batch).unwrap();
                    for (q, r) in batch.iter().zip(&results) {
                        let base = if q.column == "uniform" {
                            uniform
                        } else {
                            skewed
                        };
                        assert_eq!(
                            *r,
                            scan_range_sum(base, q.low, q.high),
                            "client {} {:?}",
                            stream.client,
                            q
                        );
                    }
                }
            });
        }
    });

    // The serving traffic plus maintenance converges every shard.
    executor.drive_to_convergence(10_000_000);
    assert!(table.is_converged());
    for (name, status) in table.status() {
        assert!(status.converged, "column {name} not converged: {status:?}");
        assert_eq!(status.fraction_indexed, 1.0, "column {name}");
    }
    for name in ["uniform", "skewed"] {
        for (i, status) in table
            .column(name)
            .unwrap()
            .shard_statuses()
            .iter()
            .enumerate()
        {
            assert!(status.converged, "{name} shard {i} not converged");
        }
    }

    // Converged answers are still bit-identical to the full scan.
    let results = executor
        .execute_batch(&[
            TableQuery::new("uniform", 1_000, 30_000),
            TableQuery::new("skewed", 25_000, 35_000),
        ])
        .unwrap();
    assert_eq!(results[0], scan_range_sum(&uniform, 1_000, 30_000));
    assert_eq!(results[1], scan_range_sum(&skewed, 25_000, 35_000));
}

#[test]
fn decision_tree_picks_per_column_algorithms() {
    let (table, _, _) = serving_table();
    // Uniform data → Radixsort MSD; skewed data → Bucketsort (range hint
    // is the default Auto(Unknown) → distribution decides via Figure 11).
    let uniform = table.column("uniform").unwrap();
    let skewed = table.column("skewed").unwrap();
    assert_ne!(
        uniform.algorithm(),
        skewed.algorithm(),
        "distribution estimation should differentiate the columns"
    );
}
