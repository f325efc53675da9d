//! Acceptance tests for the scheduler-backed serving stack: a
//! `pi_sched::Server` front-end over the engine's `Executor`, driven by
//! the closed-loop multi-client driver.
//!
//! * answers through the server are bit-identical to the full-scan oracle,
//! * graceful shutdown resolves every in-flight ticket,
//! * an idle server over a default executor indexes nothing, and
//! * the shard-parallel scaling regression: at fixed workload, 8 shards
//!   must not serve slower than 1 shard now that dispatch runs on a
//!   persistent pool.

use std::sync::Arc;
use std::time::Duration;

use pi_core::budget::BudgetPolicy;
use pi_engine::{ColumnSpec, Executor, ExecutorConfig, Table, TableQuery, TableServer};
use pi_obs::MetricsRegistry;
use pi_sched::ServerConfig;
use pi_storage::scan::scan_range_sum;
use pi_workloads::closed_loop::{self, BatchOutcome};
use pi_workloads::data::{self, Distribution};
use pi_workloads::multi_client::{self, MultiClientSpec, PatternAssignment};
use pi_workloads::WorkloadSpec;

fn serving_stack(
    values: Vec<u64>,
    shards: usize,
    config: ExecutorConfig,
) -> (Arc<Table>, Arc<TableServer>) {
    let table = Arc::new(
        Table::builder()
            .column(
                ColumnSpec::new("a", values)
                    .with_shards(shards)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .build(),
    );
    let executor = Arc::new(Executor::with_config(Arc::clone(&table), config));
    let server = Arc::new(TableServer::new(executor, ServerConfig::default()));
    (table, server)
}

#[test]
fn served_answers_match_full_scan_oracle() {
    const ROWS: usize = 40_000;
    let values = data::generate(Distribution::UniformRandom, ROWS, 41);
    let oracle = values.clone();
    let (_table, server) = serving_stack(values, 4, ExecutorConfig::default());

    let streams = multi_client::generate(&MultiClientSpec {
        clients: 4,
        base: WorkloadSpec::range(ROWS as u64, 40),
        assignment: PatternAssignment::AllPatterns,
    });
    let oracle = &oracle;
    let report = closed_loop::drive(&streams, 10, |client, batch| {
        let queries: Vec<TableQuery> = batch
            .iter()
            .map(|q| TableQuery::new("a", q.low, q.high))
            .collect();
        let results = server
            .submit(queries)
            .expect("server accepting")
            .wait()
            .expect("known column");
        for (q, r) in batch.iter().zip(&results) {
            assert_eq!(
                *r,
                scan_range_sum(oracle, q.low, q.high),
                "client {client} [{}, {}]",
                q.low,
                q.high
            );
        }
        BatchOutcome::Served
    });
    assert_eq!(report.served, 4 * 40);
    assert_eq!(report.rejected, 0);
    let stats = server.stats();
    assert_eq!(stats.accepted, 16, "4 clients x 4 batches of 10");
    assert_eq!(stats.served_requests, 160);
    server.shutdown();
}

#[test]
fn graceful_shutdown_resolves_inflight_engine_batches() {
    const ROWS: usize = 30_000;
    let values = data::generate(Distribution::UniformRandom, ROWS, 43);
    let oracle = values.clone();
    let (_table, server) = serving_stack(values, 4, ExecutorConfig::default());

    // Submit a pile of batches, then shut down from another thread while
    // they are queued/executing. Every ticket must resolve exactly.
    let tickets: Vec<_> = (0..20)
        .map(|i| {
            let low = (i * 997) % 20_000;
            server
                .submit(vec![TableQuery::new("a", low, low + 5_000)])
                .expect("accepting")
        })
        .collect();
    let shutter = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.shutdown())
    };
    for (i, ticket) in tickets.into_iter().enumerate() {
        let i = i as u64;
        let low = (i * 997) % 20_000;
        let results = ticket.wait().expect("known column");
        assert_eq!(results, vec![scan_range_sum(&oracle, low, low + 5_000)]);
    }
    shutter.join().unwrap();
    assert!(matches!(
        server.try_submit(vec![TableQuery::new("a", 0, 1)]),
        Err(pi_sched::TrySubmitError {
            error: pi_sched::SubmitError::ShutDown,
            ..
        })
    ));
}

/// Nothing indexes while no call is made: neither the executor's pool on
/// its default configuration nor the server in front of it, so an idle,
/// unconverged table stays exactly where its last batch left it.
#[test]
fn an_idle_server_leaves_the_table_alone() {
    let registry = Arc::new(MetricsRegistry::new());
    let table = Arc::new(
        Table::builder()
            .metrics(Arc::clone(&registry))
            .column(
                ColumnSpec::new(
                    "a",
                    data::generate(Distribution::UniformRandom, 200_000, 53),
                )
                .with_shards(8)
                .with_policy(BudgetPolicy::FixedDelta(0.05)),
            )
            .build(),
    );
    let executor = Arc::new(Executor::with_config(
        Arc::clone(&table),
        ExecutorConfig::with_workers(2),
    ));
    let server = TableServer::new(executor, ServerConfig::default());
    server
        .submit(vec![TableQuery::new("a", 0, 100_000)])
        .unwrap()
        .wait()
        .unwrap();
    let column = table.column("a").unwrap();
    let steps = || registry.snapshot().counter("core.a.refine_steps");
    let (statuses, refined) = (column.shard_statuses(), steps());
    assert!(!table.is_converged());
    // Time for an idle-time maintainer to act, were there one.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(column.shard_statuses(), statuses);
    assert_eq!(steps(), refined);
    server.shutdown();
}

/// Regression guard for the scaling bug this PR fixes: with per-batch
/// scoped-thread spawning, 1 shard used to *beat* 8 shards at bench scale.
/// On the persistent pool, 8 shards must serve the fixed workload at
/// least as fast as 1 shard (a small tolerance absorbs timer noise on a
/// loaded CI host; best-of-three runs each).
#[test]
fn eight_shards_serve_no_slower_than_one_shard() {
    const ROWS: usize = 100_000;
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 50;

    let run = |shards: usize| -> Duration {
        let values = data::generate(Distribution::UniformRandom, ROWS, 31);
        let (_table, server) = serving_stack(values, shards, ExecutorConfig::default());
        let streams = multi_client::generate(&MultiClientSpec {
            clients: CLIENTS,
            base: WorkloadSpec::range(ROWS as u64, QUERIES_PER_CLIENT),
            assignment: PatternAssignment::AllPatterns,
        });
        let report = closed_loop::drive(&streams, 10, |_client, batch| {
            let queries: Vec<TableQuery> = batch
                .iter()
                .map(|q| TableQuery::new("a", q.low, q.high))
                .collect();
            server
                .submit(queries)
                .expect("accepting")
                .wait()
                .expect("known column");
            BatchOutcome::Served
        });
        assert_eq!(report.served, CLIENTS * QUERIES_PER_CLIENT);
        server.shutdown();
        report.elapsed
    };

    let one = run(1).min(run(1)).min(run(1));
    let eight = run(8).min(run(8)).min(run(8));
    assert!(
        eight <= one.mul_f64(1.25),
        "8 shards ({eight:?}) slower than 1 shard ({one:?}): shard-parallel scaling regressed"
    );
}
