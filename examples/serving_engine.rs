//! Serve a multi-column table from concurrent clients through the full
//! stack: closed-loop clients → `pi-sched` server (bounded admission,
//! backpressure; each batch runs on its client's thread) → engine executor
//! → persistent worker pool → range shards.
//!
//! Builds a two-column table (uniform and skewed data), lets the Figure-11
//! decision tree pick each column's algorithm, then drives eight
//! closed-loop clients — one Figure-6 pattern each — against the server,
//! then converges the shards the clients left unindexed on the main
//! thread with `drive_to_convergence`.
//!
//! ```bash
//! cargo run --release --example serving_engine
//! ```

use std::sync::Arc;
use std::time::Instant;

use progressive_indexes::engine::{ColumnSpec, Executor, Table, TableQuery, TableServer};
use progressive_indexes::index::budget::BudgetPolicy;
use progressive_indexes::sched::{ServerConfig, SubmitError};
use progressive_indexes::workloads::closed_loop::{self, BatchOutcome};
use progressive_indexes::workloads::multi_client::{self, MultiClientSpec, PatternAssignment};
use progressive_indexes::workloads::{data, Distribution, WorkloadSpec};

const ROWS: usize = 500_000;
const SHARDS: usize = 8;
const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 200;

fn main() {
    let uniform = data::generate(Distribution::UniformRandom, ROWS, 1);
    let skewed = data::generate(Distribution::Skewed, ROWS, 2);

    let table = Arc::new(
        Table::builder()
            .column(
                ColumnSpec::new("uniform", uniform)
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .column(
                ColumnSpec::new("skewed", skewed)
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .build(),
    );

    println!("table: {ROWS} rows x 2 columns, {SHARDS} shards each");
    for column in table.columns() {
        println!(
            "  column {:>8}: decision tree chose {}",
            column.name(),
            column.algorithm()
        );
    }

    let executor = Arc::new(Executor::new(Arc::clone(&table)));
    let server = Arc::new(TableServer::new(
        Arc::clone(&executor),
        // Half the clients may run at once, so backpressure shows.
        ServerConfig {
            max_in_flight: CLIENTS / 2,
        },
    ));

    let streams = multi_client::generate(&MultiClientSpec {
        clients: CLIENTS,
        base: WorkloadSpec::range(ROWS as u64, QUERIES_PER_CLIENT),
        assignment: PatternAssignment::AllPatterns,
    });

    // Closed-loop clients: try_submit first (observing backpressure),
    // fall back to the blocking submit at the in-flight bound.
    let start = Instant::now();
    let report = closed_loop::drive(&streams, 20, |client, batch| {
        let column = if client % 2 == 0 { "uniform" } else { "skewed" };
        let queries: Vec<TableQuery> = batch
            .iter()
            .map(|q| TableQuery::new(column, q.low, q.high))
            .collect();
        let ticket = match server.try_submit(queries) {
            Ok(ticket) => ticket,
            Err(rejected) => {
                assert_eq!(
                    rejected.error,
                    SubmitError::QueueFull,
                    "server not shut down"
                );
                // Backpressure observed; this client waits its turn. The
                // refused batch comes back in the error, ready to resubmit.
                server.submit(rejected.requests).expect("server serving")
            }
        };
        ticket.wait().expect("known column");
        BatchOutcome::Served
    });
    let elapsed = start.elapsed();
    let stats = server.stats();
    println!(
        "\nserved {} queries from {CLIENTS} clients in {elapsed:.2?} ({:.0} queries/s)",
        report.served,
        report.queries_per_second()
    );
    println!(
        "  server: {} submissions accepted, {} rejected by backpressure, \
         {} engine batches",
        stats.accepted, stats.rejected, stats.executed_batches
    );

    for (name, status) in table.status() {
        println!(
            "  column {name:>8}: phase {:>13}, {:>5.1}% indexed, converged: {}",
            status.phase.to_string(),
            status.fraction_indexed * 100.0,
            status.converged
        );
    }

    // No client traffic any more: nothing indexes in the background, so
    // the calling thread drives the rest of the table to convergence.
    let drive = Instant::now();
    let steps = executor.drive_to_convergence(usize::MAX);
    println!(
        "\nconverged the table on the main thread: {steps} budgeted steps in {:.2?}",
        drive.elapsed()
    );
    let pool = executor.pool_stats();
    println!(
        "  pool: {} jobs executed ({} caller-helped)",
        pool.total_executed(),
        pool.helped
    );
    for (name, status) in table.status() {
        println!(
            "  column {name:>8}: phase {:>13}, converged: {}",
            status.phase.to_string(),
            status.converged
        );
    }
    server.shutdown();
}
