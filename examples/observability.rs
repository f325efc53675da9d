//! Live convergence / latency dashboard over a skewed-string serving run.
//!
//! Builds a `TypedTable<String>` whose rows share a hot 10-byte prefix
//! (the tie-break-heavy workload), wires one `MetricsRegistry` through
//! the whole stack — table shards, executor, worker pool — and drives
//! closed-loop clients against it in rounds, printing a dashboard line
//! per round straight from `MetricsSnapshot`: per-shard ρ (fraction
//! indexed), per-phase latencies, tie-break pressure, and the cost
//! model's prediction error.
//!
//! ```bash
//! cargo run --release --example observability
//! ```
//!
//! With `--no-default-features` the clocks are compiled out: counters,
//! gauges and size histograms still read, all `*_ns` histograms stay
//! empty.

use std::sync::Arc;
use std::time::Instant;

use progressive_indexes::engine::typed::{TypedColumnSpec, TypedExecutor, TypedQuery, TypedTable};
use progressive_indexes::engine::ExecutorConfig;
use progressive_indexes::index::budget::BudgetPolicy;
use progressive_indexes::obs::{MetricsRegistry, MetricsSnapshot};
use progressive_indexes::workloads::closed_loop::{self, BatchOutcome};
use progressive_indexes::workloads::{domains, Distribution};

const ROWS: usize = 300_000;
const SHARDS: usize = 8;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 400;
const BATCH: usize = 8;
const ROUNDS: usize = 10;

/// A nanosecond reading as a human-friendly duration.
fn ns(v: u64) -> String {
    format!("{:.1?}", std::time::Duration::from_nanos(v))
}

/// Mean of the per-shard ρ gauges `engine.rho.s.*`.
fn mean_rho(snap: &MetricsSnapshot) -> f64 {
    let (mut sum, mut n) = (0.0, 0);
    for (_, rho) in snap.gauges_with_prefix("engine.rho.s.") {
        sum += rho;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn main() {
    // One registry for the whole stack: the table's shards feed
    // `engine.rho.*` / `core.*`, the executor feeds `executor.*`, and
    // the worker pool it spawns feeds `sched.pool.*`.
    let registry = Arc::new(MetricsRegistry::new());
    let keys = domains::string_data(Distribution::Skewed, ROWS, 7);
    let table = Arc::new(
        TypedTable::builder()
            .metrics(Arc::clone(&registry))
            .column(
                TypedColumnSpec::new("s", keys)
                    // A small per-query budget and no idle-cycle
                    // maintenance keep refinement query-driven, so the
                    // dashboard shows ρ̄ actually climbing round by round
                    // instead of background idle cycles finishing the
                    // index before the first line prints.
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.002)),
            )
            .build(),
    );
    let executor = Arc::new(TypedExecutor::with_metrics(
        Arc::clone(&table),
        ExecutorConfig {
            background_maintenance: false,
            ..ExecutorConfig::default()
        },
        Arc::clone(&registry),
    ));
    println!(
        "table: {ROWS} skewed strings (hot shared prefix), {SHARDS} shards, \
         {CLIENTS} closed-loop clients x {QUERIES_PER_CLIENT} queries"
    );

    let streams: Vec<Vec<(String, String)>> = (0..CLIENTS)
        .map(|c| domains::string_ranges(Distribution::Skewed, QUERIES_PER_CLIENT, 100 + c as u64))
        .collect();

    // Serve in rounds, printing one dashboard line per round — the
    // convergence trace: ρ̄ climbs, scan latencies fall, tie-break hits
    // accumulate as boundary queries land inside the hot prefix.
    println!("\n round    ρ̄      q/s   tie_hits  scan p95  batch p99");
    let per_round = QUERIES_PER_CLIENT / ROUNDS;
    let start = Instant::now();
    for round in 0..ROUNDS {
        let window = round * per_round..(round + 1) * per_round;
        let items: Vec<(usize, &[(String, String)])> = streams
            .iter()
            .enumerate()
            .map(|(client, stream)| (client, &stream[window.clone()]))
            .collect();
        let report = closed_loop::drive_items(&items, BATCH, |_client, batch| {
            let queries: Vec<TypedQuery<String>> = batch
                .iter()
                .map(|(low, high)| TypedQuery::new("s", low.clone(), high.clone()))
                .collect();
            executor.execute_batch(&queries).expect("known column");
            BatchOutcome::Served
        });
        let snap = registry.snapshot();
        let scan = snap.histogram("executor.phase.scan_ns");
        println!(
            " {:>5}  {:>5.3}  {:>7.0}  {:>8}  {:>8}  {:>9}",
            round + 1,
            mean_rho(&snap),
            report.queries_per_second(),
            snap.counter("engine.tie_break_hits").unwrap_or(0),
            ns(scan.map(|h| h.p95()).unwrap_or(0)),
            format!("{:.1?}", report.latency.p99),
        );
    }
    println!(" serving took {:.2?}", start.elapsed());

    // No more client traffic: finish refinement in the foreground and
    // watch ρ̄ reach 1.0.
    while !table.inner().is_converged() {
        executor.drive_to_convergence(20_000);
        println!(" converging: ρ̄ = {:.3}", mean_rho(&registry.snapshot()));
    }

    let snap = registry.snapshot();
    println!("\nfinal snapshot:");
    print!("  ρ per shard:");
    for (_, rho) in snap.gauges_with_prefix("engine.rho.s.") {
        print!(" {rho:.2}");
    }
    println!();
    println!(
        "  executor: {} batches / {} queries, {} digest-cache hits, {} converged shards reopened by writes",
        snap.counter("executor.batches").unwrap_or(0),
        snap.counter("executor.queries").unwrap_or(0),
        snap.counter("executor.digest_hits").unwrap_or(0),
        snap.counter("executor.shards_reopened").unwrap_or(0),
    );
    println!(
        "  engine:   {} string tie-break hits at code boundaries",
        snap.counter("engine.tie_break_hits").unwrap_or(0)
    );
    println!(
        "  core:     {} refinement steps, {} merge steps, {} bytes moved (δ·N per query)",
        snap.counter("core.s.refine_steps").unwrap_or(0),
        snap.counter("core.s.merge_steps").unwrap_or(0),
        snap.counter("core.s.bytes_moved").unwrap_or(0),
    );
    println!(
        "  pool:     {} jobs, {} caller-helped, {} idle maintenance cycles",
        snap.counter("sched.pool.jobs").unwrap_or(0),
        snap.counter("sched.pool.helped").unwrap_or(0),
        snap.counter("sched.pool.idle_cycles").unwrap_or(0),
    );
    println!("  phase timings (count / p50 / p95 / p99):");
    for phase in ["decompose", "scan", "merge"] {
        if let Some(h) = snap.histogram(&format!("executor.phase.{phase}_ns")) {
            println!(
                "    {:>9}: {:>6} / {:>8} / {:>8} / {:>8}",
                phase,
                h.count,
                ns(h.p50()),
                ns(h.p95()),
                ns(h.p99()),
            );
        }
    }
    if let Some(err) = snap.histogram("core.s.cost_error_pm") {
        println!(
            "  cost model: |predicted − actual| / budget = {:.1}‰ mean, {}‰ p95 ({} samples)",
            err.mean(),
            err.p95(),
            err.count,
        );
    }
}
