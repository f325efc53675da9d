//! Whole-stack observability acceptance: one `MetricsRegistry` wired
//! through table shards, executor, worker pool and server front-end, a
//! skewed-string serving run on top, and assertions that the snapshot
//! carries the convergence story — non-zero ρ per shard, tie-break hits,
//! per-phase timings and cost-model error. Clock-dependent assertions
//! are gated on `pi_obs::ENABLED`, so the suite passes on both feature
//! legs (`obs` on: histograms populated; off: histograms empty,
//! structural counters still live).

use std::sync::Arc;

use progressive_indexes::engine::typed::{TypedColumnSpec, TypedExecutor, TypedQuery, TypedTable};
use progressive_indexes::engine::{
    ColumnSpec, Executor, ExecutorConfig, Table, TableQuery, TableServer,
};
use progressive_indexes::index::budget::BudgetPolicy;
use progressive_indexes::obs::MetricsRegistry;
use progressive_indexes::sched::ServerConfig;
use progressive_indexes::workloads::{domains, Distribution};

const ROWS: usize = 40_000;
const SHARDS: usize = 4;
const QUERIES: usize = 200;
const BATCH: usize = 10;

/// Builds a skewed-string typed stack around `registry` and serves
/// `QUERIES` hot-prefix range queries through it.
fn serve_skewed_strings(registry: &Arc<MetricsRegistry>) {
    let table = Arc::new(
        TypedTable::builder()
            .metrics(Arc::clone(registry))
            .column(
                TypedColumnSpec::new("s", domains::string_data(Distribution::Skewed, ROWS, 11))
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.1)),
            )
            .build(),
    );
    let executor = TypedExecutor::with_metrics(
        table,
        ExecutorConfig {
            worker_threads: 2,
            maintenance_steps: 0,
            background_maintenance: false,
        },
        Arc::clone(registry),
    );
    let queries = domains::string_ranges(Distribution::Skewed, QUERIES, 13);
    for chunk in queries.chunks(BATCH) {
        let batch: Vec<TypedQuery<String>> = chunk
            .iter()
            .map(|(low, high)| TypedQuery::new("s", low.clone(), high.clone()))
            .collect();
        executor.execute_batch(&batch).expect("known column");
    }
}

#[test]
fn skewed_string_run_populates_the_metric_namespace() {
    let registry = Arc::new(MetricsRegistry::new());
    serve_skewed_strings(&registry);
    let snap = registry.snapshot();

    // Convergence gauges: one ρ per shard, every one non-zero after 200
    // refining queries, none above 1.
    let rhos: Vec<(&str, f64)> = snap.gauges_with_prefix("engine.rho.s.").collect();
    assert_eq!(rhos.len(), SHARDS, "one ρ gauge per shard: {rhos:?}");
    for (name, rho) in &rhos {
        assert!(
            *rho > 0.0 && *rho <= 1.0,
            "{name} must be refined into (0, 1], got {rho}"
        );
    }

    // The hot shared prefix forces boundary tie-breaks against the
    // side table.
    let tie_hits = snap.counter("engine.tie_break_hits").expect("registered");
    assert!(tie_hits > 0, "skewed strings must hit the tie-break path");

    // Executor accounting: every batch and query counted.
    assert_eq!(
        snap.counter("executor.batches"),
        Some((QUERIES / BATCH) as u64)
    );
    assert_eq!(snap.counter("executor.queries"), Some(QUERIES as u64));

    // Core indexing work: refinement stepped and moved δ·N bytes.
    assert!(snap.counter("core.s.refine_steps").expect("registered") > 0);
    assert!(snap.counter("core.s.bytes_moved").expect("registered") > 0);

    // Pool traffic landed in the same registry: every batch the executor
    // fanned out is one pool run, and nothing else reaches the pool.
    let fanned = snap.counter("executor.batches_fanned").expect("registered");
    let runs = snap
        .histogram("sched.pool.jobs_per_run")
        .expect("registered");
    assert_eq!(runs.count, fanned);
    assert_eq!(snap.counter("sched.pool.jobs"), Some(runs.sum));

    // Clock-dependent metrics: per-phase timings and cost-model error
    // are populated with `obs` on and compiled out (empty) with it off.
    let scan = snap
        .histogram("executor.phase.scan_ns")
        .expect("registered");
    let cost = snap.histogram("core.s.cost_error_pm").expect("registered");
    if progressive_indexes::obs::ENABLED {
        assert_eq!(
            scan.count,
            (QUERIES / BATCH) as u64,
            "one scan timing per batch"
        );
        assert!(scan.p50() > 0, "scans take non-zero time");
        assert!(cost.count > 0, "cost-model error must be sampled");
        // Samples are capped at 1000‰; the quantile reads the √2 bucket
        // *upper bound*, so the bound shows as ≤ 1024.
        assert!(cost.p99() <= 1024, "per-mille error is bounded");
    } else {
        assert_eq!(scan.count, 0, "obs off: no clocks, no timings");
        assert_eq!(cost.count, 0, "obs off: cost error needs a clock");
    }
}

#[test]
fn server_front_end_shares_the_stack_registry() {
    // The untyped stack with the server on top: table, executor, pool
    // and server all report into one explicitly-shared registry.
    let registry = Arc::new(MetricsRegistry::new());
    let table = Arc::new(
        Table::builder()
            .metrics(Arc::clone(&registry))
            .column(
                ColumnSpec::new("a", (0..ROWS as u64).rev().collect())
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .build(),
    );
    let executor = Arc::new(Executor::with_metrics(
        Arc::clone(&table),
        ExecutorConfig {
            worker_threads: 2,
            maintenance_steps: 0,
            background_maintenance: false,
        },
        Arc::clone(&registry),
    ));
    // Makes a pool job certain. Each range ends inside the first and the
    // last shard (the two in between are answered from their digests), so
    // on the still-unindexed table the batch hands twelve 10k-row scans to
    // the pool — above the executor's fan-out break-even — and `Pool::run`
    // returns only after its jobs were counted.
    let wide: Vec<TableQuery> = (0..12)
        .map(|i| TableQuery::new("a", 5_000 + i, 35_000 + i))
        .collect();
    executor.execute_batch(&wide).expect("known column");
    let server =
        TableServer::with_metrics(executor, ServerConfig::default(), Arc::clone(&registry));
    let mut tickets = Vec::new();
    for i in 0..20u64 {
        let batch = vec![TableQuery::new("a", i * 100, i * 100 + 500)];
        tickets.push(server.submit(batch).expect("server accepting"));
    }
    for ticket in tickets {
        ticket.wait().expect("known column");
    }
    let stats = server.stats();
    server.shutdown();

    let snap = registry.snapshot();
    // Every layer reported into the same snapshot, and the server's
    // typed stats agree with its registry counters.
    assert_eq!(snap.counter("server.accepted"), Some(stats.accepted));
    assert_eq!(stats.accepted, 20);
    assert_eq!(snap.counter("server.served_requests"), Some(20));
    assert!(snap.counter("executor.batches").expect("registered") > 0);
    assert!(snap.counter("sched.pool.jobs").expect("registered") > 0);
    assert!(snap.gauges_with_prefix("engine.rho.a.").count() == SHARDS);
    if progressive_indexes::obs::ENABLED {
        // Queue wait is recorded once per accepted submission (they may
        // coalesce into fewer engine runs, so don't compare with
        // executed_batches).
        let waits = snap.histogram("server.queue_wait_ns").expect("registered");
        assert_eq!(waits.count, stats.accepted);
    }
}
