//! Serving-engine throughput: queries/second as a function of shard count
//! (1, 2, 4, 8) and per-query indexing budget δ, plus the full
//! server-front-end stack. The scaling baseline for serving-layer PRs.
//!
//! Every group compares configurations against each other, so the
//! measurement design is **paired**: each sampling round times every
//! configuration back to back (fresh state per time, round-robin) instead
//! of giving each configuration its own multi-second window. On a host
//! whose effective speed drifts, per-configuration windows turn the
//! comparison into a lottery over *when* a configuration was measured;
//! pairing cancels the drift out. Per configuration the JSON reports the
//! median round (the fair cross-configuration estimator under pairing)
//! plus the fastest round.
//!
//! Besides the human-readable report, a full run writes the numbers to
//! `BENCH_engine.json` at the repository root so the perf trajectory is
//! tracked across PRs. Setting `PI_BENCH_SMOKE=1` runs a sized-down
//! iteration (CI smoke: the bench target cannot bitrot) without touching
//! the committed JSON.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, BenchResult, Criterion};

use pi_bench::BENCH_SCALE;
use pi_core::budget::BudgetPolicy;
use pi_core::mutation::Mutation;
use pi_durable::snapshot::{DirStore, MemStore};
use pi_durable::wal::{FileWal, FsyncPolicy, MemWalHandle};
use pi_engine::typed::{TableKey, TypedColumnSpec, TypedExecutor, TypedQuery, TypedTable};
use pi_engine::{ColumnSpec, Executor, ExecutorConfig, Table, TableQuery, TableServer};
use pi_engine::{DurabilityConfig, DurableTable};
use pi_engine::{
    ErasedColumn, ErasedKey, GroupedQuery, MultiColumnSpec, MultiExecutor, MultiTable, Predicate,
};
use pi_obs::MetricsRegistry;
use pi_sched::ServerConfig;
use pi_workloads::closed_loop::{self, BatchOutcome, LatencyPercentiles};
use pi_workloads::domains;
use pi_workloads::mixed::{self, MixedOp, MixedSpec, WriteOp};
use pi_workloads::multi_client::{self, MultiClientSpec, PatternAssignment};
use pi_workloads::multicol;
use pi_workloads::{data, Distribution, WorkloadSpec};

const CLIENT_THREADS: usize = 4;
const QUERIES_PER_CLIENT: usize = 150;

/// Per-run sizing: the default bench scale, or a CI smoke iteration.
#[derive(Clone, Copy)]
struct BenchParams {
    rows: usize,
    queries_per_client: usize,
    /// Paired sampling rounds per group.
    rounds: usize,
    smoke: bool,
}

impl BenchParams {
    fn from_env() -> Self {
        if std::env::var_os("PI_BENCH_SMOKE").is_some() {
            BenchParams {
                rows: 20_000,
                queries_per_client: 10,
                rounds: 1,
                smoke: true,
            }
        } else {
            BenchParams {
                rows: BENCH_SCALE.column_size,
                queries_per_client: QUERIES_PER_CLIENT,
                rounds: 50,
                smoke: false,
            }
        }
    }

    fn queries_per_run(&self) -> usize {
        CLIENT_THREADS * self.queries_per_client
    }
}

fn build_executor(params: BenchParams, shards: usize, delta: f64) -> Executor {
    let values = data::generate(Distribution::UniformRandom, params.rows, 31);
    let table = Arc::new(
        Table::builder()
            .column(
                ColumnSpec::new("a", values)
                    .with_shards(shards)
                    .with_policy(BudgetPolicy::FixedDelta(delta)),
            )
            .build(),
    );
    Executor::with_config(
        table,
        ExecutorConfig {
            maintenance_steps: 2,
            ..ExecutorConfig::default()
        },
    )
}

/// The `CLIENT_THREADS` per-client query streams — deterministic, so they
/// are generated once per group, outside the timed serves.
fn client_streams(params: BenchParams) -> Vec<multi_client::ClientStream> {
    multi_client::generate(&MultiClientSpec {
        clients: CLIENT_THREADS,
        base: WorkloadSpec::range(params.rows as u64, params.queries_per_client),
        assignment: PatternAssignment::AllPatterns,
    })
}

/// Runs `CLIENT_THREADS` concurrent closed-loop clients, each submitting
/// its stream in batches of ten; returns the closed-loop report (served
/// count, throughput, per-batch latency percentiles).
fn serve(
    executor: &Executor,
    streams: &[multi_client::ClientStream],
) -> closed_loop::ClosedLoopReport {
    closed_loop::drive(streams, 10, |_client, chunk| {
        let batch: Vec<TableQuery> = chunk
            .iter()
            .map(|q| TableQuery::new("a", q.low, q.high))
            .collect();
        black_box(executor.execute_batch(&batch).expect("known column"));
        BatchOutcome::Served
    })
}

/// Like [`serve`], but through the `pi-sched` server front-end (bounded
/// queue, coalescing across clients).
fn serve_via_server(
    server: &TableServer,
    streams: &[multi_client::ClientStream],
) -> closed_loop::ClosedLoopReport {
    closed_loop::drive(streams, 10, |_client, chunk| {
        let batch: Vec<TableQuery> = chunk
            .iter()
            .map(|q| TableQuery::new("a", q.low, q.high))
            .collect();
        black_box(
            server
                .submit(batch)
                .expect("server accepting")
                .wait()
                .expect("known column"),
        );
        BatchOutcome::Served
    })
}

/// Sample accumulator for one configuration of a paired group. The
/// headline estimator is the **median** round: with pairing, every
/// configuration sees the same host conditions each round, so medians
/// compare configurations fairly, while a min-vs-min comparison rewards
/// whichever configuration had the single luckiest round (an
/// extreme-value statistic) and mean-vs-mean is dominated by the slowest
/// rounds.
struct Paired {
    id: String,
    samples: Vec<f64>,
    /// Per-round batch-latency percentiles; the JSON reports the median
    /// round's percentile for each of p50/p95/p99 (the same fair
    /// cross-configuration estimator as the throughput median).
    latencies: Vec<LatencyPercentiles>,
}

/// Median of each percentile across rounds, in microseconds.
#[derive(Clone, Copy, Default)]
struct LatencySummary {
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Median of a sample set (0.0 when empty).
fn median(mut samples: Vec<f64>) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

impl Paired {
    fn new(id: String) -> Self {
        Paired {
            id,
            samples: Vec::new(),
            latencies: Vec::new(),
        }
    }

    fn add(&mut self, seconds: f64, latency: LatencyPercentiles) {
        self.samples.push(seconds);
        self.latencies.push(latency);
    }

    fn record(self, c: &Criterion, latency_out: &mut Vec<(String, LatencySummary)>) {
        let summary = LatencySummary {
            p50_us: median(
                self.latencies
                    .iter()
                    .map(|l| l.p50.as_secs_f64() * 1e6)
                    .collect(),
            ),
            p95_us: median(
                self.latencies
                    .iter()
                    .map(|l| l.p95.as_secs_f64() * 1e6)
                    .collect(),
            ),
            p99_us: median(
                self.latencies
                    .iter()
                    .map(|l| l.p99.as_secs_f64() * 1e6)
                    .collect(),
            ),
        };
        latency_out.push((self.id.clone(), summary));
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        c.record_result(BenchResult {
            iterations: self.samples.len() as u64,
            id: self.id,
            seconds_per_iter: median(self.samples),
            min_seconds_per_iter: min,
        });
    }
}

/// Paired measurement of one group: every round visits all
/// configurations back to back. `routine(config_index)` runs one sample
/// and returns the measured serve time — setup (table build) stays
/// outside the measurement, like `iter_batched`.
fn paired_rounds<F>(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    ids: Vec<String>,
    rounds: usize,
    mut routine: F,
) where
    F: FnMut(usize) -> (std::time::Duration, LatencyPercentiles),
{
    let mut acc: Vec<Paired> = ids.into_iter().map(Paired::new).collect();
    let n = acc.len();
    for round in 0..rounds {
        // Ping-pong the visit order so a drift trend within one round
        // penalises the first and last configuration alternately.
        for k in 0..n {
            let i = if round % 2 == 0 { k } else { n - 1 - k };
            let (elapsed, latency) = routine(i);
            acc[i].add(elapsed.as_secs_f64(), latency);
        }
    }
    for slot in acc {
        slot.record(c, latency_out);
    }
}

fn bench_shard_scaling(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const SHARDS: [usize; 4] = [1, 2, 4, 8];
    let ids = SHARDS
        .iter()
        .map(|s| format!("engine_throughput/shards/serve/{s}"))
        .collect();
    let streams = client_streams(params);
    // A fresh table per measurement so every sample pays the same mix of
    // indexing work (cold start → refinement).
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let executor = build_executor(params, SHARDS[i], 0.25);
        let start = Instant::now();
        let report = black_box(serve(&executor, &streams));
        (start.elapsed(), report.latency)
    });
}

fn bench_budget_impact(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const DELTAS: [f64; 4] = [0.1, 0.25, 0.5, 1.0];
    let ids = DELTAS
        .iter()
        .map(|d| format!("engine_throughput/delta/serve_4_shards/{d}"))
        .collect();
    let streams = client_streams(params);
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let executor = build_executor(params, 4, DELTAS[i]);
        let start = Instant::now();
        let report = black_box(serve(&executor, &streams));
        (start.elapsed(), report.latency)
    });
}

fn bench_converged_serving(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const SHARDS: [usize; 2] = [1, 4];
    let executors: Vec<Executor> = SHARDS
        .iter()
        .map(|&shards| {
            let executor = build_executor(params, shards, 1.0);
            executor.drive_to_convergence(usize::MAX);
            executor
        })
        .collect();
    let ids = SHARDS
        .iter()
        .map(|s| format!("engine_throughput/converged/serve/{s}"))
        .collect();
    let streams = client_streams(params);
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let start = Instant::now();
        let report = black_box(serve(&executors[i], &streams));
        (start.elapsed(), report.latency)
    });
}

fn bench_server_front_end(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const SHARDS: [usize; 2] = [1, 8];
    let streams = client_streams(params);
    let ids = SHARDS
        .iter()
        .map(|s| format!("engine_throughput/server/serve/{s}"))
        .collect();
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let server = TableServer::new(
            Arc::new(build_executor(params, SHARDS[i], 0.25)),
            ServerConfig::default(),
        );
        let start = Instant::now();
        let report = black_box(serve_via_server(&server, &streams));
        let elapsed = start.elapsed();
        server.shutdown();
        (elapsed, report.latency)
    });
}

/// Mixed read/write serving: a single serial client per write fraction,
/// interleaving mutation batches with query batches on a 4-shard table —
/// the serving-side cost of mutation support. Unlike the other groups
/// (4 concurrent closed-loop clients), this group is single-threaded and
/// its stream contains writes, so its JSON `queries_per_second` field is
/// really **operations/second (reads + writes)**; compare mixed entries
/// only against each other across PRs, not against the other groups.
fn bench_mixed_workload(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const WRITE_FRACTIONS: [f64; 3] = [0.0, 0.1, 0.3];
    let ids = WRITE_FRACTIONS
        .iter()
        .map(|w| format!("engine_throughput/mixed/serve_4_shards/{w}"))
        .collect();
    let ops: Vec<Vec<MixedOp>> = WRITE_FRACTIONS
        .iter()
        .map(|&w| {
            mixed::generate(
                &MixedSpec::new(params.rows as u64, params.queries_per_run(), w)
                    .with_seed(97)
                    .with_insert_domain(params.rows as u64 * 2),
            )
        })
        .collect();
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let executor = build_executor(params, 4, 0.25);
        let mut latencies = Vec::new();
        let start = Instant::now();
        // Submit in batches of ten ops, writes and reads separated per
        // batch (the engine takes homogeneous batches).
        for chunk in ops[i].chunks(10) {
            let submitted = Instant::now();
            let mut queries = Vec::new();
            let mut writes = Vec::new();
            for op in chunk {
                match *op {
                    MixedOp::Read(q) => queries.push(TableQuery::new("a", q.low, q.high)),
                    MixedOp::Write(w) => writes.push(match w {
                        WriteOp::Insert(v) => Mutation::Insert(v),
                        WriteOp::Delete(v) => Mutation::Delete(v),
                        WriteOp::Update { old, new } => Mutation::Update { old, new },
                    }),
                }
            }
            if !writes.is_empty() {
                black_box(
                    executor
                        .apply_mutations("a", &writes)
                        .expect("known column"),
                );
            }
            if !queries.is_empty() {
                black_box(executor.execute_batch(&queries).expect("known column"));
            }
            latencies.push(submitted.elapsed());
        }
        (start.elapsed(), LatencyPercentiles::from_samples(latencies))
    });
}

/// Durability overhead: the `mixed` group's 0.3-write-fraction stream,
/// served once without a log and once per fsync policy with every
/// mutation batch write-ahead logged to a file (`FileWal` + `DirStore`
/// in a scratch directory). Same single-client ops/s semantics as
/// `mixed` — compare `durability` entries against each other and
/// against `mixed/0.3`; the `off` configuration doubles as the
/// no-regression guard for tables built without durability. Checkpoint
/// thresholds are parked high so the rounds measure steady-state WAL
/// overhead, not checkpoint placement.
fn bench_durability_overhead(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const CONFIGS: [(&str, Option<FsyncPolicy>); 4] = [
        ("off", None),
        ("always", Some(FsyncPolicy::Always)),
        ("every32", Some(FsyncPolicy::EveryN(32))),
        (
            "interval2ms",
            Some(FsyncPolicy::Interval(Duration::from_millis(2))),
        ),
    ];
    let ids = CONFIGS
        .iter()
        .map(|(name, _)| format!("engine_throughput/durability/serve_4_shards/{name}"))
        .collect();
    let ops = mixed::generate(
        &MixedSpec::new(params.rows as u64, params.queries_per_run(), 0.3)
            .with_seed(97)
            .with_insert_domain(params.rows as u64 * 2),
    );
    let dir = std::env::temp_dir().join(format!("pi-bench-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let values = data::generate(Distribution::UniformRandom, params.rows, 31);
        let spec = ColumnSpec::new("a", values)
            .with_shards(4)
            .with_policy(BudgetPolicy::FixedDelta(0.25));
        let config = ExecutorConfig {
            maintenance_steps: 2,
            ..ExecutorConfig::default()
        };
        let executor = match CONFIGS[i].1 {
            None => Executor::with_config(Arc::new(Table::builder().column(spec).build()), config),
            Some(fsync) => {
                let durable = Table::builder()
                    .column(spec)
                    .durability(DurabilityConfig {
                        fsync,
                        checkpoint_wal_bytes: u64::MAX,
                        checkpoint_after_merges: u64::MAX,
                        ..DurabilityConfig::default()
                    })
                    .build_durable(
                        Box::new(FileWal::open(dir.join("bench.wal")).expect("wal file")),
                        Box::new(DirStore::open(&dir).expect("snapshot dir")),
                    )
                    .expect("durable build");
                Executor::with_durability(Arc::new(durable), config, None)
            }
        };
        let mut latencies = Vec::new();
        let start = Instant::now();
        for chunk in ops.chunks(10) {
            let submitted = Instant::now();
            let mut queries = Vec::new();
            let mut writes = Vec::new();
            for op in chunk {
                match *op {
                    MixedOp::Read(q) => queries.push(TableQuery::new("a", q.low, q.high)),
                    MixedOp::Write(w) => writes.push(match w {
                        WriteOp::Insert(v) => Mutation::Insert(v),
                        WriteOp::Delete(v) => Mutation::Delete(v),
                        WriteOp::Update { old, new } => Mutation::Update { old, new },
                    }),
                }
            }
            if !writes.is_empty() {
                black_box(
                    executor
                        .apply_mutations("a", &writes)
                        .expect("known column"),
                );
            }
            if !queries.is_empty() {
                black_box(executor.execute_batch(&queries).expect("known column"));
            }
            latencies.push(submitted.elapsed());
        }
        (start.elapsed(), LatencyPercentiles::from_samples(latencies))
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery time as a function of WAL-tail length: N mutation batches
/// are logged past the last checkpoint (in-memory log + store, so the
/// rounds measure replay work, not disk), then `DurableTable::recover`
/// is timed cold. `queries_per_second` is meaningless for this group —
/// read `median_seconds_per_iter` (recovery wall time) instead.
fn bench_recovery_time(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const TAIL_BATCHES: [usize; 3] = [8, 64, 256];
    let batches = if params.smoke {
        [1, 2, 4]
    } else {
        TAIL_BATCHES
    };
    let ids = batches
        .iter()
        .map(|n| format!("engine_throughput/recovery/replay_batches/{n}"))
        .collect();
    let rows = if params.smoke { params.rows } else { 100_000 };
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let values = data::generate(Distribution::UniformRandom, rows, 31);
        let wal = MemWalHandle::new();
        let store = MemStore::new();
        let durable = Table::builder()
            .column(
                ColumnSpec::new("a", values)
                    .with_shards(4)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .durability(DurabilityConfig {
                fsync: FsyncPolicy::Always,
                checkpoint_wal_bytes: u64::MAX,
                checkpoint_after_merges: u64::MAX,
                ..DurabilityConfig::default()
            })
            .build_durable(Box::new(wal.storage()), Box::new(store.clone()))
            .expect("durable build");
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..batches[i] {
            let batch: Vec<Mutation> = (0..50)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    Mutation::Insert(seed % rows as u64)
                })
                .collect();
            durable.apply_mutations("a", &batch).expect("known column");
        }
        drop(durable);
        let start = Instant::now();
        let (_recovered, report) = black_box(
            DurableTable::recover(
                Box::new(wal.storage()),
                Box::new(store.clone()),
                DurabilityConfig::default(),
                None,
            )
            .expect("recovery"),
        );
        let elapsed = start.elapsed();
        assert_eq!(report.replayed_records, batches[i] as u64);
        (elapsed, LatencyPercentiles::from_samples(vec![elapsed]))
    });
}

/// Builds a typed executor over a fresh 4-shard column of `keys`.
fn build_typed_executor<K: TableKey>(keys: Vec<K>) -> TypedExecutor<K> {
    let table = Arc::new(
        TypedTable::builder()
            .column(
                TypedColumnSpec::new("a", keys)
                    .with_shards(4)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .build(),
    );
    TypedExecutor::with_config(
        table,
        ExecutorConfig {
            maintenance_steps: 2,
            ..ExecutorConfig::default()
        },
    )
}

/// Serves per-client typed range streams through a [`TypedExecutor`],
/// closed-loop, in batches of ten (the typed analogue of [`serve`]).
fn serve_typed<K: TableKey>(
    executor: &TypedExecutor<K>,
    streams: &[Vec<(K, K)>],
) -> closed_loop::ClosedLoopReport {
    let items: Vec<(usize, &[(K, K)])> = streams
        .iter()
        .enumerate()
        .map(|(client, s)| (client, s.as_slice()))
        .collect();
    closed_loop::drive_items(&items, 10, |_client, chunk| {
        let batch: Vec<TypedQuery<K>> = chunk
            .iter()
            .map(|(low, high)| TypedQuery::new("a", low.clone(), high.clone()))
            .collect();
        black_box(executor.execute_batch(&batch).expect("known column"));
        BatchOutcome::Served
    })
}

/// Typed key domains: float and string columns served through the
/// order-preserving encodings and the [`TypedExecutor`] facade, uniform
/// and skewed per domain. Same closed-loop shape as the `shards`/`delta`
/// groups (4 clients, batches of ten, fresh table per sample), so
/// `queries_per_second` is comparable across groups; the skewed string
/// configuration additionally pays the exact-match tie-break path on
/// every hot-prefix boundary (90% of rows share one 10-byte prefix —
/// one *code*).
fn bench_typed_domains(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    const DISTS: [Distribution; 2] = [Distribution::UniformRandom, Distribution::Skewed];
    let half = params.rows as f64 / 2.0;

    let ids = DISTS
        .iter()
        .map(|d| format!("engine_throughput/float/serve_4_shards/{d}"))
        .collect();
    let float_streams: Vec<Vec<(f64, f64)>> = (0..CLIENT_THREADS)
        .map(|client| {
            domains::float_ranges(params.queries_per_client, half, 0.02, 71 ^ client as u64)
        })
        .collect();
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let executor = build_typed_executor(domains::float_data(DISTS[i], params.rows, half, 73));
        let start = Instant::now();
        let report = black_box(serve_typed(&executor, &float_streams));
        (start.elapsed(), report.latency)
    });

    let ids = DISTS
        .iter()
        .map(|d| format!("engine_throughput/string/serve_4_shards/{d}"))
        .collect();
    let string_streams: Vec<Vec<Vec<(String, String)>>> = DISTS
        .iter()
        .map(|&dist| {
            (0..CLIENT_THREADS)
                .map(|client| {
                    domains::string_ranges(dist, params.queries_per_client, 79 ^ client as u64)
                })
                .collect()
        })
        .collect();
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let executor = build_typed_executor(domains::string_data(DISTS[i], params.rows, 83));
        let start = Instant::now();
        let report = black_box(serve_typed(&executor, &string_streams[i]));
        (start.elapsed(), report.latency)
    });
}

/// Multi-column serving. Two sub-groups, single-client like `mixed` (so
/// `queries_per_second` is conjunctions- or grouped-queries-per-second;
/// compare `multicolumn` entries only against each other):
///
/// * `conjunctions` — the skewed-selectivity sweep: every conjunction
///   pairs a ~90%-selective predicate on column `a` with a
///   ~0.1%-selective predicate on column `b`; the planner drives `b`
///   and evaluates it first.
/// * `grouped` — `SUM/COUNT/MIN/MAX GROUP BY bucket` over the sub-shard
///   digest trees: `fresh` rebuilds a table (and thus every per-shard
///   tree) each sample, `cached` re-serves the same queries from a
///   warmed aggregate cache whose mutation stamps are still current.
fn bench_multicolumn(
    c: &Criterion,
    latency_out: &mut Vec<(String, LatencySummary)>,
    params: BenchParams,
) {
    let domain = params.rows as u64;
    let columns = multicol::u64_columns(2, params.rows, domain, 89);
    let conjunctions =
        multicol::conjunction_ranges(&[0.9, 0.001], domain, params.queries_per_client, 91);
    let build = || {
        Arc::new(
            MultiTable::builder()
                .column(
                    MultiColumnSpec::new("a", ErasedColumn::U64(columns[0].clone())).with_shards(4),
                )
                .column(
                    MultiColumnSpec::new("b", ErasedColumn::U64(columns[1].clone())).with_shards(4),
                )
                .build(),
        )
    };
    let config = ExecutorConfig {
        maintenance_steps: 2,
        ..ExecutorConfig::default()
    };
    let ids = vec!["engine_throughput/multicolumn/conjunctions/planned".to_string()];
    paired_rounds(c, latency_out, ids, params.rounds, |_| {
        // Fresh table per sample: every sample pays the same cold start,
        // and the planner's ρ input starts from the same state.
        let executor = MultiExecutor::with_config(build(), config);
        let mut latencies = Vec::new();
        let start = Instant::now();
        for conj in &conjunctions {
            let submitted = Instant::now();
            let predicates = [
                Predicate::between_u64("a", conj[0].0, conj[0].1),
                Predicate::between_u64("b", conj[1].0, conj[1].1),
            ];
            black_box(executor.execute(&predicates).expect("known columns"));
            latencies.push(submitted.elapsed());
        }
        (start.elapsed(), LatencyPercentiles::from_samples(latencies))
    });

    const GROUPED: [&str; 2] = ["fresh", "cached"];
    let width = (domain / 64).max(1);
    let grouped_queries: Vec<GroupedQuery> =
        multicol::conjunction_ranges(&[0.5], domain, params.queries_per_client, 93)
            .into_iter()
            .map(|conj| {
                GroupedQuery::new(
                    "a",
                    ErasedKey::U64(conj[0].0),
                    ErasedKey::U64(conj[0].1),
                    width,
                )
            })
            .collect();
    let ids = GROUPED
        .iter()
        .map(|name| format!("engine_throughput/multicolumn/grouped/{name}"))
        .collect();
    let warmed = MultiExecutor::with_config(build(), config);
    for query in &grouped_queries {
        black_box(warmed.grouped(query).expect("known column"));
    }
    paired_rounds(c, latency_out, ids, params.rounds, |i| {
        let fresh;
        let executor = if GROUPED[i] == "fresh" {
            fresh = MultiExecutor::with_config(build(), config);
            &fresh
        } else {
            &warmed
        };
        let mut latencies = Vec::new();
        let start = Instant::now();
        for query in &grouped_queries {
            let submitted = Instant::now();
            black_box(executor.grouped(query).expect("known column"));
            latencies.push(submitted.elapsed());
        }
        (start.elapsed(), LatencyPercentiles::from_samples(latencies))
    });
}

/// One **instrumented** pass of the skewed-string configuration: a fresh
/// `MetricsRegistry` is wired through table, executor and pool, and the
/// engine's own convergence / phase metrics are sampled after every
/// batch. Returns the `string_skewed_convergence` JSON object embedded
/// in `BENCH_engine.json`: the ρ̄-vs-queries-served time series (how fast
/// the progressive index converges under serving load), the per-phase
/// latency breakdown (decompose / scan / merge / maintain), tie-break
/// pressure and the cost model's prediction error. Runs outside the
/// paired throughput rounds, so the instrumented sampling never skews
/// the headline numbers. Refinement is purely query-driven here (fine
/// δ, no maintenance): with the throughput groups' δ=0.25 the index
/// converges before the first sample and the series is a flat 1.0.
fn convergence_trace(params: BenchParams) -> String {
    let registry = Arc::new(MetricsRegistry::new());
    let table = Arc::new(
        TypedTable::builder()
            .metrics(Arc::clone(&registry))
            .column(
                TypedColumnSpec::new(
                    "a",
                    domains::string_data(Distribution::Skewed, params.rows, 83),
                )
                .with_shards(4)
                .with_policy(BudgetPolicy::FixedDelta(0.002)),
            )
            .build(),
    );
    let executor = TypedExecutor::with_metrics(
        table,
        ExecutorConfig {
            maintenance_steps: 0,
            background_maintenance: false,
            ..ExecutorConfig::default()
        },
        Arc::clone(&registry),
    );
    let stream = domains::string_ranges(Distribution::Skewed, params.queries_per_run(), 79);
    let mut points = Vec::new();
    for chunk in stream.chunks(10) {
        let batch: Vec<TypedQuery<String>> = chunk
            .iter()
            .map(|(low, high)| TypedQuery::new("a", low.clone(), high.clone()))
            .collect();
        black_box(executor.execute_batch(&batch).expect("known column"));
        let snap = registry.snapshot();
        let shards = snap.gauges_with_prefix("engine.rho.a.").count().max(1);
        let rho_sum: f64 = snap
            .gauges_with_prefix("engine.rho.a.")
            .map(|(_, v)| v)
            .sum();
        points.push(format!(
            "[{}, {:.4}]",
            snap.counter("executor.queries").unwrap_or(0),
            rho_sum / shards as f64
        ));
    }
    let snap = registry.snapshot();
    let phases: Vec<String> = ["decompose", "scan", "merge", "maintain"]
        .iter()
        .map(|phase| {
            let h = snap
                .histogram(&format!("executor.phase.{phase}_ns"))
                .cloned()
                .unwrap_or_default();
            format!(
                "\"{phase}\": {{\"count\": {}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
                 \"p99_us\": {:.1}}}",
                h.count,
                h.p50() as f64 / 1e3,
                h.p95() as f64 / 1e3,
                h.p99() as f64 / 1e3
            )
        })
        .collect();
    let cost_error = snap
        .histogram("core.a.cost_error_pm")
        .cloned()
        .unwrap_or_default();
    format!(
        "{{\n    \"rho_vs_queries\": [{}],\n    \"phases\": {{{}}},\n    \
         \"tie_break_hits\": {},\n    \"cost_error_pm_mean\": {:.1}\n  }}",
        points.join(", "),
        phases.join(", "),
        snap.counter("engine.tie_break_hits").unwrap_or(0),
        cost_error.mean()
    )
}

/// Renders the results as `BENCH_engine.json`: queries/s per benchmark,
/// grouped the way the ids are (`shards`, `delta`, `converged`, `server`,
/// `mixed`, `float`, `string`). `queries_per_second` comes from the
/// **median** paired round
/// (see [`Paired`]); the fastest round rides along as
/// `min_seconds_per_iter`, and each entry reports the median round's
/// per-batch latency percentiles in microseconds (`p50_us`/`p95_us`/
/// `p99_us`). A separate instrumented pass contributes the
/// `string_skewed_convergence` object (see [`convergence_trace`]).
fn write_json(
    c: &Criterion,
    latency: &[(String, LatencySummary)],
    params: BenchParams,
    trace: &str,
) {
    let queries = params.queries_per_run() as f64;
    let mut entries = String::new();
    for (i, result) in c.results().iter().enumerate() {
        let qps = queries / result.seconds_per_iter;
        // `engine_throughput/<group>/serve[.../]<param>` → group + param.
        let mut parts = result.id.split('/');
        let _prefix = parts.next();
        let group = parts.next().unwrap_or("unknown");
        let param = parts.next_back().unwrap_or("?");
        let l = latency
            .iter()
            .find(|(id, _)| *id == result.id)
            .map(|&(_, l)| l)
            .unwrap_or_default();
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"group\": \"{group}\", \"param\": \"{param}\", \
             \"queries_per_second\": {qps:.1}, \
             \"median_seconds_per_iter\": {:.6}, \
             \"min_seconds_per_iter\": {:.6}, \"iterations\": {}, \
             \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}",
            result.seconds_per_iter,
            result.min_seconds_per_iter,
            result.iterations,
            l.p50_us,
            l.p95_us,
            l.p99_us
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"rows\": {},\n  \
         \"clients\": {CLIENT_THREADS},\n  \"queries_per_client\": {},\n  \
         \"results\": [\n{entries}\n  ],\n  \
         \"string_skewed_convergence\": {trace}\n}}\n",
        params.rows, params.queries_per_client
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, json).expect("failed to write BENCH_engine.json");
    println!("\nwrote {path}");
}

fn main() {
    let params = BenchParams::from_env();
    let c = Criterion::default();
    let mut latency: Vec<(String, LatencySummary)> = Vec::new();
    bench_shard_scaling(&c, &mut latency, params);
    bench_budget_impact(&c, &mut latency, params);
    bench_converged_serving(&c, &mut latency, params);
    bench_server_front_end(&c, &mut latency, params);
    bench_mixed_workload(&c, &mut latency, params);
    bench_durability_overhead(&c, &mut latency, params);
    bench_recovery_time(&c, &mut latency, params);
    bench_typed_domains(&c, &mut latency, params);
    bench_multicolumn(&c, &mut latency, params);
    // The instrumented convergence pass runs in both modes (smoke keeps
    // the code path exercised) but only full runs persist it.
    let trace = convergence_trace(params);
    if params.smoke {
        println!("\nsmoke iteration complete ({} results)", c.results().len());
    } else {
        write_json(&c, &latency, params, &trace);
    }
}
