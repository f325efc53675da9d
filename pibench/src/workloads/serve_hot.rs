//! `serve_hot` — one closed-loop client submitting 32-query batches
//! through the serving front-end; an op is one batch, submitted and waited
//! for.
//!
//! The `pi-sched` server (admission queue, dispatcher hand-off, ticket
//! wake-up) and the executor's decompose/merge dominate; once the table is
//! hot `pi-core` refinement is idle. This is where the roadmap's "server
//! p50 371 µs vs 46 µs direct" and "1 shard beats 8" live. A third of the
//! queries are wide enough to take the covered-shard digest shortcut.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_engine::{ColumnSpec, EngineError, Executor, Table, TableQuery, TuningParameters};
use pi_obs::MetricsRegistry;
use pi_sched::{BatchExecutor, Server, ServerConfig};
use pi_storage::ScanResult;

use super::{pinned_executor_config, spread_over_domain, Batch, Scale};
use crate::gen::{uniform, Rng};
use crate::lifecycle::{timed, Op, Workload};
use crate::oracle::Mirror;
use crate::peel::PeelInput;
use crate::trace::Recorder;

const COLUMN: &str = "key";
const SHARDS: usize = 8;
const BATCH: usize = 32;
/// K, in batches; every shard is fully indexed after about 20 on the seed
/// commit. With 200 the 99th percentile of the cold curve is its third
/// largest op, on the plateau of the first batches, which all scan and
/// refine alike. (With 1000 it was the tenth largest, on the steep flank
/// where the index takes over, and ranged from 0.6 to 2.8 ms.)
const COLD_BATCHES: usize = 200;
/// Batches in the hot segment.
const HOT_BATCHES: usize = 350;
const PEEL_BATCHES: usize = 256;
/// Workers of the hot executor. With 2 the pool's fan-out runs (caller
/// plus two workers on the dev box's two cores). With 1, everything
/// inline, the hot stream was slower (168 against 148 µs a batch, eight
/// pairs of runs) and scattered no less, so the fan-out stays in.
const HOT_WORKERS: usize = 2;

/// The executor as the cold server sees it: batches only. The engine's own
/// `BatchExecutor` impl also donates the dispatcher's idle time to index
/// maintenance, and how much idle time there is between two submissions
/// of a closed-loop client is timing, not work.
pub struct BatchesOnly(pub Executor);

impl BatchExecutor for BatchesOnly {
    type Request = TableQuery;
    type Response = ScanResult;
    type Error = EngineError;

    fn execute_batch(&self, batch: &[TableQuery]) -> Result<Vec<ScanResult>, EngineError> {
        self.0.execute_batch(batch)
    }
}

pub struct ServeHot {
    values: Vec<u64>,
    cold: Vec<Batch>,
    hot: Vec<Batch>,
}

impl ServeHot {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let rows = scale.of(1_000_000);
        let domain = rows as u64 * 16;
        let values = uniform(&mut Rng::new(seed, 20), rows, domain);
        let mirror = Mirror::new(&values);
        let mut rng = Rng::new(seed, 21);
        let mut wide = 0;
        let mut stream = |len: usize| -> Vec<Batch> {
            (0..len)
                .map(|_| {
                    let mut batch = Batch {
                        queries: Vec::with_capacity(BATCH),
                        expected: Vec::with_capacity(BATCH),
                    };
                    for q in 0..BATCH {
                        // Points and 0.1% ranges in equal parts, spread
                        // evenly over the eight eighths of the data, so
                        // every shard gets its four queries in every batch
                        // whatever the seed; and one range per batch wide
                        // enough (30% of the domain) to cover whole
                        // shards, which the executor answers from their
                        // digests.
                        let eighth = (q / 2 % SHARDS) as u64;
                        let (low, high) = if q == BATCH - 1 {
                            let span = domain - domain / 10 * 3;
                            let low = (spread_over_domain(wide) * span as f64) as u64;
                            wide += 1;
                            (low, low + domain / 10 * 3)
                        } else if q % 2 == 0 {
                            let rank = eighth * (rows as u64 / 8) + rng.below(rows as u64 / 8);
                            let v = mirror.value_at_rank(rank as usize);
                            (v, v)
                        } else {
                            let low = mirror.value_at_rank((eighth * (rows as u64 / 8)) as usize)
                                + rng.below(domain / 8 - domain / 1_000);
                            (low, low + domain / 1_000)
                        };
                        batch.queries.push(TableQuery::new(COLUMN, low, high));
                        batch.expected.push(mirror.range(low, high));
                    }
                    batch
                })
                .collect()
        };
        let cold = stream(COLD_BATCHES);
        let hot = stream(scale.of(HOT_BATCHES));
        ServeHot { values, cold, hot }
    }
}

#[cfg(test)]
impl ServeHot {
    pub fn fingerprint(&self) -> u64 {
        self.cold
            .iter()
            .fold(0, |acc, batch| acc.rotate_left(3) ^ batch.fingerprint())
    }
}

/// Submits one batch and waits for it, as the closed-loop client does.
fn submit_and_wait<E>(server: &Server<E>, batch: &Batch, op: usize, rec: &mut Recorder) -> Op
where
    E: BatchExecutor<Request = TableQuery, Response = ScanResult, Error = EngineError>,
{
    let queries = batch.queries.clone();
    let (nanos, answers) = timed(|| {
        let ticket = rec.span("sched.server.submit", op, || server.submit(queries));
        rec.span("sched.server.wait", op, || {
            ticket.expect("the server is running").wait()
        })
    });
    Op {
        nanos,
        ok: answers.as_ref() == Ok(&batch.expected),
    }
}

impl Workload for ServeHot {
    type Inputs = Vec<u64>;
    type Instance = Server<BatchesOnly>;
    type Hot = Server<Executor>;

    fn inputs(&self) -> Vec<u64> {
        self.values.clone()
    }

    fn build(
        &self,
        values: Vec<u64>,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Server<BatchesOnly> {
        let builder = Table::builder().tuning(TuningParameters::default()).column(
            ColumnSpec::new(COLUMN, values)
                .with_shards(SHARDS)
                .with_policy(BudgetPolicy::FixedDelta(0.05)),
        );
        let config = pinned_executor_config(1);
        match registry {
            Some(registry) => {
                let table = Arc::new(builder.metrics(Arc::clone(registry)).build());
                let executor = Executor::with_metrics(table, config, Arc::clone(registry));
                Server::with_metrics(
                    Arc::new(BatchesOnly(executor)),
                    ServerConfig::default(),
                    Arc::clone(registry),
                )
            }
            None => {
                let executor = Executor::with_config(Arc::new(builder.build()), config);
                Server::new(Arc::new(BatchesOnly(executor)), ServerConfig::default())
            }
        }
    }

    fn cold_len(&self) -> usize {
        self.cold.len()
    }

    fn first_touch(&self) -> Vec<usize> {
        vec![0]
    }

    fn cold_op(&self, server: &mut Server<BatchesOnly>, i: usize, rec: &mut Recorder) -> Op {
        submit_and_wait(server, &self.cold[i], i, rec)
    }

    fn tables<'a>(&self, server: &'a Server<BatchesOnly>) -> Vec<&'a Table> {
        vec![server.executor().0.table()]
    }

    fn converge(&self, server: &mut Server<BatchesOnly>) {
        server.executor().0.drive_to_convergence(usize::MAX);
    }

    /// The hot stream runs on the real `TableServer` over a second
    /// executor on the converged table. Its idle-time maintenance finds
    /// nothing to do, so it no longer makes the work depend on timing.
    fn warm(
        &self,
        server: Server<BatchesOnly>,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Server<Executor> {
        let table = Arc::clone(server.executor().0.table());
        drop(server);
        let config = pinned_executor_config(HOT_WORKERS);
        match registry {
            Some(registry) => Server::with_metrics(
                Arc::new(Executor::with_metrics(table, config, Arc::clone(registry))),
                ServerConfig::default(),
                Arc::clone(registry),
            ),
            None => Server::new(
                Arc::new(Executor::with_config(table, config)),
                ServerConfig::default(),
            ),
        }
    }

    fn segment_ops(&self) -> usize {
        self.hot.len()
    }

    fn hot_op(&self, server: &mut Server<Executor>, j: usize, rec: &mut Recorder) -> Op {
        submit_and_wait(server, &self.hot[j], j, rec)
    }

    /// The hot batches without their wide query (the last of each).
    fn peel_input(&self) -> PeelInput {
        PeelInput {
            columns: vec![(COLUMN, self.values.clone())],
            shards: SHARDS,
            batches: self
                .hot
                .iter()
                .take(PEEL_BATCHES)
                .map(|batch| Batch {
                    queries: batch.queries[..BATCH - 1].to_vec(),
                    expected: batch.expected[..BATCH - 1].to_vec(),
                })
                .collect(),
        }
    }
}
