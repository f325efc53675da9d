//! The layer peel: the same verified reads replayed at each depth of the
//! stack, from outside in —
//!
//! `Server::submit` + `wait` ⊃ `Executor::execute_batch` ⊃ serial
//! `Table::query` ⊃ bare `pi-core` indexes, one per shard
//!
//! — so the difference between two adjacent depths is the upper layer's
//! self time. The first three run on one and the same converged table,
//! each calling the next, so between them a self time well below zero
//! means the replay was not like for like; the run counts one under −5%
//! of the outer span as a failed check. The bare indexes are the same
//! shards built once more, as a table's indexes cannot be reached from
//! outside it: `engine.table.overhead_us` compares two copies of the data,
//! and where a batch is one query of a microsecond (`explore_cold`) it
//! scatters around zero by a tenth of the span, so it is reported and not
//! checked. Beside the four, not under them, the same reads are answered by
//! `pi-storage` B+-tree range sums over the sorted shards (what a full
//! index costs; the converged index is another structure, not a caller of
//! this one) and by the executor once more on two workers. Every depth
//! answers the same queries on a converged structure and is checked
//! against the same expected answers. The depths take turns, round after
//! round, and each reports the low quantile over rounds of its mean time
//! per batch.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::CostConstants;
use pi_core::decision::Algorithm;
use pi_core::index::RangeIndex;
use pi_engine::{ColumnSpec, Executor, Table, TuningParameters};
use pi_obs::MetricsRegistry;
use pi_sched::{Server, ServerConfig};
use pi_storage::{Column, RangePartition, ScanResult, StaticBTree};

use crate::estimators::{low, median};
use crate::lifecycle::{timed, Tally};
use crate::probes::{counter, Layers};
use crate::trace::Recorder;
use crate::workloads::{pinned_executor_config, Batch};

/// What a workload hands the peel: its `u64` columns and narrow reads on
/// them with the answers expected on the initial rows. Reads wide enough
/// to cover whole shards are left out: the executor answers those from
/// shard digests, which no deeper layer has, so the depths would not be
/// doing the same work.
pub struct PeelInput {
    pub columns: Vec<(&'static str, Vec<u64>)>,
    pub shards: usize,
    pub batches: Vec<Batch>,
}

const ROUNDS: usize = 7;

/// How far below zero the self time of a layer above the table may come
/// out, as a share of the outer span, before the replay counts as not like
/// for like.
const SELF_TIME_FLOOR: f64 = -0.05;

/// The depths as span names: the four nested ones, outside in, then the
/// full index and the executor fanning out on two workers beside them.
const DEPTHS: [&str; 6] = [
    "peel.sched.server",
    "peel.engine.executor",
    "peel.engine.table",
    "peel.core.index",
    "peel.storage.btree",
    "peel.engine.executor_fanned",
];

/// One column below the table: the same equi-depth shards, each as a bare
/// converged index and as a sorted array under a B+-tree.
struct Bare {
    name: &'static str,
    partition: RangePartition,
    shards: Vec<BareShard>,
}

struct BareShard {
    index: Box<dyn RangeIndex + Send>,
    sorted: Vec<u64>,
    tree: StaticBTree,
}

impl Bare {
    fn build(name: &'static str, values: &[u64], shards: usize, algorithm: Algorithm) -> Self {
        let column = Column::from_vec(values.to_vec());
        let partition = RangePartition::equi_depth(column.data(), shards);
        let shards = partition
            .split_column(&column)
            .into_iter()
            .map(|shard| {
                let mut sorted = shard.data().to_vec();
                sorted.sort_unstable();
                let tree = StaticBTree::build_default(&sorted);
                let mut index = algorithm.build_tuned(
                    Arc::new(shard),
                    BudgetPolicy::FixedDelta(1.0),
                    CostConstants::synthetic(),
                    TuningParameters::default(),
                );
                while !index.is_converged() {
                    index.query(1, 0);
                }
                BareShard {
                    index,
                    sorted,
                    tree,
                }
            })
            .collect();
        Bare {
            name,
            partition,
            shards,
        }
    }

    /// `[low, high]` answered by each overlapping shard in turn.
    fn sum(
        &mut self,
        low: u64,
        high: u64,
        mut shard_sum: impl FnMut(&mut BareShard) -> ScanResult,
    ) -> ScanResult {
        self.partition
            .overlapping(low, high)
            .fold(ScanResult::EMPTY, |sum, shard| {
                sum.merge(shard_sum(&mut self.shards[shard]))
            })
    }
}

/// What the bare depths answer a batch with: each query on its column's
/// shards, summed.
fn bare_answers(
    bare: &mut [Bare],
    batch: &Batch,
    columns: &[usize],
    shard_sum: impl Fn(&mut BareShard, u64, u64) -> ScanResult,
) -> Vec<ScanResult> {
    batch
        .queries
        .iter()
        .zip(columns)
        .map(|(q, &at)| bare[at].sum(q.low, q.high, |shard| shard_sum(shard, q.low, q.high)))
        .collect()
}

pub fn run(input: PeelInput, rec: &mut Recorder, tally: &mut Tally, out: &mut Layers) {
    let mut builder = Table::builder().tuning(TuningParameters::default());
    for (name, values) in &input.columns {
        builder = builder.column(ColumnSpec::new(*name, values.clone()).with_shards(input.shards));
    }
    let table = Arc::new(builder.build());
    let inline = Arc::new(Executor::with_config(
        Arc::clone(&table),
        pinned_executor_config(1),
    ));
    inline.drive_to_convergence(usize::MAX);
    let server_registry = Arc::new(MetricsRegistry::new());
    let server = Server::with_metrics(
        Arc::clone(&inline),
        ServerConfig::default(),
        Arc::clone(&server_registry),
    );
    let pool_registry = Arc::new(MetricsRegistry::new());
    let fanned = Executor::with_metrics(
        Arc::clone(&table),
        pinned_executor_config(2),
        Arc::clone(&pool_registry),
    );
    let mut bare: Vec<Bare> = input
        .columns
        .iter()
        .map(|(name, values)| {
            let algorithm = table.column(name).expect("built above").algorithm();
            Bare::build(name, values, input.shards, algorithm)
        })
        .collect();
    // Which bare column each query goes to, looked up ahead of the timing:
    // what the bare depths do inside it should be the indexes' work alone.
    let batches = &input.batches;
    let columns_of: Vec<Vec<usize>> = batches
        .iter()
        .map(|batch| {
            batch
                .queries
                .iter()
                .map(|q| {
                    bare.iter()
                        .position(|b| b.name == q.column)
                        .expect("a peel query names a peel column")
                })
                .collect()
        })
        .collect();

    let mut per_batch_us: [Vec<f64>; DEPTHS.len()] = Default::default();
    let mut unrecorded = Recorder::off();
    for round in 0..ROUNDS {
        let mut spent = [0u64; DEPTHS.len()];
        // Every depth makes two passes over the batches in a row and the
        // second is the one timed, so each is measured on caches its own
        // first pass has filled. With one pass each, the depths that share
        // the table inherited the lines the depth above had just touched,
        // the bare copies started cold, and `Table::query` came out 6%
        // faster than the indexes it calls.
        for (depth, pass) in (0..DEPTHS.len()).flat_map(|depth| [(depth, 0), (depth, 1)]) {
            // Spans of the first round only: the later ones repeat it.
            let rec = if round == 0 && pass == 1 {
                &mut *rec
            } else {
                &mut unrecorded
            };
            let name = DEPTHS[depth];
            for (b, batch) in batches.iter().enumerate() {
                let columns = &columns_of[b];
                let submitted = (depth == 0).then(|| batch.queries.clone());
                let (nanos, answers) = timed(|| {
                    rec.span(name, b, || match depth {
                        0 => server
                            .submit(submitted.expect("cloned for this depth"))
                            .expect("the server is running")
                            .wait()
                            .ok(),
                        1 => inline.execute_batch(&batch.queries).ok(),
                        2 => batch
                            .queries
                            .iter()
                            .map(|q| table.query(&q.column, q.low, q.high))
                            .collect(),
                        3 => Some(bare_answers(
                            &mut bare,
                            batch,
                            columns,
                            |shard, low, high| shard.index.query(low, high).scan_result(),
                        )),
                        4 => Some(bare_answers(
                            &mut bare,
                            batch,
                            columns,
                            |shard, low, high| shard.tree.range_sum(&shard.sorted, low, high),
                        )),
                        _ => fanned.execute_batch(&batch.queries).ok(),
                    })
                });
                spent[depth] += nanos * pass;
                tally.check(answers.as_ref() == Some(&batch.expected));
            }
        }
        for (samples, nanos) in per_batch_us.iter_mut().zip(spent) {
            samples.push(nanos as f64 / batches.len() as f64 / 1e3);
        }
    }

    // The self times of the two layers above the table as shares of the
    // outer span, round by round — both depths of a pair ran within the
    // same second — then the median over rounds, then the smaller.
    let min_self_share = (0..2)
        .map(|outer| {
            let shares: Vec<f64> = per_batch_us[outer]
                .iter()
                .zip(&per_batch_us[outer + 1])
                .map(|(outer, inner)| (outer - inner) / outer)
                .collect();
            median(&shares)
        })
        .fold(f64::INFINITY, f64::min);
    let [server_us, executor_us, table_us, index_us, btree_us, fanned_us] =
        per_batch_us.map(|samples| low(&samples));
    out.insert("sched.server.submit_to_done_us", server_us);
    out.insert("sched.server.overhead_us", server_us - executor_us);
    out.insert("engine.executor.batch_us", executor_us);
    out.insert("engine.executor.overhead_us", executor_us - table_us);
    out.insert("engine.table.query_us", table_us);
    out.insert("engine.table.overhead_us", table_us - index_us);
    out.insert("core.index.query_us", index_us);
    out.insert("storage.btree.range_us", btree_us);
    out.insert("driver.peel_min_self_share", min_self_share);
    tally.check(min_self_share >= SELF_TIME_FLOOR);

    let served = server_registry.snapshot();
    let queue_wait = served
        .histogram("server.queue_wait_ns")
        .expect("the server registers its queue-wait histogram");
    out.insert("sched.server.queue_wait_us", queue_wait.mean() / 1e3);
    out.insert(
        "sched.server.coalesced_batches",
        counter(&served, "server.coalesced_batches"),
    );
    out.insert("sched.server.rejected", counter(&served, "server.rejected"));

    let pooled = pool_registry.snapshot();
    out.insert("sched.pool.jobs", counter(&pooled, "sched.pool.jobs"));
    out.insert("sched.pool.steals", counter(&pooled, "sched.pool.steals"));
    out.insert(
        "sched.pool.caller_helped",
        counter(&pooled, "sched.pool.helped"),
    );
    out.insert("sched.pool.fanned_batch_us", fanned_us);
}
