//! `explore_cold` — the paper's own scenario: one analyst sends single
//! queries to a fresh table and pays for the index as a side effect.
//!
//! Four `u64` columns are queried round-robin, each set up so the
//! Figure-11 decision tree picks a different algorithm and so both budget
//! kinds run: `pi-core` (all four algorithms, budget, cost model) and the
//! `pi-storage` scan do nearly all the work; `pi-sched` runs inline,
//! `pi-durable` and the typed facades are not touched.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::{CostConstants, CostModel};
use pi_core::decision::{Algorithm, QueryShape};
use pi_engine::{AlgorithmChoice, ColumnSpec, Executor, Table, TableQuery, TuningParameters};
use pi_obs::MetricsRegistry;
use pi_storage::ScanResult;

use super::{pinned_executor_config, Batch, Scale};
use crate::gen::{skewed, uniform, Rng};
use crate::lifecycle::{timed, Op, Workload};
use crate::oracle::Mirror;
use crate::peel::PeelInput;
use crate::trace::Recorder;

const SHARDS: usize = 2;
/// Queries in the hot segment, 3000 a column.
const HOT_OPS: usize = 12_000;
/// K: at least 1.3× the ops the seed commit needs to index all four columns.
const COLD_OPS: usize = 1_400;
const PEEL_QUERIES: usize = 4_096;

struct ColumnPlan {
    name: &'static str,
    values: Vec<u64>,
    choice: AlgorithmChoice,
    policy: BudgetPolicy,
    /// What the decision tree must pick for `choice` on `values`.
    algorithm: Algorithm,
}

struct Query {
    column: usize,
    low: u64,
    high: u64,
    expected: ScanResult,
}

pub struct ExploreCold {
    columns: Vec<ColumnPlan>,
    cold: Vec<Query>,
    hot: Vec<Query>,
}

impl ExploreCold {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let rows = scale.of(1_000_000);
        let domain = rows as u64 * 16;
        // 0.2 · t_scan of one shard, the paper's adaptive budget.
        let model = CostModel::new(CostConstants::synthetic(), rows / SHARDS);
        let adaptive = BudgetPolicy::adaptive_scan_fraction(&model, 0.2);
        let columns = vec![
            ColumnPlan {
                name: "uni_range",
                values: uniform(&mut Rng::new(seed, 10), rows, domain),
                choice: AlgorithmChoice::Auto(QueryShape::Range),
                policy: BudgetPolicy::FixedDelta(0.05),
                algorithm: Algorithm::RadixsortMsd,
            },
            ColumnPlan {
                name: "skew_range",
                values: skewed(&mut Rng::new(seed, 11), rows, domain),
                choice: AlgorithmChoice::Auto(QueryShape::Range),
                policy: adaptive,
                algorithm: Algorithm::Bucketsort,
            },
            ColumnPlan {
                name: "uni_point",
                values: uniform(&mut Rng::new(seed, 12), rows, domain),
                choice: AlgorithmChoice::Auto(QueryShape::Point),
                policy: BudgetPolicy::FixedDelta(0.05),
                algorithm: Algorithm::RadixsortLsd,
            },
            ColumnPlan {
                name: "skew_any",
                values: skewed(&mut Rng::new(seed, 13), rows, domain),
                choice: AlgorithmChoice::Auto(QueryShape::Unknown),
                policy: adaptive,
                algorithm: Algorithm::Quicksort,
            },
        ];
        let mirrors: Vec<Mirror> = columns.iter().map(|c| Mirror::new(&c.values)).collect();
        let mut rng = Rng::new(seed, 14);
        let width = domain / 1_000;
        let mut stream = |len: usize| -> Vec<Query> {
            (0..len)
                .map(|i| {
                    let column = i % columns.len();
                    let (low, high) = if columns[column].name == "uni_point" {
                        let v = columns[column].values[rng.below(rows as u64) as usize];
                        (v, v)
                    } else {
                        let low = rng.below(domain - width);
                        (low, low + width)
                    };
                    Query {
                        column,
                        low,
                        high,
                        expected: mirrors[column].range(low, high),
                    }
                })
                .collect()
        };
        let cold = stream(COLD_OPS);
        let hot = stream(scale.of(HOT_OPS));
        ExploreCold { columns, cold, hot }
    }

    /// The algorithm the built table runs on each column; repetition 0
    /// checks that all four are in play.
    fn algorithms_as_planned(&self, executor: &Executor) -> bool {
        self.columns.iter().all(|plan| {
            executor.table().column(plan.name).map(|c| c.algorithm()) == Some(plan.algorithm)
        })
    }

    fn run(&self, executor: &Executor, q: &Query, op: usize, rec: &mut Recorder) -> Op {
        let name = self.columns[q.column].name;
        let (nanos, answer) = timed(|| {
            rec.span("engine.executor.execute_one", op, || {
                executor.execute_one(name, q.low, q.high)
            })
        });
        Op {
            nanos,
            ok: answer == Ok(q.expected),
        }
    }
}

#[cfg(test)]
impl ExploreCold {
    /// Folds the cold stream's expected answers; equal streams fold equal.
    pub fn fingerprint(&self) -> u64 {
        self.cold.iter().fold(0, |acc, q| {
            acc.rotate_left(7) ^ q.expected.count ^ q.expected.sum as u64
        })
    }
}

impl Workload for ExploreCold {
    type Inputs = Vec<Vec<u64>>;
    type Instance = Executor;
    type Hot = Executor;

    fn inputs(&self) -> Self::Inputs {
        self.columns.iter().map(|c| c.values.clone()).collect()
    }

    fn build(&self, inputs: Self::Inputs, registry: Option<&Arc<MetricsRegistry>>) -> Executor {
        let mut builder = Table::builder().tuning(TuningParameters::default());
        for (plan, values) in self.columns.iter().zip(inputs) {
            builder = builder.column(
                ColumnSpec::new(plan.name, values)
                    .with_shards(SHARDS)
                    .with_policy(plan.policy)
                    .with_choice(plan.choice),
            );
        }
        let config = pinned_executor_config(1);
        match registry {
            Some(registry) => {
                let table = Arc::new(builder.metrics(Arc::clone(registry)).build());
                Executor::with_metrics(table, config, Arc::clone(registry))
            }
            None => Executor::with_config(Arc::new(builder.build()), config),
        }
    }

    fn cold_len(&self) -> usize {
        self.cold.len()
    }

    fn first_touch(&self) -> Vec<usize> {
        (0..self.columns.len()).collect()
    }

    fn cold_op(&self, executor: &mut Executor, i: usize, rec: &mut Recorder) -> Op {
        let mut op = self.run(executor, &self.cold[i], i, rec);
        if i == 0 {
            op.ok &= self.algorithms_as_planned(executor);
        }
        op
    }

    fn tables<'a>(&self, executor: &'a Executor) -> Vec<&'a Table> {
        vec![executor.table()]
    }

    fn converge(&self, executor: &mut Executor) {
        executor.drive_to_convergence(usize::MAX);
    }

    fn warm(&self, executor: Executor, _registry: Option<&Arc<MetricsRegistry>>) -> Executor {
        executor
    }

    fn segment_ops(&self) -> usize {
        self.hot.len()
    }

    fn hot_op(&self, executor: &mut Executor, j: usize, rec: &mut Recorder) -> Op {
        self.run(executor, &self.hot[j], j, rec)
    }

    /// The hot segment's first queries, as the one-query batches they are.
    fn peel_input(&self) -> PeelInput {
        PeelInput {
            columns: self
                .columns
                .iter()
                .map(|c| (c.name, c.values.clone()))
                .collect(),
            shards: SHARDS,
            batches: self
                .hot
                .iter()
                .take(PEEL_QUERIES)
                .map(|q| Batch {
                    queries: vec![TableQuery::new(self.columns[q.column].name, q.low, q.high)],
                    expected: vec![q.expected],
                })
                .collect(),
        }
    }
}
