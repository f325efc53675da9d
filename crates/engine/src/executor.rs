//! Batched, shard-parallel query execution on a persistent scheduler.
//!
//! The paper bounds the *extra* work any single query performs by the
//! indexing budget δ. The executor extends that guarantee to concurrent
//! serving:
//!
//! * **Cost-gated fan-out on a persistent pool** — each query of a batch
//!   is decomposed into one sub-query list per overlapping `(column,
//!   shard)` and the partial [`ScanResult`]s are merged per query. A shard
//!   performs its budgeted δ-slice of indexing work for every sub-query it
//!   answers, on a shard that holds only ~`rows / shard_count` elements —
//!   so the extra work a query pays stays bounded even when it spans
//!   several shards. Those δ-slices are the only indexing a batch pays
//!   for. The shard tasks run on the calling thread unless the
//!   work that could be handed to other workers is predicted to exceed the
//!   cost of waking them (`FAN_OUT_BREAK_EVEN_ELEMENTS`): a persistent
//!   pool saves the thread spawn, not the park/wake round trip, and that
//!   round trip is worth tens of microseconds of scanning. A probe of a
//!   fully indexed shard is O(log n), so batches on a converged table
//!   always run inline; batches that still scan large unindexed shards are
//!   dispatched onto the [`pi_sched::Pool`]'s shared queue (the
//!   submitting client helps drain it).
//! * **Indexing only on the caller's thread** — a shard is indexed by a
//!   query that probes it, by a write that lands on it, or by an explicit
//!   [`Executor::drive_to_convergence`], each on the thread that made the
//!   call. The pool runs only a batch's shard tasks and does no work of
//!   its own, so convergence depends on the calls made, never on timing.
//!   A shard that no query probes does not converge until such a call
//!   reaches it.
//!
//! The executor is `Sync`: any number of client threads may call
//! [`Executor::execute_batch`] concurrently on one shared instance. Shard
//! state is guarded by per-shard mutexes, so two clients only contend when
//! their queries genuinely touch the same shard.

use std::sync::{Arc, Mutex};

use pi_core::mutation::Mutation;
use pi_obs::{Counter, Histogram, MetricsRegistry, ScopeTimer};
use pi_sched::{BatchExecutor, Job, Pool, PoolStats};
use pi_storage::scan::ScanResult;
use pi_storage::Value;

use crate::table::Table;

/// A `SELECT SUM(column), COUNT(column) WHERE column BETWEEN low AND high`
/// request addressed to a [`Table`] column (`u64` bounds, the default) or
/// to a [`TypedTable`](crate::typed::TypedTable) column
/// ([`TypedQuery<K>`](crate::typed::TypedQuery), bounds in the key
/// domain's total order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableQuery<K = Value> {
    /// Name of the queried column.
    pub column: String,
    /// Lower predicate bound (inclusive).
    pub low: K,
    /// Upper predicate bound (inclusive; `low > high` is the empty range).
    pub high: K,
}

impl<K> TableQuery<K> {
    /// Creates a query.
    pub fn new(column: impl Into<String>, low: K, high: K) -> Self {
        TableQuery {
            column: column.into(),
            low,
            high,
        }
    }
}

/// Errors returned by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A query addressed a column the table does not have.
    UnknownColumn(String),
    /// The durability layer failed to log or checkpoint a write (the
    /// wrapped [`crate::durability::DurabilityError`], stringified so
    /// the error stays `Clone`).
    Durability(String),
    /// A conjunction carried no predicates (the multi-column layer
    /// refuses to guess between "all rows" and "no rows").
    EmptyConjunction,
    /// A predicate's key domain does not match its column's domain
    /// (e.g. float bounds against a string column).
    DomainMismatch(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            EngineError::Durability(what) => write!(f, "durability failure: {what}"),
            EngineError::EmptyConjunction => write!(f, "conjunction has no predicates"),
            EngineError::DomainMismatch(column) => {
                write!(f, "predicate key domain does not match column {column:?}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<crate::durability::DurabilityError> for EngineError {
    fn from(e: crate::durability::DurabilityError) -> Self {
        match e {
            crate::durability::DurabilityError::UnknownColumn(name) => {
                EngineError::UnknownColumn(name)
            }
            other => EngineError::Durability(other.to_string()),
        }
    }
}

/// Elements a probe of a fully indexed shard is priced at: two 256-leaf
/// blocks, one for the leaves it reads and one for its descent's windows
/// and misses.
const PROBE_ELEMENTS: usize = 512;

/// Predicted elements read by the shard tasks a batch could hand to other
/// workers, above which handing them over beats running them inline.
///
/// Measured on the 2-vCPU dev box with 2 workers plus the helping caller,
/// 8 unindexed shards, one sub-query each, inline against fanned per batch:
/// 56k elements handed over 43 against 47 µs, 112k 116 against 94 µs, 224k
/// 251 against 168 µs. Below the crossing the park/wake round trip
/// (15–25 µs per batch) is all a fan-out adds.
const FAN_OUT_BREAK_EVEN_ELEMENTS: usize = 64 * 1024;

/// Executor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Number of persistent pool workers the executor keeps alive.
    /// Defaults to the machine's available parallelism.
    pub worker_threads: usize,
    /// Does nothing: a batch spends no indexing steps beyond its own
    /// queries' δ. Kept only because `pibench/` names the field.
    pub maintenance_steps: usize,
    /// Does nothing: no pool worker indexes on its own, whatever this
    /// says (default `false`). Kept only because `pibench/` names the
    /// field.
    pub background_maintenance: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            maintenance_steps: 0,
            background_maintenance: false,
        }
    }
}

impl ExecutorConfig {
    /// `worker_threads = workers`, other knobs at their defaults.
    pub fn with_workers(workers: usize) -> Self {
        ExecutorConfig {
            worker_threads: workers,
            ..ExecutorConfig::default()
        }
    }
}

/// The executor's metric handles, registered under `executor.*` (see
/// [`Executor::with_metrics`]). Counters are always live; the
/// `phase.*_ns` histograms decompose where batch wall time goes and only
/// fill when [`pi_obs::ENABLED`] is true.
struct ExecutorObs {
    /// Batches executed through [`Executor::execute_batch`].
    batches: Arc<Counter>,
    /// Individual queries inside those batches.
    queries: Arc<Counter>,
    /// Shard visits answered from the digest in O(1) (the covered-shard
    /// shortcut) instead of a locked index probe.
    digest_hits: Arc<Counter>,
    /// Batches whose shard tasks all ran on the calling thread.
    batches_inline: Arc<Counter>,
    /// Batches whose shard tasks were dispatched onto the pool.
    batches_fanned: Arc<Counter>,
    /// Batch framing: name resolution and per-shard sub-query routing.
    decompose_ns: Arc<Histogram>,
    /// Shard fan-out: pool dispatch plus every shard probe.
    scan_ns: Arc<Histogram>,
    /// Folding a fanned batch's partial results back into per-query
    /// answers (an inline batch folds each one as it is probed, inside
    /// `scan_ns`, and records an empty fold here).
    merge_ns: Arc<Histogram>,
}

impl ExecutorObs {
    fn register(registry: &MetricsRegistry) -> ExecutorObs {
        // Counted by the table's columns (converged shards a write
        // reopened), registered here so every metered executor reports it.
        registry.counter("executor.shards_reopened");
        ExecutorObs {
            batches: registry.counter("executor.batches"),
            queries: registry.counter("executor.queries"),
            digest_hits: registry.counter("executor.digest_hits"),
            batches_inline: registry.counter("executor.batches_inline"),
            batches_fanned: registry.counter("executor.batches_fanned"),
            decompose_ns: registry.histogram("executor.phase.decompose_ns"),
            scan_ns: registry.histogram("executor.phase.scan_ns"),
            merge_ns: registry.histogram("executor.phase.merge_ns"),
        }
    }
}

/// One (column, shard) work item of a batch: every sub-query of the batch
/// that must visit this shard.
struct ShardTask {
    column: usize,
    shard: usize,
    /// `(query index in the batch, low, high)`.
    sub_queries: Vec<(usize, Value, Value)>,
}

/// Shard-parallel batch executor over a shared [`Table`], running on a
/// persistent [`Pool`].
pub struct Executor {
    table: Arc<Table>,
    /// Flat `(column, shard)` address of every shard; the table shape is
    /// immutable after construction, so this is computed once.
    addresses: Vec<(usize, usize)>,
    /// `flat_id(c, s) = column_offsets[c] + s`.
    column_offsets: Vec<usize>,
    pool: Pool,
    /// The registry passed to [`Executor::with_metrics`], if any.
    registry: Option<Arc<MetricsRegistry>>,
    /// Metric handles registered in `registry`.
    obs: Option<ExecutorObs>,
    /// Durability layer, when attached ([`Executor::with_durability`]):
    /// mutations route through its write-ahead log, which checkpoints
    /// opportunistically after a write.
    durability: Option<Arc<crate::durability::DurableTable>>,
}

impl Executor {
    /// Creates an executor with default configuration.
    pub fn new(table: Arc<Table>) -> Self {
        Self::with_config(table, ExecutorConfig::default())
    }

    /// Creates an executor with an explicit configuration, spawning its
    /// persistent worker pool. Records no metrics; see
    /// [`Executor::with_metrics`].
    pub fn with_config(table: Arc<Table>, config: ExecutorConfig) -> Self {
        Self::build_with(table, config, None, None)
    }

    /// Creates an executor whose `executor.*` metrics — batch/query
    /// counters, digest-shortcut hits, converged shards reopened by writes
    /// and the per-phase `executor.phase.*_ns` timing decomposition — land in
    /// `registry`, together with the worker pool's `sched.pool.*`
    /// metrics. Pair with [`crate::table::TableBuilder::metrics`] (index
    /// layer) and `pi_sched::Server::with_metrics` (serving layer) on the
    /// same registry for a full-stack snapshot.
    pub fn with_metrics(
        table: Arc<Table>,
        config: ExecutorConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        Self::build_with(table, config, Some(registry), None)
    }

    /// Creates an executor over a durable table
    /// ([`crate::durability::DurableTable`]): queries and
    /// [`Executor::drive_to_convergence`] serve the wrapped table as
    /// usual, while [`Executor::apply_mutations`] logs every batch to the
    /// write-ahead log before applying it in the same request order, then
    /// checkpoints when a growth threshold was crossed
    /// ([`crate::durability::DurabilityConfig`]). Pass the registry the
    /// durable table was created with, if any, to also get the
    /// `executor.*` metrics.
    pub fn with_durability(
        durable: Arc<crate::durability::DurableTable>,
        config: ExecutorConfig,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        Self::build_with(Arc::clone(durable.table()), config, registry, Some(durable))
    }

    fn build_with(
        table: Arc<Table>,
        config: ExecutorConfig,
        registry: Option<Arc<MetricsRegistry>>,
        durability: Option<Arc<crate::durability::DurableTable>>,
    ) -> Self {
        let mut addresses = Vec::with_capacity(table.total_shards());
        let mut column_offsets = Vec::with_capacity(table.columns().len());
        for (c, column) in table.columns().iter().enumerate() {
            column_offsets.push(addresses.len());
            addresses.extend((0..column.shard_count()).map(|s| (c, s)));
        }
        let workers = config.worker_threads.max(1);
        let pool = match &registry {
            Some(registry) => Pool::with_metrics(workers, Arc::clone(registry)),
            None => Pool::new(workers),
        };
        Executor {
            table,
            addresses,
            column_offsets,
            pool,
            obs: registry.as_deref().map(ExecutorObs::register),
            registry,
            durability,
        }
    }

    /// The durability layer, when one is attached.
    pub fn durability(&self) -> Option<&Arc<crate::durability::DurableTable>> {
        self.durability.as_ref()
    }

    /// The table this executor serves.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Scheduler counters of the underlying pool (jobs run by workers and
    /// by helping callers).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The metrics registry this executor reports into (`None` unless
    /// built through [`Executor::with_metrics`]).
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    fn flat_id(&self, column: usize, shard: usize) -> usize {
        self.column_offsets[column] + shard
    }

    /// Executes a batch of range-sum queries.
    ///
    /// Results come back in request order and are bit-identical to a full
    /// scan of the base column (per-query answers never depend on how far
    /// indexing has progressed).
    ///
    /// The only indexing this call performs is each sub-query's δ-slice
    /// on the shard it probes. A shard the batch does not probe, or
    /// answers from its digest because the range covers it, is not
    /// indexed: it converges through later queries that probe it, writes
    /// that land on it, or [`Executor::drive_to_convergence`].
    pub fn execute_batch(&self, queries: &[TableQuery]) -> Result<Vec<ScanResult>, EngineError> {
        // Resolve names up front, so an unknown column fails the whole
        // batch before any work happens. (The scope timer records the
        // failed framing too — an error batch still spent the time.)
        let decompose_timer = self.decompose_timer();
        let resolved = queries
            .iter()
            .map(|q| {
                self.resolve(&q.column)
                    .map(|column| (column, q.low, q.high))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut results = vec![ScanResult::EMPTY; queries.len()];
        self.execute_resolved(&resolved, &mut results, decompose_timer);
        Ok(results)
    }

    /// Executes a single query: the batch path for one resolved query,
    /// its answer kept on the stack.
    pub fn execute_one(
        &self,
        column: &str,
        low: Value,
        high: Value,
    ) -> Result<ScanResult, EngineError> {
        let decompose_timer = self.decompose_timer();
        let column = self.resolve(column)?;
        let mut result = [ScanResult::EMPTY];
        self.execute_resolved(&[(column, low, high)], &mut result, decompose_timer);
        Ok(result[0])
    }

    /// The index of the column named `column`.
    pub(crate) fn resolve(&self, column: &str) -> Result<usize, EngineError> {
        self.table
            .column_index(column)
            .ok_or_else(|| EngineError::UnknownColumn(column.to_string()))
    }

    /// Starts timing a batch's framing, when the executor is metered.
    pub(crate) fn decompose_timer(&self) -> Option<ScopeTimer<'_>> {
        self.obs.as_ref().map(|o| ScopeTimer::new(&o.decompose_ns))
    }

    /// The batch path past name resolution: answers the `(column, low,
    /// high)` queries into `results`, one empty slot each.
    /// `decompose_timer`, started before resolution, stops once the batch
    /// is routed.
    pub(crate) fn execute_resolved(
        &self,
        queries: &[(usize, Value, Value)],
        results: &mut [ScanResult],
        decompose_timer: Option<ScopeTimer<'_>>,
    ) {
        let obs = self.obs.as_ref();
        if let Some(obs) = obs {
            obs.batches.inc();
            obs.queries.add(queries.len() as u64);
        }

        // Decompose the batch into per-(column, shard) sub-query lists.
        // Tasks are looked up through a dense flat-shard-id scratch table
        // (the table shape is immutable), not a hash map: batch framing
        // runs once per shard visit, and hashing dominated it at higher
        // shard counts.
        let mut tasks: Vec<ShardTask> = Vec::new();
        let mut task_of: Vec<Option<usize>> = vec![None; self.addresses.len()];
        for (query_idx, &(column, low, high)) in queries.iter().enumerate() {
            let sharded = &self.table.columns()[column];
            for shard in sharded.overlapping(low, high) {
                // Fully covered shards are answered from their precomputed
                // totals right here — no task, no lock, no index probe; a
                // wide query only fans real work out to its two boundary
                // shards.
                if let Some(total) = sharded.covered_total(shard, low, high) {
                    if let Some(obs) = obs {
                        obs.digest_hits.inc();
                    }
                    results[query_idx] = results[query_idx].merge(total);
                    continue;
                }
                let flat = self.flat_id(column, shard);
                let task = *task_of[flat].get_or_insert_with(|| {
                    tasks.push(ShardTask {
                        column,
                        shard,
                        sub_queries: Vec::new(),
                    });
                    tasks.len() - 1
                });
                tasks[task].sub_queries.push((query_idx, low, high));
            }
        }
        drop(decompose_timer);

        let scan_timer = obs.map(|o| ScopeTimer::new(&o.scan_ns));
        let partials = self.run_shard_tasks(tasks, results);
        drop(scan_timer);

        let merge_timer = obs.map(|o| ScopeTimer::new(&o.merge_ns));
        for (query_idx, partial) in partials {
            results[query_idx] = results[query_idx].merge(partial);
        }
        drop(merge_timer);
    }

    /// Elements the tasks a caller could hand to other workers are
    /// predicted to read: everything but the largest task, which it runs
    /// itself. Priced from lock-free inputs only — each sub-query scans
    /// its shard's not-yet-indexed share and probes the rest.
    fn predicted_handover(&self, tasks: &[ShardTask]) -> usize {
        let (total, largest) = tasks.iter().fold((0, 0), |(total, largest), task| {
            let column = &self.table.columns()[task.column];
            let unindexed = (1.0 - column.shard_rho_estimate(task.shard)).max(0.0)
                * column.shard_rows()[task.shard] as f64;
            let elements = task.sub_queries.len() * (unindexed as usize + PROBE_ELEMENTS);
            (total + elements, largest.max(elements))
        });
        total - largest
    }

    /// The single dispatch path for shard tasks: runs every task. An
    /// inline batch folds each partial result into its query's slot of
    /// `results` as it is probed; a fanned one returns the `(query index,
    /// partial result)` pairs its workers collected, in arbitrary order,
    /// for the caller to fold (the merge is commutative).
    ///
    /// The caller runs at least the largest task itself; the rest goes
    /// through the pool, with the caller helping, only when it is
    /// predicted to exceed `FAN_OUT_BREAK_EVEN_ELEMENTS`.
    fn run_shard_tasks(
        &self,
        tasks: Vec<ShardTask>,
        results: &mut [ScanResult],
    ) -> Vec<(usize, ScanResult)> {
        let fan_out = self.pool.workers() > 1
            && self.predicted_handover(&tasks) > FAN_OUT_BREAK_EVEN_ELEMENTS;
        if let Some(obs) = &self.obs {
            if fan_out {
                obs.batches_fanned.inc();
            } else {
                obs.batches_inline.inc();
            }
        }
        if !fan_out {
            for task in &tasks {
                let column = &self.table.columns()[task.column];
                for &(query_idx, low, high) in &task.sub_queries {
                    let partial = column.query_shard(task.shard, low, high);
                    results[query_idx] = results[query_idx].merge(partial);
                }
            }
            return Vec::new();
        }
        struct BatchState {
            table: Arc<Table>,
            tasks: Vec<ShardTask>,
            partials: Mutex<Vec<(usize, ScanResult)>>,
        }
        let expected: usize = tasks.iter().map(|t| t.sub_queries.len()).sum();
        let state = Arc::new(BatchState {
            table: Arc::clone(&self.table),
            tasks,
            partials: Mutex::new(Vec::with_capacity(expected)),
        });
        let jobs: Vec<(usize, Job)> = (0..state.tasks.len())
            .map(|i| {
                let state = Arc::clone(&state);
                let job: Job = Box::new(move || {
                    let task = &state.tasks[i];
                    let column = &state.table.columns()[task.column];
                    let mut local = Vec::with_capacity(task.sub_queries.len());
                    for &(query_idx, low, high) in &task.sub_queries {
                        local.push((query_idx, column.query_shard(task.shard, low, high)));
                    }
                    state
                        .partials
                        .lock()
                        .expect("batch partials poisoned")
                        .append(&mut local);
                });
                (0, job)
            })
            .collect();
        self.pool.run(jobs);
        let partials =
            std::mem::take(&mut *state.partials.lock().expect("batch partials poisoned"));
        partials
    }

    /// Applies a batch of mutations to `column` in request order through
    /// the table's serial write path ([`Table::apply_mutations`]), the
    /// one order the write-ahead log replays. Returns the per-mutation
    /// applied flags in request order (inserts always apply; deletes and
    /// updates only when a live victim exists).
    ///
    /// **Isolation.** Writers take the same per-shard mutexes as readers,
    /// so a writer only ever blocks traffic on the one shard it touches,
    /// and the shard's digest is updated atomically with the shard state.
    /// An update whose `old` and `new` values route to different shards
    /// deletes first and inserts only when the delete applied.
    /// **Convergence.** A write that leaves a shard with pending deltas
    /// clears the shard's convergence flag before it releases the shard's
    /// lock, so [`Executor::drive_to_convergence`] and later queries on
    /// the shard fold the new deltas in and re-converge the table.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pi_core::mutation::Mutation;
    /// use pi_engine::{ColumnSpec, Executor, Table};
    ///
    /// let values: Vec<u64> = (0..10_000).map(|i| (i * 37) % 10_000).collect();
    /// let table = Arc::new(
    ///     Table::builder()
    ///         .column(ColumnSpec::new("a", values).with_shards(4))
    ///         .build(),
    /// );
    /// let executor = Executor::new(Arc::clone(&table));
    /// executor.drive_to_convergence(usize::MAX);
    ///
    /// // Mutating a converged table un-converges the touched shards...
    /// let applied = executor
    ///     .apply_mutations("a", &[Mutation::Insert(5), Mutation::Delete(7)])
    ///     .unwrap();
    /// assert_eq!(applied, vec![true, true]);
    /// assert!(!table.is_converged());
    ///
    /// // ...answers stay exact immediately; driving re-converges them.
    /// assert_eq!(executor.execute_one("a", 5, 5).unwrap().count, 2);
    /// executor.drive_to_convergence(usize::MAX);
    /// assert!(table.is_converged());
    /// ```
    pub fn apply_mutations(
        &self,
        column: &str,
        mutations: &[Mutation],
    ) -> Result<Vec<bool>, EngineError> {
        // With durability attached, the batch is logged before it applies.
        if let Some(durable) = &self.durability {
            return durable
                .apply_mutations(column, mutations)
                .map_err(EngineError::from);
        }
        self.table
            .apply_mutations(column, mutations)
            .ok_or_else(|| EngineError::UnknownColumn(column.to_string()))
    }

    /// Drives every shard of every column to convergence on the calling
    /// thread: round-robin passes over the shards, one budgeted step (one
    /// lock acquisition) per unconverged shard per pass, until the table
    /// has converged or `max_steps` steps are spent. Returns the steps
    /// spent. This is the one way to converge shards that no query
    /// probes: no pool worker indexes on its own.
    ///
    /// Convergence is deterministic (the paper's guarantee, per shard), so
    /// this always terminates; `max_steps` is a safety valve for tests. A
    /// pass that finds nothing to do while the table is unconverged (a
    /// concurrent write reopened a shard behind it) simply passes again.
    pub fn drive_to_convergence(&self, max_steps: usize) -> usize {
        let mut spent = 0;
        while spent < max_steps && !self.table.is_converged() {
            for at in 0..self.addresses.len() {
                if spent == max_steps {
                    break;
                }
                spent += self.advance_at(at);
            }
        }
        spent
    }

    /// One budgeted step on the shard at flat address `at` (one lock
    /// acquisition), unless the shard's published convergence flag says
    /// there is nothing to do. Returns the steps performed.
    fn advance_at(&self, at: usize) -> usize {
        let (c, s) = self.addresses[at];
        let column = &self.table.columns()[c];
        if column.shard_is_converged(s) {
            0
        } else {
            column.advance_shard_by(s, 1)
        }
    }
}

/// The engine is the canonical [`pi_sched::BatchExecutor`]: a
/// [`pi_sched::Server`] front-end gives it bounded admission,
/// backpressure and graceful shutdown, and runs each batch on its
/// submitter's thread.
impl BatchExecutor for Executor {
    type Request = TableQuery;
    type Response = ScanResult;
    type Error = EngineError;

    fn execute_batch(&self, batch: &[TableQuery]) -> Result<Vec<ScanResult>, EngineError> {
        Executor::execute_batch(self, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnSpec, Table};
    use pi_core::budget::BudgetPolicy;
    use pi_core::testing::random_column;
    use pi_storage::scan::scan_range_sum;

    fn test_table(n: usize, shards: usize) -> (Arc<Table>, Vec<Value>, Vec<Value>) {
        test_table_with(n, shards, Table::builder())
    }

    /// Columns `a` (default policy) and `b` (`FixedDelta(0.5)`), both
    /// fixed-δ so twin tables refine identically, built by `builder`.
    fn test_table_with(
        n: usize,
        shards: usize,
        builder: crate::table::TableBuilder,
    ) -> (Arc<Table>, Vec<Value>, Vec<Value>) {
        let a = random_column(n, n as u64, 5).into_vec();
        let b: Vec<Value> = a
            .iter()
            .map(|v| v.wrapping_mul(7) % (2 * n as u64))
            .collect();
        let table = Arc::new(
            builder
                .column(ColumnSpec::new("a", a.clone()).with_shards(shards))
                .column(
                    ColumnSpec::new("b", b.clone())
                        .with_shards(shards)
                        .with_policy(BudgetPolicy::FixedDelta(0.5)),
                )
                .build(),
        );
        (table, a, b)
    }

    #[test]
    fn batch_results_match_full_scan() {
        let (table, a, b) = test_table(20_000, 4);
        let executor = Executor::new(table);
        let batch: Vec<TableQuery> = (0..50)
            .map(|i| {
                let low = (i * 367) % 18_000;
                TableQuery::new(if i % 2 == 0 { "a" } else { "b" }, low, low + 2_000)
            })
            .collect();
        let results = executor.execute_batch(&batch).unwrap();
        for (q, r) in batch.iter().zip(&results) {
            let base = if q.column == "a" { &a } else { &b };
            assert_eq!(*r, scan_range_sum(base, q.low, q.high), "{q:?}");
        }
    }

    #[test]
    fn multi_worker_pool_matches_full_scan() {
        // Forces the pooled dispatch path even on a single-core host.
        let (table, a, b) = test_table(20_000, 8);
        let executor = Executor::with_config(table, ExecutorConfig::with_workers(4));
        let batch: Vec<TableQuery> = (0..60)
            .map(|i| {
                let low = (i * 311) % 18_000;
                TableQuery::new(if i % 2 == 0 { "a" } else { "b" }, low, low + 3_000)
            })
            .collect();
        let results = executor.execute_batch(&batch).unwrap();
        for (q, r) in batch.iter().zip(&results) {
            let base = if q.column == "a" { &a } else { &b };
            assert_eq!(*r, scan_range_sum(base, q.low, q.high), "{q:?}");
        }
        assert!(executor.pool_stats().total_executed() > 0);
    }

    /// One narrow range per shard of column `a`.
    fn narrow_batch(rows: usize, shards: usize) -> Vec<TableQuery> {
        (0..shards)
            .map(|s| {
                let low = (s * rows / shards + rows / shards / 2) as u64;
                TableQuery::new("a", low, low + 40)
            })
            .collect()
    }

    /// `(batches_inline, batches_fanned)` of a metered executor.
    fn dispatch_counts(executor: &Executor) -> (u64, u64) {
        let snap = executor.metrics().expect("metered").snapshot();
        (
            snap.counter("executor.batches_inline").unwrap(),
            snap.counter("executor.batches_fanned").unwrap(),
        )
    }

    #[test]
    fn converged_batches_run_inline_on_a_multi_worker_pool() {
        let (table, a, _) = test_table(128_000, 8);
        let executor = Executor::with_metrics(
            Arc::clone(&table),
            ExecutorConfig::with_workers(2),
            Arc::new(MetricsRegistry::new()),
        );
        assert_eq!(dispatch_counts(&executor), (0, 0));
        executor.drive_to_convergence(usize::MAX);
        assert!(table.is_converged());
        let jobs_before = executor.pool_stats().total_executed();
        // Eight shards, thirty-two sub-queries, and one wide range whose
        // two end shards are probed: all O(log n), none worth a wake-up.
        let mut batch = narrow_batch(128_000, 8);
        batch.extend(batch.clone());
        batch.extend(batch.clone());
        batch.push(TableQuery::new("a", 10_000, 100_000));
        let results = executor.execute_batch(&batch).unwrap();
        for (q, r) in batch.iter().zip(&results) {
            assert_eq!(*r, scan_range_sum(&a, q.low, q.high), "{q:?}");
        }
        assert_eq!(executor.pool_stats().total_executed(), jobs_before);
        assert_eq!(dispatch_counts(&executor), (1, 0));
    }

    #[test]
    fn unindexed_large_shards_still_fan_out() {
        let (table, a, _) = test_table(128_000, 8);
        let executor = Executor::with_metrics(
            table,
            ExecutorConfig::with_workers(2),
            Arc::new(MetricsRegistry::new()),
        );
        // Nothing is indexed yet: each of the eight sub-queries scans its
        // whole 16k-row shard, seven of them more than the break-even.
        let batch = narrow_batch(128_000, 8);
        let results = executor.execute_batch(&batch).unwrap();
        for (q, r) in batch.iter().zip(&results) {
            assert_eq!(*r, scan_range_sum(&a, q.low, q.high), "{q:?}");
        }
        assert_eq!(executor.pool_stats().total_executed(), 8);
        assert_eq!(dispatch_counts(&executor), (0, 1));
        // A single shard task has nothing to hand over, however large.
        executor.execute_batch(&batch[..1]).unwrap();
        assert_eq!(dispatch_counts(&executor), (1, 1));
    }

    #[test]
    fn unknown_column_fails_the_batch() {
        let (table, _, _) = test_table(1_000, 2);
        let executor = Executor::new(table);
        let err = executor
            .execute_batch(&[TableQuery::new("nope", 0, 10)])
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownColumn("nope".into()));
        assert!(err.to_string().contains("nope"));
        assert_eq!(executor.execute_one("nope", 0, 10), Err(err));
    }

    #[test]
    fn maintenance_drives_convergence_without_client_queries() {
        let (table, a, _) = test_table(5_000, 4);
        let executor = Executor::with_config(Arc::clone(&table), ExecutorConfig::with_workers(2));
        let spent = executor.drive_to_convergence(1_000_000);
        assert!(
            table.is_converged(),
            "table not converged after {spent} steps"
        );
        assert!(spent > 0);
        // The loop runs on the calling thread: no pool job was spent.
        assert_eq!(executor.pool_stats().total_executed(), 0);
        // Converged answers still exact.
        let r = executor.execute_one("a", 100, 3_000).unwrap();
        assert_eq!(r, scan_range_sum(&a, 100, 3_000));
    }

    #[test]
    fn batches_index_only_the_shards_they_probe() {
        let twin = |maintenance_steps| {
            let registry = Arc::new(MetricsRegistry::new());
            let builder = Table::builder().metrics(Arc::clone(&registry));
            let (table, _, _) = test_table_with(50_000, 8, builder);
            let executor = Executor::with_config(
                Arc::clone(&table),
                ExecutorConfig {
                    maintenance_steps,
                    ..ExecutorConfig::with_workers(2)
                },
            );
            // Narrow ranges inside shard 0 of column `a` only.
            let end = table.column("a").unwrap().partition().boundaries()[0];
            for i in 0..20 {
                let low = i * end / 40;
                executor
                    .execute_batch(&[TableQuery::new("a", low, low + end / 4)])
                    .unwrap();
            }
            // Dropping the executor drops its pool, which drains every
            // job already queued.
            drop(executor);
            (table, registry.snapshot())
        };
        let (spent, spent_metrics) = twin(4);
        let (plain, plain_metrics) = twin(0);
        for name in ["a", "b"] {
            assert_eq!(
                spent.column(name).unwrap().shard_statuses(),
                plain.column(name).unwrap().shard_statuses(),
                "column {name}"
            );
            let steps = format!("core.{name}.refine_steps");
            assert_eq!(spent_metrics.counter(&steps), plain_metrics.counter(&steps));
        }
        // Column `b` was never queried, so no step refined it.
        assert_eq!(plain_metrics.counter("core.b.refine_steps"), Some(0));
        assert!(plain_metrics.counter("core.a.refine_steps") > Some(0));
    }

    #[test]
    fn empty_batch_and_empty_range() {
        let (table, _, _) = test_table(1_000, 4);
        let executor = Executor::new(table);
        assert_eq!(executor.execute_batch(&[]).unwrap(), vec![]);
        let r = executor.execute_one("a", 10, 5).unwrap();
        assert_eq!(r, ScanResult::EMPTY);
    }

    #[test]
    fn concurrent_clients_get_exact_answers() {
        let (table, a, b) = test_table(30_000, 4);
        let executor = Arc::new(Executor::with_config(
            Arc::clone(&table),
            ExecutorConfig::with_workers(4),
        ));
        std::thread::scope(|scope| {
            for client in 0..4 {
                let executor = Arc::clone(&executor);
                let a = &a;
                let b = &b;
                scope.spawn(move || {
                    for i in 0..30 {
                        let low = ((client * 7 + i) * 811) % 25_000;
                        let high = low + 3_000;
                        let column = if (client + i) % 2 == 0 { "a" } else { "b" };
                        let base = if column == "a" { a } else { b };
                        let r = executor.execute_one(column, low, high).unwrap();
                        assert_eq!(r, scan_range_sum(base, low, high));
                    }
                });
            }
        });
    }
}
