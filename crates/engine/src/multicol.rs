//! Multi-column queries over progressive indexes: conjunctive
//! predicates and grouped aggregates.
//!
//! The paper evaluates each progressive index on single-column range
//! scans; this module turns a set of independently-refined columns into
//! a small progressive *database*:
//!
//! * [`MultiTable`] — a row store of heterogeneous columns (built from
//!   [`ErasedColumn`]s: u64 / i64 / f64 / string) kept row-aligned under
//!   one `RwLock`, wrapping an inner `u64` [`Table`] that indexes each
//!   column's order-preserving codes. A string column is stored as one
//!   16-byte order key per row (its first 15 bytes and its length),
//!   computed once when the row is built or written; the full string is
//!   kept only for rows longer than 15 bytes. Row mutations
//!   ([`RowMutation`]) update both sides under the write lock, so the
//!   row store and the shard multisets always agree.
//! * [`MultiExecutor`] — executes conjunctions
//!   (`WHERE a BETWEEN .. AND b BETWEEN ..`) in two decoupled parts. The
//!   [`planner`](crate::planner) picks a *driving* predicate; its scan
//!   goes through the normal shard-parallel [`Executor`] path and pays
//!   the paper's per-query δ of refinement work on that column. The
//!   answer is computed **predicate-at-a-time over a selection vector**
//!   in the planner's cost order: the first predicate selects row ids
//!   (`RowColumn::select`), every later one compacts the selection
//!   (`RowColumn::refine`) — each predicate evaluated once, exactly in
//!   the key domain's order, at every refinement stage.
//! * Grouped aggregates ([`MultiExecutor::grouped`]) —
//!   `SUM/COUNT/MIN/MAX GROUP BY bucket` answered from per-shard
//!   [`DigestTree`]s behind the table's hot-range [`AggregateCache`],
//!   whose slots a row write empties for every shard it touches before
//!   it releases the row store's write lock.
//!
//! ## Exactness under concurrency
//!
//! Conjunction reads hold the row store's read lock across the driving
//! scan and the selection passes; writers hold the write lock across
//! both the row store update and the inner shard mutations. Lock order
//! is always `row store → shard mutex`, on both paths, so there is no
//! deadlock and every conjunction observes a consistent row-store/shard
//! state. The answer is an intersection in **exact key order**, so
//! neither predicate order nor the driving choice can change it. Code
//! ranges only ever over-select (string prefix ties), which is why a
//! driving count of 0 proves the conjunction empty.
//!
//! ## Grouped-aggregate semantics
//!
//! Groups are **whole grid buckets** in code space: bucket `b` of width
//! `w` covers codes `[b·w, (b+1)·w)`, and a bucket participates as soon
//! as the query range touches it. Cells are exact over the bucket's
//! live rows. `SUM` decodes exactly for `u64`/`i64` columns, `MIN`/`MAX`
//! decode exactly for every injective encoding (`u64`/`i64`/`f64`);
//! string groups serve `COUNT` only (an 8-byte prefix code does not
//! determine the full key).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use pi_core::mutation::Mutation;
use pi_obs::{Counter, MetricsRegistry};
use pi_storage::digest::{bucket_of, DigestTree};
use pi_storage::encoding::OrderedKey;
use pi_storage::scan::ScanResult;
use pi_storage::Value;

use crate::erased::{ErasedColumn, ErasedKey, ErasedSum, RowColumn};
use crate::executor::{EngineError, Executor, ExecutorConfig};
use crate::planner::{choose_driving, Plan, PredicateStats};
use crate::table::{ColumnSpec, ShardedColumn, Table};

/// A [`MultiTable`] column: a [`ColumnSpec`] over one (possibly
/// heterogeneous) column of full typed keys.
pub type MultiColumnSpec = ColumnSpec<ErasedColumn>;

/// The row-aligned side of a [`MultiTable`]: each column's keys (strings
/// as their row keys), plus the live bitmap. Rows are append-only — a delete marks its slot
/// dead, an update replaces keys in place — so a row id stays stable for
/// the table's lifetime.
struct RowStore {
    columns: Vec<RowColumn>,
    live: Vec<bool>,
    live_count: usize,
}

/// A mutation addressed to one **row** of a [`MultiTable`].
#[derive(Debug, Clone)]
pub enum RowMutation {
    /// Appends a row (one key per column, in column order). Always
    /// applies; the new row's id is the append index.
    Insert(Vec<ErasedKey>),
    /// Marks row `0` dead and removes its values from every column's
    /// index. Rejected (returns `false`) when the row is dead or out of
    /// range.
    Delete(usize),
    /// Replaces the row's keys in place (same row id). Rejected when the
    /// row is dead or out of range.
    Update {
        /// The row to update.
        row: usize,
        /// The row's new keys (one per column, in column order).
        keys: Vec<ErasedKey>,
    },
}

/// One `BETWEEN` predicate of a conjunction.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// The predicate's column.
    pub column: String,
    /// Lower bound (inclusive), in the column's key domain.
    pub low: ErasedKey,
    /// Upper bound (inclusive); `low > high` is the empty range.
    pub high: ErasedKey,
}

impl Predicate {
    /// Creates a predicate.
    pub fn new(column: impl Into<String>, low: ErasedKey, high: ErasedKey) -> Self {
        Predicate {
            column: column.into(),
            low,
            high,
        }
    }

    /// Convenience constructor for `u64` bounds.
    pub fn between_u64(column: impl Into<String>, low: u64, high: u64) -> Self {
        Predicate::new(column, ErasedKey::U64(low), ErasedKey::U64(high))
    }
}

/// The exact answer to one conjunction.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctionAnswer {
    /// Number of live rows satisfying **every** predicate.
    pub count: u64,
    /// Per-predicate-column sums over the surviving rows, aligned with
    /// the conjunction's predicate order; `None` where the column's
    /// domain has no exact sum (f64, string).
    pub sums: Vec<Option<ErasedSum>>,
    /// Index of the predicate that drove the scan (observability; the
    /// result set never depends on it).
    pub driving: usize,
}

/// One group's aggregate row, decoded into the column's key domain.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// The grid bucket (codes `[bucket·width, (bucket+1)·width)`).
    pub bucket: u64,
    /// Live rows in the bucket.
    pub count: u64,
    /// Exact sum of the bucket's keys; `None` where the domain has no
    /// exact sum (f64, string).
    pub sum: Option<ErasedSum>,
    /// Smallest key in the bucket; `None` for string columns (prefix
    /// codes do not determine full keys).
    pub min: Option<ErasedKey>,
    /// Largest key in the bucket; `None` for string columns.
    pub max: Option<ErasedKey>,
}

/// A heterogeneous multi-column table: the row-aligned typed store plus
/// the inner `u64` [`Table`] of progressive code indexes.
pub struct MultiTable {
    inner: Arc<Table>,
    names: Vec<String>,
    store: RwLock<RowStore>,
    agg_cache: AggregateCache,
}

/// Builder for [`MultiTable`].
#[derive(Default)]
pub struct MultiTableBuilder {
    specs: Vec<MultiColumnSpec>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl MultiTableBuilder {
    /// Adds a column.
    pub fn column(mut self, spec: MultiColumnSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Registers the inner table's index metrics in `registry` (see
    /// [`crate::table::TableBuilder::metrics`]).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Builds the table.
    ///
    /// # Panics
    /// Panics on duplicate column names, on columns of unequal row
    /// counts, on an empty column list, and on more than `u32::MAX` rows
    /// (selection vectors hold `u32` row ids).
    pub fn build(self) -> MultiTable {
        assert!(!self.specs.is_empty(), "a table needs at least one column");
        let mut builder = Table::builder();
        let mut names = Vec::with_capacity(self.specs.len());
        let mut columns: Vec<RowColumn> = Vec::with_capacity(self.specs.len());
        for ColumnSpec {
            name,
            keys,
            shards,
            policy,
            choice,
        } in self.specs
        {
            let column = RowColumn::from(keys);
            let rows = columns.first().map_or(column.len(), RowColumn::len);
            assert!(rows <= u32::MAX as usize, "at most u32::MAX rows");
            assert_eq!(
                column.len(),
                rows,
                "column {name:?} must hold the same row count as its siblings"
            );
            let keys = column.codes();
            builder = builder.column(ColumnSpec {
                name: name.clone(),
                keys,
                shards,
                policy,
                choice,
            });
            names.push(name);
            columns.push(column);
        }
        let rows = columns[0].len();
        if let Some(registry) = self.metrics {
            builder = builder.metrics(registry);
        }
        MultiTable {
            inner: Arc::new(builder.build()),
            names,
            store: RwLock::new(RowStore {
                columns,
                live: vec![true; rows],
                live_count: rows,
            }),
            agg_cache: AggregateCache::new(),
        }
    }
}

impl MultiTable {
    /// Starts building a table.
    pub fn builder() -> MultiTableBuilder {
        MultiTableBuilder::default()
    }

    /// The inner `u64` table of code indexes. **All writes must go
    /// through [`MultiTable::apply_rows`]** — mutating the inner table
    /// directly desynchronises it from the row store, and leaves the
    /// aggregate cache's trees for the shards it touched in place, so
    /// later grouped answers read the old values: the cache is only
    /// emptied by `apply_rows`, under the row store's write lock.
    pub fn inner(&self) -> &Arc<Table> {
        &self.inner
    }

    /// Column names, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.store.read().expect("row store poisoned").live_count
    }

    /// Applies a batch of row mutations in order, under one row-store
    /// write lock, and empties the aggregate cache's slots of every shard
    /// the batch wrote to before releasing it. Returns the per-mutation
    /// applied flags.
    ///
    /// # Panics
    /// Panics when an insert/update's key list does not match the
    /// table's column count, a key's domain does not match its column's,
    /// or an insert would grow the row store past `u32::MAX` rows
    /// (programmer errors; dead/out-of-range rows are runtime conditions
    /// and return `false`).
    pub fn apply_rows(&self, mutations: &[RowMutation]) -> Vec<bool> {
        let mut store = self.store.write().expect("row store poisoned");
        let mut touched = Vec::new();
        let applied = mutations
            .iter()
            .map(|m| self.apply_row(&mut store, m, &mut touched))
            .collect();
        self.agg_cache.invalidate(touched);
        applied
    }

    /// Applies one code-space write of a row to column `c`'s index,
    /// noting the `(column, shard)` pairs it lands on in `touched`.
    fn apply_code(&self, c: usize, op: Mutation, touched: &mut Vec<(usize, usize)>) {
        let column = &self.inner.columns()[c];
        let (a, b) = match op {
            Mutation::Insert(v) | Mutation::Delete(v) => (v, v),
            Mutation::Update { old, new } => (old, new),
        };
        touched.extend([(c, column.shard_of(a)), (c, column.shard_of(b))]);
        let applied = column.apply_mutations(std::slice::from_ref(&op));
        debug_assert_eq!(applied, [true], "a live row's codes are in their indexes");
    }

    fn apply_row(
        &self,
        store: &mut RowStore,
        mutation: &RowMutation,
        touched: &mut Vec<(usize, usize)>,
    ) -> bool {
        match mutation {
            RowMutation::Insert(keys) => {
                assert_eq!(
                    keys.len(),
                    store.columns.len(),
                    "insert arity must match the column count"
                );
                assert!(
                    store.live.len() < u32::MAX as usize,
                    "at most u32::MAX rows"
                );
                for (c, key) in keys.iter().enumerate() {
                    let code = key.to_code();
                    store.columns[c].push(key.clone());
                    self.apply_code(c, Mutation::Insert(code), touched);
                }
                store.live.push(true);
                store.live_count += 1;
                true
            }
            RowMutation::Delete(row) => {
                let row = *row;
                if row >= store.live.len() || !store.live[row] {
                    return false;
                }
                store.live[row] = false;
                store.live_count -= 1;
                for (c, column) in store.columns.iter().enumerate() {
                    self.apply_code(c, Mutation::Delete(column.code_at(row)), touched);
                }
                true
            }
            RowMutation::Update { row, keys } => {
                let row = *row;
                if row >= store.live.len() || !store.live[row] {
                    return false;
                }
                assert_eq!(
                    keys.len(),
                    store.columns.len(),
                    "update arity must match the column count"
                );
                for (c, key) in keys.iter().enumerate() {
                    let new = key.to_code();
                    let old = store.columns[c].replace(row, key.clone());
                    self.apply_code(c, Mutation::Update { old, new }, touched);
                }
                true
            }
        }
    }

    /// Resolves a column name to its position (row-store columns and
    /// inner columns are built in the same order).
    fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// One predicate resolved against the table: column position and code
/// bounds.
struct Resolved {
    pos: usize,
    low_code: Value,
    high_code: Value,
    empty: bool,
}

/// The `planner.*` metric handles (always-live counters; registered only
/// through [`MultiExecutor::with_metrics`]).
struct PlannerObs {
    /// `planner.conjunctions` — conjunctions executed.
    conjunctions: Arc<Counter>,
    /// `planner.survivors_validated` — the size of the selection after
    /// the first evaluated predicate: the rows that still had to be
    /// checked against the conjunction's other predicates.
    survivors_validated: Arc<Counter>,
    /// `planner.agg.cache_hits` — grouped-aggregate digest trees served
    /// from the cache.
    agg_cache_hits: Arc<Counter>,
    /// `planner.agg.cache_invalidations` — cached trees rebuilt because
    /// a row write had emptied their slot.
    agg_cache_invalidations: Arc<Counter>,
    /// `planner.driving.<column>` — driving-column choices, in column
    /// order.
    driving: Vec<Arc<Counter>>,
}

impl PlannerObs {
    fn register(registry: &MetricsRegistry, names: &[String]) -> Self {
        PlannerObs {
            conjunctions: registry.counter("planner.conjunctions"),
            survivors_validated: registry.counter("planner.survivors_validated"),
            agg_cache_hits: registry.counter("planner.agg.cache_hits"),
            agg_cache_invalidations: registry.counter("planner.agg.cache_invalidations"),
            driving: names
                .iter()
                .map(|name| {
                    let metric = format!("planner.driving.{}", pi_obs::sanitize_component(name));
                    registry.counter(&metric)
                })
                .collect(),
        }
    }
}

/// A cached tree's `(column, shard, bucket width)`.
type SlotKey = (usize, usize, Value);

/// The hot-range aggregate cache: per `(column, shard, width)` digest
/// trees, one per [`MultiTable`] and shared by its executors.
///
/// **Invariant:** a slot holds a tree only while the shard's live
/// multiset is the one the tree was folded from. [`MultiTable::apply_rows`]
/// empties the slots of every shard it wrote to before it releases the row
/// store's write lock, and [`MultiExecutor::grouped`] holds that lock
/// shared from lookup to answer, so no write lands between a tree's build
/// and its use.
pub struct AggregateCache {
    /// `None` is a slot a write emptied: it still counts in
    /// [`AggregateCache::len`], and its rebuild counts as an invalidation.
    slots: Mutex<HashMap<SlotKey, Option<Arc<DigestTree>>>>,
}

impl AggregateCache {
    fn new() -> Self {
        AggregateCache {
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, HashMap<SlotKey, Option<Arc<DigestTree>>>> {
        self.slots.lock().expect("aggregate cache poisoned")
    }

    /// Number of cached per-shard trees, emptied slots included.
    pub fn len(&self) -> usize {
        self.slots().len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the slots of every `(column, shard)` pair in `touched`.
    fn invalidate(&self, mut touched: Vec<(usize, usize)>) {
        touched.sort_unstable();
        touched.dedup();
        for (&(column, shard, _), tree) in self.slots().iter_mut() {
            if touched.binary_search(&(column, shard)).is_ok() {
                *tree = None;
            }
        }
    }

    fn get_or_build(
        &self,
        column: &ShardedColumn,
        pos: usize,
        shard: usize,
        width: Value,
        obs: Option<&PlannerObs>,
    ) -> Arc<DigestTree> {
        let key = (pos, shard, width);
        if let Some(Some(tree)) = self.slots().get(&key) {
            if let Some(obs) = obs {
                obs.agg_cache_hits.inc();
            }
            return Arc::clone(tree);
        }
        // Build outside the cache lock — the shard lock is the contended
        // one. Concurrent builders may both insert; no write runs while
        // the caller holds the row store's read lock, so their trees are
        // equal.
        let tree = Arc::new(digest_tree(column, shard, width));
        let prior = self.slots().insert(key, Some(Arc::clone(&tree)));
        if let Some(obs) = obs {
            if matches!(prior, Some(None)) {
                obs.agg_cache_invalidations.inc();
            }
        }
        tree
    }
}

/// Shard `shard`'s digest tree over the global grid of bucket width
/// `width`, folded from its live multiset under the shard lock. A tree
/// does not care about order and only grows by an insert: with no
/// tombstone pending, the base folds in place and the pending inserts are
/// absorbed. A tombstone takes the merged copy.
fn digest_tree(column: &ShardedColumn, shard: usize, width: Value) -> DigestTree {
    column.with_shard(shard, |index| {
        let (base, sidecar) = index.snapshot_parts();
        if sidecar.tombstones().is_empty() {
            let mut tree = DigestTree::build(base.data(), width);
            sidecar.inserts().iter().for_each(|&v| tree.absorb(v));
            tree
        } else {
            DigestTree::build(&index.live_values(), width)
        }
    })
}

/// A grouped-aggregate query: `SUM/COUNT/MIN/MAX(column) WHERE column
/// BETWEEN low AND high GROUP BY bucket(width)`, buckets drawn on the
/// global code grid.
#[derive(Debug, Clone)]
pub struct GroupedQuery {
    /// The aggregated column.
    pub column: String,
    /// Lower bound (inclusive), in the column's key domain.
    pub low: ErasedKey,
    /// Upper bound (inclusive); `low > high` selects no buckets.
    pub high: ErasedKey,
    /// Grid bucket width, in code space; must be positive.
    pub bucket_width: Value,
}

impl GroupedQuery {
    /// Creates a grouped query.
    pub fn new(
        column: impl Into<String>,
        low: ErasedKey,
        high: ErasedKey,
        bucket_width: Value,
    ) -> Self {
        GroupedQuery {
            column: column.into(),
            low,
            high,
            bucket_width,
        }
    }
}

/// Executes conjunctions and grouped aggregates over a [`MultiTable`],
/// driving the inner shard-parallel [`Executor`] for the scan that pays
/// the paper's per-query indexing budget.
pub struct MultiExecutor {
    table: Arc<MultiTable>,
    exec: Executor,
    obs: Option<PlannerObs>,
}

impl MultiExecutor {
    /// Creates an executor with the default configuration.
    pub fn new(table: Arc<MultiTable>) -> Self {
        Self::with_config(table, ExecutorConfig::default())
    }

    /// Creates an executor with an explicit inner-executor configuration.
    pub fn with_config(table: Arc<MultiTable>, config: ExecutorConfig) -> Self {
        let exec = Executor::with_config(Arc::clone(table.inner()), config);
        MultiExecutor {
            table,
            exec,
            obs: None,
        }
    }

    /// Creates an executor whose `planner.*` metrics (conjunctions,
    /// survivors validated, driving-column choices, aggregate-cache hits
    /// and invalidations) — and the inner executor's `executor.*`
    /// metrics — land in `registry`.
    pub fn with_metrics(
        table: Arc<MultiTable>,
        config: ExecutorConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let obs = PlannerObs::register(&registry, table.names());
        let exec = Executor::with_metrics(Arc::clone(table.inner()), config, registry);
        MultiExecutor {
            table,
            exec,
            obs: Some(obs),
        }
    }

    /// The table this executor serves.
    pub fn table(&self) -> &Arc<MultiTable> {
        &self.table
    }

    /// The inner `u64` executor (driving scans and maintenance). Read
    /// through it only: a write through [`Executor::apply_mutations`]
    /// bypasses [`MultiTable::apply_rows`], which keeps the row store and
    /// the aggregate cache in step with the shards.
    pub fn inner(&self) -> &Executor {
        &self.exec
    }

    /// The table's grouped-aggregate cache (size introspection for tests
    /// and operators).
    pub fn aggregate_cache(&self) -> &AggregateCache {
        &self.table.agg_cache
    }

    /// Applies a batch of row mutations (see [`MultiTable::apply_rows`]).
    pub fn apply_rows(&self, mutations: &[RowMutation]) -> Vec<bool> {
        self.table.apply_rows(mutations)
    }

    /// Runs inner maintenance until every shard of every column has
    /// converged or `max_steps` is exhausted; returns steps performed.
    pub fn drive_to_convergence(&self, max_steps: usize) -> usize {
        self.exec.drive_to_convergence(max_steps)
    }

    /// Resolves and validates a conjunction's predicates against the row
    /// store.
    fn resolve(
        &self,
        store: &RowStore,
        predicates: &[Predicate],
    ) -> Result<Vec<Resolved>, EngineError> {
        if predicates.is_empty() {
            return Err(EngineError::EmptyConjunction);
        }
        predicates
            .iter()
            .map(|p| {
                let pos = self
                    .table
                    .position(&p.column)
                    .ok_or_else(|| EngineError::UnknownColumn(p.column.clone()))?;
                let column = &store.columns[pos];
                if p.low.domain() != column.domain() || p.high.domain() != column.domain() {
                    return Err(EngineError::DomainMismatch(p.column.clone()));
                }
                Ok(Resolved {
                    pos,
                    low_code: p.low.to_code(),
                    high_code: p.high.to_code(),
                    empty: p.low.cmp_same(&p.high) == std::cmp::Ordering::Greater,
                })
            })
            .collect()
    }

    /// The planner's decision inputs for each predicate, gathered
    /// lock-free from the inner columns' digests and ρ caches.
    fn gather_stats(&self, store: &RowStore, resolved: &[Resolved]) -> Vec<PredicateStats<'_>> {
        resolved
            .iter()
            .map(|r| {
                let column = &self.table.inner.columns()[r.pos];
                PredicateStats {
                    column: &self.table.names[r.pos],
                    selectivity: column.estimate_selectivity(r.low_code, r.high_code),
                    rho: column.rho_estimate(),
                    prefix_encoded: store.columns[r.pos].prefix_encoded(),
                }
            })
            .collect()
    }

    /// Plans a conjunction without executing it: the driving choice, the
    /// evaluation order and the per-predicate decision inputs behind
    /// them (for tests, `EXPLAIN`-style introspection and observability).
    pub fn plan(&self, predicates: &[Predicate]) -> Result<Plan<'_>, EngineError> {
        let store = self.table.store.read().expect("row store poisoned");
        let resolved = self.resolve(&store, predicates)?;
        Ok(choose_driving(self.gather_stats(&store, &resolved)))
    }

    /// Executes a conjunction: every predicate must hold
    /// (`WHERE p₀ AND p₁ AND …`). Exact at every refinement stage and
    /// under concurrent row mutations; the result set never depends on
    /// predicate order or the planner's choices.
    pub fn execute(&self, predicates: &[Predicate]) -> Result<ConjunctionAnswer, EngineError> {
        let store = self.table.store.read().expect("row store poisoned");
        let resolved = self.resolve(&store, predicates)?;
        if let Some(obs) = &self.obs {
            obs.conjunctions.inc();
        }
        let answer = |sel: &[u32], driving| ConjunctionAnswer {
            count: sel.len() as u64,
            sums: resolved
                .iter()
                .map(|r| store.columns[r.pos].sum_selected(sel))
                .collect(),
            driving,
        };
        if resolved.iter().any(|r| r.empty) {
            // A typed-empty predicate empties the conjunction before any
            // scan: encoding could not represent `low > high` faithfully.
            return Ok(answer(&[], 0));
        }
        let plan = choose_driving(self.gather_stats(&store, &resolved));
        let d = &resolved[plan.driving];
        // The driving scan runs through the normal shard-parallel path,
        // paying the paper's per-query δ of refinement work on the
        // driving column (and enjoying its covered-shard shortcuts).
        let driving_rows = self
            .exec
            .execute_one(plan.stats[plan.driving].column, d.low_code, d.high_code)?
            .count;
        debug_assert_eq!(
            (0..store.live.len())
                .filter(|&row| store.live[row])
                .map(|row| store.columns[d.pos].code_at(row))
                .filter(|code| (d.low_code..=d.high_code).contains(code))
                .count() as u64,
            driving_rows,
            "the row store must agree with the driving index scan"
        );
        if let Some(obs) = &self.obs {
            obs.driving[d.pos].inc();
        }
        if driving_rows == 0 {
            // A code range is a superset of its typed range in every
            // domain: no row can pass the driving predicate.
            return Ok(answer(&[], plan.driving));
        }
        // Predicate-at-a-time over a selection vector, in cost order. The
        // driving count bounds the driving predicate's own selection;
        // for any other first predicate the estimate sizes it.
        let (&first, rest) = plan.order.split_first().expect("plans are never empty");
        let mut sel = Vec::with_capacity(if first == plan.driving {
            driving_rows as usize
        } else {
            (plan.stats[first].selectivity * store.live_count as f64) as usize
        });
        let (p, column) = (&predicates[first], &store.columns[resolved[first].pos]);
        column.select(&store.live, &p.low, &p.high, &mut sel);
        if let Some(obs) = &self.obs {
            obs.survivors_validated.add(sel.len() as u64);
        }
        for &next in rest {
            let (p, column) = (&predicates[next], &store.columns[resolved[next].pos]);
            column.refine(&mut sel, &p.low, &p.high);
        }
        Ok(answer(&sel, plan.driving))
    }

    /// Answers a grouped aggregate from the per-shard digest trees,
    /// serving cached trees no write has emptied since their build and
    /// rebuilding the rest. Buckets are whole grid cells in code space
    /// (see the module docs); rows come back in ascending bucket order.
    ///
    /// # Panics
    /// Panics when `bucket_width` is zero.
    pub fn grouped(&self, query: &GroupedQuery) -> Result<Vec<GroupRow>, EngineError> {
        let store = self.table.store.read().expect("row store poisoned");
        let pos = self
            .table
            .position(&query.column)
            .ok_or_else(|| EngineError::UnknownColumn(query.column.clone()))?;
        let erased = &store.columns[pos];
        if query.low.domain() != erased.domain() || query.high.domain() != erased.domain() {
            return Err(EngineError::DomainMismatch(query.column.clone()));
        }
        if query.low.cmp_same(&query.high) == std::cmp::Ordering::Greater {
            return Ok(Vec::new());
        }
        let width = query.bucket_width;
        let (low_code, high_code) = (query.low.to_code(), query.high.to_code());
        let column = &self.table.inner.columns()[pos];
        // Buckets straddle shard boundaries: visit every shard the
        // *bucket-expanded* code range overlaps, not just the predicate's.
        let expanded_low = bucket_of(low_code, width).saturating_mul(width);
        let expanded_high = bucket_of(high_code, width)
            .saturating_mul(width)
            .saturating_add(width - 1);
        let cache = &self.table.agg_cache;
        let mut merged = DigestTree::empty(width);
        for shard in column.overlapping(expanded_low, expanded_high) {
            merged.merge(&cache.get_or_build(column, pos, shard, width, self.obs.as_ref()));
        }
        Ok(merged
            .cells_overlapping(low_code, high_code)
            .map(|(bucket, cell)| GroupRow {
                bucket,
                count: cell.count,
                sum: decode_cell_sum(erased, cell.sum, cell.count),
                min: erased.decode_code(cell.min),
                max: erased.decode_code(cell.max),
            })
            .collect())
    }
}

/// Decodes a code-space `(sum, count)` cell aggregate into the column's
/// key domain, honouring the capability gate: exact for `u64` (identity)
/// and `i64` (affine shift), `None` for `f64`/string.
fn decode_cell_sum(column: &RowColumn, sum: u128, count: u64) -> Option<ErasedSum> {
    match column {
        RowColumn::U64(_) => Some(ErasedSum::U64(sum)),
        RowColumn::I64(_) => {
            <i64 as OrderedKey>::decode_sum(ScanResult { sum, count }).map(ErasedSum::I64)
        }
        RowColumn::F64(_) | RowColumn::Str { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::budget::BudgetPolicy;
    use pi_core::testing::random_column;

    #[test]
    fn digest_trees_fold_the_live_multiset_whatever_is_pending() {
        let values = random_column(8_000, 8_000, 37).into_vec();
        let table = Table::builder()
            .column(
                ColumnSpec::new("a", values.clone())
                    .with_shards(4)
                    .with_policy(BudgetPolicy::FixedDelta(0.5)),
            )
            .build();
        let column = &table.columns()[0];
        let check = |context: &str| {
            for shard in 0..4 {
                let live = column.with_shard(shard, |index| index.live_values());
                assert_eq!(
                    digest_tree(column, shard, 64),
                    DigestTree::build(&live, 64),
                    "{context}, shard {shard}"
                );
            }
        };
        check("nothing pending");
        column.apply_mutations(&[Mutation::Insert(123), Mutation::Delete(123)]);
        check("an insert and its delete");
        column.apply_mutations(&[Mutation::Insert(77), Mutation::Insert(values[5])]);
        check("inserts only");
        column.apply_mutations(&[Mutation::Delete(values[9])]);
        check("a tombstone");
        for shard in 0..4 {
            column.advance_shard_by(shard, 100);
        }
        column.apply_mutations(&[Mutation::Insert(values[3])]);
        check("advanced shards and one more insert");
    }
}
