//! Typed tables: float, signed-integer and string key domains served
//! through the unchanged `u64` engine core.
//!
//! The four progressive algorithms,
//! [`MutableIndex`](pi_core::mutation::MutableIndex), equi-depth
//! sharding, digests and the executor all
//! operate on `u64` codes. This module is the boundary layer that opens
//! other key domains over that core without forking any of it:
//!
//! * [`TableKey`] — how a key domain plugs into the engine: an
//!   order-preserving map to codes (via
//!   [`pi_storage::encoding::OrderedKey`]), an exact key comparison, and
//!   two capability flags — whether encoded SUMs decode back to the key
//!   domain ([`TableKey::SUM_SUPPORTED`]) and whether distinct keys can
//!   share a code ([`TableKey::PREFIX_ENCODED`]).
//! * [`TypedTable`] — a facade over [`Table`]: columns are built from
//!   typed keys (encoded at construction, so shard boundaries are drawn
//!   by equi-depth partitioning *in encoded space*), queries take typed
//!   bounds, and answers come back as [`TypedResult`]s with SUM gated by
//!   the domain's capability.
//! * [`TypedExecutor`] — the same facade over [`Executor`]: typed query
//!   batches fan out shard-parallel on the persistent pool, typed
//!   mutation batches apply in request order through
//!   [`TypedTable::apply_mutations`], the table's one write path.
//!
//! ## Exact domains vs prefix domains
//!
//! For `u64`, `i64`, `f64` and [`StrPrefix`] the encoding is injective
//! and fully order-preserving, so an encoded range scan *is* the typed
//! answer: `COUNT` needs no correction and, where supported, `SUM` is
//! decoded from the encoded aggregate (`i64` through its affine shift).
//!
//! `String` columns are **prefix-encoded**: rows are indexed by their
//! fixed 8-byte prefix, and distinct strings can tie on a code. The
//! typed table therefore keeps an exact-match side path — the full keys
//! of each prefix-encoded column, grouped by code and sorted — and every
//! query corrects its boundary codes against it: rows tying
//! `encode(low)` but ordered below `low`, and rows tying `encode(high)`
//! but ordered above `high`, are subtracted from the encoded count.
//! Answers are exact over full-string order at every refinement stage.
//!
//! ## Digest capability matrix
//!
//! | Key domain | COUNT | SUM |
//! |---|---|---|
//! | `u64` | exact | exact |
//! | `i64` | exact | exact (affine decode) |
//! | `f64` | exact | **disabled** (order codes are not summable) |
//! | [`StrPrefix`] / `String` | exact | **disabled** (no string sum) |
//!
//! The engine's per-shard `(sum, count)` digests keep maintaining code
//! sums for every domain — they stay exact in encoded space and power
//! the O(1) covered-shard shortcut — but [`TypedResult::sum`] only
//! surfaces a SUM when the domain can decode it.
//!
//! ## Concurrency
//!
//! Exact-domain typed tables add no state over the inner table, so the
//! executor's per-shard isolation story carries over unchanged. A
//! prefix-encoded column's tie-break side table sits behind a `RwLock`:
//! typed queries hold it shared across the inner execution and their
//! corrections, typed mutations hold it exclusively while updating both
//! structures — so per column, typed string answers are consistent with
//! the writes that precede them.
//!
//! ```
//! use std::sync::Arc;
//! use pi_engine::typed::{TypedColumnSpec, TypedExecutor, TypedQuery, TypedTable};
//!
//! // A float column: negative keys, NaN-free, served through the
//! // unchanged u64 executor.
//! let temps: Vec<f64> = (0..4_000).map(|i| (i as f64) * 0.25 - 500.0).collect();
//! let table = Arc::new(
//!     TypedTable::builder()
//!         .column(TypedColumnSpec::new("celsius", temps).with_shards(4))
//!         .build(),
//! );
//! let executor = TypedExecutor::new(Arc::clone(&table));
//! let r = executor
//!     .execute_batch(&[TypedQuery::new("celsius", -1.0, 1.0)])
//!     .unwrap();
//! assert_eq!(r[0].count, 9); // -1.0, -0.75, …, 0.75, 1.0
//! assert_eq!(r[0].sum, None); // float SUM is capability-gated off
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use pi_core::budget::BudgetPolicy;
use pi_core::mutation::Mutation;
use pi_obs::{Counter, MetricsRegistry};
use pi_storage::encoding::OrderedKey;
use pi_storage::scan::ScanResult;
use pi_storage::StrPrefix;

use crate::executor::{EngineError, Executor, ExecutorConfig, TableQuery};
use crate::table::{AlgorithmChoice, ColumnSpec, Table};

/// How a key domain plugs into the engine: encoding into the `u64` core,
/// exact key order, and the domain's digest capabilities.
///
/// Implementations exist for the exact domains `u64`, `i64`, `f64` and
/// [`StrPrefix`] (delegating to their
/// [`OrderedKey`] encodings) and for
/// `String` (prefix-encoded, with full-string order).
pub trait TableKey: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The key-domain SUM aggregate type.
    type Sum: std::fmt::Debug + Copy + PartialEq + Send + Sync;

    /// Whether encoded SUM aggregates decode back into the key domain.
    /// When `false`, typed answers carry COUNT only — the digest
    /// capability gate.
    const SUM_SUPPORTED: bool;

    /// Whether two *distinct* keys can share an encoded code. Exact
    /// domains answer straight from the encoded scan; prefix-encoded
    /// domains additionally resolve boundary ties against the full keys.
    const PREFIX_ENCODED: bool;

    /// The key's code in the `u64` core.
    fn to_code(&self) -> u64;

    /// Total order of the key domain (for `f64` this is the IEEE-754
    /// total order the encoding realises; for `String`, byte order).
    fn key_cmp(&self, other: &Self) -> Ordering;

    /// Decodes an encoded `(SUM, COUNT)` aggregate; `None` when
    /// [`SUM_SUPPORTED`](Self::SUM_SUPPORTED) is `false`.
    fn decode_sum(result: ScanResult) -> Option<Self::Sum>;
}

/// Exact domains delegate wholesale to their order-preserving encoding:
/// the code order *is* the key order, and codes never tie.
macro_rules! impl_table_key_for_ordered {
    ($($t:ty),*) => {$(
        impl TableKey for $t {
            type Sum = <$t as OrderedKey>::Sum;
            const SUM_SUPPORTED: bool = <$t as OrderedKey>::SUM_SUPPORTED;
            const PREFIX_ENCODED: bool = false;

            #[inline]
            fn to_code(&self) -> u64 {
                OrderedKey::encode(self)
            }

            #[inline]
            fn key_cmp(&self, other: &Self) -> Ordering {
                self.to_code().cmp(&other.to_code())
            }

            fn decode_sum(result: ScanResult) -> Option<Self::Sum> {
                <$t as OrderedKey>::decode_sum(result)
            }
        }
    )*};
}

impl_table_key_for_ordered!(u64, i64, f64, StrPrefix);

impl TableKey for String {
    type Sum = u128;
    const SUM_SUPPORTED: bool = false;
    /// Distinct strings sharing a first-8-byte prefix tie on a code; the
    /// typed table's exact-match side path breaks the ties.
    const PREFIX_ENCODED: bool = true;

    #[inline]
    fn to_code(&self) -> u64 {
        StrPrefix::new(self).encode()
    }

    #[inline]
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }

    fn decode_sum(_: ScanResult) -> Option<u128> {
        None
    }
}

/// Specification of one typed column (mirror of
/// [`ColumnSpec`] in a key domain).
#[derive(Debug, Clone)]
pub struct TypedColumnSpec<K: TableKey> {
    /// Column name used to address queries.
    pub name: String,
    /// The column's keys, in row order.
    pub keys: Vec<K>,
    /// Number of range shards (boundaries drawn equi-depth in encoded
    /// space).
    pub shards: usize,
    /// Per-shard indexing budget policy.
    pub policy: BudgetPolicy,
    /// Algorithm selection (decision tree over the encoded distribution,
    /// or pinned).
    pub choice: AlgorithmChoice,
}

impl<K: TableKey> TypedColumnSpec<K> {
    /// A typed column with the same defaults as
    /// [`ColumnSpec::new`](crate::table::ColumnSpec::new).
    pub fn new(name: impl Into<String>, keys: Vec<K>) -> Self {
        TypedColumnSpec {
            name: name.into(),
            keys,
            shards: 4,
            policy: BudgetPolicy::FixedDelta(0.25),
            choice: AlgorithmChoice::default(),
        }
    }

    /// Sets the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard budget policy (builder style).
    pub fn with_policy(mut self, policy: BudgetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the algorithm selection (builder style).
    pub fn with_choice(mut self, choice: AlgorithmChoice) -> Self {
        self.choice = choice;
        self
    }
}

/// A typed range-query answer: exact COUNT always, SUM only where the
/// key domain supports decoding it (see the module's capability matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypedResult<K: TableKey> {
    /// Exact number of live rows in `[low, high]` under the key domain's
    /// total order.
    pub count: u64,
    /// Key-domain SUM over those rows; `None` for domains whose encoded
    /// sums are not decodable (`f64`, strings).
    pub sum: Option<K::Sum>,
}

impl<K: TableKey> TypedResult<K> {
    /// The empty answer: zero rows, and the key-domain zero SUM where
    /// the domain supports SUM at all (so empty ranges and
    /// non-overlapping ranges answer identically).
    pub fn empty() -> Self {
        TypedResult {
            count: 0,
            sum: K::decode_sum(ScanResult::EMPTY),
        }
    }
}

/// A typed range query (`SELECT COUNT/SUM WHERE column BETWEEN low AND
/// high`, bounds inclusive under the key domain's total order).
#[derive(Debug, Clone, PartialEq)]
pub struct TypedQuery<K: TableKey> {
    /// Name of the queried column.
    pub column: String,
    /// Lower bound (inclusive).
    pub low: K,
    /// Upper bound (inclusive; `low > high` is the empty range).
    pub high: K,
}

impl<K: TableKey> TypedQuery<K> {
    /// Creates a typed query.
    pub fn new(column: impl Into<String>, low: K, high: K) -> Self {
        TypedQuery {
            column: column.into(),
            low,
            high,
        }
    }
}

/// A typed mutation in the key domain (mirror of
/// [`pi_core::mutation::Mutation`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TypedMutation<K: TableKey> {
    /// Insert one row with this key.
    Insert(K),
    /// Delete one live row with exactly this key (rejected when none
    /// exists — for prefix domains the check is over full keys, not
    /// codes).
    Delete(K),
    /// Atomically replace one live row (`old` must exist).
    Update {
        /// The key to replace.
        old: K,
        /// Its replacement.
        new: K,
    },
}

/// The exact-match tie-break side path of one prefix-encoded column: the
/// full keys of every live row, grouped by code, each group sorted by
/// key order. Invariant: the multiset of codes here equals the inner
/// column's live multiset — every write goes through the typed layer,
/// which updates both under the exclusive lock.
type TieTable<K> = BTreeMap<u64, Vec<K>>;

/// A typed facade over [`Table`]: typed construction, typed serial
/// queries and mutations, and the tie-break state the
/// [`TypedExecutor`] shares. See the module docs for the full story.
pub struct TypedTable<K: TableKey> {
    inner: Arc<Table>,
    /// Per-column tie-break side tables; populated only for
    /// prefix-encoded key domains.
    ties: HashMap<String, RwLock<TieTable<K>>>,
    /// Queries whose answer needed a tie-break correction (a predicate
    /// boundary's truncated code tied rows outside the typed bounds) —
    /// `engine.tie_break_hits` when metrics are attached.
    tie_hits: Option<Arc<Counter>>,
}

/// Builder for [`TypedTable`].
pub struct TypedTableBuilder<K: TableKey> {
    specs: Vec<TypedColumnSpec<K>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<K: TableKey> Default for TypedTableBuilder<K> {
    fn default() -> Self {
        TypedTableBuilder {
            specs: Vec::new(),
            metrics: None,
        }
    }
}

impl<K: TableKey> TypedTableBuilder<K> {
    /// Adds a typed column.
    pub fn column(mut self, spec: TypedColumnSpec<K>) -> Self {
        self.specs.push(spec);
        self
    }

    /// Registers metrics in `registry`: the inner table's per-column
    /// `core.<column>.*` / `engine.rho.<column>.<shard>` families (see
    /// [`crate::table::TableBuilder::metrics`]) plus
    /// `engine.tie_break_hits`, counting queries whose answer took the
    /// prefix-encoded tie-break side path.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Builds the typed table: every column's keys are encoded into the
    /// `u64` core (shard boundaries are therefore drawn in encoded
    /// space), and prefix-encoded domains get their tie-break side
    /// tables.
    ///
    /// # Panics
    /// Panics on duplicate column names (like [`Table::builder`]).
    pub fn build(self) -> TypedTable<K> {
        let mut builder = Table::builder();
        if let Some(registry) = &self.metrics {
            builder = builder.metrics(Arc::clone(registry));
        }
        let tie_hits = self
            .metrics
            .as_ref()
            .map(|registry| registry.counter("engine.tie_break_hits"));
        let mut ties = HashMap::new();
        for spec in self.specs {
            if K::PREFIX_ENCODED {
                // Bulk build: collect each code group, then sort it once
                // — per-key sorted insertion would be quadratic in group
                // size, and skewed domains (a hot shared prefix) put
                // most rows in one group.
                let mut table: TieTable<K> = BTreeMap::new();
                for key in &spec.keys {
                    table.entry(key.to_code()).or_default().push(key.clone());
                }
                for group in table.values_mut() {
                    group.sort_by(|a, b| a.key_cmp(b));
                }
                ties.insert(spec.name.clone(), RwLock::new(table));
            }
            let values: Vec<u64> = spec.keys.iter().map(TableKey::to_code).collect();
            builder = builder.column(
                ColumnSpec::new(spec.name, values)
                    .with_shards(spec.shards)
                    .with_policy(spec.policy)
                    .with_choice(spec.choice),
            );
        }
        TypedTable {
            inner: Arc::new(builder.build()),
            ties,
            tie_hits,
        }
    }
}

/// Inserts `key` into a sorted tie group, keeping the group sorted.
fn insert_sorted<K: TableKey>(group: &mut Vec<K>, key: K) {
    let at = group.partition_point(|k| k.key_cmp(&key) != Ordering::Greater);
    group.insert(at, key);
}

/// Rows tying a predicate boundary's code but falling outside the typed
/// bounds: everything in `low`'s code group ordered below `low`, plus
/// everything in `high`'s code group ordered above `high`. The groups
/// are sorted, so both counts are partition points.
fn boundary_overcount<K: TableKey>(table: &TieTable<K>, low: &K, high: &K) -> u64 {
    let mut over = 0u64;
    if let Some(group) = table.get(&low.to_code()) {
        over += group.partition_point(|k| k.key_cmp(low) == Ordering::Less) as u64;
    }
    if let Some(group) = table.get(&high.to_code()) {
        let not_above = group.partition_point(|k| k.key_cmp(high) != Ordering::Greater);
        over += (group.len() - not_above) as u64;
    }
    over
}

/// Builds the typed answer from a raw encoded scan, applying prefix
/// tie-break corrections when a side table is present. A non-zero
/// correction bumps `hits` (the `engine.tie_break_hits` counter).
fn typed_answer<K: TableKey>(
    raw: ScanResult,
    ties: Option<&TieTable<K>>,
    low: &K,
    high: &K,
    hits: Option<&Counter>,
) -> TypedResult<K> {
    let count = match ties {
        Some(table) => {
            let over = boundary_overcount(table, low, high);
            if over > 0 {
                if let Some(hits) = hits {
                    hits.inc();
                }
            }
            raw.count - over
        }
        None => raw.count,
    };
    TypedResult {
        count,
        sum: K::decode_sum(raw),
    }
}

impl<K: TableKey> TypedTable<K> {
    /// Starts building a typed table.
    pub fn builder() -> TypedTableBuilder<K> {
        TypedTableBuilder::default()
    }

    /// The underlying `u64` table (attach an [`Executor`] to it through
    /// [`TypedExecutor`], or inspect shard state directly).
    pub fn inner(&self) -> &Arc<Table> {
        &self.inner
    }

    /// `SELECT COUNT(col)[, SUM(col)] WHERE col BETWEEN low AND high`
    /// under the key domain's total order, served serially. Returns
    /// `None` for an unknown column.
    pub fn query(&self, column: &str, low: &K, high: &K) -> Option<TypedResult<K>> {
        let sharded = self.inner.column(column)?;
        if low.key_cmp(high) == Ordering::Greater {
            return Some(TypedResult::empty());
        }
        let guard = self.read_ties(column);
        let raw = sharded.query(low.to_code(), high.to_code());
        Some(typed_answer(
            raw,
            guard.as_deref(),
            low,
            high,
            self.tie_hits.as_deref(),
        ))
    }

    /// Applies a batch of typed mutations to `column` in request order,
    /// serially (the writer analogue of [`TypedTable::query`], and the
    /// path [`TypedExecutor::apply_mutations`] takes). Returns the
    /// per-mutation applied flags, or `None` for an unknown column.
    ///
    /// For prefix domains the batch is validated against the tie-break
    /// table, which is updated under its exclusive lock, and the accepted
    /// inner mutations apply in the same order under that lock — so the
    /// tie table and the index see one order.
    pub fn apply_mutations(
        &self,
        column: &str,
        mutations: &[TypedMutation<K>],
    ) -> Option<Vec<bool>> {
        let sharded = self.inner.column(column)?;
        if !K::PREFIX_ENCODED {
            let inner: Vec<Mutation> = mutations.iter().map(translate_exact).collect();
            return Some(sharded.apply_mutations(&inner));
        }
        let mut ties = self
            .ties
            .get(column)
            .expect("prefix column has a tie table")
            .write()
            .expect("tie table poisoned");
        let mut applied = vec![false; mutations.len()];
        let mut accepted: Vec<(usize, Mutation)> = Vec::with_capacity(mutations.len());
        for (i, m) in mutations.iter().enumerate() {
            let translated = match m {
                TypedMutation::Insert(k) => {
                    insert_sorted(ties.entry(k.to_code()).or_default(), k.clone());
                    Some(Mutation::Insert(k.to_code()))
                }
                TypedMutation::Delete(k) => {
                    remove_exact(&mut ties, k).then(|| Mutation::Delete(k.to_code()))
                }
                TypedMutation::Update { old, new } => remove_exact(&mut ties, old).then(|| {
                    insert_sorted(ties.entry(new.to_code()).or_default(), new.clone());
                    Mutation::Update {
                        old: old.to_code(),
                        new: new.to_code(),
                    }
                }),
            };
            if let Some(op) = translated {
                applied[i] = true;
                accepted.push((i, op));
            }
        }
        let inner_ops: Vec<Mutation> = accepted.iter().map(|&(_, m)| m).collect();
        let inner_applied = sharded.apply_mutations(&inner_ops);
        // The tie table mirrors the inner live multiset of codes, so a
        // mutation it validated must also apply inside.
        for (&(i, _), ok) in accepted.iter().zip(&inner_applied) {
            debug_assert!(ok, "tie table and inner column diverged");
            applied[i] = *ok;
        }
        Some(applied)
    }

    /// The shared read guard over a column's tie table (`None` for exact
    /// domains, which keep no side state).
    fn read_ties(&self, column: &str) -> Option<RwLockReadGuard<'_, TieTable<K>>> {
        self.ties
            .get(column)
            .map(|lock| lock.read().expect("tie table poisoned"))
    }
}

/// Translates an exact-domain typed mutation (codes never tie, so the
/// inner validation is the typed validation).
fn translate_exact<K: TableKey>(m: &TypedMutation<K>) -> Mutation {
    match m {
        TypedMutation::Insert(k) => Mutation::Insert(k.to_code()),
        TypedMutation::Delete(k) => Mutation::Delete(k.to_code()),
        TypedMutation::Update { old, new } => Mutation::Update {
            old: old.to_code(),
            new: new.to_code(),
        },
    }
}

/// Removes one occurrence of exactly `key` from its tie group; `false`
/// when no live row has that full key.
fn remove_exact<K: TableKey>(table: &mut TieTable<K>, key: &K) -> bool {
    let code = key.to_code();
    let Some(group) = table.get_mut(&code) else {
        return false;
    };
    let at = group.partition_point(|k| k.key_cmp(key) == Ordering::Less);
    if at >= group.len() || group[at].key_cmp(key) != Ordering::Equal {
        return false;
    }
    group.remove(at);
    if group.is_empty() {
        table.remove(&code);
    }
    true
}

/// A typed facade over the shard-parallel [`Executor`]: typed query
/// batches served on the executor's persistent pool with answers
/// corrected back into the key domain, and typed mutation batches
/// applied in request order.
pub struct TypedExecutor<K: TableKey> {
    table: Arc<TypedTable<K>>,
    executor: Executor,
}

impl<K: TableKey> TypedExecutor<K> {
    /// Creates a typed executor with default [`ExecutorConfig`].
    pub fn new(table: Arc<TypedTable<K>>) -> Self {
        Self::with_config(table, ExecutorConfig::default())
    }

    /// Creates a typed executor with an explicit configuration, spawning
    /// the persistent worker pool.
    pub fn with_config(table: Arc<TypedTable<K>>, config: ExecutorConfig) -> Self {
        let executor = Executor::with_config(Arc::clone(table.inner()), config);
        TypedExecutor { table, executor }
    }

    /// Creates a typed executor reporting `executor.*` and `sched.pool.*`
    /// metrics into `registry` (see [`Executor::with_metrics`]). Pair
    /// with [`TypedTableBuilder::metrics`] on the same registry.
    pub fn with_metrics(
        table: Arc<TypedTable<K>>,
        config: ExecutorConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let executor = Executor::with_metrics(Arc::clone(table.inner()), config, registry);
        TypedExecutor { table, executor }
    }

    /// The typed table this executor serves.
    pub fn table(&self) -> &Arc<TypedTable<K>> {
        &self.table
    }

    /// The underlying `u64` executor (maintenance, pool stats).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Executes a batch of typed range queries, shard-parallel on the
    /// pool. Results come back in request order, exact over the key
    /// domain's total order at every refinement stage.
    ///
    /// For prefix-encoded domains the tie tables of every queried column
    /// are held shared across the inner execution and the corrections,
    /// so concurrent typed writers cannot slide the two structures apart
    /// under one batch.
    pub fn execute_batch(
        &self,
        queries: &[TypedQuery<K>],
    ) -> Result<Vec<TypedResult<K>>, EngineError> {
        // Resolve every column name up front, so an unknown column fails
        // the whole batch no matter how the bounds are ordered (the
        // inverted-range short-circuit below must not mask a typo).
        for q in queries {
            if self.table.inner().column_index(&q.column).is_none() {
                return Err(EngineError::UnknownColumn(q.column.clone()));
            }
        }
        // Hold the tie tables of all involved prefix columns, in sorted
        // (deterministic) order, for the whole batch.
        let mut guards: Vec<(&str, RwLockReadGuard<'_, TieTable<K>>)> = Vec::new();
        if K::PREFIX_ENCODED {
            let mut columns: Vec<&str> = queries.iter().map(|q| q.column.as_str()).collect();
            columns.sort_unstable();
            columns.dedup();
            for column in columns {
                if let Some(guard) = self.table.read_ties(column) {
                    guards.push((column, guard));
                }
            }
        }
        // `low > high` is the typed empty range; it must not reach the
        // encoded layer, where prefix truncation could make the codes
        // tie and return rows.
        let mut inner_batch = Vec::with_capacity(queries.len());
        let mut slot_of = Vec::with_capacity(queries.len());
        for q in queries {
            if q.low.key_cmp(&q.high) == Ordering::Greater {
                slot_of.push(None);
            } else {
                slot_of.push(Some(inner_batch.len()));
                inner_batch.push(TableQuery::new(
                    q.column.clone(),
                    q.low.to_code(),
                    q.high.to_code(),
                ));
            }
        }
        let raw = self.executor.execute_batch(&inner_batch)?;
        let results = queries
            .iter()
            .zip(&slot_of)
            .map(|(q, slot)| match slot {
                None => TypedResult::empty(),
                Some(at) => {
                    let ties = guards
                        .iter()
                        .find(|(name, _)| *name == q.column)
                        .map(|(_, guard)| &**guard);
                    typed_answer(
                        raw[*at],
                        ties,
                        &q.low,
                        &q.high,
                        self.table.tie_hits.as_deref(),
                    )
                }
            })
            .collect();
        Ok(results)
    }

    /// Executes a single typed query (a batch of one).
    pub fn execute_one(
        &self,
        column: &str,
        low: K,
        high: K,
    ) -> Result<TypedResult<K>, EngineError> {
        Ok(self
            .execute_batch(std::slice::from_ref(&TypedQuery::new(column, low, high)))?
            .remove(0))
    }

    /// Applies a batch of typed mutations in request order through
    /// [`TypedTable::apply_mutations`]. Returns per-mutation applied
    /// flags in request order, or [`EngineError::UnknownColumn`].
    pub fn apply_mutations(
        &self,
        column: &str,
        mutations: &[TypedMutation<K>],
    ) -> Result<Vec<bool>, EngineError> {
        self.table
            .apply_mutations(column, mutations)
            .ok_or_else(|| EngineError::UnknownColumn(column.to_string()))
    }

    /// Drives every shard to convergence (see
    /// [`Executor::drive_to_convergence`]).
    pub fn drive_to_convergence(&self, max_steps: usize) -> usize {
        self.executor.drive_to_convergence(max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground-truth count over a slice of keys, by key order.
    fn oracle_count<K: TableKey>(keys: &[K], low: &K, high: &K) -> u64 {
        keys.iter()
            .filter(|k| k.key_cmp(low) != Ordering::Less && k.key_cmp(high) != Ordering::Greater)
            .count() as u64
    }

    #[test]
    fn f64_column_counts_match_oracle_and_gate_sum() {
        let keys: Vec<f64> = (0..5_000)
            .map(|i| ((i * 37) % 5_000) as f64 * 0.5 - 1_250.0)
            .collect();
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("x", keys.clone()).with_shards(4))
            .build();
        const { assert!(!<f64 as TableKey>::SUM_SUPPORTED) };
        for (low, high) in [
            (-100.0, 100.0),
            (-1_250.0, -1_000.25),
            (0.0, 0.0),
            (5.0, -5.0),
        ] {
            let r = table.query("x", &low, &high).unwrap();
            assert_eq!(r.count, oracle_count(&keys, &low, &high), "[{low}, {high}]");
            assert_eq!(r.sum, None, "float SUM must be capability-gated off");
        }
        assert!(table.query("missing", &0.0, &1.0).is_none());
    }

    #[test]
    fn f64_special_values_follow_the_total_order_policy() {
        let keys = vec![f64::NEG_INFINITY, -0.0, 0.0, 1.5, f64::INFINITY, f64::NAN];
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("x", keys).with_shards(2))
            .build();
        let q = |low: f64, high: f64| table.query("x", &low, &high).unwrap().count;
        // -0.0 and +0.0 are distinct adjacent keys.
        assert_eq!(q(-0.0, -0.0), 1);
        assert_eq!(q(0.0, 0.0), 1);
        assert_eq!(q(-0.0, 0.0), 2);
        // NaN sorts above +inf, as one key.
        assert_eq!(q(f64::NAN, f64::NAN), 1);
        assert_eq!(q(f64::INFINITY, f64::NAN), 2);
        // The whole total order.
        assert_eq!(q(f64::NEG_INFINITY, f64::NAN), 6);
    }

    #[test]
    fn i64_sums_decode_through_the_affine_shift() {
        let keys: Vec<i64> = (-2_000..2_000).map(|i| (i * 13) % 2_000).collect();
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("x", keys.clone()).with_shards(4))
            .build();
        const { assert!(<i64 as TableKey>::SUM_SUPPORTED) };
        for (low, high) in [(-1_500i64, -3), (-10, 10), (i64::MIN, i64::MAX)] {
            let r = table.query("x", &low, &high).unwrap();
            let expected: i128 = keys
                .iter()
                .filter(|&&k| k >= low && k <= high)
                .map(|&k| k as i128)
                .sum();
            assert_eq!(r.count, oracle_count(&keys, &low, &high));
            assert_eq!(r.sum, Some(expected), "[{low}, {high}]");
        }
    }

    #[test]
    fn string_boundary_ties_are_broken_exactly() {
        // All of these share 8-byte prefixes pairwise in interesting ways.
        let keys: Vec<String> = [
            "",
            "a",
            "a\u{0}b",
            "apple",
            "applesauce",
            "applesXXX",
            "appletree",
            "banana",
            "bananabread",
            "émile",
            "émilie",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("s", keys.clone()).with_shards(2))
            .build();
        const { assert!(!<String as TableKey>::SUM_SUPPORTED) };
        let cases = [
            ("", "zzzz"),
            ("applesauce", "applesauce"), // exact hit beyond the prefix
            ("apples", "appleturnover"),  // both bounds tie prefixes
            ("a", "a"),
            ("", ""),
            ("banana", "bananabread"),
            ("émilf", "émilz"), // non-ASCII boundaries
            ("b", "a"),         // typed empty range
        ];
        for (low, high) in cases {
            let (low, high) = (low.to_string(), high.to_string());
            let r = table.query("s", &low, &high).unwrap();
            assert_eq!(
                r.count,
                oracle_count(&keys, &low, &high),
                "[{low:?}, {high:?}]"
            );
            assert_eq!(r.sum, None);
        }
    }

    #[test]
    fn string_mutations_validate_over_full_keys() {
        let keys: Vec<String> = ["applesauce", "appletree", "plum"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("s", keys).with_shards(2))
            .build();
        let all = |t: &TypedTable<String>| {
            t.query("s", &String::new(), &"\u{10FFFF}".to_string())
                .unwrap()
                .count
        };
        assert_eq!(all(&table), 3);
        // "applesXXX" ties "applesauce"'s code but is not live: the
        // delete must be rejected on the full key, not the code.
        let applied = table
            .apply_mutations(
                "s",
                &[
                    TypedMutation::Delete("applesXXX".to_string()),
                    TypedMutation::Delete("applesauce".to_string()),
                    TypedMutation::Insert("applesXXX".to_string()),
                    TypedMutation::Update {
                        old: "plum".to_string(),
                        new: "prune".to_string(),
                    },
                    TypedMutation::Update {
                        old: "plum".to_string(), // no longer live
                        new: "pear".to_string(),
                    },
                ],
            )
            .unwrap();
        assert_eq!(applied, vec![false, true, true, true, false]);
        assert_eq!(all(&table), 3);
        let hit = |s: &str| {
            table
                .query("s", &s.to_string(), &s.to_string())
                .unwrap()
                .count
        };
        assert_eq!(hit("applesauce"), 0);
        assert_eq!(hit("applesXXX"), 1);
        assert_eq!(hit("prune"), 1);
        assert_eq!(hit("plum"), 0);
    }

    #[test]
    fn str_prefix_columns_are_exact_without_tie_tables() {
        let keys: Vec<StrPrefix> = ["ant", "bee", "cat", "dog"]
            .iter()
            .map(|s| StrPrefix::new(s))
            .collect();
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("p", keys).with_shards(2))
            .build();
        assert!(table.ties.is_empty(), "exact domains keep no side state");
        let r = table
            .query("p", &StrPrefix::new("b"), &StrPrefix::new("cz"))
            .unwrap();
        assert_eq!(r.count, 2); // bee, cat
    }

    #[test]
    fn empty_typed_column_answers_empty() {
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("x", Vec::<f64>::new()).with_shards(3))
            .build();
        let r = table.query("x", &f64::NEG_INFINITY, &f64::NAN).unwrap();
        assert_eq!(r, TypedResult::empty());
        // u64 empty columns still report the zero SUM (capability kept).
        let table = TypedTable::builder()
            .column(TypedColumnSpec::new("x", Vec::<u64>::new()).with_shards(3))
            .build();
        let r = table.query("x", &0, &u64::MAX).unwrap();
        assert_eq!(r.count, 0);
        assert_eq!(r.sum, Some(0));
    }
}
