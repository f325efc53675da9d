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
//! fixed 8-byte prefix, and distinct strings can tie on a code. Every
//! query therefore subtracts the rows tying `encode(low)` but ordered
//! below `low`, and those tying `encode(high)` but ordered above `high`,
//! found in a side path that keys strings as the multi-column row store
//! does ([`TableKey::row_key`]: the first 15 bytes over a length byte
//! `min(len, 16)`), grouped by code and sorted — integer searches. Only
//! strings longer than 15 bytes can share a row key; they alone keep
//! their full strings, which a bound longer than 15 bytes also searches.
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
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard};

use pi_core::mutation::Mutation;
use pi_obs::{Counter, MetricsRegistry};
use pi_storage::encoding::OrderedKey;
use pi_storage::scan::ScanResult;
use pi_storage::{StrPrefix, Value};

use crate::erased::{str_key, LONG};
use crate::executor::{EngineError, Executor, ExecutorConfig, TableQuery};
use crate::table::{ColumnSpec, Table};

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

    /// The key's 128-bit row key, [`to_code`](Self::to_code) over 64 bits:
    /// keys whose row keys differ order as those do, and only row keys
    /// whose low byte is 16 (strings past 15 bytes) hold distinct keys.
    fn row_key(&self) -> u128 {
        u128::from(self.to_code()) << 64
    }

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
    fn row_key(&self) -> u128 {
        str_key(self)
    }

    #[inline]
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }

    fn decode_sum(_: ScanResult) -> Option<u128> {
        None
    }
}

/// A [`TypedTable`] column: a [`ColumnSpec`] over typed keys.
pub type TypedColumnSpec<K> = ColumnSpec<Vec<K>>;

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

/// A [`TypedTable`] range query: a [`TableQuery`] over typed bounds,
/// inclusive under the key domain's total order.
pub type TypedQuery<K> = TableQuery<K>;

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

/// The mutation on codes the inner column applies for `m`.
fn encode<K: TableKey>(m: &TypedMutation<K>) -> Mutation {
    match m {
        TypedMutation::Insert(k) => Mutation::Insert(k.to_code()),
        TypedMutation::Delete(k) => Mutation::Delete(k.to_code()),
        TypedMutation::Update { old, new } => Mutation::Update {
            old: old.to_code(),
            new: new.to_code(),
        },
    }
}

/// The exact-match tie-break side path of one prefix-encoded column. Its
/// codes are the inner column's live multiset: every write goes through
/// the typed layer, which updates both under the exclusive lock.
struct TieTable<K> {
    /// Every live row's [`TableKey::row_key`], grouped by code, sorted.
    groups: BTreeMap<u64, Vec<u128>>,
    /// Every live key whose row key is [`LONG`] (the only row keys
    /// distinct keys share), in key order — so in row key order.
    long: Vec<K>,
}

/// The code in a row key's top 64 bits.
fn code_of(row_key: u128) -> u64 {
    (row_key >> 64) as u64
}

impl<K: TableKey> TieTable<K> {
    /// Sorts once, then cuts the code groups: per-key sorted insertion is
    /// quadratic in group size, and a hot shared prefix is one group.
    fn build(keys: &[K]) -> Self {
        let mut row_keys: Vec<u128> = keys.iter().map(TableKey::row_key).collect();
        row_keys.sort_unstable();
        let groups = row_keys
            .chunk_by(|a, b| code_of(*a) == code_of(*b))
            .map(|group| (code_of(group[0]), group.to_vec()))
            .collect();
        let long_keys = keys.iter().filter(|k| k.row_key() as u8 == LONG);
        let mut long: Vec<K> = long_keys.cloned().collect();
        long.sort_by(K::key_cmp);
        TieTable { groups, long }
    }

    /// Rows tying a predicate boundary's code but falling outside the
    /// typed bounds: everything in `low`'s code group ordered below `low`,
    /// plus everything in `high`'s code group ordered above `high`. Every
    /// count is a partition point: over the sorted row keys, and where a
    /// bound's row key is long, over the full keys that share it.
    fn boundary_overcount(&self, low: &K, high: &K) -> u64 {
        let (lo, hi) = (low.row_key(), high.row_key());
        let group = |k| self.groups.get(&code_of(k)).map_or(&[][..], Vec::as_slice);
        let (below, above) = (group(lo), group(hi));
        let mut over =
            below.partition_point(|&k| k < lo) + above.len() - above.partition_point(|&k| k <= hi);
        let long = &self.long;
        if lo as u8 == LONG {
            over += long.partition_point(|k| k.key_cmp(low).is_lt())
                - long.partition_point(|k| k.row_key() < lo);
        }
        if hi as u8 == LONG {
            over += long.partition_point(|k| k.row_key() <= hi)
                - long.partition_point(|k| k.key_cmp(high).is_le());
        }
        over as u64
    }

    /// Validates `m` over full keys and applies it: `false`, changing
    /// nothing, when it deletes or replaces a key no live row has.
    fn apply(&mut self, m: &TypedMutation<K>) -> bool {
        let found = match m {
            TypedMutation::Insert(_) => true,
            TypedMutation::Delete(k) | TypedMutation::Update { old: k, .. } => self.remove(k),
        };
        if let (true, TypedMutation::Insert(k) | TypedMutation::Update { new: k, .. }) = (found, m)
        {
            self.insert(k);
        }
        found
    }

    /// Adds a live row with `key`.
    fn insert(&mut self, key: &K) {
        let row_key = key.row_key();
        let group = self.groups.entry(code_of(row_key)).or_default();
        group.insert(group.partition_point(|&k| k < row_key), row_key);
        if row_key as u8 == LONG {
            let long = &mut self.long;
            long.insert(
                long.partition_point(|k| k.key_cmp(key).is_lt()),
                key.clone(),
            );
        }
    }

    /// Removes one live row with exactly `key`; `false` when none has it
    /// (a long key must match a full key, not only a row key).
    fn remove(&mut self, key: &K) -> bool {
        let row_key = key.row_key();
        if row_key as u8 == LONG {
            let Ok(at) = self.long.binary_search_by(|k| k.key_cmp(key)) else {
                return false;
            };
            self.long.remove(at);
        }
        let group = self.groups.entry(code_of(row_key)).or_default();
        let found = group.binary_search(&row_key).map(|at| group.remove(at));
        if group.is_empty() {
            self.groups.remove(&code_of(row_key));
        }
        found.is_ok()
    }
}

/// A typed facade over [`Table`]: typed construction, typed serial
/// queries and mutations, and the tie-break state the
/// [`TypedExecutor`] shares. See the module docs for the full story.
pub struct TypedTable<K: TableKey> {
    inner: Arc<Table>,
    /// Per-column tie-break side tables, in the inner table's column
    /// order; empty for exact key domains.
    ties: Vec<RwLock<TieTable<K>>>,
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
        let (mut builder, mut tie_hits) = (Table::builder(), None);
        if let Some(registry) = &self.metrics {
            builder = builder.metrics(Arc::clone(registry));
            tie_hits = Some(registry.counter("engine.tie_break_hits"));
        }
        let mut ties = Vec::new();
        for ColumnSpec {
            name,
            keys,
            shards,
            policy,
            choice,
        } in self.specs
        {
            if K::PREFIX_ENCODED {
                ties.push(RwLock::new(TieTable::build(&keys)));
            }
            let keys = keys.iter().map(TableKey::to_code).collect();
            builder = builder.column(ColumnSpec {
                name,
                keys,
                shards,
                policy,
                choice,
            });
        }
        TypedTable {
            inner: Arc::new(builder.build()),
            ties,
            tie_hits,
        }
    }
}

/// The code range `[low, high]` reads: its codes, or the empty code
/// range when `low > high` — the typed empty range must not reach the
/// encoded layer as its codes, which prefix truncation can make tie.
fn code_range<K: TableKey>(low: &K, high: &K) -> (Value, Value) {
    if low.key_cmp(high) == Ordering::Greater {
        (Value::MAX, 0)
    } else {
        (low.to_code(), high.to_code())
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
        let index = self.inner.column_index(column)?;
        let ties = self.read_ties(index);
        let (lo, hi) = code_range(low, high);
        let raw = self.inner.columns()[index].query(lo, hi);
        Some(self.answer(raw, ties.as_deref(), low, high))
    }

    /// `raw`, the inner answer to the [`code_range`] of `[low, high]`, less
    /// the boundary overcount of `ties` unless empty (as an inverted range
    /// is); a correction bumps `engine.tie_break_hits`.
    fn answer(
        &self,
        raw: ScanResult,
        ties: Option<&TieTable<K>>,
        low: &K,
        high: &K,
    ) -> TypedResult<K> {
        let ties = ties.filter(|_| raw.count > 0);
        let over = ties.map_or(0, |table| table.boundary_overcount(low, high));
        if let Some(hits) = self.tie_hits.as_ref().filter(|_| over > 0) {
            hits.inc();
        }
        TypedResult {
            count: raw.count - over,
            sum: K::decode_sum(raw),
        }
    }

    /// Applies a batch of typed mutations to `column` in request order,
    /// serially (the writer analogue of [`TypedTable::query`], and the
    /// path [`TypedExecutor::apply_mutations`] takes). Returns the
    /// per-mutation applied flags, or `None` for an unknown column.
    ///
    /// Prefix domains validate the batch over full keys against the tie
    /// table, updating it under its exclusive lock, and the accepted
    /// inner mutations apply in the same order under that lock — so the
    /// tie table and the index see one order.
    pub fn apply_mutations(
        &self,
        column: &str,
        mutations: &[TypedMutation<K>],
    ) -> Option<Vec<bool>> {
        let index = self.inner.column_index(column)?;
        let mut ties = self
            .ties
            .get(index)
            .map(|lock| lock.write().expect("tie table poisoned"));
        let accepted: Vec<usize> = (0..mutations.len())
            .filter(|&i| ties.as_mut().is_none_or(|t| t.apply(&mutations[i])))
            .collect();
        let inner_ops: Vec<Mutation> = accepted.iter().map(|&i| encode(&mutations[i])).collect();
        let mut applied = vec![false; mutations.len()];
        // A tie table mirrors the inner live multiset of codes, so a
        // mutation it validated must also apply inside.
        let inner_applied = self.inner.columns()[index].apply_mutations(&inner_ops);
        for (i, ok) in accepted.into_iter().zip(inner_applied) {
            debug_assert!(ok || ties.is_none(), "tie table and inner column diverged");
            applied[i] = ok;
        }
        Some(applied)
    }

    /// The shared read guard over the tie table of the column at `index`
    /// (`None` for exact domains, which keep no side state).
    fn read_ties(&self, index: usize) -> Option<RwLockReadGuard<'_, TieTable<K>>> {
        self.ties
            .get(index)
            .map(|lock| lock.read().expect("tie table poisoned"))
    }
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
        // the whole batch however its bounds are ordered.
        let decompose_timer = self.executor.decompose_timer();
        let resolved = queries
            .iter()
            .map(|q| {
                let (low, high) = code_range(&q.low, &q.high);
                Ok((self.executor.resolve(&q.column)?, low, high))
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        // Hold the tie tables of all queried prefix columns, in column
        // (deterministic) order, for the whole batch.
        let table = &self.table;
        let queried = |index| resolved.iter().any(|&(column, ..)| column == index);
        let guards: Vec<_> = (0..table.ties.len())
            .map(|index| queried(index).then(|| table.read_ties(index))?)
            .collect();
        let mut raw = vec![ScanResult::EMPTY; queries.len()];
        self.executor
            .execute_resolved(&resolved, &mut raw, decompose_timer);
        let answers = queries.iter().zip(&resolved).zip(raw);
        Ok(answers
            .map(|((q, &(column, ..)), raw)| {
                let ties = guards.get(column).and_then(Option::as_deref);
                table.answer(raw, ties, &q.low, &q.high)
            })
            .collect())
    }

    /// Executes a single typed query: [`Executor::execute_one`] under the
    /// column's tie read guard, with nothing built around it.
    pub fn execute_one(
        &self,
        column: &str,
        low: K,
        high: K,
    ) -> Result<TypedResult<K>, EngineError> {
        let ties = self.table.read_ties(self.executor.resolve(column)?);
        let (lo, hi) = code_range(&low, &high);
        let raw = self.executor.execute_one(column, lo, hi)?;
        Ok(self.table.answer(raw, ties.as_deref(), &low, &high))
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

    impl<K: TableKey> TypedResult<K> {
        /// The empty answer: zero rows, and the key-domain zero SUM where
        /// the domain supports SUM at all.
        fn empty() -> Self {
            TypedResult {
                count: 0,
                sum: K::decode_sum(ScanResult::EMPTY),
            }
        }
    }

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
