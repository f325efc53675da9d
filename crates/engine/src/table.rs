//! Multi-column tables whose columns are range-sharded progressive
//! indexes.
//!
//! A [`Table`] owns a set of named columns. Each column is split into N
//! value-range shards (via [`pi_storage::shard::RangePartition`]); every
//! shard owns its **own** progressive index over its slice of the rows, so
//!
//! * indexing work on different shards can proceed in parallel,
//! * a range query only visits the shards whose value range overlaps the
//!   predicate, and
//! * each shard converges independently towards its B+-tree, preserving
//!   the paper's deterministic-convergence property per shard.
//!
//! The indexing algorithm is chosen **per column** through the paper's
//! Figure-11 decision tree ([`pi_core::decision::recommend`]) from the
//! estimated data distribution and an optional query-shape hint, or pinned
//! explicitly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use pi_core::budget::BudgetPolicy;
use pi_core::decision::{recommend, Algorithm, QueryShape, Scenario};
use pi_core::metrics::IndexMetrics;
use pi_core::mutation::{MutableIndex, Mutation};
use pi_core::result::{IndexStatus, Phase};
use pi_obs::{Counter, Gauge, MetricsRegistry};
use pi_storage::delta::DeltaSidecar;
use pi_storage::scan::ScanResult;
use pi_storage::shard::RangePartition;
use pi_storage::{Column, Value};

use crate::stats::estimate_distribution;

/// How a column's indexing algorithm is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// Walk the Figure-11 decision tree with the given query-shape hint
    /// and the distribution estimated from a sample of the data.
    Auto(QueryShape),
    /// Use this algorithm on every shard of the column.
    Fixed(Algorithm),
}

impl Default for AlgorithmChoice {
    fn default() -> Self {
        AlgorithmChoice::Auto(QueryShape::Unknown)
    }
}

/// Specification of one column: its name, its keys in row order, and how
/// it is sharded and indexed. The three table facades share it and differ
/// only in the keys `K`:
///
/// * a [`Table`] column holds `u64` values (`ColumnSpec`, the default);
/// * a [`TypedTable<K>`](crate::typed::TypedTable) column holds typed keys
///   ([`TypedColumnSpec<K>`](crate::typed::TypedColumnSpec), keys
///   `Vec<K>`);
/// * a [`MultiTable`](crate::multicol::MultiTable) column holds one
///   [`ErasedColumn`](crate::erased::ErasedColumn)
///   ([`MultiColumnSpec`](crate::multicol::MultiColumnSpec)).
///
/// The typed facades encode their keys into the `u64` codes of an inner
/// [`Table`], so their shard boundaries are drawn equi-depth in encoded
/// space.
#[derive(Debug, Clone)]
pub struct ColumnSpec<K = Vec<Value>> {
    /// Column name used to address queries.
    pub name: String,
    /// The column's keys, in row order.
    pub keys: K,
    /// Number of range shards.
    pub shards: usize,
    /// Per-shard indexing budget policy.
    pub policy: BudgetPolicy,
    /// Algorithm selection (the decision tree runs over the encoded
    /// distribution).
    pub choice: AlgorithmChoice,
}

impl<K> ColumnSpec<K> {
    /// A column of four shards at `FixedDelta(0.25)`, with decision-tree
    /// algorithm selection and no query-shape hint.
    pub fn new(name: impl Into<String>, keys: K) -> Self {
        ColumnSpec {
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

/// Per-shard summary maintained under mutations: the shard's value bounds
/// and its full-shard live aggregate. Query answers are always exact over
/// the live rows regardless of indexing progress, so a predicate that
/// covers `[min, max]` entirely can be answered from `total` in O(1) — no
/// shard lock, no index probe (aggregate pushdown; wide queries only pay
/// real probes on their two boundary shards). Mutations update the totals
/// exactly and only ever *widen* `[min, max]` (a delete may leave the
/// bounds stale-wide, which costs shortcut opportunities but never
/// correctness).
#[derive(Debug, Clone, Copy)]
struct ShardDigest {
    /// Smallest / largest value the shard can hold (conservative under
    /// deletes; meaningless while the shard is empty).
    min: Value,
    max: Value,
    /// Exact `SUM`/`COUNT` over every live row of the shard.
    total: ScanResult,
}

impl ShardDigest {
    /// Folds one *applied* mutation into the digest.
    fn apply(&mut self, mutation: &Mutation) {
        match *mutation {
            Mutation::Insert(v) => {
                self.total.sum += v as u128;
                self.total.count += 1;
                self.widen(v);
            }
            Mutation::Delete(v) => {
                self.total = self.total.subtract(ScanResult {
                    sum: v as u128,
                    count: 1,
                });
            }
            Mutation::Update { old, new } => {
                self.total = self.total.subtract(ScanResult {
                    sum: old as u128,
                    count: 1,
                });
                self.total.sum += new as u128;
                self.total.count += 1;
                self.widen(new);
            }
        }
    }

    fn widen(&mut self, v: Value) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// A column's metric handles (see [`ShardedColumn::attach_metrics`]).
struct ColumnObs {
    /// Shared `core.<column>.*` counters, attached to every shard's index.
    index: Arc<IndexMetrics>,
    /// Per-shard convergence gauges `engine.rho.<column>.<shard>`.
    rho: Vec<Arc<Gauge>>,
    /// `executor.shards_reopened`: converged shards a write reopened.
    reopened: Arc<Counter>,
}

/// A named, range-sharded, progressively indexed, **mutable** column.
///
/// Each shard is a [`MutableIndex`] over the rows whose values fall into
/// the shard's value range. Shards born empty start converged; inserts can
/// revive them (the index grows a snapshot from its pending-delta sidecar
/// on the first merge).
///
/// Reads and writes are isolated per shard: every shard sits behind its
/// own mutex, so a writer only ever blocks the readers (and writers) of
/// the one shard it touches. The shard digests powering the O(1)
/// covered-shard shortcut live behind per-shard `RwLock`s and are updated
/// exactly on every applied mutation.
pub struct ShardedColumn {
    name: String,
    algorithm: Algorithm,
    policy: BudgetPolicy,
    partition: RangePartition,
    /// Rows per shard **at construction / last re-balance** — the
    /// task-granularity weights the scheduler pins shards to workers by
    /// (no shard lock needed to read them). Live counts drift under
    /// mutations; see [`ShardedColumn::shard_live_rows`].
    shard_rows: Vec<usize>,
    digests: Vec<RwLock<ShardDigest>>,
    shards: Vec<Mutex<MutableIndex>>,
    /// Per-shard convergence flags, written only by
    /// [`ShardedColumn::with_shard`] while it holds the shard's lock
    /// (`Release`), read lock-free (`Acquire`).
    converged: Vec<AtomicBool>,
    /// Pending-delta merges the shards completed, added by
    /// [`ShardedColumn::with_shard`] under the shard lock; a rebalance
    /// keeps the count.
    merges: AtomicU64,
    /// Lock-free per-shard ρ cache (f64 bits), published by
    /// [`ShardedColumn::with_shard`] and read by the conjunction planner
    /// and the executor's fan-out price without touching shard or digest
    /// locks.
    rho_cache: Vec<AtomicU64>,
    /// Metric handles (see [`TableBuilder::metrics`]); `None` costs
    /// nothing.
    obs: Option<ColumnObs>,
}

impl ShardedColumn {
    fn from_spec(spec: ColumnSpec) -> Self {
        assert!(spec.shards > 0, "a column needs at least one shard");
        let algorithm = match spec.choice {
            AlgorithmChoice::Fixed(a) => a,
            AlgorithmChoice::Auto(shape) => recommend(Scenario {
                query_shape: shape,
                distribution: estimate_distribution(&spec.keys),
                extra_memory_allowed: true,
            }),
        };
        let column = Column::from_vec(spec.keys);
        let partition = RangePartition::equi_depth(column.data(), spec.shards);
        Self::build(spec.name, column, partition, algorithm, spec.policy)
    }

    /// Shared constructor for the initial build and re-balances.
    fn build(
        name: String,
        column: Column,
        partition: RangePartition,
        algorithm: Algorithm,
        policy: BudgetPolicy,
    ) -> Self {
        let sub_columns = partition.split_column(&column);
        let digests = sub_columns
            .iter()
            .map(|sub| ShardDigest {
                min: sub.min(),
                max: sub.max(),
                total: ScanResult {
                    sum: sub.data().iter().map(|&v| v as u128).sum(),
                    count: sub.len() as u64,
                },
            })
            .collect();
        let shards = sub_columns
            .into_iter()
            .map(|sub| MutableIndex::new(Arc::new(sub), algorithm, policy))
            .collect();
        Self::assemble(name, algorithm, policy, partition, digests, shards)
    }

    /// The tail every constructor shares: derives the row counts and the
    /// domain from the shard digests, puts each shard behind its lock and
    /// publishes every shard's status.
    fn assemble(
        name: String,
        algorithm: Algorithm,
        policy: BudgetPolicy,
        partition: RangePartition,
        digests: Vec<ShardDigest>,
        shards: Vec<MutableIndex>,
    ) -> Self {
        let shard_rows: Vec<usize> = digests.iter().map(|d| d.total.count as usize).collect();
        let column = ShardedColumn {
            name,
            algorithm,
            policy,
            partition,
            shard_rows,
            digests: digests.into_iter().map(RwLock::new).collect(),
            converged: shards.iter().map(|_| AtomicBool::new(false)).collect(),
            merges: AtomicU64::new(0),
            rho_cache: shards.iter().map(|_| AtomicU64::new(0)).collect(),
            shards: shards.into_iter().map(Mutex::new).collect(),
            obs: None,
        };
        column.reattach();
        column
    }

    /// Reassembles a column from persisted parts: the shard boundaries
    /// plus each shard's base snapshot and pending sidecar (the state
    /// [`ShardedColumn::snapshot_state`] captures). A shard whose base was
    /// sorted when captured — a converged shard's is — has nothing left to
    /// sort and restarts at consolidation, a tree build over its array;
    /// any other restarts at the creation phase. The live multiset — and
    /// therefore every query answer — is exactly what was captured.
    ///
    /// `boundaries` must be strictly ascending and `shards` must hold
    /// exactly `boundaries.len() + 1` entries (the snapshot codec
    /// validates both).
    pub(crate) fn restore(
        name: String,
        algorithm: Algorithm,
        policy: BudgetPolicy,
        boundaries: Vec<Value>,
        shard_states: Vec<(Arc<Column>, DeltaSidecar)>,
    ) -> Self {
        assert_eq!(
            shard_states.len(),
            boundaries.len() + 1,
            "shard count must match the partition"
        );
        let partition = RangePartition::from_boundaries(boundaries);
        let shards: Vec<MutableIndex> = shard_states
            .into_iter()
            .map(|(base, sidecar)| MutableIndex::from_parts(base, sidecar, algorithm, policy))
            .collect();
        let digests = shards
            .iter()
            .map(|shard| {
                let (base, sidecar) = shard.snapshot_parts();
                let mut digest = ShardDigest {
                    min: base.min(),
                    max: base.max(),
                    total: shard.live_total(),
                };
                // Pending inserts may lie outside the base bounds; widen
                // like the live path would have (sorted run: first/last).
                if let (Some(&lo), Some(&hi)) =
                    (sidecar.inserts().first(), sidecar.inserts().last())
                {
                    digest.widen(lo);
                    digest.widen(hi);
                }
                digest
            })
            .collect();
        Self::assemble(name, algorithm, policy, partition, digests, shards)
    }

    /// Captures the column's persistable state: the partition boundaries
    /// and each shard's base snapshot plus pending sidecar. Callers
    /// wanting a consistent whole-column snapshot must exclude writers
    /// while capturing (the durability layer quiesces them).
    pub(crate) fn snapshot_state(&self) -> (Vec<Value>, Vec<(Arc<Column>, DeltaSidecar)>) {
        let boundaries = self.partition.boundaries().to_vec();
        let shards = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").snapshot_parts())
            .collect();
        (boundaries, shards)
    }

    /// Registers this column's convergence and indexing-work metrics in
    /// `registry` and attaches them to every shard:
    ///
    /// * `core.<column>.*` — refinement steps, δ·N bytes moved, merge
    ///   steps and cost-model error, aggregated over the shards (see
    ///   [`IndexMetrics::register`]).
    /// * `engine.rho.<column>.<shard>` — each shard's ρ, the paper's
    ///   convergence measure ([`IndexStatus::fraction_indexed`]).
    /// * `executor.shards_reopened` — converged shards a write reopened,
    ///   whichever path the write took.
    ///
    /// Called by [`TableBuilder::build`] before the table is shared (and
    /// by recovery, which rebuilds columns outside the builder).
    pub(crate) fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let scope = pi_obs::sanitize_component(&self.name);
        self.obs = Some(ColumnObs {
            index: IndexMetrics::register(registry, &self.name),
            rho: (0..self.shards.len())
                .map(|s| registry.gauge(&format!("engine.rho.{scope}.{s}")))
                .collect(),
            reopened: registry.counter("executor.shards_reopened"),
        });
        self.reattach();
    }

    /// Pushes the column's metric handles into every shard and publishes
    /// every shard's status (construction, metric attachment, re-balance).
    fn reattach(&self) {
        for s in 0..self.shards.len() {
            self.with_shard(s, |index| {
                index.set_metrics(self.obs.as_ref().map(|obs| Arc::clone(&obs.index)));
            });
        }
    }

    /// Runs `f` on shard `shard` under its lock and, before releasing it,
    /// publishes what the shard now reports: its ρ to the lock-free cache
    /// and the `engine.rho.*` gauge, its convergence flag, and the merges
    /// the call completed to the column's merge count. Every locked
    /// change to a shard goes through here, so nothing published is older
    /// than the last call that changed the shard. Only the lock holder
    /// writes the flag, so a plain load and store suffice: the mutex
    /// orders the previous holder's store before this load.
    pub(crate) fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut MutableIndex) -> R) -> R {
        let mut index = self.shards[shard].lock().expect("shard lock poisoned");
        let merges_before = index.merges_completed();
        let result = f(&mut index);
        let merged = index.merges_completed() - merges_before;
        if merged > 0 {
            self.merges.fetch_add(merged, Ordering::Relaxed);
        }
        let status = index.status();
        self.rho_cache[shard].store(status.fraction_indexed.to_bits(), Ordering::Relaxed);
        let was_converged = self.converged[shard].load(Ordering::Relaxed);
        if was_converged != status.converged {
            self.converged[shard].store(status.converged, Ordering::Release);
        }
        if let Some(obs) = &self.obs {
            obs.rho[shard].set(status.fraction_indexed);
            // Queries and maintenance only ever converge a shard; a write
            // is the one call that can reopen it.
            if was_converged && !status.converged {
                obs.reopened.inc();
            }
        }
        result
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current number of live rows, summed from the per-shard digests
    /// (no shard locks taken).
    pub fn live_rows(&self) -> usize {
        self.digests
            .iter()
            .map(|d| d.read().expect("digest lock poisoned").total.count as usize)
            .sum()
    }

    /// The algorithm running on every shard of this column.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The per-shard indexing budget policy of this column.
    pub(crate) fn policy(&self) -> BudgetPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard boundaries partition.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// Rows owned by each shard at construction (or the last re-balance).
    /// The executor's fan-out gate prices a shard task's scan from these
    /// counts; live counts drift under mutations.
    pub fn shard_rows(&self) -> &[usize] {
        &self.shard_rows
    }

    /// Current live rows per shard, from the digests (no shard locks).
    fn shard_live_rows(&self) -> Vec<usize> {
        self.digests
            .iter()
            .map(|d| d.read().expect("digest lock poisoned").total.count as usize)
            .collect()
    }

    /// Live-row weight drift across shards: `1.0` is perfectly balanced;
    /// values past an operational threshold (≈ `2.0`) call for
    /// [`Table::rebalance_if_drifted`].
    pub(crate) fn weight_drift(&self) -> f64 {
        RangePartition::weight_drift(&self.shard_live_rows())
    }

    /// The contiguous shard range a `[low, high]` predicate must visit.
    pub(crate) fn overlapping(&self, low: Value, high: Value) -> std::ops::Range<usize> {
        self.partition.overlapping(low, high)
    }

    /// Locks shard `shard` and answers `[low, high]` against it.
    ///
    /// Used by the executor's parallel fan-out; prefer
    /// [`ShardedColumn::query`] for the serial path.
    pub(crate) fn query_shard(&self, shard: usize, low: Value, high: Value) -> ScanResult {
        self.with_shard(shard, |index| index.query(low, high).scan_result())
    }

    /// O(1) answer for shard `shard` when the predicate covers every value
    /// the shard can hold (or the shard is empty): the maintained
    /// full-shard live aggregate, read under a brief digest lock — no
    /// shard mutex, no index probe. `None` means the shard must be probed
    /// through [`ShardedColumn::query_shard`]. Exactness does not depend
    /// on indexing progress — mutations update the digest atomically with
    /// the shard they apply to — but the skipped shard performs no
    /// per-query indexing work: it converges through the queries that do
    /// probe it, writes that land on it, or
    /// [`crate::Executor::drive_to_convergence`].
    pub(crate) fn covered_total(
        &self,
        shard: usize,
        low: Value,
        high: Value,
    ) -> Option<ScanResult> {
        let digest = self.digests[shard].read().expect("digest lock poisoned");
        if digest.total.count == 0 {
            Some(ScanResult::EMPTY)
        } else if low <= digest.min && digest.max <= high {
            Some(digest.total)
        } else {
            None
        }
    }

    /// Answers `[low, high]` by visiting the overlapping shards serially
    /// and merging the partial results.
    ///
    /// This serial path deliberately does *not* take the executor's
    /// covered-shard shortcut: every shard it visits pays its δ-slice, as
    /// every query does in the paper.
    pub fn query(&self, low: Value, high: Value) -> ScanResult {
        let mut merged = ScanResult::EMPTY;
        for shard in self.overlapping(low, high) {
            merged = merged.merge(self.query_shard(shard, low, high));
        }
        merged
    }

    /// Performs one maintenance step on shard `shard`; returns `true` when
    /// indexing work was performed.
    pub fn advance_shard(&self, shard: usize) -> bool {
        self.advance_shard_by(shard, 1) > 0
    }

    /// Performs up to `steps` maintenance steps on shard `shard` under a
    /// single lock acquisition; returns the steps actually performed
    /// (stops early at convergence). With N shards each budgeted step is
    /// ~N× smaller, so a caller that wants a column-δ of work on one shard
    /// takes N steps under one lock instead of N lock round-trips.
    pub fn advance_shard_by(&self, shard: usize, steps: usize) -> usize {
        self.with_shard(shard, |index| {
            (0..steps).take_while(|_| index.advance()).count()
        })
    }

    /// The shard a single-value mutation (insert, delete) routes to.
    pub(crate) fn shard_of(&self, v: Value) -> usize {
        self.partition.shard_of(v)
    }

    /// Applies one mutation to one shard under its lock. Returns whether
    /// it applied. The shard's digest is updated when it did, and the
    /// shard's status published, before the shard lock is released — a
    /// rejected delete's validating lookup refines the index too.
    ///
    /// The caller routes: `op` must belong to `shard` under the column's
    /// partition (for an update, both `old` and `new`;
    /// [`ShardedColumn::apply_mutations`] decomposes a cross-shard update
    /// into a delete and a dependent insert).
    fn apply_shard_op(&self, shard: usize, op: &Mutation) -> bool {
        self.with_shard(shard, |index| {
            let applied = index.apply(op);
            if applied {
                self.digests[shard]
                    .write()
                    .expect("digest lock poisoned")
                    .apply(op);
            }
            applied
        })
    }

    /// Applies a batch of mutations in request order, serially. Returns
    /// the per-mutation applied flags. Cross-shard updates are atomic:
    /// the delete is attempted first and the insert of the new value only
    /// happens when it succeeded.
    ///
    /// This is the one writer path, mirroring [`ShardedColumn::query`]:
    /// the executor, the typed and multi-column facades and the durable
    /// table all apply their batches through it, so every write lands in
    /// request order — the order the write-ahead log replays.
    pub fn apply_mutations(&self, mutations: &[Mutation]) -> Vec<bool> {
        mutations
            .iter()
            .map(|m| match *m {
                Mutation::Insert(v) | Mutation::Delete(v) => {
                    self.apply_shard_op(self.shard_of(v), m)
                }
                Mutation::Update { old, new } => {
                    let (from, to) = (self.shard_of(old), self.shard_of(new));
                    if from == to {
                        self.apply_shard_op(from, m)
                    } else {
                        self.apply_shard_op(from, &Mutation::Delete(old))
                            && self.apply_shard_op(to, &Mutation::Insert(new))
                    }
                }
            })
            .collect()
    }

    /// Whether shard `shard` has converged, as published by the last call
    /// that held its lock (no lock taken). A write that reopens the shard
    /// clears the flag before it releases the lock.
    pub(crate) fn shard_is_converged(&self, shard: usize) -> bool {
        self.converged[shard].load(Ordering::Acquire)
    }

    /// Pending-delta merges the column's shards have completed since it
    /// was built or restored, a rebalance included (no lock taken). The
    /// durability layer's merge-based checkpoint trigger sums it over the
    /// table.
    pub(crate) fn merges_completed(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    /// Shard `shard`'s cached ρ (the paper's fraction-indexed convergence
    /// measure), read lock-free from the value published by the last call
    /// that held the shard's lock.
    pub(crate) fn shard_rho_estimate(&self, shard: usize) -> f64 {
        f64::from_bits(self.rho_cache[shard].load(Ordering::Relaxed))
    }

    /// The column's ρ, row-weighted over the per-shard caches (no locks;
    /// weights are the construction-time shard rows). This is the
    /// refinement-state input to the conjunction planner: approximate by
    /// design — it trades freshness for a zero-cost read on the planning
    /// path — and exactness never depends on it.
    pub(crate) fn rho_estimate(&self) -> f64 {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for (s, &rows) in self.shard_rows.iter().enumerate() {
            let w = rows.max(1) as f64;
            weighted += self.shard_rho_estimate(s) * w;
            weight += w;
        }
        if weight == 0.0 {
            1.0
        } else {
            weighted / weight
        }
    }

    /// Estimated fraction of the column's live rows matching
    /// `[low, high]`, computed from the per-shard digests alone (brief
    /// digest read locks; no shard mutexes, no index probes): a fully
    /// covered shard contributes its exact live count, a partially
    /// overlapped shard contributes a linear interpolation of its count
    /// over `[min, max]`. This is the selectivity input to the conjunction
    /// planner — approximate by design; exactness never depends on it.
    pub(crate) fn estimate_selectivity(&self, low: Value, high: Value) -> f64 {
        if low > high {
            return 0.0;
        }
        let visit = self.overlapping(low, high);
        let mut matching = 0.0;
        let mut total = 0.0;
        for (shard, digest) in self.digests.iter().enumerate() {
            let digest = digest.read().expect("digest lock poisoned");
            let count = digest.total.count as f64;
            total += count;
            if digest.total.count == 0 || !visit.contains(&shard) {
                continue;
            }
            if low <= digest.min && digest.max <= high {
                matching += count;
            } else {
                let lo = low.max(digest.min);
                let hi = high.min(digest.max);
                if lo <= hi {
                    let span = (digest.max - digest.min) as f64 + 1.0;
                    let overlap = (hi - lo) as f64 + 1.0;
                    matching += count * (overlap / span);
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            (matching / total).clamp(0.0, 1.0)
        }
    }

    /// Re-draws equi-depth shard boundaries from the current live values
    /// and re-splits the column into the same number of shards, each with
    /// a new index over its new slice. The live values of shards whose
    /// bases are sorted come out sorted, shard after shard in range order,
    /// and the split is stable: a column of converged shards re-splits
    /// into sorted slices whose indexes start at consolidation. A slice
    /// that takes rows from a shard not yet sorted starts at creation.
    ///
    /// This is a stop-the-world operation (`&mut self`): it is meant for
    /// maintenance windows, before an executor is attached — the
    /// executor's shard addressing is computed at construction. The
    /// queries it serves stay exact throughout (answers never depend on
    /// indexing progress); the progress sacrificed is the sorting of shards
    /// that were still unsorted, and every shard's tree.
    pub(crate) fn rebalance(&mut self) {
        let mut live: Vec<Value> = Vec::new();
        for shard in &self.shards {
            live.extend(shard.lock().expect("shard lock poisoned").live_values());
        }
        let shards = self.partition.shard_count();
        let partition = RangePartition::equi_depth(&live, shards);
        let obs = self.obs.take();
        let merges = std::mem::take(&mut self.merges);
        *self = Self::build(
            std::mem::take(&mut self.name),
            Column::from_vec(live),
            partition,
            self.algorithm,
            self.policy,
        );
        // The rebuilt shards keep reporting into the same metric family
        // (same shard count, so the gauge handles stay valid) and keep
        // the column's merge count.
        self.obs = obs;
        self.merges = merges;
        self.reattach();
    }

    /// Per-shard status snapshots.
    pub fn shard_statuses(&self) -> Vec<IndexStatus> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").status())
            .collect()
    }

    /// Aggregate status of the column: the earliest phase any shard is
    /// still in, row-weighted mean progress, and convergence once every
    /// shard has converged.
    pub fn status(&self) -> IndexStatus {
        let mut phase = Phase::Converged;
        let mut fraction_indexed = 0.0;
        let mut phase_progress = 0.0;
        let mut converged = true;
        let mut weight = 0.0;
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock poisoned");
            let status = shard.status();
            let rows = shard.live_rows() as f64;
            phase = phase.min(status.phase);
            converged &= status.converged;
            fraction_indexed += status.fraction_indexed * rows;
            phase_progress += status.phase_progress * rows;
            weight += rows;
        }
        if weight == 0.0 {
            // Zero live rows is not the same as converged: a column whose
            // every row was just deleted still holds unmerged tombstone
            // sidecars (each shard reports `converged: false` until its
            // deltas are folded in).
            return if converged {
                IndexStatus::converged()
            } else {
                IndexStatus {
                    phase,
                    fraction_indexed: 0.0,
                    phase_progress: 0.0,
                    converged: false,
                }
            };
        }
        IndexStatus {
            phase,
            fraction_indexed: fraction_indexed / weight,
            phase_progress: phase_progress / weight,
            converged,
        }
    }

    /// `true` once every shard of the column has converged: every
    /// published convergence flag is set (no shard lock taken).
    pub fn is_converged(&self) -> bool {
        self.converged.iter().all(|c| c.load(Ordering::Acquire))
    }
}

/// A multi-column table of range-sharded progressive indexes.
///
/// Columns are built through [`Table::builder`]; queries are served either
/// directly ([`Table::query`]) or — batched, in parallel, from many client
/// threads — through [`crate::executor::Executor`].
pub struct Table {
    columns: Vec<ShardedColumn>,
    by_name: HashMap<String, usize>,
}

/// Builder for [`Table`].
#[derive(Default)]
pub struct TableBuilder {
    specs: Vec<ColumnSpec>,
    metrics: Option<Arc<MetricsRegistry>>,
    durability: Option<crate::durability::DurabilityConfig>,
}

impl TableBuilder {
    /// Adds a column.
    pub fn column(mut self, spec: ColumnSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Does nothing; kept only because `pibench/` calls it — see
    /// [`pi_core::tuning`].
    pub fn tuning(self, _tuning: pi_core::TuningParameters) -> Self {
        self
    }

    /// Registers every column's index metrics in `registry`: per-column
    /// `core.<column>.*` counters (refinement steps, bytes moved, merge
    /// steps, cost-model error) shared across the column's shards, and
    /// per-shard `engine.rho.<column>.<shard>` convergence gauges.
    /// Without this call the table records nothing and pays nothing.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Sets the durability configuration [`TableBuilder::build_durable`]
    /// wraps the table with (defaults apply when omitted).
    pub fn durability(mut self, config: crate::durability::DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Builds the table, sharding every column and constructing the
    /// per-shard indexes.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn build(self) -> Table {
        let mut columns = Vec::with_capacity(self.specs.len());
        let mut by_name = HashMap::new();
        for spec in self.specs {
            let mut column = ShardedColumn::from_spec(spec);
            if let Some(registry) = &self.metrics {
                column.attach_metrics(registry);
            }
            let previous = by_name.insert(column.name().to_string(), columns.len());
            assert!(
                previous.is_none(),
                "duplicate column name {:?}",
                column.name()
            );
            columns.push(column);
        }
        Table { columns, by_name }
    }

    /// Builds the table and wraps it in a
    /// [`crate::durability::DurableTable`] over the given write-ahead
    /// log and snapshot store, using the configuration set through
    /// [`TableBuilder::durability`] (or its defaults). The metrics
    /// registry set through [`TableBuilder::metrics`] also receives the
    /// `wal.*` namespace.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn build_durable(
        self,
        wal: Box<dyn pi_durable::WalStorage>,
        store: Box<dyn pi_durable::SnapshotStore>,
    ) -> Result<crate::durability::DurableTable, crate::durability::DurabilityError> {
        let config = self.durability.unwrap_or_default();
        let registry = self.metrics.clone();
        let table = self.build();
        crate::durability::DurableTable::create(table, wal, store, config, registry.as_deref())
    }
}

impl Table {
    /// Starts building a table.
    pub fn builder() -> TableBuilder {
        TableBuilder::default()
    }

    /// Assembles a table from already-constructed columns (the recovery
    /// path; [`Table::builder`] is the normal constructor).
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub(crate) fn from_columns(columns: Vec<ShardedColumn>) -> Table {
        let mut by_name = HashMap::new();
        for (i, column) in columns.iter().enumerate() {
            let previous = by_name.insert(column.name().to_string(), i);
            assert!(
                previous.is_none(),
                "duplicate column name {:?}",
                column.name()
            );
        }
        Table { columns, by_name }
    }

    /// Re-balances the named column unconditionally (the durability
    /// layer's replay path for a logged rebalance; operational callers
    /// use [`Table::rebalance_if_drifted`]). Returns `false` for an
    /// unknown column.
    pub(crate) fn rebalance_column(&mut self, name: &str) -> bool {
        match self.by_name.get(name).copied() {
            Some(i) => {
                self.columns[i].rebalance();
                true
            }
            None => false,
        }
    }

    /// The table's columns, in insertion order.
    pub fn columns(&self) -> &[ShardedColumn] {
        &self.columns
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Option<&ShardedColumn> {
        self.by_name.get(name).map(|&i| &self.columns[i])
    }

    /// Index of a column by name (used by the executor's task lists).
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// `SELECT SUM(col), COUNT(col) WHERE col BETWEEN low AND high`,
    /// served serially. Returns `None` for an unknown column.
    pub fn query(&self, column: &str, low: Value, high: Value) -> Option<ScanResult> {
        Some(self.column(column)?.query(low, high))
    }

    /// Applies a batch of mutations to `column` in request order, serially
    /// (the writer analogue of [`Table::query`], and the path
    /// [`crate::executor::Executor::apply_mutations`] takes). Returns the
    /// per-mutation applied flags, or `None` for an unknown column.
    ///
    /// ```
    /// use pi_core::mutation::Mutation;
    /// use pi_engine::{ColumnSpec, Table};
    ///
    /// let table = Table::builder()
    ///     .column(ColumnSpec::new("a", vec![1, 2, 3]))
    ///     .build();
    /// let applied = table
    ///     .apply_mutations("a", &[Mutation::Insert(10), Mutation::Delete(99)])
    ///     .unwrap();
    /// assert_eq!(applied, vec![true, false]); // no live 99 to delete
    /// assert_eq!(table.query("a", 0, 100).unwrap().count, 4);
    /// ```
    pub fn apply_mutations(&self, column: &str, mutations: &[Mutation]) -> Option<Vec<bool>> {
        Some(self.column(column)?.apply_mutations(mutations))
    }

    /// Re-balances every column whose live-row weight drift exceeds
    /// `threshold` (the heaviest shard's live rows over the mean, see
    /// [`RangePartition::weight_drift`]; `2.0` is a reasonable
    /// operational setting). Returns how many columns were
    /// re-balanced. Stop-the-world: requires exclusive access, so it runs
    /// in maintenance windows, not under an attached executor.
    pub fn rebalance_if_drifted(&mut self, threshold: f64) -> usize {
        let mut rebalanced = 0;
        for column in &mut self.columns {
            if column.weight_drift() > threshold {
                column.rebalance();
                rebalanced += 1;
            }
        }
        rebalanced
    }

    /// Aggregate status per column.
    pub fn status(&self) -> Vec<(&str, IndexStatus)> {
        self.columns
            .iter()
            .map(|c| (c.name(), c.status()))
            .collect()
    }

    /// `true` once every shard of every column has converged.
    pub fn is_converged(&self) -> bool {
        self.columns.iter().all(ShardedColumn::is_converged)
    }

    /// Total number of shards across all columns.
    pub(crate) fn total_shards(&self) -> usize {
        self.columns.iter().map(ShardedColumn::shard_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::random_column;
    use pi_storage::scan::scan_range_sum;

    fn uniform_values(n: usize, seed: u64) -> Vec<Value> {
        random_column(n, n as u64, seed).into_vec()
    }

    #[test]
    fn sharded_column_matches_full_scan() {
        let values = uniform_values(20_000, 11);
        let column = ShardedColumn::from_spec(ColumnSpec::new("a", values.clone()).with_shards(4));
        assert_eq!(column.shard_count(), 4);
        for (low, high) in [(0, 5_000), (7_500, 12_500), (19_999, 19_999), (5, 3)] {
            assert_eq!(
                column.query(low, high),
                scan_range_sum(&values, low, high),
                "[{low}, {high}]"
            );
        }
    }

    #[test]
    fn shards_converge_under_maintenance() {
        let values = uniform_values(5_000, 13);
        let column = ShardedColumn::from_spec(
            ColumnSpec::new("a", values.clone())
                .with_shards(4)
                .with_policy(BudgetPolicy::FixedDelta(1.0)),
        );
        let mut guard = 0;
        while !column.is_converged() {
            for shard in 0..column.shard_count() {
                column.advance_shard(shard);
            }
            guard += 1;
            assert!(guard < 500, "column did not converge");
        }
        let status = column.status();
        assert!(status.converged);
        assert_eq!(status.phase, Phase::Converged);
        // Answers remain exact after convergence.
        assert_eq!(
            column.query(100, 2_000),
            scan_range_sum(&values, 100, 2_000)
        );
    }

    #[test]
    fn shard_rows_match_shard_contents() {
        let values = uniform_values(12_000, 23);
        let column = ShardedColumn::from_spec(ColumnSpec::new("a", values).with_shards(5));
        let rows = column.shard_rows().to_vec();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.iter().sum::<usize>(), 12_000);
        let locked: Vec<usize> = (0..5)
            .map(|s| column.shards[s].lock().unwrap().live_rows())
            .collect();
        assert_eq!(rows, locked);
    }

    #[test]
    fn auto_choice_uses_decision_tree() {
        // Uniform data, range hint → Radixsort MSD per Figure 11.
        let uniform = ShardedColumn::from_spec(
            ColumnSpec::new("u", uniform_values(10_000, 17))
                .with_choice(AlgorithmChoice::Auto(QueryShape::Range)),
        );
        assert_eq!(uniform.algorithm(), Algorithm::RadixsortMsd);
        // Point hint → Radixsort LSD.
        let point = ShardedColumn::from_spec(
            ColumnSpec::new("p", uniform_values(10_000, 18))
                .with_choice(AlgorithmChoice::Auto(QueryShape::Point)),
        );
        assert_eq!(point.algorithm(), Algorithm::RadixsortLsd);
    }

    #[test]
    fn table_routes_queries_by_column_name() {
        let a = uniform_values(8_000, 19);
        let b: Vec<Value> = a.iter().map(|v| v * 3).collect();
        let table = Table::builder()
            .column(ColumnSpec::new("a", a.clone()).with_shards(4))
            .column(ColumnSpec::new("b", b.clone()).with_shards(2))
            .build();
        assert_eq!(table.columns().len(), 2);
        assert_eq!(table.total_shards(), 6);
        assert_eq!(
            table.query("a", 100, 4_000),
            Some(scan_range_sum(&a, 100, 4_000))
        );
        assert_eq!(
            table.query("b", 300, 12_000),
            Some(scan_range_sum(&b, 300, 12_000))
        );
        assert_eq!(table.query("missing", 0, 1), None);
    }

    #[test]
    fn empty_and_tiny_columns_work() {
        let table = Table::builder()
            .column(ColumnSpec::new("empty", vec![]).with_shards(4))
            .column(ColumnSpec::new("tiny", vec![5, 1]).with_shards(4))
            .build();
        assert_eq!(table.query("empty", 0, 100), Some(ScanResult::EMPTY));
        assert_eq!(
            table.query("tiny", 0, 100),
            Some(ScanResult { sum: 6, count: 2 })
        );
        let empty = table.column("empty").unwrap();
        assert!(empty.status().converged);
    }

    #[test]
    fn empty_column_digest_sentinels_never_fake_coverage() {
        // An empty sub-column's digest starts from the min/max fold
        // neutral elements (min == Value::MAX, max == Value::MIN): the
        // inverted pair can never satisfy `low <= min && max <= high`
        // by accident because `covered_total` guards on the live count
        // first. This is the regression test for the empty-column
        // digest path (capability-gated typed digests sit on top of
        // exactly these totals).
        let column = ShardedColumn::from_spec(ColumnSpec::new("e", vec![]).with_shards(3));
        assert_eq!(column.live_rows(), 0);
        for (low, high) in [(0, u64::MAX), (0, 0), (u64::MAX, u64::MAX), (5, 3)] {
            for shard in 0..column.shard_count() {
                assert_eq!(
                    column.covered_total(shard, low, high),
                    Some(ScanResult::EMPTY),
                    "shard {shard} [{low}, {high}]"
                );
            }
            assert_eq!(column.query(low, high), ScanResult::EMPTY);
        }
        assert!(column.status().converged);

        // Inserts widen the neutral elements into real bounds and the
        // covered-shard shortcut stays exact.
        let applied = column.apply_mutations(&[Mutation::Insert(7), Mutation::Insert(9)]);
        assert_eq!(applied, vec![true, true]);
        let shard = column.shard_of(7);
        assert_eq!(
            column.covered_total(shard, 0, u64::MAX),
            Some(ScanResult { sum: 16, count: 2 })
        );
        assert_eq!(column.query(0, u64::MAX), ScanResult { sum: 16, count: 2 });

        // Deleting every row returns the digest to the empty state: the
        // count guard answers EMPTY even though [min, max] stays
        // stale-wide.
        let applied = column.apply_mutations(&[Mutation::Delete(7), Mutation::Delete(9)]);
        assert_eq!(applied, vec![true, true]);
        assert_eq!(
            column.covered_total(shard, 0, u64::MAX),
            Some(ScanResult::EMPTY)
        );
        assert_eq!(column.query(0, u64::MAX), ScanResult::EMPTY);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        let _ = Table::builder()
            .column(ColumnSpec::new("a", vec![1]))
            .column(ColumnSpec::new("a", vec![2]))
            .build();
    }

    #[test]
    fn mutations_update_answers_digests_and_live_counts() {
        let values = uniform_values(10_000, 29);
        let mut oracle = values.clone();
        let column = ShardedColumn::from_spec(ColumnSpec::new("a", values.clone()).with_shards(4));
        let mutations = [
            Mutation::Insert(123),
            Mutation::Delete(values[17]),
            Mutation::Delete(u64::MAX), // absent: rejected
            Mutation::Update {
                old: values[40],
                new: 9_999_999, // outside every shard's range: cross-shard move
            },
        ];
        let applied = column.apply_mutations(&mutations);
        assert_eq!(applied, vec![true, true, false, true]);
        oracle.push(123);
        let at = oracle.iter().position(|&v| v == values[17]).unwrap();
        oracle.remove(at);
        let at = oracle.iter().position(|&v| v == values[40]).unwrap();
        oracle.remove(at);
        oracle.push(9_999_999);
        assert_eq!(column.live_rows(), oracle.len());
        for (low, high) in [
            (0, u64::MAX),
            (9_999_999, 9_999_999),
            (123, 123),
            (0, 5_000),
        ] {
            assert_eq!(
                column.query(low, high),
                scan_range_sum(&oracle, low, high),
                "[{low}, {high}]"
            );
        }
    }

    #[test]
    fn serial_mutations_match_scan_oracle() {
        let values = uniform_values(5_000, 31);
        let mut oracle = values.clone();
        let column = ShardedColumn::from_spec(
            ColumnSpec::new("a", values)
                .with_shards(4)
                .with_policy(BudgetPolicy::FixedDelta(0.5)),
        );
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..100 {
            let v = next() % 5_000;
            let m = match next() % 3 {
                0 => Mutation::Insert(v),
                1 => Mutation::Delete(v),
                _ => Mutation::Update {
                    old: v,
                    new: next() % 5_000,
                },
            };
            let applied = column.apply_mutations(std::slice::from_ref(&m))[0];
            let expected = match m {
                Mutation::Insert(v) => {
                    oracle.push(v);
                    true
                }
                Mutation::Delete(v) => match oracle.iter().position(|&x| x == v) {
                    Some(at) => {
                        oracle.remove(at);
                        true
                    }
                    None => false,
                },
                Mutation::Update { old, new } => match oracle.iter().position(|&x| x == old) {
                    Some(at) => {
                        oracle.remove(at);
                        oracle.push(new);
                        true
                    }
                    None => false,
                },
            };
            assert_eq!(applied, expected, "round {round}: {m:?}");
            // Interleave queries and maintenance with the writes.
            let low = next() % 5_000;
            let high = low + next() % 500;
            assert_eq!(
                column.query(low, high),
                scan_range_sum(&oracle, low, high),
                "round {round} [{low}, {high}]"
            );
            column.advance_shard((round % 4) as usize);
        }
        assert_eq!(column.live_rows(), oracle.len());
    }

    #[test]
    fn mutated_converged_column_re_enters_maintenance_and_reconverges() {
        let values = uniform_values(4_000, 37);
        let column = ShardedColumn::from_spec(
            ColumnSpec::new("a", values.clone())
                .with_shards(4)
                .with_policy(BudgetPolicy::FixedDelta(1.0)),
        );
        let converge = |column: &ShardedColumn| {
            let mut guard = 0;
            while !column.is_converged() {
                for shard in 0..column.shard_count() {
                    column.advance_shard_by(shard, 8);
                }
                guard += 1;
                assert!(guard < 10_000, "column did not converge");
            }
        };
        converge(&column);
        assert!((0..column.shard_count()).all(|s| column.shard_is_converged(s)));
        let applied = column.apply_mutations(&[Mutation::Insert(42), Mutation::Insert(4_500)]);
        assert_eq!(applied, vec![true, true]);
        assert!(
            !column.is_converged(),
            "pending deltas must un-converge the column"
        );
        assert!(!column.shard_is_converged(column.shard_of(42)));
        converge(&column);
        assert_eq!(
            column.query(0, u64::MAX).count as usize,
            values.len() + 2,
            "all rows live after re-convergence"
        );
    }

    #[test]
    fn deleting_every_row_does_not_fake_convergence() {
        let column = ShardedColumn::from_spec(
            ColumnSpec::new("a", vec![10, 20, 30])
                .with_shards(2)
                .with_policy(BudgetPolicy::FixedDelta(1.0)),
        );
        let applied = column.apply_mutations(&[
            Mutation::Delete(10),
            Mutation::Delete(20),
            Mutation::Delete(30),
        ]);
        assert_eq!(applied, vec![true, true, true]);
        assert_eq!(column.live_rows(), 0);
        // Tombstone sidecars are still pending: the column must keep
        // reporting unconverged so maintenance folds them in.
        assert!(!column.status().converged);
        assert!(!column.is_converged());
        let mut guard = 0;
        while !column.is_converged() {
            for shard in 0..column.shard_count() {
                column.advance_shard_by(shard, 8);
            }
            guard += 1;
            assert!(guard < 1_000, "tombstone merge did not converge");
        }
        assert!(column.status().converged);
        assert_eq!(column.query(0, u64::MAX), ScanResult::EMPTY);
    }

    #[test]
    fn rebalance_restores_equi_depth_after_skewed_inserts() {
        let values = uniform_values(8_000, 41);
        let table = Table::builder()
            .column(ColumnSpec::new("a", values.clone()).with_shards(4))
            .build();
        let mut table = table;
        // Pile inserts into a narrow band owned by one shard.
        let band: Vec<Mutation> = (0..8_000).map(|i| Mutation::Insert(100 + i % 50)).collect();
        table.apply_mutations("a", &band).unwrap();
        let column = table.column("a").unwrap();
        let before = column.weight_drift();
        assert!(
            before > 1.5,
            "skewed inserts must drift the weights, got {before}"
        );
        let expected = column.query(0, u64::MAX);
        assert_eq!(table.rebalance_if_drifted(1.5), 1);
        let column = table.column("a").unwrap();
        let after = column.weight_drift();
        assert!(
            after < before,
            "rebalance must reduce drift: {after} vs {before}"
        );
        assert!(after < 1.5, "rebalanced drift still high: {after}");
        // Same live multiset, served exactly, and re-convergeable.
        assert_eq!(column.query(0, u64::MAX), expected);
        assert_eq!(table.rebalance_if_drifted(1.5), 0, "second pass is a no-op");
    }

    /// What a column publishes for lock-free readers — each shard's
    /// convergence flag and cached ρ — is what the shard reports, after
    /// every call. The first case is a run of rejected deletes: their
    /// validating lookups refine the index although nothing applies. The
    /// script is seeded and a failure names algorithm, seed and step.
    #[test]
    fn publication_matches_the_shard_after_every_call() {
        fn assert_published(column: &ShardedColumn, context: &str) {
            for (s, status) in column.shard_statuses().iter().enumerate() {
                assert_eq!(
                    (column.shard_is_converged(s), column.shard_rho_estimate(s)),
                    (status.converged, status.fraction_indexed),
                    "{context}: shard {s}"
                );
            }
        }
        // Even values only, so every odd value is absent.
        let evens = |n: usize, seed: u64| -> Vec<Value> {
            uniform_values(n, seed).into_iter().map(|v| 2 * v).collect()
        };
        for algorithm in Algorithm::ALL {
            let spec = |values: Vec<Value>, shards: usize| {
                ColumnSpec::new("a", values)
                    .with_shards(shards)
                    .with_policy(BudgetPolicy::FixedDelta(0.5))
                    .with_choice(AlgorithmChoice::Fixed(algorithm))
            };
            let column = ShardedColumn::from_spec(spec(evens(1_000, 43), 1));
            assert_eq!(
                column.apply_mutations(&[Mutation::Delete(1); 6]),
                [false; 6]
            );
            assert!(column.shard_statuses()[0].fraction_indexed > 0.0);
            assert_published(&column, &format!("{algorithm}: rejected deletes"));

            for seed in 1..=4u64 {
                let mut live = evens(400, seed);
                let mut column = ShardedColumn::from_spec(spec(live.clone(), 4));
                let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut next = move |bound: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % bound
                };
                for step in 0..300 {
                    let shard = next(4) as usize;
                    let low = next(800);
                    let high = low + next(200);
                    let victim = next(live.len().max(1) as u64) as usize;
                    let op = match next(9) {
                        0 | 1 => {
                            column.query_shard(shard, low, high);
                            "query_shard"
                        }
                        2 => {
                            column.advance_shard_by(shard, 1 + next(3) as usize);
                            "advance_shard_by"
                        }
                        3 => {
                            let v = 2 * next(400);
                            assert_eq!(column.apply_mutations(&[Mutation::Insert(v)]), [true]);
                            live.push(v);
                            "insert"
                        }
                        4 if !live.is_empty() => {
                            let v = live.swap_remove(victim);
                            assert_eq!(column.apply_mutations(&[Mutation::Delete(v)]), [true]);
                            "present delete"
                        }
                        5 => {
                            let v = 2 * next(400) + 1;
                            assert_eq!(column.apply_mutations(&[Mutation::Delete(v)]), [false]);
                            "absent delete"
                        }
                        6 if !live.is_empty() => {
                            let (old, new) = (live[victim], (live[victim] + 400) % 800);
                            let update = Mutation::Update { old, new };
                            assert_eq!(column.apply_mutations(&[update]), [true]);
                            live[victim] = new;
                            "update"
                        }
                        7 => {
                            column.with_shard(shard, |index| index.live_values());
                            "locked read"
                        }
                        8 if next(4) == 0 => {
                            column.rebalance();
                            "rebalance"
                        }
                        _ => continue,
                    };
                    assert_published(
                        &column,
                        &format!("{algorithm} seed {seed} step {step} {op}"),
                    );
                }
            }
        }
    }
}
