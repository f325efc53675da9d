//! The progressive index: the one life all four algorithms live (§3 of
//! the paper), and the writes it absorbs while living it.
//!
//! ## One lifecycle
//!
//! A per-query δ from the budget, then **creation → refinement →
//! consolidation → converged**: the paper defines this once, and §3.1–3.4
//! only say how each algorithm *partitions* inside the first two phases.
//! [`MutableIndex`] is that life, written once, and the [`Algorithm`] it
//! runs is a value it holds:
//!
//! * it holds the base column, the [`BudgetController`] and the
//!   [`CostModel`];
//! * every query it asks the budget for one δ, priced by the cost of the
//!   current phase's unit of work, and spends it on one step;
//! * while sorting, the step is the algorithm's: its creation and
//!   refinement states live in the crate's internal `quicksort`,
//!   `radix_msd`, `radix_lsd` and `bucketsort` modules;
//! * a sorted column (the empty one included) has nothing to sort and
//!   starts at the consolidation tail;
//! * the moment the algorithm's array is sorted it *becomes* the base
//!   column: it is handed to the shared consolidation tail, the handle on
//!   the unsorted column is released, and the sorting state — buckets,
//!   pivot trees, scratch, routing metadata — is dropped whole. One copy of
//!   the values is resident from then on.
//!
//! [`Algorithm::build`] boxes one behind [`RangeIndex`], the interface it
//! shares with pi-cracking's baselines; the engine holds one per shard.
//!
//! ## Writes
//!
//! The paper's algorithms assume an append-only column. The index lifts
//! that limitation for **all four** algorithms at once without touching
//! their sorting states, by never mutating the base column they sort.
//! Mutations accumulate in a [`DeltaSidecar`]; every query composes
//!
//! ```text
//! answer = index(base column) + pending inserts − pending tombstones
//! ```
//!
//! so answers are exact at every stage, from the first creation query to
//! long after convergence.
//!
//! The sidecar is folded back in **incrementally**, by the same
//! budgeted-step machinery that drives refinement
//! ([`MutableIndex::advance`]). The fold is a
//! *merge*, and a merge is part of the sorted stage: only a sorted base has
//! one. Once the base is sorted and the sidecar outgrows a tenth of the
//! live rows (at least 256 entries) — or the index has converged with
//! deltas still pending — a merge starts. Writes that arrive before the
//! base is sorted wait in the sidecar, which queries compose in
//! O(log n + run). A merge is a merge of three sorted runs (base, frozen
//! inserts, frozen tombstones); each budgeted step emits a quarter of the
//! merged column in value order while queries keep being answered from the
//! old base plus the frozen deltas. When the merge completes, the merged
//! column is the base, on a fresh budget and cost model with the same
//! policy and constants — the "mutated converged shard re-enters
//! maintenance" behaviour the serving engine relies on. That column is
//! sorted, so the index starts over at consolidation: a converged index
//! that absorbs writes only rebuilds the tree over its array.
//!
//! ## Semantics
//!
//! The column is a **multiset of values** (the paper's workload is
//! `SUM`/`COUNT BETWEEN`, so rows have no identity beyond their value):
//!
//! * [`Mutation::Insert`] adds one occurrence — always applies.
//! * [`Mutation::Delete`] removes one live occurrence — applies only if
//!   one exists (validated with a point lookup, which doubles as that
//!   mutation's budgeted slice of indexing work).
//! * [`Mutation::Update`] is delete-then-insert, applied atomically: the
//!   insert happens only if the delete found its victim.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pi_core::mutation::{MutableIndex, Mutation};
//! use pi_core::{Algorithm, BudgetPolicy};
//! use pi_storage::Column;
//!
//! let column = Arc::new(Column::from_vec(vec![10, 20, 30]));
//! let mut index = MutableIndex::new(column, Algorithm::Quicksort,
//!                                   BudgetPolicy::FixedDelta(0.5));
//!
//! assert!(index.apply(&Mutation::Insert(25)));
//! assert!(index.apply(&Mutation::Delete(10)));
//! assert!(!index.apply(&Mutation::Delete(99))); // no such live row
//!
//! // Exact immediately, mid-refinement: live multiset is {20, 25, 30}.
//! let r = index.query(0, 100);
//! assert_eq!((r.sum, r.count), (75, 3));
//!
//! // Maintenance steps drive refinement AND the delta merge; the index
//! // reaches a truly converged, delta-free state.
//! while index.advance() {}
//! assert!(index.is_converged() && !index.has_pending());
//! assert_eq!(index.query(0, 100).count, 3);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use pi_storage::btree::DEFAULT_FANOUT;
use pi_storage::delta::DeltaSidecar;
use pi_storage::scan::ScanResult;
use pi_storage::{Column, Value};

use crate::budget::{BudgetController, BudgetPolicy};
use crate::consolidation::Consolidation;
use crate::cost_model::{CostConstants, CostModel};
use crate::decision::Algorithm;
use crate::index::RangeIndex;
use crate::lifecycle::Sorting;
use crate::metrics::IndexMetrics;
use crate::result::{IndexStatus, Phase, QueryResult};

/// Fraction of the live row count the pending sidecar may reach before a
/// merge is started over a sorted base.
const MERGE_FRACTION: f64 = 0.1;
/// Minimum pending entries before the fraction trigger fires, so small
/// columns don't merge on every few mutations.
const MERGE_MIN_PENDING: usize = 256;
/// Fraction of the merged column's rows emitted per budgeted merge step.
const MERGE_DELTA: f64 = 0.25;

/// A single write against a mutable progressive index. The column is a
/// multiset of values; see the [module docs](self) for the exact
/// semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Add one occurrence of the value.
    Insert(Value),
    /// Remove one live occurrence of the value; rejected when none exists.
    Delete(Value),
    /// Atomically replace one live occurrence of `old` with `new`;
    /// rejected (and `new` not inserted) when no live `old` exists.
    Update {
        /// The value to remove.
        old: Value,
        /// The value to insert in its place.
        new: Value,
    },
}

/// State of an in-flight incremental merge: the frozen deltas being folded
/// in, the new column under construction, and the cursors into the three
/// sorted runs.
struct MergeState {
    /// The sidecar captured when the merge started; still consulted by
    /// queries (the old base remains the answering structure until the
    /// swap).
    frozen: DeltaSidecar,
    /// The merged live values accumulated so far, in value order.
    out: Vec<Value>,
    /// Base rows consumed.
    consumed: usize,
    /// Frozen inserts copied.
    inserted: usize,
    /// Frozen tombstones matched. Every one has its victim in the base.
    deleted: usize,
}

impl MergeState {
    fn start(frozen: DeltaSidecar, base: &Column) -> Self {
        let capacity =
            (base.len() + frozen.inserts().len()).saturating_sub(frozen.tombstones().len());
        MergeState {
            frozen,
            out: Vec::with_capacity(capacity),
            consumed: 0,
            inserted: 0,
            deleted: 0,
        }
    }

    /// Merges the base with the frozen inserts in value order, dropping
    /// one base row per frozen tombstone, consuming up to `ops` base rows
    /// and frozen inserts. Returns `true` when the merge is complete.
    fn step(&mut self, base: &Column, ops: usize) -> bool {
        let mut budget = ops.max(1);
        let data = base.data();
        let (inserts, tombstones) = (self.frozen.inserts(), self.frozen.tombstones());
        while budget > 0 {
            let from_base = match (data.get(self.consumed), inserts.get(self.inserted)) {
                (Some(v), Some(i)) => v <= i,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if !from_base {
                self.out.push(inserts[self.inserted]);
                self.inserted += 1;
            } else if tombstones.get(self.deleted) == Some(&data[self.consumed]) {
                self.consumed += 1;
                self.deleted += 1;
            } else {
                self.out.push(data[self.consumed]);
                self.consumed += 1;
            }
            budget -= 1;
        }
        self.consumed == data.len() && self.inserted == inserts.len()
    }
}

/// Where the index is in its life.
enum Stage {
    /// Creation and refinement: the algorithm's. The base column is the
    /// unsorted one the index was built over, and writes wait in the
    /// sidecar.
    Sorting(Sorting),
    /// Consolidation and converged, the same for every algorithm, over a
    /// sorted base column — and, while one runs, the merge folding the
    /// sidecar into that column.
    Sorted {
        tail: Consolidation,
        merge: Option<MergeState>,
    },
}

impl Stage {
    fn sorted(column: Arc<Column>) -> Self {
        Stage::Sorted {
            tail: Consolidation::new(column, DEFAULT_FANOUT),
            merge: None,
        }
    }
}

/// A progressive index over a single integer column: the lifecycle shared
/// by all four algorithms, running the creation and refinement steps of
/// the [`Algorithm`] it holds, plus a pending-delta sidecar and the
/// incremental merge that folds it in. See the [module docs](self) for the
/// design.
pub struct MutableIndex {
    algorithm: Algorithm,
    /// The base column: the one the index was built over until its values
    /// are sorted; the sorted one, and the only copy of the values,
    /// afterwards (same values, same min/max). Never mutated; a completed
    /// merge replaces it.
    column: Arc<Column>,
    budget: BudgetController,
    model: CostModel,
    stage: Stage,
    /// Mutations not yet part of any merge.
    pending: DeltaSidecar,
    /// Total merges completed (instrumentation: each one built a fresh
    /// base column and started the index over at consolidation).
    merges_completed: u64,
    /// Optional observability sink: refinement steps, δ·N bytes moved,
    /// merge steps and cost-model error. `None` records (and costs)
    /// nothing.
    metrics: Option<Arc<IndexMetrics>>,
}

impl MutableIndex {
    /// Creates a mutable index over `column`, running `algorithm` with the
    /// given per-query budget `policy`.
    pub fn new(column: Arc<Column>, algorithm: Algorithm, policy: BudgetPolicy) -> Self {
        Self::with_constants(column, algorithm, policy, CostConstants::synthetic())
    }

    /// [`MutableIndex::new`] with explicit cost-model constants; what
    /// [`Algorithm::build_with_constants`] boxes.
    pub(crate) fn with_constants(
        column: Arc<Column>,
        algorithm: Algorithm,
        policy: BudgetPolicy,
        constants: CostConstants,
    ) -> Self {
        MutableIndex {
            algorithm,
            budget: BudgetController::new(policy),
            model: CostModel::new(constants, column.len()),
            // A sorted column has nothing to sort: born at consolidation.
            stage: if column.is_sorted() {
                Stage::sorted(Arc::clone(&column))
            } else {
                Stage::Sorting(Sorting::start(algorithm, &column))
            },
            column,
            pending: DeltaSidecar::new(),
            merges_completed: 0,
            metrics: None,
        }
    }

    /// Reassembles a mutable index from persisted parts: the immutable
    /// base column plus a pending-delta sidecar (the pair
    /// [`MutableIndex::snapshot_parts`] captures). Indexing progress is
    /// deliberately not persisted, only logical state: the index restarts
    /// at the creation phase over a base column that is not sorted, and at
    /// consolidation (a tree build) over one that is — the base a
    /// converged index captured. The sidecar's mutations are pending
    /// again, exactly as after the equivalent live `apply` calls.
    pub fn from_parts(
        column: Arc<Column>,
        sidecar: DeltaSidecar,
        algorithm: Algorithm,
        policy: BudgetPolicy,
    ) -> Self {
        MutableIndex {
            pending: sidecar,
            ..Self::new(column, algorithm, policy)
        }
    }

    /// Captures the index's logical state as persistable parts: the base
    /// column (shared, never mutated) and one flattened sidecar holding
    /// every not-yet-merged mutation — an in-flight merge's frozen deltas
    /// composed with the fresh pending sidecar. Feeding the pair back
    /// through [`MutableIndex::from_parts`] yields an index answering
    /// every query identically.
    pub fn snapshot_parts(&self) -> (Arc<Column>, DeltaSidecar) {
        let mut sidecar = self
            .merge()
            .map_or_else(DeltaSidecar::new, |m| m.frozen.clone());
        sidecar.compose(&self.pending);
        (Arc::clone(&self.column), sidecar)
    }

    /// Attaches (or detaches) an observability sink. See
    /// [`crate::metrics::IndexMetrics`]; the engine shares one sink per
    /// column across that column's shards.
    pub fn set_metrics(&mut self, metrics: Option<Arc<IndexMetrics>>) {
        self.metrics = metrics;
    }

    /// The in-flight merge: one exists only in the sorted stage.
    fn merge(&self) -> Option<&MergeState> {
        match &self.stage {
            Stage::Sorted { merge, .. } => merge.as_ref(),
            Stage::Sorting(_) => None,
        }
    }

    /// Number of live rows: base column minus tombstones plus pending
    /// inserts (frozen and fresh).
    pub fn live_rows(&self) -> usize {
        let frozen_net = self.merge().map_or(0, |m| m.frozen.net_rows());
        let net = self.column.len() as i64 + frozen_net + self.pending.net_rows();
        debug_assert!(net >= 0, "live row count went negative");
        net.max(0) as usize
    }

    /// `true` while mutations are pending (in the fresh sidecar or an
    /// in-flight merge) — i.e. the base column does not yet reflect every
    /// applied mutation.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty() || self.merge().is_some()
    }

    /// Number of completed merges. Each rebuilt the base column, sorted,
    /// and started the index over it at consolidation.
    pub fn merges_completed(&self) -> u64 {
        self.merges_completed
    }

    /// `true` once the index has converged **and** no deltas are pending:
    /// the terminal, maintenance-free state.
    pub fn is_converged(&self) -> bool {
        self.status().converged
    }

    /// One step of the lifecycle over the base column alone: asks the
    /// budget for this query's δ, spends it on the current stage, and
    /// hands the array over to the consolidation tail on the step that
    /// sorts it.
    fn step_base(&mut self, low: Value, high: Value) -> QueryResult {
        let sorting = match &mut self.stage {
            Stage::Sorting(sorting) => sorting,
            Stage::Sorted { tail, .. } => {
                let delta = tail.delta(&self.model, &mut self.budget);
                return tail.query(&self.model, low, high, delta);
            }
        };
        let (phase, _) = sorting.progress(self.column.len());
        let delta = self.budget.delta_for_query(sorting.unit_cost(&self.model));
        let step = sorting.step(&self.column, &self.model, low, high, delta);
        if let Some(sorted) = sorting.take_sorted() {
            // The hand-over: the sorted array is the base from here on, and
            // this index's handle on the unsorted column drops.
            self.column = Arc::new(Column::from_sorted_vec(sorted));
            self.stage = Stage::sorted(Arc::clone(&self.column));
        }
        QueryResult {
            sum: step.answer.sum,
            count: step.answer.count,
            phase,
            delta,
            predicted_cost: Some(step.predicted),
            indexing_ops: step.ops,
            elements_scanned: step.scanned,
        }
    }

    /// [`MutableIndex::step_base`] — a query's, a delete's validating
    /// lookup or maintenance's empty query — observed like any other
    /// refinement step.
    fn step(&mut self, low: Value, high: Value) -> QueryResult {
        // The cost-model error clock is feature-gated (the condition
        // const-folds away with `obs` off); the step / bytes counters
        // derive from the result and are not.
        let start = (pi_obs::ENABLED && self.metrics.is_some()).then(std::time::Instant::now);
        let result = self.step_base(low, high);
        if let Some(metrics) = &self.metrics {
            metrics.observe_query(&result);
            if let Some(start) = start {
                metrics.observe_cost_error(result.predicted_cost, start.elapsed());
            }
        }
        result
    }

    /// Live occurrences of exactly `v`, across base and deltas. The point
    /// lookup doubles as a budgeted slice of indexing work.
    fn live_count_of(&mut self, v: Value) -> i64 {
        let in_base = self.step(v, v).count as i64;
        let frozen = self.merge().map_or(0, |m| m.frozen.net_count_of(v));
        in_base + frozen + self.pending.net_count_of(v)
    }

    /// Applies one mutation. Returns whether it took effect (inserts
    /// always do; deletes and updates only when a live victim exists).
    pub fn apply(&mut self, mutation: &Mutation) -> bool {
        let applied = match *mutation {
            Mutation::Insert(v) => {
                self.pending.insert(v);
                true
            }
            Mutation::Delete(v) => self.delete_one(v),
            Mutation::Update { old, new } => {
                if self.delete_one(old) {
                    self.pending.insert(new);
                    true
                } else {
                    false
                }
            }
        };
        if applied {
            self.maybe_start_merge();
        }
        applied
    }

    fn delete_one(&mut self, v: Value) -> bool {
        // Cheap path: consume a pending insert of the same value.
        if self.pending.cancel_insert(v) {
            return true;
        }
        if self.live_count_of(v) > 0 {
            self.pending.add_tombstone(v);
            true
        } else {
            false
        }
    }

    /// Starts an incremental merge once the sidecar has outgrown
    /// [`MERGE_FRACTION`] of the live rows.
    fn maybe_start_merge(&mut self) {
        let threshold = (self.live_rows() as f64 * MERGE_FRACTION).ceil() as usize;
        if self.pending.len() >= MERGE_MIN_PENDING.max(threshold) {
            self.start_merge();
        }
    }

    /// Freezes the pending sidecar into a merge, when the stage has room
    /// for one: the base is sorted and no merge is in flight. Otherwise the
    /// writes wait in the sidecar.
    fn start_merge(&mut self) {
        if let Stage::Sorted {
            merge: merge @ None,
            ..
        } = &mut self.stage
        {
            let frozen = std::mem::take(&mut self.pending);
            *merge = Some(MergeState::start(frozen, &self.column));
        }
    }

    /// Advances an in-flight merge by one budgeted step of [`MERGE_DELTA`]
    /// of the merged column. On completion the merged column is the base,
    /// on a fresh budget and cost model with the same policy and constants.
    /// Returns whether a merge was advanced.
    fn advance_merge(&mut self) -> bool {
        let Stage::Sorted {
            merge: Some(merge), ..
        } = &mut self.stage
        else {
            return false;
        };
        let total = self.column.len() + merge.frozen.inserts().len();
        let ops = ((MERGE_DELTA * total as f64).ceil() as usize).max(1);
        let out_before = merge.out.len();
        let finished = merge.step(&self.column, ops);
        if let Some(metrics) = &self.metrics {
            metrics.observe_merge_step(merge.out.len() - out_before);
        }
        if finished {
            // The merged column is sorted: the index starts over at
            // consolidation, and the old base and frozen deltas drop.
            self.column = Arc::new(Column::from_sorted_vec(std::mem::take(&mut merge.out)));
            self.budget = BudgetController::new(self.budget.policy());
            self.model = CostModel::new(*self.model.constants(), self.column.len());
            self.stage = Stage::sorted(Arc::clone(&self.column));
            self.merges_completed += 1;
        }
        true
    }

    /// Performs one budgeted slice of work towards the terminal state:
    /// an in-flight merge step, else a lifecycle step (the paper's
    /// empty-query maintenance), else — when the index has converged with
    /// deltas pending — starting and stepping a merge. Returns `false`
    /// only from the terminal state ([`MutableIndex::is_converged`]).
    pub fn advance(&mut self) -> bool {
        match &self.stage {
            Stage::Sorted { merge: Some(_), .. } => self.advance_merge(),
            Stage::Sorted { tail, .. } if tail.status().converged => {
                if self.pending.is_empty() {
                    return false;
                }
                self.start_merge();
                self.advance_merge()
            }
            _ => {
                // The paper's empty-query maintenance: a pure δ-slice of
                // indexing work.
                self.step(1, 0);
                true
            }
        }
    }

    /// Answers `[low, high]` over the **live** multiset, performing the
    /// query's budgeted share of indexing work (a lifecycle step, plus one
    /// merge step when a merge is in flight).
    pub fn query(&mut self, low: Value, high: Value) -> QueryResult {
        let base = self.step(low, high);
        let mut composed = base.scan_result();
        if let Some(merge) = self.merge() {
            composed = merge.frozen.scan(low, high).apply_to(composed);
        }
        composed = self.pending.scan(low, high).apply_to(composed);
        // Queries drive the merge forward too: indexing work — including
        // delta folding — happens as a query side effect, per the paper's
        // model.
        self.advance_merge();
        QueryResult {
            sum: composed.sum,
            count: composed.count,
            ..base
        }
    }

    /// Progress snapshot. The phase and progress come from the sorting
    /// state before the hand-over and from the consolidation tail after
    /// it; `converged` reports the composite state (tree built *and* no
    /// pending deltas), so a mutated converged index correctly re-enters
    /// maintenance.
    pub fn status(&self) -> IndexStatus {
        match &self.stage {
            Stage::Sorting(sorting) => {
                let (phase, progress) = sorting.progress(self.column.len());
                IndexStatus {
                    phase,
                    fraction_indexed: if phase == Phase::Creation {
                        progress
                    } else {
                        1.0
                    },
                    phase_progress: progress,
                    converged: false,
                }
            }
            Stage::Sorted { tail, merge } => {
                let tail = tail.status();
                IndexStatus {
                    converged: tail.converged && merge.is_none() && self.pending.is_empty(),
                    ..tail
                }
            }
        }
    }

    /// Materialises the live multiset — [`MutableIndex::snapshot_parts`]
    /// folded together. Sorted when the base is (one whole merge);
    /// otherwise the base rows in column order, one occurrence dropped
    /// per tombstone, followed by the pending inserts. Used for digest
    /// trees and re-sharding (boundary re-balancing) at the engine layer.
    pub fn live_values(&self) -> Vec<Value> {
        let (base, sidecar) = self.snapshot_parts();
        if let Stage::Sorted { .. } = self.stage {
            let mut merge = MergeState::start(sidecar, &base);
            let finished = merge.step(&base, usize::MAX);
            debug_assert!(finished && merge.out.len() == self.live_rows());
            return merge.out;
        }
        let mut tombstones: HashMap<Value, u64> = HashMap::new();
        for &t in sidecar.tombstones() {
            *tombstones.entry(t).or_insert(0) += 1;
        }
        let mut live: Vec<Value> = Vec::with_capacity(self.live_rows());
        for &v in base.data() {
            match tombstones.get_mut(&v) {
                Some(n) if *n > 0 => *n -= 1,
                _ => live.push(v),
            }
        }
        live.extend_from_slice(sidecar.inserts());
        live
    }

    /// Exact sum and count over all live rows, without a lifecycle step
    /// (used by the engine to maintain per-shard digests).
    pub fn live_total(&self) -> ScanResult {
        let mut sum = self.column.total_sum() as i128;
        let mut count = self.column.len() as i64;
        if let Some(merge) = self.merge() {
            sum += merge.frozen.net_sum();
            count += merge.frozen.net_rows();
        }
        sum += self.pending.net_sum();
        count += self.pending.net_rows();
        debug_assert!(sum >= 0 && count >= 0, "live totals went negative");
        ScanResult {
            sum: sum.max(0) as u128,
            count: count.max(0) as u64,
        }
    }
}

/// The one progressive index behind the interface it shares with
/// pi-cracking's baselines; every method is the inherent one.
impl RangeIndex for MutableIndex {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        MutableIndex::query(self, low, high)
    }

    fn status(&self) -> IndexStatus {
        MutableIndex::status(self)
    }

    fn name(&self) -> &'static str {
        self.algorithm.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{self, random_column, TestRng};
    use pi_storage::scan::scan_range_sum;

    /// Oracle: the live multiset as a plain vector.
    struct Oracle {
        live: Vec<Value>,
    }

    impl Oracle {
        fn new(data: &[Value]) -> Self {
            Oracle {
                live: data.to_vec(),
            }
        }

        fn apply(&mut self, m: &Mutation) -> bool {
            match *m {
                Mutation::Insert(v) => {
                    self.live.push(v);
                    true
                }
                Mutation::Delete(v) => {
                    if let Some(at) = self.live.iter().position(|&x| x == v) {
                        self.live.remove(at);
                        true
                    } else {
                        false
                    }
                }
                Mutation::Update { old, new } => {
                    if self.apply(&Mutation::Delete(old)) {
                        self.live.push(new);
                        true
                    } else {
                        false
                    }
                }
            }
        }

        fn query(&self, low: Value, high: Value) -> ScanResult {
            scan_range_sum(&self.live, low, high)
        }
    }

    fn fresh(n: usize, domain: u64, algorithm: Algorithm) -> (MutableIndex, Oracle) {
        let column = Arc::new(testing::random_column(n, domain, 21));
        let oracle = Oracle::new(column.data());
        let index = MutableIndex::new(column, algorithm, BudgetPolicy::FixedDelta(0.25));
        (index, oracle)
    }

    #[test]
    fn mutations_stay_exact_through_all_phases_for_every_algorithm() {
        for algorithm in Algorithm::ALL {
            let (mut index, mut oracle) = fresh(4_000, 10_000, algorithm);
            let mut rng = testing::TestRng::new(7);
            let mut step = 0u32;
            loop {
                // Mutations flow for the first 60 rounds — enough to hit
                // every phase (each merge rebuilds the tree, so an
                // unbounded write stream would defer convergence forever).
                if step < 60 {
                    for _ in 0..3 {
                        let m = match rng.below(3) {
                            0 => Mutation::Insert(rng.below(10_000)),
                            1 => Mutation::Delete(rng.below(10_000)),
                            _ => Mutation::Update {
                                old: rng.below(10_000),
                                new: rng.below(10_000),
                            },
                        };
                        assert_eq!(index.apply(&m), oracle.apply(&m), "{algorithm}: {m:?}");
                    }
                }
                let low = rng.below(10_000);
                let high = low + rng.below(2_000);
                assert_eq!(
                    index.query(low, high).scan_result(),
                    oracle.query(low, high),
                    "{algorithm} mismatch at step {step} for [{low}, {high}]"
                );
                if index.is_converged() {
                    break;
                }
                index.advance();
                step += 1;
                assert!(step < 100_000, "{algorithm} failed to converge");
            }
            // Converged and delta-free: still exact.
            assert_eq!(
                index.query(0, 20_000).scan_result(),
                oracle.query(0, 20_000)
            );
        }
    }

    #[test]
    fn mutated_converged_index_re_enters_maintenance() {
        for algorithm in Algorithm::ALL {
            let (mut index, mut oracle) = fresh(2_000, 5_000, algorithm);
            while index.advance() {}
            assert!(index.is_converged(), "{algorithm}");
            let m = Mutation::Insert(1_234);
            assert!(index.apply(&m));
            oracle.apply(&m);
            assert!(
                !index.is_converged(),
                "{algorithm}: pending delta must unconverge"
            );
            assert_eq!(index.query(0, 5_000).scan_result(), oracle.query(0, 5_000));
            while index.advance() {}
            assert!(index.is_converged() && !index.has_pending(), "{algorithm}");
            assert!(
                index.merges_completed() >= 1,
                "{algorithm}: merge must have run"
            );
            assert_eq!(index.query(0, 5_000).scan_result(), oracle.query(0, 5_000));
        }
    }

    /// A completed merge starts the index over with the policy it had:
    /// over a merged column of the same length, the first query prices
    /// its δ exactly as the first consolidation query before the merge.
    #[test]
    fn a_merge_restarts_the_index_with_its_budget_policy() {
        let model = CostModel::new(CostConstants::synthetic(), 2_000);
        let policies = [
            BudgetPolicy::FixedDelta(0.25),
            BudgetPolicy::adaptive_scan_fraction(&model, 0.01),
        ];
        for algorithm in Algorithm::ALL {
            for policy in policies {
                let context = format!("{algorithm}, {policy:?}");
                let column = Arc::new(testing::random_column(2_000, 4_000, 21));
                let mut index = MutableIndex::new(Arc::clone(&column), algorithm, policy);
                let before = loop {
                    let result = index.query(0, 4_000);
                    if result.phase == Phase::Consolidation {
                        break result.delta;
                    }
                };
                while index.advance() {}
                // Updates keep the row count, and with it the price.
                for &v in &column.data()[..10] {
                    assert!(index.apply(&Mutation::Update { old: v, new: v + 1 }));
                }
                while index.merges_completed() == 0 {
                    index.advance();
                }
                let after = index.query(0, 4_000);
                assert_eq!(after.phase, Phase::Consolidation, "{context}");
                assert_eq!(after.delta, before, "{context}");
            }
        }
    }

    #[test]
    fn delete_of_absent_value_is_rejected() {
        let (mut index, _) = fresh(100, 50, Algorithm::Quicksort);
        assert!(!index.apply(&Mutation::Delete(1_000)));
        assert!(!index.apply(&Mutation::Update { old: 999, new: 1 }));
        // Insert then delete round-trips through the sidecar without a
        // tombstone.
        assert!(index.apply(&Mutation::Insert(1_000)));
        assert!(index.apply(&Mutation::Delete(1_000)));
        assert!(!index.apply(&Mutation::Delete(1_000)));
    }

    #[test]
    fn empty_column_grows_from_inserts() {
        let column = Arc::new(Column::from_vec(vec![]));
        let mut index =
            MutableIndex::new(column, Algorithm::Bucketsort, BudgetPolicy::FixedDelta(0.5));
        assert!(index.is_converged());
        for v in [5u64, 2, 9, 2] {
            assert!(index.apply(&Mutation::Insert(v)));
        }
        assert_eq!(index.live_rows(), 4);
        let r = index.query(2, 9);
        assert_eq!((r.sum, r.count), (18, 4));
        while index.advance() {}
        assert!(index.is_converged());
        let r = index.query(2, 5);
        assert_eq!((r.sum, r.count), (9, 3));
    }

    #[test]
    fn merge_is_incremental_and_exact_mid_flight() {
        let (mut index, mut oracle) = fresh(5_000, 8_000, Algorithm::Quicksort);
        // Converge first so the merge is the only work left.
        while index.advance() {}
        for i in 0..600u64 {
            let m = Mutation::Insert(i * 13 % 8_000);
            index.apply(&m);
            oracle.apply(&m);
        }
        // A merge has started (600 > max(256, 0.1 * live)); answers stay
        // exact across every incremental merge step until terminal.
        let mut steps = 0;
        while !index.is_converged() {
            assert_eq!(
                index.query(100, 4_000).scan_result(),
                oracle.query(100, 4_000),
                "mismatch mid-merge at step {steps}"
            );
            index.advance();
            steps += 1;
            assert!(steps < 100_000);
        }
        assert!(index.merges_completed() >= 1);
        assert_eq!(index.live_rows(), oracle.live.len());
    }

    #[test]
    fn snapshot_parts_round_trip_through_every_phase() {
        for algorithm in Algorithm::ALL {
            let (mut index, mut oracle) = fresh(2_000, 4_000, algorithm);
            let mut rng = testing::TestRng::new(11);
            for step in 0..120 {
                let m = match rng.below(3) {
                    0 => Mutation::Insert(rng.below(4_000)),
                    1 => Mutation::Delete(rng.below(4_000)),
                    _ => Mutation::Update {
                        old: rng.below(4_000),
                        new: rng.below(4_000),
                    },
                };
                assert_eq!(index.apply(&m), oracle.apply(&m));
                index.advance();
                // Snapshot mid-flight (including mid-merge) and rebuild: the
                // restored index must answer identically.
                if step % 17 == 0 {
                    let (base, sidecar) = index.snapshot_parts();
                    let mut restored = MutableIndex::from_parts(
                        base,
                        sidecar,
                        algorithm,
                        BudgetPolicy::FixedDelta(0.25),
                    );
                    let low = rng.below(4_000);
                    let high = low + rng.below(1_000);
                    assert_eq!(
                        restored.query(low, high).scan_result(),
                        oracle.query(low, high),
                        "{algorithm} restored mismatch at step {step}"
                    );
                    assert_eq!(restored.live_total(), index.live_total());
                }
            }
        }
    }

    #[test]
    fn live_values_and_totals_match_oracle() {
        let (mut index, mut oracle) = fresh(1_000, 2_000, Algorithm::RadixsortMsd);
        let mut rng = testing::TestRng::new(3);
        for _ in 0..200 {
            let m = match rng.below(2) {
                0 => Mutation::Insert(rng.below(2_000)),
                _ => Mutation::Delete(rng.below(2_000)),
            };
            assert_eq!(index.apply(&m), oracle.apply(&m));
        }
        let mut live = index.live_values();
        let mut expected = oracle.live.clone();
        live.sort_unstable();
        expected.sort_unstable();
        assert_eq!(live, expected);
        assert_eq!(index.live_total(), oracle.query(0, Value::MAX));
        assert_eq!(index.live_rows(), oracle.live.len());
    }

    #[test]
    fn live_values_is_the_live_multiset_in_every_stage() {
        for algorithm in Algorithm::ALL {
            let (mut index, mut oracle) = fresh(2_000, 4_000, algorithm);
            let mut rng = testing::TestRng::new(5);
            // Sorting stage, sorted stage, deltas pending, merge in flight.
            let mut seen = [false; 4];
            for round in 0..400 {
                let writes = match round % 4 {
                    // An insert and its delete: a write that leaves the
                    // sidecar empty.
                    0 => {
                        let v = rng.below(4_000);
                        vec![Mutation::Insert(v), Mutation::Delete(v)]
                    }
                    1 if round < 200 => vec![match rng.below(3) {
                        0 => Mutation::Insert(rng.below(4_000)),
                        1 => Mutation::Delete(rng.below(4_000)),
                        _ => Mutation::Update {
                            old: rng.below(4_000),
                            new: rng.below(4_000),
                        },
                    }],
                    _ => Vec::new(),
                };
                for m in &writes {
                    assert_eq!(index.apply(m), oracle.apply(m), "{algorithm}: {m:?}");
                }
                let mut live = index.live_values();
                let sorted_stage = matches!(index.stage, Stage::Sorted { .. });
                let context = format!("{algorithm}, round {round}");
                if sorted_stage {
                    assert!(live.windows(2).all(|w| w[0] <= w[1]), "{context}");
                }
                let mut want = oracle.live.clone();
                live.sort_unstable();
                want.sort_unstable();
                assert_eq!(live, want, "{context}");
                seen[0] |= !sorted_stage;
                seen[1] |= sorted_stage;
                seen[2] |= !index.pending.is_empty();
                seen[3] |= index.merge().is_some();
                index.advance();
            }
            assert_eq!(seen, [true; 4], "{algorithm}");
        }
    }

    #[test]
    fn a_delete_lookup_is_counted_as_refinement_work() {
        let registry = pi_obs::MetricsRegistry::new();
        let (mut index, oracle) = fresh(2_000, 4_000, Algorithm::Quicksort);
        index.set_metrics(Some(IndexMetrics::register(&registry, "m")));
        assert!(index.apply(&Mutation::Delete(oracle.live[0])));
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("core.m.refine_steps"), Some(1));
        assert!(snapshot.counter("core.m.bytes_moved").unwrap() > 0);
    }

    /// The comparison path and the engine run one index: boxed by
    /// [`Algorithm::build`] or built directly, it answers and reports
    /// identically on the same query stream until it converges.
    #[test]
    fn build_and_new_run_one_index() {
        let column = Arc::new(random_column(20_000, 1 << 30, 13));
        let model = CostModel::new(CostConstants::synthetic(), column.len());
        let policies = [
            BudgetPolicy::FixedDelta(0.25),
            BudgetPolicy::Adaptive(0.2 * model.t_scan()),
        ];
        for algorithm in Algorithm::ALL {
            for policy in policies {
                let mut boxed = algorithm.build(Arc::clone(&column), policy);
                let mut direct = MutableIndex::new(Arc::clone(&column), algorithm, policy);
                let mut rng = TestRng::new(17);
                let mut queries = 0;
                while !direct.is_converged() {
                    let context = format!("{algorithm}, {policy:?}, query {queries}");
                    let low = rng.below(1 << 30);
                    let high = low + (1 << 26);
                    assert_eq!(boxed.query(low, high), direct.query(low, high), "{context}");
                    assert_eq!(boxed.status(), direct.status(), "{context}");
                    queries += 1;
                    assert!(queries < 100_000, "{context}: no convergence");
                }
                assert!(boxed.is_converged(), "{algorithm}, {policy:?}");
            }
        }
    }

    /// The three readings of convergence — the inherent method, the
    /// [`RangeIndex`] one through a trait object, and the status — agree
    /// on a converged index that takes writes, before, during and after
    /// the merge that folds them in.
    #[test]
    fn every_reading_of_convergence_agrees_across_a_merge() {
        fn converged(index: &mut MutableIndex) -> bool {
            let inherent = index.is_converged();
            let status = index.status().converged;
            let index: &mut dyn RangeIndex = index;
            assert_eq!(index.is_converged(), inherent, "{}", index.name());
            assert_eq!(status, inherent, "{}", index.name());
            inherent
        }
        for algorithm in Algorithm::ALL {
            let (mut index, _) = fresh(2_000, 4_000, algorithm);
            while index.advance() {}
            assert!(converged(&mut index), "{algorithm}");
            for v in 0..10 {
                assert!(index.apply(&Mutation::Insert(v * 7)));
            }
            assert!(!converged(&mut index), "{algorithm}: writes pending");
            index.advance();
            assert!(index.has_pending() && index.merges_completed() == 0);
            assert!(!converged(&mut index), "{algorithm}: merge in flight");
            while index.merges_completed() == 0 {
                assert!(!converged(&mut index), "{algorithm}: merge in flight");
                index.advance();
            }
            assert!(!converged(&mut index), "{algorithm}: tree to rebuild");
            while index.advance() {}
            assert!(converged(&mut index), "{algorithm}: after the merge");
        }
    }
}
