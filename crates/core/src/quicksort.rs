//! Progressive Quicksort (§3.1 of the paper).
//!
//! The algorithm progresses through the three canonical phases:
//!
//! * **Creation** — an uninitialised array of the same size as the base
//!   column is allocated and a pivot is chosen as the average of the
//!   column's smallest and largest values. Each query copies another
//!   `δ · N` elements from the base column into the working array, writing
//!   values ≤ pivot at the front and values > pivot at the back. Queries
//!   are answered by scanning the relevant halves of the working array
//!   plus the not-yet-consumed tail of the base column.
//! * **Refinement** — the base column is no longer needed; the two halves
//!   are recursively partitioned in place with a budget of `δ · N` swap
//!   operations per query, maintained in a binary tree of pivots
//!   ([`IncrementalSorter`]). Pieces that fit in the L1 cache are sorted
//!   outright. Lookups use the pivot tree to touch only candidate
//!   sections.
//! * **Consolidation** — the now fully sorted array is topped with a
//!   B+-tree by copying every `β`-th element one level up, `δ · N_copy`
//!   copies per query. Until the tree is finished, queries binary-search
//!   the sorted array; afterwards they use the tree and the index is
//!   *converged*.

use std::sync::Arc;

use pi_storage::btree::DEFAULT_FANOUT;
use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{Column, Value};

use crate::budget::{BudgetController, BudgetPolicy};
use crate::consolidation::Consolidation;
use crate::cost_model::{CostConstants, CostModel};
use crate::index::RangeIndex;
use crate::result::{IndexStatus, Phase, QueryResult};
use crate::sorter::{IncrementalSorter, DEFAULT_SMALL_NODE_ELEMENTS};

/// Tuning parameters for [`ProgressiveQuicksort`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuicksortConfig {
    /// Node size (in elements) below which refinement sorts a piece
    /// outright instead of partitioning it further.
    pub small_node_elements: usize,
    /// Fan-out β of the consolidation-phase B+-tree.
    pub btree_fanout: usize,
}

impl Default for QuicksortConfig {
    fn default() -> Self {
        QuicksortConfig {
            small_node_elements: DEFAULT_SMALL_NODE_ELEMENTS,
            btree_fanout: DEFAULT_FANOUT,
        }
    }
}

/// Phase-specific state of the index.
#[derive(Debug)]
enum State {
    Creation {
        pivot: Value,
        /// Next write position for values ≤ pivot (grows from the front).
        write_lo: usize,
        /// Start of the high (> pivot) region (shrinks from the back).
        high_start: usize,
        /// Number of base-column elements consumed so far.
        consumed: usize,
    },
    Refinement {
        sorter: IncrementalSorter,
    },
    /// Consolidation and converged phases; owns the working array.
    Sorted(Consolidation),
}

/// Progressive Quicksort index over a single integer column.
pub struct ProgressiveQuicksort {
    column: Arc<Column>,
    /// The working array ("the index"): during creation it is filled from
    /// both ends; during refinement it holds all N elements; once sorted
    /// it moves into [`State::Sorted`].
    index: Vec<Value>,
    state: State,
    budget: BudgetController,
    model: CostModel,
    config: QuicksortConfig,
    queries_executed: u64,
}

impl ProgressiveQuicksort {
    /// Creates a Progressive Quicksort index with default configuration
    /// and host-independent synthetic cost constants.
    ///
    /// Use [`ProgressiveQuicksort::with_constants`] with
    /// [`CostConstants::calibrate`] for time-budgeted production use.
    pub fn new(column: Arc<Column>, policy: BudgetPolicy) -> Self {
        Self::with_constants(column, policy, CostConstants::synthetic())
    }

    /// Creates the index with explicit cost constants.
    pub fn with_constants(
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
    ) -> Self {
        Self::with_config(column, policy, constants, QuicksortConfig::default())
    }

    /// Creates the index with explicit cost constants and tuning knobs.
    pub fn with_config(
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
        config: QuicksortConfig,
    ) -> Self {
        let n = column.len();
        let model = CostModel::new(constants, n);
        let pivot = midpoint(column.min(), column.max());
        // An empty column has nothing to index: start converged.
        let state = if n == 0 {
            State::Sorted(Consolidation::new(Vec::new(), config.btree_fanout))
        } else {
            State::Creation {
                pivot,
                write_lo: 0,
                high_start: n,
                consumed: 0,
            }
        };
        ProgressiveQuicksort {
            index: vec![0; n],
            state,
            column,
            budget: BudgetController::new(policy),
            model,
            config,
            queries_executed: 0,
        }
    }

    /// The cost model used by this index (for experiment instrumentation).
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Number of queries executed so far.
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed
    }

    /// Current δ that would be used for a query in the current phase.
    fn current_delta(&mut self) -> f64 {
        let unit_cost = match &self.state {
            State::Creation { .. } => self.model.t_pivot(),
            State::Refinement { .. } => self.model.t_swap(),
            State::Sorted(tail) => return tail.delta(&self.model, &mut self.budget),
        };
        self.budget.delta_for_query(unit_cost)
    }

    fn n(&self) -> usize {
        self.column.len()
    }

    /// Executes one creation-phase query.
    fn query_creation(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let State::Creation {
            pivot,
            write_lo,
            high_start,
            consumed,
        } = &mut self.state
        else {
            unreachable!("query_creation called outside the creation phase");
        };
        let pivot = *pivot;

        // 1. Index lookup over the already indexed fraction. The pivot
        //    tells us which halves can contain qualifying values.
        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        if low <= pivot {
            result = result.merge(scan_range_sum(&self.index[..*write_lo], low, high));
            scanned += *write_lo as u64;
        }
        if high > pivot {
            result = result.merge(scan_range_sum(&self.index[*high_start..], low, high));
            scanned += (n - *high_start) as u64;
        }
        let alpha = scanned as f64 / n.max(1) as f64;
        let rho = *consumed as f64 / n.max(1) as f64;

        // 2. Scan the part of the base column no earlier query has moved.
        let rest = &self.column.data()[*consumed..];
        result = result.merge(scan_range_sum(rest, low, high));
        scanned += rest.len() as u64;

        // 3. Expand the index by its first δ·N elements with the paper's
        //    predicated write: store at both heads, advance the one the
        //    pivot picks. The heads never cross while an element is left.
        let todo = ((delta * n as f64).ceil() as usize).min(rest.len());
        for &value in &rest[..todo] {
            let below = (value <= pivot) as usize;
            self.index[*write_lo] = value;
            self.index[*high_start - 1] = value;
            *write_lo += below;
            *high_start -= 1 - below;
        }
        *consumed += todo;

        let predicted = self.model.quicksort_creation(rho, alpha, delta);

        // Phase transition: all data has been absorbed into the index.
        if *consumed == n {
            let boundary = *write_lo;
            debug_assert_eq!(boundary, *high_start);
            let sorter = IncrementalSorter::with_initial_split(
                0,
                n,
                self.column.min(),
                self.column.max(),
                pivot,
                boundary,
                self.config.small_node_elements,
            );
            self.state = State::Refinement { sorter };
            self.maybe_finish_refinement();
        }

        QueryResult {
            sum: result.sum,
            count: result.count,
            phase: Phase::Creation,
            delta,
            predicted_cost: Some(predicted),
            indexing_ops: todo as u64,
            elements_scanned: scanned,
        }
    }

    /// Executes one refinement-phase query.
    fn query_refinement(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let State::Refinement { sorter } = &mut self.state else {
            unreachable!("query_refinement called outside the refinement phase");
        };

        // Index lookup over the partially refined array.
        let (result, scanned) = sorter.query(&self.index, low, high);
        let alpha = scanned as f64 / n.max(1) as f64;
        let height = sorter.height();

        // Budgeted refinement work, focused on the queried value range.
        let ops = ((delta * n as f64).ceil() as usize).max(1);
        let focus = if low <= high { Some((low, high)) } else { None };
        let performed = sorter.refine(&mut self.index, ops, focus);

        let predicted = self.model.quicksort_refinement(height, alpha, delta);
        self.maybe_finish_refinement();

        QueryResult {
            sum: result.sum,
            count: result.count,
            phase: Phase::Refinement,
            delta,
            predicted_cost: Some(predicted),
            indexing_ops: performed as u64,
            elements_scanned: scanned,
        }
    }

    /// Moves from refinement to consolidation once the array is sorted.
    fn maybe_finish_refinement(&mut self) {
        let State::Refinement { sorter } = &self.state else {
            return;
        };
        if !sorter.is_sorted() {
            return;
        }
        debug_assert!(sorter.verify_sorted(&self.index));
        let sorted = std::mem::take(&mut self.index);
        self.state = State::Sorted(Consolidation::new(sorted, self.config.btree_fanout));
    }

    /// Read access to the working array (exposed for tests and examples).
    pub fn working_array(&self) -> &[Value] {
        match &self.state {
            State::Sorted(tail) => tail.sorted(),
            _ => &self.index,
        }
    }
}

impl RangeIndex for ProgressiveQuicksort {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        self.queries_executed += 1;
        let delta = self.current_delta();
        match &mut self.state {
            State::Creation { .. } => self.query_creation(low, high, delta),
            State::Refinement { .. } => self.query_refinement(low, high, delta),
            State::Sorted(tail) => tail.query(&self.model, low, high, delta),
        }
    }

    fn status(&self) -> IndexStatus {
        let n = self.n().max(1) as f64;
        match &self.state {
            State::Creation { consumed, .. } => IndexStatus {
                phase: Phase::Creation,
                fraction_indexed: *consumed as f64 / n,
                phase_progress: *consumed as f64 / n,
                converged: false,
            },
            State::Refinement { sorter } => IndexStatus {
                phase: Phase::Refinement,
                fraction_indexed: 1.0,
                phase_progress: if sorter.is_sorted() { 1.0 } else { 0.0 },
                converged: false,
            },
            State::Sorted(tail) => tail.status(),
        }
    }

    fn name(&self) -> &'static str {
        "progressive-quicksort"
    }
}

/// Overflow-safe midpoint used for pivot selection ("the average value of
/// the smallest and largest value of the column").
fn midpoint(min: Value, max: Value) -> Value {
    ((min as u128 + max as u128) / 2) as Value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn first_query_is_correct_and_cheap_in_work() {
        let column = testing::random_column(100_000, 1_000_000, 1);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx = ProgressiveQuicksort::new(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
        let r = idx.query(100, 5_000);
        assert_eq!(r.scan_result(), reference.query(100, 5_000));
        assert_eq!(r.phase, Phase::Creation);
        // Only ~δ·N indexing operations may be performed.
        assert!(r.indexing_ops <= (0.1f64 * 100_000.0).ceil() as u64);
    }

    #[test]
    fn converges_and_stays_correct_throughout() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveQuicksort::new(
                    column,
                    BudgetPolicy::FixedDelta(0.25),
                ))
            },
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_with_tiny_delta() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveQuicksort::new(
                    column,
                    BudgetPolicy::FixedDelta(0.05),
                ))
            },
            20_000,
            100_000,
        );
    }

    #[test]
    fn converges_under_adaptive_budget() {
        let column = Arc::new(testing::random_column(30_000, 300_000, 7));
        let model = CostModel::new(CostConstants::synthetic(), column.len());
        let policy = BudgetPolicy::adaptive_scan_fraction(&model, 0.2);
        testing::assert_index_converges(
            move |column| {
                Box::new(ProgressiveQuicksort::with_constants(
                    column,
                    policy,
                    CostConstants::synthetic(),
                ))
            },
            30_000,
            300_000,
        );
        drop(column);
    }

    #[test]
    fn delta_one_finishes_creation_in_one_query() {
        let column = Arc::new(testing::random_column(10_000, 100_000, 3));
        let mut idx = ProgressiveQuicksort::new(column, BudgetPolicy::FixedDelta(1.0));
        let r = idx.query(0, 50_000);
        assert_eq!(r.phase, Phase::Creation);
        assert_eq!(r.indexing_ops, 10_000);
        assert!(idx.status().phase >= Phase::Refinement);
    }

    #[test]
    fn skewed_data_converges() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveQuicksort::new(
                    column,
                    BudgetPolicy::FixedDelta(0.25),
                ))
            },
            40_000,
            1_000, // heavy duplication: only 1000 distinct values
        );
    }

    #[test]
    fn empty_column_is_immediately_converged_per_query() {
        let column = Arc::new(Column::from_vec(vec![]));
        let mut idx = ProgressiveQuicksort::new(column, BudgetPolicy::FixedDelta(0.5));
        let r = idx.query(0, 10);
        assert_eq!(r.count, 0);
        assert_eq!(r.sum, 0);
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![7; 5_000]));
        let mut idx = ProgressiveQuicksort::new(column, BudgetPolicy::FixedDelta(0.5));
        for _ in 0..20 {
            let r = idx.query(7, 7);
            assert_eq!(r.count, 5_000);
        }
        assert!(idx.is_converged());
    }

    #[test]
    fn status_progresses_monotonically() {
        let column = Arc::new(testing::random_column(20_000, 200_000, 11));
        let mut idx = ProgressiveQuicksort::new(column, BudgetPolicy::FixedDelta(0.2));
        let mut last_phase = Phase::Creation;
        for i in 0..200 {
            idx.query((i * 37) % 200_000, (i * 37) % 200_000 + 5_000);
            let status = idx.status();
            assert!(status.phase >= last_phase, "phase regressed");
            last_phase = status.phase;
            if status.converged {
                break;
            }
        }
        assert!(idx.is_converged());
    }

    #[test]
    fn predicted_cost_is_reported_during_all_phases() {
        let column = Arc::new(testing::random_column(10_000, 100_000, 13));
        let mut idx = ProgressiveQuicksort::new(column, BudgetPolicy::FixedDelta(0.5));
        for _ in 0..50 {
            let r = idx.query(1_000, 90_000);
            assert!(r.predicted_cost.is_some());
            assert!(r.predicted_cost.unwrap() >= 0.0);
            if idx.is_converged() {
                break;
            }
        }
    }
}
