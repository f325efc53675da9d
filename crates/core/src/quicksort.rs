//! Progressive Quicksort (§3.1 of the paper).
//!
//! [`Algorithm::Quicksort`](crate::Algorithm::Quicksort) runs the
//! shared lifecycle (budget, cost model, hand-over to consolidation,
//! status) over this module's creation and refinement state, which is
//! only what §3.1 says:
//!
//! * **Creation** — an uninitialised array of the same size as the base
//!   column is allocated and a pivot is chosen as the average of the
//!   column's smallest and largest values. Each query copies another
//!   `δ · N` elements from the base column into the working array, writing
//!   values ≤ pivot at the front and values > pivot at the back. Queries
//!   are answered by scanning the relevant halves of the working array
//!   plus the not-yet-consumed tail of the base column.
//! * **Refinement** — the base column is no longer needed; the two halves
//!   are recursively partitioned in place, `δ · N` elements examined per
//!   query, maintained in a binary tree of pivots ([`IncrementalSorter`]).
//!   Pieces that fit in the L1 cache ([`DEFAULT_SMALL_NODE_ELEMENTS`]) are
//!   sorted outright, by radix passes over the piece's value range when
//!   that range is narrow. Lookups use the pivot tree to touch only
//!   candidate sections; the phase's progress is the share of elements in
//!   sorted pieces.
//!
//! Once the working array is sorted the lifecycle takes it: a B+-tree is
//! built over it, `δ · N_copy` copies per query, and the index converges.

use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{Column, Value};

use crate::cost_model::CostModel;
use crate::kernels::ScatterScratch;
use crate::lifecycle::Step;
use crate::result::Phase;
use crate::sorter::{midpoint, IncrementalSorter, DEFAULT_SMALL_NODE_ELEMENTS};

/// Phase-specific state of the strategy.
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
        /// Buffers of the sorter's leaf sorts.
        scratch: Box<ScatterScratch>,
    },
}

/// The creation and refinement steps of Progressive Quicksort.
#[derive(Debug)]
pub(crate) struct QuicksortStrategy {
    /// The working array ("the index"): during creation it is filled from
    /// both ends; during refinement it holds all N elements.
    index: Vec<Value>,
    state: State,
}

impl QuicksortStrategy {
    /// Executes one creation-phase query.
    fn creation_step(
        &mut self,
        column: &Column,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step {
        let n = column.len();
        let State::Creation {
            pivot,
            write_lo,
            high_start,
            consumed,
        } = &mut self.state
        else {
            unreachable!("creation_step called outside the creation phase");
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
        let alpha = scanned as f64 / n as f64;
        let rho = *consumed as f64 / n as f64;

        // 2. Scan the part of the base column no earlier query has moved.
        let rest = &column.data()[*consumed..];
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

        // Phase transition: all data has been absorbed into the index.
        if *consumed == n {
            let boundary = *write_lo;
            debug_assert_eq!(boundary, *high_start);
            self.state = State::Refinement {
                sorter: IncrementalSorter::with_initial_split(
                    0,
                    n,
                    column.min(),
                    column.max(),
                    pivot,
                    boundary,
                    DEFAULT_SMALL_NODE_ELEMENTS,
                ),
                scratch: Box::default(),
            };
        }

        Step {
            answer: result,
            scanned,
            ops: todo as u64,
            predicted: model.quicksort_creation(rho, alpha, delta),
        }
    }

    /// Executes one refinement-phase query.
    fn refinement_step(
        &mut self,
        n: usize,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step {
        let State::Refinement { sorter, scratch } = &mut self.state else {
            unreachable!("refinement_step called outside the refinement phase");
        };

        // Index lookup over the partially refined array.
        let (answer, scanned) = sorter.query(&self.index, low, high);
        let alpha = scanned as f64 / n as f64;
        let height = sorter.height();

        // Budgeted refinement work, focused on the queried value range.
        let ops = ((delta * n as f64).ceil() as usize).max(1);
        let focus = if low <= high { Some((low, high)) } else { None };
        let performed = sorter.refine(&mut self.index, scratch, ops, focus);

        Step {
            answer,
            scanned,
            ops: performed as u64,
            predicted: model.quicksort_refinement(height, alpha, delta),
        }
    }
}

impl QuicksortStrategy {
    pub(crate) fn start(column: &Column) -> Self {
        let n = column.len();
        QuicksortStrategy {
            index: vec![0; n],
            state: State::Creation {
                pivot: midpoint(column.min(), column.max()),
                write_lo: 0,
                high_start: n,
                consumed: 0,
            },
        }
    }

    pub(crate) fn unit_cost(&self, model: &CostModel) -> f64 {
        match self.state {
            State::Creation { .. } => model.t_pivot(),
            State::Refinement { .. } => model.t_swap(),
        }
    }

    pub(crate) fn progress(&self, n: usize) -> (Phase, f64) {
        match &self.state {
            State::Creation { consumed, .. } => (Phase::Creation, *consumed as f64 / n as f64),
            State::Refinement { sorter, .. } => (
                Phase::Refinement,
                sorter.sorted_elements() as f64 / n as f64,
            ),
        }
    }

    pub(crate) fn step(
        &mut self,
        column: &Column,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step {
        match self.state {
            State::Creation { .. } => self.creation_step(column, model, low, high, delta),
            State::Refinement { .. } => self.refinement_step(column.len(), model, low, high, delta),
        }
    }

    pub(crate) fn take_sorted(&mut self) -> Option<Vec<Value>> {
        let State::Refinement { sorter, .. } = &self.state else {
            return None;
        };
        if !sorter.is_sorted() {
            return None;
        }
        debug_assert!(sorter.verify_sorted(&self.index));
        Some(std::mem::take(&mut self.index))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::budget::BudgetPolicy;
    use crate::cost_model::CostConstants;
    use crate::decision::Algorithm;
    use crate::index::RangeIndex;
    use crate::testing;

    #[test]
    fn first_query_is_correct_and_cheap_in_work() {
        let column = testing::random_column(100_000, 1_000_000, 1);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx = Algorithm::Quicksort.build(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
        let r = idx.query(100, 5_000);
        assert_eq!(r.scan_result(), reference.query(100, 5_000));
        assert_eq!(r.phase, Phase::Creation);
        // Only ~δ·N indexing operations may be performed.
        assert!(r.indexing_ops <= (0.1f64 * 100_000.0).ceil() as u64);
    }

    #[test]
    fn converges_and_stays_correct_throughout() {
        testing::assert_index_converges(
            |column| Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(0.25)),
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_with_tiny_delta() {
        testing::assert_index_converges(
            |column| Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(0.05)),
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
                Algorithm::Quicksort.build_with_constants(
                    column,
                    policy,
                    CostConstants::synthetic(),
                )
            },
            30_000,
            300_000,
        );
        drop(column);
    }

    #[test]
    fn delta_one_finishes_creation_in_one_query() {
        let column = Arc::new(testing::random_column(10_000, 100_000, 3));
        let mut idx = Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(1.0));
        let r = idx.query(0, 50_000);
        assert_eq!(r.phase, Phase::Creation);
        assert_eq!(r.indexing_ops, 10_000);
        assert!(idx.status().phase >= Phase::Refinement);
    }

    #[test]
    fn skewed_data_converges() {
        testing::assert_index_converges(
            |column| Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(0.25)),
            40_000,
            1_000, // heavy duplication: only 1000 distinct values
        );
    }

    #[test]
    fn empty_column_is_immediately_converged_per_query() {
        let column = Arc::new(Column::from_vec(vec![]));
        let mut idx = Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(0.5));
        let r = idx.query(0, 10);
        assert_eq!(r.count, 0);
        assert_eq!(r.sum, 0);
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![7; 5_000]));
        let mut idx = Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(0.5));
        for _ in 0..20 {
            let r = idx.query(7, 7);
            assert_eq!(r.count, 5_000);
        }
        assert!(idx.is_converged());
    }

    #[test]
    fn status_progresses_monotonically() {
        let column = Arc::new(testing::random_column(20_000, 200_000, 11));
        let mut idx = Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(0.2));
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
        let mut idx = Algorithm::Quicksort.build(column, BudgetPolicy::FixedDelta(0.5));
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
