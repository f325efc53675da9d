//! The one life every progressive index lives (§3 of the paper).
//!
//! A per-query δ from the budget, then **creation → refinement →
//! consolidation → converged**: the paper defines this once, and §3.1–3.4
//! only say how each algorithm *partitions* inside the first two phases.
//! [`Progressive`] is that life, written once:
//!
//! * it holds the base column, the [`BudgetController`] and the
//!   [`CostModel`];
//! * every query it asks the budget for one δ, priced by the cost of the
//!   current phase's unit of work, and spends it on one step;
//! * a sorted column (the empty one included) has nothing to sort and
//!   starts at the consolidation tail;
//! * the moment a strategy's array is sorted it *becomes* the base column:
//!   it is handed to the shared consolidation tail, the handle on the
//!   unsorted column is released, and the strategy — buckets, pivot trees,
//!   scratch, routing metadata — is dropped whole. One copy of the values
//!   is resident from then on ([`RangeIndex::sorted_base`]);
//! * [`RangeIndex::status`] comes from the strategy before the hand-over
//!   and from the tail after it.
//!
//! A [`Strategy`] is what is left: how to start on a column, what a unit
//! of its current phase costs, how far along it is, one budgeted step, and
//! the sorted array once there is one. The four of them live in
//! [`crate::quicksort`], [`crate::radix_msd`], [`crate::radix_lsd`] and
//! [`crate::bucketsort`]; the three bucket-based ones share their creation
//! step through [`BucketCreation`].

use std::sync::Arc;

use pi_storage::btree::DEFAULT_FANOUT;
use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{Column, Value};

use crate::buckets::{BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT};
use crate::budget::{BudgetController, BudgetPolicy};
use crate::consolidation::Consolidation;
use crate::cost_model::{CostConstants, CostModel};
use crate::index::RangeIndex;
use crate::kernels::ScatterScratch;
use crate::result::{IndexStatus, Phase, QueryResult};

/// What one budgeted step of a [`Strategy`] did; the driver turns it into
/// the query's [`QueryResult`].
#[derive(Debug)]
pub struct Step {
    /// The query's answer.
    pub answer: ScanResult,
    /// Elements read to produce it.
    pub scanned: u64,
    /// Element-level indexing operations performed.
    pub ops: u64,
    /// Cost-model prediction of the query's total time, in seconds.
    pub predicted: f64,
}

/// The creation and refinement phases of one algorithm: everything that
/// differs between the four progressive indexes.
pub trait Strategy {
    /// [`RangeIndex::name`] of the index this strategy drives.
    const NAME: &'static str;

    /// The creation-phase state for `column`, which is never empty.
    fn start(column: &Column) -> Self;

    /// Cost of performing *all* of the current phase's work — what the
    /// budget divides by to get this query's δ.
    fn unit_cost(&self, model: &CostModel) -> f64;

    /// The current phase ([`Phase::Creation`] or [`Phase::Refinement`])
    /// and the fraction of its work already done.
    fn progress(&self, n: usize) -> (Phase, f64);

    /// Answers `[low, high]` and performs `delta` of the current phase's
    /// work.
    fn step(
        &mut self,
        column: &Column,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step;

    /// The fully sorted array, once refinement has produced it. The driver
    /// asks after every step and drops the strategy on `Some`.
    fn take_sorted(&mut self) -> Option<Vec<Value>>;
}

enum Stage<S> {
    /// Creation and refinement: the strategy's.
    Sorting(S),
    /// Consolidation and converged: the same for every algorithm.
    Sorted(Consolidation),
}

impl<S> Stage<S> {
    fn sorted(column: Arc<Column>) -> Self {
        Stage::Sorted(Consolidation::new(column, DEFAULT_FANOUT))
    }
}

/// A progressive index over a single integer column: the lifecycle shared
/// by all four algorithms, driving the creation and refinement steps of
/// the algorithm `S`. Use it through
/// [`ProgressiveQuicksort`](crate::ProgressiveQuicksort),
/// [`ProgressiveRadixsortMsd`](crate::ProgressiveRadixsortMsd),
/// [`ProgressiveRadixsortLsd`](crate::ProgressiveRadixsortLsd) and
/// [`ProgressiveBucketsort`](crate::ProgressiveBucketsort).
pub struct Progressive<S> {
    column: Arc<Column>,
    budget: BudgetController,
    model: CostModel,
    stage: Stage<S>,
}

impl<S: Strategy> Progressive<S> {
    /// Creates the index with host-independent synthetic cost constants.
    ///
    /// Use [`Progressive::with_constants`] with
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
        Progressive {
            budget: BudgetController::new(policy),
            model: CostModel::new(constants, column.len()),
            // A sorted column has nothing to sort: born at consolidation.
            stage: if column.is_sorted() {
                Stage::sorted(Arc::clone(&column))
            } else {
                Stage::Sorting(S::start(&column))
            },
            column,
        }
    }

    /// The base column: the one the index was built over until its values
    /// are sorted, the sorted one afterwards (same values, same min/max).
    pub(crate) fn column(&self) -> &Column {
        &self.column
    }
}

impl<S: Strategy> RangeIndex for Progressive<S> {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        let strategy = match &mut self.stage {
            Stage::Sorting(strategy) => strategy,
            Stage::Sorted(tail) => {
                let delta = tail.delta(&self.model, &mut self.budget);
                return tail.query(&self.model, low, high, delta);
            }
        };
        let (phase, _) = strategy.progress(self.column.len());
        let delta = self.budget.delta_for_query(strategy.unit_cost(&self.model));
        let step = strategy.step(&self.column, &self.model, low, high, delta);
        if let Some(sorted) = strategy.take_sorted() {
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

    fn status(&self) -> IndexStatus {
        match &self.stage {
            Stage::Sorting(strategy) => {
                let (phase, progress) = strategy.progress(self.column.len());
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
            Stage::Sorted(tail) => tail.status(),
        }
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn sorted_base(&self) -> Option<&Arc<Column>> {
        matches!(self.stage, Stage::Sorted(_)).then_some(&self.column)
    }
}

/// The creation phase of the three bucket-based algorithms: every query
/// moves the next `δ · N` elements of the base column into `b = 64`
/// buckets and is answered from the buckets its predicate may touch plus
/// the part of the column no earlier query has moved. The algorithms
/// differ in the digit that routes an element, in which buckets a
/// predicate may touch, and in the cost-model line that prices the step.
///
/// The scatter scratch grows to `δ · N` elements; it lives here, so it is
/// released with the phase when the strategy replaces its creation state.
#[derive(Debug)]
pub(crate) struct BucketCreation {
    buckets: BucketSet,
    consumed: usize,
    /// Boxed: the cursor table alone is 2 KiB, and a strategy's state is
    /// an enum with this as one variant.
    scratch: Box<ScatterScratch>,
}

impl BucketCreation {
    /// Empty buckets; nothing consumed.
    pub(crate) fn new() -> Self {
        BucketCreation {
            buckets: BucketSet::new(DEFAULT_BUCKET_COUNT, DEFAULT_BLOCK_CAPACITY),
            consumed: 0,
            scratch: Box::default(),
        }
    }

    /// Fraction ρ of the column already moved into the buckets.
    pub(crate) fn progress(&self, n: usize) -> (Phase, f64) {
        (Phase::Creation, self.consumed as f64 / n as f64)
    }

    /// Range sum over buckets `first..=last`, and the elements they hold.
    pub(crate) fn scan_buckets(
        &self,
        first: usize,
        last: usize,
        low: Value,
        high: Value,
    ) -> (ScanResult, u64) {
        let held = (first..=last).map(|b| self.buckets.bucket(b).len() as u64);
        (
            self.buckets.range_sum_buckets(first, last, low, high),
            held.sum(),
        )
    }

    /// One creation step. `lookup` is the answer the buckets gave and the
    /// elements read for it; `None` when the buckets cannot prune the
    /// predicate and the whole base column is scanned instead. `digit`
    /// routes an element to its bucket; `price` is the algorithm's
    /// creation cost line as a function of `(ρ, α)`.
    ///
    /// Returns the filled buckets with the step that consumes the last
    /// element of the column.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        column: &Column,
        low: Value,
        high: Value,
        delta: f64,
        lookup: Option<(ScanResult, u64)>,
        digit: &impl Fn(Value) -> u8,
        price: impl FnOnce(f64, f64) -> f64,
    ) -> (Step, Option<BucketSet>) {
        let data = column.data();
        let n = data.len();
        let rho = self.consumed as f64 / n as f64;
        let rest = &data[self.consumed..];
        let (answer, scanned, alpha) = match lookup {
            Some((hit, read)) => (
                hit.merge(scan_range_sum(rest, low, high)),
                read + rest.len() as u64,
                read as f64 / n as f64,
            ),
            None => (scan_range_sum(data, low, high), n as u64, rho),
        };

        let todo = ((delta * n as f64).ceil() as usize).min(rest.len());
        self.scratch
            .scatter_into(&rest[..todo], &mut self.buckets, digit);
        self.consumed += todo;

        let step = Step {
            answer,
            scanned,
            ops: todo as u64,
            predicted: price(rho, alpha),
        };
        let filled = (self.consumed == n)
            .then(|| std::mem::replace(&mut self.buckets, BucketSet::new(1, 1)));
        (step, filled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Algorithm;
    use crate::testing::{random_column, TestRng};
    use std::cell::Cell;

    thread_local! {
        static UNIT_COST_CALLS: Cell<u32> = const { Cell::new(0) };
    }

    /// Moves nothing: "sorts" a copy of the column after `STEPS` steps.
    struct Toy {
        steps_left: u32,
        sorted: Vec<Value>,
    }

    const STEPS: u32 = 3;

    impl Strategy for Toy {
        const NAME: &'static str = "toy";

        fn start(column: &Column) -> Self {
            let mut sorted = column.data().to_vec();
            sorted.sort_unstable();
            Toy {
                steps_left: STEPS,
                sorted,
            }
        }

        fn unit_cost(&self, model: &CostModel) -> f64 {
            UNIT_COST_CALLS.with(|c| c.set(c.get() + 1));
            model.t_swap()
        }

        fn progress(&self, _n: usize) -> (Phase, f64) {
            (
                Phase::Refinement,
                1.0 - self.steps_left as f64 / STEPS as f64,
            )
        }

        fn step(
            &mut self,
            column: &Column,
            _model: &CostModel,
            low: Value,
            high: Value,
            _delta: f64,
        ) -> Step {
            self.steps_left -= 1;
            Step {
                answer: scan_range_sum(column.data(), low, high),
                scanned: column.len() as u64,
                ops: 7,
                predicted: 0.0,
            }
        }

        fn take_sorted(&mut self) -> Option<Vec<Value>> {
            (self.steps_left == 0).then(|| std::mem::take(&mut self.sorted))
        }
    }

    #[test]
    fn driver_prices_once_per_query_and_hands_over_on_the_step_that_sorts() {
        let values: Vec<Value> = (0..1_000).rev().collect();
        let model = CostModel::new(CostConstants::synthetic(), values.len());
        let policy = BudgetPolicy::adaptive_scan_fraction(&model, 0.2);
        let mut index = Progressive::<Toy>::new(Arc::new(Column::from_vec(values)), policy);
        assert_eq!(index.name(), "toy");

        for query in 1..=STEPS {
            let before = UNIT_COST_CALLS.with(Cell::get);
            let result = index.query(10, 19);
            assert_eq!(UNIT_COST_CALLS.with(Cell::get), before + 1, "query {query}");
            // Reported with the strategy's phase, the sorting step included.
            assert_eq!(result.phase, Phase::Refinement, "query {query}");
            assert_eq!((result.count, result.indexing_ops), (10, 7));
            assert_eq!(result.delta, 0.2 * model.t_scan() / model.t_swap());
            let status = index.status();
            if query < STEPS {
                assert_eq!(status.phase, Phase::Refinement);
                assert_eq!(status.fraction_indexed, 1.0);
            } else {
                assert_eq!(status.phase, Phase::Consolidation);
            }
        }

        // The query after the hand-over belongs to the tail: the strategy
        // is gone and is no longer asked for a price.
        let before = UNIT_COST_CALLS.with(Cell::get);
        let next = index.query(10, 19);
        assert_eq!(next.phase, Phase::Consolidation);
        assert_eq!((next.count, next.sum), (10, (10..20).sum::<u128>()));
        assert_eq!(UNIT_COST_CALLS.with(Cell::get), before);
    }

    #[test]
    fn empty_column_is_converged_on_query_one() {
        let before = UNIT_COST_CALLS.with(Cell::get);
        let mut index = Progressive::<Toy>::new(
            Arc::new(Column::from_vec(vec![])),
            BudgetPolicy::FixedDelta(0.5),
        );
        assert!(index.is_converged());
        let result = index.query(0, 10);
        assert_eq!(result.phase, Phase::Converged);
        assert_eq!((result.count, result.sum, result.indexing_ops), (0, 0, 0));
        assert_eq!(UNIT_COST_CALLS.with(Cell::get), before);
    }

    #[test]
    fn status_never_goes_backwards_for_any_algorithm_on_any_column_shape() {
        let mut rng = TestRng::new(41);
        let mostly_one_value: Vec<Value> = (0..20_000)
            .map(|i| if i % 10 == 0 { rng.below(1 << 30) } else { 77 })
            .collect();
        let shapes: [(&str, Vec<Value>); 5] = [
            ("uniform", random_column(20_000, 1 << 30, 5).into_vec()),
            ("90% duplicates", mostly_one_value),
            ("single value", vec![9; 5_000]),
            ("empty", vec![]),
            ("one row", vec![123]),
        ];
        for (shape, values) in &shapes {
            for algorithm in Algorithm::ALL {
                let column = Arc::new(Column::from_vec(values.clone()));
                // Converged at the start iff there is nothing to sort and
                // no tree to build: sorted, and fits one node.
                let nothing_to_do = column.is_sorted() && column.len() <= DEFAULT_FANOUT;
                let mut index = algorithm.build(column, BudgetPolicy::FixedDelta(0.15));
                let mut last = index.status();
                // Readings taken in the refinement phase, and how many lay
                // strictly inside (0, 1).
                let (mut refining, mut partial) = (0, 0);
                assert_eq!(last.converged, nothing_to_do, "{algorithm} on {shape}");
                for query in 0..2_000u64 {
                    if last.converged {
                        break;
                    }
                    let low = rng.below(1 << 30);
                    let reported = index.query(low, low + (1 << 26)).phase;
                    assert_eq!(
                        reported, last.phase,
                        "{algorithm} on {shape}, query {query}"
                    );
                    let now = index.status();
                    let context =
                        format!("{algorithm} on {shape}, query {query}: {last:?} -> {now:?}");
                    assert!(now.phase >= last.phase, "{context}");
                    assert!(now.fraction_indexed >= last.fraction_indexed, "{context}");
                    assert!((0.0..=1.0).contains(&now.phase_progress), "{context}");
                    if now.phase == last.phase {
                        assert!(now.phase_progress >= last.phase_progress, "{context}");
                    }
                    if now.phase == Phase::Refinement {
                        refining += 1;
                        partial += (0.0 < now.phase_progress && now.phase_progress < 1.0) as u32;
                    }
                    assert_eq!(now.converged, now.phase == Phase::Converged, "{context}");
                    last = now;
                }
                assert!(last.converged, "{algorithm} on {shape} did not converge");
                // Quicksort's refinement reports how far it has got, not a
                // step from 0 to 1 at the hand-over.
                if algorithm == Algorithm::Quicksort && refining > 0 {
                    assert!(partial > 0, "{algorithm} on {shape}: {refining} readings");
                }
                // Converged is sticky.
                index.query(0, u64::MAX);
                assert_eq!(index.status(), IndexStatus::converged());
            }
        }
    }
}
