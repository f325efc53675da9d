//! The sorting stage of the one lifecycle [`MutableIndex`] runs: creation
//! and refinement, the two phases in which the four algorithms differ
//! (§3.1–3.4 of the paper only say how each one *partitions* there).
//!
//! [`Sorting`] has one variant per algorithm, each answering what a unit
//! of its current phase costs, how far along it is, one budgeted step,
//! and the sorted array once there is one. The four states live in
//! [`crate::quicksort`], [`crate::radix_msd`], [`crate::radix_lsd`] and
//! [`crate::bucketsort`]; the three bucket-based ones share their creation
//! step through [`BucketCreation`].
//!
//! [`MutableIndex`]: crate::MutableIndex

use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{Column, Value};

use crate::buckets::{BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT};
use crate::bucketsort::BucketsortStrategy;
use crate::cost_model::CostModel;
use crate::decision::Algorithm;
use crate::kernels::ScatterScratch;
use crate::quicksort::QuicksortStrategy;
use crate::radix_lsd::RadixLsdStrategy;
use crate::radix_msd::RadixMsdStrategy;
use crate::result::Phase;

/// What one budgeted step of an algorithm did; the index turns it into
/// the query's [`QueryResult`](crate::QueryResult).
#[derive(Debug)]
pub(crate) struct Step {
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
pub(crate) enum Sorting {
    Quicksort(QuicksortStrategy),
    RadixsortMsd(RadixMsdStrategy),
    RadixsortLsd(RadixLsdStrategy),
    Bucketsort(BucketsortStrategy),
}

impl Sorting {
    /// The creation-phase state of `algorithm` for `column`, which is never
    /// empty.
    pub(crate) fn start(algorithm: Algorithm, column: &Column) -> Self {
        match algorithm {
            Algorithm::Quicksort => Sorting::Quicksort(QuicksortStrategy::start(column)),
            Algorithm::RadixsortMsd => Sorting::RadixsortMsd(RadixMsdStrategy::start(column)),
            Algorithm::RadixsortLsd => Sorting::RadixsortLsd(RadixLsdStrategy::start(column)),
            Algorithm::Bucketsort => Sorting::Bucketsort(BucketsortStrategy::start(column)),
        }
    }

    /// Cost of performing *all* of the current phase's work — what the
    /// budget divides by to get this query's δ.
    pub(crate) fn unit_cost(&self, model: &CostModel) -> f64 {
        match self {
            Sorting::Quicksort(s) => s.unit_cost(model),
            Sorting::RadixsortMsd(s) => s.unit_cost(model),
            Sorting::RadixsortLsd(s) => s.unit_cost(model),
            Sorting::Bucketsort(s) => s.unit_cost(model),
        }
    }

    /// The current phase ([`Phase::Creation`] or [`Phase::Refinement`])
    /// and the fraction of its work already done.
    pub(crate) fn progress(&self, n: usize) -> (Phase, f64) {
        match self {
            Sorting::Quicksort(s) => s.progress(n),
            Sorting::RadixsortMsd(s) => s.progress(n),
            Sorting::RadixsortLsd(s) => s.progress(n),
            Sorting::Bucketsort(s) => s.progress(n),
        }
    }

    /// Answers `[low, high]` and performs `delta` of the current phase's
    /// work.
    pub(crate) fn step(
        &mut self,
        column: &Column,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step {
        match self {
            Sorting::Quicksort(s) => s.step(column, model, low, high, delta),
            Sorting::RadixsortMsd(s) => s.step(column, model, low, high, delta),
            Sorting::RadixsortLsd(s) => s.step(column, model, low, high, delta),
            Sorting::Bucketsort(s) => s.step(column, model, low, high, delta),
        }
    }

    /// The fully sorted array, once refinement has produced it. The index
    /// asks after every step and drops the sorting state on
    /// `Some`.
    pub(crate) fn take_sorted(&mut self) -> Option<Vec<Value>> {
        match self {
            Sorting::Quicksort(s) => s.take_sorted(),
            Sorting::RadixsortMsd(s) => s.take_sorted(),
            Sorting::RadixsortLsd(s) => s.take_sorted(),
            Sorting::Bucketsort(s) => s.take_sorted(),
        }
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
/// released with the phase when the algorithm replaces its creation state.
#[derive(Debug)]
pub(crate) struct BucketCreation {
    buckets: BucketSet,
    consumed: usize,
    /// Boxed: the cursor table alone is 2 KiB, and an algorithm's state is
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
    use std::sync::Arc;

    use crate::budget::BudgetPolicy;
    use crate::cost_model::{clamp_delta, CostConstants};
    use crate::result::IndexStatus;
    use crate::testing::{random_column, ReferenceIndex, TestRng};
    use pi_storage::btree::{BTreeBuilder, DEFAULT_FANOUT};

    /// What all of `phase`'s work costs under `algorithm` over the model's
    /// `n` rows: the price an adaptive budget divides by.
    fn unit_cost(algorithm: Algorithm, phase: Phase, model: &CostModel) -> f64 {
        match (algorithm, phase) {
            (_, Phase::Consolidation) => {
                let n = model.n() as usize;
                model.t_consolidate(BTreeBuilder::total_copies(n, DEFAULT_FANOUT))
            }
            (_, Phase::Converged) => unreachable!("a converged index is not priced"),
            (Algorithm::Quicksort, Phase::Creation) => model.t_pivot(),
            (Algorithm::Quicksort | Algorithm::Bucketsort, Phase::Refinement) => model.t_swap(),
            (Algorithm::Bucketsort, Phase::Creation) => {
                model.t_bucketize_equiheight(DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT)
            }
            (Algorithm::RadixsortMsd | Algorithm::RadixsortLsd, _) => {
                model.t_bucketize(DEFAULT_BLOCK_CAPACITY)
            }
        }
    }

    /// Under an adaptive budget every query's δ is the budget over the
    /// unit cost of the phase the query reports; the step that sorts is
    /// reported with the algorithm's phase and leaves the index at
    /// consolidation.
    #[test]
    fn driver_prices_once_per_query_and_hands_over_on_the_step_that_sorts() {
        let column = Arc::new(random_column(20_000, 1 << 30, 3));
        let reference = ReferenceIndex::new(&column);
        let model = CostModel::new(CostConstants::synthetic(), column.len());
        let budget = 0.2 * model.t_scan();
        for algorithm in Algorithm::ALL {
            let mut index = algorithm.build(Arc::clone(&column), BudgetPolicy::Adaptive(budget));
            let mut rng = TestRng::new(5);
            let mut hand_overs = 0;
            for query in 0..100_000 {
                let context = format!("{algorithm}, query {query}");
                let before = index.status();
                if before.converged {
                    break;
                }
                let low = rng.below(1 << 30);
                let high = low + (1 << 26);
                let result = index.query(low, high);
                assert_eq!(result.phase, before.phase, "{context}");
                assert_eq!(
                    result.scan_result(),
                    reference.query(low, high),
                    "{context}"
                );
                let unit = unit_cost(algorithm, result.phase, &model);
                assert_eq!(result.delta, clamp_delta(budget / unit), "{context}");
                let after = index.status();
                if after.phase == Phase::Refinement {
                    assert_eq!(after.fraction_indexed, 1.0, "{context}");
                }
                if before.phase < Phase::Consolidation && after.phase >= Phase::Consolidation {
                    assert_eq!(after.phase, Phase::Consolidation, "{context}");
                    hand_overs += 1;
                }
            }
            assert_eq!(hand_overs, 1, "{algorithm}");
            assert!(index.is_converged(), "{algorithm} did not converge");
            let converged = index.query(10, 19);
            assert_eq!((converged.phase, converged.delta), (Phase::Converged, 0.0));
        }
    }

    /// The name comes from the algorithm the index holds, before the
    /// hand-over and after it.
    #[test]
    fn the_name_is_the_algorithm_s_in_every_phase() {
        let column = Arc::new(random_column(20_000, 1 << 30, 9));
        let every_phase = [
            Phase::Creation,
            Phase::Refinement,
            Phase::Consolidation,
            Phase::Converged,
        ];
        for algorithm in Algorithm::ALL {
            let mut index = algorithm.build(Arc::clone(&column), BudgetPolicy::FixedDelta(0.25));
            let mut phases = vec![];
            loop {
                assert_eq!(index.name(), algorithm.name(), "{phases:?}");
                let phase = index.status().phase;
                if phases.last() != Some(&phase) {
                    phases.push(phase);
                }
                if phase == Phase::Converged {
                    break;
                }
                index.query(0, 1 << 29);
            }
            assert_eq!(phases, every_phase, "{algorithm}");
        }
    }

    #[test]
    fn empty_column_is_converged_on_query_one() {
        for algorithm in Algorithm::ALL {
            let column = Arc::new(Column::from_vec(vec![]));
            let mut index = algorithm.build(column, BudgetPolicy::FixedDelta(0.5));
            assert!(index.is_converged(), "{algorithm}");
            let result = index.query(0, 10);
            assert_eq!(result.phase, Phase::Converged, "{algorithm}");
            assert_eq!((result.count, result.sum, result.indexing_ops), (0, 0, 0));
            assert_eq!(result.delta, 0.0, "{algorithm}");
        }
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
