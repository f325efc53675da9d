//! Progressive Bucketsort, Equi-Height (§3.3).
//!
//! [`Algorithm::Bucketsort`](crate::Algorithm::Bucketsort) runs the
//! shared lifecycle (budget, cost model, hand-over to consolidation,
//! status) over this module's creation and refinement state, which is
//! only what §3.3 says.
//!
//! Progressive Bucketsort is structurally identical to Progressive
//! Radixsort (MSD) during the creation phase, but the partitioning bounds
//! are *value-based* rather than radix-based: a set of `b - 1` boundaries
//! divides the value domain into buckets of (approximately) equal
//! cardinality, so the approach stays balanced under skewed data at the
//! cost of a `log2 b` binary search per routed element.
//!
//! * **Creation** — the bounds are obtained from a sample of the column
//!   (the paper permits taking them "in the scan to answer the first
//!   query or from existing statistics"). Every query routes another
//!   `δ · N` elements into their bucket and scans the buckets overlapping
//!   its predicate plus the unconsumed column tail. The step itself is the
//!   one all bucket-based algorithms share (`BucketCreation`); this file
//!   supplies the bound search as the digit.
//! * **Refinement** — the buckets are merged *in order* into the final
//!   sorted array; each bucket's region is then sorted with a budgeted
//!   Progressive Quicksort ([`IncrementalSorter`]), "as such, we always
//!   have at most a single iteration of Progressive Quicksort active at a
//!   time".
//!
//! Once the last region is sorted the lifecycle takes the array.

use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{sorted, Column, Value};

use crate::buckets::{BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT};
use crate::cost_model::CostModel;
use crate::kernels::ScatterScratch;
use crate::lifecycle::{BucketCreation, Step};
use crate::result::Phase;
use crate::sorter::{IncrementalSorter, DEFAULT_SMALL_NODE_ELEMENTS};

/// Number of evenly spaced elements sampled to estimate the equi-height
/// bounds.
const BOUND_SAMPLE_SIZE: usize = 4096;

/// The `b - 1` ascending boundaries between the buckets; bucket `i` holds
/// values `v` with `bounds[i-1] <= v < bounds[i]` (open-ended at both
/// ends).
type Bounds = [Value; DEFAULT_BUCKET_COUNT - 1];

/// Per-bucket merge progress during the refinement phase.
#[derive(Debug)]
enum MergeStage {
    /// Copying the bucket's elements into its region of the final array;
    /// `copied` elements transferred so far.
    Copying { copied: usize },
    /// Sorting the region in place with a budgeted incremental quicksort.
    Sorting { sorter: IncrementalSorter },
    /// The region is sorted.
    Done,
}

/// Phase-specific state of the strategy.
#[derive(Debug)]
enum State {
    Creation(BucketCreation),
    Refinement(BucketMerge),
}

/// The refinement phase: the buckets being merged, in order, into the
/// final sorted array.
#[derive(Debug)]
struct BucketMerge {
    buckets: BucketSet,
    /// Start offset of each bucket's region in the final array.
    offsets: Vec<usize>,
    /// Index of the bucket currently being merged; buckets before it
    /// are fully merged and sorted.
    current: usize,
    stage: MergeStage,
    merged: Vec<Value>,
    /// Buffers of the sorters' leaf sorts.
    scratch: Box<ScatterScratch>,
}

/// The creation and refinement steps of Progressive Bucketsort.
#[derive(Debug)]
pub(crate) struct BucketsortStrategy {
    bounds: Box<Bounds>,
    state: State,
}

impl BucketsortStrategy {
    pub(crate) fn start(column: &Column) -> Self {
        BucketsortStrategy {
            bounds: equi_height_bounds(column),
            state: State::Creation(BucketCreation::new()),
        }
    }

    pub(crate) fn unit_cost(&self, model: &CostModel) -> f64 {
        match self.state {
            State::Creation(_) => {
                model.t_bucketize_equiheight(DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT)
            }
            // The refinement phase runs Progressive Quicksort inside each
            // bucket region, so its per-element refinement cost applies.
            State::Refinement(_) => model.t_swap(),
        }
    }

    pub(crate) fn progress(&self, n: usize) -> (Phase, f64) {
        match &self.state {
            State::Creation(creation) => creation.progress(n),
            State::Refinement(merge) => (
                Phase::Refinement,
                merge.current as f64 / DEFAULT_BUCKET_COUNT as f64,
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
        let bounds = &*self.bounds;
        let creation = match &mut self.state {
            State::Creation(creation) => creation,
            State::Refinement(merge) => return merge.step(bounds, column, model, low, high, delta),
        };
        // The buckets range-partition the domain: only those the
        // predicate's ends route to, and the ones between, qualify.
        let lookup = if low <= high {
            creation.scan_buckets(bucket_of(bounds, low), bucket_of(bounds, high), low, high)
        } else {
            (ScanResult::EMPTY, 0)
        };
        let digit = |v: Value| bucket_of(bounds, v) as u8;
        let price = |rho, alpha| {
            model.bucketsort_creation(
                rho,
                alpha,
                delta,
                DEFAULT_BLOCK_CAPACITY,
                DEFAULT_BUCKET_COUNT,
            )
        };
        let (step, filled) = creation.step(column, low, high, delta, Some(lookup), &digit, price);
        if let Some(buckets) = filled {
            self.state = State::Refinement(BucketMerge::new(buckets));
        }
        step
    }

    pub(crate) fn take_sorted(&mut self) -> Option<Vec<Value>> {
        match &mut self.state {
            State::Refinement(merge) if merge.current >= DEFAULT_BUCKET_COUNT => {
                Some(std::mem::take(&mut merge.merged))
            }
            _ => None,
        }
    }
}

impl BucketMerge {
    /// Lays the filled buckets' regions out in the final array.
    fn new(buckets: BucketSet) -> Self {
        let sizes = buckets.sizes();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0usize;
        for s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        BucketMerge {
            merged: vec![0; buckets.len()],
            buckets,
            offsets,
            current: 0,
            stage: MergeStage::Copying { copied: 0 },
            scratch: Box::default(),
        }
    }

    /// Executes one refinement-phase query.
    fn step(
        &mut self,
        bounds: &Bounds,
        column: &Column,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step {
        let n = column.len();
        let lo_b = bucket_of(bounds, low);
        let hi_b = bucket_of(bounds, high);

        // 1. Answer the query: merged-and-sorted regions use binary search,
        //    the in-flight bucket uses its merge stage, untouched buckets
        //    are scanned.
        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        if low <= high {
            for b in lo_b..=hi_b {
                let len = self.buckets.bucket(b).len();
                if len == 0 && b != self.current {
                    continue;
                }
                let region = &self.merged[self.offsets[b]..self.offsets[b] + len];
                if b < self.current {
                    let r = sorted::sorted_range_sum(region, low, high);
                    scanned += r.count;
                    result = result.merge(r);
                } else if b > self.current {
                    result = result.merge(self.buckets.bucket(b).range_sum(low, high));
                    scanned += len as u64;
                } else {
                    match &self.stage {
                        MergeStage::Copying { copied } => {
                            // Copied prefix lives in the final array, the
                            // rest still in the bucket.
                            result = result
                                .merge(scan_range_sum(&region[..*copied], low, high))
                                .merge(self.buckets.bucket(b).range_sum_from(*copied, low, high));
                            scanned += len as u64;
                        }
                        MergeStage::Sorting { sorter } => {
                            let (r, s) = sorter.query(&self.merged, low, high);
                            result = result.merge(r);
                            scanned += s;
                        }
                        MergeStage::Done => {
                            let r = sorted::sorted_range_sum(region, low, high);
                            scanned += r.count;
                            result = result.merge(r);
                        }
                    }
                }
            }
        }
        let alpha = scanned as f64 / n as f64;

        // 2. Budgeted merge/sort work, always on the current bucket
        //    ("buckets are merged into the final sorted index in order").
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        while ops < budget && self.current < DEFAULT_BUCKET_COUNT {
            let b = self.current;
            let len = self.buckets.bucket(b).len();
            let offset = self.offsets[b];
            match &mut self.stage {
                MergeStage::Copying { copied } => {
                    let take = (budget - ops).min(len - *copied);
                    let bucket = self.buckets.bucket(b);
                    // Block-wise copy instead of a per-element `get` (an
                    // integer division per element).
                    let out = &mut self.merged[offset + *copied..offset + *copied + take];
                    bucket.copy_range_to(*copied, out);
                    *copied += take;
                    ops += take.max(1);
                    if *copied == len {
                        // Bucket value domain bounds for the quicksort.
                        let dom_min = if b == 0 { column.min() } else { bounds[b - 1] };
                        let dom_max = if b + 1 < DEFAULT_BUCKET_COUNT {
                            bounds[b].saturating_sub(1)
                        } else {
                            column.max()
                        };
                        self.stage = MergeStage::Sorting {
                            sorter: IncrementalSorter::with_small_node(
                                offset,
                                offset + len,
                                dom_min,
                                dom_max,
                                DEFAULT_SMALL_NODE_ELEMENTS,
                            ),
                        };
                    }
                }
                MergeStage::Sorting { sorter } => {
                    let used =
                        sorter.refine(&mut self.merged, &mut self.scratch, budget - ops, None);
                    ops += used.max(1);
                    if sorter.is_sorted() {
                        self.stage = MergeStage::Done;
                    }
                }
                MergeStage::Done => {
                    self.current += 1;
                    if self.current < DEFAULT_BUCKET_COUNT {
                        self.stage = MergeStage::Copying { copied: 0 };
                    }
                }
            }
        }

        let height = DEFAULT_BUCKET_COUNT.ilog2() as usize;
        Step {
            answer: result,
            scanned,
            ops: ops as u64,
            predicted: model.quicksort_refinement(height, alpha, delta),
        }
    }
}

/// Bucket that `value` routes to: the number of bounds ≤ `value`, i.e.
/// `sorted::upper_bound`. The creation step asks this once per moved
/// element, so it is the standard library's branch-free search (`log2 b`
/// conditional moves) and not `upper_bound`'s loop, which compiles to
/// data-dependent branches (~28 ns on uniform and skewed keys alike). The
/// length is a constant, so the search unrolls (~3 ns).
#[inline]
fn bucket_of(bounds: &Bounds, value: Value) -> usize {
    bounds.partition_point(|&bound| bound <= value)
}

/// Computes the `b - 1` equi-height boundaries from an evenly spaced
/// sample of the (non-empty) column.
fn equi_height_bounds(column: &Column) -> Box<Bounds> {
    let n = column.len();
    let sample_size = BOUND_SAMPLE_SIZE.min(n);
    let step = (n / sample_size).max(1);
    let mut sample: Vec<Value> = column.data().iter().copied().step_by(step).collect();
    sample.sort_unstable();
    let mut bounds = Box::new([0; DEFAULT_BUCKET_COUNT - 1]);
    for (i, bound) in bounds.iter_mut().enumerate() {
        let idx = ((i + 1) * sample.len()) / DEFAULT_BUCKET_COUNT;
        *bound = sample[idx.min(sample.len() - 1)];
    }
    bounds
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
    fn bounds_are_monotone_and_cover_the_domain() {
        let column = testing::random_column(50_000, 1_000_000, 9);
        let bounds = equi_height_bounds(&column);
        assert_eq!(bounds.len(), 63);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bounds_on_skewed_data_remain_balanced() {
        // 90% of the data concentrated in a narrow band.
        let mut rng = testing::TestRng::new(3);
        let data: Vec<Value> = (0..100_000)
            .map(|_| {
                if rng.below(10) < 9 {
                    450_000 + rng.below(100_000)
                } else {
                    rng.below(1_000_000)
                }
            })
            .collect();
        let column = Column::from_vec(data);
        let bounds = equi_height_bounds(&column);
        // Most bounds should land inside the dense band.
        let inside = bounds
            .iter()
            .filter(|&&b| (450_000..550_000).contains(&b))
            .count();
        assert!(inside > 32, "only {inside} bounds inside the dense band");
    }

    #[test]
    fn bucket_of_matches_upper_bound() {
        let mut rng = testing::TestRng::new(5);
        // Bounds are multiples of 1000 in [1000, 40000], so the set holds
        // runs of duplicates and keys fall below the first and above the
        // last; `ends` stretches it to both ends of the domain.
        for ends in [false, true] {
            let mut bounds: Bounds = std::array::from_fn(|_| (1 + rng.below(40)) * 1_000);
            if ends {
                bounds[0] = 0;
                bounds[bounds.len() - 1] = Value::MAX;
            }
            bounds.sort_unstable();
            let mut keys: Vec<Value> = (0..500).map(|_| rng.below(42_000)).collect();
            keys.extend([0, 1, Value::MAX - 1, Value::MAX]);
            for &b in &bounds {
                keys.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
            }
            for key in keys {
                let want = sorted::upper_bound(&bounds, key);
                assert_eq!(bucket_of(&bounds, key), want, "key {key} ends {ends}");
            }
        }
    }

    #[test]
    fn first_query_correct_and_bounded_work() {
        let column = testing::random_column(60_000, 600_000, 31);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx = Algorithm::Bucketsort.build(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
        let r = idx.query(1_000, 300_000);
        assert_eq!(r.scan_result(), reference.query(1_000, 300_000));
        assert!(r.indexing_ops <= (0.1f64 * 60_000.0).ceil() as u64);
    }

    #[test]
    fn converges_and_stays_correct() {
        testing::assert_index_converges(
            |column| Algorithm::Bucketsort.build(column, BudgetPolicy::FixedDelta(0.25)),
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_on_skewed_duplicated_data() {
        testing::assert_index_converges(
            |column| Algorithm::Bucketsort.build(column, BudgetPolicy::FixedDelta(0.2)),
            40_000,
            500,
        );
    }

    #[test]
    fn converges_under_adaptive_budget() {
        testing::assert_index_converges(
            |column| {
                let model = CostModel::new(CostConstants::synthetic(), column.len());
                let policy = BudgetPolicy::adaptive_scan_fraction(&model, 0.2);
                Algorithm::Bucketsort.build(column, policy)
            },
            30_000,
            3_000_000,
        );
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![5; 8_000]));
        let mut idx = Algorithm::Bucketsort.build(column, BudgetPolicy::FixedDelta(0.5));
        for _ in 0..60 {
            let r = idx.query(5, 5);
            assert_eq!(r.count, 8_000);
            if idx.is_converged() {
                break;
            }
        }
        assert!(idx.is_converged());
    }

    #[test]
    fn empty_column_starts_converged() {
        let column = Arc::new(Column::from_vec(vec![]));
        let idx = Algorithm::Bucketsort.build(column, BudgetPolicy::FixedDelta(0.5));
        assert!(idx.is_converged());
    }

    #[test]
    fn phase_progression_is_monotone() {
        let column = Arc::new(testing::random_column(25_000, 250_000, 17));
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx =
            Algorithm::Bucketsort.build(Arc::clone(&column), BudgetPolicy::FixedDelta(0.3));
        let mut last = Phase::Creation;
        for i in 0..400u64 {
            let low = (i * 613) % 250_000;
            let high = (low + 10_000).min(249_999);
            let r = idx.query(low, high);
            assert_eq!(r.scan_result(), reference.query(low, high), "query {i}");
            let phase = idx.status().phase;
            assert!(phase >= last);
            last = phase;
            if idx.is_converged() {
                break;
            }
        }
        assert!(idx.is_converged());
    }
}
