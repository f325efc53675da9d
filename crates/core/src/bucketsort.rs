//! Progressive Bucketsort, Equi-Height (§3.3).
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
//!   its predicate plus the unconsumed column tail.
//! * **Refinement** — the buckets are merged *in order* into the final
//!   sorted array; each bucket's region is then sorted with a budgeted
//!   Progressive Quicksort ([`IncrementalSorter`]), "as such, we always
//!   have at most a single iteration of Progressive Quicksort active at a
//!   time".
//! * **Consolidation** — identical to the other algorithms: a B+-tree is
//!   built over the sorted array.

use std::sync::Arc;

use pi_storage::btree::DEFAULT_FANOUT;
use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{sorted, Column, Value};

use crate::buckets::{BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT};
use crate::budget::{BudgetController, BudgetPolicy};
use crate::consolidation::Consolidation;
use crate::cost_model::{CostConstants, CostModel};
use crate::index::RangeIndex;
use crate::kernels::{ScatterScratch, MAX_SCATTER_BUCKETS};
use crate::result::{IndexStatus, Phase, QueryResult};
use crate::sorter::{IncrementalSorter, DEFAULT_SMALL_NODE_ELEMENTS};

/// Tuning parameters for [`ProgressiveBucketsort`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketsortConfig {
    /// Number of buckets `b` (in `2..=256`, defaults to 64).
    pub bucket_count: usize,
    /// Elements per bucket block (`s_b`).
    pub block_capacity: usize,
    /// Small-node cutoff passed to the per-bucket Progressive Quicksort.
    pub small_node_elements: usize,
    /// Fan-out β of the consolidation-phase B+-tree.
    pub btree_fanout: usize,
    /// Number of evenly spaced elements sampled to estimate the
    /// equi-height bounds.
    pub bound_sample_size: usize,
}

impl Default for BucketsortConfig {
    fn default() -> Self {
        BucketsortConfig {
            bucket_count: DEFAULT_BUCKET_COUNT,
            block_capacity: DEFAULT_BLOCK_CAPACITY,
            small_node_elements: DEFAULT_SMALL_NODE_ELEMENTS,
            btree_fanout: DEFAULT_FANOUT,
            bound_sample_size: 4096,
        }
    }
}

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

/// Phase-specific state.
#[derive(Debug)]
enum State {
    Creation {
        buckets: BucketSet,
        consumed: usize,
    },
    Refinement {
        buckets: BucketSet,
        /// Start offset of each bucket's region in the final array.
        offsets: Vec<usize>,
        /// Index of the bucket currently being merged; buckets before it
        /// are fully merged and sorted.
        current: usize,
        stage: MergeStage,
        merged: Vec<Value>,
    },
    /// Consolidation and converged phases.
    Sorted(Consolidation),
}

/// Progressive Bucketsort (Equi-Height) index over a single integer column.
pub struct ProgressiveBucketsort {
    column: Arc<Column>,
    state: State,
    /// `bucket_count - 1` ascending boundaries; bucket `i` holds values
    /// `v` with `bounds[i-1] <= v < bounds[i]` (open-ended at both ends).
    bounds: Vec<Value>,
    budget: BudgetController,
    model: CostModel,
    config: BucketsortConfig,
    queries_executed: u64,
    /// Scratch of the creation scatter; released with the phase.
    scratch: ScatterScratch,
}

impl ProgressiveBucketsort {
    /// Creates a Progressive Bucketsort index with default configuration
    /// and synthetic cost constants.
    pub fn new(column: Arc<Column>, policy: BudgetPolicy) -> Self {
        Self::with_constants(column, policy, CostConstants::synthetic())
    }

    /// Creates the index with explicit cost constants.
    pub fn with_constants(
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
    ) -> Self {
        Self::with_config(column, policy, constants, BucketsortConfig::default())
    }

    /// Creates the index with explicit cost constants and tuning knobs.
    pub fn with_config(
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
        config: BucketsortConfig,
    ) -> Self {
        assert!(
            (2..=MAX_SCATTER_BUCKETS).contains(&config.bucket_count),
            "bucket count must be in 2..=256"
        );
        let n = column.len();
        let model = CostModel::new(constants, n);
        let bounds = equi_height_bounds(&column, config.bucket_count, config.bound_sample_size);
        let state = if n == 0 {
            State::Sorted(Consolidation::new(Vec::new(), config.btree_fanout))
        } else {
            State::Creation {
                buckets: BucketSet::new(config.bucket_count, config.block_capacity),
                consumed: 0,
            }
        };
        ProgressiveBucketsort {
            column,
            state,
            bounds,
            budget: BudgetController::new(policy),
            model,
            config,
            queries_executed: 0,
            scratch: ScatterScratch::new(),
        }
    }

    /// The cost model used by this index.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The equi-height bounds chosen for this column (for inspection).
    pub fn bounds(&self) -> &[Value] {
        &self.bounds
    }

    fn n(&self) -> usize {
        self.column.len()
    }

    fn current_delta(&mut self) -> f64 {
        let unit_cost = match &self.state {
            State::Creation { .. } => self
                .model
                .t_bucketize_equiheight(self.config.block_capacity, self.config.bucket_count),
            // The refinement phase runs Progressive Quicksort inside each
            // bucket region, so the quicksort swap cost applies.
            State::Refinement { .. } => self.model.t_swap(),
            State::Sorted(tail) => return tail.delta(&self.model, &mut self.budget),
        };
        self.budget.delta_for_query(unit_cost)
    }

    // ------------------------------------------------------------------
    // Creation phase
    // ------------------------------------------------------------------

    fn query_creation(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let bucket_count = self.config.bucket_count;
        let lo_b = bucket_of(&self.bounds, low);
        let hi_b = bucket_of(&self.bounds, high).min(bucket_count - 1);
        let bounds = &self.bounds;
        let State::Creation { buckets, consumed } = &mut self.state else {
            unreachable!("query_creation called outside the creation phase");
        };

        // 1. Scan the buckets whose value range intersects the predicate.
        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        if low <= high {
            result = result.merge(buckets.range_sum_buckets(lo_b, hi_b, low, high));
            scanned += (lo_b..=hi_b)
                .map(|b| buckets.bucket(b).len() as u64)
                .sum::<u64>();
        }
        let alpha = scanned as f64 / n.max(1) as f64;
        let rho = *consumed as f64 / n.max(1) as f64;

        // 2. Scan the part of the base column no earlier query has moved.
        let rest = &self.column.data()[*consumed..];
        result = result.merge(scan_range_sum(rest, low, high));
        scanned += rest.len() as u64;

        // 3. Route its first δ·N elements into their buckets.
        let todo = ((delta * n as f64).ceil() as usize).min(rest.len());
        let digit = |v: Value| bucket_of(bounds, v) as u8;
        self.scratch.scatter_into(&rest[..todo], buckets, &digit);
        *consumed += todo;

        let predicted = self.model.bucketsort_creation(
            rho,
            alpha,
            delta,
            self.config.block_capacity,
            bucket_count,
        );

        if *consumed == n {
            self.start_refinement();
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

    fn start_refinement(&mut self) {
        let n = self.n();
        let State::Creation { buckets, .. } = &mut self.state else {
            return;
        };
        self.scratch = ScatterScratch::new();
        let buckets = std::mem::replace(buckets, BucketSet::new(1, 1));
        let sizes = buckets.sizes();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0usize;
        for s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        self.state = State::Refinement {
            buckets,
            offsets,
            current: 0,
            stage: MergeStage::Copying { copied: 0 },
            merged: vec![0; n],
        };
    }

    // ------------------------------------------------------------------
    // Refinement phase
    // ------------------------------------------------------------------

    fn query_refinement(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let bucket_count = self.config.bucket_count;
        let small_node = self.config.small_node_elements;
        let lo_b = bucket_of(&self.bounds, low);
        let hi_b = bucket_of(&self.bounds, high).min(bucket_count - 1);
        let column_min = self.column.min();
        let column_max = self.column.max();
        let bounds = &self.bounds;

        let State::Refinement {
            buckets,
            offsets,
            current,
            stage,
            merged,
        } = &mut self.state
        else {
            unreachable!("query_refinement called outside the refinement phase");
        };

        // 1. Answer the query: merged-and-sorted regions use binary search,
        //    the in-flight bucket uses its merge stage, untouched buckets
        //    are scanned.
        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        if low <= high {
            for b in lo_b..=hi_b {
                let len = buckets.bucket(b).len();
                if len == 0 && b != *current {
                    continue;
                }
                let region = &merged[offsets[b]..offsets[b] + len];
                if b < *current {
                    let r = sorted::sorted_range_sum(region, low, high);
                    scanned += r.count;
                    result = result.merge(r);
                } else if b > *current {
                    result = result.merge(buckets.bucket(b).range_sum(low, high));
                    scanned += len as u64;
                } else {
                    match stage {
                        MergeStage::Copying { copied } => {
                            // Copied prefix lives in the final array, the
                            // rest still in the bucket.
                            result = result
                                .merge(scan_range_sum(&region[..*copied], low, high))
                                .merge(buckets.bucket(b).range_sum_from(*copied, low, high));
                            scanned += len as u64;
                        }
                        MergeStage::Sorting { sorter } => {
                            let (r, s) = sorter.query(merged, low, high);
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
        let alpha = scanned as f64 / n.max(1) as f64;

        // 2. Budgeted merge/sort work, always on the current bucket
        //    ("buckets are merged into the final sorted index in order").
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        while ops < budget && *current < bucket_count {
            let b = *current;
            let len = buckets.bucket(b).len();
            let offset = offsets[b];
            match stage {
                MergeStage::Copying { copied } => {
                    let take = (budget - ops).min(len - *copied);
                    let bucket = buckets.bucket(b);
                    // Block-wise copy instead of a per-element `get` (an
                    // integer division per element).
                    let out = &mut merged[offset + *copied..offset + *copied + take];
                    bucket.copy_range_to(*copied, out);
                    *copied += take;
                    ops += take.max(1);
                    if *copied == len {
                        // Bucket value domain bounds for the quicksort.
                        let dom_min = if b == 0 { column_min } else { bounds[b - 1] };
                        let dom_max = if b + 1 < bucket_count {
                            bounds[b].saturating_sub(1)
                        } else {
                            column_max
                        };
                        *stage = MergeStage::Sorting {
                            sorter: IncrementalSorter::with_small_node(
                                offset,
                                offset + len,
                                dom_min,
                                dom_max,
                                small_node,
                            ),
                        };
                    }
                }
                MergeStage::Sorting { sorter } => {
                    let used = sorter.refine(merged, budget - ops, None);
                    ops += used.max(1);
                    if sorter.is_sorted() {
                        *stage = MergeStage::Done;
                    }
                }
                MergeStage::Done => {
                    *current += 1;
                    if *current < bucket_count {
                        *stage = MergeStage::Copying { copied: 0 };
                    }
                }
            }
        }

        let height = (bucket_count.max(2) as f64).log2().ceil() as usize;
        let predicted = self.model.quicksort_refinement(height, alpha, delta);
        self.maybe_finish_refinement();

        QueryResult {
            sum: result.sum,
            count: result.count,
            phase: Phase::Refinement,
            delta,
            predicted_cost: Some(predicted),
            indexing_ops: ops as u64,
            elements_scanned: scanned,
        }
    }

    fn maybe_finish_refinement(&mut self) {
        let State::Refinement {
            current, merged, ..
        } = &mut self.state
        else {
            return;
        };
        if *current < self.config.bucket_count {
            return;
        }
        let sorted_data = std::mem::take(merged);
        self.state = State::Sorted(Consolidation::new(sorted_data, self.config.btree_fanout));
    }
}

impl RangeIndex for ProgressiveBucketsort {
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
            State::Refinement { current, .. } => IndexStatus {
                phase: Phase::Refinement,
                fraction_indexed: 1.0,
                phase_progress: *current as f64 / self.config.bucket_count as f64,
                converged: false,
            },
            State::Sorted(tail) => tail.status(),
        }
    }

    fn name(&self) -> &'static str {
        "progressive-bucketsort"
    }
}

/// Bucket that `value` routes to: the number of bounds ≤ `value`, i.e.
/// `sorted::upper_bound`. The creation step asks this once per moved
/// element, so it is the standard library's branch-free search (`log2 b`
/// conditional moves, ~5 ns) and not `upper_bound`'s loop, which compiles
/// to data-dependent branches (~28 ns on uniform and skewed keys alike).
/// At the default `b` the length is a constant and the search unrolls
/// (~3 ns).
#[inline]
fn bucket_of(bounds: &[Value], value: Value) -> usize {
    match <&[Value; DEFAULT_BUCKET_COUNT - 1]>::try_from(bounds) {
        Ok(bounds) => bounds.partition_point(|&bound| bound <= value),
        Err(_) => bounds.partition_point(|&bound| bound <= value),
    }
}

/// Computes `bucket_count - 1` equi-height boundaries from an evenly
/// spaced sample of the column.
fn equi_height_bounds(column: &Column, bucket_count: usize, sample_size: usize) -> Vec<Value> {
    let n = column.len();
    if n == 0 {
        return vec![0; bucket_count - 1];
    }
    let sample_size = sample_size.max(bucket_count).min(n);
    let step = (n / sample_size).max(1);
    let mut sample: Vec<Value> = column.data().iter().copied().step_by(step).collect();
    sample.sort_unstable();
    let mut bounds = Vec::with_capacity(bucket_count - 1);
    for i in 1..bucket_count {
        let idx = (i * sample.len()) / bucket_count;
        bounds.push(sample[idx.min(sample.len() - 1)]);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn bounds_are_monotone_and_cover_the_domain() {
        let column = testing::random_column(50_000, 1_000_000, 9);
        let bounds = equi_height_bounds(&column, 64, 4096);
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
        let bounds = equi_height_bounds(&column, 64, 4096);
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
        // The default length (unrolled search) and others (loop). Bounds
        // are multiples of 1000 in [1000, 40000], so the longer sets hold
        // runs of duplicates and keys fall below the first and above the
        // last; `ends` stretches a set to both ends of the domain.
        for len in [1usize, 2, 7, 62, 63, 64, 255] {
            for ends in [false, true] {
                let mut bounds: Vec<Value> =
                    (0..len).map(|_| (1 + rng.below(40)) * 1_000).collect();
                if ends {
                    bounds[0] = 0;
                    bounds[len - 1] = Value::MAX;
                }
                bounds.sort_unstable();
                let mut keys: Vec<Value> = (0..500).map(|_| rng.below(42_000)).collect();
                keys.extend([0, 1, Value::MAX - 1, Value::MAX]);
                for &b in &bounds {
                    keys.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
                }
                for key in keys {
                    let want = sorted::upper_bound(&bounds, key);
                    assert_eq!(bucket_of(&bounds, key), want, "len {len} key {key}");
                }
            }
        }
    }

    #[test]
    fn first_query_correct_and_bounded_work() {
        let column = testing::random_column(60_000, 600_000, 31);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx = ProgressiveBucketsort::new(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
        let r = idx.query(1_000, 300_000);
        assert_eq!(r.scan_result(), reference.query(1_000, 300_000));
        assert!(r.indexing_ops <= (0.1f64 * 60_000.0).ceil() as u64);
    }

    #[test]
    fn converges_and_stays_correct() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveBucketsort::new(
                    column,
                    BudgetPolicy::FixedDelta(0.25),
                ))
            },
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_on_skewed_duplicated_data() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveBucketsort::new(
                    column,
                    BudgetPolicy::FixedDelta(0.2),
                ))
            },
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
                Box::new(ProgressiveBucketsort::new(column, policy))
            },
            30_000,
            3_000_000,
        );
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![5; 8_000]));
        let mut idx = ProgressiveBucketsort::new(column, BudgetPolicy::FixedDelta(0.5));
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
        let idx = ProgressiveBucketsort::new(column, BudgetPolicy::FixedDelta(0.5));
        assert!(idx.is_converged());
    }

    #[test]
    fn phase_progression_is_monotone() {
        let column = Arc::new(testing::random_column(25_000, 250_000, 17));
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx =
            ProgressiveBucketsort::new(Arc::clone(&column), BudgetPolicy::FixedDelta(0.3));
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
