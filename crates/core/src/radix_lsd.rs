//! Progressive Radixsort, Least Significant Digits first (§3.4).
//!
//! [`Algorithm::RadixsortLsd`](crate::Algorithm::RadixsortLsd) runs the
//! shared lifecycle (budget, cost model, hand-over to consolidation,
//! status) over this module's creation and refinement state, which is
//! only what §3.4 says:
//!
//! * **Creation** — elements are clustered into `b = 64` buckets on their
//!   *least* significant `log2 b` bits. The resulting buckets are not a
//!   range partitioning, so they cannot prune wide range queries; the
//!   algorithm falls back to scanning the original column for those
//!   ("when α == ρ we scan the original column instead of using the
//!   buckets"). Point queries, however, can be answered from a single
//!   bucket per generation, which is why LSD wins point-query workloads.
//!   The step itself is the one all bucket-based algorithms share
//!   (`BucketCreation`); this file supplies the digit and the one bucket
//!   a point predicate may touch.
//! * **Refinement** — elements are repeatedly moved from the current
//!   bucket generation to a new one keyed by the next `log2 b` bits, for
//!   `⌈domain_bits / log2 b⌉` rounds in total. Because every pass is
//!   stable, concatenating the final generation's buckets in order yields
//!   the fully sorted array, which is then written out (budgeted) into the
//!   final sorted array.
//!
//! Once the last bucket is written out the lifecycle takes the array.

use std::cmp::Ordering;

use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{sorted, Column, Value};

use crate::buckets::{
    domain_bits, radix_rounds, BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT, RADIX_BITS,
};
use crate::cost_model::CostModel;
use crate::kernels::ScatterScratch;
use crate::lifecycle::{BucketCreation, Step};
use crate::result::Phase;

/// Digit of the normalised value `v` (column minimum subtracted) that
/// radix round `round` (1-based) clusters on.
fn digit_at_round(v: u64, round: u32) -> usize {
    ((v >> (RADIX_BITS * (round - 1))) & (DEFAULT_BUCKET_COUNT as u64 - 1)) as usize
}

/// Phase-specific state of the strategy.
#[derive(Debug)]
enum State {
    Creation(BucketCreation),
    Refinement(LsdPass),
    Merging(LsdMerge),
}

/// Radix passes `2..=rounds_total`: the generation being drained and the
/// one being filled.
#[derive(Debug)]
struct LsdPass {
    /// Column minimum (normalisation offset).
    min: Value,
    /// Round being executed (round 1 is the creation phase), and the last.
    round: u32,
    rounds_total: u32,
    source: BucketSet,
    target: BucketSet,
    /// Source bucket currently being drained, and how many of its
    /// elements have been moved.
    src_bucket: usize,
    src_pos: usize,
    /// Reused scratch of the passes' scatter.
    scratch: Box<ScatterScratch>,
}

/// The last generation being written out, in bucket order, into the final
/// sorted array.
#[derive(Debug)]
struct LsdMerge {
    buckets: BucketSet,
    cur_bucket: usize,
    cur_pos: usize,
    merged: Vec<Value>,
    written: usize,
}

/// The creation and refinement steps of Progressive Radixsort (LSD).
#[derive(Debug)]
pub(crate) struct RadixLsdStrategy {
    /// Column minimum (normalisation offset).
    min: Value,
    rounds_total: u32,
    state: State,
}

impl RadixLsdStrategy {
    pub(crate) fn start(column: &Column) -> Self {
        let min = column.min();
        RadixLsdStrategy {
            min,
            rounds_total: radix_rounds(domain_bits(min, column.max()), RADIX_BITS),
            state: State::Creation(BucketCreation::new()),
        }
    }

    pub(crate) fn unit_cost(&self, model: &CostModel) -> f64 {
        model.t_bucketize(DEFAULT_BLOCK_CAPACITY)
    }

    pub(crate) fn progress(&self, n: usize) -> (Phase, f64) {
        // Refinement is `rounds_total + 1` passes over the data: round 1
        // (done by creation), rounds `2..=rounds_total`, and the write-out.
        let (passes_done, moved) = match &self.state {
            State::Creation(creation) => return creation.progress(n),
            State::Refinement(pass) => (pass.round - 1, pass.target.len()),
            State::Merging(merge) => (self.rounds_total, merge.written),
        };
        let passes = passes_done as f64 + moved as f64 / n as f64;
        (Phase::Refinement, passes / (self.rounds_total + 1) as f64)
    }

    pub(crate) fn step(
        &mut self,
        column: &Column,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step {
        let (min, rounds_total) = (self.min, self.rounds_total);
        // The one bucket of round `round`'s generation a point predicate
        // can be in; a range predicate cannot be pruned by LSD buckets.
        let point_bucket =
            |round: u32| (low == high && low >= min).then(|| digit_at_round(low - min, round));
        let (step, last_generation) = match &mut self.state {
            State::Creation(creation) => {
                // Ranges scan the whole column instead of the buckets.
                let lookup = (low == high).then(|| match point_bucket(1) {
                    Some(b) => creation.scan_buckets(b, b, low, high),
                    None => (ScanResult::EMPTY, 0),
                });
                let digit = |v: Value| digit_at_round(v - min, 1) as u8;
                let price =
                    |rho, alpha| model.radix_creation(rho, alpha, delta, DEFAULT_BLOCK_CAPACITY);
                let (step, filled) = creation.step(column, low, high, delta, lookup, &digit, price);
                match filled {
                    Some(buckets) if rounds_total > 1 => {
                        self.state = State::Refinement(LsdPass {
                            min,
                            round: 2,
                            rounds_total,
                            source: buckets,
                            target: BucketSet::new(DEFAULT_BUCKET_COUNT, DEFAULT_BLOCK_CAPACITY),
                            src_bucket: 0,
                            src_pos: 0,
                            scratch: Box::default(),
                        });
                        (step, None)
                    }
                    last_generation => (step, last_generation),
                }
            }
            State::Refinement(pass) => pass.step(column, model, low, high, delta),
            State::Merging(merge) => {
                return merge.step(point_bucket(rounds_total), model, low, high, delta)
            }
        };
        if let Some(buckets) = last_generation {
            self.state = State::Merging(LsdMerge {
                buckets,
                cur_bucket: 0,
                cur_pos: 0,
                merged: vec![0; column.len()],
                written: 0,
            });
        }
        step
    }

    pub(crate) fn take_sorted(&mut self) -> Option<Vec<Value>> {
        match &mut self.state {
            State::Merging(merge) if merge.cur_bucket >= DEFAULT_BUCKET_COUNT => {
                Some(std::mem::take(&mut merge.merged))
            }
            _ => None,
        }
    }
}

impl LsdPass {
    /// Executes one query of a radix pass. Returns the filled generation
    /// with the step that completes round `rounds_total`.
    fn step(
        &mut self,
        column: &Column,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> (Step, Option<BucketSet>) {
        let n = column.len();
        let (min, round) = (self.min, self.round);
        // A point can only be in the bucket of its digit, in either
        // generation; wide range predicates scan the original column.
        let (answer, scanned, alpha) = if low != high || low < min {
            (scan_range_sum(column.data(), low, high), n as u64, 1.0)
        } else {
            let src_b = digit_at_round(low - min, round - 1);
            let tgt_b = digit_at_round(low - min, round);
            let consumed_in_src = match src_b.cmp(&self.src_bucket) {
                Ordering::Less => usize::MAX,
                Ordering::Equal => self.src_pos,
                Ordering::Greater => 0,
            };
            let (source, target) = (self.source.bucket(src_b), self.target.bucket(tgt_b));
            let answer = source
                .range_sum_from(consumed_in_src, low, high)
                .merge(target.range_sum(low, high));
            let scanned = (source.len().saturating_sub(consumed_in_src) + target.len()) as u64;
            (answer, scanned, scanned as f64 / n as f64)
        };

        // Budgeted radix re-partitioning work.
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        let digit = |v: Value| digit_at_round(v - min, round) as u8;
        while ops < budget && self.src_bucket < DEFAULT_BUCKET_COUNT {
            let bucket_len = self.source.bucket(self.src_bucket).len();
            if self.src_pos >= bucket_len {
                self.source.clear_bucket(self.src_bucket);
                self.src_bucket += 1;
                self.src_pos = 0;
                continue;
            }
            let take = (budget - ops).min(bucket_len - self.src_pos);
            // Drain the source bucket block-wise (no per-element
            // division), group each slice by target digit, then land
            // every group with one bulk append. The scatter is stable,
            // which the LSD passes rely on.
            let source = self.source.bucket(self.src_bucket);
            for slice in source.block_slices(self.src_pos, take) {
                self.scratch.scatter_into(slice, &mut self.target, &digit);
            }
            self.src_pos += take;
            ops += take;
        }

        let step = Step {
            answer,
            scanned,
            ops: ops as u64,
            predicted: model.radix_refinement(alpha, delta, DEFAULT_BLOCK_CAPACITY),
        };
        // The pass is complete: hand out the last generation, or start
        // the next round on this one.
        if self.src_bucket < DEFAULT_BUCKET_COUNT {
            return (step, None);
        }
        if self.round >= self.rounds_total {
            return (
                step,
                Some(std::mem::replace(&mut self.target, BucketSet::new(1, 1))),
            );
        }
        let fresh = BucketSet::new(DEFAULT_BUCKET_COUNT, DEFAULT_BLOCK_CAPACITY);
        self.source = std::mem::replace(&mut self.target, fresh);
        self.round += 1;
        self.src_bucket = 0;
        self.src_pos = 0;
        (step, None)
    }
}

impl LsdMerge {
    /// Executes one query while the last generation is written out.
    /// `point_bucket` is the one bucket a point predicate can be in.
    fn step(
        &mut self,
        point_bucket: Option<usize>,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> Step {
        let n = self.merged.len();
        let (buckets, cur_bucket, cur_pos) = (&self.buckets, self.cur_bucket, self.cur_pos);

        // 1. Answer: the written prefix of `merged` is sorted; the rest of
        //    the data still lives in the remaining buckets.
        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        if low <= high {
            let prefix = &self.merged[..self.written];
            let r = sorted::sorted_range_sum(prefix, low, high);
            scanned += r.count;
            result = result.merge(r);
            match point_bucket {
                Some(tb) => {
                    // Only one remaining bucket can contain the point value.
                    if tb > cur_bucket {
                        result = result.merge(buckets.bucket(tb).range_sum(low, high));
                        scanned += buckets.bucket(tb).len() as u64;
                    } else if tb == cur_bucket {
                        result =
                            result.merge(buckets.bucket(tb).range_sum_from(cur_pos, low, high));
                        scanned += (buckets.bucket(tb).len() - cur_pos) as u64;
                    }
                }
                None => {
                    // Range query: scan the unmerged remainder.
                    result = result.merge(
                        buckets
                            .bucket(cur_bucket)
                            .range_sum_from(cur_pos, low, high),
                    );
                    scanned += (buckets.bucket(cur_bucket).len().saturating_sub(cur_pos)) as u64;
                    for b in (cur_bucket + 1)..DEFAULT_BUCKET_COUNT {
                        result = result.merge(buckets.bucket(b).range_sum(low, high));
                        scanned += buckets.bucket(b).len() as u64;
                    }
                }
            }
        }
        let alpha = scanned as f64 / n as f64;

        // 2. Budgeted merge work: copy elements from the buckets, in
        //    order, into the final array.
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        while ops < budget && self.cur_bucket < DEFAULT_BUCKET_COUNT {
            let bucket_len = self.buckets.bucket(self.cur_bucket).len();
            if self.cur_pos >= bucket_len {
                self.buckets.clear_bucket(self.cur_bucket);
                self.cur_bucket += 1;
                self.cur_pos = 0;
                continue;
            }
            let take = (budget - ops).min(bucket_len - self.cur_pos);
            // Block-wise copy instead of a per-element `get` (which costs
            // an integer division per element).
            let out = &mut self.merged[self.written..self.written + take];
            self.buckets
                .bucket(self.cur_bucket)
                .copy_range_to(self.cur_pos, out);
            self.written += take;
            self.cur_pos += take;
            ops += take;
        }

        Step {
            answer: result,
            scanned,
            ops: ops as u64,
            predicted: model.radix_refinement(alpha, delta, DEFAULT_BLOCK_CAPACITY),
        }
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
    fn rounds_total_matches_formula() {
        let rounds = |max: u64| radix_rounds(domain_bits(0, max), RADIX_BITS);
        assert_eq!(rounds(63), 1);
        assert_eq!(rounds(64), 2);
        assert_eq!(rounds((1 << 16) - 1), 3);
        assert_eq!(rounds(u64::MAX), 11);
    }

    #[test]
    fn first_query_range_uses_fallback_and_is_correct() {
        let column = testing::random_column(50_000, 500_000, 77);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx =
            Algorithm::RadixsortLsd.build(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
        let r = idx.query(10_000, 100_000);
        assert_eq!(r.scan_result(), reference.query(10_000, 100_000));
        // Fallback scans the full column.
        assert_eq!(r.elements_scanned, 50_000);
    }

    #[test]
    fn point_queries_use_buckets_during_creation() {
        let column = testing::random_column(50_000, 5_000, 13);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx =
            Algorithm::RadixsortLsd.build(Arc::new(column), BudgetPolicy::FixedDelta(0.25));
        for v in [0u64, 17, 4_999, 2_500] {
            let r = idx.point_query(v);
            assert_eq!(r.scan_result(), reference.query(v, v), "point query {v}");
        }
    }

    #[test]
    fn converges_and_stays_correct_on_ranges() {
        testing::assert_index_converges(
            |column| Algorithm::RadixsortLsd.build(column, BudgetPolicy::FixedDelta(0.25)),
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_with_point_query_workload() {
        let column = Arc::new(testing::random_column(30_000, 10_000, 3));
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx =
            Algorithm::RadixsortLsd.build(Arc::clone(&column), BudgetPolicy::FixedDelta(0.2));
        let mut rng = testing::TestRng::new(8);
        for i in 0..2_000 {
            let v = rng.below(10_000);
            let r = idx.point_query(v);
            assert_eq!(r.scan_result(), reference.query(v, v), "query {i}");
            if idx.is_converged() {
                break;
            }
        }
        assert!(idx.is_converged());
    }

    #[test]
    fn converges_on_skewed_duplicated_data() {
        testing::assert_index_converges(
            |column| Algorithm::RadixsortLsd.build(column, BudgetPolicy::FixedDelta(0.2)),
            40_000,
            700,
        );
    }

    #[test]
    fn converges_under_adaptive_budget() {
        testing::assert_index_converges(
            |column| {
                let model = CostModel::new(CostConstants::synthetic(), column.len());
                let policy = BudgetPolicy::adaptive_scan_fraction(&model, 0.2);
                Algorithm::RadixsortLsd.build(column, policy)
            },
            30_000,
            3_000_000,
        );
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![11; 6_000]));
        let mut idx = Algorithm::RadixsortLsd.build(column, BudgetPolicy::FixedDelta(0.5));
        for _ in 0..50 {
            let r = idx.query(11, 11);
            assert_eq!(r.count, 6_000);
            if idx.is_converged() {
                break;
            }
        }
        assert!(idx.is_converged());
    }

    #[test]
    fn empty_column_starts_converged() {
        let column = Arc::new(Column::from_vec(vec![]));
        let idx = Algorithm::RadixsortLsd.build(column, BudgetPolicy::FixedDelta(0.5));
        assert!(idx.is_converged());
    }
}
