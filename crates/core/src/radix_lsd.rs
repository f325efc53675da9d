//! Progressive Radixsort, Least Significant Digits first (§3.4).
//!
//! * **Creation** — elements are clustered into `b = 64` buckets on their
//!   *least* significant `log2 b` bits. The resulting buckets are not a
//!   range partitioning, so they cannot prune wide range queries; the
//!   algorithm falls back to scanning the original column for those
//!   ("when α == ρ we scan the original column instead of using the
//!   buckets"). Point queries, however, can be answered from a single
//!   bucket per generation, which is why LSD wins point-query workloads.
//! * **Refinement** — elements are repeatedly moved from the current
//!   bucket generation to a new one keyed by the next `log2 b` bits, for
//!   `⌈domain_bits / log2 b⌉` rounds in total. Because every pass is
//!   stable, concatenating the final generation's buckets in order yields
//!   the fully sorted array, which is then written out (budgeted) into the
//!   final sorted array.
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

/// Tuning parameters for [`ProgressiveRadixsortLsd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadixLsdConfig {
    /// Number of buckets `b` per round (a power of two in `2..=256`,
    /// defaults to 64).
    pub bucket_count: usize,
    /// Elements per bucket block (`s_b`).
    pub block_capacity: usize,
    /// Fan-out β of the consolidation-phase B+-tree.
    pub btree_fanout: usize,
}

impl Default for RadixLsdConfig {
    fn default() -> Self {
        RadixLsdConfig {
            bucket_count: DEFAULT_BUCKET_COUNT,
            block_capacity: DEFAULT_BLOCK_CAPACITY,
            btree_fanout: DEFAULT_FANOUT,
        }
    }
}

/// Phase-specific state.
#[derive(Debug)]
enum State {
    Creation {
        buckets: BucketSet,
        consumed: usize,
    },
    Refinement {
        /// Round being executed, in `2..=rounds_total` (round 1 is the
        /// creation phase).
        round: u32,
        source: BucketSet,
        target: BucketSet,
        /// Source bucket currently being drained, and how many of its
        /// elements have been moved.
        src_bucket: usize,
        src_pos: usize,
    },
    Merging {
        buckets: BucketSet,
        cur_bucket: usize,
        cur_pos: usize,
        merged: Vec<Value>,
        written: usize,
    },
    /// Consolidation and converged phases.
    Sorted(Consolidation),
}

/// Progressive Radixsort (LSD) index over a single integer column.
pub struct ProgressiveRadixsortLsd {
    column: Arc<Column>,
    state: State,
    budget: BudgetController,
    model: CostModel,
    config: RadixLsdConfig,
    min: Value,
    domain_bits: u32,
    radix_bits: u32,
    rounds_total: u32,
    queries_executed: u64,
    /// Reused scratch for the refinement scatter; grows to the largest
    /// refinement step and is never reallocated afterwards.
    scratch: ScatterScratch,
}

impl ProgressiveRadixsortLsd {
    /// Creates a Progressive Radixsort (LSD) index with default
    /// configuration and synthetic cost constants.
    pub fn new(column: Arc<Column>, policy: BudgetPolicy) -> Self {
        Self::with_constants(column, policy, CostConstants::synthetic())
    }

    /// Creates the index with explicit cost constants.
    pub fn with_constants(
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
    ) -> Self {
        Self::with_config(column, policy, constants, RadixLsdConfig::default())
    }

    /// Creates the index with explicit cost constants and tuning knobs.
    pub fn with_config(
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
        config: RadixLsdConfig,
    ) -> Self {
        assert!(
            config.bucket_count.is_power_of_two()
                && (2..=MAX_SCATTER_BUCKETS).contains(&config.bucket_count),
            "bucket count must be a power of two in 2..=256"
        );
        let n = column.len();
        let model = CostModel::new(constants, n);
        let min = column.min();
        let domain_bits = crate::buckets::domain_bits(min, column.max());
        let radix_bits = config.bucket_count.trailing_zeros();
        let rounds_total = crate::buckets::radix_rounds(domain_bits, radix_bits);
        let state = if n == 0 {
            State::Sorted(Consolidation::new(Vec::new(), config.btree_fanout))
        } else {
            State::Creation {
                buckets: BucketSet::new(config.bucket_count, config.block_capacity),
                consumed: 0,
            }
        };
        ProgressiveRadixsortLsd {
            column,
            state,
            budget: BudgetController::new(policy),
            model,
            config,
            min,
            domain_bits,
            radix_bits,
            rounds_total,
            queries_executed: 0,
            scratch: ScatterScratch::new(),
        }
    }

    /// The cost model used by this index.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Number of radix passes this column needs before it is sorted
    /// (`⌈log2(max−min) / log2(b)⌉`, at least 1).
    pub fn rounds_total(&self) -> u32 {
        self.rounds_total
    }

    /// Number of significant bits in the value domain `[min, max]`; the
    /// LSD passes consume `log2(b)` of these bits per round.
    pub fn domain_bits(&self) -> u32 {
        self.domain_bits
    }

    fn n(&self) -> usize {
        self.column.len()
    }

    fn mask(&self) -> u64 {
        (self.config.bucket_count - 1) as u64
    }

    /// Bucket of `value` at radix round `round` (1-based).
    fn bucket_at_round(&self, value: Value, round: u32) -> usize {
        (((value - self.min) >> (self.radix_bits * (round - 1))) & self.mask()) as usize
    }

    fn current_delta(&mut self) -> f64 {
        let unit_cost = match &self.state {
            State::Creation { .. } | State::Refinement { .. } | State::Merging { .. } => {
                self.model.t_bucketize(self.config.block_capacity)
            }
            State::Sorted(tail) => return tail.delta(&self.model, &mut self.budget),
        };
        self.budget.delta_for_query(unit_cost)
    }

    // ------------------------------------------------------------------
    // Creation phase
    // ------------------------------------------------------------------

    fn query_creation(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let min = self.min;
        let mask = self.mask();
        let is_point = low == high;
        let point_bucket = if is_point && low >= min {
            Some(((low - min) & mask) as usize)
        } else {
            None
        };
        let State::Creation { buckets, consumed } = &mut self.state else {
            unreachable!("query_creation called outside the creation phase");
        };

        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        let mut index_scanned: u64 = 0;
        let data = self.column.data();
        let rho = *consumed as f64 / n.max(1) as f64;

        let use_fallback = !is_point;
        if use_fallback {
            // Wide range predicates cannot be pruned by LSD buckets: scan
            // the whole original column instead.
            result = scan_range_sum(data, low, high);
            scanned += n as u64;
        } else if let Some(b) = point_bucket {
            // Point query: only one bucket can contain the value.
            result = result.merge(buckets.bucket(b).range_sum(low, high));
            index_scanned += buckets.bucket(b).len() as u64;
            scanned += index_scanned;
        }

        // Scan the not-yet-indexed rest of the column (the fallback scan
        // has already covered it).
        let rest = &data[*consumed..];
        if !use_fallback {
            result = result.merge(scan_range_sum(rest, low, high));
            scanned += rest.len() as u64;
        }

        // Route its first δ·N elements into their buckets.
        let todo = ((delta * n as f64).ceil() as usize).min(rest.len());
        let digit = |v: Value| ((v - min) & mask) as u8;
        self.scratch.scatter_into(&rest[..todo], buckets, &digit);
        *consumed += todo;

        let alpha = if use_fallback {
            rho
        } else {
            index_scanned as f64 / n.max(1) as f64
        };
        let predicted = self
            .model
            .radix_creation(rho, alpha, delta, self.config.block_capacity);

        if *consumed == n {
            self.advance_after_creation();
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

    fn advance_after_creation(&mut self) {
        let bucket_count = self.config.bucket_count;
        let block_capacity = self.config.block_capacity;
        let rounds_total = self.rounds_total;
        let n = self.n();
        let State::Creation { buckets, .. } = &mut self.state else {
            return;
        };
        // Refinement scatters shorter runs; let the scratch regrow to those.
        self.scratch = ScatterScratch::new();
        let buckets = std::mem::replace(buckets, BucketSet::new(1, 1));
        if rounds_total <= 1 {
            self.state = State::Merging {
                buckets,
                cur_bucket: 0,
                cur_pos: 0,
                merged: vec![0; n],
                written: 0,
            };
        } else {
            self.state = State::Refinement {
                round: 2,
                source: buckets,
                target: BucketSet::new(bucket_count, block_capacity),
                src_bucket: 0,
                src_pos: 0,
            };
        }
    }

    // ------------------------------------------------------------------
    // Refinement phase (radix passes 2..=rounds_total)
    // ------------------------------------------------------------------

    fn query_refinement(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let min = self.min;
        let is_point = low == high;
        let bucket_count = self.config.bucket_count;
        let block_capacity = self.config.block_capacity;
        let rounds_total = self.rounds_total;

        // Answer the query first (field borrows are kept local).
        let (result, scanned, alpha) = {
            let State::Refinement {
                round,
                source,
                target,
                src_bucket,
                src_pos,
            } = &self.state
            else {
                unreachable!("query_refinement called outside the refinement phase");
            };
            if !is_point || low < min {
                // Fallback: wide range predicates scan the original column.
                let r = scan_range_sum(self.column.data(), low, high);
                (r, n as u64, 1.0)
            } else {
                let src_b = self.bucket_at_round(low, *round - 1);
                let tgt_b = self.bucket_at_round(low, *round);
                let consumed_in_src = if src_b < *src_bucket {
                    usize::MAX
                } else if src_b == *src_bucket {
                    *src_pos
                } else {
                    0
                };
                let mut r = source
                    .bucket(src_b)
                    .range_sum_from(consumed_in_src, low, high);
                r = r.merge(target.bucket(tgt_b).range_sum(low, high));
                let scanned = (source.bucket(src_b).len().saturating_sub(consumed_in_src)
                    + target.bucket(tgt_b).len()) as u64;
                (r, scanned, scanned as f64 / n.max(1) as f64)
            }
        };

        // Budgeted radix re-partitioning work.
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        {
            let State::Refinement {
                round,
                source,
                target,
                src_bucket,
                src_pos,
            } = &mut self.state
            else {
                unreachable!();
            };
            let shift = self.radix_bits * (*round - 1);
            let mask = (bucket_count - 1) as u64;
            let digit = |v: Value| (((v - min) >> shift) & mask) as u8;
            while ops < budget && *src_bucket < bucket_count {
                let bucket_len = source.bucket(*src_bucket).len();
                if *src_pos >= bucket_len {
                    source.clear_bucket(*src_bucket);
                    *src_bucket += 1;
                    *src_pos = 0;
                    continue;
                }
                let take = (budget - ops).min(bucket_len - *src_pos);
                // Drain the source bucket block-wise (no per-element
                // division), group each slice by target digit, then land
                // every group with one bulk append. The scatter is stable,
                // which the LSD passes rely on.
                for slice in source.bucket(*src_bucket).block_slices(*src_pos, take) {
                    self.scratch.scatter_into(slice, target, &digit);
                }
                *src_pos += take;
                ops += take;
            }
        }

        // Phase/round transition when the pass is complete.
        let pass_complete = {
            let State::Refinement { src_bucket, .. } = &self.state else {
                unreachable!();
            };
            *src_bucket >= bucket_count
        };
        if pass_complete {
            let State::Refinement { round, target, .. } = &mut self.state else {
                unreachable!();
            };
            let finished_round = *round;
            let new_buckets = std::mem::replace(target, BucketSet::new(1, 1));
            if finished_round >= rounds_total {
                self.state = State::Merging {
                    buckets: new_buckets,
                    cur_bucket: 0,
                    cur_pos: 0,
                    merged: vec![0; n],
                    written: 0,
                };
            } else {
                self.state = State::Refinement {
                    round: finished_round + 1,
                    source: new_buckets,
                    target: BucketSet::new(bucket_count, block_capacity),
                    src_bucket: 0,
                    src_pos: 0,
                };
            }
        }

        let predicted = self.model.radix_refinement(alpha, delta, block_capacity);
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

    // ------------------------------------------------------------------
    // Merging phase (write the final radix generation into a sorted array)
    // ------------------------------------------------------------------

    fn query_merging(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let is_point = low == high;
        let bucket_count = self.config.bucket_count;
        let top_round = self.rounds_total;
        let point_top_bucket = if is_point && low >= self.min {
            Some(self.bucket_at_round(low, top_round))
        } else {
            None
        };

        let State::Merging {
            buckets,
            cur_bucket,
            cur_pos,
            merged,
            written,
        } = &mut self.state
        else {
            unreachable!("query_merging called outside the merging phase");
        };

        // 1. Answer: the written prefix of `merged` is sorted; the rest of
        //    the data still lives in the remaining buckets.
        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        if low <= high {
            let prefix = &merged[..*written];
            let r = sorted::sorted_range_sum(prefix, low, high);
            scanned += r.count;
            result = result.merge(r);
            match point_top_bucket {
                Some(tb) => {
                    // Only one remaining bucket can contain the point value.
                    if tb > *cur_bucket {
                        result = result.merge(buckets.bucket(tb).range_sum(low, high));
                        scanned += buckets.bucket(tb).len() as u64;
                    } else if tb == *cur_bucket {
                        result =
                            result.merge(buckets.bucket(tb).range_sum_from(*cur_pos, low, high));
                        scanned += (buckets.bucket(tb).len() - *cur_pos) as u64;
                    }
                }
                None => {
                    // Range query: scan the unmerged remainder.
                    result = result.merge(
                        buckets
                            .bucket(*cur_bucket)
                            .range_sum_from(*cur_pos, low, high),
                    );
                    scanned += (buckets.bucket(*cur_bucket).len().saturating_sub(*cur_pos)) as u64;
                    for b in (*cur_bucket + 1)..bucket_count {
                        result = result.merge(buckets.bucket(b).range_sum(low, high));
                        scanned += buckets.bucket(b).len() as u64;
                    }
                }
            }
        }
        let alpha = scanned as f64 / n.max(1) as f64;

        // 2. Budgeted merge work: copy elements from the buckets, in
        //    order, into the final array.
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        while ops < budget && *cur_bucket < bucket_count {
            let bucket_len = buckets.bucket(*cur_bucket).len();
            if *cur_pos >= bucket_len {
                buckets.clear_bucket(*cur_bucket);
                *cur_bucket += 1;
                *cur_pos = 0;
                continue;
            }
            let take = (budget - ops).min(bucket_len - *cur_pos);
            // Block-wise copy instead of a per-element `get` (which costs
            // an integer division per element).
            buckets
                .bucket(*cur_bucket)
                .copy_range_to(*cur_pos, &mut merged[*written..*written + take]);
            *written += take;
            *cur_pos += take;
            ops += take;
        }

        let predicted = self
            .model
            .radix_refinement(alpha, delta, self.config.block_capacity);

        if *cur_bucket >= bucket_count {
            let sorted_data = std::mem::take(merged);
            self.state = State::Sorted(Consolidation::new(sorted_data, self.config.btree_fanout));
        }

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
}

impl RangeIndex for ProgressiveRadixsortLsd {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        self.queries_executed += 1;
        let delta = self.current_delta();
        match &mut self.state {
            State::Creation { .. } => self.query_creation(low, high, delta),
            State::Refinement { .. } => self.query_refinement(low, high, delta),
            State::Merging { .. } => self.query_merging(low, high, delta),
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
            State::Refinement { round, .. } => IndexStatus {
                phase: Phase::Refinement,
                fraction_indexed: 1.0,
                phase_progress: (*round - 1) as f64 / self.rounds_total.max(1) as f64,
                converged: false,
            },
            State::Merging { written, .. } => IndexStatus {
                phase: Phase::Refinement,
                fraction_indexed: 1.0,
                phase_progress: *written as f64 / n,
                converged: false,
            },
            State::Sorted(tail) => tail.status(),
        }
    }

    fn name(&self) -> &'static str {
        "progressive-radixsort-lsd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn rounds_total_matches_formula() {
        let mk = |max: u64| {
            ProgressiveRadixsortLsd::new(
                Arc::new(Column::from_vec(vec![0, max])),
                BudgetPolicy::FixedDelta(0.5),
            )
        };
        assert_eq!(mk(63).rounds_total(), 1);
        assert_eq!(mk(64).rounds_total(), 2);
        assert_eq!(mk((1 << 16) - 1).rounds_total(), 3);
        assert_eq!(mk(u64::MAX).rounds_total(), 11);
    }

    #[test]
    fn first_query_range_uses_fallback_and_is_correct() {
        let column = testing::random_column(50_000, 500_000, 77);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx = ProgressiveRadixsortLsd::new(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
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
            ProgressiveRadixsortLsd::new(Arc::new(column), BudgetPolicy::FixedDelta(0.25));
        for v in [0u64, 17, 4_999, 2_500] {
            let r = idx.point_query(v);
            assert_eq!(r.scan_result(), reference.query(v, v), "point query {v}");
        }
    }

    #[test]
    fn converges_and_stays_correct_on_ranges() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveRadixsortLsd::new(
                    column,
                    BudgetPolicy::FixedDelta(0.25),
                ))
            },
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_with_point_query_workload() {
        let column = Arc::new(testing::random_column(30_000, 10_000, 3));
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx =
            ProgressiveRadixsortLsd::new(Arc::clone(&column), BudgetPolicy::FixedDelta(0.2));
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
            |column| {
                Box::new(ProgressiveRadixsortLsd::new(
                    column,
                    BudgetPolicy::FixedDelta(0.2),
                ))
            },
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
                Box::new(ProgressiveRadixsortLsd::new(column, policy))
            },
            30_000,
            3_000_000,
        );
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![11; 6_000]));
        let mut idx = ProgressiveRadixsortLsd::new(column, BudgetPolicy::FixedDelta(0.5));
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
        let idx = ProgressiveRadixsortLsd::new(column, BudgetPolicy::FixedDelta(0.5));
        assert!(idx.is_converged());
    }
}
