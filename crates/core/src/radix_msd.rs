//! Progressive Radixsort, Most Significant Digits first (§3.2).
//!
//! * **Creation** — `b = 64` buckets are allocated in separate memory
//!   regions (linked blocks of `s_b` elements). Every query moves another
//!   `δ · N` elements of the base column into the bucket selected by the
//!   element's most significant `log2 b` bits — a single shift. Because
//!   the buckets form a *range partitioning* of the value domain, a query
//!   only needs to scan the buckets whose value range intersects its
//!   predicate, plus the unconsumed tail of the base column.
//! * **Refinement** — each bucket is recursively re-partitioned by the
//!   next `log2 b` most significant bits. Buckets that fit in the L1 cache
//!   are not re-partitioned; they are sorted and written straight into
//!   their (already known) position in the final sorted array. A tree over
//!   the buckets answers queries on the intermediate structure.
//! * **Consolidation** — identical to Progressive Quicksort: a B+-tree is
//!   built over the final sorted array, `δ · N_copy` copies per query.

use std::collections::VecDeque;
use std::sync::Arc;

use pi_storage::btree::DEFAULT_FANOUT;
use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{sorted, Column, Value};

use crate::buckets::{
    domain_bits, BlockBucket, BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT,
};
use crate::budget::{BudgetController, BudgetPolicy};
use crate::consolidation::Consolidation;
use crate::cost_model::{CostConstants, CostModel};
use crate::index::RangeIndex;
use crate::kernels::{ScatterScratch, MAX_SCATTER_BUCKETS};
use crate::result::{IndexStatus, Phase, QueryResult};
use crate::sorter::DEFAULT_SMALL_NODE_ELEMENTS;

/// Tuning parameters for [`ProgressiveRadixsortMsd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadixMsdConfig {
    /// Number of buckets `b` per partitioning level (a power of two in
    /// `2..=256`, defaults to 64).
    pub bucket_count: usize,
    /// Elements per bucket block (`s_b`).
    pub block_capacity: usize,
    /// Buckets at most this large are sorted directly into the final array
    /// instead of being re-partitioned (L1-cache-sized pieces).
    pub small_bucket_elements: usize,
    /// Fan-out β of the consolidation-phase B+-tree.
    pub btree_fanout: usize,
}

impl Default for RadixMsdConfig {
    fn default() -> Self {
        RadixMsdConfig {
            bucket_count: DEFAULT_BUCKET_COUNT,
            block_capacity: DEFAULT_BLOCK_CAPACITY,
            small_bucket_elements: DEFAULT_SMALL_NODE_ELEMENTS,
            btree_fanout: DEFAULT_FANOUT,
        }
    }
}

/// One node of the refinement tree. Values are *normalised* (the column
/// minimum is subtracted) so nodes cover the normalised range
/// `[base, base + 2^width_bits)`.
#[derive(Debug)]
struct MsdNode {
    /// Smallest normalised value this node can contain.
    base: u64,
    /// Number of low-order bits in which this node's values may still vary.
    width_bits: u32,
    /// Number of elements in this node's subtree.
    len: usize,
    /// Start offset of this node's value range in the final sorted array.
    offset: usize,
    state: MsdNodeState,
}

#[derive(Debug)]
enum MsdNodeState {
    /// Raw bucket, not yet processed by the refinement phase.
    Pending { bucket: BlockBucket },
    /// Bucket being re-partitioned into `children` by `shift`.
    Refining {
        source: BlockBucket,
        consumed: usize,
        children: Vec<usize>,
    },
    /// All elements written (sorted) into the final array at
    /// `[offset, offset + len)`.
    Merged,
}

/// Phase-specific state of the index.
#[derive(Debug)]
enum State {
    Creation {
        buckets: BucketSet,
        consumed: usize,
    },
    Refinement {
        nodes: Vec<MsdNode>,
        /// Top-level node ids, in value order (one per creation bucket).
        top: Vec<usize>,
        /// Nodes waiting for refinement work, processed front to back.
        pending: VecDeque<usize>,
        /// The final sorted array under construction.
        merged: Vec<Value>,
        /// Total elements already written into `merged`.
        merged_len: usize,
    },
    /// Consolidation and converged phases.
    Sorted(Consolidation),
}

/// Progressive Radixsort (MSD) index over a single integer column.
pub struct ProgressiveRadixsortMsd {
    column: Arc<Column>,
    state: State,
    budget: BudgetController,
    model: CostModel,
    config: RadixMsdConfig,
    /// Column minimum (normalisation offset) and number of significant
    /// bits of the normalised domain.
    min: Value,
    domain_bits: u32,
    radix_bits: u32,
    queries_executed: u64,
    /// Reused scratch for the refinement scatter.
    scratch: ScatterScratch,
}

impl ProgressiveRadixsortMsd {
    /// Creates a Progressive Radixsort (MSD) index with default
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
        Self::with_config(column, policy, constants, RadixMsdConfig::default())
    }

    /// Creates the index with explicit cost constants and tuning knobs.
    pub fn with_config(
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
        config: RadixMsdConfig,
    ) -> Self {
        assert!(
            config.bucket_count.is_power_of_two()
                && (2..=MAX_SCATTER_BUCKETS).contains(&config.bucket_count),
            "bucket count must be a power of two in 2..=256"
        );
        let n = column.len();
        let model = CostModel::new(constants, n);
        let min = column.min();
        let domain_bits = domain_bits(column.min(), column.max());
        let radix_bits = config.bucket_count.trailing_zeros();
        let state = if n == 0 {
            State::Sorted(Consolidation::new(Vec::new(), config.btree_fanout))
        } else {
            State::Creation {
                buckets: BucketSet::new(config.bucket_count, config.block_capacity),
                consumed: 0,
            }
        };
        ProgressiveRadixsortMsd {
            column,
            state,
            budget: BudgetController::new(policy),
            model,
            config,
            min,
            domain_bits,
            radix_bits,
            queries_executed: 0,
            scratch: ScatterScratch::new(),
        }
    }

    /// The cost model used by this index.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Upper bound on the refinement tree's partitioning depth for this
    /// column: `⌈domain_bits / log2 b⌉`, capped by
    /// [`crate::buckets::max_radix_levels`]. Shares its sizing helper
    /// ([`crate::buckets::radix_rounds`]) with the LSD variant's
    /// [`crate::radix_lsd::ProgressiveRadixsortLsd::rounds_total`].
    pub fn levels_total(&self) -> u32 {
        crate::buckets::radix_rounds(self.domain_bits, self.radix_bits)
    }

    fn n(&self) -> usize {
        self.column.len()
    }

    /// Shift applied at the first (creation) partitioning level.
    fn creation_shift(&self) -> u32 {
        self.domain_bits.saturating_sub(self.radix_bits)
    }

    fn current_delta(&mut self) -> f64 {
        let unit_cost = match &self.state {
            State::Creation { .. } | State::Refinement { .. } => {
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
        let shift = self.creation_shift();
        let bucket_count = self.config.bucket_count;
        let State::Creation { buckets, consumed } = &mut self.state else {
            unreachable!("query_creation called outside the creation phase");
        };

        // 1. Scan the buckets that can contain qualifying values.
        let mut result = ScanResult::EMPTY;
        let mut scanned: u64 = 0;
        if low <= high && high >= min {
            let lo_b = ((low.saturating_sub(min) >> shift) as usize).min(bucket_count - 1);
            let hi_b = ((high - min) >> shift).min(bucket_count as u64 - 1) as usize;
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

        // 3. Move its first δ·N elements into the buckets.
        let todo = ((delta * n as f64).ceil() as usize).min(rest.len());
        let digit = |v: Value| (((v - min) >> shift) as usize).min(bucket_count - 1) as u8;
        self.scratch.scatter_into(&rest[..todo], buckets, &digit);
        *consumed += todo;

        let predicted = self
            .model
            .radix_creation(rho, alpha, delta, self.config.block_capacity);

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

    /// Builds the refinement tree's top level from the creation buckets.
    fn start_refinement(&mut self) {
        let n = self.n();
        let State::Creation { buckets, .. } = &mut self.state else {
            return;
        };
        // Refinement scatters shorter runs; let the scratch regrow to those.
        self.scratch = ScatterScratch::new();
        let shift = self.domain_bits.saturating_sub(self.radix_bits);
        let child_width = shift;
        let mut nodes = Vec::new();
        let mut top = Vec::new();
        let mut pending = VecDeque::new();
        let mut offset = 0usize;
        let old = std::mem::replace(buckets, BucketSet::new(1, 1));
        for (i, bucket) in old.into_buckets().into_iter().enumerate() {
            let len = bucket.len();
            let node = MsdNode {
                base: (i as u64) << shift,
                width_bits: child_width,
                len,
                offset,
                state: MsdNodeState::Pending { bucket },
            };
            offset += len;
            let id = nodes.len();
            nodes.push(node);
            top.push(id);
            if len > 0 {
                pending.push_back(id);
            }
        }
        self.state = State::Refinement {
            nodes,
            top,
            pending,
            merged: vec![0; n],
            merged_len: 0,
        };
        self.maybe_finish_refinement();
    }

    // ------------------------------------------------------------------
    // Refinement phase
    // ------------------------------------------------------------------

    fn query_refinement(&mut self, low: Value, high: Value, delta: f64) -> QueryResult {
        let n = self.n();
        let min = self.min;
        let block_capacity = self.config.block_capacity;
        let bucket_count = self.config.bucket_count;
        let small = self.config.small_bucket_elements;

        let State::Refinement {
            nodes,
            top,
            pending,
            merged,
            merged_len,
        } = &mut self.state
        else {
            unreachable!("query_refinement called outside the refinement phase");
        };

        // 1. Answer the query from the intermediate structure.
        let (result, scanned) = if low > high {
            (ScanResult::EMPTY, 0)
        } else {
            let nlow = low.saturating_sub(min);
            let nhigh = high.saturating_sub(min);
            let mut result = ScanResult::EMPTY;
            let mut scanned = 0u64;
            if high >= min {
                for &id in top.iter() {
                    let (r, s) = query_msd_node(nodes, id, merged, nlow, nhigh, low, high);
                    result = result.merge(r);
                    scanned += s;
                }
            }
            (result, scanned)
        };
        let alpha = scanned as f64 / n.max(1) as f64;

        // 2. Budgeted refinement work.
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        while ops < budget {
            let Some(&node_id) = pending.front() else {
                break;
            };
            let (done, used) = refine_msd_node(
                nodes,
                node_id,
                merged,
                merged_len,
                pending,
                min,
                bucket_count,
                block_capacity,
                small,
                budget - ops,
                &mut self.scratch,
            );
            ops += used;
            if done {
                pending.pop_front();
            }
        }

        let predicted = self.model.radix_refinement(alpha, delta, block_capacity);
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
            pending,
            merged,
            merged_len,
            ..
        } = &mut self.state
        else {
            return;
        };
        if !pending.is_empty() || *merged_len < merged.len() {
            return;
        }
        let sorted_data = std::mem::take(merged);
        self.state = State::Sorted(Consolidation::new(sorted_data, self.config.btree_fanout));
    }
}

/// Answers a range query over one refinement-tree node (recursively).
#[allow(clippy::too_many_arguments)]
fn query_msd_node(
    nodes: &[MsdNode],
    id: usize,
    merged: &[Value],
    nlow: u64,
    nhigh: u64,
    low: Value,
    high: Value,
) -> (ScanResult, u64) {
    let node = &nodes[id];
    // Normalised value range covered by this node.
    let node_lo = node.base;
    let node_hi = node_upper(node);
    if nlow > node_hi || nhigh < node_lo || node.len == 0 {
        return (ScanResult::EMPTY, 0);
    }
    match &node.state {
        MsdNodeState::Pending { bucket } => {
            let r = bucket.range_sum(low, high);
            (r, bucket.len() as u64)
        }
        MsdNodeState::Merged => {
            let slice = &merged[node.offset..node.offset + node.len];
            let r = sorted::sorted_range_sum(slice, low, high);
            (r, r.count)
        }
        MsdNodeState::Refining {
            source,
            consumed,
            children,
        } => {
            // Unconsumed elements still sit in the source bucket.
            let mut result = source.range_sum_from(*consumed, low, high);
            let mut scanned = (source.len() - consumed) as u64;
            for &child in children {
                let (r, s) = query_msd_node(nodes, child, merged, nlow, nhigh, low, high);
                result = result.merge(r);
                scanned += s;
            }
            (result, scanned)
        }
    }
}

/// Upper (inclusive) normalised value a node can contain.
fn node_upper(node: &MsdNode) -> u64 {
    if node.width_bits >= 64 {
        u64::MAX
    } else {
        node.base + ((1u64 << node.width_bits) - 1)
    }
}

/// Performs up to `budget` operations of refinement work on one node.
/// Returns `(node finished, operations used)`.
#[allow(clippy::too_many_arguments)]
fn refine_msd_node(
    nodes: &mut Vec<MsdNode>,
    id: usize,
    merged: &mut [Value],
    merged_len: &mut usize,
    pending: &mut VecDeque<usize>,
    min: Value,
    bucket_count: usize,
    block_capacity: usize,
    small: usize,
    budget: usize,
    scratch: &mut ScatterScratch,
) -> (bool, usize) {
    if budget == 0 {
        return (false, 0);
    }
    let node_len = nodes[id].len;
    let node_offset = nodes[id].offset;
    let node_base = nodes[id].base;
    let node_width = nodes[id].width_bits;

    // Small buckets — or buckets whose values can no longer differ — are
    // sorted straight into the final array.
    let merge_directly = node_len <= small || node_width == 0;
    let is_pending = matches!(nodes[id].state, MsdNodeState::Pending { .. });

    if is_pending && merge_directly {
        let state = std::mem::replace(&mut nodes[id].state, MsdNodeState::Merged);
        let MsdNodeState::Pending { bucket } = state else {
            unreachable!("state checked above");
        };
        let out = &mut merged[node_offset..node_offset + node_len];
        bucket.copy_range_to(0, out);
        out.sort_unstable();
        *merged_len += node_len;
        return (true, node_len.max(1));
    }

    if is_pending {
        // Begin re-partitioning: convert Pending into Refining with freshly
        // allocated child nodes.
        let state = std::mem::replace(&mut nodes[id].state, MsdNodeState::Merged);
        let MsdNodeState::Pending { bucket } = state else {
            unreachable!("state checked above");
        };
        let radix_bits = bucket_count.trailing_zeros();
        let shift = node_width.saturating_sub(radix_bits);
        let child_count = bucket_count.min(1usize << (node_width - shift).min(63));
        let mut children = Vec::with_capacity(child_count);
        for c in 0..child_count {
            let child = MsdNode {
                base: node_base + ((c as u64) << shift),
                width_bits: shift,
                len: 0,
                offset: 0, // fixed up when the re-partitioning completes
                state: MsdNodeState::Pending {
                    bucket: BlockBucket::new(block_capacity),
                },
            };
            children.push(nodes.len());
            nodes.push(child);
        }
        nodes[id].state = MsdNodeState::Refining {
            source: bucket,
            consumed: 0,
            children,
        };
    }

    refine_msd_step(nodes, id, pending, min, budget, scratch)
}

/// Moves up to `budget` elements of a `Refining` node from its source
/// bucket into its children; finalises child offsets and enqueues the
/// children when the source is exhausted.
fn refine_msd_step(
    nodes: &mut [MsdNode],
    id: usize,
    pending: &mut VecDeque<usize>,
    min: Value,
    budget: usize,
    scratch: &mut ScatterScratch,
) -> (bool, usize) {
    let node_base = nodes[id].base;
    let node_width = nodes[id].width_bits;
    let node_offset = nodes[id].offset;

    // Take the state out to side-step simultaneous borrows of the arena.
    let placeholder = MsdNodeState::Merged;
    let MsdNodeState::Refining {
        source,
        mut consumed,
        children,
    } = std::mem::replace(&mut nodes[id].state, placeholder)
    else {
        unreachable!("refine_msd_step requires a Refining node");
    };

    let radix_bits = (children.len().max(1)).next_power_of_two().trailing_zeros();
    let shift = node_width.saturating_sub(radix_bits);
    let child_count = children.len();
    // Drain the source bucket block-wise, group each slice by child digit
    // (the value's next radix digit relative to the node's normalised
    // base), then land each group in its child with one bulk append.
    let take = (source.len() - consumed).min(budget);
    let digit = |v: Value| {
        let local = ((v - min) - node_base) >> shift;
        (local as usize).min(child_count - 1) as u8
    };
    for slice in source.block_slices(consumed, take) {
        let (grouped, offsets) = scratch.scatter(slice, child_count, &digit);
        for (c, &child_id) in children.iter().enumerate() {
            let group = &grouped[offsets[c]..offsets[c + 1]];
            if group.is_empty() {
                continue;
            }
            let MsdNodeState::Pending { bucket } = &mut nodes[child_id].state else {
                unreachable!("children of a refining node are pending buckets");
            };
            bucket.extend_from_slice(group);
            nodes[child_id].len += group.len();
        }
    }
    consumed += take;

    if consumed == source.len() {
        // Fix up child offsets (value order == child order) and enqueue
        // non-empty children for further refinement.
        let mut offset = node_offset;
        for &child_id in &children {
            nodes[child_id].offset = offset;
            offset += nodes[child_id].len;
            if nodes[child_id].len > 0 {
                pending.push_back(child_id);
            }
        }
        // The source bucket is dropped; queries now route through the
        // children.
        nodes[id].state = MsdNodeState::Refining {
            source: BlockBucket::new(1),
            consumed: 0,
            children,
        };
        (true, take)
    } else {
        nodes[id].state = MsdNodeState::Refining {
            source,
            consumed,
            children,
        };
        (false, take)
    }
}

impl RangeIndex for ProgressiveRadixsortMsd {
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
            State::Refinement { merged_len, .. } => IndexStatus {
                phase: Phase::Refinement,
                fraction_indexed: 1.0,
                phase_progress: *merged_len as f64 / n,
                converged: false,
            },
            State::Sorted(tail) => tail.status(),
        }
    }

    fn name(&self) -> &'static str {
        "progressive-radixsort-msd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn domain_bits_examples() {
        assert_eq!(domain_bits(0, 0), 0);
        assert_eq!(domain_bits(5, 5), 0);
        assert_eq!(domain_bits(0, 1), 1);
        assert_eq!(domain_bits(0, 63), 6);
        assert_eq!(domain_bits(0, 64), 7);
        assert_eq!(domain_bits(100, 163), 6);
        assert_eq!(domain_bits(0, u64::MAX), 64);
    }

    #[test]
    fn levels_total_uses_shared_radix_sizing() {
        let mk = |max: u64| {
            ProgressiveRadixsortMsd::new(
                Arc::new(Column::from_vec(vec![0, max])),
                BudgetPolicy::FixedDelta(0.5),
            )
        };
        assert_eq!(mk(63).levels_total(), 1);
        assert_eq!(mk(64).levels_total(), 2);
        assert_eq!(
            mk(u64::MAX).levels_total(),
            crate::buckets::max_radix_levels(6)
        );
    }

    #[test]
    fn first_query_correct_and_bounded_work() {
        let column = testing::random_column(80_000, 1_000_000, 21);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx = ProgressiveRadixsortMsd::new(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
        let r = idx.query(5_000, 60_000);
        assert_eq!(r.scan_result(), reference.query(5_000, 60_000));
        assert!(r.indexing_ops <= (0.1f64 * 80_000.0).ceil() as u64);
        assert_eq!(r.phase, Phase::Creation);
    }

    #[test]
    fn converges_and_stays_correct() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveRadixsortMsd::new(
                    column,
                    BudgetPolicy::FixedDelta(0.25),
                ))
            },
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_with_small_delta_and_narrow_domain() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveRadixsortMsd::new(
                    column,
                    BudgetPolicy::FixedDelta(0.05),
                ))
            },
            20_000,
            300,
        );
    }

    #[test]
    fn converges_on_skewed_duplicated_data() {
        testing::assert_index_converges(
            |column| {
                Box::new(ProgressiveRadixsortMsd::new(
                    column,
                    BudgetPolicy::FixedDelta(0.2),
                ))
            },
            40_000,
            1_000,
        );
    }

    #[test]
    fn converges_under_adaptive_budget() {
        testing::assert_index_converges(
            |column| {
                let model = CostModel::new(CostConstants::synthetic(), column.len());
                let policy = BudgetPolicy::adaptive_scan_fraction(&model, 0.2);
                Box::new(ProgressiveRadixsortMsd::new(column, policy))
            },
            30_000,
            3_000_000,
        );
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![9; 10_000]));
        let mut idx = ProgressiveRadixsortMsd::new(column, BudgetPolicy::FixedDelta(0.5));
        for _ in 0..50 {
            let r = idx.query(9, 9);
            assert_eq!(r.count, 10_000);
            if idx.is_converged() {
                break;
            }
        }
        assert!(idx.is_converged());
    }

    #[test]
    fn empty_column_starts_converged() {
        let column = Arc::new(Column::from_vec(vec![]));
        let mut idx = ProgressiveRadixsortMsd::new(column, BudgetPolicy::FixedDelta(0.5));
        assert!(idx.is_converged());
        let r = idx.query(0, 100);
        assert_eq!(r.count, 0);
    }

    #[test]
    fn phases_progress_in_order() {
        let column = Arc::new(testing::random_column(30_000, 1_000_000, 5));
        let reference = testing::ReferenceIndex::new(&Column::from_vec(column.data().to_vec()));
        let mut idx =
            ProgressiveRadixsortMsd::new(Arc::clone(&column), BudgetPolicy::FixedDelta(0.3));
        let mut last_phase = Phase::Creation;
        for i in 0..300u64 {
            let low = (i * 991) % 1_000_000;
            let high = (low + 50_000).min(999_999);
            let r = idx.query(low, high);
            assert_eq!(r.scan_result(), reference.query(low, high), "query {i}");
            let phase = idx.status().phase;
            assert!(phase >= last_phase);
            last_phase = phase;
            if idx.is_converged() {
                break;
            }
        }
        assert!(idx.is_converged());
    }
}
