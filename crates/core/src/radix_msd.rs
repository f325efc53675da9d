//! Progressive Radixsort, Most Significant Digits first (§3.2).
//!
//! [`Algorithm::RadixsortMsd`](crate::Algorithm::RadixsortMsd) runs the
//! shared lifecycle (budget, cost model, hand-over to consolidation,
//! status) over this module's creation and refinement state, which is
//! only what §3.2 says:
//!
//! * **Creation** — `b = 64` buckets are allocated in separate memory
//!   regions (linked blocks of `s_b` elements). Every query moves another
//!   `δ · N` elements of the base column into the bucket selected by the
//!   element's most significant `log2 b` bits — a single shift. Because
//!   the buckets form a *range partitioning* of the value domain, a query
//!   only needs to scan the buckets whose value range intersects its
//!   predicate, plus the unconsumed tail of the base column. The step
//!   itself is the one all bucket-based algorithms share
//!   (`BucketCreation`); this file supplies the digit and the buckets a
//!   predicate may touch.
//! * **Refinement** — each bucket is recursively re-partitioned by the
//!   next `log2 b` most significant bits. Buckets that fit in the L1 cache
//!   are not re-partitioned; they are copied straight into their (already
//!   known) position in the final sorted array and sorted there, by LSD
//!   passes over the bucket's value range when that range is narrow. A
//!   tree over the buckets answers queries on the intermediate structure.
//!
//! Once every bucket is merged the lifecycle takes the sorted array.

use std::collections::VecDeque;

use pi_storage::scan::ScanResult;
use pi_storage::{sorted, Column, Value};

use crate::buckets::{
    domain_bits, BlockBucket, BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT, RADIX_BITS,
};
use crate::cost_model::CostModel;
use crate::kernels::ScatterScratch;
use crate::lifecycle::{BucketCreation, Step};
use crate::result::Phase;
use crate::sorter::DEFAULT_SMALL_NODE_ELEMENTS;

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

/// Phase-specific state of the strategy.
#[derive(Debug)]
enum State {
    Creation(BucketCreation),
    Refinement(MsdTree),
}

/// The refinement phase: the tree over the buckets and the final sorted
/// array they are merged into.
#[derive(Debug)]
struct MsdTree {
    nodes: Vec<MsdNode>,
    /// Top-level node ids, in value order (one per creation bucket).
    top: Vec<usize>,
    /// Nodes waiting for refinement work, processed front to back.
    pending: VecDeque<usize>,
    /// The final sorted array under construction.
    merged: Vec<Value>,
    /// Total elements already written into `merged`.
    merged_len: usize,
    /// Reused scratch of the re-partitioning scatter and the leaf sorts.
    scratch: Box<ScatterScratch>,
}

/// The creation and refinement steps of Progressive Radixsort (MSD).
#[derive(Debug)]
pub(crate) struct RadixMsdStrategy {
    /// Column minimum (normalisation offset).
    min: Value,
    /// Shift that selects the most significant `log2 b` bits of the
    /// normalised domain: the creation digit, and the width of a
    /// top-level bucket.
    shift: u32,
    state: State,
}

impl RadixMsdStrategy {
    pub(crate) fn start(column: &Column) -> Self {
        RadixMsdStrategy {
            min: column.min(),
            shift: domain_bits(column.min(), column.max()).saturating_sub(RADIX_BITS),
            state: State::Creation(BucketCreation::new()),
        }
    }

    pub(crate) fn unit_cost(&self, model: &CostModel) -> f64 {
        model.t_bucketize(DEFAULT_BLOCK_CAPACITY)
    }

    pub(crate) fn progress(&self, n: usize) -> (Phase, f64) {
        match &self.state {
            State::Creation(creation) => creation.progress(n),
            State::Refinement(tree) => (Phase::Refinement, tree.merged_len as f64 / n as f64),
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
        const LAST: usize = DEFAULT_BUCKET_COUNT - 1;
        let (min, shift) = (self.min, self.shift);
        let creation = match &mut self.state {
            State::Creation(creation) => creation,
            State::Refinement(tree) => return tree.step(min, model, low, high, delta),
        };
        // The buckets range-partition the domain: only those the
        // predicate's ends route to, and the ones between, qualify.
        let lookup = if low <= high && high >= min {
            let first = ((low.saturating_sub(min) >> shift) as usize).min(LAST);
            let last = ((high - min) >> shift).min(LAST as u64) as usize;
            creation.scan_buckets(first, last, low, high)
        } else {
            (ScanResult::EMPTY, 0)
        };
        let digit = |v: Value| (((v - min) >> shift) as usize).min(LAST) as u8;
        let price = |rho, alpha| model.radix_creation(rho, alpha, delta, DEFAULT_BLOCK_CAPACITY);
        let (step, filled) = creation.step(column, low, high, delta, Some(lookup), &digit, price);
        if let Some(buckets) = filled {
            self.state = State::Refinement(MsdTree::new(buckets, shift));
        }
        step
    }

    pub(crate) fn take_sorted(&mut self) -> Option<Vec<Value>> {
        match &mut self.state {
            State::Refinement(tree)
                if tree.pending.is_empty() && tree.merged_len == tree.merged.len() =>
            {
                Some(std::mem::take(&mut tree.merged))
            }
            _ => None,
        }
    }
}

impl MsdTree {
    /// Builds the tree's top level from the creation buckets, each
    /// `2^shift` normalised values wide.
    fn new(buckets: BucketSet, shift: u32) -> Self {
        let n = buckets.len();
        let mut nodes = Vec::new();
        let mut top = Vec::new();
        let mut pending = VecDeque::new();
        let mut offset = 0usize;
        for (i, bucket) in buckets.into_buckets().into_iter().enumerate() {
            let len = bucket.len();
            let node = MsdNode {
                base: (i as u64) << shift,
                width_bits: shift,
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
        MsdTree {
            nodes,
            top,
            pending,
            merged: vec![0; n],
            merged_len: 0,
            scratch: Box::default(),
        }
    }

    /// Executes one refinement-phase query.
    fn step(&mut self, min: Value, model: &CostModel, low: Value, high: Value, delta: f64) -> Step {
        let n = self.merged.len();

        // 1. Answer the query from the intermediate structure.
        let mut answer = ScanResult::EMPTY;
        let mut scanned = 0u64;
        if low <= high && high >= min {
            let nlow = low.saturating_sub(min);
            let nhigh = high - min;
            for &id in &self.top {
                let (r, s) = query_msd_node(&self.nodes, id, &self.merged, nlow, nhigh, low, high);
                answer = answer.merge(r);
                scanned += s;
            }
        }
        let alpha = scanned as f64 / n as f64;

        // 2. Budgeted refinement work.
        let budget = ((delta * n as f64).ceil() as usize).max(1);
        let mut ops = 0usize;
        while ops < budget {
            let Some(&node_id) = self.pending.front() else {
                break;
            };
            let (done, used) = self.refine_node(node_id, min, budget - ops);
            ops += used;
            if done {
                self.pending.pop_front();
            }
        }

        Step {
            answer,
            scanned,
            ops: ops as u64,
            predicted: model.radix_refinement(alpha, delta, DEFAULT_BLOCK_CAPACITY),
        }
    }

    /// Performs up to `budget` operations of refinement work on one node.
    /// Returns `(node finished, operations used)`.
    fn refine_node(&mut self, id: usize, min: Value, budget: usize) -> (bool, usize) {
        if budget == 0 {
            return (false, 0);
        }
        let node_len = self.nodes[id].len;
        let node_offset = self.nodes[id].offset;
        let node_base = self.nodes[id].base;
        let node_width = self.nodes[id].width_bits;

        if matches!(self.nodes[id].state, MsdNodeState::Pending { .. }) {
            let state = std::mem::replace(&mut self.nodes[id].state, MsdNodeState::Merged);
            let MsdNodeState::Pending { bucket } = state else {
                unreachable!("state checked above");
            };
            // Small buckets — or buckets whose values can no longer differ
            // — are sorted straight into the final array.
            if node_len <= DEFAULT_SMALL_NODE_ELEMENTS || node_width == 0 {
                let out = &mut self.merged[node_offset..node_offset + node_len];
                bucket.copy_range_to(0, out);
                self.scratch.sort_leaf(out);
                self.merged_len += node_len;
                return (true, node_len.max(1));
            }
            // Begin re-partitioning: convert Pending into Refining with
            // freshly allocated child nodes.
            let shift = node_width.saturating_sub(RADIX_BITS);
            let child_count = DEFAULT_BUCKET_COUNT.min(1usize << (node_width - shift).min(63));
            let mut children = Vec::with_capacity(child_count);
            for c in 0..child_count {
                let child = MsdNode {
                    base: node_base + ((c as u64) << shift),
                    width_bits: shift,
                    len: 0,
                    offset: 0, // fixed up when the re-partitioning completes
                    state: MsdNodeState::Pending {
                        bucket: BlockBucket::new(DEFAULT_BLOCK_CAPACITY),
                    },
                };
                children.push(self.nodes.len());
                self.nodes.push(child);
            }
            self.nodes[id].state = MsdNodeState::Refining {
                source: bucket,
                consumed: 0,
                children,
            };
        }

        self.refine_step(id, min, budget)
    }

    /// Moves up to `budget` elements of a `Refining` node from its source
    /// bucket into its children; finalises child offsets and enqueues the
    /// children when the source is exhausted.
    fn refine_step(&mut self, id: usize, min: Value, budget: usize) -> (bool, usize) {
        let node_base = self.nodes[id].base;
        let node_width = self.nodes[id].width_bits;
        let node_offset = self.nodes[id].offset;

        // Take the state out to side-step simultaneous borrows of the arena.
        let placeholder = MsdNodeState::Merged;
        let MsdNodeState::Refining {
            source,
            mut consumed,
            children,
        } = std::mem::replace(&mut self.nodes[id].state, placeholder)
        else {
            unreachable!("refine_step requires a Refining node");
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
            let (grouped, offsets) = self.scratch.scatter(slice, child_count, &digit);
            for (c, &child_id) in children.iter().enumerate() {
                let group = &grouped[offsets[c]..offsets[c + 1]];
                if group.is_empty() {
                    continue;
                }
                let MsdNodeState::Pending { bucket } = &mut self.nodes[child_id].state else {
                    unreachable!("children of a refining node are pending buckets");
                };
                bucket.extend_from_slice(group);
                self.nodes[child_id].len += group.len();
            }
        }
        consumed += take;

        if consumed == source.len() {
            // Fix up child offsets (value order == child order) and enqueue
            // non-empty children for further refinement.
            let mut offset = node_offset;
            for &child_id in &children {
                self.nodes[child_id].offset = offset;
                offset += self.nodes[child_id].len;
                if self.nodes[child_id].len > 0 {
                    self.pending.push_back(child_id);
                }
            }
            // The source bucket is dropped; queries now route through the
            // children.
            self.nodes[id].state = MsdNodeState::Refining {
                source: BlockBucket::new(1),
                consumed: 0,
                children,
            };
            (true, take)
        } else {
            self.nodes[id].state = MsdNodeState::Refining {
                source,
                consumed,
                children,
            };
            (false, take)
        }
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
        let levels = |max: u64| crate::buckets::radix_rounds(domain_bits(0, max), RADIX_BITS);
        assert_eq!(levels(63), 1);
        assert_eq!(levels(64), 2);
        assert_eq!(levels(u64::MAX), crate::buckets::max_radix_levels(6));
    }

    #[test]
    fn first_query_correct_and_bounded_work() {
        let column = testing::random_column(80_000, 1_000_000, 21);
        let reference = testing::ReferenceIndex::new(&column);
        let mut idx =
            Algorithm::RadixsortMsd.build(Arc::new(column), BudgetPolicy::FixedDelta(0.1));
        let r = idx.query(5_000, 60_000);
        assert_eq!(r.scan_result(), reference.query(5_000, 60_000));
        assert!(r.indexing_ops <= (0.1f64 * 80_000.0).ceil() as u64);
        assert_eq!(r.phase, Phase::Creation);
    }

    #[test]
    fn converges_and_stays_correct() {
        testing::assert_index_converges(
            |column| Algorithm::RadixsortMsd.build(column, BudgetPolicy::FixedDelta(0.25)),
            50_000,
            500_000,
        );
    }

    #[test]
    fn converges_with_small_delta_and_narrow_domain() {
        testing::assert_index_converges(
            |column| Algorithm::RadixsortMsd.build(column, BudgetPolicy::FixedDelta(0.05)),
            20_000,
            300,
        );
    }

    #[test]
    fn converges_on_skewed_duplicated_data() {
        testing::assert_index_converges(
            |column| Algorithm::RadixsortMsd.build(column, BudgetPolicy::FixedDelta(0.2)),
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
                Algorithm::RadixsortMsd.build(column, policy)
            },
            30_000,
            3_000_000,
        );
    }

    #[test]
    fn single_value_column_converges() {
        let column = Arc::new(Column::from_vec(vec![9; 10_000]));
        let mut idx = Algorithm::RadixsortMsd.build(column, BudgetPolicy::FixedDelta(0.5));
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
        let mut idx = Algorithm::RadixsortMsd.build(column, BudgetPolicy::FixedDelta(0.5));
        assert!(idx.is_converged());
        let r = idx.query(0, 100);
        assert_eq!(r.count, 0);
    }

    #[test]
    fn phases_progress_in_order() {
        let column = Arc::new(testing::random_column(30_000, 1_000_000, 5));
        let reference = testing::ReferenceIndex::new(&Column::from_vec(column.data().to_vec()));
        let mut idx =
            Algorithm::RadixsortMsd.build(Arc::clone(&column), BudgetPolicy::FixedDelta(0.3));
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
