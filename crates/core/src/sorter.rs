//! Budgeted in-place incremental quicksort with query support over the
//! partially sorted state.
//!
//! This is the machinery behind the *refinement phase* of Progressive
//! Quicksort (§3.1) and, reused per bucket, behind the refinement phase of
//! Progressive Bucketsort (§3.3): "We refine the index by recursively
//! continuing the quicksort in-place in the separate sections. … We
//! maintain a binary tree of the pivot points. In the nodes of this tree,
//! we keep track of the pivot points and how far along the pivoting
//! process we are."
//!
//! The sorter owns no data; it holds a tree of sort nodes describing a
//! region `[start, end)` of an external array and exposes:
//!
//! * [`IncrementalSorter::refine`] — perform up to a budgeted number of
//!   element operations (one per element the interruptible partition
//!   examines, or whole-node sorts for nodes that fit in the L1 cache,
//!   run by [`ScatterScratch`]'s leaf-sort kernel over the node's actual
//!   value range and counted as the node's length),
//!   preferring the parts of the tree a focus predicate needs, exactly as
//!   the paper prescribes ("we focus on refining parts of the index that
//!   are required for query processing. After these parts have been
//!   refined, the refinement process starts processing the neighboring
//!   parts").
//! * [`IncrementalSorter::query`] — answer a range-sum over the current
//!   partially sorted state, using the pivot tree to skip sections that
//!   cannot contain qualifying values.
//!
//! The partition is one predicated pass (Lomuto's scheme): every examined
//! element is swapped with the first value known to exceed the pivot and
//! the boundary advances by the comparison's outcome, so the loop has no
//! data-dependent branch for a pivot to mispredict. A finished node splits
//! at the count of its values ≤ pivot whatever order they were visited in,
//! so the indexing schedule depends on the values alone.
//!
//! A node pivots at the midpoint of the bounds it inherits, with one
//! exception. The same pass counts the values equal to the node's `min`
//! and to its `max` ([`Edges`]): one compare against constants, and a
//! branch only a bound value takes. Each count passes to the child that
//! inherits that bound. A child in which its inherited bound value holds
//! at least half of the elements pivots at that value (`min`, or
//! `max − 1`), so its run of equal values becomes a `min == max` child,
//! sorted by definition. Split keys land on a heavy value (an equi-depth
//! shard, an equi-height bucket, a column minimum), so the heavy value
//! sits at a node's edge. Such a run then costs one extra pass, not one
//! pass per level of midpoints. The counts are a function of the node's
//! values alone, like the split itself.

use pi_storage::scan::{scan_range_sum, ScanResult};
use pi_storage::{sorted, Value};

use crate::kernels::ScatterScratch;

/// Number of elements below which a node is sorted outright instead of
/// being partitioned further ("When we reach a node that is smaller than
/// the L1 cache, we sort the entire node"): 32 KiB of 8-byte values.
pub(crate) const DEFAULT_SMALL_NODE_ELEMENTS: usize = 4096;

/// Progress state of one node of the pivot tree.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeState {
    /// Interruptible in-place partition around `pivot`, one element
    /// examined per operation.
    ///
    /// Invariant over the node's range `[start, end)` of the external
    /// array: `data[start..lo]` ≤ pivot, `data[lo..next]` > pivot,
    /// `data[next..end]` not yet examined. `edges` counts the examined
    /// values equal to the node's `min` and to its `max`.
    Partitioning {
        pivot: Value,
        lo: usize,
        next: usize,
        edges: Edges,
    },
    /// Partition finished; the node has two children.
    Split {
        pivot: Value,
        left: usize,
        right: usize,
    },
    /// The node's range is fully sorted.
    Sorted,
}

/// How many values of a node equal its `min` and its `max`. A partition
/// pass counts them over the node's own values; a child inherits the
/// count of the bound it shares with its parent, and 0 for the bound its
/// parent's pivot made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Edges {
    pub(crate) at_min: usize,
    pub(crate) at_max: usize,
}

impl Edges {
    /// Counts `value`, one of a node's values in `[min, max]`, if it
    /// equals a bound. `value − min − 1` wraps past `max − min − 1` for
    /// `min` and equals it for `max`, so values strictly inside pay one
    /// compare and a branch that is not taken: data without a run at a
    /// bound keeps the pass it had (a predicated count per bound cost the
    /// pass 30% or more; PERFORMANCE.md, "A heavy value: one pass").
    #[inline]
    pub(crate) fn count(&mut self, value: Value, min: Value, max: Value) {
        if value.wrapping_sub(min).wrapping_sub(1) >= max.wrapping_sub(min).wrapping_sub(1) {
            if value == min {
                self.at_min += 1;
            } else {
                self.at_max += 1;
            }
        }
    }
}

/// One node of the pivot tree, covering `[start, end)` of the external
/// array with value domain `[min, max]` (inherited from its parent, not
/// recomputed from the data; only the counts of values equal to an
/// inherited bound come from the parent's pass, see [`Edges`]).
#[derive(Debug, Clone)]
struct SortNode {
    start: usize,
    end: usize,
    min: Value,
    max: Value,
    parent: Option<usize>,
    depth: usize,
    state: NodeState,
}

/// Budgeted incremental quicksort over a region of an external array.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalSorter {
    nodes: Vec<SortNode>,
    root: usize,
    small_node: usize,
    /// Elements in leaves that are sorted (pruned parents not counted):
    /// the region is sorted once this covers it.
    sorted_elements: usize,
    /// Maximum node depth ever created (h of the cost model).
    max_depth: usize,
}

impl IncrementalSorter {
    /// Creates a sorter for the array region `[start, end)` whose values
    /// are known to lie in `[min, max]`, sorting nodes of at most
    /// `small_node` elements outright (the L1-cache-sized leaf threshold).
    pub(crate) fn with_small_node(
        start: usize,
        end: usize,
        min: Value,
        max: Value,
        small_node: usize,
    ) -> Self {
        assert!(end >= start, "invalid sort range [{start}, {end})");
        assert!(small_node >= 1, "small-node cutoff must be at least 1");
        let mut sorter = IncrementalSorter {
            nodes: Vec::new(),
            root: 0,
            small_node,
            sorted_elements: 0,
            max_depth: 0,
        };
        sorter.root = sorter.alloc_node(start, end, min, max, None, 0, Edges::default());
        sorter
    }

    /// Creates a sorter whose root is already split at `boundary` around
    /// `pivot`: positions `[start, boundary)` hold values in `[min, pivot]`
    /// and `[boundary, end)` values in `(pivot, max]`.
    ///
    /// Progressive Quicksort uses this to carry the pivot boundary
    /// established during its creation phase into the refinement phase
    /// without re-partitioning the array. The creation pass counts no
    /// bound values, so the two children pivot at their midpoints.
    pub(crate) fn with_initial_split(
        start: usize,
        end: usize,
        min: Value,
        max: Value,
        pivot: Value,
        boundary: usize,
        small_node: usize,
    ) -> Self {
        assert!(
            boundary >= start && boundary <= end,
            "split boundary {boundary} outside [{start}, {end})"
        );
        let mut sorter = Self::with_small_node(start, end, min, max, small_node);
        // Degenerate regions need no split at all.
        if sorter.is_sorted() {
            return sorter;
        }
        let root = sorter.root;
        sorter.split(root, boundary, pivot, Edges::default());
        sorter
    }

    /// Splits `node_id` at `boundary` around `pivot` into two children,
    /// handing each the `edges` count of the bound it inherits.
    fn split(&mut self, node_id: usize, boundary: usize, pivot: Value, edges: Edges) {
        let SortNode {
            start,
            end,
            min,
            max,
            depth,
            ..
        } = self.nodes[node_id];
        let parent = Some(node_id);
        // The left child keeps `min`, the right one `max`; the pivot made
        // the other two bounds, and nothing counted them.
        let (left_edges, right_edges) =
            (Edges { at_max: 0, ..edges }, Edges { at_min: 0, ..edges });
        let left = self.alloc_node(start, boundary, min, pivot, parent, depth + 1, left_edges);
        let right_min = pivot.saturating_add(1);
        let right = self.alloc_node(
            boundary,
            end,
            right_min,
            max,
            parent,
            depth + 1,
            right_edges,
        );
        self.nodes[node_id].state = NodeState::Split { pivot, left, right };
        // Children that were born sorted may immediately complete the
        // parent (e.g. an empty child plus a single-element child).
        self.try_prune(node_id);
    }

    #[allow(clippy::too_many_arguments)]
    fn alloc_node(
        &mut self,
        start: usize,
        end: usize,
        min: Value,
        max: Value,
        parent: Option<usize>,
        depth: usize,
        edges: Edges,
    ) -> usize {
        let len = end - start;
        // Nodes that cannot contain more than one distinct value — or no
        // values at all — are sorted by definition.
        let state = if len <= 1 || min >= max {
            NodeState::Sorted
        } else {
            NodeState::Partitioning {
                pivot: pivot_of(min, max, len, edges),
                lo: start,
                next: start,
                edges: Edges::default(),
            }
        };
        if state == NodeState::Sorted {
            self.sorted_elements += len;
        }
        let id = self.nodes.len();
        self.nodes.push(SortNode {
            start,
            end,
            min,
            max,
            parent,
            depth,
            state,
        });
        self.max_depth = self.max_depth.max(depth);
        id
    }

    /// `true` once the whole region is fully sorted.
    pub(crate) fn is_sorted(&self) -> bool {
        let (start, end) = self.range();
        self.sorted_elements == end - start
    }

    /// Number of elements in leaves that are sorted; never decreases.
    pub(crate) fn sorted_elements(&self) -> usize {
        self.sorted_elements
    }

    /// Height of the pivot tree (maximum node depth created so far).
    pub(crate) fn height(&self) -> usize {
        self.max_depth
    }

    /// The array region `[start, end)` this sorter covers.
    pub(crate) fn range(&self) -> (usize, usize) {
        (self.nodes[self.root].start, self.nodes[self.root].end)
    }

    /// Performs up to `max_ops` element operations of sorting work on
    /// `data`, preferring nodes that intersect the `focus` value range
    /// when one is given. Returns the number of operations performed.
    ///
    /// `data` must be the same array on every call; the sorter only
    /// touches positions inside its region. `scratch` holds the leaf
    /// sorts' buffers; any scratch will do.
    pub(crate) fn refine(
        &mut self,
        data: &mut [Value],
        scratch: &mut ScatterScratch,
        max_ops: usize,
        focus: Option<(Value, Value)>,
    ) -> usize {
        let mut ops = 0usize;
        while ops < max_ops && !self.is_sorted() {
            let node_id = focus
                .and_then(|(low, high)| self.find_work_node(self.root, Some((low, high))))
                .or_else(|| self.find_work_node(self.root, None));
            let Some(node_id) = node_id else { break };
            ops += self.work_on(node_id, data, scratch, max_ops - ops);
        }
        ops
    }

    /// Finds an unsorted node to work on, preferring (when `focus` is
    /// given) nodes whose value domain intersects the focus range.
    fn find_work_node(&self, node_id: usize, focus: Option<(Value, Value)>) -> Option<usize> {
        let node = &self.nodes[node_id];
        if let Some((low, high)) = focus {
            if low > node.max || high < node.min {
                return None;
            }
        }
        match node.state {
            NodeState::Sorted => None,
            NodeState::Partitioning { .. } => Some(node_id),
            NodeState::Split { left, right, .. } => self
                .find_work_node(left, focus)
                .or_else(|| self.find_work_node(right, focus)),
        }
    }

    /// Performs up to `budget` (≥ 1) operations on one node. Returns the
    /// number of operations used.
    fn work_on(
        &mut self,
        node_id: usize,
        data: &mut [Value],
        scratch: &mut ScatterScratch,
        budget: usize,
    ) -> usize {
        let (start, end, min, max) = {
            let n = &self.nodes[node_id];
            (n.start, n.end, n.min, n.max)
        };
        let len = end - start;

        // Small nodes are sorted outright (atomically), as the paper does
        // for pieces that fit in the L1 cache.
        if len <= self.small_node {
            scratch.sort_leaf(&mut data[start..end]);
            self.nodes[node_id].state = NodeState::Sorted;
            self.sorted_elements += len;
            if let Some(parent) = self.nodes[node_id].parent {
                self.try_prune(parent);
            }
            return len;
        }

        let NodeState::Partitioning {
            pivot,
            mut lo,
            next,
            mut edges,
        } = self.nodes[node_id].state
        else {
            return 0;
        };

        let stop = next + budget.min(end - next);
        // Counting into a local over a slice that ends at `stop` keeps the
        // counts in registers and the swap unchecked; counting into
        // `edges` over `data` cost the pass ~15%.
        let region = &mut data[..stop];
        let mut counted = Edges::default();
        for i in next..stop {
            let value = region[i];
            counted.count(value, min, max);
            region.swap(lo, i);
            lo += (value <= pivot) as usize;
        }
        edges.at_min += counted.at_min;
        edges.at_max += counted.at_max;

        if stop == end {
            // Partition complete: split into children.
            self.split(node_id, lo, pivot, edges);
        } else {
            self.nodes[node_id].state = NodeState::Partitioning {
                pivot,
                lo,
                next: stop,
                edges,
            };
        }
        stop - next
    }

    /// Prunes upwards: when both children of a split node are sorted, the
    /// split node itself becomes sorted.
    fn try_prune(&mut self, node_id: usize) {
        if let NodeState::Split { left, right, .. } = self.nodes[node_id].state {
            let both_sorted = self.nodes[left].state == NodeState::Sorted
                && self.nodes[right].state == NodeState::Sorted;
            if both_sorted {
                self.nodes[node_id].state = NodeState::Sorted;
                if let Some(parent) = self.nodes[node_id].parent {
                    self.try_prune(parent);
                }
            }
        }
    }

    /// Answers a range-sum query over the current (possibly partially
    /// sorted) state of `data`, returning the result and the number of
    /// elements that had to be read.
    pub(crate) fn query(&self, data: &[Value], low: Value, high: Value) -> (ScanResult, u64) {
        if low > high {
            return (ScanResult::EMPTY, 0);
        }
        self.query_node(self.root, data, low, high)
    }

    fn query_node(
        &self,
        node_id: usize,
        data: &[Value],
        low: Value,
        high: Value,
    ) -> (ScanResult, u64) {
        let node = &self.nodes[node_id];
        // The node's value domain cannot intersect the predicate.
        if low > node.max || high < node.min {
            return (ScanResult::EMPTY, 0);
        }
        match node.state {
            NodeState::Sorted => {
                let slice = &data[node.start..node.end];
                let result = sorted::sorted_range_sum(slice, low, high);
                (result, result.count)
            }
            NodeState::Split { pivot, left, right } => {
                let mut result = ScanResult::EMPTY;
                let mut scanned = 0u64;
                if low <= pivot {
                    let (r, s) = self.query_node(left, data, low, high);
                    result = result.merge(r);
                    scanned += s;
                }
                if high > pivot {
                    let (r, s) = self.query_node(right, data, low, high);
                    result = result.merge(r);
                    scanned += s;
                }
                (result, scanned)
            }
            NodeState::Partitioning {
                pivot, lo, next, ..
            } => {
                let mut result = ScanResult::EMPTY;
                let mut scanned = 0u64;
                // Elements known to be ≤ pivot.
                if low <= pivot {
                    result = result.merge(scan_range_sum(&data[node.start..lo], low, high));
                    scanned += (lo - node.start) as u64;
                }
                // Elements known to be > pivot.
                if high > pivot {
                    result = result.merge(scan_range_sum(&data[lo..next], low, high));
                    scanned += (next - lo) as u64;
                }
                // The unexamined tail may contain anything.
                result = result.merge(scan_range_sum(&data[next..node.end], low, high));
                scanned += (node.end - next) as u64;
                (result, scanned)
            }
        }
    }

    /// Debug helper: asserts that the region really is sorted once the
    /// sorter claims so.
    pub(crate) fn verify_sorted(&self, data: &[Value]) -> bool {
        let (start, end) = self.range();
        !self.is_sorted() || sorted::is_sorted(&data[start..end])
    }
}

/// Overflow-safe midpoint of a closed value domain: the pivot of every
/// split ("the average value of the smallest and largest value of the
/// column").
pub(crate) fn midpoint(min: Value, max: Value) -> Value {
    ((min as u128 + max as u128) / 2) as Value
}

/// The pivot of a node of `len` values in `[min, max]` (`min < max`): the
/// midpoint, unless `edges` shows a bound value holding at least half of
/// the node. Then the node splits at that value, `min` first, and the
/// value's run becomes a child with one distinct value.
fn pivot_of(min: Value, max: Value, len: usize, edges: Edges) -> Value {
    if 2 * edges.at_min >= len {
        min
    } else if 2 * edges.at_max >= len {
        max - 1
    } else {
        midpoint(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IncrementalSorter {
        /// A sorter with the default small-node cutoff.
        fn new(start: usize, end: usize, min: Value, max: Value) -> Self {
            Self::with_small_node(start, end, min, max, DEFAULT_SMALL_NODE_ELEMENTS)
        }
    }

    fn pseudo_random(n: usize, domain: u64, seed: u64) -> Vec<Value> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % domain
            })
            .collect()
    }

    fn fully_refine(sorter: &mut IncrementalSorter, data: &mut [Value]) {
        let mut scratch = ScatterScratch::new();
        let mut guard = 0;
        while !sorter.is_sorted() {
            let ops = sorter.refine(data, &mut scratch, 1000, None);
            assert!(ops > 0, "refine must make progress while unsorted");
            guard += 1;
            assert!(guard < 1_000_000, "sorter failed to converge");
        }
    }

    #[test]
    fn sorts_small_region_in_one_step() {
        let mut data = vec![5, 3, 1, 4, 2];
        let mut sorter = IncrementalSorter::new(0, 5, 1, 5);
        sorter.refine(&mut data, &mut ScatterScratch::new(), 100, None);
        assert!(sorter.is_sorted());
        assert_eq!(data, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn converges_on_random_data_with_tiny_budget() {
        let mut data = pseudo_random(20_000, 1_000_000, 42);
        let mut reference = data.clone();
        reference.sort_unstable();
        let mut sorter = IncrementalSorter::with_small_node(0, data.len(), 0, 1_000_000, 64);
        fully_refine(&mut sorter, &mut data);
        assert_eq!(data, reference);
        assert!(sorter.verify_sorted(&data));
    }

    #[test]
    fn queries_are_correct_at_every_stage() {
        let n = 10_000;
        let domain = 50_000;
        let mut data = pseudo_random(n, domain, 7);
        let reference = data.clone();
        let mut sorter = IncrementalSorter::with_small_node(0, n, 0, domain, 128);
        let predicates = [
            (0, domain),
            (100, 5_000),
            (25_000, 26_000),
            (49_999, 49_999),
        ];
        let mut guard = 0;
        loop {
            for &(lo, hi) in &predicates {
                let (result, _) = sorter.query(&data, lo, hi);
                let expected = scan_range_sum(&reference, lo, hi);
                assert_eq!(result, expected, "query [{lo},{hi}] wrong at step {guard}");
            }
            if sorter.is_sorted() {
                break;
            }
            sorter.refine(&mut data, &mut ScatterScratch::new(), 777, None);
            guard += 1;
            assert!(guard < 100_000);
        }
    }

    #[test]
    fn focus_prioritises_query_relevant_nodes() {
        let n = 50_000;
        let domain = 1_000_000u64;
        let mut data = pseudo_random(n, domain, 99);
        let mut sorter = IncrementalSorter::with_small_node(0, n, 0, domain, 256);
        // Refine with a narrow focus; after enough focused work the scanned
        // element count for the focused predicate should be far below n.
        for _ in 0..40 {
            sorter.refine(
                &mut data,
                &mut ScatterScratch::new(),
                n / 10,
                Some((0, domain / 64)),
            );
        }
        let (_, scanned_focus) = sorter.query(&data, 0, domain / 64);
        let (_, scanned_far) = sorter.query(&data, domain / 2, domain / 2 + domain / 64);
        assert!(
            scanned_focus < scanned_far,
            "focused range should be better refined: {scanned_focus} vs {scanned_far}"
        );
    }

    #[test]
    fn refine_respects_budget_reasonably() {
        let n = 100_000;
        let mut data = pseudo_random(n, u64::MAX / 2, 3);
        let mut sorter = IncrementalSorter::new(0, n, 0, u64::MAX / 2);
        // A budget much smaller than the small-node cutoff can overshoot by
        // at most one small-node sort; larger budgets should be respected
        // within that tolerance.
        let ops = sorter.refine(&mut data, &mut ScatterScratch::new(), 10_000, None);
        assert!(ops <= 10_000 + DEFAULT_SMALL_NODE_ELEMENTS);
        assert!(ops > 0);
    }

    #[test]
    fn handles_all_equal_values() {
        let mut data = vec![7u64; 10_000];
        let mut sorter = IncrementalSorter::with_small_node(0, data.len(), 7, 7, 64);
        // Domain min == max ⇒ sorted by definition, no work needed.
        assert!(sorter.is_sorted());
        assert_eq!(
            sorter.refine(&mut data, &mut ScatterScratch::new(), 100, None),
            0
        );
        let (r, _) = sorter.query(&data, 7, 7);
        assert_eq!(r.count, 10_000);
    }

    #[test]
    fn handles_heavily_skewed_domain() {
        // All the data sits at the very bottom of a huge declared domain,
        // forcing many one-sided splits.
        let n = 8_192;
        let mut data = pseudo_random(n, 100, 5);
        let reference = {
            let mut r = data.clone();
            r.sort_unstable();
            r
        };
        let mut sorter = IncrementalSorter::with_small_node(0, n, 0, u64::MAX, 32);
        fully_refine(&mut sorter, &mut data);
        assert_eq!(data, reference);
    }

    #[test]
    fn empty_and_single_element_regions_are_trivially_sorted() {
        let sorter = IncrementalSorter::new(5, 5, 0, 10);
        assert!(sorter.is_sorted());
        let sorter = IncrementalSorter::new(3, 4, 0, 10);
        assert!(sorter.is_sorted());
    }

    #[test]
    fn query_with_inverted_predicate_is_empty() {
        let data = pseudo_random(1000, 1000, 11);
        let sorter = IncrementalSorter::new(0, 1000, 0, 1000);
        let (r, scanned) = sorter.query(&data, 500, 100);
        assert_eq!(r, ScanResult::EMPTY);
        assert_eq!(scanned, 0);
    }

    #[test]
    fn height_grows_with_refinement() {
        let n = 100_000;
        let mut data = pseudo_random(n, u64::MAX / 4, 17);
        let mut sorter = IncrementalSorter::with_small_node(0, n, 0, u64::MAX / 4, 512);
        assert_eq!(sorter.height(), 0);
        fully_refine(&mut sorter, &mut data);
        assert!(sorter.height() >= 2);
    }

    #[test]
    fn operates_on_sub_range_only() {
        let mut data = vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0];
        let mut sorter = IncrementalSorter::with_small_node(3, 7, 0, 10, 2);
        fully_refine(&mut sorter, &mut data);
        // Only positions 3..7 may change (and must end up sorted).
        assert_eq!(&data[..3], &[9, 8, 7]);
        assert_eq!(&data[7..], &[2, 1, 0]);
        let mut middle = data[3..7].to_vec();
        middle.sort_unstable();
        assert_eq!(&data[3..7], middle.as_slice());
    }

    /// Asserts `[start, lo) ≤ pivot < [lo, next)` for every node that is
    /// partitioning.
    fn assert_partitions_hold(sorter: &IncrementalSorter, data: &[Value], context: &str) {
        for node in &sorter.nodes {
            if let NodeState::Partitioning {
                pivot, lo, next, ..
            } = node.state
            {
                assert!(node.start <= lo && lo <= next && next <= node.end);
                assert!(
                    data[node.start..lo].iter().all(|&v| v <= pivot),
                    "{context}: {node:?}"
                );
                assert!(
                    data[lo..next].iter().all(|&v| v > pivot),
                    "{context}: {node:?}"
                );
            }
        }
    }

    /// `n` values of each shape the kernel's contract is checked on, with
    /// the domain a sorter over them declares: the values' range widened
    /// by 1000 on each side (as a bucket's bounds are), so even the
    /// all-equal shape is partitioned.
    fn contract_shapes(n: usize) -> Vec<(&'static str, Vec<Value>, (Value, Value))> {
        let uniform = pseudo_random(n, 1 << 40, 5);
        let duplicates = uniform
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 10 == 0 { v } else { 1 << 20 })
            .collect();
        let at_max = uniform
            .iter()
            .enumerate()
            .map(|(i, &v)| u64::MAX - if i % 7 == 0 { 0 } else { v % (1 << 20) })
            .collect();
        let sorted: Vec<Value> = (0..n as u64).map(|i| 3 * i).collect();
        let reversed = sorted.iter().rev().copied().collect();
        [
            ("uniform", uniform),
            ("90% duplicates", duplicates),
            ("all equal", vec![1 << 20; n]),
            ("at u64::MAX", at_max),
            ("sorted", sorted),
            ("reversed", reversed),
        ]
        .into_iter()
        .map(|(shape, values): (_, Vec<Value>)| {
            let min = values.iter().min().unwrap().saturating_sub(1_000);
            let max = values.iter().max().unwrap().saturating_add(1_000);
            (shape, values, (min, max))
        })
        .collect()
    }

    #[test]
    fn refinement_is_independent_of_the_order_values_arrive_in() {
        let n = 10_000;
        for (shape, values, (min, max)) in contract_shapes(n) {
            let mut shuffled = values.clone();
            let mut rng = crate::testing::TestRng::new(9);
            for i in (1..n).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut reference = values.clone();
            reference.sort_unstable();
            let focus = (reference[n / 4], reference[n / 2]);
            let predicates = [
                (0, reference[n / 2]),
                (reference[n / 2], u64::MAX),
                focus,
                (reference[0], reference[0]),
                (max, u64::MAX),
            ];
            let expected: Vec<ScanResult> = predicates
                .iter()
                .map(|&(low, high)| scan_range_sum(&reference, low, high))
                .collect();
            for budget in [1, 63, 4095, 4096, 4097, n] {
                let mut sides = [values.clone(), shuffled.clone()].map(|data| {
                    (
                        IncrementalSorter::new(0, n, min, max),
                        data,
                        ScatterScratch::new(),
                    )
                });
                // Answers are read about once per 4096 ops: at tiny budgets
                // reading them on every call would scan n per element.
                let stride = (4096 / budget).max(1);
                let mut call = 0;
                while !sides[0].0.is_sorted() {
                    let focus = (call % 2 == 1).then_some(focus);
                    let [a, b] = sides.each_mut().map(|(s, data, scratch)| {
                        (s.refine(data, scratch, budget, focus), s.sorted_elements())
                    });
                    assert_eq!(a, b, "{shape}, budget {budget}, call {call}: (ops, sorted)");
                    if call % stride == 0 || sides[0].0.is_sorted() {
                        let context = format!("{shape}, budget {budget}, call {call}");
                        for (sorter, data, _) in &sides {
                            assert_partitions_hold(sorter, data, &context);
                            for (&(low, high), want) in predicates.iter().zip(&expected) {
                                let (got, _) = sorter.query(data, low, high);
                                assert_eq!(got, *want, "{context}: [{low}, {high}]");
                            }
                        }
                    }
                    call += 1;
                    assert!(call < 1_000_000, "{shape}, budget {budget}: stalled");
                }
                // `sorted_elements` agreed on every call, so both became
                // sorted on the same one.
                for (sorter, data, _) in &sides {
                    assert!(sorter.is_sorted(), "{shape}, budget {budget}");
                    assert_eq!(sorter.sorted_elements(), n, "{shape}, budget {budget}");
                    assert_eq!(data, &reference, "{shape}, budget {budget}");
                }
            }
        }
    }

    #[test]
    fn every_partitioning_node_keeps_its_regions_after_every_call() {
        for (shape, values, (min, max)) in contract_shapes(1_000) {
            for budget in [1, 7, 100] {
                let mut data = values.clone();
                let mut sorter = IncrementalSorter::with_small_node(0, data.len(), min, max, 16);
                let mut call = 0;
                while !sorter.is_sorted() {
                    sorter.refine(&mut data, &mut ScatterScratch::new(), budget, None);
                    assert_partitions_hold(&sorter, &data, &format!("{shape}, call {call}"));
                    call += 1;
                }
            }
        }
    }

    #[test]
    fn one_sided_predicates_over_a_half_partitioned_node_are_exact() {
        let n = 10_000;
        let domain = 1 << 20;
        let mut data = pseudo_random(n, domain, 21);
        let reference = data.clone();
        let mut sorter = IncrementalSorter::new(0, n, 0, domain);
        assert_eq!(
            sorter.refine(&mut data, &mut ScatterScratch::new(), n / 2, None),
            n / 2
        );
        let NodeState::Partitioning {
            pivot, lo, next, ..
        } = sorter.nodes[sorter.root].state
        else {
            panic!("the root must still be partitioning");
        };
        assert_eq!(next, n / 2);
        for v in [0, 1, pivot - 1, pivot, pivot + 1, domain - 1, domain] {
            for (low, high) in [(0, v), (v, u64::MAX)] {
                let (got, scanned) = sorter.query(&data, low, high);
                assert_eq!(
                    got,
                    scan_range_sum(&reference, low, high),
                    "[{low}, {high}]"
                );
                // The known region(s) the predicate reaches, plus the
                // unexamined tail.
                let known = match (high <= pivot, low > pivot) {
                    (true, _) => lo,
                    (_, true) => next - lo,
                    _ => next,
                };
                assert_eq!(scanned, (known + n - next) as u64, "[{low}, {high}]");
            }
        }
    }
}
