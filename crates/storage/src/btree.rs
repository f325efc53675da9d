//! Bulk-loaded static B+-tree over a sorted array.
//!
//! The consolidation phase of every progressive index (§3 of the paper)
//! turns the fully sorted array produced by the refinement phase into a
//! B+-tree, "since a B+-tree provides better data locality and thus is more
//! efficient than binary search when executing very selective queries".
//!
//! The structure used here mirrors the paper's description literally: the
//! sorted array is the leaf level, and each internal level is built by
//! copying every `β`-th (fan-out-th) element of the level below, until the
//! top level fits in a single node. The total number of copied elements is
//! `N_copy = Σ_i N / β^i`, which is exactly the amount of work the
//! consolidation-phase cost model charges (`t_copy`).
//!
//! Two entry points are provided:
//!
//! * [`StaticBTree::build`] — bulk load in one go (used by the *Full Index*
//!   baseline and by tests).
//! * [`BTreeBuilder`] — incremental construction that performs at most a
//!   caller-chosen number of element copies per call, so a progressive
//!   index can spread the consolidation cost across queries according to
//!   its indexing budget (`δ · t_copy` per query).
//!
//! The tree does **not** own the leaf array: the progressive indexes keep
//! ownership of their sorted data and pass it to every lookup. This keeps
//! the consolidation phase allocation-free apart from the internal levels
//! and the block sums.
//!
//! Beside the key levels the tree carries one exact prefix sum per block
//! of leaves, so [`StaticBTree::range_sum`] costs one descent of both
//! bounds together and at most one block of leaves, half a block at each
//! end of the run, however wide the range is: each end is summed from the
//! nearer edge of its block. The descent reads both bounds' leaf windows
//! in one burst before searching either, so the cache misses of a lookup
//! overlap instead of following one another (the point of *FAST*, Kim et
//! al., SIGMOD 2010). The sums are built during consolidation, on the
//! level-0 pass that already walks the leaf array, and are never filled in
//! lazily: a first query that allocates leaves the allocator in another
//! state for every build after it.

use crate::column::Value;
use crate::scan::{sum_positions, ScanResult};
use crate::sorted;

/// Default tree fan-out `β`.
///
/// 64 keys per node keeps one node within a handful of cache lines while
/// keeping the tree shallow (a 10^9-element leaf level needs only 5 internal
/// levels), matching the order of magnitude used in the paper's setup.
pub const DEFAULT_FANOUT: usize = 64;

/// Fewest leaves a block sum may cover: a 16-byte `u128` per 256 8-byte
/// leaves keeps the sums under 0.8% of the leaf array.
const MIN_BLOCK_LEAVES: usize = 256;

/// Leaves per block sum: the smallest multiple of `fanout` that reaches
/// [`MIN_BLOCK_LEAVES`], so every block ends where a level-0 copy does.
fn block_len(fanout: usize) -> usize {
    fanout * MIN_BLOCK_LEAVES.div_ceil(fanout)
}

/// A static (read-only) B+-tree over an externally owned sorted array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticBTree {
    fanout: usize,
    /// `levels[0]` samples the leaf array every `fanout` elements,
    /// `levels[k]` samples `levels[k-1]` every `fanout` elements.
    /// The last level holds at most `fanout` keys.
    levels: Vec<Vec<Value>>,
    /// Leaves per entry of `block_sums`.
    block: usize,
    /// `block_sums[k]` is the exact sum of `leaves[..(k + 1) * block]`, one
    /// entry per *full* block. A leaf array that fits one node has no
    /// level-0 pass and therefore no sums. Boxed: the builder fills its
    /// vector exactly, and the word a `Vec` would spend on its capacity
    /// keeps `total` from growing the tree.
    block_sums: Box<[u128]>,
    /// Exact sum of the whole leaf array, the far edge of the partial
    /// last block (zero, and never read, without a level-0 pass).
    total: u128,
    /// Length of the leaf array the tree was built over; lookups verify it.
    leaf_len: usize,
}

/// Which bound a descent should locate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// First position with `value >= key`.
    Lower,
    /// First position with `value > key`.
    Upper,
}

/// Leaves per 64-byte cache line.
const LINE_LEAVES: usize = 64 / std::mem::size_of::<Value>();

impl StaticBTree {
    /// Bulk loads a B+-tree over `sorted` with the given `fanout`.
    ///
    /// # Panics
    /// Panics when `fanout < 2` or when `sorted` is not sorted
    /// (debug builds only for the sortedness check).
    pub fn build(sorted: &[Value], fanout: usize) -> Self {
        assert!(fanout >= 2, "B+-tree fanout must be at least 2");
        debug_assert!(sorted::is_sorted(sorted), "leaf level must be sorted");
        let mut builder = BTreeBuilder::new(sorted.len(), fanout);
        builder.step(sorted, usize::MAX);
        builder
            .finish()
            .expect("unbounded build step must complete the tree")
    }

    /// Bulk loads with [`DEFAULT_FANOUT`].
    pub fn build_default(sorted: &[Value]) -> Self {
        Self::build(sorted, DEFAULT_FANOUT)
    }

    /// The fan-out `β` the tree was built with.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of internal levels above the leaf array.
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Total number of keys stored in internal levels
    /// (`N_copy` from the consolidation cost model).
    pub fn internal_key_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Position of the first leaf element `>= key`.
    pub fn lower_bound(&self, leaves: &[Value], key: Value) -> usize {
        self.descend(leaves, [(key, Bound::Lower)])[0]
    }

    /// Position of the first leaf element `> key`.
    pub fn upper_bound(&self, leaves: &[Value], key: Value) -> usize {
        self.descend(leaves, [(key, Bound::Upper)])[0]
    }

    /// Answers `SELECT SUM(a), COUNT(a) WHERE a BETWEEN low AND high` over
    /// the sorted leaf array using the tree to locate the qualifying run.
    pub fn range_sum(&self, leaves: &[Value], low: Value, high: Value) -> ScanResult {
        self.range_sum_touched(leaves, low, high).0
    }

    /// [`StaticBTree::range_sum`] together with the number of leaves read
    /// to produce it (the descent's window reads aside): a run no longer
    /// than the distances of its two ends to their nearer block edges is
    /// summed leaf by leaf, a longer one is a difference of two prefix
    /// sums, each read from the nearer edge of its end's block. Either way
    /// at most one block of leaves is read.
    pub fn range_sum_touched(
        &self,
        leaves: &[Value],
        low: Value,
        high: Value,
    ) -> (ScanResult, u64) {
        if low > high || leaves.is_empty() {
            return (ScanResult::EMPTY, 0);
        }
        let [start, end] = self.descend(leaves, [(low, Bound::Lower), (high, Bound::Upper)]);
        if end <= start {
            return (ScanResult::EMPTY, 0);
        }
        let (from, to) = (self.nearer_edge(start), self.nearer_edge(end));
        let edges = start.abs_diff(from) + end.abs_diff(to);
        if end - start <= edges {
            let run = sum_positions(leaves, start, end);
            return (run, run.count);
        }
        let result = ScanResult {
            sum: self.prefix_at(leaves, end, to) - self.prefix_at(leaves, start, from),
            count: (end - start) as u64,
        };
        (result, edges as u64)
    }

    /// The edge of `pos`'s block nearer to `pos`, where the end of the
    /// leaf array is the far edge of the partial last block. A tree without
    /// a level-0 pass has no sums: its one edge is the array's start.
    #[inline]
    fn nearer_edge(&self, pos: usize) -> usize {
        if self.levels.is_empty() {
            return 0;
        }
        let below = pos - pos % self.block;
        let above = (below + self.block).min(self.leaf_len);
        if pos - below <= above - pos {
            below
        } else {
            above
        }
    }

    /// Exact sum of `leaves[..pos]`, read from the block edge `edge`: the
    /// edge's prefix sum plus or minus the leaves between the two.
    #[inline]
    fn prefix_at(&self, leaves: &[Value], pos: usize, edge: usize) -> u128 {
        let at_edge = match edge / self.block {
            _ if edge == self.leaf_len => self.total,
            0 => 0,
            k => self.block_sums[k - 1],
        };
        if edge <= pos {
            at_edge + sum_positions(leaves, edge, pos).sum
        } else {
            at_edge - sum_positions(leaves, pos, edge).sum
        }
    }

    /// Locates `N` bounds in one descent. Each level searches every
    /// bound's window in turn; at the leaf level every bound's window is
    /// first read once, one load per cache line, and only then searched.
    /// The line loads do not depend on one another, so their misses
    /// overlap, and the searches after them hit L1.
    fn descend<const N: usize>(&self, leaves: &[Value], keys: [(Value, Bound); N]) -> [usize; N] {
        assert_eq!(
            leaves.len(),
            self.leaf_len,
            "leaf array length does not match the array the tree was built over"
        );
        // Per bound, the position found in the level *above* the one
        // currently examined; it constrains the search window in the
        // current level to at most `fanout` entries.
        let mut above = [None; N];
        for level in self.levels.iter().rev() {
            for (pos, &(key, bound)) in above.iter_mut().zip(&keys) {
                let (lo, hi) = self.child_window(*pos, level.len());
                *pos = Some(lo + Self::bound_in(&level[lo..hi], key, bound));
            }
        }
        let windows = above.map(|pos| self.child_window(pos, leaves.len()));
        let burst = windows.iter().fold(0, |acc, &(lo, hi)| {
            leaves[lo..hi]
                .iter()
                .step_by(LINE_LEAVES)
                .fold(acc, |acc, &v| acc ^ v)
        });
        std::hint::black_box(burst);
        std::array::from_fn(|i| {
            let ((lo, hi), (key, bound)) = (windows[i], keys[i]);
            lo + Self::bound_in(&leaves[lo..hi], key, bound)
        })
    }

    /// Window of candidate positions in a child level given the bound
    /// position found in its parent level (or `None` at the tree top).
    #[inline]
    fn child_window(&self, parent_pos: Option<usize>, child_len: usize) -> (usize, usize) {
        match parent_pos {
            None => (0, child_len),
            Some(0) => (0, 1.min(child_len)),
            Some(j) => {
                // parent[j-1] = child[(j-1) * fanout] < key (for the chosen
                // bound), so the child bound lies in ((j-1)*fanout, j*fanout].
                let lo = ((j - 1) * self.fanout + 1).min(child_len);
                let hi = (j * self.fanout + 1).min(child_len);
                (lo, hi)
            }
        }
    }

    #[inline]
    fn bound_in(window: &[Value], key: Value, bound: Bound) -> usize {
        match bound {
            Bound::Lower => sorted::lower_bound(window, key),
            Bound::Upper => sorted::upper_bound(window, key),
        }
    }
}

/// Incremental B+-tree construction with a bounded number of element copies
/// per step, so the consolidation phase can respect an indexing budget.
#[derive(Debug, Clone)]
pub struct BTreeBuilder {
    fanout: usize,
    leaf_len: usize,
    /// Completed and in-progress internal levels (bottom-up).
    levels: Vec<Vec<Value>>,
    /// Index (into the *source* level) of the next element to sample for
    /// the level currently under construction.
    cursor: usize,
    block: usize,
    /// Prefix sums of the full blocks the level-0 pass has walked past.
    block_sums: Vec<u128>,
    /// Sum of every leaf the level-0 pass has walked past.
    leaf_sum: u128,
    done: bool,
}

impl BTreeBuilder {
    /// Starts building a tree over a leaf array of `leaf_len` sorted
    /// elements with the given `fanout`.
    ///
    /// # Panics
    /// Panics when `fanout < 2`.
    pub fn new(leaf_len: usize, fanout: usize) -> Self {
        assert!(fanout >= 2, "B+-tree fanout must be at least 2");
        // A leaf level that already fits in one node needs no internal
        // levels at all.
        let done = leaf_len <= fanout;
        let block = block_len(fanout);
        Self {
            fanout,
            leaf_len,
            levels: if done { Vec::new() } else { vec![Vec::new()] },
            cursor: 0,
            block,
            block_sums: if done {
                Vec::new()
            } else {
                Vec::with_capacity(leaf_len / block)
            },
            leaf_sum: 0,
            done,
        }
    }

    /// Total number of element copies the full construction requires
    /// (`N_copy = Σ_i N / β^i`). Useful for sizing per-query budgets.
    pub fn total_copies(leaf_len: usize, fanout: usize) -> usize {
        assert!(fanout >= 2);
        let mut total = 0usize;
        let mut level_len = leaf_len;
        while level_len > fanout {
            level_len = level_len.div_ceil(fanout);
            total += level_len;
        }
        total
    }

    /// Returns `true` once every internal level is complete.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// Number of element copies performed so far.
    pub(crate) fn copies_done(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Performs at most `max_copies` element copies, sampling from `leaves`
    /// (which must be the same sorted array on every call). Returns the
    /// number of copies actually performed.
    ///
    /// A level-0 copy also adds the `fanout` leaves below the copied key
    /// into the block sums. That is work beside the copy, not a copy:
    /// [`BTreeBuilder::total_copies`], and with it the number of steps a
    /// budget needs, counts keys only.
    pub fn step(&mut self, leaves: &[Value], max_copies: usize) -> usize {
        assert_eq!(
            leaves.len(),
            self.leaf_len,
            "leaf array length changed during incremental B+-tree construction"
        );
        if self.done || max_copies == 0 {
            return 0;
        }
        let mut copied = 0usize;
        while copied < max_copies && !self.done {
            let current = self.levels.len() - 1;
            // Source of the level under construction: the previous internal
            // level, or the leaf array for the first internal level.
            let source_len = if current == 0 {
                self.leaf_len
            } else {
                self.levels[current - 1].len()
            };
            if self.cursor < source_len {
                let value = if current == 0 {
                    let below_end = (self.cursor + self.fanout).min(self.leaf_len);
                    self.leaf_sum += sum_positions(leaves, self.cursor, below_end).sum;
                    if below_end.is_multiple_of(self.block) {
                        self.block_sums.push(self.leaf_sum);
                    }
                    leaves[self.cursor]
                } else {
                    self.levels[current - 1][self.cursor]
                };
                self.levels[current].push(value);
                self.cursor += self.fanout;
                copied += 1;
            } else {
                // Level complete; decide whether another level is needed.
                if self.levels[current].len() <= self.fanout {
                    self.done = true;
                } else {
                    self.levels.push(Vec::new());
                    self.cursor = 0;
                }
            }
        }
        copied
    }

    /// Finishes construction, returning the tree when complete or `None`
    /// when more [`BTreeBuilder::step`] calls are required.
    pub fn finish(self) -> Option<StaticBTree> {
        if !self.done {
            return None;
        }
        Some(StaticBTree {
            fanout: self.fanout,
            levels: self.levels,
            block: self.block,
            block_sums: self.block_sums.into_boxed_slice(),
            total: self.leaf_sum,
            leaf_len: self.leaf_len,
        })
    }

    /// Fraction of the total copy work already performed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        let total = Self::total_copies(self.leaf_len, self.fanout);
        if total == 0 {
            1.0
        } else {
            (self.copies_done() as f64 / total as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_range_sum;

    fn sorted_data(n: usize) -> Vec<Value> {
        // Deterministic pseudo-random data with duplicates, then sorted.
        let mut data: Vec<Value> = (0..n as u64)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) % (n as u64))
            .collect();
        data.sort_unstable();
        data
    }

    #[test]
    fn build_empty() {
        let tree = StaticBTree::build(&[], 4);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.range_sum(&[], 0, 100), ScanResult::EMPTY);
    }

    #[test]
    fn build_smaller_than_fanout_has_no_levels() {
        let data = vec![1, 2, 3];
        let tree = StaticBTree::build(&data, 8);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.lower_bound(&data, 2), 1);
        assert_eq!(tree.upper_bound(&data, 2), 2);
        // No level-0 pass, no sums: a run far from both ends is read whole.
        let data: Vec<Value> = (0..60).collect();
        let tree = StaticBTree::build_default(&data);
        assert_eq!(tree.range_sum(&data, 10, 49), scan_range_sum(&data, 10, 49));
    }

    #[test]
    fn lookups_match_plain_binary_search() {
        let data = sorted_data(10_000);
        let tree = StaticBTree::build(&data, 16);
        assert!(tree.height() >= 2);
        for key in (0..10_000).step_by(37) {
            let key = key as Value;
            assert_eq!(
                tree.lower_bound(&data, key),
                sorted::lower_bound(&data, key),
                "lower_bound mismatch for key {key}"
            );
            assert_eq!(
                tree.upper_bound(&data, key),
                sorted::upper_bound(&data, key),
                "upper_bound mismatch for key {key}"
            );
        }
    }

    #[test]
    fn range_sum_matches_full_scan() {
        let data = sorted_data(5_000);
        let tree = StaticBTree::build_default(&data);
        for (lo, hi) in [
            (0, 4_999),
            (100, 200),
            (2_500, 2_500),
            (6_000, 9_000),
            (10, 5),
        ] {
            assert_eq!(
                tree.range_sum(&data, lo, hi),
                scan_range_sum(&data, lo, hi),
                "mismatch for [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn extreme_keys() {
        let data = sorted_data(1_000);
        let tree = StaticBTree::build(&data, 8);
        assert_eq!(tree.lower_bound(&data, 0), 0);
        assert_eq!(tree.upper_bound(&data, Value::MAX), data.len());
        let all = tree.range_sum(&data, 0, Value::MAX);
        assert_eq!(all.count as usize, data.len());
    }

    #[test]
    fn incremental_builder_matches_bulk_build_under_every_step_budget() {
        // 4 099 leaves at fan-out 8: four internal levels, sixteen full
        // 256-leaf blocks and a partial one. `==` compares the key levels
        // and the block sums.
        let data = sorted_data(4_099);
        let bulk = StaticBTree::build(&data, 8);
        assert_eq!(bulk.block_sums.len(), 16);
        let total = BTreeBuilder::total_copies(data.len(), 8);
        for budget in (1..=64).chain([total - 1, total, total + 1]) {
            let mut builder = BTreeBuilder::new(data.len(), 8);
            while !builder.is_complete() {
                // A budget that ends exactly on the last copy leaves the
                // completion to be noticed by one more, empty step.
                let copied = builder.step(&data, budget);
                assert!(
                    copied > 0 || builder.is_complete(),
                    "budget {budget} stalled"
                );
            }
            assert_eq!(builder.copies_done(), total);
            let incremental = builder.finish().expect("builder is complete");
            assert_eq!(incremental, bulk, "budget {budget}");
        }
    }

    #[test]
    fn wide_range_sum_reads_at_most_one_block() {
        let data = sorted_data(100_000);
        let tree = StaticBTree::build_default(&data);
        let (low, high) = (data[1_000], data[90_000]);
        let (result, touched) = tree.range_sum_touched(&data, low, high);
        assert_eq!(result, scan_range_sum(&data, low, high));
        assert!(result.count > 80_000);
        assert!(touched <= tree.block as u64, "{touched} leaves read");
        // A run shorter than its ends' distances to their edges is read whole.
        let (narrow, touched) = tree.range_sum_touched(&data, data[300], data[310]);
        assert_eq!(touched, narrow.count);
    }

    #[test]
    fn run_ends_at_every_offset_of_a_block_read_at_most_one_block() {
        // Distinct leaves, so a key selects exactly one position: 20 full
        // 256-leaf blocks at fan-out 64 and a partial last block of 200.
        let data: Vec<Value> = (0..5_320).map(|i| 3 * i + 1).collect();
        let tree = StaticBTree::build_default(&data);
        let b = tree.block;
        assert_eq!((b, tree.block_sums.len()), (256, 20));
        let offsets = [0, 1, b / 2 - 1, b / 2, b / 2 + 1, b - 1];
        let mut positions: Vec<usize> = [0, 1, 7, 19]
            .iter()
            .flat_map(|k| offsets.map(|o| k * b + o))
            .collect();
        // Inside the partial last block, and its last leaf.
        positions.extend([20 * b, 20 * b + 1, 20 * b + 99, 20 * b + 100, 20 * b + 101]);
        positions.push(data.len() - 1);
        for &first in &positions {
            for &last in positions.iter().filter(|&&last| last >= first) {
                let (low, high) = (data[first], data[last]);
                let (result, touched) = tree.range_sum_touched(&data, low, high);
                assert_eq!(
                    result,
                    scan_range_sum(&data, low, high),
                    "[{first}, {last}]"
                );
                assert_eq!(result.count as usize, last - first + 1);
                assert!(touched <= b as u64, "[{first}, {last}]: {touched} read");
                assert!(touched <= result.count, "[{first}, {last}]: {touched} read");
            }
        }
    }

    #[test]
    fn builder_total_copies_matches_actual_work() {
        let data = sorted_data(2_000);
        let mut builder = BTreeBuilder::new(data.len(), 16);
        while !builder.is_complete() {
            builder.step(&data, 1);
        }
        assert_eq!(
            builder.copies_done(),
            BTreeBuilder::total_copies(data.len(), 16)
        );
        assert!((builder.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builder_on_tiny_leaf_level_is_immediately_complete() {
        let builder = BTreeBuilder::new(3, 8);
        assert!(builder.is_complete());
        assert_eq!(BTreeBuilder::total_copies(3, 8), 0);
        let tree = builder.finish().unwrap();
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn finish_before_completion_returns_none() {
        let data = sorted_data(1_000);
        let mut builder = BTreeBuilder::new(data.len(), 4);
        builder.step(&data, 1);
        assert!(builder.finish().is_none());
    }

    #[test]
    fn internal_key_count_matches_copy_formula() {
        let data = sorted_data(3_333);
        let tree = StaticBTree::build(&data, 4);
        assert_eq!(
            tree.internal_key_count(),
            BTreeBuilder::total_copies(data.len(), 4)
        );
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn fanout_of_one_is_rejected() {
        let _ = StaticBTree::build(&[1, 2, 3], 1);
    }

    #[test]
    #[should_panic(expected = "length does not match")]
    fn lookup_with_wrong_leaf_array_panics() {
        let data = sorted_data(100);
        let tree = StaticBTree::build(&data, 4);
        let wrong = vec![1, 2, 3];
        let _ = tree.lower_bound(&wrong, 5);
    }

    #[test]
    fn duplicates_heavy_leaf_level() {
        let mut data = vec![7; 500];
        data.extend(vec![9; 500]);
        let tree = StaticBTree::build(&data, 8);
        assert_eq!(tree.lower_bound(&data, 7), 0);
        assert_eq!(tree.upper_bound(&data, 7), 500);
        assert_eq!(tree.lower_bound(&data, 8), 500);
        let r = tree.range_sum(&data, 9, 9);
        assert_eq!(r.count, 500);
    }
}
