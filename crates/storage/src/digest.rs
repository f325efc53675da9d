//! Sub-shard digest trees: grouped `(SUM, COUNT, MIN, MAX)` aggregates
//! over a fixed value grid.
//!
//! The engine's per-shard digests answer a predicate that covers a whole
//! shard in O(1). This module extends that idea *below* full-shard
//! granularity: a [`DigestTree`] summarises a shard's live values into
//! grid-aligned buckets of width `w` — bucket `b` holds every value in
//! `[b·w, (b+1)·w)` — so grouped aggregates (`GROUP BY bucket`) and
//! partially-covering predicates can be answered from the tree instead of
//! a full probe. The grid is **global** (anchored at value 0, not at the
//! shard's min), so trees built independently per shard merge exactly:
//! the same value lands in the same bucket no matter which shard holds
//! it.
//!
//! Trees are sparse: only buckets that hold at least one live value are
//! materialised, so a shard whose values cluster densely costs a handful
//! of cells no matter how wide the domain is. Cells keep exact `SUM`,
//! `COUNT`, `MIN` and `MAX`, and empty cells simply do not exist — the
//! count guard is structural, never a min/max sentinel.
//!
//! A tree is folded value by value from any multiset
//! ([`DigestTree::build`]), or cut from a sorted base run by run
//! ([`DigestTree::build_sorted`]): there a cell costs one division and
//! one binary search, not one division per value.

use std::collections::BTreeMap;

use crate::column::Value;
use crate::delta::DeltaSidecar;
use crate::scan::sum_positions;

/// One grid bucket's exact aggregate over the live values it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCell {
    /// Exact sum of the bucket's live values.
    pub sum: u128,
    /// Number of live values in the bucket (always ≥ 1: empty cells are
    /// not materialised).
    pub count: u64,
    /// Smallest live value in the bucket.
    pub min: Value,
    /// Largest live value in the bucket.
    pub max: Value,
}

impl GroupCell {
    /// The cell of a single value.
    pub(crate) fn of(v: Value) -> Self {
        GroupCell {
            sum: v as u128,
            count: 1,
            min: v,
            max: v,
        }
    }

    /// Folds one more value into the cell.
    pub(crate) fn absorb(&mut self, v: Value) {
        self.sum += v as u128;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another cell of the *same bucket* into this one (the
    /// cross-shard fold: per-shard trees share the global grid).
    pub(crate) fn merge(&mut self, other: &GroupCell) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The grid bucket a value falls into under bucket width `width`.
#[inline]
pub fn bucket_of(v: Value, width: Value) -> u64 {
    debug_assert!(width > 0, "bucket width must be positive");
    v / width
}

/// How many of a run's values, walked from one end, its cancelled copies
/// (walked from the same end) cancel. Both ascend and every tombstone is
/// a copy in the run, so the copies of the run's smallest (largest)
/// values are the tombstones' first (last).
fn cancelled_copies<'a>(
    run: impl Iterator<Item = &'a Value>,
    cancelled: impl Iterator<Item = &'a Value>,
) -> usize {
    run.zip(cancelled).take_while(|(v, t)| v == t).count()
}

/// A sparse, grid-aligned aggregate tree over a multiset of values: one
/// exact [`GroupCell`] per non-empty bucket of width `width`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestTree {
    width: Value,
    cells: BTreeMap<u64, GroupCell>,
}

impl DigestTree {
    /// An empty tree over the given grid.
    ///
    /// # Panics
    /// Panics when `width == 0` (the grid would be degenerate).
    pub fn empty(width: Value) -> Self {
        assert!(width > 0, "bucket width must be positive");
        DigestTree {
            width,
            cells: BTreeMap::new(),
        }
    }

    /// Builds the tree of `values` over the global grid of width `width`.
    ///
    /// When the bucket span (one min/max pass) is below the value count —
    /// a shard's values cluster, so it nearly always is — values fold
    /// into a dense window of cells indexed by bucket offset, bulk-loaded
    /// into the map in order: no map lookup per value. A wider span would
    /// cost more window than data and takes [`DigestTree::absorb`].
    pub fn build(values: &[Value], width: Value) -> Self {
        let mut tree = Self::empty(width);
        let (min, max) = values
            .iter()
            .fold((Value::MAX, Value::MIN), |(min, max), &v| {
                (min.min(v), max.max(v))
            });
        if values.is_empty() {
            return tree;
        }
        let (first, last) = (bucket_of(min, width), bucket_of(max, width));
        if last - first >= values.len() as u64 {
            values.iter().for_each(|&v| tree.absorb(v));
            return tree;
        }
        // An untouched window cell has `count == 0` and is never
        // materialised; its min/max are the folds' identities, not data.
        let untouched = GroupCell {
            sum: 0,
            count: 0,
            min: Value::MAX,
            max: Value::MIN,
        };
        let mut window = vec![untouched; (last - first) as usize + 1];
        for &v in values {
            window[(bucket_of(v, width) - first) as usize].absorb(v);
        }
        let cells = (first..=last)
            .zip(window)
            .filter(|(_, cell)| cell.count > 0);
        tree.cells = cells.collect();
        tree
    }

    /// Builds the tree of the live multiset a sorted base and its sidecar
    /// describe: `sorted` less the sidecar's tombstones plus its inserts.
    ///
    /// Each non-empty cell of the base is one run, cut at the partition
    /// point of the next cell's first value (the run goes to the end when
    /// that value is past the domain). Its count is the run's length and
    /// its sum the run's sum, both less the cell's tombstones; its min and
    /// max are the run's ends past the copies those tombstones cancel, and
    /// a cell they cancel whole is dropped. The pending inserts are
    /// absorbed last.
    ///
    /// `sorted` must be ascending and the tombstones a sub-multiset of it,
    /// as a mutable index's are: each cancels one base occurrence.
    pub fn build_sorted(sorted: &[Value], sidecar: &DeltaSidecar, width: Value) -> Self {
        debug_assert!(crate::sorted::is_sorted(sorted), "the base must be sorted");
        let mut tree = Self::empty(width);
        let mut tombstones = sidecar.tombstones();
        let mut cells = Vec::new();
        let mut start = 0;
        while start < sorted.len() {
            let bucket = bucket_of(sorted[start], width);
            let next = bucket.checked_add(1).and_then(|b| b.checked_mul(width));
            let in_cell = |&v: &Value| next.is_none_or(|next| v < next);
            let end = start + sorted[start..].partition_point(in_cell);
            let (cancelled, rest) = tombstones.split_at(tombstones.partition_point(in_cell));
            tombstones = rest;
            let run = &sorted[start..end];
            start = end;
            if cancelled.len() == run.len() {
                continue;
            }
            let lead = cancelled_copies(run.iter(), cancelled.iter());
            let trail = cancelled_copies(run.iter().rev(), cancelled.iter().rev());
            let cell = GroupCell {
                sum: sum_positions(run, 0, run.len()).sum
                    - cancelled.iter().map(|&t| t as u128).sum::<u128>(),
                count: (run.len() - cancelled.len()) as u64,
                min: run[lead],
                max: run[run.len() - 1 - trail],
            };
            cells.push((bucket, cell));
        }
        debug_assert!(tombstones.is_empty(), "every tombstone is a base copy");
        tree.cells = cells.into_iter().collect();
        sidecar.inserts().iter().for_each(|&v| tree.absorb(v));
        tree
    }

    /// Folds one value into its bucket.
    pub fn absorb(&mut self, v: Value) {
        self.cells
            .entry(bucket_of(v, self.width))
            .and_modify(|cell| cell.absorb(v))
            .or_insert_with(|| GroupCell::of(v));
    }

    /// The non-empty buckets whose grid range overlaps the predicate
    /// `[low, high]` — i.e. every bucket in
    /// `[bucket_of(low), bucket_of(high)]` — in ascending bucket order.
    /// Grouped aggregates select *whole* grid buckets: a bucket
    /// participates as soon as the predicate touches its grid range, and
    /// its cell always covers all of the bucket's live values.
    pub fn cells_overlapping(
        &self,
        low: Value,
        high: Value,
    ) -> impl Iterator<Item = (u64, &GroupCell)> {
        // The empty predicate (low > high) selects no buckets.
        let range = (low <= high).then(|| bucket_of(low, self.width)..=bucket_of(high, self.width));
        range
            .into_iter()
            .flat_map(move |r| self.cells.range(r))
            .map(|(&b, cell)| (b, cell))
    }

    /// Merges `other` (same grid) into this tree, bucket by bucket.
    ///
    /// # Panics
    /// Panics when the grids differ: per-shard trees may only merge
    /// because they share the global grid.
    pub fn merge(&mut self, other: &DigestTree) {
        assert_eq!(self.width, other.width, "digest grids must match");
        for (&bucket, cell) in &other.cells {
            self.cells
                .entry(bucket)
                .and_modify(|mine| mine.merge(cell))
                .or_insert(*cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DigestTree {
        /// Number of materialised (non-empty) buckets.
        fn len(&self) -> usize {
            self.cells.len()
        }

        /// `true` when no bucket is materialised (no live values).
        fn is_empty(&self) -> bool {
            self.cells.is_empty()
        }

        /// The cell of bucket `bucket`, when materialised.
        fn cell(&self, bucket: u64) -> Option<&GroupCell> {
            self.cells.get(&bucket)
        }
    }

    #[test]
    fn cells_are_exact_per_bucket() {
        let values = [0, 5, 9, 10, 19, 20, 99, 100];
        let tree = DigestTree::build(&values, 10);
        assert_eq!(tree.len(), 5);
        assert_eq!(
            tree.cell(0),
            Some(&GroupCell {
                sum: 14,
                count: 3,
                min: 0,
                max: 9
            })
        );
        assert_eq!(
            tree.cell(1),
            Some(&GroupCell {
                sum: 29,
                count: 2,
                min: 10,
                max: 19
            })
        );
        assert_eq!(tree.cell(2).unwrap().count, 1);
        assert_eq!(tree.cell(9), Some(&GroupCell::of(99)));
        assert_eq!(tree.cell(10), Some(&GroupCell::of(100)));
        assert_eq!(tree.cell(3), None, "empty buckets are not materialised");
        let total: u64 = tree
            .cells_overlapping(0, Value::MAX)
            .map(|(_, c)| c.count)
            .sum();
        assert_eq!(total, values.len() as u64);
    }

    /// The reference `build` is held to: one map lookup per value.
    fn absorb_each(values: &[Value], width: Value) -> DigestTree {
        let mut tree = DigestTree::empty(width);
        values.iter().for_each(|&v| tree.absorb(v));
        tree
    }

    #[test]
    fn dense_window_build_matches_the_absorb_loop() {
        // A shard's slice of a domain: many values, few buckets, far from 0.
        let clustered: Vec<Value> = (0..5_000).map(|i| 1_000_000 + i * 7_919 % 40_000).collect();
        for width in [1, 7, 625, 40_000, 1 << 40] {
            assert_eq!(
                DigestTree::build(&clustered, width),
                absorb_each(&clustered, width),
                "width {width}"
            );
        }
        // Holes inside the window are not materialised.
        let holed = [10, 11, 95, 12, 97];
        let tree = DigestTree::build(&holed, 10);
        assert_eq!(tree, absorb_each(&holed, 10));
        assert_eq!(tree.len(), 2);
        // One value, repeated or alone, is a one-cell window.
        for values in [vec![42], vec![42; 100], vec![0], vec![u64::MAX]] {
            assert_eq!(DigestTree::build(&values, 5), absorb_each(&values, 5));
            assert_eq!(DigestTree::build(&values, 5).len(), 1);
        }
    }

    #[test]
    fn build_survives_the_last_bucket_and_falls_back_when_sparse() {
        // Width 1 at the top of the domain: bucket ids reach u64::MAX.
        let top = [u64::MAX, u64::MAX - 1, u64::MAX, u64::MAX - 3];
        let tree = DigestTree::build(&top, 1);
        assert_eq!(tree, absorb_each(&top, 1));
        assert_eq!(tree.cell(u64::MAX).map(|c| c.count), Some(2));
        // Span ≥ value count: a window would outweigh the data (here it
        // would not even be addressable), so the map path builds it.
        let sparse = [0, u64::MAX, 1 << 40, 3, 1 << 20];
        for width in [1, 1 << 10, 1 << 62] {
            assert_eq!(
                DigestTree::build(&sparse, width),
                absorb_each(&sparse, width),
                "width {width}"
            );
        }
        assert_eq!(DigestTree::build(&sparse, 1).len(), 5);
    }

    /// `sorted` less `tombstones` plus `inserts`, as a sidecar and as the
    /// live multiset `DigestTree::build` folds.
    fn parts(
        sorted: &[Value],
        tombstones: &[Value],
        inserts: &[Value],
    ) -> (DeltaSidecar, Vec<Value>) {
        let mut sidecar = DeltaSidecar::new();
        let mut live = sorted.to_vec();
        for &t in tombstones {
            sidecar.add_tombstone(t);
            let at = live
                .iter()
                .position(|&v| v == t)
                .expect("a tombstone is a base copy");
            live.remove(at);
        }
        for &v in inserts {
            sidecar.insert(v);
        }
        live.extend_from_slice(inserts);
        (sidecar, live)
    }

    fn check_sorted(sorted: &[Value], tombstones: &[Value], inserts: &[Value], width: Value) {
        let (sidecar, live) = parts(sorted, tombstones, inserts);
        assert_eq!(
            DigestTree::build_sorted(sorted, &sidecar, width),
            DigestTree::build(&live, width),
            "{sorted:?} - {tombstones:?} + {inserts:?}, width {width}"
        );
    }

    #[test]
    fn sorted_runs_fold_to_the_live_multiset() {
        // Duplicates straddling the edge between cells 0 and 1.
        let straddling = [3, 9, 9, 9, 10, 10, 10, 14, 19, 20];
        for tombstones in [&[][..], &[9], &[9, 9, 9], &[9, 10], &[10, 10, 10, 14, 19]] {
            check_sorted(&straddling, tombstones, &[], 10);
            check_sorted(&straddling, tombstones, &[9, 10, 25], 10);
        }
        // A tombstone cancelling one copy of a cell's min, all of them, its
        // max, both ends, and every copy in the cell (the cell is dropped).
        let cell = [20, 21, 21, 25, 28, 28, 29, 30, 35];
        let cancels: [&[Value]; 7] = [
            &[21],
            &[20],
            &[20, 21, 21],
            &[29],
            &[28, 28, 29],
            &[20, 29],
            &[20, 21, 21, 25, 28, 28, 29],
        ];
        for tombstones in cancels {
            check_sorted(&cell, tombstones, &[], 10);
        }
        let (sidecar, _) = parts(&cell, cancels[6], &[]);
        let tree = DigestTree::build_sorted(&cell, &sidecar, 10);
        assert_eq!(tree.cell(2), None, "a cancelled cell is dropped");
        assert_eq!(tree.len(), 1);
        // The last bucket under widths that do not divide 2^64, where the
        // next cell's first value is past the domain.
        let top = [
            u64::MAX - 1_500,
            u64::MAX - 615,
            u64::MAX - 615,
            u64::MAX - 1,
            u64::MAX,
        ];
        for width in [3, 1_000, u64::MAX / 2 + 7, u64::MAX] {
            check_sorted(&top, &[], &[], width);
            check_sorted(&top, &[u64::MAX], &[u64::MAX - 2], width);
            check_sorted(&top, &[u64::MAX - 615, u64::MAX - 1], &[], width);
        }
        // Width 1: every value its own cell, up to bucket u64::MAX.
        let ones = [0, 0, 1, 5, 5, 5, 6, u64::MAX - 1, u64::MAX, u64::MAX];
        check_sorted(&ones, &[], &[], 1);
        check_sorted(&ones, &[0, 5, u64::MAX], &[7, u64::MAX], 1);
        check_sorted(&ones, &[0, 0, 6, u64::MAX, u64::MAX], &[], 1);
        // An empty base: only the inserts.
        check_sorted(&[], &[], &[], 10);
        check_sorted(&[], &[], &[4, 4, 17, u64::MAX], 10);
    }

    #[test]
    fn sorted_runs_match_the_fold_on_random_parts() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..200 {
            let n = next(300) as usize;
            let domain = [50, 1_000, u64::MAX][round % 3];
            let mut sorted: Vec<Value> = (0..n).map(|_| next(domain)).collect();
            sorted.sort_unstable();
            let tombstones: Vec<Value> = sorted.iter().copied().filter(|_| next(4) == 0).collect();
            let inserts: Vec<Value> = (0..next(20)).map(|_| next(domain)).collect();
            let width = [1, 7, 64, 1 << 40, u64::MAX][round % 5];
            check_sorted(&sorted, &tombstones, &inserts, width);
        }
    }

    #[test]
    fn global_grid_makes_shard_trees_merge_exactly() {
        let all = [3u64, 7, 12, 18, 23, 27, 31, 12, 7];
        // Any split of the multiset must merge back to the whole tree.
        let (left, right) = all.split_at(4);
        let mut merged = DigestTree::build(left, 10);
        merged.merge(&DigestTree::build(right, 10));
        assert_eq!(merged, DigestTree::build(&all, 10));
    }

    #[test]
    fn overlap_selects_whole_buckets() {
        let tree = DigestTree::build(&[5, 15, 25, 35], 10);
        // [12, 28] touches buckets 1 and 2 entirely (whole-bucket
        // semantics), not the half-open value range.
        let hit: Vec<u64> = tree.cells_overlapping(12, 28).map(|(b, _)| b).collect();
        assert_eq!(hit, vec![1, 2]);
        // Inverted predicates select nothing.
        assert_eq!(tree.cells_overlapping(28, 12).count(), 0);
        // A point predicate selects its bucket.
        let hit: Vec<u64> = tree.cells_overlapping(35, 35).map(|(b, _)| b).collect();
        assert_eq!(hit, vec![3]);
    }

    #[test]
    fn empty_tree_has_no_cells_not_sentinels() {
        let tree = DigestTree::build(&[], 64);
        assert!(tree.is_empty());
        assert_eq!(tree.cells_overlapping(0, u64::MAX).count(), 0);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_width_grid_rejected() {
        let _ = DigestTree::empty(0);
    }

    #[test]
    #[should_panic(expected = "digest grids must match")]
    fn mismatched_grids_refuse_to_merge() {
        let mut a = DigestTree::build(&[1], 10);
        a.merge(&DigestTree::build(&[1], 20));
    }
}
