//! Value-range sharding of a column.
//!
//! The serving engine (`pi-engine`) splits every column into N independent
//! shards so that indexing work can proceed on all shards in parallel and a
//! range query only has to visit the shards whose value range overlaps the
//! predicate. This module owns the storage-level half of that design:
//! choosing shard boundaries and slicing a [`Column`] into per-shard
//! sub-columns.
//!
//! Boundaries are **equi-depth**: they are drawn from quantiles of a sample
//! of the data, so each shard receives roughly the same number of rows even
//! under heavy skew — the same reasoning the paper applies to Progressive
//! Bucketsort's equi-height bucket bounds.

use crate::column::{Column, Value};

/// Number of sample elements used to estimate quantile boundaries.
const BOUNDARY_SAMPLE: usize = 4096;

/// Deterministic pseudo-random sample (with replacement) of up to
/// `max_sample` elements of `values` — the whole input, in order, when it
/// already fits. Shared by the boundary-quantile estimation here and the
/// distribution estimation in `pi-engine`.
///
/// Positions come from a SplitMix64 stream rather than a fixed stride:
/// strided sampling aliases with periodic data (any cycle length dividing
/// the stride returns the same value over and over), which would collapse
/// equi-depth boundaries onto a single key.
pub fn sample_values(values: &[Value], max_sample: usize) -> Vec<Value> {
    if values.len() <= max_sample {
        return values.to_vec();
    }
    let len = values.len() as u64;
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..max_sample)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            values[(z % len) as usize]
        })
        .collect()
}

/// An ordered partition of the value domain into contiguous shards.
///
/// A partition over N shards stores N−1 ascending split keys
/// `b_0 <= b_1 <= … <= b_{N-2}`; shard `i` owns the values `v` with
/// `b_{i-1} <= v < b_i` (shard 0 is unbounded below, shard N−1 unbounded
/// above). Splitting a column routes every row to exactly one shard and
/// preserves the rows' relative order within each shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePartition {
    boundaries: Vec<Value>,
}

impl RangePartition {
    /// Builds an equi-depth partition into `shards` shards from (a sample
    /// of) `values`.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn equi_depth(values: &[Value], shards: usize) -> Self {
        assert!(shards > 0, "a partition needs at least one shard");
        if shards == 1 || values.is_empty() {
            return RangePartition {
                boundaries: vec![Value::MAX; shards.saturating_sub(1)],
            };
        }
        // Pseudo-random sample, sorted; quantiles become the split keys.
        let mut sample = sample_values(values, BOUNDARY_SAMPLE);
        sample.sort_unstable();
        let mut boundaries = Vec::with_capacity(shards - 1);
        for i in 1..shards {
            let pos = (i * sample.len() / shards).min(sample.len() - 1);
            boundaries.push(sample[pos]);
        }
        RangePartition { boundaries }
    }

    /// An explicit partition from ascending split keys (N−1 keys for N
    /// shards).
    ///
    /// # Panics
    /// Panics when the keys are not ascending.
    pub fn from_boundaries(boundaries: Vec<Value>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "shard boundaries must be ascending"
        );
        RangePartition { boundaries }
    }

    /// Number of shards this partition produces.
    pub fn shard_count(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The shard owning value `v`.
    pub fn shard_of(&self, v: Value) -> usize {
        // First boundary strictly greater than v; with duplicate split
        // keys every owner of that value lands after the last duplicate,
        // leaving the shards between the duplicates empty.
        self.boundaries.partition_point(|&b| b <= v)
    }

    /// The contiguous run of shard indices whose value range can contain
    /// values in `[low, high]` (inclusive; empty when `low > high`).
    pub fn overlapping(&self, low: Value, high: Value) -> std::ops::Range<usize> {
        if low > high {
            return 0..0;
        }
        self.shard_of(low)..self.shard_of(high) + 1
    }

    /// Routes every value to its shard, preserving relative order within
    /// each shard. Always returns exactly [`RangePartition::shard_count`]
    /// buckets; shards whose value range is empty come back empty.
    pub(crate) fn split_values(&self, values: &[Value]) -> Vec<Vec<Value>> {
        // Counting pass first: exact pre-sizing beats the reallocation
        // churn a per-bucket growth strategy pays under skew.
        let mut out: Vec<Vec<Value>> = self
            .bucket_sizes(values)
            .into_iter()
            .map(Vec::with_capacity)
            .collect();
        for &v in values {
            out[self.shard_of(v)].push(v);
        }
        out
    }

    /// Per-shard row counts for `values`, without materialising the
    /// buckets: the counting pass that pre-sizes
    /// [`RangePartition::split_values`].
    pub(crate) fn bucket_sizes(&self, values: &[Value]) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shard_count()];
        for &v in values {
            sizes[self.shard_of(v)] += 1;
        }
        sizes
    }

    /// Routes every row of `column` to its shard, preserving relative
    /// order within each shard, and returns the shards as ready-made
    /// [`Column`]s with their min/max statistics computed. Always returns
    /// exactly [`RangePartition::shard_count`] columns; shards whose value
    /// range is empty come back empty.
    pub fn split_column(&self, column: &Column) -> Vec<Column> {
        self.split_values(column.data())
            .into_iter()
            .map(Column::from_vec)
            .collect()
    }

    /// The split keys (ascending, N−1 entries for N shards).
    pub fn boundaries(&self) -> &[Value] {
        &self.boundaries
    }

    /// Live-row weight drift of a sharded column: the heaviest shard's row
    /// count divided by the ideal equi-depth share (`total / shards`).
    ///
    /// `1.0` means perfectly balanced; a mutable column whose inserts and
    /// deletes concentrate in one value range drifts upwards over time.
    /// Callers re-balance (re-draw equi-depth boundaries from the live
    /// values and re-split) once the drift crosses an operational
    /// threshold — typically around `2.0`. Returns `1.0` for an empty
    /// column (nothing to balance).
    pub fn weight_drift(live_sizes: &[usize]) -> f64 {
        let total: usize = live_sizes.iter().sum();
        if total == 0 || live_sizes.is_empty() {
            return 1.0;
        }
        let ideal = total as f64 / live_sizes.len() as f64;
        let heaviest = *live_sizes.iter().max().expect("non-empty sizes") as f64;
        heaviest / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_values() -> Vec<Value> {
        // 90% of values in [450, 550), rest spread over [0, 1000).
        let mut v = Vec::new();
        for i in 0..900 {
            v.push(450 + (i % 100));
        }
        for i in 0..100 {
            v.push(i * 10);
        }
        v
    }

    #[test]
    fn single_shard_owns_everything() {
        let p = RangePartition::equi_depth(&[3, 1, 2], 1);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(Value::MAX), 0);
        assert_eq!(p.overlapping(0, Value::MAX), 0..1);
    }

    #[test]
    fn split_is_a_partition_of_the_input() {
        let values: Vec<Value> = (0..10_000).rev().collect();
        let p = RangePartition::equi_depth(&values, 8);
        let buckets = p.split_values(&values);
        assert_eq!(buckets.len(), 8);
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, values.len());
        let mut reunited: Vec<Value> = buckets.concat();
        reunited.sort_unstable();
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(reunited, expected);
    }

    #[test]
    fn shards_hold_disjoint_ascending_value_ranges() {
        let values: Vec<Value> = (0..10_000).map(|i| (i * 37) % 10_000).collect();
        let p = RangePartition::equi_depth(&values, 4);
        let buckets = p.split_values(&values);
        for w in 0..buckets.len() - 1 {
            let left_max = buckets[w].iter().max().copied();
            let right_min = buckets[w + 1].iter().min().copied();
            if let (Some(l), Some(r)) = (left_max, right_min) {
                assert!(l < r, "shard {w} max {l} >= shard {} min {r}", w + 1);
            }
        }
    }

    #[test]
    fn equi_depth_balances_under_skew() {
        let values = skewed_values();
        let p = RangePartition::equi_depth(&values, 4);
        let buckets = p.split_values(&values);
        let largest = buckets.iter().map(Vec::len).max().unwrap();
        // A domain-uniform split would put >90% of rows into one shard;
        // equi-depth must do clearly better than that.
        assert!(
            largest < values.len() * 6 / 10,
            "largest shard holds {largest} of {} rows",
            values.len()
        );
    }

    #[test]
    fn periodic_data_does_not_alias_the_sample() {
        // values[i] = i % 10 with len/4096 == 10: a fixed-stride sample
        // would read position 0, 10, 20, … — all zeros — and collapse
        // every boundary onto 0.
        let values: Vec<Value> = (0..40_960).map(|i| i % 10).collect();
        let p = RangePartition::equi_depth(&values, 4);
        let buckets = p.split_values(&values);
        let largest = buckets.iter().map(Vec::len).max().unwrap();
        assert!(
            largest < values.len() * 6 / 10,
            "periodic data collapsed into one shard ({largest} of {} rows)",
            values.len()
        );
    }

    #[test]
    fn overlapping_respects_boundaries() {
        let p = RangePartition::from_boundaries(vec![100, 200, 300]);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.overlapping(0, 99), 0..1);
        assert_eq!(p.overlapping(100, 100), 1..2);
        assert_eq!(p.overlapping(150, 250), 1..3);
        assert_eq!(p.overlapping(0, 1_000), 0..4);
        assert_eq!(p.overlapping(10, 5), 0..0);
    }

    #[test]
    fn queries_only_need_overlapping_shards() {
        let values: Vec<Value> = (0..5_000).map(|i| (i * 13) % 5_000).collect();
        let p = RangePartition::equi_depth(&values, 8);
        let buckets = p.split_values(&values);
        for (low, high) in [(0, 100), (2_400, 2_600), (4_900, 4_999), (700, 700)] {
            let covered = p.overlapping(low, high);
            for (i, bucket) in buckets.iter().enumerate() {
                if !covered.contains(&i) {
                    assert!(
                        bucket.iter().all(|&v| v < low || v > high),
                        "shard {i} outside {covered:?} holds a qualifying value for [{low}, {high}]"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_sizes_match_split() {
        for (values, shards) in [
            (skewed_values(), 4),
            ((0..10_000).rev().collect::<Vec<Value>>(), 8),
            (vec![7; 500], 3),
            (vec![], 2),
        ] {
            let p = RangePartition::equi_depth(&values, shards);
            let sizes = p.bucket_sizes(&values);
            let buckets = p.split_values(&values);
            assert_eq!(sizes.len(), shards);
            assert_eq!(
                sizes,
                buckets.iter().map(Vec::len).collect::<Vec<_>>(),
                "{shards} shards over {} values",
                values.len()
            );
        }
    }

    #[test]
    fn split_column_keeps_statistics() {
        let column = Column::from_vec((0..1_000).collect());
        let p = RangePartition::equi_depth(column.data(), 4);
        let shards = p.split_column(&column);
        assert_eq!(shards.len(), 4);
        for shard in &shards {
            if !shard.is_empty() {
                assert!(shard.min() <= shard.max());
                assert!(shard.iter().all(|v| v >= shard.min() && v <= shard.max()));
            }
        }
    }

    #[test]
    fn weight_drift_signals_imbalance() {
        assert_eq!(RangePartition::weight_drift(&[]), 1.0);
        assert_eq!(RangePartition::weight_drift(&[0, 0, 0]), 1.0);
        assert!((RangePartition::weight_drift(&[100, 100, 100, 100]) - 1.0).abs() < 1e-12);
        // One shard holding half of all rows across 4 shards → drift 2.0.
        let drift = RangePartition::weight_drift(&[300, 100, 100, 100]);
        assert!((drift - 2.0).abs() < 1e-12, "drift {drift}");
        assert!(RangePartition::weight_drift(&[1000, 0, 0, 0]) > 3.9);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = RangePartition::equi_depth(&[1, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn descending_boundaries_rejected() {
        let _ = RangePartition::from_boundaries(vec![10, 5]);
    }
}
