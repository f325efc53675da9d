//! Binary-search primitives over sorted runs.
//!
//! Once a progressive index reaches (parts of) a sorted representation —
//! sorted leaf nodes in Progressive Quicksort's refinement phase, merged
//! bucket ranges in Radixsort/Bucketsort, or the final fully sorted array —
//! range queries are answered by locating the qualifying run with two
//! binary searches and summing it. The paper models this lookup cost as
//! `h * φ` (tree height times random-access cost); the searches here take a
//! fixed `ceil(log2(len))` probes whatever the data distribution.

use crate::column::Value;
use crate::scan::{sum_positions, ScanResult};

/// Index of the first element in the sorted slice `data` that is `>= key`
/// (i.e. the lower bound / `leftmost insertion point`).
///
/// `[T]::partition_point`: its search compiles to conditional moves, where
/// a hand-written halving loop was measured compiling to data-dependent
/// branches (28–31 ns against 4.7 ns over 63 bounds — docs/PERFORMANCE.md).
#[inline]
pub fn lower_bound(data: &[Value], key: Value) -> usize {
    data.partition_point(|&v| v < key)
}

/// Index of the first element in the sorted slice `data` that is `> key`
/// (i.e. the upper bound / `rightmost insertion point`). The same
/// branch-free search as [`lower_bound`].
#[inline]
pub fn upper_bound(data: &[Value], key: Value) -> usize {
    data.partition_point(|&v| v <= key)
}

/// Half-open position range `[start, end)` of values in `[low, high]`
/// within the sorted slice `data`.
#[inline]
pub(crate) fn equal_range(data: &[Value], low: Value, high: Value) -> (usize, usize) {
    if low > high {
        return (0, 0);
    }
    let start = lower_bound(data, low);
    let end = upper_bound(data, high);
    (start, end.max(start))
}

/// Answers a range-sum query over a fully sorted slice: two binary searches
/// followed by a sequential sum of the qualifying run.
#[inline]
pub fn sorted_range_sum(data: &[Value], low: Value, high: Value) -> ScanResult {
    let (start, end) = equal_range(data, low, high);
    sum_positions(data, start, end)
}

/// Returns `true` when `data` is sorted in non-decreasing order.
/// Used throughout the test-suites and by debug assertions at phase
/// transitions (refinement → consolidation).
pub fn is_sorted(data: &[Value]) -> bool {
    data.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_range_sum;

    #[test]
    fn lower_upper_bound_basic() {
        let data = vec![1, 3, 3, 5, 7, 9];
        assert_eq!(lower_bound(&data, 0), 0);
        assert_eq!(lower_bound(&data, 3), 1);
        assert_eq!(upper_bound(&data, 3), 3);
        assert_eq!(lower_bound(&data, 4), 3);
        assert_eq!(upper_bound(&data, 9), 6);
        assert_eq!(lower_bound(&data, 10), 6);
    }

    #[test]
    fn bounds_match_a_linear_scan() {
        let mut data: Vec<Value> = (0..1000).map(|i| (i * 7) % 97).collect();
        data.sort_unstable();
        for key in 0..100 {
            assert_eq!(
                lower_bound(&data, key),
                data.iter().filter(|&&v| v < key).count(),
                "lower_bound mismatch at {key}"
            );
            assert_eq!(
                upper_bound(&data, key),
                data.iter().filter(|&&v| v <= key).count(),
                "upper_bound mismatch at {key}"
            );
        }
    }

    #[test]
    fn bounds_on_empty_slice() {
        assert_eq!(lower_bound(&[], 5), 0);
        assert_eq!(upper_bound(&[], 5), 0);
        assert_eq!(equal_range(&[], 1, 10), (0, 0));
    }

    #[test]
    fn equal_range_inverted_predicate() {
        let data = vec![1, 2, 3];
        assert_eq!(equal_range(&data, 5, 2), (0, 0));
    }

    #[test]
    fn sorted_range_sum_matches_scan() {
        let mut data: Vec<Value> = vec![6, 3, 14, 13, 2, 1, 8, 19, 7, 12, 11, 4, 16, 9];
        let unsorted = data.clone();
        data.sort_unstable();
        for (lo, hi) in [(0, 20), (5, 10), (13, 13), (21, 40), (0, 1)] {
            assert_eq!(
                sorted_range_sum(&data, lo, hi),
                scan_range_sum(&unsorted, lo, hi),
                "mismatch for [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn sorted_range_sum_with_duplicates() {
        let data = vec![2, 2, 2, 5, 5, 9];
        let r = sorted_range_sum(&data, 2, 5);
        assert_eq!(r.count, 5);
        assert_eq!(r.sum, 2 * 3 + 5 * 2);
    }

    #[test]
    fn is_sorted_detects_order() {
        assert!(is_sorted(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2, 3]));
        assert!(!is_sorted(&[2, 1]));
    }
}
