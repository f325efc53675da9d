//! Full-column and partial-column scans.
//!
//! The paper's *Full Scan* baseline — and the "scan the not-yet-indexed
//! `1 - ρ` fraction of the original column" step of every progressive
//! index's creation phase — is a tight loop over a `&[Value]` slice that
//! evaluates `low <= v && v <= high` and accumulates the sum of the
//! qualifying values.
//!
//! Two implementations are provided:
//!
//! * [`scan_range_sum`] — **predicated** (branch-free): the comparison
//!   result is converted to a `0/1` multiplier so the loop body executes
//!   the same instructions regardless of selectivity. This is the variant
//!   the paper uses to obtain robust, selectivity-independent scan costs
//!   (citing Ross's conjunctive-selection work).
//! * [`scan_range_sum_branching`] — a conventional `if`-guarded loop, kept
//!   as an ablation target (`pi-bench/benches/scan.rs`) to show *why*
//!   predication is the right default for robustness.
//!
//! Both treat the predicate as a closed interval `[low, high]`, matching
//! SQL `BETWEEN`.

use crate::column::Value;

/// Result of a range scan: the aggregate the paper's workload queries
/// compute (`SUM`) plus the number of qualifying rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanResult {
    /// Sum of all values `v` with `low <= v <= high`.
    pub sum: u128,
    /// Number of values satisfying the predicate.
    pub count: u64,
}

impl ScanResult {
    /// The empty result (identity element for [`ScanResult::merge`]).
    pub const EMPTY: ScanResult = ScanResult { sum: 0, count: 0 };

    /// Combines two partial results, e.g. the indexed-part lookup and the
    /// unindexed-tail scan that together answer one query during the
    /// creation phase.
    #[inline]
    pub fn merge(self, other: ScanResult) -> ScanResult {
        ScanResult {
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Removes `other` from this result: the tombstone composition of the
    /// mutation path (`base + inserts - tombstones`).
    ///
    /// Tombstones are only admitted for live rows, so `other` is always a
    /// sub-aggregate of `self`; a debug assertion guards that invariant.
    #[inline]
    pub fn subtract(self, other: ScanResult) -> ScanResult {
        debug_assert!(
            self.sum >= other.sum && self.count >= other.count,
            "subtracting an aggregate ({other:?}) that is not contained in {self:?}"
        );
        ScanResult {
            sum: self.sum - other.sum,
            count: self.count - other.count,
        }
    }
}

/// Predicated (branch-free) range-sum scan over `data`.
///
/// Every element is read and multiplied by the boolean predicate outcome,
/// so the execution time depends only on `data.len()`, not on how many
/// elements qualify — the property the paper relies on for robust,
/// predictable per-query cost.
#[inline]
pub fn scan_range_sum(data: &[Value], low: Value, high: Value) -> ScanResult {
    let mut sum: u128 = 0;
    let mut count: u64 = 0;
    for &v in data {
        let qualifies = (v >= low) as u64 & (v <= high) as u64;
        sum += (v as u128) * (qualifies as u128);
        count += qualifies;
    }
    ScanResult { sum, count }
}

/// Branching range-sum scan over `data`.
///
/// Functionally identical to [`scan_range_sum`] but uses a conditional
/// branch; its cost varies with selectivity and branch-prediction
/// behaviour. Retained for the predication ablation benchmark.
#[inline]
pub fn scan_range_sum_branching(data: &[Value], low: Value, high: Value) -> ScanResult {
    let mut sum: u128 = 0;
    let mut count: u64 = 0;
    for &v in data {
        if v >= low && v <= high {
            sum += v as u128;
            count += 1;
        }
    }
    ScanResult { sum, count }
}

/// Predicated scan that additionally collects the positions of qualifying
/// rows. Used by examples that need row identifiers rather than only the
/// aggregate.
pub fn scan_range_select(data: &[Value], low: Value, high: Value) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, &v) in data.iter().enumerate() {
        if v >= low && v <= high {
            out.push(i);
        }
    }
    out
}

/// Elements summed per chunk by [`sum_positions`]. Within a chunk the low
/// and high 32-bit halves accumulate in separate `u64` lanes, each bounded
/// by `SUM_CHUNK · 2³²`, so any chunk length up to 2³² keeps them exact.
const SUM_CHUNK: usize = 1 << 12;

/// Sums a contiguous run of a *sorted* array between positions
/// `[start, end)`. This is the "scan the α fraction of the index" step of
/// the refinement and consolidation phases once the qualifying range has
/// been located by binary search or a B+-tree lookup.
///
/// A `u128` accumulator costs an add/adc pair per element and does not
/// vectorise; the split halves are plain `u64` adds and fold into the
/// exact `u128` once per chunk.
#[inline]
pub fn sum_positions(data: &[Value], start: usize, end: usize) -> ScanResult {
    let mut sum: u128 = 0;
    for chunk in data[start..end].chunks(SUM_CHUNK) {
        let (mut low, mut high) = (0u64, 0u64);
        for &v in chunk {
            low += v & 0xFFFF_FFFF;
            high += v >> 32;
        }
        sum += low as u128 + ((high as u128) << 32);
    }
    ScanResult {
        sum,
        count: (end - start) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Vec<Value> {
        vec![6, 3, 14, 13, 2, 1, 8, 19, 7, 12, 11, 4, 16, 9]
    }

    #[test]
    fn predicated_matches_branching() {
        let data = example();
        for (lo, hi) in [(0, 20), (5, 10), (14, 14), (20, 30), (3, 3), (0, 0)] {
            let a = scan_range_sum(&data, lo, hi);
            let b = scan_range_sum_branching(&data, lo, hi);
            assert_eq!(a, b, "mismatch for predicate [{lo}, {hi}]");
        }
    }

    #[test]
    fn closed_interval_semantics() {
        let data = vec![5, 10, 15];
        let r = scan_range_sum(&data, 5, 15);
        assert_eq!(r.sum, 30);
        assert_eq!(r.count, 3);
        let r = scan_range_sum(&data, 6, 14);
        assert_eq!(r.sum, 10);
        assert_eq!(r.count, 1);
    }

    #[test]
    fn empty_input_gives_empty_result() {
        let r = scan_range_sum(&[], 0, 100);
        assert_eq!(r, ScanResult::EMPTY);
    }

    #[test]
    fn no_matches() {
        let data = example();
        let r = scan_range_sum(&data, 100, 200);
        assert_eq!(r.count, 0);
        assert_eq!(r.sum, 0);
    }

    #[test]
    fn inverted_predicate_matches_nothing() {
        // low > high is a degenerate (empty) interval.
        let data = example();
        let r = scan_range_sum(&data, 10, 5);
        assert_eq!(r.count, 0);
        assert_eq!(r.sum, 0);
    }

    #[test]
    fn merge_combines_partial_results() {
        let data = example();
        let (head, tail) = data.split_at(7);
        let merged = scan_range_sum(head, 3, 13).merge(scan_range_sum(tail, 3, 13));
        assert_eq!(merged, scan_range_sum(&data, 3, 13));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let r = ScanResult { sum: 42, count: 3 };
        assert_eq!(r.merge(ScanResult::EMPTY), r);
        assert_eq!(ScanResult::EMPTY.merge(r), r);
    }

    #[test]
    fn select_returns_matching_positions() {
        let data = example();
        let rows = scan_range_select(&data, 11, 16);
        let values: Vec<Value> = rows.iter().map(|&i| data[i]).collect();
        assert_eq!(values, vec![14, 13, 12, 11, 16]);
    }

    #[test]
    fn sum_positions_on_sorted_run() {
        let mut data = example();
        data.sort_unstable();
        let r = sum_positions(&data, 2, 5);
        assert_eq!(r.count, 3);
        assert_eq!(r.sum, (data[2] + data[3] + data[4]) as u128);
    }

    #[test]
    fn sum_positions_is_exact_on_extreme_values_at_chunk_boundaries() {
        let data = vec![Value::MAX; 2 * SUM_CHUNK + 1];
        for len in [
            1,
            SUM_CHUNK - 1,
            SUM_CHUNK,
            SUM_CHUNK + 1,
            2 * SUM_CHUNK + 1,
        ] {
            for start in [0, 1] {
                let end = (start + len).min(data.len());
                let r = sum_positions(&data, start, end);
                assert_eq!(r.count as usize, end - start);
                assert_eq!(r.sum, Value::MAX as u128 * (end - start) as u128);
            }
        }
    }

    #[test]
    fn sum_positions_empty_range() {
        let data = example();
        let r = sum_positions(&data, 3, 3);
        assert_eq!(r, ScanResult::EMPTY);
    }

    #[test]
    fn predicated_scan_handles_extreme_values() {
        let data = vec![0, Value::MAX, 1];
        let r = scan_range_sum(&data, 0, Value::MAX);
        assert_eq!(r.count, 3);
        assert_eq!(r.sum, (Value::MAX as u128) + 1);
    }
}
