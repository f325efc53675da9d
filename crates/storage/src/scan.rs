//! Full-column and partial-column scans.
//!
//! The paper's *Full Scan* baseline — and the "scan the not-yet-indexed
//! `1 - ρ` fraction of the original column" step of every progressive
//! index's creation phase — is a tight loop over a `&[Value]` slice that
//! evaluates `low <= v && v <= high` and accumulates the sum of the
//! qualifying values.
//!
//! There is one loop body, `range_sum_body`, behind [`scan_range_sum`] and
//! [`sum_positions`]. It is **predicated** (branch-free), the variant the
//! paper uses to obtain robust, selectivity-independent scan costs (citing
//! Ross's conjunctive-selection work), written so that it vectorises:
//!
//! * the closed interval is one *rebased* unsigned compare,
//!   `v.wrapping_sub(low) <= high - low` (x86-64 before AVX-512 has no
//!   unsigned 64-bit compare, so each one saved is several instructions);
//! * the outcome is an all-ones/all-zeros mask ANDed onto the value, not a
//!   multiplier, and the masked value's low and high 32-bit halves
//!   accumulate in separate `u64` lanes that fold into the exact `u128`
//!   sum once per `SUM_CHUNK` elements (a `u128` accumulator is an
//!   add/adc pair per element and does not vectorise);
//! * an inverted interval (`low > high`) is empty and reads nothing.
//!
//! The body is compiled twice: for the build's baseline target and, on
//! x86-64, under `#[target_feature(enable = "avx2")]`. A predicate scan of
//! at least `DISPATCH_MIN_LEN` elements takes the AVX2 copy when the CPU
//! has it (checked at run time, per call); everything else — short
//! slices, other architectures, older CPUs, and [`sum_positions`], whose
//! all-pass bounds leave no compare to widen — runs the baseline copy
//! inline.
//!
//! The predicate is a closed interval `[low, high]`, matching SQL
//! `BETWEEN`.

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
}

/// Elements summed per chunk by the range-sum body. Within a chunk the low
/// and high 32-bit halves accumulate in separate `u64` lanes, each bounded
/// by `SUM_CHUNK · 2³²`, so any chunk length up to 2³² keeps them exact.
const SUM_CHUNK: usize = 1 << 12;

/// Slices shorter than this run the baseline copy of the body inline:
/// the AVX2 copy cannot be inlined into its callers, and up to a couple of
/// cache lines the call costs what the wider lanes save (8 values: 6 ns
/// against 9 with both behind a call; from 16 up it is 2× and more ahead).
const DISPATCH_MIN_LEN: usize = 16;

/// The one range-sum loop (see the module docs). `#[inline(always)]` so
/// that each caller compiles it for its own target features and folds its
/// own constant bounds.
#[inline(always)]
fn range_sum_body(data: &[Value], low: Value, high: Value) -> ScanResult {
    if low > high {
        return ScanResult::EMPTY;
    }
    let span = high - low;
    let (mut sum, mut count) = (0u128, 0u64);
    for chunk in data.chunks(SUM_CHUNK) {
        let (mut sum_low, mut sum_high, mut hits) = (0u64, 0u64, 0u64);
        for &v in chunk {
            let mask = ((v.wrapping_sub(low) <= span) as u64).wrapping_neg();
            let kept = v & mask;
            sum_low += kept & 0xFFFF_FFFF;
            sum_high += kept >> 32;
            hits += mask & 1;
        }
        sum += sum_low as u128 + ((sum_high as u128) << 32);
        count += hits;
    }
    ScanResult { sum, count }
}

/// The body compiled with AVX2 enabled: same source, 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn range_sum_avx2(data: &[Value], low: Value, high: Value) -> ScanResult {
    range_sum_body(data, low, high)
}

/// Predicated (branch-free) range-sum scan over `data`.
///
/// Every element is read and masked by the predicate outcome, so the
/// execution time depends only on `data.len()`, not on how many elements
/// qualify — the property the paper relies on for robust, predictable
/// per-query cost. The one exception is an inverted predicate
/// (`low > high`), which is empty whatever the data and reads none of it.
#[inline]
pub fn scan_range_sum(data: &[Value], low: Value, high: Value) -> ScanResult {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= DISPATCH_MIN_LEN && std::is_x86_feature_detected!("avx2") {
        // SAFETY: `range_sum_avx2` is a safe function whose only
        // requirement is that the CPU executes AVX2 instructions, which
        // the run-time check on the line above has just established. Its
        // body is `range_sum_body`, the same safe code as the other leg.
        return unsafe { range_sum_avx2(data, low, high) };
    }
    range_sum_body(data, low, high)
}

/// Sums a contiguous run of a *sorted* array between positions
/// `[start, end)`. This is the "scan the α fraction of the index" step of
/// the refinement and consolidation phases once the qualifying range has
/// been located by binary search or a B+-tree lookup.
///
/// It is the range-sum body with bounds every value passes, inlined so
/// that the constant bounds fold the compare and the mask away. What is
/// left — two adds per value — runs faster on the baseline target than the
/// AVX2 copy does with its compare (40 against 30 GB/s on 10k cache-hot
/// values, ahead at every length from 256 to 200k), so it never dispatches.
#[inline]
pub fn sum_positions(data: &[Value], start: usize, end: usize) -> ScanResult {
    range_sum_body(&data[start..end], 0, Value::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain branching `u128` loop both legs of the kernel are held
    /// against.
    fn scan_range_sum_branching(data: &[Value], low: Value, high: Value) -> ScanResult {
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

    type Leg = fn(&[Value], Value, Value) -> ScanResult;

    /// Both compiled copies of the body, called directly: the baseline one
    /// always, the AVX2 one when this CPU has it.
    fn legs() -> Vec<(&'static str, Leg)> {
        let mut legs: Vec<(&'static str, Leg)> = vec![("baseline", range_sum_body)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the line above.
            legs.push(("avx2", |d, l, h| unsafe { range_sum_avx2(d, l, h) }));
        }
        legs
    }

    #[test]
    fn both_legs_match_the_reference_loop_at_chunk_edges() {
        let mut state = 7u64;
        for len in [
            0,
            1,
            DISPATCH_MIN_LEN - 1,
            DISPATCH_MIN_LEN,
            63,
            64,
            65,
            SUM_CHUNK - 1,
            SUM_CHUNK,
            SUM_CHUNK + 1,
            2 * SUM_CHUNK + 1,
        ] {
            let mut data: Vec<Value> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> (state % 64)
                })
                .collect();
            // Extreme values where a chunk (or the slice) starts and ends.
            for edge in [
                0,
                SUM_CHUNK - 1,
                SUM_CHUNK,
                2 * SUM_CHUNK - 1,
                len.wrapping_sub(1),
            ] {
                if let Some(v) = data.get_mut(edge) {
                    *v = Value::MAX;
                }
            }
            let mid = data.get(len / 2).copied().unwrap_or(5);
            for (low, high) in [
                (0, Value::MAX),
                (0, mid),
                (mid, Value::MAX),
                (mid, mid),
                (Value::MAX, Value::MAX),
                (0, 0),
                (mid / 2, mid),
                (mid, mid / 2),
                (Value::MAX, 0),
                (1, 0),
            ] {
                let want = if low > high {
                    ScanResult::EMPTY
                } else {
                    scan_range_sum_branching(&data, low, high)
                };
                for (name, leg) in legs() {
                    assert_eq!(
                        leg(&data, low, high),
                        want,
                        "{name} len {len} [{low}, {high}]"
                    );
                }
                assert_eq!(scan_range_sum(&data, low, high), want, "len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn both_legs_match_the_reference_loop_on_random_input(
            data in prop::collection::vec(any::<u64>(), 0..700),
            shift in 0u32..64,
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            // Shifting narrows the domain so that bounds land among the values.
            let data: Vec<Value> = data.iter().map(|v| v >> shift).collect();
            let (low, high) = (a >> shift, b >> shift);
            let want = scan_range_sum_branching(&data, low, high);
            for (name, leg) in legs() {
                prop_assert_eq!(leg(&data, low, high), want, "{}", name);
            }
            prop_assert_eq!(scan_range_sum(&data, low, high), want);
        }
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
