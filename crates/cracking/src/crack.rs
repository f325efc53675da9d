//! The cracking kernel shared by the adaptive indexing baselines.
//!
//! The kernel partitions a slice region around a pivot with the predicate
//! `< pivot`: after the call, all elements smaller than the pivot precede
//! all elements greater than or equal to it, and the split position is the
//! first index of the `>= pivot` region.
//!
//! `PartialCrack` (crate-private) is the classical two-cursor Hoare-style
//! partition as a resumable state machine. A crack can be advanced by at
//! most `max_swaps` swaps per call, which is exactly how progressive
//! stochastic cracking (Halim et al.) limits the per-query reorganisation
//! cost on pieces larger than the L2 cache. [`crack_in_two`] runs one to
//! completion and reports the number of element swaps performed (the unit
//! progressive stochastic cracking budgets).

use pi_storage::Value;

/// Outcome of a completed crack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrackResult {
    /// First index of the `>= pivot` region.
    pub split: usize,
    /// Number of element swaps that were performed.
    pub swaps: u64,
}

/// Partitions `data[begin..end)` in place around `pivot` (predicate
/// `< pivot`) and returns the split position together with the number of
/// swaps performed.
///
/// The kernel is the textbook two-cursor partition: advance the left
/// cursor over elements already `< pivot`, retreat the right cursor over
/// elements already `>= pivot`, and swap when both cursors stop. It is
/// the crate's resumable crack run without a swap cap.
///
/// # Panics
/// Panics when `begin > end` or `end > data.len()`.
pub fn crack_in_two(data: &mut [Value], begin: usize, end: usize, pivot: Value) -> CrackResult {
    assert!(begin <= end && end <= data.len(), "invalid crack range");
    let mut crack = PartialCrack::new(begin, end, pivot);
    let swaps = crack.step(data, u64::MAX);
    CrackResult {
        split: crack.split(),
        swaps,
    }
}

/// A [`crack_in_two`] partition that can be advanced a bounded number of
/// swaps at a time and resumed on a later query.
///
/// While the crack is incomplete the region `[begin, end)` is in an
/// intermediate state: the prefix `[begin, lo)` is already `< pivot`, the
/// suffix `[hi, end)` is already `>= pivot`, and `[lo, hi)` is still
/// unpartitioned. Queries that touch the region must therefore scan all of
/// `[begin, end)` until [`PartialCrack::step`] reports completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PartialCrack {
    pivot: Value,
    lo: usize,
    hi: usize,
}

impl PartialCrack {
    /// Starts a resumable crack of `data[begin..end)` around `pivot`.
    pub(crate) fn new(begin: usize, end: usize, pivot: Value) -> Self {
        assert!(begin <= end, "invalid crack range");
        PartialCrack {
            pivot,
            lo: begin,
            hi: end,
        }
    }

    /// The pivot this crack partitions around.
    pub(crate) fn pivot(&self) -> Value {
        self.pivot
    }

    /// `true` once the partition is complete and
    /// [`PartialCrack::split`] is valid.
    pub(crate) fn is_complete(&self) -> bool {
        self.lo >= self.hi
    }

    /// The final split position. Only meaningful once
    /// [`PartialCrack::is_complete`] returns `true`.
    pub(crate) fn split(&self) -> usize {
        debug_assert!(self.is_complete());
        self.lo
    }

    /// Advances the partition by at most `max_swaps` element swaps.
    /// Returns the number of swaps performed. Cursor movement over
    /// elements that are already on the correct side is not counted as a
    /// swap, mirroring the "allowed swaps" budget of progressive
    /// stochastic cracking.
    pub(crate) fn step(&mut self, data: &mut [Value], max_swaps: u64) -> u64 {
        let mut swaps = 0u64;
        while self.lo < self.hi {
            if data[self.lo] < self.pivot {
                self.lo += 1;
            } else if data[self.hi - 1] >= self.pivot {
                self.hi -= 1;
            } else {
                if swaps >= max_swaps {
                    return swaps;
                }
                data.swap(self.lo, self.hi - 1);
                swaps += 1;
                self.lo += 1;
                self.hi -= 1;
            }
        }
        swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partitioned(data: &[Value], begin: usize, end: usize, split: usize, pivot: Value) {
        assert!(data[begin..split].iter().all(|&v| v < pivot));
        assert!(data[split..end].iter().all(|&v| v >= pivot));
    }

    #[test]
    fn crack_in_two_partitions_around_pivot() {
        let mut data = vec![6, 3, 14, 13, 2, 1, 8, 19, 7, 12, 11, 4, 16, 9];
        let n = data.len();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let r = crack_in_two(&mut data, 0, n, 10);
        check_partitioned(&data, 0, n, r.split, 10);
        assert_eq!(r.split, sorted.iter().filter(|&&v| v < 10).count());
        let mut after = data.clone();
        after.sort_unstable();
        assert_eq!(after, sorted, "cracking must be a permutation");
    }

    #[test]
    fn crack_in_two_handles_already_partitioned_data() {
        let mut data = vec![1, 2, 3, 10, 11, 12];
        let r = crack_in_two(&mut data, 0, 6, 5);
        assert_eq!(r.split, 3);
        assert_eq!(r.swaps, 0);
    }

    #[test]
    fn crack_in_two_handles_all_below_and_all_above() {
        let mut data = vec![1, 2, 3];
        assert_eq!(crack_in_two(&mut data, 0, 3, 100).split, 3);
        assert_eq!(crack_in_two(&mut data, 0, 3, 0).split, 0);
    }

    #[test]
    fn crack_in_two_on_empty_and_single_ranges() {
        let mut data = vec![5, 4];
        // Empty range: split equals the range start, no swaps.
        assert_eq!(crack_in_two(&mut data, 1, 1, 4).split, 1);
        // Single element 5: below / at / above the pivot.
        assert_eq!(crack_in_two(&mut data, 0, 1, 6).split, 1);
        assert_eq!(crack_in_two(&mut data, 0, 1, 5).split, 0);
        assert_eq!(crack_in_two(&mut data, 0, 1, 4).split, 0);
    }

    #[test]
    fn partial_crack_converges_to_same_split_as_full_crack() {
        let mut full = vec![6, 3, 14, 13, 2, 1, 8, 19, 7, 12, 11, 4, 16, 9];
        let mut partial = full.clone();
        let n = full.len();
        let expected = crack_in_two(&mut full, 0, n, 10);

        let mut crack = PartialCrack::new(0, n, 10);
        let mut total_swaps = 0;
        while !crack.is_complete() {
            total_swaps += crack.step(&mut partial, 1);
        }
        assert_eq!(crack.split(), expected.split);
        assert_eq!(total_swaps, expected.swaps);
        check_partitioned(&partial, 0, n, crack.split(), 10);
    }

    #[test]
    fn partial_crack_respects_swap_budget() {
        let mut data: Vec<Value> = (0..1000).rev().collect();
        let mut crack = PartialCrack::new(0, 1000, 500);
        let swaps = crack.step(&mut data, 10);
        assert_eq!(swaps, 10);
        assert!(!crack.is_complete());
    }

    #[test]
    fn partial_crack_zero_budget_makes_no_swaps() {
        let mut data = vec![9, 1, 8, 2];
        let mut crack = PartialCrack::new(0, 4, 5);
        assert_eq!(crack.step(&mut data, 0), 0);
        assert_eq!(data, vec![9, 1, 8, 2]);
    }

    #[test]
    #[should_panic(expected = "invalid crack range")]
    fn crack_in_two_rejects_reversed_range() {
        let mut data = vec![1, 2, 3];
        let _ = crack_in_two(&mut data, 2, 1, 5);
    }
}
