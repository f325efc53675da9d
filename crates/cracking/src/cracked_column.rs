//! The cracker column: a mutable copy of the base column plus its
//! cracker index of crack boundaries, with a query-answering routine that
//! works for *any* intermediate cracking state.
//!
//! All adaptive indexing baselines share this structure; they differ only
//! in *which* cracks they perform per query (exact query bounds, random
//! pivots, swap-capped partial cracks, up-front partitioning, …).

use pi_storage::scan::{self, ScanResult};
use pi_storage::{Column, Value};

use crate::crack::{crack_in_two, CrackResult};
use crate::cracker_index::{CrackerIndex, Piece};

/// Mutable copy of a column plus the crack boundaries discovered so far.
#[derive(Debug, Clone)]
pub struct CrackedColumn {
    data: Vec<Value>,
    index: CrackerIndex,
}

/// Result of answering one query against a [`CrackedColumn`], including
/// the number of elements that had to be touched (for instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrackedAnswer {
    /// The aggregate.
    pub result: ScanResult,
    /// Number of elements read while answering.
    pub elements_scanned: u64,
}

impl CrackedColumn {
    /// Copies the base column into a fresh cracker column with no cracks.
    pub fn new(column: &Column) -> Self {
        CrackedColumn {
            data: column.data().to_vec(),
            index: CrackerIndex::new(),
        }
    }

    /// The cracker column contents (reordered by cracks, never mutated in
    /// value).
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// Mutable access for algorithms that run their own partitioning
    /// kernels (partial cracks, radix partitioning).
    pub(crate) fn data_mut(&mut self) -> &mut Vec<Value> {
        &mut self.data
    }

    /// The crack boundaries discovered so far.
    pub(crate) fn index(&self) -> &CrackerIndex {
        &self.index
    }

    /// Mutable access to the crack boundaries.
    pub(crate) fn index_mut(&mut self) -> &mut CrackerIndex {
        &mut self.index
    }

    /// Ensures an exact boundary exists for `pivot` (all elements `< pivot`
    /// before it), cracking the containing piece when necessary. Returns
    /// the boundary position and the number of swaps performed (0 when the
    /// boundary already existed).
    pub fn crack_exact(&mut self, pivot: Value) -> (usize, u64) {
        if let Some(pos) = self.index.position_of(pivot) {
            return (pos, 0);
        }
        let piece = self.index.piece_for(pivot, self.data.len());
        let CrackResult { split, swaps } =
            crack_in_two(&mut self.data, piece.begin, piece.end, pivot);
        self.index.insert(pivot, split);
        (split, swaps)
    }

    /// The piece that currently contains the boundary position for `key`.
    pub(crate) fn piece_for(&self, key: Value) -> Piece {
        self.index.piece_for(key, self.data.len())
    }

    /// Answers `SELECT SUM(a), COUNT(a) WHERE a BETWEEN low AND high`
    /// using the boundaries discovered so far. Pieces in which a bound
    /// falls without an exact boundary are scanned with a predicate; the
    /// fully-qualified middle region is summed positionally.
    pub fn answer(&self, low: Value, high: Value) -> CrackedAnswer {
        let n = self.data.len();
        if low > high || n == 0 {
            return CrackedAnswer {
                result: ScanResult::EMPTY,
                elements_scanned: 0,
            };
        }

        // Low side: positions >= inner_start are guaranteed >= low.
        let (lo_piece, lo_exact) = self.index.lookup(low, n);
        let inner_start = if lo_exact {
            lo_piece.begin
        } else {
            lo_piece.end
        };

        // High side: positions < inner_end are guaranteed <= high.
        let (hi_piece, hi_exact, inner_end) = if high == Value::MAX {
            (Piece { begin: n, end: n }, true, n)
        } else {
            let (piece, exact) = self.index.lookup(high + 1, n);
            let end = piece.begin;
            (piece, exact, end)
        };

        let mut result = ScanResult::EMPTY;
        let mut scanned = 0u64;

        if !lo_exact && !hi_exact && lo_piece == hi_piece {
            // Both bounds fall into the same unrefined piece: one filtered
            // scan of that piece answers the query.
            result = result.merge(scan::scan_range_sum(
                &self.data[lo_piece.begin..lo_piece.end],
                low,
                high,
            ));
            scanned += lo_piece.len() as u64;
            return CrackedAnswer {
                result,
                elements_scanned: scanned,
            };
        }

        if !lo_exact {
            // Elements in the low boundary piece are all <= high (they sit
            // below the high boundary piece), so only the low predicate
            // matters — but using both keeps the reasoning local and the
            // predicated scan cost identical.
            result = result.merge(scan::scan_range_sum(
                &self.data[lo_piece.begin..lo_piece.end],
                low,
                high,
            ));
            scanned += lo_piece.len() as u64;
        }
        if !hi_exact {
            result = result.merge(scan::scan_range_sum(
                &self.data[hi_piece.begin..hi_piece.end],
                low,
                high,
            ));
            scanned += hi_piece.len() as u64;
        }
        if inner_start < inner_end {
            result = result.merge(scan::sum_positions(&self.data, inner_start, inner_end));
            scanned += (inner_end - inner_start) as u64;
        }
        CrackedAnswer {
            result,
            elements_scanned: scanned,
        }
    }

    /// Fraction of refinement progress, measured as `1 - largest_piece/n`.
    /// Purely informational (used by `IndexStatus::phase_progress`).
    pub(crate) fn refinement_progress(&self) -> f64 {
        let n = self.data.len();
        if n == 0 {
            return 1.0;
        }
        1.0 - self.index.largest_piece(n) as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{random_column, ReferenceIndex, TestRng};

    #[test]
    fn answer_on_uncracked_column_matches_scan() {
        let col = random_column(5_000, 10_000, 1);
        let reference = ReferenceIndex::new(&col);
        let cracked = CrackedColumn::new(&col);
        let ans = cracked.answer(1_000, 4_000);
        assert_eq!(ans.result, reference.query(1_000, 4_000));
        assert_eq!(ans.elements_scanned, 5_000);
    }

    #[test]
    fn answer_after_exact_cracks_uses_positional_sum() {
        let col = random_column(5_000, 10_000, 2);
        let reference = ReferenceIndex::new(&col);
        let mut cracked = CrackedColumn::new(&col);
        cracked.crack_exact(1_000);
        cracked.crack_exact(4_001);
        let ans = cracked.answer(1_000, 4_000);
        assert_eq!(ans.result, reference.query(1_000, 4_000));
        // Only the qualifying middle region is touched.
        assert_eq!(ans.elements_scanned, ans.result.count);
    }

    #[test]
    fn answer_with_partially_cracked_bounds() {
        let col = random_column(5_000, 10_000, 3);
        let reference = ReferenceIndex::new(&col);
        let mut cracked = CrackedColumn::new(&col);
        // Crack somewhere unrelated to the query bounds.
        cracked.crack_exact(2_500);
        for (low, high) in [(0, 9_999), (100, 2_499), (2_500, 7_000), (2_400, 2_600)] {
            let ans = cracked.answer(low, high);
            assert_eq!(ans.result, reference.query(low, high), "[{low}, {high}]");
        }
    }

    #[test]
    fn answer_handles_degenerate_ranges() {
        let col = random_column(100, 1_000, 4);
        let cracked = CrackedColumn::new(&col);
        assert_eq!(cracked.answer(10, 5).result, ScanResult::EMPTY);
        let all = cracked.answer(0, Value::MAX).result;
        assert_eq!(all.count, 100);
        assert_eq!(all.sum, col.total_sum());
    }

    #[test]
    fn crack_exact_is_idempotent() {
        let col = random_column(1_000, 1_000, 5);
        let mut cracked = CrackedColumn::new(&col);
        let (pos1, swaps1) = cracked.crack_exact(500);
        let (pos2, swaps2) = cracked.crack_exact(500);
        assert_eq!(pos1, pos2);
        assert!(swaps1 > 0 || pos1 == 0 || pos1 == 1_000);
        assert_eq!(swaps2, 0);
    }

    #[test]
    fn random_cracks_never_change_answers() {
        let col = random_column(3_000, 5_000, 6);
        let reference = ReferenceIndex::new(&col);
        let mut cracked = CrackedColumn::new(&col);
        let mut rng = TestRng::new(99);
        for _ in 0..50 {
            cracked.crack_exact(rng.below(5_000));
            let low = rng.below(5_000);
            let high = low + rng.below(500);
            assert_eq!(cracked.answer(low, high).result, reference.query(low, high));
        }
    }

    #[test]
    fn refinement_progress_grows_with_cracks() {
        let col = random_column(1_000, 1_000, 7);
        let mut cracked = CrackedColumn::new(&col);
        assert_eq!(cracked.refinement_progress(), 0.0);
        cracked.crack_exact(500);
        let p1 = cracked.refinement_progress();
        cracked.crack_exact(250);
        cracked.crack_exact(750);
        assert!(cracked.refinement_progress() >= p1);
    }
}
