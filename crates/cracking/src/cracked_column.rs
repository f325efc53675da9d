//! The cracker column: a mutable copy of the base column plus its crack
//! boundaries, with a query-answering routine that works for *any*
//! intermediate cracking state.
//!
//! A boundary `(v, p)` records the invariant *"all elements at positions
//! `< p` are `< v`, all elements at positions `>= p` are `>= v"`*. Pieces
//! are the gaps between consecutive boundaries; a query bound that falls
//! into a piece triggers a crack of exactly that piece. The original work
//! keeps the boundaries in an AVL tree; a [`BTreeMap`] provides the same
//! ordered-map operations with better cache behaviour in Rust.
//!
//! [`CrackedColumn`] is the only code that writes the column or its
//! boundaries, so it alone keeps the invariant. The adaptive indexing
//! baselines differ only in *which* cracks they ask it for per query
//! (exact query bounds, random pivots, swap-capped partial cracks,
//! up-front partitioning, …).

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

use pi_storage::scan::{self, ScanResult};
use pi_storage::{Column, Value};

use crate::crack::{crack_in_two, CrackResult, PartialCrack};

/// Mutable copy of a column plus the crack boundaries discovered so far.
#[derive(Debug, Clone)]
pub struct CrackedColumn {
    data: Vec<Value>,
    /// pivot value → first position of the `>= pivot` region.
    boundaries: BTreeMap<Value, usize>,
}

/// A contiguous, not-yet-cracked region of the cracker column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Piece {
    /// First position of the piece.
    pub begin: usize,
    /// One past the last position of the piece.
    pub end: usize,
}

impl Piece {
    /// Number of elements in the piece.
    pub(crate) fn len(&self) -> usize {
        self.end - self.begin
    }
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
            boundaries: BTreeMap::new(),
        }
    }

    /// The cracker column contents (reordered by cracks, never mutated in
    /// value).
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// The exact position for `pivot` when that boundary has already been
    /// cracked.
    pub(crate) fn position_of(&self, pivot: Value) -> Option<usize> {
        self.boundaries.get(&pivot).copied()
    }

    /// The piece of the column that must be cracked to install a boundary
    /// at `pivot`: it starts at the position of the greatest existing
    /// boundary `<= pivot` (or 0) and ends at the position of the smallest
    /// existing boundary `> pivot` (or `n`).
    pub(crate) fn piece_for(&self, pivot: Value) -> Piece {
        let begin = self.boundaries.range(..=pivot).next_back();
        let end = self.boundaries.range((Excluded(pivot), Unbounded)).next();
        Piece {
            begin: begin.map_or(0, |(_, &p)| p),
            end: end.map_or(self.data.len(), |(_, &p)| p),
        }
    }

    /// The piece in which the first element `>= key` lies: the empty
    /// piece at `key`'s boundary when it has one.
    fn lookup(&self, key: Value) -> Piece {
        match self.position_of(key) {
            Some(pos) => Piece {
                begin: pos,
                end: pos,
            },
            None => self.piece_for(key),
        }
    }

    /// Ensures an exact boundary exists for `pivot` (all elements `< pivot`
    /// before it), cracking the containing piece when necessary. Returns
    /// the boundary position and the number of swaps performed (0 when the
    /// boundary already existed, or its piece was empty).
    pub fn crack_exact(&mut self, pivot: Value) -> (usize, u64) {
        if let Some(pos) = self.position_of(pivot) {
            return (pos, 0);
        }
        let piece = self.piece_for(pivot);
        let CrackResult { split, swaps } =
            crack_in_two(&mut self.data, piece.begin, piece.end, pivot);
        self.boundaries.insert(pivot, split);
        (split, swaps)
    }

    /// Advances `crack`, a partial crack of one piece, by at most
    /// `max_swaps` swaps, and installs its pivot as a boundary once it
    /// completes. A pivot of 0 cannot create a useful boundary (nothing is
    /// below it), so it is not installed. Returns the swaps performed.
    pub(crate) fn step_partial(&mut self, crack: &mut PartialCrack, max_swaps: u64) -> u64 {
        let swaps = crack.step(&mut self.data, max_swaps);
        if crack.is_complete() && crack.pivot() > 0 {
            self.boundaries.insert(crack.pivot(), crack.split());
        }
        swaps
    }

    /// Equal-width range partitioning of `piece`, whose values all lie in
    /// `[lo, hi]`, into `ways` sub-pieces by one counting sort, installing
    /// every boundary. Out of place over the piece, mirroring the software-
    /// managed-buffer partitioning of adaptive adaptive indexing. Returns
    /// the number of element moves. Narrow value ranges produce duplicate
    /// boundaries, which dedup drops; when none is left the piece stays as
    /// it is, and the call returns 0.
    pub(crate) fn partition(&mut self, piece: Piece, lo: Value, hi: Value, ways: usize) -> u64 {
        let span = (hi - lo) as u128;
        let mut bounds: Vec<Value> = (1..ways)
            .map(|i| lo + (span * i as u128 / ways as u128) as Value)
            .filter(|&b| b > lo && b <= hi)
            .collect();
        bounds.dedup();
        if bounds.is_empty() {
            return 0;
        }
        // `bounds[i] == v` means v belongs to the sub-piece that starts at
        // bounds[i] (boundary semantics are `< bound`).
        let bucket_of = |v: Value| match bounds.binary_search(&v) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        let slice = &mut self.data[piece.begin..piece.end];
        // Counts bucket b at b + 1, so the prefix sums are the bucket starts.
        let mut starts = vec![0usize; bounds.len() + 2];
        for &v in slice.iter() {
            starts[bucket_of(v) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut out = vec![0 as Value; piece.len()];
        let mut cursors = starts.clone();
        for &v in slice.iter() {
            let b = bucket_of(v);
            out[cursors[b]] = v;
            cursors[b] += 1;
        }
        slice.copy_from_slice(&out);
        for (i, &bound) in bounds.iter().enumerate() {
            self.boundaries.insert(bound, piece.begin + starts[i + 1]);
        }
        piece.len() as u64
    }

    /// Answers `SELECT SUM(a), COUNT(a) WHERE a BETWEEN low AND high`
    /// using the boundaries discovered so far. The pieces the two bounds
    /// fall into are scanned with a predicate (an exact boundary is an
    /// empty piece); the fully-qualified region between them is summed
    /// positionally.
    pub fn answer(&self, low: Value, high: Value) -> CrackedAnswer {
        let n = self.data.len();
        let mut answer = CrackedAnswer {
            result: ScanResult::EMPTY,
            elements_scanned: 0,
        };
        if low > high || n == 0 {
            return answer;
        }
        // Positions from the low piece's end on are >= low, positions
        // before the high piece's begin are <= high.
        let lo_piece = self.lookup(low);
        let hi_piece = match high {
            Value::MAX => Piece { begin: n, end: n },
            _ => self.lookup(high + 1),
        };
        let mut add = |elements: usize, result: ScanResult| {
            answer.result = answer.result.merge(result);
            answer.elements_scanned += elements as u64;
        };
        let predicated =
            |piece: Piece| scan::scan_range_sum(&self.data[piece.begin..piece.end], low, high);
        add(lo_piece.len(), predicated(lo_piece));
        // Both bounds in one piece: one filtered scan answers the query.
        if hi_piece != lo_piece {
            add(hi_piece.len(), predicated(hi_piece));
        }
        let (inner_start, inner_end) = (lo_piece.end, hi_piece.begin);
        if inner_start < inner_end {
            let inner = scan::sum_positions(&self.data, inner_start, inner_end);
            add(inner_end - inner_start, inner);
        }
        answer
    }

    /// Fraction of refinement progress, measured as `1 - largest_piece/n`.
    /// Purely informational (used by `IndexStatus::phase_progress`).
    pub(crate) fn refinement_progress(&self) -> f64 {
        let n = self.data.len();
        if n == 0 {
            return 1.0;
        }
        1.0 - self.largest_piece() as f64 / n as f64
    }

    /// Size of the largest piece, the largest gap between consecutive
    /// boundary positions and the column's ends — a convergence proxy:
    /// once all pieces are below a sorting threshold the cracked column
    /// behaves like a (coarsely) sorted array.
    pub(crate) fn largest_piece(&self) -> usize {
        let (largest, last) = self
            .boundaries
            .values()
            .fold((0, 0), |(largest, begin), &end| {
                (largest.max(end - begin), end)
            });
        largest.max(self.data.len() - last)
    }
}

#[cfg(test)]
impl CrackedColumn {
    /// Every piece in position order, the first and the last included.
    pub(crate) fn pieces(&self) -> Vec<Piece> {
        let mut begin = 0;
        let mut pieces: Vec<Piece> = self
            .boundaries
            .values()
            .map(|&end| Piece {
                begin: std::mem::replace(&mut begin, end),
                end,
            })
            .collect();
        pieces.push(Piece {
            begin,
            end: self.data.len(),
        });
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{random_column, ReferenceIndex, TestRng};

    /// 100 elements, 25 below 10 and 30 at or above 50, in an order no
    /// crack has touched.
    fn hundred() -> CrackedColumn {
        let values: Vec<Value> = (0..25)
            .map(|i| i % 10)
            .chain((0..45).map(|i| 10 + i % 40))
            .chain(50..80)
            .rev()
            .collect();
        CrackedColumn::new(&Column::from_vec(values))
    }

    /// [`hundred`] with the boundaries `(10, 25)` and `(50, 70)`.
    fn two_boundaries() -> CrackedColumn {
        let mut cracked = hundred();
        assert_eq!(cracked.crack_exact(10).0, 25);
        assert_eq!(cracked.crack_exact(50).0, 70);
        cracked
    }

    #[test]
    fn empty_index_has_one_piece() {
        let cracked = hundred();
        assert_eq!(cracked.pieces().len(), 1);
        assert_eq!(cracked.piece_for(42), Piece { begin: 0, end: 100 });
        assert_eq!(cracked.largest_piece(), 100);
    }

    #[test]
    fn piece_for_respects_existing_boundaries() {
        let cracked = two_boundaries();

        // Below the first boundary.
        assert_eq!(cracked.piece_for(5), Piece { begin: 0, end: 25 });
        // Between the two boundaries.
        assert_eq!(cracked.piece_for(30), Piece { begin: 25, end: 70 });
        // Exactly on a boundary: the piece starts at that boundary.
        assert_eq!(cracked.piece_for(10), Piece { begin: 25, end: 70 });
        // Above the last boundary.
        assert_eq!(
            cracked.piece_for(60),
            Piece {
                begin: 70,
                end: 100
            }
        );
    }

    #[test]
    fn lookup_reports_exact_hits() {
        let mut cracked = hundred();
        cracked.crack_exact(10);
        // An exact hit is the empty piece at the boundary.
        assert_eq!(cracked.lookup(10), Piece { begin: 25, end: 25 });
        assert_eq!(
            cracked.lookup(11),
            Piece {
                begin: 25,
                end: 100
            }
        );
    }

    #[test]
    fn pieces_cover_the_whole_column() {
        let cracked = two_boundaries();
        let pieces = cracked.pieces();
        assert_eq!(
            pieces,
            vec![
                Piece { begin: 0, end: 25 },
                Piece { begin: 25, end: 70 },
                Piece {
                    begin: 70,
                    end: 100
                },
            ]
        );
        assert_eq!(pieces.iter().map(Piece::len).sum::<usize>(), 100);
        assert_eq!(cracked.largest_piece(), 45);
    }

    #[test]
    fn piece_len_and_empty() {
        assert_eq!(Piece { begin: 5, end: 5 }.len(), 0);
        assert_eq!(Piece { begin: 5, end: 9 }.len(), 4);
    }

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
