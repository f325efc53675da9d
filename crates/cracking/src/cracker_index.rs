//! The cracker index: the boundary bookkeeping shared by all cracking
//! baselines.
//!
//! A cracker index maps pivot values to positions in the cracker column.
//! An entry `(v, p)` records the invariant *"all elements at positions
//! `< p` are `< v`, all elements at positions `>= p` are `>= v`"*. Pieces
//! are the gaps between consecutive entries; a query bound that falls into
//! a piece triggers a crack of exactly that piece.
//!
//! The original work uses an AVL tree; a [`BTreeMap`] provides the same
//! ordered-map operations with better cache behaviour in Rust.

use std::collections::BTreeMap;

use pi_storage::Value;

/// Ordered map of crack boundaries over a cracker column of `n` elements.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrackerIndex {
    /// pivot value → first position of the `>= pivot` region.
    map: BTreeMap<Value, usize>,
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

    /// `true` when the piece contains no elements.
    pub(crate) fn is_empty(&self) -> bool {
        self.begin == self.end
    }
}

impl CrackerIndex {
    /// Creates an empty cracker index (a single piece spanning the whole
    /// column).
    pub(crate) fn new() -> Self {
        CrackerIndex {
            map: BTreeMap::new(),
        }
    }

    /// Records that position `pos` is the first element `>= pivot`.
    pub(crate) fn insert(&mut self, pivot: Value, pos: usize) {
        self.map.insert(pivot, pos);
    }

    /// The exact position for `pivot` when that boundary has already been
    /// cracked.
    pub(crate) fn position_of(&self, pivot: Value) -> Option<usize> {
        self.map.get(&pivot).copied()
    }

    /// The piece of the column that must be cracked to install a boundary
    /// at `pivot`: it starts at the position of the greatest existing
    /// boundary `<= pivot` (or 0) and ends at the position of the smallest
    /// existing boundary `> pivot` (or `n`).
    pub(crate) fn piece_for(&self, pivot: Value, n: usize) -> Piece {
        let begin = self
            .map
            .range(..=pivot)
            .next_back()
            .map(|(_, &p)| p)
            .unwrap_or(0);
        let end = self
            .map
            .range((std::ops::Bound::Excluded(pivot), std::ops::Bound::Unbounded))
            .next()
            .map(|(_, &p)| p)
            .unwrap_or(n);
        Piece { begin, end }
    }

    /// Position of the first element `>= key`, using only the boundaries
    /// recorded so far; the caller must still scan or crack the returned
    /// piece when the boundary is not exact.
    ///
    /// Returns `(piece, exact)` where `exact` is `true` when a boundary for
    /// `key` itself exists (in which case `piece.begin` is that position).
    pub(crate) fn lookup(&self, key: Value, n: usize) -> (Piece, bool) {
        if let Some(pos) = self.position_of(key) {
            (
                Piece {
                    begin: pos,
                    end: pos,
                },
                true,
            )
        } else {
            (self.piece_for(key, n), false)
        }
    }

    /// Iterates over all pieces in position order, including the implicit
    /// first and last pieces.
    pub(crate) fn pieces(&self, n: usize) -> Vec<Piece> {
        let mut pieces = Vec::with_capacity(self.map.len() + 1);
        let mut begin = 0usize;
        for (_, &pos) in self.map.iter() {
            pieces.push(Piece { begin, end: pos });
            begin = pos;
        }
        pieces.push(Piece { begin, end: n });
        pieces
    }

    /// Size of the largest remaining piece — a convergence proxy: once all
    /// pieces are below a sorting threshold the cracked column behaves like
    /// a (coarsely) sorted array.
    pub(crate) fn largest_piece(&self, n: usize) -> usize {
        self.pieces(n).iter().map(Piece::len).max().unwrap_or(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_has_one_piece() {
        let idx = CrackerIndex::new();
        assert_eq!(idx.pieces(100).len(), 1);
        assert_eq!(idx.piece_for(42, 100), Piece { begin: 0, end: 100 });
        assert_eq!(idx.largest_piece(100), 100);
    }

    #[test]
    fn piece_for_respects_existing_boundaries() {
        let mut idx = CrackerIndex::new();
        idx.insert(10, 25);
        idx.insert(50, 70);
        let n = 100;

        // Below the first boundary.
        assert_eq!(idx.piece_for(5, n), Piece { begin: 0, end: 25 });
        // Between the two boundaries.
        assert_eq!(idx.piece_for(30, n), Piece { begin: 25, end: 70 });
        // Exactly on a boundary: the piece starts at that boundary.
        assert_eq!(idx.piece_for(10, n), Piece { begin: 25, end: 70 });
        // Above the last boundary.
        assert_eq!(
            idx.piece_for(60, n),
            Piece {
                begin: 70,
                end: 100
            }
        );
    }

    #[test]
    fn lookup_reports_exact_hits() {
        let mut idx = CrackerIndex::new();
        idx.insert(10, 25);
        let (piece, exact) = idx.lookup(10, 100);
        assert!(exact);
        assert_eq!(piece.begin, 25);
        let (_, exact) = idx.lookup(11, 100);
        assert!(!exact);
    }

    #[test]
    fn pieces_cover_the_whole_column() {
        let mut idx = CrackerIndex::new();
        idx.insert(10, 25);
        idx.insert(50, 70);
        let pieces = idx.pieces(100);
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
        assert_eq!(idx.largest_piece(100), 45);
    }

    #[test]
    fn piece_len_and_empty() {
        let p = Piece { begin: 5, end: 5 };
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        let q = Piece { begin: 5, end: 9 };
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
    }
}
