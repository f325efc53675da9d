//! Stochastic Cracking (Halim et al., PVLDB 2012) — the `STC` baseline.
//!
//! Standard cracking derives its pivots from the query predicates, which
//! makes its performance heavily workload-dependent: a sequential workload
//! keeps hitting one huge unrefined piece. Stochastic cracking instead
//! cracks the piece a query bound falls into around a *randomly chosen
//! pivot* (the MDD1R variant: one random crack per touched piece per
//! query), so reorganisation progress is independent of where the
//! predicates land. Once a piece is small enough, it is cracked exactly at
//! the query bound so the boundary becomes precise.

use std::sync::Arc;

use pi_core::result::{IndexStatus, Phase, QueryResult};
use pi_core::RangeIndex;
use pi_storage::{Column, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cracked_column::CrackedColumn;

/// Pieces at or below this many elements are cracked exactly at the query
/// bound instead of around another random pivot. Mirrors the "crack small
/// pieces precisely" switch of the original implementation (pieces that
/// fit comfortably in cache are cheap to crack exactly).
pub(crate) const DEFAULT_EXACT_CRACK_THRESHOLD: usize = 1 << 14;

/// Stochastic cracking baseline (`STC` in the paper's tables).
pub struct StochasticCracking {
    column: Arc<Column>,
    cracked: Option<CrackedColumn>,
    rng: StdRng,
    exact_threshold: usize,
    queries_executed: u64,
}

impl StochasticCracking {
    /// Creates the baseline with the default small-piece threshold and a
    /// fixed RNG seed (runs are reproducible; vary the seed with
    /// [`StochasticCracking::with_seed`] to study variance).
    pub(crate) fn new(column: Arc<Column>) -> Self {
        Self::with_seed(column, 0x5EED)
    }

    /// Creates the baseline with an explicit RNG seed.
    pub(crate) fn with_seed(column: Arc<Column>, seed: u64) -> Self {
        Self::with_config(column, seed, DEFAULT_EXACT_CRACK_THRESHOLD)
    }

    /// Creates the baseline with an explicit seed and small-piece
    /// threshold.
    pub(crate) fn with_config(column: Arc<Column>, seed: u64, exact_threshold: usize) -> Self {
        StochasticCracking {
            column,
            cracked: None,
            rng: StdRng::seed_from_u64(seed),
            exact_threshold: exact_threshold.max(1),
            queries_executed: 0,
        }
    }

    fn cracked_mut(&mut self) -> &mut CrackedColumn {
        if self.cracked.is_none() {
            self.cracked = Some(CrackedColumn::new(&self.column));
        }
        self.cracked.as_mut().expect("just initialised")
    }

    /// Cracks on behalf of one query bound: a random crack of the piece the
    /// bound falls into while the piece is large, an exact crack once it is
    /// small. Returns the number of swaps performed.
    fn crack_for_bound(&mut self, bound: Value) -> u64 {
        let exact_threshold = self.exact_threshold;
        // Pre-draw randomness so the RNG borrow does not overlap the
        // cracker borrow.
        let random_draw: u64 = self.rng.gen();
        let cracked = self
            .cracked
            .get_or_insert_with(|| CrackedColumn::new(&self.column));
        if cracked.index().position_of(bound).is_some() {
            return 0;
        }
        let piece = cracked.piece_for(bound);
        if piece.is_empty() {
            cracked.index_mut().insert(bound, piece.begin);
            return 0;
        }
        if piece.len() <= exact_threshold {
            return cracked.crack_exact(bound).1;
        }
        // Random crack (MDD1R): pivot is a randomly picked element of the
        // piece, so the crack always falls inside the piece's value range.
        let offset = (random_draw % piece.len() as u64) as usize;
        let pivot = cracked.data()[piece.begin + offset];
        if pivot == 0 {
            // Cracking at 0 cannot make progress (every value is >= 0);
            // fall back to an exact crack at the bound.
            return cracked.crack_exact(bound).1;
        }
        cracked.crack_exact(pivot).1
    }
}

impl RangeIndex for StochasticCracking {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        self.queries_executed += 1;
        if low > high || self.column.is_empty() {
            return QueryResult::answer_only(pi_storage::ScanResult::EMPTY, self.status().phase);
        }
        let mut swaps = self.crack_for_bound(low);
        if high < Value::MAX {
            swaps += self.crack_for_bound(high + 1);
        }
        let cracked = self.cracked_mut();
        let answer = cracked.answer(low, high);
        QueryResult {
            sum: answer.result.sum,
            count: answer.result.count,
            phase: Phase::Refinement,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: swaps,
            elements_scanned: answer.elements_scanned,
        }
    }

    fn status(&self) -> IndexStatus {
        match &self.cracked {
            None => IndexStatus {
                phase: Phase::Creation,
                fraction_indexed: 0.0,
                phase_progress: 0.0,
                converged: false,
            },
            Some(c) => IndexStatus {
                phase: Phase::Refinement,
                fraction_indexed: 1.0,
                phase_progress: c.refinement_progress(),
                converged: false,
            },
        }
    }

    fn name(&self) -> &'static str {
        "stochastic-cracking"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};

    #[test]
    fn answers_match_reference_under_random_workload() {
        check_correctness_under_workload(
            |col| Box::new(StochasticCracking::new(col)),
            20_000,
            50_000,
            200,
        );
    }

    #[test]
    fn sequential_workload_still_makes_progress() {
        // A strictly sequential workload is standard cracking's worst case;
        // stochastic cracking must keep shrinking the largest piece anyway.
        let col = Arc::new(random_column(100_000, 1_000_000, 21));
        let reference = ReferenceIndex::new(&col);
        let mut idx = StochasticCracking::new(Arc::clone(&col));
        for q in 0..50u64 {
            let low = q * 10_000;
            let high = low + 9_999;
            assert_eq!(
                idx.query(low, high).scan_result(),
                reference.query(low, high)
            );
        }
        assert!(idx.status().phase_progress > 0.0);
    }

    #[test]
    fn different_seeds_produce_same_answers() {
        let col = Arc::new(random_column(10_000, 10_000, 22));
        let reference = ReferenceIndex::new(&col);
        let mut a = StochasticCracking::with_seed(Arc::clone(&col), 1);
        let mut b = StochasticCracking::with_seed(Arc::clone(&col), 2);
        for (low, high) in [(0, 100), (5_000, 6_000), (9_000, 9_999), (42, 42)] {
            let expected = reference.query(low, high);
            assert_eq!(a.query(low, high).scan_result(), expected);
            assert_eq!(b.query(low, high).scan_result(), expected);
        }
    }

    #[test]
    fn small_pieces_get_exact_boundaries() {
        // With a tiny exact-crack threshold of the full column size, the
        // behaviour degenerates to standard cracking: bounds get exact
        // boundaries immediately.
        let col = Arc::new(random_column(5_000, 5_000, 23));
        let mut idx = StochasticCracking::with_config(Arc::clone(&col), 7, usize::MAX);
        idx.query(1_000, 2_000);
        assert!(idx
            .cracked
            .as_ref()
            .unwrap()
            .index()
            .position_of(1_000)
            .is_some());
    }

    #[test]
    fn never_reports_convergence() {
        let col = Arc::new(random_column(2_000, 2_000, 24));
        let mut idx = StochasticCracking::new(col);
        for q in 0..100 {
            idx.query(q * 17 % 2_000, (q * 17 % 2_000) + 50);
        }
        assert!(!idx.is_converged());
    }
}
