//! Progressive Stochastic Cracking (Halim et al., PVLDB 2012) — the
//! `PSTC` baseline, run with the paper's "10% allowed swaps" setting.
//!
//! Stochastic cracking still pays the full partition cost of a piece the
//! moment a query touches it, which makes the first queries expensive.
//! Progressive stochastic cracking bounds that cost: pieces larger than
//! the L2 cache are cracked *partially* — at most `allowed_swaps` element
//! swaps per query — and the partition is resumed by later queries until
//! it completes. Pieces that fit in the L2 cache are always cracked
//! completely.
//!
//! While a partial crack is in flight the affected piece is in an
//! intermediate state and queries answer it with a predicated scan, which
//! the shared [`CrackedColumn::answer`] routine already does for any piece
//! without an exact boundary.

use std::collections::HashMap;
use std::sync::Arc;

use pi_core::result::{IndexStatus, Phase, QueryResult};
use pi_core::RangeIndex;
use pi_storage::{Column, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::crack::PartialCrack;
use crate::cracked_column::CrackedColumn;

/// Number of 8-byte elements that fit in a typical 256 KiB L2 cache; the
/// threshold below which pieces are always cracked completely.
pub(crate) const DEFAULT_L2_ELEMENTS: usize = (256 * 1024) / 8;

/// Default allowed swaps per query as a fraction of the column size
/// (the paper runs PSTC with 10%).
pub(crate) const DEFAULT_SWAP_FRACTION: f64 = 0.10;

/// Progressive stochastic cracking baseline (`PSTC` in the paper).
pub struct ProgressiveStochasticCracking {
    column: Arc<Column>,
    cracked: Option<CrackedColumn>,
    /// In-flight partial cracks, keyed by the begin position of the piece
    /// they partition (pieces only change when a crack completes, so the
    /// begin position is a stable key).
    pending: HashMap<usize, PartialCrack>,
    rng: StdRng,
    l2_elements: usize,
    allowed_swaps: u64,
    queries_executed: u64,
}

impl ProgressiveStochasticCracking {
    /// Creates the baseline with the paper's configuration: 10% allowed
    /// swaps and a 256 KiB L2 budget.
    pub(crate) fn new(column: Arc<Column>) -> Self {
        Self::with_config(column, 0x5EED, DEFAULT_SWAP_FRACTION, DEFAULT_L2_ELEMENTS)
    }

    /// Creates the baseline with explicit seed, swap fraction and L2 size
    /// (in elements).
    pub(crate) fn with_config(
        column: Arc<Column>,
        seed: u64,
        swap_fraction: f64,
        l2_elements: usize,
    ) -> Self {
        assert!(
            swap_fraction > 0.0 && swap_fraction <= 1.0,
            "swap fraction must lie in (0, 1], got {swap_fraction}"
        );
        let allowed_swaps = ((column.len() as f64 * swap_fraction).ceil() as u64).max(1);
        ProgressiveStochasticCracking {
            column,
            cracked: None,
            pending: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            l2_elements: l2_elements.max(1),
            allowed_swaps,
            queries_executed: 0,
        }
    }

    /// Performs this query's reorganisation work for one bound and returns
    /// the number of swaps spent. `budget` is the remaining swap allowance
    /// for the whole query.
    fn crack_for_bound(&mut self, bound: Value, budget: u64) -> u64 {
        if self.cracked.is_none() {
            self.cracked = Some(CrackedColumn::new(&self.column));
        }
        let l2_elements = self.l2_elements;
        let random_draw: u64 = self.rng.gen();
        let cracked = self.cracked.as_mut().expect("initialised above");
        if cracked.index().position_of(bound).is_some() {
            return 0;
        }
        let piece = cracked.piece_for(bound);
        if piece.is_empty() {
            cracked.index_mut().insert(bound, piece.begin);
            return 0;
        }
        if piece.len() <= l2_elements {
            // Small pieces are always cracked completely, exactly at the
            // bound, regardless of the swap budget.
            return cracked.crack_exact(bound).1;
        }
        // Large piece: continue (or start) a swap-capped partial crack
        // around a random pivot.
        let crack = self.pending.entry(piece.begin).or_insert_with(|| {
            let offset = (random_draw % piece.len() as u64) as usize;
            let pivot = cracked.data()[piece.begin + offset];
            PartialCrack::new(piece.begin, piece.end, pivot)
        });
        let swaps = crack.step(cracked.data_mut(), budget);
        if crack.is_complete() {
            let pivot = crack.pivot();
            let split = crack.split();
            self.pending.remove(&piece.begin);
            // A pivot of 0 cannot create a useful boundary (nothing is
            // below it); skip installing it.
            if pivot > 0 {
                cracked.index_mut().insert(pivot, split);
            }
        }
        swaps
    }
}

impl RangeIndex for ProgressiveStochasticCracking {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        self.queries_executed += 1;
        if low > high || self.column.is_empty() {
            return QueryResult::answer_only(pi_storage::ScanResult::EMPTY, self.status().phase);
        }
        let budget = self.allowed_swaps;
        let spent_low = self.crack_for_bound(low, budget);
        let spent_high = if high < Value::MAX {
            self.crack_for_bound(high + 1, budget.saturating_sub(spent_low))
        } else {
            0
        };
        let cracked = self.cracked.as_mut().expect("created by crack_for_bound");
        let answer = cracked.answer(low, high);
        QueryResult {
            sum: answer.result.sum,
            count: answer.result.count,
            phase: Phase::Refinement,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: spent_low + spent_high,
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
        "progressive-stochastic-cracking"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};

    #[test]
    fn answers_match_reference_under_random_workload() {
        check_correctness_under_workload(
            |col| Box::new(ProgressiveStochasticCracking::new(col)),
            20_000,
            50_000,
            200,
        );
    }

    #[test]
    fn swap_budget_limits_per_query_reorganisation() {
        // Make the column large relative to a tiny L2 so partial cracks
        // are actually exercised; 1% allowed swaps.
        let col = Arc::new(random_column(100_000, 1_000_000, 31));
        let reference = ReferenceIndex::new(&col);
        let mut idx = ProgressiveStochasticCracking::with_config(Arc::clone(&col), 3, 0.01, 1_024);
        let allowance = idx.allowed_swaps;
        for q in 0..30u64 {
            let low = (q * 31_337) % 900_000;
            let high = low + 50_000;
            let r = idx.query(low, high);
            assert_eq!(r.scan_result(), reference.query(low, high));
            assert!(
                r.indexing_ops <= allowance,
                "query spent {} swaps, allowance {}",
                r.indexing_ops,
                allowance
            );
        }
    }

    #[test]
    fn partial_cracks_eventually_complete() {
        let col = Arc::new(random_column(50_000, 100_000, 32));
        let reference = ReferenceIndex::new(&col);
        let mut idx = ProgressiveStochasticCracking::with_config(Arc::clone(&col), 3, 0.02, 1_024);
        // Hammer the same region; the pending crack on the big initial
        // piece must finish and install a boundary.
        for _ in 0..200 {
            let r = idx.query(10_000, 20_000);
            assert_eq!(r.scan_result(), reference.query(10_000, 20_000));
        }
        let cracked = idx.cracked.as_ref().unwrap();
        assert!(cracked.index().pieces(cracked.data().len()).len() > 1);
        assert!(idx.status().phase_progress > 0.0);
    }

    #[test]
    fn small_columns_behave_like_standard_cracking() {
        // Every piece fits the (default) L2 budget, so bounds are cracked
        // exactly and repeated queries stop doing work.
        let col = Arc::new(random_column(5_000, 5_000, 33));
        let mut idx = ProgressiveStochasticCracking::new(col);
        idx.query(1_000, 2_000);
        let again = idx.query(1_000, 2_000);
        assert_eq!(again.indexing_ops, 0);
        assert!(idx.pending.is_empty());
    }

    #[test]
    #[should_panic(expected = "swap fraction")]
    fn zero_swap_fraction_rejected() {
        let col = Arc::new(random_column(100, 100, 34));
        let _ = ProgressiveStochasticCracking::with_config(col, 1, 0.0, 1_024);
    }
}
