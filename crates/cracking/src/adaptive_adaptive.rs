//! Adaptive Adaptive Indexing (Schuhknecht, Dittrich, Linden — ICDE 2018)
//! — the `AA` baseline.
//!
//! Adaptive adaptive indexing generalises the cracking family: the first
//! query performs an out-of-place radix-style range partitioning of the
//! whole column into a configurable number of partitions (like a coarse
//! granular index, but built with a partition fan-out chosen for cache
//! efficiency), and subsequent queries *adaptively* refine only the pieces
//! the workload touches — large pieces are split again with the same
//! fan-out, small pieces are cracked exactly at the query bounds.
//!
//! This reproduction follows the "manual configuration" used in the
//! Progressive Indexes paper's evaluation: a 64-way first partitioning
//! pass, a 64-way refinement fan-out and exact cracking below an
//! L2-cache-sized threshold. The characteristic behaviour — the most
//! expensive first query of the adaptive family, the best cumulative time
//! on skewed workloads — is preserved.

use std::sync::Arc;

use pi_core::result::{IndexStatus, Phase, QueryResult};
use pi_core::RangeIndex;
use pi_storage::{Column, Value};

use crate::cracked_column::CrackedColumn;
use crate::cracker_index::Piece;

/// Fan-out of the first partitioning pass and of every refinement split.
pub(crate) const DEFAULT_FANOUT: usize = 64;

/// Pieces at or below this many elements are cracked exactly at the query
/// bounds instead of being split again (≈ 256 KiB of 8-byte values).
pub(crate) const DEFAULT_EXACT_THRESHOLD: usize = (256 * 1024) / 8;

/// Adaptive adaptive indexing baseline (`AA` in the paper's tables).
pub struct AdaptiveAdaptiveIndexing {
    column: Arc<Column>,
    cracked: Option<CrackedColumn>,
    fanout: usize,
    exact_threshold: usize,
    queries_executed: u64,
}

impl AdaptiveAdaptiveIndexing {
    /// Creates the baseline with the default (paper) configuration.
    pub(crate) fn new(column: Arc<Column>) -> Self {
        Self::with_config(column, DEFAULT_FANOUT, DEFAULT_EXACT_THRESHOLD)
    }

    /// Creates the baseline with an explicit fan-out and exact-crack
    /// threshold.
    ///
    /// # Panics
    /// Panics when `fanout < 2`.
    pub(crate) fn with_config(column: Arc<Column>, fanout: usize, exact_threshold: usize) -> Self {
        assert!(fanout >= 2, "fan-out must be at least 2, got {fanout}");
        AdaptiveAdaptiveIndexing {
            column,
            cracked: None,
            fanout,
            exact_threshold: exact_threshold.max(1),
            queries_executed: 0,
        }
    }

    /// Equal-width range partitioning of `piece` (whose values all lie in
    /// `[lo_value, hi_value]`) into `fanout` sub-pieces, installing the new
    /// boundaries. Out of place over the piece, mirroring AA's software-
    /// managed-buffer partitioning. Returns the number of element moves.
    fn partition_piece(
        cracked: &mut CrackedColumn,
        piece: Piece,
        lo_value: Value,
        hi_value: Value,
        fanout: usize,
    ) -> u64 {
        if piece.len() <= 1 || lo_value >= hi_value {
            return 0;
        }
        let span = hi_value - lo_value;
        let mut bounds: Vec<Value> = (1..fanout)
            .map(|i| lo_value + ((span as u128 * i as u128) / fanout as u128) as Value)
            .filter(|&b| b > lo_value && b <= hi_value)
            .collect();
        bounds.dedup();
        if bounds.is_empty() {
            return 0;
        }
        let bucket_of = |v: Value| -> usize {
            match bounds.binary_search(&v) {
                Ok(i) => i + 1,
                Err(i) => i,
            }
        };
        let slice = &cracked.data()[piece.begin..piece.end];
        let mut counts = vec![0usize; bounds.len() + 1];
        for &v in slice {
            counts[bucket_of(v)] += 1;
        }
        let mut starts = vec![0usize; counts.len()];
        let mut acc = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            starts[i] = acc;
            acc += c;
        }
        let mut out = vec![0 as Value; piece.len()];
        let mut cursors = starts.clone();
        for &v in slice {
            let b = bucket_of(v);
            out[cursors[b]] = v;
            cursors[b] += 1;
        }
        cracked.data_mut()[piece.begin..piece.end].copy_from_slice(&out);
        for (i, &bound) in bounds.iter().enumerate() {
            cracked
                .index_mut()
                .insert(bound, piece.begin + starts[i + 1]);
        }
        piece.len() as u64
    }

    /// First-query work: partition the entire column.
    fn initialize(&mut self) -> u64 {
        let mut cracked = CrackedColumn::new(&self.column);
        let moves = match self.column.domain() {
            Some((min, max)) => Self::partition_piece(
                &mut cracked,
                Piece {
                    begin: 0,
                    end: self.column.len(),
                },
                min,
                max,
                self.fanout,
            ),
            None => 0,
        };
        self.cracked = Some(cracked);
        moves
    }

    /// Refinement work for one query bound: split the containing piece
    /// again while it is large, crack it exactly once it is small.
    fn refine_for_bound(&mut self, bound: Value) -> u64 {
        let fanout = self.fanout;
        let exact_threshold = self.exact_threshold;
        let cracked = self.cracked.as_mut().expect("initialised before use");
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
        // The value range of a piece is bounded by its neighbouring crack
        // boundaries; use the observed min/max of the piece itself, which
        // is tighter and always available.
        let slice = &cracked.data()[piece.begin..piece.end];
        let lo_value = slice.iter().copied().min().expect("non-empty piece");
        let hi_value = slice.iter().copied().max().expect("non-empty piece");
        let scan_cost = piece.len() as u64;
        scan_cost + Self::partition_piece(cracked, piece, lo_value, hi_value, fanout)
    }
}

impl RangeIndex for AdaptiveAdaptiveIndexing {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        self.queries_executed += 1;
        if low > high || self.column.is_empty() {
            return QueryResult::answer_only(pi_storage::ScanResult::EMPTY, self.status().phase);
        }
        let mut ops = 0u64;
        if self.cracked.is_none() {
            ops += self.initialize();
        }
        ops += self.refine_for_bound(low);
        if high < Value::MAX {
            ops += self.refine_for_bound(high + 1);
        }
        let cracked = self.cracked.as_mut().expect("initialised above");
        let answer = cracked.answer(low, high);
        QueryResult {
            sum: answer.result.sum,
            count: answer.result.count,
            phase: Phase::Refinement,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: ops,
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
        "adaptive-adaptive-indexing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};

    /// Crack boundaries installed so far: one fewer than the pieces.
    fn boundary_count(idx: &AdaptiveAdaptiveIndexing) -> usize {
        idx.cracked
            .as_ref()
            .map_or(0, |c| c.index().pieces(c.data().len()).len() - 1)
    }

    #[test]
    fn answers_match_reference_under_random_workload() {
        check_correctness_under_workload(
            |col| Box::new(AdaptiveAdaptiveIndexing::new(col)),
            20_000,
            50_000,
            200,
        );
    }

    #[test]
    fn first_query_is_the_most_expensive() {
        let col = Arc::new(random_column(100_000, 1_000_000, 51));
        let mut idx = AdaptiveAdaptiveIndexing::new(Arc::clone(&col));
        let first = idx.query(100_000, 150_000);
        let later: Vec<u64> = (0..10)
            .map(|q| idx.query(q * 90_000, q * 90_000 + 50_000).indexing_ops)
            .collect();
        assert!(
            first.indexing_ops >= 100_000,
            "first query partitions everything"
        );
        assert!(later.iter().all(|&ops| ops < first.indexing_ops));
    }

    #[test]
    fn skewed_data_produces_correct_answers() {
        // 90% of values concentrated in a narrow band.
        let mut values = Vec::with_capacity(50_000);
        for i in 0..50_000u64 {
            if i % 10 == 0 {
                values.push(i * 20);
            } else {
                values.push(500_000 + (i % 1_000));
            }
        }
        let col = Arc::new(Column::from_vec(values));
        let reference = ReferenceIndex::new(&col);
        let mut idx = AdaptiveAdaptiveIndexing::new(Arc::clone(&col));
        for (low, high) in [
            (499_000, 501_000),
            (0, 10_000),
            (500_500, 500_600),
            (42, 42),
        ] {
            assert_eq!(
                idx.query(low, high).scan_result(),
                reference.query(low, high)
            );
        }
    }

    #[test]
    fn hot_region_gets_refined() {
        let col = Arc::new(random_column(200_000, 1_000_000, 52));
        let mut idx = AdaptiveAdaptiveIndexing::with_config(Arc::clone(&col), 8, 1_024);
        let after_first = {
            idx.query(400_000, 600_000);
            boundary_count(&idx)
        };
        // Repeatedly querying the same hot region keeps adding boundaries
        // until the touched pieces are small enough to crack exactly.
        for _ in 0..20 {
            idx.query(400_000, 600_000);
        }
        assert!(boundary_count(&idx) > after_first);
        let reference = ReferenceIndex::new(&col);
        assert_eq!(
            idx.query(400_000, 600_000).scan_result(),
            reference.query(400_000, 600_000)
        );
    }

    #[test]
    #[should_panic(expected = "fan-out")]
    fn rejects_degenerate_fanout() {
        let col = Arc::new(random_column(10, 10, 53));
        let _ = AdaptiveAdaptiveIndexing::with_config(col, 1, 10);
    }
}
