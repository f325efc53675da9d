//! Standard Database Cracking (Idreos et al., CIDR 2007) — the original
//! adaptive indexing technique and the `STD` baseline of the paper.
//!
//! The first query copies the base column into a cracker column. Every
//! query then cracks the column at its two predicate bounds, so the pieces
//! relevant to the observed workload keep getting smaller. Because pivots
//! are exactly the query predicates, performance depends heavily on the
//! workload: sequential patterns leave huge unrefined pieces that cause the
//! performance spikes the paper's robustness metric measures.

use std::sync::Arc;

use pi_core::result::{IndexStatus, Phase, QueryResult};
use pi_core::RangeIndex;
use pi_storage::{Column, Value};

use crate::cracked_column::CrackedColumn;

/// Standard cracking baseline (`STD` in the paper's tables).
pub struct StandardCracking {
    column: Arc<Column>,
    cracked: Option<CrackedColumn>,
    queries_executed: u64,
}

impl StandardCracking {
    /// Creates the baseline over `column`. No work happens until the first
    /// query.
    pub fn new(column: Arc<Column>) -> Self {
        StandardCracking {
            column,
            cracked: None,
            queries_executed: 0,
        }
    }

    fn cracked_mut(&mut self) -> &mut CrackedColumn {
        if self.cracked.is_none() {
            self.cracked = Some(CrackedColumn::new(&self.column));
        }
        self.cracked.as_mut().expect("just initialised")
    }
}

impl RangeIndex for StandardCracking {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        self.queries_executed += 1;
        if low > high || self.column.is_empty() {
            return QueryResult::answer_only(pi_storage::ScanResult::EMPTY, self.status().phase);
        }
        let cracked = self.cracked_mut();
        let (_, swaps_lo) = cracked.crack_exact(low);
        let swaps_hi = if high == Value::MAX {
            0
        } else {
            cracked.crack_exact(high + 1).1
        };
        let answer = cracked.answer(low, high);
        QueryResult {
            sum: answer.result.sum,
            count: answer.result.count,
            phase: Phase::Refinement,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: swaps_lo + swaps_hi,
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
        "standard-cracking"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};

    /// Crack boundaries installed so far: one fewer than the pieces.
    fn boundary_count(idx: &StandardCracking) -> usize {
        idx.cracked
            .as_ref()
            .map_or(0, |c| c.index().pieces(c.data().len()).len() - 1)
    }

    #[test]
    fn answers_match_reference_under_random_workload() {
        let converged = check_correctness_under_workload(
            |col| Box::new(StandardCracking::new(col)),
            20_000,
            50_000,
            200,
        );
        // Cracking never declares convergence.
        assert!(!converged);
    }

    #[test]
    fn boundaries_accumulate_with_queries() {
        let col = Arc::new(random_column(10_000, 10_000, 11));
        let mut idx = StandardCracking::new(Arc::clone(&col));
        assert_eq!(boundary_count(&idx), 0);
        idx.query(1_000, 2_000);
        assert_eq!(boundary_count(&idx), 2);
        idx.query(5_000, 6_000);
        assert_eq!(boundary_count(&idx), 4);
        // Repeating a query adds no new boundaries.
        idx.query(1_000, 2_000);
        assert_eq!(boundary_count(&idx), 4);
    }

    #[test]
    fn repeated_query_gets_cheaper() {
        let col = Arc::new(random_column(50_000, 100_000, 12));
        let mut idx = StandardCracking::new(col);
        let first = idx.query(10_000, 20_000);
        let second = idx.query(10_000, 20_000);
        assert_eq!(first.scan_result(), second.scan_result());
        // The first query pays for the cracks; repeating it does no
        // reorganisation work and touches no more data than before.
        assert!(first.indexing_ops > 0);
        assert_eq!(second.indexing_ops, 0);
        assert!(second.elements_scanned <= first.elements_scanned);
    }

    #[test]
    fn point_queries_and_extreme_bounds() {
        let col = Arc::new(random_column(5_000, 1_000, 13));
        let reference = ReferenceIndex::new(&col);
        let mut idx = StandardCracking::new(Arc::clone(&col));
        assert_eq!(
            idx.point_query(500).scan_result(),
            reference.query(500, 500)
        );
        assert_eq!(
            idx.query(0, Value::MAX).scan_result(),
            reference.query(0, Value::MAX)
        );
        assert_eq!(idx.query(10, 5).count, 0);
    }

    #[test]
    fn status_transitions_after_first_query() {
        let col = Arc::new(random_column(1_000, 1_000, 14));
        let mut idx = StandardCracking::new(col);
        assert_eq!(idx.status().phase, Phase::Creation);
        assert_eq!(idx.status().fraction_indexed, 0.0);
        idx.query(100, 200);
        let status = idx.status();
        assert_eq!(status.phase, Phase::Refinement);
        assert_eq!(status.fraction_indexed, 1.0);
        assert!(!status.converged);
    }
}
