//! The two non-adaptive reference points of the paper's evaluation:
//!
//! * [`FullScan`] (`FS`) — never builds any index; every query is a
//!   predicated full-column scan. Cheapest possible first query, perfectly
//!   robust, worst possible cumulative time.
//! * [`FullIndex`] (`FI`) — the first query sorts a copy of the column and
//!   bulk-loads a B+-tree; every later query is answered from the tree.
//!   Most expensive possible first query, best possible cumulative time.

use std::sync::Arc;

use pi_core::result::{IndexStatus, Phase, QueryResult};
use pi_core::RangeIndex;
use pi_storage::{scan, Column, StaticBTree, Value, DEFAULT_FANOUT};

/// Full-scan baseline (`FS` in the paper's tables).
pub(crate) struct FullScan {
    column: Arc<Column>,
}

impl FullScan {
    /// Creates the baseline over `column`.
    pub(crate) fn new(column: Arc<Column>) -> Self {
        FullScan { column }
    }
}

impl RangeIndex for FullScan {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        if low > high {
            return QueryResult::answer_only(scan::ScanResult::EMPTY, Phase::Creation);
        }
        let result = scan::scan_range_sum(self.column.data(), low, high);
        QueryResult {
            sum: result.sum,
            count: result.count,
            phase: Phase::Creation,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: 0,
            elements_scanned: self.column.len() as u64,
        }
    }

    fn status(&self) -> IndexStatus {
        IndexStatus {
            phase: Phase::Creation,
            fraction_indexed: 0.0,
            phase_progress: 0.0,
            converged: false,
        }
    }

    fn name(&self) -> &'static str {
        "full-scan"
    }
}

/// Full-index baseline (`FI` in the paper's tables): sort + bulk-loaded
/// B+-tree built entirely by the first query.
pub(crate) struct FullIndex {
    column: Arc<Column>,
    index: Option<(Vec<Value>, StaticBTree)>,
}

impl FullIndex {
    /// Creates the baseline over `column`, with the default B+-tree
    /// fan-out.
    pub(crate) fn new(column: Arc<Column>) -> Self {
        FullIndex {
            column,
            index: None,
        }
    }

    fn build(&mut self) -> u64 {
        let mut sorted = self.column.data().to_vec();
        sorted.sort_unstable();
        let tree = StaticBTree::build(&sorted, DEFAULT_FANOUT);
        let ops = sorted.len() as u64 + tree.internal_key_count() as u64;
        self.index = Some((sorted, tree));
        ops
    }
}

impl RangeIndex for FullIndex {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        if low > high {
            return QueryResult::answer_only(scan::ScanResult::EMPTY, self.status().phase);
        }
        let mut ops = 0u64;
        if self.index.is_none() {
            ops = self.build();
        }
        let (sorted, tree) = self.index.as_ref().expect("built above");
        let result = tree.range_sum(sorted, low, high);
        QueryResult {
            sum: result.sum,
            count: result.count,
            phase: Phase::Converged,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: ops,
            elements_scanned: result.count,
        }
    }

    fn status(&self) -> IndexStatus {
        if self.index.is_some() {
            IndexStatus::converged()
        } else {
            IndexStatus {
                phase: Phase::Creation,
                fraction_indexed: 0.0,
                phase_progress: 0.0,
                converged: false,
            }
        }
    }

    fn name(&self) -> &'static str {
        "full-index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};

    #[test]
    fn full_scan_matches_reference() {
        let converged = check_correctness_under_workload(
            |col| Box::new(FullScan::new(col)),
            10_000,
            10_000,
            100,
        );
        assert!(!converged, "full scan never converges");
    }

    #[test]
    fn full_index_matches_reference_and_converges_after_first_query() {
        let col = Arc::new(random_column(10_000, 100_000, 61));
        let reference = ReferenceIndex::new(&col);
        let mut idx = FullIndex::new(Arc::clone(&col));
        assert!(!idx.is_converged());
        let first = idx.query(10_000, 30_000);
        assert_eq!(first.scan_result(), reference.query(10_000, 30_000));
        assert!(first.indexing_ops >= 10_000);
        assert!(idx.is_converged());
        let second = idx.query(10_000, 30_000);
        assert_eq!(second.indexing_ops, 0);
        assert_eq!(second.scan_result(), first.scan_result());
    }

    #[test]
    fn full_index_point_and_empty_queries() {
        let col = Arc::new(Column::from_vec(vec![5, 3, 8, 3, 1]));
        let mut idx = FullIndex::new(col);
        assert_eq!(idx.point_query(3).count, 2);
        assert_eq!(idx.point_query(3).sum, 6);
        assert_eq!(idx.query(100, 200).count, 0);
        assert_eq!(idx.query(7, 2).count, 0);
    }

    #[test]
    fn full_scan_is_perfectly_robust_in_elements_scanned() {
        let col = Arc::new(random_column(5_000, 5_000, 62));
        let mut idx = FullScan::new(col);
        let a = idx.query(0, 10).elements_scanned;
        let b = idx.query(2_000, 4_999).elements_scanned;
        assert_eq!(a, b);
    }
}
