//! Unit tests of standard cracking:
//! [`Rule::Standard`](crate::cracking::Rule::Standard).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pi_core::result::Phase;
    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};
    use pi_core::RangeIndex;
    use pi_storage::Value;

    use crate::cracking::{Cracking, Rule};

    #[test]
    fn answers_match_reference_under_random_workload() {
        let converged = check_correctness_under_workload(
            |col| Box::new(Cracking::new(col, Rule::Standard)),
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
        let mut idx = Cracking::new(Arc::clone(&col), Rule::Standard);
        assert_eq!(idx.boundary_count(), 0);
        idx.query(1_000, 2_000);
        assert_eq!(idx.boundary_count(), 2);
        idx.query(5_000, 6_000);
        assert_eq!(idx.boundary_count(), 4);
        // Repeating a query adds no new boundaries.
        idx.query(1_000, 2_000);
        assert_eq!(idx.boundary_count(), 4);
    }

    #[test]
    fn repeated_query_gets_cheaper() {
        let col = Arc::new(random_column(50_000, 100_000, 12));
        let mut idx = Cracking::new(col, Rule::Standard);
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
        let mut idx = Cracking::new(Arc::clone(&col), Rule::Standard);
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
        let mut idx = Cracking::new(col, Rule::Standard);
        assert_eq!(idx.status().phase, Phase::Creation);
        assert_eq!(idx.status().fraction_indexed, 0.0);
        idx.query(100, 200);
        let status = idx.status();
        assert_eq!(status.phase, Phase::Refinement);
        assert_eq!(status.fraction_indexed, 1.0);
        assert!(!status.converged);
    }
}
