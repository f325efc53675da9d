//! Unit tests of the coarse granular index:
//! [`Rule::CoarseGranular`](crate::cracking::Rule::CoarseGranular).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};
    use pi_core::RangeIndex;
    use pi_storage::Column;

    use crate::cracking::{Cracking, Rule};

    #[test]
    fn answers_match_reference_under_random_workload() {
        let converged = check_correctness_under_workload(
            |col| Box::new(Cracking::new(col, Rule::CoarseGranular)),
            20_000,
            50_000,
            200,
        );
        // Cracking never declares convergence.
        assert!(!converged);
    }

    #[test]
    fn first_query_installs_partition_boundaries() {
        let col = Arc::new(random_column(100_000, 1_000_000, 41));
        let mut idx = Cracking::new(Arc::clone(&col), Rule::CoarseGranular);
        assert_eq!(idx.boundary_count(), 0);
        let reference = ReferenceIndex::new(&col);
        let r = idx.query(100_000, 200_000);
        assert_eq!(r.scan_result(), reference.query(100_000, 200_000));
        // 63 partition boundaries plus (up to) 2 query-bound boundaries.
        assert!(idx.boundary_count() >= 63);
        // The first query pays for the full partition pass.
        assert!(r.indexing_ops >= 100_000);
    }

    #[test]
    fn partitioning_bounds_largest_piece() {
        let col = Arc::new(random_column(100_000, 1_000_000, 42));
        let mut idx = Cracking::new(Arc::clone(&col), Rule::CoarseGranular);
        idx.query(0, 10);
        // Uniform data: no piece should be much larger than n / ways.
        let largest = idx.largest_piece();
        assert!(
            largest < 2 * (100_000 / 64) + 1_000,
            "largest piece {largest}"
        );
    }

    #[test]
    fn skewed_data_is_still_answered_correctly() {
        // All values identical: every element lands in one partition.
        let col = Arc::new(Column::from_vec(vec![7; 10_000]));
        let reference = ReferenceIndex::new(&col);
        let mut idx = Cracking::new(Arc::clone(&col), Rule::CoarseGranular);
        assert_eq!(idx.query(0, 6).scan_result(), reference.query(0, 6));
        assert_eq!(idx.query(7, 7).scan_result(), reference.query(7, 7));
        assert_eq!(idx.query(8, 100).scan_result(), reference.query(8, 100));
    }
}
