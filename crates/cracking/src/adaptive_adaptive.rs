//! Unit tests of adaptive adaptive indexing:
//! [`Rule::AdaptiveAdaptive`](crate::cracking::Rule::AdaptiveAdaptive).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pi_core::testing::{
        check_correctness_under_workload, random_column, ReferenceIndex, TestRng,
    };
    use pi_core::RangeIndex;
    use pi_storage::Column;

    use crate::cracking::{Cracking, Rule};

    #[test]
    fn answers_match_reference_under_random_workload() {
        let converged = check_correctness_under_workload(
            |col| Box::new(Cracking::new(col, Rule::AdaptiveAdaptive)),
            20_000,
            50_000,
            200,
        );
        // Cracking never declares convergence.
        assert!(!converged);
    }

    #[test]
    fn first_query_is_the_most_expensive() {
        let col = Arc::new(random_column(100_000, 1_000_000, 51));
        let mut idx = Cracking::new(Arc::clone(&col), Rule::AdaptiveAdaptive);
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
        let mut idx = Cracking::new(Arc::clone(&col), Rule::AdaptiveAdaptive);
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
    fn one_value_piece_is_cracked_at_the_bound() {
        // No re-partition of a one-value piece installs a boundary, so the
        // bound cracks it exactly and repeating the query costs nothing.
        let col = Arc::new(Column::from_vec(vec![7; 40_000]));
        let mut idx = Cracking::new(col, Rule::AdaptiveAdaptive);
        let first = idx.query(7, 7);
        assert_eq!((first.count, first.sum), (40_000, 280_000));
        assert!(first.indexing_ops > 0);
        let again = idx.query(7, 7);
        assert_eq!((again.count, again.sum), (40_000, 280_000));
        assert_eq!(again.indexing_ops, 0);
    }

    #[test]
    fn hot_region_gets_refined() {
        // Half the rows fall into a band narrower than one first-pass
        // partition, so that partition is larger than the L2 threshold.
        let mut rng = TestRng::new(52);
        let values = (0..200_000)
            .map(|i| {
                if i % 2 == 0 {
                    rng.below(1_000_000)
                } else {
                    500_000 + rng.below(5_000)
                }
            })
            .collect();
        let col = Arc::new(Column::from_vec(values));
        let mut idx = Cracking::new(Arc::clone(&col), Rule::AdaptiveAdaptive);
        idx.query(100_000, 150_000);
        let after_first = idx.boundary_count();
        // Querying the hot region re-partitions the oversized partition:
        // many boundaries, not just the two at the query bounds.
        for _ in 0..20 {
            idx.query(501_000, 503_000);
        }
        assert!(idx.boundary_count() > after_first + 2);
        let reference = ReferenceIndex::new(&col);
        assert_eq!(
            idx.query(501_000, 503_000).scan_result(),
            reference.query(501_000, 503_000)
        );
    }
}
