//! Unit tests of progressive stochastic cracking:
//! [`Rule::ProgressiveStochastic`](crate::cracking::Rule::ProgressiveStochastic).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};
    use pi_core::RangeIndex;

    use crate::cracking::{Cracking, Rule};

    #[test]
    fn answers_match_reference_under_random_workload() {
        let converged = check_correctness_under_workload(
            |col| Box::new(Cracking::new(col, Rule::ProgressiveStochastic)),
            20_000,
            50_000,
            200,
        );
        // Cracking never declares convergence.
        assert!(!converged);
    }

    #[test]
    fn swap_budget_limits_per_query_reorganisation() {
        // The column is larger than the L2 threshold, so the first cracks
        // are partial and capped at 10% of the column per query.
        let col = Arc::new(random_column(100_000, 1_000_000, 31));
        let reference = ReferenceIndex::new(&col);
        let mut idx = Cracking::new(Arc::clone(&col), Rule::ProgressiveStochastic);
        let allowance = 10_000;
        let mut capped = 0;
        for q in 0..30u64 {
            let low = (q * 31_337) % 900_000;
            let high = low + 50_000;
            let r = idx.query(low, high);
            assert_eq!(r.scan_result(), reference.query(low, high));
            assert!(
                r.indexing_ops <= allowance,
                "query {q} spent {} swaps, allowance {allowance}",
                r.indexing_ops
            );
            capped += usize::from(r.indexing_ops == allowance);
        }
        // The cap binds: some queries stopped a crack at the allowance.
        assert!(capped > 0);
    }

    #[test]
    fn partial_cracks_eventually_complete() {
        let col = Arc::new(random_column(100_000, 1_000_000, 32));
        let reference = ReferenceIndex::new(&col);
        let mut idx = Cracking::new(Arc::clone(&col), Rule::ProgressiveStochastic);
        // Hammer the same region; the pending crack on the big initial
        // piece must finish and install a boundary.
        let first = idx.query(100_000, 200_000);
        assert!(idx.has_pending_crack(), "the first crack is partial");
        assert_eq!(idx.boundary_count(), 0);
        assert_eq!(first.scan_result(), reference.query(100_000, 200_000));
        for _ in 0..200 {
            let r = idx.query(100_000, 200_000);
            assert_eq!(r.scan_result(), reference.query(100_000, 200_000));
        }
        assert!(idx.boundary_count() > 0);
        assert!(idx.status().phase_progress > 0.0);
    }

    #[test]
    fn small_columns_behave_like_standard_cracking() {
        // Every piece fits the L2 threshold, so bounds are cracked exactly
        // and repeated queries stop doing work.
        let col = Arc::new(random_column(5_000, 5_000, 33));
        let mut idx = Cracking::new(col, Rule::ProgressiveStochastic);
        idx.query(1_000, 2_000);
        let again = idx.query(1_000, 2_000);
        assert_eq!(again.indexing_ops, 0);
        assert!(!idx.has_pending_crack());
    }
}
