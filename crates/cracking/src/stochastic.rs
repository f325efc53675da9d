//! Unit tests of stochastic cracking:
//! [`Rule::Stochastic`](crate::cracking::Rule::Stochastic).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};
    use pi_core::RangeIndex;

    use crate::cracking::{Cracking, Rule};

    #[test]
    fn answers_match_reference_under_random_workload() {
        let converged = check_correctness_under_workload(
            |col| Box::new(Cracking::new(col, Rule::Stochastic)),
            20_000,
            50_000,
            200,
        );
        // Cracking never declares convergence.
        assert!(!converged);
    }

    #[test]
    fn sequential_workload_still_makes_progress() {
        // A strictly sequential workload is standard cracking's worst case;
        // stochastic cracking must keep shrinking the largest piece anyway.
        let col = Arc::new(random_column(100_000, 1_000_000, 21));
        let reference = ReferenceIndex::new(&col);
        let mut idx = Cracking::new(Arc::clone(&col), Rule::Stochastic);
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
    fn small_pieces_get_exact_boundaries() {
        // A column of 16,384 rows, the exact-crack threshold, is one small
        // piece, so stochastic cracking cracks the bound exactly on the
        // first query, like standard cracking.
        let col = Arc::new(random_column(16_384, 5_000, 23));
        let mut idx = Cracking::new(col, Rule::Stochastic);
        idx.query(1_000, 2_000);
        assert!(idx.boundary_of(1_000).is_some());
        // Above the threshold the first crack goes around a random pivot;
        // repeating the query shrinks the bound's piece until it is small
        // enough to be cracked exactly.
        let col = Arc::new(random_column(100_000, 1_000_000, 23));
        let reference = ReferenceIndex::new(&col);
        let mut idx = Cracking::new(Arc::clone(&col), Rule::Stochastic);
        let mut queries = 0;
        while idx.boundary_of(100_000).is_none() {
            let r = idx.query(100_000, 200_000);
            assert_eq!(r.scan_result(), reference.query(100_000, 200_000));
            queries += 1;
            assert!(queries < 100, "the bound never became exact");
        }
        assert!(queries > 1, "a large piece was cracked exactly");
    }

    #[test]
    fn never_reports_convergence() {
        let col = Arc::new(random_column(2_000, 2_000, 24));
        let mut idx = Cracking::new(col, Rule::Stochastic);
        for q in 0..100 {
            idx.query(q * 17 % 2_000, (q * 17 % 2_000) + 50);
        }
        assert!(!idx.is_converged());
    }
}
