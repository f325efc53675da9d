//! The algorithm registry: every indexing technique the paper evaluates
//! (Tables 2–5), under the label its tables use, constructible through one
//! uniform factory. The four progressive entries are [`Algorithm`] values,
//! so pi-core's enum stays the only list of the progressive indexes.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::CostConstants;
use pi_core::{Algorithm, RangeIndex};
use pi_storage::Column;

use crate::cracking::{Cracking, Rule};
use crate::full::{FullIndex, FullScan};

/// Every indexing technique of the paper's evaluation (Tables 2–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmId {
    /// `PQ`, `PMSD`, `PB`, `PLSD` — the paper's four progressive indexes.
    Progressive(Algorithm),
    /// `FS` — predicated full scan, no index.
    FullScan,
    /// `FI` — full sort + B+-tree on the first query.
    FullIndex,
    /// `STD` — standard database cracking.
    StandardCracking,
    /// `STC` — stochastic cracking.
    StochasticCracking,
    /// `PSTC` — progressive stochastic cracking (10% swaps).
    ProgressiveStochasticCracking,
    /// `CGI` — coarse granular index.
    CoarseGranularIndex,
    /// `AA` — adaptive adaptive indexing.
    AdaptiveAdaptive,
}

impl AlgorithmId {
    /// The four progressive indexes, in the order of [`Algorithm::ALL`].
    pub const PROGRESSIVE: [AlgorithmId; 4] = [
        AlgorithmId::Progressive(Algorithm::ALL[0]),
        AlgorithmId::Progressive(Algorithm::ALL[1]),
        AlgorithmId::Progressive(Algorithm::ALL[2]),
        AlgorithmId::Progressive(Algorithm::ALL[3]),
    ];

    /// Every technique: the two reference points and the five cracking
    /// baselines in the row order of Table 2, then [`Self::PROGRESSIVE`].
    pub const ALL: [AlgorithmId; 11] = [
        AlgorithmId::FullScan,
        AlgorithmId::FullIndex,
        AlgorithmId::StandardCracking,
        AlgorithmId::StochasticCracking,
        AlgorithmId::ProgressiveStochasticCracking,
        AlgorithmId::CoarseGranularIndex,
        AlgorithmId::AdaptiveAdaptive,
        Self::PROGRESSIVE[0],
        Self::PROGRESSIVE[1],
        Self::PROGRESSIVE[2],
        Self::PROGRESSIVE[3],
    ];

    /// The short label used in the paper's tables (`FS`, `FI`, `STD`, …).
    pub(crate) fn label(self) -> &'static str {
        match self {
            AlgorithmId::Progressive(Algorithm::Quicksort) => "PQ",
            AlgorithmId::Progressive(Algorithm::RadixsortMsd) => "PMSD",
            AlgorithmId::Progressive(Algorithm::RadixsortLsd) => "PLSD",
            AlgorithmId::Progressive(Algorithm::Bucketsort) => "PB",
            AlgorithmId::FullScan => "FS",
            AlgorithmId::FullIndex => "FI",
            AlgorithmId::StandardCracking => "STD",
            AlgorithmId::StochasticCracking => "STC",
            AlgorithmId::ProgressiveStochasticCracking => "PSTC",
            AlgorithmId::CoarseGranularIndex => "CGI",
            AlgorithmId::AdaptiveAdaptive => "AA",
        }
    }

    /// Builds an index instance over `column`.
    ///
    /// `policy` and `constants` only affect the progressive techniques,
    /// which go through [`Algorithm::build_with_constants`]; the baselines
    /// have no indexing budget.
    pub fn build(
        self,
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
    ) -> Box<dyn RangeIndex> {
        match self {
            AlgorithmId::Progressive(algorithm) => {
                algorithm.build_with_constants(column, policy, constants)
            }
            AlgorithmId::FullScan => Box::new(FullScan::new(column)),
            AlgorithmId::FullIndex => Box::new(FullIndex::new(column)),
            AlgorithmId::StandardCracking => Box::new(Cracking::new(column, Rule::Standard)),
            AlgorithmId::StochasticCracking => Box::new(Cracking::new(column, Rule::Stochastic)),
            AlgorithmId::ProgressiveStochasticCracking => {
                Box::new(Cracking::new(column, Rule::ProgressiveStochastic))
            }
            AlgorithmId::CoarseGranularIndex => {
                Box::new(Cracking::new(column, Rule::CoarseGranular))
            }
            AlgorithmId::AdaptiveAdaptive => {
                Box::new(Cracking::new(column, Rule::AdaptiveAdaptive))
            }
        }
    }
}

impl std::fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{random_column, ReferenceIndex, TestRng};

    #[test]
    fn classification_is_consistent() {
        // Eleven distinct entries under eleven distinct labels, and the
        // progressive ones are exactly pi-core's four algorithms.
        let mut labels: Vec<_> = AlgorithmId::ALL.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 11);
        let progressive: Vec<_> = AlgorithmId::ALL
            .into_iter()
            .filter(|a| matches!(a, AlgorithmId::Progressive(_)))
            .collect();
        assert_eq!(progressive, AlgorithmId::PROGRESSIVE);
        assert_eq!(
            AlgorithmId::PROGRESSIVE.map(|a| match a {
                AlgorithmId::Progressive(algorithm) => algorithm,
                other => panic!("{other} is not progressive"),
            }),
            Algorithm::ALL
        );
    }

    #[test]
    fn every_algorithm_builds_and_answers_correctly() {
        let column = Arc::new(random_column(5_000, 10_000, 77));
        let reference = ReferenceIndex::new(&column);
        let constants = CostConstants::synthetic();
        for algo in AlgorithmId::ALL {
            let mut index = algo.build(
                Arc::clone(&column),
                BudgetPolicy::FixedDelta(0.25),
                constants,
            );
            for (low, high) in [(0, 500), (2_000, 4_000), (9_999, 9_999), (7_000, 7_500)] {
                let got = index.query(low, high);
                assert_eq!(
                    got.scan_result(),
                    reference.query(low, high),
                    "{algo} [{low},{high}]"
                );
            }
        }
    }

    /// The convergence side of Table 2: the full index is converged after
    /// its first query, every progressive index converges, and the full
    /// scan and the five cracking baselines never report converged.
    #[test]
    fn only_the_full_and_progressive_indexes_converge() {
        const N: usize = 15_000;
        const DOMAIN: u64 = 100_000;
        const QUERIES: usize = 200;
        let column = Arc::new(random_column(N, DOMAIN, 0x7AB2));
        let reference = ReferenceIndex::new(&column);
        for algo in AlgorithmId::ALL {
            let mut index = algo.build(
                Arc::clone(&column),
                BudgetPolicy::FixedDelta(0.25),
                CostConstants::synthetic(),
            );
            let mut rng = TestRng::new(2);
            let mut converged_at = None;
            for q in 1..=QUERIES {
                let low = rng.below(DOMAIN);
                let high = low + rng.below(DOMAIN / 10);
                let got = index.query(low, high);
                assert_eq!(
                    got.scan_result(),
                    reference.query(low, high),
                    "{algo}: query #{q} [{low},{high}]"
                );
                if converged_at.is_none() && index.is_converged() {
                    converged_at = Some(q);
                }
            }
            match algo {
                AlgorithmId::FullIndex => assert_eq!(converged_at, Some(1), "{algo}"),
                AlgorithmId::Progressive(_) => {
                    assert!(converged_at.is_some(), "{algo} did not converge")
                }
                _ => assert_eq!(converged_at, None, "{algo}"),
            }
        }
    }
}
