//! The decision tree of the paper's Figure 11: which progressive indexing
//! technique to use in which scenario.
//!
//! Section 4 of the paper distils its experimental findings into a small
//! set of rules:
//!
//! * **Point-query dominated workloads** → Progressive Radixsort (LSD).
//!   Its least-significant-digit buckets can answer point queries from the
//!   very first query, and it has the lowest variance of all techniques
//!   (Tables 4 and 5, "Point Query" block).
//! * **Range queries over (roughly) uniformly distributed data** →
//!   Progressive Radixsort (MSD). Radix clustering produces an immediately
//!   useful range partitioning and converges in the fewest rounds
//!   (Figure 7c, Table 2, Table 4 "Uniform Random" block).
//! * **Range queries over skewed data** → Progressive Bucketsort
//!   (Equi-Height). Value-based range partitioning keeps the partitions
//!   equally sized under skew (Table 4 "Skewed" block).
//! * **Unknown distribution, tight memory, or mixed/unknown query shape**
//!   → Progressive Quicksort. It needs no auxiliary bucket storage (its
//!   working array is exactly one copy of the column), is insensitive to
//!   the value distribution because the pivot adapts to the observed
//!   `[min, max]`, and was the paper's headline comparison against
//!   adaptive indexing (Figure 10).
//!
//! [`recommend`] encodes those rules. The inputs deliberately mirror what
//! a DBA (or an automated advisor) actually knows *before* building an
//! index: the expected query shape, what is known about the value
//! distribution, and whether extra memory for out-of-place bucket storage
//! is acceptable.

use std::sync::Arc;

use crate::budget::BudgetPolicy;
use crate::cost_model::CostConstants;
use crate::index::RangeIndex;
use crate::mutation::MutableIndex;
use crate::tuning::TuningParameters;
use pi_storage::Column;

/// The progressive indexing technique recommended by the decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Progressive Quicksort (§3.1).
    Quicksort,
    /// Progressive Radixsort MSD (§3.2).
    RadixsortMsd,
    /// Progressive Radixsort LSD (§3.2).
    RadixsortLsd,
    /// Progressive Bucketsort, equi-height (§3.3).
    Bucketsort,
}

impl Algorithm {
    /// Stable identifier matching [`crate::index::RangeIndex::name`] of the
    /// corresponding index implementation.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Algorithm::Quicksort => "progressive-quicksort",
            Algorithm::RadixsortMsd => "progressive-radixsort-msd",
            Algorithm::RadixsortLsd => "progressive-radixsort-lsd",
            Algorithm::Bucketsort => "progressive-bucketsort",
        }
    }

    /// All four algorithms, in the order the paper introduces them.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Quicksort,
        Algorithm::RadixsortMsd,
        Algorithm::Bucketsort,
        Algorithm::RadixsortLsd,
    ];

    /// Builds the progressive index this variant names over `column`,
    /// behind the [`RangeIndex`] interface it shares with pi-cracking's
    /// baselines, with the host-independent [`CostConstants::synthetic`]
    /// (see [`Algorithm::build_with_constants`] for explicit ones).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pi_core::prelude::*;
    ///
    /// let column = Arc::new(pi_core::testing::random_column(10_000, 50_000, 7));
    /// let algorithm = recommend(Scenario::unknown());
    /// let mut index = algorithm.build(column, BudgetPolicy::FixedDelta(0.5));
    /// let result = index.query(1_000, 2_000);
    /// assert!(result.count > 0);
    /// ```
    pub fn build(self, column: Arc<Column>, policy: BudgetPolicy) -> Box<dyn RangeIndex + Send> {
        self.build_with_constants(column, policy, CostConstants::synthetic())
    }

    /// [`Algorithm::build`] with explicit cost-model constants, as used by
    /// pi-cracking's registry and calibrated runs.
    pub fn build_with_constants(
        self,
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
    ) -> Box<dyn RangeIndex + Send> {
        Box::new(MutableIndex::with_constants(
            column, self, policy, constants,
        ))
    }

    /// Forwards to [`Algorithm::build_with_constants`]; the last argument
    /// is ignored. Kept only because `pibench/` calls it — see
    /// [`crate::tuning`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pi_core::prelude::*;
    ///
    /// let column = Arc::new(pi_core::testing::random_column(10_000, 50_000, 7));
    /// let policy = BudgetPolicy::FixedDelta(0.5);
    /// let constants = CostConstants::synthetic();
    /// let mut a = Algorithm::RadixsortLsd.build_tuned(
    ///     Arc::clone(&column),
    ///     policy,
    ///     constants,
    ///     pi_core::TuningParameters::default(),
    /// );
    /// let mut b = Algorithm::RadixsortLsd.build_with_constants(column, policy, constants);
    /// assert_eq!(a.query(1_000, 2_000), b.query(1_000, 2_000));
    /// ```
    pub fn build_tuned(
        self,
        column: Arc<Column>,
        policy: BudgetPolicy,
        constants: CostConstants,
        _tuning: TuningParameters,
    ) -> Box<dyn RangeIndex + Send> {
        self.build_with_constants(column, policy, constants)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Dominant query shape of the expected workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// Mostly `a == v` lookups (the paper's "Point Query" workload block).
    Point,
    /// Mostly `a BETWEEN v1 AND v2` range queries.
    Range,
    /// Nothing is known about the query shape.
    Unknown,
}

/// What is known about the value distribution of the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataDistribution {
    /// Roughly uniform (e.g. surrogate keys, uniformly random values).
    Uniform,
    /// Heavily skewed (the paper's synthetic skew concentrates 90% of the
    /// values in 10% of the domain).
    Skewed,
    /// Nothing is known about the distribution.
    Unknown,
}

/// The scenario the decision tree is evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Dominant query shape.
    pub query_shape: QueryShape,
    /// Knowledge about the value distribution.
    pub distribution: DataDistribution,
    /// Whether the extra memory for out-of-place bucket storage
    /// (≈ one additional copy of the column while clustering) is
    /// acceptable. When it is not, only the in-place Progressive Quicksort
    /// qualifies.
    pub extra_memory_allowed: bool,
}

impl Scenario {
    /// A scenario where nothing is known: unknown query shape, unknown
    /// distribution, extra memory allowed.
    pub fn unknown() -> Self {
        Scenario {
            query_shape: QueryShape::Unknown,
            distribution: DataDistribution::Unknown,
            extra_memory_allowed: true,
        }
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Self::unknown()
    }
}

/// Walks the decision tree of Figure 11 and returns the recommended
/// progressive indexing technique for `scenario`.
///
/// ```
/// use pi_core::decision::{recommend, Algorithm, DataDistribution, QueryShape, Scenario};
///
/// // Point-query heavy dashboard over a key column.
/// let algo = recommend(Scenario {
///     query_shape: QueryShape::Point,
///     distribution: DataDistribution::Uniform,
///     extra_memory_allowed: true,
/// });
/// assert_eq!(algo, Algorithm::RadixsortLsd);
///
/// // Nothing known and memory is tight: fall back to Progressive Quicksort.
/// let algo = recommend(Scenario {
///     extra_memory_allowed: false,
///     ..Scenario::unknown()
/// });
/// assert_eq!(algo, Algorithm::Quicksort);
/// ```
pub fn recommend(scenario: Scenario) -> Algorithm {
    // Memory is the first split: the bucket-based techniques all maintain
    // out-of-place bucket storage during (re)clustering, so a memory-
    // constrained deployment can only afford the in-place quicksort.
    if !scenario.extra_memory_allowed {
        return Algorithm::Quicksort;
    }
    match scenario.query_shape {
        // Point queries can use LSD buckets from the very first query.
        QueryShape::Point => Algorithm::RadixsortLsd,
        QueryShape::Range => match scenario.distribution {
            DataDistribution::Uniform => Algorithm::RadixsortMsd,
            DataDistribution::Skewed => Algorithm::Bucketsort,
            // Unknown distribution: equi-height bounds adapt to whatever
            // the data looks like, so Bucketsort is the robust range
            // choice.
            DataDistribution::Unknown => Algorithm::Bucketsort,
        },
        // Unknown query shape: Quicksort is the paper's general-purpose
        // recommendation — range and point queries both benefit, and it
        // carries no bucket bookkeeping that a particular query shape
        // might render useless.
        QueryShape::Unknown => match scenario.distribution {
            DataDistribution::Uniform => Algorithm::RadixsortMsd,
            _ => Algorithm::Quicksort,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recommendation for every combination of the scenario
    /// dimensions.
    fn full_decision_table() -> Vec<(Scenario, Algorithm)> {
        let shapes = [QueryShape::Point, QueryShape::Range, QueryShape::Unknown];
        let distributions = [
            DataDistribution::Uniform,
            DataDistribution::Skewed,
            DataDistribution::Unknown,
        ];
        let mut table = Vec::new();
        for &query_shape in &shapes {
            for &distribution in &distributions {
                for &extra_memory_allowed in &[true, false] {
                    let scenario = Scenario {
                        query_shape,
                        distribution,
                        extra_memory_allowed,
                    };
                    table.push((scenario, recommend(scenario)));
                }
            }
        }
        table
    }

    #[test]
    fn memory_constraint_always_yields_quicksort() {
        for (scenario, algo) in full_decision_table() {
            if !scenario.extra_memory_allowed {
                assert_eq!(algo, Algorithm::Quicksort, "scenario {scenario:?}");
            }
        }
    }

    #[test]
    fn point_queries_yield_lsd_when_memory_allows() {
        let algo = recommend(Scenario {
            query_shape: QueryShape::Point,
            distribution: DataDistribution::Skewed,
            extra_memory_allowed: true,
        });
        assert_eq!(algo, Algorithm::RadixsortLsd);
    }

    #[test]
    fn uniform_range_queries_yield_msd() {
        let algo = recommend(Scenario {
            query_shape: QueryShape::Range,
            distribution: DataDistribution::Uniform,
            extra_memory_allowed: true,
        });
        assert_eq!(algo, Algorithm::RadixsortMsd);
    }

    #[test]
    fn skewed_range_queries_yield_bucketsort() {
        let algo = recommend(Scenario {
            query_shape: QueryShape::Range,
            distribution: DataDistribution::Skewed,
            extra_memory_allowed: true,
        });
        assert_eq!(algo, Algorithm::Bucketsort);
    }

    #[test]
    fn unknown_everything_yields_quicksort() {
        assert_eq!(recommend(Scenario::unknown()), Algorithm::Quicksort);
    }

    #[test]
    fn full_table_covers_all_combinations() {
        let table = full_decision_table();
        assert_eq!(table.len(), 3 * 3 * 2);
        // Every algorithm that the tree can recommend appears at least once.
        for algo in [
            Algorithm::Quicksort,
            Algorithm::RadixsortMsd,
            Algorithm::RadixsortLsd,
            Algorithm::Bucketsort,
        ] {
            assert!(
                table.iter().any(|&(_, a)| a == algo),
                "{algo} never recommended"
            );
        }
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(Algorithm::Quicksort.name(), "progressive-quicksort");
        assert_eq!(
            Algorithm::RadixsortMsd.to_string(),
            "progressive-radixsort-msd"
        );
        assert_eq!(Algorithm::ALL.len(), 4);
    }
}
