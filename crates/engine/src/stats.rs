//! Workload and data statistics feeding the Figure-11 decision tree.
//!
//! The paper's decision tree (reproduced by [`pi_core::decision::recommend`])
//! expects a [`Scenario`]: the dominant query shape, what is known about
//! the value distribution, and whether out-of-place bucket memory is
//! acceptable. In a serving engine none of those are configuration inputs —
//! they are *observable*. This module observes them:
//!
//! * [`WorkloadStats`] tracks per-column query shape as queries arrive
//!   (lock-free, so the hot path stays cheap). The engine consults them
//!   through
//!   [`crate::table::ShardedColumn::recommended_algorithm`], which re-walks
//!   the decision tree against the observed workload; switching a running
//!   column to the new recommendation is a future re-indexing PR.
//! * `estimate_distribution` classifies a column's value distribution
//!   from a sample, mirroring the paper's uniform-vs-skewed dichotomy; it
//!   feeds the build-time algorithm choice.

use std::sync::atomic::{AtomicU64, Ordering};

use pi_core::decision::{DataDistribution, QueryShape, Scenario};
use pi_storage::Value;

/// Running per-column workload statistics.
///
/// All counters are relaxed atomics: the executor records queries from many
/// client threads concurrently and exact cross-thread ordering is
/// irrelevant for the aggregate shape of a workload.
#[derive(Debug, Default)]
pub struct WorkloadStats {
    point_queries: AtomicU64,
    range_queries: AtomicU64,
}

impl WorkloadStats {
    /// An empty statistics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one range predicate `[low, high]`.
    ///
    /// Empty predicates (`low > high`) are ignored: they select nothing,
    /// so counting them as "range" queries would drag the observed shape
    /// toward a phantom range workload.
    pub fn record(&self, low: Value, high: Value) {
        if low > high {
            return;
        }
        if low == high {
            self.point_queries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.range_queries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of queries recorded so far.
    pub fn query_count(&self) -> u64 {
        self.point_queries.load(Ordering::Relaxed) + self.range_queries.load(Ordering::Relaxed)
    }

    /// Fraction of recorded queries that were point queries (0 when no
    /// queries have been recorded).
    fn point_fraction(&self) -> f64 {
        let total = self.query_count();
        if total == 0 {
            return 0.0;
        }
        self.point_queries.load(Ordering::Relaxed) as f64 / total as f64
    }

    /// The dominant [`QueryShape`] of the recorded workload.
    ///
    /// The paper's "Point Query" workload block is *dominated* by point
    /// queries, so the threshold is a majority: more than half point
    /// queries → [`QueryShape::Point`]; any recorded queries otherwise →
    /// [`QueryShape::Range`]; nothing recorded → [`QueryShape::Unknown`].
    pub fn query_shape(&self) -> QueryShape {
        if self.query_count() == 0 {
            QueryShape::Unknown
        } else if self.point_fraction() > 0.5 {
            QueryShape::Point
        } else {
            QueryShape::Range
        }
    }

    /// Assembles the decision-tree scenario from the observed shape and
    /// the column's estimated distribution.
    pub fn scenario(&self, distribution: DataDistribution, extra_memory_allowed: bool) -> Scenario {
        Scenario {
            query_shape: self.query_shape(),
            distribution,
            extra_memory_allowed,
        }
    }
}

/// A column is classified skewed when the middle 90% of its sampled
/// values (5th–95th percentile) spans less than this fraction of the full
/// value domain. Uniform data spans ~0.9; the paper's skewed data (90% of
/// mass in 10% of the domain) spans ~0.1 — wherever in the domain the hot
/// region sits.
const SKEW_SPAN_THRESHOLD: f64 = 0.5;

/// Sample size for [`estimate_distribution`].
const DISTRIBUTION_SAMPLE: usize = 4096;

/// Classifies the value distribution of `values` by how tightly the bulk
/// of the data is concentrated: the 5th–95th-percentile span of a sample,
/// relative to the full `[min, max]` domain. Unlike a fixed "middle of
/// the domain" window, this recognises a hot region anywhere — centred,
/// edge-clustered, or Zipf-like.
///
/// Returns [`DataDistribution::Unknown`] for columns too small to judge
/// (fewer than 32 rows) or with a degenerate (single-value) domain.
pub(crate) fn estimate_distribution(values: &[Value]) -> DataDistribution {
    if values.len() < 32 {
        return DataDistribution::Unknown;
    }
    let mut sample = pi_storage::shard::sample_values(values, DISTRIBUTION_SAMPLE);
    sample.sort_unstable();
    let min = sample[0];
    let max = sample[sample.len() - 1];
    if min == max {
        return DataDistribution::Unknown;
    }
    let q05 = sample[sample.len() * 5 / 100];
    let q95 = sample[sample.len() * 95 / 100];
    let bulk_span = (q95 - q05) as f64;
    let full_span = (max - min) as f64;
    if bulk_span / full_span < SKEW_SPAN_THRESHOLD {
        DataDistribution::Skewed
    } else {
        DataDistribution::Uniform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_predicates_are_not_recorded() {
        let stats = WorkloadStats::new();
        stats.record(10, 5);
        assert_eq!(stats.query_count(), 0);
        assert_eq!(stats.query_shape(), QueryShape::Unknown);
    }

    #[test]
    fn shape_starts_unknown_then_follows_majority() {
        let stats = WorkloadStats::new();
        assert_eq!(stats.query_shape(), QueryShape::Unknown);
        stats.record(5, 5);
        stats.record(7, 7);
        stats.record(0, 100);
        assert_eq!(stats.query_shape(), QueryShape::Point);
        stats.record(0, 50);
        stats.record(10, 90);
        assert_eq!(stats.query_shape(), QueryShape::Range);
        assert_eq!(stats.query_count(), 5);
    }

    #[test]
    fn scenario_combines_shape_and_distribution() {
        let stats = WorkloadStats::new();
        stats.record(0, 1_000);
        let s = stats.scenario(DataDistribution::Skewed, true);
        assert_eq!(s.query_shape, QueryShape::Range);
        assert_eq!(s.distribution, DataDistribution::Skewed);
        assert!(s.extra_memory_allowed);
        // Range + skewed → bucketsort, per Figure 11.
        assert_eq!(
            pi_core::decision::recommend(s),
            pi_core::decision::Algorithm::Bucketsort
        );
    }

    #[test]
    fn uniform_data_is_classified_uniform() {
        let values: Vec<Value> = (0..50_000).collect();
        assert_eq!(estimate_distribution(&values), DataDistribution::Uniform);
    }

    #[test]
    fn skewed_data_is_classified_skewed() {
        // 90% of values within the middle tenth of [0, 100_000).
        let mut values: Vec<Value> = Vec::new();
        for i in 0..90_000u64 {
            values.push(47_500 + i % 5_000);
        }
        for i in 0..10_000u64 {
            values.push(i * 10);
        }
        assert_eq!(estimate_distribution(&values), DataDistribution::Skewed);
    }

    #[test]
    fn edge_skewed_data_is_classified_skewed() {
        // 90% of values near the domain *minimum* (Zipf-like keys): a
        // middle-of-the-domain window would miss this entirely.
        let mut values: Vec<Value> = Vec::new();
        for i in 0..90_000u64 {
            values.push(i % 5_000);
        }
        for i in 0..10_000u64 {
            values.push(i * 10);
        }
        assert_eq!(estimate_distribution(&values), DataDistribution::Skewed);
    }

    #[test]
    fn degenerate_columns_stay_unknown() {
        assert_eq!(estimate_distribution(&[1, 2, 3]), DataDistribution::Unknown);
        let constant = vec![7u64; 1_000];
        assert_eq!(estimate_distribution(&constant), DataDistribution::Unknown);
    }
}
