//! Data statistics feeding the Figure-11 decision tree.
//!
//! The paper's decision tree (reproduced by [`pi_core::decision::recommend`])
//! expects a [`pi_core::decision::Scenario`]: the dominant query shape,
//! what is known about the value distribution, and whether out-of-place
//! bucket memory is acceptable. The query shape is a build-time hint
//! ([`crate::AlgorithmChoice::Auto`]); the distribution is observable,
//! and `estimate_distribution` observes it: it classifies a column's value
//! distribution from a sample, mirroring the paper's uniform-vs-skewed
//! dichotomy, and feeds the build-time algorithm choice.

use pi_core::decision::DataDistribution;
use pi_storage::Value;

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
