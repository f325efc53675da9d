//! The eight synthetic query-workload patterns of Figure 6 (originally
//! introduced by Halim et al. for stochastic cracking).
//!
//! A workload is a sequence of inclusive range predicates
//! `WHERE a BETWEEN low AND high` over a value domain `[0, domain)`. The
//! patterns differ in how the query *position* moves over the domain:
//!
//! | Pattern | Movement of the queried region |
//! |---|---|
//! | [`Pattern::Random`]     | uniformly random |
//! | [`Pattern::SeqOver`]    | sequential sweep from low to high values |
//! | [`Pattern::Skew`]       | concentrated around the centre of the domain |
//! | [`Pattern::Periodic`]   | fixed large stride, cycling through the domain |
//! | [`Pattern::ZoomIn`]     | nested ranges shrinking towards the centre |
//! | [`Pattern::ZoomOutAlt`] | alternating around the centre, moving outward |
//! | [`Pattern::SeqZoomIn`]  | zoom-in repeated per consecutive segment |
//! | [`Pattern::ZoomInAlt`]  | alternating from the two ends, moving inward |
//!
//! All patterns except [`Pattern::ZoomIn`] and [`Pattern::SeqZoomIn`] use a
//! fixed selectivity (the paper uses 10%); the zooming patterns derive
//! their range widths from the zoom progression itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::Value;

/// One inclusive range predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeQuery {
    /// Lower bound (inclusive).
    pub low: Value,
    /// Upper bound (inclusive).
    pub high: Value,
}

impl RangeQuery {
    /// Creates a query, normalising a reversed pair.
    pub fn new(low: Value, high: Value) -> Self {
        if low <= high {
            RangeQuery { low, high }
        } else {
            RangeQuery {
                low: high,
                high: low,
            }
        }
    }
}

/// The eight synthetic workload patterns of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Sequential sweep across the domain ("SeqOver").
    SeqOver,
    /// Alternating around the centre, moving outward ("ZoomOutAlt").
    ZoomOutAlt,
    /// Queries concentrated around the centre of the domain ("Skew").
    Skew,
    /// Uniformly random positions ("Random").
    Random,
    /// Zoom-in repeated per consecutive segment ("SeqZoomIn").
    SeqZoomIn,
    /// Fixed-stride cycling positions ("Periodic").
    Periodic,
    /// Alternating from the two ends, moving inward ("ZoomInAlt").
    ZoomInAlt,
    /// Nested ranges shrinking towards the centre ("ZoomIn").
    ZoomIn,
}

impl Pattern {
    /// All eight patterns, in the row order of the paper's tables.
    pub const ALL: [Pattern; 8] = [
        Pattern::SeqOver,
        Pattern::ZoomOutAlt,
        Pattern::Skew,
        Pattern::Random,
        Pattern::SeqZoomIn,
        Pattern::Periodic,
        Pattern::ZoomInAlt,
        Pattern::ZoomIn,
    ];

    /// The six patterns the paper's "Point Query" experiment block uses
    /// (the zooming patterns have no point-query analogue because their
    /// widths are part of the pattern).
    pub const POINT_QUERY_PATTERNS: [Pattern; 6] = [
        Pattern::SeqOver,
        Pattern::ZoomOutAlt,
        Pattern::Skew,
        Pattern::Random,
        Pattern::Periodic,
        Pattern::ZoomInAlt,
    ];

    /// Short label used in experiment output (matches the paper's tables).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Pattern::SeqOver => "SeqOver",
            Pattern::ZoomOutAlt => "ZoomOutAlt",
            Pattern::Skew => "Skew",
            Pattern::Random => "Random",
            Pattern::SeqZoomIn => "SeqZoomIn",
            Pattern::Periodic => "Periodic",
            Pattern::ZoomInAlt => "ZoomInAlt",
            Pattern::ZoomIn => "ZoomIn",
        }
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Value domain `[0, domain)` the queries are drawn over.
    pub domain: u64,
    /// Number of queries to generate.
    pub query_count: usize,
    /// Fraction of the domain each range query covers (ignored by the
    /// zooming patterns and by point queries). The paper uses `0.1`.
    pub selectivity: f64,
    /// Generate point queries (`low == high`) instead of range queries.
    pub point_queries: bool,
    /// RNG seed for the stochastic patterns.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's default synthetic setting: 10% selectivity range
    /// queries.
    pub fn range(domain: u64, query_count: usize) -> Self {
        WorkloadSpec {
            domain,
            query_count,
            selectivity: 0.1,
            point_queries: false,
            seed: 0xF16,
        }
    }

    /// Point-query variant of the same workload.
    pub fn point(domain: u64, query_count: usize) -> Self {
        WorkloadSpec {
            point_queries: true,
            ..Self::range(domain, query_count)
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn width(&self) -> u64 {
        if self.point_queries {
            1
        } else {
            ((self.domain as f64 * self.selectivity) as u64).clamp(1, self.domain.max(1))
        }
    }
}

/// Generates the query sequence for `pattern` under `spec`.
pub fn generate(pattern: Pattern, spec: &WorkloadSpec) -> Vec<RangeQuery> {
    assert!(spec.domain > 0, "domain must be non-empty");
    let width = spec.width();
    let max_low = spec.domain.saturating_sub(width);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let count = spec.query_count;
    let mut queries = Vec::with_capacity(count);

    let clamp_query = |low: u64| -> RangeQuery {
        let low = low.min(max_low);
        RangeQuery::new(low, low + width - 1)
    };

    match pattern {
        Pattern::Random => {
            for _ in 0..count {
                queries.push(clamp_query(rng.gen_range(0..=max_low)));
            }
        }
        Pattern::SeqOver => {
            // March from the low end to the high end of the domain once,
            // in equal steps; restart when the sweep completes.
            let sweep_len = count.max(1) as u64;
            let step = (max_low / sweep_len).max(1);
            for i in 0..count {
                let low = (i as u64 * step) % (max_low + 1);
                queries.push(clamp_query(low));
            }
        }
        Pattern::Skew => {
            // 90% of the queries hit a narrow hot region around the centre
            // of the domain, 10% are uniform background queries.
            let hot_span = (spec.domain / 20).max(1);
            let hot_start = (spec.domain / 2).saturating_sub(hot_span / 2);
            for _ in 0..count {
                let low = if rng.gen::<f64>() < 0.9 {
                    hot_start + rng.gen_range(0..hot_span)
                } else {
                    rng.gen_range(0..=max_low)
                };
                queries.push(clamp_query(low));
            }
        }
        Pattern::Periodic => {
            // Fixed stride that is deliberately not a divisor of the
            // domain, so consecutive sweeps visit different positions.
            let stride = (spec.domain / 10).max(1) | 1;
            for i in 0..count {
                let low = (i as u64).wrapping_mul(stride) % (max_low + 1);
                queries.push(clamp_query(low));
            }
        }
        Pattern::ZoomIn => {
            // Nested ranges: start with (almost) the whole domain and
            // shrink towards the centre with every query.
            let center = spec.domain / 2;
            let mut half = spec.domain / 2;
            let min_half = width.max(1) / 2 + 1;
            let shrink = ((spec.domain / 2).saturating_sub(min_half) / count.max(1) as u64).max(1);
            for _ in 0..count {
                let low = center.saturating_sub(half);
                let high = (center + half).min(spec.domain - 1);
                queries.push(RangeQuery::new(low, high));
                half = half.saturating_sub(shrink).max(min_half);
            }
        }
        Pattern::SeqZoomIn => {
            // Divide the domain into segments and run a shorter zoom-in
            // inside each segment in turn.
            let segments: u64 = 10;
            let seg_span = (spec.domain / segments).max(1);
            let per_segment = (count as u64 / segments).max(1);
            for i in 0..count {
                let seg = (i as u64 / per_segment) % segments;
                let step_in_seg = i as u64 % per_segment;
                let seg_start = seg * seg_span;
                let center = seg_start + seg_span / 2;
                let min_half = 1u64;
                let max_half = seg_span / 2;
                let shrink = (max_half.saturating_sub(min_half) / per_segment).max(1);
                let half = max_half.saturating_sub(step_in_seg * shrink).max(min_half);
                let low = center.saturating_sub(half);
                let high = (center + half).min(spec.domain - 1);
                queries.push(RangeQuery::new(low, high));
            }
        }
        Pattern::ZoomOutAlt => {
            // Start at the centre and alternate left/right, moving outward.
            let center = spec.domain / 2;
            let step = (spec.domain / 2 / count.max(1) as u64).max(1);
            for i in 0..count {
                let offset = (i as u64 / 2 + 1) * step;
                let low = if i % 2 == 0 {
                    center.saturating_sub(offset)
                } else {
                    (center + offset).min(max_low)
                };
                queries.push(clamp_query(low));
            }
        }
        Pattern::ZoomInAlt => {
            // Alternate between the two ends of the domain, moving inward.
            let step = (spec.domain / 2 / count.max(1) as u64).max(1);
            for i in 0..count {
                let offset = (i as u64 / 2) * step;
                let low = if i % 2 == 0 {
                    offset
                } else {
                    max_low.saturating_sub(offset)
                };
                queries.push(clamp_query(low));
            }
        }
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RangeQuery {
        /// `true` when the query selects a single value.
        fn is_point(&self) -> bool {
            self.low == self.high
        }

        /// Width of the selected value range (number of selectable values).
        fn width(&self) -> u64 {
            self.high - self.low + 1
        }
    }

    impl WorkloadSpec {
        /// Sets the selectivity (builder style).
        ///
        /// # Panics
        /// Panics when `selectivity` is not in `(0, 1]`.
        fn with_selectivity(mut self, selectivity: f64) -> Self {
            assert!(
                selectivity > 0.0 && selectivity <= 1.0,
                "selectivity must lie in (0, 1], got {selectivity}"
            );
            self.selectivity = selectivity;
            self
        }
    }

    /// Every pattern of [`Pattern::ALL`] under the same spec.
    fn generate_all(spec: &WorkloadSpec) -> Vec<(Pattern, Vec<RangeQuery>)> {
        Pattern::ALL
            .iter()
            .map(|&p| (p, generate(p, spec)))
            .collect()
    }

    const DOMAIN: u64 = 1_000_000;

    fn spec(count: usize) -> WorkloadSpec {
        WorkloadSpec::range(DOMAIN, count)
    }

    #[test]
    fn all_patterns_generate_requested_count_within_domain() {
        for (pattern, queries) in generate_all(&spec(500)) {
            assert_eq!(queries.len(), 500, "{pattern}");
            for q in &queries {
                assert!(q.low <= q.high, "{pattern}: {q:?}");
                assert!(q.high < DOMAIN, "{pattern}: {q:?}");
            }
        }
    }

    #[test]
    fn fixed_selectivity_patterns_have_constant_width() {
        for pattern in [
            Pattern::Random,
            Pattern::SeqOver,
            Pattern::Skew,
            Pattern::Periodic,
            Pattern::ZoomOutAlt,
            Pattern::ZoomInAlt,
        ] {
            let queries = generate(pattern, &spec(100));
            let width = queries[0].width();
            assert!(
                queries.iter().all(|q| q.width() == width),
                "{pattern} should have constant width"
            );
            let expected = (DOMAIN as f64 * 0.1) as u64;
            assert_eq!(width, expected, "{pattern}");
        }
    }

    #[test]
    fn zoom_in_ranges_are_nested_and_shrinking() {
        let queries = generate(Pattern::ZoomIn, &spec(100));
        for pair in queries.windows(2) {
            assert!(pair[1].low >= pair[0].low);
            assert!(pair[1].high <= pair[0].high);
            assert!(pair[1].width() <= pair[0].width());
        }
    }

    #[test]
    fn seq_over_is_monotonically_increasing_within_a_sweep() {
        let queries = generate(Pattern::SeqOver, &spec(200));
        for pair in queries.windows(2) {
            assert!(pair[1].low >= pair[0].low, "{pair:?}");
        }
    }

    #[test]
    fn zoom_in_alt_alternates_between_the_ends() {
        let queries = generate(Pattern::ZoomInAlt, &spec(10));
        assert!(queries[0].low < DOMAIN / 2);
        assert!(queries[1].high > DOMAIN / 2);
        assert!(queries[2].low >= queries[0].low);
        assert!(queries[3].high <= queries[1].high);
    }

    #[test]
    fn skew_pattern_concentrates_queries_near_the_centre() {
        let queries = generate(Pattern::Skew, &spec(1_000));
        let near_center = queries
            .iter()
            .filter(|q| {
                let mid = q.low + q.width() / 2;
                mid > DOMAIN * 4 / 10 && mid < DOMAIN * 6 / 10
            })
            .count();
        assert!(near_center as f64 > 0.8 * queries.len() as f64);
    }

    #[test]
    fn point_query_specs_produce_point_queries() {
        for pattern in Pattern::POINT_QUERY_PATTERNS {
            let queries = generate(pattern, &WorkloadSpec::point(DOMAIN, 100));
            assert!(queries.iter().all(RangeQuery::is_point), "{pattern}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(Pattern::Random, &spec(100).with_seed(5));
        let b = generate(Pattern::Random, &spec(100).with_seed(5));
        let c = generate(Pattern::Random, &spec(100).with_seed(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_query_helpers() {
        let q = RangeQuery::new(10, 5);
        assert_eq!(q, RangeQuery { low: 5, high: 10 });
        assert_eq!(q.width(), 6);
        assert!(!q.is_point());
        assert!(RangeQuery::new(3, 3).is_point());
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn invalid_selectivity_rejected() {
        let _ = spec(10).with_selectivity(0.0);
    }
}
