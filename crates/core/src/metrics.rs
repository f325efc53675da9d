//! Observability hooks for the progressive-index core.
//!
//! The paper's central promise is a *bounded, predictable* per-query
//! indexing cost; [`IndexMetrics`] measures exactly that promise for a
//! live index: how many budgeted refinement steps ran, how many bytes
//! each δ·N slice moved, how many incremental merge steps folded deltas
//! back in, and — most directly — how far the cost model's *predicted*
//! per-query cost sits from the *measured* one.
//!
//! A [`crate::mutation::MutableIndex`] carries an optional
//! `Arc<IndexMetrics>` (see [`crate::mutation::MutableIndex::set_metrics`]);
//! without one, nothing is recorded and nothing is paid. Counters are
//! derived from the [`crate::result::QueryResult`] the index already
//! returns (no clock); the cost-model error histogram needs wall time
//! and is therefore gated on [`pi_obs::ENABLED`] at the call sites.

use std::sync::Arc;
use std::time::Duration;

use pi_obs::{Counter, Histogram, MetricsRegistry};

use crate::result::QueryResult;

/// Bytes per indexed element: the core operates on `u64` values, and
/// `indexing_ops` counts element moves/writes, so bytes ≈ ops × 8.
const BYTES_PER_ELEMENT: u64 = 8;

/// Shared metric handles for one index (or one family of indexes — the
/// engine registers one set per column and shares it across shards, so
/// the counters aggregate a column's total indexing work).
#[derive(Debug)]
pub struct IndexMetrics {
    refine_steps: Arc<Counter>,
    bytes_moved: Arc<Counter>,
    merge_steps: Arc<Counter>,
    cost_error_pm: Arc<Histogram>,
}

impl IndexMetrics {
    /// Registers the metric family `core.<scope>.*` in `registry`
    /// (`scope` is sanitized, so raw column names are fine):
    ///
    /// * `core.<scope>.refine_steps` — budgeted indexing slices executed
    ///   (query side-effect work and explicit maintenance alike).
    /// * `core.<scope>.bytes_moved` — δ·N bytes moved by those slices
    ///   plus incremental merge copying.
    /// * `core.<scope>.merge_steps` — budgeted merge steps folding the
    ///   pending-delta sidecar back into the snapshot.
    /// * `core.<scope>.cost_error_pm` — per-query symmetric relative
    ///   error between the cost model's predicted cost and the measured
    ///   wall time, in per-mille (0 = perfect, 1000 = off by ∞).
    pub fn register(registry: &MetricsRegistry, scope: &str) -> Arc<IndexMetrics> {
        let scope = pi_obs::sanitize_component(scope);
        Arc::new(IndexMetrics {
            refine_steps: registry.counter(&format!("core.{scope}.refine_steps")),
            bytes_moved: registry.counter(&format!("core.{scope}.bytes_moved")),
            merge_steps: registry.counter(&format!("core.{scope}.merge_steps")),
            cost_error_pm: registry.histogram(&format!("core.{scope}.cost_error_pm")),
        })
    }

    /// Accounts one query's (or maintenance slice's) indexing work from
    /// its [`QueryResult`]. Pure counter traffic — always on.
    #[inline]
    pub(crate) fn observe_query(&self, result: &QueryResult) {
        if result.indexing_ops > 0 {
            self.refine_steps.inc();
            self.bytes_moved
                .add(result.indexing_ops * BYTES_PER_ELEMENT);
        }
    }

    /// Accounts one budgeted merge step that appended `elements` to the
    /// merged snapshot.
    #[inline]
    pub(crate) fn observe_merge_step(&self, elements: usize) {
        self.merge_steps.inc();
        self.bytes_moved.add(elements as u64 * BYTES_PER_ELEMENT);
    }

    /// Records the cost model's prediction error for one query:
    /// `|predicted − actual| / max(predicted, actual)` in per-mille, so
    /// the histogram stays in `[0, 1000]` whichever side the model
    /// misses on. Callers gate this on [`pi_obs::ENABLED`] (it needs a
    /// clock); queries without a prediction record nothing.
    #[inline]
    pub(crate) fn observe_cost_error(&self, predicted_seconds: Option<f64>, actual: Duration) {
        let Some(predicted) = predicted_seconds else {
            return;
        };
        let actual = actual.as_secs_f64();
        // `actual` is a finite non-negative Duration, so with a finite
        // prediction the max is never NaN; zero-cost samples carry no
        // error signal.
        let denom = predicted.max(actual);
        if !predicted.is_finite() || denom <= 0.0 {
            return;
        }
        let per_mille = ((predicted - actual).abs() / denom * 1000.0).round() as u64;
        self.cost_error_pm.record(per_mille.min(1000));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Phase;
    use pi_storage::ScanResult;

    fn result_with_ops(ops: u64) -> QueryResult {
        let mut r = QueryResult::answer_only(ScanResult::EMPTY, Phase::Refinement);
        r.indexing_ops = ops;
        r
    }

    #[test]
    fn query_observation_counts_steps_and_bytes() {
        let registry = MetricsRegistry::new();
        let metrics = IndexMetrics::register(&registry, "ra");
        metrics.observe_query(&result_with_ops(100));
        metrics.observe_query(&result_with_ops(0)); // no work: no step
        metrics.observe_query(&result_with_ops(50));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.ra.refine_steps"), Some(2));
        assert_eq!(snap.counter("core.ra.bytes_moved"), Some(150 * 8));
    }

    #[test]
    fn merge_steps_add_bytes() {
        let registry = MetricsRegistry::new();
        let metrics = IndexMetrics::register(&registry, "ra");
        metrics.observe_merge_step(32);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.ra.merge_steps"), Some(1));
        assert_eq!(snap.counter("core.ra.bytes_moved"), Some(32 * 8));
    }

    #[test]
    fn cost_error_is_symmetric_relative_per_mille() {
        let registry = MetricsRegistry::new();
        let metrics = IndexMetrics::register(&registry, "c");
        // Perfect prediction: 0 per-mille.
        metrics.observe_cost_error(Some(1e-3), Duration::from_millis(1));
        // Predicted 2x the actual: |2-1|/2 = 500 per-mille.
        metrics.observe_cost_error(Some(2e-3), Duration::from_millis(1));
        // No prediction: nothing recorded.
        metrics.observe_cost_error(None, Duration::from_millis(1));
        let snap = registry.snapshot();
        let hist = snap.histogram("core.c.cost_error_pm").unwrap();
        assert_eq!(hist.count, 2);
        assert!(hist.quantile(1.0) >= 500);
        assert!(hist.quantile(0.01) <= 1);
    }

    #[test]
    fn scope_names_are_sanitized() {
        let registry = MetricsRegistry::new();
        let metrics = IndexMetrics::register(&registry, "RA.col");
        metrics.observe_merge_step(1);
        assert_eq!(
            registry.snapshot().counter("core.ra_col.merge_steps"),
            Some(1)
        );
    }
}
