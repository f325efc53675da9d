//! # pi-obs — zero-cost metrics, latency histograms and convergence tracing
//!
//! The paper's whole argument (Holanda et al., PVLDB 12(13), 2019) is
//! about controlling *per-query* indexing overhead against a cost model,
//! so the serving stack built on top of it needs to observe exactly that:
//! where batch time goes, how far every shard is from convergence, and
//! how well the cost model's predictions track reality. This crate is the
//! measurement layer the rest of the workspace records into. The build
//! environment is offline, so instead of depending on `tracing` /
//! `prometheus` / `hdrhistogram` it vendors the minimal primitives,
//! shim-style:
//!
//! * [`Counter`] / [`Gauge`] — lock-free. Counters stripe their value
//!   across per-thread cache-line-aligned atomic lanes so concurrent
//!   writers never share a cache line; reads aggregate the lanes.
//! * [`Histogram`] — log-bucketed latency/size histogram: ~64 buckets
//!   whose bounds grow by √2 per step (two buckets per octave), covering
//!   1 ns … ≈ 24 s plus an overflow bucket. Quantile reads
//!   ([`HistogramSnapshot::quantile`]) are exact-enough p50/p95/p99/p999:
//!   the reported value is the bucket upper bound, at most one bucket
//!   (× √2, × 2 at the small-integer end) above the true nearest-rank
//!   sample.
//! * [`MetricsRegistry`] — name → handle map with get-or-register typed
//!   accessors, and
//!   [`MetricsRegistry::snapshot`] producing a [`MetricsSnapshot`], an
//!   owned copy that tests, examples and dashboards read by name.
//! * [`ScopeTimer`] — the timed scope, **feature gated**: with the `obs`
//!   cargo feature off, [`ENABLED`] is a `false` constant, the timer
//!   carries no clock and the branch folds away at compile time. No `Instant::now` syscalls, no histogram
//!   traffic, nothing to mispredict — the zero-cost path is guarded by
//!   tests in this crate.
//!
//! ## Gating policy
//!
//! Structural counters and gauges (jobs executed, batches rejected,
//! queue depth, convergence ρ) are always live: they are single relaxed
//! atomic operations, the same cost class as the scheduler's own
//! `PoolStats`, and serving-layer APIs (`ServerStats`) are fed from
//! them. Anything that needs a *clock* — per-phase batch timing, queue
//! wait, ticket latency, cost-model error — goes through [`ScopeTimer`]
//! or `if pi_obs::ENABLED { .. }` and vanishes when the feature is off.
//!
//! ```
//! use pi_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let batches = registry.counter("executor.batches");
//! let latency = registry.histogram("executor.batch_ns");
//!
//! batches.add(1);
//! {
//!     let _timer = pi_obs::ScopeTimer::new(&latency);
//!     assert_eq!((0..1000u64).sum::<u64>(), 499_500);
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("executor.batches"), Some(1));
//! let timed = snap.histogram("executor.batch_ns").unwrap().count;
//! assert_eq!(timed, u64::from(pi_obs::ENABLED));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod counter;
mod histogram;
mod registry;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{sanitize_component, MetricsRegistry, MetricsSnapshot};

/// Compile-time master switch for time measurement, mirroring the `obs`
/// cargo feature. `if pi_obs::ENABLED { .. }` is the canonical guard for
/// instrumentation that needs a clock: the constant folds, so with the
/// feature off the guarded code is removed entirely by the compiler.
pub const ENABLED: bool = cfg!(feature = "obs");

/// A drop-guard timed scope, which also times code with early returns or
/// multiple exit paths. Records the elapsed time into the histogram when
/// dropped; feature-gated (when `obs` is off, construction and drop are
/// no-ops and the struct carries no clock).
///
/// ```
/// let registry = pi_obs::MetricsRegistry::new();
/// let hist = registry.histogram("scope_ns");
/// {
///     let _scope = pi_obs::ScopeTimer::new(&hist);
///     // ... work with early returns ...
/// }
/// if pi_obs::ENABLED {
///     assert_eq!(registry.snapshot().histogram("scope_ns").unwrap().count, 1);
/// }
/// ```
pub struct ScopeTimer<'a> {
    target: Option<(&'a Histogram, std::time::Instant)>,
}

impl<'a> ScopeTimer<'a> {
    /// Starts a timed scope over `histogram`. No-op when [`ENABLED`] is
    /// false.
    #[inline]
    pub fn new(histogram: &'a Histogram) -> Self {
        ScopeTimer {
            target: if ENABLED {
                Some((histogram, std::time::Instant::now()))
            } else {
                None
            },
        }
    }
}

impl Drop for ScopeTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((hist, start)) = self.target.take() {
            hist.record_duration(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_mirrors_feature() {
        assert_eq!(ENABLED, cfg!(feature = "obs"));
    }

    #[test]
    fn scope_timer_records_on_drop() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("scope");
        {
            let _s = ScopeTimer::new(&hist);
        }
        let count = registry.snapshot().histogram("scope").unwrap().count;
        assert_eq!(count, u64::from(ENABLED), "drop records once");
    }

    /// The overhead guard for the zero-cost claim: a million timed scopes
    /// around trivial work must cost nanoseconds each, not microseconds.
    /// With `obs` off the loop is the bare sum (the timer carries no clock);
    /// with it on, the bound still holds comfortably on any machine that
    /// can run the test suite (two `Instant::now` calls + one relaxed
    /// atomic add per iteration). The generous ceiling keeps the test
    /// robust under CI noise while still catching accidental locks,
    /// allocation or syscalls on the timed path.
    #[test]
    fn timed_overhead_is_bounded() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("overhead");
        const ITERS: u64 = 1_000_000;
        let start = std::time::Instant::now();
        let mut acc = 0u64;
        for i in 0..ITERS {
            let _timer = ScopeTimer::new(&hist);
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        let elapsed = start.elapsed();
        std::hint::black_box(acc);
        let per_op_ns = elapsed.as_nanos() as f64 / ITERS as f64;
        assert!(
            per_op_ns < 5_000.0,
            "ScopeTimer must stay lightweight: {per_op_ns:.0} ns/op"
        );
        if !ENABLED {
            assert_eq!(
                registry.snapshot().histogram("overhead").unwrap().count,
                0,
                "obs off: ScopeTimer must not record"
            );
        }
    }
}
