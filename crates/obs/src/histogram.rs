//! Log-bucketed latency/size histograms.
//!
//! A [`Histogram`] has [`BUCKETS`] buckets whose upper bounds grow by √2
//! per step (two buckets per octave): bucket 0 holds exact zeros, the
//! geometric range covers `1..=2^34` (about 24 s when values
//! are nanoseconds), and the final bucket absorbs anything larger. The
//! √2 growth bounds the relative error of every quantile read: the
//! reported value is the bucket's upper bound, at most one bucket — a
//! factor of √2, or ×2 at the small-integer end where bounds are
//! consecutive integers — above the true nearest-rank sample, which is
//! "exact enough" for p50/p95/p99/p999 dashboards while keeping record
//! cost at one relaxed atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Number of buckets: one zero bucket, 70 √2-spaced geometric buckets
/// (two per octave), one overflow bucket.
pub(crate) const BUCKETS: usize = 72;

/// Bucket upper bounds, strictly increasing: `[0, 1, 2, 3, 4, 5, 6, 8,
/// 11, 16, 23, 32, ...]` — `round(2^(k/2))` with consecutive-integer
/// fill-in at the small end, `u64::MAX` last.
pub(crate) fn bucket_bounds() -> &'static [u64; BUCKETS] {
    static BOUNDS: OnceLock<[u64; BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = [0u64; BUCKETS];
        let mut prev = 0u64;
        for (i, bound) in bounds.iter_mut().enumerate().take(BUCKETS - 1).skip(1) {
            let geometric = 2f64.powf((i - 1) as f64 / 2.0).round() as u64;
            prev = geometric.max(prev + 1);
            *bound = prev;
        }
        bounds[BUCKETS - 1] = u64::MAX;
        bounds
    })
}

/// Index of the bucket that holds `value`: the first bucket whose upper
/// bound is ≥ `value`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    // The first few buckets hold consecutive integers; answering them
    // without the binary search keeps the common small-value path short.
    if value <= 6 {
        return value as usize;
    }
    bucket_bounds().partition_point(|&bound| bound < value)
}

/// A concurrent log-bucketed histogram. Recording is one relaxed atomic
/// increment; snapshots and quantiles are taken via [`Histogram::snapshot`].
///
/// ```
/// let h = pi_obs::Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 100);
/// let p50 = snap.quantile(0.50);
/// assert!((45..=64).contains(&p50), "√2 bucket containing 50: {p50}");
/// ```
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating far beyond any
    /// realistic latency).
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Takes a point-in-time copy of the bucket counts. Concurrent
    /// recordings may or may not be included.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: counts.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            counts,
        }
    }
}

/// An owned copy of a [`Histogram`]'s state; the quantile surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (for means); saturation-free for < 584
    /// years of cumulative nanoseconds.
    pub sum: u64,
    counts: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            counts: vec![0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`: the upper bound
    /// of the bucket containing the rank-⌈q·n⌉ sample (0 for an empty
    /// histogram). Never below the true sample; at most one √2 bucket
    /// above it. Overflow-bucket reads report twice the last tracked
    /// bound rather than `u64::MAX`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let bounds = bucket_bounds();
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == BUCKETS - 1 {
                    bounds[BUCKETS - 2].saturating_mul(2)
                } else {
                    bounds[i]
                };
            }
        }
        bounds[BUCKETS - 2].saturating_mul(2)
    }

    /// [`Self::quantile`] as a [`Duration`] for nanosecond histograms.
    pub fn quantile_duration(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile(q))
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded values (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The last geometric bound is ≈ 2.4e10, above this value.
    const MAX_TRACKED: u64 = 1 << 34;

    #[test]
    fn bounds_are_strictly_increasing_and_sqrt2_spaced() {
        let bounds = bucket_bounds();
        for i in 1..BUCKETS {
            assert!(bounds[i] > bounds[i - 1], "bounds must strictly increase");
        }
        // Every geometric step is at most a doubling (the "one bucket"
        // error guarantee), and ≈ √2 once past the integer fill-in.
        for i in 2..BUCKETS - 1 {
            assert!(
                bounds[i] <= bounds[i - 1] * 2,
                "step {i} too wide: {} -> {}",
                bounds[i - 1],
                bounds[i]
            );
        }
        let ratio = bounds[60] as f64 / bounds[59] as f64;
        assert!((ratio - std::f64::consts::SQRT_2).abs() < 0.01);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[BUCKETS - 1], u64::MAX);
        assert!(bounds[BUCKETS - 2] >= MAX_TRACKED);
    }

    #[test]
    fn bucket_index_matches_bounds() {
        let bounds = bucket_bounds();
        for v in [0u64, 1, 2, 5, 6, 7, 8, 9, 100, 12345, 1 << 30, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bounds[i], "value {v} above its bucket bound");
            if i > 0 {
                assert!(v > bounds[i - 1], "value {v} not above previous bound");
            }
        }
    }

    #[test]
    fn quantiles_bracket_exact_nearest_rank() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.gen_range(1usize..400);
            let mut samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..5_000_000)).collect();
            let hist = Histogram::new();
            for &s in &samples {
                hist.record(s);
            }
            samples.sort_unstable();
            let snap = hist.snapshot();
            for q in [0.5, 0.95, 0.99, 0.999] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = samples[rank - 1];
                let approx = snap.quantile(q);
                assert!(approx >= exact, "q{q}: {approx} < exact {exact}");
                assert!(
                    approx <= exact.saturating_mul(2).max(6),
                    "q{q}: {approx} more than one bucket above exact {exact}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn overflow_values_are_counted_not_lost() {
        let hist = Histogram::new();
        hist.record(u64::MAX);
        hist.record(MAX_TRACKED * 4);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 2);
        let p = snap.quantile(0.5);
        assert!(p >= MAX_TRACKED, "overflow quantile stays large: {p}");
        assert!(p < u64::MAX, "overflow quantile avoids u64::MAX sentinel");
    }

    #[test]
    fn duration_recording_uses_nanoseconds() {
        let hist = Histogram::new();
        hist.record_duration(Duration::from_micros(3));
        let snap = hist.snapshot();
        let p50 = snap.p50();
        assert!((2_900..=4_096).contains(&p50), "3µs bucket, got {p50}");
    }
}
