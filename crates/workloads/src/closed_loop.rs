//! Closed-loop multi-client load driver.
//!
//! The serving stack (`pi-engine` executor behind a `pi-sched` server) is
//! exercised by C concurrent clients, each submitting its query stream in
//! fixed-size batches and waiting for every batch's results before
//! sending the next — the classic closed-loop model, where offered load
//! adapts to service rate and backpressure shows up as explicit
//! rejections rather than unbounded queueing.
//!
//! The driver is transport-agnostic: it calls a caller-supplied `submit`
//! closure per `(client, batch)` and only counts outcomes, so the same
//! driver measures a raw `Executor`, a `Server` front-end (blocking
//! `submit` or load-shedding `try_submit`), or any future transport,
//! without this crate depending on the engine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pi_obs::{Histogram, HistogramSnapshot};

use crate::multi_client::ClientStream;
use crate::patterns::RangeQuery;

/// Outcome of one submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The batch was executed and its results returned.
    Served,
    /// The batch was shed (e.g. the server reported a full queue and the
    /// client chose not to retry).
    Rejected,
}

/// Per-batch latency percentiles of one closed-loop run, measured from
/// batch submission to batch completion (served batches only). Read out
/// of a [`pi_obs::Histogram`], so each value is a √2 bucket upper bound:
/// never below the exact nearest-rank latency, at most one bucket above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyPercentiles {
    /// Median batch latency.
    pub p50: Duration,
    /// 95th-percentile batch latency.
    pub p95: Duration,
    /// 99th-percentile batch latency — the paper's robustness story at
    /// serving granularity: progressive budgets exist precisely to keep
    /// the tail close to the median.
    pub p99: Duration,
}

impl LatencyPercentiles {
    /// Computes percentiles from raw per-batch latencies (any order) by
    /// folding them through a [`pi_obs::Histogram`] — the same estimator
    /// the serving stack exports, so driver reports and server metrics
    /// agree on what "p99" means. Each reported percentile is the √2
    /// bucket upper bound: never below the exact nearest-rank sample and
    /// at most one bucket above it. Returns all-zero percentiles for an
    /// empty sample.
    pub fn from_samples(samples: Vec<Duration>) -> Self {
        let histogram = Histogram::new();
        for sample in samples {
            histogram.record_duration(sample);
        }
        LatencyPercentiles::from_histogram(&histogram.snapshot())
    }

    /// Reads percentiles out of an already-aggregated histogram snapshot,
    /// e.g. a server-side `*_ns` latency histogram merged across workers.
    pub fn from_histogram(snapshot: &HistogramSnapshot) -> Self {
        LatencyPercentiles {
            p50: snapshot.quantile_duration(0.50),
            p95: snapshot.quantile_duration(0.95),
            p99: snapshot.quantile_duration(0.99),
        }
    }
}

/// Aggregate result of one closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoopReport {
    /// Queries whose batch was served.
    pub served: usize,
    /// Queries whose batch was shed.
    pub rejected: usize,
    /// Wall-clock duration of the whole run (all clients).
    pub elapsed: Duration,
    /// Per-batch latency percentiles over the served batches.
    pub latency: LatencyPercentiles,
}

impl ClosedLoopReport {
    /// Served queries per second of wall-clock time.
    pub fn queries_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.served as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs every client stream to completion, one OS thread per client, each
/// submitting batches of `batch_size` queries back-to-back.
///
/// `submit` is called as `submit(client, batch)` and must block until the
/// batch has been served (closed loop), returning how the batch fared.
///
/// # Panics
/// Panics when `batch_size == 0`.
pub fn drive<F>(streams: &[ClientStream], batch_size: usize, submit: F) -> ClosedLoopReport
where
    F: Fn(usize, &[RangeQuery]) -> BatchOutcome + Sync,
{
    let items: Vec<(usize, &[RangeQuery])> = streams
        .iter()
        .map(|s| (s.client, s.queries.as_slice()))
        .collect();
    drive_items(&items, batch_size, submit)
}

/// The item-generic closed loop behind [`drive`]: each `(client, stream)`
/// pair runs on its own OS thread, submitting `batch_size`-item chunks
/// back to back. Typed key-domain workloads (float or string ranges from
/// [`crate::domains`]) drive the same loop as plain integer range
/// queries.
///
/// # Panics
/// Panics when `batch_size == 0`.
pub fn drive_items<Q, F>(
    streams: &[(usize, &[Q])],
    batch_size: usize,
    submit: F,
) -> ClosedLoopReport
where
    Q: Sync,
    F: Fn(usize, &[Q]) -> BatchOutcome + Sync,
{
    assert!(batch_size > 0, "batch size must be positive");
    let served = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    // One shared concurrent histogram instead of a locked sample buffer:
    // recording is a single relaxed atomic increment, so latency
    // accounting never serialises the clients.
    let latency = Histogram::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for &(client, stream) in streams {
            let submit = &submit;
            let served = &served;
            let rejected = &rejected;
            let latency = &latency;
            scope.spawn(move || {
                for batch in stream.chunks(batch_size) {
                    let submitted = Instant::now();
                    match submit(client, batch) {
                        BatchOutcome::Served => {
                            latency.record_duration(submitted.elapsed());
                            served.fetch_add(batch.len(), Ordering::Relaxed)
                        }
                        BatchOutcome::Rejected => {
                            rejected.fetch_add(batch.len(), Ordering::Relaxed)
                        }
                    };
                }
            });
        }
    });
    ClosedLoopReport {
        served: served.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        latency: LatencyPercentiles::from_histogram(&latency.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_client::{self, MultiClientSpec};

    #[test]
    fn drives_every_query_of_every_client() {
        let streams = multi_client::generate(&MultiClientSpec::mixed(4, 10_000, 25));
        let report = drive(&streams, 10, |_client, _batch| BatchOutcome::Served);
        assert_eq!(report.served, 4 * 25);
        assert_eq!(report.rejected, 0);
        assert!(report.queries_per_second() > 0.0);
    }

    #[test]
    fn rejected_batches_are_counted_separately() {
        let streams = multi_client::generate(&MultiClientSpec::mixed(2, 1_000, 30));
        // Client 0 is always shed, client 1 always served.
        let report = drive(&streams, 10, |client, _batch| {
            if client == 0 {
                BatchOutcome::Rejected
            } else {
                BatchOutcome::Served
            }
        });
        assert_eq!(report.served, 30);
        assert_eq!(report.rejected, 30);
    }

    #[test]
    fn trailing_partial_batch_is_submitted() {
        let streams = multi_client::generate(&MultiClientSpec::mixed(1, 1_000, 25));
        let sizes = std::sync::Mutex::new(Vec::new());
        drive(&streams, 10, |_c, batch| {
            sizes.lock().unwrap().push(batch.len());
            BatchOutcome::Served
        });
        assert_eq!(*sizes.lock().unwrap(), vec![10, 10, 5]);
    }

    #[test]
    fn drive_items_accepts_typed_streams() {
        let a: Vec<(f64, f64)> = (0..25).map(|i| (i as f64, i as f64 + 1.0)).collect();
        let b: Vec<(f64, f64)> = (0..15).map(|i| (-(i as f64), i as f64)).collect();
        let streams = [(0usize, a.as_slice()), (1, b.as_slice())];
        let report = drive_items(&streams, 10, |_client, batch: &[(f64, f64)]| {
            assert!(!batch.is_empty() && batch.len() <= 10);
            BatchOutcome::Served
        });
        assert_eq!(report.served, 40);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = drive(&[], 0, |_c, _b| BatchOutcome::Served);
    }

    #[test]
    fn latency_percentiles_are_ordered_and_populated() {
        let streams = multi_client::generate(&MultiClientSpec::mixed(2, 1_000, 40));
        let report = drive(&streams, 10, |_c, _b| {
            std::hint::black_box((0..2_000u64).sum::<u64>());
            BatchOutcome::Served
        });
        let l = report.latency;
        assert!(l.p50 > Duration::ZERO, "p50 must be measured");
        assert!(
            l.p50 <= l.p95 && l.p95 <= l.p99,
            "percentiles must be ordered"
        );
    }

    /// `[exact, 2·exact]`: a histogram quantile is the √2-bucket upper
    /// bound, never below the exact nearest-rank sample and at most one
    /// bucket (≤ ×2) above it.
    fn within_one_bucket(approx: Duration, exact: Duration) {
        assert!(approx >= exact, "{approx:?} below exact {exact:?}");
        assert!(
            approx.as_nanos() <= (exact.as_nanos() * 2).max(6),
            "{approx:?} more than one bucket above exact {exact:?}"
        );
    }

    #[test]
    fn percentiles_from_known_samples() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let l = LatencyPercentiles::from_samples(samples);
        within_one_bucket(l.p50, Duration::from_micros(50));
        within_one_bucket(l.p95, Duration::from_micros(95));
        within_one_bucket(l.p99, Duration::from_micros(99));
        assert_eq!(
            LatencyPercentiles::from_samples(Vec::new()),
            LatencyPercentiles::default()
        );
        let single = LatencyPercentiles::from_samples(vec![Duration::from_millis(3)]);
        within_one_bucket(single.p50, Duration::from_millis(3));
        within_one_bucket(single.p99, Duration::from_millis(3));
    }

    #[test]
    fn percentiles_track_exact_sort_within_one_bucket() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(1usize..500);
            let samples: Vec<Duration> = (0..n)
                .map(|_| Duration::from_nanos(rng.gen_range(1u64..50_000_000)))
                .collect();
            let approx = LatencyPercentiles::from_samples(samples.clone());
            let mut sorted = samples;
            sorted.sort_unstable();
            let exact_at = |p: f64| {
                let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1]
            };
            within_one_bucket(approx.p50, exact_at(0.50));
            within_one_bucket(approx.p95, exact_at(0.95));
            within_one_bucket(approx.p99, exact_at(0.99));
        }
    }

    #[test]
    fn rejected_batches_do_not_contribute_latency() {
        let streams = multi_client::generate(&MultiClientSpec::mixed(1, 1_000, 20));
        let report = drive(&streams, 10, |_c, _b| BatchOutcome::Rejected);
        assert_eq!(report.latency, LatencyPercentiles::default());
        assert_eq!(report.served, 0);
    }
}
