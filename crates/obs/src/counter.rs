//! Lock-free counters and gauges.
//!
//! [`Counter`] is write-heavy by design — the executor bumps it on every
//! batch, every worker on every pop — so its value is striped across
//! per-thread [`CachePadded`] atomic lanes: concurrent writers land on
//! distinct cache lines and never bounce a shared line between cores.
//! Reads ([`Counter::get`]) sum the lanes; they are monotone but not a
//! linearizable snapshot, which is exactly the contract a monitoring
//! counter needs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Pads and aligns a value to 128 bytes so neighbouring values never
/// share a cache line (128 covers the adjacent-line prefetcher on x86_64
/// as well as aarch64's 128-byte lines, the same choice crossbeam makes).
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned cell.
    pub(crate) const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Number of write lanes per counter. A power of two so lane selection
/// is a mask; 16 lanes cover typical worker-pool widths — beyond that,
/// threads share lanes, which is correct (atomic) and still spreads the
/// traffic 16 ways.
const LANES: usize = 16;

/// Process-wide source of thread lane ids: each thread draws one id the
/// first time it touches any counter and keeps it for life, so a given
/// thread always hits the same lane of every counter (good locality) and
/// threads are spread round-robin across lanes.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_LANE: usize = NEXT_LANE.fetch_add(1, Ordering::Relaxed) % LANES;
}

#[inline]
fn thread_lane() -> usize {
    THREAD_LANE.with(|lane| *lane)
}

/// A monotone, lock-free, write-striped counter.
///
/// ```
/// let c = pi_obs::MetricsRegistry::new().counter("c");
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug)]
pub struct Counter {
    lanes: Box<[CachePadded<AtomicU64>; LANES]>,
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl Counter {
    /// Creates a zeroed counter.
    pub(crate) fn new() -> Self {
        Counter {
            lanes: Box::new(std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0)))),
        }
    }

    /// Adds `n` to the calling thread's lane.
    #[inline]
    pub fn add(&self, n: u64) {
        self.lanes[thread_lane()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sums the lanes. Monotone across calls, but concurrent writers may
    /// or may not be included — a monitoring read, not a barrier.
    pub fn get(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins gauge holding an `f64` (Prometheus's gauge domain):
/// queue depths, convergence fractions ρ, cache ratios. Stored as bits
/// in one atomic — gauges are set rarely relative to counter traffic, so
/// striping would only slow the read side down.
///
/// ```
/// let g = pi_obs::MetricsRegistry::new().gauge("g");
/// assert_eq!(g.get(), 0.0);
/// g.set(0.75);
/// assert_eq!(g.get(), 0.75);
/// g.set_u64(9);
/// assert_eq!(g.get(), 9.0);
/// ```
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge. Non-finite values are recorded as `0.0` so JSON
    /// export never has to emit `NaN`/`inf`.
    #[inline]
    pub fn set(&self, value: f64) {
        let clean = if value.is_finite() { value } else { 0.0 };
        self.bits.store(clean.to_bits(), Ordering::Relaxed);
    }

    /// Sets the gauge from an integer (queue depths, batch counts).
    #[inline]
    pub fn set_u64(&self, value: u64) {
        self.set(value as f64);
    }

    /// Reads the gauge.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_accumulates_across_threads() {
        let counter = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), threads * per_thread);
    }

    #[test]
    fn counter_add_sums_lanes() {
        let counter = Counter::new();
        counter.add(3);
        counter.add(4);
        assert_eq!(counter.get(), 7);
    }

    #[test]
    fn gauge_is_last_write_wins_and_sanitizes() {
        let gauge = Gauge::default();
        assert_eq!(gauge.get(), 0.0);
        gauge.set(0.25);
        gauge.set(0.5);
        assert_eq!(gauge.get(), 0.5);
        gauge.set(f64::NAN);
        assert_eq!(gauge.get(), 0.0, "non-finite values sanitize to zero");
        gauge.set(f64::INFINITY);
        assert_eq!(gauge.get(), 0.0);
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 128);
    }
}
