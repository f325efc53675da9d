//! The metrics registry: named handles and structured snapshots.
//!
//! A [`MetricsRegistry`] maps dotted metric names to shared handles.
//! Registration is get-or-create (two components asking for
//! `"server.accepted"` share one counter) and happens once per handle at
//! component construction time; the hot path only touches the returned
//! `Arc`s. [`MetricsRegistry::snapshot`] walks all three maps under read
//! locks and produces an owned [`MetricsSnapshot`] — the unit of
//! programmatic inspection in tests, benches and dashboards.
//!
//! ## Naming scheme
//!
//! `layer.subsystem.metric[.qualifier]`, lowercase, `[a-z0-9_.]`:
//! `sched.pool.jobs`, `server.queue_wait_ns`, `executor.phase.scan_ns`,
//! `engine.rho.<column>.<shard>`, `core.<column>.cost_error_pm`.
//! Nanosecond histograms end in `_ns`, per-mille histograms in `_pm`.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};

/// Sanitizes one component of a dotted metric name: ASCII letters are
/// lowercased, digits and `_` pass through, everything else (including
/// `.`, so a component cannot fabricate hierarchy) becomes `_`. Used
/// when embedding user-supplied identifiers — column names, worker ids —
/// into metric names.
///
/// ```
/// assert_eq!(pi_obs::sanitize_component("RA (J2000)"), "ra__j2000_");
/// assert_eq!(pi_obs::sanitize_component("dec"), "dec");
/// ```
pub fn sanitize_component(raw: &str) -> String {
    raw.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

/// A process-local registry of named counters, gauges and histograms.
///
/// Components record into the registry they are built with: one
/// registry passed down a whole serving stack lands in one snapshot, and
/// tests that need isolation construct their own with
/// [`MetricsRegistry::new`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Get-or-create `name` in one of the three maps.
fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    debug_assert!(
        name.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.'),
        "metric names are lowercase dotted identifiers, got {name:?}"
    );
    if let Some(found) = map.read().expect("metrics map poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut writer = map.write().expect("metrics map poisoned");
    Arc::clone(
        writer
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(T::default())),
    )
}

impl MetricsRegistry {
    /// Creates an empty, isolated registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Returns the gauge `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Returns the histogram `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Takes a point-in-time copy of every registered metric. Counters
    /// and histograms are individually consistent (lane sums / bucket
    /// loads); the snapshot as a whole is a monitoring read, not a
    /// cross-metric barrier.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("metrics map poisoned")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics map poisoned")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics map poisoned")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// An owned, structured copy of a registry's state at one point in time.
/// Maps are sorted by metric name (BTree order), so walks over them are
/// deterministic given the same values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// All gauges whose name starts with `prefix`, in name order — how
    /// dashboards collect per-shard families like `engine.rho.<column>.*`.
    pub fn gauges_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.gauges
            .range(prefix.to_string()..)
            .take_while(move |(name, _)| name.starts_with(prefix))
            .map(|(name, &v)| (name.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x.hits");
        let b = registry.counter("x.hits");
        a.add(2);
        b.add(3);
        assert_eq!(registry.snapshot().counter("x.hits"), Some(5));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_covers_all_three_kinds() {
        let registry = MetricsRegistry::new();
        registry.counter("c").add(1);
        registry.gauge("g").set(0.5);
        registry.histogram("h").record(100);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), Some(1));
        assert_eq!(snap.gauge("g"), Some(0.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn prefix_queries_walk_families() {
        let registry = MetricsRegistry::new();
        registry.gauge("engine.rho.ra.0").set(0.25);
        registry.gauge("engine.rho.ra.1").set(0.75);
        registry.gauge("engine.rho.dec.0").set(1.0);
        registry.gauge("other").set(9.0);
        let snap = registry.snapshot();
        let ra: Vec<_> = snap.gauges_with_prefix("engine.rho.ra.").collect();
        assert_eq!(
            ra,
            vec![("engine.rho.ra.0", 0.25), ("engine.rho.ra.1", 0.75)]
        );
        assert_eq!(snap.gauges_with_prefix("engine.rho.").count(), 3);
    }

    #[test]
    fn registry_is_usable_across_threads() {
        let registry = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let c = registry.counter("threads.hits");
                    let h = registry.histogram("threads.lat_ns");
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("threads.hits"), Some(4000));
        assert_eq!(snap.histogram("threads.lat_ns").unwrap().count, 4000);
    }
}
