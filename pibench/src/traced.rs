//! The traced run: the workload once more with a shared
//! `MetricsRegistry` attached to every layer that takes one and the
//! benchmark recording a span around each call into a layer, then the layer
//! peel and the probes. Every per-layer metric comes from here; end-to-end
//! metrics never do.

use std::sync::Arc;
use std::time::Instant;

use pi_obs::{MetricsRegistry, MetricsSnapshot};

use crate::estimators::{high, low, spread};
use crate::lifecycle::{
    build_timed, cold_rep, driver_stats, full_cold_rep, hot_segment, Plan, Tally, Workload,
    SEGMENTS_PER_ROUND,
};
use crate::probes::{counter, Layers};
use crate::trace::Recorder;
use crate::workloads::Scale;
use crate::{peel, probes};

/// Room for the cold stream's spans, one round of the peel and a few hot
/// segments; what does not fit is counted in the span file as dropped.
const SPAN_CAPACITY: usize = 200_000;

pub struct Traced {
    pub layers: Layers,
    pub tally: Tally,
    pub spans: Recorder,
}

pub fn run<W: Workload>(w: &W, plan: &Plan, seed: u64, scale: Scale) -> Traced {
    let registry = Arc::new(MetricsRegistry::new());
    let mut rec = Recorder::on(SPAN_CAPACITY);
    let mut off = Recorder::off();
    let mut tally = Tally::default();
    let mut out = Layers::new();
    let mut build_s = Vec::new();
    // From here on the heap is the program's and the op streams'; the
    // oracle's scratch memory is gone.
    crate::heap::reset_peak();

    // The cold stream, once traced and then untraced for as long as a
    // third of the run allows: how far one raw repetition sits above the
    // denoised curve says how disturbed the box was.
    let (rep, instance) = cold_rep(w, w.cold_len(), Some(&registry), &mut rec, &mut tally);
    build_s.push(rep.setup_s);
    out.insert("driver.ops_to_last_shard", rep.ops_to_last_shard as f64);
    w.end_cold(instance, &mut rec, &mut tally);
    let mut cold = Vec::new();
    let started = Instant::now();
    while cold.len() < plan.min_rounds || started.elapsed() < plan.measure / 3 {
        cold.push(full_cold_rep(w, None, &mut off, &mut tally).latencies);
    }

    peel::run(w.peel_input(), &mut rec, &mut tally, &mut out);

    // The hot segment on two converged instances, one traced and one not,
    // replaying it in turn: the gap is the tracing overhead.
    let (_, mut instance) = build_timed(w, None);
    w.converge(&mut instance);
    let mut plain = w.warm(instance, None);
    let (setup_s, mut instance) = build_timed(w, Some(&registry));
    build_s.push(setup_s);
    w.converge(&mut instance);
    let mut traced = w.warm(instance, Some(&registry));
    let (mut plain_segments, mut traced_segments) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain_segments.len() < SEGMENTS_PER_ROUND || started.elapsed() < plan.measure / 3 {
        plain_segments.push(hot_segment(w, &mut plain, &mut off, &mut tally));
        traced_segments.push(hot_segment(w, &mut traced, &mut rec, &mut tally));
    }
    drop((plain, traced));

    probes::run_all(seed, scale, &mut tally, &mut out);

    let rate = |segments: &[crate::lifecycle::Segment]| {
        high(&segments.iter().map(|s| s.ops_per_s).collect::<Vec<_>>())
    };
    out.insert(
        "obs.trace_overhead_share",
        1.0 - rate(&traced_segments) / rate(&plain_segments),
    );
    let stats = driver_stats(&cold, &plain_segments);
    out.insert("driver.hot_op_p99_us", stats.hot_op_p99_us);
    out.insert("driver.cold_noise_ratio", stats.cold_noise_ratio);
    out.insert("driver.cold_op_max_ms", stats.cold_op_max_ms);
    let throughput: Vec<f64> = plain_segments.iter().map(|s| s.ops_per_s).collect();
    out.insert("driver.segment_spread", spread(&throughput));
    out.insert("engine.table.build_s", low(&build_s));
    out.insert("driver.peak_rss_mb", peak_rss_mb());
    out.insert("driver.peak_heap_mb", crate::heap::peak_mb());

    from_registry(&registry.snapshot(), &mut out);
    out.insert(
        "driver.failed_share",
        tally.failed as f64 / tally.attempted as f64,
    );
    Traced {
        layers: out,
        tally,
        spans: rec,
    }
}

/// Peak resident set size of this process so far, as the kernel saw it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the program's own counters and histograms say about the traced
/// lifecycle. A counter or histogram the program no longer has stops the
/// run: reporting 0 for it would read as "no work" and hide a rename.
fn from_registry(snapshot: &MetricsSnapshot, out: &mut Layers) {
    let mean_us = |name: &str| {
        let h = snapshot
            .histogram(name)
            .unwrap_or_else(|| panic!("the program has no histogram {name:?} any more"));
        h.sum as f64 / (h.count as f64).max(1.0) / 1e3
    };
    out.insert(
        "engine.executor.decompose_us",
        mean_us("executor.phase.decompose_ns"),
    );
    out.insert("engine.executor.scan_us", mean_us("executor.phase.scan_ns"));
    out.insert(
        "engine.executor.merge_us",
        mean_us("executor.phase.merge_ns"),
    );
    out.insert(
        "engine.executor.digest_hits_per_query",
        counter(snapshot, "executor.digest_hits") / counter(snapshot, "executor.queries").max(1.0),
    );
    out.insert(
        "engine.executor.shards_reopened",
        counter(snapshot, "executor.shards_reopened"),
    );

    // `core.<column>.*`, summed over the columns.
    let over_columns = |suffix: &str| -> f64 {
        let per_column: Vec<f64> = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("core.") && name.ends_with(suffix))
            .map(|(_, &value)| value as f64)
            .collect();
        assert!(
            !per_column.is_empty(),
            "the program has no core.*{suffix} counter any more"
        );
        per_column.iter().sum()
    };
    out.insert("core.refine_steps", over_columns(".refine_steps"));
    out.insert("core.bytes_moved", over_columns(".bytes_moved"));
    out.insert("core.merge_steps", over_columns(".merge_steps"));
    let (error_sum, error_count) = snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name.ends_with(".cost_error_pm"))
        .fold((0, 0), |(sum, count), (_, h)| {
            (sum + h.sum, count + h.count)
        });
    assert!(
        error_count > 0,
        "the program has no *.cost_error_pm samples any more"
    );
    out.insert("core.cost_error_pm", error_sum as f64 / error_count as f64);
}
