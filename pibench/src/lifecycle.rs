//! The lifecycle every workload walks — set-up → cold stream → converge →
//! hot stream — and the protocol that makes its numbers repeat:
//!
//! * the same ops run on a fresh instance in every repetition, every answer
//!   is checked against the oracle, and the first op after which the table
//!   is fully indexed must be the same op in every repetition;
//! * cold metrics are read off the denoised curve (per-op low quantile
//!   over repetitions), never off one repetition;
//! * the hot stream is one segment of ops replayed over and over on a
//!   converged instance — identical work every time — and reported as low
//!   and high quantiles over the replays.
//!
//! A workload only says what an instance, a cold op and a hot op are.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pi_core::result::Phase;
use pi_engine::Table;
use pi_obs::MetricsRegistry;

use crate::estimators::{denoise, high, low, median, p50_band, p99_band, quantile};
use crate::peel::PeelInput;
use crate::trace::Recorder;

/// One executed op: the time spent inside the program and whether every
/// answer matched the oracle.
pub struct Op {
    pub nanos: u64,
    pub ok: bool,
}

/// Runs `body` and returns how long it took, in nanoseconds.
pub fn timed<T>(body: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = body();
    (start.elapsed().as_nanos() as u64, out)
}

pub trait Workload {
    /// Fresh copies of the generated data one instance is built from.
    type Inputs;
    /// A built instance serving the cold stream.
    type Instance;
    /// A converged instance serving the hot stream.
    type Hot;

    /// Copies the inputs; outside all timing.
    fn inputs(&self) -> Self::Inputs;
    /// Builds table, executor, server and log up to readiness for op 1.
    /// This is what `setup_s` times. A registry is attached in the traced
    /// run only.
    fn build(
        &self,
        inputs: Self::Inputs,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Self::Instance;
    /// K, the length of the cold stream.
    fn cold_len(&self) -> usize;
    /// The ops that are the first to touch their column.
    fn first_touch(&self) -> Vec<usize>;
    fn cold_op(&self, instance: &mut Self::Instance, i: usize, rec: &mut Recorder) -> Op;
    /// The `u64` tables under the instance, whose shards' progress the
    /// driver watches.
    fn tables<'a>(&self, instance: &'a Self::Instance) -> Vec<&'a Table>;
    /// Ends a full cold repetition; workloads that verify more than
    /// per-op answers do it here.
    fn end_cold(&self, _instance: Self::Instance, _rec: &mut Recorder, _tally: &mut Tally) {}
    /// Drives a fresh instance to convergence; what `converge_s` times.
    fn converge(&self, instance: &mut Self::Instance);
    /// Turns a converged instance into the one the hot stream runs on.
    fn warm(&self, instance: Self::Instance, registry: Option<&Arc<MetricsRegistry>>) -> Self::Hot;
    /// Ops in the hot segment, sized for 15–50 ms on the dev box. Every
    /// replay of the segment must find the instance as the first did: a
    /// workload that writes undoes its writes within the segment.
    fn segment_ops(&self) -> usize;
    /// Op `j` of the hot segment.
    fn hot_op(&self, hot: &mut Self::Hot, j: usize, rec: &mut Recorder) -> Op;
    /// The `u64` columns and narrow hot reads the layer peel replays.
    fn peel_input(&self) -> PeelInput;
}

/// How long to measure, and the fewest rounds to make however slow the
/// box is.
#[derive(Clone, Copy)]
pub struct Plan {
    pub measure: Duration,
    pub min_rounds: usize,
}

impl Plan {
    pub fn new(seconds: f64, quick: bool) -> Self {
        Plan {
            measure: Duration::from_secs_f64(seconds),
            min_rounds: if quick { 2 } else { 4 },
        }
    }
}

/// Head-only repetitions per round; the first follows a full repetition
/// and is not timed (see [`run`]).
const HEAD_REPS: usize = 6;
/// Replays of the hot segment per round. A round is thus the same work in
/// every run; only how many rounds fit into `--seconds` follows the box.
pub const SEGMENTS_PER_ROUND: usize = 8;

#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

/// Whether every shard's index has reached its final phase. Unlike
/// `Table::is_converged` this stays true while mutations wait in a
/// sidecar, which under a steady write stream is always.
pub fn fully_indexed(tables: &[&Table]) -> bool {
    tables
        .iter()
        .flat_map(|table| table.status())
        .all(|(_, status)| status.phase == Phase::Converged)
}

/// After how many ops each shard was fully indexed. `ops_to_converge` is
/// the mean over the shards that hold rows, not the op of the last one:
/// the last of a dozen shards to finish is whichever the stream's ranges
/// happened to visit least, and its op ranged over 1622–2215 between seeds
/// on `typed_multicol`, where the mean moves by a few percent.
#[derive(Default)]
struct Progress {
    /// Per shard, in table, column and shard order; empty before the
    /// first op.
    indexed_after: Vec<Option<usize>>,
}

impl Progress {
    fn after_op(&mut self, tables: &[&Table], ops_done: usize) {
        let first = self.indexed_after.is_empty();
        if !first && self.indexed_after.iter().all(Option::is_some) {
            return;
        }
        let mut at = 0;
        for column in tables.iter().flat_map(|table| table.columns()) {
            let statuses = column.shard_statuses();
            for (status, &rows) in statuses.iter().zip(column.shard_rows()) {
                if first {
                    // Shards born empty have nothing to index.
                    self.indexed_after.push((rows == 0).then_some(0));
                }
                if self.indexed_after[at].is_none() && status.phase == Phase::Converged {
                    self.indexed_after[at] = Some(ops_done);
                }
                at += 1;
            }
        }
    }

    /// Per shard that holds rows, the op after which it was fully
    /// indexed; `never` for a shard that was not by the end of the stream.
    fn ops(&self, never: usize) -> impl Iterator<Item = usize> + '_ {
        self.indexed_after
            .iter()
            .filter(|after| **after != Some(0))
            .map(move |after| after.unwrap_or(never))
    }
}

/// One cold repetition: a timed build, then every cold op timed.
pub struct ColdRep {
    pub setup_s: f64,
    pub latencies: Vec<u64>,
    /// Mean over the shards of the ops until the shard was fully indexed.
    pub ops_to_converge: f64,
    /// The op after which the last shard was: the issue's exact count.
    pub ops_to_last_shard: usize,
}

pub fn build_timed<W: Workload>(
    w: &W,
    registry: Option<&Arc<MetricsRegistry>>,
) -> (f64, W::Instance) {
    let inputs = w.inputs();
    let (nanos, instance) = timed(|| w.build(inputs, registry));
    (nanos as f64 / 1e9, instance)
}

/// Runs the first `ops` cold ops on a fresh instance.
pub fn cold_rep<W: Workload>(
    w: &W,
    ops: usize,
    registry: Option<&Arc<MetricsRegistry>>,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> (ColdRep, W::Instance) {
    let (setup_s, mut instance) = build_timed(w, registry);
    let mut latencies = Vec::with_capacity(ops);
    let mut progress = Progress::default();
    for i in 0..ops {
        let root = rec.open("driver.cold_op", i);
        let op = w.cold_op(&mut instance, i, rec);
        rec.close(root);
        tally.check(op.ok);
        latencies.push(op.nanos);
        progress.after_op(&w.tables(&instance), i + 1);
    }
    let never = w.cold_len() + 1;
    let shards = progress.ops(never).count().max(1);
    let rep = ColdRep {
        setup_s,
        latencies,
        ops_to_converge: progress.ops(never).sum::<usize>() as f64 / shards as f64,
        ops_to_last_shard: progress.ops(never).max().unwrap_or(0),
    };
    (rep, instance)
}

/// One repetition of the whole cold stream, ended the workload's way.
pub fn full_cold_rep<W: Workload>(
    w: &W,
    registry: Option<&Arc<MetricsRegistry>>,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> ColdRep {
    let (rep, instance) = cold_rep(w, w.cold_len(), registry, rec, tally);
    w.end_cold(instance, rec, tally);
    rep
}

/// One replay of the hot segment: `segment_ops` ops, each timed.
pub struct Segment {
    pub ops_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

pub fn hot_segment<W: Workload>(
    w: &W,
    hot: &mut W::Hot,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Segment {
    let ops = w.segment_ops();
    let mut sorted = Vec::with_capacity(ops);
    for j in 0..ops {
        let root = rec.open("driver.hot_op", j);
        let op = w.hot_op(hot, j, rec);
        rec.close(root);
        tally.check(op.ok);
        sorted.push(op.nanos as f64);
    }
    let busy_ns: f64 = sorted.iter().sum();
    sorted.sort_by(f64::total_cmp);
    Segment {
        ops_per_s: ops as f64 * 1e9 / busy_ns,
        p50_ns: p50_band(&sorted),
        p99_ns: quantile(&sorted, 0.99),
    }
}

/// Everything the untraced run measured.
pub struct Lifecycle {
    pub setup_s: Vec<f64>,
    pub cold: Vec<Vec<u64>>,
    /// The stream's head, from the head-only repetitions.
    pub head: Vec<Vec<u64>>,
    pub ops_to_converge: f64,
    pub first_touch: Vec<usize>,
    pub converge_s: Vec<f64>,
    pub segments: Vec<Segment>,
    /// Heap the converged instance under the hot stream holds.
    pub hot_heap_mb: f64,
    pub tally: Tally,
}

/// Runs the untraced lifecycle for `plan.measure`.
///
/// The phases are interleaved in rounds — one full cold repetition,
/// [`HEAD_REPS`] head-only repetitions, one convergence run,
/// [`SEGMENTS_PER_ROUND`] replays of the hot segment — so that
/// every metric draws its samples from the whole run. A neighbour that
/// takes the core for a few seconds then disturbs a minority of each
/// metric's samples, which the low quantiles discard, and not every
/// sample of one metric.
pub fn run<W: Workload>(w: &W, plan: &Plan) -> Lifecycle {
    let mut rec = Recorder::off();
    let mut tally = Tally::default();
    // Repetition 0 warms the allocator and the page cache; it is checked
    // like every other but its timings are not used.
    let reference = full_cold_rep(w, None, &mut rec, &mut tally);
    let first_touch = w.first_touch();
    let head_len = first_touch.iter().max().expect("a first-touch op") + 1;

    let heap_before = crate::heap::live_mb();
    let (_, mut instance) = build_timed(w, None);
    w.converge(&mut instance);
    let mut hot = w.warm(instance, None);
    let hot_heap_mb = crate::heap::live_mb() - heap_before;

    let (mut cold, mut head, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut converge_s, mut segments) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while cold.len() < plan.min_rounds || started.elapsed() < plan.measure {
        let rep = full_cold_rep(w, None, &mut rec, &mut tally);
        // Identical work per op index is what makes the per-op quantile
        // meaningful; a repetition that converged elsewhere did other work.
        tally.check(
            rep.ops_to_converge == reference.ops_to_converge
                && rep.ops_to_last_shard == reference.ops_to_last_shard,
        );
        cold.push(rep.latencies);

        // Set-up and the first ops are measured on head-only repetitions:
        // both allocate, and how long that takes depends on what the
        // allocator was left with, so every sample must follow the same
        // kind of repetition. (After a full repetition the same build
        // took 28–39 ms on the dev box, after a head-only one 20–25 ms.)
        for i in 0..HEAD_REPS {
            let (rep, _) = cold_rep(w, head_len, None, &mut rec, &mut tally);
            if i > 0 {
                setup_s.push(rep.setup_s);
                head.push(rep.latencies);
            }
        }

        let (_, mut instance) = build_timed(w, None);
        let (nanos, ()) = timed(|| w.converge(&mut instance));
        tally.check(fully_indexed(&w.tables(&instance)));
        converge_s.push(nanos as f64 / 1e9);
        drop(instance);

        for _ in 0..SEGMENTS_PER_ROUND {
            segments.push(hot_segment(w, &mut hot, &mut rec, &mut tally));
        }
    }

    Lifecycle {
        setup_s,
        cold,
        head,
        ops_to_converge: reference.ops_to_converge,
        first_touch,
        converge_s,
        segments,
        hot_heap_mb,
        tally,
    }
}

/// The end-to-end metrics, read off a [`Lifecycle`].
pub struct EndToEnd {
    pub setup_s: f64,
    pub first_op_ms: f64,
    pub cold_total_s: f64,
    pub cold_op_p99_ms: f64,
    pub ops_to_converge: f64,
    pub converge_s: f64,
    pub hot_ops_s: f64,
    pub hot_op_p50_us: f64,
    pub hot_heap_mb: f64,
}

/// Numbers about the measurement itself, reported per-layer only.
pub struct DriverStats {
    pub hot_op_p99_us: f64,
    pub cold_noise_ratio: f64,
    pub cold_op_max_ms: f64,
}

impl Lifecycle {
    pub fn end_to_end(&self) -> EndToEnd {
        let curve = denoise(&self.cold);
        let mut sorted_curve = curve.clone();
        sorted_curve.sort_by(f64::total_cmp);
        let head = denoise(&self.head);
        let first: f64 = self.first_touch.iter().map(|&i| head[i]).sum();
        let throughput: Vec<f64> = self.segments.iter().map(|s| s.ops_per_s).collect();
        let p50: Vec<f64> = self.segments.iter().map(|s| s.p50_ns).collect();
        EndToEnd {
            setup_s: low(&self.setup_s),
            first_op_ms: first / self.first_touch.len() as f64 / 1e6,
            cold_total_s: curve.iter().sum::<f64>() / 1e9,
            cold_op_p99_ms: p99_band(&sorted_curve) / 1e6,
            ops_to_converge: self.ops_to_converge,
            converge_s: low(&self.converge_s),
            hot_ops_s: high(&throughput),
            hot_op_p50_us: low(&p50) / 1e3,
            hot_heap_mb: self.hot_heap_mb,
        }
    }
}

/// Numbers about the measurement itself, from untraced cold repetitions
/// and hot segments.
pub fn driver_stats(cold: &[Vec<u64>], segments: &[Segment]) -> DriverStats {
    let curve = denoise(cold);
    let raw_totals: Vec<f64> = cold
        .iter()
        .map(|rep| rep.iter().sum::<u64>() as f64)
        .collect();
    let p99: Vec<f64> = segments.iter().map(|s| s.p99_ns).collect();
    DriverStats {
        hot_op_p99_us: median(&p99) / 1e3,
        cold_noise_ratio: median(&raw_totals) / curve.iter().sum::<f64>(),
        cold_op_max_ms: curve.iter().cloned().fold(0.0, f64::max) / 1e6,
    }
}
