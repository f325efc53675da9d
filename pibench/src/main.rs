//! `pibench` — a lifecycle benchmark for the progressive-indexes workspace.
//!
//! ```text
//! pibench --workload <name> [--seed N] [--seconds S] [--trace <0|1>] [--quick]
//! pibench selfcheck [--seed N] [--seconds S] [--quick]
//! pibench manifest        # prints BENCHMARK.json
//! ```
//!
//! Every workload walks set-up → cold stream → converge → hot stream and
//! reports the same end-to-end metrics; `--trace 1` reports the per-layer
//! metrics instead and writes the spans it recorded next to the
//! executable. See `README.md` beside this package's manifest.

mod estimators;
mod gen;
mod heap;
mod lifecycle;
mod metrics;
mod oracle;
mod peel;
mod probes;
mod report;
mod scratch;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

use lifecycle::{Plan, Workload};
use metrics::{Value, END_TO_END, PER_LAYER, WORKLOADS};
use report::Report;
use workloads::Scale;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// How long one run measures; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 20;
/// Runs per workload in each of `selfcheck`'s two sets.
const SELFCHECK_RUNS: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value("a workload name")?,
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--quick" => parsed.quick = true,
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn measure<W: Workload>(w: &W, args: &Args) -> Report {
    let plan = Plan::new(args.seconds, args.quick);
    if args.trace {
        let scale = Scale { quick: args.quick };
        let traced = traced::run(w, &plan, args.seed, scale);
        let dir = scratch::exe_dir().join("pibench-trace");
        let path = dir.join(format!("{}.trace.json", args.workload));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| traced.spans.write_json(&path, &args.workload, args.seed));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        // Every traced run measures every per-layer metric, and nothing
        // that is not in the table.
        let mut layers = traced.layers;
        let metrics = PER_LAYER
            .iter()
            .map(|m| Value {
                name: m.name,
                value: layers
                    .remove(m.name)
                    .unwrap_or_else(|| panic!("{} was not measured", m.name)),
                unit: m.unit,
            })
            .collect();
        assert!(layers.is_empty(), "not in the table: {:?}", layers.keys());
        Report {
            correct: traced.tally.failed == 0,
            attempted: traced.tally.attempted,
            failed: traced.tally.failed,
            metrics,
        }
    } else {
        let life = lifecycle::run(w, &plan);
        let e = life.end_to_end();
        let values = [
            e.setup_s,
            e.first_op_ms,
            e.cold_total_s,
            e.cold_op_p99_ms,
            e.ops_to_converge,
            e.converge_s,
            e.hot_ops_s,
            e.hot_op_p50_us,
            e.hot_heap_mb,
        ];
        Report {
            correct: life.tally.failed == 0,
            attempted: life.tally.attempted,
            failed: life.tally.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, value)| Value {
                    name: m.name,
                    value,
                    unit: m.unit,
                })
                .collect(),
        }
    }
}

fn run_workload(args: &Args) -> Result<Report, String> {
    let scale = Scale { quick: args.quick };
    let seed = args.seed;
    Ok(match args.workload.as_str() {
        "explore_cold" => measure(
            &workloads::explore_cold::ExploreCold::generate(seed, scale),
            args,
        ),
        "serve_hot" => measure(&workloads::serve_hot::ServeHot::generate(seed, scale), args),
        "mixed_durable" => measure(
            &workloads::mixed_durable::MixedDurable::generate(seed, scale),
            args,
        ),
        "typed_multicol" => measure(
            &workloads::typed_multicol::TypedMulticol::generate(seed, scale),
            args,
        ),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {other:?}; one of {names:?}"));
        }
    })
}

/// Runs the whole suite twice, as set A and set B with runs alternating,
/// each run a child process, run `i` of either set on seed `--seed + i`.
/// Same code and same seeds: a metric that is not a timing must come out
/// the same in both runs on a seed, to the last digit, and the two sets'
/// medians of a timing may differ by noise alone, which has to stay inside
/// the bound the benchmark fixes for the metric.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |workload: &str, seed: u64| -> Result<Vec<(String, f64)>, String> {
        let mut command = std::process::Command::new(&exe);
        command.args(["--workload", workload, "--trace", "0"]);
        command.args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        if args.quick {
            command.arg("--quick");
        }
        let output = command.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout.lines().last().and_then(report::parse);
        match parsed {
            Some(run) if run.correct && run.failed == 0 && output.status.success() => {
                Ok(run.metrics)
            }
            _ => Err(format!(
                "{workload} seed {seed} did not report a correct run"
            )),
        }
    };
    let mut all_within = true;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    for (workload, _) in WORKLOADS {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for run in 0..SELFCHECK_RUNS {
            a.push(child(workload, args.seed + run)?);
            b.push(child(workload, args.seed + run)?);
        }
        for (i, metric) in END_TO_END.iter().enumerate() {
            let median_of = |set: &[Vec<(String, f64)>]| {
                estimators::median(&set.iter().map(|run| run[i].1).collect::<Vec<_>>())
            };
            let (median_a, median_b) = (median_of(&a), median_of(&b));
            let diff = (median_b - median_a).abs() / median_a;
            let (within, bound) = if metric.exact {
                let same = a.iter().zip(&b).all(|(a, b)| a[i].1 == b[i].1);
                (same, "exact".to_string())
            } else {
                (
                    diff <= metric.bound,
                    format!("{:.0}%", metric.bound * 100.0),
                )
            };
            all_within &= within;
            println!(
                "{:<15} {:<16} {:>14.4} {:>14.4} {:>7.1}% {:>6}{}",
                workload,
                metric.name,
                median_a,
                median_b,
                diff * 100.0,
                bound,
                if within { "" } else { "  OUTSIDE" }
            );
        }
    }
    Ok(all_within)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(|s| s.as_str()) {
        Some("selfcheck") => ("selfcheck", &raw[1..]),
        Some("manifest") => ("manifest", &raw[1..]),
        _ => ("run", &raw[..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pibench: {e}");
            return ExitCode::from(2);
        }
    };
    // Held to the end of `main`, so scratch files go away on every path
    // out of it, a panic's unwinding included.
    let _scratch = scratch::ProcessRoot;
    let ok = match command {
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        "selfcheck" => selfcheck(&args),
        _ => run_workload(&args).map(|report| {
            report.print();
            report.correct
        }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pibench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{build_timed, cold_rep, hot_segment, Tally};
    use crate::trace::Recorder;

    const QUICK: Scale = Scale { quick: true };

    /// One checked cold repetition: `(ops_to_converge, ops, failed)`.
    fn one_rep<W: Workload>(w: &W) -> (f64, u64, u64) {
        let mut tally = Tally::default();
        let (rep, _) = cold_rep(w, w.cold_len(), None, &mut Recorder::off(), &mut tally);
        (rep.ops_to_converge, tally.attempted, tally.failed)
    }

    /// Three replays of the hot segment on a converged instance: the failed
    /// checks, and whether the last replay left writes pending.
    fn replays<I, W: Workload<Instance = I, Hot = I>>(w: &W) -> (u64, bool) {
        let (_, mut instance) = build_timed(w, None);
        w.converge(&mut instance);
        let mut hot = w.warm(instance, None);
        let mut tally = Tally::default();
        for _ in 0..3 {
            hot_segment(w, &mut hot, &mut Recorder::off(), &mut tally);
        }
        let settled = w.tables(&hot).iter().all(|table| table.is_converged());
        (tally.failed, settled)
    }

    /// The workloads that write undo their writes within the hot segment:
    /// every replay gets the first one's answers, and nothing is left in a
    /// sidecar for the next.
    #[test]
    fn replays_of_the_hot_segment_find_the_table_as_the_first_did() {
        let durable = workloads::mixed_durable::MixedDurable::generate(7, QUICK);
        assert_eq!(replays(&durable), (0, true));
        let typed = workloads::typed_multicol::TypedMulticol::generate(7, QUICK);
        assert_eq!(replays(&typed), (0, true));
    }

    /// Same seed: the same streams, the same op at which the tables are
    /// fully indexed, and no wrong answer. Another seed: other streams.
    macro_rules! determinism {
        ($test:ident, $workload:ty) => {
            #[test]
            fn $test() {
                let (a, b) = (
                    <$workload>::generate(7, QUICK),
                    <$workload>::generate(7, QUICK),
                );
                assert_eq!(a.fingerprint(), b.fingerprint());
                assert_ne!(
                    a.fingerprint(),
                    <$workload>::generate(8, QUICK).fingerprint()
                );
                let (converged, ops, failed) = one_rep(&a);
                assert_eq!(failed, 0);
                assert!(converged <= a.cold_len() as f64, "never fully indexed");
                assert_eq!(one_rep(&a), (converged, ops, 0), "second repetition");
                assert_eq!(one_rep(&b), (converged, ops, 0), "second generation");
            }
        };
    }
    determinism!(explore_cold_repeats, workloads::explore_cold::ExploreCold);
    determinism!(serve_hot_repeats, workloads::serve_hot::ServeHot);
    determinism!(
        mixed_durable_repeats,
        workloads::mixed_durable::MixedDurable
    );
    determinism!(
        typed_multicol_repeats,
        workloads::typed_multicol::TypedMulticol
    );

    #[test]
    fn log_bytes_and_fsyncs_repeat_exactly() {
        let exact = |seed| {
            let mut layers = probes::Layers::new();
            probes::durable(seed, 5_000, &mut layers);
            (
                layers["durable.wal.bytes_per_mutation"],
                layers["durable.wal.fsyncs"],
                layers["durable.recover.replayed_records"],
            )
        };
        assert_eq!(exact(3), exact(3));
        assert_eq!(
            exact(3).1,
            63.0,
            "2000 records at one fsync per 32, and the commit"
        );
    }

    /// Every metric of the tables — which a test in `metrics.rs` holds
    /// `BENCHMARK.json` to — is reported with its unit, in both kinds of
    /// run, and nothing else is.
    #[test]
    fn a_run_reports_exactly_the_manifest_metrics() {
        let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        for (trace, named) in [(false, end_to_end), (true, per_layer)] {
            let args = Args {
                workload: "mixed_durable".to_string(),
                seed: 5,
                seconds: 0.05,
                trace,
                quick: true,
            };
            let report = run_workload(&args).expect("a known workload");
            assert!(report.correct && report.failed == 0 && report.attempted > 0);
            let reported: Vec<_> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(reported, named);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            assert!(report::parse(&report.to_json()).is_some());
        }
    }

    #[test]
    fn arguments_parse_the_way_the_driver_passes_them() {
        let args = |line: &str| {
            parse_args(
                &line
                    .split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
        };
        let run = args("--workload serve_hot --seed 9 --seconds 12 --trace 0").expect("parses");
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds),
            ("serve_hot", 9, 12.0)
        );
        assert!(!run.trace && !run.quick);
        assert!(
            args("--workload x --trace 1 --quick")
                .expect("parses")
                .trace
        );
        assert!(args("--trace").is_err());
        assert!(args("--trace yes").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
        assert!(run_workload(&args("--workload nope").expect("parses")).is_err());
    }
}
