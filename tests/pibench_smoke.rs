//! pibench inside the fence: the benchmark is a package of its own
//! (`pibench/`, outside the workspace), so nothing else in tier-1 notices
//! when an API change in `crates/*` stops it compiling or makes one of
//! its oracle-checked answers wrong. This test builds it — release,
//! offline, into its own `pibench/target` — and runs all four workloads
//! at `--quick` scale, holding each to `"correct": true` and
//! `"failed": 0`. Timings are not looked at.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "explore_cold",
    "serve_hot",
    "mixed_durable",
    "typed_multicol",
];

#[test]
fn pibench_builds_and_every_quick_workload_answers_correctly() {
    let pibench = Path::new(env!("CARGO_MANIFEST_DIR")).join("pibench");
    let target = pibench.join("target");
    let built = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(pibench.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(built.success(), "pibench no longer builds");

    let exe = target.join("release").join("pibench");
    for workload in WORKLOADS {
        let run = Command::new(&exe)
            .args(["--workload", workload, "--quick"])
            .args(["--seconds", "1", "--seed", "1"])
            .output()
            .expect("pibench runs");
        let stdout = String::from_utf8_lossy(&run.stdout);
        let verdict = stdout.lines().last().unwrap_or_default();
        assert!(
            run.status.success()
                && verdict.contains("\"correct\": true")
                && verdict.contains("\"failed\": 0"),
            "{workload}: exit {:?}\n{verdict}\n{}",
            run.status.code(),
            String::from_utf8_lossy(&run.stderr)
        );
    }
}
