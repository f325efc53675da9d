#!/usr/bin/env python3
"""The perf trajectory in BENCH_history.jsonl, one A/B block at a time.

    scripts/history.py              # every block in the file

`scripts/pibench_ab.sh` appends one JSON line per run. A block is one of
its invocations: it starts at the parent side's `pair` 1 run of a
workload when that run's commit or seed differs from the current block's,
or when the current block already holds the workload. Absolute timings
are only comparable inside one block (one session, one machine state), so
for each block x workload x end-to-end metric this prints only what the
block itself decides: the change/parent median ratio, the pairs the
change won, and the verdict by the A/B rule in `verdict()`, which
`pibench_ab.sh` imports for its tables (gain or worse: >= 9/10 of the
pairs, medians apart by more than the parent's interquartile distance;
REGRESSION: median worse by more than the metric's bound in
BENCHMARK.json).

Under the blocks it chains the blocks since the newest `re-anchor @`
commit in `git log` (those whose parent is that commit or a descendant of
it): per workload x end-to-end metric, the product of the change/parent
median ratios, one per parent commit (the newest block of that parent
that ran the workload, so a rerun replaces the run it repeats). A product
worse than the metric's bound gets a flag line: a chain of ratios that
each sit inside the noise also chains that noise, so only a direct pair
against the anchor confirms or dismisses it.

Then it prints the baselines table: per workload, the exact
counts of the newest block that ran it, from its change side
(`ops_to_converge` and `hot_heap_mb` from the paired runs, the `core.*`
and WAL counts from the traced runs). A count that differs between runs
of that side is printed with a `~`.
"""

import argparse
import json
import os
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRED_COUNTS = ["ops_to_converge", "hot_heap_mb"]
TRACED_COUNTS = [
    "core.refine_steps",
    "core.bytes_moved",
    "core.merge_steps",
    "durable.wal.bytes_per_mutation",
]
MARK = {"gain": "+", "worse": "-", "REGRESSION": "!", "equal": "=", "-": " "}


def blocks(runs):
    """Splits the runs, in file order, into pibench_ab.sh invocations."""
    out = []
    for line, run in enumerate(runs, 1):
        run["line"] = line
        current = out[-1] if out else None
        # The parent side runs first in every odd pair, pair 1 included.
        if run["pair"] == 1 and run["side"] == "parent" and (
            current is None
            or (run["commit"], run["seed"]) != (current["parent"], current["seed"])
            or run["workload"] in current["workloads"]
        ):
            current = {"parent": run["commit"], "change": None, "seed": run["seed"],
                       "workloads": [], "runs": []}
            out.append(current)
        if current is None:
            continue
        if run["workload"] not in current["workloads"]:
            current["workloads"].append(run["workload"])
        if run["side"] == "change" and current["change"] is None:
            current["change"] = (run["commit"], run["dirty"])
        current["runs"].append(run)
    return out


def git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def label(block):
    """The parent's short sha and the subject of the change it measured:
    the committed change side; for a change's own A/B (uncommitted edits
    on the parent) the first commit after the parent; for an anchor run
    (uncommitted edits on a later commit) that commit + " + uncommitted"."""
    parent = block["parent"] or "?"
    change, dirty = block["change"] or (parent, True)
    suffix = ""
    if dirty and change == parent:
        change = git("rev-list", "--ancestry-path", "--reverse", f"{parent}..HEAD")
        change = change.split("\n")[0]
    elif dirty:
        suffix = " + uncommitted"
    subject = git("log", "-1", "--format=%s", change) if change else ""
    return f"{parent[:7]} -> {subject or 'uncommitted change'}{suffix}"


def verdict(parent, change, higher, bound):
    """The A/B rule over aligned per-pair values, shared with pibench_ab.sh.

    Returns the change/parent median ratio, the pairs the change won, the
    pair count and the verdict's name. A `bound` of None (the per-layer
    metrics) never reads REGRESSION."""
    pairs = len(parent)
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    lost = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    pq1, pm, pq3 = statistics.quantiles(parent, n=4, method="inclusive")
    cm = statistics.median(change)
    apart = abs(cm - pm) > pq3 - pq1
    worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
    if bound is not None and worse_by > bound:
        name = "REGRESSION"
    elif apart and worse_by < 0 and won * 10 >= pairs * 9:
        name = "gain"
    elif apart and worse_by > 0 and lost * 10 >= pairs * 9:
        name = "worse"
    elif won == lost == 0:
        name = "equal"
    else:
        name = "-"
    return (cm / pm if pm else float("nan")), won, pairs, name


def pair_values(block, workload, metric):
    """The parent and change values of `metric`, aligned by complete pair."""
    by_pair = {}
    for run in block["runs"]:
        if run["workload"] == workload and run["pair"]:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    return tuple([by_pair[p][s]["metrics"][metric] for p in pairs]
                 for s in ("parent", "change"))


def print_block(number, block, metrics):
    print(f"\nblock {number}: {label(block)} (seed {block['seed']}, "
          f"lines {block['runs'][0]['line']}-{block['runs'][-1]['line']})")
    print(f"  {'workload':<16}" + "".join(f"{m['name'][:15]:>16}" for m in metrics)
          + "  failed/attempted  wrong")
    for workload in block["workloads"]:
        if len(pair_values(block, workload, metrics[0]["name"])[0]) < 2:
            print(f"  {workload:<16}  (fewer than two complete pairs)")
            continue
        cells = []
        for m in metrics:
            parent, change = pair_values(block, workload, m["name"])
            ratio, won, n, name = verdict(parent, change, m["better"] == "higher", m["bound"])
            cells.append(f"{ratio:.3f} {won:>2}/{n}{MARK[name]}")
        paired = [r for r in block["runs"] if r["workload"] == workload and r["pair"]]
        failed = sum(r["failed"] for r in paired)
        attempted = sum(r["attempted"] for r in paired)
        wrong = sum(not r["correct"] for r in paired)
        print(f"  {workload:<16}" + "".join(f"{c:>16}" for c in cells)
              + f"  {failed}/{attempted:<14}  {wrong}")


def print_chain(all_blocks, metrics, workloads):
    anchor = git("log", "-1", "--grep=^re-anchor @", "--format=%H")
    if not anchor:
        return
    since = [(i, b) for i, b in enumerate(all_blocks, 1) if b["parent"]
             and subprocess.run(["git", "-C", ROOT, "merge-base", "--is-ancestor",
                                 anchor, b["parent"]]).returncode == 0]
    print(f"\nchained since re-anchor {anchor[:7]} (product of the per-parent ratios):")
    print(f"  {'workload':<16}" + "".join(f"{m['name'][:15]:>16}" for m in metrics)
          + "  blocks")
    flags = []
    for workload in workloads:
        newest = {}
        for number, block in since:
            if workload in block["workloads"]:
                newest[block["parent"]] = (number, block)
        steps = [(n, b) for n, b in newest.values()
                 if len(pair_values(b, workload, metrics[0]["name"])[0]) >= 2]
        if not steps:
            continue
        cells = []
        for m in metrics:
            product = 1.0
            for _, block in steps:
                parent, change = pair_values(block, workload, m["name"])
                product *= verdict(parent, change, m["better"] == "higher", None)[0]
            cells.append(f"{product:.3f}")
            worse_by = (1 - product) if m["better"] == "higher" else (product - 1)
            if worse_by > m["bound"]:
                flags.append(f"FLAG {workload} {m['name']}: chained ratio {product:.3f} is "
                             f"worse than its bound {m['bound']}; a direct pair against the "
                             f"anchor (scripts/pibench_ab.sh {anchor[:7]} {workload} 1) must "
                             "confirm or dismiss it")
        print(f"  {workload:<16}" + "".join(f"{c:>16}" for c in cells)
              + "  " + ",".join(str(n) for n, _ in steps))
    for flag in flags:
        print(flag)


def exact(values):
    """One value when every run agrees, else the median marked `~`."""
    if not values:
        return "n/a"
    median = statistics.median(values)
    text = f"{median:.0f}" if median == int(median) else f"{median:.6g}"
    return text if len(set(values)) == 1 else "~" + text


def print_baselines(all_blocks, workloads):
    counts = PAIRED_COUNTS + TRACED_COUNTS
    print("\nbaselines (change side of the newest block that ran each workload):")
    print(f"  {'workload':<16}{'block':>6}" + "".join(f"{c.split('.')[-1]:>20}" for c in counts))
    for workload in workloads:
        newest = [(i, b) for i, b in enumerate(all_blocks, 1) if workload in b["workloads"]]
        if not newest:
            continue
        number, block = newest[-1]
        runs = [r for r in block["runs"]
                if r["workload"] == workload and r["side"] == "change"]
        cells = []
        for count in counts:
            traced = count in TRACED_COUNTS
            values = [r["metrics"][count] for r in runs
                      if bool(r["trace"]) == traced and count in r["metrics"]]
            cells.append(exact(values))
        print(f"  {workload:<16}{number:>6}" + "".join(f"{c:>20}" for c in cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--file", default=os.path.join(ROOT, "BENCH_history.jsonl"))
    args = parser.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    with open(args.file) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    all_blocks = blocks(runs)
    print("cells: change/parent median ratio, pairs won, verdict "
          "(+ gain, - worse within bound, ! REGRESSION, = equal)")
    for number, block in enumerate(all_blocks, 1):
        print_block(number, block, bench["end_to_end"])
    print_chain(all_blocks, bench["end_to_end"], [w["name"] for w in bench["workloads"]])
    print_baselines(all_blocks, [w["name"] for w in bench["workloads"]])


if __name__ == "__main__":
    main()
