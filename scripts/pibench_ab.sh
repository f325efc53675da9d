#!/usr/bin/env bash
# Paired A/B of pibench workloads: a parent commit against this working
# tree, by the rule of the choosing-metrics guide, section 8.
#
#   scripts/pibench_ab.sh <parent-ref> <workload>[,<workload>...]|all [seed]
#
# Both sides are exported into trees of their own under target/pibench_ab/
# (the parent from git, the change from the working tree's tracked and
# untracked-but-not-ignored files), so each builds pibench from its own
# source into its own pibench/target. For each workload in turn (`all`:
# every workload BENCHMARK.json lists) the BENCHMARK.json command is then
# run PAIRS times (default 10) on each side, alternating which side goes
# first, and one table is printed: every end-to-end metric with each
# side's median and quartiles, the pairs the change won, and a verdict: a
# gain (>= 9/10 of the pairs won, medians apart by more than the parent's
# interquartile distance), worse by the same rule but within the metric's
# bound, a regression (median worse by more than the bound), or neither.
# Under each table, `--trace 1` runs print the layer numbers a
# cold-path claim rests on (`storage.scan_gb_s`, and per algorithm the bare
# index's `core.*.first_query_ms`, `core.*.cold_total_s`,
# `core.*.op_max_ms` and `core.*.ops_to_converge`, with the driver's
# `driver.ops_to_last_shard`), the two counts that must not move
# (`core.refine_steps`, `core.bytes_moved`) and the mutation path's layers
# (`core.merge_steps`, `core.mutation.apply_us`, `core.mutation.merge_s`,
# `core.mutation.sidecar_query_us`, and `engine.executor.shards_reopened`,
# the converged shards writes reopened) and the conjunction's layer
# (`engine.multicol.execute_us`, `engine.kind_share.conjunction` and
# `engine.planner.survivors_per_result`, which moves only if a plan did)
# and the converged read's layers (`storage.btree.range_us`,
# `storage.btree_lookup_ns`, `core.index.query_us`,
# `engine.executor.overhead_us`, and `driver.peel_min_self_share`, whose
# floor the peel checks) and the durable path's layers
# (`durable.snapshot.encode_ms`, `engine.durability.checkpoint_ms`,
# `durable.recover_s`, `durable.wal.append_us` and
# `engine.durability.apply_us`) and the covered-shard shortcut's
# `engine.executor.digest_hits_per_query`, the typed and grouped reads'
# `engine.typed.string_query_us`, `engine.multicol.grouped_fresh_us`,
# `engine.multicol.grouped_cached_us`, `engine.kind_share.grouped`,
# `engine.agg.cache_hit_ratio` and `storage.digest_tree_build_ms`, so the
# layer that moved is on the same page. By default that is one traced run per side, each layer's value
# printed as it reads. TRACE_PAIRS=N (N >= 2) runs N alternating traced
# pairs instead and prints one table of those layers by the end-to-end
# rule: each side's median and quartiles, the pairs the change won (in
# the layer's direction from BENCHMARK.json's per_layer list), and a
# verdict: gain or worse (>= 9/10 of the pairs, medians apart by more
# than the parent's interquartile distance), equal, or neither. Layers
# have no bound, so none reads REGRESSION. A per-layer claim ("the layer
# that moved") needs that table, not one run a side: one run of
# `core.radix_msd.cold_total_s` spanned 6.7-9.7 ms on one commit. Below
# ten pairs the table prints the ratio and the pairs won but no gain or
# worse, and says so under it: layers that share a process move together,
# and five pairs of one tree read "worse" on twelve timed layers once and
# on none in a rerun.
# A traced run that exits non-zero (a wrong answer, or the peel's
# self-time floor) is reported with its side, workload, pair and exit
# code and still recorded; its pair is left out of the per-layer table,
# which says so, and the script goes on.
#
# The run length and the command come from the working tree's
# BENCHMARK.json and are the same on both sides.
#
# Every full run, paired or traced, is appended as one JSON line to
# BENCH_history.jsonl at the root of the repo: the commit it measured (the
# parent's sha; for the change, HEAD's sha and whether the working tree
# differed from it), the side, seed, workload, pair number (null for the
# traced runs), trace flag, the counts of attempted and failed ops, whether
# every answer was right, and every metric's value.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent_ref=$1
workloads=$2
seed=${3:-1}
pairs=${PAIRS:-10}
trace_pairs=${TRACE_PAIRS:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
history=$root/BENCH_history.jsonl
parent_sha=$(git rev-parse "$parent_ref^{commit}")
head_sha=$(git rev-parse HEAD)
change_dirty=false
if [ -n "$(git status --porcelain)" ]; then change_dirty=true; fi
work=$root/target/pibench_ab
rm -rf "$work/parent" "$work/change" "$work/runs"
mkdir -p "$work/parent" "$work/change" "$work/runs"

git archive "$parent_ref" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -x -C "$work/change"

mapfile -t command < <(python3 - <<'EOF'
import json
print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")
EOF
)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

if [ "$workloads" = all ]; then
    workloads=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
fi

run() { # <side> <workload> <pair>
    (cd "$work/$1" && "${command[@]}" --workload "$2" --seed "$seed" \
        --seconds "$seconds" --trace 0) | tail -n 1 >"$work/runs/$1.$2.$3.json"
}

record() { # <side> <workload> <pair|traced> <file whose last line is the run's JSON>
    local commit=$parent_sha dirty=false
    if [ "$1" = change ]; then commit=$head_sha dirty=$change_dirty; fi
    python3 - "$commit" "$dirty" "$1" "$seed" "$2" "$3" "$4" >>"$history" <<'EOF'
import json, sys
commit, dirty, side, seed, workload, pair, path = sys.argv[1:]
run = json.loads(open(path).read().splitlines()[-1])
print(json.dumps({
    "commit": commit, "dirty": dirty == "true", "side": side, "seed": int(seed),
    "workload": workload, "pair": int(pair) if pair.isdigit() else None,
    "trace": int(pair == "traced"), "attempted": run["attempted"], "failed": run["failed"],
    "correct": run["correct"],
    "metrics": {name: metric["value"] for name, metric in run["metrics"].items()},
}))
EOF
}

summarise() { # <end_to_end|per_layer> <workload> <pairs> [pairs to leave out]
    python3 - "$work/runs" "$1" "$2" "$3" "$seed" "${4:-}" <<'EOF'
import json, re, statistics, sys
sys.path.insert(0, "scripts")
import history  # the verdict rule, shared with scripts/history.py
runs, kind, workload, pairs, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
left_out = sorted(set(map(int, sys.argv[6].split())))
bench = json.load(open("BENCHMARK.json"))

def load(side, pair):
    if kind == "end_to_end":
        return json.load(open(f"{runs}/{side}.{workload}.{pair}.json"))
    return json.loads(open(f"{runs}/{side}.{workload}.traced{pair}.out").read().splitlines()[-1])

for pair in left_out:
    print(f"  traced pair {pair} left out: a side exited non-zero")
kept = [p for p in range(1, pairs + 1) if p not in left_out]
if not kept:
    print("  no traced pair left")
    sys.exit()
pairs = len(kept)
side = {s: [load(s, p) for p in kept] for s in ("parent", "change")}
# Column widths: metric name, unit, one side's median and quartiles.
name_w, unit_w, side_w = (16, 5, 38) if kind == "end_to_end" else (38, 6, 42)

def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3

# A per-layer verdict needs ten pairs (see the header).
layer_verdicts = kind == "end_to_end" or pairs >= 10

def row(name, unit, higher, bound):
    parent = [r["metrics"][name]["value"] for r in side["parent"]]
    change = [r["metrics"][name]["value"] for r in side["change"]]
    ratio, won, _, verdict = history.verdict(parent, change, higher, bound)
    if verdict in ("gain", "worse") and not layer_verdicts:
        verdict = "-"
    if verdict == "REGRESSION":
        verdict = f"REGRESSION (bound {bound})"
    elif verdict == "worse" and bound is not None:
        verdict = f"worse, within bound {bound}"
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
    fmt = lambda m, a, b: f"{m:.6g} [{a:.6g}, {b:.6g}]"
    print(f"{name:<{name_w}}{unit:<{unit_w}}{fmt(pm, pq1, pq3):<{side_w}}"
          f"{fmt(cm, cq1, cq3):<{side_w}}{ratio:>7.3f}  {won:>2}/{pairs}  {verdict}")

def header():
    print(f"{'metric':<{name_w}}{'unit':<{unit_w}}{'parent median [q1, q3]':<{side_w}}"
          f"{'change median [q1, q3]':<{side_w}}{'ratio':>7}  won  verdict")

if kind == "end_to_end":
    print(f"\n== {workload} (seed {seed}, {pairs} pairs) ==")
    for s, results in side.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        wrong = sum(not r["correct"] for r in results)
        print(f"{s}: failed {failed} of {attempted} attempted, {wrong} runs with a wrong answer")
    header()
    for metric in bench["end_to_end"]:
        row(metric["name"], metric["unit"], metric["better"] == "higher", metric["bound"])
    sys.exit()

layers = re.compile(
    r"storage\.scan_gb_s|core\..*\.(first_query_ms|cold_total_s|op_max_ms|ops_to_converge)"
    r"|driver\.ops_to_last_shard"
    r"|core\.(refine_steps|bytes_moved|merge_steps)"
    r"|core\.mutation\.(apply_us|merge_s|sidecar_query_us)"
    r"|engine\.executor\.(shards_reopened|overhead_us)"
    r"|engine\.multicol\.execute_us|engine\.kind_share\.conjunction"
    r"|engine\.planner\.survivors_per_result"
    r"|storage\.btree\.range_us|storage\.btree_lookup_ns|core\.index\.query_us"
    r"|driver\.peel_min_self_share"
    r"|durable\.snapshot\.encode_ms|engine\.durability\.(checkpoint_ms|apply_us)"
    r"|durable\.recover_s|durable\.wal\.append_us"
    r"|engine\.executor\.digest_hits_per_query|engine\.typed\.string_query_us"
    r"|engine\.multicol\.grouped_(fresh|cached)_us|engine\.kind_share\.grouped"
    r"|engine\.agg\.cache_hit_ratio|storage\.digest_tree_build_ms")
names = [n for n in side["parent"][0]["metrics"] if layers.fullmatch(n)]
if pairs == 1:
    for s, (run,) in side.items():
        for name in names:
            metric = run["metrics"][name]
            print(f"  {s:<7} {name:<38} {metric['value']:.6g} {metric['unit']}")
    sys.exit()
higher = {m["name"]: m["better"] == "higher" for m in bench["per_layer"]}
header()
for name in names:
    row(name, side["parent"][0]["metrics"][name]["unit"], higher.get(name, False), None)
if not layer_verdicts:
    print(f"  no gain or worse on {pairs} pairs: a per-layer verdict needs ten (TRACE_PAIRS=10)")
EOF
}

first=${workloads%%[, ]*}
echo "building both sides (one untimed run each)" >&2
run parent "$first" warmup
run change "$first" warmup
rm "$work"/runs/*.warmup.json

for workload in ${workloads//,/ }; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$workload" "$pair"
            record "$side" "$workload" "$pair" "$work/runs/$side.$workload.$pair.json"
        done
        echo "$workload: pair $pair/$pairs done ($order)" >&2
    done

    summarise end_to_end "$workload" "$pairs"

    if [ "$trace_pairs" -eq 1 ]; then
        echo "per layer (one --trace 1 run per side):"
    else
        echo "per layer ($trace_pairs alternating --trace 1 pairs):"
    fi
    left_out=""
    for pair in $(seq 1 "$trace_pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            traced=$work/runs/$side.$workload.traced$pair.out
            status=0
            (cd "$work/$side" && "${command[@]}" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 1) >"$traced" || status=$?
            if [ "$status" -ne 0 ]; then
                echo "$side side, $workload, traced pair $pair: pibench exited $status" >&2
                left_out="$left_out $pair"
            fi
            record "$side" "$workload" traced "$traced" ||
                echo "$side side, $workload, traced pair $pair: no run to record" >&2
        done
        if [ "$trace_pairs" -gt 1 ]; then
            echo "$workload: traced pair $pair/$trace_pairs done ($order)" >&2
        fi
    done
    summarise per_layer "$workload" "$trace_pairs" "$left_out"
done
