#!/usr/bin/env bash
# Alternating parent/change runs of the host ledger on one or more
# workloads: the protocol a claimed host-time gain is measured with.
#
# Usage: scripts/ledger_pairs.sh <parent-rev> <workload[,workload...]|all> [pairs]
#
# Checks out <parent-rev> as a temporary git worktree, builds the ledger
# there and in this checkout (once each), then runs [pairs] (default 10)
# pairs. A pair runs every listed workload in turn, each on both ledgers,
# with the `run_seconds` from BENCHMARK.json (override with
# LEDGER_SECONDS). Odd pairs run the parent's ledger first, even pairs
# this checkout's, so drift within a pair does not always favour one
# side. `all` lists every workload BENCHMARK.json declares; an unknown
# name exits 2. For each workload and every end-to-end metric it prints
# each side's median and quartiles, the ratio of the medians (change /
# parent), in how many pairs the change was better (a tie counts for
# neither side) and whether a claimed gain on that metric would hold:
# `claim` reads `met` when the change wins at least 9 in 10 of the pairs
# and its median is better than the parent's by more than the parent's
# interquartile range, and `not met` otherwise. The worktree is removed
# on exit.
set -euo pipefail

usage="usage: scripts/ledger_pairs.sh <parent-rev> <workload[,workload...]|all> [pairs]"
if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "$usage" >&2
    exit 2
fi
rev="$1"
pairs="${3:-10}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "pairs must be a positive integer, not '$pairs'" >&2
    exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
seconds="${LEDGER_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
declared="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
if [[ "$2" == all ]]; then
    read -ra workloads <<<"$declared"
else
    IFS=, read -ra workloads <<<"$2"
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
    echo "$usage" >&2
    exit 2
fi
for w in "${workloads[@]}"; do
    if ! [[ " $declared " == *" $w "* ]]; then
        echo "unknown workload '$w' (one of: $declared, or all)" >&2
        exit 2
    fi
done
manifest="crates/bench/src/bin/host_ledger/Cargo.toml"
ledger="crates/bench/src/bin/host_ledger/target/release/host_ledger"

tmp="$(mktemp -d)"
cleanup() {
    git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --detach "$tmp/parent" "$rev" >/dev/null
echo "building the parent ($rev) and the change ..." >&2
cargo build --quiet --release --offline --manifest-path "$tmp/parent/$manifest"
cargo build --quiet --release --offline --manifest-path "$root/$manifest"

for i in $(seq 1 "$pairs"); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for workload in "${workloads[@]}"; do
        for side in $order; do
            if [[ $side == parent ]]; then bin="$tmp/parent/$ledger"; else bin="$root/$ledger"; fi
            # A run of one workload ends with its one JSON result line.
            "$bin" --workload "$workload" --seconds "$seconds" --trace 0 | tail -1 \
                >>"$tmp/$side.$workload.jsonl"
        done
    done
    echo "pair $i/$pairs done" >&2
done

for workload in "${workloads[@]}"; do
python3 - "$root/BENCHMARK.json" "$tmp/parent.$workload.jsonl" "$tmp/change.$workload.jsonl" "$workload" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
parent = [json.loads(l) for l in open(sys.argv[2])]
change = [json.loads(l) for l in open(sys.argv[3])]
workload = sys.argv[4]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"workload {workload}: {len(parent)} pairs "
      f"(odd pairs parent first, even pairs change first)")
for side, runs in (("parent", parent), ("change", change)):
    bad = sum(1 for r in runs if not r["correct"])
    if bad:
        print(f"WARNING: {bad} {side} runs were not correct")
print(f"{'metric':<28} {'unit':<12} {'parent median [q1, q3]':<34} "
      f"{'change median [q1, q3]':<34} {'ratio':>7} {'wins':>6}  claim")
for metric in bench["end_to_end"]:
    name, better = metric["name"], metric["better"]
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    pq, cq = quartiles(p), quartiles(c)
    if better == "lower":
        wins = sum(1 for a, b in zip(p, c) if b < a)
        gain = pq[1] - cq[1]
    else:
        wins = sum(1 for a, b in zip(p, c) if b > a)
        gain = cq[1] - pq[1]
    met = wins * 10 >= 9 * len(p) and gain > pq[2] - pq[0]
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{name:<28} {metric['unit']:<12} {fmt(pq):<34} {fmt(cq):<34} "
          f"{ratio:>7.3f} {wins:>3}/{len(p)}  {'met' if met else 'not met'}")
EOF
echo
done
