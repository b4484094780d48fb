#!/usr/bin/env bash
# Runs each deterministic report twice with `--json` and byte-compares
# the two reports once host-time keys are removed: the five gates, and
# the three reproduction bins that print the paper's tables. Everything
# else a report holds (outcome counts, modeled cycles, divergences,
# facts, table rows) must regenerate byte for byte.
#
# Usage: scripts/reproducible.sh [report-dir]
# Writes <bin>.{1,2}.json (filtered) into report-dir (default: a fresh
# temporary directory) and exits non-zero naming every bin whose two
# reports differ, or whose run fails.
set -euo pipefail
cd "$(dirname "$0")/.."

GATES=(fault_campaign analyze_gate conformance_sweep chaos_campaign service_load
    representations dtb_design section7)

# The host wall-clock keys, the only fields allowed to differ between two
# runs of one binary; removed at any depth of the report.
HOST_TIME_FILTER='walk(if type == "object" then del(.p99_ns, .wall_ns, .minstr_per_sec) else . end)'

out="${1:-$(mktemp -d)}"
mkdir -p "$out"
cargo build -q --release -p uhm-bench $(printf -- '--bin %s ' "${GATES[@]}")

fail=0
for gate in "${GATES[@]}"; do
    for run in 1 2; do
        if ! "target/release/$gate" --json | jq -c "$HOST_TIME_FILTER" >"$out/$gate.$run.json"; then
            echo "reproducible: $gate: run $run failed" >&2
            fail=1
            continue 2
        fi
    done
    if cmp -s "$out/$gate.1.json" "$out/$gate.2.json"; then
        echo "reproducible: $gate: identical"
    else
        echo "reproducible: $gate: the two reports differ ($out/$gate.{1,2}.json)" >&2
        fail=1
    fi
done
exit "$fail"
