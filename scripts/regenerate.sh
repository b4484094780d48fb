#!/usr/bin/env bash
# Regenerates every experiment output of the reproduction into results/.
# Usage: scripts/regenerate.sh [results-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results}"
mkdir -p "$out"
bins=(representations dtb_design section7)
for b in "${bins[@]}"; do
    echo "== $b =="
    cargo run -q -p uhm-bench --bin "$b" --release | tee "$out/$b.txt"
done
echo "All outputs written to $out/"
