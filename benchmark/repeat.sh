#!/usr/bin/env bash
# Repeatability: N full sets, then per (metric, workload) the median, the
# quartiles and the relative spread, with every end-to-end pair whose
# spread exceeds its BENCHMARK.json bound flagged.
#
#   benchmark/repeat.sh N [--seed BASE] [other run.sh flags, e.g. --trace 0]
#
# Set i runs with seed BASE+i (default BASE = 1), like the driver's
# ten-seed check. Sets land in benchmark/out/set_<i>.json and the summary
# in benchmark/out/repeat.json; benchmark/results/seed.json is a committed
# copy of one such summary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [--seed BASE] [run.sh flags]}"
shift
base=1
pass=()
while [[ $# -gt 0 ]]; do
    if [[ "$1" == "--seed" ]]; then
        base="$2"
        shift 2
    else
        pass+=("$1")
        shift
    fi
done

sets=()
for ((i = 0; i < n; i++)); do
    echo "### set $((i + 1)) of $n (seed $((base + i)))" >&2
    # A set with failed requests exits 1 but still writes its result.
    "$here/run.sh" --seed "$((base + i))" "${pass[@]}" || echo "### set $((i + 1)) reported failures" >&2
    mv "$here/out/result.json" "$here/out/set_$i.json"
    sets+=("$here/out/set_$i.json")
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
"$CARGO_TARGET_DIR/release/ledger-harness" summarize "$here/../BENCHMARK.json" "${sets[@]}"
