#!/usr/bin/env bash
# The perf ledger's one command.
#
#   benchmark/run.sh [--seed S]                 full set: every workload, untraced then
#                                               traced; every metric printed by name and
#                                               unit; benchmark/out/result.json written
#   benchmark/run.sh --smoke                    the same on the `tiny` dataset with
#                                               1-second windows (self-test, < 30 s)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                               one run; the last line of stdout is the
#                                               one-line JSON result (driver contract)
#
# Builds the release `wikisearch` binary and the harness from source first
# (into $CARGO_TARGET_DIR, default benchmark/target). The library probe is
# built only when a traced run will need it, and a probe that no longer
# compiles does not stop the run: its metrics are reported as null.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
manifest="$here/Cargo.toml"
out="$here/out"
mkdir -p "$out"

# Tracing is needed unless the caller asked for `--trace 0`.
want_probe=1
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "0" ]]; then want_probe=0; fi
    prev="$arg"
done

cargo build --release --offline --quiet --manifest-path "$manifest" \
    -p wikisearch-cli -p ledger-harness >&2

probe_args=()
if [[ "$want_probe" == 1 ]]; then
    if cargo build --release --offline --quiet --manifest-path "$manifest" \
        -p ledger-layers 2>"$out/layers_build.err"; then
        probe_args=(--layers "$CARGO_TARGET_DIR/release/ledger-layers")
    else
        echo "run.sh: benchmark/layers did not build; library metrics will be null" >&2
        cat "$out/layers_build.err" >&2
        probe_args=(--layers-error "$out/layers_build.err")
    fi
fi

exec "$CARGO_TARGET_DIR/release/ledger-harness" \
    --bin "$CARGO_TARGET_DIR/release/wikisearch" --out "$out" "${probe_args[@]}" "$@"
