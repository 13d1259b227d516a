#!/usr/bin/env bash
# Build the benchmark and run a set, or compare two sets.
#
#   bench/run.sh NAME [--runs 10] [--seconds 10] [--smoke]   -> bench/runs/NAME/
#   bench/run.sh --compare A B
#
# A single workload run (what BENCHMARK.json's command does) needs no script:
#   cargo run --release --offline --manifest-path bench/Cargo.toml -- \
#       --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    sed -n '2,9p' "$0"
    exit 2
fi
if [ "$1" != "--compare" ]; then
    set -- --set "$@"
fi
exec cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@"
