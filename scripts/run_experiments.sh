#!/bin/bash
# Regenerate every experiment in EXPERIMENTS.md: each entry of `exp --list`
# (E1-E19, the chaos soaks, the conductor bench and the CI-sized smokes
# included), then the figures.
# Measured total on a 2-vCPU host: about 3 minutes (the two Figure 5 trees,
# the Figure 4 sweep and the p=8192 cell, ≈ 1 min and ≈ 0.38 GB resident on
# its own, are over half of it), plus ≈ 2.5 min for `chaos_kill`, whose first
# crash plan runs out of fuel (EXPERIMENTS.md §"Crash soak and kill-rate
# sweep"). Results land in results/*.csv, logs in
# results/logs/<name>.log, figures in results/figures/. To ask whether the
# committed CSVs are still what the code computes, without writing anything:
# `exp --check` (scripts/ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p uts-bench -p uts-viz
mkdir -p results/logs
B=./target/release

# An entry that fails (it names the `uts_cli --spec` line that replays the
# failing run) does not stop the others; the script fails at the end.
failed=""
for name in $($B/exp --list | cut -d' ' -f1); do
  $B/exp "$name" > "results/logs/$name.log" || failed="$failed $name"
done
$B/render_figs
[ -z "$failed" ] || { echo "failed entries:$failed" >&2; exit 1; }
echo "all experiments complete"
