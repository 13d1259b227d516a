#!/bin/bash
# Regenerate every experiment in EXPERIMENTS.md: each entry of `exp --list`
# (E1-E19, the CI-sized smokes included), then the figures.
# Measured total on a 2-vCPU host: about 3 minutes (the two Figure 5 trees,
# the Figure 4 sweep and the p=8192 cell, ≈ 1 min and ≈ 0.38 GB resident on
# its own, are over half of it). Results land in results/*.csv, logs in
# results/logs/<name>.log, figures in results/figures/. To ask whether the
# committed CSVs are still what the code computes, without writing anything:
# `exp --check` (scripts/ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p uts-bench -p uts-viz
mkdir -p results/logs
B=./target/release

for name in $($B/exp --list | cut -d' ' -f1); do
  $B/exp "$name" > "results/logs/$name.log"
done
$B/render_figs
echo "all experiments complete"
