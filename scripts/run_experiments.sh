#!/bin/bash
# Regenerate every experiment in EXPERIMENTS.md: each entry of `exp --list`
# (E1-E16, E18's ready-wait probe), then the service and DAG sweeps (E17,
# E18), then the figures.
# Measured total on a 2-vCPU host: about 2 minutes (the two Figure 5 trees
# and the Figure 4 sweep are over half of it). Results land in results/*.csv, logs
# in results/logs/<name>.log, figures in results/figures/. To ask whether the
# committed CSVs are still what the code computes, without writing anything:
# `exp --check`, `service --check`, `dag_sweep --check` (scripts/ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p uts-bench -p uts-viz
mkdir -p results/logs
B=./target/release

for name in $($B/exp --list | cut -d' ' -f1); do
  $B/exp "$name" > "results/logs/$name.log"
done
$B/dag_sweep > results/logs/dag_sweep.log
$B/service   > results/logs/service.log
$B/render_figs
echo "all experiments complete"
