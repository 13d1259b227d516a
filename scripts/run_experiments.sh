#!/bin/bash
# Regenerate every experiment in EXPERIMENTS.md.
# Total runtime on a single modern core: roughly 1-2 hours (the Figure 4
# sweep and the T-XXL headline run dominate). Results land in results/*.csv,
# logs in results/logs/, figures in results/figures/.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p uts-bench -p uts-viz
mkdir -p results/logs
B=./target/release

$B/table_seq        | tee results/logs/table_seq.log
$B/fig3             | tee results/logs/fig3.log
$B/scale_eff        > results/logs/scale_eff.log
$B/ablation         > results/logs/ablation.log
$B/working_state    > results/logs/working_state.log
$B/hier             > results/logs/hier.log
$B/pushing_cmp      > results/logs/pushing.log
$B/diffusion        > results/logs/diffusion.log
$B/poll_sweep       > results/logs/poll_sweep.log
$B/tree_family      > results/logs/tree_family.log
$B/model_check      > results/logs/model_check.log
$B/policy_grid      > results/logs/policy_grid.log
$B/dag_sweep        > results/logs/dag_sweep.log
$B/service          > results/logs/service.log
$B/fig4             > results/logs/fig4.log
$B/fig5             > results/logs/fig5.log
$B/fig6 --tree l    > results/logs/fig6_l.log
# Headline: ~8 minutes of simulation on the 88.9M-node tree.
$B/fig5 --tree xxl --alg distmem --min-threads 256 > results/logs/headline_xxl.log
$B/render_figs
echo "all experiments complete"
