#!/bin/bash
# CI smoke for the fault-injection chaos soak (docs/faults.md §6).
#
# Runs a bounded sweep of seeded fault schedules across all five paper
# algorithms on T-tiny with the steal timeout armed, then a crash-class
# sweep (message loss/duplication + rank death) checked for conservation
# with multiplicity, then a membership sweep (docs/faults.md §8: healing
# partitions, gray stalls, kills, restarts) checked for conservation with
# multiplicity in batch mode, bit-identity on a reference-conductor
# subset, and zero lost requests in service mode. The crash and membership
# sweeps run every plan on a small layered task DAG too, whose ready tasks
# travel to their owners as lineage-tracked hand-offs; it must conserve
# with multiplicity on both conductors. Each seeded run must
# terminate with the exact sequential node count; the binary exits
# nonzero on any conservation or termination violation, printing each
# as a paste-ready `uts_cli --spec '<line>' --expect-distinct N` — the run
# spec the sweep ran, so the line replays it on either conductor. A
# livelocked run runs out of fuel and panics (docs/faults.md §5); the
# wall-clock budget bounds the sweep, failing one that terminates too
# slowly. Sized for a tier-1 time budget: the default 50+50+50-schedule
# sweep completes in a few seconds.
#
# Extra arguments are passed through to the chaos binary, e.g.:
#   scripts/chaos_smoke.sh --schedules 200 --tree s --threads 64
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline -p uts-bench --bin chaos --bin exp
mkdir -p results/logs
./target/release/chaos --schedules 50 --membership-schedules 50 \
  --threads 16 --budget-s 120 \
  "$@" | tee results/logs/chaos_smoke.log

# Service-mode smoke (docs/service.md): a low-rate arrival stream on a
# locked and a message bundle, fault-free and under a crash plan; asserts
# every request completes and per-epoch conservation holds.
./target/release/exp service_smoke | tee results/logs/service_smoke.log

# DAG-workload smoke (docs/workloads.md, EXPERIMENTS.md E18): shrunken DAG
# families plus the tree baseline through one bundle per transport, with
# the steal-bound and conservation theory checks asserted on every row
# (the entry panics on any violation, naming the line that replays the row).
# The smoke entries own no CSV.
./target/release/exp dag_sweep_smoke | tee results/logs/dag_sweep_smoke.log
