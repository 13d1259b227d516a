#!/usr/bin/env bash
# Repository CI gate: build, test, lint. Run from the repo root.
#
#   scripts/ci.sh
#
# Mirrors what reviewers run before merging; keep it green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q --workspace =="
# Tier-1's `cargo test -q` runs the root package only; the member crates' own
# unit and integration tests (SHA-1 kernels, the fiber arena and conductors,
# worksteal's crates/core/tests/*.rs, mpisim, the bench harness) run nowhere
# else.
cargo test -q --workspace
# Print which SHA-1 kernel this log's numbers came from, beside the host's
# `sha` detection; the test fails if the dispatch fell back to the portable
# kernel on a host that has the SHA extensions.
cargo test -q -p uts-sha1 -- --nocapture selected_kernel

echo "== sched shape =="
# One worker driver: sched::drive is the only function that enters Working.
[ "$(grep -rF 'cx.enter(comm, State::Working)' crates/core/src | wc -l)" -eq 1 ] ||
  { echo "more than one function enters State::Working under crates/core/src" >&2; exit 1; }
# One release policy, in the driver: a transport says how a chunk is released
# (`fn maybe_release`), only sched::drive's helper says when
# (the placement wrapper only hands the call on to the transport it wraps).
if grep -rn '\.maybe_release(' crates/core/src |
  grep -vE '^crates/core/src/sched/mod.rs:|^crates/core/src/sched/placement.rs:.*self\.inner\.maybe_release\('; then
  echo "maybe_release is called outside crates/core/src/sched/mod.rs" >&2; exit 1
fi
# One chunk per release decision: the driver asks the transport once per
# node, and k is the chunk size the run was configured with (no hint from
# the workload rewrites it).
[ "$(grep -cF '.maybe_release(' crates/core/src/sched/mod.rs)" -eq 1 ] ||
  { echo "crates/core/src/sched/mod.rs must call maybe_release exactly once" >&2; exit 1; }
if grep -rnE 'frontier_hint|max_frontier|clamp_release_to_frontier' crates/; then
  echo "the frontier clamp came back under crates/" >&2; exit 1
fi
# Victim order and steal amount are closed axes: enums, not traits.
if grep -rnE 'VictimSelector|trait StealPolicy' crates/; then
  echo "the victim-order / steal-amount axes grew a trait again" >&2; exit 1
fi
# Crash mode stays out of the message transports: it lives in the transfer
# ledger (recovery::Lineage) and the fenced envelope (recovery::Recovery),
# whose inbound half is the only place a message is dropped.
if grep -nE 'crash:|incarnation\(\)' crates/core/src/mpi_ws.rs crates/core/src/pushing.rs; then
  echo "a message transport knows about crash mode again" >&2; exit 1
fi
[ "$(grep -rF 'fenced_drops += 1' crates/core/src | wc -l)" -eq 1 ] ||
  { echo "fenced traffic must be dropped in exactly one place under crates/core/src" >&2; exit 1; }
# One hand-off send site: a ready task travels to its owner only from
# sched::placement::Placement::place, where the acknowledgement invariant is
# kept.
[ "$(grep -rF 'TAG_HANDOFF, ' crates/core/src | wc -l)" -eq 1 ] ||
  { echo "ready tasks must be handed off from exactly one site under crates/core/src" >&2; exit 1; }
# One livelock bound: fuel, compared in SimComm::op only — no loop-local
# watchdog, no env knob. (The bracketed letters keep this file from matching
# itself; bench/ is frozen and keeps a harmless entry in its env scrub list.)
if grep -rnE 'Watch[d]og|UTS_WATCH[D]OG' crates scripts tests; then
  echo "a watchdog came back; fuel (pgas::sim::FUEL_NS) bounds every loop" >&2; exit 1
fi
[ "$(grep -rnE '[<>]=? *FUEL_NS|FUEL_NS *[<>]' crates | cut -d: -f1)" = crates/pgas/src/sim.rs ] ||
  { echo "FUEL_NS must be compared in exactly one place, crates/pgas/src/sim.rs" >&2; exit 1; }
# A run is one line of text (worksteal::spec::RunSpec): the library reads no
# environment, the retired per-knob variables stay gone, and the harness
# reads its one override, UTS_OVERRIDE, in one place.
if grep -rlF 'std::env::var' crates/core/src; then
  echo "std::env::var under crates/core/src: the library reads no environment" >&2; exit 1
fi
if grep -rnE 'UTS_CHAO[S]_|UTS_STEAL_TIMEOUT_N[S]|UTS_SIM_REFERENC[E]' crates scripts tests; then
  echo "a retired UTS_* variable came back; a run takes UTS_OVERRIDE or a spec line" >&2; exit 1
fi
[ "$(grep -rnF 'env::var("UTS_OVERRIDE")' crates | cut -d: -f1)" = crates/bench/src/harness.rs ] ||
  { echo "UTS_OVERRIDE must be read exactly once, in crates/bench/src/harness.rs" >&2; exit 1; }
# One substrate per target: the reference conductor is a policy on the
# fibers, and the OS-thread substrate (the only user of a condvar in the
# crate) lives in one file, compiled where fibers are not and in pgas's tests.
[ "$(grep -rlF 'Condvar' crates/pgas/src)" = crates/pgas/src/sim/threads.rs ] ||
  { echo "Condvar under crates/pgas/src outside crates/pgas/src/sim/threads.rs" >&2; exit 1; }
# One scheduler for both substrates: who runs next is decided in the hub, the
# one place a ready queue lives; a substrate only switches.
[ "$(grep -rlF 'BinaryHeap' crates/pgas/src)" = crates/pgas/src/sim/hub.rs ] ||
  { echo "BinaryHeap under crates/pgas/src outside crates/pgas/src/sim/hub.rs" >&2; exit 1; }
# A DAG costs what its edges cost: the layered generator builds one flat CSR,
# so no per-task vector comes back (tests/dag_footprint.rs gates the heap).
if grep -nF 'Vec<Vec<' crates/core/src/workload.rs; then
  echo "a per-task Vec<Vec<..>> came back in crates/core/src/workload.rs" >&2; exit 1
fi
# One experiment table: every run the repo makes (the sweeps, the chaos soaks,
# the conductor bench) is an entry of crates/bench/src/exp.rs, not a binary of
# its own, and rows leave through one emit call there.
[ "$(ls crates/bench/src/bin | tr '\n' ' ')" = "exp.rs uts_cli.rs " ] ||
  { echo "crates/bench/src/bin holds more than exp and uts_cli" >&2; exit 1; }
[ "$(grep -rlF '.emit(' crates/bench/src)" = crates/bench/src/exp.rs ] ||
  { echo "rows must leave through Sink::emit in crates/bench/src/exp.rs only" >&2; exit 1; }
# A frozen-table row pastes into uts_cli (a crash row: a kill inside a
# partition, then a restart).
cargo build --release --offline -p uts-bench --bin exp --bin uts_cli
./target/release/uts_cli --spec 'topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4 faults=partitioned(8)' \
  --expect-distinct 5635
# The same kind of run on real threads is a config error (exit 2), not a panic.
status=0
./target/release/uts_cli --native --spec 'topsail p=2 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4 faults=crashy(3)' \
  >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "uts_cli --native with a crash plan exited $status, not 2" >&2; exit 1; }

# The conductor bench (docs/conductor.md §6): the benchmark ledger's three sim
# points on both policies, every virtual quantity asserted equal, with mail
# waits skipped on mpi-ws (§3.3) and probe-cycle reads applied by the
# conductor on upc-distmem (§3.4). About 6 s on a 2-vCPU host.
./target/release/exp conductor >/dev/null

echo "== SAFETY comments (crates/pgas/src) =="
# Every `unsafe {` block and `unsafe impl` in the crate that owns the fiber
# runtime, submodules included, must have a `// SAFETY:` comment directly
# above it (attribute lines in between are skipped).
awk '
  FNR == 1 { n = 0 }
  { line[++n] = $0 }
  /unsafe \{|unsafe impl/ && $0 !~ /^[[:space:]]*\/\// {
    ok = 0
    for (j = n - 1; j >= 1; j--) {
      if (line[j] ~ /^[[:space:]]*#\[/) continue
      if (line[j] !~ /^[[:space:]]*\/\//) break
      if (line[j] ~ /SAFETY/) { ok = 1; break }
    }
    if (!ok) { printf "%s:%d: unsafe without a SAFETY comment directly above\n", FILENAME, FNR; bad = 1 }
  }
  END { exit bad }
' $(find crates/pgas/src -name '*.rs' | sort)

echo "== bench/ build + tests =="
# The benchmark is a package of its own, outside the workspace, reaching the
# crates through their public API only: build and test it here so an API
# removal that breaks it fails CI rather than the acceptance run.
cargo build --release --offline --manifest-path bench/Cargo.toml
cargo test --release --offline --manifest-path bench/Cargo.toml

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== doc drift =="
# Every design note must be reachable from the README, and every concrete
# file path a doc mentions must exist — stale references fail the build.
for doc in docs/*.md; do
  if [ "$doc" != "docs/README.md" ] && ! grep -q "$(basename "$doc")" README.md docs/README.md; then
    echo "doc drift: $doc is not linked from README.md or docs/README.md" >&2
    exit 1
  fi
done
docs="docs/*.md README.md DESIGN.md EXPERIMENTS.md"
# Paths under a source directory, plus back-ticked root-level files.
paths=$(
  grep -hoE '(crates|tests|scripts|examples|src|docs|results)/[A-Za-z0-9_/.-]+\.(rs|sh|csv|md|toml|svg|json|log)' $docs
  grep -hoE '`[A-Za-z0-9_.-]+\.(md|txt|json|toml|sh)`' $docs | tr -d '`'
)
for p in $(echo "$paths" | sort -u); do
  if [ ! -e "$p" ]; then
    echo "doc drift: referenced path $p does not exist" >&2
    exit 1
  fi
done

echo "== every example runs =="
# Each file in examples/ is a program with its own asserts (termination_stress
# is a 700-run conservation grid); all eight take well under a second in
# release.
cargo build --release --offline --examples
for example in examples/*.rs; do
  ./target/release/examples/"$(basename "$example" .rs)" >/dev/null
done

echo "== chaos, service and DAG smokes =="
# The chaos soak (docs/faults.md): seeded, crash and membership plans across
# the five paper algorithms on T-tiny and a small layered DAG, every run
# conserving with multiplicity; the service smoke (docs/service.md); the DAG
# smoke (docs/workloads.md), every row theory-checked. Each fails at its first
# violation, naming the `uts_cli --spec` line that replays it.
mkdir -p results/logs
for name in chaos_smoke service_smoke dag_sweep_smoke; do
  ./target/release/exp "$name" | tee "results/logs/$name.log"
done

echo "== the E18 ready-wait probe runs =="
# The committed instrumentation behind E18's ready-wait and critical-path
# tables (a few seconds): every bundle must run every task, and each run's
# critical path must add up to its makespan, or the entry panics.
./target/release/exp ready_wait

echo "== every results/*.csv is current =="
# The thirteen files the experiment table owns (EXPERIMENTS.md E2-E5, E9-E13,
# E16-E18): the check recomputes each entry and exits 1, naming file and
# line, at the first virtual column that differs from the committed CSV
# (service.csv has no wall-clock column, so it must match byte for byte). Every
# DAG-sweep row also passes conservation and the O(p·D) steal bound, and every
# service row per-epoch conservation, or the entry panics with the line that
# replays the row. About two minutes on a 2-vCPU host, most of it the two
# Figure 5 trees.
./target/release/exp --check

echo "== the same CSVs on the reference conductor =="
# The oracle is the naive policy on the same fibers, so every committed CSV
# is checked against it too: no virtual column may move. About five minutes
# on a 2-vCPU host.
UTS_OVERRIDE='conductor=reference' ./target/release/exp --check

echo "== the figures are current =="
# render_figs is deterministic, so the committed SVGs must be exactly what
# the committed CSVs render to.
cargo build --release --offline -p uts-viz
./target/release/render_figs >/dev/null
git diff --exit-code -- results/figures

echo "CI OK"
