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
# (`fn maybe_release`), only sched::drive's helper says when and how many
# (the placement wrapper only hands the call on to the transport it wraps).
if grep -rn '\.maybe_release(' crates/core/src |
  grep -vE '^crates/core/src/sched/mod.rs:|^crates/core/src/sched/placement.rs:.*self\.inner\.maybe_release\('; then
  echo "maybe_release is called outside crates/core/src/sched/mod.rs" >&2; exit 1
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
# A frozen-table row pastes into uts_cli (a crash row: a kill inside a
# partition, then a restart).
cargo build --release --offline -p uts-bench --bin uts_cli
./target/release/uts_cli --spec 'topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4 faults=partitioned(8)' \
  --expect-distinct 5635

echo "== SAFETY comments (crates/pgas/src) =="
# Every `unsafe {` block and `unsafe impl` in the crate that owns the fiber
# runtime must have a `// SAFETY:` comment directly above it (attribute lines
# in between are skipped).
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
' crates/pgas/src/*.rs

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

echo "== chaos smoke (fault, crash and membership sweeps; T-tiny and a DAG) =="
scripts/chaos_smoke.sh

echo "== results/service.csv is current =="
# Every column of the E17 sweep is virtual, so the committed CSV must equal a
# recomputation byte for byte (three rows once sat stale for eight PRs).
# chaos_smoke.sh has just built the binary; the sweep takes under 10 s.
./target/release/service --check

echo "== results/dag_sweep.csv is current =="
# The same for the E18 sweep (≈15 s): every column but the last, wall-clock
# one must equal a recomputation, and every recomputed row passes conservation
# and the O(p·D) steal bound or the binary aborts.
./target/release/dag_sweep --check

echo "== every other results/*.csv is current =="
# The eleven files the experiment table owns (EXPERIMENTS.md E2-E5, E9-E13,
# E16): `exp --check` recomputes each entry and exits 1, naming file and line,
# at the first virtual column that differs from the committed CSV. About two
# minutes on a 2-vCPU host, most of it the two Figure 5 trees.
cargo build --release --offline -p uts-bench --bin exp
./target/release/exp --check

echo "CI OK"
