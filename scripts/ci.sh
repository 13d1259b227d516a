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

echo "== cargo test -q =="
cargo test -q

echo "== SHA-1 kernels =="
# The root package's tests above do not include the member crates' own: run
# the ones that call each SHA-1 kernel directly and check `Node::child` /
# `Node::children` against the streaming definition.
cargo test -q -p uts-sha1 -p uts-tree
# Then print which kernel this log's numbers came from, beside the host's
# `sha` detection; the test fails if the dispatch fell back to the portable
# kernel on a host that has the SHA extensions.
cargo test -q -p uts-sha1 -- --nocapture selected_kernel

echo "== pgas unit tests (fiber arena, conductors) =="
# Same reason: the stack-arena, guard-page and conductor unit tests live in
# the member crate.
cargo test -q -p pgas

echo "== scheduler core + mpisim unit and integration tests =="
# Same again: worksteal's unit tests, crates/core/tests/*.rs and mpisim's
# run nowhere else.
cargo test -q -p worksteal -p mpisim
# One worker driver: sched::drive is the only function that enters Working.
[ "$(grep -rF 'cx.enter(comm, State::Working)' crates/core/src | wc -l)" -eq 1 ] ||
  { echo "more than one function enters State::Working under crates/core/src" >&2; exit 1; }

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

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

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
# Generated outputs that are legitimately absent from a clean tree.
generated="BENCH_conductor.json"
# Paths under a source directory, plus back-ticked root-level files.
paths=$(
  grep -hoE '(crates|tests|scripts|examples|src|docs|results)/[A-Za-z0-9_/.-]+\.(rs|sh|csv|md|toml|svg|json|log)' $docs
  grep -hoE '`[A-Za-z0-9_.-]+\.(md|txt|json|toml|sh)`' $docs | tr -d '`'
)
for p in $(echo "$paths" | sort -u); do
  case " $generated " in *" $p "*) continue ;; esac
  if [ ! -e "$p" ]; then
    echo "doc drift: referenced path $p does not exist" >&2
    exit 1
  fi
done

echo "== chaos smoke (fault + crash sweeps) =="
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

echo "CI OK"
