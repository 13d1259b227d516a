//! Qualitative paper claims, asserted as tests. These check *shape*, not
//! absolute numbers: who uses locks, who wins where, which costs dominate.

use uts_dlb::tree::presets;
use uts_dlb::worksteal::spec::algorithm_name;
use uts_dlb::worksteal::state::State;
use uts_dlb::worksteal::{Algorithm, RunReport, RunSpec};

/// T-S under `alg` on `threads` threads of `machine` with chunk size `k`,
/// counted exactly.
fn run(alg: Algorithm, machine: &str, threads: usize, k: usize) -> RunReport {
    let line = format!("{machine} p={threads} tree=s alg={} k={k}", algorithm_name(alg));
    let report = line.parse::<RunSpec>().unwrap().run();
    assert_eq!(report.total_nodes, presets::t_s().expected.nodes, "{line}");
    report
}

/// §3.3.3: "no locking of the DFS stack is required" — the lock-less
/// variants must issue exactly zero lock operations; the locked variants
/// must issue plenty.
#[test]
fn lockless_claim() {
    for alg in [Algorithm::DistMem, Algorithm::Hier, Algorithm::MpiWs] {
        let totals = run(alg, "kittyhawk", 8, 4).totals();
        assert_eq!(
            totals.comm.lock_acquires + totals.comm.lock_failures + totals.comm.unlocks,
            0,
            "{} must be lock-free",
            alg.label()
        );
    }
    for alg in [Algorithm::SharedMem, Algorithm::Term, Algorithm::TermRapdif] {
        let totals = run(alg, "kittyhawk", 8, 4).totals();
        assert!(
            totals.comm.lock_acquires > 0,
            "{} is supposed to lock its stack",
            alg.label()
        );
    }
}

/// §3.3.3: servicing a steal request costs the victim two remote writes —
/// so total puts must cover 2 per serviced request (plus cheap local
/// bookkeeping writes).
#[test]
fn distmem_service_cost_budget() {
    let report = run(Algorithm::DistMem, "kittyhawk", 8, 4);
    let totals = report.totals();
    assert!(totals.requests_serviced > 0, "no steal traffic at all");
    assert!(
        totals.comm.puts >= 2 * totals.requests_serviced,
        "response protocol must write offset+amount per grant"
    );
}

/// §3.3.2 rapid diffusion: with steal-half, each successful steal moves at
/// least as many chunks on average as the steal-one variant, and
/// strictly more in aggregate on an imbalanced tree.
#[test]
fn rapid_diffusion_moves_more_chunks_per_steal() {
    let one = run(Algorithm::Term, "kittyhawk", 16, 2).totals();
    let half = run(Algorithm::TermRapdif, "kittyhawk", 16, 2).totals();
    let one_avg = one.chunks_stolen as f64 / one.steals_ok.max(1) as f64;
    let half_avg = half.chunks_stolen as f64 / half.steals_ok.max(1) as f64;
    assert!(
        (one_avg - 1.0).abs() < 1e-9,
        "steal-one moved {one_avg} chunks per steal"
    );
    assert!(
        half_avg > 1.0,
        "steal-half averaged only {half_avg} chunks per steal"
    );
}

/// §4.2 (Figure 4 shape): on the cluster model at scale, the distributed
/// algorithm beats the shared-memory algorithm decisively at small chunk
/// sizes.
#[test]
fn distmem_beats_sharedmem_on_cluster_at_small_chunks() {
    let distmem = run(Algorithm::DistMem, "kittyhawk", 16, 2);
    let sharedmem = run(Algorithm::SharedMem, "kittyhawk", 16, 2);
    assert!(
        distmem.makespan_ns * 2 < sharedmem.makespan_ns,
        "expected ≥2x gap, got distmem {} vs sharedmem {}",
        distmem.makespan_ns,
        sharedmem.makespan_ns
    );
}

/// §4.3 (Figure 6 shape): on the low-latency Altix model both UPC variants
/// are close — within a factor 1.5 of each other at moderate scale.
#[test]
fn sharedmem_competitive_on_altix() {
    let distmem = run(Algorithm::DistMem, "altix", 8, 8);
    let sharedmem = run(Algorithm::SharedMem, "altix", 8, 8);
    let ratio = sharedmem.makespan_ns as f64 / distmem.makespan_ns as f64;
    assert!(
        ratio < 1.5,
        "sharedmem should be competitive on shared memory (ratio {ratio:.2})"
    );
}

/// Working state dominates at moderate scale (the work-first principle is
/// working): most thread-time goes to Working, and the useful-work share of
/// Working time is high.
#[test]
fn working_state_dominates() {
    let report = run(Algorithm::DistMem, "kittyhawk", 8, 8);
    assert!(
        report.state_fraction(State::Working) > 0.5,
        "working fraction {}",
        report.state_fraction(State::Working)
    );
    assert!(
        report.working_state_efficiency() > 0.8,
        "working-state efficiency {}",
        report.working_state_efficiency()
    );
}

/// Steals actually happen and are reported coherently: successful steals
/// moved at least one chunk each; failures don't move anything.
#[test]
fn steal_accounting_coherent() {
    let report = run(Algorithm::DistMem, "smp", 8, 2);
    let totals = report.totals();
    assert!(totals.steals_ok > 0);
    assert!(totals.chunks_stolen >= totals.steals_ok);
    // Thread 0 starts with the root; the others' nodes arrived by theft.
    let others: u64 = report.per_thread[1..].iter().map(|t| t.nodes).sum();
    assert!(others > 0, "no distribution happened");
}
