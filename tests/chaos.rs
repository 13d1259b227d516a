//! Chaos property tests (docs/faults.md): random seeded fault schedules
//! across all five paper algorithms must never break node conservation or
//! termination, and the null plan must be invisible.
//!
//! - Every faulted run terminates (a livelock runs out of fuel and panics,
//!   docs/faults.md §5) and counts the tree exactly against a sequential
//!   traversal.
//! - [`FaultPlan::none()`] reproduces the fault-free run bit-for-bit — same
//!   makespan, same per-thread counters, same comm stats — in both
//!   conductor modes, so the fault layer costs nothing when disabled.
//! - The repro line the `chaos_smoke` entry of `exp` prints for a run reruns
//!   that run.

use pgas::{FaultPlan, MachineModel};
use uts_bench::chaos::{crash_faults, membership_faults, repro, DAG};
use uts_dlb::worksteal::spec::{Conductor, Workload};
use uts_dlb::worksteal::trace::Event;
use uts_dlb::worksteal::{
    run_sim, seq_run, Algorithm, DagWorkload, RandomLayered, RunConfig, RunReport, RunSpec, UtsGen,
    Wavefront,
};
use uts_tree::presets;
use uts_tree::spec::{GeoShape, TreeSpec};

/// Derive a pseudo-random but deterministic fault plan from `i` by
/// perturbing every knob of the stock seeded plan.
fn random_plan(i: u64) -> FaultPlan {
    let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    FaultPlan {
        seed: r,
        window_ns: 20_000 + (r % 7) * 45_000,
        spike_per_mille: (r >> 8) as u32 % 400,
        spike_mult_x16: 32 + ((r >> 16) as u32 % 8) * 64,
        stall_per_mille: (r >> 24) as u32 % 300,
        straggler_per_mille: (r >> 32) as u32 % 250,
        straggler_mult_x16: 32 + ((r >> 40) as u32 % 4) * 64,
        lock_mult_x16: 16 + ((r >> 48) as u32 % 4) * 16,
        ..FaultPlan::seeded(r)
    }
}

/// T-tiny on `p` kittyhawk threads with chunk size `k`.
fn tiny(alg: Algorithm, p: usize, k: usize) -> RunSpec {
    RunSpec { alg, ..format!("kittyhawk p={p} tree=tiny alg=distmem k={k}").parse::<RunSpec>().unwrap() }
}

/// Run `spec`: every node is explored at least once and every
/// re-exploration is counted, so `total - duplicates == expect`.
fn assert_conserves(spec: RunSpec, expect: u64) -> RunReport {
    let r = spec.run();
    assert_eq!(
        r.total_nodes - r.duplicate_nodes,
        expect,
        "{spec} lost nodes: total={} dup={} deaths={} evictions={} rejoins={}",
        r.total_nodes,
        r.duplicate_nodes,
        r.deaths,
        r.evictions,
        r.rejoins
    );
    r
}

fn faulted_sweep(tree: &str, schedules: u64, threads: usize) {
    let base: RunSpec = format!("kittyhawk p={threads} tree={tree} alg=distmem k=4 timeout=30000").parse().unwrap();
    let Workload::Tree(spec) = base.workload else { unreachable!("a tree spec") };
    let (expect, _) = seq_run(&UtsGen::new(spec));
    for alg in Algorithm::paper_set() {
        for i in 0..schedules {
            let spec = RunSpec { alg, faults: random_plan(i), ..base };
            assert_eq!(spec.run().total_nodes, expect, "{spec}: lost or duplicated nodes");
        }
    }
}

#[test]
fn chaos_t_tiny_all_algorithms() {
    faulted_sweep("tiny", 8, 8);
}

#[test]
fn chaos_t_s_all_algorithms() {
    faulted_sweep("s", 2, 8);
}

/// Field-by-field equality of two reports: virtual results and every
/// counter, ignoring only host wall-clock.
fn assert_bit_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.makespan_ns, b.makespan_ns, "{what}: makespan");
    assert_eq!(a.total_nodes, b.total_nodes, "{what}: nodes");
    assert_eq!(a.per_thread.len(), b.per_thread.len(), "{what}: threads");
    for (t, (x, y)) in a.per_thread.iter().zip(&b.per_thread).enumerate() {
        assert_eq!(x.nodes, y.nodes, "{what}: thread {t} nodes");
        assert_eq!(x.steals_ok, y.steals_ok, "{what}: thread {t} steals");
        assert_eq!(x.probes, y.probes, "{what}: thread {t} probes");
        assert_eq!(x.state_ns, y.state_ns, "{what}: thread {t} state clock");
        assert_eq!(x.comm, y.comm, "{what}: thread {t} comm stats");
        assert_eq!(
            x.comm.fault_ns, 0,
            "{what}: thread {t} charged fault time with no plan active"
        );
    }
}

/// `FaultPlan::none()` (explicit or default) changes nothing, in either
/// conductor mode.
#[test]
fn none_plan_is_bit_identical_in_both_conductor_modes() {
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    for alg in Algorithm::paper_set() {
        for lookahead in [true, false] {
            let mut base = RunConfig::new(alg, 2);
            base.sim_lookahead = lookahead;
            let mut with_none = base;
            with_none.faults = FaultPlan::none();
            let a = run_sim(MachineModel::kittyhawk(), 6, &gen, &base);
            let b = run_sim(MachineModel::kittyhawk(), 6, &gen, &with_none);
            assert_bit_identical(
                &a,
                &b,
                &format!("{} lookahead={lookahead}", alg.label()),
            );
        }
    }
}

/// Derive a deterministic *crash-class* plan from `i`: message loss and
/// duplication plus a guaranteed rank death at a pseudo-random virtual time
/// (kill rate 1000‰ sweeps the hard case on every iteration; the plain
/// `crashy()` rate is exercised by the proptest suite).
fn crash_plan(i: u64) -> FaultPlan {
    let r = i.wrapping_mul(0xD134_2543_DE82_EF95).rotate_left(23);
    FaultPlan {
        loss_per_mille: 20 + (r % 40) as u32,
        dup_per_mille: 20 + ((r >> 8) % 40) as u32,
        kill_per_mille: 1000,
        kill_min_ns: 30_000 + (r >> 16) % 100_000,
        kill_span_ns: 200_000,
        ..FaultPlan::crashy(r)
    }
}

/// Conservation *with multiplicity* (docs/faults.md): under crash faults —
/// lost grants, duplicated grants, and one guaranteed rank death per plan —
/// every node of the tree is explored at least once, and every re-explored
/// node is accounted as a duplicate, so `total - duplicates == tree size`.
#[test]
fn crash_faults_conserve_with_multiplicity() {
    let (expect, _) = seq_run(&UtsGen::new(presets::t_tiny().spec));
    for alg in Algorithm::paper_set() {
        for i in 0..6u64 {
            let report = assert_conserves(RunSpec { faults: crash_plan(i), ..tiny(alg, 8, 4) }, expect);
            assert!(report.deaths <= 1, "{} plan {i}: at most one rank dies per plan", alg.label());
        }
    }
}

/// A geometric tree under the same crash sweep: conservation-with-
/// multiplicity is a property of the recovery protocol, not of the binomial
/// law every other chaos case uses, whose root never draws its child count.
#[test]
fn geometric_trees_conserve_under_crash() {
    // A geometric root draws its child count too, so a seed can yield a
    // single-node tree: scan to the first non-degenerate instance.
    let mut spec = TreeSpec::geometric(5, 2.2, 6, GeoShape::Fixed);
    let expect = loop {
        let (expect, _) = seq_run(&UtsGen::new(spec));
        if expect > 30 {
            break expect;
        }
        spec.seed += 100;
    };
    for alg in Algorithm::paper_set() {
        for i in 0..3u64 {
            let workload = Workload::Tree(spec);
            assert_conserves(RunSpec { workload, faults: crash_plan(i), ..tiny(alg, 8, 4) }, expect);
        }
    }
}

/// DAG workloads under the crash and membership sweeps: each predecessor
/// executes at least once, so every count-up cell still crosses its
/// in-degree and every task is emitted, and every ready task handed to its
/// owner (`sched::placement`) is a lineage transfer — so a hand-off that is
/// lost, duplicated, fenced with an evicted owner or orphaned by a death is
/// re-emitted, and conservation-with-multiplicity holds (docs/workloads.md
/// §2.3). Vacuity guard: some hand-off is re-injected. On the shared-region
/// transports a hand-off is the only lineage transfer there is, so every
/// re-injection they trace is one.
#[test]
fn dag_crash_faults_conserve_with_multiplicity() {
    let wf = DagWorkload::new(Wavefront {
        rows: 8,
        cols: 6,
        seed: 13,
    });
    let rl = DagWorkload::new(RandomLayered::new(5, 8, 200, 11));
    let plans =
        (0..4u64).flat_map(|i| [("crash", crash_plan(i)), ("membership", membership_plan(i))]);
    let mut reinjected = 0u64;
    for (kind, plan) in plans {
        for alg in Algorithm::paper_set() {
            let mut cfg = RunConfig::new(alg, 4);
            cfg.faults = plan;
            // Membership plans run with a steal timeout, as every membership
            // test here does; crash plans keep the default (`None`).
            if kind == "membership" {
                cfg.steal_timeout_ns = Some(30_000);
            }
            cfg.trace = true;
            for (name, report, expect) in [
                ("wavefront", run_sim(MachineModel::kittyhawk(), 8, &wf, &cfg), wf.n_tasks()),
                ("layered", run_sim(MachineModel::kittyhawk(), 8, &rl, &cfg), rl.n_tasks()),
            ] {
                assert_eq!(
                    report.total_nodes - report.duplicate_nodes,
                    expect,
                    "{name}/{}/{kind} plan {:?} lost tasks: total={} dup={} deaths={} evictions={}",
                    alg.label(),
                    cfg.faults,
                    report.total_nodes,
                    report.duplicate_nodes,
                    report.deaths,
                    report.evictions
                );
                if alg != Algorithm::MpiWs {
                    reinjected += report
                        .per_thread
                        .iter()
                        .flat_map(|t| &t.events)
                        .filter(|e| matches!(e, Event::Reinject { .. }))
                        .count() as u64;
                }
            }
        }
    }
    assert!(reinjected > 0, "no hand-off was ever re-injected");
}

/// `spec` on the fiber and on the reference conductor: the same makespan,
/// deaths, evictions, rejoins, recovery and duplicates, and per thread the
/// same nodes, death and comm stats.
fn assert_conductors_agree(spec: RunSpec) {
    let (a, b) = (spec.run(), RunSpec { conductor: Conductor::Reference, ..spec }.run());
    let totals = |r: &RunReport| (r.makespan_ns, r.deaths, r.evictions, r.rejoins, r.recovered_nodes, r.duplicate_nodes);
    assert_eq!(totals(&a), totals(&b), "{spec}");
    for (t, (x, y)) in a.per_thread.iter().zip(&b.per_thread).enumerate() {
        assert_eq!((x.nodes, x.died, &x.comm), (y.nodes, y.died, &y.comm), "{spec}: thread {t}");
    }
}

/// A crash-faulted run — including the death, the adoption, and every
/// re-injected grant — is bit-identical across the fast fiber conductor and
/// the reference conductor.
#[test]
fn crash_runs_agree_across_conductors() {
    for alg in Algorithm::paper_set() {
        assert_conductors_agree(RunSpec { faults: crash_plan(3), ..tiny(alg, 6, 2) });
    }
}

/// Derive a deterministic *membership* plan from `i`: a healing partition,
/// a gray stall, a guaranteed kill with restart — the full §8 fault zoo —
/// on top of message loss/duplication.
fn membership_plan(i: u64) -> FaultPlan {
    let r = i.wrapping_mul(0xA24B_AED4_963E_E407).rotate_left(31);
    let mut p = FaultPlan {
        loss_per_mille: 10 + (r % 30) as u32,
        dup_per_mille: 10 + ((r >> 8) % 30) as u32,
        kill_per_mille: if i.is_multiple_of(2) { 1000 } else { 0 },
        restart_after_ns: if i.is_multiple_of(3) { 0 } else { 250_000 },
        ..FaultPlan::partitioned(r)
    };
    p.partition_per_mille = 1000; // every plan carries a (healing) partition
    p.partition_min_ns = 30_000 + (r >> 16) % 60_000;
    p.gray_per_mille = if i % 2 == 1 { 1000 } else { 0 };
    p
}

/// Conservation with multiplicity across the full membership fault zoo
/// (docs/faults.md §8): healing partitions, gray stalls, kills, restarts —
/// every node explored at least once, every re-exploration accounted.
#[test]
fn membership_faults_conserve_with_multiplicity() {
    let (expect, _) = seq_run(&UtsGen::new(presets::t_tiny().spec));
    let mut evictions = 0u64;
    let mut rejoins = 0u64;
    for alg in Algorithm::paper_set() {
        for i in 0..6u64 {
            let spec = RunSpec { faults: membership_plan(i), timeout: Some(30_000), ..tiny(alg, 8, 4) };
            let report = assert_conserves(spec, expect);
            evictions += report.evictions;
            rejoins += report.rejoins;
        }
    }
    assert!(evictions > 0, "no plan in the sweep ever drove an eviction");
    assert!(rejoins > 0, "no evicted or restarted rank ever rejoined");
}

/// A membership-faulted run — partition freezes, evictions, fence rejoins,
/// restarts — is bit-identical across the fast fiber conductor and the
/// reference conductor.
#[test]
fn membership_runs_agree_across_conductors() {
    for alg in Algorithm::paper_set() {
        assert_conductors_agree(RunSpec { faults: membership_plan(1), timeout: Some(30_000), ..tiny(alg, 6, 2) });
    }
}

/// A *faulted* run is itself deterministic and conductor-independent: the
/// fast fiber conductor and the reference conductor agree on
/// every virtual result under an active fault plan.
#[test]
fn faulted_runs_agree_across_conductors() {
    for alg in Algorithm::paper_set() {
        assert_conductors_agree(RunSpec { faults: random_plan(5), timeout: Some(30_000), ..tiny(alg, 6, 2) });
    }
}

/// The line the `chaos_smoke` entry prints for a run reruns it: for two of
/// its membership plans (one on its layered DAG) and one of its crash
/// plans, the spec quoted in the repro command, run on the fiber and on the
/// reference conductor, gives the soak's own report — makespan, nodes,
/// duplicates, evictions and hand-offs.
#[test]
fn chaos_repro_lines_rerun_their_runs() {
    let base: RunSpec = "kittyhawk p=16 tree=tiny alg=distmem k=8".parse().unwrap();
    let membership = |i| RunSpec { timeout: Some(50_000), ..base }.with(&membership_faults(i)).unwrap();
    let cases = [
        membership(0),
        RunSpec { alg: Algorithm::MpiWs, workload: DAG, k: 1, ..membership(1) },
        RunSpec { alg: Algorithm::Term, faults: crash_faults(3, 1000), ..base },
    ];
    let key = |r: &RunReport| (r.makespan_ns, r.total_nodes, r.duplicate_nodes, r.evictions, r.handoffs);
    let mut exercised = 0;
    for spec in cases {
        let own = spec.run();
        let command = repro(&spec, own.total_nodes - own.duplicate_nodes);
        let line = command.split('\'').nth(1).expect("a quoted spec line");
        for conductor in ["fiber", "reference"] {
            let again: RunSpec = format!("{line} conductor={conductor}").parse().unwrap();
            assert_eq!(key(&again.run()), key(&own), "{line} conductor={conductor}");
        }
        exercised += own.deaths as u64 + own.evictions;
    }
    assert!(exercised > 0, "no case killed or evicted a rank");
}
