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

use pgas::{FaultPlan, MachineModel};
use uts_dlb::worksteal::trace::Event;
use uts_dlb::worksteal::{
    run_sim, seq_run, Algorithm, DagWorkload, RandomLayered, RunConfig, RunReport, UtsGen,
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

fn faulted_sweep(preset: uts_tree::presets::Preset, schedules: u64, threads: usize) {
    let gen = UtsGen::new(preset.spec);
    let (expect, _) = seq_run(&gen);
    assert_eq!(expect, preset.expected.nodes);
    for alg in Algorithm::paper_set() {
        for i in 0..schedules {
            let mut cfg = RunConfig::new(alg, 4);
            cfg.faults = random_plan(i);
            cfg.steal_timeout_ns = Some(30_000);
            let report = run_sim(MachineModel::kittyhawk(), threads, &gen, &cfg);
            assert_eq!(
                report.total_nodes,
                expect,
                "{} schedule {i} ({:?}) lost or duplicated nodes",
                alg.label(),
                cfg.faults
            );
        }
    }
}

#[test]
fn chaos_t_tiny_all_algorithms() {
    faulted_sweep(presets::t_tiny(), 8, 8);
}

#[test]
fn chaos_t_s_all_algorithms() {
    faulted_sweep(presets::t_s(), 2, 8);
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
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    let (expect, _) = seq_run(&gen);
    for alg in Algorithm::paper_set() {
        for i in 0..6u64 {
            let mut cfg = RunConfig::new(alg, 4);
            cfg.faults = crash_plan(i);
            let report = run_sim(MachineModel::kittyhawk(), 8, &gen, &cfg);
            assert!(
                report.deaths <= 1,
                "{} plan {i}: at most one rank dies per plan",
                alg.label()
            );
            assert_eq!(
                report.total_nodes - report.duplicate_nodes,
                expect,
                "{} plan {i} ({:?}) lost nodes: total={} dup={} deaths={}",
                alg.label(),
                cfg.faults,
                report.total_nodes,
                report.duplicate_nodes,
                report.deaths
            );
        }
    }
}

/// The geometric and hybrid tree families (docs/workloads.md) under the
/// same crash sweep: conservation-with-multiplicity is a property of the
/// recovery protocol, not of the binomial law every other chaos case uses.
#[test]
fn geometric_and_hybrid_trees_conserve_under_crash() {
    let specs = [
        ("geometric", TreeSpec::geometric(5, 2.2, 6, GeoShape::ExpDec)),
        ("hybrid", TreeSpec::hybrid(7, 2.5, 3, 2, 0.45)),
    ];
    for (family, mut spec) in specs {
        // Geometric roots draw their child count too, so a seed can yield a
        // single-node tree: scan to the first non-degenerate instance.
        let expect = loop {
            let (expect, _) = seq_run(&UtsGen::new(spec));
            if expect > 30 {
                break expect;
            }
            spec.seed += 100;
        };
        let gen = UtsGen::new(spec);
        for alg in Algorithm::paper_set() {
            for i in 0..3u64 {
                let mut cfg = RunConfig::new(alg, 4);
                cfg.faults = crash_plan(i);
                let report = run_sim(MachineModel::kittyhawk(), 8, &gen, &cfg);
                assert_eq!(
                    report.total_nodes - report.duplicate_nodes,
                    expect,
                    "{family}/{} plan {i} lost nodes: total={} dup={} deaths={}",
                    alg.label(),
                    report.total_nodes,
                    report.duplicate_nodes,
                    report.deaths
                );
            }
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

/// A crash-faulted run — including the death, the adoption, and every
/// re-injected grant — is bit-identical across the fast fiber conductor and
/// the reference OS-thread conductor.
#[test]
fn crash_runs_agree_across_conductors() {
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    for alg in Algorithm::paper_set() {
        let mut fast = RunConfig::new(alg, 2);
        fast.faults = crash_plan(3);
        let mut reference = fast;
        reference.sim_lookahead = false;
        let a = run_sim(MachineModel::kittyhawk(), 6, &gen, &fast);
        let b = run_sim(MachineModel::kittyhawk(), 6, &gen, &reference);
        assert_eq!(a.makespan_ns, b.makespan_ns, "{}", alg.label());
        assert_eq!(a.deaths, b.deaths, "{}", alg.label());
        assert_eq!(a.recovered_nodes, b.recovered_nodes, "{}", alg.label());
        assert_eq!(a.duplicate_nodes, b.duplicate_nodes, "{}", alg.label());
        for (t, (x, y)) in a.per_thread.iter().zip(&b.per_thread).enumerate() {
            assert_eq!(x.nodes, y.nodes, "{} thread {t}", alg.label());
            assert_eq!(x.died, y.died, "{} thread {t}", alg.label());
            assert_eq!(x.comm, y.comm, "{} thread {t}", alg.label());
        }
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
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    let (expect, _) = seq_run(&gen);
    let mut evictions = 0u64;
    let mut rejoins = 0u64;
    for alg in Algorithm::paper_set() {
        for i in 0..6u64 {
            let mut cfg = RunConfig::new(alg, 4);
            cfg.faults = membership_plan(i);
            cfg.steal_timeout_ns = Some(30_000);
            let report = run_sim(MachineModel::kittyhawk(), 8, &gen, &cfg);
            assert_eq!(
                report.total_nodes - report.duplicate_nodes,
                expect,
                "{} plan {i} ({:?}) lost nodes: total={} dup={} deaths={} \
                 evictions={} rejoins={}",
                alg.label(),
                cfg.faults,
                report.total_nodes,
                report.duplicate_nodes,
                report.deaths,
                report.evictions,
                report.rejoins
            );
            evictions += report.evictions;
            rejoins += report.rejoins;
        }
    }
    assert!(evictions > 0, "no plan in the sweep ever drove an eviction");
    assert!(rejoins > 0, "no evicted or restarted rank ever rejoined");
}

/// A membership-faulted run — partition freezes, evictions, fence rejoins,
/// restarts — is bit-identical across the fast fiber conductor and the
/// reference OS-thread conductor.
#[test]
fn membership_runs_agree_across_conductors() {
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    for alg in Algorithm::paper_set() {
        let mut fast = RunConfig::new(alg, 2);
        fast.faults = membership_plan(1);
        fast.steal_timeout_ns = Some(30_000);
        let mut reference = fast;
        reference.sim_lookahead = false;
        let a = run_sim(MachineModel::kittyhawk(), 6, &gen, &fast);
        let b = run_sim(MachineModel::kittyhawk(), 6, &gen, &reference);
        assert_eq!(a.makespan_ns, b.makespan_ns, "{}", alg.label());
        assert_eq!(a.deaths, b.deaths, "{}", alg.label());
        assert_eq!(a.evictions, b.evictions, "{}", alg.label());
        assert_eq!(a.rejoins, b.rejoins, "{}", alg.label());
        assert_eq!(a.recovered_nodes, b.recovered_nodes, "{}", alg.label());
        assert_eq!(a.duplicate_nodes, b.duplicate_nodes, "{}", alg.label());
        for (t, (x, y)) in a.per_thread.iter().zip(&b.per_thread).enumerate() {
            assert_eq!(x.nodes, y.nodes, "{} thread {t}", alg.label());
            assert_eq!(x.died, y.died, "{} thread {t}", alg.label());
            assert_eq!(x.comm, y.comm, "{} thread {t}", alg.label());
        }
    }
}

/// A *faulted* run is itself deterministic and conductor-independent: the
/// fast fiber conductor and the reference OS-thread conductor agree on
/// every virtual result under an active fault plan.
#[test]
fn faulted_runs_agree_across_conductors() {
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    for alg in Algorithm::paper_set() {
        let mut fast = RunConfig::new(alg, 2);
        fast.faults = random_plan(5);
        fast.steal_timeout_ns = Some(30_000);
        let mut reference = fast;
        reference.sim_lookahead = false;
        let a = run_sim(MachineModel::kittyhawk(), 6, &gen, &fast);
        let b = run_sim(MachineModel::kittyhawk(), 6, &gen, &reference);
        assert_eq!(a.makespan_ns, b.makespan_ns, "{}", alg.label());
        for (t, (x, y)) in a.per_thread.iter().zip(&b.per_thread).enumerate() {
            assert_eq!(x.nodes, y.nodes, "{} thread {t}", alg.label());
            assert_eq!(x.comm, y.comm, "{} thread {t}", alg.label());
        }
    }
}
