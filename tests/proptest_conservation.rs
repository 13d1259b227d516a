//! Property-based conservation: random subcritical trees × random
//! algorithm/threads/chunk configurations must always match the sequential
//! count. Complements the fixed-grid tests with shapes nobody hand-picked.
//! Over the same strategies, a run spec's line reads back bit-equal.

use pgas::sim::SimCluster;
use pgas::{ArrivalSpec, FaultPlan, MachineModel};
use proptest::prelude::*;
use uts_dlb::tree::{presets, GeoShape, TreeSpec};
use uts_dlb::worksteal::spec::{Conductor, Workload};
use uts_dlb::worksteal::{
    run_sim, seq_run, vars, worker, Algorithm, DagGen, DagWorkload, ForkJoin, RandomLayered,
    RunConfig, RunSpec, StealPolicyKind, UtsGen, VictimPolicy, Wavefront,
};

fn algorithm_strategy() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::SharedMem),
        Just(Algorithm::Term),
        Just(Algorithm::TermRapdif),
        Just(Algorithm::DistMem),
        Just(Algorithm::MpiWs),
        Just(Algorithm::Hier),
        Just(Algorithm::Pushing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 40,
    })]

    /// Conservation under random trees and configurations.
    #[test]
    fn random_tree_random_config_conserves(
        seed in 0u32..1000,
        b0 in 0u32..24,
        // Keep branching clearly subcritical so trees stay small: q ≤ 0.44.
        q_millis in 0u32..440,
        threads in 1usize..7,
        k in 1usize..9,
        alg in algorithm_strategy(),
    ) {
        let spec = TreeSpec::binomial(seed, b0, 2, q_millis as f64 / 1000.0);
        let gen = UtsGen::new(spec);
        let (expect, _) = seq_run(&gen);
        // Guard against a rare large tree slowing the suite.
        prop_assume!(expect < 200_000);
        let cfg = RunConfig::new(alg, k);
        let report = run_sim(MachineModel::smp(), threads, &gen, &cfg);
        prop_assert_eq!(report.total_nodes, expect);
    }

    /// Per-thread node counts always sum to the total, and no thread
    /// reports more steals-ok than chunks received.
    #[test]
    fn per_thread_accounting(
        seed in 0u32..100,
        threads in 2usize..6,
        alg in algorithm_strategy(),
    ) {
        let spec = TreeSpec::binomial(seed, 12, 2, 0.42);
        let gen = UtsGen::new(spec);
        let cfg = RunConfig::new(alg, 2);
        let report = run_sim(MachineModel::smp(), threads, &gen, &cfg);
        let sum: u64 = report.per_thread.iter().map(|t| t.nodes).sum();
        prop_assert_eq!(sum, report.total_nodes);
        for t in &report.per_thread {
            prop_assert!(t.chunks_stolen >= t.steals_ok);
        }
    }
}

fn paper_algorithm_strategy() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::SharedMem),
        Just(Algorithm::Term),
        Just(Algorithm::TermRapdif),
        Just(Algorithm::DistMem),
        Just(Algorithm::MpiWs),
    ]
}

/// Sample across the whole tree family — binomial, geometric (every depth
/// profile), hybrid — so crash coverage is not a binomial-only property.
/// Geometric/hybrid roots draw their child count, so some instances are
/// single-node trees; callers `prop_assume!` a minimum size.
fn tree_spec_strategy() -> impl Strategy<Value = TreeSpec> {
    let shape = prop_oneof![
        Just(GeoShape::Fixed),
        Just(GeoShape::Linear),
        Just(GeoShape::ExpDec),
        Just(GeoShape::Cyclic),
    ];
    prop_oneof![
        (0u32..200, 16u32..64)
            .prop_map(|(seed, b0)| TreeSpec::binomial(seed, b0, 2, 0.42)),
        (0u32..200, 150u32..300, 4u32..7, shape)
            .prop_map(|(seed, b0_c, gen_mx, s)| {
                TreeSpec::geometric(seed, f64::from(b0_c) / 100.0, gen_mx, s)
            }),
        (0u32..200, 200u32..350, 2u32..4)
            .prop_map(|(seed, b0_c, cutoff)| {
                TreeSpec::hybrid(seed, f64::from(b0_c) / 100.0, cutoff, 2, 0.42)
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 40,
    })]

    /// Conservation **with multiplicity** under random crash-fault plans
    /// (docs/faults.md): with message loss, duplication, and rank death all
    /// drawn at random, every node of the tree is still explored at least
    /// once — `total - duplicates == expect` — and re-exploration stays
    /// bounded (each node at most a handful of times, not a runaway storm).
    /// Trees are drawn from the whole family (binomial, geometric, hybrid).
    #[test]
    fn random_crash_plan_conserves_with_multiplicity(
        seed in 0u64..1_000_000,
        spec in tree_spec_strategy(),
        loss_pm in 0u32..60,
        dup_pm in 0u32..60,
        kill_pm in prop_oneof![Just(0u32), Just(350), Just(1000)],
        kill_min in 10_000u64..150_000,
        threads in 2usize..8,
        alg in paper_algorithm_strategy(),
    ) {
        let gen = UtsGen::new(spec);
        let (expect, _) = seq_run(&gen);
        // Geometric/hybrid roots can draw zero children; skip degenerate
        // instances (and the rare huge one) rather than scanning seeds.
        prop_assume!(expect > 10 && expect < 100_000);
        let mut cfg = RunConfig::new(alg, 3);
        cfg.steal_timeout_ns = Some(30_000);
        cfg.faults = pgas::FaultPlan {
            loss_per_mille: loss_pm,
            dup_per_mille: dup_pm,
            kill_per_mille: kill_pm,
            kill_min_ns: kill_min,
            kill_span_ns: 300_000,
            ..pgas::FaultPlan::seeded(seed)
        };
        // Plans drawing all three rates at zero degenerate to the plain
        // seeded schedule, which the non-crash proptest already covers —
        // still worth keeping here as the boundary case.
        let report = run_sim(MachineModel::kittyhawk(), threads, &gen, &cfg);
        prop_assert_eq!(
            report.total_nodes - report.duplicate_nodes,
            expect,
            "{} lost nodes: total={} dup={} deaths={} plan={:?}",
            report.label, report.total_nodes, report.duplicate_nodes,
            report.deaths, cfg.faults
        );
        prop_assert!(report.deaths <= 1);
        prop_assert!(
            report.max_multiplicity <= 8,
            "node re-explored {} times under {:?}",
            report.max_multiplicity, cfg.faults
        );
        if !cfg.faults.crash_active() {
            prop_assert_eq!(report.duplicate_nodes, 0);
            prop_assert_eq!(report.recovered_nodes, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 40,
    })]

    /// DAG ready-queue invariants (docs/workloads.md) on random layered
    /// DAGs × random configurations: every task — including every sink —
    /// executes exactly once, and each count-up cell finishes *exactly* at
    /// its task's in-degree: every predecessor published exactly one
    /// decrement, none was lost, and no counter overshot (the fetch-add
    /// protocol never "goes negative" — an overshoot on a fault-free run
    /// would mean a double emission).
    #[test]
    fn dag_ready_counts_exact_and_all_sinks_complete(
        layers in 2u32..7,
        width in 2u32..10,
        edge_pm in 0u32..500,
        dag_seed in 0u64..1000,
        threads in 2usize..8,
        k in 1usize..5,
        alg in algorithm_strategy(),
    ) {
        let gen = DagWorkload::new(RandomLayered::new(layers, width, edge_pm, dag_seed));
        let cfg = RunConfig::new(alg, k);
        let cluster: SimCluster<u64> = SimCluster::new(
            MachineModel::smp(),
            threads,
            vars::space_config_for(&gen, threads),
        );
        let sim = cluster.run(|c| worker(c, &gen, &cfg));
        let total: u64 = sim.results.iter().map(|r| r.nodes).sum();
        prop_assert_eq!(total, gen.n_tasks(), "a task was lost or re-executed");
        for t in 0..gen.n_tasks() {
            let rank = (t % threads as u64) as usize;
            let slot = vars::DAG_BASE + (t / threads as u64) as usize;
            prop_assert_eq!(
                sim.final_scalar(rank, slot),
                i64::from(gen.dag().in_degree(t)),
                "task {}: count-up cell did not finish at its in-degree", t
            );
        }
    }
}

/// A plan as `faults=` writes one: a base, then a rate with or without a
/// window of its own, and a multiplier.
fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
    let base = prop_oneof![
        Just(FaultPlan::none()),
        any::<u64>().prop_map(FaultPlan::seeded),
        any::<u64>().prop_map(FaultPlan::crashy),
        any::<u64>().prop_map(FaultPlan::partitioned),
    ];
    (base, 0u32..1001, 0u64..3_000_000, 0usize..4).prop_map(|(mut f, pm, ns, edit)| {
        match edit {
            0 => return f,
            1 => (f.kill_per_mille, f.kill_span_ns) = (pm, ns),
            2 => (f.partition_per_mille, f.gray_per_mille, f.gray_stall_ns) = (pm, pm / 2, ns),
            _ => (f.loss_per_mille, f.lock_mult_x16, f.restart_after_ns) = (pm, pm * 3, ns),
        }
        f.enabled = true;
        f
    })
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        tree_spec_strategy().prop_map(Workload::Tree),
        Just(Workload::Tree(presets::t_s().spec)),
        (1u32..9, 1u32..9, any::<u64>())
            .prop_map(|(levels, width, seed)| Workload::ForkJoin(ForkJoin { levels, width, seed })),
        (1u32..13, 1u32..11, any::<u64>())
            .prop_map(|(rows, cols, seed)| Workload::Wavefront(Wavefront { rows, cols, seed })),
        (1u32..7, 1u32..17, 0u32..1001, any::<u64>())
            .prop_map(|(layers, width, edge_pm, seed)| Workload::Layered { layers, width, edge_pm, seed }),
    ]
}

fn run_spec_strategy() -> impl Strategy<Value = RunSpec> {
    let arrivals = prop_oneof![
        Just(None),
        (any::<u64>(), 1usize..2000, 1u64..100_000)
            .prop_map(|(seed, n, rate)| Some(ArrivalSpec::poisson(seed, n, rate as f64 / 7.0))),
        (any::<u64>(), 1usize..2000, (1u64..100_000, 1u64..100_000), 1u64..10_000_000).prop_map(
            |(seed, n, (lo, hi), dwell)| Some(ArrivalSpec::mmpp(seed, n, lo as f64 / 3.0, hi as f64 * 1.5, dwell))
        ),
    ];
    let machine = prop_oneof![Just("kittyhawk"), Just("topsail"), Just("altix"), Just("smp")];
    let conductor = prop_oneof![Just(Conductor::Fiber), Just(Conductor::Reference), Just(Conductor::Native)];
    let victims = prop_oneof![Just(None), Just(Some(VictimPolicy::Flat)), Just(Some(VictimPolicy::Hier))];
    let steal = prop_oneof![Just(None), Just(Some(StealPolicyKind::One)), Just(Some(StealPolicyKind::Adaptive))];
    let timeout = prop_oneof![Just(None), (1u64..1_000_000).prop_map(Some)];
    (
        (machine, workload_strategy(), algorithm_strategy(), (1usize..1025, 1usize..65, 1u64..64, any::<u64>())),
        (fault_strategy(), timeout, arrivals, conductor),
        (victims, steal),
    )
        .prop_map(|((machine, workload, alg, (p, k, poll, seed)), (faults, timeout, arrivals, conductor), (victims, steal))| {
            // Only a simulated run takes crash faults, and only a simulated
            // tree run takes arrivals.
            let conductor = match conductor {
                Conductor::Native if faults.crash_active() => Conductor::Fiber,
                c => c,
            };
            let service = matches!(workload, Workload::Tree(_)) && conductor != Conductor::Native;
            let arrivals = arrivals.filter(|_| service);
            RunSpec { machine, p, workload, alg, k, poll, seed, victims, steal, faults, timeout, arrivals, conductor }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, max_shrink_iters: 0 })]

    /// `Display` then `FromStr` is the identity on run specs: every
    /// workload family, fault base and override, arrival law and conductor.
    #[test]
    fn run_spec_lines_round_trip(spec in run_spec_strategy()) {
        let line = spec.to_string();
        prop_assert_eq!(line.parse::<RunSpec>(), Ok(spec), "{}", line);
    }
}
