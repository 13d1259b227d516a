//! Conductor equivalence: every conductor must be invisible in every
//! modelled quantity.
//!
//! The simulator has two conductors (see `docs/conductor.md`), two policies
//! on the same fibers: the **reference** naive baton loop (push, pop the
//! minimum, switch) and the **fast** one with the lookahead and reach
//! windows. For each algorithm, workload, and thread count, the same run is
//! executed under both (`lookahead = false` selects the reference, `true`
//! the fast loop) and the reports are required to be
//! *bit-identical*: virtual makespan, every per-thread virtual clock, every
//! per-thread worker result (nodes, steals, releases, state times, comm
//! counters), and the final memory image. Only the conductors' own harness
//! counters may differ — that is the whole point of keeping them out of
//! `CommStats`.
//!
//! The matrix covers batch (UTS trees, on every machine preset — the reach
//! window's width is a cost ratio), service mode, crash faults, membership
//! faults, all three DAG families plus a wide layered DAG (overlapping
//! split-phase batches) and a wide fork-join (hand-offs into parked ranks) at
//! p=64, every DAG run placing ready tasks at their owners, and a
//! conflict-storm stress case of raw cross-thread put/get chains. The
//! reference pays a heap entry and usually a fiber switch per operation,
//! 1.4–2× the fast conductor's host time, so every bundle runs at the Fig. 4
//! thread count; the random programs of `crates/pgas/src/sim/reach_tests.rs`
//! (which also run both policies on the OS-thread substrate of targets
//! without fibers) are the sharper oracle per second spent.

use pgas::sim::{SimCluster, SimReport, SIM_STACK_SIZE};
use pgas::{Comm, ConductorStats, MachineModel};
use uts_tree::presets::{self, Preset};
use worksteal::spec::{Conductor, RunSpec};
use worksteal::{
    vars, worker, Algorithm, DagWorkload, ForkJoin, RandomLayered, RunConfig, RunReport, TaskGen,
    ThreadResult, UtsGen, Wavefront,
};

fn assert_sim_identical(
    a: &SimReport<ThreadResult>,
    b: &SimReport<ThreadResult>,
    label: &str,
) {
    assert_eq!(a.makespan_ns, b.makespan_ns, "{label}: virtual makespan diverged");
    assert_eq!(a.clocks, b.clocks, "{label}: per-thread clocks diverged");
    assert_eq!(a.scalars, b.scalars, "{label}: final memory diverged");
    assert_eq!(a.stats, b.stats, "{label}: comm stats diverged");
    for (tid, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
        assert_eq!(x, y, "{label}: thread {tid} worker result diverged");
    }
    assert_eq!(
        a.total_conductor().total_ops(),
        b.total_conductor().total_ops(),
        "{label}: operation streams differ in length"
    );
    assert_stack_margin(a.total_conductor().stack_peak_bytes, label);
    assert_stack_margin(b.total_conductor().stack_peak_bytes, label);
}

/// The stack a simulated thread reserves is a margin over a measurement: the
/// deepest fiber of any run in this matrix, under either conductor, must stay
/// in its upper half.
fn assert_stack_margin(stack_peak_bytes: u64, label: &str) {
    assert!(
        stack_peak_bytes < SIM_STACK_SIZE as u64 / 2,
        "{label}: a fiber stack reached {stack_peak_bytes} bytes of {SIM_STACK_SIZE}"
    );
}

fn run_mode(
    machine: &MachineModel,
    preset: &Preset,
    alg: Algorithm,
    threads: usize,
    lookahead: bool,
) -> SimReport<ThreadResult> {
    let gen = UtsGen::new(preset.spec);
    let cfg = RunConfig::new(alg, 4);
    let cluster: SimCluster<<UtsGen as TaskGen>::Task> =
        SimCluster::new(machine.clone(), threads, vars::space_config()).with_lookahead(lookahead);
    cluster.run(move |c| worker(c, &gen, &cfg))
}

/// Returns the fast run's conductor counters.
fn assert_equivalent(
    machine: &MachineModel,
    preset: &Preset,
    alg: Algorithm,
    threads: usize,
) -> ConductorStats {
    let reference = run_mode(machine, preset, alg, threads, false);
    let fiber = run_mode(machine, preset, alg, threads, true);
    let label = format!(
        "{} x {} threads x {} on {}",
        alg.label(),
        threads,
        preset.name,
        machine.name
    );
    assert_sim_identical(&fiber, &reference, &label);

    // Sanity on the knobs themselves: the reference mode never takes either
    // window nor skips a pass, the fiber mode must actually exercise its fast
    // path — the two protocols built on polling one's own partition (the
    // lock-less request cell, the mailbox) its reach window, and mpi-ws, whose
    // steal-response wait declares its pass, its mail waits.
    let (reference, fiber) = (reference.total_conductor(), fiber.total_conductor());
    assert_eq!(
        (
            reference.fast_ops,
            reference.reach_ops,
            reference.elided_ops
        ),
        (0, 0, 0),
        "{label}: reference mode still fast-pathed"
    );
    assert!(fiber.fast_ops > 0, "{label}: fiber fast path never engaged");
    if matches!(alg, Algorithm::DistMem | Algorithm::MpiWs) {
        assert!(fiber.reach_ops > 0, "{label}: reach window never engaged");
    }
    assert_eq!(
        fiber.elided_ops > 0,
        alg == Algorithm::MpiWs,
        "{label}: {} operations elided by mail waits",
        fiber.elided_ops
    );
    assert_eq!(
        reference.cycle_ops, 0,
        "{label}: the reference ran a probe cycle"
    );
    fiber
}

fn matrix_over(machine: &MachineModel, preset: &Preset, threads: usize) {
    for alg in Algorithm::all() {
        assert_equivalent(machine, preset, alg, threads);
    }
}

/// DAG workloads route every dependency decrement through `Comm::add`, so
/// "which predecessor's add crossed the in-degree" must conduct identically
/// in both modes — bit-identical reports *including* the count-up cells
/// in the final memory image — and so must every ready task's hand-off to
/// the owner of its cell (`sched::placement`), which each run must make.
/// Returns the fiber run.
fn assert_dag_equivalent<G: worksteal::DagGen>(
    gen: &DagWorkload<G>,
    name: &str,
    alg: Algorithm,
    threads: usize,
) -> SimReport<ThreadResult> {
    let run = |lookahead: bool| -> SimReport<ThreadResult> {
        let cfg = RunConfig::new(alg, 2);
        let cluster: SimCluster<u64> = SimCluster::new(
            MachineModel::kittyhawk(),
            threads,
            vars::space_config_for(gen, threads),
        )
        .with_lookahead(lookahead);
        cluster.run(|c| worker(c, gen, &cfg))
    };
    let reference = run(false);
    let fiber = run(true);
    let label = format!("{name} x {} x {threads} threads", alg.label());
    assert_sim_identical(&fiber, &reference, &label);
    let total: u64 = fiber.results.iter().map(|r| r.nodes).sum();
    assert_eq!(total, gen.n_tasks(), "{label}: tasks lost or duplicated");
    let handoffs: u64 = fiber.results.iter().map(|r| r.handoffs).sum();
    assert!(handoffs > 0, "{label}: no ready task went to its owner");
    fiber
}

#[test]
fn all_algorithms_dag_workloads_16_threads() {
    let fj = DagWorkload::new(ForkJoin {
        levels: 4,
        width: 6,
        seed: 3,
    });
    let wf = DagWorkload::new(Wavefront {
        rows: 10,
        cols: 8,
        seed: 5,
    });
    let rl = DagWorkload::new(RandomLayered::new(6, 10, 250, 7));
    for alg in Algorithm::all() {
        assert_dag_equivalent(&fj, "fork-join", alg, 16);
        assert_dag_equivalent(&wf, "wavefront", alg, 16);
        assert_dag_equivalent(&rl, "random-layered", alg, 16);
    }
}

/// The benchmark's `dag_layered` shape, shortened to what the reference
/// conductor finishes: 256-wide layers on 64 threads (16 kittyhawk nodes), so
/// a batch's dependency adds are one split-phase publication over mostly
/// remote cells whose members overlap, land out of issue order and
/// interleave with other ranks' batches on the same cells, and the tasks
/// they make ready leave in hand-offs to 64 owners — through every bundle:
/// the one-sided transports, whose owner polls after every such expansion,
/// and the message ones, whose token ring counts the hand-offs. A placing
/// rank releases nothing (`sched::drive`), so no bundle's shared region ever
/// holds a task and one-sided thieves steal nothing; `mpi-ws` victims still
/// answer steal requests from their local region, and must have granted
/// some here, so the check covers stolen work too (EXPERIMENTS.md E18
/// Finding 6).
#[test]
fn wide_layered_dag_64_threads() {
    let rl = DagWorkload::new(RandomLayered::new(5, 256, 80, 11));
    for alg in Algorithm::all() {
        let fiber = assert_dag_equivalent(&rl, "wide-layered", alg, 64);
        let sum = |f: fn(&ThreadResult) -> u64| -> u64 { fiber.results.iter().map(f).sum() };
        assert_eq!(sum(|r| r.releases), 0, "{}: placed work was released", alg.label());
        assert!(sum(|r| r.handoffs) > 0, "{}: nothing was handed off", alg.label());
        if alg == Algorithm::MpiWs {
            assert!(sum(|r| r.steals_ok) > 0, "{}: nothing was stolen", alg.label());
        }
    }
}

/// Placed work stays home (`sched::drive`): on every bundle a DAG run
/// releases no task to its shared region, so the transports that steal from
/// it steal nothing, and the ready tasks that move are handed to their
/// owners. `exp dag_sweep_smoke`'s three p = 8 shapes, on both conductors: there
/// a rank's local region often holds several ready tasks, the batch a
/// placing rank expands together.
#[test]
fn placed_runs_release_nothing() {
    let fj = DagWorkload::new(ForkJoin { levels: 6, width: 12, seed: 1 });
    let wf = DagWorkload::new(Wavefront { rows: 12, cols: 12, seed: 2 });
    let rl = DagWorkload::new(RandomLayered::new(8, 12, 150, 3));
    for alg in Algorithm::all() {
        let runs = [
            assert_dag_equivalent(&fj, "fork-join", alg, 8),
            assert_dag_equivalent(&wf, "wavefront", alg, 8),
            assert_dag_equivalent(&rl, "random-layered", alg, 8),
        ];
        for run in runs {
            let sum = |f: fn(&ThreadResult) -> u64| -> u64 { run.results.iter().map(f).sum() };
            assert_eq!(sum(|r| r.releases), 0, "{}: placed work was released", alg.label());
            if alg != Algorithm::MpiWs {
                assert_eq!(sum(|r| r.steals_ok), 0, "{}: a one-sided steal", alg.label());
            }
        }
    }
}

/// Tasks that share a successor and run in one batch publish their edges in
/// one `Comm::add_many`, in which the successor's cell is two members:
/// exactly one of them crosses the in-degree, so the successor is emitted
/// once — identically on both conductors. A 2×2 wavefront on one thread:
/// task 0 readies 1 and 2, and the batch [1, 2] readies 3 once.
#[test]
fn dag_batch_emits_a_shared_successor_once() {
    let wf = DagWorkload::new(Wavefront { rows: 2, cols: 2, seed: 0 });
    let run = |lookahead: bool| -> SimReport<Vec<Vec<u64>>> {
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::kittyhawk(), 1, vars::space_config_for(&wf, 1))
                .with_lookahead(lookahead);
        cluster.run(|c| {
            let mut emitted = Vec::new();
            for batch in [&[0u64][..], &[1, 2], &[3]] {
                let mut out = Vec::new();
                let n = wf.expand_in(c, batch, &mut out);
                assert_eq!(n as usize, out.len());
                emitted.push(out);
            }
            emitted
        })
    };
    let (reference, fiber) = (run(false), run(true));
    assert_eq!(fiber.results[0], vec![vec![1, 2], vec![3], vec![]]);
    assert_eq!(fiber.results, reference.results);
    assert_eq!(fiber.makespan_ns, reference.makespan_ns);
    assert_eq!(fiber.scalars, reference.scalars);
    assert_eq!(fiber.stats, reference.stats);
}

/// A fork's diamond is 64 tasks on 64 ranks, one per owner: the fork keeps
/// its own and hands off the other 63, and the parallel task that readies
/// the join keeps it (its stack is otherwise empty) — so nothing is ever
/// released or stolen, and each hand-off to a rank parked in a barrier
/// brings it out: the cancelable one, and the streamlined one over the
/// locked steal-half transport and the lock-less one.
#[test]
fn wide_fork_join_64_threads() {
    let fj = DagWorkload::new(ForkJoin {
        levels: 3,
        width: 64,
        seed: 11,
    });
    for alg in [Algorithm::SharedMem, Algorithm::TermRapdif, Algorithm::DistMem] {
        let fiber = assert_dag_equivalent(&fj, "wide-fork-join", alg, 64);
        let sum = |f: fn(&ThreadResult) -> u64| -> u64 { fiber.results.iter().map(f).sum() };
        assert_eq!(
            sum(|r| r.handoffs),
            3 * 63,
            "{}: one task per owner",
            alg.label()
        );
        assert_eq!(
            (sum(|r| r.releases), sum(|r| r.steals_ok)),
            (0, 0),
            "{}: a placed diamond leaves nothing to release or steal",
            alg.label()
        );
    }
}

#[test]
fn all_algorithms_tiny_16_threads() {
    matrix_over(&MachineModel::kittyhawk(), &presets::t_tiny(), 16);
}

/// The same leg at the other presets' cost ratios: the reach window is 250 ns
/// wide on kittyhawk, 220 on topsail, 300 on altix (where a remote reference
/// is only 3x a same-node one) and 20 on smp (one node, everything cheap).
#[test]
fn all_algorithms_tiny_16_threads_on_every_machine() {
    for machine in [MachineModel::topsail(), MachineModel::altix(), MachineModel::smp()] {
        matrix_over(&machine, &presets::t_tiny(), 16);
    }
}

#[test]
fn all_algorithms_tiny_64_threads() {
    matrix_over(&MachineModel::kittyhawk(), &presets::t_tiny(), 64);
}

#[test]
fn all_algorithms_small_16_threads() {
    matrix_over(&MachineModel::kittyhawk(), &presets::t_s(), 16);
}

#[test]
fn all_algorithms_small_64_threads() {
    matrix_over(&MachineModel::kittyhawk(), &presets::t_s(), 64);
}

/// The Fig. 4 thread count, at which otherwise only `exp conductor` compares
/// the conductors, on two bundles; here all seven. With
/// the reference on fibers the leg takes about 28 s in a debug build on a
/// 2-vCPU host; mpi-ws (4.7 M operations) and upc-sharedmem (5.2 M) are the
/// big ones.
#[test]
fn all_algorithms_small_256_threads() {
    matrix_over(&MachineModel::kittyhawk(), &presets::t_s(), 256);
}

/// The paper's widest point, p = 1,024 on topsail, where searching thieves'
/// probe cycles park densest (`docs/conductor.md` §3.4): the fast
/// conductor must apply some of upc-distmem's cycle reads itself, and every
/// bundle must still match the reference. About 85 s in a debug build on a
/// 2-vCPU host, three quarters of it mpi-ws (42 M operations).
#[test]
fn all_algorithms_tiny_1024_threads() {
    let machine = MachineModel::topsail();
    for alg in Algorithm::all() {
        let fast = assert_equivalent(&machine, &presets::t_tiny(), alg, 1024);
        if alg == Algorithm::DistMem {
            assert!(
                fast.cycle_ops > 0,
                "{}: no probe cycle parked",
                alg.label()
            );
        }
    }
}

// ---------------------------------------------------------------- RunReport
// Service / crash / membership legs go through the engine entry points, so
// equality is asserted on the assembled `RunReport`.

fn assert_report_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.makespan_ns, b.makespan_ns, "{label}: makespan diverged");
    assert_eq!(a.total_nodes, b.total_nodes, "{label}: node totals diverged");
    assert_eq!(a.recovered_nodes, b.recovered_nodes, "{label}: recovery diverged");
    assert_eq!(a.duplicate_nodes, b.duplicate_nodes, "{label}: duplicates diverged");
    assert_eq!(a.max_multiplicity, b.max_multiplicity, "{label}: multiplicity diverged");
    assert_eq!(a.deaths, b.deaths, "{label}: deaths diverged");
    assert_eq!(a.evictions, b.evictions, "{label}: evictions diverged");
    assert_eq!(a.rejoins, b.rejoins, "{label}: rejoins diverged");
    assert_eq!(a.steal_attempts, b.steal_attempts, "{label}: steal attempts diverged");
    assert_eq!(a.successful_steals, b.successful_steals, "{label}: steals diverged");
    assert_eq!(a.service, b.service, "{label}: service report diverged");
    assert_eq!(a.per_thread, b.per_thread, "{label}: per-thread results diverged");
}

/// The run `line` names, on the fiber and on the reference conductor.
fn assert_two_way(line: &str) {
    let fiber: RunSpec = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
    let reference = RunSpec { conductor: Conductor::Reference, ..fiber };
    assert_report_identical(&fiber.run(), &reference.run(), line);
}

/// Service mode: open-loop arrivals, epoch quiescence, per-request
/// latencies, tail histograms — identical across both conductors.
#[test]
fn service_mode_identical_across_conductors() {
    for alg in ["distmem", "mpi"] {
        assert_two_way(&format!("smp p=4 tree=binomial(23,4,2,0.4) alg={alg} k=2 arrivals=poisson(41,8,25000)"));
    }
}

/// Crash faults: lost/duplicated grants and a guaranteed rank death replay
/// identically — same deaths, same recovery, same multiplicity — in both
/// modes.
#[test]
fn crash_faults_identical_across_conductors() {
    for alg in ["term", "distmem"] {
        assert_two_way(&format!(
            "kittyhawk p=8 tree=tiny alg={alg} k=4 \
             faults=crashy(12648430),loss=40,dup=40,kill=1000,kill_min=40000,kill_span=200000 timeout=30000"
        ));
    }
}

/// Membership faults: healing partitions, gray stalls, kills with restart —
/// the fenced-membership protocol replays identically in both modes.
#[test]
fn membership_faults_identical_across_conductors() {
    for alg in ["distmem", "mpi"] {
        assert_two_way(&format!(
            "kittyhawk p=8 tree=tiny alg={alg} k=4 faults=partitioned(195951870),loss=20,dup=20,kill=1000,\
             partition=1000,partition_min=40000,gray=1000,restart=250000 timeout=30000"
        ));
    }
}

/// Conflict storm: 16 threads hammer put-then-get chains through a shared
/// set of cells, so almost every read races a virtually-earlier write from
/// another thread — raw scalar interleaving with no scheduler protocol on
/// top, which no other case covers. Both conductors must resolve every race
/// the same way.
#[test]
fn conflict_storm_stays_bit_identical() {
    let storm = |c: &mut pgas::sim::SimComm<u64>| {
        let me = c.my_id();
        let n = c.n_threads();
        let mut acc = 0i64;
        for i in 0..200i64 {
            // Write a cell another thread is about to read, then read a cell
            // another thread just wrote — maximal cross-thread dependence.
            c.put((me + 1) % n, 0, i + me as i64);
            acc = acc.wrapping_add(c.get((me + n - 1) % n, 0));
            if i % 16 == me as i64 % 16 {
                c.work(3); // skew the clocks so no interleaving is stable
            }
        }
        acc
    };
    let run = |lookahead: bool| -> SimReport<i64> {
        SimCluster::<u64>::new(MachineModel::kittyhawk(), 16, pgas::SpaceConfig::default())
            .with_lookahead(lookahead)
            .run(storm)
    };
    let reference = run(false);
    let fiber = run(true);
    assert_eq!(fiber.makespan_ns, reference.makespan_ns, "storm: makespan diverged");
    assert_eq!(fiber.clocks, reference.clocks, "storm: clocks diverged");
    assert_eq!(fiber.scalars, reference.scalars, "storm: memory diverged");
    assert_eq!(fiber.stats, reference.stats, "storm: comm stats diverged");
    assert_eq!(fiber.results, reference.results, "storm: results diverged");
    assert!(
        fiber.total_conductor().handoffs > 0,
        "storm never forced a baton handoff"
    );
    assert_stack_margin(fiber.total_conductor().stack_peak_bytes, "storm");
}
