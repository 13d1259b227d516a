//! Native-backend (real OS threads, real atomics) integration: the same
//! worker code must behave identically on real shared memory — the paper's
//! shared-memory setting.

use pgas::MachineModel;
use uts_dlb::tree::presets;
use uts_dlb::worksteal::theory::{self, DEFAULT_STEAL_FACTOR};
use uts_dlb::worksteal::{
    run_native, run_sim, Algorithm, DagGen, DagWorkload, ForkJoin, RandomLayered, RunConfig,
    TaskGen, UtsGen,
};

#[test]
fn all_algorithms_conserve_natively() {
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    for alg in Algorithm::all() {
        for threads in [1usize, 2, 4] {
            let cfg = RunConfig::new(alg, 2);
            let report = run_native(MachineModel::smp(), threads, &gen, &cfg)
                .expect("fault-free config runs natively");
            assert_eq!(
                report.total_nodes,
                p.expected.nodes,
                "{} p={threads} native",
                alg.label()
            );
        }
    }
}

#[test]
fn native_mid_size_distmem() {
    let p = presets::t_s();
    let gen = UtsGen::new(p.spec);
    let cfg = RunConfig::new(Algorithm::DistMem, 8);
    let report = run_native(MachineModel::smp(), 4, &gen, &cfg)
        .expect("fault-free config runs natively");
    assert_eq!(report.total_nodes, p.expected.nodes);
    // Wall-clock makespan and per-thread clocks must be sane.
    assert!(report.makespan_ns > 0);
    assert_eq!(report.per_thread.len(), 4);
}

/// A sim report and a native report agree on the *logical* outcome (total
/// nodes); their timing domains differ (virtual vs wall).
#[test]
fn sim_native_logical_agreement() {
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    let cfg = RunConfig::new(Algorithm::Term, 2);
    let sim = run_sim(MachineModel::smp(), 3, &gen, &cfg);
    let native = run_native(MachineModel::smp(), 3, &gen, &cfg)
        .expect("fault-free config runs natively");
    assert_eq!(sim.total_nodes, native.total_nodes);
}

/// A DAG on real atomics: the native backend keeps the default
/// `Comm::add_many`, the loop of host fetch-adds, so this is the crossing
/// rule ("the add that returns in-degree − 1 emits the task") against real
/// concurrency, and every hand-off to a task's owner and its acknowledgement
/// crosses a real mailbox — every task runs exactly once, under every
/// bundle, and the run satisfies the same theory checks as a simulated one.
#[test]
fn native_dag_conserves_exactly() {
    fn check<G: DagGen>(dag: &DagWorkload<G>, name: &str) {
        let depth = dag.critical_path_len().expect("DAGs know their depth");
        for alg in Algorithm::all() {
            let cfg = RunConfig::new(alg, 1);
            let report = run_native(MachineModel::smp(), 4, dag, &cfg)
                .expect("fault-free config runs natively");
            assert_eq!(report.total_nodes, dag.n_tasks(), "{name} {} native", alg.label());
            theory::check_run(&report, dag.n_tasks(), depth, DEFAULT_STEAL_FACTOR, false)
                .unwrap_or_else(|e| panic!("{name} {} native: {e}", alg.label()));
        }
    }
    check(&DagWorkload::new(RandomLayered::new(8, 24, 200, 5)), "layered");
    // Bursts of `width`: a fork makes 24 tasks ready in one expansion.
    check(&DagWorkload::new(ForkJoin { levels: 8, width: 24, seed: 5 }), "fork-join");
}
