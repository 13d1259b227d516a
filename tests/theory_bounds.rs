//! Steal-bound and conservation theory checks (`worksteal::theory`) as
//! live assertions over real runs: every workload family — binomial and
//! geometric trees, plus all three DAG families — must satisfy
//! `successful_steals ≤ factor · p · D` and exact conservation on
//! fault-free runs, and the asserter itself must demonstrably trip when
//! handed an impossible bound (factor 0 on a run that stole at least once).

use pgas::MachineModel;
use uts_dlb::worksteal::theory::{self, DEFAULT_STEAL_FACTOR};
use uts_dlb::worksteal::{
    run_sim, seq_run, Algorithm, DagWorkload, ForkJoin, RandomLayered, RunConfig, TaskGen,
    RunSpec, TheoryViolation, UtsGen, Wavefront,
};
use uts_tree::presets;
use uts_tree::spec::{GeoShape, TreeSpec};

/// Run `gen` on a few (algorithm, threads) cells and theory-check each.
fn check_workload<G: TaskGen>(gen: &G, expected: u64, depth: u64, what: &str) {
    assert!(depth > 0, "{what}: missing critical-path length");
    for alg in [Algorithm::Term, Algorithm::DistMem, Algorithm::MpiWs] {
        for threads in [2usize, 8] {
            let cfg = RunConfig::new(alg, 2);
            let report = run_sim(MachineModel::kittyhawk(), threads, gen, &cfg);
            let summary =
                theory::check_run(&report, expected, depth, DEFAULT_STEAL_FACTOR, false)
                    .unwrap_or_else(|e| {
                        panic!("{what}/{}/p={threads}: {e}", alg.label())
                    });
            assert_eq!(summary.expected, expected);
            assert!(
                summary.steal_attempts >= summary.successful_steals,
                "{what}: attempts can never undercount successes"
            );
        }
    }
}

#[test]
fn tree_families_satisfy_steal_bound_and_conservation() {
    // Binomial: preset with a frozen depth.
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    check_workload(
        &gen,
        p.expected.nodes,
        u64::from(p.expected.max_depth),
        "binomial",
    );

    // Geometric: depth measured by host traversal. Scan past degenerate
    // seeds (a geometric root can draw zero children).
    let mut spec = TreeSpec::geometric(1, 2.0, 6, GeoShape::Fixed);
    let expect = loop {
        let (expect, _) = seq_run(&UtsGen::new(spec));
        if expect > 10 {
            break expect;
        }
        spec.seed += 100;
    };
    let gen = UtsGen::new(spec);
    check_workload(&gen, expect, theory::tree_depth(&gen), "geometric");
}

#[test]
fn dag_families_satisfy_steal_bound_and_conservation() {
    let fj = DagWorkload::new(ForkJoin {
        levels: 6,
        width: 10,
        seed: 21,
    });
    let wf = DagWorkload::new(Wavefront {
        rows: 10,
        cols: 10,
        seed: 22,
    });
    let rl = DagWorkload::new(RandomLayered::new(7, 9, 300, 23));
    check_workload(&fj, fj.n_tasks(), fj.critical_path_len().unwrap(), "fork-join");
    check_workload(&wf, wf.n_tasks(), wf.critical_path_len().unwrap(), "wavefront");
    check_workload(&rl, rl.n_tasks(), rl.critical_path_len().unwrap(), "layered");
}

/// The deliberately-broken bound: a zero slack factor makes the bound 0,
/// so any run with at least one successful steal must trip the asserter —
/// proof the theory harness actually rejects, rather than vacuously
/// accepting every row.
#[test]
fn broken_bound_trips_the_asserter() {
    let p = presets::t_tiny();
    let report = "kittyhawk p=8 tree=tiny alg=distmem k=2".parse::<RunSpec>().unwrap().run();
    assert!(
        report.successful_steals > 0,
        "need a run that actually stole to demonstrate the trip"
    );
    let depth = u64::from(p.expected.max_depth);
    let err = theory::check_run(&report, p.expected.nodes, depth, 0.0, false)
        .expect_err("factor 0 must reject any stealing run");
    match err {
        TheoryViolation::StealBound { steals, bound, .. } => {
            assert_eq!(bound, 0);
            assert_eq!(steals, report.successful_steals);
        }
        other => panic!("expected a steal-bound violation, got: {other}"),
    }
    // The same run passes with the default factor: the trip above came from
    // the impossible bound, not from the run.
    theory::check_run(&report, p.expected.nodes, depth, DEFAULT_STEAL_FACTOR, false)
        .expect("default factor accepts the run");
}

/// Conservation violations trip too: lying about the expected size by one
/// task must be rejected for every workload shape.
#[test]
fn wrong_expected_size_trips_conservation() {
    let wf = DagWorkload::new(Wavefront {
        rows: 6,
        cols: 6,
        seed: 9,
    });
    let cfg = RunConfig::new(Algorithm::Term, 2);
    let report = run_sim(MachineModel::kittyhawk(), 4, &wf, &cfg);
    let depth = wf.critical_path_len().unwrap();
    let err = theory::check_run(&report, wf.n_tasks() + 1, depth, DEFAULT_STEAL_FACTOR, false)
        .expect_err("off-by-one expected size must trip");
    assert!(matches!(err, TheoryViolation::Conservation { .. }), "{err}");
}
