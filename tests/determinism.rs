//! Simulator determinism: identical configuration ⇒ bit-identical outcome
//! (virtual makespan, per-thread node counts, steal counts, op statistics).
//! This is what makes the figure harness reproducible run-to-run.

use uts_dlb::worksteal::spec::algorithm_name;
use uts_dlb::worksteal::{Algorithm, RunReport, RunSpec};

fn run(line: &str) -> RunReport {
    line.parse::<RunSpec>().unwrap_or_else(|e| panic!("{line}: {e}")).run()
}

fn fingerprint(alg: Algorithm, seed: u64) -> (u64, Vec<u64>, u64, u64) {
    let r = run(&format!("topsail p=6 tree=tiny alg={} k=2 seed={seed}", algorithm_name(alg)));
    (
        r.makespan_ns,
        r.per_thread.iter().map(|t| t.nodes).collect(),
        r.total_steals(),
        r.totals().comm.total_ops(),
    )
}

#[test]
fn identical_configs_identical_runs() {
    for alg in Algorithm::paper_set() {
        let a = fingerprint(alg, 42);
        let b = fingerprint(alg, 42);
        assert_eq!(a, b, "{} is nondeterministic", alg.label());
    }
}

#[test]
fn different_seeds_change_schedules() {
    // The probe order is seeded; different seeds should give observably
    // different executions (at least for one of the algorithms).
    let mut any_differ = false;
    for alg in [Algorithm::DistMem, Algorithm::Term, Algorithm::MpiWs] {
        if fingerprint(alg, 1) != fingerprint(alg, 2) {
            any_differ = true;
        }
    }
    assert!(any_differ, "seeds appear to have no effect on scheduling");
}

#[test]
fn thread_count_changes_makespan() {
    let one = run("topsail p=1 tree=s alg=distmem k=4");
    let eight = run("topsail p=8 tree=s alg=distmem k=4");
    assert_eq!(one.total_nodes, eight.total_nodes);
    assert!(
        eight.makespan_ns * 2 < one.makespan_ns,
        "8 threads should be at least 2x faster in virtual time ({} vs {})",
        eight.makespan_ns,
        one.makespan_ns
    );
}
