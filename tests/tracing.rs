//! Trace subsystem integration: event logs reflect the counters, diffusion
//! and steal-matrix analyses are consistent with the run report, and
//! tracing does not change the computation.

use pgas::MachineModel;
use uts_dlb::tree::presets;
use uts_dlb::worksteal::trace::{render_timeline, Event};
use uts_dlb::worksteal::{run_sim, Algorithm, RunConfig, UtsGen};

fn traced_run(alg: Algorithm) -> uts_dlb::worksteal::RunReport {
    let p = presets::t_s();
    let gen = UtsGen::new(p.spec);
    let mut cfg = RunConfig::new(alg, 4);
    cfg.trace = true;
    let report = run_sim(MachineModel::kittyhawk(), 6, &gen, &cfg);
    assert_eq!(report.total_nodes, p.expected.nodes);
    report
}

#[test]
fn events_match_counters() {
    for alg in [Algorithm::DistMem, Algorithm::Term, Algorithm::MpiWs] {
        let report = traced_run(alg);
        for (t, r) in report.per_thread.iter().enumerate() {
            let ok = r
                .events
                .iter()
                .filter(|e| matches!(e, Event::StealOk { .. }))
                .count() as u64;
            let fail = r
                .events
                .iter()
                .filter(|e| matches!(e, Event::StealFail { .. }))
                .count() as u64;
            assert_eq!(ok, r.steals_ok, "{} thread {t} steal-ok", alg.label());
            assert_eq!(
                fail,
                r.steals_failed,
                "{} thread {t} steal-fail",
                alg.label()
            );
        }
    }
}

#[test]
fn steal_matrix_total_matches_report() {
    let report = traced_run(Algorithm::DistMem);
    assert_eq!(report.steal_matrix().total(), report.total_steals());
}

#[test]
fn event_timestamps_monotone_per_thread() {
    let report = traced_run(Algorithm::DistMem);
    for r in &report.per_thread {
        let mut last = 0u64;
        for e in &r.events {
            let t = match e {
                Event::Enter { t_ns, .. }
                | Event::StealOk { t_ns, .. }
                | Event::StealFail { t_ns, .. }
                | Event::StealTimeout { t_ns, .. }
                | Event::Retract { t_ns, .. }
                | Event::Release { t_ns }
                | Event::Death { t_ns, .. }
                | Event::Adopt { t_ns, .. }
                | Event::Reinject { t_ns, .. }
                | Event::Evict { t_ns, .. }
                | Event::HandOff { t_ns, .. }
                | Event::Rejoin { t_ns, .. } => *t_ns,
            };
            assert!(t >= last, "event time went backwards");
            last = t;
        }
    }
}

#[test]
fn diffusion_covers_all_threads_on_big_enough_tree() {
    let report = traced_run(Algorithm::DistMem);
    let d = report.diffusion();
    // 45k nodes across 6 threads: everyone gets work.
    assert!(d.t100_ns.is_some(), "some thread starved: {:?}", d.first_work_ns);
    assert!(d.t50_ns.unwrap() <= d.t90_ns.unwrap());
    assert!(d.t90_ns.unwrap() <= d.t100_ns.unwrap());
    assert!(d.t100_ns.unwrap() <= report.makespan_ns);
    // Thread 0 is born with the root.
    assert_eq!(d.first_work_ns[0], Some(0).map(|_| d.first_work_ns[0].unwrap()));
    assert!(d.first_work_ns[0].unwrap() <= d.t50_ns.unwrap());
}

#[test]
fn untraced_runs_have_no_events_and_same_result() {
    let p = presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    let mut cfg = RunConfig::new(Algorithm::DistMem, 2);
    cfg.trace = false;
    let plain = run_sim(MachineModel::kittyhawk(), 4, &gen, &cfg);
    cfg.trace = true;
    let traced = run_sim(MachineModel::kittyhawk(), 4, &gen, &cfg);
    assert!(plain.per_thread.iter().all(|t| t.events.is_empty()));
    assert!(traced.per_thread.iter().any(|t| !t.events.is_empty()));
    // Tracing must not perturb the virtual execution at all.
    assert_eq!(plain.makespan_ns, traced.makespan_ns);
    assert_eq!(plain.total_steals(), traced.total_steals());
}

#[test]
fn timeline_has_one_row_per_thread() {
    let report = traced_run(Algorithm::DistMem);
    let s = render_timeline(&report.event_logs(), report.makespan_ns, 60);
    assert_eq!(s.lines().count(), report.threads);
    assert!(s.contains('W'), "no working time rendered:\n{s}");
}

/// §3.3.2 rapid diffusion, measured: steal-half reaches full coverage no
/// later than steal-one on the same workload (with margin for noise we
/// assert ≤ 1.5x).
#[test]
fn rapdif_diffuses_no_slower() {
    let one = traced_run(Algorithm::Term).diffusion();
    let half = traced_run(Algorithm::TermRapdif).diffusion();
    let (t_one, t_half) = (one.t90_ns.unwrap(), half.t90_ns.unwrap());
    assert!(
        t_half as f64 <= t_one as f64 * 1.5,
        "steal-half t90 {t_half} vs steal-one t90 {t_one}"
    );
}
