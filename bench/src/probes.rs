//! Measurements that need another conductor or a process of their own.
//!
//! No workload runs on the reference or the parallel conductor, so they get
//! one run each at T-S, p = 64, asserted bit-identical with the fiber run —
//! the data for the ROADMAP's conductor-consolidation decision. The parallel
//! conductor is selected through its `UTS_SIM_WORKERS` knob in a child
//! process, and per-fiber memory is a fresh child's `VmHWM` growth.

use std::time::Instant;

use uts_dlb::pgas::sim::SimCluster;
use uts_dlb::pgas::{ConductorStats, MachineModel, SpaceConfig};
use uts_dlb::tree::presets;
use uts_dlb::worksteal::{run_sim, vars, worker, Algorithm, RunConfig, UtsGen};

use crate::host::{peak_rss_kb, run_self};
use crate::json::Json;
use crate::ledger::Entry;

/// Fibers spawned by the memory probe.
const FIBERS: usize = 1024;

fn point(smoke: bool) -> (presets::Preset, usize) {
    if smoke {
        (presets::t_tiny(), 8)
    } else {
        (presets::t_s(), 64)
    }
}

/// One run through `SimCluster` directly: host seconds, the virtual results
/// that must not depend on the conductor, and the conductor's counters.
fn direct_run(smoke: bool) -> (f64, Vec<u64>, ConductorStats) {
    let (preset, p) = point(smoke);
    let gen = UtsGen::new(preset.spec);
    let cfg = RunConfig::new(Algorithm::DistMem, 8);
    let cluster = SimCluster::new(
        MachineModel::kittyhawk(),
        p,
        vars::space_config_for(&gen, p),
    );
    let t = Instant::now();
    let report = cluster.run(|c| worker(c, &gen, &cfg));
    let host_s = t.elapsed().as_secs_f64();
    let mut virt = vec![report.makespan_ns];
    virt.extend(&report.clocks);
    virt.extend(report.results.iter().flat_map(|r| [r.nodes, r.steals_ok]));
    (host_s, virt, report.total_conductor())
}

/// Entry point of `--probe <which>` children: one JSON line on stdout.
pub fn child_main(which: &str, smoke: bool) -> Result<(), String> {
    let line = match which {
        "sim_par" => {
            // after main's scrub and before any thread exists
            std::env::set_var("UTS_SIM_WORKERS", "2");
            let (host_s, virt, c) = direct_run(smoke);
            Json::obj([
                ("host_s", Json::Num(host_s)),
                (
                    "virt",
                    Json::Arr(virt.iter().map(|&v| Json::Num(v as f64)).collect()),
                ),
                ("ops", Json::Num(c.total_ops() as f64)),
                ("parked", Json::Num(c.handoffs as f64)),
            ])
        }
        "fibers" => {
            let before = peak_rss_kb();
            let t = Instant::now();
            SimCluster::<u64>::new(MachineModel::smp(), FIBERS, SpaceConfig::default()).run(|_| ());
            Json::obj([
                ("spawn_s", Json::Num(t.elapsed().as_secs_f64())),
                (
                    "rss_kb",
                    Json::Num(peak_rss_kb().saturating_sub(before) as f64),
                ),
            ])
        }
        other => return Err(format!("unknown probe '{other}'")),
    };
    println!("{}", line.to_line());
    Ok(())
}

/// Run this executable as `--probe which`, wait for it, parse its line.
fn child(which: &str, smoke: bool) -> Result<Json, String> {
    let mut args = vec!["--probe", which];
    if smoke {
        args.push("--smoke");
    }
    let (ok, text) = run_self(&args)?;
    if !ok {
        return Err(format!("probe {which} failed"));
    }
    Json::parse(text.lines().last().unwrap_or(""))
}

/// All probes, as ledger entries. A probe that cannot run leaves its
/// metrics at 0 and says why on stderr; it is not an operation of the
/// workload.
pub fn run_all(smoke: bool) -> Vec<Entry> {
    let mut out: Vec<Entry> = Vec::new();
    let (_, fiber_virt, fiber) = direct_run(smoke);
    let ops = fiber.total_ops() as f64;

    // reference conductor: same run through `run_sim`, lookahead off
    let (preset, p) = point(smoke);
    let gen = UtsGen::new(preset.spec);
    let mut cfg = RunConfig::new(Algorithm::DistMem, 8);
    cfg.sim_lookahead = false;
    let t = Instant::now();
    let report = run_sim(MachineModel::kittyhawk(), p, &gen, &cfg);
    let ref_s = t.elapsed().as_secs_f64();
    assert_eq!(
        report.makespan_ns, fiber_virt[0],
        "reference and fiber conductors disagree on the makespan"
    );
    assert_eq!(report.total_nodes, preset.expected.nodes);
    out.push(("sim_ref.host_ns_per_op".into(), ref_s * 1e9 / ops));

    match child("sim_par", smoke) {
        Ok(j) => {
            let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let virt: Vec<u64> = j
                .get("virt")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .map(|v| v as u64)
                .collect();
            assert_eq!(
                virt, fiber_virt,
                "parallel and fiber conductors disagree on virtual results"
            );
            out.push((
                "sim_par.host_ns_per_op".into(),
                num("host_s") * 1e9 / num("ops").max(1.0),
            ));
            out.push((
                "sim_par.parked_frac".into(),
                num("parked") / num("ops").max(1.0),
            ));
        }
        Err(e) => eprintln!("warning: {e}; sim_par.* left at 0"),
    }
    match child("fibers", smoke) {
        Ok(j) => {
            let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            out.push((
                "sim.spawn_us_per_fiber".into(),
                num("spawn_s") * 1e6 / FIBERS as f64,
            ));
            out.push(("sim.rss_kb_per_fiber".into(), num("rss_kb") / FIBERS as f64));
        }
        Err(e) => eprintln!("warning: {e}; sim.*_per_fiber left at 0"),
    }
    out
}
