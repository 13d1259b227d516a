//! DAG-vs-tree policy sweep with per-row theory checks (EXPERIMENTS.md E18).
//!
//! Runs the DAG workload families (`worksteal::workload`) and a binomial
//! tree baseline through six policy bundles — the locked transport under
//! both barriers and both steal amounts, one-sided distmem, message passing,
//! hierarchical victims — at two thread counts, and checks **every row**
//! against the steal bound (`successful_steals ≤ factor · p · D`, arxiv
//! 1706.03184) and
//! conservation before it is written. A violated bound aborts the run:
//! the CSV never contains a row the theory harness rejected.
//!
//! Usage: `cargo run --release -p uts-bench --bin dag_sweep [--smoke] [--check]`
//! (Kitty Hawk, T-S baseline — T-tiny under `--smoke` — k ∈ {1, 4}; like the
//! `exp` entries the sweep takes no parameters, so the committed CSV is a
//! function of this file).
//!
//! Columns beyond the obvious: `edges` is the number of dependency-cell adds
//! the workload publishes through `Comm` (the sum of its in-degrees; 0 for a
//! tree, whose tasks are ready when created) and `bound_util` is
//! `successful_steals / steal_bound`, the share of the O(p·D) bound the row
//! used, and `handoffs` counts the ready tasks sent to the owner of their
//! dependency cell (`worksteal::sched::placement`; 0 for a tree). `--check`
//! recomputes the sweep and compares every column but the wall-clock
//! `t_real_s` with the committed CSV instead of writing it (`scripts/ci.sh`).
//!
//! `--smoke` shrinks every workload and runs p=8 only, for CI
//! (`scripts/chaos_smoke.sh`); smoke runs never overwrite
//! `results/dag_sweep.csv`. `--smoke --p8192` appends the by-hand p=8192
//! scale cell (EXPERIMENTS.md E19).

use std::time::Instant;

use pgas::MachineModel;
use uts_bench::harness::{flag, sim_config, Sink};
use uts_tree::presets;
use worksteal::state::State;
use worksteal::theory::{self, DEFAULT_STEAL_FACTOR};
use worksteal::{
    run_sim, Algorithm, DagWorkload, ForkJoin, RandomLayered, TaskGen, UtsGen, Wavefront,
};

const HEADER: &str = "workload,algorithm,threads,chunk,tasks,edges,critical_path,t_virtual_s,\
    mnodes_per_sec,steal_attempts,successful_steals,steal_bound,bound_util,working_frac,handoffs,\
    t_real_s";

/// What distinguishes one sweep row besides the (algorithm, threads) cell.
struct Point<'a> {
    /// Workload label for the CSV and the table.
    workload: &'a str,
    /// Sequential task/node count (conservation target).
    expected: u64,
    /// Dependency-cell adds the workload publishes (0 for a tree).
    edges: u64,
    /// Critical-path length `D` for the steal bound.
    depth: u64,
}

/// Run one cell, theory-check it, append the CSV row. Returns the cell's
/// steals/bound ratio so `main` can report how much slack the default
/// factor has left (calibration data for `DEFAULT_STEAL_FACTOR`).
fn sweep<G: TaskGen>(
    machine: &MachineModel,
    threads: usize,
    gen: &G,
    alg: Algorithm,
    chunk: usize,
    point: &Point,
    csv: &mut Vec<String>,
) -> f64 {
    let cfg = sim_config(alg, chunk);
    let t0 = Instant::now();
    let report = run_sim(machine.clone(), threads, gen, &cfg);
    let t_real = t0.elapsed().as_secs_f64();
    let summary = theory::check_run(
        &report,
        point.expected,
        point.depth,
        DEFAULT_STEAL_FACTOR,
        cfg.faults.crash_active(),
    )
    .unwrap_or_else(|e| {
        panic!(
            "{}/{}/p={threads}: {e}",
            point.workload,
            alg.label()
        )
    });
    let t_virtual = report.makespan_ns as f64 / 1e9;
    let mnps = report.nodes_per_sec() / 1e6;
    let working = report.state_fraction(State::Working);
    let bound_util = summary.successful_steals as f64 / summary.bound.max(1) as f64;
    println!(
        "{:<12} {:<16} {:>4} {:>2} {:>9} {:>8} {:>10.4} {:>9.3} {:>9} {:>9} {:>10} {:>6.1} {:>8} {:>7.2}",
        point.workload,
        alg.label(),
        threads,
        chunk,
        report.total_nodes,
        point.depth,
        t_virtual,
        mnps,
        summary.steal_attempts,
        summary.successful_steals,
        summary.bound,
        100.0 * working,
        report.handoffs,
        t_real
    );
    csv.push(format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        point.workload,
        alg.label(),
        threads,
        chunk,
        report.total_nodes,
        point.edges,
        point.depth,
        t_virtual,
        mnps,
        summary.steal_attempts,
        summary.successful_steals,
        summary.bound,
        bound_util,
        working,
        report.handoffs,
        t_real
    ));
    bound_util
}

/// [`sweep`] for a DAG workload: the conservation target and steal-bound
/// depth come from the generator itself.
fn sweep_dag<G: worksteal::DagGen>(
    machine: &MachineModel,
    threads: usize,
    gen: &DagWorkload<G>,
    alg: Algorithm,
    chunk: usize,
    workload: &str,
    csv: &mut Vec<String>,
) -> f64 {
    let dag = gen.dag();
    let point = Point {
        workload,
        expected: gen.n_tasks(),
        edges: (0..gen.n_tasks()).map(|t| u64::from(dag.in_degree(t))).sum(),
        depth: gen.critical_path_len().expect("DAGs have a closed-form depth"),
    };
    sweep(machine, threads, gen, alg, chunk, &point, csv)
}

fn main() {
    let smoke = flag("--smoke");
    // Chunk matters doubly for DAGs: a release needs local depth >= 2k, and
    // narrow-frontier DAGs (wavefront: <= 2 successors per task) never reach
    // it for k > 1 — the sweep runs k=1 and k=4 to expose exactly that.
    let chunks = [1usize, 4];
    let machine = MachineModel::kittyhawk();
    let preset = if smoke { presets::t_tiny() } else { presets::t_s() };
    let tree_gen = UtsGen::new(preset.spec);

    // Every transport, and on the locked one steal-one × steal-half and
    // cancelable × streamlined: the bundles a release-policy change can move.
    let algs = [
        Algorithm::SharedMem,
        Algorithm::Term,
        Algorithm::TermRapdif,
        Algorithm::DistMem,
        Algorithm::MpiWs,
        Algorithm::Hier,
    ];
    let threads_list: &[usize] = if smoke { &[8] } else { &[64, 256] };

    // DAG instances: sized so each family has real parallelism at p=256
    // while the whole sweep stays interactive. Smoke shrinks them ~50x.
    let (fj, wf, rl) = if smoke {
        (
            ForkJoin { levels: 6, width: 12, seed: 1 },
            Wavefront { rows: 12, cols: 12, seed: 2 },
            RandomLayered::new(8, 12, 150, 3),
        )
    } else {
        (
            ForkJoin { levels: 48, width: 96, seed: 1 },
            Wavefront { rows: 80, cols: 80, seed: 2 },
            RandomLayered::new(40, 120, 80, 3),
        )
    };
    let fj = DagWorkload::new(fj);
    let wf = DagWorkload::new(wf);
    let rl = DagWorkload::new(rl);

    println!(
        "DAG sweep: k in {chunks:?} on {}, steal factor {DEFAULT_STEAL_FACTOR}{}",
        machine.name,
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<12} {:<16} {:>4} {:>2} {:>9} {:>8} {:>10} {:>9} {:>9} {:>9} {:>10} {:>6} {:>8} {:>7}",
        "workload",
        "algorithm",
        "p",
        "k",
        "tasks",
        "depth",
        "t_virt(s)",
        "Mnodes/s",
        "attempts",
        "steals",
        "bound",
        "work%",
        "handoffs",
        "real(s)"
    );

    let mut csv = Vec::new();
    let mut worst: f64 = 0.0;
    for &threads in threads_list {
        for k in chunks {
            for alg in algs {
                let tree_point = Point {
                    workload: preset.name,
                    expected: preset.expected.nodes,
                    edges: 0,
                    depth: u64::from(preset.expected.max_depth),
                };
                worst = worst.max(sweep(&machine, threads, &tree_gen, alg, k, &tree_point, &mut csv));
                worst = worst.max(sweep_dag(&machine, threads, &fj, alg, k, "fork-join", &mut csv));
                worst = worst.max(sweep_dag(&machine, threads, &wf, alg, k, "wavefront", &mut csv));
                worst = worst.max(sweep_dag(&machine, threads, &rl, alg, k, "layered", &mut csv));
            }
        }
    }
    println!(
        "all rows pass conservation and the O(p·D) steal bound; \
         tightest cell used {:.1}% of its bound",
        100.0 * worst
    );

    if smoke {
        // Scale smoke, by hand only (≈50 s of wall-clock, ≈0.37 GB
        // resident): one p=8192 cell (EXPERIMENTS.md E19). T-S + distmem +
        // k=8 keeps it minutes-scale: binomial fan-out (≤ 2 children)
        // diffuses through steal-half exponentially, where a single
        // wide-fan-out DAG source serialises its whole frontier through one
        // victim (see E19).
        if flag("--p8192") {
            println!("p=8192 smoke cell:");
            let pr = presets::t_s();
            let g = UtsGen::new(pr.spec);
            let pt = Point {
                workload: pr.name,
                expected: pr.expected.nodes,
                edges: 0,
                depth: u64::from(pr.expected.max_depth),
            };
            sweep(&machine, 8192, &g, Algorithm::DistMem, 8, &pt, &mut csv);
        } else {
            println!("p=8192 smoke cell skipped (pass --p8192)");
        }
        println!("smoke run: results/dag_sweep.csv left untouched");
        return;
    }
    if let Err(stale) = Sink::from_args(flag("--check")).emit("dag_sweep", HEADER, &csv, 1) {
        eprintln!("{stale}");
        std::process::exit(1);
    }
}
