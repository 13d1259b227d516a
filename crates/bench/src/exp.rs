//! The experiment table: every figure, table and sweep of EXPERIMENTS.md
//! (E1–E19), the chaos soaks and the conductor bench as a named entry of
//! [`TABLE`], run by the `exp` binary.
//!
//! An entry takes no parameters. Each of its rows is a [`RunSpec`]: a
//! template beside the entry's grid loop (machine, tree or DAG, arrivals)
//! plus the axes the entry varies (`p`, `alg`, `k`, `poll`, `victims`,
//! `steal`, `faults`). Every row runs through [`harness::run`], so
//! `UTS_OVERRIDE` may swap the conductor or inject faults and a row that
//! fails its check names the `uts_cli --spec` line that replays it; its
//! rows leave through [`publish`]. So `results/<name>.csv` is a function of
//! the committed entry, and `exp --check` can say whether the committed file
//! still is. A single point with other parameters is what `uts_cli` is for.

use std::iter;
use std::time::Instant;

use pgas::sim::{SimCluster, SimReport};
use pgas::{ArrivalProcess, ArrivalSpec, FaultPlan};
use uts_tree::presets::{self, Preset};
use uts_tree::{seq::dfs_count, GeoShape, TreeSpec};
use worksteal::model::{fit_alpha, fit_beta, ChunkModel};
use worksteal::spec::{Conductor, RunSpec, Workload};
use worksteal::state::State;
use worksteal::theory::{self, DEFAULT_STEAL_FACTOR};
use worksteal::{
    run_sim, seq_run, vars, worker, Algorithm, DagGen, DagWorkload, ForkJoin, LatencyHistogram, RandomLayered,
    RunConfig, RunReport, StealPolicyKind, ThreadResult, UtsGen, VictimPolicy, Wavefront,
};

use crate::chaos::{crash_faults, membership_faults, DAG, DAG_TASKS};
use crate::harness::{self, print_table, Ran, Row, Sink};
use crate::ready_wait::{Hops, ReadyWait};

/// How an entry runs: it only prints, or it also owns `results/<name>.csv`.
pub enum Run {
    /// Prints a table or a legend; leaves no file.
    Print(fn()),
    /// Computes the rows of `results/<name>.csv` and hands them to the sink.
    Csv(fn(Sink) -> Result<(), String>),
}

/// One named experiment.
pub struct Entry {
    /// Name on the `exp` command line; also the CSV stem and the log stem.
    pub name: &'static str,
    /// One line for `exp --list`.
    pub about: &'static str,
    /// The experiment.
    pub run: Run,
}

impl Entry {
    /// Does the entry own `results/<name>.csv`?
    pub fn owns_csv(&self) -> bool {
        matches!(self.run, Run::Csv(_))
    }
}

/// Every experiment, in the order `scripts/run_experiments.sh` runs them
/// (cheapest first; the two Figure 5 trees, the p=8192 cell and the
/// kill-rate sweep last).
pub const TABLE: &[Entry] = &[
    Entry { name: "table_seq", about: "E1 §4.1 sequential rates", run: Run::Print(table_seq) },
    Entry { name: "fig3", about: "Figure 3 label legend", run: Run::Print(fig3) },
    Entry { name: "scale_eff", about: "E12 efficiency vs tree size at p=64", run: Run::Csv(scale_eff) },
    Entry { name: "ablation", about: "E3 §4.2 refinement chain, \"≈ 37 %\"", run: Run::Csv(ablation) },
    Entry { name: "working_state", about: "E7 §6.2 state-time decomposition", run: Run::Print(working_state) },
    Entry { name: "hier", about: "E9 node-local-first victims (§6.2 future work)", run: Run::Csv(hier) },
    Entry { name: "pushing", about: "E10 work pushing vs work stealing", run: Run::Csv(pushing) },
    Entry { name: "diffusion", about: "E14 §3.3.2 work diffusion, traced", run: Run::Print(diffusion) },
    Entry { name: "poll_sweep", about: "E11 polling-interval sensitivity", run: Run::Csv(poll_sweep) },
    Entry { name: "tree_family", about: "E13 geometric and hybrid UTS trees", run: Run::Csv(tree_family) },
    Entry { name: "model_check", about: "E15 §2 analytic chunk-size model", run: Run::Print(model_check) },
    Entry { name: "policy_grid", about: "E16 transport × victim order × steal amount", run: Run::Csv(policy_grid) },
    Entry { name: "ready_wait", about: "E18 DAG ready-to-start waits and critical paths, every bundle", run: Run::Print(ready_wait) },
    Entry { name: "service_smoke", about: "E17 CI-sized service runs, fault-free and crashy", run: Run::Print(service_smoke) },
    Entry { name: "dag_sweep_smoke", about: "E18 CI-sized DAG sweep, theory-checked, p=8", run: Run::Print(dag_sweep_smoke) },
    Entry { name: "chaos_smoke", about: "CI-sized chaos soak: seeded, crash and membership plans, p=16", run: Run::Print(chaos_smoke) },
    Entry { name: "conductor", about: "harness cost: the ledger's sim points on both conductor policies", run: Run::Print(conductor) },
    Entry { name: "service", about: "E17 service mode: saturation, burstiness, chaos under load", run: Run::Csv(service) },
    Entry { name: "dag_sweep", about: "E18 DAG families vs a tree, every row theory-checked", run: Run::Csv(dag_sweep) },
    Entry { name: "fig4", about: "E2 Figure 4: chunk-size sweep, 256 threads", run: Run::Csv(fig4) },
    Entry { name: "fig6", about: "E5 Figure 6: Altix shared memory, T-L", run: Run::Csv(fig6) },
    Entry { name: "fig5_xl", about: "E4 Figure 5: scaling to 1024 threads, T-XL", run: Run::Csv(fig5_xl) },
    Entry { name: "fig5_xxl", about: "E4 headline: upc-distmem on T-XXL", run: Run::Csv(fig5_xxl) },
    Entry { name: "dag_p8192", about: "E19 one theory-checked p=8192 cell (≈ 1 min, ≈ 0.38 GB)", run: Run::Print(dag_p8192) },
    Entry { name: "chaos_kill", about: "crash soak at kill 0, 350 and 1000 per mille, T-S, p=256", run: Run::Print(chaos_kill) },
];

/// The template of a tree grid — `tree` on `machine`, one thread of
/// upc-distmem at k=8 until a point says otherwise — and the node count
/// every run of it must reach. Prints the grid's heading.
fn grid(machine: &'static str, tree: Preset) -> (RunSpec, u64) {
    println!("{} ({} nodes) on {machine}", tree.name, tree.expected.nodes);
    let template = RunSpec::new(machine, 1, Workload::Tree(tree.spec), &RunConfig::new(Algorithm::DistMem, 8));
    (template, tree.expected.nodes)
}

/// One conservation-checked point of a tree grid.
fn point(spec: RunSpec, nodes: u64) -> Row {
    harness::run(spec, nodes, RunSpec::run).measure().1
}

/// A tree run with event tracing on, which [`RunSpec::run`] leaves off.
fn traced(spec: &RunSpec) -> RunReport {
    let Workload::Tree(tree) = spec.workload else { unreachable!("only tree grids are traced") };
    run_sim(spec.machine_model(), spec.p, &UtsGen::new(tree), &RunConfig { trace: true, ..spec.config() })
}

/// Print `rows` as a table and hand them to the sink as
/// `results/<name>.csv`, whose last `wall_clock_columns` columns are host
/// seconds: the one way rows leave an entry.
fn publish(
    sink: Sink,
    name: &str,
    title: &str,
    header: &str,
    rows: &[String],
    wall_clock_columns: usize,
) -> Result<(), String> {
    print_table(title, header, rows);
    sink.emit(name, header, rows, wall_clock_columns)
}

/// [`publish`] for [`Row`]s.
fn publish_rows(sink: Sink, name: &str, title: &str, rows: &[Row]) -> Result<(), String> {
    let lines: Vec<String> = rows.iter().map(Row::csv).collect();
    publish(sink, name, title, Row::HEADER, &lines, 1)
}

/// Best rate of one label over a sweep.
fn peak(rows: &[Row], label: &str) -> f64 {
    rows.iter()
        .filter(|r| r.label == label)
        .map(|r| r.mnodes_per_sec)
        .fold(f64::MIN, f64::max)
}

/// Relative gain of `b` over `a`, in percent.
fn gain(a: f64, b: f64) -> f64 {
    100.0 * (b / a - 1.0)
}

/// E1 — §4.1 sequential performance. The paper anchors everything on the
/// sequential exploration rate: 2.10 Mnodes/s (Topsail Xeon E5345), 2.39
/// (Kitty Hawk Xeon E5150), 1.12 (Altix Itanium2), dominated by SHA-1.
/// Reports the rates the machine presets encode, a 1-thread virtual run per
/// platform (which should match the model within protocol overhead), and
/// this host's *real* SHA-1-limited rate for context.
fn table_seq() {
    let tree = presets::t_m();
    let rows: Vec<String> = [("topsail", 2.10), ("kittyhawk", 2.39), ("altix", 1.12)]
        .into_iter()
        .map(|(machine, paper_rate)| {
            let (t, nodes) = grid(machine, tree);
            format!(
                "{machine:<10} {paper_rate:>14.2} {:>14.2} {:>17.2}",
                t.machine_model().seq_rate() / 1e6,
                point(t, nodes).mnodes_per_sec
            )
        })
    .collect();
    println!(
        "\n{:<10} {:>14} {:>14} {:>17}\n{}",
        "platform",
        "paper Mn/s",
        "model Mn/s",
        "1-thread sim Mn/s",
        rows.join("\n")
    );
    let t0 = std::time::Instant::now();
    let (nodes, _) = worksteal::seq_run(&UtsGen::new(tree.spec));
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "\nthis host's real sequential rate: {:.2} Mnodes/s ({nodes} nodes in {dt:.2}s)",
        nodes as f64 / dt / 1e6
    );
}

/// Figure 3 — the legend of labels used in the speedup and performance
/// graphs, mapping each implementation to the section describing it. Printed
/// from the `Algorithm` enum so code and documentation cannot drift.
fn fig3() {
    println!("{:<18} {:<72} Details", "Label", "Explanation");
    println!("{}", "-".repeat(104));
    for alg in Algorithm::paper_set().iter().rev() {
        let (explanation, details) = match alg {
            Algorithm::DistMem => (
                "UPC implementation of the distributed memory algorithm (upc-term-rapdif with lock-less DFS stack)",
                "Sect. 3.3.3",
            ),
            Algorithm::TermRapdif => ("upc-term with rapid diffusion", "Sect. 3.3.2"),
            Algorithm::Term => ("upc-sharedmem with streamlined termination detection", "Sect. 3.3.1"),
            Algorithm::SharedMem => ("UPC implementation of the shared memory algorithm", "Sect. 3.1"),
            Algorithm::MpiWs => ("MPI work stealing implementation", "Sect. 3.2, [2]"),
            _ => unreachable!("paper_set is fixed"),
        };
        println!("{:<18} {:<72} {}", alg.label(), explanation, details);
    }
    println!("\nextensions in this reproduction (not in the paper's figure):");
    for (alg, explanation, details) in [
        (Algorithm::Hier, "upc-distmem with node-local-first victim selection", "Sect. 6.2 (future work)"),
        (Algorithm::Pushing, "randomized work pushing baseline", "ref. [16] flavour"),
    ] {
        println!("{:<18} {explanation:<72} {details}", alg.label());
    }
}

/// E2 — Figure 4: speedup and absolute performance at different chunk sizes,
/// 256 threads, Kitty Hawk, all five implementations. Expected shape (§4.2,
/// §4.2.1): a "sweet spot" plateau of chunk sizes falling off on both sides;
/// `upc-sharedmem` degrades *extremely* at low chunk sizes (cancelable-barrier
/// churn); `upc-distmem` performs at or above `mpi-ws`; each refinement
/// (`upc-term` → `upc-term-rapdif` → `upc-distmem`) improves on the last.
fn fig4(sink: Sink) -> Result<(), String> {
    const THREADS: usize = 256;
    const CHUNKS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
    let (t, nodes) = grid("kittyhawk", presets::t_m());
    let mut rows = Vec::new();
    for alg in Algorithm::paper_set() {
        for k in CHUNKS {
            // upc-sharedmem's pathological point costs minutes of real time
            // to simulate; the collapse is already unambiguous at k=2.
            if alg == Algorithm::SharedMem && k == 1 {
                continue;
            }
            rows.push(point(RunSpec { p: THREADS, alg, k, ..t }, nodes));
        }
    }
    publish_rows(sink, "fig4", "Figure 4: performance vs chunk size", &rows)?;

    let (distmem, term, mpi) =
        (peak(&rows, "upc-distmem"), peak(&rows, "upc-term"), peak(&rows, "mpi-ws"));
    println!(
        "\npeak rates (Mn/s): upc-distmem {distmem:.1}, mpi-ws {mpi:.1}, upc-term {term:.1}, upc-sharedmem {:.1}",
        peak(&rows, "upc-sharedmem")
    );
    println!(
        "upc-distmem vs upc-term improvement: {:+.1}% (paper: refinements total ≈ +37%)",
        gain(term, distmem)
    );
    println!(
        "upc-distmem vs mpi-ws: {:+.1}% (paper: \"exceeds the performance of the MPI implementation\")",
        gain(mpi, distmem)
    );
    Ok(())
}

/// E4 — Figure 5: speedup and absolute performance versus processor count on
/// Topsail, k=8 (paper: 157-billion-node tree, up to 1024 processors;
/// `upc-distmem` reaches 1.7 Gnodes/s, speedup 819, efficiency 80 %, more
/// than 85,000 steals/s). Our trees are ~10⁴× smaller, so absolute
/// efficiencies at 1024 threads are proportionally lower; the *curve shape*
/// and the distmem-vs-mpi relationship are the reproduction targets.
fn fig5(
    sink: Sink,
    name: &str,
    tree: Preset,
    threads: &[usize],
    algorithms: &[Algorithm],
) -> Result<(), String> {
    let (t, nodes) = grid("topsail", tree);
    let mut rows = Vec::new();
    for &p in threads {
        for &alg in algorithms {
            rows.push(point(RunSpec { p, alg, ..t }, nodes));
        }
    }
    publish_rows(sink, name, "Figure 5: speedup & performance vs processors", &rows)?;

    let r = rows
        .iter()
        .filter(|r| r.label == "upc-distmem")
        .max_by_key(|r| r.threads)
        .expect("both Figure 5 entries run upc-distmem");
    println!(
        "\nheadline (upc-distmem @ p={}): {:.1} Mnodes/s, speedup {:.0}, efficiency {:.0}%, {:.0} steals/s",
        r.threads,
        r.mnodes_per_sec,
        r.speedup,
        100.0 * r.efficiency,
        r.steals_per_sec
    );
    println!("paper @1024 on a 157e9-node tree: 1700 Mnodes/s, speedup 819, efficiency 80%, >85,000 steals/s");
    println!(
        "(per-thread work here: {:.0} nodes vs the paper's ~153,000,000 — see EXPERIMENTS.md E4)",
        r.nodes as f64 / r.threads as f64
    );
    Ok(())
}

fn fig5_xl(sink: Sink) -> Result<(), String> {
    let algorithms = [Algorithm::DistMem, Algorithm::MpiWs];
    fig5(sink, "fig5_xl", presets::t_xl(), &[64, 128, 256, 512, 1024], &algorithms)
}

/// The abstract-style headline: `upc-distmem` alone on the 88.9M-node tree.
fn fig5_xxl(sink: Sink) -> Result<(), String> {
    fig5(sink, "fig5_xxl", presets::t_xxl(), &[256, 512, 1024], &[Algorithm::DistMem])
}

/// E5 — Figure 6: shared-memory performance portability on the SGI Altix
/// 3700, T-L, k=8. Paper: "Results are close for both UPC implementations:
/// near-linear speedup on up to at least 64 processors. ... the performance
/// of the MPI implementation lags slightly behind the UPC implementations on
/// this platform."
fn fig6(sink: Sink) -> Result<(), String> {
    const THREADS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
    let (t, nodes) = grid("altix", presets::t_l());
    let mut rows = Vec::new();
    for p in THREADS {
        for alg in [Algorithm::SharedMem, Algorithm::DistMem, Algorithm::MpiWs] {
            rows.push(point(RunSpec { p, alg, ..t }, nodes));
        }
    }
    publish_rows(sink, "fig6", "Figure 6: Altix shared-memory scaling", &rows)?;

    let widest = &rows[rows.len() - 3..];
    println!(
        "\nefficiency at p=64: upc-sharedmem {:.0}%, upc-distmem {:.0}%, mpi-ws {:.0}%",
        100.0 * widest[0].efficiency,
        100.0 * widest[1].efficiency,
        100.0 * widest[2].efficiency
    );
    println!("paper: both UPC implementations near-linear; MPI lags slightly behind.");
    Ok(())
}

/// E12 — efficiency versus problem size at fixed thread count (`upc-distmem`,
/// 64 threads, k=8, Topsail). Our trees are ~10⁴× smaller than the paper's,
/// so absolute parallel efficiency at high thread counts is necessarily
/// lower: there is less work to amortise each steal. Efficiency at fixed p
/// climbing with tree size is the evidence that the gap versus the paper is
/// a scale effect, not an algorithmic one (see EXPERIMENTS.md).
fn scale_eff(sink: Sink) -> Result<(), String> {
    let rows: Vec<Row> = [presets::t_s(), presets::t_m(), presets::t_l(), presets::t_xl()]
        .into_iter()
        .map(|tree| {
            let (t, nodes) = grid("topsail", tree);
            point(RunSpec { p: 64, ..t }, nodes)
        })
        .collect();
    publish_rows(sink, "scale_eff", "Efficiency vs problem size (fixed p)", &rows)
}

/// E3 — §4.2 refinement ablation: "each of the refinements presented in
/// Sections 3.3.1-3.3.3 shows an improvement in these results; the total
/// improvement is about 37%." Runs the chain `upc-sharedmem → upc-term →
/// upc-term-rapdif → upc-distmem` at one point (T-L, 256 threads, k=8,
/// Kitty Hawk) and reports each step's incremental gain, plus `mpi-ws` for
/// reference, plus the two extensions.
fn ablation(sink: Sink) -> Result<(), String> {
    let (t, nodes) = grid("kittyhawk", presets::t_l());
    let rows: Vec<Row> = Algorithm::all().into_iter().map(|alg| point(RunSpec { p: 256, alg, ..t }, nodes)).collect();
    publish_rows(sink, "ablation", "Refinement ablation", &rows)?;

    let rate = |i: usize| rows[i].mnodes_per_sec;
    println!("\nincremental refinement gains (rate vs previous step):");
    for i in 1..4 {
        println!(
            "  {:<16} -> {:<16} {:+.1}%",
            rows[i - 1].label,
            rows[i].label,
            gain(rate(i - 1), rate(i))
        );
    }
    println!(
        "  total ({} -> {}): {:+.1}%  (paper: ≈ +37% from upc-sharedmem's best configuration)",
        rows[0].label,
        rows[3].label,
        gain(rate(0), rate(3))
    );
    println!("  upc-term -> upc-distmem: {:+.1}%", gain(rate(1), rate(3)));
    Ok(())
}

/// E7 — §6.2 state-time decomposition: "We observe 93% efficiency of threads
/// *in the working state* compared to a single thread running optimized
/// sequential UTS. ... Outside the working state, overhead time is spent
/// searching for work, stealing work, or in termination detection."
fn working_state() {
    let (t, nodes) = grid("topsail", presets::t_l());
    let (report, _) = harness::run(RunSpec { p: 256, ..t }, nodes, RunSpec::run).measure();

    println!("\nfraction of total thread-time per Figure-1 state:");
    for (name, s) in [
        ("Working", State::Working),
        ("Searching", State::Searching),
        ("Stealing", State::Stealing),
        ("Terminating", State::Terminating),
    ] {
        println!("  {:<12} {:>6.2}%", name, 100.0 * report.state_fraction(s));
    }
    println!(
        "\nworking-state efficiency (useful work / working-state time): {:.1}%",
        100.0 * report.working_state_efficiency()
    );
    println!("paper §6.2: 93% at 1024 threads (the rest: steal servicing, cold misses)");

    let totals = report.totals();
    println!("\naggregate protocol activity:");
    println!("  releases {} reacquires {}", totals.releases, totals.reacquires);
    println!(
        "  steals ok {} failed {} chunks stolen {} requests serviced {}",
        totals.steals_ok, totals.steals_failed, totals.chunks_stolen, totals.requests_serviced
    );
    println!(
        "  probes {} | comm ops {} | locks acquired {} (lock-less stack: must be 0)",
        totals.probes,
        totals.comm.total_ops(),
        totals.comm.lock_acquires
    );
}

/// E9 — extension from §6.2's future work: "One way we may decrease the
/// latency of probing for work and stealing in large clusters of shared
/// memory multiprocessor nodes is to first try to steal work within a
/// cluster node before probing off-node." Compares `upc-distmem` (flat
/// random victim selection) with `upc-hier` (same-node victims probed first,
/// the `bupc_thread_distance` analog) on T-L, 256 threads, k=8, Topsail.
fn hier(sink: Sink) -> Result<(), String> {
    let (t, nodes) = grid("topsail", presets::t_l());
    let per_node = t.machine_model().threads_per_node;
    let mut rows = Vec::new();
    let mut locality = Vec::new();
    for alg in [Algorithm::DistMem, Algorithm::Hier] {
        let (report, row) = harness::run(RunSpec { p: 256, alg, ..t }, nodes, traced).measure();
        locality.push(report.steal_matrix().same_node_fraction(per_node));
        rows.push(row);
    }
    publish_rows(sink, "hier", "Flat vs hierarchical victim selection", &rows)?;

    println!("\nsteal locality (fraction of steals staying on a {per_node}-thread node):");
    println!("  upc-distmem {:.1}%   upc-hier {:.1}%", 100.0 * locality[0], 100.0 * locality[1]);
    println!(
        "upc-hier vs upc-distmem rate: {:+.1}%",
        gain(rows[0].mnodes_per_sec, rows[1].mnodes_per_sec)
    );
    Ok(())
}

/// E10 — extension: work *pushing* (paper ref \[16\] flavour) versus work
/// *stealing* at the ablation's point (its `upc-distmem` / `mpi-ws` /
/// `push-random` rows). The "work-first principle" (§2) predicts stealing
/// wins: push overhead is paid by loaded threads, steal overhead by idle ones.
fn pushing(sink: Sink) -> Result<(), String> {
    let (t, nodes) = grid("kittyhawk", presets::t_l());
    let rows: Vec<Row> = [Algorithm::DistMem, Algorithm::MpiWs, Algorithm::Pushing]
        .into_iter()
        .map(|alg| point(RunSpec { p: 256, alg, ..t }, nodes))
        .collect();
    publish_rows(sink, "pushing", "Work stealing vs work pushing", &rows)?;

    // The work-first principle in one number: how much of the *working*
    // threads' time each strategy burns on load-balancing traffic.
    for r in [&rows[0], &rows[2]] {
        println!(
            "{:<14} working-state share {:.1}%, working-state efficiency {:.1}%",
            r.label,
            100.0 * r.working_frac,
            100.0 * r.working_eff
        );
    }
    Ok(())
}

/// E14 — work diffusion (§3.3.2, measured). The paper's rapid-diffusion
/// argument: letting thieves take *half* the victim's chunks "rapidly
/// increase\[s\] the number of work sources" and "leads to more rapid
/// diffusion of work". Event tracing measures exactly that: the time by
/// which 50 % / 90 % / 100 % of threads first obtained work, and how many
/// distinct victims ("work sources") served steals — steal-one (`upc-term`)
/// against steal-half (`upc-term-rapdif`, `upc-distmem`).
fn diffusion() {
    let (t, nodes) = grid("kittyhawk", presets::t_m());
    println!(
        "\n{:<16} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "algorithm", "t50 (µs)", "t90 (µs)", "t100 (µs)", "steals", "sources", "starved"
    );
    for alg in [
        Algorithm::Term,
        Algorithm::TermRapdif,
        Algorithm::DistMem,
        Algorithm::MpiWs,
        Algorithm::Pushing,
    ] {
        let (report, _) = harness::run(RunSpec { p: 128, alg, ..t }, nodes, traced).measure();
        let d = report.diffusion();
        let m = report.steal_matrix();
        let us = |t: Option<u64>| t.map_or("-".to_string(), |ns| format!("{:.1}", ns as f64 / 1e3));
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
            report.label,
            us(d.t50_ns),
            us(d.t90_ns),
            us(d.t100_ns),
            m.total(),
            m.distinct_victims(),
            d.first_work_ns.iter().filter(|t| t.is_none()).count()
        );
    }
    println!("\nexpected shape: steal-half variants reach t90/t100 sooner and create");
    println!("more distinct work sources than steal-one (paper §3.3.2).");
}

/// E11 — polling-interval sensitivity (T-M, 128 threads, k=8, Kitty Hawk).
/// §3.2/§4.2: working threads in the message-passing implementation "poll
/// for requests at an interval set by a user-supplied parameter", and the
/// paper used "optimal parameters for communication tuning (e.g. polling
/// intervals)". The distmem victim's request-cell poll has the same knob:
/// polling too often taxes the working threads; too rarely, thieves wait on
/// stale victims.
fn poll_sweep(sink: Sink) -> Result<(), String> {
    let (t, nodes) = grid("kittyhawk", presets::t_m());
    let mut rows = Vec::new();
    for alg in [Algorithm::DistMem, Algorithm::MpiWs] {
        for poll in [1u64, 4, 16, 64, 256, 1024] {
            let mut row = point(RunSpec { p: 128, alg, poll, ..t }, nodes);
            // The chunk column carries the poll interval in this CSV.
            row.chunk = poll as usize;
            rows.push(row);
        }
    }
    publish_rows(sink, "poll_sweep", "Polling interval sweep (chunk column = poll interval)", &rows)
}

/// E13 — load balancing across the wider UTS tree family (64 threads, k=8,
/// Topsail). The paper evaluates binomial trees only (the hardest case:
/// scale-free imbalance). The UTS suite also defines geometric and hybrid
/// shapes; running `upc-distmem` and `mpi-ws` across the family shows the
/// balancer is law-agnostic and how steal traffic varies with tree shape
/// (bounded-depth geometric trees are far easier to balance).
fn tree_family(sink: Sink) -> Result<(), String> {
    let workloads = [
        ("binomial(T-S)", presets::t_s().spec),
        ("geo-fixed", TreeSpec::geometric(7, 3.2, 11, GeoShape::Fixed)),
        ("geo-linear", TreeSpec::geometric(9, 5.0, 14, GeoShape::Linear)),
        ("geo-expdec", TreeSpec::geometric(3, 12.0, 18, GeoShape::ExpDec)),
        ("hybrid", TreeSpec::hybrid(9, 3.0, 7, 2, 0.4995)),
    ];
    let mut rows = Vec::new();
    for (name, spec) in workloads {
        let expected = dfs_count(&spec);
        println!(
            "\nworkload {name}: max depth {}, max stack {}",
            expected.max_depth, expected.max_stack
        );
        let (t, nodes) = grid("topsail", Preset { name, spec, expected });
        for alg in [Algorithm::DistMem, Algorithm::MpiWs] {
            let row = point(RunSpec { p: 64, alg, ..t }, nodes);
            println!(
                "  {:<14} eff {:>5.1}%  steals {:>6}  steals/Mnode {:>8.1}",
                row.label,
                100.0 * row.efficiency,
                row.steals,
                row.steals as f64 / (nodes as f64 / 1e6),
            );
            rows.push(row);
        }
    }
    publish_rows(sink, "tree_family", "Tree family (all workloads)", &rows)
}

/// E15 — validate the §2 analytic chunk-size model (`worksteal::model`)
/// against a measured sweep (`upc-distmem`, T-M, 128 threads, Kitty Hawk).
/// Fits α (migration fraction) from the small-k steal counts and β
/// (granularity-imbalance coefficient) from one large-k rate, then compares
/// the predicted rate curve with the measurements at every chunk size and
/// reports the predicted optimal k* next to the empirical winner.
fn model_check() {
    const THREADS: usize = 128;
    let (t, nodes) = grid("kittyhawk", presets::t_m());
    let (p, n) = (THREADS as f64, nodes as f64);
    let rows: Vec<Row> = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|k| point(RunSpec { p: THREADS, k, ..t }, nodes))
        .collect();

    let steal_points: Vec<(usize, u64)> = rows.iter().map(|r| (r.chunk, r.steals)).collect();
    let alpha = fit_alpha(&steal_points, nodes);
    let m = &t.machine_model();
    let mut model = ChunkModel {
        node_ns: m.node_ns as f64,
        // Request/response round trip plus transfer startup.
        steal_latency_ns: (m.remote_atomic_ns + 2 * m.remote_ref_ns + m.bulk_startup_ns) as f64,
        per_node_ns: m.ns_per_byte * 24.0,
        alpha,
        beta: 0.0,
    };
    let big = rows.last().expect("the sweep is not empty");
    // Rates below are nodes per ns.
    model.beta = fit_beta(&model, big.chunk as f64, big.mnodes_per_sec * 1e6 / 1e9, p, n);
    println!("\nfitted: alpha = {alpha:.4} (migration fraction), beta = {:.2}", model.beta);

    println!("\n{:<6} {:>14} {:>14} {:>9}", "k", "measured Mn/s", "predicted Mn/s", "error");
    let mut worst = 0.0f64;
    for r in &rows {
        let pred = model.rate(r.chunk as f64, p, n) * 1e9 / 1e6;
        let err = (pred - r.mnodes_per_sec) / r.mnodes_per_sec;
        worst = worst.max(err.abs());
        println!("{:<6} {:>14.2} {:>14.2} {:>8.1}%", r.chunk, r.mnodes_per_sec, pred, 100.0 * err);
    }
    let best = rows
        .iter()
        .max_by(|a, b| a.mnodes_per_sec.total_cmp(&b.mnodes_per_sec))
        .expect("the sweep is not empty");
    println!(
        "\npredicted k* = {:.1}; empirical best k = {} (worst pointwise error {:.0}%)",
        model.optimal_k(p, n),
        best.chunk,
        100.0 * worst
    );
    println!("the model captures the §2 tradeoff shape; residuals come from");
    println!("effects it omits (steal-half granting, probe contention, diffusion).");
}

/// E16 — policy-grid ablation: the scheduler core's composable axes,
/// transport × victim order × steal amount, at the ablation's point (T-L,
/// 256 threads, k=8, Kitty Hawk). Combinations the paper never built
/// (hierarchical victims on the locked transport, adaptive steal amounts on
/// distmem) are one-line config overrides. Both base bundles use streamlined
/// termination (§3.3.1), so rows differ only in the swept axes.
fn policy_grid(sink: Sink) -> Result<(), String> {
    const HEADER: &str = "transport,victims,steal,threads,chunk,nodes,t_virtual_s,mnodes_per_sec,\
        speedup,steals,working_frac,t_real_s";
    let (t, nodes) = grid("kittyhawk", presets::t_l());
    let mut lines = Vec::new();
    let mut best = (f64::MIN, String::new());
    // The transport axis rides on the named bundle that carries it.
    for (alg, transport) in [(Algorithm::Term, "locked"), (Algorithm::DistMem, "distmem")] {
        for vp in [VictimPolicy::Flat, VictimPolicy::Hier] {
            for sp in [StealPolicyKind::One, StealPolicyKind::Half, StealPolicyKind::Adaptive] {
                let r = point(RunSpec { p: 256, alg, victims: Some(vp), steal: Some(sp), ..t }, nodes);
                let cell = format!("{transport},{},{}", vp.label(), sp.label());
                lines.push(format!(
                    "{cell},{},{},{},{},{},{},{},{},{}",
                    r.threads,
                    r.chunk,
                    r.nodes,
                    r.t_virtual,
                    r.mnodes_per_sec,
                    r.speedup,
                    r.steals,
                    r.working_frac,
                    r.t_real
                ));
                if r.mnodes_per_sec > best.0 {
                    best = (r.mnodes_per_sec, cell.replace(',', "/"));
                }
            }
        }
    }
    publish(sink, "policy_grid", "Policy grid (streamlined termination)", HEADER, &lines, 1)?;
    println!("best cell: {} at {:.3} Mnodes/s", best.1, best.0);
    Ok(())
}

/// E18 — where a DAG task's time goes before it runs: the benchmark's
/// `dag_layered` shape (`RandomLayered(100, 256, 80)` at the library seed,
/// Kitty Hawk, p=64, k=1) through every bundle, measured by the
/// [`ReadyWait`] probe, which issues no operation. The second table walks
/// each run's critical path ([`crate::ready_wait::CriticalPath`]): its
/// expansions, the waits between them split by whether the rank that ran
/// the next task was inside another expansion, and how each hop moved.
fn ready_wait() {
    let dag = Workload::Layered { layers: 100, width: 256, edge_pm: 80, seed: 3 };
    let probe = ReadyWait::new(DagWorkload::new(RandomLayered::new(100, 256, 80, 3)));
    let n_tasks = probe.inner().n_tasks();
    let template = RunSpec::new("kittyhawk", 64, dag, &RunConfig::new(Algorithm::DistMem, 1));
    let probed = |s: &RunSpec| run_sim(s.machine_model(), s.p, &probe, &s.config());
    let header = "algorithm,makespan_ms,working_frac,steals,handoffs,mean_wait_us,\
        moved_wait_us,moved_tasks,waiting_tasks,busy_ranks";
    let path_header = "algorithm,tasks_per_expansion,hops,exec_ms,busy_wait_ms,idle_wait_ms,\
        tail_ms,stolen,stolen_wait_us,handed_off,handed_off_wait_us,kept,kept_wait_us";
    let (mut rows, mut paths) = (Vec::new(), Vec::new());
    for alg in Algorithm::all() {
        let ran = harness::run(RunSpec { alg, ..template }, n_tasks, probed);
        let report = &ran.report;
        if report.total_nodes != n_tasks {
            ran.fail(format!("{}: {} of {n_tasks} tasks ran", report.label, report.total_nodes));
        }
        let w = probe.waits(report.makespan_ns);
        rows.push(format!(
            "{},{:.3},{:.3},{},{},{:.1},{:.1},{},{:.1},{:.1}",
            report.label,
            report.makespan_ns as f64 / 1e6,
            report.state_fraction(State::Working),
            report.successful_steals,
            report.handoffs,
            w.mean_wait_ns / 1e3,
            w.mean_moved_wait_ns / 1e3,
            w.moved,
            w.waiting,
            w.busy
        ));
        let c = w.path;
        if c.head_ns + c.exec_ns + c.busy_wait_ns + c.idle_wait_ns + c.tail_ns != report.makespan_ns {
            ran.fail(format!("{}: the critical path does not add up to the makespan", report.label));
        }
        let mean_us = |h: Hops| h.wait_ns as f64 / h.n.max(1) as f64 / 1e3;
        paths.push(format!(
            "{},{:.2},{},{:.3},{:.3},{:.3},{:.3},{},{:.1},{},{:.1},{},{:.1}",
            report.label,
            w.batch,
            c.hops,
            c.exec_ns as f64 / 1e6,
            c.busy_wait_ns as f64 / 1e6,
            c.idle_wait_ns as f64 / 1e6,
            c.tail_ns as f64 / 1e6,
            c.stolen.n,
            mean_us(c.stolen),
            c.handed_off.n,
            mean_us(c.handed_off),
            c.kept.n,
            mean_us(c.kept)
        ));
    }
    print_table("ready-to-start waits, dag_layered shape, p=64", header, &rows);
    print_table("critical path, dag_layered shape, p=64", path_header, &paths);
}

/// The columns of `results/service.csv`, every one virtual.
const SERVICE_HEADER: &str = "bundle,process,rate_per_s,threads,requests,deferred,nodes,dup_nodes,deaths,\
    evictions,makespan_ms,p50_us,p99_us,exec_p99_us,detect_p99_us,mean_us,max_us,faults";

/// The three bundles of the service sweep.
const SERVICE_BUNDLES: [Algorithm; 3] = [Algorithm::Term, Algorithm::DistMem, Algorithm::MpiWs];

/// A service row's template: `arrivals` of ~80-node binomial requests
/// (1 + b0 · 1/(1 − m·q) geometric layers) on `p` Kitty Hawk threads of
/// `alg` at k=4.
fn service_run(alg: Algorithm, p: usize, arrivals: ArrivalSpec) -> RunSpec {
    let tree = Workload::Tree(TreeSpec::binomial(101, 8, 2, 0.45));
    RunSpec { arrivals: Some(arrivals), ..RunSpec::new("kittyhawk", p, tree, &RunConfig::new(alg, 4)) }
}

/// The nodes of `requests` service requests: request e runs `tree` with its
/// seed moved by e.
fn service_nodes(tree: TreeSpec, requests: usize) -> u64 {
    (0..requests as u32).map(|e| seq_run(&UtsGen::new(TreeSpec { seed: tree.seed.wrapping_add(e), ..tree })).0).sum()
}

/// One service row as a line of `results/service.csv`. Its check is the
/// per-epoch conservation asserted inside `run_service_sim`, and every
/// request must complete. `exec` is injection → the request's tree executed
/// in full, `detect` tree executed → a scanner declared the epoch
/// quiescent; `faults` reads `override` when `UTS_OVERRIDE` replaced the
/// row's (empty) plan.
fn service_row(spec: RunSpec) -> String {
    let (Some(arrivals), Workload::Tree(tree)) = (spec.arrivals, spec.workload) else {
        unreachable!("a service row is a tree with arrivals")
    };
    let ran = harness::run(spec, service_nodes(tree, arrivals.n_requests), RunSpec::run);
    let (r, svc) = (&ran.report, ran.report.service.as_ref().expect("a service run reports its requests"));
    if svc.per_request.len() != arrivals.n_requests {
        ran.fail(format!("{} of {} requests completed", svc.per_request.len(), arrivals.n_requests));
    }
    let (mut exec, mut detect) = (LatencyHistogram::new(), LatencyHistogram::new());
    for q in &svc.per_request {
        exec.record(q.last_node_ns.saturating_sub(q.injected_ns));
        detect.record(q.completed_ns - q.last_node_ns);
    }
    let process = match arrivals.process {
        ArrivalProcess::Poisson { .. } => "poisson",
        ArrivalProcess::Mmpp { .. } => "mmpp",
    };
    let faults = match ran.spec.faults {
        f if f != spec.faults => "override",
        f if f.crash_active() => "crashy",
        f if f.is_active() => "seeded",
        _ => "none",
    };
    let us = |ns: u64| ns as f64 / 1_000.0;
    format!(
        "{},{process},{},{},{},{},{},{},{},{},{:.4},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{faults}",
        spec.alg.label(),
        arrivals.process.mean_rate_per_sec(),
        spec.p,
        svc.requests,
        svc.deferred_injections,
        r.total_nodes,
        r.duplicate_nodes,
        r.deaths,
        r.evictions,
        r.makespan_ns as f64 / 1e6,
        us(svc.hist.p50()),
        us(svc.hist.p99()),
        us(exec.p99()),
        us(detect.p99()),
        us(svc.hist.mean()),
        us(svc.hist.max()),
    )
}

/// E17 — service mode (`docs/service.md`): open-loop arrival rates against
/// the locked, distmem, and mpi-ws bundles, reporting per-request tail
/// latency from the epoch-quiescence pipeline. Three blocks:
///
/// 1. **Saturation sweep** — Poisson arrivals at increasing rates, p=64 and
///    p=256. Requests are small (~80-node binomial trees); past the point
///    where arrivals outpace the admission window (16 slots ÷ the time a
///    request holds one), injections defer and latency grows with queue
///    depth. The `exec` / `detect` columns say where a request's time goes.
/// 2. **Burstiness** — MMPP arrivals alternating a quiet and a hot rate
///    with (nearly) the long-run mean of the 30k/s Poisson rows, isolating
///    what bursts alone do to p99.
/// 3. **Chaos under load** — the same mid-sweep point under a seeded
///    benign-fault plan and under a crash plan (message loss, duplication,
///    rank kills), every row a verified run. These rows keep their plans
///    under an `UTS_OVERRIDE` that sets one.
///
/// Every column is virtual, so `exp --check` compares the file byte for
/// byte.
fn service(sink: Sink) -> Result<(), String> {
    // Requests per fault-free or `seeded` row: the smallest count whose p99
    // has ten samples beyond it.
    const REQUESTS: usize = 1000;
    // Requests per `crashy` row: one death at p=64 still sets off an
    // eviction storm (ROADMAP item 1) that makes longer streams impractical.
    const CRASHY_REQUESTS: usize = 48;
    let mut rows = Vec::new();
    // Block 1: saturation.
    for (p, rates) in [(64, &[2_000.0, 10_000.0, 30_000.0, 60_000.0][..]), (256, &[10_000.0, 60_000.0][..])] {
        for &rate in rates {
            for alg in SERVICE_BUNDLES {
                rows.push(service_row(service_run(alg, p, ArrivalSpec::poisson(17, REQUESTS, rate))));
            }
        }
    }
    // Block 2: burstiness. The two states dwell equally long, so the
    // long-run mean is 31k/s: the 30k/s Poisson rows are the comparison.
    let mmpp = ArrivalSpec::mmpp(29, REQUESTS, 2_000.0, 60_000.0, 1_000_000);
    for alg in SERVICE_BUNDLES {
        rows.push(service_row(service_run(alg, 64, mmpp)));
    }
    // Block 3: chaos under load at the mid-sweep point. The stock crashy
    // plan kills one rank with probability 0.35 hashed from (seed,
    // nthreads); pinned to 1000‰, the crash row always shows a mid-run death.
    let crash = FaultPlan { kill_per_mille: 1000, ..FaultPlan::crashy(11) };
    for alg in SERVICE_BUNDLES {
        let seeded = service_run(alg, 64, ArrivalSpec::poisson(17, REQUESTS, 10_000.0));
        rows.push(service_row(RunSpec { faults: FaultPlan::seeded(11), ..seeded }));
        let crashy = service_run(alg, 64, ArrivalSpec::poisson(17, CRASHY_REQUESTS, 10_000.0));
        rows.push(service_row(RunSpec { faults: crash, ..crashy }));
    }
    let title = "service: saturation (poisson), burstiness (mmpp 2k/60k, 1ms dwell), chaos under load (10k/s, p=64)";
    publish(sink, "service", title, SERVICE_HEADER, &rows, 0)
}

/// E17's CI-sized run (`scripts/ci.sh`): one low-rate fault-free
/// row and one crash row on a locked and a message bundle; minutes of
/// margin on any box.
fn service_smoke() {
    let arrivals = ArrivalSpec::poisson(5, 6, 20_000.0);
    let mut rows = Vec::new();
    for alg in [Algorithm::Term, Algorithm::MpiWs] {
        let spec = service_run(alg, 8, arrivals);
        rows.push(service_row(spec));
        rows.push(service_row(RunSpec { faults: FaultPlan::crashy(3), ..spec }));
    }
    print_table("service smoke", SERVICE_HEADER, &rows);
    println!("service smoke OK: {} runs, all requests completed", rows.len());
}

/// The columns of `results/dag_sweep.csv`; the last is wall-clock.
const DAG_HEADER: &str = "workload,algorithm,threads,chunk,tasks,edges,critical_path,t_virtual_s,\
    mnodes_per_sec,steal_attempts,successful_steals,steal_bound,bound_util,working_frac,handoffs,\
    t_real_s";

/// A workload of the DAG sweep and what its rows are checked against.
struct Shape {
    /// Workload label for the CSV and the table.
    label: &'static str,
    workload: Workload,
    /// Sequential task/node count (conservation target).
    tasks: u64,
    /// Dependency-cell adds the workload publishes (0 for a tree).
    edges: u64,
    /// Critical-path length `D` for the steal bound.
    depth: u64,
}

impl Shape {
    fn tree(tree: Preset) -> Shape {
        let (tasks, depth) = (tree.expected.nodes, u64::from(tree.expected.max_depth));
        Shape { label: tree.name, workload: Workload::Tree(tree.spec), tasks, edges: 0, depth }
    }

    fn dag(workload: Workload) -> Shape {
        fn of(label: &'static str, workload: Workload, dag: &impl DagGen) -> Shape {
            let edges = (0..dag.n_tasks()).map(|t| u64::from(dag.in_degree(t))).sum();
            Shape { label, workload, tasks: dag.n_tasks(), edges, depth: dag.critical_path() }
        }
        match workload {
            Workload::ForkJoin(d) => of("fork-join", workload, &d),
            Workload::Wavefront(d) => of("wavefront", workload, &d),
            Workload::Layered { layers, width, edge_pm, seed } => {
                of("layered", workload, &RandomLayered::new(layers, width, edge_pm, seed))
            }
            Workload::Tree(_) => unreachable!("a tree's shape is its preset's"),
        }
    }
}

/// One DAG-sweep row of `shape` on `p` Kitty Hawk threads of `alg` at
/// chunk size `k`, checked against conservation and the steal bound
/// (`theory::check_run`) before it is returned, with the share of its
/// bound it used.
fn dag_row(p: usize, alg: Algorithm, k: usize, shape: &Shape) -> (String, f64) {
    let spec = RunSpec::new("kittyhawk", p, shape.workload, &RunConfig::new(alg, k));
    let ran = harness::run(spec, shape.tasks, RunSpec::run);
    let r = &ran.report;
    let crash = ran.spec.faults.crash_active();
    let summary = theory::check_run(r, shape.tasks, shape.depth, DEFAULT_STEAL_FACTOR, crash)
        .unwrap_or_else(|e| ran.fail(format!("{}/{}/p={p}: {e}", shape.label, alg.label())));
    let bound_util = summary.successful_steals as f64 / summary.bound.max(1) as f64;
    let line = format!(
        "{},{},{p},{k},{},{},{},{},{},{},{},{},{bound_util},{},{},{}",
        shape.label,
        alg.label(),
        r.total_nodes,
        shape.edges,
        shape.depth,
        r.makespan_ns as f64 / 1e9,
        r.nodes_per_sec() / 1e6,
        summary.steal_attempts,
        summary.successful_steals,
        summary.bound,
        r.state_fraction(State::Working),
        r.handoffs,
        ran.t_real
    );
    (line, bound_util)
}

/// The rows of a DAG sweep: the `tree` baseline and the three `dags`
/// through the six stealing bundles at k ∈ {1, 4} on each of `threads`.
/// Every stealing transport runs, and on the locked one steal-one ×
/// steal-half and cancelable × streamlined: the bundles a release-policy
/// change can move. Chunk matters doubly for DAGs: a release needs local
/// depth ≥ 2k, and narrow-frontier DAGs (wavefront: ≤ 2 successors per
/// task) never reach it for k > 1 — k=1 and k=4 expose exactly that.
fn dag_grid(tree: Preset, dags: [Workload; 3], threads: &[usize]) -> Vec<String> {
    println!("DAG sweep: k in [1, 4] on kittyhawk, steal factor {DEFAULT_STEAL_FACTOR}");
    let shapes: Vec<Shape> = iter::once(Shape::tree(tree)).chain(dags.map(Shape::dag)).collect();
    let (mut rows, mut worst) = (Vec::new(), 0.0f64);
    for &p in threads {
        for k in [1, 4] {
            for alg in Algorithm::all().into_iter().filter(|&a| a != Algorithm::Pushing) {
                for shape in &shapes {
                    let (line, bound_util) = dag_row(p, alg, k, shape);
                    rows.push(line);
                    worst = worst.max(bound_util);
                }
            }
        }
    }
    println!(
        "all rows pass conservation and the O(p·D) steal bound; tightest cell used {:.1}% of its bound",
        100.0 * worst
    );
    rows
}

/// E18 — the DAG workload families (`worksteal::workload`) and a binomial
/// tree baseline (T-S) through six policy bundles at p ∈ {64, 256}, Kitty
/// Hawk, **every row** checked against conservation and the steal bound
/// (`successful_steals ≤ factor · p · D`, arxiv 1706.03184) before it is
/// written: the CSV never holds a row the theory harness rejected. The DAGs
/// are sized so each family has real parallelism at p=256 while the sweep
/// stays interactive.
///
/// Columns beyond the obvious: `edges` is the number of dependency-cell
/// adds the workload publishes through `Comm` (the sum of its in-degrees; 0
/// for a tree, whose tasks are ready when created), `bound_util` is
/// `successful_steals / steal_bound`, the share of the O(p·D) bound the row
/// used, and `handoffs` counts the ready tasks sent to the owner of their
/// dependency cell (`worksteal::sched::placement`; 0 for a tree).
fn dag_sweep(sink: Sink) -> Result<(), String> {
    let dags = [
        Workload::ForkJoin(ForkJoin { levels: 48, width: 96, seed: 1 }),
        Workload::Wavefront(Wavefront { rows: 80, cols: 80, seed: 2 }),
        Workload::Layered { layers: 40, width: 120, edge_pm: 80, seed: 3 },
    ];
    let rows = dag_grid(presets::t_s(), dags, &[64, 256]);
    publish(sink, "dag_sweep", "DAG sweep", DAG_HEADER, &rows, 1)
}

/// E18's CI-sized sweep (`scripts/ci.sh`): every workload shrunk
/// about 50×, T-tiny as the tree, p=8 only.
fn dag_sweep_smoke() {
    let dags = [
        Workload::ForkJoin(ForkJoin { levels: 6, width: 12, seed: 1 }),
        Workload::Wavefront(Wavefront { rows: 12, cols: 12, seed: 2 }),
        Workload::Layered { layers: 8, width: 12, edge_pm: 150, seed: 3 },
    ];
    let rows = dag_grid(presets::t_tiny(), dags, &[8]);
    print_table("DAG sweep smoke", DAG_HEADER, &rows);
}

/// A chaos soak (docs/faults.md): plans of each fault class swept across
/// the five paper algorithms on `tree`, `p` Kitty Hawk threads. Every run
/// must conserve with multiplicity (`total − duplicates` is the tree's
/// size; [`Ran::distinct`]), and the first that does not fails the soak
/// with the line that replays it. Makespan inflation is against each
/// algorithm's fault-free baseline, which must count the tree exactly.
struct Soak {
    tree: Preset,
    p: usize,
    /// Seeded benign-fault plans per algorithm, with the steal timeout armed.
    seeded: u64,
    /// Crash-plan rates (‰ chance that a rank dies): [`CRASH_PLANS`] plans
    /// per algorithm at each, run on the tree and on the layered [`DAG`],
    /// which must recover some node wherever a rank died.
    kill_pm: &'static [u32],
    /// Membership plans per algorithm: healing partitions, gray stalls,
    /// kills and restarts, on the tree and the DAG, every fifth replayed on
    /// the reference conductor; then on three bundles in service mode,
    /// where every request must complete.
    membership: u64,
    /// Wall-clock bound of the sweep, checked between runs: fuel ends a
    /// hung run, the budget a sweep that ends too slowly.
    budget_s: u64,
}

/// Crash plans per algorithm at each rate of [`Soak::kill_pm`].
const CRASH_PLANS: u64 = 50;

/// The CI-sized soak (`scripts/ci.sh`).
fn chaos_smoke() {
    let kill_pm = &[350];
    soak(Soak { tree: presets::t_tiny(), p: 16, seeded: 50, kill_pm, membership: 50, budget_s: 120 });
}

/// The crash sweep at three kill rates, T-S on 256 threads
/// (EXPERIMENTS.md §"Crash soak and kill-rate sweep").
fn chaos_kill() {
    let kill_pm = &[0, 350, 1000];
    soak(Soak { tree: presets::t_s(), p: 256, seeded: 0, kill_pm, membership: 0, budget_s: 600 });
}

fn soak(s: Soak) {
    // The steal timeout of the seeded and membership plans.
    const TIMEOUT_NS: u64 = 50_000;
    let paper = Algorithm::paper_set();
    let base = RunSpec::new("kittyhawk", s.p, Workload::Tree(s.tree.spec), &RunConfig::new(Algorithm::DistMem, 8));
    let armed = RunSpec { timeout: Some(TIMEOUT_NS), ..base };
    let nodes = seq_run(&UtsGen::new(s.tree.spec)).0;
    assert_eq!(nodes, s.tree.expected.nodes, "preset table is stale");
    println!(
        "chaos soak: {} schedules x {} algorithms, {} ({nodes} nodes), kittyhawk, p={}, timeout={TIMEOUT_NS}ns",
        s.seeded,
        paper.len(),
        s.tree.name,
        s.p
    );
    let (t0, mut runs) = (Instant::now(), 0u64);
    let mut run = |spec: RunSpec, expect: u64| {
        assert!(t0.elapsed().as_secs() <= s.budget_s, "wall-clock budget {}s exceeded before {spec}", s.budget_s);
        runs += 1;
        harness::run(spec, expect, RunSpec::run).distinct()
    };
    let baseline = |spec: RunSpec| harness::run(spec, nodes, RunSpec::run).measure().0.makespan_ns.max(1) as f64;
    // The DAG leg, at k=1: a placing rank never releases, so k only sizes
    // what an mpi-ws victim grants.
    let dag = |spec: RunSpec| RunSpec { workload: DAG, k: 1, ..spec };
    // An algorithm's DAG legs: deaths, recovered, duplicates, hand-offs.
    let tally = |acc: &mut [u64; 4], r: &RunReport| {
        for (a, x) in acc.iter_mut().zip([r.deaths as u64, r.recovered_nodes, r.duplicate_nodes, r.handoffs]) {
            *a += x;
        }
    };
    let dag_line = |alg: Algorithm, [deaths, recovered, dup, handoffs]: [u64; 4]| {
        println!(
            "{:<16} layered DAG ({DAG_TASKS} tasks) deaths {deaths:>3} recovered {recovered:>5} dup {dup:>5} \
             hand-offs {handoffs:>6}",
            alg.label()
        );
    };

    for alg in paper.into_iter().filter(|_| s.seeded > 0) {
        let clean = RunSpec { alg, ..armed };
        let base_ns = baseline(clean);
        let (mut worst, mut sum, mut t) = (0.0f64, 0.0, ThreadResult::default());
        for seed in 0..s.seeded {
            let r = run(RunSpec { faults: FaultPlan::seeded(seed), ..clean }, nodes).report;
            let inflation = r.makespan_ns as f64 / base_ns;
            (worst, sum) = (worst.max(inflation), sum + inflation);
            t.merge(&r.totals());
        }
        println!(
            "{:<16} inflation mean {:>5.2}x worst {:>5.2}x | timeouts {:>5} \
             retracts {:>4}W/{:<4}L retries {:>5} backoff {:>7}us",
            alg.label(),
            sum / s.seeded as f64,
            worst,
            t.steal_timeouts,
            t.retracts_won,
            t.retracts_lost,
            t.steal_retries,
            t.timeout_backoff_ns / 1_000
        );
    }

    for &kill in s.kill_pm {
        println!(
            "\ncrash soak: {} crash plans x {} algorithms (loss+dup, kill {kill}\u{2030}, conservation with \
             multiplicity)",
            CRASH_PLANS,
            paper.len()
        );
        for alg in paper {
            // No timeout armed: crash runs arm their own.
            let base_ns = baseline(RunSpec { alg, ..base });
            let (mut deaths, mut recovered, mut dups, mut worst, mut sum) = (0, 0, 0, 1, 0.0);
            let mut dags = [0u64; 4];
            for seed in 0..CRASH_PLANS {
                let spec = RunSpec { alg, faults: crash_faults(seed, kill), ..base };
                let r = run(spec, nodes).report;
                (deaths, recovered) = (deaths + r.deaths, recovered + r.recovered_nodes);
                (dups, worst) = (dups + r.duplicate_nodes, r.max_multiplicity.max(worst));
                sum += r.makespan_ns as f64 / base_ns;
                tally(&mut dags, &run(dag(spec), DAG_TASKS).report);
            }
            println!(
                "{:<16} deaths {deaths:>3}/{} recovered {recovered:>6} nodes dup {dups:>6} \
                 worst-multiplicity {worst} inflation mean {:>5.2}x",
                alg.label(),
                CRASH_PLANS,
                sum / CRASH_PLANS as f64
            );
            dag_line(alg, dags);
            // A DAG leg that saw deaths but recovered nothing never
            // exercised adoption: it certifies nothing.
            let label = alg.label();
            assert!(dags[0] == 0 || dags[1] > 0, "{label} layered DAG: {} deaths but 0 nodes recovered", dags[0]);
        }
    }

    if s.membership > 0 {
        println!(
            "\nmembership soak: {} plans x {} algorithms (healing partitions, gray stalls, kills, restarts; every 5th \
             plan replayed on the reference conductor)",
            s.membership,
            paper.len()
        );
        let mut sweep = ThreadResult::default();
        for alg in paper {
            let (mut t, mut dags) = (ThreadResult::default(), [0u64; 4]);
            for i in 0..s.membership {
                let spec = RunSpec { alg, ..armed }.with(&membership_faults(i)).expect("a well-formed plan");
                let (tree, on_dag) = (run(spec, nodes), run(dag(spec), DAG_TASKS));
                if i % 5 == 0 {
                    agree(&tree, &mut run);
                    agree(&on_dag, &mut run);
                }
                t.merge(&tree.report.totals());
                tally(&mut dags, &on_dag.report);
            }
            println!(
                "{:<16} evictions {:>4} rejoins {:>4} fenced-drops {:>6} scavenged {:>5} nodes",
                alg.label(),
                t.evictions,
                t.rejoins,
                t.fenced_drops,
                t.scavenged_nodes
            );
            dag_line(alg, dags);
            sweep.merge(&t);
        }
        assert!(
            sweep.evictions > 0 && sweep.rejoins > 0,
            "membership sweep never exercised the machinery (evictions={} rejoins={}) — the plans are too tame to \
             certify anything",
            sweep.evictions,
            sweep.rejoins
        );

        // The same plans against the open-loop service on the message
        // bundles: `run_service_sim` asserts per-epoch conservation, and no
        // request may be lost through partition, eviction, heal and rejoin.
        let (requests, svc_tree) = (8, TreeSpec::binomial(23, 4, 2, 0.4));
        let svc_nodes = service_nodes(svc_tree, requests);
        println!(
            "\nmembership service soak: {} plans x 3 bundles, {requests} requests each (zero lost requests)",
            s.membership
        );
        for alg in [Algorithm::DistMem, Algorithm::MpiWs, Algorithm::Pushing] {
            let (mut evictions, mut rejoins, mut worst_p99) = (0, 0, 0);
            for i in 0..s.membership {
                let arrivals = Some(ArrivalSpec::poisson(13 + i, requests, 12_000.0));
                let spec = RunSpec { p: 8, workload: Workload::Tree(svc_tree), alg, k: 2, arrivals, ..armed };
                let ran = run(spec.with(&membership_faults(i)).expect("a well-formed plan"), svc_nodes);
                let svc = ran.report.service.as_ref().expect("a service run reports its requests");
                if svc.requests != requests || svc.per_request.len() != requests {
                    ran.fail(format!("{} of {requests} requests completed", svc.per_request.len()));
                }
                (evictions, rejoins) = (evictions + ran.report.evictions, rejoins + ran.report.rejoins);
                worst_p99 = worst_p99.max(svc.hist.p99());
            }
            println!(
                "{:<16} evictions {evictions:>4} rejoins {rejoins:>4} worst p99 {:>7}us",
                alg.label(),
                worst_p99 / 1_000
            );
        }
    }
    println!("\n{runs} faulted runs in {:.1}s, 0 violations", t0.elapsed().as_secs_f64());
}

/// Rerun `ran` on the reference conductor by `run`: the two must agree.
fn agree(ran: &Ran, run: &mut impl FnMut(RunSpec, u64) -> Ran) {
    let reference = run(RunSpec { conductor: Conductor::Reference, ..ran.spec }, ran.expect);
    let key = |r: &RunReport| {
        (r.makespan_ns, r.total_nodes, r.duplicate_nodes, r.evictions, r.rejoins, r.deaths, r.handoffs)
    };
    if key(&reference.report) != key(&ran.report) {
        reference.fail("diverged across conductors (fast vs reference)");
    }
}

/// A tree run with the conductor's own counts, which [`RunSpec::run`] folds
/// away.
fn conducted(spec: &RunSpec) -> SimReport<ThreadResult> {
    let Workload::Tree(tree) = spec.workload else { unreachable!("the conductor points are trees") };
    let (gen, cfg) = (UtsGen::new(tree), spec.config());
    SimCluster::new(spec.machine_model(), spec.p, vars::space_config())
        .with_lookahead(cfg.sim_lookahead)
        .with_faults(cfg.faults)
        .run(|c| worker(c, &gen, &cfg))
}

/// Harness cost (EXPERIMENTS.md §"Harness cost"): the benchmark ledger's
/// three simulated tree points — `sim_fig4_distmem`, `sim_fig4_mpiws`,
/// `sim_wide` — each run by the fast and by the reference policy on the
/// same fibers (docs/conductor.md). Everything virtual must be equal:
/// makespan, clocks, comm stats, final memory, every worker result and the
/// length of the operation stream. The reference skips no mail wait and
/// runs no probe cycle; the fast policy skips some waits on mpi-ws and
/// applies some probe-cycle reads on upc-distmem. Prints each point's op
/// mix, conductor counts and host seconds per policy.
fn conductor() {
    for (machine, tree, p, alg) in [
        ("kittyhawk", presets::t_m(), 256, Algorithm::DistMem),
        ("kittyhawk", presets::t_m(), 256, Algorithm::MpiWs),
        ("topsail", presets::t_s(), 1024, Algorithm::DistMem),
    ] {
        let (t, nodes) = grid(machine, tree);
        let spec = RunSpec { p, alg, ..t };
        println!("{spec}");
        let runs = [Conductor::Fiber, Conductor::Reference]
            .map(|conductor| harness::run(RunSpec { conductor, ..spec }, nodes, conducted));
        for ran in &runs {
            let c = ran.report.total_conductor();
            let naive = ran.spec.conductor == Conductor::Reference;
            let fast = !naive && !ran.spec.faults.is_active();
            let broken = [
                (ran.report.results.iter().map(|r| r.nodes).sum::<u64>() != nodes, "node conservation violated"),
                (naive && c.elided_ops > 0, "the reference skipped a mail wait"),
                (naive && c.cycle_ops > 0, "the reference ran a probe cycle"),
                // A fault plan (`UTS_OVERRIDE`) turns both off.
                (fast && alg == Algorithm::MpiWs && c.elided_ops == 0, "no mail wait was skipped"),
                (fast && alg == Algorithm::DistMem && c.cycle_ops == 0, "no probe-cycle read was applied"),
            ];
            if let Some((_, what)) = broken.into_iter().find(|b| b.0) {
                ran.fail(what);
            }
        }
        let [fast, reference] = &runs;
        let (f, r, c) = (&fast.report, &reference.report, fast.report.total_conductor());
        let diverged = [
            (f.makespan_ns != r.makespan_ns, "virtual makespan"),
            (f.clocks != r.clocks, "virtual clocks"),
            (f.stats != r.stats, "comm stats"),
            (f.scalars != r.scalars, "final memory"),
            (f.results != r.results, "worker results"),
            (c.total_ops() != r.total_conductor().total_ops(), "operation stream length"),
        ];
        if let Some((_, what)) = diverged.into_iter().find(|d| d.0) {
            reference.fail(format!("{what} diverged between the fast and the reference policy"));
        }
        let m = f.total_stats();
        println!(
            "  op mix: {} polls, {} gets, {} puts, {} atomics, {} lock-ops, {} bulk, {} msg-ops",
            m.polls,
            m.gets,
            m.puts,
            m.atomics,
            m.lock_acquires + m.lock_failures + m.unlocks,
            m.bulk_ops,
            m.msgs_sent + m.msgs_received
        );
        println!(
            "  conductor: {} ops, {:.1}% on the fast path ({} by the reach window), {} handoffs, {} elided by mail \
             waits, {} applied for parked probe cycles, deepest fiber stack {} B",
            c.total_ops(),
            100.0 * c.fast_fraction(),
            c.reach_ops,
            c.handoffs,
            c.elided_ops,
            c.cycle_ops,
            c.stack_peak_bytes
        );
        println!("  host: fast {:.3} s, reference {:.3} s", fast.t_real, reference.t_real);
    }
}

/// E19 — the harness at scale: one theory-checked p=8192 cell (≈ 1 min of
/// wall-clock, ≈ 0.38 GB resident). T-S + upc-distmem + k=8 keeps it
/// minutes-scale: binomial fan-out (≤ 2 children) diffuses through
/// steal-half exponentially, where a single wide-fan-out DAG source
/// serialises its whole frontier through one victim.
fn dag_p8192() {
    let (line, _) = dag_row(8192, Algorithm::DistMem, 8, &Shape::tree(presets::t_s()));
    print_table("p=8192 cell", DAG_HEADER, &[line]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn entry_names_are_unique() {
        let names: BTreeSet<&str> = TABLE.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), TABLE.len());
    }

    /// Fails the day someone commits a CSV nothing regenerates, or deletes one
    /// an entry still owns.
    #[test]
    fn every_committed_csv_has_an_owner() {
        let owned: BTreeSet<String> = TABLE
            .iter()
            .filter(|e| e.owns_csv())
            .map(|e| format!("{}.csv", e.name))
            .collect();
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ is committed")
            .map(|f| f.expect("readable directory entry").file_name().into_string().expect("UTF-8 name"))
            .filter(|f| f.ends_with(".csv"))
            .collect();
        assert_eq!(owned, on_disk);
    }

    /// Fails the day a log is committed that no entry writes any more.
    #[test]
    fn every_committed_log_has_an_owner() {
        let logs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/logs");
        for f in std::fs::read_dir(logs).expect("results/logs/ is committed") {
            let name = f.expect("readable directory entry").file_name().into_string().expect("UTF-8 name");
            let Some(stem) = name.strip_suffix(".log") else { continue };
            assert!(
                TABLE.iter().any(|e| e.name == stem),
                "results/logs/{name} has no entry that writes it"
            );
        }
    }
}
