//! The experiment table: every figure, table and sweep of EXPERIMENTS.md
//! (E1–E16, and E18's ready-wait probe) as a named entry of [`TABLE`], run
//! by the `exp` binary.
//!
//! An entry takes no parameters. Its tree, machine, thread counts, chunk
//! sizes and algorithm list are constants beside its grid loop, every run
//! goes through [`sim_config`] (so `UTS_OVERRIDE` may swap the conductor or
//! inject faults), and its rows leave through [`Sink::emit`] —
//! so `results/<name>.csv` is a function of the committed entry, and
//! `exp --check` can say whether the committed file still is. A single point
//! with other parameters is what `uts_cli` is for.

use pgas::MachineModel;
use uts_tree::presets::{self, Preset};
use uts_tree::{seq::dfs_count, GeoShape, TreeSpec};
use worksteal::model::{fit_alpha, fit_beta, ChunkModel};
use worksteal::state::State;
use worksteal::{
    run_sim, Algorithm, DagWorkload, RandomLayered, RunConfig, RunReport, StealPolicyKind, UtsGen,
    VictimPolicy,
};

use crate::harness::{measure, print_table, sim_config, Row, Sink};
use crate::ready_wait::ReadyWait;

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
/// (cheapest first; the two Figure 5 trees last).
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
    Entry { name: "ready_wait", about: "E18 DAG ready-to-start waits, every bundle", run: Run::Print(ready_wait) },
    Entry { name: "fig4", about: "E2 Figure 4: chunk-size sweep, 256 threads", run: Run::Csv(fig4) },
    Entry { name: "fig6", about: "E5 Figure 6: Altix shared memory, T-L", run: Run::Csv(fig6) },
    Entry { name: "fig5_xl", about: "E4 Figure 5: scaling to 1024 threads, T-XL", run: Run::Csv(fig5_xl) },
    Entry { name: "fig5_xxl", about: "E4 headline: upc-distmem on T-XXL", run: Run::Csv(fig5_xxl) },
];

/// A tree on a machine: the fixed half of every grid below.
struct Bed {
    machine: MachineModel,
    gen: UtsGen,
    nodes: u64,
}

impl Bed {
    fn new(machine: MachineModel, tree: Preset) -> Bed {
        println!("{} ({} nodes) on {}", tree.name, tree.expected.nodes, machine.name);
        Bed { machine, gen: UtsGen::new(tree.spec), nodes: tree.expected.nodes }
    }

    /// One conservation-checked run of `cfg` on `p` threads.
    fn report(&self, p: usize, cfg: &RunConfig) -> (RunReport, Row) {
        let (report, row) = measure(&self.machine, p, &self.gen, cfg, self.nodes);
        eprintln!(
            "  {} p={} k={}: {:.2} Mn/s, speedup {:.1} [{:.1}s real]",
            row.label, p, cfg.chunk_size, row.mnodes_per_sec, row.speedup, row.t_real
        );
        (report, row)
    }

    /// One grid point of a named bundle.
    fn point(&self, p: usize, alg: Algorithm, k: usize) -> Row {
        self.report(p, &sim_config(alg, k)).1
    }
}

/// Print `rows` and hand them to the sink as `results/<name>.csv`.
fn publish(sink: Sink, name: &str, title: &str, rows: &[Row]) -> Result<(), String> {
    let lines: Vec<String> = rows.iter().map(Row::csv).collect();
    print_table(title, Row::HEADER, &lines);
    sink.emit(name, Row::HEADER, &lines, 1)
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
    let rows: Vec<String> = [
        (MachineModel::topsail(), 2.10),
        (MachineModel::kittyhawk(), 2.39),
        (MachineModel::altix(), 1.12),
    ]
    .into_iter()
    .map(|(machine, paper_rate)| {
        let bed = Bed::new(machine, tree);
        format!(
            "{:<10} {:>14.2} {:>14.2} {:>17.2}",
            bed.machine.name,
            paper_rate,
            bed.machine.seq_rate() / 1e6,
            bed.point(1, Algorithm::DistMem, 8).mnodes_per_sec
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
    let bed = Bed::new(MachineModel::kittyhawk(), presets::t_m());
    let mut rows = Vec::new();
    for alg in Algorithm::paper_set() {
        for k in CHUNKS {
            // upc-sharedmem's pathological point costs minutes of real time
            // to simulate; the collapse is already unambiguous at k=2.
            if alg == Algorithm::SharedMem && k == 1 {
                continue;
            }
            rows.push(bed.point(THREADS, alg, k));
        }
    }
    publish(sink, "fig4", "Figure 4: performance vs chunk size", &rows)?;

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
    let bed = Bed::new(MachineModel::topsail(), tree);
    let mut rows = Vec::new();
    for &p in threads {
        for &alg in algorithms {
            rows.push(bed.point(p, alg, 8));
        }
    }
    publish(sink, name, "Figure 5: speedup & performance vs processors", &rows)?;

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
    let bed = Bed::new(MachineModel::altix(), presets::t_l());
    let mut rows = Vec::new();
    for p in THREADS {
        for alg in [Algorithm::SharedMem, Algorithm::DistMem, Algorithm::MpiWs] {
            rows.push(bed.point(p, alg, 8));
        }
    }
    publish(sink, "fig6", "Figure 6: Altix shared-memory scaling", &rows)?;

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
        .map(|tree| Bed::new(MachineModel::topsail(), tree).point(64, Algorithm::DistMem, 8))
        .collect();
    publish(sink, "scale_eff", "Efficiency vs problem size (fixed p)", &rows)
}

/// E3 — §4.2 refinement ablation: "each of the refinements presented in
/// Sections 3.3.1-3.3.3 shows an improvement in these results; the total
/// improvement is about 37%." Runs the chain `upc-sharedmem → upc-term →
/// upc-term-rapdif → upc-distmem` at one point (T-L, 256 threads, k=8,
/// Kitty Hawk) and reports each step's incremental gain, plus `mpi-ws` for
/// reference, plus the two extensions.
fn ablation(sink: Sink) -> Result<(), String> {
    let bed = Bed::new(MachineModel::kittyhawk(), presets::t_l());
    let rows: Vec<Row> = Algorithm::all().into_iter().map(|alg| bed.point(256, alg, 8)).collect();
    publish(sink, "ablation", "Refinement ablation", &rows)?;

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
    let bed = Bed::new(MachineModel::topsail(), presets::t_l());
    let (report, _) = bed.report(256, &sim_config(Algorithm::DistMem, 8));

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
    let bed = Bed::new(MachineModel::topsail(), presets::t_l());
    let per_node = bed.machine.threads_per_node;
    let mut rows = Vec::new();
    let mut locality = Vec::new();
    for alg in [Algorithm::DistMem, Algorithm::Hier] {
        let mut cfg = sim_config(alg, 8);
        cfg.trace = true;
        let (report, row) = bed.report(256, &cfg);
        locality.push(report.steal_matrix().same_node_fraction(per_node));
        rows.push(row);
    }
    publish(sink, "hier", "Flat vs hierarchical victim selection", &rows)?;

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
    let bed = Bed::new(MachineModel::kittyhawk(), presets::t_l());
    let rows: Vec<Row> = [Algorithm::DistMem, Algorithm::MpiWs, Algorithm::Pushing]
        .into_iter()
        .map(|alg| bed.point(256, alg, 8))
        .collect();
    publish(sink, "pushing", "Work stealing vs work pushing", &rows)?;

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
    let bed = Bed::new(MachineModel::kittyhawk(), presets::t_m());
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
        let mut cfg = sim_config(alg, 8);
        cfg.trace = true;
        let (report, _) = bed.report(128, &cfg);
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
    let bed = Bed::new(MachineModel::kittyhawk(), presets::t_m());
    let mut rows = Vec::new();
    for alg in [Algorithm::DistMem, Algorithm::MpiWs] {
        for poll in [1u64, 4, 16, 64, 256, 1024] {
            let mut cfg = sim_config(alg, 8);
            cfg.poll_interval = poll;
            let (_, mut row) = bed.report(128, &cfg);
            // The chunk column carries the poll interval in this CSV.
            row.chunk = poll as usize;
            rows.push(row);
        }
    }
    publish(sink, "poll_sweep", "Polling interval sweep (chunk column = poll interval)", &rows)
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
        let bed = Bed::new(MachineModel::topsail(), Preset { name, spec, expected });
        for alg in [Algorithm::DistMem, Algorithm::MpiWs] {
            let row = bed.point(64, alg, 8);
            println!(
                "  {:<14} eff {:>5.1}%  steals {:>6}  steals/Mnode {:>8.1}",
                row.label,
                100.0 * row.efficiency,
                row.steals,
                row.steals as f64 / (bed.nodes as f64 / 1e6),
            );
            rows.push(row);
        }
    }
    publish(sink, "tree_family", "Tree family (all workloads)", &rows)
}

/// E15 — validate the §2 analytic chunk-size model (`worksteal::model`)
/// against a measured sweep (`upc-distmem`, T-M, 128 threads, Kitty Hawk).
/// Fits α (migration fraction) from the small-k steal counts and β
/// (granularity-imbalance coefficient) from one large-k rate, then compares
/// the predicted rate curve with the measurements at every chunk size and
/// reports the predicted optimal k* next to the empirical winner.
fn model_check() {
    const THREADS: usize = 128;
    let bed = Bed::new(MachineModel::kittyhawk(), presets::t_m());
    let (p, n) = (THREADS as f64, bed.nodes as f64);
    let rows: Vec<Row> = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|k| bed.point(THREADS, Algorithm::DistMem, k))
        .collect();

    let steal_points: Vec<(usize, u64)> = rows.iter().map(|r| (r.chunk, r.steals)).collect();
    let alpha = fit_alpha(&steal_points, bed.nodes);
    let m = &bed.machine;
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
    let bed = Bed::new(MachineModel::kittyhawk(), presets::t_l());
    let mut lines = Vec::new();
    let mut best = (f64::MIN, String::new());
    // The transport axis rides on the named bundle that carries it.
    for (alg, transport) in [(Algorithm::Term, "locked"), (Algorithm::DistMem, "distmem")] {
        for vp in [VictimPolicy::Flat, VictimPolicy::Hier] {
            for sp in [StealPolicyKind::One, StealPolicyKind::Half, StealPolicyKind::Adaptive] {
                let mut cfg = sim_config(alg, 8);
                cfg.victim_policy = Some(vp);
                cfg.steal_policy = Some(sp);
                let (_, r) = bed.report(256, &cfg);
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
    print_table("Policy grid (streamlined termination)", HEADER, &lines);
    sink.emit("policy_grid", HEADER, &lines, 1)?;
    println!("best cell: {} at {:.3} Mnodes/s", best.1, best.0);
    Ok(())
}

/// E18 — where a DAG task's time goes before it runs: the benchmark's
/// `dag_layered` shape (`RandomLayered(100, 256, 80)` at the library seed,
/// Kitty Hawk, p=64, k=1) through every bundle, measured by the
/// [`ReadyWait`] probe, which issues no operation.
fn ready_wait() {
    let probe = ReadyWait::new(DagWorkload::new(RandomLayered::new(100, 256, 80, 3)));
    let n_tasks = probe.inner().n_tasks();
    let header = "algorithm,makespan_ms,working_frac,steals,handoffs,mean_wait_us,\
        moved_wait_us,moved_tasks,waiting_tasks,busy_ranks";
    let rows: Vec<String> = Algorithm::all()
        .into_iter()
        .map(|alg| {
            let report = run_sim(MachineModel::kittyhawk(), 64, &probe, &sim_config(alg, 1));
            assert_eq!(report.total_nodes, n_tasks, "{}: tasks lost", report.label);
            let w = probe.waits(report.makespan_ns);
            format!(
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
            )
        })
        .collect();
    print_table("ready-to-start waits, dag_layered shape, p=64", header, &rows);
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
            .map(|e| e.name)
            .chain(["service", "dag_sweep"]) // binaries of their own, same `Sink::emit`
            .map(|name| format!("{name}.csv"))
            .collect();
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ is committed")
            .map(|f| f.expect("readable directory entry").file_name().into_string().expect("UTF-8 name"))
            .filter(|f| f.ends_with(".csv"))
            .collect();
        assert_eq!(owned, on_disk);
    }
}
