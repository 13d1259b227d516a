//! Chaos soak: sweep seeded fault schedules across all five paper
//! algorithms and fail on any conservation or termination violation.
//!
//! For every seed `0..--schedules`, every algorithm in
//! [`Algorithm::paper_set`] runs under [`FaultPlan::seeded`] with the thief
//! request timeout armed (see `docs/faults.md`). Each run must count the
//! tree exactly (checked against a sequential traversal) — the in-band
//! reduction inside the engine independently cross-checks the same total on
//! every thread. A run that livelocks runs out of fuel
//! ([`pgas::sim::FUEL_NS`]) and panics, in release as in debug builds.
//! `--budget-s` bounds the sweep, not a run: it is checked between runs, so
//! it cannot interrupt a hung one, but it fails a sweep that terminates too
//! slowly.
//!
//! Per algorithm the soak reports makespan inflation versus the fault-free
//! baseline, plus the hardening counters (timeouts, retracts won/lost,
//! retries, backoff time).
//!
//! A second sweep covers the *crash* classes (docs/faults.md): for every
//! seed, a [`FaultPlan::crashy`]-derived plan with message loss,
//! duplication, and a mid-run rank death window runs against every paper
//! algorithm, and must satisfy conservation **with multiplicity** — every
//! node explored at least once, every re-exploration accounted in
//! `duplicate_nodes`.
//!
//! Both sweeps run every plan twice: on the tree, and on a small layered
//! task DAG (docs/workloads.md), whose ready tasks travel to their owners as
//! lineage-tracked hand-offs — a lost, duplicated, fenced or orphaned
//! hand-off must be re-emitted, so the DAG must conserve with multiplicity
//! too (§2.3 there).
//!
//! A third sweep covers the *membership* classes (docs/faults.md §8): for
//! every seed, a plan mixing a healing network partition, gray stalls,
//! rank kills, and restarts runs against every paper algorithm in batch
//! mode (conservation with multiplicity), a subset re-runs on the
//! reference OS-thread conductor (bit-identity), and the message bundles
//! run the same plans in service mode (zero lost requests).
//!
//! Every run is a [`RunSpec`] — the command line's spec with some fields
//! replaced — and runs through [`RunSpec::run`], so the line a violation
//! prints is the run: each one comes with a paste-ready
//! `uts_cli --spec '<line>' --expect-distinct N` repro.
//!
//! Run with: `cargo run --release -p uts-bench --bin chaos -- \
//!     [--schedules 50] [--crash-schedules N] [--membership-schedules N] \
//!     [--threads 16] [--tree tiny] \
//!     [--machine kittyhawk] [--timeout-ns 50000] [--budget-s 600]`
//!
//! Exits nonzero on the first violation.

use std::time::Instant;

use pgas::{ArrivalSpec, FaultPlan};
use uts_bench::chaos::{crash_faults, membership_faults, repro, DAG, DAG_TASKS};
use uts_bench::harness::arg;
use uts_tree::TreeSpec;
use worksteal::spec::{preset_by_name, Conductor, RunSpec, Workload};
use worksteal::{seq_run, Algorithm, RunReport, UtsGen};

/// The runs and violations of one soak.
struct Soak {
    t0: Instant,
    budget_s: u64,
    runs: u64,
    violations: u64,
}

impl Soak {
    fn fail(&mut self, what: String) {
        eprintln!("VIOLATION: {what}");
        self.violations += 1;
    }

    /// Is the wall-clock budget spent? That is a violation too.
    fn over_budget(&mut self, at: &str) -> bool {
        let over = self.t0.elapsed().as_secs() > self.budget_s;
        if over {
            self.fail(format!("wall-clock budget {}s exceeded at {at} — sweep too slow", self.budget_s));
        }
        over
    }

    /// Run `spec`: fewer or more than `expect` distinct nodes is a
    /// violation, printed with the line that reruns it.
    fn run(&mut self, spec: &RunSpec, expect: u64, what: &str) -> RunReport {
        let r = spec.run();
        self.runs += 1;
        let distinct = r.total_nodes - r.duplicate_nodes;
        if distinct != expect {
            self.fail(format!(
                "{what}: {distinct} distinct nodes explored, {expect} expected\n  repro: {}",
                repro(spec, expect)
            ));
        }
        r
    }

    /// Rerun `spec` on the reference conductor: it must agree with `fast`.
    fn agree(&mut self, spec: &RunSpec, fast: &RunReport, expect: u64, what: &str) {
        let reference = RunSpec { conductor: Conductor::Reference, ..*spec };
        let b = self.run(&reference, expect, what);
        let key = |r: &RunReport| {
            (r.makespan_ns, r.total_nodes, r.duplicate_nodes, r.evictions, r.rejoins, r.deaths, r.handoffs)
        };
        if key(&b) != key(fast) {
            self.fail(format!(
                "{what} diverged across conductors (fast vs reference)\n  repro: {}",
                repro(&reference, expect)
            ));
        }
    }
}

fn main() {
    let schedules: u64 = arg("--schedules", 50);
    let threads: usize = arg("--threads", 16);
    let tree: String = arg("--tree", "tiny".to_string());
    let machine_name: String = arg("--machine", "kittyhawk".to_string());
    let timeout_ns: u64 = arg("--timeout-ns", 50_000);
    let budget_s: u64 = arg("--budget-s", 600);
    let crash_schedules: u64 = arg("--crash-schedules", schedules);
    let membership_schedules: u64 = arg("--membership-schedules", schedules);
    let kill_pm: u32 = arg("--kill-pm", 350);

    let base: RunSpec = format!("{machine_name} p={threads} tree={tree} alg=distmem k=8")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("chaos: {e}");
            std::process::exit(2)
        });
    let preset = preset_by_name(&tree).expect("the spec line named a preset");
    let (seq_nodes, _) = seq_run(&UtsGen::new(preset.spec));
    assert_eq!(seq_nodes, preset.expected.nodes, "preset table is stale");
    // The same run on the DAG; k=1: the frontier clamp would cut k=8 to it
    // anyway.
    let dag = |spec: RunSpec| RunSpec { workload: DAG, k: 1, ..spec };
    // The DAG half of the crash and membership sweeps, per algorithm:
    // (deaths, recovered, duplicates, hand-offs).
    let tally = |acc: &mut [u64; 4], r: &RunReport| {
        acc[0] += r.deaths as u64;
        acc[1] += r.recovered_nodes;
        acc[2] += r.duplicate_nodes;
        acc[3] += r.handoffs;
    };
    let dag_line = |alg: Algorithm, t: [u64; 4]| {
        println!(
            "{:<16} layered DAG ({DAG_TASKS} tasks) deaths {:>3} recovered {:>5} dup {:>5} \
             hand-offs {:>6}",
            alg.label(),
            t[0],
            t[1],
            t[2],
            t[3]
        );
    };

    println!(
        "chaos soak: {} schedules x {} algorithms, T-{tree} ({} nodes), \
         {machine_name}, p={threads}, timeout={timeout_ns}ns",
        schedules,
        Algorithm::paper_set().len(),
        seq_nodes
    );

    let mut soak = Soak { t0: Instant::now(), budget_s, runs: 0, violations: 0 };

    if schedules > 0 {
        for alg in Algorithm::paper_set() {
            // Fault-free baseline for the inflation figure.
            let clean = RunSpec { alg, timeout: Some(timeout_ns), ..base };
            let baseline = clean.run();
            if baseline.total_nodes != seq_nodes {
                soak.fail(format!(
                    "{} fault-free baseline lost nodes\n  repro: {}",
                    alg.label(),
                    repro(&clean, seq_nodes)
                ));
            }

            let mut worst_inflation = 0.0f64;
            let mut sum_inflation = 0.0f64;
            let mut timeouts = 0u64;
            let mut retracts_won = 0u64;
            let mut retracts_lost = 0u64;
            let mut retries = 0u64;
            let mut backoff_ns = 0u64;

            for seed in 0..schedules {
                let what = format!("{} seed {seed}", alg.label());
                if soak.over_budget(&what) {
                    break;
                }
                let r = soak.run(&RunSpec { faults: FaultPlan::seeded(seed), ..clean }, seq_nodes, &what);
                let inflation = r.makespan_ns as f64 / baseline.makespan_ns.max(1) as f64;
                worst_inflation = worst_inflation.max(inflation);
                sum_inflation += inflation;
                let t = r.totals();
                timeouts += t.steal_timeouts;
                retracts_won += t.retracts_won;
                retracts_lost += t.retracts_lost;
                retries += t.steal_retries;
                backoff_ns += t.timeout_backoff_ns;
            }

            println!(
                "{:<16} inflation mean {:>5.2}x worst {:>5.2}x | timeouts {:>5} \
             retracts {:>4}W/{:<4}L retries {:>5} backoff {:>7}us",
                alg.label(),
                sum_inflation / schedules.max(1) as f64,
                worst_inflation,
                timeouts,
                retracts_won,
                retracts_lost,
                retries,
                backoff_ns / 1_000
            );
        }
    }

    if crash_schedules > 0 {
        println!(
            "\ncrash soak: {crash_schedules} crash plans x {} algorithms \
         (loss+dup, kill {kill_pm}\u{2030}, conservation with multiplicity)",
            Algorithm::paper_set().len()
        );
        for alg in Algorithm::paper_set() {
            // Fault-free baseline (no timeout armed: crash runs auto-arm their
            // own) for the makespan-inflation figure.
            let baseline = RunSpec { alg, ..base }.run();
            let mut deaths = 0u64;
            let mut recovered = 0u64;
            let mut dups = 0u64;
            let mut worst_mult = 1u64;
            let mut sum_inflation = 0.0f64;
            let mut dag_tally = [0u64; 4];
            for seed in 0..crash_schedules {
                let what = format!("{} crash seed {seed}", alg.label());
                if soak.over_budget(&what) {
                    break;
                }
                let spec = RunSpec { alg, faults: crash_faults(seed, kill_pm), ..base };
                let r = soak.run(&spec, seq_nodes, &what);
                deaths += r.deaths as u64;
                recovered += r.recovered_nodes;
                dups += r.duplicate_nodes;
                worst_mult = worst_mult.max(r.max_multiplicity);
                sum_inflation += r.makespan_ns as f64 / baseline.makespan_ns.max(1) as f64;
                let d = soak.run(&dag(spec), DAG_TASKS, &format!("{what}, layered DAG"));
                tally(&mut dag_tally, &d);
            }
            println!(
                "{:<16} deaths {:>3}/{} recovered {:>6} nodes dup {:>6} \
             worst-multiplicity {} inflation mean {:>5.2}x",
                alg.label(),
                deaths,
                crash_schedules,
                recovered,
                dups,
                worst_mult,
                sum_inflation / crash_schedules.max(1) as f64
            );
            dag_line(alg, dag_tally);
        }
    }

    if membership_schedules > 0 {
        // Batch membership soak: conservation with multiplicity through
        // partition → quorum eviction → heal → fence rejoin, with every
        // fifth plan replayed on the reference OS-thread conductor and
        // compared bit for bit.
        println!(
            "\nmembership soak: {membership_schedules} plans x {} algorithms \
             (healing partitions, gray stalls, kills, restarts; every 5th \
             plan replayed on the reference conductor)",
            Algorithm::paper_set().len()
        );
        let mut sweep_evictions = 0u64;
        let mut sweep_rejoins = 0u64;
        'membership: for alg in Algorithm::paper_set() {
            let mut evictions = 0u64;
            let mut rejoins = 0u64;
            let mut fenced = 0u64;
            let mut scavenged = 0u64;
            let mut dag_tally = [0u64; 4];
            for i in 0..membership_schedules {
                let what = format!("{} membership plan {i}", alg.label());
                if soak.over_budget(&what) {
                    break 'membership;
                }
                let spec = RunSpec { alg, timeout: Some(timeout_ns), ..base };
                let spec = spec.with(&membership_faults(i)).expect("a well-formed plan");
                let r = soak.run(&spec, seq_nodes, &what);
                if i % 5 == 0 {
                    soak.agree(&spec, &r, seq_nodes, &what);
                }
                evictions += r.evictions;
                rejoins += r.rejoins;
                fenced += r.per_thread.iter().map(|t| t.fenced_drops).sum::<u64>();
                scavenged += r.per_thread.iter().map(|t| t.scavenged_nodes).sum::<u64>();
                // The same plan on the DAG, every fifth on both conductors.
                let what = format!("{what}, layered DAG");
                let d = soak.run(&dag(spec), DAG_TASKS, &what);
                if i % 5 == 0 {
                    soak.agree(&dag(spec), &d, DAG_TASKS, &what);
                }
                tally(&mut dag_tally, &d);
            }
            sweep_evictions += evictions;
            sweep_rejoins += rejoins;
            println!(
                "{:<16} evictions {:>4} rejoins {:>4} fenced-drops {:>6} \
                 scavenged {:>5} nodes",
                alg.label(),
                evictions,
                rejoins,
                fenced,
                scavenged
            );
            dag_line(alg, dag_tally);
        }
        if sweep_evictions == 0 || sweep_rejoins == 0 {
            soak.fail(format!(
                "membership sweep never exercised the machinery \
                 (evictions={sweep_evictions} rejoins={sweep_rejoins}) — \
                 the plans are too tame to certify anything"
            ));
        }

        // Service-mode membership soak: the same plan matrix against the
        // open-loop service on the message bundles. Per-epoch conservation
        // is asserted inside `run_service_sim` (a violated epoch panics);
        // here the invariant is zero lost requests through partition →
        // eviction → heal → rejoin.
        let requests = 8usize;
        let svc_tree = TreeSpec::binomial(23, 4, 2, 0.4);
        // Request e runs svc_tree with its seed moved by e.
        let svc_nodes: u64 = (0..requests as u32)
            .map(|e| seq_run(&UtsGen::new(TreeSpec { seed: svc_tree.seed + e, ..svc_tree })).0)
            .sum();
        println!(
            "\nmembership service soak: {membership_schedules} plans x 3 \
             bundles, {requests} requests each (zero lost requests)"
        );
        'service: for alg in [Algorithm::DistMem, Algorithm::MpiWs, Algorithm::Pushing] {
            let mut evictions = 0u64;
            let mut rejoins = 0u64;
            let mut worst_p99 = 0u64;
            for i in 0..membership_schedules {
                let what = format!("{} membership service plan {i}", alg.label());
                if soak.over_budget(&what) {
                    break 'service;
                }
                let spec = RunSpec {
                    p: 8,
                    workload: Workload::Tree(svc_tree),
                    alg,
                    k: 2,
                    timeout: Some(timeout_ns),
                    arrivals: Some(ArrivalSpec::poisson(13 + i, requests, 12_000.0)),
                    ..base
                };
                let spec = spec.with(&membership_faults(i)).expect("a well-formed plan");
                let r = soak.run(&spec, svc_nodes, &what);
                let svc = r.service.as_ref().expect("service report");
                if svc.requests != requests || svc.per_request.len() != requests {
                    soak.fail(format!(
                        "{what}: {} of {requests} requests completed\n  repro: {}",
                        svc.per_request.len(),
                        repro(&spec, svc_nodes)
                    ));
                }
                evictions += r.evictions;
                rejoins += r.rejoins;
                worst_p99 = worst_p99.max(svc.hist.p99());
            }
            println!(
                "{:<16} evictions {:>4} rejoins {:>4} worst p99 {:>7}us",
                alg.label(),
                evictions,
                rejoins,
                worst_p99 / 1_000
            );
        }
    }

    println!(
        "\n{} faulted runs in {:.1}s, {} violations",
        soak.runs,
        soak.t0.elapsed().as_secs_f64(),
        soak.violations
    );
    if soak.violations > 0 {
        std::process::exit(1);
    }
}
