//! Service-mode sweep (EXPERIMENTS.md E17): open-loop arrival rates against
//! the locked, distmem, and mpi-ws bundles, reporting per-request tail
//! latency from the epoch-quiescence pipeline (`docs/service.md`).
//!
//! Three blocks:
//!
//! 1. **Saturation sweep** — Poisson arrivals at increasing rates, p=64 and
//!    p=256. Requests are small (~80-node binomial trees); past the point
//!    where arrivals outpace the admission window (16 slots ÷ the time a
//!    request holds one), injections defer and latency grows with queue
//!    depth. The `exec` / `detect` columns say where a request's time goes.
//! 2. **Burstiness** — MMPP arrivals alternating a quiet and a hot rate
//!    with (nearly) the long-run mean of the 30k/s Poisson rows, isolating
//!    what bursts alone do to p99.
//! 3. **Chaos under load** — the same mid-sweep point under a seeded
//!    benign-fault plan and under a crash plan (message loss, duplication,
//!    rank kills); conservation-with-multiplicity and declared-after-executed
//!    are asserted per epoch inside `run_service_sim`, so every printed row
//!    is a verified run.
//!
//! Run with: `cargo run --release -p uts-bench --bin service`
//! (`--smoke` for the CI-sized subset, which leaves the file alone).
//! Writes `results/service.csv`; `--check` recomputes the sweep and compares
//! it with the committed file byte for byte instead (every column is
//! virtual, so any difference is a schedule change or a stale file). Every
//! run starts from `harness::sim_config`, so `UTS_OVERRIDE` applies as in
//! any sweep: `conductor=reference` must still pass `--check`, and a fault
//! plan runs the fault-free rows under it (rows with a plan of their own
//! keep it) and leaves the file alone.

use pgas::{ArrivalSpec, FaultPlan, MachineModel};
use uts_bench::harness::{flag, sim_config, Sink};
use uts_tree::TreeSpec;
use worksteal::{
    run_service_sim, Algorithm, LatencyHistogram, RunReport, ServiceReport, UtsGen,
};

const HEADER: &str = "bundle,process,rate_per_s,threads,requests,deferred,nodes,dup_nodes,deaths,\
    evictions,makespan_ms,p50_us,p99_us,exec_p99_us,detect_p99_us,mean_us,max_us,faults";

/// Requests per fault-free or `seeded` row: the smallest count whose p99
/// has ten samples beyond it.
const REQUESTS: usize = 1000;
/// Requests per `crashy` row: one death at p=64 still sets off an eviction
/// storm (ROADMAP item 1) that makes longer streams impractical.
const CRASHY_REQUESTS: usize = 48;

/// One CSV/table row of a service run.
struct SvcRow {
    bundle: &'static str,
    process: String,
    rate_per_s: f64,
    threads: usize,
    requests: usize,
    deferred: u64,
    nodes: u64,
    dup_nodes: u64,
    deaths: usize,
    evictions: u64,
    makespan_ms: f64,
    p50_us: f64,
    p99_us: f64,
    /// Injection → the request's tree executed in full.
    exec_p99_us: f64,
    /// Tree executed → a scanner declared the epoch quiescent.
    detect_p99_us: f64,
    mean_us: f64,
    max_us: f64,
    faults: &'static str,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn run_one(
    alg: Algorithm,
    threads: usize,
    arrivals: &ArrivalSpec,
    process: &str,
    faults: FaultPlan,
    fault_label: &'static str,
) -> SvcRow {
    // ~80 expected nodes per request: 1 + b0 * 1/(1 - m*q) geometric layers.
    let gen = UtsGen::new(TreeSpec::binomial(101, 8, 2, 0.45));
    let mut cfg = sim_config(alg, 4);
    if faults.is_active() {
        cfg.faults = faults;
    }
    let report: RunReport = run_service_sim(MachineModel::kittyhawk(), threads, &gen, &cfg, arrivals);
    let svc: &ServiceReport = report.service.as_ref().expect("service report");
    let (mut exec, mut detect) = (LatencyHistogram::new(), LatencyHistogram::new());
    for q in &svc.per_request {
        exec.record(q.last_node_ns.saturating_sub(q.injected_ns));
        detect.record(q.completed_ns - q.last_node_ns);
    }
    SvcRow {
        bundle: alg.label(),
        process: process.to_string(),
        rate_per_s: arrivals.process.mean_rate_per_sec(),
        threads,
        requests: svc.requests,
        deferred: svc.deferred_injections,
        nodes: report.total_nodes,
        dup_nodes: report.duplicate_nodes,
        deaths: report.deaths,
        evictions: report.evictions,
        makespan_ms: report.makespan_ns as f64 / 1e6,
        p50_us: us(svc.hist.p50()),
        p99_us: us(svc.hist.p99()),
        exec_p99_us: us(exec.p99()),
        detect_p99_us: us(detect.p99()),
        mean_us: us(svc.hist.mean()),
        max_us: us(svc.hist.max()),
        faults: if cfg.faults == faults { fault_label } else { "override" },
    }
}

fn print_rows(title: &str, rows: &[SvcRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>8} {:>5} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>4} {:>5} {:>6}",
        "bundle", "rate/s", "p", "req", "defer", "p50us", "p99us", "exec99", "detect99", "maxus",
        "mkspn ms", "die", "evict", "faults"
    );
    for r in rows {
        println!(
            "{:<12} {:>8.0} {:>5} {:>5} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>4} {:>5} {:>6}",
            r.bundle,
            r.rate_per_s,
            r.threads,
            r.requests,
            r.deferred,
            r.p50_us,
            r.p99_us,
            r.exec_p99_us,
            r.detect_p99_us,
            r.max_us,
            r.makespan_ms,
            r.deaths,
            r.evictions,
            r.faults
        );
    }
}

fn csv(rows: &[SvcRow]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        out.push(format!(
            "{},{},{},{},{},{},{},{},{},{},{:.4},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{}",
            r.bundle,
            r.process,
            r.rate_per_s,
            r.threads,
            r.requests,
            r.deferred,
            r.nodes,
            r.dup_nodes,
            r.deaths,
            r.evictions,
            r.makespan_ms,
            r.p50_us,
            r.p99_us,
            r.exec_p99_us,
            r.detect_p99_us,
            r.mean_us,
            r.max_us,
            r.faults
        ));
    }
    out
}

fn main() {
    let smoke = flag("--smoke");
    let bundles = [Algorithm::Term, Algorithm::DistMem, Algorithm::MpiWs];
    let mut rows: Vec<SvcRow> = Vec::new();

    if smoke {
        // CI-sized: one low-rate fault-free row and one crash row per a
        // locked + a message transport; minutes of margin on any box.
        let arrivals = ArrivalSpec::poisson(5, 6, 20_000.0);
        for alg in [Algorithm::Term, Algorithm::MpiWs] {
            rows.push(run_one(alg, 8, &arrivals, "poisson", FaultPlan::none(), "none"));
            rows.push(run_one(alg, 8, &arrivals, "poisson", FaultPlan::crashy(3), "crashy"));
        }
        print_rows("service smoke", &rows);
        for r in &rows {
            assert_eq!(r.requests, 6, "{}: lost a request", r.bundle);
        }
        println!("service smoke OK: {} runs, all requests completed", rows.len());
        return;
    }

    // Block 1: saturation sweep.
    for &(threads, rates) in &[
        (64usize, &[2_000.0, 10_000.0, 30_000.0, 60_000.0][..]),
        (256, &[10_000.0, 60_000.0][..]),
    ] {
        for &rate in rates {
            let arrivals = ArrivalSpec::poisson(17, REQUESTS, rate);
            for alg in bundles {
                rows.push(run_one(alg, threads, &arrivals, "poisson", FaultPlan::none(), "none"));
            }
        }
    }
    print_rows("saturation sweep (poisson)", &rows);

    // Block 2: burstiness. The two states dwell equally long, so the
    // long-run mean is 31k/s: the 30k/s Poisson rows are the comparison.
    let mut mmpp_rows = Vec::new();
    let mmpp = ArrivalSpec::mmpp(29, REQUESTS, 2_000.0, 60_000.0, 1_000_000);
    for alg in bundles {
        mmpp_rows.push(run_one(alg, 64, &mmpp, "mmpp", FaultPlan::none(), "none"));
    }
    print_rows("burstiness (mmpp 2k/60k, 1ms dwell)", &mmpp_rows);
    rows.extend(mmpp_rows);

    // Block 3: chaos under load at the mid-sweep point.
    let mut chaos_rows = Vec::new();
    let arrivals = ArrivalSpec::poisson(17, REQUESTS, 10_000.0);
    let crashy_arrivals = ArrivalSpec::poisson(17, CRASHY_REQUESTS, 10_000.0);
    // The stock crashy plan kills one rank with probability 0.35 hashed
    // from (seed, nthreads); pin it to 1000‰ so the crash row always shows
    // a mid-run death.
    let crash = FaultPlan {
        kill_per_mille: 1000,
        ..FaultPlan::crashy(11)
    };
    for alg in bundles {
        chaos_rows.push(run_one(alg, 64, &arrivals, "poisson", FaultPlan::seeded(11), "seeded"));
        chaos_rows.push(run_one(alg, 64, &crashy_arrivals, "poisson", crash, "crashy"));
    }
    print_rows("chaos under load (10k/s, p=64)", &chaos_rows);
    rows.extend(chaos_rows);

    if let Err(stale) = Sink::from_args(flag("--check")).emit("service", HEADER, &csv(&rows), 0) {
        eprintln!("{stale}");
        std::process::exit(1);
    }
}
