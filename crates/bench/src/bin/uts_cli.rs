//! A UTS-style command-line front end, mirroring the reference benchmark's
//! flags so published parameter sets paste straight in.
//!
//! Canonical UTS flags supported (subset relevant to binomial/geometric
//! trees and this implementation):
//!
//! - `-t <0|1>`: tree type (0 = binomial, 1 = geometric)
//! - `-r <seed>`: root seed
//! - `-b <b0>`: root branching factor
//! - `-m <m>`: binomial non-root branching factor
//! - `-q <q>`: binomial branching probability
//! - `-d <depth>`: geometric depth cutoff
//! - `-a <shape>`: geometric shape (0 fixed, 1 linear, 2 expdec, 3 cyclic)
//! - `-c <k>`: chunk size
//! - `-i <interval>`: polling interval
//!
//! Plus runner options:
//! - `-T <threads>`: simulated UPC threads (default 4)
//! - `-A <alg>`: sharedmem|term|rapdif|distmem|mpi|hier|push (default distmem)
//! - `-M <machine>`: kittyhawk|topsail|altix|smp (default kittyhawk)
//! - `--native`: run on real OS threads instead of the simulator
//! - `--expect <nodes>`: fail unless the count matches
//! - `--expect-distinct <nodes>`: fail unless `total - duplicates` matches
//!   (the conservation-with-multiplicity check for crash-faulted runs)
//!
//! The config comes from [`uts_bench::harness::sim_config`], so `UTS_CHAOS_*`
//! / `UTS_STEAL_TIMEOUT_NS` environment overrides fault-inject any run and
//! `UTS_SIM_REFERENCE=1` selects the reference conductor —
//! the chaos soak prints violations as a paste-ready env prefix for this
//! binary (crash plans need the default sim backend; `--native` refuses
//! them with a typed error).
//!
//! Example (the paper's 10.6-billion-node tree — bring a cluster budget):
//! `uts_cli -t 0 -b 2000 -q 0.499999995 -m 2 -r 0 -c 8 -T 1024`

use uts_bench::harness::{algorithm_by_name, machine_by_name, sim_config};
use uts_tree::{GeoShape, TreeSpec};
use worksteal::{run_native, run_sim, UtsGen};

fn opt<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.windows(2)
        .find(|w| w[0] == flag)
        .and_then(|w| w[1].parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tree_type: u32 = opt(&args, "-t").unwrap_or(0);
    let seed: u32 = opt(&args, "-r").unwrap_or(0);
    let b0: f64 = opt(&args, "-b").unwrap_or(64.0);
    let m: u32 = opt(&args, "-m").unwrap_or(2);
    let q: f64 = opt(&args, "-q").unwrap_or(0.498);
    let depth: u32 = opt(&args, "-d").unwrap_or(10);
    let shape: u32 = opt(&args, "-a").unwrap_or(0);
    let chunk: usize = opt(&args, "-c").unwrap_or(8);
    let interval: u64 = opt(&args, "-i").unwrap_or(8);
    let threads: usize = opt(&args, "-T").unwrap_or(4);
    let alg_name: String = opt(&args, "-A").unwrap_or_else(|| "distmem".to_string());
    let machine_name: String = opt(&args, "-M").unwrap_or_else(|| "kittyhawk".to_string());
    let native = args.iter().any(|a| a == "--native");
    let expect: Option<u64> = opt(&args, "--expect");
    let expect_distinct: Option<u64> = opt(&args, "--expect-distinct");

    let spec = match tree_type {
        0 => TreeSpec::binomial(seed, b0 as u32, m, q),
        1 => {
            let shape = match shape {
                0 => GeoShape::Fixed,
                1 => GeoShape::Linear,
                2 => GeoShape::ExpDec,
                3 => GeoShape::Cyclic,
                other => {
                    eprintln!("unknown geometric shape {other}");
                    std::process::exit(2);
                }
            };
            TreeSpec::geometric(seed, b0, depth, shape)
        }
        other => {
            eprintln!("unknown tree type {other} (0 binomial, 1 geometric)");
            std::process::exit(2);
        }
    };
    let algorithm = algorithm_by_name(&alg_name);
    let machine = machine_by_name(&machine_name);

    println!("UTS tree: {spec:?}");
    println!(
        "runner: {} on {} ({} threads, k={chunk}, poll={interval}, backend={})",
        algorithm.label(),
        machine.name,
        threads,
        if native { "native" } else { "sim" }
    );

    let gen = UtsGen::new(spec);
    let mut cfg = sim_config(algorithm, chunk);
    cfg.poll_interval = interval;
    if cfg.faults.is_active() {
        println!("chaos: {:?}", cfg.faults);
    }
    let seq_rate = machine.seq_rate();
    let report = if native {
        match run_native(machine, threads, &gen, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("uts_cli: {e}");
                std::process::exit(2);
            }
        }
    } else {
        run_sim(machine, threads, &gen, &cfg)
    };

    println!("{}", report.summary_row(seq_rate));
    let totals = report.totals();
    println!(
        "releases={} reacquires={} steals_ok={} steals_failed={} chunks={} serviced={}",
        totals.releases,
        totals.reacquires,
        totals.steals_ok,
        totals.steals_failed,
        totals.chunks_stolen,
        totals.requests_serviced
    );

    if let Some(expect) = expect {
        if report.total_nodes != expect {
            eprintln!(
                "FAIL: counted {} nodes, expected {expect}",
                report.total_nodes
            );
            std::process::exit(1);
        }
        println!("count verified: {expect}");
    }
    if let Some(expect) = expect_distinct {
        let distinct = report.total_nodes - report.duplicate_nodes;
        if distinct != expect {
            eprintln!(
                "FAIL: {} distinct nodes (total {} - dup {}), expected {expect}",
                distinct, report.total_nodes, report.duplicate_nodes
            );
            std::process::exit(1);
        }
        println!(
            "distinct count verified: {expect} (dup={} deaths={} evictions={} rejoins={})",
            report.duplicate_nodes, report.deaths, report.evictions, report.rejoins
        );
    }
}
