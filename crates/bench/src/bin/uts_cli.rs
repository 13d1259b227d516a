//! A UTS-style command-line front end: the reference benchmark's flags and
//! its binomial law. The trees are not yet UTS's own: the root hash, the 31
//! bits a node draws and the binomial cut-off each depart from the
//! reference generator, and the geometric law further (ROADMAP item 20), so
//! a published parameter set runs a tree of the same law, not the published
//! tree.
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
//! - `--spec '<line>'`: run this run spec (`worksteal::spec`: any workload,
//!   fault plan, arrival law or conductor) instead of the flags above
//! - `--native`: run on real OS threads (`conductor=native`)
//! - `--expect <nodes>`: fail (exit 1) unless the run conserves `nodes`: exactly,
//!   or `total - duplicates` under a crash class (`theory::check_conservation`)
//!
//! The flags build a [`RunSpec`] like any other; the binary prints the line
//! it runs and reads no environment. Every `exp` row that fails its check
//! prints a paste-ready `--spec` line for this binary (crash plans need a
//! simulated conductor; `--native` refuses them).
//!
//! Example: the paper's §4.1 parameters (10.6 billion nodes under UTS's
//! generator) give a 15,867,985-node tree here:
//! `uts_cli -t 0 -b 2000 -q 0.499999995 -m 2 -r 0 -c 8 -T 1024`

use uts_bench::harness::{arg, flag, opt};
use worksteal::spec::{Conductor, RunSpec};
use worksteal::theory;

fn fail(problem: String) -> ! {
    eprintln!("uts_cli: {problem}");
    std::process::exit(2)
}

/// The run the UTS-style flags describe.
fn from_flags() -> RunSpec {
    let (seed, b0) = (arg("-r", 0u32), arg("-b", 64.0f64));
    let tree = match (arg("-t", 0u32), arg("-a", 0usize)) {
        (0, _) => format!("binomial({seed},{},{},{})", b0 as u32, arg("-m", 2u32), arg("-q", 0.498f64)),
        (1, shape @ 0..=3) => {
            let shape = ["fixed", "linear", "expdec", "cyclic"][shape];
            format!("geometric({seed},{b0},{},{shape})", arg("-d", 10u32))
        }
        (1, shape) => fail(format!("unknown geometric shape {shape}")),
        (t, _) => fail(format!("unknown tree type {t} (0 binomial, 1 geometric)")),
    };
    let line = format!(
        "{} p={} tree={tree} alg={} k={} poll={}",
        arg("-M", "kittyhawk".to_string()),
        arg("-T", 4usize),
        arg("-A", "distmem".to_string()),
        arg("-c", 8usize),
        arg("-i", 8u64)
    );
    line.parse().unwrap_or_else(|e| fail(e))
}

fn main() {
    let spec = match opt::<String>("--spec") {
        Some(line) => line.parse().unwrap_or_else(|e| fail(format!("--spec: {e}"))),
        None => from_flags(),
    };
    let spec = if flag("--native") { RunSpec { conductor: Conductor::Native, ..spec } } else { spec };
    spec.check().unwrap_or_else(|e| fail(format!("{spec}: {e}")));
    let expect: Option<u64> = opt("--expect");

    println!("run: {spec}");
    let report = spec.run();
    println!("{}", report.summary_row(spec.modelled_seq_rate()));
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
        if let Err(violation) = theory::check_conservation(&report, expect, spec.faults.crash_active()) {
            eprintln!("FAIL: {violation}");
            std::process::exit(1);
        }
        println!(
            "count verified: {expect} (dup={} deaths={} evictions={} rejoins={})",
            report.duplicate_nodes, report.deaths, report.evictions, report.rejoins
        );
    }
}
