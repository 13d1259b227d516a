//! A UTS-style command-line front end: the reference benchmark's flags for
//! its binomial law. It is binomial-only until the generator is UTS's own
//! (ROADMAP item 20): the root hash, the 31 bits a node draws and the
//! binomial cut-off each depart from the reference generator, so a
//! published parameter set runs a tree of the same law, not the published
//! tree. `-t 0` is accepted because UTS's published parameter lines start
//! with it; any other tree type exits 2 rather than draw another tree.
//!
//! Canonical UTS flags supported:
//!
//! - `-t 0`: tree type (binomial, the only one)
//! - `-r <seed>`: root seed
//! - `-b <b0>`: root branching factor
//! - `-m <m>`: non-root branching factor
//! - `-q <q>`: branching probability
//! - `-c <k>`: chunk size
//! - `-i <interval>`: polling interval
//!
//! Plus runner options:
//! - `-T <threads>`: simulated UPC threads (default 4)
//! - `-A <alg>`: sharedmem|term|rapdif|distmem|mpi|hier (default distmem)
//! - `-M <machine>`: kittyhawk|topsail|altix|smp (default kittyhawk)
//! - `--spec '<line>'`: run this run spec (`worksteal::spec`: any workload,
//!   fault plan, arrival law or conductor) instead of the flags above
//! - `--native`: run on real OS threads (`conductor=native`)
//! - `--expect <nodes>`: fail (exit 1) unless the run conserves `nodes`: exactly,
//!   or `total - duplicates` under a crash class (`theory::check_conservation`)
//!
//! Any other argument exits 2, naming it, and so does a tree or runner
//! flag beside `--spec`, which would go unread. The flags build a [`RunSpec`]
//! like any other; the binary prints the line it runs and reads no
//! environment. Every `exp` row that fails its check prints a paste-ready
//! `--spec` line for this binary (crash plans need a simulated conductor;
//! `--native` refuses them).
//!
//! Example: the paper's §4.1 parameters (10.6 billion nodes under UTS's
//! generator) give a 15,867,985-node tree here:
//! `uts_cli -t 0 -b 2000 -q 0.499999995 -m 2 -r 0 -c 8 -T 1024`

use uts_bench::harness::{arg, flag, opt, unknown_arg};
use worksteal::spec::{Conductor, RunSpec};
use worksteal::theory;

/// The flags that take a value, and the one that does not.
const VALUED: [&str; 12] = ["-t", "-r", "-b", "-m", "-q", "-c", "-i", "-T", "-A", "-M", "--spec", "--expect"];
const BARE: [&str; 1] = ["--native"];

fn fail(problem: String) -> ! {
    eprintln!("uts_cli: {problem}");
    std::process::exit(2)
}

/// The run the UTS-style flags describe.
fn from_flags() -> RunSpec {
    if let t @ 1.. = arg("-t", 0u32) {
        fail(format!("-t {t}: only binomial trees (-t 0) are drawn until the generator is UTS's (ROADMAP item 20)"));
    }
    let line = format!(
        "{} p={} tree=binomial({},{},{},{}) alg={} k={} poll={}",
        arg("-M", "kittyhawk".to_string()),
        arg("-T", 4usize),
        arg("-r", 0u32),
        arg("-b", 64u32),
        arg("-m", 2u32),
        arg("-q", 0.498f64),
        arg("-A", "distmem".to_string()),
        arg("-c", 8usize),
        arg("-i", 8u64)
    );
    line.parse().unwrap_or_else(|e| fail(e))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let line: Option<String> = opt("--spec");
    // A spec line is the whole run, so a tree or runner flag beside it would
    // go unread.
    let valued: &[&str] = if line.is_some() { &["--spec", "--expect"] } else { &VALUED };
    if let Some(stray) = unknown_arg(&args, valued, &BARE) {
        fail(format!("refused argument {stray}: the flags here are {} {}", valued.join(" "), BARE.join(" ")));
    }
    let spec = match line {
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
