//! `bench_ledger` — the repo's benchmark.
//!
//! ```text
//! bench_ledger --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command gets)
//! bench_ledger --set NAME [--runs 10] [--seconds 10]           a run set under bench/runs/NAME/
//! bench_ledger --compare A B                                    apply the bounds to two run sets
//! ```
//!
//! `--smoke` shrinks every workload to seconds-scale sizes (the harness's
//! own tests use it). See README.md for what is measured and why.

mod compare;
mod host;
mod json;
mod ledger;
mod micro;
mod probes;
mod run;
mod set;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Where a single traced run writes its trace unless `--out` says otherwise.
const ADHOC_OUT: &str = "bench/runs/adhoc";

/// `--name value` pairs and bare `--flags`, in the order given.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse '{v}'")),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    for name in host::scrub_env() {
        eprintln!("note: removed {name} from the environment");
    }
    let smoke = args.flag("--smoke");
    if let Some(which) = args.value("--probe") {
        return probes::child_main(which, smoke).map(|()| true);
    }
    if let Some(pair) = args.values("--compare", 2) {
        return compare::main(&pair[0], &pair[1]);
    }
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be between 0 and 60"));
    }
    if let Some(name) = args.value("--set") {
        let runs = args.parsed("--runs", 10)?;
        return set::main(name, runs, seconds, smoke);
    }
    let Some(workload) = args.value("--workload") else {
        return Err("usage: bench_ledger --workload W --seed N --seconds S --trace 0|1 | --set NAME | --compare A B".into());
    };
    let req = run::Request {
        workload,
        seed: args.parsed("--seed", 0)?,
        seconds,
        smoke,
        out_dir: args.value("--out").unwrap_or(ADHOC_OUT),
    };
    let report = match args.value("--trace").unwrap_or("0") {
        "0" => run::untraced(&req)?,
        "1" => run::traced(&req)?,
        other => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    println!(
        "workload {} seed {} on {} hardware thread(s)",
        req.workload,
        req.seed,
        host::nproc()
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(extras) = &report.extras {
        println!("{}{}", set::EXTRAS_PREFIX, extras.to_line());
    }
    println!(
        "# operations attempted {} failed {}",
        report.attempted, report.failed
    );
    println!("{}", report.to_json().to_line());
    Ok(report.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_ledger: {e}");
            ExitCode::from(2)
        }
    }
}
