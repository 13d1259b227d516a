//! Run or check the experiments of EXPERIMENTS.md by name: E1–E19, the
//! chaos soaks and the conductor bench.
//!
//! - `exp <name>…` runs the entries and rewrites each one's
//!   `results/<name>.csv`;
//! - `exp --check [<name>…]` recomputes them (default: every entry that owns
//!   a CSV) and exits 1 at the first committed file whose virtual columns
//!   differ, naming file and line; it writes nothing;
//! - `exp --list` prints the table.
//!
//! That is the whole command line: an entry's parameters are constants in
//! [`uts_bench::exp`], so a committed CSV is a function of the committed
//! entry. Every run reads `UTS_OVERRIDE` (`uts_bench::harness`,
//! docs/faults.md): one that injects faults, e.g.
//! `UTS_OVERRIDE='faults=seeded(1) timeout=30000'`, prints tables and
//! neither writes nor checks; `UTS_OVERRIDE='conductor=reference' exp
//! --check` is the conductor-equivalence test over the whole experiment
//! surface.

use uts_bench::exp::{Entry, Run, TABLE};
use uts_bench::harness::Sink;

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = TABLE.iter().map(|e| e.name).collect();
    eprintln!("exp: {problem}\nusage: exp <name>... | exp --check [<name>...] | exp --list\nnames: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    if let Some(f) = flags.iter().find(|f| *f != "--check" && *f != "--list") {
        usage(&format!("unknown option {f}"));
    }
    if flags.iter().any(|f| f == "--list") {
        for e in TABLE {
            let csv = if e.owns_csv() { format!("results/{}.csv", e.name) } else { "-".to_string() };
            println!("{:<16} {:<26} {}", e.name, csv, e.about);
        }
        return;
    }
    let check = flags.iter().any(|f| f == "--check");
    let entries: Vec<&Entry> = if check && names.is_empty() {
        TABLE.iter().filter(|e| e.owns_csv()).collect()
    } else {
        names
            .iter()
            .map(|n| {
                TABLE.iter().find(|e| e.name == n).unwrap_or_else(|| usage(&format!("no entry named {n}")))
            })
            .collect()
    };
    if entries.is_empty() {
        usage("name at least one entry");
    }
    if let Some(e) = entries.iter().find(|e| check && !e.owns_csv()) {
        usage(&format!("{} writes no CSV to check", e.name));
    }
    let sink = Sink::from_args(check);
    for e in entries {
        println!("### exp {}: {}", e.name, e.about);
        match e.run {
            Run::Print(run) => run(),
            Run::Csv(run) => {
                if let Err(stale) = run(sink) {
                    eprintln!("{stale}");
                    std::process::exit(1);
                }
            }
        }
    }
}
