//! Shared plumbing for the experiment table and `uts_cli`: one run path
//! ([`run`]), result tables, CSV output under `results/`, and command-line
//! options.
//!
//! Every experiment row is a [`RunSpec`]. The one environment variable the
//! harness reads is `UTS_OVERRIDE`: a partial run spec of `faults=`,
//! `timeout=` and `conductor=fiber|reference` words that [`run`] sets on
//! every row of every sweep, e.g. `UTS_OVERRIDE='faults=seeded(1)
//! timeout=30000'` or `UTS_OVERRIDE='conductor=reference'`. A sweep under an
//! override that injects faults neither writes nor checks its CSV
//! ([`Sink::from_args`]). A row that fails its check panics with the
//! `uts_cli --spec '<line>'` that replays it ([`Ran::fail`]).

use std::fmt::Display;
use std::fs;
use std::iter;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use uts_tree::presets;
use worksteal::spec::{Conductor, RunSpec, Workload};
use worksteal::state::State;
use worksteal::{theory, RunConfig, RunReport};

use crate::chaos::repro;

/// One measured row of a figure/table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Algorithm label.
    pub label: &'static str,
    /// Threads.
    pub threads: usize,
    /// Chunk size.
    pub chunk: usize,
    /// Nodes explored.
    pub nodes: u64,
    /// Virtual makespan seconds.
    pub t_virtual: f64,
    /// Exploration rate, Mnodes/s.
    pub mnodes_per_sec: f64,
    /// Speedup vs the platform's sequential rate.
    pub speedup: f64,
    /// Parallel efficiency (speedup / threads).
    pub efficiency: f64,
    /// Successful steals.
    pub steals: u64,
    /// Steals per second.
    pub steals_per_sec: f64,
    /// Fraction of thread-time in the Working state.
    pub working_frac: f64,
    /// Useful-work share of Working-state time (§6.2 metric).
    pub working_eff: f64,
    /// Wall-clock seconds the simulation itself took (diagnostics).
    pub t_real: f64,
}

/// The keys `UTS_OVERRIDE` may set.
const OVERRIDE_KEYS: [&str; 3] = ["faults", "timeout", "conductor"];

/// `spec` under the partial run spec `text`: the pure half of
/// [`overridden`]. An empty `text` leaves `spec` as it is, and a row with a
/// fault plan of its own keeps it; errors name the key and the value.
pub fn with_override(text: &str, spec: RunSpec) -> Result<RunSpec, String> {
    let foreign = |w: &&str| !OVERRIDE_KEYS.contains(&w.split_once('=').map_or(*w, |(key, _)| key));
    if let Some(word) = text.split_whitespace().find(foreign) {
        return Err(format!("{word}: an override sets only faults=, timeout= and conductor="));
    }
    let over = spec.with(text)?;
    match over.conductor {
        Conductor::Native => Err("conductor=native: an override picks fiber or reference".into()),
        _ if spec.faults.is_active() => Ok(RunSpec { faults: spec.faults, ..over }),
        _ => Ok(over),
    }
}

/// `spec` under the environment's `UTS_OVERRIDE`: the one place the harness
/// reads the environment.
///
/// # Panics
///
/// If `UTS_OVERRIDE` does not parse, or sets a key other than `faults`,
/// `timeout` and `conductor` (fiber or reference): a chaos run that
/// silently ran fault-free because of a typo is worse than none.
pub fn overridden(spec: RunSpec) -> RunSpec {
    let text = std::env::var("UTS_OVERRIDE").unwrap_or_default();
    with_override(&text, spec).unwrap_or_else(|e| panic!("UTS_OVERRIDE='{text}': {e}"))
}

/// One run of an experiment row: by default what [`RunSpec::run`] reports.
pub struct Ran<R = RunReport> {
    /// The row's spec under `UTS_OVERRIDE`: the run that happened.
    pub spec: RunSpec,
    /// Distinct nodes (or DAG tasks) the run must explore.
    pub expect: u64,
    /// What the run reported.
    pub report: R,
    /// Wall-clock seconds the run took (diagnostics).
    pub t_real: f64,
}

/// Run `spec` under `UTS_OVERRIDE` by `exec` ([`RunSpec::run`] for every
/// row but those that trace or probe their run, or read its conductor's
/// counts), timed, and print its line. `expect` is the number of distinct
/// nodes the run must explore; a panic
/// inside the run (a per-epoch service assert, a run out of fuel) is raised
/// again with the line that replays it, like every row's own check
/// ([`Ran::fail`]).
pub fn run<R>(spec: RunSpec, expect: u64, exec: impl FnOnce(&RunSpec) -> R) -> Ran<R> {
    let spec = overridden(spec);
    let t0 = Instant::now();
    let report = panic::catch_unwind(AssertUnwindSafe(|| exec(&spec))).unwrap_or_else(|e| {
        let what = e.downcast_ref::<String>().map(String::as_str).or(e.downcast_ref::<&str>().copied());
        fail(&spec, expect, what.unwrap_or("the run panicked"))
    });
    let t_real = t0.elapsed().as_secs_f64();
    eprintln!("  {spec} [{t_real:.1}s real]");
    Ran { spec, expect, report, t_real }
}

fn fail(spec: &RunSpec, expect: u64, what: impl Display) -> ! {
    panic!("{what}\n  replay: {}", repro(spec, expect))
}

impl<R> Ran<R> {
    /// Fail this row: `what`, then the paste-ready line that replays it.
    pub fn fail(&self, what: impl Display) -> ! {
        fail(&self.spec, self.expect, what)
    }
}

impl Ran {
    /// This run and its [`Row`], with conservation asserted by the rule the
    /// run's fault plan picks ([`theory::check_conservation`]): an exact
    /// count without a crash class, with multiplicity under one.
    pub fn measure(self) -> (Ran, Row) {
        let r = &self.report;
        if let Err(violation) = theory::check_conservation(r, self.expect, self.spec.faults.crash_active()) {
            self.fail(violation);
        }
        let seq_rate = self.spec.machine_model().seq_rate();
        let row = Row {
            label: r.label,
            threads: r.threads,
            chunk: r.chunk_size,
            nodes: r.total_nodes,
            t_virtual: r.makespan_ns as f64 / 1e9,
            mnodes_per_sec: r.nodes_per_sec() / 1e6,
            speedup: r.speedup(seq_rate),
            efficiency: r.efficiency(seq_rate),
            steals: r.total_steals(),
            steals_per_sec: r.steals_per_sec(),
            working_frac: r.state_fraction(State::Working),
            working_eff: r.working_state_efficiency(),
            t_real: self.t_real,
        };
        (self, row)
    }
}

impl Row {
    /// CSV header of [`Row::csv`]; the last column is wall-clock.
    pub const HEADER: &'static str = "algorithm,threads,chunk,nodes,t_virtual_s,mnodes_per_sec,\
        speedup,efficiency,steals,steals_per_sec,working_frac,working_eff,t_real_s";

    /// This row as one CSV line, floats at full precision.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.label,
            self.threads,
            self.chunk,
            self.nodes,
            self.t_virtual,
            self.mnodes_per_sec,
            self.speedup,
            self.efficiency,
            self.steals,
            self.steals_per_sec,
            self.working_frac,
            self.working_eff,
            self.t_real
        )
    }
}

/// Print a CSV header + lines as an aligned text table, fractions cut to
/// four decimals (the CSV keeps full precision).
pub fn print_table(title: &str, header: &str, rows: &[String]) {
    let cell = |c: &str| match c.parse::<f64>() {
        Ok(x) if c.contains('.') => format!("{x:.4}"),
        _ => c.to_string(),
    };
    let lines: Vec<Vec<String>> = std::iter::once(header)
        .chain(rows.iter().map(String::as_str))
        .map(|l| l.split(',').map(cell).collect())
        .collect();
    let widths: Vec<usize> =
        (0..lines[0].len()).map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0)).collect();
    println!("\n== {title} ==");
    for line in &lines {
        let cells: Vec<String> = line.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", cells.join("  "));
    }
}

/// Where two CSVs first differ in a virtual column (lines count from 1;
/// a missing line reads `<end of file>`).
#[derive(Debug, PartialEq, Eq)]
pub struct Stale {
    /// First differing line.
    pub line: usize,
    /// That line's virtual columns in the committed file.
    pub committed: String,
    /// The same, recomputed.
    pub recomputed: String,
}

/// Compare a recomputed CSV with the committed one, ignoring each line's last
/// `wall_clock_columns` fields — host seconds; every other column is virtual,
/// so any difference is a schedule change or a stale file. `Ok` carries the
/// number of data rows.
pub fn compare_csv(committed: &str, fresh: &str, wall_clock_columns: usize) -> Result<usize, Stale> {
    fn virtual_columns(csv: &str, wall_clock_columns: usize) -> Vec<&str> {
        csv.lines()
            .map(|l| l.rsplitn(wall_clock_columns + 1, ',').last().unwrap_or(""))
            .collect()
    }
    let old = virtual_columns(committed, wall_clock_columns);
    let new = virtual_columns(fresh, wall_clock_columns);
    if old == new {
        return Ok(new.len().saturating_sub(1));
    }
    let line = old
        .iter()
        .zip(&new)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| old.len().min(new.len()));
    let at = |v: &[&str]| v.get(line).unwrap_or(&"<end of file>").to_string();
    Err(Stale {
        line: line + 1,
        committed: at(&old),
        recomputed: at(&new),
    })
}

/// What a sweep does with the rows it computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sink {
    /// Write `results/<name>.csv` and its figures.
    Write,
    /// Compare with the committed CSV and its figures; write nothing.
    Check,
    /// Neither: `UTS_OVERRIDE` injects faults or arms the steal timeout, so
    /// the numbers are not the committed experiment's.
    Discard,
}

impl Sink {
    /// `--check` or not, unless `UTS_OVERRIDE` injects faults into a
    /// fault-free run.
    pub fn from_args(check: bool) -> Sink {
        let clean = RunSpec::new("smp", 1, Workload::Tree(presets::t_tiny().spec), &RunConfig::default());
        let over = overridden(clean);
        if over.faults.is_active() || over.timeout.is_some() {
            Sink::Discard
        } else if check {
            Sink::Check
        } else {
            Sink::Write
        }
    }

    /// The one way rows leave a sweep: write `results/<name>.csv` and the
    /// figures `crate::viz::figures` draws from it (`results/figures/*.svg`),
    /// or check both against a recomputation ([`compare_csv`]; figures byte
    /// for byte), or neither. The error names the file and the stale line.
    pub fn emit(
        self,
        name: &str,
        header: &str,
        rows: &[String],
        wall_clock_columns: usize,
    ) -> Result<(), String> {
        self.emit_under(Path::new(""), name, header, rows, wall_clock_columns)
    }

    /// [`Sink::emit`] into the `results/` under `root`.
    fn emit_under(
        self,
        root: &Path,
        name: &str,
        header: &str,
        rows: &[String],
        wall_clock_columns: usize,
    ) -> Result<(), String> {
        let results = root.join("results");
        let csv = results.join(format!("{name}.csv"));
        let path = csv.display();
        let fresh = format!("{header}\n{}\n", rows.join("\n"));
        let figures = crate::viz::figures::render(name, &fresh).map_err(|e| format!("{path}: {e}"))?;
        let figures = figures.into_iter().map(|(fig, svg)| (results.join(format!("figures/{fig}.svg")), svg));
        match self {
            Sink::Discard => println!("fault environment: {path} neither written nor checked"),
            Sink::Write => {
                fs::create_dir_all(results.join("figures")).map_err(|e| format!("cannot write {}: {e}", results.display()))?;
                for (file, text) in iter::once((csv.clone(), fresh)).chain(figures) {
                    fs::write(&file, text).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                    println!("wrote {}", file.display());
                }
            }
            Sink::Check => {
                let committed = fs::read_to_string(&csv).map_err(|e| format!("cannot read {path}: {e}"))?;
                let n = compare_csv(&committed, &fresh, wall_clock_columns).map_err(|s| {
                    format!(
                        "{path} is stale (first difference on line {}):\n  committed: {}\n  \
                         recomputed: {}\nregenerate it by running the same command without --check",
                        s.line, s.committed, s.recomputed
                    )
                })?;
                println!("{path} is current ({n} rows)");
                for (file, svg) in figures {
                    let (same, file) = (fs::read(&file).ok() == Some(svg.into_bytes()), file.display());
                    if !same {
                        return Err(format!("{file} is stale: missing, or not what the rows of {path} draw\n\
                                            regenerate it by running the same command without --check"));
                    }
                    println!("{file} is current");
                }
            }
        }
        Ok(())
    }
}

/// The value after `flag` in `args`, parsed: `None` when the flag is
/// absent, an error naming the flag and the value when that is missing or
/// malformed.
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(at + 1).ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map(Some).map_err(|e| format!("{flag} {value}: {e}"))
}

/// `--flag value` from the command line. A missing or malformed value
/// exits 2, naming the flag and the value.
pub fn opt<T: FromStr>(flag: &str) -> Option<T>
where
    T::Err: Display,
{
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|e| {
        eprintln!("{}: {e}", args[0]);
        std::process::exit(2)
    })
}

/// [`opt`], or `default` when the flag is absent.
pub fn arg<T: FromStr>(flag: &str, default: T) -> T
where
    T::Err: Display,
{
    opt(flag).unwrap_or(default)
}

/// Is a bare `--flag` present?
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The first of `args` (after the program name) that is neither a flag of
/// `valued`, the value after one, nor a flag of `bare`.
pub fn unknown_arg<'a>(args: &'a [String], valued: &[&str], bare: &[&str]) -> Option<&'a str> {
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(a) = rest.next() {
        if valued.contains(&a) {
            rest.next();
        } else if !bare.contains(&a) {
            return Some(a);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::FaultPlan;
    use worksteal::Algorithm;

    /// T-tiny on two `smp` threads of `alg` at chunk size `k`.
    fn tiny(alg: Algorithm, k: usize) -> RunSpec {
        RunSpec::new("smp", 2, Workload::Tree(presets::t_tiny().spec), &RunConfig::new(alg, k))
    }

    #[test]
    fn measure_produces_consistent_row() {
        let p = presets::t_tiny();
        let (_, row) = run(tiny(Algorithm::DistMem, 2), p.expected.nodes, RunSpec::run).measure();
        assert_eq!(row.nodes, p.expected.nodes);
        assert!(row.t_virtual > 0.0);
        assert!(row.mnodes_per_sec > 0.0);
        assert!(row.efficiency <= 1.05, "efficiency {e}", e = row.efficiency);
    }

    /// A row that fails its check, exact or (under a crash plan) with
    /// multiplicity, names the `uts_cli` line that replays it.
    #[test]
    fn a_failing_row_names_its_replay() {
        let wrong = presets::t_tiny().expected.nodes + 1;
        let crash = RunSpec { faults: FaultPlan::crashy(3), ..tiny(Algorithm::MpiWs, 2) };
        for spec in [tiny(Algorithm::DistMem, 2), crash] {
            let e = panic::catch_unwind(|| drop(run(spec, wrong, RunSpec::run).measure())).expect_err("a wrong count fails");
            let msg = e.downcast_ref::<String>().expect("a formatted message");
            let line = msg.split_once("--spec '").and_then(|(_, rest)| rest.split_once('\'')).map(|(line, _)| line);
            let line = line.unwrap_or_else(|| panic!("no --spec '<line>' in: {msg}"));
            assert_eq!(line.parse::<RunSpec>(), Ok(overridden(spec)), "{msg}");
            assert!(msg.contains(&format!("--expect {wrong}")), "{msg}");
        }
    }

    #[test]
    fn flag_values_parse_or_fail_by_name() {
        let args: Vec<String> = ["uts_cli", "-T", "5O", "-c", "8", "--spec"].map(String::from).into();
        assert_eq!(parse_flag::<usize>(&args, "-c"), Ok(Some(8)));
        assert_eq!(parse_flag::<u64>(&args, "--expect"), Ok(None));
        let bad = parse_flag::<usize>(&args, "-T").unwrap_err();
        assert!(bad.starts_with("-T 5O: "), "{bad}");
        assert_eq!(parse_flag::<String>(&args, "--spec"), Err("--spec needs a value".into()));
        // An argument that is no flag, nor a flag's value, is named.
        let (valued, bare) = (["-t", "-b", "-T", "--spec", "--expect"], ["--native"]);
        for (line, stray) in [
            ("uts_cli --spec tiny --expcet 5635", Some("--expcet")),
            ("uts_cli -t 1 -a 3 -b 4", Some("-a")),
            ("uts_cli -t 0 -b 2000 --native --expect 521241", None),
        ] {
            let args: Vec<String> = line.split(' ').map(String::from).collect();
            assert_eq!(unknown_arg(&args, &valued, &bare), stray, "{line}");
        }
    }

    #[test]
    fn override_sets_faults_timeout_and_conductor() {
        let spec = tiny(Algorithm::MpiWs, 3);
        let same = with_override("", spec).unwrap();
        assert_eq!((same, same.faults, same.timeout, same.conductor), (spec, FaultPlan::none(), None, Conductor::Fiber));
        let armed = with_override("faults=seeded(42) timeout=30000", spec).unwrap();
        assert_eq!((armed.faults, armed.timeout), (FaultPlan::seeded(42), Some(30_000)));
        assert_eq!(with_override("conductor=reference", spec).unwrap().conductor, Conductor::Reference);
        // A row with a plan of its own keeps it; the timeout still applies.
        let own = RunSpec { faults: FaultPlan::seeded(11), ..spec };
        let kept = with_override("faults=crashy(1) timeout=30000", own).unwrap();
        assert_eq!((kept.faults, kept.timeout), (FaultPlan::seeded(11), Some(30_000)));
        // A rate alone enables a plan; a kill rate borrows crashy()'s window.
        let kill = with_override("faults=seeded(42),loss=25,kill=400", spec).unwrap().faults;
        assert_eq!((kill.loss_per_mille, kill.kill_per_mille), (25, 400));
        assert_eq!((kill.kill_min_ns, kill.kill_span_ns), (100_000, 2_000_000));
        assert!(with_override("faults=none,dup=10", spec).unwrap().faults.crash_active());
        // Membership rates borrow partitioned()'s windows.
        let part = FaultPlan::partitioned(0);
        let m = with_override("faults=none,partition=500,gray=250,restart=200000", spec).unwrap().faults;
        assert_eq!((m.partition_per_mille, m.partition_span_ns, m.partition_dur_ns), (500, part.partition_span_ns, 900_000));
        assert_eq!((m.gray_per_mille, m.gray_stall_ns, m.restart_after_ns), (250, part.gray_stall_ns, 200_000));
        assert!(m.crash_active());
        // Malformed values and foreign keys fail, naming the key.
        for (text, key) in [
            ("faults=seeded(banana)", "faults="),
            ("timeout=12ms", "timeout="),
            ("faults=seeded(1),loss=-3", "loss=-3"),
            ("faults=crashy(1),kill=1001", "kill=1001"),
            ("faults=seeded(1),colour=3", "colour"),
            ("colour=red", "colour=red"),
            ("conductor=native", "conductor=native"),
            ("faults=seeded(1) p=4", "p=4"),
        ] {
            let e = with_override(text, spec).unwrap_err();
            assert!(e.contains(key), "{text}: {e}");
        }
    }

    const COMMITTED: &str = "algorithm,threads,t_virtual_s,t_real_s\nupc-distmem,256,0.0243,5.45\nmpi-ws,256,0.0295,31.54\n";

    #[test]
    fn wall_clock_only_difference_passes() {
        let fresh = COMMITTED.replace("5.45", "7.01").replace("31.54", "0.5");
        assert_eq!(compare_csv(COMMITTED, &fresh, 1), Ok(2));
        // With no wall-clock column the same difference is a stale file.
        assert_eq!(compare_csv(COMMITTED, &fresh, 0).unwrap_err().line, 2);
    }

    #[test]
    fn doctored_virtual_column_is_reported_at_its_line() {
        let fresh = COMMITTED.replace("0.0295", "0.0296");
        assert_eq!(
            compare_csv(COMMITTED, &fresh, 1),
            Err(Stale {
                line: 3,
                committed: "mpi-ws,256,0.0295".to_string(),
                recomputed: "mpi-ws,256,0.0296".to_string(),
            })
        );
    }

    /// A committed figure that is not what its CSV's rows draw fails the
    /// check, named, though the CSV itself is current.
    #[test]
    fn doctored_figure_is_reported_by_its_file() {
        let root = std::env::temp_dir().join(format!("uts-sink-{}", std::process::id()));
        let (header, rows) = COMMITTED.split_once('\n').expect("a header line");
        let rows: Vec<String> = rows.lines().map(String::from).collect();
        let emit = |sink: Sink| sink.emit_under(&root, "fig6", header, &rows, 1);
        emit(Sink::Write).expect("writes the CSV and its figure");
        emit(Sink::Check).expect("what was just written is current");
        let svg = root.join("results/figures/fig6_speedup.svg");
        let doctored = fs::read_to_string(&svg).expect("the figure was written").replace("Figure 6", "Figure 7");
        fs::write(&svg, doctored).expect("a writable figure");
        let e = emit(Sink::Check).expect_err("a doctored figure is stale");
        fs::remove_dir_all(&root).expect("a removable scratch directory");
        assert!(e.contains("results/figures/fig6_speedup.svg"), "{e}");
    }

    #[test]
    fn missing_or_extra_row_fails() {
        let short = COMMITTED.rsplit_once("mpi-ws").unwrap().0;
        let end = "<end of file>".to_string();
        let missing = compare_csv(COMMITTED, short, 1).unwrap_err();
        assert_eq!((missing.line, missing.recomputed), (3, end.clone()));
        let extra = compare_csv(short, COMMITTED, 1).unwrap_err();
        assert_eq!((extra.line, extra.committed), (3, end));
    }
}
