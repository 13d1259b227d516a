//! Shared plumbing for the figure-reproduction binaries: run configuration,
//! result tables, CSV output under `results/`, and command-line options.
//!
//! The one environment variable the harness reads is `UTS_OVERRIDE`: a
//! partial run spec (`worksteal::spec`) of `faults=`, `timeout=` and
//! `conductor=fiber|reference` words applied by [`sim_config`] to every run
//! of every sweep, e.g. `UTS_OVERRIDE='faults=seeded(1) timeout=30000'` or
//! `UTS_OVERRIDE='conductor=reference'`. A sweep under an override that
//! injects faults neither writes nor checks its CSV ([`Sink::from_args`]).

use std::fmt::Display;
use std::fs;
use std::str::FromStr;
use std::time::Instant;

use pgas::MachineModel;
use uts_tree::presets;
use worksteal::spec::{Conductor, RunSpec, Workload};
use worksteal::state::State;
use worksteal::{run_sim, Algorithm, RunConfig, RunReport, UtsGen};

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

/// The run configuration every harness binary starts from:
/// `RunConfig::new` under the environment's `UTS_OVERRIDE`.
///
/// # Panics
///
/// If `UTS_OVERRIDE` does not parse, or sets a key other than `faults`,
/// `timeout` and `conductor` (fiber or reference): a chaos run that
/// silently ran fault-free because of a typo is worse than none.
pub fn sim_config(algorithm: Algorithm, chunk: usize) -> RunConfig {
    env_override(&RunConfig::new(algorithm, chunk)).config()
}

/// `cfg` under the partial run spec `text`: the pure half of
/// [`sim_config`]. An empty `text` leaves `cfg` as it is; errors name the
/// key and the value.
pub fn with_override(text: &str, cfg: RunConfig) -> Result<RunConfig, String> {
    parse_override(text, &cfg).map(|spec| RunConfig { trace: cfg.trace, ..spec.config() })
}

/// `text` set on a stand-in run of `cfg`.
fn parse_override(text: &str, cfg: &RunConfig) -> Result<RunSpec, String> {
    let foreign = |w: &&str| !OVERRIDE_KEYS.contains(&w.split_once('=').map_or(*w, |(key, _)| key));
    if let Some(word) = text.split_whitespace().find(foreign) {
        return Err(format!("{word}: an override sets only faults=, timeout= and conductor="));
    }
    let spec = RunSpec::new("smp", 1, Workload::Tree(presets::t_tiny().spec), cfg).with(text)?;
    match spec.conductor {
        Conductor::Native => Err("conductor=native: an override picks fiber or reference".into()),
        _ => Ok(spec),
    }
}

/// `UTS_OVERRIDE` set on a stand-in run of `cfg`: the one place the
/// harness reads the environment.
fn env_override(cfg: &RunConfig) -> RunSpec {
    let text = std::env::var("UTS_OVERRIDE").unwrap_or_default();
    parse_override(&text, cfg).unwrap_or_else(|e| panic!("UTS_OVERRIDE='{text}': {e}"))
}

/// Execute one simulated run of `cfg`, with node conservation asserted, and
/// distill its [`Row`].
pub fn measure(
    machine: &MachineModel,
    threads: usize,
    gen: &UtsGen,
    cfg: &RunConfig,
    expected_nodes: u64,
) -> (RunReport, Row) {
    let t0 = Instant::now();
    let report = run_sim(machine.clone(), threads, gen, cfg);
    let t_real = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.total_nodes, expected_nodes,
        "node conservation violated: {} p={} k={}",
        report.label, threads, cfg.chunk_size
    );
    let seq_rate = machine.seq_rate();
    let row = Row {
        label: report.label,
        threads: report.threads,
        chunk: report.chunk_size,
        nodes: report.total_nodes,
        t_virtual: report.makespan_ns as f64 / 1e9,
        mnodes_per_sec: report.nodes_per_sec() / 1e6,
        speedup: report.speedup(seq_rate),
        efficiency: report.efficiency(seq_rate),
        steals: report.total_steals(),
        steals_per_sec: report.steals_per_sec(),
        working_frac: report.state_fraction(State::Working),
        working_eff: report.working_state_efficiency(),
        t_real,
    };
    (report, row)
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
    /// Write `results/<name>.csv`.
    Write,
    /// Compare with the committed `results/<name>.csv`; write nothing.
    Check,
    /// Neither: `UTS_OVERRIDE` injects faults or arms the steal timeout, so
    /// the numbers are not the committed experiment's.
    Discard,
}

impl Sink {
    /// `--check` or not, unless `UTS_OVERRIDE` injects faults.
    pub fn from_args(check: bool) -> Sink {
        let over = env_override(&RunConfig::default());
        if over.faults.is_active() || over.timeout.is_some() {
            Sink::Discard
        } else if check {
            Sink::Check
        } else {
            Sink::Write
        }
    }

    /// The one way rows leave a sweep: write `results/<name>.csv`, or check
    /// it against a recomputation ([`compare_csv`]), or neither. The error
    /// names the file and the first stale line.
    pub fn emit(
        self,
        name: &str,
        header: &str,
        rows: &[String],
        wall_clock_columns: usize,
    ) -> Result<(), String> {
        let path = format!("results/{name}.csv");
        let fresh = format!("{header}\n{}\n", rows.join("\n"));
        match self {
            Sink::Discard => println!("fault environment: {path} neither written nor checked"),
            Sink::Write => {
                fs::create_dir_all("results")
                    .and_then(|()| fs::write(&path, fresh))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("wrote {path}");
            }
            Sink::Check => {
                let committed =
                    fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
                let n = compare_csv(&committed, &fresh, wall_clock_columns).map_err(|s| {
                    format!(
                        "{path} is stale (first difference on line {}):\n  committed: {}\n  \
                         recomputed: {}\nregenerate it by running the same command without --check",
                        s.line, s.committed, s.recomputed
                    )
                })?;
                println!("{path} is current ({n} rows)");
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

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::FaultPlan;

    #[test]
    fn measure_produces_consistent_row() {
        let p = uts_tree::presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        let m = MachineModel::smp();
        let (_, row) = measure(&m, 2, &gen, &sim_config(Algorithm::DistMem, 2), p.expected.nodes);
        assert_eq!(row.nodes, p.expected.nodes);
        assert!(row.t_virtual > 0.0);
        assert!(row.mnodes_per_sec > 0.0);
        assert!(row.efficiency <= 1.05, "efficiency {e}", e = row.efficiency);
    }

    #[test]
    fn flag_values_parse_or_fail_by_name() {
        let args: Vec<String> = ["chaos", "--schedules", "5O", "--threads", "8", "--tree"].map(String::from).into();
        assert_eq!(parse_flag::<usize>(&args, "--threads"), Ok(Some(8)));
        assert_eq!(parse_flag::<u64>(&args, "--budget-s"), Ok(None));
        let bad = parse_flag::<u64>(&args, "--schedules").unwrap_err();
        assert!(bad.starts_with("--schedules 5O: "), "{bad}");
        assert_eq!(parse_flag::<String>(&args, "--tree"), Err("--tree needs a value".into()));
    }

    #[test]
    fn override_sets_faults_timeout_and_conductor() {
        let cfg = RunConfig { trace: true, ..RunConfig::new(Algorithm::MpiWs, 3) };
        let same = with_override("", cfg).unwrap();
        assert_eq!((same.faults, same.steal_timeout_ns, same.sim_lookahead, same.trace), (FaultPlan::none(), None, true, true));
        let armed = with_override("faults=seeded(42) timeout=30000", cfg).unwrap();
        assert_eq!((armed.faults, armed.steal_timeout_ns), (FaultPlan::seeded(42), Some(30_000)));
        assert!(!with_override("conductor=reference", cfg).unwrap().sim_lookahead);
        // A rate alone enables a plan; a kill rate borrows crashy()'s window.
        let kill = with_override("faults=seeded(42),loss=25,kill=400", cfg).unwrap().faults;
        assert_eq!((kill.loss_per_mille, kill.kill_per_mille), (25, 400));
        assert_eq!((kill.kill_min_ns, kill.kill_span_ns), (100_000, 2_000_000));
        assert!(with_override("faults=none,dup=10", cfg).unwrap().faults.crash_active());
        // Membership rates borrow partitioned()'s windows.
        let part = FaultPlan::partitioned(0);
        let m = with_override("faults=none,partition=500,gray=250,restart=200000", cfg).unwrap().faults;
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
            let e = with_override(text, cfg).unwrap_err();
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
