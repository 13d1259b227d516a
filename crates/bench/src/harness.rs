//! Shared plumbing for the figure-reproduction binaries: run descriptors,
//! result tables, and CSV output under `results/`.

use std::fs;
use std::time::Instant;

use pgas::MachineModel;
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

/// The run configuration every harness binary starts from. Opt-in chaos:
/// `UTS_CHAOS_SEED` / `UTS_STEAL_TIMEOUT_NS` fault-inject any binary without
/// new flags; unset they change nothing. Likewise `UTS_SIM_REFERENCE=1` swaps
/// in the reference OS-thread conductor (virtual results are bit-identical,
/// only wall-clock differs).
pub fn sim_config(algorithm: Algorithm, chunk: usize) -> RunConfig {
    let mut cfg = RunConfig::new(algorithm, chunk).with_env_chaos();
    if std::env::var("UTS_SIM_REFERENCE").is_ok_and(|v| v == "1") {
        cfg.sim_lookahead = false;
    }
    cfg
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
    /// Neither: the environment injects faults (`UTS_CHAOS_*` /
    /// `UTS_STEAL_TIMEOUT_NS`), so the numbers are not the committed
    /// experiment's.
    Discard,
}

impl Sink {
    /// `--check` or not, unless the environment injects faults.
    pub fn from_args(check: bool) -> Sink {
        let env = sim_config(Algorithm::DistMem, 8);
        if env.faults.is_active() || env.steal_timeout_ns.is_some() {
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

/// Parse `--flag value` style options from argv (tiny, dependency-free).
pub fn arg<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len().saturating_sub(1) {
        if args[i] == flag {
            if let Ok(v) = args[i + 1].parse() {
                return v;
            }
        }
    }
    default
}

/// Is a bare `--flag` present?
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Look up a preset by name.
pub fn preset_by_name(name: &str) -> uts_tree::presets::Preset {
    match name {
        "tiny" => uts_tree::presets::t_tiny(),
        "s" => uts_tree::presets::t_s(),
        "m" => uts_tree::presets::t_m(),
        "l" => uts_tree::presets::t_l(),
        "xl" => uts_tree::presets::t_xl(),
        "xxl" => uts_tree::presets::t_xxl(),
        other => panic!("unknown tree preset '{other}' (tiny|s|m|l|xl|xxl)"),
    }
}

/// Machine model by name.
pub fn machine_by_name(name: &str) -> MachineModel {
    match name {
        "kittyhawk" => MachineModel::kittyhawk(),
        "topsail" => MachineModel::topsail(),
        "altix" => MachineModel::altix(),
        "smp" => MachineModel::smp(),
        other => panic!("unknown machine '{other}' (kittyhawk|topsail|altix|smp)"),
    }
}

/// The short name every command line takes for an algorithm (`uts_cli -A`,
/// `conductor_bench --alg`, the chaos soak's repro lines), read both ways.
const ALGORITHM_NAMES: [(&str, Algorithm); 7] = [
    ("sharedmem", Algorithm::SharedMem),
    ("term", Algorithm::Term),
    ("rapdif", Algorithm::TermRapdif),
    ("distmem", Algorithm::DistMem),
    ("mpi", Algorithm::MpiWs),
    ("hier", Algorithm::Hier),
    ("push", Algorithm::Pushing),
];

/// Algorithm by short name or by its paper label ([`Algorithm::label`]).
pub fn algorithm_by_name(name: &str) -> Algorithm {
    ALGORITHM_NAMES
        .iter()
        .find(|(short, alg)| *short == name || alg.label() == name)
        .map(|&(_, alg)| alg)
        .unwrap_or_else(|| {
            panic!("unknown algorithm '{name}' (sharedmem|term|rapdif|distmem|mpi|hier|push, or a paper label)")
        })
}

/// The short name [`algorithm_by_name`] resolves back to `alg`.
pub fn algorithm_name(alg: Algorithm) -> &'static str {
    ALGORITHM_NAMES
        .iter()
        .find(|(_, a)| *a == alg)
        .map(|(short, _)| *short)
        .expect("every Algorithm variant is in ALGORITHM_NAMES")
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn presets_and_machines_resolve() {
        for t in ["tiny", "s", "m", "l", "xl"] {
            let _ = preset_by_name(t);
        }
        for m in ["kittyhawk", "topsail", "altix", "smp"] {
            let _ = machine_by_name(m);
        }
    }

    #[test]
    fn algorithm_names_read_both_ways() {
        for alg in Algorithm::all() {
            assert_eq!(algorithm_by_name(algorithm_name(alg)), alg);
            assert_eq!(algorithm_by_name(alg.label()), alg);
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

    #[test]
    #[should_panic(expected = "unknown tree preset")]
    fn unknown_preset_panics() {
        preset_by_name("nope");
    }
}
