//! Shared plumbing for the figure-reproduction binaries: run descriptors,
//! result tables, and CSV output under `results/`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
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

/// Execute one simulated run and distill a [`Row`].
pub fn measure(
    machine: &MachineModel,
    threads: usize,
    gen: &UtsGen,
    algorithm: Algorithm,
    chunk: usize,
    expected_nodes: u64,
) -> Row {
    let cfg = sim_config(algorithm, chunk);
    let t0 = Instant::now();
    let report = run_sim(machine.clone(), threads, gen, &cfg);
    let t_real = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.total_nodes,
        expected_nodes,
        "node conservation violated: {} p={} k={}",
        algorithm.label(),
        threads,
        chunk
    );
    row_from_report(&report, machine.seq_rate(), t_real)
}

/// Distill a [`Row`] from an existing report.
pub fn row_from_report(report: &RunReport, seq_rate: f64, t_real: f64) -> Row {
    Row {
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
    }
}

/// Print a header + rows as an aligned text table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<16} {:>6} {:>5} {:>11} {:>10} {:>9} {:>8} {:>6} {:>8} {:>10} {:>7} {:>7} {:>8}",
        "algorithm",
        "p",
        "k",
        "nodes",
        "t_virt(s)",
        "Mnodes/s",
        "speedup",
        "eff%",
        "steals",
        "steals/s",
        "work%",
        "weff%",
        "real(s)"
    );
    for r in rows {
        println!(
            "{:<16} {:>6} {:>5} {:>11} {:>10.4} {:>9.3} {:>8.2} {:>6.1} {:>8} {:>10.0} {:>7.1} {:>7.1} {:>8.2}",
            r.label,
            r.threads,
            r.chunk,
            r.nodes,
            r.t_virtual,
            r.mnodes_per_sec,
            r.speedup,
            100.0 * r.efficiency,
            r.steals,
            r.steals_per_sec,
            100.0 * r.working_frac,
            100.0 * r.working_eff,
            r.t_real
        );
    }
}

/// Write rows to `results/<name>.csv` (best-effort; path printed).
pub fn write_csv(name: &str, rows: &[Row]) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    let mut out = match fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("warn: cannot write {}: {e}", path.display());
            return;
        }
    };
    let _ = writeln!(
        out,
        "algorithm,threads,chunk,nodes,t_virtual_s,mnodes_per_sec,speedup,efficiency,steals,steals_per_sec,working_frac,working_eff,t_real_s"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.label,
            r.threads,
            r.chunk,
            r.nodes,
            r.t_virtual,
            r.mnodes_per_sec,
            r.speedup,
            r.efficiency,
            r.steals,
            r.steals_per_sec,
            r.working_frac,
            r.working_eff,
            r.t_real
        );
    }
    println!("wrote {}", path.display());
}

/// `--check` of a sweep binary: the recomputed CSV `fresh` must equal the
/// committed file at `path`, ignoring each line's last `wall_clock_columns`
/// fields — host seconds; every other column is virtual, so any difference is
/// a schedule change or a stale file. Prints the first differing line and
/// exits 1 on a mismatch.
pub fn check_csv(path: &str, fresh: &str, wall_clock_columns: usize) {
    fn virtual_columns(csv: &str, wall_clock_columns: usize) -> Vec<&str> {
        csv.lines()
            .map(|l| l.rsplitn(wall_clock_columns + 1, ',').last().unwrap_or(""))
            .collect()
    }
    let committed =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let old = virtual_columns(&committed, wall_clock_columns);
    let new = virtual_columns(fresh, wall_clock_columns);
    if old == new {
        println!("\n{path} is current ({} rows)", new.len() - 1);
        return;
    }
    let line = old
        .iter()
        .zip(&new)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| old.len().min(new.len()));
    eprintln!(
        "{path} is stale (first difference on line {}):\n  committed: {}\n  recomputed: {}\n\
         regenerate it by running the same binary without --check",
        line + 1,
        old.get(line).unwrap_or(&"<end of file>"),
        new.get(line).unwrap_or(&"<end of file>"),
    );
    std::process::exit(1);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_consistent_row() {
        let p = uts_tree::presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        let m = MachineModel::smp();
        let row = measure(&m, 2, &gen, Algorithm::DistMem, 2, p.expected.nodes);
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
    #[should_panic(expected = "unknown tree preset")]
    fn unknown_preset_panics() {
        preset_by_name("nope");
    }
}
