//! A run set: every workload, one child process per run, written to
//! `bench/runs/<name>/` as `ledger.json` plus one trace per workload.
//!
//! The layout follows the acceptance check: per workload, `runs` untraced
//! runs on seeds `1..=runs` (the end-to-end samples) and one traced run on
//! seed 1 (the per-layer ledger).

use crate::host;
use crate::json::Json;
use crate::ledger::END_TO_END;
use crate::stats::{iqr_frac, median, quartiles};
use crate::workloads::NAMES;

/// Start of the stdout line on which an untraced run prints its host-time
/// samples as JSON.
pub const EXTRAS_PREFIX: &str = "# extras ";

/// Directory of the run set called `name`.
pub fn dir_of(name: &str) -> String {
    format!("bench/runs/{name}")
}

/// One child run; its result object, or why there is none.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: &str,
) -> Result<Json, String> {
    let (seed_arg, seconds_arg) = (seed.to_string(), seconds.to_string());
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        &seed_arg,
        "--seconds",
        &seconds_arg,
    ];
    args.extend(["--trace", if trace { "1" } else { "0" }, "--out", out_dir]);
    if smoke {
        args.push("--smoke");
    }
    let (exit_ok, text) = host::run_self(&args)?;
    let result = Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    let mut pairs = vec![
        ("seed".to_string(), Json::Num(seed as f64)),
        ("exit_ok".to_string(), Json::Bool(exit_ok)),
    ];
    pairs.extend(result.as_obj().unwrap_or(&[]).iter().cloned());
    let extras = text.lines().find_map(|l| l.strip_prefix(EXTRAS_PREFIX));
    if let Some(extras) = extras.and_then(|e| Json::parse(e).ok()) {
        pairs.push(("extras".to_string(), extras));
    }
    Ok(Json::Obj(pairs))
}

/// `metrics.<name>.value` of a result object.
pub fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn all_ok(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
        && result.get("exit_ok") == Some(&Json::Bool(true))
}

/// Run the set; `Ok(true)` when every run was correct.
pub fn main(name: &str, runs: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    {
        return Err(format!(
            "--set '{name}': use letters, digits, '_', '.', '-'"
        ));
    }
    if runs == 0 {
        return Err("--runs 0: a set needs at least one run per workload".into());
    }
    let dir = dir_of(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in NAMES {
        let mut results = Vec::new();
        for seed in 1..=runs {
            let r = child(w, seed, seconds, false, smoke, &dir)?;
            ok &= all_ok(&r);
            eprintln!(
                "{w} seed {seed}: makespan_ms {:.4}",
                metric(&r, "makespan_ms").unwrap_or(f64::NAN)
            );
            results.push(r);
        }
        let traced = child(w, 1, seconds, true, smoke, &dir)?;
        ok &= all_ok(&traced);
        println!("\n== {w}: {runs} run(s) of {seconds} s, seeds 1..={runs}");
        println!(
            "{:<24} {:>14} {:>14} {:>14} {:>8}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        let host_wall = |r: &Json| r.get("extras")?.get("host_wall_s")?.as_f64();
        let rows = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    results.iter().filter_map(|r| metric(r, m.name)).collect(),
                )
            })
            .chain([(
                "host_wall_s (unbounded)",
                "s",
                results.iter().filter_map(host_wall).collect(),
            )]);
        for (name, unit, xs) in rows {
            let xs: Vec<f64> = xs;
            if xs.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&xs);
            let (m, spread) = (median(&xs), iqr_frac(&xs));
            println!("{name:<24} {m:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}  {unit}");
        }
        workloads.push((
            w.to_string(),
            Json::obj([("runs", Json::Arr(results)), ("traced", traced)]),
        ));
    }
    let doc = Json::obj([
        ("set", Json::str(name)),
        ("host", host::describe()),
        ("seconds", Json::Num(seconds)),
        ("runs_per_workload", Json::Num(runs as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = format!("{dir}/ledger.json");
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "\nwrote {path}{}",
        if ok { "" } else { " — WITH FAILED RUNS" }
    );
    Ok(ok)
}
