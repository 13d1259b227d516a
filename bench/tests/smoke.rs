//! The built program, end to end, at smoke sizes (T-tiny/T-S, p ≤ 16, 50
//! requests per rung): every workload emits every metric `BENCHMARK.json`
//! names, a run set can be written and compared with itself, and a bare
//! directory makes the program fail instead of printing a result.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_bench_ledger");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run(cwd: &Path, args: &[&str]) -> Output {
    Command::new(EXE)
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("bench_ledger starts")
}

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The result object: last line of stdout.
fn result(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().unwrap_or(""))
        .unwrap_or_else(|e| panic!("{e}\n{text}\n{}", String::from_utf8_lossy(&out.stderr)))
}

#[test]
fn every_workload_emits_every_metric_in_both_passes() {
    let doc = contract();
    let dir = scratch("passes");
    for w in names(&doc, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(
                &dir,
                &[
                    "--workload",
                    &w,
                    "--seed",
                    "5",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--smoke",
                    "--out",
                    "traces",
                ],
            );
            assert!(
                out.status.success(),
                "{w} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let r = result(&out);
            let keys: Vec<&str> = r
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(
                r.get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0,
                "{w}"
            );
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
            let metrics = r.get("metrics").and_then(Json::as_obj).expect("metrics");
            let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, names(&doc, key), "{w} --trace {trace}");
            if trace == "0" {
                for (k, v) in metrics {
                    let x = v.get("value").and_then(Json::as_f64).expect("value");
                    assert!(x > 0.0, "{w}: end-to-end metric {k} must never be 0");
                }
            } else {
                assert!(
                    dir.join(format!("traces/trace_{w}.json")).is_file(),
                    "{w}: trace file"
                );
            }
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_virtual_numbers() {
    let dir = scratch("determinism");
    let makespan = |seed: &str| {
        let out = run(
            &dir,
            &[
                "--workload",
                "sim_fig4_mpiws",
                "--seed",
                seed,
                "--seconds",
                "0",
                "--trace",
                "0",
                "--smoke",
            ],
        );
        result(&out)
            .get("metrics")
            .and_then(|m| m.get("makespan_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("makespan_ms")
    };
    assert_eq!(makespan("7"), makespan("7"));
    assert_ne!(
        makespan("7"),
        makespan("8"),
        "another seed is another probe order"
    );
}

#[test]
fn a_run_set_compares_clean_with_itself() {
    let dir = scratch("set");
    let out = run(
        &dir,
        &["--set", "t", "--smoke", "--runs", "2", "--seconds", "0"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ledger = Json::parse(
        &std::fs::read_to_string(dir.join("bench/runs/t/ledger.json")).expect("ledger.json"),
    )
    .expect("ledger parses");
    assert_eq!(
        ledger
            .get("host")
            .and_then(|h| h.get("nproc"))
            .and_then(Json::as_f64)
            .map(|n| n >= 1.0),
        Some(true)
    );
    let out = run(&dir, &["--compare", "t", "t"]);
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{table}");
    assert_eq!(table.matches("same (bit-equal)").count(), 7 * 3, "{table}");
}

#[test]
fn bad_invocations_fail_without_a_result() {
    let dir = scratch("bad");
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "seq_dfs", "--trace", "2"],
        &["--compare", "a", "b"],
        &[],
    ] {
        let out = run(&dir, args);
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
            "{args:?}"
        );
    }
}
