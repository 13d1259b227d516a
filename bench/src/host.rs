//! The measurement environment: what is scrubbed before a run and what is
//! recorded with it.

use crate::json::Json;

/// Environment knobs of the library that change what a run does or which
/// conductor runs it. A benchmark run must not inherit them.
const SCRUBBED_PREFIXES: [&str; 5] = [
    "UTS_SIM_WORKERS",
    "UTS_SIM_REFERENCE",
    "UTS_CHAOS_",
    "UTS_STEAL_TIMEOUT_NS",
    "UTS_WATCHDOG_",
];

/// Remove every library knob from this process's environment; returns the
/// names removed. Call before any thread starts.
pub fn scrub_env() -> Vec<String> {
    let hits: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| SCRUBBED_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    for k in &hits {
        std::env::remove_var(k);
    }
    hits
}

/// Run this executable again with `args` and wait for it: `(exited with 0,
/// stdout)`. The child's stderr passes through, so failures show as they
/// happen.
pub fn run_self(args: &[&str]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {args:?}: {e}"))?;
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// Hardware threads of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A value from `/proc/self/status`, in KiB (0 off Linux).
fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a reader needs to judge whether two run sets are comparable.
pub fn describe() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        // "unknown" in a checkout that is not a git repository
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
