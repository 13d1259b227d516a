//! `--compare A B`: apply the benchmark's bounds to two run sets.
//!
//! One row per end-to-end metric and workload. `worse`: B's median is worse
//! than A's by more than the bound. `unresolved`: the run-to-run spread of
//! either set is wider than the bound, so the medians cannot say — unless
//! every run of B reads better than every run of A. `same` otherwise. As in
//! the acceptance check, the spread of `setup_s` is not held to its bound.

use crate::json::Json;
use crate::ledger::{E2e, END_TO_END};
use crate::set::{dir_of, metric};
use crate::stats::{iqr_frac, median};
use crate::workloads::NAMES;

/// Outcome of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No regression beyond the bound.
    Same,
    /// Regressed by more than the bound.
    Worse,
    /// Spread wider than the bound.
    Unresolved,
}

/// Apply `m`'s bound to the samples of the parent (`a`) and the change (`b`).
pub fn verdict(m: &E2e, a: &[f64], b: &[f64]) -> Verdict {
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    // bit-equal samples moved nothing, whatever their spread; and a change
    // whose every run beats every run of the parent needs no median
    if a == b || b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
        return Verdict::Same;
    }
    if m.spread_checked() && iqr_frac(a).max(iqr_frac(b)) > m.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if m.higher_is_better { ma - mb } else { mb - ma };
    if worse_by > m.bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn load(set: &str) -> Result<Json, String> {
    // a set name, its directory, or the ledger file itself
    let candidates = [
        format!("{}/ledger.json", dir_of(set)),
        format!("{set}/ledger.json"),
        set.to_string(),
    ];
    let path = candidates
        .iter()
        .find(|p| std::path::Path::new(p).is_file())
        .ok_or(format!("no ledger.json for '{set}'"))?;
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn samples(set: &Json, workload: &str, name: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| metric(r, name))
        .collect()
}

/// Print the table; `Ok(true)` when no row is `worse` or `unresolved`.
pub fn main(a: &str, b: &str) -> Result<bool, String> {
    let (sa, sb) = (load(a)?, load(b)?);
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", a, b, "delta", "spread", "bound"
    );
    let mut clean = true;
    for w in NAMES {
        for m in END_TO_END {
            let (xa, xb) = (samples(&sa, w, m.name), samples(&sb, w, m.name));
            if xa.is_empty() || xb.is_empty() {
                println!(
                    "{w:<18} {:<18} missing in {}",
                    m.name,
                    if xa.is_empty() { a } else { b }
                );
                clean = false;
                continue;
            }
            let v = verdict(m, &xa, &xb);
            clean &= v == Verdict::Same;
            let (ma, mb) = (median(&xa), median(&xb));
            println!(
                "{w:<18} {:<18} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>7.2}% {:>5.0}%  {}{}",
                m.name,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * iqr_frac(&xa).max(iqr_frac(&xb)),
                100.0 * m.bound,
                match v {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                if xa == xb { " (bit-equal)" } else { "" },
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: E2e = E2e {
        name: "t",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: E2e = E2e {
        name: "r",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // within the bound, either direction
        assert_eq!(
            verdict(&LOWER, &a, &[1.05, 1.06, 1.04, 1.05, 1.07]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&LOWER, &a, &[0.95, 0.96, 0.94, 0.95, 0.97]),
            Verdict::Same
        );
        // beyond the bound
        assert_eq!(
            verdict(&LOWER, &a, &[1.15, 1.16, 1.14, 1.15, 1.17]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&HIGHER, &a, &[0.85, 0.86, 0.84, 0.85, 0.87]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&HIGHER, &a, &[1.15, 1.16, 1.14, 1.15, 1.17]),
            Verdict::Same
        );
        // spread wider than the bound: the medians cannot say
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(verdict(&LOWER, &a, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&LOWER, &noisy, &a), Verdict::Unresolved);
        // ... unless every run of the change beats every run of the parent
        assert_eq!(
            verdict(&LOWER, &[2.0, 2.4, 2.8, 2.2, 2.6], &noisy),
            Verdict::Same
        );
        // set-up time is judged on medians alone
        let setup = E2e {
            name: "setup_s",
            ..LOWER
        };
        assert_eq!(verdict(&setup, &a, &noisy), Verdict::Same);
        assert_eq!(
            verdict(&setup, &noisy, &[1.3, 1.2, 1.4, 1.25, 1.35]),
            Verdict::Worse
        );
        // identical samples are the same whatever their spread
        assert_eq!(verdict(&LOWER, &a, &a), Verdict::Same);
        assert_eq!(verdict(&LOWER, &noisy, &noisy), Verdict::Same);
    }
}
