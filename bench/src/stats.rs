//! Order statistics and the service-ladder rules.
//!
//! Every timing in the ledger is a median with its quartiles; every tail is
//! the highest percentile that still has at least ten samples beyond it.

/// Median of `xs` (mean of the middle pair for even counts). Panics on an
/// empty slice: a metric without samples is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// First and third quartile by the "exclusive" method — the one Python's
/// `statistics.quantiles(xs, n=4)` uses, so spreads computed here match the
/// acceptance check's. Fewer than two samples have no spread: both
/// quartiles are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // 1-based rank k*(n+1)/4 between neighbours j and j+1; like Python,
        // a rank outside the neighbours' range extrapolates
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Run-to-run spread: interquartile distance as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// The tail rule: the highest percentile of `n` samples, at most 99, that
/// still has at least ten samples beyond it, as `(sorted index,
/// percentile)`. `None` below eleven samples — such a set has no reportable
/// tail.
pub fn tail_rank(n: usize) -> Option<(usize, f64)> {
    if n < 11 {
        return None;
    }
    // ten samples lie strictly above sorted[n - 11]; p99 sits at rank
    // ceil(0.99 n), so from 1000 samples on the tail is p99 itself
    let p99_idx = (99 * n).div_ceil(100) - 1;
    let idx = p99_idx.min(n - 11);
    Some((idx, 100.0 * (idx + 1) as f64 / n as f64))
}

/// Exact order statistics of request latencies: `(p50, tail, tail
/// percentile)`. From 1000 samples on the tail is p99; with fewer it is the
/// rule's lower percentile, reported alongside so nobody mistakes it.
pub fn latency_order_stats(latencies_ns: &[u64]) -> (u64, u64, f64) {
    assert!(!latencies_ns.is_empty(), "no latencies");
    let mut v = latencies_ns.to_vec();
    v.sort_unstable();
    let p50 = v[(v.len() - 1) / 2];
    match tail_rank(v.len()) {
        Some((idx, pct)) => (p50, v[idx], pct),
        None => (p50, *v.last().expect("non-empty"), 100.0),
    }
}

/// The backlog rule: a rate is sustainable only if the queue is not growing,
/// i.e. the mean latency of the last quarter of requests (arrival order) is
/// at most twice that of the first quarter.
pub fn backlog_growing(latencies_in_arrival_order_ns: &[u64]) -> bool {
    let n = latencies_in_arrival_order_ns.len();
    let q = n / 4;
    if q == 0 {
        return false;
    }
    let mean_of = |s: &[u64]| s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64;
    let first = mean_of(&latencies_in_arrival_order_ns[..q]);
    let last = mean_of(&latencies_in_arrival_order_ns[n - q..]);
    last > 2.0 * first
}

/// One rung of the service ladder, as the max-rate rule sees it.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate, requests per virtual second.
    pub rate: u64,
    /// Tail latency by [`latency_order_stats`], virtual ns.
    pub tail_ns: u64,
    /// [`backlog_growing`] over the rung's requests.
    pub backlog: bool,
    /// Requests that never completed (each misses any limit).
    pub lost: u64,
}

/// Highest ladder rate that meets `limit_ns` on the tail with no growing
/// backlog and no lost request; 0 if even the lowest rung misses.
pub fn max_sustainable_rate(rungs: &[Rung], limit_ns: u64) -> u64 {
    rungs
        .iter()
        .filter(|r| r.tail_ns <= limit_ns && !r.backlog && r.lost == 0)
        .map(|r| r.rate)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from Python: statistics.quantiles(range(1, 11), n=4)
    /// == [2.75, 5.5, 8.25]; quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0];
    /// quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((iqr_frac(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(11), Some((0, 100.0 / 11.0)));
        // 1000 samples: index 989 is the 990th smallest, ten lie above: p99.
        assert_eq!(tail_rank(1000), Some((989, 99.0)));
        // More samples never push the tail past p99 (20 lie beyond here).
        assert_eq!(tail_rank(2000), Some((1979, 99.0)));
        // 600 samples cannot support p99 (only 6 beyond): the rule backs off.
        assert_eq!(tail_rank(600), Some((589, 100.0 * 590.0 / 600.0)));
        let lat: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(latency_order_stats(&lat), (500, 990, 99.0));
        // Too few samples: the tail degrades to the maximum, labelled p100.
        assert_eq!(latency_order_stats(&[5, 9, 7]), (7, 9, 100.0));
    }

    #[test]
    fn backlog_rule_compares_last_quarter_to_first() {
        let flat = vec![100u64; 40];
        assert!(!backlog_growing(&flat));
        let mut growing = vec![100u64; 30];
        growing.extend(vec![201u64; 10]);
        assert!(backlog_growing(&growing));
        let mut edge = vec![100u64; 30];
        edge.extend(vec![200u64; 10]);
        assert!(!backlog_growing(&edge), "exactly 2x is still sustainable");
        assert!(
            !backlog_growing(&[1, 1000, 100_000]),
            "under four samples: no verdict"
        );
    }

    #[test]
    fn max_rate_needs_tail_backlog_and_completeness() {
        let rung = |rate, tail_ns, backlog, lost| Rung {
            rate,
            tail_ns,
            backlog,
            lost,
        };
        let ladder = [
            rung(1000, 8_000_000, false, 0),
            rung(2000, 19_000_000, false, 0),
            rung(3000, 15_000_000, true, 0),
            rung(4000, 12_000_000, false, 1),
            rung(8000, 90_000_000, false, 0),
        ];
        assert_eq!(max_sustainable_rate(&ladder, 20_000_000), 2000);
        assert_eq!(max_sustainable_rate(&ladder, 5_000_000), 0);
    }
}
