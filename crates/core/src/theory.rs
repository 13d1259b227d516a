//! Work-stealing theory checks: every deterministic run is a data point.
//!
//! The simulator's perfect observability (exact steal counts, exact
//! critical-path lengths, exact conservation accounting) turns this repo
//! into a falsification harness for work-stealing theory. This module
//! phrases two families of claims as per-run assertions:
//!
//! - **Steal bound** — for work stealing on rooted trees/DAGs, the number
//!   of *successful* steals is O(p·D) with `p` workers and critical-path
//!   length `D` (the classic Blumofe–Leiserson expectation; "Upper Bounds
//!   on Number of Steals in Rooted Trees", arxiv 1706.03184, gives the
//!   structural counterpart). The checked form is
//!   `successful_steals ≤ factor · p · D` with an explicit slack `factor`
//!   absorbing constants and the chunked-transfer protocol (one steal
//!   moves up to `k` chunks here, which only *lowers* the count).
//! - **Conservation** — every task executed exactly once on fault-free
//!   runs, at least once with accounted multiplicity under crash plans:
//!   `total − duplicates == expected`, and `duplicates == 0` without
//!   crash faults.
//!
//! [`check_run`] applies both to a [`RunReport`], [`check_conservation`]
//! the second alone (every checked row of the harness, `uts_cli --expect`);
//! each returns a typed
//! [`TheoryViolation`] instead of panicking, so harnesses decide whether a
//! violation is fatal (the `exp dag_sweep` entry fails its run, printing the
//! line that replays it) or the point
//! (the deliberately-broken-bound test in `tests/theory_bounds.rs`
//! demonstrates the asserter actually trips).
//!
//! [`makespan_floor_ns`] is a third claim, kept out of [`check_run`] because
//! a native run's makespan is host time: no simulated run finishes faster
//! than the model allows (`tests/frozen_schedules.rs` asserts it per row).

use crate::report::RunReport;
use crate::taskgen::TaskGen;

/// Default slack factor for the steal bound: generous enough that every
/// policy bundle on every workload family passes at the measured operating
/// points (see EXPERIMENTS.md E18), tight enough that a protocol regression
/// multiplying steal traffic by an order of magnitude trips it.
pub const DEFAULT_STEAL_FACTOR: f64 = 8.0;

/// The checked steal bound: `ceil(factor · p · depth)`, saturating.
pub fn steal_bound(threads: usize, depth: u64, factor: f64) -> u64 {
    let b = factor * threads as f64 * depth as f64;
    if b >= u64::MAX as f64 {
        u64::MAX
    } else {
        b.ceil() as u64
    }
}

/// The model's floor on a simulated run's virtual makespan, from the work
/// and span terms of Leiserson, Schardl & Suksompong (arxiv 1706.03184):
/// `max(W·node_ns/p, D·node_ns)` for `work` units `W` and a critical path
/// of `span` units `D` on `threads` workers, each unit charged `node_ns`.
/// A host-time makespan (a native run) has no such floor.
pub fn makespan_floor_ns(work: u64, span: u64, node_ns: u64, threads: usize) -> u64 {
    work.saturating_mul(node_ns)
        .div_ceil(threads as u64)
        .max(span.saturating_mul(node_ns))
}

/// What [`check_run`] verified, for harness reporting.
#[derive(Clone, Copy, Debug)]
pub struct TheorySummary {
    /// Expected task/node count (the sequential size).
    pub expected: u64,
    /// Successful steals observed.
    pub successful_steals: u64,
    /// Total steal attempts (successful + failed).
    pub steal_attempts: u64,
    /// Critical-path length used for the bound.
    pub depth: u64,
    /// The bound the steals were checked against.
    pub bound: u64,
}

/// A falsified claim. `Display` gives the full context for replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryViolation {
    /// Successful steals exceeded `factor · p · D`.
    StealBound {
        /// Successful steals observed.
        steals: u64,
        /// The bound that was exceeded.
        bound: u64,
        /// Worker count `p`.
        threads: usize,
        /// Critical-path length `D`.
        depth: u64,
    },
    /// `total − duplicates != expected`: work was lost (or double-counted
    /// beyond the multiplicity accounting).
    Conservation {
        /// Nodes the run explored.
        total: u64,
        /// Accounted duplicate explorations.
        duplicates: u64,
        /// The sequential size.
        expected: u64,
    },
    /// A crash-free run reported duplicate or recovered nodes — recovery
    /// machinery fired without a fault plan.
    SpuriousRecovery {
        /// Duplicates reported.
        duplicates: u64,
        /// Recovered nodes reported.
        recovered: u64,
    },
}

impl std::fmt::Display for TheoryViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TheoryViolation::StealBound {
                steals,
                bound,
                threads,
                depth,
            } => write!(
                f,
                "steal bound violated: {steals} successful steals > bound {bound} \
                 (p={threads}, critical path D={depth})"
            ),
            TheoryViolation::Conservation {
                total,
                duplicates,
                expected,
            } => write!(
                f,
                "conservation violated: total {total} − duplicates {duplicates} \
                 != expected {expected}"
            ),
            TheoryViolation::SpuriousRecovery {
                duplicates,
                recovered,
            } => write!(
                f,
                "crash-free run reported {duplicates} duplicate and {recovered} \
                 recovered nodes — recovery fired without a fault plan"
            ),
        }
    }
}

impl std::error::Error for TheoryViolation {}

/// Check one run for conservation: `expected` is the workload's sequential
/// size, `crash` whether the run's fault plan had a crash class. Without
/// one every task runs exactly once (no duplicate, nothing recovered, so
/// `total == expected`); under one, with multiplicity
/// (`total − duplicates == expected`).
pub fn check_conservation(report: &RunReport, expected: u64, crash: bool) -> Result<(), TheoryViolation> {
    if !crash && (report.duplicate_nodes > 0 || report.recovered_nodes > 0) {
        return Err(TheoryViolation::SpuriousRecovery {
            duplicates: report.duplicate_nodes,
            recovered: report.recovered_nodes,
        });
    }
    if report.total_nodes.checked_sub(report.duplicate_nodes) != Some(expected) {
        return Err(TheoryViolation::Conservation {
            total: report.total_nodes,
            duplicates: report.duplicate_nodes,
            expected,
        });
    }
    Ok(())
}

/// Check one run against the steal bound and conservation
/// ([`check_conservation`]). `expected` is the workload's sequential size;
/// `depth` its critical-path length (closed-form from the generator, or
/// [`tree_depth`]); `crash` whether the run's fault plan had a crash class
/// (multiplicity is then allowed).
pub fn check_run(
    report: &RunReport,
    expected: u64,
    depth: u64,
    factor: f64,
    crash: bool,
) -> Result<TheorySummary, TheoryViolation> {
    check_conservation(report, expected, crash)?;
    let bound = steal_bound(report.threads, depth, factor);
    if report.successful_steals > bound {
        return Err(TheoryViolation::StealBound {
            steals: report.successful_steals,
            bound,
            threads: report.threads,
            depth,
        });
    }
    Ok(TheorySummary {
        expected,
        successful_steals: report.successful_steals,
        steal_attempts: report.steal_attempts,
        depth,
        bound,
    })
}

/// Critical-path length (maximum root→leaf depth in tasks) of a tree
/// workload, by host traversal. For DAG workloads prefer the generator's
/// closed form ([`TaskGen::critical_path_len`]); this helper serves the
/// tree generators, which know their size but not their depth.
pub fn tree_depth<G: TaskGen>(gen: &G) -> u64 {
    let mut stack = vec![(gen.root(), 1u64)];
    let mut scratch = Vec::new();
    let mut deepest = 0;
    while let Some((node, d)) = stack.pop() {
        deepest = deepest.max(d);
        scratch.clear();
        gen.expand(&node, &mut scratch);
        stack.extend(scratch.iter().map(|&c| (c, d + 1)));
    }
    deepest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ThreadResult;
    use crate::taskgen::SyntheticGen;

    fn report(total: u64, dup: u64, recovered: u64, steals: u64, threads: usize) -> RunReport {
        RunReport {
            label: "test",
            machine: "smp",
            threads,
            chunk_size: 4,
            total_nodes: total,
            makespan_ns: 1,
            recovered_nodes: recovered,
            duplicate_nodes: dup,
            max_multiplicity: if dup > 0 { 2 } else { 1 },
            deaths: 0,
            evictions: 0,
            rejoins: 0,
            steal_attempts: steals + 3,
            successful_steals: steals,
            handoffs: 0,
            critical_path_len: 0,
            service: None,
            per_thread: vec![ThreadResult::default(); threads],
        }
    }

    #[test]
    fn clean_run_passes_and_summarises() {
        let r = report(100, 0, 0, 10, 4);
        let s = check_run(&r, 100, 5, 1.0, false).expect("clean run");
        assert_eq!(s.bound, 20);
        assert_eq!(s.successful_steals, 10);
        assert_eq!(s.steal_attempts, 13);
    }

    #[test]
    fn steal_bound_trips() {
        let r = report(100, 0, 0, 25, 4);
        let err = check_run(&r, 100, 5, 1.0, false).expect_err("25 > 20");
        assert_eq!(
            err,
            TheoryViolation::StealBound {
                steals: 25,
                bound: 20,
                threads: 4,
                depth: 5
            }
        );
        assert!(err.to_string().contains("steal bound"));
    }

    #[test]
    fn zero_factor_rejects_any_steal() {
        let r = report(10, 0, 0, 1, 2);
        assert!(matches!(
            check_run(&r, 10, 100, 0.0, false),
            Err(TheoryViolation::StealBound { bound: 0, .. })
        ));
    }

    #[test]
    fn conservation_trips_on_lost_work() {
        let r = report(95, 0, 0, 0, 2);
        let err = check_run(&r, 100, 5, 1.0, false).expect_err("lost 5");
        assert!(matches!(err, TheoryViolation::Conservation { .. }));
        assert!(err.to_string().contains("conservation"));
    }

    #[test]
    fn crash_runs_may_carry_multiplicity_but_not_lose_work() {
        let r = report(110, 10, 4, 2, 2);
        check_run(&r, 100, 5, 1.0, true).expect("total - dup == expected");
        let r = report(110, 5, 0, 2, 2);
        assert!(matches!(
            check_run(&r, 100, 5, 1.0, true),
            Err(TheoryViolation::Conservation { .. })
        ));
    }

    #[test]
    fn spurious_recovery_without_crash_trips() {
        let r = report(102, 2, 0, 0, 2);
        assert!(matches!(
            check_run(&r, 100, 5, 1.0, false),
            Err(TheoryViolation::SpuriousRecovery { .. })
        ));
    }

    #[test]
    fn tree_depth_of_synthetic_tree() {
        let g = SyntheticGen {
            branch: 2,
            depth: 6,
        };
        assert_eq!(tree_depth(&g), 7); // root at depth 1, leaves at depth 7
    }

    #[test]
    fn bound_saturates() {
        assert_eq!(steal_bound(usize::MAX, u64::MAX, 1e18), u64::MAX);
        assert_eq!(steal_bound(4, 5, 1.0), 20);
        assert_eq!(steal_bound(4, 0, 8.0), 0);
    }

    #[test]
    fn makespan_floor_is_the_larger_term() {
        assert_eq!(makespan_floor_ns(100, 5, 10, 4), 250); // work-bound
        assert_eq!(makespan_floor_ns(100, 40, 10, 4), 400); // span-bound
        assert_eq!(makespan_floor_ns(7, 1, 1, 2), 4); // rounds up
    }
}
