//! The fault plans of the chaos soaks (the `chaos_smoke` and `chaos_kill`
//! entries of [`crate::exp`]) and the repro line every failing row prints,
//! shared with `tests/chaos.rs`, which checks that a printed line reruns the
//! soak's own run on both conductors.

use pgas::FaultPlan;
use worksteal::spec::{RunSpec, Workload};

/// The DAG half of the crash and membership sweeps: six 16-wide layers,
/// about one task per rank per layer at p=16.
pub const DAG: Workload = Workload::Layered { layers: 6, width: 16, edge_pm: 150, seed: 7 };

/// [`DAG`]'s task count: a source and six layers.
pub const DAG_TASKS: u64 = 1 + 6 * 16;

/// Crash plan `seed`: `crashy`'s rates with the death window pulled forward
/// so most kills land while the tree is still being explored.
pub fn crash_faults(seed: u64, kill_pm: u32) -> FaultPlan {
    FaultPlan {
        kill_per_mille: kill_pm,
        kill_min_ns: 30_000,
        kill_span_ns: 300_000,
        ..FaultPlan::crashy(seed)
    }
}

/// Membership plan `i`, as a `faults=` word: every plan carries a healing
/// partition; kills, gray stalls, restarts, and loss/duplication cycle on
/// and off so the sweep crosses the partition × gray × kill × restart
/// combinations. The rates take their windows by the spec grammar's
/// borrowing rule (`worksteal::spec`).
pub fn membership_faults(i: u64) -> String {
    let r = i.wrapping_mul(0xA24B_AED4_963E_E407).rotate_left(31);
    let (kill, gray) = if i.is_multiple_of(2) { (1000, 0) } else { (0, 1000) };
    let restart = if i.is_multiple_of(3) { 0 } else { 250_000 };
    format!(
        "faults=seeded({r}),loss={},dup={},kill={kill},partition=1000,gray={gray},restart={restart}",
        10 + r % 30,
        10 + (r >> 8) % 30
    )
}

/// The paste-ready command that reruns `spec` and checks that it explores
/// `expect` distinct nodes (conservation with multiplicity).
pub fn repro(spec: &RunSpec, expect: u64) -> String {
    format!("cargo run --release -p uts-bench --bin uts_cli -- --spec '{spec}' --expect-distinct {expect}")
}
