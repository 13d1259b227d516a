//! Fiber-stack memory: a simulation's resident cost is what its fibers
//! touch, in every run of a process — not `p × 512 KiB`.
//!
//! This file is a test binary of its own with a single test, so the
//! process-wide `VmHWM` it reads belongs to this test alone. It guards a
//! regression that only shows from a process's *second* simulation on: heap
//! stacks are lazily mapped the first time, but once freed the allocator
//! recycles the blocks and a zeroed allocation clears all of them. With heap
//! stacks this test read 13.7, 14.2, 74.0, 74.0 MB after its four runs (and
//! the benchmark's p = 256 workloads peaked at 134 MB = p × 512 KiB). The
//! stack arena of `crates/pgas/src/fiber.rs` maps and unmaps its own
//! reservation per run.
//!
//! The same process then makes one p = 1024 run, where per-rank scheduler
//! state — O(p) per rank, so O(p²) per run — is what a run costs, and holds
//! its growth to a budget (`WIDE_BUDGET_KB`).

use pgas::MachineModel;
use uts_tree::presets;
use worksteal::{run_sim, Algorithm, RunConfig, UtsGen};

/// Peak resident set of this process (`VmHWM`), KiB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line in /proc/self/status");
    line.split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM value in KiB")
}

/// Budget for what one topsail p = 1024 T-S run may add to `VmHWM`, KiB,
/// in the debug profile tier-1 runs this test in. When every rank kept its
/// victim list as a `Vec<usize>` and cloned it per probe cycle (16 B per
/// victim per rank, 16.8 MB per run) this read 33,388 KiB, three runs alike;
/// with one `u32` per victim it reads 22,840–22,844 KiB, most of it the 1024
/// fiber stacks' touched pages (release, whole process, via the benchmark's
/// `sim_wide`: 32.4 → 21.2 MB).
const WIDE_BUDGET_KB: u64 = 29 * 1024;

#[test]
fn repeated_sims_do_not_pay_for_untouched_stacks() {
    if !cfg!(target_os = "linux") {
        println!("skipped: VmHWM is read from /proc/self/status, which only Linux provides");
        return;
    }
    let preset = presets::t_s();
    let gen = UtsGen::new(preset.spec);
    let cfg = RunConfig::new(Algorithm::DistMem, 8);
    let mut peaks = Vec::new();
    for _ in 0..4 {
        let report = run_sim(MachineModel::kittyhawk(), 256, &gen, &cfg);
        assert_eq!(report.total_nodes, preset.expected.nodes);
        peaks.push(peak_rss_kb());
    }
    println!("VmHWM after each run: {peaks:?} KiB");
    let (first, last) = (peaks[0], peaks[3]);
    assert!(
        last - first < 4 * 1024,
        "VmHWM grew by {} KiB after the first of four p=256 runs: {peaks:?} KiB",
        last - first
    );
    assert!(
        last < 48 * 1024,
        "VmHWM {last} KiB after four p=256 runs: {peaks:?} KiB"
    );

    // What one wide run adds to the mark the four above left behind.
    let report = run_sim(MachineModel::topsail(), 1024, &gen, &cfg);
    assert_eq!(report.total_nodes, preset.expected.nodes);
    let wide = peak_rss_kb() - last;
    println!("VmHWM growth of one p=1024 run: {wide} KiB");
    assert!(
        wide < WIDE_BUDGET_KB,
        "one p=1024 run raised VmHWM by {wide} KiB (budget {WIDE_BUDGET_KB})"
    );
}
