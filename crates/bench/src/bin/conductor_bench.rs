//! Harness-cost benchmark for the virtual-time conductor.
//!
//! Unlike the figure binaries, this benchmark measures the *simulator
//! itself*: the same workload is run under the fast conductor and under the
//! reference conductor, wall-clock time is compared, and the virtual results
//! are asserted bit-identical (makespan, per-thread clocks, steal counts —
//! the fast path must be invisible in everything but real time; see
//! `docs/conductor.md`). Both run on the same substrate (fibers on x86-64
//! Linux, OS threads elsewhere), so the speed-up prices the fast policy's
//! windows and packed queue alone, not a change of substrate.
//!
//! Usage:
//!   cargo run --release -p uts-bench --bin conductor_bench
//!     [--tree m] [--threads 256] [--machine kittyhawk] [--alg distmem]
//!     [--chunk 8] [--repeats 3] [--smoke]
//!
//! The default point is the Figure-4 configuration (T-M, 256 threads,
//! kittyhawk, upc-distmem, k=8). `--smoke` switches to a seconds-scale
//! configuration (T-S, 64 threads). The per-operation host cost of both
//! conductors is tracked, run after run, by the benchmark ledger's `sim.*`
//! and `sim_ref.*` rows (`bench/README.md`); this binary is for looking at
//! one point by hand.

use std::time::Instant;

use pgas::sim::{SimCluster, SimReport};
use pgas::MachineModel;
use uts_bench::harness::{arg, flag};
use worksteal::spec::{algorithm_by_name, machine_by_name, preset_by_name};
use worksteal::{vars, worker, Algorithm, RunConfig, TaskGen, ThreadResult, UtsGen};

fn run_once(
    machine: &MachineModel,
    threads: usize,
    gen: &UtsGen,
    cfg: &RunConfig,
    lookahead: bool,
) -> (f64, SimReport<ThreadResult>) {
    let cluster: SimCluster<<UtsGen as TaskGen>::Task> =
        SimCluster::new(machine.clone(), threads, vars::space_config()).with_lookahead(lookahead);
    let t0 = Instant::now();
    let report = cluster.run(|c| worker(c, gen, cfg));
    (t0.elapsed().as_secs_f64(), report)
}

/// Best (minimum) wall-clock over `repeats` runs; virtual results are
/// identical across repeats by determinism, so any run's report will do.
fn best_of(
    machine: &MachineModel,
    threads: usize,
    gen: &UtsGen,
    cfg: &RunConfig,
    lookahead: bool,
    repeats: usize,
) -> (f64, SimReport<ThreadResult>) {
    let mode = if lookahead { "fast" } else { "slow" };
    let (mut best_t, mut best_r) = run_once(machine, threads, gen, cfg, lookahead);
    eprintln!("  {mode} run 1/{repeats}: {best_t:.2}s");
    for i in 1..repeats {
        let (t, r) = run_once(machine, threads, gen, cfg, lookahead);
        eprintln!("  {mode} run {}/{repeats}: {t:.2}s", i + 1);
        if t < best_t {
            best_t = t;
            best_r = r;
        }
    }
    (best_t, best_r)
}

fn main() {
    let smoke = flag("--smoke");
    let tree: String = arg("--tree", if smoke { "s" } else { "m" }.to_string());
    let threads: usize = arg("--threads", if smoke { 64 } else { 256 });
    let machine_name: String = arg("--machine", "kittyhawk".to_string());
    let alg_name: String = arg("--alg", "distmem".to_string());
    let chunk: usize = arg("--chunk", 8);
    let repeats: usize = arg("--repeats", if smoke { 3 } else { 1 });

    let machine = machine_by_name(&machine_name).unwrap_or_else(|e| panic!("{e}"));
    let preset = preset_by_name(&tree).unwrap_or_else(|e| panic!("{e}"));
    let gen = UtsGen::new(preset.spec);
    let alg = algorithm_by_name(&alg_name).unwrap_or_else(|e| panic!("{e}"));
    let cfg = RunConfig::new(alg, chunk);

    println!(
        "conductor bench: {} on {}, tree {} ({} nodes), {} threads, k={}, {} repeat(s)",
        alg.label(),
        machine.name,
        preset.name,
        preset.expected.nodes,
        threads,
        chunk,
        repeats
    );

    let (t_fast, fast) = best_of(&machine, threads, &gen, &cfg, true, repeats);
    let (t_slow, slow) = best_of(&machine, threads, &gen, &cfg, false, repeats);

    // The whole contract: lookahead must change real time only.
    assert_eq!(
        fast.makespan_ns, slow.makespan_ns,
        "virtual makespan diverged between conductor modes"
    );
    assert_eq!(fast.clocks, slow.clocks, "virtual clocks diverged");
    assert_eq!(fast.stats, slow.stats, "comm stats diverged");
    assert_eq!(fast.scalars, slow.scalars, "final memory diverged");
    for (tid, (f, s)) in fast.results.iter().zip(&slow.results).enumerate() {
        assert_eq!(f, s, "thread {tid}'s worker result diverged");
    }
    let nodes: u64 = fast.results.iter().map(|r| r.nodes).sum();
    assert_eq!(nodes, preset.expected.nodes, "node conservation violated");

    let cond = fast.total_conductor();
    let slow_cond = slow.total_conductor();
    assert_eq!(
        cond.total_ops(),
        slow_cond.total_ops(),
        "operation streams differ in length"
    );
    assert_eq!(slow_cond.elided_ops, 0, "the reference skipped a mail wait");
    assert_eq!(slow_cond.cycle_ops, 0, "the reference ran a probe cycle");
    if alg == Algorithm::MpiWs {
        // The steal-response wait is the one that declares its pass.
        assert!(cond.elided_ops > 0, "no mail wait was skipped");
    }
    // A searching upc-distmem thief sweeps with probe cycles, which the fast
    // conductor runs itself on either substrate.
    if alg == Algorithm::DistMem {
        assert!(
            cond.cycle_ops > 0,
            "no probe-cycle read was applied by the conductor"
        );
    }
    let total = fast.total_stats();
    println!(
        "  op mix: {} polls, {} gets, {} puts, {} atomics, {} lock-ops, {} bulk, {} msg-ops",
        total.polls,
        total.gets,
        total.puts,
        total.atomics,
        total.lock_acquires + total.lock_failures + total.unlocks,
        total.bulk_ops,
        total.msgs_sent + total.msgs_received,
    );
    let speedup = t_slow / t_fast;
    let ns_per_op = |t: f64| t * 1e9 / cond.total_ops() as f64;
    println!(
        "  wall-clock: fast {t_fast:.3}s, slow {t_slow:.3}s -> speedup {speedup:.2}x ({:.0} / {:.0} ns per op)",
        ns_per_op(t_fast),
        ns_per_op(t_slow)
    );
    println!(
        "  conductor: {} ops, {:.1}% on the fast path ({} of them by the reach window), {} baton handoffs, {} elided by mail waits, {} applied for parked probe cycles",
        cond.total_ops(),
        100.0 * cond.fast_fraction(),
        cond.reach_ops,
        cond.handoffs,
        cond.elided_ops,
        cond.cycle_ops,
    );
    println!(
        "  fiber stacks: deepest high-water mark {} bytes (measured, page granular; 0 = no fibers on this target)",
        cond.stack_peak_bytes,
    );
}
