//! Chaos soak: sweep seeded fault schedules across all five paper
//! algorithms and fail on any conservation or termination violation.
//!
//! For every seed `0..--schedules`, every algorithm in
//! [`Algorithm::paper_set`] runs under [`FaultPlan::seeded`] with the thief
//! request timeout armed (see `docs/faults.md`). Each run must count the
//! tree exactly (checked against a sequential traversal) — the in-band
//! reduction inside the engine independently cross-checks the same total on
//! every thread. A run that livelocks runs out of fuel
//! ([`pgas::sim::FUEL_NS`]) and panics, in release as in debug builds.
//! `--budget-s` bounds the sweep, not a run: it is checked between runs, so
//! it cannot interrupt a hung one, but it fails a sweep that terminates too
//! slowly.
//!
//! Per algorithm the soak reports makespan inflation versus the fault-free
//! baseline, plus the hardening counters (timeouts, retracts won/lost,
//! retries, backoff time).
//!
//! A second sweep covers the *crash* classes (docs/faults.md): for every
//! seed, a [`FaultPlan::crashy`]-derived plan with message loss,
//! duplication, and a mid-run rank death window runs against every paper
//! algorithm, and must satisfy conservation **with multiplicity** — every
//! node explored at least once, every re-exploration accounted in
//! `duplicate_nodes`. Any violation prints the algorithm and the complete
//! offending plan (seed included) so the failure replays with one
//! `FaultPlan` literal.
//!
//! Both sweeps run every plan twice: on the tree, and on a small layered
//! task DAG (docs/workloads.md), whose ready tasks travel to their owners as
//! lineage-tracked hand-offs — a lost, duplicated, fenced or orphaned
//! hand-off must be re-emitted, so the DAG must conserve with multiplicity
//! too (§2.3 there).
//!
//! A third sweep covers the *membership* classes (docs/faults.md §8): for
//! every seed, a plan mixing a healing network partition, gray stalls,
//! rank kills, and restarts runs against every paper algorithm in batch
//! mode (conservation with multiplicity), a subset re-runs on the
//! reference OS-thread conductor (bit-identity), and the message bundles
//! run the same plans in service mode (zero lost requests). Membership
//! plans are constructed to be *exactly* representable as `UTS_CHAOS_*`
//! environment overrides, so a violation prints a paste-ready repro line
//! for the `uts_cli` binary alongside the offending `FaultPlan`.
//!
//! Run with: `cargo run --release -p uts-bench --bin chaos -- \
//!     [--schedules 50] [--crash-schedules N] [--membership-schedules N] \
//!     [--threads 16] [--tree tiny] \
//!     [--machine kittyhawk] [--timeout-ns 50000] [--budget-s 600]`
//!
//! Exits nonzero on the first violation.

use std::time::Instant;

use pgas::{ArrivalSpec, FaultPlan};
use uts_bench::harness::{algorithm_name, arg, machine_by_name, preset_by_name};
use uts_tree::{TreeKind, TreeSpec};
use worksteal::{
    run_service_sim, run_sim, seq_run, Algorithm, DagWorkload, RandomLayered, RunConfig, RunReport,
    UtsGen,
};

/// One membership-fault schedule, kept exactly representable as
/// `UTS_CHAOS_*` environment overrides: [`MembershipKnobs::plan`] mirrors
/// the composition `RunConfig::with_env_chaos` performs when every one of
/// those variables is set, so the repro line reconstructs the identical
/// `FaultPlan` bit for bit.
#[derive(Clone, Copy)]
struct MembershipKnobs {
    seed: u64,
    loss_pm: u32,
    dup_pm: u32,
    kill_pm: u32,
    partition_pm: u32,
    gray_pm: u32,
    restart_ns: u64,
}

impl MembershipKnobs {
    /// Deterministic knob matrix: every schedule carries a healing
    /// partition; kills, gray stalls, restarts, and loss/duplication cycle
    /// on and off so the sweep crosses the partition × gray × kill ×
    /// restart combinations.
    fn schedule(i: u64) -> MembershipKnobs {
        let r = i.wrapping_mul(0xA24B_AED4_963E_E407).rotate_left(31);
        MembershipKnobs {
            seed: r,
            loss_pm: 10 + (r % 30) as u32,
            dup_pm: 10 + ((r >> 8) % 30) as u32,
            kill_pm: if i.is_multiple_of(2) { 1000 } else { 0 },
            partition_pm: 1000,
            gray_pm: if i.is_multiple_of(2) { 0 } else { 1000 },
            restart_ns: if i.is_multiple_of(3) { 0 } else { 250_000 },
        }
    }

    /// The plan `with_env_chaos` would build from [`MembershipKnobs::env`]:
    /// `FaultPlan::seeded` overlaid with the crash rates (borrowing
    /// `crashy`'s death window) and the membership rates (borrowing
    /// `partitioned`'s — healing — windows).
    fn plan(&self) -> FaultPlan {
        let mut f = FaultPlan::seeded(self.seed);
        f.loss_per_mille = self.loss_pm;
        f.dup_per_mille = self.dup_pm;
        f.kill_per_mille = self.kill_pm;
        if self.kill_pm > 0 {
            let c = FaultPlan::crashy(self.seed);
            f.kill_min_ns = c.kill_min_ns;
            f.kill_span_ns = c.kill_span_ns;
        }
        let part = FaultPlan::partitioned(self.seed);
        f.partition_per_mille = self.partition_pm;
        if self.partition_pm > 0 {
            f.partition_min_ns = part.partition_min_ns;
            f.partition_span_ns = part.partition_span_ns;
            f.partition_dur_ns = part.partition_dur_ns;
        }
        f.gray_per_mille = self.gray_pm;
        if self.gray_pm > 0 {
            f.gray_min_ns = part.gray_min_ns;
            f.gray_span_ns = part.gray_span_ns;
            f.gray_stall_ns = part.gray_stall_ns;
        }
        f.restart_after_ns = self.restart_ns;
        f
    }

    /// The environment prefix that makes any `with_env_chaos` harness
    /// rebuild [`MembershipKnobs::plan`] exactly.
    fn env(&self, timeout_ns: u64) -> String {
        format!(
            "UTS_CHAOS_SEED={} UTS_CHAOS_LOSS_PM={} UTS_CHAOS_DUP_PM={} \
             UTS_CHAOS_KILL_PM={} UTS_CHAOS_PARTITION_PM={} \
             UTS_CHAOS_GRAY_PM={} UTS_CHAOS_RESTART_NS={} \
             UTS_STEAL_TIMEOUT_NS={timeout_ns}",
            self.seed,
            self.loss_pm,
            self.dup_pm,
            self.kill_pm,
            self.partition_pm,
            self.gray_pm,
            self.restart_ns
        )
    }

    /// A paste-ready shell line replaying one batch run through `uts_cli`
    /// (sim backend, default chunk/poll match `RunConfig::new(_, 8)`),
    /// verifying the same conservation-with-multiplicity invariant.
    fn repro(
        &self,
        alg: Algorithm,
        spec: &TreeSpec,
        threads: usize,
        machine: &str,
        timeout_ns: u64,
        expect: u64,
    ) -> String {
        let tree = match spec.kind {
            TreeKind::Binomial { b0, m, q } => {
                format!("-t 0 -r {} -b {b0} -m {m} -q {q}", spec.seed)
            }
            // Geometric/hybrid presets aren't expressible in uts_cli's flag
            // subset; the printed FaultPlan still replays via run_sim.
            _ => format!("<non-binomial preset: {:?}>", spec),
        };
        format!(
            "{} cargo run --release -p uts-bench --bin uts_cli -- \
             {tree} -c 8 -T {threads} -A {} -M {machine} \
             --expect-distinct {expect}",
            self.env(timeout_ns),
            algorithm_name(alg)
        )
    }
}

fn main() {
    let schedules: u64 = arg("--schedules", 50);
    let threads: usize = arg("--threads", 16);
    let tree: String = arg("--tree", "tiny".to_string());
    let machine_name: String = arg("--machine", "kittyhawk".to_string());
    let timeout_ns: u64 = arg("--timeout-ns", 50_000);
    let budget_s: u64 = arg("--budget-s", 600);
    let crash_schedules: u64 = arg("--crash-schedules", schedules);
    let membership_schedules: u64 = arg("--membership-schedules", schedules);
    let kill_pm: u64 = arg("--kill-pm", 350);

    let p = preset_by_name(&tree);
    let gen = UtsGen::new(p.spec);
    let m = machine_by_name(&machine_name);
    let (seq_nodes, _) = seq_run(&gen);
    assert_eq!(seq_nodes, p.expected.nodes, "preset table is stale");
    // Six 16-wide layers: about one task per rank per layer at p=16.
    let dag = DagWorkload::new(RandomLayered::new(6, 16, 150, 7));
    let dag_tasks = dag.n_tasks();
    // The DAG half of the crash and membership sweeps, per algorithm:
    // (deaths, recovered, duplicates, hand-offs).
    let tally = |acc: &mut [u64; 4], r: &RunReport| {
        acc[0] += r.deaths as u64;
        acc[1] += r.recovered_nodes;
        acc[2] += r.duplicate_nodes;
        acc[3] += r.handoffs;
    };
    let dag_line = |alg: Algorithm, t: [u64; 4]| {
        println!(
            "{:<16} layered DAG ({dag_tasks} tasks) deaths {:>3} recovered {:>5} dup {:>5} \
             hand-offs {:>6}",
            alg.label(),
            t[0],
            t[1],
            t[2],
            t[3]
        );
    };

    println!(
        "chaos soak: {} schedules x {} algorithms, T-{tree} ({} nodes), \
         {machine_name}, p={threads}, timeout={timeout_ns}ns",
        schedules,
        Algorithm::paper_set().len(),
        seq_nodes
    );

    let t0 = Instant::now();
    let mut violations = 0u64;
    let mut runs = 0u64;

    if schedules > 0 {
        for alg in Algorithm::paper_set() {
            // Fault-free baseline for the inflation figure.
            let mut base_cfg = RunConfig::new(alg, 8);
            base_cfg.steal_timeout_ns = Some(timeout_ns);
            let base = run_sim(m.clone(), threads, &gen, &base_cfg);
            if base.total_nodes != seq_nodes {
                eprintln!("VIOLATION: {} fault-free baseline lost nodes", alg.label());
                violations += 1;
            }

            let mut worst_inflation = 0.0f64;
            let mut sum_inflation = 0.0f64;
            let mut timeouts = 0u64;
            let mut retracts_won = 0u64;
            let mut retracts_lost = 0u64;
            let mut retries = 0u64;
            let mut backoff_ns = 0u64;

            for seed in 0..schedules {
                if t0.elapsed().as_secs() > budget_s {
                    eprintln!(
                        "VIOLATION: wall-clock budget {budget_s}s exceeded at \
                     {} seed {seed} — sweep too slow",
                        alg.label()
                    );
                    violations += 1;
                    break;
                }
                let mut cfg = RunConfig::new(alg, 8);
                cfg.faults = FaultPlan::seeded(seed);
                cfg.steal_timeout_ns = Some(timeout_ns);
                let r = run_sim(m.clone(), threads, &gen, &cfg);
                runs += 1;
                if r.total_nodes != seq_nodes {
                    eprintln!(
                        "VIOLATION: {} seed {seed}: {} nodes explored, {} expected",
                        alg.label(),
                        r.total_nodes,
                        seq_nodes
                    );
                    violations += 1;
                }
                let inflation = r.makespan_ns as f64 / base.makespan_ns.max(1) as f64;
                worst_inflation = worst_inflation.max(inflation);
                sum_inflation += inflation;
                let t = r.totals();
                timeouts += t.steal_timeouts;
                retracts_won += t.retracts_won;
                retracts_lost += t.retracts_lost;
                retries += t.steal_retries;
                backoff_ns += t.timeout_backoff_ns;
            }

            println!(
                "{:<16} inflation mean {:>5.2}x worst {:>5.2}x | timeouts {:>5} \
             retracts {:>4}W/{:<4}L retries {:>5} backoff {:>7}us",
                alg.label(),
                sum_inflation / schedules.max(1) as f64,
                worst_inflation,
                timeouts,
                retracts_won,
                retracts_lost,
                retries,
                backoff_ns / 1_000
            );
        }
    }

    if crash_schedules > 0 {
        println!(
            "\ncrash soak: {crash_schedules} crash plans x {} algorithms \
         (loss+dup, kill {kill_pm}\u{2030}, conservation with multiplicity)",
            Algorithm::paper_set().len()
        );
        for alg in Algorithm::paper_set() {
            // Fault-free baseline (no timeout armed: crash runs auto-arm their
            // own) for the makespan-inflation figure.
            let base = run_sim(m.clone(), threads, &gen, &RunConfig::new(alg, 8));
            let mut deaths = 0u64;
            let mut recovered = 0u64;
            let mut dups = 0u64;
            let mut worst_mult = 1u64;
            let mut sum_inflation = 0.0f64;
            let mut dag_tally = [0u64; 4];
            for seed in 0..crash_schedules {
                if t0.elapsed().as_secs() > budget_s {
                    eprintln!(
                        "VIOLATION: wall-clock budget {budget_s}s exceeded at \
                     {} crash seed {seed} — sweep too slow",
                        alg.label()
                    );
                    violations += 1;
                    break;
                }
                let mut cfg = RunConfig::new(alg, 8);
                // crashy()'s rates with the death window pulled forward so most
                // kills land while the tree is still being explored. The steal
                // timeout is left unset: crash plans must auto-arm it.
                cfg.faults = FaultPlan {
                    kill_per_mille: kill_pm as u32,
                    kill_min_ns: 30_000,
                    kill_span_ns: 300_000,
                    ..FaultPlan::crashy(seed)
                };
                let r = run_sim(m.clone(), threads, &gen, &cfg);
                runs += 1;
                if r.total_nodes - r.duplicate_nodes != seq_nodes {
                    eprintln!(
                        "VIOLATION: {} crash seed {seed}: {} distinct nodes \
                     explored, {} expected — replay with plan {:?}",
                        alg.label(),
                        r.total_nodes - r.duplicate_nodes,
                        seq_nodes,
                        cfg.faults
                    );
                    violations += 1;
                }
                deaths += r.deaths as u64;
                recovered += r.recovered_nodes;
                dups += r.duplicate_nodes;
                worst_mult = worst_mult.max(r.max_multiplicity);
                sum_inflation += r.makespan_ns as f64 / base.makespan_ns.max(1) as f64;
                // k=1: the frontier clamp would cut k=8 to it anyway.
                let dag_cfg = RunConfig {
                    chunk_size: 1,
                    ..cfg
                };
                let d = run_sim(m.clone(), threads, &dag, &dag_cfg);
                runs += 1;
                if d.total_nodes - d.duplicate_nodes != dag_tasks {
                    eprintln!(
                        "VIOLATION: {} crash seed {seed}, layered DAG: {} distinct \
                         tasks run, {dag_tasks} expected — replay with plan {:?}",
                        alg.label(),
                        d.total_nodes - d.duplicate_nodes,
                        cfg.faults
                    );
                    violations += 1;
                }
                tally(&mut dag_tally, &d);
            }
            println!(
                "{:<16} deaths {:>3}/{} recovered {:>6} nodes dup {:>6} \
             worst-multiplicity {} inflation mean {:>5.2}x",
                alg.label(),
                deaths,
                crash_schedules,
                recovered,
                dups,
                worst_mult,
                sum_inflation / crash_schedules.max(1) as f64
            );
            dag_line(alg, dag_tally);
        }
    }

    if membership_schedules > 0 {
        // Batch membership soak: conservation with multiplicity through
        // partition → quorum eviction → heal → fence rejoin, with every
        // fifth plan replayed on the reference OS-thread conductor and
        // compared bit for bit.
        println!(
            "\nmembership soak: {membership_schedules} plans x {} algorithms \
             (healing partitions, gray stalls, kills, restarts; every 5th \
             plan replayed on the reference conductor)",
            Algorithm::paper_set().len()
        );
        let mut sweep_evictions = 0u64;
        let mut sweep_rejoins = 0u64;
        'membership: for alg in Algorithm::paper_set() {
            let mut evictions = 0u64;
            let mut rejoins = 0u64;
            let mut fenced = 0u64;
            let mut scavenged = 0u64;
            let mut dag_tally = [0u64; 4];
            for i in 0..membership_schedules {
                if t0.elapsed().as_secs() > budget_s {
                    eprintln!(
                        "VIOLATION: wall-clock budget {budget_s}s exceeded at \
                         {} membership plan {i} — sweep too slow",
                        alg.label()
                    );
                    violations += 1;
                    break 'membership;
                }
                let knobs = MembershipKnobs::schedule(i);
                let mut cfg = RunConfig::new(alg, 8);
                cfg.faults = knobs.plan();
                cfg.steal_timeout_ns = Some(timeout_ns);
                let r = run_sim(m.clone(), threads, &gen, &cfg);
                runs += 1;
                if r.total_nodes - r.duplicate_nodes != seq_nodes {
                    eprintln!(
                        "VIOLATION: {} membership plan {i}: {} distinct nodes \
                         explored, {} expected — plan {:?}\n  repro: {}",
                        alg.label(),
                        r.total_nodes - r.duplicate_nodes,
                        seq_nodes,
                        cfg.faults,
                        knobs.repro(alg, &p.spec, threads, &machine_name, timeout_ns, seq_nodes)
                    );
                    violations += 1;
                }
                if i % 5 == 0 {
                    let mut ref_cfg = cfg;
                    ref_cfg.sim_lookahead = false;
                    let b = run_sim(m.clone(), threads, &gen, &ref_cfg);
                    runs += 1;
                    if (
                        b.makespan_ns,
                        b.total_nodes,
                        b.duplicate_nodes,
                        b.evictions,
                        b.rejoins,
                        b.deaths,
                    ) != (
                        r.makespan_ns,
                        r.total_nodes,
                        r.duplicate_nodes,
                        r.evictions,
                        r.rejoins,
                        r.deaths,
                    ) {
                        eprintln!(
                            "VIOLATION: {} membership plan {i} diverged across \
                             conductors (fast vs reference) — plan {:?}\n  repro: {}",
                            alg.label(),
                            cfg.faults,
                            knobs.repro(
                                alg,
                                &p.spec,
                                threads,
                                &machine_name,
                                timeout_ns,
                                seq_nodes
                            )
                        );
                        violations += 1;
                    }
                }
                evictions += r.evictions;
                rejoins += r.rejoins;
                fenced += r.per_thread.iter().map(|t| t.fenced_drops).sum::<u64>();
                scavenged += r.per_thread.iter().map(|t| t.scavenged_nodes).sum::<u64>();
                // The same plan on the DAG, every fifth on both conductors.
                let dag_cfg = RunConfig {
                    chunk_size: 1,
                    ..cfg
                };
                let d = run_sim(m.clone(), threads, &dag, &dag_cfg);
                runs += 1;
                if d.total_nodes - d.duplicate_nodes != dag_tasks {
                    eprintln!(
                        "VIOLATION: {} membership plan {i}, layered DAG: {} distinct \
                         tasks run, {dag_tasks} expected — plan {:?}",
                        alg.label(),
                        d.total_nodes - d.duplicate_nodes,
                        cfg.faults
                    );
                    violations += 1;
                }
                if i % 5 == 0 {
                    let ref_cfg = RunConfig {
                        sim_lookahead: false,
                        ..dag_cfg
                    };
                    let b = run_sim(m.clone(), threads, &dag, &ref_cfg);
                    runs += 1;
                    if (b.makespan_ns, b.total_nodes, b.duplicate_nodes, b.handoffs)
                        != (d.makespan_ns, d.total_nodes, d.duplicate_nodes, d.handoffs)
                    {
                        eprintln!(
                            "VIOLATION: {} membership plan {i}, layered DAG, diverged \
                             across conductors — plan {:?}",
                            alg.label(),
                            cfg.faults
                        );
                        violations += 1;
                    }
                }
                tally(&mut dag_tally, &d);
            }
            sweep_evictions += evictions;
            sweep_rejoins += rejoins;
            println!(
                "{:<16} evictions {:>4} rejoins {:>4} fenced-drops {:>6} \
                 scavenged {:>5} nodes",
                alg.label(),
                evictions,
                rejoins,
                fenced,
                scavenged
            );
            dag_line(alg, dag_tally);
        }
        if sweep_evictions == 0 || sweep_rejoins == 0 {
            eprintln!(
                "VIOLATION: membership sweep never exercised the machinery \
                 (evictions={sweep_evictions} rejoins={sweep_rejoins}) — \
                 the plans are too tame to certify anything"
            );
            violations += 1;
        }

        // Service-mode membership soak: the same plan matrix against the
        // open-loop service on the message bundles. Per-epoch conservation
        // is asserted inside `run_service_sim` (a violated epoch panics);
        // here the invariant is zero lost requests through partition →
        // eviction → heal → rejoin.
        let requests = 8usize;
        let svc_gen = UtsGen::new(TreeSpec::binomial(23, 4, 2, 0.4));
        println!(
            "\nmembership service soak: {membership_schedules} plans x 3 \
             bundles, {requests} requests each (zero lost requests)"
        );
        'service: for alg in [Algorithm::DistMem, Algorithm::MpiWs, Algorithm::Pushing] {
            let mut evictions = 0u64;
            let mut rejoins = 0u64;
            let mut worst_p99 = 0u64;
            for i in 0..membership_schedules {
                if t0.elapsed().as_secs() > budget_s {
                    eprintln!(
                        "VIOLATION: wall-clock budget {budget_s}s exceeded at \
                         {} membership service plan {i} — sweep too slow",
                        alg.label()
                    );
                    violations += 1;
                    break 'service;
                }
                let knobs = MembershipKnobs::schedule(i);
                let arrivals = ArrivalSpec::poisson(13 + i, requests, 12_000.0);
                let mut cfg = RunConfig::new(alg, 2);
                cfg.faults = knobs.plan();
                cfg.steal_timeout_ns = Some(timeout_ns);
                let r = run_service_sim(m.clone(), 8, &svc_gen, &cfg, &arrivals);
                runs += 1;
                let svc = r.service.as_ref().expect("service report");
                if svc.requests != requests || svc.per_request.len() != requests {
                    eprintln!(
                        "VIOLATION: {} membership service plan {i}: {} of \
                         {requests} requests completed — plan {:?}\n  repro env: {}",
                        alg.label(),
                        svc.per_request.len(),
                        cfg.faults,
                        knobs.env(timeout_ns)
                    );
                    violations += 1;
                }
                evictions += r.evictions;
                rejoins += r.rejoins;
                worst_p99 = worst_p99.max(svc.hist.p99());
            }
            println!(
                "{:<16} evictions {:>4} rejoins {:>4} worst p99 {:>7}us",
                alg.label(),
                evictions,
                rejoins,
                worst_p99 / 1_000
            );
        }
    }

    println!(
        "\n{runs} faulted runs in {:.1}s, {violations} violations",
        t0.elapsed().as_secs_f64()
    );
    if violations > 0 {
        std::process::exit(1);
    }
}
