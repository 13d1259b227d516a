//! Run harness: dispatch an [`Algorithm`] onto a backend and assemble the
//! [`RunReport`].

use std::collections::HashMap;
use std::time::Instant;

use pgas::comm::Item;
use pgas::native::NativeCluster;
use pgas::sim::SimCluster;
use pgas::{Collectives, Comm, MachineModel};

use crate::config::{ConfigError, RunConfig};
use crate::report::{RunReport, ThreadResult};
use crate::taskgen::TaskGen;
use crate::vars;

/// Run the configured algorithm's worker body on this thread. Exposed so
/// custom harnesses can embed workers in their own clusters.
///
/// The algorithm (plus any [`RunConfig::victim_policy`] /
/// [`RunConfig::steal_policy`] overrides) resolves to a policy bundle and
/// runs on the generic driver — see [`crate::sched`].
pub fn worker<G, C>(comm: &mut C, gen: &G, cfg: &RunConfig) -> ThreadResult
where
    G: TaskGen,
    C: Comm<G::Task>,
{
    let res = crate::sched::run_bundle(comm, gen, cfg);
    finish_worker(comm, cfg, res)
}

/// The end of every worker, batch or service: the in-band final count, as
/// the original UTS does with `upc_all_reduce` after termination — every
/// thread learns the global total. Crash runs skip it: a dead rank can never
/// join the collective, and the host-side aggregation does the conservation
/// accounting instead.
pub(crate) fn finish_worker<T: Item, C: Comm<T>>(
    comm: &mut C,
    cfg: &RunConfig,
    mut res: ThreadResult,
) -> ThreadResult {
    res.reduced_total = if cfg.faults.crash_active() {
        0
    } else {
        Collectives::new(vars::COLL_BASE).all_reduce_sum(comm, res.nodes as i64) as u64
    };
    res
}

/// Crash-mode fail-fast (see [`crate::taskgen::TaskGen::fingerprint`]):
/// a generator still on the degenerate default fingerprint would silently
/// understate duplicate counts, so refuse the run before it starts. The
/// root-vs-first-child probe is exactly the degenerate-default detector —
/// injective fingerprints always differ there, the all-zero default never
/// does.
pub(crate) fn check_crash_fingerprints<G: TaskGen>(
    gen: &G,
    cfg: &RunConfig,
) -> Result<(), ConfigError> {
    if !cfg.faults.crash_active() {
        return Ok(());
    }
    let root = gen.root();
    let mut kids = Vec::new();
    gen.expand(&root, &mut kids);
    if let Some(first) = kids.first() {
        if gen.fingerprint(&root) == gen.fingerprint(first) {
            return Err(ConfigError::DegenerateFingerprints);
        }
    }
    Ok(())
}

/// Run on the virtual-time simulator: `nthreads` simulated UPC threads over
/// `machine`'s cost model. Deterministic for fixed config; the makespan is
/// virtual time.
///
/// # Panics
///
/// On any [`ConfigError`] — use [`try_run_sim`] to handle it as a value.
pub fn run_sim<G>(machine: MachineModel, nthreads: usize, gen: &G, cfg: &RunConfig) -> RunReport
where
    G: TaskGen,
{
    try_run_sim(machine, nthreads, gen, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_sim`] with typed config errors instead of panics.
///
/// # Errors
///
/// [`ConfigError::DegenerateFingerprints`] if the config arms crash-class
/// faults while the generator still uses the degenerate default
/// [`TaskGen::fingerprint`] (duplicate accounting would silently break).
pub fn try_run_sim<G>(
    machine: MachineModel,
    nthreads: usize,
    gen: &G,
    cfg: &RunConfig,
) -> Result<RunReport, ConfigError>
where
    G: TaskGen,
{
    check_crash_fingerprints(gen, cfg)?;
    let machine_name = machine.name;
    let cluster: SimCluster<G::Task> =
        SimCluster::new(machine, nthreads, vars::space_config_for(gen, nthreads))
            .with_lookahead(cfg.sim_lookahead)
            .with_faults(cfg.faults);
    let report = cluster.run(|comm| worker(comm, gen, cfg));
    Ok(assemble(cfg, machine_name, nthreads, gen, report.makespan_ns, report.results))
}

/// Run on real OS threads (the shared-memory setting). The makespan is
/// wall-clock time.
///
/// # Errors
///
/// [`ConfigError::CrashFaultsAreSimOnly`] if the config arms crash-class
/// faults (kills, partitions, gray stalls, restarts) — those only exist in
/// virtual time; run such plans through [`run_sim`].
pub fn run_native<G>(
    machine: MachineModel,
    nthreads: usize,
    gen: &G,
    cfg: &RunConfig,
) -> Result<RunReport, ConfigError>
where
    G: TaskGen,
{
    let machine_name = machine.name;
    if cfg.faults.crash_active() {
        return Err(ConfigError::CrashFaultsAreSimOnly);
    }
    if let Ok(avail) = std::thread::available_parallelism() {
        if nthreads > avail.get() {
            eprintln!(
                "[native] warning: {nthreads} OS threads requested but the host \
                 has {avail} hardware threads; they will timeshare \
                 (wall-clock makespans will not scale past {avail})"
            );
        }
    }
    let cluster: NativeCluster<G::Task> =
        NativeCluster::new(machine, nthreads, vars::space_config_for(gen, nthreads));
    let report = cluster.run(|comm| worker(comm, gen, cfg));
    Ok(assemble(cfg, machine_name, nthreads, gen, report.makespan_ns, report.results))
}

/// Sequential reference traversal of the same task tree; returns
/// (nodes, wall-clock ns). Used for baselines and conservation checks.
pub fn seq_run<G: TaskGen>(gen: &G) -> (u64, u64) {
    let t0 = Instant::now();
    let nodes = seq_count(gen, gen.root(), None);
    (nodes, t0.elapsed().as_nanos() as u64)
}

/// The sequential oracle: expand the tree below `root` depth-first; returns
/// the node count and, when `fps` is given, pushes every node's fingerprint.
pub(crate) fn seq_count<G: TaskGen>(
    gen: &G,
    root: G::Task,
    mut fps: Option<&mut Vec<u64>>,
) -> u64 {
    let mut stack = vec![root];
    let mut scratch = Vec::new();
    let mut nodes = 0u64;
    while let Some(t) = stack.pop() {
        nodes += 1;
        if let Some(f) = fps.as_deref_mut() {
            f.push(gen.fingerprint(&t));
        }
        scratch.clear();
        gen.expand(&t, &mut scratch);
        stack.extend_from_slice(&scratch);
    }
    nodes
}

/// Batch assembly: fold the fingerprints crash runs record (none otherwise)
/// into the conservation-with-multiplicity counters, then the common report.
fn assemble<G: TaskGen>(
    cfg: &RunConfig,
    machine: &'static str,
    threads: usize,
    gen: &G,
    makespan_ns: u64,
    per_thread: Vec<ThreadResult>,
) -> RunReport {
    let mut mult: HashMap<u64, u64> = HashMap::new();
    for &fp in per_thread.iter().flat_map(|t| &t.explored) {
        *mult.entry(fp).or_insert(0) += 1;
    }
    let dup = mult.values().map(|&m| m - 1).sum();
    let max = mult.values().copied().max().unwrap_or(1);
    let depth = gen.critical_path_len().unwrap_or(0);
    build_report(cfg, machine, threads, depth, makespan_ns, per_thread, (dup, max))
}

/// The fields every [`RunReport`] shares, batch or service, and the check
/// every run makes: the in-band reduction must agree with the host-side sum
/// on every thread. (Crash runs skip the collective: a dead rank cannot join
/// it.) `multiplicity` is `(duplicate_nodes, max_multiplicity)`.
pub(crate) fn build_report(
    cfg: &RunConfig,
    machine: &'static str,
    threads: usize,
    critical_path_len: u64,
    makespan_ns: u64,
    per_thread: Vec<ThreadResult>,
    (duplicate_nodes, max_multiplicity): (u64, u64),
) -> RunReport {
    let total_nodes: u64 = per_thread.iter().map(|t| t.nodes).sum();
    if !cfg.faults.crash_active() {
        for (t, r) in per_thread.iter().enumerate() {
            assert_eq!(
                r.reduced_total, total_nodes,
                "thread {t}: in-band reduced total disagrees with host-side sum"
            );
        }
    }
    RunReport {
        label: cfg.algorithm.label(),
        machine,
        threads,
        chunk_size: cfg.chunk_size,
        total_nodes,
        makespan_ns,
        recovered_nodes: per_thread.iter().map(|t| t.recovered_nodes).sum(),
        duplicate_nodes,
        max_multiplicity,
        deaths: per_thread.iter().filter(|t| t.died).count(),
        evictions: per_thread.iter().map(|t| t.evictions).sum(),
        rejoins: per_thread.iter().map(|t| t.rejoins).sum(),
        steal_attempts: per_thread
            .iter()
            .map(|t| t.steals_ok + t.steals_failed)
            .sum(),
        successful_steals: per_thread.iter().map(|t| t.steals_ok).sum(),
        handoffs: per_thread.iter().map(|t| t.handoffs).sum(),
        critical_path_len,
        service: None,
        per_thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::taskgen::{SyntheticGen, UtsGen};
    use uts_tree::presets;

    /// Every algorithm must count the tiny tree exactly, on a small
    /// simulated cluster.
    #[test]
    fn all_algorithms_conserve_tiny_tree_sim() {
        let p = presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        for alg in Algorithm::all() {
            for threads in [1, 2, 5] {
                let cfg = RunConfig::new(alg, 2);
                let report = run_sim(MachineModel::smp(), threads, &gen, &cfg);
                assert_eq!(
                    report.total_nodes, p.expected.nodes,
                    "{} with {} threads lost/duplicated nodes",
                    alg.label(),
                    threads
                );
            }
        }
    }

    /// Same on the native backend with a couple of real threads.
    #[test]
    fn all_algorithms_conserve_tiny_tree_native() {
        let p = presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        for alg in Algorithm::all() {
            let cfg = RunConfig::new(alg, 2);
            let report = run_native(MachineModel::smp(), 3, &gen, &cfg)
                .expect("fault-free config runs natively");
            assert_eq!(
                report.total_nodes, p.expected.nodes,
                "{} lost/duplicated nodes natively",
                alg.label()
            );
        }
    }

    /// Crash plans are sim-only: the native backend refuses them with a
    /// typed error that points at the simulator, instead of panicking.
    #[test]
    fn run_native_rejects_crash_plans_with_typed_error() {
        let p = presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        let mut cfg = RunConfig::new(Algorithm::DistMem, 2);
        cfg.faults = pgas::FaultPlan::crashy(7);
        let err = run_native(MachineModel::smp(), 2, &gen, &cfg)
            .expect_err("crash plan must be rejected");
        assert_eq!(err, crate::config::ConfigError::CrashFaultsAreSimOnly);
        assert!(err.to_string().contains("run_sim"), "error points at the sim backend");
    }

    /// A DAG workload runs through every policy bundle on the simulator and
    /// executes each task exactly once — the ready-queue reduction keeps the
    /// stack protocols untouched.
    #[test]
    fn dag_workloads_conserve_across_all_algorithms_sim() {
        use crate::workload::{DagWorkload, ForkJoin, RandomLayered, Wavefront};
        let fj = DagWorkload::new(ForkJoin {
            levels: 5,
            width: 8,
            seed: 3,
        });
        let wf = DagWorkload::new(Wavefront {
            rows: 9,
            cols: 7,
            seed: 4,
        });
        let rl = DagWorkload::new(RandomLayered::new(6, 8, 200, 5));
        for alg in Algorithm::all() {
            for threads in [1, 3, 8] {
                let cfg = RunConfig::new(alg, 2);
                for (name, report, expect) in [
                    ("fork-join", run_sim(MachineModel::smp(), threads, &fj, &cfg), fj.n_tasks()),
                    ("wavefront", run_sim(MachineModel::smp(), threads, &wf, &cfg), wf.n_tasks()),
                    ("layered", run_sim(MachineModel::smp(), threads, &rl, &cfg), rl.n_tasks()),
                ] {
                    assert_eq!(
                        report.total_nodes,
                        expect,
                        "{name} on {} with {threads} threads lost or duplicated tasks",
                        alg.label()
                    );
                    assert!(report.critical_path_len > 0, "{name}: critical path missing");
                }
            }
        }
    }

    /// Same reduction on the native OS-thread backend (real atomics under
    /// the count-up cells).
    #[test]
    fn dag_workload_conserves_native() {
        use crate::workload::{DagWorkload, Wavefront};
        let gen = DagWorkload::new(Wavefront {
            rows: 12,
            cols: 12,
            seed: 6,
        });
        let cfg = RunConfig::new(Algorithm::DistMem, 2);
        let report = run_native(MachineModel::smp(), 3, &gen, &cfg)
            .expect("fault-free DAG runs natively");
        assert_eq!(report.total_nodes, gen.n_tasks());
    }

    /// Crash plans refuse generators still on the degenerate default
    /// fingerprint — conservation-with-multiplicity would silently break.
    #[test]
    fn crash_plan_rejects_degenerate_fingerprints_with_typed_error() {
        /// A generator that "forgot" to override `fingerprint`.
        struct NoFp;
        impl TaskGen for NoFp {
            type Task = u32;
            fn root(&self) -> u32 {
                0
            }
            fn expand(&self, t: &u32, out: &mut Vec<u32>) -> u32 {
                if *t < 2 {
                    out.push(t + 1);
                    1
                } else {
                    0
                }
            }
        }
        let mut cfg = RunConfig::new(Algorithm::DistMem, 2);
        cfg.faults = pgas::FaultPlan::crashy(3);
        let err = try_run_sim(MachineModel::smp(), 2, &NoFp, &cfg)
            .expect_err("degenerate fingerprints must be rejected");
        assert_eq!(err, ConfigError::DegenerateFingerprints);
        assert!(err.to_string().contains("fingerprint"));
        // The same generator is fine without crash faults...
        cfg.faults = pgas::FaultPlan::none();
        let report = try_run_sim(MachineModel::smp(), 2, &NoFp, &cfg).expect("fault-free runs");
        assert_eq!(report.total_nodes, 3);
        // ...and a crash plan is fine once fingerprints are injective.
        let p = presets::t_tiny();
        let mut cfg = RunConfig::new(Algorithm::DistMem, 2);
        cfg.faults = pgas::FaultPlan::crashy(3);
        cfg.steal_timeout_ns = Some(30_000);
        try_run_sim(MachineModel::smp(), 2, &UtsGen::new(p.spec), &cfg)
            .expect("UtsGen fingerprints are injective");
    }

    /// E18 regression: a DAG whose ready frontier is far below the release
    /// threshold must still move work. k=8 puts the threshold at 16, but the
    /// 64×4 wavefront's frontier never exceeds 4, so no stack ever reaches
    /// it; placement, not a smaller chunk, is what keeps the run parallel:
    /// a placing rank releases nothing, and the ready tasks move by hand-off
    /// to their owners on every bundle.
    #[test]
    fn narrow_dag_keeps_parallelism_on_every_bundle() {
        use crate::workload::{DagWorkload, Wavefront};
        let gen = DagWorkload::new(Wavefront {
            rows: 64,
            cols: 4,
            seed: 9,
        });
        for alg in Algorithm::all() {
            let cfg = RunConfig::new(alg, 8);
            let report = run_sim(MachineModel::smp(), 4, &gen, &cfg);
            let what = alg.label();
            assert_eq!(report.total_nodes, gen.n_tasks(), "{what}");
            assert!(
                report.handoffs > 0,
                "{what}: no ready task went to its owner: {report:?}"
            );
            let busy = report.per_thread.iter().filter(|t| t.nodes > 0).count();
            assert!(
                busy > 1,
                "{what}: all work stayed on one thread: {report:?}"
            );
            let releases: u64 = report.per_thread.iter().map(|t| t.releases).sum();
            assert_eq!(releases, 0, "{what}: placed work was released");
        }
    }

    #[test]
    fn seq_run_matches_preset() {
        let p = presets::t_tiny();
        let (nodes, _) = seq_run(&UtsGen::new(p.spec));
        assert_eq!(nodes, p.expected.nodes);
    }

    #[test]
    fn synthetic_balanced_tree_distributes_work() {
        let gen = SyntheticGen {
            branch: 3,
            depth: 7,
        };
        let cfg = RunConfig::new(Algorithm::DistMem, 4);
        let report = run_sim(MachineModel::smp(), 4, &gen, &cfg);
        assert_eq!(report.total_nodes, gen.size());
        // On a 3280-node balanced tree, at least one steal must land.
        assert!(report.total_steals() > 0, "no load balancing happened");
        // Every thread should have explored something.
        for (t, r) in report.per_thread.iter().enumerate() {
            assert!(r.nodes > 0, "thread {t} did no work: {report:?}");
        }
    }

    #[test]
    fn sim_runs_are_deterministic() {
        let p = presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        let cfg = RunConfig::new(Algorithm::DistMem, 2);
        let a = run_sim(MachineModel::kittyhawk(), 4, &gen, &cfg);
        let b = run_sim(MachineModel::kittyhawk(), 4, &gen, &cfg);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.total_steals(), b.total_steals());
        let na: Vec<u64> = a.per_thread.iter().map(|t| t.nodes).collect();
        let nb: Vec<u64> = b.per_thread.iter().map(|t| t.nodes).collect();
        assert_eq!(na, nb);
    }
}
