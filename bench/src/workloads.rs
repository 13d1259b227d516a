//! The seven workloads: what each builds at set-up, what one operation is,
//! and how its output is checked.
//!
//! Every workload calls public library functions only and times exactly
//! those calls; every check (conservation, the steal bound, completeness)
//! sits outside the timed interval.
//!
//! How `--seed` reaches the inputs: UTS trees are near-critical branching
//! processes whose size varies by a factor of two from one root seed to the
//! next, so the *trees* stay the frozen presets (which also makes node
//! conservation an exact check). The seed drives everything else that is
//! random in a run: the scheduler's victim-probe order
//! (`RunConfig::seed`), the layered DAG's edges, and the Poisson arrival
//! schedule. `--seed 0` reproduces the library's own defaults.

use std::time::Instant;

use uts_dlb::pgas::sim::SimCluster;
use uts_dlb::pgas::{ArrivalSpec, ConductorStats, MachineModel};
use uts_dlb::tree::presets::{self, Preset};
use uts_dlb::tree::seq::dfs_count;
use uts_dlb::tree::TreeSpec;
use uts_dlb::worksteal::theory::{check_run, DEFAULT_STEAL_FACTOR};
use uts_dlb::worksteal::workload::validate;
use uts_dlb::worksteal::{
    run_native, run_service_sim, run_sim, tree_depth, vars, worker, Algorithm, DagGen, DagWorkload,
    RandomLayered, RunConfig, RunReport, ServiceWorkload, TaskGen, UtsGen,
};

use crate::host;
use crate::spans::Tracer;

/// Workload names, in ledger order. `BENCHMARK.json` lists the same seven.
pub const NAMES: [&str; 7] = [
    "seq_dfs",
    "native_steal",
    "sim_fig4_distmem",
    "sim_fig4_mpiws",
    "sim_wide",
    "svc_ladder",
    "dag_layered",
];

/// Offered rates of the service ladder, requests per virtual second.
pub const LADDER_RATES: [u64; 5] = [1000, 2000, 3000, 4000, 8000];

/// Latency limit for `svc_max_rate_rps`, virtual ns.
pub const SVC_LIMIT_NS: u64 = 20_000_000;

/// Sub-seeds a sim workload averages its virtual result over (see
/// [`Workload::sub_seeds`]).
const SIM_SUB_SEEDS: usize = 5;

/// The library's default probe seed (`RunConfig::new`), which `--seed 0`
/// sub-seed 0 must reproduce.
const PROBE_SEED: u64 = 0x5EED_CAFE;
/// E17's arrival seed and E18's DAG seed, reproduced the same way.
const ARRIVAL_SEED: u64 = 17;
const DAG_SEED: u64 = 3;

/// Seed perturbation: 0 for `(seed 0, sub-seed 0)`, otherwise well spread.
fn perturb(seed: u64, sub: usize) -> u64 {
    (seed.wrapping_mul(64).wrapping_add(sub as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The library's default config for `alg` with chunk size `k`, with the
/// probe order of `(seed, sub)` and the program's own tracing as asked.
fn run_config(alg: Algorithm, k: usize, seed: u64, sub: usize, traced: bool) -> RunConfig {
    let mut cfg = RunConfig::new(alg, k);
    cfg.seed = PROBE_SEED ^ perturb(seed, sub);
    cfg.trace = traced;
    cfg
}

/// What one operation produced.
pub struct Outcome {
    /// Host seconds spent inside the library calls of this operation.
    pub host_s: f64,
    /// Tree nodes / DAG tasks executed.
    pub units: u64,
    /// Time on the machine under test: virtual ns on the sim workloads,
    /// wall-clock ns on `seq_dfs` and `native_steal`.
    pub makespan_ns: u64,
    /// Requests attempted and lost (service only; a batch run is one
    /// operation and counts itself).
    pub requests: u64,
    /// Requests that never completed.
    pub lost: u64,
    /// Every virtual result of the operation; must repeat bit-for-bit for
    /// the same sub-seed. Empty on the host-clock workloads.
    pub digest: Vec<u64>,
    /// The library's own report(s), for the per-layer ledger.
    pub detail: Detail,
}

/// The library's report of one operation.
pub enum Detail {
    /// `dfs_count` has no report beyond its counts.
    Seq,
    /// One batch run.
    Batch(Box<RunReport>),
    /// One ladder pass: `(rate, host seconds, report)` per rung.
    Ladder(Vec<(u64, f64, RunReport)>),
}

/// One workload, built and ready to run.
pub trait Workload {
    /// How many distinct sub-seeds the virtual result is the mean of. The
    /// first `sub_seeds()` timed operations use sub-seeds `0..`, later ones
    /// cycle — which is what lets repeats be checked for bit-equality. 1 on
    /// the host-clock workloads.
    fn sub_seeds(&self) -> usize;
    /// Whether `makespan_ns` is virtual (deterministic) time.
    fn virtual_clock(&self) -> bool;
    /// One untimed warm-up operation (part of set-up).
    fn warm_up(&self, tr: &mut Tracer) -> Result<Outcome, String> {
        self.run(0, false, tr)
    }
    /// One operation. `traced` switches the program's own
    /// `RunConfig::trace` on (sim and native only).
    fn run(&self, sub: usize, traced: bool, tr: &mut Tracer) -> Result<Outcome, String>;
    /// Critical-path length `D` of the steal bound, in tasks.
    fn depth(&self) -> u64;
    /// OS threads that share the operation's work (1 on the simulator: its
    /// fibers all run on the calling thread).
    fn host_threads(&self) -> usize {
        1
    }
    /// Simulated threads (0 off the simulator).
    fn sim_threads(&self) -> usize {
        0
    }
    /// SHA-1 evaluations one operation performs (one per tree node created).
    fn hashes(&self, units: u64) -> u64 {
        units
    }
    /// Sim batch workloads: one extra run through `SimCluster` directly,
    /// for the conductor's own counters.
    fn conductor_stats(&self, _tr: &mut Tracer) -> Option<ConductorStats> {
        None
    }
    /// Ledger entries only this workload knows; `wall_s` is the median host
    /// time of one operation.
    fn own_ledger(&self, _wall_s: f64, _tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Build `name` for `seed`; the timed part of set-up that is not the
/// warm-up. `smoke` shrinks every size to seconds-scale.
pub fn build(
    name: &str,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    let kitty = MachineModel::kittyhawk;
    Ok(match name {
        "seq_dfs" => Box::new(SeqDfs {
            preset: if smoke {
                presets::t_tiny()
            } else {
                presets::t_l()
            },
        }),
        "native_steal" => Box::new(NativeSteal {
            preset: if smoke {
                presets::t_s()
            } else {
                presets::t_xl()
            },
            threads: if smoke {
                host::nproc().min(2)
            } else {
                host::nproc()
            },
            seed,
        }),
        "sim_fig4_distmem" | "sim_fig4_mpiws" => {
            let alg = if name == "sim_fig4_distmem" {
                Algorithm::DistMem
            } else {
                Algorithm::MpiWs
            };
            let (preset, p) = if smoke {
                (presets::t_tiny(), 16)
            } else {
                (presets::t_m(), 256)
            };
            Box::new(SimBatch::uts(kitty(), p, preset, alg, 8, seed))
        }
        "sim_wide" => {
            let (preset, p) = if smoke {
                (presets::t_tiny(), 16)
            } else {
                (presets::t_s(), 1024)
            };
            Box::new(SimBatch::uts(
                MachineModel::topsail(),
                p,
                preset,
                Algorithm::DistMem,
                8,
                seed,
            ))
        }
        "dag_layered" => {
            let (layers, width, edge_pm, p) = if smoke {
                (8, 12, 150, 8)
            } else {
                (100, 256, 80, 64)
            };
            let dag_seed = DAG_SEED ^ perturb(seed, 0);
            let (dag, _) = tr.span("dag.generate", |_| {
                RandomLayered::new(layers, width, edge_pm, dag_seed)
            });
            let (valid, validate_s) = tr.span("dag.validate", |_| validate(&dag));
            valid?;
            let edges: u64 = (0..dag.n_tasks())
                .map(|t| u64::from(dag.in_degree(t)))
                .sum();
            let gen = DagWorkload::new(dag);
            let expected = gen.n_tasks();
            Box::new(SimBatch {
                machine: kitty(),
                p,
                alg: Algorithm::DistMem,
                k: 1,
                seed,
                expected,
                depth: gen
                    .critical_path_len()
                    .ok_or("DAG without a critical path")?,
                hashes_per_unit: 0,
                statics: vec![
                    ("dag.tasks", expected as f64),
                    ("dag.edges", edges as f64),
                    ("dag.validate_ms", validate_s * 1e3),
                ],
                gen,
            })
        }
        "svc_ladder" => {
            let (p, n) = if smoke { (8, 50) } else { (64, 1000) };
            let gen = UtsGen::new(TreeSpec::binomial(101, 8, 2, 0.45));
            // the oracle: every request's tree, counted sequentially; the
            // steal bound adds up over requests, so the depths do too
            let ((expected, depth), _) = tr.span("svc.oracle_seq_counts", |_| {
                (0..n as u32).fold((0, 0), |(nodes, depth), epoch| {
                    let (n, d) = count_from(&gen, gen.request_root(epoch));
                    (nodes + n, depth + d)
                })
            });
            Box::new(SvcLadder {
                p,
                n,
                gen,
                seed,
                expected,
                depth,
                passes: if smoke { 1 } else { 3 },
            })
        }
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Sequential size and depth (in tasks) of the tree under `root`.
fn count_from<G: TaskGen>(gen: &G, root: G::Task) -> (u64, u64) {
    let mut stack = vec![(root, 1u64)];
    let mut kids = Vec::new();
    let (mut nodes, mut deepest) = (0, 0);
    while let Some((task, d)) = stack.pop() {
        nodes += 1;
        deepest = deepest.max(d);
        kids.clear();
        gen.expand(&task, &mut kids);
        stack.extend(kids.iter().map(|&c| (c, d + 1)));
    }
    (nodes, deepest)
}

/// `dfs_count` on a frozen preset, one thread.
struct SeqDfs {
    preset: Preset,
}

impl Workload for SeqDfs {
    fn sub_seeds(&self) -> usize {
        1
    }
    fn virtual_clock(&self) -> bool {
        false
    }
    fn depth(&self) -> u64 {
        u64::from(self.preset.expected.max_depth) + 1
    }
    fn run(&self, _sub: usize, _traced: bool, tr: &mut Tracer) -> Result<Outcome, String> {
        let (result, host_s) = tr.span("uts.dfs_count", |_| {
            dfs_count(std::hint::black_box(&self.preset.spec))
        });
        if result != self.preset.expected {
            return Err(format!(
                "{}: traversal {result:?} != frozen {:?}",
                self.preset.name, self.preset.expected
            ));
        }
        Ok(Outcome {
            host_s,
            units: result.nodes,
            makespan_ns: (host_s * 1e9) as u64,
            requests: 0,
            lost: 0,
            digest: Vec::new(),
            detail: Detail::Seq,
        })
    }
    fn own_ledger(&self, _wall_s: f64, _tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        vec![("uts.nodes", self.preset.expected.nodes as f64)]
    }
}

/// `run_native` with one OS thread per hardware thread.
struct NativeSteal {
    preset: Preset,
    threads: usize,
    seed: u64,
}

impl Workload for NativeSteal {
    fn sub_seeds(&self) -> usize {
        1
    }
    fn virtual_clock(&self) -> bool {
        false
    }
    fn depth(&self) -> u64 {
        u64::from(self.preset.expected.max_depth) + 1
    }
    fn host_threads(&self) -> usize {
        self.threads
    }
    fn run(&self, sub: usize, traced: bool, tr: &mut Tracer) -> Result<Outcome, String> {
        let cfg = run_config(Algorithm::DistMem, 8, self.seed, sub, traced);
        let gen = UtsGen::new(self.preset.spec);
        let (report, host_s) = tr.span("native.run_native", |_| {
            run_native(MachineModel::smp(), self.threads, &gen, &cfg)
        });
        let report = report.map_err(|e| e.to_string())?;
        tr.span("theory.check_run", |_| {
            check_run(
                &report,
                self.preset.expected.nodes,
                self.depth(),
                DEFAULT_STEAL_FACTOR,
                false,
            )
        })
        .0
        .map_err(|e| e.to_string())?;
        Ok(Outcome {
            host_s,
            units: report.total_nodes,
            makespan_ns: report.makespan_ns,
            requests: 0,
            lost: 0,
            digest: Vec::new(),
            detail: Detail::Batch(Box::new(report)),
        })
    }
    fn own_ledger(&self, wall_s: f64, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        // the plain single-threaded traversal of the same tree, same process
        let (seq, seq_s) = tr.span("uts.dfs_count", |_| dfs_count(&self.preset.spec));
        assert_eq!(seq, self.preset.expected, "sequential baseline drifted");
        vec![
            ("uts.nodes", seq.nodes as f64),
            ("native.speedup_vs_seq", seq_s / wall_s),
        ]
    }
}

/// `run_sim` of one batch workload (a UTS tree or a DAG).
struct SimBatch<G: TaskGen> {
    machine: MachineModel,
    p: usize,
    gen: G,
    alg: Algorithm,
    k: usize,
    seed: u64,
    expected: u64,
    depth: u64,
    hashes_per_unit: u64,
    /// Ledger entries fixed at build time.
    statics: Vec<(&'static str, f64)>,
}

impl SimBatch<UtsGen> {
    fn uts(
        machine: MachineModel,
        p: usize,
        preset: Preset,
        alg: Algorithm,
        k: usize,
        seed: u64,
    ) -> Self {
        SimBatch {
            machine,
            p,
            gen: UtsGen::new(preset.spec),
            alg,
            k,
            seed,
            expected: preset.expected.nodes,
            depth: u64::from(preset.expected.max_depth) + 1,
            hashes_per_unit: 1,
            statics: vec![("uts.nodes", preset.expected.nodes as f64)],
        }
    }
}

impl<G: TaskGen> SimBatch<G> {
    fn cfg(&self, sub: usize, traced: bool) -> RunConfig {
        run_config(self.alg, self.k, self.seed, sub, traced)
    }
}

/// The virtual results of a batch report that must repeat exactly.
fn batch_digest(r: &RunReport) -> Vec<u64> {
    let mut d = vec![
        r.makespan_ns,
        r.total_nodes,
        r.steal_attempts,
        r.successful_steals,
    ];
    for t in &r.per_thread {
        d.extend([
            t.nodes,
            t.steals_ok,
            t.steals_failed,
            t.probes,
            t.releases,
            t.reacquires,
        ]);
        d.extend(t.state_ns);
        d.extend([t.comm.comm_ns, t.comm.work_ns, t.comm.polls]);
    }
    d
}

impl<G: TaskGen> Workload for SimBatch<G> {
    fn sub_seeds(&self) -> usize {
        SIM_SUB_SEEDS
    }
    fn virtual_clock(&self) -> bool {
        true
    }
    fn depth(&self) -> u64 {
        self.depth
    }
    fn sim_threads(&self) -> usize {
        self.p
    }
    fn run(&self, sub: usize, traced: bool, tr: &mut Tracer) -> Result<Outcome, String> {
        let cfg = self.cfg(sub, traced);
        let (report, host_s) = tr.span("sim.run_sim", |_| {
            run_sim(self.machine.clone(), self.p, &self.gen, &cfg)
        });
        tr.span("theory.check_run", |_| {
            check_run(
                &report,
                self.expected,
                self.depth,
                DEFAULT_STEAL_FACTOR,
                false,
            )
        })
        .0
        .map_err(|e| e.to_string())?;
        Ok(Outcome {
            host_s,
            units: report.total_nodes,
            makespan_ns: report.makespan_ns,
            requests: 0,
            lost: 0,
            digest: batch_digest(&report),
            detail: Detail::Batch(Box::new(report)),
        })
    }
    fn hashes(&self, units: u64) -> u64 {
        units * self.hashes_per_unit
    }
    fn conductor_stats(&self, tr: &mut Tracer) -> Option<ConductorStats> {
        let cfg = self.cfg(0, false);
        let (cluster, _) = tr.span("sim.cluster_new", |_| {
            SimCluster::<G::Task>::new(
                self.machine.clone(),
                self.p,
                vars::space_config_for(&self.gen, self.p),
            )
        });
        let (report, _) = tr.span("sim.cluster_run", |_| {
            cluster.run(|c| worker(c, &self.gen, &cfg))
        });
        Some(report.total_conductor())
    }
    fn own_ledger(&self, wall_s: f64, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        let mut own = self.statics.clone();
        if self.hashes_per_unit > 0 {
            // the steal bound's D comes from the frozen preset; recount it
            let (depth, _) = tr.span("theory.tree_depth", |_| tree_depth(&self.gen));
            assert_eq!(depth, self.depth, "preset depth drifted");
        } else {
            own.push(("dag.host_us_per_task", wall_s * 1e6 / self.expected as f64));
        }
        own
    }
}

/// Open-loop Poisson arrivals at each ladder rate; one operation is one
/// pass over the ladder.
struct SvcLadder {
    p: usize,
    n: usize,
    gen: UtsGen,
    seed: u64,
    expected: u64,
    depth: u64,
    passes: usize,
}

impl SvcLadder {
    fn rung(
        &self,
        rate: u64,
        sub: usize,
        traced: bool,
        tr: &mut Tracer,
    ) -> Result<(f64, RunReport), String> {
        let cfg = run_config(Algorithm::DistMem, 4, self.seed, sub, traced);
        let arrivals =
            ArrivalSpec::poisson(ARRIVAL_SEED ^ perturb(self.seed, sub), self.n, rate as f64);
        let (report, host_s) = tr.span(&format!("service.run_service_sim.r{rate}"), |_| {
            run_service_sim(
                MachineModel::kittyhawk(),
                self.p,
                &self.gen,
                &cfg,
                &arrivals,
            )
        });
        tr.span("theory.check_run", |_| {
            check_run(
                &report,
                self.expected,
                self.depth,
                DEFAULT_STEAL_FACTOR,
                false,
            )
        })
        .0
        .map_err(|e| format!("r{rate}: {e}"))?;
        Ok((host_s, report))
    }

    fn outcome(&self, rungs: Vec<(u64, f64, RunReport)>) -> Outcome {
        let mut digest = Vec::new();
        let mut lost = 0;
        for (_, _, r) in &rungs {
            digest.push(r.makespan_ns);
            let done = r.service.as_ref().map_or(&[][..], |s| &s.per_request[..]);
            lost += (self.n - done.len().min(self.n)) as u64;
            digest.extend(
                done.iter()
                    .flat_map(|q| [q.injected_ns, q.completed_ns, q.nodes]),
            );
        }
        Outcome {
            host_s: rungs.iter().map(|r| r.1).sum(),
            units: rungs.iter().map(|r| r.2.total_nodes).sum(),
            makespan_ns: rungs.iter().map(|r| r.2.makespan_ns).sum(),
            requests: (self.n * rungs.len()) as u64,
            lost,
            digest,
            detail: Detail::Ladder(rungs),
        }
    }
}

impl Workload for SvcLadder {
    fn sub_seeds(&self) -> usize {
        self.passes
    }
    fn virtual_clock(&self) -> bool {
        true
    }
    fn depth(&self) -> u64 {
        self.depth
    }
    fn sim_threads(&self) -> usize {
        self.p
    }
    /// A whole pass is seconds of host time; the overload rung alone fills
    /// the same caches and fiber stacks in a fraction of it.
    fn warm_up(&self, tr: &mut Tracer) -> Result<Outcome, String> {
        let rate = LADDER_RATES[LADDER_RATES.len() - 1];
        let (host_s, report) = self.rung(rate, 0, false, tr)?;
        Ok(self.outcome(vec![(rate, host_s, report)]))
    }
    fn run(&self, sub: usize, traced: bool, tr: &mut Tracer) -> Result<Outcome, String> {
        let mut rungs = Vec::new();
        for rate in LADDER_RATES {
            let (host_s, report) = self.rung(rate, sub, traced, tr)?;
            rungs.push((rate, host_s, report));
        }
        Ok(self.outcome(rungs))
    }
    fn own_ledger(&self, _wall_s: f64, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        let spec = ArrivalSpec::poisson(ARRIVAL_SEED ^ perturb(self.seed, 0), 1000, 2000.0);
        let reps = 200;
        let t0 = Instant::now();
        tr.span("arrival.schedule", |_| {
            for _ in 0..reps {
                std::hint::black_box(std::hint::black_box(&spec).schedule());
            }
        });
        vec![(
            "arrival.schedule_us_per_1k",
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_library_defaults() {
        assert_eq!(perturb(0, 0), 0);
        assert_eq!(
            PROBE_SEED ^ perturb(0, 0),
            RunConfig::new(Algorithm::DistMem, 8).seed
        );
        let distinct: std::collections::HashSet<u64> = (0..20)
            .flat_map(|s| (0..5).map(move |j| perturb(s, j)))
            .collect();
        assert_eq!(
            distinct.len(),
            100,
            "every (seed, sub-seed) perturbs differently"
        );
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(build("nope", 0, true, &mut Tracer::new(false)).is_err());
    }
}
