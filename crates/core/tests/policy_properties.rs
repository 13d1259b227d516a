//! Property tests for the scheduler's policy axes: victim selectors produce
//! valid orders, steal policies honor their contract, and policy bundles
//! reproduce the named algorithms they are supposed to equal — on the
//! virtual-time simulator, *bit*-equal.

use std::sync::Mutex;

use pgas::{Comm, Distance, MachineModel};
use proptest::prelude::*;
use worksteal::probe::ProbeOrder;
use worksteal::trace::Event;
use worksteal::{
    run_native, run_sim, vars, Algorithm, RunConfig, RunReport, StealPolicyKind, TaskGen, UtsGen,
    VictimPolicy,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every victim cycle — flat or hierarchical, any seed, any shape — is a
    /// permutation of all threads excluding self.
    #[test]
    fn victim_cycles_are_permutations_excluding_self(
        me in 0usize..48,
        extra in 1usize..48,
        seed in any::<u64>(),
        hier in any::<bool>(),
    ) {
        let n = me + extra + 1;
        let machine = MachineModel::kittyhawk();
        let mut p = if hier {
            ProbeOrder::hierarchical(me, n, seed, &machine)
        } else {
            ProbeOrder::flat(me, n, seed)
        };
        for _ in 0..3 {
            let mut c = p.cycle().to_vec();
            prop_assert!(!c.contains(&(me as u32)), "selector probed itself");
            c.sort_unstable();
            let want: Vec<u32> = (0..n as u32).filter(|&t| t != me as u32).collect();
            prop_assert_eq!(c, want);
        }
    }

    /// Hierarchical cycles visit every same-node victim (per
    /// `MachineModel::distance`) before any remote one; flat cycles are
    /// oblivious to the machine. On an SMP model (one big node) the two
    /// selectors agree exactly.
    #[test]
    fn hierarchical_orders_same_node_first(
        me in 0usize..48,
        extra in 1usize..48,
        seed in any::<u64>(),
    ) {
        let n = me + extra + 1;
        let machine = MachineModel::kittyhawk();
        let mut p = ProbeOrder::hierarchical(me, n, seed, &machine);
        let cycle = p.cycle();
        let first_remote = cycle
            .iter()
            .position(|&v| machine.distance(me, v as usize) == Distance::Remote)
            .unwrap_or(cycle.len());
        for (i, &v) in cycle.iter().enumerate() {
            let remote = machine.distance(me, v as usize) == Distance::Remote;
            prop_assert_eq!(
                remote,
                i >= first_remote,
                "same-node victim {} probed after a remote one: {:?}",
                v,
                cycle
            );
        }

        // One big node: hierarchy degenerates to the flat order.
        let smp = MachineModel::smp();
        let mut h = ProbeOrder::hierarchical(me, n, seed, &smp);
        let mut f = ProbeOrder::flat(me, n, seed);
        prop_assert_eq!(h.cycle(), f.cycle());
    }

    /// The steal-amount contract every transport relies on: 0 at 0, and
    /// 1 ≤ amount ≤ avail for any positive surplus, for every policy kind.
    #[test]
    fn steal_policies_honor_contract(avail in 0usize..100_000) {
        for sp in [StealPolicyKind::One, StealPolicyKind::Half, StealPolicyKind::Adaptive] {
            let amt = sp.amount(avail);
            if avail == 0 {
                prop_assert_eq!(amt, 0, "{}", sp.label());
            } else {
                prop_assert!(amt >= 1 && amt <= avail, "{}: {} of {}", sp.label(), amt, avail);
            }
        }
    }
}

/// Two runs with the same effective bundle must be *bit*-identical on the
/// simulator: same makespan, same per-thread node counts, steal counters,
/// and state times.
fn assert_runs_identical(a: &RunConfig, b: &RunConfig, what: &str) {
    let p = uts_tree::presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    for threads in [2, 5, 8] {
        let ra = run_sim(MachineModel::kittyhawk(), threads, &gen, a);
        let rb = run_sim(MachineModel::kittyhawk(), threads, &gen, b);
        assert_eq!(ra.makespan_ns, rb.makespan_ns, "{what}: makespan, p={threads}");
        for (x, y) in ra.per_thread.iter().zip(&rb.per_thread) {
            assert_eq!(x.nodes, y.nodes, "{what}: nodes, p={threads}");
            assert_eq!(x.steals_ok, y.steals_ok, "{what}: steals, p={threads}");
            assert_eq!(x.probes, y.probes, "{what}: probes, p={threads}");
            assert_eq!(x.state_ns, y.state_ns, "{what}: state times, p={threads}");
        }
    }
}

/// Overriding one algorithm's bundle axes into another's quadruple
/// reproduces the latter bit-exactly: the named algorithms really are
/// nothing but policy bundles.
#[test]
fn bundle_overrides_reproduce_named_algorithms() {
    // upc-term + steal-half == upc-term-rapdif.
    let mut a = RunConfig::new(Algorithm::Term, 2);
    a.steal_policy = Some(StealPolicyKind::Half);
    let b = RunConfig::new(Algorithm::TermRapdif, 2);
    assert_runs_identical(&a, &b, "Term+half vs TermRapdif");

    // upc-distmem + hierarchical victims == upc-hier.
    let mut a = RunConfig::new(Algorithm::DistMem, 2);
    a.victim_policy = Some(VictimPolicy::Hier);
    let b = RunConfig::new(Algorithm::Hier, 2);
    assert_runs_identical(&a, &b, "DistMem+hier vs Hier");

    // upc-hier + flat victims == upc-distmem (the inverse override).
    let mut a = RunConfig::new(Algorithm::Hier, 2);
    a.victim_policy = Some(VictimPolicy::Flat);
    let b = RunConfig::new(Algorithm::DistMem, 2);
    assert_runs_identical(&a, &b, "Hier+flat vs DistMem");

    // Explicitly restating an algorithm's own axes is a no-op.
    let mut a = RunConfig::new(Algorithm::TermRapdif, 2);
    a.victim_policy = Some(VictimPolicy::Flat);
    a.steal_policy = Some(StealPolicyKind::Half);
    let b = RunConfig::new(Algorithm::TermRapdif, 2);
    assert_runs_identical(&a, &b, "TermRapdif restated");
}

/// Non-paper bundles (hierarchical victims on the locked transport, adaptive
/// steal amounts anywhere) run and conserve the tree.
#[test]
fn non_paper_bundles_conserve_nodes() {
    let p = uts_tree::presets::t_tiny();
    let gen = UtsGen::new(p.spec);
    for alg in [Algorithm::SharedMem, Algorithm::Term, Algorithm::DistMem, Algorithm::MpiWs] {
        for vp in [VictimPolicy::Flat, VictimPolicy::Hier] {
            for sp in [StealPolicyKind::One, StealPolicyKind::Half, StealPolicyKind::Adaptive] {
                let mut cfg = RunConfig::new(alg, 2);
                cfg.victim_policy = Some(vp);
                cfg.steal_policy = Some(sp);
                let report = run_sim(MachineModel::kittyhawk(), 6, &gen, &cfg);
                assert_eq!(
                    report.total_nodes,
                    p.expected.nodes,
                    "{}+{}+{} lost/duplicated nodes",
                    alg.label(),
                    vp.label(),
                    sp.label()
                );
            }
        }
    }
}

// ------------------------------------------------------- the release rule
// `sched::drive`: a rank whose most recent expansion waited on the network
// releases *all* surplus wherever its stack just grew — after that expansion
// and on the next entry to `State::Working` — and tells the detector once
// per burst; a rank whose expansions are pure releases one chunk per node.
//
// Recorded mutants (ROADMAP item 11; break `crates/core/src/sched/mod.rs` by
// hand, run this file, restore):
//
// 1. *entry release dropped* — delete the `if communicated { release_surplus(.., true) }`
//    under `cx.enter(comm, State::Working)`. Trips
//    `a_stolen_batch_is_reshared_before_its_first_task`:
//    "upc-term-rapdif fiber: rank 0 re-shared this many of the 2 chunks it
//    stole at t=64329 before its next task" (`left: 0, right: 1`).
// 2. *cancel per chunk* — move `td.on_release(comm)` of `release_surplus`
//    inside the `while`. Trips `a_burst_leaves_in_one_release`:
//    "upc-sharedmem fiber waits=true: barrier cancels" (`left: 8, right: 1`).

/// A complete `fanout`-ary tree of the given depth whose task is its own
/// depth. With `waits`, every expansion first issues one `Comm::add` (what a
/// DAG task's dependency publication looks like to the driver); without, the
/// expansion is pure, like a UTS node. Either way it then notes what the
/// rank's partition advertised at that moment — the driver counts a task
/// (`nodes += 1`) immediately before expanding it, with no operation between.
struct Fanout {
    fanout: u64,
    depth: u64,
    waits: bool,
    seen: Mutex<Vec<Seen>>,
}

/// One expansion, as the generator saw it.
#[derive(Clone, Copy, Debug)]
struct Seen {
    rank: usize,
    /// `Comm::now()` on entry to the expansion.
    t_ns: u64,
    /// The rank's own `WORK_AVAIL`.
    avail: i64,
    /// The §3.1 barrier's `CANCEL_EPOCH` (thread 0).
    cancels: i64,
}

impl Fanout {
    fn new(fanout: u64, depth: u64, waits: bool) -> Fanout {
        Fanout { fanout, depth, waits, seen: Mutex::new(Vec::new()) }
    }

    fn n_tasks(&self) -> u64 {
        (0..=self.depth).map(|d| self.fanout.pow(d as u32)).sum()
    }

    /// Expansions of `rank` in time order.
    fn seen_by(&self, rank: usize) -> Vec<Seen> {
        let mut seen: Vec<Seen> =
            self.seen.lock().unwrap().iter().copied().filter(|s| s.rank == rank).collect();
        seen.sort_by_key(|s| s.t_ns);
        seen
    }
}

impl TaskGen for Fanout {
    type Task = u64;

    fn root(&self) -> u64 {
        0
    }

    fn expand(&self, task: &u64, out: &mut Vec<u64>) -> u32 {
        if *task == self.depth {
            return 0;
        }
        out.extend((0..self.fanout).map(|_| task + 1));
        self.fanout as u32
    }

    fn expand_in<C: Comm<u64>>(&self, comm: &mut C, tasks: &[u64], out: &mut Vec<u64>) -> u32 {
        let [task] = tasks else { unreachable!("a workload that does not place expands one task") };
        let rank = comm.my_id();
        let t_ns = comm.now();
        let avail = comm.get(rank, vars::WORK_AVAIL);
        let cancels = comm.get(0, vars::CANCEL_EPOCH);
        self.seen.lock().unwrap().push(Seen { rank, t_ns, avail, cancels });
        if self.waits {
            comm.add(rank, vars::DAG_BASE, 1);
        }
        self.expand(task, out)
    }

    fn extra_scalars(&self, _n_threads: usize) -> usize {
        1
    }
}

/// The three executions the rule must hold on: the fiber conductor's fast
/// policy, its naive reference policy (`with_lookahead(false)`, the same
/// fibers) and real threads.
const SUBSTRATES: [&str; 3] = ["fiber", "reference", "native"];

fn run_traced(substrate: &str, threads: usize, gen: &Fanout, alg: Algorithm) -> RunReport {
    let mut cfg = RunConfig::new(alg, 1);
    cfg.trace = true;
    cfg.sim_lookahead = substrate == "fiber";
    let report = if substrate == "native" {
        run_native(MachineModel::smp(), threads, gen, &cfg).expect("fault-free config")
    } else {
        run_sim(MachineModel::kittyhawk(), threads, gen, &cfg)
    };
    assert_eq!(report.total_nodes, gen.n_tasks(), "{} {substrate}: conservation", alg.label());
    report
}

/// `Event::Release`s of one rank's log with `from < t_ns <= to`: a release
/// costs time, and on the simulator nothing separates the last one from the
/// expansion that follows it.
fn releases_between(events: &[Event], from: u64, to: u64) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, Event::Release { t_ns } if from < *t_ns && *t_ns <= to))
        .count()
}

/// One expansion that waited on the network and emitted m tasks: at k=1 all
/// m − 1 surplus chunks are advertised before the next task starts, and the
/// cancelable barrier is reset once for the burst, not once per chunk. The
/// same expansion without the wait releases one chunk, as every tree does.
#[test]
fn a_burst_leaves_in_one_release() {
    const M: u64 = 9;
    for substrate in SUBSTRATES {
        for alg in [Algorithm::SharedMem, Algorithm::Term, Algorithm::DistMem] {
            for waits in [true, false] {
                let what = format!("{} {substrate} waits={waits}", alg.label());
                let gen = Fanout::new(M, 1, waits);
                let report = run_traced(substrate, 1, &gen, alg);
                let seen = gen.seen_by(0);
                let events = &report.per_thread[0].events;
                assert_eq!(seen.len() as u64, 1 + M, "{what}: expansions");
                // Between the root's expansion and the first child's.
                let want = if waits { M - 1 } else { 1 };
                assert_eq!(seen[1].avail, want as i64, "{what}: advertised chunks");
                assert_eq!(
                    releases_between(events, seen[0].t_ns, seen[1].t_ns) as u64,
                    want,
                    "{what}: releases"
                );
                if alg == Algorithm::SharedMem {
                    assert_eq!(seen[0].cancels, 0, "{what}: barrier cancels before the root");
                    assert_eq!(seen[1].cancels, 1, "{what}: barrier cancels");
                }
                // A leaf emits nothing: a waiting rank has no surplus left to
                // move, a pure one keeps releasing one chunk per node.
                for pair in seen[1..].windows(2) {
                    let n = releases_between(events, pair[0].t_ns, pair[1].t_ns);
                    assert!(n <= usize::from(!waits), "{what}: {n} releases after one leaf");
                }
            }
        }
    }
}

/// A thief that has waited on the network before and is granted c ≥ 2 chunks
/// advertises c − 1 of them before it starts its first task; a thief on a
/// pure workload starts working at once, as every tree thief does. (Real
/// threads may finish the tree before anyone steals twice, so only the
/// simulator legs insist that the case occurred.)
#[test]
fn a_stolen_batch_is_reshared_before_its_first_task() {
    const P: usize = 4;
    for substrate in SUBSTRATES {
        for alg in [Algorithm::TermRapdif, Algorithm::DistMem] {
            for waits in [true, false] {
                let gen = Fanout::new(6, 3, waits);
                let report = run_traced(substrate, P, &gen, alg);
                let mut batches = 0;
                for rank in 0..P {
                    let seen = gen.seen_by(rank);
                    let events = &report.per_thread[rank].events;
                    for e in events {
                        let &Event::StealOk { t_ns, chunks, .. } = e else { continue };
                        // A rank that has never expanded has never waited.
                        if chunks < 2 || seen.first().is_none_or(|s| s.t_ns >= t_ns) {
                            continue;
                        }
                        let Some(next) = seen.iter().find(|s| s.t_ns >= t_ns) else { continue };
                        batches += 1;
                        let want = if waits { chunks as usize - 1 } else { 0 };
                        assert_eq!(
                            releases_between(events, t_ns, next.t_ns),
                            want,
                            "{} {substrate}: rank {rank} re-shared this many of the {chunks} \
                             chunks it stole at t={t_ns} before its next task",
                            alg.label()
                        );
                    }
                }
                assert!(
                    batches > 0 || substrate == "native",
                    "{} {substrate} waits={waits}: no thief was granted two chunks",
                    alg.label()
                );
            }
        }
    }
}
