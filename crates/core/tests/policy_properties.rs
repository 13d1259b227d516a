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
// `sched::drive`: after every node, a rank whose local region holds 2k moves
// one chunk of k to its shared region and tells the detector once (§3.1).
// Nothing else releases: a stolen batch is not re-shared before its first
// task, and a placing workload (the DAGs) never releases at all.
//
// Recorded mutants (ROADMAP item 11; break `crates/core/src/sched/mod.rs` by
// hand, run this file, restore):
//
// 1. *release drains the surplus* — in `release_surplus`, follow the first
//    `maybe_release` with `while transport.maybe_release(comm, stack, cx) {}`.
//    Trips `one_chunk_per_node_and_one_cancel_per_release`:
//    "upc-sharedmem fiber: advertised chunks" (`left: 8, right: 1`).
// 2. *cancel dropped* — delete `td.on_release(comm)` from `release_surplus`.
//    Trips the same test: "upc-sharedmem fiber: barrier cancels"
//    (`left: 0, right: 1`).
// 3. *entry re-share* — call `release_surplus` right after
//    `transport.acknowledge(comm)` on entry to `State::Working`. Trips
//    `a_stolen_batch_is_not_reshared_before_its_first_task`:
//    "upc-term-rapdif fiber: rank 0 re-shared some of the 2 chunks it stole
//    at t=72147 before its next task" (`left: 1, right: 0`).
//
// The two mutants recorded here before (*entry release dropped*, *cancel per
// chunk*) broke the release-all path — the re-share on entry to `Working`
// and the `while` that moved a burst — which is gone: one release is now one
// chunk.

/// A complete `fanout`-ary tree of the given depth whose task is its own
/// depth, expanded purely, like a UTS node. Each expansion notes what the
/// rank's partition advertised at that moment — the driver counts a task
/// (`nodes += 1`) immediately before expanding it, with no operation between.
struct Fanout {
    fanout: u64,
    depth: u64,
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
    fn new(fanout: u64, depth: u64) -> Fanout {
        Fanout { fanout, depth, seen: Mutex::new(Vec::new()) }
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
        self.expand(task, out)
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

/// One expansion that emits m tasks at k=1 leaves exactly one chunk before
/// the next task starts, and resets the cancelable barrier once for it; every
/// leaf after that releases at most one chunk.
#[test]
fn one_chunk_per_node_and_one_cancel_per_release() {
    const M: u64 = 9;
    for substrate in SUBSTRATES {
        for alg in [Algorithm::SharedMem, Algorithm::Term, Algorithm::DistMem] {
            let what = format!("{} {substrate}", alg.label());
            let gen = Fanout::new(M, 1);
            let report = run_traced(substrate, 1, &gen, alg);
            let seen = gen.seen_by(0);
            let events = &report.per_thread[0].events;
            assert_eq!(seen.len() as u64, 1 + M, "{what}: expansions");
            // Between the root's expansion and the first child's.
            assert_eq!(seen[1].avail, 1, "{what}: advertised chunks");
            assert_eq!(releases_between(events, seen[0].t_ns, seen[1].t_ns), 1, "{what}: releases");
            if alg == Algorithm::SharedMem {
                assert_eq!(seen[0].cancels, 0, "{what}: barrier cancels before the root");
                assert_eq!(seen[1].cancels, 1, "{what}: barrier cancels");
            }
            for pair in seen[1..].windows(2) {
                let n = releases_between(events, pair[0].t_ns, pair[1].t_ns);
                assert!(n <= 1, "{what}: {n} releases after one leaf");
            }
        }
    }
}

/// A thief granted c ≥ 2 chunks starts its first task at once: nothing of
/// the batch is re-shared before it. (Real threads may finish the tree before
/// anyone steals twice, so only the simulator legs insist that the case
/// occurred.)
#[test]
fn a_stolen_batch_is_not_reshared_before_its_first_task() {
    const P: usize = 4;
    for substrate in SUBSTRATES {
        for alg in [Algorithm::TermRapdif, Algorithm::DistMem] {
            let gen = Fanout::new(6, 3);
            let report = run_traced(substrate, P, &gen, alg);
            let mut batches = 0;
            for rank in 0..P {
                let seen = gen.seen_by(rank);
                let events = &report.per_thread[rank].events;
                for e in events {
                    let &Event::StealOk { t_ns, chunks, .. } = e else { continue };
                    if chunks < 2 {
                        continue;
                    }
                    let Some(next) = seen.iter().find(|s| s.t_ns >= t_ns) else { continue };
                    batches += 1;
                    assert_eq!(
                        releases_between(events, t_ns, next.t_ns),
                        0,
                        "{} {substrate}: rank {rank} re-shared some of the {chunks} chunks it \
                         stole at t={t_ns} before its next task",
                        alg.label()
                    );
                }
            }
            assert!(
                batches > 0 || substrate == "native",
                "{} {substrate}: no thief was granted two chunks",
                alg.label()
            );
        }
    }
}
