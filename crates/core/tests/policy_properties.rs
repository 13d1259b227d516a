//! Property tests for the scheduler's policy axes: victim selectors produce
//! valid orders, steal policies honor their contract, and policy bundles
//! reproduce the named algorithms they are supposed to equal — on the
//! virtual-time simulator, *bit*-equal.

use pgas::{Distance, MachineModel};
use proptest::prelude::*;
use worksteal::probe::ProbeOrder;
use worksteal::{run_sim, Algorithm, RunConfig, StealPolicyKind, UtsGen, VictimPolicy};

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
