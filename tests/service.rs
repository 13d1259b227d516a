//! Service-mode end-to-end properties (`docs/service.md`):
//!
//! - **Conductor identity**: a service run is bit-identical — per-request
//!   latencies, histograms, per-thread node counts — across the fiber and
//!   reference OS-thread conductors, for smooth (Poisson) and bursty (MMPP)
//!   arrivals alike. This is the acceptance criterion of the service-mode
//!   issue, and it holds because the arrival schedule is precomputed from
//!   the spec and everything else advances on the virtual clock.
//! - **Per-epoch conservation under crash plans**: every request tree is
//!   counted exactly (with multiplicity under message loss/duplication and
//!   rank death) — `run_service_sim` asserts this internally per epoch, so
//!   these tests exercise the sweep and check the surfaced aggregates.
//! - **Overload**: an arrival burst faster than the admission window drains
//!   defers injections but never loses a request.

use pgas::{ArrivalSpec, FaultPlan, MachineModel};
use uts_dlb::worksteal::{run_service_sim, Algorithm, RunConfig, RunReport, UtsGen};
use uts_tree::TreeSpec;

/// Small per-request trees (~20 nodes expected) keep the sweeps quick.
fn small_gen() -> UtsGen {
    UtsGen::new(TreeSpec::binomial(23, 4, 2, 0.4))
}

fn service_run(
    alg: Algorithm,
    threads: usize,
    arrivals: &ArrivalSpec,
    faults: FaultPlan,
    reference: bool,
) -> RunReport {
    let mut cfg = RunConfig::new(alg, 2);
    cfg.faults = faults;
    cfg.sim_lookahead = !reference;
    run_service_sim(MachineModel::smp(), threads, &small_gen(), &cfg, arrivals)
}

/// The fiber conductor and the reference OS-thread conductor produce the
/// same service report bit for bit, across transports and arrival shapes.
#[test]
fn service_reports_identical_across_conductors() {
    let poisson = ArrivalSpec::poisson(41, 10, 25_000.0);
    let mmpp = ArrivalSpec::mmpp(42, 10, 4_000.0, 80_000.0, 200_000);
    for arrivals in [&poisson, &mmpp] {
        for alg in [Algorithm::Term, Algorithm::DistMem, Algorithm::MpiWs] {
            let fast = service_run(alg, 4, arrivals, FaultPlan::none(), false);
            let reference = service_run(alg, 4, arrivals, FaultPlan::none(), true);
            assert_eq!(
                fast.service, reference.service,
                "{} service report diverged across conductors ({:?})",
                alg.label(),
                arrivals.process
            );
            assert_eq!(fast.makespan_ns, reference.makespan_ns, "{}", alg.label());
            let nf: Vec<u64> = fast.per_thread.iter().map(|t| t.nodes).collect();
            let nr: Vec<u64> = reference.per_thread.iter().map(|t| t.nodes).collect();
            assert_eq!(nf, nr, "{} per-thread node counts diverged", alg.label());
        }
    }
}

/// Crash-class chaos sweep: message loss, duplication, and a mid-run rank
/// death must never lose a request or break per-epoch conservation (the
/// assembly asserts conservation-with-multiplicity for every epoch; a
/// violated epoch panics the run). The sweep must actually exercise the
/// crash machinery: at least one schedule kills a rank, and at least one
/// produces duplicate explorations.
#[test]
fn crash_chaos_service_conserves_every_epoch() {
    let arrivals = ArrivalSpec::poisson(7, 8, 10_000.0);
    let mut deaths = 0usize;
    let mut dups = 0u64;
    // 40 seeds: duplicates need a lost ACK on one of the few steals these
    // short runs make (seeds 21, 35 and 39 have one; 39 also kills a rank).
    for seed in 0..40u64 {
        // Stock crashy loss/dup rates (30‰) rarely hit on these short runs;
        // crank them so the lineage re-injection path actually fires.
        let plan = FaultPlan {
            loss_per_mille: 250,
            dup_per_mille: 250,
            ..FaultPlan::crashy(seed)
        };
        for alg in [Algorithm::DistMem, Algorithm::MpiWs] {
            let report = service_run(alg, 6, &arrivals, plan, false);
            let svc = report.service.as_ref().expect("service report");
            assert_eq!(svc.requests, 8, "{} seed {seed}", alg.label());
            assert_eq!(svc.per_request.len(), 8, "{} seed {seed}", alg.label());
            deaths += report.deaths;
            dups += report.duplicate_nodes;
        }
    }
    assert!(deaths > 0, "no crash schedule killed a rank — sweep too tame");
    assert!(
        dups > 0,
        "no schedule re-explored a node — loss/duplication hardening untested"
    );
}

/// Membership sweep (docs/faults.md §8): *healing* partitions, gray stalls,
/// kills and restarts against the open-loop service — through partition →
/// quorum eviction → heal → fence rejoin, every request must still be
/// injected, completed, and conserved per epoch (the assembly panics on any
/// lost epoch or conservation break). Service sweeps use healing partitions
/// only: an epoch whose tasks sit with a frozen zombie stays open until the
/// zombie thaws and drains them, so an un-healed partition would correctly
/// keep its epoch open forever. The sweep must actually drive the fenced
/// membership machinery at least once.
#[test]
fn membership_chaos_service_loses_no_requests() {
    let arrivals = ArrivalSpec::poisson(13, 8, 12_000.0);
    let mut evictions = 0u64;
    let mut rejoins = 0u64;
    for seed in 0..6u64 {
        let mut plan = FaultPlan {
            partition_per_mille: 1000,
            partition_min_ns: 30_000,
            partition_span_ns: 120_000,
            kill_per_mille: if seed % 2 == 0 { 1000 } else { 0 },
            restart_after_ns: 250_000,
            ..FaultPlan::partitioned(seed)
        };
        plan.gray_per_mille = if seed % 2 == 1 { 1000 } else { 0 };
        for alg in [Algorithm::DistMem, Algorithm::MpiWs, Algorithm::Pushing] {
            let mut cfg = RunConfig::new(alg, 2);
            cfg.faults = plan;
            cfg.steal_timeout_ns = Some(30_000);
            let report =
                run_service_sim(MachineModel::smp(), 6, &small_gen(), &cfg, &arrivals);
            let svc = report.service.as_ref().expect("service report");
            assert_eq!(svc.requests, 8, "{} seed {seed}", alg.label());
            assert_eq!(
                svc.per_request.len(),
                8,
                "{} seed {seed}: lost a request",
                alg.label()
            );
            evictions += report.evictions;
            rejoins += report.rejoins;
        }
    }
    assert!(
        evictions > 0,
        "no membership schedule drove a quorum eviction — sweep too tame"
    );
    assert!(rejoins > 0, "no rank ever rejoined — fence/restart path untested");
}

/// Crash service runs are deterministic too: same plan, same report.
#[test]
fn crash_service_is_deterministic() {
    let arrivals = ArrivalSpec::poisson(3, 6, 15_000.0);
    let a = service_run(Algorithm::MpiWs, 5, &arrivals, FaultPlan::crashy(2), false);
    let b = service_run(Algorithm::MpiWs, 5, &arrivals, FaultPlan::crashy(2), false);
    assert_eq!(a.service, b.service);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.duplicate_nodes, b.duplicate_nodes);
    assert_eq!(a.deaths, b.deaths);
}

/// An arrival burst far beyond the admission window: injections defer (the
/// open-loop client keeps its schedule; rank 0 queues) but every request
/// still completes, and deferred epochs report latency from their
/// *scheduled* arrival, so queueing shows up in the tail.
#[test]
fn overload_defers_injections_but_loses_nothing() {
    // 2M requests/s nominal: the whole schedule is due instantly.
    let arrivals = ArrivalSpec::poisson(11, 40, 2_000_000.0);
    let report = service_run(Algorithm::DistMem, 4, &arrivals, FaultPlan::none(), false);
    let svc = report.service.expect("service report");
    assert_eq!(svc.per_request.len(), 40);
    assert!(
        svc.deferred_injections > 0,
        "a 2M/s burst against a 16-epoch window must defer"
    );
    // Later epochs queue behind the window: their latency (measured from
    // the scheduled arrival) must dominate the earliest epoch's.
    let first = svc.per_request.first().unwrap().latency_ns;
    let last = svc.per_request.last().unwrap().latency_ns;
    assert!(
        last > first,
        "queueing delay missing from deferred epochs: first={first} last={last}"
    );
}

/// The E17 stream (Kitty Hawk, upc-distmem, k=4, ~80-node requests) at
/// 8,000 req/s: quiescence detection costs what an epoch touched, not p, so
/// the admission window never fills and the tail stays sub-millisecond — at
/// p=256 as at p=64. (With a full n-cell scan the same stream defers 175
/// injections at p=64 and its p99 is 268 ms.) Virtual numbers: exact.
#[test]
fn eight_thousand_per_second_is_served_without_deferral_at_p64_and_p256() {
    let gen = UtsGen::new(TreeSpec::binomial(101, 8, 2, 0.45));
    let arrivals = ArrivalSpec::poisson(17, 300, 8_000.0);
    let cfg = RunConfig::new(Algorithm::DistMem, 4);
    for p in [64, 256] {
        let report = run_service_sim(MachineModel::kittyhawk(), p, &gen, &cfg, &arrivals);
        let svc = report.service.as_ref().expect("service report");
        assert_eq!(svc.per_request.len(), 300, "p={p}");
        assert_eq!(svc.deferred_injections, 0, "p={p}: the window filled");
        let p99 = svc.hist.p99();
        assert!(p99 < 1_000_000, "p={p}: p99 {p99} ns");
    }
}
