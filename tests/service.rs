//! Service-mode end-to-end properties (`docs/service.md`):
//!
//! - **Conductor identity**: a service run is bit-identical — per-request
//!   latencies, histograms, per-thread node counts — across the fiber and
//!   reference conductors, for smooth (Poisson) and bursty (MMPP)
//!   arrivals alike. This is the acceptance criterion of the service-mode
//!   issue, and it holds because the arrival schedule is precomputed from
//!   the spec and everything else advances on the virtual clock.
//! - **Per-epoch conservation under crash plans**: every request tree is
//!   counted exactly (with multiplicity under message loss/duplication and
//!   rank death) — `run_service_sim` asserts this internally per epoch, so
//!   these tests exercise the sweep and check the surfaced aggregates.
//! - **Overload**: an arrival burst faster than the admission window drains
//!   defers injections but never loses a request.

use uts_dlb::worksteal::{RunReport, RunSpec};

/// A service run on `threads` smp threads, k=2, of small per-request trees
/// (~20 nodes expected, which keeps the sweeps quick), plus `words` of a
/// run spec: `arrivals=` and any faults, timeout or conductor.
fn service_run(alg: &str, threads: usize, words: &str) -> RunReport {
    let line = format!("smp p={threads} tree=binomial(23,4,2,0.4) alg={alg} k=2 {words}");
    line.parse::<RunSpec>().unwrap_or_else(|e| panic!("{line}: {e}")).run()
}

/// The fiber conductor and the reference conductor produce the
/// same service report bit for bit, across transports and arrival shapes.
#[test]
fn service_reports_identical_across_conductors() {
    for arrivals in ["arrivals=poisson(41,10,25000)", "arrivals=mmpp(42,10,4000,80000,200000)"] {
        for alg in ["term", "distmem", "mpi"] {
            let fast = service_run(alg, 4, arrivals);
            let reference = service_run(alg, 4, &format!("{arrivals} conductor=reference"));
            assert_eq!(fast.service, reference.service, "{alg} {arrivals}: service report diverged");
            assert_eq!(fast.makespan_ns, reference.makespan_ns, "{alg} {arrivals}");
            let nf: Vec<u64> = fast.per_thread.iter().map(|t| t.nodes).collect();
            let nr: Vec<u64> = reference.per_thread.iter().map(|t| t.nodes).collect();
            assert_eq!(nf, nr, "{alg} {arrivals}: per-thread node counts diverged");
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
    let mut deaths = 0usize;
    let mut dups = 0u64;
    // 40 seeds: duplicates need a lost ACK on one of the few steals these
    // short runs make (seeds 21, 35 and 39 have one; 39 also kills a rank).
    for seed in 0..40u64 {
        // Stock crashy loss/dup rates (30‰) rarely hit on these short runs;
        // crank them so the lineage re-injection path actually fires.
        let words = format!("faults=crashy({seed}),loss=250,dup=250 arrivals=poisson(7,8,10000)");
        for alg in ["distmem", "mpi"] {
            let report = service_run(alg, 6, &words);
            let svc = report.service.as_ref().expect("service report");
            assert_eq!(svc.requests, 8, "{alg} seed {seed}");
            assert_eq!(svc.per_request.len(), 8, "{alg} seed {seed}");
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
    let mut evictions = 0u64;
    let mut rejoins = 0u64;
    for seed in 0..6u64 {
        let (kill, gray) = if seed % 2 == 0 { (1000, 0) } else { (0, 1000) };
        let words = format!(
            "faults=partitioned({seed}),kill={kill},partition=1000,partition_min=30000,partition_span=120000,\
             gray={gray},restart=250000 timeout=30000 arrivals=poisson(13,8,12000)"
        );
        for alg in ["distmem", "mpi", "push"] {
            let report = service_run(alg, 6, &words);
            let svc = report.service.as_ref().expect("service report");
            assert_eq!(svc.requests, 8, "{alg} seed {seed}");
            assert_eq!(svc.per_request.len(), 8, "{alg} seed {seed}: lost a request");
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
    let words = "faults=crashy(2) arrivals=poisson(3,6,15000)";
    let (a, b) = (service_run("mpi", 5, words), service_run("mpi", 5, words));
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
    let report = service_run("distmem", 4, "arrivals=poisson(11,40,2000000)");
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
    for p in [64, 256] {
        let line = format!("kittyhawk p={p} tree=binomial(101,8,2,0.45) alg=distmem k=4 arrivals=poisson(17,300,8000)");
        let report = line.parse::<RunSpec>().unwrap().run();
        let svc = report.service.as_ref().expect("service report");
        assert_eq!(svc.per_request.len(), 300, "p={p}");
        assert_eq!(svc.deferred_injections, 0, "p={p}: the window filled");
        let p99 = svc.hist.p99();
        assert!(p99 < 1_000_000, "p={p}: p99 {p99} ns");
    }
}
