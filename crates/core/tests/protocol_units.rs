//! Protocol-level tests of the individual algorithm families, driven
//! through small crafted clusters. These pin down behaviours that the
//! whole-run conservation tests would only catch indirectly.

use pgas::sim::{SimCluster, SimComm};
use pgas::{Comm, MachineModel};
use worksteal::engine::worker;
use worksteal::locked::LockedTransport;
use worksteal::mpi_ws::MpiTransport;
use worksteal::sched::{StealTransport, TerminationDetector};
use worksteal::taskgen::SyntheticGen;
use worksteal::vars;
use worksteal::{drive, Algorithm, ProbeOrder, RunConfig, StealPolicyKind};

fn cluster(n: usize) -> SimCluster<u32> {
    SimCluster::new(MachineModel::kittyhawk(), n, vars::space_config())
}

/// A balanced tree big enough that every thread must steal at least once.
fn gen() -> SyntheticGen {
    SyntheticGen {
        branch: 4,
        depth: 6,
    }
}

#[test]
fn distmem_victims_answer_every_request() {
    // Per §3.3.3, every CASed request must be answered (granted or denied):
    // globally, successful CASes == grants + denials. We can't observe CAS
    // wins directly, but steals_ok + steals_failed-by-denial must equal
    // requests seen by victims plus failed CAS races; at minimum, every
    // *serviced* request produced a response the thief consumed, so
    // steals_ok across threads == requests granted across threads.
    let report_cluster = cluster(6);
    let cfg = RunConfig::new(Algorithm::DistMem, 2);
    let g = gen();
    let results = report_cluster.run(|c| worker(c, &g, &cfg));
    let total_ok: u64 = results.results.iter().map(|r| r.steals_ok).sum();
    let total_granted: u64 = results.results.iter().map(|r| r.requests_serviced).sum();
    assert_eq!(
        total_ok, total_granted,
        "every grant must be consumed exactly once"
    );
}

/// The request cells must all be reset to NO_REQUEST at exit: no thief is
/// left hanging.
#[test]
fn distmem_request_cells_reset_at_exit() {
    let c = cluster(5);
    let cfg = RunConfig::new(Algorithm::DistMem, 2);
    let g = gen();
    let report = c.run(|c| worker(c, &g, &cfg));
    for t in 0..5 {
        assert_eq!(
            report.final_scalar(t, vars::REQUEST),
            vars::NO_REQUEST,
            "thread {t} exited with a dangling request"
        );
    }
}

/// work_avail must be OUT_OF_WORK on every thread after termination.
#[test]
fn work_avail_is_out_of_work_at_exit() {
    for alg in [Algorithm::DistMem, Algorithm::Term, Algorithm::SharedMem] {
        let c = cluster(4);
        let cfg = RunConfig::new(alg, 2);
        let g = gen();
        let report = c.run(|c| worker(c, &g, &cfg));
        for t in 0..4 {
            assert!(
                report.final_scalar(t, vars::WORK_AVAIL) <= 0,
                "{}: thread {t} advertises work after termination",
                alg.label()
            );
        }
    }
}

/// Streamlined termination: the barrier count equals the thread count at
/// exit and every TERM flag is raised.
#[test]
fn streamlined_exit_state() {
    for alg in [Algorithm::Term, Algorithm::TermRapdif, Algorithm::DistMem] {
        let n = 7;
        let c = cluster(n);
        let cfg = RunConfig::new(alg, 2);
        let g = gen();
        let report = c.run(|c| worker(c, &g, &cfg));
        assert_eq!(
            report.final_scalar(0, vars::BARRIER_COUNT),
            n as i64,
            "{}",
            alg.label()
        );
        for t in 0..n {
            assert_eq!(report.final_scalar(t, vars::TERM), 1, "{}", alg.label());
        }
    }
}

/// Grant acknowledgements: cumulative ACK equals cumulative RESERVED for
/// the locked variants at exit (no transfer left un-acked).
#[test]
fn locked_acks_balance_reservations() {
    for alg in [Algorithm::SharedMem, Algorithm::Term, Algorithm::TermRapdif] {
        let c = cluster(5);
        let cfg = RunConfig::new(alg, 2);
        let g = gen();
        let report = c.run(|c| worker(c, &g, &cfg));
        for t in 0..5 {
            let reserved = report.final_scalar(t, vars::RESERVED);
            let acked = report.final_scalar(t, vars::ACK);
            assert_eq!(reserved, acked, "{}: thread {t}", alg.label());
        }
    }
}

/// mpi-ws leaves no unread WORK messages behind (drained mailboxes may hold
/// only stale REQ/NOWORK/token traffic, never actual work).
#[test]
fn mpi_ws_loses_no_work_messages() {
    // Conservation already implies this, but check the stronger property
    // across several seeds to exercise different termination races.
    for seed in 0..8u64 {
        let c = cluster(5);
        let mut cfg = RunConfig::new(Algorithm::MpiWs, 2);
        cfg.seed = seed;
        let g = gen();
        let report = c.run(|c| worker(c, &g, &cfg));
        let nodes: u64 = report.results.iter().map(|r| r.nodes).sum();
        assert_eq!(nodes, g.size(), "seed {seed}");
    }
}

/// The engine's in-band reduction works for every algorithm: all threads
/// exit with the same reduced total equal to the tree size.
#[test]
fn in_band_totals_agree() {
    for alg in Algorithm::all() {
        let c = cluster(4);
        let cfg = RunConfig::new(alg, 2);
        let g = gen();
        let report = c.run(|c| worker(c, &g, &cfg));
        for r in &report.results {
            assert_eq!(r.reduced_total, g.size(), "{}", alg.label());
        }
    }
}

/// A custom harness can embed `worker` in its own cluster and mix in extra
/// communication afterwards — the documented use of `engine::worker`.
#[test]
fn worker_embeds_in_custom_cluster() {
    let c = cluster(3);
    let cfg = RunConfig::new(Algorithm::DistMem, 2);
    let g = gen();
    let report = c.run(|c| {
        let res = worker(c, &g, &cfg);
        // Post-run custom phase: vote on cell 11 of thread 0... use the
        // first free collective-block-external pattern: reuse REQUEST cell
        // (protocol is over).
        c.add(0, vars::REQUEST, 1);
        res.nodes
    });
    let total: u64 = report.results.iter().sum();
    assert_eq!(total, g.size());
    // NO_REQUEST (-1) + 3 votes.
    assert_eq!(report.final_scalar(0, vars::REQUEST), vars::NO_REQUEST + 3);
}

/// A detector that overrides nothing. Without a crash plan its default idle
/// loop (`idle_discover` → `done_after_recovery` → the inactive double scan)
/// has no exit, so once the tree is done every rank spins for good.
struct NeverDone;

impl<C: Comm<u32>> TerminationDetector<u32, C> for NeverDone {}

/// Drive `gen()` on two ranks with [`NeverDone`] over `transport`: the
/// livelock must end in the conductor's fuel check, not hang the test.
fn runs_out_of_fuel<ST>(alg: Algorithm, transport: impl Fn() -> ST + Sync)
where
    ST: StealTransport<u32, SimComm<u32>>,
{
    // Kitty Hawk with one rank per node and slow local references, so that
    // a spinning rank burns its fuel in fewer (debug-build) operations.
    let machine = MachineModel {
        threads_per_node: 1,
        local_ref_ns: 2_000,
        ..MachineModel::kittyhawk()
    };
    let cfg = RunConfig::new(alg, 2);
    let g = gen();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        SimCluster::new(machine, 2, vars::space_config()).run(|c| {
            let victims = ProbeOrder::flat(c.my_id(), c.n_threads(), cfg.seed);
            drive(c, &g, &cfg, transport(), NeverDone, victims)
        })
    }));
    let panic = result.expect_err("a detector that never says done must run out of fuel");
    let msg = panic
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.starts_with("out of fuel: thread 0 of 2 did no work from "),
        "{}: {msg}",
        alg.label()
    );
}

/// The probing branch of `idle_discover`.
#[test]
fn locked_idle_loop_without_exit_runs_out_of_fuel() {
    runs_out_of_fuel(Algorithm::Term, || {
        LockedTransport::new(StealPolicyKind::One)
    });
}

/// The blind branch: one steal attempt per iteration.
#[test]
fn mpi_ws_idle_loop_without_exit_runs_out_of_fuel() {
    runs_out_of_fuel(Algorithm::MpiWs, || MpiTransport::new(StealPolicyKind::One));
}
