//! Adversarial termination schedules: many random (seed, threads, chunk)
//! configurations on tiny trees, where termination detection is the entire
//! run (work runs out almost immediately and the detectors race with
//! late-arriving steals), plus ready DAG tasks handed to their owners while
//! those owners enter a barrier or the token ring. Complements
//! `examples/termination_stress.rs`, which sweeps a larger grid in release
//! mode.

use pgas::{Comm, FaultPlan, MachineModel};
use uts_dlb::tree::TreeSpec;
use uts_dlb::worksteal::service::SVC_SCAN_INTERVAL_NS;
use uts_dlb::worksteal::spec::Workload;
use uts_dlb::worksteal::state::State;
use uts_dlb::worksteal::trace::Event;
use uts_dlb::worksteal::{run_sim, seq_run, Algorithm, RunConfig, RunReport, RunSpec, TaskGen, UtsGen};

/// Case `i` of the adversarial grid, everything varied deterministically
/// from `i`: a small binomial tree (`b0` 0 gives root-only trees), 2–7
/// threads, k 1–3, a fresh probe seed.
fn case(alg: Algorithm, machine: &'static str, i: u64) -> RunSpec {
    let q = 0.05 + 0.4 * ((i % 7) as f64 / 7.0);
    let tree = TreeSpec::binomial((i * 7 + 1) as u32, (i % 5) as u32 * 3, 2, q);
    let cfg = RunConfig { seed: i.wrapping_mul(0x9E37_79B9), ..RunConfig::new(alg, 1 + (i % 3) as usize) };
    RunSpec::new(machine, 2 + (i % 6) as usize, Workload::Tree(tree), &cfg)
}

/// Run `spec`, which must count its tree exactly.
fn run_exact(spec: RunSpec) -> RunReport {
    let Workload::Tree(tree) = spec.workload else { unreachable!("a tree case") };
    let (report, (expect, _)) = (spec.run(), seq_run(&UtsGen::new(tree)));
    assert_eq!(report.total_nodes, expect, "{spec}");
    report
}

fn stress(alg: Algorithm, machine: &'static str, cases: u64) {
    for i in 0..cases {
        run_exact(case(alg, machine, i));
    }
}

#[test]
fn distmem_adversarial() {
    stress(Algorithm::DistMem, "kittyhawk", 20);
}

#[test]
fn term_adversarial() {
    stress(Algorithm::Term, "kittyhawk", 20);
}

#[test]
fn sharedmem_adversarial() {
    stress(Algorithm::SharedMem, "smp", 15);
}

#[test]
fn mpi_ws_adversarial() {
    stress(Algorithm::MpiWs, "kittyhawk", 20);
}

#[test]
fn pushing_adversarial() {
    stress(Algorithm::Pushing, "smp", 15);
}

// ---------------------------------------------------------------------------
// Fault-schedule cases (docs/faults.md): the same adversarial grid, but with
// a deterministic fault plan aimed at a specific protocol weak point. Every
// run must still terminate (the test completing *is* the termination check —
// a livelock runs out of fuel and panics) with the exact sequential node
// count.

fn fault_stress(alg: Algorithm, faults: FaultPlan, timeout: Option<u64>, cases: u64) -> u64 {
    let mut hardening_events = 0u64;
    for i in 0..cases {
        let faults = FaultPlan { seed: faults.seed.wrapping_add(i), ..faults };
        let t = run_exact(RunSpec { faults, timeout, ..case(alg, "kittyhawk", i) }).totals();
        hardening_events += t.steal_timeouts + t.retracts_won + t.retracts_lost;
    }
    hardening_events
}

/// A victim stalls mid-steal: stall-heavy plan, thief timeout armed. The
/// distmem thief must retract and re-probe rather than wait forever, and the
/// retract race must never lose or duplicate the disputed chunk.
#[test]
fn stalled_victim_mid_steal_distmem() {
    let plan = FaultPlan {
        stall_per_mille: 500,
        window_ns: 25_000,
        spike_per_mille: 0,
        straggler_per_mille: 0,
        ..FaultPlan::seeded(0xBAD_57A11)
    };
    let fired = fault_stress(Algorithm::DistMem, plan, Some(10_000), 20);
    assert!(
        fired > 0,
        "no timeout/retract fired — the stall schedule never bit"
    );
}

/// Same stall schedule against the two-sided protocol: the mpi-ws thief
/// times out, re-probes, and later drains the stalled victim's response so
/// the token ring still balances.
#[test]
fn stalled_victim_mid_steal_mpi_ws() {
    let plan = FaultPlan {
        stall_per_mille: 500,
        window_ns: 25_000,
        spike_per_mille: 0,
        straggler_per_mille: 0,
        ..FaultPlan::seeded(0xBAD_57A11)
    };
    let fired = fault_stress(Algorithm::MpiWs, plan, Some(10_000), 20);
    assert!(
        fired > 0,
        "no timeout fired — the stall schedule never bit"
    );
}

/// A permanent straggler (16x slower) ends up holding the last chunks while
/// everyone else races into the termination detector; the detectors must
/// not declare victory over its head.
#[test]
fn straggler_holding_the_last_chunk() {
    let plan = FaultPlan {
        straggler_per_mille: 350,
        straggler_mult_x16: 256, // 16x slowdown
        stall_per_mille: 0,
        spike_per_mille: 0,
        ..FaultPlan::seeded(0x510_C0DE)
    };
    for alg in [Algorithm::Term, Algorithm::TermRapdif, Algorithm::DistMem] {
        fault_stress(alg, plan, Some(50_000), 12);
    }
}

/// Latency spikes (32x, dense windows) landing during the termination probe
/// cycle: probes and barrier traffic get arbitrarily delayed, which must
/// stretch — never corrupt — the detection protocols.
#[test]
fn latency_spike_during_termination_probe() {
    let plan = FaultPlan {
        spike_per_mille: 400,
        spike_mult_x16: 512, // 32x latency
        window_ns: 50_000,
        stall_per_mille: 0,
        straggler_per_mille: 0,
        ..FaultPlan::seeded(0x5B1CE)
    };
    for alg in [Algorithm::SharedMem, Algorithm::Term, Algorithm::MpiWs] {
        fault_stress(alg, plan, Some(50_000), 12);
    }
}

/// Fenced-membership regression (docs/faults.md §8): an *un-healed* network
/// partition (`partition_dur_ns = 0`, the forever sentinel) freezes a
/// minority of ranks for the rest of the run. They never run a deathbed,
/// never spill, never cooperate — before quorum eviction this wedged the
/// quiescence scan whenever a frozen rank was still on the books as
/// working. Now the live majority votes the silent ranks out after
/// `EVICT_TIMEOUT_NS` and terminates *without* their cooperation; each
/// frozen zombie self-drains whatever it still holds after its
/// (post-termination) thaw, so conservation with multiplicity holds even
/// though termination was declared over its head.
#[test]
fn unhealed_partition_terminates_via_quorum_eviction() {
    let (expect, _) = seq_run(&UtsGen::new(uts_tree::presets::t_tiny().spec));
    let mut evictions = 0u64;
    for alg in ["term", "distmem", "mpi", "push"] {
        for i in 0..4u64 {
            // Every seed carries a partition that never heals, and nobody
            // dies or stalls: the partition alone.
            let line = format!(
                "kittyhawk p=6 tree=tiny alg={alg} k=2 faults=partitioned({}),partition=1000,partition_min=20000,\
                 partition_span=150000,partition_dur=0,kill=0,gray=0 timeout=30000",
                0x9A27_17E5u64.wrapping_add(i)
            );
            let report = line.parse::<RunSpec>().unwrap().run();
            let distinct = report.total_nodes - report.duplicate_nodes;
            assert_eq!(distinct, expect, "{line}: lost nodes across an un-healed partition");
            assert_eq!(report.deaths, 0, "{line}: nobody dies");
            evictions += report.evictions;
        }
    }
    assert!(
        evictions > 0,
        "no quorum eviction fired across the sweep — the un-healed \
         partition never blocked termination"
    );
}

/// Service mode, the nastiest interleaving from `docs/service.md`: a steal
/// grant issued for epoch-`e` work is stalled in flight past the thief's
/// timeout, and lands (via `absorb_pending`) while later epochs are already
/// being injected and even completed — a grant *crossing an epoch boundary*.
/// The per-epoch deficit cells must keep the in-flight chunk on epoch `e`'s
/// books (publish-before-migration), so the scanner can neither declare `e`
/// done over the grant's head nor miscredit its nodes to a newer epoch.
/// `run_service_sim` asserts per-epoch conservation and completion
/// internally; here we additionally require that the sweep really produced
/// (a) timed-out steals whose grants arrived late and (b) epochs whose
/// lifetimes overlapped.
#[test]
fn late_grant_crossing_epoch_boundary_service() {
    let mut late_grants = 0u64;
    let mut overlaps = 0u64;
    for i in 0..10u64 {
        let line = format!(
            "kittyhawk p=6 tree=binomial(31,6,2,0.42) alg=mpi k=1 faults=seeded({}),window=25000,spike=0,stall=500,\
             straggler=0 timeout=10000 arrivals=poisson(19,12,50000)",
            0xE60C4u64.wrapping_add(i)
        );
        let report = line.parse::<RunSpec>().unwrap().run();
        late_grants += report.totals().steal_timeouts;
        let svc = report.service.expect("service report");
        assert_eq!(svc.per_request.len(), 12, "case {i}: lost a request");
        // Epoch e still running when e+1 was injected?
        for w in svc.per_request.windows(2) {
            if w[1].injected_ns < w[0].completed_ns {
                overlaps += 1;
            }
        }
    }
    assert!(late_grants > 0, "no steal ever timed out — grants never late");
    assert!(overlaps > 0, "epochs never overlapped — boundary never crossed");
}

/// Service mode, the touch board's weak point (`docs/service.md` §3): a
/// thief's first bump for an epoch is three operations — reset its cell,
/// `add` its bit on the epoch's home, put the bump — and the epoch's scanner
/// reads only the cells of the bits it sees. Thread stalls three scan
/// intervals long park thieves before, between and after those operations
/// while scanners run pass after pass over the half-registered epoch; 40
/// requests reuse every window slot, so a cell read too early holds the
/// residue of an older epoch. The check is the one `run_service_sim` makes
/// on every run: no epoch declared quiescent before its tree had been
/// executed (and per-epoch conservation). Registering before resetting
/// fails it ("epoch 35 was declared quiescent at 3130636 ns, before ...").
#[test]
fn stalled_registration_never_declares_an_epoch_early_service() {
    const REQUESTS: usize = 40;
    let mut registrations = 0u64;
    let mut stalled_ns = 0u64;
    for i in 0..200u64 {
        for alg in ["term", "distmem", "mpi"] {
            let line = format!(
                "kittyhawk p={} tree=binomial(31,6,2,0.42) alg={alg} k=1 faults=seeded({}),window={},spike=0,stall=300,\
                 straggler=0 arrivals=poisson(23,{REQUESTS},40000)",
                3 + i % 6,
                0x70C4_B0A2Du64.wrapping_add(i),
                3 * SVC_SCAN_INTERVAL_NS
            );
            let report = line.parse::<RunSpec>().unwrap().run();
            let svc = report.service.as_ref().expect("service report");
            assert_eq!(svc.per_request.len(), REQUESTS, "{line}: lost a request");
            let t = report.totals();
            // Each successful steal moves an epoch's work to a rank that
            // then has to register for it.
            registrations += t.steals_ok;
            stalled_ns += t.comm.fault_ns;
        }
    }
    assert!(registrations > 1000, "too few steals ({registrations}) to stress registration");
    assert!(
        stalled_ns > 600 * 3 * SVC_SCAN_INTERVAL_NS,
        "the stall plan barely bit: {stalled_ns} ns over 600 runs"
    );
}

/// A placed workload small enough to aim (`sched::placement`). The root, on
/// rank 0, waits `delay_ns` and then makes one task ready for every rank;
/// the task of rank `r` makes one ready for `r` and one for `r + 1 mod n`, so
/// a hand-off follows every task but the root, and the last one goes back
/// to rank 0. A task is `level | home << 8 | serial << 16`.
struct Relay {
    n: usize,
    delay_ns: u64,
}

impl Relay {
    fn task(level: u64, home: usize, serial: u64) -> u64 {
        level | (home as u64) << 8 | serial << 16
    }
}

impl TaskGen for Relay {
    type Task = u64;
    const PLACED: bool = true;

    fn root(&self) -> u64 {
        0
    }

    fn home(&self, task: &u64, n_threads: usize) -> usize {
        (task >> 8 & 0xFF) as usize % n_threads
    }

    fn expand(&self, task: &u64, out: &mut Vec<u64>) -> u32 {
        let (level, home) = (task & 0xFF, (task >> 8 & 0xFF) as usize);
        match level {
            0 => out.extend((1..=self.n).map(|r| Relay::task(1, r % self.n, 0))),
            1 => out.extend([
                Relay::task(2, home, 2 * home as u64),
                Relay::task(2, (home + 1) % self.n, 2 * home as u64 + 1),
            ]),
            _ => return 0,
        }
        if level == 0 {
            self.n as u32
        } else {
            2
        }
    }

    fn expand_in<C: Comm<u64>>(&self, comm: &mut C, task: &u64, out: &mut Vec<u64>) -> u32 {
        if *task == 0 {
            comm.advance_idle(self.delay_ns);
        }
        self.expand(task, out)
    }

    fn fingerprint(&self, task: &u64) -> u64 {
        task + 1
    }
}

/// The hand-off protocol against the detectors it must not fool
/// (`sched::placement`): the root's hand-offs are sent at every 2 µs step of
/// a 240 µs window, across the moment their owners enter the cancelable
/// barrier (`upc-sharedmem`), the streamlined one (`upc-distmem`) or the
/// token ring (`mpi-ws`), on p = 2, 3 and 4 ranks that each sit on a node of
/// their own, so every one-sided access and message crosses the network.
/// Every run must end (a hang runs out of fuel) having run every task once.
/// Vacuity guard: some hand-offs must land on a rank parked in a barrier.
///
/// Recorded mutants (each broken by hand in `crates/core/src/sched/
/// placement.rs`, confirmed to fail here, restored), both first failing on
/// `upc-sharedmem` p=2 at delay 0:
/// - *The sender publishes out-of-work with a hand-off unacknowledged*
///   (`Placement::refill` returns `false` without waiting): "upc-sharedmem
///   p=2 delay 0 ns: tasks lost or run twice", left 3 right 7, in release —
///   the sender enters the barrier last while its hand-off is in flight, and
///   the owner sees the termination flag before the task. Debug builds stop
///   one step earlier, at `Placement::on_out_of_work`'s assertion.
/// - *The owner acknowledges before it publishes working* (`idle_service`
///   acknowledges on absorbing): "out of fuel: thread 0 of 2 did no work
///   from 4254 ns to 34359744774 ns, after 4908636 operations" — the
///   sender's barrier entry beats the owner's exit, the barrier completes
///   with the owner still counted, and a hand-off then waits forever on a
///   rank that has terminated.
#[test]
fn handoff_racing_barrier_and_ring_entry() {
    let machine = MachineModel {
        threads_per_node: 1,
        ..MachineModel::kittyhawk()
    };
    let mut parked = 0u64;
    for alg in [Algorithm::SharedMem, Algorithm::DistMem, Algorithm::MpiWs] {
        for n in 2..=4usize {
            for step in 0..120u64 {
                let gen = Relay {
                    n,
                    delay_ns: 2_000 * step,
                };
                let mut cfg = RunConfig::new(alg, 1);
                cfg.trace = true;
                let report = run_sim(machine.clone(), n, &gen, &cfg);
                let what = format!("{} p={n} delay {} ns", alg.label(), gen.delay_ns);
                assert_eq!(
                    report.total_nodes,
                    3 * n as u64 + 1,
                    "{what}: tasks lost or run twice"
                );
                assert!(report.handoffs > 0, "{what}: nothing was handed off");
                for r in &report.per_thread {
                    let mut state = State::Working;
                    for e in &r.events {
                        match *e {
                            Event::Enter { state: s, .. } => state = s,
                            Event::HandOff { .. } => {
                                parked += u64::from(state == State::Terminating)
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    assert!(
        parked > 0,
        "no hand-off ever reached a rank inside a barrier"
    );
}
