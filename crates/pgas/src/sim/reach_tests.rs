//! The reach window, mail waits, probe cycles and the packed ready queue,
//! held against the reference (naive) policy: seeded random programs over
//! every [`Comm`] method, split-phase batches, mail waits and probe cycles
//! included, run by both policies on both substrates, and hand-placed
//! operations at the window's edges, a sleeper's wake and a parked cycle.

use super::hub::KeyFormat;
use super::*;
use crate::arrival::HashStream;

fn below(rng: &mut HashStream, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A machine no preset resembles: every local cost exceeds every foreign one,
/// and the cheapest foreign operation is a message send.
fn inverted() -> MachineModel {
    MachineModel {
        name: "inverted",
        node_ns: 35,
        threads_per_node: 3,
        local_ref_ns: 90,
        same_node_ref_ns: 70,
        remote_ref_ns: 50,
        remote_atomic_ns: 60,
        remote_lock_ns: 80,
        remote_unlock_ns: 50,
        bulk_startup_ns: 60,
        ns_per_byte: 0.2,
        poll_ns: 100,
        msg_overhead_ns: 40,
        msg_latency_ns: 40,
        msg_ns_per_byte: 0.1,
    }
}

const OPS_PER_THREAD: usize = 200;
const MAIL_ROUNDS: usize = 4;
const CYCLE_ROUNDS: usize = 6;
/// The cells the probe-cycle phase probes and raises: a victim's work level
/// and the owner's request cell, quiet at 0. No other phase touches them.
const PROBED: usize = 6;
const OWN: usize = 7;

fn fold(xs: impl IntoIterator<Item = u64>) -> i64 {
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x).wrapping_mul(0x100_0000_01b3)
    }) as i64
}

/// Passes of `pass` — every one that finds nothing followed by
/// `idle_for_mail(pass, idle_ns)` — until a probe finds something; returns
/// what it found.
fn mail_wait(c: &mut SimComm<u64>, pass: &[MailProbe], idle_ns: u64) -> i64 {
    loop {
        for &probe in pass {
            let found = match probe {
                MailProbe::TryRecv(tag) => c
                    .try_recv(Some(tag))
                    .map(|m| fold([m.src as u64, m.tag as u64, m.meta[0] as u64])),
                MailProbe::HasMsg(tag) => c.has_msg(Some(tag)).then_some(tag),
            };
            if let Some(found) = found {
                return found;
            }
        }
        c.idle_for_mail(pass, idle_ns);
    }
}

/// A probe cycle from `start`, acting at every stop as a sweep does — the own
/// request cell reset at an own stop — and resuming after it; returns what
/// each call saw, folded.
fn probe_sweep(c: &mut SimComm<u64>, victims: &[u32], mut start: usize, own: bool) -> i64 {
    let own = own.then_some((OWN, 0));
    let mut seen = Vec::new();
    loop {
        let cycle = c.probe_cycle(victims, start, PROBED, own);
        let (read, value) = cycle.stop.unwrap_or((usize::MAX, 0));
        seen.extend([
            cycle.reads as u64,
            cycle.saw_zero as u64,
            read as u64,
            value as u64,
        ]);
        let Some((read, _)) = cycle.stop else {
            return fold(seen);
        };
        if own.is_some() && read % 2 == 1 {
            c.put(c.my_id(), OWN, 0);
        }
        start = read + 1;
    }
}

/// One thread's share of random program `seed`: [`OPS_PER_THREAD`] calls
/// drawn from every `Comm` method, two thirds of those that name a partition
/// naming the issuer's own, on three cells, two locks and two tags so that
/// threads collide, then mail waits, then probe cycles. Returns every value
/// it observed, in order.
///
/// The draws do not depend on what the thread observes, with two exceptions
/// (it only unlocks what it locked, and only truncates an area of four items
/// or more), so both conductors run the same program as long as they agree.
/// Areas only ever shrink to exactly four items, from at least four and only
/// by their owner's hand, so no racing read or truncate can go out of range.
fn program(c: &mut SimComm<u64>, seed: u64) -> Vec<i64> {
    let (me, n) = (c.my_id(), c.n_threads());
    let mut rng = HashStream::new(seed ^ (me as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut seen = Vec::new();
    let mut held = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..OPS_PER_THREAD {
        let th = if below(&mut rng, 3) < 2 {
            me
        } else {
            (me + 1 + below(&mut rng, n - 1)) % n
        };
        let var = below(&mut rng, 3);
        let tag = [None, Some(1), Some(2)][below(&mut rng, 3)];
        match below(&mut rng, 17) {
            0 => seen.push(c.get(th, var)),
            1 => c.put(th, var, below(&mut rng, 4) as i64),
            2 => seen.push(c.cas(
                th,
                var,
                below(&mut rng, 4) as i64,
                below(&mut rng, 4) as i64,
            )),
            3 => seen.push(c.add(th, var, 1)),
            4 => {
                let lock = below(&mut rng, 2);
                let won = c.try_lock(th, lock);
                if won {
                    held.push((th, lock));
                }
                seen.push(won as i64);
            }
            5 => match held.pop() {
                Some((th, lock)) => c.unlock(th, lock),
                None => c.poll(),
            },
            6 => seen.push(c.area_len(th) as i64),
            7 => {
                let len = c.area_len(th).min(4);
                buf.clear();
                c.area_read(th, 0, len, &mut buf);
                seen.push(fold(buf.iter().copied()));
            }
            8 => {
                let src = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
                c.area_write(th, below(&mut rng, 5), &src[..1 + below(&mut rng, 3)]);
            }
            9 => {
                if c.area_len(me) >= 4 {
                    c.area_truncate(me, 4);
                }
            }
            10 => {
                let payload = [rng.next_u64(), rng.next_u64()];
                let meta = [rng.next_u64() as i64; 4];
                c.send(
                    th,
                    1 + below(&mut rng, 2) as i64,
                    meta,
                    &payload[..below(&mut rng, 3)],
                );
            }
            11 => seen.push(c.has_msg(tag) as i64),
            12 => seen.push(match c.try_recv(tag) {
                Some(m) => fold(
                    [m.src as u64, m.tag as u64, m.meta[0] as u64]
                        .into_iter()
                        .chain(m.payload),
                ),
                None => -1,
            }),
            13 => c.poll(),
            14 => c.work(below(&mut rng, 4) as u64),
            // A split-phase batch over any mix of own, same-node and remote
            // cells, the same one twice included.
            15 => {
                let cells: Vec<(usize, usize)> = (0..2 + below(&mut rng, 5))
                    .map(|_| (below(&mut rng, n), below(&mut rng, 3)))
                    .collect();
                c.add_many(&cells, 1, &mut seen);
            }
            // Multiples of 10 ns, like most model costs, so that exact clock
            // ties — where only the thread id orders two operations — happen.
            _ => c.advance_idle(10 * below(&mut rng, 40) as u64),
        }
    }
    for (th, lock) in held {
        c.unlock(th, lock);
    }
    // Mail waits, once every thread is done with the calls above (a count on
    // thread 0's cell 5), so that no `try_recv(None)` takes a token they
    // need: [`MAIL_ROUNDS`] rounds of a token of tag 3 to the next thread,
    // then passes of three probes — the two tags of the sends above, each by a
    // drawn kind, and a `try_recv` of the token's, in a drawn order — and a
    // drawn idle after each pass that finds nothing. Round `k` of every thread
    // ends by the `k`-th token of the thread before it at the latest.
    c.add(0, 5, 1);
    while c.get(0, 5) < n as i64 {
        c.advance_idle(1000);
    }
    for _ in 0..MAIL_ROUNDS {
        c.send((me + 1) % n, 3, [0; 4], &[]);
        let turn = below(&mut rng, 3);
        let pass: Vec<MailProbe> = (0..3)
            .map(|i| match 1 + ((i + turn) % 3) as i64 {
                3 => MailProbe::TryRecv(3),
                tag => [MailProbe::TryRecv(tag), MailProbe::HasMsg(tag)][below(&mut rng, 2)],
            })
            .collect();
        let idle = 10 * below(&mut rng, 200) as u64;
        seen.push(mail_wait(c, &pass, idle));
    }
    // Probe cycles over drawn victims — repeats and the caller itself
    // included — from a drawn start, with or without own reads, while every
    // thread sets its own work level to -1, 0 or 1 and raises other threads'
    // request cells.
    for _ in 0..CYCLE_ROUNDS {
        match below(&mut rng, 3) {
            0 => c.put(me, PROBED, below(&mut rng, 3) as i64 - 1),
            1 => c.put(below(&mut rng, n), OWN, 1),
            _ => c.advance_idle(10 * below(&mut rng, 40) as u64),
        }
        let victims: Vec<u32> = (0..1 + below(&mut rng, 2 * n))
            .map(|_| below(&mut rng, n) as u32)
            .collect();
        let own = below(&mut rng, 2) == 1;
        let start = below(&mut rng, victims.len() << usize::from(own));
        seen.push(probe_sweep(c, &victims, start, own));
    }
    seen
}

/// Everything modelled must be equal; the conductors' own counters must add
/// up.
fn assert_same(fast: &SimReport<Vec<i64>>, reference: &SimReport<Vec<i64>>, label: &str) {
    assert_eq!(
        fast.results, reference.results,
        "{label}: observed values diverged"
    );
    assert_eq!(fast.clocks, reference.clocks, "{label}: clocks diverged");
    assert_eq!(
        fast.scalars, reference.scalars,
        "{label}: final memory diverged"
    );
    assert_eq!(fast.stats, reference.stats, "{label}: comm stats diverged");
    let (f, r) = (fast.total_conductor(), reference.total_conductor());
    assert_eq!(
        f.total_ops(),
        r.total_ops(),
        "{label}: operation streams differ in length"
    );
    assert!(f.reach_ops <= f.fast_ops, "{label}: {f:?}");
    assert_eq!(
        (r.fast_ops, r.reach_ops, r.elided_ops, r.cycle_ops),
        (0, 0, 0, 0),
        "{label}: the reference took a window, skipped a pass or ran a cycle"
    );
}

/// Each thread's conductor statistics but the stack's high-water mark, which
/// only fibers measure.
fn unmeasured(report: &SimReport<Vec<i64>>) -> Vec<ConductorStats> {
    let unmeasured = |c: &ConductorStats| ConductorStats {
        stack_peak_bytes: 0,
        ..c.clone()
    };
    report.conductor.iter().map(unmeasured).collect()
}

/// Random programs × p ∈ 2..=10 on one machine, each run four ways — the
/// naive policy (the reference) and the fast one, each on this platform's
/// substrate and on OS threads (the one substrate of every platform without
/// fibers) — must agree bit for bit, and the two runs of each policy must
/// count the same in every conductor statistic but the stack's high-water
/// mark: one hub schedules both substrates, so they take the same windows,
/// skip the same mail-wait passes (some on every machine whose messages take
/// longer to arrive than the program's pass spans, none on the others) and
/// run the same probe cycles in the conductor (some on every machine).
///
/// Checked against five mutations of the rule (`window`, `Inbound::admits`,
/// the count in `SimComm::add_many`), one at a time. The horizon widened by
/// 400 ns, inbound writes ignored, and inbound reads ignored for own writes
/// each fail within the first 30 seeds on every machine below. `<=` for the
/// strict `<` only shows when an own operation lands exactly on the horizon,
/// a thread with a smaller id lands its cheapest foreign operation on the
/// same cell in the same nanosecond, and the two do not commute: random
/// programs get there on smp alone (seed 227), so
/// `foreign_write_at_the_reach_horizon` places that case by hand. *Batch
/// members counted in `inbound` one at a time, as each parks* — not all of
/// them when the batch is issued — only shows where two members land less
/// than the reach apart, which takes a model whose atomics outlast its send
/// overhead: the inverted machine gets there at seed 0 (40 ns between issues,
/// 60 to 180 ns to land: members overtake and tie), the four presets in no
/// seed — kittyhawk and topsail need a ten-member batch to land a same-node
/// add that close behind a remote one, and on altix and smp a batch is the
/// loop — so `later_batch_member_closes_the_window` places it by hand. Every
/// other hand-placed case below fails under at least one of the five, too.
fn random_programs_agree(machine: MachineModel) {
    let mut reach_ops = 0;
    let mut handoffs = 0;
    let mut elided_ops = 0;
    let mut cycle_ops = 0;
    for seed in 0..300u64 {
        let p = 2 + (seed % 9) as usize;
        let cluster = |lookahead: bool| {
            SimCluster::<u64>::new(machine.clone(), p, SpaceConfig::default())
                .with_lookahead(lookahead)
        };
        let label = format!("{} seed {seed} p {p}", machine.name);
        let on_threads = |lookahead: bool| {
            cluster(lookahead).run_threads(&|c: &mut SimComm<u64>| program(c, seed))
        };
        let reference = cluster(false).run(|c| program(c, seed));
        let fast = cluster(true).run(|c| program(c, seed));
        assert_same(&fast, &reference, &label);
        for (report, threads, policy) in [
            (&reference, on_threads(false), "naive"),
            (&fast, on_threads(true), "fast"),
        ] {
            let label = format!("{label} ({policy} policy on OS threads)");
            assert_same(&threads, &reference, &label);
            assert_eq!(
                unmeasured(report),
                unmeasured(&threads),
                "{label}: the two substrates were conducted differently"
            );
        }
        let on_fibers = fast.total_conductor();
        reach_ops += on_fibers.reach_ops;
        handoffs += on_fibers.handoffs;
        elided_ops += on_fibers.elided_ops;
        cycle_ops += on_fibers.cycle_ops;
    }
    assert!(
        reach_ops > 0 && handoffs > 0 && elided_ops > 0 && cycle_ops > 0,
        "{}: {reach_ops} reach ops, {handoffs} handoffs, {elided_ops} elided ops, {cycle_ops} cycle ops",
        machine.name
    );
}

#[test]
fn random_programs_agree_on_kittyhawk() {
    random_programs_agree(MachineModel::kittyhawk());
}

#[test]
fn random_programs_agree_on_topsail() {
    random_programs_agree(MachineModel::topsail());
}

#[test]
fn random_programs_agree_on_altix() {
    random_programs_agree(MachineModel::altix());
}

#[test]
fn random_programs_agree_on_smp() {
    random_programs_agree(MachineModel::smp());
}

#[test]
fn random_programs_agree_on_an_inverted_machine() {
    let m = inverted();
    assert_eq!(m.min_foreign_cost(), m.msg_overhead_ns);
    assert!(m.local_ref_ns > m.same_node_ref_ns.max(m.remote_lock_ns));
    random_programs_agree(m);
}

/// Run a `p`-thread program under both conductors, require them equal, and
/// return the fast run. (On kittyhawk threads 0 and 1 share a node: own
/// reference 60 ns, foreign reference 250 ns = the reach.)
fn both_conductors<F>(machine: MachineModel, p: usize, f: F) -> SimReport<i64>
where
    F: Fn(&mut SimComm<u64>) -> i64 + Sync,
{
    let run = |lookahead: bool| {
        SimCluster::<u64>::new(machine.clone(), p, SpaceConfig::default())
            .with_lookahead(lookahead)
            .run(&f)
    };
    let (fast, reference) = (run(true), run(false));
    assert_eq!(fast.results, reference.results);
    assert_eq!(fast.clocks, reference.clocks);
    assert_eq!(fast.scalars, reference.scalars);
    assert_eq!(fast.stats, reference.stats);
    fast
}

/// `b` is parked at 1000 ns — the queue minimum `a` sees — and will write
/// `a`'s cell at 1000 + reach = 1250 ns. `a`'s own read completing one
/// nanosecond earlier is inside the window and commits without a handoff; at
/// 1250 exactly it must go through the scheduler, which orders the tie by
/// thread id; one later it must see the write.
#[test]
fn foreign_write_at_the_reach_horizon() {
    let m = MachineModel::kittyhawk();
    assert_eq!(
        (m.ref_cost(0, 0), m.ref_cost(1, 0), m.min_foreign_cost()),
        (60, 250, 250)
    );
    for (a, b) in [(0, 1), (1, 0)] {
        for d in [-1i64, 0, 1] {
            let fast = both_conductors(m.clone(), 2, |c| {
                if c.my_id() == a {
                    c.put(a, 1, 0); // 60
                    c.advance_idle(380);
                    c.get(a, 1); // 500: lets b run up to its own park at 1000
                    c.advance_idle((690 + d) as u64);
                    c.get(a, 0) // 1250 + d
                } else {
                    c.advance_idle(940);
                    c.get(b, 1); // 1000: an own operation, so nothing inbound on a
                    c.put(a, 0, 7); // 1250
                    0
                }
            });
            let label = format!("a = {a}, d = {d}");
            assert_eq!(fast.clocks[a], (1250 + d) as u64, "{label}");
            assert_eq!(fast.clocks[b], 1250, "{label}");
            let write_first = (1250, b) < ((1250 + d) as u64, a);
            assert_eq!(fast.results[a], if write_first { 7 } else { 0 }, "{label}");
            // Rank 0 starts against a queue minimum of (0, 1), so its first
            // operation is a reach operation as well.
            assert_eq!(
                fast.conductor[a].reach_ops,
                u64::from(a == 0) + u64::from(d == -1),
                "{label}"
            );
        }
    }
}

/// A same-node message (smp: send overhead 100 ns, flight 20 ns) sent by a
/// thread parked at 1000 ns arrives at 1120 ns, in the middle of the
/// receiver's `has_msg` run at 10 ns per poll — some polls inside the plain
/// window, some inside the reach window, some handed off, one of them while
/// the send itself is parked inbound. The first poll at or after the arrival
/// sees it, none before.
#[test]
fn message_arrives_inside_a_polling_run() {
    let m = MachineModel::smp();
    assert_eq!(
        (m.local_ref_ns, m.msg_overhead_ns, m.msg_flight_ns(0, 1, 32)),
        (10, 100, 20)
    );
    for (a, b) in [(0, 1), (1, 0)] {
        let fast = both_conductors(m.clone(), 2, |c| {
            if c.my_id() == a {
                let mut polls = 1;
                while !c.has_msg(Some(5)) {
                    polls += 1;
                }
                polls
            } else {
                c.advance_idle(990);
                c.get(b, 0); // 1000
                c.send(a, 5, [0; 4], &[]); // 1100, arrives 1120
                0
            }
        });
        assert_eq!(fast.results[a], 112, "a = {a}");
        assert_eq!(fast.clocks[a], 1120, "a = {a}");
        let polling = &fast.conductor[a];
        assert!(
            polling.reach_ops > 0 && polling.handoffs > 0,
            "a = {a}: {polling:?}"
        );
    }
}

/// `b`'s `try_lock` on `a`'s lock is parked at 1000 ns when `a`, 100 ns
/// later and well inside the window, tries the same lock: the parked write
/// closes the window, `b` wins, `a` loses — as at the reference.
#[test]
fn own_try_lock_yields_to_a_parked_foreign_one() {
    let m = MachineModel::kittyhawk();
    assert_eq!((m.lock_cost(0, 0), m.lock_cost(1, 0)), (180, 750));
    for (a, b) in [(0, 1), (1, 0)] {
        let fast = both_conductors(m.clone(), 2, |c| {
            if c.my_id() == a {
                c.put(a, 1, 0); // 60
                c.advance_idle(380);
                c.get(a, 1); // 500
                c.advance_idle(420);
                c.try_lock(a, 0) as i64 // 1100
            } else {
                c.advance_idle(250);
                c.try_lock(a, 0) as i64 // 1000
            }
        });
        assert_eq!((fast.clocks[a], fast.clocks[b]), (1100, 1000), "a = {a}");
        assert_eq!((fast.results[a], fast.results[b]), (0, 1), "a = {a}");
        assert_eq!(fast.conductor[a].reach_ops, u64::from(a == 0), "a = {a}");
    }
}

/// The same against a parked *read*: `b`'s `get` of `a`'s cell is parked at
/// 1000 ns when `a` overwrites the cell at 1100 ns; `b` must read the old
/// value.
#[test]
fn own_put_yields_to_a_parked_foreign_get() {
    for (a, b) in [(0, 1), (1, 0)] {
        let fast = both_conductors(MachineModel::kittyhawk(), 2, |c| {
            if c.my_id() == a {
                c.put(a, 1, 0); // 60
                c.advance_idle(380);
                c.get(a, 1); // 500
                c.advance_idle(540);
                c.put(a, 0, 9); // 1100
                0
            } else {
                c.advance_idle(750);
                c.get(a, 0) // 1000
            }
        });
        assert_eq!((fast.clocks[a], fast.clocks[b]), (1100, 1000), "a = {a}");
        assert_eq!(fast.results[b], 0, "a = {a}");
        assert_eq!(fast.final_scalar(a, 0), 9, "a = {a}");
        assert_eq!(fast.conductor[a].reach_ops, u64::from(a == 0), "a = {a}");
    }
}

/// A later member of a batch closes the window while its thread is parked on
/// an earlier one. On topsail (8 threads per node, so thread 8 is remote;
/// issue gap 1400 ns capped by the member's cost) `b`'s batch at 0 ns is seven
/// remote adds, issued at 0, 1400, … 8400 and landing 11000 ns later each, two
/// same-node adds on idle thread 2, issued at 9800 and 10240 and landing at
/// 10240 and 10680, and one on `a`'s cell 0, issued at 10680 and landing at
/// 11120 — 120 ns, less than the reach, after the first remote member, on
/// which `b` is parked with key 11000 when `a` reads its own cell at 11120 + d,
/// inside the window of that key. The read must see the add exactly when the
/// add's `(11120, b)` precedes it.
#[test]
fn later_batch_member_closes_the_window() {
    let m = MachineModel::topsail();
    assert_eq!(
        (
            m.ref_cost(0, 0),
            m.atomic_cost(1, 0),
            m.atomic_cost(1, 8),
            m.msg_overhead_ns,
            m.min_foreign_cost()
        ),
        (60, 440, 11_000, 1400, 220)
    );
    for (a, b) in [(0, 1), (1, 0)] {
        for d in [-1i64, 0, 1] {
            let fast = both_conductors(m.clone(), 9, |c| {
                if c.my_id() == a {
                    c.advance_idle(10_740);
                    c.get(a, 1); // 10800: b is parked on its first remote member next
                    c.advance_idle((260 + d) as u64);
                    c.get(a, 0) // 11120 + d
                } else if c.my_id() == b {
                    let mut cells: Vec<(usize, usize)> = (0..7).map(|var| (8, var)).collect();
                    cells.extend([(2, 0), (2, 1), (a, 0)]);
                    let mut prev = Vec::new();
                    c.add_many(&cells, 1, &mut prev);
                    assert_eq!(prev, [0; 10]);
                    0
                } else {
                    0
                }
            });
            let label = format!("a = {a}, d = {d}");
            assert_eq!(fast.clocks[a], (11_120 + d) as u64, "{label}");
            assert_eq!(fast.clocks[b], 8400 + 11_000, "{label}");
            let add_first = (11_120, b) < ((11_120 + d) as u64, a);
            assert_eq!(fast.results[a], i64::from(add_first), "{label}");
            assert_eq!(fast.conductor[a].reach_ops, 0, "{label}");
        }
    }
}

/// `a` sweeps `b` six times with its own request cell read after each probe
/// — a probe of `b` costs 250 ns on kittyhawk, an own read 60, so the own
/// reads land at 310, 620, … 1860 ns — while `b` raises that cell at
/// 1240 + d, tying the fourth own read at d = 0. The cycle stops at the own
/// read that first sees the write, at both conductors, and the fast one
/// applies some of the reads while `a` stays parked.
#[test]
fn an_own_write_mid_cycle_stops_it_at_that_read() {
    for (a, b) in [(0, 1), (1, 0)] {
        for d in [-1i64, 0, 1] {
            let fast = both_conductors(MachineModel::kittyhawk(), 2, |c| {
                if c.my_id() == a {
                    let cycle = c.probe_cycle(&[b as u32; 6], 0, PROBED, Some((OWN, 0)));
                    assert_eq!(cycle.stop.map(|(_, value)| value), Some(1));
                    cycle.stop.map_or(-1, |(read, _)| read as i64)
                } else {
                    c.advance_idle((990 + d) as u64);
                    c.put(a, OWN, 1); // 1240 + d
                    0
                }
            });
            let label = format!("a = {a}, d = {d}");
            let read = if (1240 + d, b) < (1240, a) { 7 } else { 9 };
            assert_eq!(fast.results[a], read, "{label}");
            assert_eq!(fast.clocks[a], 310 * (read as u64 + 1) / 2, "{label}");
            assert!(
                fast.conductor[a].cycle_ops > 0,
                "{label}: {:?}",
                fast.conductor[a]
            );
        }
    }
}

/// After a stop the caller acts and resumes at the read after it: `a`'s own
/// stop at read 7 (1240 ns, `b`'s write at 1239), a reset of the request
/// cell, a victim stop at read 10 (1860 ns, `b`'s work level raised at
/// 1700), and the last own read, quiet.
#[test]
fn a_cycle_resumes_after_a_stop() {
    for (a, b) in [(0, 1), (1, 0)] {
        let fast = both_conductors(MachineModel::kittyhawk(), 2, |c| {
            if c.my_id() == a {
                let (victims, own) = ([b as u32; 6], Some((OWN, 0)));
                let first = c.probe_cycle(&victims, 0, PROBED, own);
                let stop = |read, value| Some((read, value));
                assert_eq!(
                    (first.reads, first.saw_zero, first.stop),
                    (8, true, stop(7, 1))
                );
                c.put(a, OWN, 0); // 1300
                let second = c.probe_cycle(&victims, 8, PROBED, own);
                assert_eq!(
                    (second.reads, second.saw_zero, second.stop),
                    (3, true, stop(10, 1))
                );
                let last = c.probe_cycle(&victims, 11, PROBED, own);
                assert_eq!((last.reads, last.saw_zero, last.stop), (1, false, None));
                c.now() as i64
            } else {
                c.advance_idle(989);
                c.put(a, OWN, 1); // 1239
                c.advance_idle(401);
                c.put(b, PROBED, 1); // 1700
                0
            }
        });
        assert_eq!(fast.results[a], 1920, "a = {a}");
        assert_eq!(fast.stats[a].gets, 12, "a = {a}");
        assert!(
            fast.conductor[a].cycle_ops > 0,
            "a = {a}: {:?}",
            fast.conductor[a]
        );
    }
}

/// A cycle parked on a read of `b`'s work level at 1000 ns counts on `b`'s
/// partition: `b`'s own write of that cell at 1100 ns, inside its reach
/// window, must wait for it, and `a` reads the old value.
#[test]
fn a_parked_cycle_read_holds_off_its_victims_own_write() {
    for (a, b) in [(0, 1), (1, 0)] {
        let fast = both_conductors(MachineModel::kittyhawk(), 2, |c| {
            if c.my_id() == a {
                c.advance_idle(750);
                let cycle = c.probe_cycle(&[b as u32], 0, PROBED, None); // 1000
                assert_eq!((cycle.reads, cycle.saw_zero, cycle.stop), (1, true, None));
                0
            } else {
                c.put(b, 1, 0); // 60
                c.advance_idle(380);
                c.get(b, 1); // 500: lets a run up to its park at 1000
                c.advance_idle(540);
                c.put(b, PROBED, 1); // 1100
                0
            }
        });
        assert_eq!((fast.clocks[a], fast.clocks[b]), (1000, 1100), "a = {a}");
        assert_eq!(fast.conductor[b].reach_ops, u64::from(b == 0), "a = {a}");
    }
}

/// A cycle whose reads would run out of fuel takes the loop, which stops it
/// where the reference does: same thread, clock and operation count, on
/// fibers and on OS threads alike (one retirement path carries the panic).
#[test]
fn a_cycle_out_of_fuel_panics_on_both_conductors() {
    let out_of_fuel = |lookahead: bool, on_threads: bool| {
        let result = std::panic::catch_unwind(|| {
            let cluster =
                SimCluster::<u64>::new(MachineModel::kittyhawk(), 4, SpaceConfig::default())
                    .with_lookahead(lookahead);
            let worker = |c: &mut SimComm<u64>| {
                if c.my_id() == 2 {
                    c.work(1000);
                    c.advance_idle(FUEL_NS - 1000);
                    c.probe_cycle(&[0, 1, 3, 0, 1, 3], 0, PROBED, Some((OWN, 0)));
                } else {
                    c.add(0, 1, 1);
                }
            };
            if on_threads {
                cluster.run_threads(&worker)
            } else {
                cluster.run(worker)
            }
        });
        let panic = result.expect_err("a cycle past the fuel must run out of it");
        panic
            .downcast_ref::<String>()
            .expect("formatted panic message")
            .clone()
    };
    let fast = out_of_fuel(true, false);
    let worked = 1000 * MachineModel::kittyhawk().node_ns;
    let expected = format!("out of fuel: thread 2 of 4 did no work from {worked} ns to ");
    assert!(fast.starts_with(&expected), "{fast}");
    for (lookahead, on_threads) in [(false, false), (true, true), (false, true)] {
        assert_eq!(
            fast,
            out_of_fuel(lookahead, on_threads),
            "lookahead={lookahead} on_threads={on_threads}"
        );
    }
}

/// Two threads run out of fuel, thread 3 first in virtual time: the run
/// reports thread 1's, the lowest, on both policies and both substrates.
#[test]
fn the_lowest_thread_out_of_fuel_is_the_one_reported() {
    let out_of_fuel = |lookahead: bool, on_threads: bool| {
        let result = std::panic::catch_unwind(|| {
            let cluster =
                SimCluster::<u64>::new(MachineModel::kittyhawk(), 4, SpaceConfig::default())
                    .with_lookahead(lookahead);
            let worker = |c: &mut SimComm<u64>| {
                match c.my_id() {
                    1 => {
                        c.work(1000);
                        c.advance_idle(FUEL_NS);
                    }
                    3 => c.advance_idle(FUEL_NS),
                    _ => {}
                }
                c.add(0, 1, 1);
            };
            if on_threads {
                cluster.run_threads(&worker)
            } else {
                cluster.run(worker)
            }
        });
        let panic = result.expect_err("two threads must run out of fuel");
        panic
            .downcast_ref::<String>()
            .expect("formatted panic message")
            .clone()
    };
    let fast = out_of_fuel(true, false);
    let worked = 1000 * MachineModel::kittyhawk().node_ns;
    let expected = format!("out of fuel: thread 1 of 4 did no work from {worked} ns to ");
    assert!(fast.starts_with(&expected), "{fast}");
    for (lookahead, on_threads) in [(false, false), (true, true), (false, true)] {
        assert_eq!(
            fast,
            out_of_fuel(lookahead, on_threads),
            "lookahead={lookahead} on_threads={on_threads}"
        );
    }
}

/// Thread `a` of two waits with passes of `pass` and 1 µs idles, the first
/// pass starting at 0; the other thread idles `issue` and then sends `a` one
/// message of tag 5. Both conductors must agree; returns the fast run. (On
/// kittyhawk threads 0 and 1 share a node: a probe costs 60 ns and an empty
/// message arrives 1756 ns after its send is issued.)
fn mail_wait_against_a_send(
    machine: MachineModel,
    (a, b): (usize, usize),
    pass: &'static [MailProbe],
    issue: u64,
) -> SimReport<i64> {
    both_conductors(machine, a.max(b) + 1, move |c| {
        if c.my_id() == a {
            mail_wait(c, pass, 1000)
        } else {
            if c.my_id() == b {
                c.advance_idle(issue);
                c.send(a, 5, [0; 4], &[]);
            }
            0
        }
    })
}

const TWO_PROBES: &[MailProbe] = &[MailProbe::HasMsg(6), MailProbe::TryRecv(5)];

/// A message arriving exactly as a skipped pass's probe of its tag lands is
/// seen by that pass, and one arriving 1 ns later by the next. Pass `k`
/// starts at 1120k and its `try_recv` lands at 1120k + 120; `b`'s send issued
/// at 1724 + d arrives at 3480 + d, on pass 3's landing for d ≤ 0. `a` sleeps
/// from 120 ns on and wakes only for that pass, so every pass in between is
/// skipped, its `has_msg` charged as a get.
#[test]
fn arrival_on_a_skipped_probe() {
    let m = MachineModel::kittyhawk();
    assert_eq!(
        (
            m.local_ref_ns,
            m.msg_overhead_ns + m.msg_flight_ns(0, 1, 32)
        ),
        (60, 1756)
    );
    for a in [0, 1] {
        for d in [-1i64, 0, 1] {
            let fast = mail_wait_against_a_send(m.clone(), (a, 1 - a), TWO_PROBES, (1724 + d) as u64);
            let label = format!("a = {a}, d = {d}");
            let found = if d <= 0 { 3 } else { 4 };
            assert_eq!(fast.clocks[a], 1120 * found + 120, "{label}");
            assert_eq!(
                fast.stats[a].gets,
                found + 1,
                "{label}: one has_msg per pass"
            );
            assert_eq!(fast.conductor[a].elided_ops, 2 * (found - 1), "{label}");
        }
    }
}

/// A message of a tag the pass does not probe (`b`'s tag 7, arriving at
/// 2256 ns) wakes nothing: `a` sleeps through to the pass that sees the
/// tag-5 message arriving at 5720 ns, skipping every pass before it, and the
/// tag-7 message is still in its mailbox afterwards.
#[test]
fn an_unprobed_tag_wakes_nothing() {
    for a in [0, 1] {
        let fast = both_conductors(MachineModel::kittyhawk(), 2, |c| {
            if c.my_id() == a {
                let found = mail_wait(c, TWO_PROBES, 1000);
                assert!(c.has_msg(Some(7)));
                found
            } else {
                c.advance_idle(500);
                c.send(a, 7, [0; 4], &[]); // 2000, arrives 2256
                c.advance_idle(1964);
                c.send(a, 5, [0; 4], &[]); // 5464, arrives 5720
                0
            }
        });
        assert_eq!(fast.clocks[a], 5720 + 60, "a = {a}");
        assert_eq!(fast.conductor[a].elided_ops, 2 * 4, "a = {a}");
    }
}

/// A send issued at 90 ns, between the two probes of its receiver's first,
/// real pass, enters the mailbox at 1590 ns, after the receiver has gone to
/// sleep, and must wake it all the same, for pass 2 (the message arrives at
/// 1846 ns). One entering at 2250 ns, in the middle of skipped pass 2, wakes
/// it for pass 3 (arrival 2506).
#[test]
fn a_send_issued_mid_pass_wakes_its_receiver() {
    for a in [0, 1] {
        for (issue, found) in [(90, 2), (750, 3)] {
            let fast = mail_wait_against_a_send(MachineModel::kittyhawk(), (a, 1 - a), TWO_PROBES, issue);
            let label = format!("a = {a}, issue {issue}");
            assert_eq!(fast.clocks[a], 1120 * found + 120, "{label}");
            assert_eq!(fast.conductor[a].elided_ops, 2 * (found - 1), "{label}");
        }
    }
}

/// On topsail a message's flight between threads of a node (225 ns) is
/// shorter than a four-probe pass (240 ns): a message entering the mailbox at
/// 3730 ns arrives at 3955, which pass 3 — starting at 3720, before the send
/// is applied — sees with its last probe, at 3960. The receiver wakes for a
/// pass that began before the send that woke it, and every one of its probes
/// before the last still finds nothing.
#[test]
fn a_wake_can_begin_before_its_send() {
    const PASS: &[MailProbe] = &[
        MailProbe::HasMsg(6),
        MailProbe::HasMsg(7),
        MailProbe::TryRecv(6),
        MailProbe::TryRecv(5),
    ];
    let m = MachineModel::topsail();
    assert_eq!(
        (m.local_ref_ns, m.msg_overhead_ns, m.msg_flight_ns(0, 1, 32)),
        (60, 1400, 225)
    );
    for a in [0, 1] {
        let fast = mail_wait_against_a_send(m.clone(), (a, 1 - a), PASS, 2330);
        assert_eq!(fast.clocks[a], 1240 * 3 + 240, "a = {a}");
        assert_eq!(fast.conductor[a].elided_ops, 4 * 2, "a = {a}");
    }
}

/// A pass may span longer than a message takes to arrive: on the inverted
/// machine an empty message arrives 110 ns after its send is issued within a
/// node and 83 ns across nodes, sooner than one 90 ns probe, and a pass of
/// two probes spans 180. Pass `k` starts at 1180k and its `try_recv` lands at
/// 1180k + 180. Within a node, `b`'s send issued at 20,110 ns arrives at
/// 20,220, which pass 17 sees at 20,240 — so `a` wakes for a pass that began
/// 50 ns before the send that woke it was issued. Across nodes (thread 3 to
/// thread 0), a send issued at 20,157 + d arrives at 20,240 + d: on pass 17's
/// landing for d ≤ 0, begun 97 ns before the send, and on pass 18's for
/// d = 1. Each still equals the reference.
#[test]
fn a_long_pass_wakes_before_its_send_is_issued() {
    let m = inverted();
    assert_eq!(
        (
            m.local_ref_ns,
            m.msg_overhead_ns + m.msg_flight_ns(0, 1, 32),
            m.msg_overhead_ns + m.msg_flight_ns(3, 0, 32)
        ),
        (90, 110, 83)
    );
    for a in [0, 1] {
        let fast = mail_wait_against_a_send(m.clone(), (a, 1 - a), TWO_PROBES, 20_110);
        assert_eq!(fast.clocks[a], 1180 * 17 + 180, "a = {a}");
        assert_eq!(fast.conductor[a].elided_ops, 2 * 16, "a = {a}");
    }
    for d in [-1i64, 0, 1] {
        let fast = mail_wait_against_a_send(m.clone(), (0, 3), TWO_PROBES, (20_157 + d) as u64);
        let found = if d <= 0 { 17 } else { 18 };
        assert_eq!(fast.clocks[0], 1180 * found + 180, "d = {d}");
        assert_eq!(fast.conductor[0].elided_ops, 2 * (found - 1), "d = {d}");
    }
}

/// A mail wait that nothing ends runs out of fuel inside a skipped stretch:
/// both conductors stop it at the same thread, clock and operation count.
#[test]
fn a_mail_wait_runs_out_of_fuel_on_both_conductors() {
    let out_of_fuel = |lookahead: bool| {
        let result = std::panic::catch_unwind(|| {
            SimCluster::<u64>::new(MachineModel::kittyhawk(), 4, SpaceConfig::default())
                .with_lookahead(lookahead)
                .run(|c| {
                    if c.my_id() == 2 {
                        c.work(1000);
                        mail_wait(c, TWO_PROBES, 1 << 24);
                    } else {
                        c.add(0, 1, 1);
                        c.send(2, 8, [0; 4], &[]);
                    }
                })
        });
        let panic = result.expect_err("a wait nothing ends must run out of fuel");
        panic
            .downcast_ref::<String>()
            .expect("formatted panic message")
            .clone()
    };
    let fast = out_of_fuel(true);
    let worked = 1000 * MachineModel::kittyhawk().node_ns;
    let expected = format!("out of fuel: thread 2 of 4 did no work from {worked} ns to ");
    assert!(fast.starts_with(&expected), "{fast}");
    assert_eq!(fast, out_of_fuel(false));
}

/// A message that the pass in which fuel runs out sees before its probe out
/// of fuel ends the wait like any other, in virtual-time order. `a` worked
/// until 418,000 ns and waits with 16,801,708 ns idles: the pass starting at
/// 34,360,156,260 ns lands its `has_msg(6)` at …320, within fuel (…368), and
/// its `try_recv(5)` at …380, beyond it. `b`'s tag-6 message arrives at …300;
/// `b` then spins on a flag `a` raises once it has seen the message.
#[test]
fn a_message_in_the_pass_out_of_fuel_ends_the_wait() {
    for a in [0, 1] {
        let fast = both_conductors(MachineModel::kittyhawk(), 2, |c| {
            if c.my_id() == a {
                c.work(1000);
                let found = mail_wait(c, TWO_PROBES, 16_801_708);
                c.work(1); // fuel for the put
                c.put(a, 0, 1);
                found
            } else {
                c.work(82_201_326);
                c.advance_idle(276);
                c.send(a, 6, [0; 4], &[]); // 34,360,156,044, arrives …300
                let mut spins = 0;
                while c.get(a, 0) == 0 {
                    c.advance_idle(1000);
                    spins += 1;
                }
                spins
            }
        });
        assert_eq!(fast.results[a], 6, "a = {a}");
        assert_eq!(fast.clocks[a], 34_360_156_320 + 418 + 60, "a = {a}");
        assert!(fast.conductor[a].elided_ops > 4000, "a = {a}");
    }
}

/// A thread spinning on a remote cell runs out of fuel, counted from its last
/// `work()`: both conductors stop it with the same message — same thread,
/// clock and operation count — while the threads that finished stay finished.
#[test]
fn spinning_thread_runs_out_of_fuel_on_both_conductors() {
    let out_of_fuel = |lookahead: bool| {
        let result = std::panic::catch_unwind(|| {
            SimCluster::<u64>::new(MachineModel::kittyhawk(), 4, SpaceConfig::default())
                .with_lookahead(lookahead)
                .run(|c| {
                    if c.my_id() == 2 {
                        c.work(1000);
                        // Waits for a flag nobody raises.
                        while c.get(0, 0) == 0 {
                            c.advance_idle(1 << 24);
                        }
                    } else {
                        c.add(0, 1, 1);
                    }
                })
        });
        let panic = result.expect_err("a livelock must run out of fuel");
        panic
            .downcast_ref::<String>()
            .expect("formatted panic message")
            .clone()
    };
    let fast = out_of_fuel(true);
    let worked = 1000 * MachineModel::kittyhawk().node_ns;
    let expected = format!("out of fuel: thread 2 of 4 did no work from {worked} ns to ");
    assert!(fast.starts_with(&expected), "{fast}");
    assert_eq!(fast, out_of_fuel(false));
}

/// Fuel bounds the time between two `work()` calls, not the clock: threads
/// that keep working, each followed by a wait of half the fuel, run to many
/// times [`FUEL_NS`] on both conductors.
#[test]
fn working_threads_run_past_the_fuel() {
    for lookahead in [true, false] {
        let report = SimCluster::<u64>::new(MachineModel::smp(), 2, SpaceConfig::default())
            .with_lookahead(lookahead)
            .run(|c| {
                let peer = 1 - c.my_id();
                for _ in 0..16 {
                    c.work(1 << 24);
                    c.advance_idle(FUEL_NS / 2);
                    c.add(peer, 0, 1);
                }
            });
        assert!(report.makespan_ns > 8 * FUEL_NS, "lookahead={lookahead}");
        assert_eq!(report.final_scalar(0, 0), 16, "lookahead={lookahead}");
    }
}

/// A virtual clock that no longer fits beside the thread id in a queue key
/// stops the run with the time and p in the message.
#[test]
fn clock_beyond_the_packed_key_panics() {
    let one_ns_nodes = MachineModel {
        node_ns: 1,
        ..MachineModel::smp()
    };
    let result = std::panic::catch_unwind(|| {
        SimCluster::<u64>::new(one_ns_nodes, 4, SpaceConfig::default()).run(|c| {
            if c.my_id() == 0 {
                c.work(1 << 62);
                c.add(1, 0, 1);
            }
        })
    });
    let panic = result.expect_err("a 2^62 ns clock fits no 62-bit field");
    let msg = panic
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.contains("4611686018427387944 ns") && msg.contains("p = 4"),
        "{msg}"
    );
}

/// Packed keys keep the `(clock, tid)` order at every thread count, solo
/// runs (no tid bits at all) included.
#[test]
fn packed_keys_order_like_tuples() {
    for p in [1usize, 2, 3, 8, 9, 1024, 8192] {
        let keys = KeyFormat::new(p);
        let mut pairs = Vec::new();
        for clock in [0, 1, 2, 999, 1 << 40, (1 << 50) - 1] {
            for tid in [0, p / 2, p - 1] {
                pairs.push((clock, tid));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        for w in pairs.windows(2) {
            // `Reverse` keys: the earlier pair is the greater heap entry.
            assert!(
                keys.pack(w[0].0, w[0].1) > keys.pack(w[1].0, w[1].1),
                "p = {p}: {w:?}"
            );
        }
        for &(clock, tid) in &pairs {
            assert_eq!(keys.unpack(keys.pack(clock, tid)), (clock, tid), "p = {p}");
        }
    }
}
