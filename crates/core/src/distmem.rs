//! `upc-distmem` (§3.3.3): the lock-less DFS stack with an asynchronous
//! request/response steal protocol — the paper's headline transport.
//!
//! Division of labour:
//!
//! - The **owner** has complete control of its own stack: it alone moves the
//!   region counters, so no lock exists on the stack at all. While working
//!   it polls a *local* request cell ("the costs are minimal since it only
//!   involves a read of a local variable without locking") whenever
//!   [`crate::sched::drive`] says so: every `poll_interval` nodes, and after
//!   every node whose expansion waited on the network itself.
//! - A **thief** that sees `work_avail > 0` at a victim CASes its thread id
//!   into the victim's request cell (our one remote atomic — the paper uses
//!   a small lock-protected request variable; a CAS is the modern identical-
//!   cost equivalent). It then spins on its *own* response cells until the
//!   victim answers with `(offset, amount)` or a denial, and finally pulls
//!   the granted chunks with a one-sided bulk get — "the victim is not
//!   required to actively participate".
//! - Servicing a request costs the victim **two remote writes** (response
//!   offset + amount) and a local reset of the request cell, exactly the
//!   §3.3.3 budget.
//!
//! The grant size comes from the bundle's [`StealPolicyKind`]: the paper's
//! `upc-distmem` uses steal-half (§3.3.2 rapid diffusion), and the same
//! transport serves steal-one or adaptive grants unchanged — the victim
//! alone sizes the grant, so the thief side is policy-oblivious.
//! Termination detection and victim order are likewise the bundle's choice
//! (see [`crate::sched::bundle`]); `upc-hier` is this transport with the
//! §6.2 same-node-first victim policy.
//!
//! # Timeout/retract hardening (`docs/faults.md`)
//!
//! The paper's thief waits on its response cell *forever*; a stalled victim
//! therefore stalls the thief too. When [`RunConfig::steal_timeout_ns`] is
//! armed, a thief whose wait exceeds the budget **retracts**: it CASes the
//! victim's request cell from its own id back to `NO_REQUEST`. Winning that
//! CAS proves the victim never observed the request (in hardened mode the
//! victim *claims* a request with the mirror CAS before acting on it), so
//! no grant can ever be issued against it — the thief safely abandons the
//! victim, backs off exponentially, and re-probes elsewhere. Losing the CAS
//! proves the victim already claimed the request at an earlier virtual
//! time, so a grant or denial is guaranteed to land in the thief's response
//! cells; the thief disarms the deadline and consumes it normally. Either
//! way a granted chunk is consumed exactly once: the request cell only
//! moves `NO_REQUEST → thief` (thief install) and `thief → NO_REQUEST`
//! (victim claim **or** thief retract, never both — CAS picks one winner).
//! The claim-CAS replaces the fault-free protocol's trailing plain-write
//! reset only when a timeout is armed, leaving the paper-faithful op
//! sequence (and its bit-exact virtual times) untouched otherwise.
//!
//! [`RunConfig::steal_timeout_ns`]: crate::config::RunConfig::steal_timeout_ns

use pgas::comm::Item;
use pgas::Comm;

use crate::config::RunConfig;
use crate::report::ThreadResult;
use crate::sched::policy::{StealPolicyKind, TimeoutBackoff};
use crate::sched::{Cx, StealOutcome, StealTransport, SweepService};
use crate::stack::DfsStack;
use crate::trace::{Event, TraceLog};
use crate::vars;

/// Backoff while spinning on our own response cell (local reads).
const RESPONSE_BACKOFF_NS: u64 = 1_500;

/// §3.3.3's lock-less request/response protocol as a [`StealTransport`].
#[derive(Clone, Copy, Debug)]
pub struct DistMemTransport {
    sp: StealPolicyKind,
    /// Pause across consecutive steal timeouts (hardened mode).
    steal_backoff: TimeoutBackoff,
}

impl DistMemTransport {
    /// A distmem transport granting chunks per the given steal policy.
    pub fn new(sp: StealPolicyKind) -> DistMemTransport {
        DistMemTransport {
            sp,
            steal_backoff: TimeoutBackoff::default(),
        }
    }
}

impl<T: Item, C: Comm<T>> StealTransport<T, C> for DistMemTransport {
    /// Between probes a searching thief reads its own request cell and acts
    /// only on a pending request.
    const SWEEP: SweepService = SweepService::Read {
        var: vars::REQUEST,
        quiet: vars::NO_REQUEST,
    };

    fn init(&mut self, comm: &mut C, _cx: &mut Cx) {
        // Scalar cells start at 0; the request cell's idle value is -1. Arm
        // it before any exploration (thieves CAS against NO_REQUEST, so
        // until this write lands their attempts simply fail).
        comm.put(comm.my_id(), vars::REQUEST, vars::NO_REQUEST);
    }

    fn refill(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        if stack.avail > 0 {
            reacquire(comm, stack, &mut cx.res);
            true
        } else {
            false
        }
    }

    fn poll(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        service_request(comm, stack, cx.cfg, self.sp, &mut cx.res);
    }

    fn maybe_release(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        if !stack.should_release() {
            return false;
        }
        release(comm, stack, &mut cx.res);
        cx.log.emit(Event::Release { t_ns: comm.now() });
        true
    }

    fn on_out_of_work(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        // Deny any in-flight request, reclaim dead area space, and publish
        // the tri-state marker.
        service_request(comm, stack, cx.cfg, self.sp, &mut cx.res);
        compact(comm, stack);
        comm.put(comm.my_id(), vars::WORK_AVAIL, vars::OUT_OF_WORK);
    }

    fn steal(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        victim: usize,
        cx: &mut Cx,
    ) -> StealOutcome {
        if steal(
            comm,
            stack,
            victim,
            cx.cfg,
            &mut self.steal_backoff,
            &mut cx.res,
            &mut cx.log,
        ) {
            StealOutcome::Got
        } else {
            StealOutcome::Denied
        }
    }

    fn idle_service(&mut self, comm: &mut C, _stack: &mut DfsStack<T>, cx: &mut Cx) {
        // Keep the protocol responsive while we wander: deny thieves that
        // CASed us on a stale read.
        deny_request(comm, cx.cfg);
    }

    fn serve(&mut self, comm: &mut C, _stack: &mut DfsStack<T>, cx: &mut Cx, req: i64) {
        deny_read(comm, cx.cfg, req);
    }

    fn got_work(&mut self, comm: &mut C) {
        comm.put(comm.my_id(), vars::WORK_AVAIL, 0);
    }

    fn deathbed(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        // Deny whichever thief is currently installed in our request cell
        // (a thief installed later hits its timeout and retracts — crash
        // mode always arms the steal timeout), fold the shared region back
        // into the local deque, and retire the tri-state marker. Granted
        // chunks below `base` stay in the area for their thieves' one-sided
        // copies; the spill appends past them.
        deny_request(comm, cx.cfg);
        while stack.avail > 0 {
            reacquire(comm, stack, &mut cx.res);
        }
        comm.put(comm.my_id(), vars::WORK_AVAIL, vars::OUT_OF_WORK);
    }

    fn finish(&mut self, comm: &mut C, stack: &mut DfsStack<T>, _cx: &mut Cx) {
        // Premature-termination detector: a thread leaving through the
        // barrier with work still in hand means the termination protocol
        // fired early under this (possibly fault-injected) schedule.
        debug_assert!(
            stack.is_local_empty() && stack.avail == 0,
            "thread {} terminated holding work: local={} avail={}",
            comm.my_id(),
            stack.local_len(),
            stack.avail
        );
    }
}

/// Owner: move the oldest `k` local nodes into the shared region. No lock —
/// a local bulk write plus a local scalar store.
fn release<T, C>(comm: &mut C, stack: &mut DfsStack<T>, res: &mut ThreadResult)
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    let chunk = stack.take_bottom_chunk();
    comm.area_write(me, stack.release_offset(), &chunk);
    stack.avail += 1;
    comm.put(me, vars::WORK_AVAIL, stack.avail as i64);
    res.releases += 1;
}

/// Owner: take the newest shared chunk back. No lock.
fn reacquire<T, C>(comm: &mut C, stack: &mut DfsStack<T>, res: &mut ThreadResult)
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    let mut buf = Vec::with_capacity(stack.k);
    comm.area_read(me, stack.top_chunk_offset(), stack.k, &mut buf);
    stack.avail -= 1;
    comm.put(me, vars::WORK_AVAIL, stack.avail as i64);
    stack.push_all(&buf);
    res.reacquires += 1;
}

/// Owner: atomically claim a pending request before acting on it (hardened
/// mode only — see the module docs). Returns the thief's id if we now own
/// the request. In fault-free mode the claim is implicit (`get` alone) and
/// the caller resets the cell after responding, preserving the paper's op
/// sequence bit-exactly.
fn claim_request<T, C>(comm: &mut C, cfg: &RunConfig) -> Option<usize>
where
    T: Item,
    C: Comm<T>,
{
    let req = comm.get(comm.my_id(), vars::REQUEST); // local read
    claim_read(comm, cfg, req)
}

/// [`claim_request`] after its read of the request cell returned `req`.
fn claim_read<T, C>(comm: &mut C, cfg: &RunConfig, req: i64) -> Option<usize>
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    if req == vars::NO_REQUEST {
        return None;
    }
    if cfg.steal_timeout_ns.is_some() {
        // Claim-by-CAS: exactly one of {us, the retracting thief} wins the
        // transition `thief → NO_REQUEST`. Losing means the thief retracted
        // between our read and now — touch nothing, especially not its
        // response cells (it may already be mid-steal against someone else).
        if comm.cas(me, vars::REQUEST, req, vars::NO_REQUEST) != req {
            return None;
        }
    }
    Some(req as usize)
}

/// Owner: answer a pending steal request, granting per the bundle's steal
/// policy (§3.3.2 steal-half for the paper bundles) or denying with amount
/// 0. Two remote writes + local reset.
fn service_request<T, C>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    cfg: &RunConfig,
    sp: StealPolicyKind,
    res: &mut ThreadResult,
) where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    let Some(thief) = claim_request(comm, cfg) else {
        return;
    };
    let give = sp.amount(stack.avail);
    if give > 0 {
        let offset = stack.grant(give);
        comm.put(me, vars::WORK_AVAIL, stack.avail as i64);
        // Response offset must land before the amount: the thief spins on
        // the amount cell.
        comm.put(thief, vars::RESP_OFFSET, offset as i64);
        comm.put(thief, vars::RESP_AMT, give as i64);
        res.requests_serviced += 1;
    } else {
        comm.put(thief, vars::RESP_AMT, 0);
    }
    if cfg.steal_timeout_ns.is_none() {
        comm.put(me, vars::REQUEST, vars::NO_REQUEST); // local reset
    }
}

/// Deny a pending request outright (used when we have nothing to give and
/// are not in the Working state).
fn deny_request<T, C>(comm: &mut C, cfg: &RunConfig)
where
    T: Item,
    C: Comm<T>,
{
    let req = comm.get(comm.my_id(), vars::REQUEST); // local read
    deny_read(comm, cfg, req);
}

/// [`deny_request`] after its read of the request cell returned `req`.
fn deny_read<T, C>(comm: &mut C, cfg: &RunConfig, req: i64)
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    if let Some(thief) = claim_read(comm, cfg, req) {
        comm.put(thief, vars::RESP_AMT, 0);
        if cfg.steal_timeout_ns.is_none() {
            comm.put(me, vars::REQUEST, vars::NO_REQUEST);
        }
    }
}

/// Owner: reclaim the dead region below `base` once every granted chunk has
/// been acknowledged by its thief.
fn compact<T, C>(comm: &mut C, stack: &mut DfsStack<T>)
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    if stack.base == 0 {
        return;
    }
    let acked = comm.get(me, vars::ACK) as u64; // local read
    if stack.can_compact(acked) {
        comm.area_truncate(me, 0);
        comm.put(me, vars::ACK, 0);
        stack.granted = 0;
        stack.reset_region();
    }
}

/// Thief: the §3.3.3 request/response steal. Returns true if work arrived.
/// With [`RunConfig::steal_timeout_ns`] armed, an unresponsive victim is
/// abandoned via the CAS retract described in the module docs.
fn steal<T, C>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    victim: usize,
    cfg: &RunConfig,
    backoff: &mut TimeoutBackoff,
    res: &mut ThreadResult,
    log: &mut TraceLog,
) -> bool
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    // Arm our response cell, then try to install ourselves as the requester.
    comm.put(me, vars::RESP_AMT, vars::RESP_PENDING);
    let observed = comm.cas(victim, vars::REQUEST, vars::NO_REQUEST, me as i64);
    if observed != vars::NO_REQUEST {
        // Another thief got there first ("If the request is denied ... the
        // thief continues probing other threads").
        res.steals_failed += 1;
        log.emit(Event::StealFail { t_ns: comm.now(), victim });
        return false;
    }
    let mut deadline = cfg.steal_timeout_ns.map(|d| comm.now() + d);
    // Wait for the victim's answer on our own (local-affinity) cell.
    loop {
        let amt = comm.get(me, vars::RESP_AMT);
        if amt == vars::RESP_PENDING {
            if let Some(dl) = deadline {
                if comm.now() >= dl {
                    res.steal_timeouts += 1;
                    log.emit(Event::StealTimeout { t_ns: comm.now(), victim });
                    // Retract: withdraw the request if — and only if — the
                    // victim has not claimed it yet.
                    let seen = comm.cas(victim, vars::REQUEST, me as i64, vars::NO_REQUEST);
                    if seen == me as i64 {
                        // Won: the victim never observed us and (with the
                        // claim-CAS on its side) never will — no grant can
                        // exist. Back off and re-probe elsewhere.
                        res.retracts_won += 1;
                        res.steals_failed += 1;
                        res.steal_retries += 1;
                        log.emit(Event::Retract { t_ns: comm.now(), victim, won: true });
                        backoff.charge(comm, res);
                        return false;
                    }
                    // Lost: the victim claimed the request at an earlier
                    // virtual time, so a grant or denial is already on its
                    // way to our response cells. Disarm and consume it —
                    // the chunk must be taken exactly once.
                    res.retracts_lost += 1;
                    log.emit(Event::Retract { t_ns: comm.now(), victim, won: false });
                    deadline = None;
                }
            }
            // Stay responsive to thieves that CASed us on a stale read.
            deny_request(comm, cfg);
            comm.advance_idle(RESPONSE_BACKOFF_NS);
            continue;
        }
        if amt == 0 {
            res.steals_failed += 1;
            log.emit(Event::StealFail { t_ns: comm.now(), victim });
            return false;
        }
        let amt = amt as usize;
        let offset = comm.get(me, vars::RESP_OFFSET) as usize;
        // One-sided transfer; the victim keeps exploring meanwhile.
        let mut buf = Vec::with_capacity(amt * stack.k);
        comm.area_read(victim, offset, amt * stack.k, &mut buf);
        comm.add(victim, vars::ACK, amt as i64);
        stack.push_all(&buf);
        res.steals_ok += 1;
        res.chunks_stolen += amt as u64;
        log.emit(Event::StealOk { t_ns: comm.now(), victim, chunks: amt as u64 });
        *backoff = TimeoutBackoff::default();
        return true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use pgas::sim::SimCluster;
    use pgas::MachineModel;

    const K: usize = 2;
    const TOTAL_ITEMS: u64 = 4; // victim starts with 4 items (2 local + 1 shared chunk)

    /// One victim/thief race at a given victim stall length. The victim
    /// releases one 2-item chunk, stalls `delay_ns`, then services once —
    /// racing the thief's timeout/retract. Returns
    /// `(victim_remaining_items, thief_items, retracts_won, retracts_lost, final_request_cell)`.
    fn retract_race(delay_ns: u64, timeout_ns: u64) -> (u64, u64, u64, u64, i64) {
        let mut cfg = RunConfig::new(Algorithm::DistMem, K);
        cfg.steal_timeout_ns = Some(timeout_ns);
        let sp = cfg.bundle().steal;
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::kittyhawk(), 2, vars::space_config());
        let report = cluster.run(|comm| {
            let me = comm.my_id();
            comm.put(me, vars::REQUEST, vars::NO_REQUEST);
            let mut stack: DfsStack<u64> = DfsStack::new(K);
            let mut res = ThreadResult::default();
            let mut log = TraceLog::new(false);
            if me == 0 {
                // Victim: 4 items, one chunk released to the shared region.
                for i in 0..TOTAL_ITEMS {
                    stack.push(i);
                }
                release(comm, &mut stack, &mut res);
                // Stall (an unresponsive owner), then service once.
                comm.advance_idle(delay_ns);
                service_request(comm, &mut stack, &cfg, sp, &mut res);
                [stack.local_len() as u64 + stack.avail as u64 * K as u64, 0, 0, 0, 0]
            } else {
                // Thief: single hardened steal attempt against thread 0.
                let mut backoff = TimeoutBackoff::default();
                let got = steal(comm, &mut stack, 0, &cfg, &mut backoff, &mut res, &mut log);
                assert_eq!(
                    got,
                    stack.local_len() > 0,
                    "steal outcome must match items in hand"
                );
                [
                    stack.local_len() as u64,
                    1,
                    res.retracts_won,
                    res.retracts_lost,
                    res.steal_timeouts,
                ]
            }
        });
        let victim = report.results[0];
        let thief = report.results[1];
        (
            victim[0],
            thief[0],
            thief[2],
            thief[3],
            report.final_scalar(0, vars::REQUEST),
        )
    }

    /// The acceptance test: sweeping the victim's stall across the
    /// timeout boundary drives every interleaving of retract vs. late grant,
    /// and in every single one the chunk is neither duplicated nor lost,
    /// the request cell ends clean, and both retract outcomes are observed.
    #[test]
    fn retract_never_duplicates_or_loses_a_chunk() {
        let timeout_ns = 50_000;
        let mut won = 0u64;
        let mut lost = 0u64;
        let mut granted_runs = 0u64;
        // Coarse sweep over the whole race window plus a fine sweep around
        // the timeout boundary, where the retract and the victim's claim
        // interleave at single-op granularity.
        let coarse = (0..60).map(|i| i * 5_000);
        let fine = (0..2_000).map(|i| 30_000 + i * 25);
        for delay in coarse.chain(fine) {
            let (victim_items, thief_items, w, l, req_cell) = retract_race(delay, timeout_ns);
            assert_eq!(
                victim_items + thief_items,
                TOTAL_ITEMS,
                "conservation violated at delay={delay}: victim={victim_items} thief={thief_items}"
            );
            assert_eq!(req_cell, vars::NO_REQUEST, "request cell left dirty at delay={delay}");
            won += w;
            lost += l;
            if thief_items > 0 {
                granted_runs += 1;
            }
        }
        assert!(won > 0, "sweep never produced a successful retract");
        assert!(lost > 0, "sweep never produced a retract racing a late grant");
        assert!(granted_runs > 0, "sweep never produced a grant");
    }

    /// Determinism: the same stall/timeout parameters give bit-identical
    /// outcomes across repeated runs (the race is virtual-time-scheduled,
    /// not wall-clock-scheduled).
    #[test]
    fn retract_race_is_deterministic() {
        for delay in [0, 42_000, 49_000, 51_000, 120_000] {
            assert_eq!(retract_race(delay, 50_000), retract_race(delay, 50_000));
        }
    }
}
