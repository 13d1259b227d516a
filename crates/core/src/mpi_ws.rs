//! `mpi-ws` (§3.2): the message-passing work-stealing baseline of
//! Dinan et al. (PMEO-PDS'07), reproduced over [`Comm`]'s mailboxes.
//!
//! Stealing is a two-sided message exchange: an idle thread sends a steal
//! request; working threads poll for requests "at an interval set by a
//! user-supplied parameter" and answer with a chunk of work or a denial.
//! Global quiescence is detected with the counting token ring
//! ([`crate::sched::termination::RingTerm`]).
//!
//! Contrast with `upc-distmem`: the victim must assemble and *send* the
//! chunk (two-sided), whereas UPC lets the thief pull it one-sidedly while
//! the victim keeps exploring. The compensating advantage the paper notes —
//! "a clear advantage in not using any remote locking operations" — applies
//! here too: there are no locks anywhere in this implementation.
//!
//! The grant size per request message comes from the bundle's
//! [`StealPolicyKind`]: the paper baseline sends one chunk per grant, and the
//! same transport ships multi-chunk grants for the half/adaptive policies
//! (the surplus beyond the keep-threshold is what's divisible).

use pgas::comm::Item;
use pgas::{Comm, MailProbe, Msg};

use crate::recovery::Lineage;
use crate::sched::policy::{StealPolicyKind, TimeoutBackoff};
use crate::sched::termination::TERM;
use crate::sched::{Cx, StealOutcome, StealTransport, SweepService};
use crate::stack::DfsStack;
use crate::trace::Event;

/// Steal request (meta unused).
pub const TAG_REQ: i64 = 1;
/// Work grant; payload carries the chunk(s).
pub const TAG_WORK: i64 = 2;
/// Denial.
pub const TAG_NOWORK: i64 = 3;

/// Backoff while awaiting a steal response.
const RESPONSE_BACKOFF_NS: u64 = 2_000;
/// A pass of the response wait in [`MpiTransport::steal`] that finds
/// nothing: these probes, in this order, and no other operation.
const RESPONSE_PASS: [MailProbe; 4] = [
    MailProbe::TryRecv(TAG_WORK),
    MailProbe::TryRecv(TAG_NOWORK),
    MailProbe::HasMsg(TERM),
    MailProbe::TryRecv(TAG_REQ),
];

/// §3.2's two-sided request/grant message exchange as a [`StealTransport`].
///
/// Every WORK message goes out and comes in through the transfer ledger
/// ([`Lineage`]), which keeps the cumulative counts the termination token
/// needs. With the steal timeout armed (`docs/faults.md`) the transport also
/// counts the responses still outstanding from victims it abandoned: grants
/// are counted by the token ring, so a late WORK message *must* eventually be
/// consumed — [`StealTransport::absorb_pending`] does that — or the ring
/// would never balance. That count stays 0 (and the drain is never even
/// probed) unless `cfg.steal_timeout_ns` is armed.
///
/// Crash mode lives behind the calls every message makes anyway
/// (`docs/faults.md` §7–§8): the ledger registers each grant with a payload
/// copy until the thief's ACK closes it and re-injects the ones never
/// acknowledged, and [`crate::recovery::Recovery`]'s envelope stamps every
/// outbound message with the sender's incarnation and drops inbound zombie
/// traffic. Neither issues a single operation without a crash class active.
#[derive(Clone, Debug)]
pub struct MpiTransport<T> {
    sp: StealPolicyKind,
    /// Responses still outstanding from victims we timed out on.
    pending_responses: usize,
    /// Pause across consecutive steal timeouts.
    timeout_backoff: TimeoutBackoff,
    /// Counts, and under a crash plan tracks, every WORK message.
    ledger: Lineage<T>,
}

impl<T: Item> MpiTransport<T> {
    /// An mpi-ws transport granting per the given steal policy.
    pub fn new(sp: StealPolicyKind) -> MpiTransport<T> {
        MpiTransport {
            sp,
            pending_responses: 0,
            timeout_backoff: TimeoutBackoff::default(),
            ledger: Lineage::default(),
        }
    }

    /// Answer every queued steal request: chunks of the oldest local nodes
    /// if we hold a comfortable surplus, a denial otherwise. The keep
    /// threshold is `2k`; the policy sizes its grant from
    /// the spare chunks above it, shipped as one message. Returns whether
    /// there was a request.
    fn service_requests<C>(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool
    where
        C: Comm<T>,
    {
        self.ledger.service(comm, stack, cx);
        let mut any = false;
        while let Some(req) = cx.recovery.try_recv(comm, &[TAG_REQ]) {
            any = true;
            if cx.recovery.is_gone(req.src) {
                continue; // a dead or evicted thief cannot consume a grant
            }
            let threshold = 2 * stack.k;
            if stack.local_len() >= threshold {
                let spare = (stack.local_len() - threshold) / stack.k + 1;
                let give = self.sp.amount(spare).clamp(1, spare);
                let mut payload = Vec::with_capacity(give * stack.k);
                for _ in 0..give {
                    payload.extend_from_slice(&stack.take_bottom_chunk());
                }
                self.ledger.grant(comm, &cx.recovery, req.src, TAG_WORK, &payload);
                cx.res.requests_serviced += 1;
                cx.log.emit(Event::Release { t_ns: comm.now() });
            } else {
                comm.send(req.src, TAG_NOWORK, cx.recovery.stamp(0), &[]);
            }
        }
        any
    }

    /// WORK message `m` is work in hand: count and acknowledge it through
    /// the ledger, then take the chunks.
    fn take_work<C>(&mut self, comm: &mut C, stack: &mut DfsStack<T>, m: Msg<T>, cx: &mut Cx)
    where
        C: Comm<T>,
    {
        self.ledger.accept(comm, cx, &m);
        stack.push_all(&m.payload);
        cx.res.steals_ok += 1;
        cx.res.chunks_stolen += (m.payload.len() / stack.k.max(1)) as u64;
        cx.log.emit(Event::StealOk { t_ns: comm.now(), victim: m.src, chunks: 1 });
    }
}

impl<T: Item, C: Comm<T>> StealTransport<T, C> for MpiTransport<T> {
    const SWEEP: SweepService = SweepService::Blind { backoff_ns: 5_000 };

    fn ledger(&mut self) -> Option<&mut Lineage<T>> {
        Some(&mut self.ledger)
    }

    fn poll(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.service_requests(comm, stack, cx);
    }

    fn steal(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        victim: usize,
        cx: &mut Cx,
    ) -> StealOutcome {
        comm.send(victim, TAG_REQ, cx.recovery.stamp(0), &[]);
        // Await WORK or NOWORK, staying responsive to requests and to a
        // termination announcement racing with our request: the ring can
        // complete while our (uncounted) request is in flight, and the
        // victim may already have exited — without the TERM check we would
        // wait forever. A WORK grant cannot race this way because grants
        // are counted by the token.
        let deadline = cx.cfg.steal_timeout_ns.map(|d| comm.now() + d);
        loop {
            if let Some(m) = cx.recovery.try_recv(comm, &[TAG_WORK, TAG_NOWORK]) {
                if m.tag == TAG_WORK {
                    // Work in hand, whether from `victim` or a late grant
                    // from an earlier timed-out victim. In the late case one
                    // outstanding response was consumed while `victim`'s
                    // becomes outstanding, so `pending_responses` is
                    // unchanged either way (we abandon `victim`'s response
                    // by returning).
                    self.take_work(comm, stack, m, cx);
                    self.timeout_backoff = TimeoutBackoff::default();
                    return StealOutcome::Got;
                }
                if m.src != victim {
                    // A late denial from an earlier timed-out victim; keep
                    // waiting for the answer of `victim`.
                    self.pending_responses = self.pending_responses.saturating_sub(1);
                    continue;
                }
                cx.res.steals_failed += 1;
                cx.log.emit(Event::StealFail { t_ns: comm.now(), victim });
                return StealOutcome::Denied;
            }
            if comm.has_msg(Some(TERM)) {
                return StealOutcome::TermRaced;
            }
            if let Some(dl) = deadline {
                if comm.now() >= dl {
                    // Abandon the unresponsive victim; its eventual
                    // WORK/NOWORK is drained by `absorb_pending` (or
                    // classified by source above).
                    cx.res.steal_timeouts += 1;
                    cx.res.steal_retries += 1;
                    cx.res.steals_failed += 1;
                    cx.log.emit(Event::StealTimeout { t_ns: comm.now(), victim });
                    self.pending_responses += 1;
                    return StealOutcome::TimedOut;
                }
            }
            // A pass that found nothing is `RESPONSE_PASS`, unless the
            // deadline check sits in it or crash mode's ledger probes too.
            let served = self.service_requests(comm, stack, cx);
            if served || deadline.is_some() || cx.recovery.active {
                comm.advance_idle(RESPONSE_BACKOFF_NS);
            } else {
                comm.idle_for_mail(&RESPONSE_PASS, RESPONSE_BACKOFF_NS);
            }
        }
    }

    fn after_timeout(&mut self, comm: &mut C, cx: &mut Cx) {
        self.timeout_backoff.charge(comm, &mut cx.res);
    }

    fn idle_service(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.service_requests(comm, stack, cx);
    }

    fn absorb_pending(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        // Drain responses from victims we previously timed out on. A late
        // WORK grant is still work in hand — and its consumption is required
        // for the ring's sent/recv balance. Without a crash plan there is
        // one per abandoned request at most; under one, drain every queued
        // WORK unconditionally — a duplicated REQ can draw a second grant no
        // `pending_responses` count ever armed, and a consumed (+ ACKed)
        // duplicate is how the donor's lineage entry closes.
        let unsolicited = cx.recovery.active;
        if !unsolicited && self.pending_responses == 0 {
            return false;
        }
        let mut got = false;
        while let Some(m) = cx.recovery.try_recv(comm, &[TAG_WORK]) {
            self.pending_responses = self.pending_responses.saturating_sub(1);
            self.take_work(comm, stack, m, cx);
            got = true;
            if !unsolicited {
                self.timeout_backoff = TimeoutBackoff::default();
                return true;
            }
        }
        // With no request in flight, any NOWORK here is late.
        while (unsolicited || self.pending_responses > 0)
            && comm.try_recv(Some(TAG_NOWORK)).is_some()
        {
            self.pending_responses = self.pending_responses.saturating_sub(1);
        }
        got
    }

    fn deathbed(&mut self, _comm: &mut C, stack: &mut DfsStack<T>, _cx: &mut Cx) {
        // Fold every unacknowledged grant's payload copy back into the local
        // deque: it rides the spill, so even if both the WORK message and
        // its thief are gone the nodes survive. Unanswered requests in the
        // mailbox die with us — their senders re-probe or time out.
        self.ledger.drain_into(stack);
    }

    fn finish(&mut self, comm: &mut C, stack: &mut DfsStack<T>, _cx: &mut Cx) {
        // Premature-termination detector: the ring announced while this
        // thread still held work — impossible under a correct sent/recv
        // accounting.
        debug_assert!(
            stack.is_local_empty(),
            "thread {} terminated holding {} local nodes",
            comm.my_id(),
            stack.local_len()
        );
        // Late requests may still sit in the mailbox; they are unanswerable
        // and harmless (their senders terminated through the same
        // announcement).
        while comm.try_recv(None).is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Algorithm, RunConfig};
    use crate::engine::run_sim;
    use crate::taskgen::UtsGen;
    use pgas::{FaultPlan, MachineModel};
    use uts_tree::presets;

    /// Under seeded fault schedules with the request timeout armed, every
    /// run still counts the tree exactly, and at least one schedule in the
    /// sweep actually exercises the timeout/re-probe path (so the late-grant
    /// and late-denial drains are not dead code).
    #[test]
    fn timeout_reprobe_conserves_nodes_under_faults() {
        let p = presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        let mut total_timeouts = 0u64;
        for seed in 0..6u64 {
            let mut cfg = RunConfig::new(Algorithm::MpiWs, 2);
            cfg.faults = FaultPlan::seeded(seed);
            cfg.steal_timeout_ns = Some(25_000);
            let report = run_sim(MachineModel::kittyhawk(), 6, &gen, &cfg);
            assert_eq!(
                report.total_nodes, p.expected.nodes,
                "seed {seed}: lost/duplicated nodes under faults"
            );
            total_timeouts += report
                .per_thread
                .iter()
                .map(|t| t.steal_timeouts)
                .sum::<u64>();
        }
        assert!(
            total_timeouts > 0,
            "no fault schedule fired a steal timeout — hardening untested"
        );
    }

    /// Faulted, timeout-armed runs are bit-deterministic: the whole
    /// per-thread counter set matches across repeated runs.
    #[test]
    fn faulted_timeout_runs_are_deterministic() {
        let p = presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        let mut cfg = RunConfig::new(Algorithm::MpiWs, 2);
        cfg.faults = FaultPlan::seeded(3);
        cfg.steal_timeout_ns = Some(25_000);
        let a = run_sim(MachineModel::kittyhawk(), 6, &gen, &cfg);
        let b = run_sim(MachineModel::kittyhawk(), 6, &gen, &cfg);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        for (x, y) in a.per_thread.iter().zip(&b.per_thread) {
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.steal_timeouts, y.steal_timeouts);
            assert_eq!(x.steal_retries, y.steal_retries);
            assert_eq!(x.timeout_backoff_ns, y.timeout_backoff_ns);
        }
    }
}
