//! `mpi-ws` (§3.2): the message-passing work-stealing baseline of
//! Dinan et al. (PMEO-PDS'07), reproduced over the [`mpisim`] layer.
//!
//! Stealing is a two-sided message exchange: an idle thread sends a steal
//! request; working threads poll for requests "at an interval set by a
//! user-supplied parameter" and answer with a chunk of work or a denial.
//! Global quiescence is detected with the counting token ring
//! ([`crate::sched::termination::RingTerm`] over [`mpisim::TokenRing`]).
//!
//! Contrast with `upc-distmem`: the victim must assemble and *send* the
//! chunk (two-sided), whereas UPC lets the thief pull it one-sidedly while
//! the victim keeps exploring. The compensating advantage the paper notes —
//! "a clear advantage in not using any remote locking operations" — applies
//! here too: there are no locks anywhere in this implementation.
//!
//! The grant size per request message comes from the bundle's
//! [`StealPolicy`]: the paper baseline sends one chunk per grant, and the
//! same transport ships multi-chunk grants for the half/adaptive policies
//! (the surplus beyond the keep-threshold is what's divisible).
//!
//! [`StealPolicy`]: crate::sched::policy::StealPolicy

use pgas::comm::Item;
use pgas::Comm;

use crate::recovery::{Lineage, TAG_ACK};
use crate::sched::policy::{StealPolicy, StealPolicyKind};
use crate::sched::{Cx, StealOutcome, StealTransport};
use crate::stack::DfsStack;
use crate::watchdog::Watchdog;

/// Steal request (meta unused).
pub const TAG_REQ: i64 = 1;
/// Work grant; payload carries the chunk(s).
pub const TAG_WORK: i64 = 2;
/// Denial.
pub const TAG_NOWORK: i64 = 3;

/// Backoff while awaiting a steal response.
const RESPONSE_BACKOFF_NS: u64 = 2_000;
/// Backoff between idle-loop iterations.
const IDLE_BACKOFF_NS: u64 = 5_000;
/// Initial post-timeout backoff; doubles per consecutive timeout up to
/// [`TIMEOUT_BACKOFF_MAX_NS`], resets on a successful steal.
const TIMEOUT_BACKOFF_MIN_NS: u64 = 4_000;
/// Cap on the post-timeout exponential backoff.
const TIMEOUT_BACKOFF_MAX_NS: u64 = 512_000;

/// §3.2's two-sided request/grant message exchange as a [`StealTransport`].
///
/// Carries the cumulative WORK-message counts the termination token needs
/// ([`StealTransport::ring_counts`]) and, with the steal timeout armed
/// (`docs/faults.md`), the count of responses still outstanding from victims
/// we abandoned. Grants are counted by the token ring, so a late WORK
/// message *must* eventually be consumed — [`StealTransport::absorb_pending`]
/// does that — or the ring would never balance. The count stays 0 (and the
/// drain is never even probed) unless `cfg.steal_timeout_ns` is armed.
///
/// Under a crash-fault plan (`docs/faults.md`) the transport additionally
/// runs the lineage protocol: every WORK grant is registered in a
/// [`Lineage`] with a payload copy and its id stamped into `meta[0]`; the
/// thief acknowledges with [`TAG_ACK`] after marking itself working; grants
/// never acknowledged (lost WORK, lost ACK, dead thief) are re-injected
/// onto the donor's own stack. None of this issues a single operation
/// without a crash class active.
///
/// Fenced membership (`docs/faults.md` §8): every crash-mode message also
/// carries the sender's incarnation in `meta[3]`; traffic from an
/// incarnation below the receiver's admission floor for that rank is
/// dropped (counted in `fenced_drops`), so an evicted zombie cannot feed
/// stale grants, requests, or ACKs into the new membership view.
#[derive(Clone, Debug)]
pub struct MpiTransport<T> {
    sp: StealPolicyKind,
    /// Responses still outstanding from victims we timed out on.
    pending_responses: usize,
    /// Exponential backoff across consecutive steal timeouts.
    timeout_backoff: u64,
    /// Cumulative WORK messages sent (for the termination token).
    work_sent: i64,
    /// Cumulative WORK messages received (for the termination token).
    work_recv: i64,
    /// Donor-side grant registry (crash mode only; empty otherwise).
    lineage: Lineage<T>,
    /// Whether the run's fault plan has a crash class active.
    crash: bool,
    /// Service mode's task→epoch extractor (see
    /// [`StealTransport::arm_service`]); `None` in batch runs.
    epoch_of: Option<fn(&T) -> u32>,
}

impl<T: Item> MpiTransport<T> {
    /// An mpi-ws transport granting per the given steal policy.
    pub fn new(sp: StealPolicyKind) -> MpiTransport<T> {
        MpiTransport {
            sp,
            pending_responses: 0,
            timeout_backoff: TIMEOUT_BACKOFF_MIN_NS,
            work_sent: 0,
            work_recv: 0,
            lineage: Lineage::new(),
            crash: false,
            epoch_of: None,
        }
    }

    /// Crash mode: mark ourselves working (and, in service mode, put the
    /// absorbed items on our per-epoch books), then acknowledge grant `m`
    /// so the donor can close its lineage entry. Working/absorb-before-ACK
    /// is the ordering both quiescence scans' soundness rests on: the
    /// donor's `−items` can only follow our `+items`.
    fn crash_ack_work<C: Comm<T>>(
        &mut self,
        comm: &mut C,
        src: usize,
        grant_id: i64,
        payload: &[T],
        cx: &mut Cx,
    ) {
        if self.crash {
            cx.recovery.publish_working(comm);
            if let Some(ep) = self.epoch_of {
                cx.svc.bump_items(comm, payload, ep, 1);
            }
            comm.send(src, TAG_ACK, [grant_id, 0, 0, cx.recovery.incarnation()], &[]);
        }
    }

    /// Answer every queued steal request: chunks of the oldest local nodes
    /// if we hold a comfortable surplus, a denial otherwise. The keep
    /// threshold is `release_depth.max(2k)`; the policy sizes its grant from
    /// the spare chunks above it, shipped as one message.
    fn service_requests<C>(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx)
    where
        C: Comm<T>,
    {
        self.lineage.service(comm, stack, cx, self.epoch_of);
        while let Some(req) = comm.try_recv(Some(TAG_REQ)) {
            if self.crash {
                if !cx.recovery.admit(req.src, req.meta[3]) {
                    cx.res.fenced_drops += 1;
                    continue; // a fenced incarnation's request is void
                }
                if cx.recovery.is_gone(req.src) {
                    continue; // a dead or evicted thief cannot consume a grant
                }
            }
            let threshold = cx.cfg.release_depth.max(2 * stack.k);
            if stack.local_len() >= threshold {
                let spare = (stack.local_len() - threshold) / stack.k + 1;
                let give = self.sp.amount(spare).clamp(1, spare);
                let mut payload = Vec::with_capacity(give * stack.k);
                for _ in 0..give {
                    payload.extend_from_slice(&stack.take_bottom_chunk());
                }
                let meta = if self.crash {
                    // Grant-before-send: the lineage entry (and the LIN_OUT
                    // marker it raises) must exist before the message can.
                    let id = self.lineage.open(comm, req.src, &payload);
                    [id as i64, 0, 0, cx.recovery.incarnation()]
                } else {
                    [0; 4]
                };
                comm.send(req.src, TAG_WORK, meta, &payload);
                self.work_sent += 1;
                cx.res.requests_serviced += 1;
                cx.log.release(comm.now());
            } else {
                let meta = if self.crash {
                    [0, 0, 0, cx.recovery.incarnation()]
                } else {
                    [0; 4]
                };
                comm.send(req.src, TAG_NOWORK, meta, &[]);
            }
        }
    }
}

impl<T: Item, C: Comm<T>> StealTransport<T, C> for MpiTransport<T> {
    const NAME: &'static str = "mpi-ws";
    const IDLE_BACKOFF_NS: u64 = IDLE_BACKOFF_NS;

    fn init(&mut self, _comm: &mut C, cx: &mut Cx) {
        self.crash = cx.recovery.active;
    }

    fn arm_service(&mut self, epoch_of: fn(&T) -> u32) {
        self.epoch_of = Some(epoch_of);
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
        let req_meta = if self.crash {
            [0, 0, 0, cx.recovery.incarnation()]
        } else {
            [0; 4]
        };
        comm.send(victim, TAG_REQ, req_meta, &[]);
        // Await WORK or NOWORK, staying responsive to requests and to a
        // termination announcement racing with our request: the ring can
        // complete while our (uncounted) request is in flight, and the
        // victim may already have exited — without the TERM check we would
        // wait forever. A WORK grant cannot race this way because grants
        // are counted by the token.
        let deadline = cx.cfg.steal_timeout_ns.map(|d| comm.now() + d);
        let mut dog = Watchdog::new("mpi-ws steal response wait");
        loop {
            dog.tick();
            if let Some(m) = comm.try_recv(Some(TAG_WORK)) {
                if self.crash && !cx.recovery.admit(m.src, m.meta[3]) {
                    // A fenced incarnation's grant: drop it unconsumed and
                    // un-ACKed. The zombie's own lineage copy keeps the
                    // payload alive (it folds on refence), so nothing is
                    // lost — only possibly duplicated.
                    cx.res.fenced_drops += 1;
                    continue;
                }
                // Work in hand, whether from `victim` or a late grant from
                // an earlier timed-out victim. In the late case one
                // outstanding response was consumed while `victim`'s becomes
                // outstanding, so `pending_responses` is unchanged either
                // way (we abandon `victim`'s response by returning).
                self.work_recv += 1;
                self.crash_ack_work(comm, m.src, m.meta[0], &m.payload, cx);
                stack.push_all(&m.payload);
                cx.res.steals_ok += 1;
                cx.res.chunks_stolen += (m.payload.len() / stack.k.max(1)) as u64;
                cx.log.steal_ok(m.src, 1, comm.now());
                self.timeout_backoff = TIMEOUT_BACKOFF_MIN_NS;
                return StealOutcome::Got;
            }
            if let Some(m) = comm.try_recv(Some(TAG_NOWORK)) {
                if self.crash && !cx.recovery.admit(m.src, m.meta[3]) {
                    cx.res.fenced_drops += 1;
                    continue;
                }
                if m.src != victim {
                    // A late denial from an earlier timed-out victim; keep
                    // waiting for the answer of `victim`.
                    self.pending_responses = self.pending_responses.saturating_sub(1);
                    continue;
                }
                cx.res.steals_failed += 1;
                cx.log.steal_fail(victim, comm.now());
                return StealOutcome::Denied;
            }
            if comm.has_msg(Some(mpisim::tags::TERM)) {
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
                    cx.log.steal_timeout(victim, comm.now());
                    self.pending_responses += 1;
                    return StealOutcome::TimedOut;
                }
            }
            self.service_requests(comm, stack, cx);
            comm.advance_idle(RESPONSE_BACKOFF_NS);
        }
    }

    fn after_timeout(&mut self, comm: &mut C, cx: &mut Cx) {
        cx.res.timeout_backoff_ns += self.timeout_backoff;
        comm.advance_idle(self.timeout_backoff);
        self.timeout_backoff = (self.timeout_backoff * 2).min(TIMEOUT_BACKOFF_MAX_NS);
    }

    fn idle_service(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.service_requests(comm, stack, cx);
    }

    fn absorb_pending(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        if self.crash {
            // Crash mode: drain every queued WORK unconditionally — a
            // duplicated REQ can draw a second grant no `pending_responses`
            // count ever armed, and a consumed (+ ACKed) duplicate is how
            // the donor's lineage entry closes.
            let mut got = false;
            while let Some(m) = comm.try_recv(Some(TAG_WORK)) {
                self.pending_responses = self.pending_responses.saturating_sub(1);
                if !cx.recovery.admit(m.src, m.meta[3]) {
                    cx.res.fenced_drops += 1;
                    continue; // fenced grant: the zombie's lineage copy survives
                }
                self.work_recv += 1;
                self.crash_ack_work(comm, m.src, m.meta[0], &m.payload, cx);
                stack.push_all(&m.payload);
                cx.res.steals_ok += 1;
                cx.res.chunks_stolen += (m.payload.len() / stack.k.max(1)) as u64;
                cx.log.steal_ok(m.src, 1, comm.now());
                got = true;
            }
            while comm.try_recv(Some(TAG_NOWORK)).is_some() {
                self.pending_responses = self.pending_responses.saturating_sub(1);
            }
            return got;
        }
        // Drain responses from victims we previously timed out on. A late
        // WORK grant is still work in hand — and its consumption is required
        // for the ring's sent/recv balance.
        if self.pending_responses == 0 {
            return false;
        }
        if let Some(m) = comm.try_recv(Some(TAG_WORK)) {
            self.pending_responses -= 1;
            self.work_recv += 1;
            stack.push_all(&m.payload);
            cx.res.steals_ok += 1;
            cx.res.chunks_stolen += (m.payload.len() / stack.k.max(1)) as u64;
            cx.log.steal_ok(m.src, 1, comm.now());
            self.timeout_backoff = TIMEOUT_BACKOFF_MIN_NS;
            return true;
        }
        // With no request in flight, any NOWORK here is late.
        while self.pending_responses > 0 && comm.try_recv(Some(TAG_NOWORK)).is_some() {
            self.pending_responses -= 1;
        }
        false
    }

    fn ring_counts(&self) -> (i64, i64) {
        (self.work_sent, self.work_recv)
    }

    fn inflight(&self) -> usize {
        self.lineage.len()
    }

    fn deathbed(&mut self, _comm: &mut C, stack: &mut DfsStack<T>, _cx: &mut Cx) {
        // Fold every unacknowledged grant's payload copy back into the local
        // deque: it rides the spill, so even if both the WORK message and
        // its thief are gone the nodes survive. Unanswered requests in the
        // mailbox die with us — their senders re-probe or time out.
        self.lineage.drain_into(stack);
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
        mpisim::drain_mailbox(comm);
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
