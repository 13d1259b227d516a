//! Termination-detection policies: how an out-of-work thread discovers more
//! work or proves global quiescence.
//!
//! Three detectors cover the paper's spectrum:
//!
//! - [`CancelableTerm`] (§3.1): enter a cancelable barrier after every
//!   unsuccessful probe sweep; any release resets the barrier.
//! - [`StreamlinedTerm`] (§3.3.1): enter the barrier only when a full sweep
//!   saw every other thread out of work (the tri-state reading of
//!   `work_avail`), keep probing one victim per spin from inside, announce
//!   termination down a binary tree.
//! - [`RingTerm`] (§3.2): Dinan et al.'s counting token ring over message
//!   transports — no shared counters at all.
//!
//! Each detector drives the transport through the same narrow hook set
//! ([`StealTransport`]), so any probing detector composes with any
//! shared-region transport and the ring with any message transport.
//!
//! None of the three survives a missing rank or a lost message, and none
//! can end a run that keeps receiving work. Those modes — crash-fault batch
//! runs and service mode — share [`idle_discover`], the recovery-aware idle
//! loop, and differ only in the detector's idle hooks. The loop calls the
//! detector's `tick` after every probe, not once per sweep: a sweep is
//! p − 1 remote reads (378 µs at p=64 on Kitty Hawk), and the paper's own
//! rule for a thread with periodic duties is to look at one other thread at
//! a time (§3.3.1's in-barrier probe, §3.3.3's poll between nodes).

use pgas::comm::Item;
use pgas::Comm;

use mpisim::TokenRing;

use crate::barrier::{
    BarrierOutcome, CancelableBarrier, TerminationBarrier, BARRIER_BACKOFF_NS,
};
use crate::probe::ProbeOrder;
use crate::recovery::CRASH_IDLE_BACKOFF_NS;
use crate::stack::DfsStack;
use crate::state::State;
use crate::trace::Event;
use crate::vars;

use super::{Cx, Discovery, StealOutcome, StealTransport, SweepService};

/// The crash-recovery duties of an idle rank (no-op without a crash plan):
/// heartbeat (with the piggybacked self-fence check), membership scan (death
/// confirmation, quorum eviction, re-admission), eviction scavenge, orphan
/// adoption. Returns `true` when it left work on `stack`.
fn recover<T: Item, C: Comm<T>, ST: StealTransport<T, C>>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    transport: &mut ST,
    cx: &mut Cx,
) -> bool {
    if !cx.recovery.active {
        return false;
    }
    cx.recovery.heartbeat(comm);
    if cx.recovery.is_fenced() {
        // Our tenancy was revoked while we were stalled (partition or gray
        // freeze): fold what the old incarnation held and re-enter as a new
        // one.
        super::refence(comm, stack, transport, cx);
        if !stack.is_local_empty() {
            return true;
        }
    }
    cx.recovery.scan(comm);
    // Evictions this rank just executed: reclaim what the transport can
    // take over race-free, then release the scavenge guard opened at the
    // quorum vote.
    while let Some(victim) = cx.recovery.take_scavenge() {
        let items = transport.scavenge(comm, stack, victim, cx);
        cx.res.scavenged_nodes += items;
        cx.log.emit(Event::Evict { t_ns: comm.now(), victim, items });
        if items > 0 {
            // Working-before-unguard (see crate::recovery).
            cx.recovery.publish_working(comm);
        }
        cx.recovery.guard_end(comm);
        if items > 0 {
            transport.got_work(comm);
            return true;
        }
    }
    if let Some((dead, items)) = cx.recovery.try_adopt(comm, stack) {
        cx.res.recovered_nodes += items;
        cx.log.emit(Event::Adopt { t_ns: comm.now(), dead, items });
        transport.got_work(comm);
        return true;
    }
    false
}

/// The recovery-aware idle loop (see the module docs): an idle rank keeps
/// stealing, stays responsive to requests and interleaves the crash-recovery
/// duties; `td`'s idle hooks say when it may stop, what else it owes each
/// iteration and how it paces itself.
pub(crate) fn idle_discover<T, C, ST, TD>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    transport: &mut ST,
    victims: &mut ProbeOrder,
    cx: &mut Cx,
    td: &mut TD,
) -> Discovery
where
    T: Item,
    C: Comm<T>,
    ST: StealTransport<T, C>,
    TD: TerminationDetector<T, C> + ?Sized,
{
    cx.enter(comm, State::Searching);
    cx.recovery.publish_out(comm);
    let (base, cap) = td.idle_backoff(comm.my_id(), ST::IDLE_BACKOFF_NS);
    let mut backoff = base;
    // Message transports ask one victim per iteration, walking a cycle that
    // outlives the iteration but not this idle episode.
    let blind = ST::STEALS && !ST::SWEEP.probes();
    if blind {
        if TD::EAGER_CYCLE {
            victims.cycle();
        } else {
            victims.abandon();
        }
    }
    loop {
        if cx.recovery.kill_due(comm.now()) {
            return Discovery::Died;
        }
        td.tick(comm, stack, cx);
        transport.idle_service(comm, stack, cx);
        if transport.absorb_pending(comm, stack, cx) || !stack.is_local_empty() {
            cx.recovery.publish_working(comm);
            transport.got_work(comm);
            return Discovery::GotWork;
        }
        if td.done_before_steal(comm) {
            return Discovery::Terminated;
        }
        let mut saw_work = false;
        if ST::SWEEP.probes() {
            // Sweep the live victims, stealing where surplus shows — each
            // steal wrapped in a `LIN_OUT` guard so quiescence can never
            // slip between the victim's counter update and the thief's
            // working marker.
            for &v in victims.cycle() {
                let v = v as usize;
                if cx.recovery.is_gone(v) {
                    continue;
                }
                cx.res.probes += 1;
                if comm.get(v, vars::WORK_AVAIL) > 0 {
                    saw_work = true;
                    cx.enter(comm, State::Stealing);
                    cx.recovery.guard_begin(comm);
                    let outcome = transport.steal(comm, stack, v, cx);
                    if outcome == StealOutcome::Got {
                        // Working-before-unguard (see crate::recovery).
                        cx.recovery.publish_working(comm);
                    }
                    cx.recovery.guard_end(comm);
                    cx.enter(comm, State::Searching);
                    match outcome {
                        StealOutcome::Got => {
                            transport.got_work(comm);
                            return Discovery::GotWork;
                        }
                        StealOutcome::TimedOut => transport.after_timeout(comm, cx),
                        StealOutcome::Denied | StealOutcome::TermRaced => {}
                    }
                }
                transport.idle_service(comm, stack, cx);
                // The detector's periodic duties cannot wait out the sweep
                // (module docs); a tick that injected work ends it.
                td.tick(comm, stack, cx);
                if !stack.is_local_empty() {
                    cx.recovery.publish_working(comm);
                    transport.got_work(comm);
                    return Discovery::GotWork;
                }
            }
        } else if blind {
            if let Some(v) = victims.next() {
                if !cx.recovery.is_gone(v) {
                    // The transport itself publishes the working marker and
                    // ACKs before any counter clears.
                    cx.res.probes += 1;
                    cx.enter(comm, State::Stealing);
                    let outcome = transport.steal(comm, stack, v, cx);
                    cx.enter(comm, State::Searching);
                    match outcome {
                        StealOutcome::Got => {
                            cx.recovery.publish_working(comm);
                            transport.got_work(comm);
                            return Discovery::GotWork;
                        }
                        StealOutcome::TimedOut => {
                            // Someone was too busy to answer: work sighted.
                            saw_work = true;
                            transport.after_timeout(comm, cx);
                        }
                        StealOutcome::Denied | StealOutcome::TermRaced => {}
                    }
                }
            }
        }
        if recover(comm, stack, transport, cx) {
            return Discovery::GotWork;
        }
        let inflight = transport.ledger().map_or(0, |l| l.len());
        if td.done_after_recovery(comm, inflight, cx) {
            return Discovery::Terminated;
        }
        backoff = if saw_work { base } else { (backoff * 2).min(cap) };
        comm.advance_idle(backoff);
    }
}

/// How an idle worker finds more work or detects global termination — the
/// §3.1 → §3.3.1 → §3.2 policy axis.
///
/// The paper's detectors implement `discover` (and §3.1 `on_release`); every
/// other hook defaults to a no-op that issues no [`Comm`] operation, or to
/// the crash-mode batch answer. Service mode's epoch detector
/// ([`crate::service`]) is the one that overrides them.
pub trait TerminationDetector<T: Item, C: Comm<T>> {
    /// [`idle_discover`], message transports: draw the first victim cycle on
    /// entry, or only once a steal needs it. (The draw advances the victim
    /// RNG, so the two are different schedules.)
    const EAGER_CYCLE: bool = true;

    /// Called once, before [`StealTransport::init`]. Returns whether rank 0
    /// starts with the workload's root — the batch rule; a detector that
    /// injects its own work says no.
    fn start<ST: StealTransport<T, C>>(
        &mut self,
        _comm: &mut C,
        _transport: &mut ST,
        _cx: &mut Cx,
    ) -> bool {
        true
    }

    /// Top of every working-loop iteration (after the crash checks, before
    /// the next node is popped) and of every [`idle_discover`] iteration,
    /// and after every probe of an [`idle_discover`] sweep. May push work
    /// onto `stack` (service injection); batch detectors do nothing here.
    fn tick(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {}

    /// `tasks` were just expanded into `kids` children, none of which is on
    /// the stack — so none can have migrated — yet. One task, but for a
    /// placing workload's batch ([`super::drive`]).
    fn on_expand(&mut self, _comm: &mut C, _tasks: &[T], _kids: usize, _cx: &mut Cx) {}

    /// The owner released one chunk of surplus ([`super::drive`]'s release
    /// rule); detectors whose protocol must observe releases (the cancelable
    /// barrier) react here.
    fn on_release(&mut self, _comm: &mut C) {}

    /// [`idle_discover`]'s backoff for rank `me`, as `(base, cap)`: `base`
    /// after an iteration that sighted work, doubling up to `cap` otherwise
    /// (so `cap == base` is constant). `floor` is the transport's own
    /// [`StealTransport::IDLE_BACKOFF_NS`].
    fn idle_backoff(&self, _me: usize, _floor: u64) -> (u64, u64) {
        (CRASH_IDLE_BACKOFF_NS, CRASH_IDLE_BACKOFF_NS)
    }

    /// [`idle_discover`]'s exit check once no work is in hand, before the
    /// steal step.
    fn done_before_steal(&mut self, _comm: &mut C) -> bool {
        false
    }

    /// [`idle_discover`]'s exit check after the recovery duties found
    /// nothing to take over; `inflight` counts the open grants of the
    /// transport's [`StealTransport::ledger`]. The
    /// default is crash-mode batch termination, the same for all three paper
    /// detectors: rank 0 runs the double scan and broadcasts, everyone else
    /// watches its `TERM` cell.
    fn done_after_recovery(&mut self, comm: &mut C, inflight: usize, cx: &mut Cx) -> bool {
        let done = if comm.my_id() == 0 {
            cx.recovery.quiescence_check(comm)
        } else {
            cx.recovery.term_seen(comm)
        };
        // A rank may not exit while it alone holds open lineage payloads (a
        // fenced zombie's pushes to already-exited ranks land in mailboxes no
        // one drains); the periodic lineage service re-injects them within
        // REINJECT_TIMEOUT_NS and the next iteration finds the work.
        done && inflight == 0
    }

    /// The worker is out of local and shared work: probe, steal, or park
    /// until either work is in hand or termination is proven. On
    /// [`Discovery::GotWork`] the transport has already placed work on
    /// `stack`. The paper's detectors each run their own protocol here; the
    /// default is [`idle_discover`], which is also what [`super::drive`]
    /// runs in their place under a crash plan.
    fn discover<ST: StealTransport<T, C>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        transport: &mut ST,
        victims: &mut ProbeOrder,
        cx: &mut Cx,
    ) -> Discovery {
        idle_discover(comm, stack, transport, victims, cx, self)
    }
}

/// Result of one full probe sweep over a victim cycle.
enum Sweep {
    /// A steal landed: work is on the stack.
    Stole,
    /// Every probed thread advertised "out of work" (§3.3.1's entry
    /// condition for the termination barrier).
    AllOut,
    /// At least one thread was still working (or a steal raced and failed).
    SomeWorking,
}

/// One probe cycle over every victim: examine advertised work levels without
/// locking (§3.1), steal where surplus shows, and keep the transport's
/// protocol responsive between probes.
///
/// Where the idle service between probes is data ([`SweepService`]), the
/// cycle's reads — each victim's `WORK_AVAIL` and the service's own read
/// after it — are one [`Comm::probe_cycle`], and the sweep acts only at the
/// read that stops it: a steal at a victim showing surplus, the rest of the
/// service at a pending request. A placing workload's service is not data,
/// and runs after every probe.
fn sweep<T, C, ST>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    transport: &mut ST,
    victims: &mut ProbeOrder,
    cx: &mut Cx,
) -> Sweep
where
    T: Item,
    C: Comm<T>,
    ST: StealTransport<T, C>,
{
    let mut all_out = true;
    let victims = victims.cycle();
    if matches!(ST::SWEEP, SweepService::Opaque) {
        for &v in victims {
            let v = v as usize;
            cx.res.probes += 1;
            let avail = comm.get(v, vars::WORK_AVAIL);
            if avail > 0 {
                cx.enter(comm, State::Stealing);
                if transport.steal(comm, stack, v, cx) == StealOutcome::Got {
                    return Sweep::Stole;
                }
                cx.enter(comm, State::Searching);
                all_out = false; // it had work a moment ago
            } else if avail == 0 {
                all_out = false; // working, no surplus (§3.3.1 tri-state)
            }
            transport.idle_service(comm, stack, cx);
            if !stack.is_local_empty() {
                return Sweep::Stole; // a hand-off landed (sched::placement)
            }
        }
    } else {
        let own = ST::SWEEP.own();
        // Read `step·i` probes victim `i`; with an own read, the one after it
        // is the service's.
        let step = 1 + usize::from(own.is_some());
        let mut start = 0;
        loop {
            let cycle = comm.probe_cycle(victims, start, vars::WORK_AVAIL, own);
            let end = start + cycle.reads;
            cx.res.probes += (end.div_ceil(step) - start.div_ceil(step)) as u64;
            // A victim working without surplus (§3.3.1 tri-state).
            all_out &= !cycle.saw_zero;
            let Some((read, value)) = cycle.stop else {
                break;
            };
            if read % step == 0 {
                cx.enter(comm, State::Stealing);
                let v = victims[read / step] as usize;
                if transport.steal(comm, stack, v, cx) == StealOutcome::Got {
                    return Sweep::Stole;
                }
                cx.enter(comm, State::Searching);
                all_out = false; // it had work a moment ago
            } else {
                transport.serve(comm, stack, cx, value);
            }
            start = read + 1;
        }
    }
    if all_out {
        Sweep::AllOut
    } else {
        Sweep::SomeWorking
    }
}

/// §3.3.1 in-barrier loop: spin on our local termination flag, probe a
/// single victim per iteration ("each thread that has entered the barrier
/// only inspects one other thread to avoid overwhelming the remaining
/// working threads"), leave the barrier to steal when one shows work.
/// Returns `true` on termination, `false` if we left with stolen work.
fn barrier_wait<T, C, ST>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    transport: &mut ST,
    victims: &mut ProbeOrder,
    cx: &mut Cx,
) -> bool
where
    T: Item,
    C: Comm<T>,
    ST: StealTransport<T, C>,
{
    if TerminationBarrier::enter(comm) {
        TerminationBarrier::announce_root(comm);
    }
    loop {
        if TerminationBarrier::term_seen(comm) {
            TerminationBarrier::propagate(comm);
            return true;
        }
        transport.idle_service(comm, stack, cx);
        if !stack.is_local_empty() {
            // A hand-off landed: leave before it may be acknowledged.
            TerminationBarrier::leave(comm);
            return false;
        }
        if let Some(v) = victims.one() {
            cx.res.probes += 1;
            if comm.get(v, vars::WORK_AVAIL) > 0 {
                TerminationBarrier::leave(comm);
                if transport.steal(comm, stack, v, cx) == StealOutcome::Got {
                    return false;
                }
                if TerminationBarrier::enter(comm) {
                    TerminationBarrier::announce_root(comm);
                }
            }
        }
        comm.advance_idle(BARRIER_BACKOFF_NS);
    }
}

/// §3.1 cancelable-barrier termination: enter the barrier after *any*
/// unsuccessful sweep; every release cancels it and sends waiters back out.
/// A release is one chunk ([`super::drive`]'s release rule), so each chunk
/// is exactly one cancel, as in the paper: four operations on thread 0's
/// partition, and one bump of the epoch wakes every waiter.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelableTerm;

impl<T: Item, C: Comm<T>> TerminationDetector<T, C> for CancelableTerm {
    fn on_release(&mut self, comm: &mut C) {
        // §3.1: every release resets the cancelable barrier so that waiting
        // threads come back for the fresh chunk.
        CancelableBarrier::cancel(comm);
    }

    fn discover<ST: StealTransport<T, C>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        transport: &mut ST,
        victims: &mut ProbeOrder,
        cx: &mut Cx,
    ) -> Discovery {
        cx.enter(comm, State::Searching);
        loop {
            if let Sweep::Stole = sweep(comm, stack, transport, victims, cx) {
                transport.got_work(comm);
                return Discovery::GotWork;
            }
            // §3.1: enter the barrier after any unsuccessful sweep.
            cx.enter(comm, State::Terminating);
            match CancelableBarrier::wait_with(comm, |c| {
                transport.idle_service(c, stack, cx);
                !stack.is_local_empty()
            }) {
                BarrierOutcome::Terminated => return Discovery::Terminated,
                // Left with a hand-off (sched::placement).
                BarrierOutcome::Canceled if !stack.is_local_empty() => {
                    transport.got_work(comm);
                    return Discovery::GotWork;
                }
                BarrierOutcome::Canceled => cx.enter(comm, State::Searching),
            }
        }
    }
}

/// §3.3.1 streamlined termination: full-cycle entry condition, in-barrier
/// probing on local flags, tree-based announcement.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamlinedTerm;

impl<T: Item, C: Comm<T>> TerminationDetector<T, C> for StreamlinedTerm {
    fn discover<ST: StealTransport<T, C>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        transport: &mut ST,
        victims: &mut ProbeOrder,
        cx: &mut Cx,
    ) -> Discovery {
        cx.enter(comm, State::Searching);
        loop {
            match sweep(comm, stack, transport, victims, cx) {
                Sweep::Stole => {
                    transport.got_work(comm);
                    return Discovery::GotWork;
                }
                // §3.3.1: "If it finds even a single thread still working,
                // it continues searching for work and does not enter the
                // barrier."
                Sweep::SomeWorking => continue,
                Sweep::AllOut => {
                    cx.enter(comm, State::Terminating);
                    if barrier_wait(comm, stack, transport, victims, cx) {
                        return Discovery::Terminated;
                    }
                    // Stole work from inside the barrier: back to work.
                    transport.got_work(comm);
                    return Discovery::GotWork;
                }
            }
        }
    }
}

/// §3.2 counting token ring ([`TokenRing`]): termination is proven when the
/// token completes two clean passes with globally balanced transfer-message
/// counts. With a stealing transport the detector interleaves one steal
/// attempt per ring step (Dinan et al.'s structure); with a pushing
/// transport ([`StealTransport::STEALS`] = `false`) idle threads simply
/// alternate mailbox absorption with ring steps.
#[derive(Debug)]
pub struct RingTerm {
    ring: TokenRing,
}

impl RingTerm {
    /// Ring membership for thread `me` of `n`.
    pub fn new(me: usize, n: usize) -> RingTerm {
        RingTerm {
            ring: TokenRing::new(me, n),
        }
    }
}

/// The cumulative (sent, received) transfer counts the token carries.
fn ring_counts<T: Item, C: Comm<T>, ST: StealTransport<T, C>>(transport: &mut ST) -> (i64, i64) {
    transport.ledger().map_or((0, 0), |l| l.counts())
}

impl<T: Item, C: Comm<T>> TerminationDetector<T, C> for RingTerm {
    fn discover<ST: StealTransport<T, C>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        transport: &mut ST,
        victims: &mut ProbeOrder,
        cx: &mut Cx,
    ) -> Discovery {
        if !ST::STEALS {
            // Work pushing: idle threads have no initiative — park in
            // Terminating, absorbing pushed chunks between ring steps.
            cx.enter(comm, State::Terminating);
            loop {
                transport.idle_service(comm, stack, cx);
                if transport.absorb_pending(comm, stack, cx) || !stack.is_local_empty() {
                    return Discovery::GotWork;
                }
                let (sent, recv) = ring_counts(transport);
                if self.ring.step(comm, sent, recv) {
                    return Discovery::Terminated;
                }
                comm.advance_idle(ST::IDLE_BACKOFF_NS);
            }
        }

        // Stealing transport: one victim per iteration, alternating with
        // termination-token handling (Dinan et al. interleave the same way):
        // at large thread counts a full probe sweep between token steps
        // would park the token for thousands of messages.
        cx.enter(comm, State::Searching);
        victims.cycle();
        loop {
            // Deny whatever arrived while we were idle.
            transport.idle_service(comm, stack, cx);
            // Late grants from timed-out victims, and hand-offs, are still
            // work in hand.
            if transport.absorb_pending(comm, stack, cx) || !stack.is_local_empty() {
                return Discovery::GotWork;
            }
            let Some(v) = victims.next() else {
                // Solo rank: nothing to steal from; go straight to the ring.
                cx.enter(comm, State::Terminating);
                let (sent, recv) = ring_counts(transport);
                if self.ring.step(comm, sent, recv) {
                    return Discovery::Terminated;
                }
                cx.enter(comm, State::Searching);
                continue;
            };
            cx.res.probes += 1;
            cx.enter(comm, State::Stealing);
            let outcome = transport.steal(comm, stack, v, cx);
            cx.enter(comm, State::Searching);
            match outcome {
                StealOutcome::Got => return Discovery::GotWork,
                StealOutcome::TimedOut => {
                    // Back off, then re-probe the next victim directly — no
                    // ring step: the timed-out request proves nothing about
                    // global quiescence.
                    transport.after_timeout(comm, cx);
                    continue;
                }
                StealOutcome::Denied | StealOutcome::TermRaced => {
                    cx.enter(comm, State::Terminating);
                    if outcome == StealOutcome::TermRaced {
                        // The announcement already proves quiescence; the
                        // ring must not step again (the token is retired).
                        return Discovery::Terminated;
                    }
                    let (sent, recv) = ring_counts(transport);
                    if self.ring.step(comm, sent, recv) {
                        return Discovery::Terminated;
                    }
                    comm.advance_idle(ST::IDLE_BACKOFF_NS);
                    cx.enter(comm, State::Searching);
                }
            }
        }
    }
}
