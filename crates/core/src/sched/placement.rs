//! Owner placement: a ready task goes to the rank that owns it.
//!
//! A placing workload ([`TaskGen::PLACED`]) gives every task a home rank
//! ([`TaskGen::home`]) — for a DAG, the owner of its count-up cell. The rank
//! whose completion made a task ready keeps it only when the task is its own,
//! or when it keeps none and it is the task that rank would pop next (work
//! first: a rank that just emitted work does not go idle for it — its local
//! stack is empty, as [`super::drive`] expands a placing rank's whole local
//! region at once). Every other ready task is **handed off**: one message per
//! owner, [`TAG_HANDOFF`], sent by [`Placement::place`] — the one hand-off
//! send site. No layer is pulled back out of the two or three ranks that
//! finished the previous one by thieves: a placing rank releases nothing
//! ([`super::drive`]), so only `mpi-ws` victims, which grant from their local
//! region, still give placed work to thieves (docs/workloads.md §2.3).
//!
//! **The invariant.** A handed-off task belongs to its sender until the
//! owner acknowledges it, and the owner acknowledges only once it is marked
//! working and outside any barrier. No rank may publish out-of-work, enter a
//! barrier or step the token ring while a hand-off it sent is unacknowledged:
//! a rank whose local region runs dry first waits for its acknowledgements
//! ([`Placement::refill`]), taking in hand-offs meanwhile. So no detector can
//! see every rank idle while a task is in flight, and all three paper
//! detectors stay as they are. The owner takes hand-offs in wherever it
//! already services requests — the working loop's poll and the idle-service
//! point of every idle loop — and a detector that finds work on the stack
//! after an idle service leaves its barrier with it.
//!
//! **Under a crash plan** a hand-off is a transfer of the transport's
//! [`Lineage`] — the message transports' own, or one this layer keeps for the
//! shared-region transports: grant (a payload copy and the sender's
//! `LIN_OUT` raised), accept (the owner marks itself working, then ACKs),
//! close on the ACK, and re-inject when the ACK is overdue or the owner is
//! gone. A lost, duplicated, fenced or orphaned hand-off is re-emitted, and
//! conservation-with-multiplicity holds with the machinery already in place.
//! Without a crash plan the acknowledgement is a bare [`TAG_ACK`] and the
//! counts ride the same ledger, so the token ring counts hand-offs as it
//! counts grants.
//!
//! A workload that does not place (every tree) sees the transport alone:
//! every hook below forwards, and no operation is added.

use pgas::comm::Item;
use pgas::Comm;

use crate::recovery::{Lineage, TAG_ACK};
use crate::stack::DfsStack;
use crate::taskgen::TaskGen;
use crate::trace::Event;

use super::{Cx, StealOutcome, StealTransport, SweepService};

/// Ready tasks handed to their home rank; the payload is the tasks.
pub const TAG_HANDOFF: i64 = 20;

/// Backoff while a rank out of local work waits for its acknowledgements.
const ACK_BACKOFF_NS: u64 = 1_500;

/// Any transport, plus owner placement of `G`'s ready tasks (module docs).
/// Unless `G` places ([`TaskGen::PLACED`]), every hook is the inner
/// transport's alone.
#[derive(Debug)]
pub struct Placement<ST, G: TaskGen> {
    inner: ST,
    /// The transfer ledger of a transport that keeps none.
    own: Lineage<G::Task>,
    /// Without a crash plan: hand-offs sent and not yet acknowledged.
    open: usize,
    /// Without a crash plan: the senders of hand-offs taken in and not yet
    /// acknowledged, one entry per message.
    owed: Vec<usize>,
    /// Scratch: (home, task) of the ready tasks that leave.
    leaving: Vec<(usize, G::Task)>,
}

/// The ledger hand-offs go through: the transport's, or `own`.
fn book<'a, T: Item, C: Comm<T>, ST: StealTransport<T, C>>(
    inner: &'a mut ST,
    own: &'a mut Lineage<T>,
) -> &'a mut Lineage<T> {
    match inner.ledger() {
        Some(l) => l,
        None => own,
    }
}

impl<ST, G: TaskGen> Placement<ST, G> {
    /// Wrap `inner`.
    pub fn new(inner: ST) -> Placement<ST, G> {
        Placement {
            inner,
            own: Lineage::default(),
            open: 0,
            owed: Vec::new(),
            leaving: Vec::new(),
        }
    }

    /// Hand off every task of `ready` that is not this rank's to keep (module
    /// docs), leaving the kept ones in `ready` in their order.
    pub fn place<C>(&mut self, comm: &mut C, gen: &G, ready: &mut Vec<G::Task>, cx: &mut Cx)
    where
        C: Comm<G::Task>,
        ST: StealTransport<G::Task, C>,
    {
        let (me, n) = (comm.my_id(), comm.n_threads());
        let leaving = &mut self.leaving;
        ready.retain(|t| {
            let home = gen.home(t, n);
            let keep = home == me || cx.recovery.is_gone(home);
            if !keep {
                leaving.push((home, *t));
            }
            keep
        });
        if ready.is_empty() {
            ready.extend(leaving.pop().map(|(_, t)| t));
        }
        // Stable: each owner's tasks keep their priority order.
        leaving.sort_by_key(|&(home, _)| home);
        let mut payload = Vec::new();
        for group in leaving.chunk_by(|a, b| a.0 == b.0) {
            payload.clear();
            payload.extend(group.iter().map(|&(_, t)| t));
            let ledger = book::<_, C, ST>(&mut self.inner, &mut self.own);
            ledger.grant(comm, &cx.recovery, group[0].0, TAG_HANDOFF, &payload);
            self.open += usize::from(!cx.recovery.active);
            cx.res.handoffs += payload.len() as u64;
        }
        leaving.clear();
    }

    /// Acknowledge every hand-off taken in while idle. [`super::drive`] calls
    /// this on each entry to [`State::Working`]: the rank is marked working
    /// and has left any barrier.
    ///
    /// [`State::Working`]: crate::state::State::Working
    pub fn acknowledge<C: Comm<G::Task>>(&mut self, comm: &mut C) {
        for src in self.owed.drain(..) {
            comm.send(src, TAG_ACK, [0; 4], &[]);
        }
    }

    /// Take every hand-off in the mailbox onto `stack`.
    fn absorb<C>(&mut self, comm: &mut C, stack: &mut DfsStack<G::Task>, cx: &mut Cx)
    where
        C: Comm<G::Task>,
        ST: StealTransport<G::Task, C>,
    {
        while let Some(m) = cx.recovery.try_recv(comm, &[TAG_HANDOFF]) {
            book::<_, C, ST>(&mut self.inner, &mut self.own).accept(comm, cx, &m);
            if !cx.recovery.active {
                self.owed.push(m.src);
            }
            stack.push_all(&m.payload);
            let items = m.payload.len() as u64;
            cx.log.emit(Event::HandOff {
                t_ns: comm.now(),
                from: m.src,
                items,
            });
        }
    }

    /// The sender's side: count acknowledgements, or, under a crash plan,
    /// close and re-inject through the ledger this layer keeps (a message
    /// transport services its own).
    fn settle<C>(&mut self, comm: &mut C, stack: &mut DfsStack<G::Task>, cx: &mut Cx)
    where
        C: Comm<G::Task>,
        ST: StealTransport<G::Task, C>,
    {
        if cx.recovery.active {
            if StealTransport::<G::Task, C>::ledger(&mut self.inner).is_none() {
                self.own.service(comm, stack, cx);
            }
            return;
        }
        while self.open > 0 && comm.try_recv(Some(TAG_ACK)).is_some() {
            self.open -= 1;
        }
    }
}

impl<T, G, C, ST> StealTransport<T, C> for Placement<ST, G>
where
    T: Item,
    G: TaskGen<Task = T>,
    C: Comm<T>,
    ST: StealTransport<T, C>,
{
    const STEALS: bool = ST::STEALS;
    /// A placing rank's idle service also settles and absorbs hand-offs, so
    /// its sweep calls it after every probe.
    const SWEEP: SweepService = match ST::SWEEP {
        SweepService::Blind => SweepService::Blind,
        _ if G::PLACED => SweepService::Opaque,
        inner => inner,
    };
    const IDLE_BACKOFF_NS: u64 = ST::IDLE_BACKOFF_NS;

    fn init(&mut self, comm: &mut C, cx: &mut Cx) {
        self.inner.init(comm, cx);
    }

    fn ledger(&mut self) -> Option<&mut Lineage<T>> {
        if G::PLACED {
            Some(book::<T, C, ST>(&mut self.inner, &mut self.own))
        } else {
            StealTransport::<T, C>::ledger(&mut self.inner)
        }
    }

    /// The local region ran dry. Before the rank may go idle, every hand-off
    /// it sent must be acknowledged (the invariant): it waits, answering
    /// thieves and taking in hand-offs, which end the wait with work. The
    /// wait is still [`State::Working`], as a task's own round trips are.
    ///
    /// [`State::Working`]: crate::state::State::Working
    fn refill(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        if self.inner.refill(comm, stack, cx) {
            return true;
        }
        if !G::PLACED || self.open == 0 {
            return false;
        }
        loop {
            self.inner.idle_service(comm, stack, cx);
            self.settle(comm, stack, cx);
            self.absorb(comm, stack, cx);
            if !stack.is_local_empty() {
                self.acknowledge(comm);
                return true;
            }
            if self.open == 0 {
                return false;
            }
            comm.advance_idle(ACK_BACKOFF_NS);
        }
    }

    fn poll(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.inner.poll(comm, stack, cx);
        if G::PLACED {
            self.settle(comm, stack, cx);
            self.absorb(comm, stack, cx);
            self.acknowledge(comm);
        }
    }

    fn maybe_release(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        self.inner.maybe_release(comm, stack, cx)
    }

    fn on_out_of_work(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        debug_assert_eq!(self.open, 0, "out of work with a hand-off unacknowledged");
        self.inner.on_out_of_work(comm, stack, cx);
    }

    fn steal(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        victim: usize,
        cx: &mut Cx,
    ) -> StealOutcome {
        self.inner.steal(comm, stack, victim, cx)
    }

    fn after_timeout(&mut self, comm: &mut C, cx: &mut Cx) {
        self.inner.after_timeout(comm, cx);
    }

    /// Hand-offs taken in here are acknowledged on the next entry to
    /// [`State::Working`] ([`Placement::acknowledge`]); the detector that
    /// called this sees them on the stack and leaves with them.
    ///
    /// [`State::Working`]: crate::state::State::Working
    fn idle_service(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.inner.idle_service(comm, stack, cx);
        if G::PLACED {
            self.settle(comm, stack, cx);
            self.absorb(comm, stack, cx);
        }
    }

    /// Reached only where the inner description is forwarded, without
    /// placement.
    fn serve(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx, value: i64) {
        self.inner.serve(comm, stack, cx, value);
    }

    fn absorb_pending(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        self.inner.absorb_pending(comm, stack, cx)
    }

    fn got_work(&mut self, comm: &mut C) {
        self.inner.got_work(comm);
    }

    fn deathbed(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.inner.deathbed(comm, stack, cx);
        self.own.drain_into(stack);
    }

    fn scavenge(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        victim: usize,
        cx: &mut Cx,
    ) -> u64 {
        self.inner.scavenge(comm, stack, victim, cx)
    }

    fn finish(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        debug_assert!(
            self.open == 0 && self.owed.is_empty(),
            "thread {} terminated with hand-offs unsettled: {} sent, {} owed",
            comm.my_id(),
            self.open,
            self.owed.len()
        );
        self.inner.finish(comm, stack, cx);
    }
}
