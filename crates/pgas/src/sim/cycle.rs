//! Probe cycles (`docs/conductor.md` §3.4): under the fast policy, on either
//! substrate, a thread whose [`Comm::probe_cycle`] read has to wait for the
//! baton parks together with the rest of its cycle, in a [`Parked`] record of
//! the hub.
//! Whoever pops its key applies that read, and every later read of the cycle
//! that the lookahead or the reach window admits, without switching to the
//! thread's stack; a read that has to wait again re-queues the thread. The
//! thread resumes only when its cycle ends.
//!
//! Popping the key is the moment the thread would have resumed, and the
//! conductor then decides each read as `SimComm::op` would on the thread's
//! behalf: against the queue minimum left at that moment (`next_min`), the
//! reach window (`reach_ns`, `Inbound::admits`), and with the parked read
//! counted in `Mem::inbound` of its partition. The same reads happen at the
//! same keys, with the same fast/handoff split, as the loop of `get`; only the
//! resume onto a cold stack is gone.

use super::{window, Access, Hub, SimComm};
use crate::comm::{cycle_cell, Comm, Cycle, Item, OpClass};

/// `Parked::own_var` of a cycle without own reads.
const NO_OWN: u32 = u32::MAX;

/// One thread's probe cycle, from its first read that waits for the baton
/// until the cycle ends. One cache line per thread.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(super) struct Parked {
    /// The caller's victim slice, borrowed for the whole call: the thread is
    /// suspended inside [`Comm::probe_cycle`] while the record is in use.
    victims: *const u32,
    len: u32,
    /// The read in flight; once the cycle ends, the read it stopped at, or
    /// the number of reads if it stopped at none.
    at: u32,
    var: u32,
    /// The own cell read after each victim, or [`NO_OWN`].
    own_var: u32,
    quiet: i64,
    /// The completion time of read `at`.
    clock: u64,
    /// The value of the last read applied.
    value: i64,
    handoffs: u32,
    reach: u32,
    saw_zero: bool,
    /// Whether the thread is queued on read `at`, for the conductor to apply.
    pub(super) parked: bool,
}

const _: () = assert!(std::mem::size_of::<Parked>() == 64);

impl Parked {
    pub(super) const IDLE: Parked = Parked {
        victims: std::ptr::null(),
        len: 0,
        at: 0,
        var: 0,
        own_var: NO_OWN,
        quiet: 0,
        clock: 0,
        value: 0,
        handoffs: 0,
        reach: 0,
        saw_zero: false,
        parked: false,
    };

    fn own(&self) -> Option<(usize, i64)> {
        (self.own_var != NO_OWN).then_some((self.own_var as usize, self.quiet))
    }

    fn reads(&self) -> usize {
        (self.len as usize) << usize::from(self.own_var != NO_OWN)
    }

    /// Read `at`'s cell and whether it is `me`'s own one.
    fn cell(&self, me: usize) -> (usize, usize, bool) {
        // SAFETY: `victims` is the slice of the `probe_cycle` call that
        // filled this record, still borrowed (`Parked::victims`).
        let victims = unsafe { std::slice::from_raw_parts(self.victims, self.len as usize) };
        cycle_cell(victims, self.var as usize, self.own(), me, self.at as usize)
    }
}

impl<T: Item> Hub<T> {
    /// Apply read `at` of `tid`'s cycle; whether the cycle ends with it.
    fn apply(&mut self, tid: usize) -> bool {
        let rec = &mut self.cycles[tid];
        let (thread, var, is_own) = rec.cell(tid);
        let value = self.mem.scalars[thread][var];
        rec.value = value;
        let stops = if is_own {
            value != rec.quiet
        } else {
            rec.saw_zero |= value == 0;
            value > 0
        };
        if !stops {
            rec.at += 1;
        }
        stops || rec.at as usize == rec.reads()
    }

    /// Issue `tid`'s reads from `at` on while `tid` keeps the baton, by
    /// `op`'s two windows against `next_min`; returns the partition of the
    /// first read that has to wait (the record's clock is its completion), or
    /// `None` once the cycle ends.
    fn advance(&mut self, tid: usize, next_min: Option<(u64, usize)>) -> Option<usize> {
        loop {
            let rec = &self.cycles[tid];
            let (peer, _, _) = rec.cell(tid);
            let t = rec.clock + self.machine.ref_cost(tid, peer);
            let own = || self.mem.inbound[tid].admits(Access::Read);
            let fast = window(next_min, tid, t, peer, Access::Read, self.reach_ns, own);
            let rec = &mut self.cycles[tid];
            rec.clock = t;
            let Some(reach) = fast else {
                return Some(peer);
            };
            rec.reach += u32::from(reach);
            if self.apply(tid) {
                return None;
            }
        }
    }

    /// `tid`'s read on `peer` waits: count it inbound there, queue `tid` at
    /// its completion, and take the next baton holder off the queue (`min`,
    /// `tid`'s queue minimum, precedes it).
    pub(super) fn park(&mut self, tid: usize, peer: usize, min: (u64, usize)) -> usize {
        let rec = &mut self.cycles[tid];
        self.cycling += usize::from(!rec.parked);
        rec.parked = true;
        rec.handoffs += 1;
        let t = rec.clock;
        if peer != tid {
            *self.mem.inbound[peer].count(Access::Read) += 1;
        }
        self.requeue(tid, t, min)
    }

    /// Resume `tid`'s parked cycle, which holds the baton with the queue
    /// minimum `next_min` left: apply the read it waited for and every later
    /// one the windows admit; returns the partition of the next read that has
    /// to wait, or `None` once the cycle ends.
    pub(super) fn resume_cycle(
        &mut self,
        tid: usize,
        next_min: Option<(u64, usize)>,
    ) -> Option<usize> {
        let (peer, _, _) = self.cycles[tid].cell(tid);
        if peer != tid {
            *self.mem.inbound[peer].count(Access::Read) -= 1;
        }
        if self.apply(tid) {
            None
        } else {
            self.advance(tid, next_min)
        }
    }
}

impl<T: Item> SimComm<T> {
    /// [`Comm::probe_cycle`] under the fast policy: `None` where the loop of
    /// `get` runs instead — the reference policy, an active fault plan, and
    /// a cycle whose last read could run out of fuel (or out of the queue
    /// key's clock bits), which the loop stops where the reference does.
    pub(super) fn conduct_cycle(
        &mut self,
        victims: &[u32],
        start: usize,
        var: usize,
        own: Option<(usize, i64)>,
    ) -> Option<Cycle> {
        let reads = victims.len() << usize::from(own.is_some());
        if !self.lookahead || self.faults.is_active() || start >= reads {
            return None;
        }
        let m = self.machine();
        let unit = m.local_ref_ns.max(m.same_node_ref_ns).max(m.remote_ref_ns);
        let clock = self.now();
        let last = clock + (reads - start) as u64 * unit;
        // SAFETY: we hold the baton; the borrow ends with the copy.
        if !self.fueled(last) || !unsafe { (*self.hub).keys }.fits(last) {
            return None;
        }
        let me = self.tid;
        // The record counts reads, and so victims and `start`, in `u32`s.
        assert!(
            u32::try_from(reads).is_ok(),
            "{reads} reads overflow a cycle record"
        );
        let cell = |var: usize| u32::try_from(var).expect("cell index fits u32");
        let (own_var, quiet) = own.map_or((NO_OWN, 0), |(var, quiet)| (cell(var), quiet));
        // SAFETY: we hold the baton until the handoff below; the borrow ends
        // with the block.
        let parked = unsafe {
            let h = &mut *self.hub;
            h.cycles[me] = Parked {
                victims: victims.as_ptr(),
                len: victims.len() as u32,
                at: start as u32,
                var: cell(var),
                own_var,
                quiet,
                clock,
                ..Parked::IDLE
            };
            h.advance(me, self.next_min).map(|peer| {
                let applied_here = h.cycles[me].at as usize - start;
                let min = self
                    .next_min
                    .expect("a read that waits has a queue minimum");
                let next = h.park(me, peer, min);
                let next = h.grant(Some(next)).expect("we just queued ourselves");
                (applied_here, next)
            })
        };
        let mut cycle_ops_from = None;
        if let Some((applied_here, next)) = parked {
            cycle_ops_from = Some(applied_here);
            // Resumed by whichever holder ends our cycle.
            self.hand_to(next);
        }
        // SAFETY: we hold the baton; the borrow ends with the copy.
        let rec = unsafe { (&(*self.hub).cycles)[me] };
        let end = rec.at as usize;
        let stop = (end < reads).then_some((end, rec.value));
        let issued = end + usize::from(stop.is_some()) - start;
        let (issued_ops, handoffs) = (issued as u64, u64::from(rec.handoffs));
        self.stats.gets += issued_ops;
        self.stats.comm_ns += rec.clock - clock;
        self.pending_work = 0;
        self.local_clock = rec.clock;
        let fast = issued_ops - handoffs;
        self.conductor.fast_ops += fast;
        self.conductor.reach_ops += u64::from(rec.reach);
        self.conductor.fast_by_class[OpClass::Scalar.index()] += fast;
        self.conductor.handoffs += handoffs;
        self.conductor.cycle_ops += cycle_ops_from.map_or(0, |here| (issued - here) as u64);
        Some(Cycle {
            reads: issued,
            saw_zero: rec.saw_zero,
            stop,
        })
    }
}
