//! Who runs next, written once for both substrates (`docs/conductor.md` §2).
//!
//! The [`Hub`] holds everything the conductor decides with: the ready queue of
//! each policy — the fast one's packed keys ([`KeyFormat`]) and the naive one's
//! tuple heap, kept apart so that the reference stays independent of the fast
//! path — the published clocks, the probe cycles it runs on the way to a grant
//! (`sim/cycle.rs`), the memory image, and what retired threads leave behind.
//! A simulated thread's life is the same on every substrate
//! ([`SimComm::live`]): its first grant starts it (the hub queues every thread
//! at `(0, tid)` before the run), it runs its worker, retires, and passes the
//! baton on. A substrate adds only the [`Switch`] the hub holds: how the
//! baton holder suspends itself and resumes the next one.
//!
//! Only the baton holder touches the hub — trivially on fibers, and on OS
//! threads because the handover's mutex orders one holder before the next —
//! through a raw pointer and borrows that end before every switch.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};

use super::cycle::Parked;
use super::{Mem, SimCluster, SimComm, SimReport, Switch};
use crate::comm::Item;
use crate::fault::FaultPlan;
use crate::machine::MachineModel;
use crate::stats::{CommStats, ConductorStats};

/// The conductor's state: the ready queues and everything the baton holder
/// reads or writes.
pub(super) struct Hub<T: Item> {
    pub(super) machine: MachineModel,
    nthreads: usize,
    faults: FaultPlan,
    /// The policy: fast (windows, packed keys) or naive (see `sim.rs`).
    lookahead: bool,
    /// Width of the reach window, for the probe cycles the hub runs.
    pub(super) reach_ns: u64,
    clocks: Vec<u64>,
    /// Threads waiting for the baton under the fast policy, one packed key
    /// each.
    queue: BinaryHeap<Reverse<u64>>,
    pub(super) keys: KeyFormat,
    /// Threads waiting for the baton under the naive policy.
    naive: BinaryHeap<Reverse<(u64, usize)>>,
    /// Each thread's probe cycle, while the conductor runs it
    /// (`sim/cycle.rs`), and how many threads are parked in one.
    pub(super) cycles: Vec<Parked>,
    pub(super) cycling: usize,
    pub(super) mem: Mem<T>,
    /// How the baton holder suspends itself and resumes the next one: the
    /// substrate's part.
    pub(super) switch: Switch,
    /// What each thread left when it retired.
    retired: Vec<Option<(CommStats, ConductorStats)>>,
    panics: Vec<Option<Box<dyn Any + Send>>>,
}

impl<T: Item> Hub<T> {
    /// The hub of a run of `cluster` on the substrate that `switch` passes
    /// the baton by, with every thread queued at `(0, tid)`.
    pub(super) fn new(cluster: SimCluster<T>, switch: Switch) -> Self {
        let n = cluster.nthreads;
        let keys = KeyFormat::new(n);
        let (mut queue, mut naive) = (BinaryHeap::with_capacity(n), BinaryHeap::new());
        if cluster.lookahead {
            queue.extend((0..n).map(|tid| keys.pack(0, tid)));
        } else {
            naive.extend((0..n).map(|tid| Reverse((0, tid))));
        }
        Hub {
            reach_ns: cluster.machine.min_foreign_cost(),
            machine: cluster.machine,
            nthreads: n,
            faults: cluster.faults,
            lookahead: cluster.lookahead,
            clocks: vec![0; n],
            queue,
            keys,
            naive,
            cycles: vec![Parked::IDLE; n],
            cycling: 0,
            mem: Mem::new(n, &cluster.cfg),
            switch,
            retired: vec![None; n],
            panics: (0..n).map(|_| None).collect(),
        }
    }

    /// Take the next baton holder off the policy's ready queue, or the
    /// sleeping waiter whose key precedes all of it, or, with neither left,
    /// a waiter out of fuel — running the probe cycles of the threads parked
    /// in one on the way ([`Hub::grant`]).
    pub(super) fn pop(&mut self) -> Option<usize> {
        let next = if self.lookahead {
            let (queue, keys) = (&mut self.queue, self.keys);
            let queued = queue.peek().map(|&key| keys.unpack(key));
            self.mem
                .waits
                .next(queued, || queue.pop().map(|key| keys.unpack(key).1))
        } else {
            self.naive.pop().map(|Reverse((_, tid))| tid)
        };
        self.grant(next)
    }

    /// Queue `tid`, which holds the baton and completes its next operation at
    /// `t`, and take the next holder off the queue — `tid` itself if a probe
    /// cycle run on the way leaves its key the least. Under the fast policy
    /// `next_min` is `tid`'s queue minimum, which its failed window test has
    /// just proved precedes `(t, tid)`.
    #[inline(always)]
    pub(super) fn hand_off(&mut self, tid: usize, t: u64, next_min: Option<(u64, usize)>) -> usize {
        if self.lookahead {
            let min = next_min.expect("lookahead failed without a minimum");
            let next = self.requeue(tid, t, min);
            self.grant(Some(next))
        } else {
            self.clocks[tid] = t;
            self.naive.push(Reverse((t, tid)));
            self.pop()
        }
        .expect("we just queued ourselves")
    }

    /// Under the fast policy, queue `tid` at `t` and take the least key off
    /// the queue: `min`, which precedes `(t, tid)` (exact while `tid` holds
    /// the baton). If it is the queue's root, "push, pop the minimum" is
    /// "replace the root": one sift-down. Keys are unique, so the pop order
    /// does not depend on the heap's layout. If not, it is a sleeping mail
    /// waiter's: queue `tid` and wake it. Inline, like [`KeyFormat::pack`]:
    /// every handoff of `op` takes it, and as a call it cost a service run a
    /// few per cent of host time.
    #[inline(always)]
    pub(super) fn requeue(&mut self, tid: usize, t: u64, min: (u64, usize)) -> usize {
        self.clocks[tid] = t;
        let keys = self.keys;
        let root = self.queue.peek().map(|&root| keys.unpack(root));
        let next = if root == Some(min) {
            *self.queue.peek_mut().expect("just peeked") = keys.pack(t, tid);
            min.1
        } else {
            self.queue.push(keys.pack(t, tid));
            self.mem.waits.pop().expect("the least key sleeps")
        };
        assert_ne!(next, tid, "a running thread was queued");
        next
    }

    /// The least key of the fast policy's ready queue and sleeping waiters.
    pub(super) fn ready_min(&self) -> Option<(u64, usize)> {
        let queued = self.queue.peek().map(|&key| self.keys.unpack(key));
        self.mem.waits.ready_min(queued)
    }

    /// The next baton holder, from `next` just taken off the queue: a thread
    /// parked in a probe cycle has its reads applied here until the cycle
    /// ends — then it is the one — or it parks again, and the next is taken.
    /// Inline, as every handoff takes it: most runs park no cycle at all, and
    /// their pops read no record.
    #[inline(always)]
    pub(super) fn grant(&mut self, next: Option<usize>) -> Option<usize> {
        match next {
            Some(tid) if self.cycling > 0 && self.cycles[tid].parked => Some(self.run_cycles(tid)),
            _ => next,
        }
    }

    /// [`Hub::grant`] from `tid`, parked in a probe cycle.
    #[inline(never)]
    fn run_cycles(&mut self, mut tid: usize) -> usize {
        while self.cycling > 0 && self.cycles[tid].parked {
            // `tid` holds the baton now: what it would see on resuming.
            let next_min = self.ready_min();
            let waits = self.resume_cycle(tid, next_min);
            let Some(peer) = waits else {
                self.cycles[tid].parked = false;
                self.cycling -= 1;
                break;
            };
            let min = next_min.expect("a read that waits has a queue minimum");
            tid = self.park(tid, peer, min);
        }
        tid
    }

    /// The report of a run every thread has retired from, with the values the
    /// workers left in `results` and each fiber's stack high-water mark in
    /// `stack_peaks` (none on OS threads). A worker's panic — the lowest
    /// thread's — is re-raised instead.
    pub(super) fn report<R>(self, results: Vec<Option<R>>, stack_peaks: &[usize]) -> SimReport<R> {
        if let Some(panic) = self.panics.into_iter().flatten().next() {
            panic::resume_unwind(panic);
        }
        let (stats, mut conductor): (Vec<_>, Vec<_>) = self
            .retired
            .into_iter()
            .map(|r| r.expect("retired thread"))
            .unzip();
        for (conductor, &peak) in conductor.iter_mut().zip(stack_peaks) {
            conductor.stack_peak_bytes = peak as u64;
        }
        SimReport {
            results: results
                .into_iter()
                .map(|r| r.expect("thread result"))
                .collect(),
            makespan_ns: self.clocks.iter().copied().max().unwrap_or(0),
            clocks: self.clocks,
            stats,
            conductor,
            scalars: self.mem.scalars,
        }
    }
}

impl<T: Item> SimComm<T> {
    /// Thread `tid`'s life, from its first grant on: run `f` on a fresh
    /// handle and leave its value in `result`, then retire — fold trailing
    /// work into the clock, publish the handle's statistics, keep a panic for
    /// the host to re-raise — and pass the baton on for good, after a panic
    /// too, so that the other threads are not left suspended.
    pub(super) fn live<R, F>(hub: *mut Hub<T>, tid: usize, f: &F, result: &mut Option<R>)
    where
        F: Fn(&mut SimComm<T>) -> R,
    {
        // SAFETY: `tid` holds the baton; the borrow ends with the block.
        let mut comm = unsafe {
            let h = &*hub;
            SimComm {
                hub,
                tid,
                nthreads: h.nthreads,
                lookahead: h.lookahead,
                reach_ns: h.reach_ns,
                faults: h.faults,
                local_clock: 0,
                pending_work: 0,
                worked_until: 0,
                next_min: h.ready_min(),
                stats: CommStats::default(),
                conductor: ConductorStats::default(),
            }
        };
        let panic = match panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
            Ok(r) => {
                *result = Some(r);
                None
            }
            Err(panic) => Some(panic),
        };
        // SAFETY: `tid` holds the baton until the switch below; the borrow
        // ends with the block.
        let (next, switch) = unsafe {
            let h = &mut *hub;
            h.clocks[tid] = comm.local_clock + comm.pending_work;
            h.retired[tid] = Some((comm.stats, comm.conductor));
            h.panics[tid] = panic;
            (h.pop(), h.switch)
        };
        switch.pass(None, next);
    }
}

/// The fast ready queue's entry for `(clock, tid)`: `clock << tid_bits | tid`
/// with `tid_bits = bits(p - 1)`, so that integer order *is* the
/// lexicographic `(clock, tid)` order — half the bytes of the tuple and one
/// compare per heap level.
#[derive(Clone, Copy)]
pub(super) struct KeyFormat {
    nthreads: usize,
    tid_bits: u32,
}

impl KeyFormat {
    pub(super) fn new(nthreads: usize) -> Self {
        KeyFormat {
            nthreads,
            tid_bits: usize::BITS - (nthreads - 1).leading_zeros(),
        }
    }

    /// Whether `clock` fits the bits the key leaves it.
    pub(super) fn fits(self, clock: u64) -> bool {
        clock.leading_zeros() >= self.tid_bits
    }

    /// A clock too large for the bits left to it panics; it never wraps.
    #[inline(always)]
    pub(super) fn pack(self, clock: u64, tid: usize) -> Reverse<u64> {
        assert!(
            self.fits(clock),
            "virtual time {clock} ns does not fit the ready queue's {}-bit clock at p = {}",
            u64::BITS - self.tid_bits,
            self.nthreads
        );
        Reverse(clock << self.tid_bits | tid as u64)
    }

    pub(super) fn unpack(self, Reverse(key): Reverse<u64>) -> (u64, usize) {
        (
            key >> self.tid_bits,
            (key & ((1 << self.tid_bits) - 1)) as usize,
        )
    }
}
