//! Mail waits (`docs/conductor.md` §3.3): under the fast policy a thread whose
//! loop only probes its own mailbox ([`Comm::idle_for_mail`]) leaves the
//! conductor until a message could end the wait, and is charged on waking for
//! every pass it skipped.
//!
//! The passes of a wait start at `first`, `first + period`, … and probe the
//! mailbox at fixed offsets from each start. A probe sees a message exactly
//! when it lands at or after the message's arrival — the mailbox is filtered
//! by arrival time, and a message arrives later than its send is applied — so
//! the first pass that can find something is a function of arrival times and
//! tags alone. The waiter sleeps with that pass's start as its key, beside
//! the ready queue; a send to it re-keys it as the message enters its
//! mailbox (`SimComm::send`). A wait no message can end yet stays off that
//! queue: only fuel ends it, and fuel only ever panics.

use std::collections::{BTreeMap, BTreeSet};

use super::{SimComm, FUEL_NS};
use crate::comm::{Comm, Item, MailProbe};
use crate::msg::Msg;

/// Every sleeping thread of a run and the pass it wakes for. Scheduling
/// state, not memory: it lives in `Mem` because, like the image, only the
/// baton holder touches it.
pub(super) struct MailWaits {
    waits: Vec<Wait>,
    /// `(wake, tid)` of every sleeping thread a message will wake.
    keys: BTreeSet<(u64, usize)>,
    /// The least of `keys`, read on every baton grant.
    first: Option<(u64, usize)>,
}

/// One thread's wait: its passes and, while it sleeps or has just been woken,
/// the start of the pass it resumes with.
#[derive(Default)]
struct Wait {
    /// `(tag, landing offset from the pass's start)` of each probe.
    probes: Vec<(i64, u64)>,
    first: u64,
    period: u64,
    /// The start of the first pass with a probe out of fuel.
    fuel: u64,
    wake: Option<u64>,
    /// Whether `wake` is in `MailWaits::keys`: whether a message ends the
    /// wait there.
    queued: bool,
}

/// The start of the first pass — they start at `first`, every `period` —
/// whose probe `offset` after the start lands at or after `at`.
fn first_pass_reaching(first: u64, period: u64, offset: u64, at: u64) -> u64 {
    let start = at.saturating_sub(offset);
    if start <= first {
        first
    } else {
        first + (start - first).div_ceil(period) * period
    }
}

impl Wait {
    /// The start of the first pass in which a probe finds a message of
    /// `tag` arriving at `arrival`, if one probes for it.
    fn wake_for(&self, tag: i64, arrival: u64) -> Option<u64> {
        self.probes
            .iter()
            .filter(|&&(t, _)| t == tag)
            .map(|&(_, offset)| first_pass_reaching(self.first, self.period, offset, arrival))
            .min()
    }
}

impl MailWaits {
    pub(super) fn new(nthreads: usize) -> Self {
        MailWaits {
            waits: (0..nthreads).map(|_| Wait::default()).collect(),
            keys: BTreeSet::new(),
            first: None,
        }
    }

    /// The least key of the ready queue, whose minimum is `queued`, and the
    /// sleepers a message will wake.
    pub(super) fn ready_min(&self, queued: Option<(u64, usize)>) -> Option<(u64, usize)> {
        match (queued, self.first) {
            (Some(q), Some(w)) => Some(q.min(w)),
            (q, w) => q.or(w),
        }
    }

    /// The next baton holder: the sleeper with the least key if it precedes
    /// `queued`, the ready queue's minimum, else the one `pop_queue` takes
    /// off that queue — or, with neither left, the sleeper that runs out of
    /// fuel first.
    pub(super) fn next(
        &mut self,
        queued: Option<(u64, usize)>,
        pop_queue: impl FnOnce() -> Option<usize>,
    ) -> Option<usize> {
        match self.first {
            Some(wait) if queued.is_none_or(|q| wait < q) => self.pop(),
            _ => pop_queue(),
        }
        .or_else(|| self.out_of_fuel())
    }

    /// Lay out `tid`'s passes — each `pass` at `probe_ns` a probe, the first
    /// starting at `first`, `period` apart — and return the start of the
    /// first one that can end the wait: the first in which a probe finds a
    /// message already in `mailbox`, capped by the first that holds a probe
    /// landing at or after `out_of_fuel`; and whether a message ends it
    /// there.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn plan<T>(
        &mut self,
        tid: usize,
        pass: &[MailProbe],
        probe_ns: u64,
        first: u64,
        period: u64,
        out_of_fuel: u64,
        mailbox: &BTreeMap<(u64, u64), Msg<T>>,
    ) -> (u64, bool) {
        let wait = &mut self.waits[tid];
        wait.probes.clear();
        wait.probes.extend(
            pass.iter()
                .zip(1..)
                .map(|(probe, i)| (probe.tag(), i * probe_ns)),
        );
        wait.first = first;
        wait.period = period;
        let span = pass.len() as u64 * probe_ns;
        wait.fuel = first_pass_reaching(first, period, span, out_of_fuel);
        let mail = mailbox
            .iter()
            .filter_map(|(&(arrival, _), msg)| wait.wake_for(msg.tag, arrival))
            .min()
            .filter(|&wake| wake <= wait.fuel);
        (mail.unwrap_or(wait.fuel), mail.is_some())
    }

    /// Put `tid`, planned, to sleep until the pass starting at `wake`: with
    /// that key beside the ready queue if a message ends the wait there
    /// (`by_mail`), off it if only fuel does.
    pub(super) fn sleep(&mut self, tid: usize, wake: u64, by_mail: bool) {
        let wait = &mut self.waits[tid];
        wait.wake = Some(wake);
        wait.queued = by_mail;
        if by_mail {
            self.queue(tid, None, wake);
        }
    }

    fn queue(&mut self, tid: usize, old: Option<u64>, wake: u64) {
        if let Some(old) = old {
            self.keys.remove(&(old, tid));
        }
        self.keys.insert((wake, tid));
        self.first = self.keys.first().copied();
    }

    /// A message of `tag` arriving at `arrival` is on its way to `dst`: if it
    /// makes a sleeping `dst` wake earlier — or ends a wait only fuel would,
    /// in the same pass — return `dst`'s new key.
    pub(super) fn rekey(&mut self, dst: usize, tag: i64, arrival: u64) -> Option<(u64, usize)> {
        let wait = &mut self.waits[dst];
        let old = wait.wake?;
        let new = wait
            .wake_for(tag, arrival)
            .filter(|&new| new < old || (new == old && !wait.queued))?;
        wait.wake = Some(new);
        let old = wait.queued.then_some(old);
        wait.queued = true;
        self.queue(dst, old, new);
        Some((new, dst))
    }

    /// Wake the sleeping thread with the least key.
    pub(super) fn pop(&mut self) -> Option<usize> {
        let (_, tid) = self.keys.pop_first()?;
        self.first = self.keys.first().copied();
        Some(tid)
    }

    /// The sleeper off the queue that runs out of fuel first. What no message
    /// ends, fuel does, at the same thread and operation as at the reference:
    /// a panic, which no other thread observes, so it need not come in
    /// virtual-time order.
    fn out_of_fuel(&self) -> Option<usize> {
        let (_, tid) = self
            .waits
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.queued)
            .filter_map(|(tid, w)| Some((w.wake?, tid)))
            .min()?;
        Some(tid)
    }

    /// Called by a woken thread: the start of the pass it resumes with.
    pub(super) fn woken(&mut self, tid: usize) -> u64 {
        self.waits[tid].wake.take().expect("a woken thread slept")
    }
}

impl<T: Item> SimComm<T> {
    /// [`Comm::idle_for_mail`]: skip every pass that cannot find anything,
    /// sleeping outside the conductor while other threads could still send.
    pub(super) fn wait_for_mail(&mut self, pass: &[MailProbe], idle_ns: u64) {
        let probe_ns = self.machine().local_ref_ns;
        let span = pass.len() as u64 * probe_ns;
        // The reference conductor never skips, nor does a fault plan's run,
        // whose prices depend on the moment.
        if !self.lookahead || self.faults.is_active() || pass.is_empty() {
            return self.advance_idle(idle_ns);
        }
        let me = self.tid;
        let now = self.now();
        let (first, period) = (now + idle_ns, span + idle_ns);
        let out_of_fuel = self.worked_until + FUEL_NS + 1;
        // SAFETY: worker code runs with the baton held; the borrow ends with
        // the statement.
        let (mut wake, by_mail) = unsafe {
            let mem = self.mem();
            mem.waits.plan(
                me,
                pass,
                probe_ns,
                first,
                period,
                out_of_fuel,
                &mem.mailboxes[me],
            )
        };
        if wake == first {
            return self.advance_idle(idle_ns);
        }
        // Nobody else can send before the queue minimum: unless that comes
        // first, skip without a handoff.
        if self.next_min.is_some_and(|min| min < (wake, me)) {
            wake = self.sleep(wake, by_mail);
        }
        let skipped = (wake - first) / period;
        let has_msg = pass
            .iter()
            .filter(|p| matches!(p, MailProbe::HasMsg(_)))
            .count() as u64;
        self.stats.gets += skipped * has_msg;
        self.conductor.elided_ops += skipped * pass.len() as u64;
        self.advance_idle(wake - now);
    }

    /// Sleep in `Mem::waits` until the pass starting at `wake` or an earlier
    /// one a send re-keys us for, handing the baton to the ready minimum, and
    /// return the start of the pass we are woken for.
    fn sleep(&mut self, wake: u64, by_mail: bool) -> u64 {
        let me = self.tid;
        // SAFETY: we hold the baton until the handoff below; the borrow ends
        // with the block.
        let next = unsafe {
            let h = &mut *self.hub;
            h.mem.waits.sleep(me, wake, by_mail);
            h.pop().expect("a sleeper's key follows the ready minimum")
        };
        // Probe cycles run on the way may leave our own key the least; if
        // not, whoever wakes us from `Mem::waits` resumes us.
        self.hand_to(next).waits.woken(me)
    }
}
