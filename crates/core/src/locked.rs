//! The lock-protected shared-stack transport (§3.1).
//!
//! The foundation of three of the paper's labels, now expressed as policy
//! bundles over this one transport (see [`crate::sched::bundle`]):
//!
//! - `upc-sharedmem` (§3.1) = locked stack + **cancelable barrier** + steal 1
//! - `upc-term` (§3.3.1)    = locked stack + **streamlined termination** + steal 1
//! - `upc-term-rapdif` (§3.3.2) = locked stack + streamlined termination +
//!   **steal half**
//!
//! The shared region's counters (`WORK_AVAIL`, `STEAL_BASE`, `RESERVED`) are
//! the ground truth and are read/updated **under the victim's stack lock**
//! by owner and thieves alike; chunk payloads are moved with one-sided bulk
//! transfers *outside* the critical section ("the reserved chunk is
//! transferred outside of the critical region to minimize the time that the
//! stack is locked", §3.1), with a fetch-add acknowledgement so the owner
//! never reclaims a region a thief is still copying.

use pgas::comm::Item;
use pgas::Comm;

use crate::report::ThreadResult;
use crate::sched::policy::StealPolicyKind;
use crate::sched::{Cx, StealOutcome, StealTransport, SweepService};
use crate::stack::DfsStack;
use crate::trace::{Event, TraceLog};
use crate::vars;

/// §3.1's lock-protected shared stack region as a [`StealTransport`]:
/// every counter access goes through the victim's stack lock, steals
/// reserve under that lock and transfer outside it.
#[derive(Clone, Copy, Debug)]
pub struct LockedTransport {
    sp: StealPolicyKind,
}

impl LockedTransport {
    /// A locked transport granting chunks per the given steal policy.
    pub fn new(sp: StealPolicyKind) -> LockedTransport {
        LockedTransport { sp }
    }
}

impl<T: Item, C: Comm<T>> StealTransport<T, C> for LockedTransport {
    /// §3.1: "the count of available work on a stack is examined without
    /// locking", and a searching thief has nothing to answer between probes.
    const SWEEP: SweepService = SweepService::Quiet;

    fn refill(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        reacquire(comm, stack, &mut cx.res)
    }

    fn maybe_release(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        if !stack.should_release() {
            return false;
        }
        release(comm, stack, &mut cx.res);
        cx.log.emit(Event::Release { t_ns: comm.now() });
        true
    }

    fn on_out_of_work(&mut self, comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {
        set_out_of_work(comm, comm.my_id());
    }

    fn steal(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        victim: usize,
        cx: &mut Cx,
    ) -> StealOutcome {
        if steal(comm, stack, victim, self.sp, &mut cx.res, &mut cx.log) {
            StealOutcome::Got
        } else {
            StealOutcome::Denied
        }
    }

    fn got_work(&mut self, comm: &mut C) {
        comm.put(comm.my_id(), vars::WORK_AVAIL, 0);
    }

    fn scavenge(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        victim: usize,
        cx: &mut Cx,
    ) -> u64 {
        // Reclaim everything the evicted rank still advertises in its
        // shared region, exactly like a steal of all available chunks —
        // under the victim's stack lock so this cannot race another thief.
        // Try-lock, never lock: a zombie frozen *while holding its own
        // stack lock* would deadlock the executor; if the lock is busy we
        // leave the work fenced with the zombie, which self-drains it after
        // the thaw (multiplicity-safe either way).
        if !comm.try_lock(victim, vars::STACK_LOCK) {
            return 0;
        }
        let avail = comm.get(victim, vars::WORK_AVAIL);
        if avail <= 0 {
            comm.unlock(victim, vars::STACK_LOCK);
            return 0;
        }
        let take = avail as usize;
        let base = comm.get(victim, vars::STEAL_BASE) as usize;
        comm.put(victim, vars::STEAL_BASE, (base + take) as i64);
        comm.put(victim, vars::WORK_AVAIL, vars::OUT_OF_WORK);
        let reserved = comm.get(victim, vars::RESERVED);
        comm.put(victim, vars::RESERVED, reserved + take as i64);
        comm.unlock(victim, vars::STACK_LOCK);
        let mut buf = Vec::with_capacity(take * stack.k);
        comm.area_read(victim, base * stack.k, take * stack.k, &mut buf);
        comm.add(victim, vars::ACK, take as i64);
        let items = buf.len() as u64;
        stack.push_all(&buf);
        cx.res.chunks_stolen += take as u64;
        items
    }

    fn deathbed(&mut self, comm: &mut C, stack: &mut DfsStack<T>, _cx: &mut Cx) {
        // Fold every chunk still advertised in our shared region back into
        // the local deque, under the lock so no thief reserves concurrently,
        // and retire the region. Chunks already reserved by thieves stay in
        // the area untouched (the spill appends past them), so an in-flight
        // one-sided copy still reads valid data.
        let me = comm.my_id();
        comm.lock(me, vars::STACK_LOCK);
        let avail = comm.get(me, vars::WORK_AVAIL).max(0) as usize;
        let mut buf = Vec::with_capacity(avail * stack.k);
        if avail > 0 {
            let base = comm.get(me, vars::STEAL_BASE) as usize;
            comm.area_read(me, base * stack.k, avail * stack.k, &mut buf);
        }
        comm.put(me, vars::WORK_AVAIL, vars::OUT_OF_WORK);
        comm.unlock(me, vars::STACK_LOCK);
        stack.push_all(&buf);
    }
}

/// Publish "no work at all" (§3.3.1's distinct value), under the stack lock
/// so it cannot race with a thief's reservation of our last chunk.
fn set_out_of_work<T: Item, C: Comm<T>>(comm: &mut C, me: usize) {
    comm.lock(me, vars::STACK_LOCK);
    let avail = comm.get(me, vars::WORK_AVAIL);
    debug_assert!(avail <= 0, "going idle with stealable work");
    comm.put(me, vars::WORK_AVAIL, vars::OUT_OF_WORK);
    comm.unlock(me, vars::STACK_LOCK);
}

/// Move the oldest `k` local nodes into our shared region (§3.1 `release()`).
fn release<T, C>(comm: &mut C, stack: &mut DfsStack<T>, res: &mut ThreadResult)
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    let chunk = stack.take_bottom_chunk();
    comm.lock(me, vars::STACK_LOCK);
    let avail = comm.get(me, vars::WORK_AVAIL).max(0) as usize;
    let base = comm.get(me, vars::STEAL_BASE) as usize;
    comm.area_write(me, (base + avail) * stack.k, &chunk);
    comm.put(me, vars::WORK_AVAIL, (avail + 1) as i64);
    // Opportunistic compaction happens in reacquire when the region drains.
    comm.unlock(me, vars::STACK_LOCK);
    res.releases += 1;
}

/// Move the newest shared chunk back to the local region (§3.1
/// `reacquire()`). Returns false if the shared region is empty.
fn reacquire<T, C>(comm: &mut C, stack: &mut DfsStack<T>, res: &mut ThreadResult) -> bool
where
    T: Item,
    C: Comm<T>,
{
    let me = comm.my_id();
    comm.lock(me, vars::STACK_LOCK);
    let avail = comm.get(me, vars::WORK_AVAIL).max(0) as usize;
    if avail == 0 {
        // Reclaim dead area space if every granted chunk has been copied out.
        let reserved = comm.get(me, vars::RESERVED);
        let acked = comm.get(me, vars::ACK);
        if reserved == acked && comm.get(me, vars::STEAL_BASE) > 0 {
            comm.put(me, vars::STEAL_BASE, 0);
            comm.area_truncate(me, 0);
        }
        comm.unlock(me, vars::STACK_LOCK);
        return false;
    }
    let base = comm.get(me, vars::STEAL_BASE) as usize;
    let mut buf = Vec::with_capacity(stack.k);
    comm.area_read(me, (base + avail - 1) * stack.k, stack.k, &mut buf);
    comm.put(me, vars::WORK_AVAIL, (avail - 1) as i64);
    comm.unlock(me, vars::STACK_LOCK);
    stack.push_all(&buf);
    res.reacquires += 1;
    true
}

/// §3.1 `steal()`: lock the victim's stack, re-check availability, reserve
/// the policy's amount, unlock, then transfer one-sidedly outside the
/// critical section.
fn steal<T, C>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    victim: usize,
    sp: StealPolicyKind,
    res: &mut ThreadResult,
    log: &mut TraceLog,
) -> bool
where
    T: Item,
    C: Comm<T>,
{
    let k = stack.k;
    comm.lock(victim, vars::STACK_LOCK);
    let avail = comm.get(victim, vars::WORK_AVAIL);
    if avail <= 0 {
        // "a subsequent steal() operation may not succeed if in the interim
        // the state has changed" (§3.1).
        comm.unlock(victim, vars::STACK_LOCK);
        res.steals_failed += 1;
        log.emit(Event::StealFail { t_ns: comm.now(), victim });
        return false;
    }
    let take = sp.amount(avail as usize);
    debug_assert!(take >= 1 && take <= avail as usize, "policy broke its contract");
    let base = comm.get(victim, vars::STEAL_BASE) as usize;
    comm.put(victim, vars::STEAL_BASE, (base + take) as i64);
    comm.put(victim, vars::WORK_AVAIL, avail - take as i64);
    let reserved = comm.get(victim, vars::RESERVED);
    comm.put(victim, vars::RESERVED, reserved + take as i64);
    comm.unlock(victim, vars::STACK_LOCK);

    // One-sided transfer outside the lock; the victim keeps working.
    let mut buf = Vec::with_capacity(take * k);
    comm.area_read(victim, base * k, take * k, &mut buf);
    comm.add(victim, vars::ACK, take as i64);
    stack.push_all(&buf);
    res.steals_ok += 1;
    res.chunks_stolen += take as u64;
    log.emit(Event::StealOk { t_ns: comm.now(), victim, chunks: take as u64 });
    true
}
