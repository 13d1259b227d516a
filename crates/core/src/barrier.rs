//! Termination detection: the §3.1 cancelable barrier and the §3.3.1
//! streamlined barrier with tree-based announcement.
//!
//! The cancelable barrier is the shared-memory algorithm's weak point on
//! clusters: waiters spin on *remote* flags (thread 0's cells), entry/exit
//! happen under a remote lock, and every `release()` resets the barrier —
//! all of which the paper measures as the dominant overhead at small chunk
//! sizes. The streamlined variant enters the barrier only when a full probe
//! cycle saw every other thread out of work, waiters spin on their *own*
//! (local-affinity) flag, and the final announcement is an O(log n)-depth
//! tree of writes.

use pgas::comm::Item;
use pgas::Comm;

use crate::vars;

/// Backoff charged between barrier spin iterations (models the pause a real
/// implementation inserts between remote flag reads).
pub const BARRIER_BACKOFF_NS: u64 = 2_000;

/// Outcome of waiting at the cancelable barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// All threads arrived: global termination.
    Terminated,
    /// A releasing thread canceled the barrier: go search for work again.
    Canceled,
}

/// §3.1 cancelable barrier. All state lives on thread 0: the occupancy
/// count, a cancellation epoch, and the termination flag.
pub struct CancelableBarrier;

impl CancelableBarrier {
    /// Called by a thread that just released work: kick all waiters out of
    /// the barrier so they can steal the fresh chunk. "This is a remote
    /// operation, and it delays a thread that might otherwise be doing
    /// useful work" — the cost is the point.
    pub fn cancel<T: Item, C: Comm<T>>(comm: &mut C) {
        comm.lock(0, vars::BARRIER_LOCK);
        let epoch = comm.get(0, vars::CANCEL_EPOCH);
        comm.put(0, vars::CANCEL_EPOCH, epoch + 1);
        comm.unlock(0, vars::BARRIER_LOCK);
    }

    /// Enter the barrier and spin (remotely) until either every thread has
    /// arrived (termination) or a release cancels the barrier. `service` runs
    /// after the outcome checks of each iteration: transports whose steal
    /// protocol needs the victim's participation (the §3.3.3 request/response
    /// cells) use it to keep denying thieves while parked; for the locked
    /// transport the hook is a no-op and the spin is the paper's exactly.
    /// `service` returning `true` means work landed: the thread leaves as on
    /// a cancel.
    pub fn wait_with<T: Item, C: Comm<T>>(
        comm: &mut C,
        mut service: impl FnMut(&mut C) -> bool,
    ) -> BarrierOutcome {
        let n = comm.n_threads() as i64;
        comm.lock(0, vars::BARRIER_LOCK);
        let count = comm.get(0, vars::BARRIER_COUNT) + 1;
        comm.put(0, vars::BARRIER_COUNT, count);
        let my_epoch = comm.get(0, vars::CANCEL_EPOCH);
        if count == n {
            comm.put(0, vars::TERM, 1);
        }
        comm.unlock(0, vars::BARRIER_LOCK);

        loop {
            // Remote spinning — "requiring an arbitrary number of remote
            // operations" (§3.1).
            if comm.get(0, vars::TERM) == 1 {
                return BarrierOutcome::Terminated;
            }
            if comm.get(0, vars::CANCEL_EPOCH) != my_epoch || service(comm) {
                comm.lock(0, vars::BARRIER_LOCK);
                let c = comm.get(0, vars::BARRIER_COUNT);
                comm.put(0, vars::BARRIER_COUNT, c - 1);
                comm.unlock(0, vars::BARRIER_LOCK);
                return BarrierOutcome::Canceled;
            }
            comm.advance_idle(BARRIER_BACKOFF_NS);
        }
    }
}

/// Tree children of `me` in the binary announcement tree rooted at thread 0.
pub fn tree_children(me: usize, n: usize) -> (Option<usize>, Option<usize>) {
    let l = 2 * me + 1;
    let r = 2 * me + 2;
    ((l < n).then_some(l), (r < n).then_some(r))
}

/// §3.3.1 streamlined termination barrier: a shared occupancy counter on
/// thread 0 (entered/left with single atomics, no lock) plus per-thread
/// termination flags set by a tree-based announcement.
pub struct TerminationBarrier;

impl TerminationBarrier {
    /// Enter; returns `true` if we were the last thread in (and must launch
    /// the announcement).
    pub fn enter<T: Item, C: Comm<T>>(comm: &mut C) -> bool {
        let old = comm.add(0, vars::BARRIER_COUNT, 1);
        (old + 1) == comm.n_threads() as i64
    }

    /// Leave the barrier (before attempting a steal).
    pub fn leave<T: Item, C: Comm<T>>(comm: &mut C) {
        comm.add(0, vars::BARRIER_COUNT, -1);
    }

    /// Launch the tree announcement by flagging the root.
    pub fn announce_root<T: Item, C: Comm<T>>(comm: &mut C) {
        comm.put(0, vars::TERM, 1);
    }

    /// Has my own flag been raised? (A local-affinity read — the cheap spin
    /// the whole §3.3.1 design exists to enable.)
    pub fn term_seen<T: Item, C: Comm<T>>(comm: &mut C) -> bool {
        let me = comm.my_id();
        comm.get(me, vars::TERM) == 1
    }

    /// Forward the announcement to my tree children. Call exactly once,
    /// after [`TerminationBarrier::term_seen`] turns true.
    pub fn propagate<T: Item, C: Comm<T>>(comm: &mut C) {
        let (l, r) = tree_children(comm.my_id(), comm.n_threads());
        if let Some(l) = l {
            comm.put(l, vars::TERM, 1);
        }
        if let Some(r) = r {
            comm.put(r, vars::TERM, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::sim::SimCluster;
    use pgas::MachineModel;
    use uts_tree::Node;

    fn cluster(n: usize) -> SimCluster<Node> {
        SimCluster::new(MachineModel::smp(), n, crate::vars::space_config())
    }

    #[test]
    fn tree_children_cover_all_threads_once() {
        let n = 23;
        let mut seen = vec![0u32; n];
        for me in 0..n {
            let (l, r) = tree_children(me, n);
            for c in [l, r].into_iter().flatten() {
                seen[c] += 1;
            }
        }
        assert_eq!(seen[0], 0, "root has no parent");
        assert!(seen[1..].iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn cancelable_barrier_terminates_when_all_enter() {
        let n = 6;
        let report = cluster(n).run(|c| CancelableBarrier::wait_with(c, |_| false));
        assert!(report
            .results
            .iter()
            .all(|r| *r == BarrierOutcome::Terminated));
        assert_eq!(report.final_scalar(0, vars::TERM), 1);
    }

    #[test]
    fn cancelable_barrier_cancel_releases_waiters() {
        let n = 4;
        let report = cluster(n).run(|c| {
            if c.my_id() == 3 {
                // Give the others time to enter, then cancel, then enter so
                // the barrier can complete on the second round.
                c.advance_idle(2_000_000);
                CancelableBarrier::cancel(c);
                // Give the waiters time to observe the epoch bump and leave;
                // entering immediately would complete the barrier and set
                // TERM before any waiter polls the cancel flag.
                c.advance_idle(1_000_000);
                let mut outcomes = vec![];
                loop {
                    let o = CancelableBarrier::wait_with(c, |_| false);
                    outcomes.push(o);
                    if o == BarrierOutcome::Terminated {
                        return outcomes;
                    }
                }
            } else {
                let mut outcomes = vec![];
                loop {
                    let o = CancelableBarrier::wait_with(c, |_| false);
                    outcomes.push(o);
                    if o == BarrierOutcome::Terminated {
                        return outcomes;
                    }
                }
            }
        });
        // At least one waiter observed a cancellation before termination.
        let canceled = report
            .results
            .iter()
            .flatten()
            .filter(|&&o| o == BarrierOutcome::Canceled)
            .count();
        assert!(canceled >= 1, "cancel had no effect: {:?}", report.results);
        // And everyone terminated in the end.
        assert!(report
            .results
            .iter()
            .all(|os| *os.last().unwrap() == BarrierOutcome::Terminated));
    }

    #[test]
    fn streamlined_barrier_full_protocol() {
        let n = 9;
        let report = cluster(n).run(|c| {
            let was_last = TerminationBarrier::enter(c);
            if was_last {
                TerminationBarrier::announce_root(c);
            }
            let mut spins = 0u64;
            while !TerminationBarrier::term_seen(c) {
                c.advance_idle(BARRIER_BACKOFF_NS);
                spins += 1;
                assert!(spins < 1_000_000, "announcement never arrived");
            }
            TerminationBarrier::propagate(c);
            was_last
        });
        let lasts = report.results.iter().filter(|&&l| l).count();
        assert_eq!(lasts, 1, "exactly one thread is last into the barrier");
        // Everyone's flag ends raised.
        for t in 0..n {
            assert_eq!(report.final_scalar(t, vars::TERM), 1);
        }
        assert_eq!(report.final_scalar(0, vars::BARRIER_COUNT), n as i64);
    }

    #[test]
    fn leave_and_reenter_keeps_count_consistent() {
        let n = 3;
        let report = cluster(n).run(|c| {
            if c.my_id() == 2 {
                // Enter, leave (as if probing a victim), re-enter.
                let last1 = TerminationBarrier::enter(c);
                TerminationBarrier::leave(c);
                let last2 = TerminationBarrier::enter(c);
                if last1 || last2 {
                    TerminationBarrier::announce_root(c);
                }
            } else if TerminationBarrier::enter(c) {
                TerminationBarrier::announce_root(c);
            }
            while !TerminationBarrier::term_seen(c) {
                c.advance_idle(BARRIER_BACKOFF_NS);
            }
            TerminationBarrier::propagate(c);
        });
        assert_eq!(report.final_scalar(0, vars::BARRIER_COUNT), n as i64);
    }
}
