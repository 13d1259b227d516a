//! Per-thread communication statistics.
//!
//! The paper quantifies load-balancing activity ("more than 85,000 work
//! stealing operations per second", §1) and overhead decomposition (93%
//! working-state efficiency, §6.2); these counters are the raw material for
//! those reports.
//!
//! [`ConductorStats`] is simulator-side only: it measures the *harness*
//! (how many operations the virtual-time conductor applied on its fast path —
//! the lookahead window or the reach window — vs. via a baton handoff), never
//! the modelled machine.
//! It is deliberately kept out of [`CommStats`] so the fast path cannot
//! perturb any equality check on modelled results (see `docs/conductor.md`).

use crate::comm::OpClass;

/// Operation counters and accumulated costs for one thread's [`crate::Comm`]
/// handle. All communication time is in (virtual or real) nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// One-sided scalar reads issued.
    pub gets: u64,
    /// One-sided scalar writes issued.
    pub puts: u64,
    /// Atomic RMW operations (CAS / fetch-add) issued.
    pub atomics: u64,
    /// Lock acquisitions that succeeded.
    pub lock_acquires: u64,
    /// Failed `try_lock` attempts (contention indicator).
    pub lock_failures: u64,
    /// Lock releases.
    pub unlocks: u64,
    /// Bulk area transfers issued.
    pub bulk_ops: u64,
    /// Items moved by bulk transfers.
    pub bulk_items: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Payload items sent in messages.
    pub msg_items_sent: u64,
    /// Sends whose effect the active [`crate::FaultPlan`] silently dropped
    /// (always zero without crash faults).
    pub msgs_lost: u64,
    /// Sends the active [`crate::FaultPlan`] delivered twice (always zero
    /// without crash faults).
    pub msgs_duplicated: u64,
    /// Sends dropped because a network partition in the active
    /// [`crate::FaultPlan`] cut the sender/receiver link (always zero
    /// without partition faults).
    pub msgs_cut: u64,
    /// `poll()` invocations.
    pub polls: u64,
    /// Nanoseconds charged to communication (everything except `work`).
    pub comm_ns: u64,
    /// Nanoseconds charged to useful work (`work()` calls).
    pub work_ns: u64,
    /// Extra nanoseconds injected by the active [`crate::FaultPlan`] on top
    /// of modelled costs (latency spikes, stalls, straggler and lock
    /// stretching). Part of the modelled result — but always zero when no
    /// plan is active, so fault-free equality checks are unaffected.
    pub fault_ns: u64,
}

impl CommStats {
    /// Total remote-ish operations (a rough analogue of the paper's "load
    /// balancing operations" denominator).
    pub fn total_ops(&self) -> u64 {
        self.gets
            + self.puts
            + self.atomics
            + self.lock_acquires
            + self.lock_failures
            + self.unlocks
            + self.bulk_ops
            + self.msgs_sent
            + self.msgs_received
    }

    /// Merge another thread's counters into this one (for aggregate reports).
    pub fn merge(&mut self, other: &CommStats) {
        self.gets += other.gets;
        self.puts += other.puts;
        self.atomics += other.atomics;
        self.lock_acquires += other.lock_acquires;
        self.lock_failures += other.lock_failures;
        self.unlocks += other.unlocks;
        self.bulk_ops += other.bulk_ops;
        self.bulk_items += other.bulk_items;
        self.msgs_sent += other.msgs_sent;
        self.msgs_received += other.msgs_received;
        self.msg_items_sent += other.msg_items_sent;
        self.msgs_lost += other.msgs_lost;
        self.msgs_duplicated += other.msgs_duplicated;
        self.msgs_cut += other.msgs_cut;
        self.polls += other.polls;
        self.comm_ns += other.comm_ns;
        self.work_ns += other.work_ns;
        self.fault_ns += other.fault_ns;
    }
}

/// Harness-side counters for the virtual-time conductor's scheduling of one
/// simulated thread (see `docs/conductor.md`).
///
/// `fast_ops + handoffs + elided_ops` equals the number of priced operations
/// the thread's program issued; the split tells you how much real-machine
/// synchronization the simulation needed, `reach_ops` how much of the fast
/// path is owed to the reach window, and `elided_ops` how many operations a
/// mail wait skipped outright. These counters describe the simulator itself — they are
/// identical in *meaning* but not in *value* across lookahead on/off runs,
/// which is why they live outside [`CommStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConductorStats {
    /// Operations applied on the fast path (the issuing thread kept the
    /// baton: no queue entry, no switch, no handoff), by either window.
    pub fast_ops: u64,
    /// The subset of `fast_ops` that only the reach window admitted:
    /// operations on the issuer's own partition that were no longer globally
    /// earliest but that no other thread could precede *there*.
    pub reach_ops: u64,
    /// Operations that went through a full baton handoff (a fiber switch, or
    /// mutex + schedule + condvar wait on the OS-thread substrate).
    pub handoffs: u64,
    /// Mailbox probes of skipped passes of a mail wait
    /// ([`crate::Comm::idle_for_mail`]): priced and charged like the loop's
    /// own, but never conducted, because none of them could find anything.
    pub elided_ops: u64,
    /// Fast-path operations by [`OpClass`] histogram index
    /// ([`OpClass::index`]).
    pub fast_by_class: [u64; OpClass::COUNT],
    /// Measured high-water mark of this thread's fiber stack, in bytes (page
    /// granular: its top down to the lowest page the kernel committed for
    /// it). 0 on the OS-thread substrate, whose stacks are not measured.
    pub stack_peak_bytes: u64,
}

impl ConductorStats {
    /// Total priced operations conducted for this thread.
    pub fn total_ops(&self) -> u64 {
        self.fast_ops + self.handoffs + self.elided_ops
    }

    /// Fraction of operations applied on the fast path (0.0 when no
    /// operations were issued). Elided operations count in the denominator
    /// only: they were not conducted at all.
    pub fn fast_fraction(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            0.0
        } else {
            self.fast_ops as f64 / total as f64
        }
    }

    /// Merge another thread's counters into this one (for aggregate reports):
    /// counts add, the stack high-water mark is the deepest thread's.
    pub fn merge(&mut self, other: &ConductorStats) {
        self.fast_ops += other.fast_ops;
        self.reach_ops += other.reach_ops;
        self.handoffs += other.handoffs;
        self.elided_ops += other.elided_ops;
        for (a, b) in self.fast_by_class.iter_mut().zip(other.fast_by_class) {
            *a += b;
        }
        self.stack_peak_bytes = self.stack_peak_bytes.max(other.stack_peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conductor_merge_and_fraction() {
        let mut a = ConductorStats {
            fast_ops: 3,
            reach_ops: 2,
            handoffs: 1,
            elided_ops: 4,
            fast_by_class: [3, 0, 0, 0, 0, 0],
            stack_peak_bytes: 8192,
        };
        let b = ConductorStats {
            fast_ops: 1,
            reach_ops: 1,
            handoffs: 1,
            elided_ops: 2,
            fast_by_class: [0, 1, 0, 0, 0, 0],
            stack_peak_bytes: 12288,
        };
        a.merge(&b);
        assert_eq!(a.total_ops(), 12, "elided operations are operations");
        assert_eq!(a.elided_ops, 6);
        assert_eq!(a.reach_ops, 3);
        assert_eq!(a.stack_peak_bytes, 12288, "the deepest thread's, not a sum");
        assert_eq!(a.fast_by_class, [3, 1, 0, 0, 0, 0]);
        assert!((a.fast_fraction() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(ConductorStats::default().fast_fraction(), 0.0);
        for (i, c) in OpClass::all().into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CommStats {
            gets: 1,
            puts: 2,
            comm_ns: 10,
            ..Default::default()
        };
        let b = CommStats {
            gets: 3,
            msgs_sent: 4,
            comm_ns: 5,
            work_ns: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.gets, 4);
        assert_eq!(a.puts, 2);
        assert_eq!(a.msgs_sent, 4);
        assert_eq!(a.comm_ns, 15);
        assert_eq!(a.work_ns, 7);
    }

    #[test]
    fn total_ops_counts_comm_not_polls() {
        let s = CommStats {
            gets: 1,
            puts: 1,
            atomics: 1,
            lock_acquires: 1,
            lock_failures: 1,
            unlocks: 1,
            bulk_ops: 1,
            msgs_sent: 1,
            msgs_received: 1,
            polls: 100,
            ..Default::default()
        };
        assert_eq!(s.total_ops(), 9);
    }
}
