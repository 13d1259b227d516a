//! Layout of each thread's partition of the global address space.
//!
//! In the UPC sources these are shared variables declared with affinity to
//! each thread; here they are indices into the per-thread scalar cells and
//! locks of the [`pgas`] substrate.

/// `work_avail` (§3.3.1): number of stealable chunks in this thread's shared
/// region, or [`OUT_OF_WORK`] when the thread has no work at all. The
/// tri-state reading ("working threads with no surplus work" = 0 vs
/// "threads with no work at all" = -1) is what the streamlined termination
/// detector relies on.
pub const WORK_AVAIL: usize = 0;
/// Steal-request cell (§3.3.3): a thief CASes its id here; [`NO_REQUEST`]
/// when free. Affinity: the victim, so the victim's poll is a local read.
pub const REQUEST: usize = 1;
/// Response cell (§3.3.3): the victim writes the granted chunk count here.
/// Affinity: the *thief*, so the thief's wait-spin is a local read.
/// [`RESP_PENDING`] while waiting.
pub const RESP_AMT: usize = 2;
/// Response cell: offset (in items) of the granted region in the victim's
/// area. Affinity: the thief. Must be written *before* `RESP_AMT`.
pub const RESP_OFFSET: usize = 3;
/// Per-thread termination flag, set by the tree-based announcement (§3.3.1)
/// or by the cancelable-barrier owner (§3.1). Spinning on one's own flag is
/// a local read.
pub const TERM: usize = 4;
/// Barrier occupancy count. Affinity: thread 0.
pub const BARRIER_COUNT: usize = 5;
/// Cancelable-barrier epoch (§3.1): bumped by every releasing thread to
/// kick waiters out of the barrier. Affinity: thread 0.
pub const CANCEL_EPOCH: usize = 6;
/// Index (in items) of the first live chunk of the shared region (steals
/// are served oldest-first from here). Owner-maintained for the lock-less
/// variant; lock-protected for the locked variants.
pub const STEAL_BASE: usize = 7;
/// Cumulative chunks fully copied out by thieves (each thief fetch-adds
/// after its one-sided get completes); the owner may only reclaim area
/// space when this equals its own cumulative grant count.
pub const ACK: usize = 8;
/// Cumulative chunks granted/reserved (locked variants keep it shared so
/// thieves can reserve under lock; the lock-less owner keeps it private).
pub const RESERVED: usize = 9;

// ---- Crash-recovery cells (docs/faults.md "Crash faults and recovery").
// Only ever written when the active FaultPlan has a crash class enabled;
// fault-free runs never touch them, preserving bit-identity.

/// Quiescence marker: 1 while this rank is out of work (parked in crash-mode
/// work discovery, or dead), 0 while it holds work. Written by the owner
/// only; rank 0's quiescence scan reads it.
pub const Q_OUT: usize = 10;
/// Work-acquisition epoch: bumped by the owner every time it transitions
/// out → working. Rank 0's double scan declares termination only when two
/// consecutive quiescent scans observe identical epoch vectors.
pub const EPOCH: usize = 11;
/// In-flight work marker: number of acquisitions/grants chargeable to this
/// rank that quiescence must wait out (a thief mid-steal, a donor with
/// unacknowledged WORK grants). Termination requires 0 everywhere.
pub const LIN_OUT: usize = 12;
/// Lease heartbeat: last virtual time the rank proved liveness (throttled
/// own-cell put piggybacked on polls and idle loops).
pub const HEARTBEAT: usize = 13;
/// Death flag: the dying rank's last write, after its spill is published.
/// Survivors confirm a stale heartbeat against this cell.
pub const DEAD: usize = 14;
/// Item offset of the dead rank's spilled work in its area.
pub const SPILL_OFF: usize = 15;
/// Item count of the dead rank's spilled work (0 = died empty-handed).
pub const SPILL_LEN: usize = 16;
/// Adoption ticket for the spill: survivors CAS `0 → 1 + me`; exactly one
/// wins and re-injects the orphaned work.
pub const ADOPT: usize = 17;

// ---- Fenced-membership cells (docs/faults.md §8). Only ever written when
// the active FaultPlan has a crash class enabled.

/// Incarnation number of the rank currently (or last) operating this
/// partition: starts at 0, bumped by the owner on every rejoin/restart.
/// Survivors read it to re-admit an evicted rank under a new incarnation.
pub const INCARNATION: usize = 18;
/// Quorum eviction ballot, packed `(suspected_incarnation << 32) | votes`:
/// suspecting ranks CAS the vote count up; the voter whose CAS reaches
/// `quorum(n)` becomes the eviction executor.
pub const EVICT_VOTES: usize = 19;
/// Eviction fence: `1 + incarnation` of the evicted tenant, written by the
/// eviction executor *before* scavenging. A zombie resuming from a gray
/// stall or healed partition reads its own cell, sees its incarnation
/// fenced, and must re-enter as a new incarnation (or stay dead).
pub const EVICTED: usize = 20;

// ---- Service-mode cells (docs/service.md). Only ever written by
// service-mode runs (`run_service_sim`); batch runs never touch them.

/// Service shutdown flag: rank 0 broadcasts 1 once every request has been
/// injected *and* detected complete. Workers poll their own copy locally.
pub const SVC_TERM: usize = 21;
/// Admission window: how many epochs may be in flight at once. Epoch `e`
/// shares its cells with epochs `e ± SVC_WINDOW`, so injection of `e` waits
/// until `e - SVC_WINDOW` is declared complete.
pub const SVC_WINDOW: usize = 16;
/// Rank-0 done board, [`SVC_WINDOW`] cells: scanners write `epoch + 1` into
/// slot `epoch % SVC_WINDOW` when they declare that epoch quiescent.
pub const SVC_DONE_BASE: usize = SVC_TERM + 1;
/// Per-rank scan assignment board, [`SVC_WINDOW`] cells: rank 0 writes
/// `epoch + 1` into slot `epoch % SVC_WINDOW` of the scanner rank it
/// assigns that epoch to (normally `epoch % n`, reassigned on death).
pub const SVC_ASSIGN_BASE: usize = SVC_DONE_BASE + SVC_WINDOW;
/// Per-rank per-epoch accounting cells, [`SVC_WINDOW`] slots: slot
/// `epoch % SVC_WINDOW` holds this rank's packed
/// `(write-count, task deficit)` for the one live epoch of that residue
/// class, reset when the rank first touches the epoch — see
/// `service::SvcAccount` for the packing and the snapshot argument.
///
/// The service layout's one variable-size block, the touch boards
/// (`SVC_WINDOW × ⌈n/63⌉` cells per rank naming the ranks that touched each
/// epoch), is not here: `run_service_sim` allocates it above [`DAG_BASE`]
/// and the workload's extra cells, so batch layouts never see it.
pub const SVC_SLOT_BASE: usize = SVC_ASSIGN_BASE + SVC_WINDOW;

/// Base of the block of cells reserved for the end-of-run collective
/// reduction (the `upc_all_reduce` analog that combines per-thread node
/// counts, as in the original UTS sources).
pub const COLL_BASE: usize = SVC_SLOT_BASE + SVC_WINDOW;

/// Number of scalar cells the algorithms need per thread.
pub const N_SCALARS: usize = COLL_BASE + pgas::collectives::COLLECTIVE_CELLS;

/// Base of the per-workload cell block, allocated *above* the fixed
/// protocol layout when the workload asks for it
/// ([`crate::taskgen::TaskGen::extra_scalars`]). DAG workloads stripe task
/// `t`'s pending-dependency count-up cell to rank `t mod p`, slot
/// `DAG_BASE + t div p` (see `crate::workload`). Tree workloads request no
/// extra cells and never touch this region, preserving the seed layout
/// bit-exactly.
pub const DAG_BASE: usize = N_SCALARS;

/// `work_avail` value meaning "no work at all" (distinct from 0 = working
/// with no surplus).
pub const OUT_OF_WORK: i64 = -1;
/// `REQUEST` value meaning "no thief waiting".
pub const NO_REQUEST: i64 = -1;
/// `RESP_AMT` value meaning "response not yet written".
pub const RESP_PENDING: i64 = -1;

/// Lock guarding a thread's shared stack region (locked variants).
pub const STACK_LOCK: usize = 0;
/// Lock guarding the barrier cells on thread 0 (§3.1 cancelable barrier).
pub const BARRIER_LOCK: usize = 1;

/// Number of locks per thread.
pub const N_LOCKS: usize = 2;

/// The [`pgas::SpaceConfig`] every run uses.
pub fn space_config() -> pgas::SpaceConfig {
    pgas::SpaceConfig {
        scalars: N_SCALARS,
        locks: N_LOCKS,
    }
}

/// The [`pgas::SpaceConfig`] for a specific workload on `n_threads` ranks:
/// the fixed protocol layout plus whatever per-workload cells the generator
/// requests above [`DAG_BASE`]. Identical to [`space_config`] for tree
/// workloads (which request none).
pub fn space_config_for<G: crate::taskgen::TaskGen>(gen: &G, n_threads: usize) -> pgas::SpaceConfig {
    pgas::SpaceConfig {
        scalars: N_SCALARS + gen.extra_scalars(n_threads),
        locks: N_LOCKS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberate layout checks
    fn indices_are_distinct_and_in_range() {
        let idx = [
            WORK_AVAIL,
            REQUEST,
            RESP_AMT,
            RESP_OFFSET,
            TERM,
            BARRIER_COUNT,
            CANCEL_EPOCH,
            STEAL_BASE,
            ACK,
            RESERVED,
            Q_OUT,
            EPOCH,
            LIN_OUT,
            HEARTBEAT,
            DEAD,
            SPILL_OFF,
            SPILL_LEN,
            ADOPT,
            INCARNATION,
            EVICT_VOTES,
            EVICTED,
            SVC_TERM,
        ];
        for (i, a) in idx.iter().enumerate() {
            assert!(*a < N_SCALARS);
            for b in idx.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert!(STACK_LOCK != BARRIER_LOCK);
        assert!(STACK_LOCK < N_LOCKS && BARRIER_LOCK < N_LOCKS);
        // The service boards are disjoint, contiguous, and below the
        // collective block.
        assert_eq!(SVC_DONE_BASE, SVC_TERM + 1);
        assert_eq!(SVC_ASSIGN_BASE, SVC_DONE_BASE + SVC_WINDOW);
        assert_eq!(SVC_SLOT_BASE, SVC_ASSIGN_BASE + SVC_WINDOW);
        assert_eq!(COLL_BASE, SVC_SLOT_BASE + SVC_WINDOW);
        // The collective block must not overlap the protocol cells.
        assert!(idx.iter().all(|&i| i < COLL_BASE));
        assert_eq!(COLL_BASE + pgas::collectives::COLLECTIVE_CELLS, N_SCALARS);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberate layout checks
    fn sentinels_are_negative() {
        assert!(OUT_OF_WORK < 0);
        assert!(NO_REQUEST < 0);
        assert!(RESP_PENDING < 0);
    }
}
