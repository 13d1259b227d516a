//! Crash recovery: chunk lineage, lease-based death detection, orphan
//! adoption, and crash-mode quiescence (docs/faults.md "Crash faults and
//! recovery").
//!
//! When the active [`pgas::FaultPlan`] enables a crash class (message loss,
//! message duplication, rank death — [`pgas::FaultPlan::crash_active`]), the
//! paper's termination detectors are unsound: the token ring's sent/recv
//! counts never balance under loss, and the barriers would wait forever for
//! a dead rank. The scheduler then runs the recovery-aware idle loop of
//! [`crate::sched::termination`] in every detector's place, which drives
//! the machinery in this module:
//!
//! - **Leases/heartbeats**: every live rank periodically writes `now` into
//!   its [`crate::vars::HEARTBEAT`] cell (piggybacked on existing poll and
//!   idle iterations). A rank whose heartbeat goes stale beyond the lease is
//!   *suspected*; suspicion is confirmed against its [`crate::vars::DEAD`]
//!   cell, which the dying rank publishes as its very last write — so a slow
//!   rank is never falsely declared dead.
//! - **Spill and adoption**: a dying rank folds its shared region and open
//!   grants back into its local deque, appends everything to its area as a
//!   *spill*, publishes `(SPILL_OFF, SPILL_LEN)`, and only then raises
//!   `DEAD`. Survivors race a CAS on the [`crate::vars::ADOPT`] ticket;
//!   exactly one wins and re-injects the orphaned subtrees.
//! - **Lineage**: the message transport records every in-flight grant — donor,
//!   thief, node count, subtree fingerprint, payload copy — in a
//!   [`Lineage`] registry. The thief acknowledges receipt (after marking
//!   itself working); a grant that is never acknowledged (lost WORK message,
//!   lost ACK, or dead thief) is re-injected by the donor after a timeout,
//!   trading bounded duplication for guaranteed at-least-once exploration.
//! - **Quiescence**: rank 0 runs a Dijkstra-style double scan over the
//!   `Q_OUT`/`LIN_OUT`/`EPOCH` cells. Every acquisition of work marks the
//!   acquirer working (or holds a `LIN_OUT` guard) *before* the source's
//!   outgoing marker clears, so two consecutive all-quiet scans with
//!   identical epoch vectors prove no work exists or is in flight.
//!
//! Correctness under crash faults is **conservation with multiplicity**
//! (PAPERS.md, arxiv 2008.04424): UTS node exploration is idempotent and
//! children are a pure function of the parent, so re-executing a recovered
//! subtree is safe. Every node is explored at least once (nothing is ever
//! dropped without a surviving copy: spill, lineage payload, or the
//! original) and at most a small number of times (duplication only on the
//! rare ACK-loss / re-injection races, counted exactly by the fingerprint
//! multiset in [`crate::report::RunReport`]).

use pgas::comm::Item;
use pgas::{Comm, FaultPlan, Msg};

use crate::sched::Cx;
use crate::stack::DfsStack;
use crate::trace::Event;
use crate::vars;

/// Receipt acknowledgement for a lineage-tracked grant (message
/// transports). `meta[0]` carries the grant id. Crash mode only.
pub const TAG_ACK: i64 = 4;

/// Interval between heartbeat writes (virtual ns).
pub const HEARTBEAT_INTERVAL_NS: u64 = 40_000;
/// A heartbeat older than this marks its rank as suspected dead.
pub const LEASE_NS: u64 = 150_000;
/// Interval between death-detection scans of other ranks' heartbeats.
pub const SCAN_INTERVAL_NS: u64 = 60_000;
/// Interval between rank 0's quiescence scans.
pub const QUIESCENCE_INTERVAL_NS: u64 = 40_000;
/// A grant unacknowledged for this long is re-injected by its donor.
pub const REINJECT_TIMEOUT_NS: u64 = 400_000;
/// Idle backoff between crash-mode discovery iterations.
pub const CRASH_IDLE_BACKOFF_NS: u64 = 3_000;
/// A suspected rank (stale lease, no deathbed) is put up for quorum
/// eviction once its suspicion has lasted this long (docs/faults.md §8).
pub const EVICT_TIMEOUT_NS: u64 = 300_000;

/// Votes needed to evict a rank without its cooperation: a strict majority
/// of the *total* membership, so two sides of a partition can never both
/// assemble a quorum.
pub const fn quorum(n: usize) -> usize {
    n / 2 + 1
}

/// Per-rank crash-recovery state, carried in [`crate::sched::Cx`]. Inert
/// (every method an early-return, zero comm operations) unless the run's
/// fault plan has a crash class active — which is what keeps fault-free and
/// delay-only-faulted runs bit-identical to their pre-crash-layer results.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// Whether crash-mode recovery is running (plan has a crash class).
    pub active: bool,
    me: usize,
    n: usize,
    /// This rank's scheduled death, if the plan kills it.
    kill_at: Option<u64>,
    /// Confirmed-dead ranks (stale lease + DEAD flag observed).
    dead: Vec<bool>,
    /// Dead ranks whose spill this rank has already resolved (adopted,
    /// lost the adoption race, or found empty).
    adopt_done: Vec<bool>,
    /// Current published `Q_OUT` state (true = out of work).
    out_published: bool,
    /// Local mirror of our `EPOCH` cell.
    epoch: i64,
    next_heartbeat: u64,
    next_scan: u64,
    next_quiesce: u64,
    /// Rank 0 only: epoch vector of the previous all-quiet scan.
    prev_epochs: Option<Vec<i64>>,
    // ---- Fenced membership (docs/faults.md §8).
    /// Our current incarnation (0 at startup, bumped on every rejoin).
    inc: i64,
    /// We observed our own eviction fence; the driver must fold our held
    /// work and either rejoin as a new incarnation or retire.
    fenced: bool,
    /// Ranks fenced out by quorum eviction (no deathbed observed).
    evicted: Vec<bool>,
    /// Minimum admissible incarnation per rank: messages stamped below this
    /// are zombie traffic and must be dropped.
    inc_floor: Vec<i64>,
    /// Last `INCARNATION` value observed per rank (ballot identity).
    known_inc: Vec<i64>,
    /// Virtual time each rank's current suspicion started (0 = unsuspected).
    suspect_since: Vec<u64>,
    /// Incarnation we last voted to evict, per rank (-1 = no open vote).
    voted_inc: Vec<i64>,
    /// Evictions this rank executed whose shared cells still await the
    /// transport's scavenge pass (drained by the idle loop).
    pending_scavenge: Vec<usize>,
    /// This rank's scheduled post-kill restart, if the plan revives it.
    restart_at: Option<u64>,
    /// Evictions this rank executed (copied into the run report).
    pub evictions: u64,
    /// Times this rank re-entered as a new incarnation (report counter).
    pub rejoins: u64,
    /// Zombie messages [`Recovery::try_recv`] dropped (report counter).
    pub fenced_drops: u64,
}

impl Recovery {
    /// Recovery state for rank `me` of `n` under `faults`. Inactive (all
    /// methods no-ops) unless the plan has a crash class enabled.
    pub fn new(me: usize, n: usize, faults: &FaultPlan) -> Recovery {
        let active = faults.crash_active();
        Recovery {
            active,
            me,
            n,
            kill_at: if active { faults.kill_time(me, n) } else { None },
            dead: vec![false; if active { n } else { 0 }],
            adopt_done: vec![false; if active { n } else { 0 }],
            out_published: false,
            epoch: 0,
            next_heartbeat: 0,
            next_scan: 0,
            next_quiesce: 0,
            prev_epochs: None,
            inc: 0,
            fenced: false,
            evicted: vec![false; if active { n } else { 0 }],
            inc_floor: vec![0; if active { n } else { 0 }],
            known_inc: vec![0; if active { n } else { 0 }],
            suspect_since: vec![0; if active { n } else { 0 }],
            voted_inc: vec![-1; if active { n } else { 0 }],
            pending_scavenge: Vec::new(),
            restart_at: if active { faults.restart_time(me, n) } else { None },
            evictions: 0,
            rejoins: 0,
            fenced_drops: 0,
        }
    }

    /// Inactive recovery (for contexts built outside a run).
    pub fn inactive() -> Recovery {
        Recovery::new(0, 1, &FaultPlan::none())
    }

    /// Is `rank` confirmed dead?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.active && self.dead[rank]
    }

    /// Is `rank` out of the membership — confirmed dead *or* evicted by
    /// quorum? Victim selection, grant targeting, and scanner assignment
    /// must all skip gone ranks.
    pub fn is_gone(&self, rank: usize) -> bool {
        self.active && (self.dead[rank] || self.evicted[rank])
    }

    /// Was `rank` evicted by quorum (fenced out without a deathbed)?
    pub fn is_evicted(&self, rank: usize) -> bool {
        self.active && self.evicted[rank]
    }

    /// Did this rank observe its own eviction fence? The driver must fold
    /// every node the old incarnation still holds (transport deathbed hook)
    /// and then [`Recovery::rejoin`].
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// This rank's current incarnation.
    pub fn incarnation(&self) -> i64 {
        self.inc
    }

    /// The fenced envelope, outbound (docs/faults.md §8): the `meta` of a
    /// two-sided transport's message — `id`, and our incarnation in `meta[3]`.
    pub fn stamp(&self, id: i64) -> [i64; 4] {
        [id, 0, 0, self.inc]
    }

    /// The fenced envelope, inbound: the earliest message of the first of
    /// `tags` that has one. A message stamped below its sender's admission
    /// floor is an evicted tenant's: it is dropped unconsumed and un-ACKed (a
    /// zombie's grant survives in its own lineage copy and folds back when it
    /// refences), counted, and the search restarts from `tags[0]`.
    pub fn try_recv<T: Item, C: Comm<T>>(&mut self, comm: &mut C, tags: &[i64]) -> Option<Msg<T>> {
        loop {
            let m = tags.iter().find_map(|&tag| comm.try_recv(Some(tag)))?;
            if !self.active || m.meta[3] >= self.inc_floor[m.src] {
                return Some(m);
            }
            self.fenced_drops += 1;
        }
    }

    /// Next eviction this rank executed whose shared region still awaits
    /// the transport scavenge pass.
    pub fn take_scavenge(&mut self) -> Option<usize> {
        self.pending_scavenge.pop()
    }

    /// This rank's scheduled post-kill restart time, if any.
    pub fn restart_at(&self) -> Option<u64> {
        self.restart_at
    }

    /// Has this rank's scheduled death arrived?
    pub fn kill_due(&self, now: u64) -> bool {
        matches!(self.kill_at, Some(t) if now >= t)
    }

    /// Mark this rank working: clear `Q_OUT` and bump the epoch. Must run
    /// *before* the work source's outgoing marker clears (ACK send, guard
    /// drop) — that ordering is what makes the double scan sound. Idempotent
    /// while already marked working.
    pub fn publish_working<T: Item, C: Comm<T>>(&mut self, comm: &mut C) {
        if !self.active || !self.out_published {
            return;
        }
        comm.put(self.me, vars::Q_OUT, 0);
        self.epoch += 1;
        comm.put(self.me, vars::EPOCH, self.epoch);
        self.out_published = false;
    }

    /// Mark this rank out of work (idempotent).
    pub fn publish_out<T: Item, C: Comm<T>>(&mut self, comm: &mut C) {
        if !self.active || self.out_published {
            return;
        }
        comm.put(self.me, vars::Q_OUT, 1);
        self.out_published = true;
    }

    /// Open an acquisition guard: quiescence cannot be declared while any
    /// rank's `LIN_OUT` is nonzero. Pull-transport thieves wrap each steal
    /// attempt in a guard; the guard must only drop after
    /// [`Recovery::publish_working`] on success.
    pub fn guard_begin<T: Item, C: Comm<T>>(&mut self, comm: &mut C) {
        if self.active {
            comm.add(self.me, vars::LIN_OUT, 1);
        }
    }

    /// Close an acquisition guard.
    pub fn guard_end<T: Item, C: Comm<T>>(&mut self, comm: &mut C) {
        if self.active {
            comm.add(self.me, vars::LIN_OUT, -1);
        }
    }

    /// Prove liveness: write `now` into our heartbeat cell (throttled).
    pub fn heartbeat<T: Item, C: Comm<T>>(&mut self, comm: &mut C) {
        if !self.active {
            return;
        }
        let now = comm.now();
        if now >= self.next_heartbeat {
            comm.put(self.me, vars::HEARTBEAT, now as i64);
            // Self-fence check, piggybacked on the lease cadence: a fence
            // value above our incarnation means a quorum evicted us while
            // we were stalled (gray failure or partition).
            if !self.fenced && comm.get(self.me, vars::EVICTED) > self.inc {
                self.fenced = true;
            }
            self.next_heartbeat = now + HEARTBEAT_INTERVAL_NS;
        }
    }

    /// Membership scan (throttled). For every other rank:
    ///
    /// - **Re-admission**: a gone rank whose `INCARNATION` cell moved past
    ///   our admissibility floor rejoined — clear every verdict about its
    ///   old tenant.
    /// - **Eviction observation**: a fence written by another executor
    ///   marks the rank evicted here too (and raises the floor).
    /// - **Confirmed death** (unchanged): stale lease *and* `DEAD` raised.
    /// - **Quorum eviction**: stale lease with *no* deathbed starts a
    ///   suspicion timer; once it exceeds [`EVICT_TIMEOUT_NS`] we CAS one
    ///   vote onto the rank's ballot. The voter whose CAS lands exactly the
    ///   [`quorum`]th vote becomes the eviction executor: it writes the
    ///   fence, opens a `LIN_OUT` guard, and queues the rank for the
    ///   transport scavenge pass. A fresh heartbeat withdraws suspicion and
    ///   clears our ballot contribution.
    ///
    /// Returns a newly *confirmed-dead* rank, if any (evictions are
    /// reported through [`Recovery::take_scavenge`] and the counters).
    pub fn scan<T: Item, C: Comm<T>>(&mut self, comm: &mut C) -> Option<usize> {
        if !self.active {
            return None;
        }
        let now = comm.now();
        if now < self.next_scan {
            return None;
        }
        self.next_scan = now + SCAN_INTERVAL_NS;
        let mut newly_dead = None;
        for r in 0..self.n {
            if r == self.me {
                continue;
            }
            if self.dead[r] || self.evicted[r] {
                // Re-admission: only a gone rank can rejoin, and it always
                // announces itself by bumping its own INCARNATION cell.
                let inc = comm.get(r, vars::INCARNATION);
                if inc > self.known_inc[r] && inc >= self.inc_floor[r] {
                    self.known_inc[r] = inc;
                    self.dead[r] = false;
                    self.evicted[r] = false;
                    self.adopt_done[r] = false;
                    self.suspect_since[r] = 0;
                    self.voted_inc[r] = -1;
                }
                continue;
            }
            // Observe an eviction executed by another rank: the fence holds
            // `1 + evicted_incarnation`.
            let fence = comm.get(r, vars::EVICTED);
            if fence > self.known_inc[r] {
                self.known_inc[r] = fence - 1;
                self.inc_floor[r] = fence;
                self.evicted[r] = true;
                self.suspect_since[r] = 0;
                continue;
            }
            let hb = comm.get(r, vars::HEARTBEAT) as u64;
            if comm.now().saturating_sub(hb) <= LEASE_NS {
                // Fresh lease: withdraw suspicion and our ballot share.
                if self.suspect_since[r] != 0 {
                    self.suspect_since[r] = 0;
                    if self.voted_inc[r] == self.known_inc[r] {
                        comm.put(r, vars::EVICT_VOTES, 0);
                        self.voted_inc[r] = -1;
                    }
                }
                continue;
            }
            if comm.get(r, vars::DEAD) == 1 {
                self.dead[r] = true;
                self.suspect_since[r] = 0;
                newly_dead.get_or_insert(r);
                continue;
            }
            // Stale lease, no deathbed: suspected. Time the suspicion, then
            // vote for eviction.
            let t = comm.now().max(1);
            if self.suspect_since[r] == 0 {
                self.suspect_since[r] = t;
                continue;
            }
            if t.saturating_sub(self.suspect_since[r]) < EVICT_TIMEOUT_NS
                || self.voted_inc[r] == self.known_inc[r]
            {
                continue;
            }
            let mut ballot_inc = self.known_inc[r];
            let mut cur = comm.get(r, vars::EVICT_VOTES);
            loop {
                let (cinc, votes) = (cur >> 32, cur & 0xFFFF_FFFF);
                // A ballot for a newer incarnation than we knew means our
                // view was stale; join it rather than resetting it.
                if cinc > ballot_inc {
                    ballot_inc = cinc;
                    self.known_inc[r] = cinc;
                }
                let new = if cinc == ballot_inc {
                    (ballot_inc << 32) | (votes + 1)
                } else {
                    (ballot_inc << 32) | 1
                };
                let seen = comm.cas(r, vars::EVICT_VOTES, cur, new);
                if seen != cur {
                    cur = seen;
                    continue;
                }
                self.voted_inc[r] = ballot_inc;
                if (new & 0xFFFF_FFFF) as usize == quorum(self.n) {
                    // Our vote completed the quorum: we are the executor.
                    // Fence first, then guard the scavenge window so
                    // quiescence waits for the reclaimed work to land.
                    comm.put(r, vars::EVICTED, 1 + ballot_inc);
                    self.evicted[r] = true;
                    self.inc_floor[r] = ballot_inc + 1;
                    self.suspect_since[r] = 0;
                    self.evictions += 1;
                    self.guard_begin(comm);
                    self.pending_scavenge.push(r);
                }
                break;
            }
        }
        newly_dead
    }

    /// Try to adopt a confirmed-dead rank's spilled work. Exactly one
    /// survivor wins the `ADOPT` CAS, copies the spill onto its own stack,
    /// marks itself working, and clears the dead rank's in-flight marker.
    /// Returns `(dead_rank, items_recovered)` on a successful adoption.
    pub fn try_adopt<T: Item, C: Comm<T>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
    ) -> Option<(usize, u64)> {
        if !self.active {
            return None;
        }
        for r in 0..self.n {
            if !self.dead[r] || self.adopt_done[r] {
                continue;
            }
            let slen = comm.get(r, vars::SPILL_LEN);
            if slen <= 0 {
                self.adopt_done[r] = true;
                continue;
            }
            self.guard_begin(comm);
            let won = comm.cas(r, vars::ADOPT, 0, 1 + self.me as i64) == 0;
            if won {
                let off = comm.get(r, vars::SPILL_OFF) as usize;
                let mut buf = Vec::with_capacity(slen as usize);
                comm.area_read(r, off, slen as usize, &mut buf);
                stack.push_all(&buf);
                // Working-before-unguard: the spill is accounted to us from
                // here on, never invisible to a quiescence scan.
                self.publish_working(comm);
                comm.put(r, vars::LIN_OUT, 0);
            }
            self.guard_end(comm);
            self.adopt_done[r] = true;
            if won {
                return Some((r, slen as u64));
            }
        }
        None
    }

    /// Rank 0's quiescence check (throttled): one scan reads every rank's
    /// `(Q_OUT, LIN_OUT, EPOCH)`; two consecutive all-quiet scans with
    /// identical epoch vectors prove global termination, which rank 0 then
    /// broadcasts through the `TERM` cells. Dead ranks read as permanently
    /// quiet (their deathbed leaves `LIN_OUT = 1` until the spill is
    /// adopted, so orphaned work blocks termination).
    pub fn quiescence_check<T: Item, C: Comm<T>>(&mut self, comm: &mut C) -> bool {
        if !self.active {
            return false;
        }
        debug_assert_eq!(self.me, 0, "only rank 0 runs the quiescence scan");
        let now = comm.now();
        if now < self.next_quiesce {
            return false;
        }
        self.next_quiesce = now + QUIESCENCE_INTERVAL_NS;
        let mut epochs = vec![0i64; self.n];
        for (r, e) in epochs.iter_mut().enumerate() {
            if self.evicted[r] {
                // An evicted tenant is outside the membership: its markers
                // are unreadable promises of a stalled zombie. Any work it
                // still holds is fenced with it and self-drained after it
                // thaws (see docs/faults.md §8). The slot carries the fence
                // value so a rejoin between the two scans changes the
                // vector and disarms the double scan.
                *e = -self.inc_floor[r] - 1;
                continue;
            }
            if comm.get(r, vars::Q_OUT) != 1 || comm.get(r, vars::LIN_OUT) != 0 {
                self.prev_epochs = None;
                return false;
            }
            *e = comm.get(r, vars::EPOCH);
        }
        if self.prev_epochs.as_deref() == Some(&epochs) {
            for r in 1..self.n {
                comm.put(r, vars::TERM, 1);
            }
            return true;
        }
        self.prev_epochs = Some(epochs);
        false
    }

    /// Non-root termination check: has rank 0 broadcast quiescence?
    pub fn term_seen<T: Item, C: Comm<T>>(&mut self, comm: &mut C) -> bool {
        self.active && comm.get(self.me, vars::TERM) == 1
    }

    /// The deathbed's final act, after the transport hook folded every
    /// shared chunk and open grant back into the local deque: append the
    /// whole deque to our area as the spill, publish its coordinates, and
    /// raise `DEAD` as the very last write. `LIN_OUT` is left at 1 while the
    /// spill holds work, so quiescence cannot be declared before adoption.
    /// Returns the number of spilled items.
    pub fn spill_and_die<T: Item, C: Comm<T>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
    ) -> u64 {
        let me = self.me;
        let items = stack.drain_local();
        // A rank that dies for good while evicted — frozen past its lease,
        // voted out, killed before its first heartbeat back — is on every
        // survivor's books as *evicted*, and a scan re-examines only an
        // evicted rank's `INCARNATION`, never its `DEAD` flag: a spill
        // would be orphaned. Announce a new incarnation first, so survivors
        // re-admit the rank, find its lease stale and `DEAD` raised, and
        // adopt. A rank whose last heartbeat is younger than lease +
        // eviction timeout cannot have been evicted, one that restarts
        // reclaims its own spill, and one that dies empty-handed leaves
        // nothing to adopt: none of them pays for the fence read.
        let last_beat = self.next_heartbeat.saturating_sub(HEARTBEAT_INTERVAL_NS);
        if !items.is_empty()
            && self.restart_at.is_none()
            && comm.now() >= last_beat + LEASE_NS + EVICT_TIMEOUT_NS
        {
            let fence = comm.get(me, vars::EVICTED);
            if fence > self.inc {
                self.inc = fence;
                comm.put(me, vars::INCARNATION, self.inc);
            }
        }
        let off = comm.area_len(me);
        if !items.is_empty() {
            comm.area_write(me, off, &items);
        }
        comm.put(me, vars::SPILL_OFF, off as i64);
        comm.put(me, vars::SPILL_LEN, items.len() as i64);
        comm.put(me, vars::Q_OUT, 1);
        comm.put(me, vars::LIN_OUT, i64::from(!items.is_empty()));
        comm.put(me, vars::DEAD, 1);
        self.out_published = true;
        items.len() as u64
    }

    /// Re-enter the computation as a fresh incarnation after observing our
    /// own eviction. The caller must already have folded everything the old
    /// incarnation held — shared-region chunks, open lineage grants — into
    /// the local deque (transport deathbed hook); `has_work` says whether
    /// that left the deque nonempty. Publishes the bumped `INCARNATION`
    /// (the re-admission signal survivors watch), clears our ballot,
    /// refreshes the lease, and re-publishes our quiescence state under the
    /// new tenancy.
    pub fn rejoin<T: Item, C: Comm<T>>(&mut self, comm: &mut C, has_work: bool) {
        if !self.active {
            return;
        }
        let me = self.me;
        // The new incarnation must clear both our own history and whatever
        // fence was written against us.
        self.inc = (self.inc + 1).max(comm.get(me, vars::EVICTED));
        comm.put(me, vars::INCARNATION, self.inc);
        comm.put(me, vars::EVICT_VOTES, 0);
        // The deathbed fold emptied the lineage registry; the in-flight
        // marker restarts clean.
        comm.put(me, vars::LIN_OUT, 0);
        self.fenced = false;
        self.rejoins += 1;
        let now = comm.now();
        comm.put(me, vars::HEARTBEAT, now as i64);
        self.next_heartbeat = now + HEARTBEAT_INTERVAL_NS;
        if has_work {
            self.out_published = true; // force the republish
            self.publish_working(comm);
        } else {
            self.out_published = false;
            self.publish_out(comm);
        }
    }

    /// A killed rank coming back ([`pgas::FaultPlan::restart_after_ns`]):
    /// reclaim our own spill if no survivor adopted it yet (the `ADOPT` CAS
    /// race is fair — either way the work survives, plus bounded
    /// multiplicity on the rare stale-read race), clear the deathbed cells,
    /// and [`Recovery::rejoin`] as a fresh incarnation. Returns the number
    /// of self-adopted items.
    pub fn restart<T: Item, C: Comm<T>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
    ) -> u64 {
        if !self.active {
            return 0;
        }
        let me = self.me;
        let mut recovered = 0u64;
        let slen = comm.get(me, vars::SPILL_LEN);
        if slen > 0 && comm.cas(me, vars::ADOPT, 0, 1 + me as i64) == 0 {
            let off = comm.get(me, vars::SPILL_OFF) as usize;
            let mut buf = Vec::with_capacity(slen as usize);
            comm.area_read(me, off, slen as usize, &mut buf);
            stack.push_all(&buf);
            recovered = slen as u64;
        }
        // Whatever the adoption race decided, the new tenant starts with a
        // clean deathbed.
        comm.put(me, vars::SPILL_LEN, 0);
        comm.put(me, vars::ADOPT, 0);
        comm.put(me, vars::DEAD, 0);
        // The plan's kill has fired; the restart consumes it.
        self.kill_at = None;
        self.restart_at = None;
        self.rejoin(comm, !stack.is_local_empty());
        recovered
    }
}

/// One in-flight grant tracked by a donor-side [`Lineage`] registry.
#[derive(Clone, Debug)]
pub struct Grant<T> {
    /// Grant id (carried in the WORK message's `meta[0]` and echoed by
    /// the ACK).
    pub id: u64,
    /// Receiving rank.
    pub thief: usize,
    /// Items in the grant.
    pub items: u64,
    /// Virtual send time (re-injection deadline base).
    pub sent_at: u64,
    payload: Vec<T>,
}

impl<T> Grant<T> {
    /// The granted items (the payload copy held for re-injection).
    pub fn payload(&self) -> &[T] {
        &self.payload
    }
}

/// The transfer ledger of a two-sided transport: every work-carrying message
/// goes out through [`Lineage::grant`] and comes in through
/// [`Lineage::accept`], which keep the `sent`/`recv` counts the token ring
/// reads. Under a crash plan — only then does it issue operations of its
/// own — it is also the donor-side registry of in-flight grants: a payload
/// copy per grant so an unacknowledged chunk can be re-injected, its
/// open-entry count published through the donor's `LIN_OUT` cell so
/// quiescence waits for every grant to settle.
#[derive(Clone, Debug, Default)]
pub struct Lineage<T> {
    next_id: u64,
    open: Vec<Grant<T>>,
    sent: i64,
    recv: i64,
    /// Service mode's task→epoch extractor (`docs/service.md`), so absorbed
    /// and ACK-closed payloads go on the per-epoch books; `None` in batch runs.
    pub epoch_of: Option<fn(&T) -> u32>,
}

impl<T: Item> Lineage<T> {
    /// Cumulative (sent, received) transfer counts, for the token ring.
    pub fn counts(&self) -> (i64, i64) {
        (self.sent, self.recv)
    }

    /// Counted send of `payload` to `dst`. Under a crash plan,
    /// grant-before-send: the lineage entry (and the `LIN_OUT` marker it
    /// raises) exists before the message can, and its id rides in `meta[0]`.
    pub fn grant<C: Comm<T>>(
        &mut self,
        comm: &mut C,
        rec: &Recovery,
        dst: usize,
        tag: i64,
        payload: &[T],
    ) {
        let id = if rec.active { self.open(comm, dst, payload) } else { 0 };
        comm.send(dst, tag, rec.stamp(id as i64), payload);
        self.sent += 1;
    }

    /// Counted receive of transfer `m`. Under a crash plan, working- and
    /// absorb-before-ACK — the donor's `−items` can only follow our `+items`,
    /// the ordering both quiescence scans' soundness rests on.
    pub fn accept<C: Comm<T>>(&mut self, comm: &mut C, cx: &mut Cx, m: &Msg<T>) {
        self.recv += 1;
        if cx.recovery.active {
            cx.recovery.publish_working(comm);
            if let Some(ep) = self.epoch_of {
                cx.svc.bump_items(comm, &m.payload, ep, 1);
            }
            comm.send(m.src, TAG_ACK, cx.recovery.stamp(m.meta[0]), &[]);
        }
    }

    /// Open grants.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// No grants outstanding?
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Record a grant about to be sent to `thief` and raise the donor's
    /// in-flight marker. Must be called *before* the send so no scan can
    /// observe the message in flight with a clear marker. Returns the grant
    /// id to stamp into the message's `meta[0]`.
    pub fn open<C: Comm<T>>(&mut self, comm: &mut C, thief: usize, payload: &[T]) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let me = comm.my_id();
        comm.add(me, vars::LIN_OUT, 1);
        self.open.push(Grant {
            id,
            thief,
            items: payload.len() as u64,
            sent_at: comm.now(),
            payload: payload.to_vec(),
        });
        id
    }

    /// Close the grant `id` on ACK receipt, returning the closed grant so
    /// the caller can settle per-epoch accounting against its payload
    /// (service mode — see `docs/service.md`). Unknown ids (duplicated or
    /// already re-injected grants) are ignored and return `None`.
    pub fn ack<C: Comm<T>>(&mut self, comm: &mut C, id: u64) -> Option<Grant<T>> {
        if let Some(pos) = self.open.iter().position(|g| g.id == id) {
            let g = self.open.remove(pos);
            comm.add(comm.my_id(), vars::LIN_OUT, -1);
            Some(g)
        } else {
            None
        }
    }

    /// Re-inject grants whose ACK is overdue or whose thief is gone
    /// (confirmed dead or evicted by quorum): the payload copy goes back
    /// onto the donor's own stack (marking
    /// the donor working before the marker drops). Returns the re-injected
    /// item count (0 when nothing was due).
    pub fn reinject_due<C: Comm<T>>(
        &mut self,
        comm: &mut C,
        stack: &mut DfsStack<T>,
        rec: &mut Recovery,
    ) -> u64 {
        if self.open.is_empty() {
            return 0;
        }
        let now = comm.now();
        let mut recovered = 0u64;
        let mut i = 0;
        while i < self.open.len() {
            let due = now.saturating_sub(self.open[i].sent_at) >= REINJECT_TIMEOUT_NS
                || rec.is_gone(self.open[i].thief);
            if due {
                let g = self.open.remove(i);
                stack.push_all(&g.payload);
                rec.publish_working(comm);
                comm.add(comm.my_id(), vars::LIN_OUT, -1);
                recovered += g.items;
            } else {
                i += 1;
            }
        }
        recovered
    }

    /// The donor's periodic duty (no-op outside crash mode): close every
    /// grant whose [`TAG_ACK`] arrived — a fenced incarnation's is dropped,
    /// its grant stays open and re-injects (duplicates are multiplicity-safe)
    /// — then re-inject the overdue ones. Service mode settles the donor's
    /// `−items` at the close, after the thief's `+items`: the books can only
    /// overcount in between, never undercount.
    pub fn service<C: Comm<T>>(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        if !cx.recovery.active {
            return;
        }
        while let Some(m) = cx.recovery.try_recv(comm, &[TAG_ACK]) {
            if let (Some(grant), Some(ep)) = (self.ack(comm, m.meta[0] as u64), self.epoch_of) {
                cx.svc.bump_items(comm, grant.payload(), ep, -1);
            }
        }
        let items = self.reinject_due(comm, stack, &mut cx.recovery);
        if items > 0 {
            cx.res.recovered_nodes += items;
            cx.log.emit(Event::Reinject { t_ns: comm.now(), items });
        }
    }

    /// Deathbed: fold every open payload back into the local deque (it will
    /// ride the spill). No marker updates — the deathbed overwrites
    /// `LIN_OUT` wholesale. Returns the folded item count.
    pub fn drain_into(&mut self, stack: &mut DfsStack<T>) -> u64 {
        let mut items = 0u64;
        for g in self.open.drain(..) {
            stack.push_all(&g.payload);
            items += g.items;
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::sim::SimCluster;
    use pgas::MachineModel;

    /// End-to-end spill/lease/adopt over a 2-rank sim cluster: rank 1 dies
    /// holding three items; rank 0 confirms the death via the stale lease +
    /// DEAD flag, wins the adoption CAS, and recovers all three items. The
    /// quiescence scan refuses to declare while the spill is orphaned and
    /// accepts after adoption.
    #[test]
    fn spill_is_confirmed_and_adopted_exactly_once() {
        let plan = FaultPlan::crashy(7);
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::smp(), 2, crate::vars::space_config());
        let results = cluster
            .run(|comm| {
                let me = comm.my_id();
                let mut rec = Recovery::new(me, 2, &plan);
                assert!(rec.active);
                let mut stack: DfsStack<u64> = DfsStack::new(2);
                if me == 1 {
                    stack.push_all(&[10, 11, 12]);
                    let spilled = rec.spill_and_die(comm, &mut stack);
                    [spilled, 0]
                } else {
                    rec.publish_out(comm);
                    // Stale the victim's lease, then confirm + adopt.
                    comm.advance_idle(2 * LEASE_NS);
                    let mut dead = None;
                    let mut dog = 0;
                    while dead.is_none() {
                        dead = rec.scan(comm);
                        comm.advance_idle(SCAN_INTERVAL_NS);
                        dog += 1;
                        assert!(dog < 100, "death never confirmed");
                    }
                    assert_eq!(dead, Some(1));
                    assert!(rec.is_dead(1));
                    // Orphaned spill blocks quiescence (LIN_OUT = 1).
                    assert!(!rec.quiescence_check(comm));
                    let (rank, items) = rec.try_adopt(comm, &mut stack).expect("adoption");
                    assert_eq!((rank, items), (1, 3));
                    // Second attempt finds nothing left to adopt.
                    assert!(rec.try_adopt(comm, &mut stack).is_none());
                    let got = stack.drain_local();
                    assert_eq!(got, vec![10, 11, 12]);
                    // All quiet now: double scan declares.
                    rec.publish_out(comm);
                    comm.advance_idle(QUIESCENCE_INTERVAL_NS);
                    assert!(!rec.quiescence_check(comm), "first quiet scan arms");
                    comm.advance_idle(QUIESCENCE_INTERVAL_NS);
                    assert!(rec.quiescence_check(comm), "second quiet scan declares");
                    [got.len() as u64, 1]
                }
            })
            .results;
        assert_eq!(results[0], [3, 1]);
        assert_eq!(results[1], [3, 0]);
    }

    /// A rank frozen past its lease is voted out, then dies for good before
    /// its first heartbeat back (a kill that fell inside a partition, no
    /// restart): survivors hold it as *evicted* and would never look at its
    /// `DEAD` flag again. The deathbed's incarnation announcement gets it
    /// re-admitted, confirmed dead and adopted — exactly once.
    #[test]
    fn evicted_rank_that_dies_is_still_adopted() {
        let plan = FaultPlan::crashy(7);
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::smp(), 3, crate::vars::space_config());
        let results = cluster
            .run(|comm| {
                let me = comm.my_id();
                let mut rec = Recovery::new(me, 3, &plan);
                let mut stack: DfsStack<u64> = DfsStack::new(2);
                rec.heartbeat(comm);
                if me == 1 {
                    // Silent long enough for both survivors to suspect,
                    // vote and fence; then the kill lands.
                    comm.advance_idle(2 * (LEASE_NS + EVICT_TIMEOUT_NS));
                    stack.push_all(&[10, 11]);
                    rec.spill_and_die(comm, &mut stack);
                    return [0, 0];
                }
                let (mut saw_evicted, mut adopted) = (0, 0);
                for _ in 0..60 {
                    rec.heartbeat(comm);
                    rec.scan(comm);
                    while rec.take_scavenge().is_some() {
                        rec.guard_end(comm);
                    }
                    saw_evicted |= u64::from(rec.is_evicted(1));
                    if let Some((rank, items)) = rec.try_adopt(comm, &mut stack) {
                        assert_eq!(rank, 1);
                        adopted += items;
                    }
                    comm.advance_idle(SCAN_INTERVAL_NS);
                }
                [saw_evicted, adopted]
            })
            .results;
        assert_eq!([results[0][0], results[2][0]], [1, 1], "rank 1 was never evicted");
        assert_eq!(results[0][1] + results[2][1], 2, "the spill was not adopted exactly once");
    }

    /// Rank 0 fences rank 1's incarnation 0: of rank 1's two messages the one
    /// stamped below the floor is dropped and counted, the one sent after it
    /// rejoined at the floor is delivered.
    #[test]
    fn envelope_drops_traffic_below_the_floor() {
        let plan = FaultPlan::crashy(3);
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::smp(), 2, crate::vars::space_config());
        let report = cluster.run(|comm| {
            let mut rec = Recovery::new(comm.my_id(), 2, &plan);
            if comm.my_id() == 1 {
                comm.send(0, 9, rec.stamp(70), &[]);
                comm.advance_idle(SCAN_INTERVAL_NS);
                rec.rejoin(comm, false);
                comm.send(0, 9, rec.stamp(71), &[]);
                return [0; 3];
            }
            comm.put(1, vars::EVICTED, 1);
            rec.scan(comm);
            comm.advance_idle(4 * SCAN_INTERVAL_NS);
            let m = rec.try_recv(comm, &[8, 9]).expect("the at-floor message");
            assert!(rec.try_recv(comm, &[8, 9]).is_none());
            [m.meta[0], m.meta[3], rec.fenced_drops as i64]
        });
        assert_eq!(report.results[0], [71, 1, 1]);
    }

    /// The ledger: a `grant` → `accept` → ACK → close round trip, batch and
    /// with an epoch extractor armed; then an unacknowledged grant re-injects
    /// after the timeout, an acknowledged one never does, duplicate ACKs are
    /// ignored.
    #[test]
    fn lineage_reinjects_unacked_grants_once() {
        let plan = FaultPlan::crashy(3);
        let cfg = crate::RunConfig::default();
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::smp(), 2, crate::vars::space_config());
        let results = cluster
            .run(|comm| {
                let me = comm.my_id();
                let mut cx = Cx::new(&cfg, comm.now());
                cx.recovery = Recovery::new(me, 2, &plan);
                let mut stack: DfsStack<u64> = DfsStack::new(2);
                for epoch_of in [None, Some((|t| *t as u32) as fn(&u64) -> u32)] {
                    let mut lin = Lineage { epoch_of, ..Lineage::default() };
                    if me == 0 {
                        lin.grant(comm, &cx.recovery, 1, 2, &[1, 2]);
                        assert_eq!((lin.counts(), comm.get(0, vars::LIN_OUT)), ((1, 0), 1));
                        while !lin.is_empty() {
                            comm.advance_idle(1_000);
                            lin.service(comm, &mut stack, &mut cx);
                        }
                        assert_eq!((lin.counts(), comm.get(0, vars::LIN_OUT)), ((1, 0), 0));
                    } else {
                        let m = loop {
                            comm.advance_idle(1_000);
                            if let Some(m) = cx.recovery.try_recv(comm, &[2]) {
                                break m;
                            }
                        };
                        lin.accept(comm, &mut cx, &m);
                        assert_eq!((lin.counts(), m.meta[0], m.payload), ((0, 1), 1, vec![1, 2]));
                    }
                }
                assert!(stack.is_local_empty(), "an ACKed grant must not re-inject");
                if me != 0 {
                    return [0, 0];
                }
                let mut lin: Lineage<u64> = Lineage::default();
                let acked = lin.open(comm, 1, &[1, 2]);
                let lost = lin.open(comm, 1, &[3, 4, 5]);
                assert_eq!(lin.len(), 2);
                let closed = lin.ack(comm, acked).expect("first ACK closes");
                assert_eq!(closed.payload(), &[1, 2]);
                assert!(lin.ack(comm, acked).is_none(), "duplicate ACK ignored");
                assert_eq!(lin.reinject_due(comm, &mut stack, &mut cx.recovery), 0);
                comm.advance_idle(REINJECT_TIMEOUT_NS + 1);
                assert_eq!(lin.reinject_due(comm, &mut stack, &mut cx.recovery), 3);
                assert!(lin.is_empty());
                assert!(lin.ack(comm, lost).is_none(), "re-injected grant is closed");
                [stack.local_len() as u64, comm.get(0, vars::LIN_OUT) as u64]
            })
            .results;
        assert_eq!(results[0], [3, 0], "only the lost grant re-injected; marker clear");
    }
}
