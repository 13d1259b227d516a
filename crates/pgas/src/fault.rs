//! Deterministic fault injection for the virtual-time simulator.
//!
//! Real PGAS clusters have congested links, stalled ranks, and permanently
//! slow ("straggler") nodes. A [`FaultPlan`] reproduces those pathologies
//! *inside the cost accounting* of [`crate::sim::SimComm`]: every fault is a
//! pure function of the plan's seed and the issuing thread's **virtual**
//! time, so a faulted schedule is exactly as deterministic as a fault-free
//! one — bit-identical across runs and across both conductors (fast and
//! reference) and both substrates. No wall-clock time, no shared mutable state,
//! no RNG stream whose consumption order could differ between conductors.
//!
//! Four fault classes, mirroring what distributed work-stealing runtimes
//! harden against (see `docs/faults.md`):
//!
//! - **Link latency spikes**: in hashed windows of virtual time, priced
//!   operations between a given (source, destination) thread pair cost a
//!   multiple of their modelled cost — a congested or flaky link.
//! - **Thread stalls**: in hashed windows, a thread makes no progress; an
//!   operation issued inside a stalled window completes only after the
//!   window ends (an OS descheduling event, a GC pause, a NIC hiccup).
//! - **Stragglers**: a hashed subset of threads pays a permanent multiplier
//!   on `work()` time — a slow or oversubscribed node.
//! - **Lock stretching**: lock-class operations cost a multiple of their
//!   modelled cost, lengthening every critical section and widening the
//!   races the locked algorithms are exposed to.
//!
//! [`FaultPlan::none()`] is inert: the simulator checks a single boolean and
//! touches nothing else, so fault-free runs are bit-identical to a build
//! without this module.
//!
//! Multipliers use x16 fixed point (`mult_x16 = 24` means 1.5x) to keep all
//! arithmetic in integers — floats would invite platform-dependent rounding.

use crate::comm::OpClass;

/// Domain-separation salts for the decision hashes.
const SPIKE_SALT: u64 = 0x9E6C_63D0_876A_3F6B;
const STALL_SALT: u64 = 0xD1B5_4A32_D192_ED03;
const STRAGGLER_SALT: u64 = 0x8CB9_2BA7_2F3D_8DD7;
const MSG_FATE_SALT: u64 = 0xA3F1_97C4_5E0B_D621;
const KILL_SALT: u64 = 0x6D0F_B8E2_41C7_93A5;
const PARTITION_SALT: u64 = 0x7C1A_2D9E_F0B3_5A47;
const GRAY_SALT: u64 = 0x4E8D_1B06_C7F2_93D5;

/// Heal time substituted for a partition whose `partition_dur_ns` is 0
/// ("never heals"). Finite so every run still terminates: the cut-off
/// minority freezes until this virtual instant (~8.6 virtual seconds),
/// while the surviving majority evicts it and finishes long before. A
/// quarter of the fuel ([`crate::sim::FUEL_NS`]).
pub const UNHEALED_NS: u64 = 1 << 33;

/// Mix (seed, salt, a, b) into a uniform u64 (splitmix64 finalizer). A pure
/// function: both conductors evaluate it to the same value at the same
/// virtual instant.
fn mix(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut x = seed ^ salt;
    x = x.wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = x.wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A seeded, deterministic fault schedule for one simulated run.
///
/// Plain `Copy` data: the plan is cloned into every [`crate::sim::SimComm`]
/// handle at construction, so fault decisions never touch shared state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Master switch. `false` short-circuits every query; all other fields
    /// are ignored.
    pub enabled: bool,
    /// Seed from which every fault decision is hashed.
    pub seed: u64,
    /// Virtual-time window (ns) for spike and stall decisions. Each window
    /// of each link (or thread) is independently spiked (or stalled).
    pub window_ns: u64,
    /// Per-mille probability that a directed link's window is spiked.
    pub spike_per_mille: u32,
    /// Cost multiplier (x16 fixed point) for operations crossing a spiked
    /// link window. `16` = no-op, `128` = 8x latency.
    pub spike_mult_x16: u32,
    /// Per-mille probability that a thread's window is a stall: operations
    /// issued inside it complete only after the window (run of windows) ends.
    pub stall_per_mille: u32,
    /// Per-mille probability that a thread is a permanent straggler.
    pub straggler_per_mille: u32,
    /// `work()` multiplier (x16 fixed point) for straggler threads.
    pub straggler_mult_x16: u32,
    /// Cost multiplier (x16 fixed point) on lock-class operations.
    pub lock_mult_x16: u32,
    /// Per-mille probability that a message send's effect is silently
    /// dropped (the sender is still charged; nothing arrives).
    pub loss_per_mille: u32,
    /// Per-mille probability that a message send's effect lands twice
    /// (a second copy arrives at double the flight time).
    pub dup_per_mille: u32,
    /// Per-mille probability that this plan kills one rank (never rank 0;
    /// no death on single-thread runs). Which rank, and at which virtual
    /// time in `[kill_min_ns, kill_min_ns + kill_span_ns)`, is hashed from
    /// the seed.
    pub kill_per_mille: u32,
    /// Earliest virtual time at which the hashed rank death can land.
    pub kill_min_ns: u64,
    /// Width of the virtual-time window over which the death time is
    /// hashed. `0` pins the death exactly at `kill_min_ns`.
    pub kill_span_ns: u64,
    /// Per-mille probability that this plan arms one **network partition**:
    /// a hashed minority arc of ranks (never rank 0, at most `(n-1)/2`
    /// ranks so a live quorum always remains) is cut off for a virtual-time
    /// interval. Every message crossing the cut shares one fate — dropped —
    /// unlike the independent per-message [`FaultPlan::msg_fate`], and the
    /// cut-off ranks freeze (their priced operations complete only after
    /// the heal, so their writes land post-heal and their leases go stale).
    /// Requires `n >= 3`.
    pub partition_per_mille: u32,
    /// Earliest virtual time at which the partition window can start.
    pub partition_min_ns: u64,
    /// Width of the virtual-time window over which the partition start is
    /// hashed. `0` pins the start exactly at `partition_min_ns`.
    pub partition_span_ns: u64,
    /// How long the partition lasts before healing. `0` means "never
    /// heals" — substituted with [`UNHEALED_NS`] so the run still
    /// terminates (via quorum eviction of the cut-off ranks).
    pub partition_dur_ns: u64,
    /// Per-mille probability that this plan arms one **gray failure**: a
    /// hashed rank (never rank 0) stalls past its lease — long enough to be
    /// suspected and evicted — but is *not* dead, and resumes afterwards.
    pub gray_per_mille: u32,
    /// Earliest virtual time at which the gray stall can start.
    pub gray_min_ns: u64,
    /// Width of the virtual-time window over which the gray stall start is
    /// hashed. `0` pins the start exactly at `gray_min_ns`.
    pub gray_span_ns: u64,
    /// Duration of the gray stall. To actually trigger a quorum eviction it
    /// must exceed the lease staleness threshold plus the eviction timeout
    /// (see `crates/core/src/recovery.rs`).
    pub gray_stall_ns: u64,
    /// If nonzero, a rank killed by this plan **restarts** this many
    /// virtual nanoseconds after its death: it re-enters as a fresh
    /// incarnation, self-adopting its own spill if no survivor beat it to
    /// the adoption CAS. `0` = killed ranks stay dead (the PR-6 behavior).
    pub restart_after_ns: u64,
}

/// The hashed fate of one message send under a [`FaultPlan`] with crash
/// faults enabled (see [`FaultPlan::msg_fate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgFate {
    /// Delivered exactly once (the only fate under `none()`/`seeded()`).
    Delivered,
    /// The send is charged but no message arrives.
    Lost,
    /// Two copies arrive; the second at double the flight time.
    Duplicated,
}

impl FaultPlan {
    /// The inert plan: no faults, zero overhead, bit-identical results.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            enabled: false,
            seed: 0,
            window_ns: 0,
            spike_per_mille: 0,
            spike_mult_x16: 16,
            stall_per_mille: 0,
            straggler_per_mille: 0,
            straggler_mult_x16: 16,
            lock_mult_x16: 16,
            loss_per_mille: 0,
            dup_per_mille: 0,
            kill_per_mille: 0,
            kill_min_ns: 0,
            kill_span_ns: 0,
            partition_per_mille: 0,
            partition_min_ns: 0,
            partition_span_ns: 0,
            partition_dur_ns: 0,
            gray_per_mille: 0,
            gray_min_ns: 0,
            gray_span_ns: 0,
            gray_stall_ns: 0,
            restart_after_ns: 0,
        }
    }

    /// A moderate all-of-the-above chaos profile: ~10% of link windows at 8x
    /// latency, ~4% of thread windows stalled, ~1 in 8 threads a 4x
    /// straggler, and 2x lock costs. The schedule (which windows, which
    /// links, which threads) is entirely determined by `seed`. Crash faults
    /// stay off — see [`FaultPlan::crashy`] for those.
    pub const fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            enabled: true,
            seed,
            window_ns: 200_000,
            spike_per_mille: 100,
            spike_mult_x16: 128,
            stall_per_mille: 40,
            straggler_per_mille: 125,
            straggler_mult_x16: 64,
            lock_mult_x16: 32,
            loss_per_mille: 0,
            dup_per_mille: 0,
            kill_per_mille: 0,
            kill_min_ns: 0,
            kill_span_ns: 0,
            partition_per_mille: 0,
            partition_min_ns: 0,
            partition_span_ns: 0,
            partition_dur_ns: 0,
            gray_per_mille: 0,
            gray_min_ns: 0,
            gray_span_ns: 0,
            gray_stall_ns: 0,
            restart_after_ns: 0,
        }
    }

    /// [`FaultPlan::seeded`] plus the crash classes: ~3% of message sends
    /// lost, ~3% duplicated, and a ~35% chance that one hashed rank dies at
    /// a hashed virtual time early in the run. Everything is still a pure
    /// function of `seed`.
    pub const fn crashy(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::seeded(seed);
        p.loss_per_mille = 30;
        p.dup_per_mille = 30;
        p.kill_per_mille = 350;
        p.kill_min_ns = 100_000;
        p.kill_span_ns = 2_000_000;
        p
    }

    /// [`FaultPlan::crashy`] plus the membership classes: a ~60% chance of
    /// one healing network partition, a ~40% chance of one gray failure
    /// long enough to trigger a quorum eviction (lease 150 µs + eviction
    /// timeout 300 µs, see `crates/core/src/recovery.rs`), and killed ranks
    /// restarting 300 µs after death. Everything is still a pure function
    /// of `seed`.
    pub const fn partitioned(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::crashy(seed);
        p.partition_per_mille = 600;
        p.partition_min_ns = 60_000;
        p.partition_span_ns = 300_000;
        p.partition_dur_ns = 900_000;
        p.gray_per_mille = 400;
        p.gray_min_ns = 60_000;
        p.gray_span_ns = 300_000;
        p.gray_stall_ns = 800_000;
        p.restart_after_ns = 300_000;
        p
    }

    /// Is any fault injection active? The simulator's only unconditional
    /// query — everything else is behind this check.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.enabled
    }

    /// Is any *crash* class (loss, duplication, rank death) active? Every
    /// recovery-protocol operation in `crates/core` (heartbeats, lineage
    /// records, adoption probes) is gated on this, so plans without crash
    /// faults — including every pre-existing `seeded()` plan — keep their
    /// exact operation sequence and virtual timestamps.
    #[inline]
    pub fn crash_active(&self) -> bool {
        self.enabled
            && (self.loss_per_mille > 0
                || self.dup_per_mille > 0
                || self.kill_per_mille > 0
                || self.partition_per_mille > 0
                || self.gray_per_mille > 0)
    }

    /// The hashed fate of a message sent over `src -> dst` at virtual time
    /// `now`. One hash decides both omission classes so their probabilities
    /// are exact and mutually exclusive.
    pub fn msg_fate(&self, src: usize, dst: usize, now: u64) -> MsgFate {
        if !self.enabled || (self.loss_per_mille == 0 && self.dup_per_mille == 0) {
            return MsgFate::Delivered;
        }
        let h = mix(
            self.seed,
            MSG_FATE_SALT,
            now,
            ((src as u64) << 32) | dst as u64,
        ) % 1000;
        if h < self.loss_per_mille as u64 {
            MsgFate::Lost
        } else if h < (self.loss_per_mille + self.dup_per_mille) as u64 {
            MsgFate::Duplicated
        } else {
            MsgFate::Delivered
        }
    }

    /// The rank this plan kills, if any. At most one rank per plan dies —
    /// never rank 0 (it anchors termination fallback and report assembly),
    /// and never on single-thread runs.
    pub fn killed_rank(&self, nthreads: usize) -> Option<usize> {
        if !self.enabled || self.kill_per_mille == 0 || nthreads < 2 {
            return None;
        }
        if mix(self.seed, KILL_SALT, 0, nthreads as u64) % 1000 >= self.kill_per_mille as u64 {
            return None;
        }
        Some(1 + (mix(self.seed, KILL_SALT, 1, nthreads as u64) % (nthreads as u64 - 1)) as usize)
    }

    /// The virtual time at which `tid` dies under this plan, or `None` if
    /// `tid` survives. A pure function of the plan, so the rank itself, the
    /// conductor, and every survivor all agree on it.
    pub fn kill_time(&self, tid: usize, nthreads: usize) -> Option<u64> {
        if self.killed_rank(nthreads)? != tid {
            return None;
        }
        let jitter = if self.kill_span_ns == 0 {
            0
        } else {
            mix(self.seed, KILL_SALT, 2, tid as u64) % self.kill_span_ns
        };
        Some(self.kill_min_ns + jitter)
    }

    /// The virtual-time interval `[start, end)` during which this plan's
    /// partition is in force, or `None` if no partition is armed. Partitions
    /// need `n >= 3` so the un-partitioned side keeps a strict majority
    /// (quorum `n/2 + 1`) and can evict the cut-off ranks.
    pub fn partition_window(&self, nthreads: usize) -> Option<(u64, u64)> {
        if !self.enabled || self.partition_per_mille == 0 || nthreads < 3 {
            return None;
        }
        if mix(self.seed, PARTITION_SALT, 0, nthreads as u64) % 1000
            >= self.partition_per_mille as u64
        {
            return None;
        }
        let jitter = if self.partition_span_ns == 0 {
            0
        } else {
            mix(self.seed, PARTITION_SALT, 1, nthreads as u64) % self.partition_span_ns
        };
        let start = self.partition_min_ns + jitter;
        let dur = if self.partition_dur_ns == 0 {
            UNHEALED_NS
        } else {
            self.partition_dur_ns
        };
        Some((start, start + dur))
    }

    /// Is `rank` in the cut-off minority of this plan's partition (if one is
    /// armed)? The minority is a hashed contiguous arc of the non-zero
    /// ranks, of hashed size `1 ..= (n-1)/2` — never rank 0, and always a
    /// strict minority, so the surviving side retains an eviction quorum.
    pub fn in_partition(&self, rank: usize, nthreads: usize) -> bool {
        if rank == 0 || self.partition_window(nthreads).is_none() {
            return false;
        }
        let m = nthreads as u64 - 1; // candidate ranks 1..n
        let max_size = (m / 2).max(1).min(m);
        let size = 1 + mix(self.seed, PARTITION_SALT, 2, nthreads as u64) % max_size;
        let offset = mix(self.seed, PARTITION_SALT, 3, nthreads as u64) % m;
        ((rank as u64 - 1) + m - offset) % m < size
    }

    /// Is the link `a <-> b` severed at virtual time `now`? True iff the
    /// partition window contains `now` and exactly one endpoint is in the
    /// cut-off set: every message crossing the cut shares this one fate
    /// (dropped), unlike the independent per-message [`FaultPlan::msg_fate`].
    pub fn link_cut(&self, a: usize, b: usize, now: u64, nthreads: usize) -> bool {
        match self.partition_window(nthreads) {
            Some((start, end)) if now >= start && now < end => {
                self.in_partition(a, nthreads) != self.in_partition(b, nthreads)
            }
            _ => false,
        }
    }

    /// The rank this plan gray-fails, if any: it stalls past its lease but
    /// is *not* dead, and resumes after [`FaultPlan::gray_window`] ends.
    /// Never rank 0.
    pub fn gray_rank(&self, nthreads: usize) -> Option<usize> {
        if !self.enabled || self.gray_per_mille == 0 || nthreads < 2 {
            return None;
        }
        if mix(self.seed, GRAY_SALT, 0, nthreads as u64) % 1000 >= self.gray_per_mille as u64 {
            return None;
        }
        Some(1 + (mix(self.seed, GRAY_SALT, 1, nthreads as u64) % (nthreads as u64 - 1)) as usize)
    }

    /// The virtual-time interval `[start, end)` of this plan's gray stall,
    /// or `None` if none is armed.
    pub fn gray_window(&self, nthreads: usize) -> Option<(u64, u64)> {
        self.gray_rank(nthreads)?;
        let jitter = if self.gray_span_ns == 0 {
            0
        } else {
            mix(self.seed, GRAY_SALT, 2, nthreads as u64) % self.gray_span_ns
        };
        let start = self.gray_min_ns + jitter;
        Some((start, start + self.gray_stall_ns))
    }

    /// If `tid` is frozen at virtual time `now` by a correlated fault (it
    /// is in a cut-off partition minority, or it is the gray-failed rank,
    /// during the respective window), the virtual time at which it thaws;
    /// `None` otherwise. A frozen rank's priced operations complete — and
    /// their memory effects land — only after the thaw, so its writes
    /// cannot corrupt the surviving side mid-freeze and its lease goes
    /// stale exactly as a real partitioned/stalled process's would.
    pub fn freeze_until(&self, tid: usize, now: u64, nthreads: usize) -> Option<u64> {
        let mut thaw = None;
        if let Some((start, end)) = self.partition_window(nthreads) {
            if now >= start && now < end && self.in_partition(tid, nthreads) {
                thaw = Some(end);
            }
        }
        if let Some((start, end)) = self.gray_window(nthreads) {
            if now >= start && now < end && self.gray_rank(nthreads) == Some(tid) {
                thaw = Some(thaw.map_or(end, |t: u64| t.max(end)));
            }
        }
        thaw
    }

    /// The virtual time at which `tid` restarts after its scheduled death,
    /// or `None` if it is never killed or the plan has no restart delay.
    pub fn restart_time(&self, tid: usize, nthreads: usize) -> Option<u64> {
        if self.restart_after_ns == 0 {
            return None;
        }
        Some(self.kill_time(tid, nthreads)? + self.restart_after_ns)
    }

    /// Is `tid` a permanent straggler under this plan?
    pub fn is_straggler(&self, tid: usize) -> bool {
        self.enabled
            && self.straggler_per_mille > 0
            && mix(self.seed, STRAGGLER_SALT, tid as u64, 0) % 1000 < self.straggler_per_mille as u64
    }

    /// Is the directed link `src -> dst` spiked in the window containing
    /// virtual time `now`?
    fn link_spiked(&self, src: usize, dst: usize, now: u64) -> bool {
        self.window_ns > 0
            && self.spike_per_mille > 0
            && src != dst
            && mix(
                self.seed,
                SPIKE_SALT,
                now / self.window_ns,
                ((src as u64) << 32) | dst as u64,
            ) % 1000
                < self.spike_per_mille as u64
    }

    /// If `tid` is stalled at virtual time `now`, the time at which it may
    /// resume (the end of the current run of stalled windows); `None` when
    /// not stalled. Bounded scan so a pathological plan still terminates.
    fn stall_resume(&self, tid: usize, now: u64) -> Option<u64> {
        if self.window_ns == 0 || self.stall_per_mille == 0 {
            return None;
        }
        let stalled = |w: u64| {
            mix(self.seed, STALL_SALT, w, tid as u64) % 1000 < self.stall_per_mille as u64
        };
        let mut w = now / self.window_ns;
        if !stalled(w) {
            return None;
        }
        for _ in 0..64 {
            if !stalled(w + 1) {
                break;
            }
            w += 1;
        }
        Some((w + 1) * self.window_ns)
    }

    /// Faulted cost of a priced operation issued by `tid` against `peer`'s
    /// partition at virtual time `now`, given its modelled cost `base`.
    /// Monotone: never below `base`, so virtual clocks still strictly grow
    /// and the conductor's lookahead invariant is untouched.
    pub fn op_cost(&self, tid: usize, peer: usize, class: OpClass, base: u64, now: u64) -> u64 {
        if !self.enabled {
            return base;
        }
        let mut cost = base;
        if class == OpClass::Lock && self.lock_mult_x16 > 16 {
            cost = cost * self.lock_mult_x16 as u64 / 16;
        }
        if self.link_spiked(tid, peer, now) {
            cost = cost * self.spike_mult_x16 as u64 / 16;
        }
        if let Some(resume) = self.stall_resume(tid, now) {
            // The thread is frozen until `resume`; only then does the
            // operation itself begin.
            cost += resume - now;
        }
        cost.max(base)
    }

    /// Faulted message flight time over the `src -> dst` link at send time
    /// `now` (the spike also congests in-flight traffic).
    pub fn flight_ns(&self, src: usize, dst: usize, base: u64, now: u64) -> u64 {
        if self.enabled && self.link_spiked(src, dst, now) {
            base * self.spike_mult_x16 as u64 / 16
        } else {
            base
        }
    }

    /// Faulted duration of `base` nanoseconds of pure computation on `tid`
    /// (the straggler multiplier).
    pub fn work_ns(&self, tid: usize, base: u64) -> u64 {
        if self.is_straggler(tid) {
            base * self.straggler_mult_x16 as u64 / 16
        } else {
            base
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(!p.crash_active());
        assert_eq!(p.op_cost(0, 1, OpClass::Lock, 1234, 999_999), 1234);
        assert_eq!(p.work_ns(0, 500), 500);
        assert_eq!(p.flight_ns(0, 1, 700, 42), 700);
        assert!(!p.is_straggler(0));
        assert_eq!(p.msg_fate(0, 1, 12345), MsgFate::Delivered);
        assert_eq!(p.killed_rank(8), None);
        assert_eq!(p.kill_time(3, 8), None);
        assert_eq!(p.partition_window(8), None);
        assert!(!p.link_cut(1, 2, 100_000, 8));
        assert_eq!(p.gray_rank(8), None);
        assert_eq!(p.freeze_until(1, 100_000, 8), None);
        assert_eq!(p.restart_time(1, 8), None);
    }

    #[test]
    fn seeded_has_no_crash_faults() {
        // Every pre-existing faulted test and result pins `seeded()` plans;
        // the crash classes must stay off there.
        let p = FaultPlan::seeded(0xFA_17);
        assert!(p.is_active());
        assert!(!p.crash_active());
        for now in (0..1_000_000).step_by(999) {
            assert_eq!(p.msg_fate(0, 1, now), MsgFate::Delivered);
        }
        assert_eq!(p.killed_rank(16), None);
        assert_eq!(p.partition_window(16), None);
        assert_eq!(p.gray_rank(16), None);
        assert_eq!(p.freeze_until(3, 250_000, 16), None);
        assert_eq!(p.restart_time(3, 16), None);
    }

    #[test]
    fn msg_fate_is_deterministic_and_covers_all_classes() {
        let p = FaultPlan::crashy(5);
        assert!(p.crash_active());
        let mut lost = 0;
        let mut dup = 0;
        let mut ok = 0;
        for now in 0..20_000u64 {
            let f = p.msg_fate(1, 2, now * 37);
            assert_eq!(f, p.msg_fate(1, 2, now * 37));
            match f {
                MsgFate::Lost => lost += 1,
                MsgFate::Duplicated => dup += 1,
                MsgFate::Delivered => ok += 1,
            }
        }
        // 30 per mille each, 20k samples: both classes must appear, and
        // delivery must dominate.
        assert!(lost > 0 && dup > 0, "lost={lost} dup={dup}");
        assert!(ok > lost + dup);
        let frac = (lost + dup) as f64 / 20_000.0;
        assert!(frac > 0.02 && frac < 0.12, "crash fraction {frac}");
    }

    #[test]
    fn kill_picks_at_most_one_victim_never_rank_zero() {
        let mut deaths = 0;
        for seed in 0..200u64 {
            let p = FaultPlan::crashy(seed);
            if let Some(victim) = p.killed_rank(8) {
                deaths += 1;
                assert!((1..8).contains(&victim));
                let t = p.kill_time(victim, 8).expect("victim has a kill time");
                assert!(t >= p.kill_min_ns && t < p.kill_min_ns + p.kill_span_ns);
                // Everyone else survives.
                for other in 0..8 {
                    if other != victim {
                        assert_eq!(p.kill_time(other, 8), None);
                    }
                }
            }
        }
        // 350 per mille nominal over 200 plans.
        assert!(deaths > 30 && deaths < 140, "deaths={deaths}");
        // No deaths on single-thread runs.
        assert_eq!(FaultPlan::crashy(1).killed_rank(1), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::seeded(7);
        let b = FaultPlan::seeded(7);
        for t in 0..32 {
            assert_eq!(a.is_straggler(t), b.is_straggler(t));
            for now in (0..2_000_000).step_by(61_111) {
                assert_eq!(
                    a.op_cost(t, (t + 1) % 32, OpClass::Scalar, 6_000, now),
                    b.op_cost(t, (t + 1) % 32, OpClass::Scalar, 6_000, now)
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(2);
        let fingerprint = |p: &FaultPlan| -> Vec<u64> {
            (0..64)
                .map(|i| p.op_cost(i % 8, (i + 1) % 8, OpClass::Scalar, 6_000, i as u64 * 100_000))
                .collect()
        };
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn cost_is_never_below_base() {
        let p = FaultPlan::seeded(3);
        for now in (0..10_000_000).step_by(37_777) {
            for class in OpClass::all() {
                assert!(p.op_cost(1, 2, class, 418, now) >= 418);
            }
        }
    }

    #[test]
    fn lock_stretch_applies_to_lock_class_only() {
        // A plan with only lock stretching: every lock op is exactly 2x.
        let p = FaultPlan {
            enabled: true,
            seed: 9,
            lock_mult_x16: 32,
            ..FaultPlan::none()
        };
        assert_eq!(p.op_cost(0, 1, OpClass::Lock, 1000, 0), 2000);
        assert_eq!(p.op_cost(0, 1, OpClass::Scalar, 1000, 0), 1000);
    }

    #[test]
    fn stall_delays_until_window_end() {
        // A plan that stalls every window: an op issued mid-window resumes
        // at the end of the bounded run of stalled windows.
        let p = FaultPlan {
            enabled: true,
            seed: 4,
            window_ns: 1_000,
            stall_per_mille: 1000,
            ..FaultPlan::none()
        };
        let cost = p.op_cost(0, 0, OpClass::Poll, 10, 500);
        // 64-window scan bound: resume at (1 + 64) * 1000.
        assert_eq!(cost, (65_000 - 500) + 10);
    }

    #[test]
    fn straggler_set_matches_per_mille_roughly() {
        let p = FaultPlan::seeded(11);
        let frac = (0..4096).filter(|&t| p.is_straggler(t)).count() as f64 / 4096.0;
        // 125 per mille nominal; allow generous sampling slack.
        assert!(frac > 0.06 && frac < 0.20, "straggler fraction {frac}");
    }

    #[test]
    fn spike_is_per_directed_link_and_window() {
        let p = FaultPlan {
            enabled: true,
            seed: 21,
            window_ns: 10_000,
            spike_per_mille: 500,
            spike_mult_x16: 160,
            ..FaultPlan::none()
        };
        // With 50% of windows spiked at 10x, some window/link combination
        // must be spiked and some must not be.
        let mut spiked = 0;
        let mut clean = 0;
        for w in 0..64u64 {
            let c = p.op_cost(0, 1, OpClass::Scalar, 100, w * 10_000);
            if c == 1000 {
                spiked += 1;
            } else if c == 100 {
                clean += 1;
            } else {
                panic!("unexpected cost {c}");
            }
        }
        assert!(spiked > 0 && clean > 0, "spiked={spiked} clean={clean}");
    }

    #[test]
    fn partition_cuts_a_proper_minority_and_heals() {
        // With partitions certain, some seed must draw a window; rank 0
        // never joins the minority, the minority is at most (n-1)/2, and
        // link_cut is symmetric, false inside either side, and false
        // outside the window.
        let mut armed = 0;
        for seed in 0..64u64 {
            let mut p = FaultPlan::partitioned(seed);
            p.partition_per_mille = 1000;
            p.gray_per_mille = 0; // isolate the partition freeze
            let n = 8;
            let Some((start, end)) = p.partition_window(n) else {
                panic!("per_mille=1000 must always arm a partition");
            };
            armed += 1;
            assert!(end > start && end - start == p.partition_dur_ns);
            assert!(!p.in_partition(0, n), "rank 0 must never be cut off");
            let minority: Vec<usize> = (0..n).filter(|&r| p.in_partition(r, n)).collect();
            assert!(!minority.is_empty() && minority.len() <= (n - 1) / 2);
            let inside = minority[0];
            let outside = (1..n).find(|&r| !p.in_partition(r, n)).unwrap();
            let mid = start + (end - start) / 2;
            assert!(p.link_cut(inside, outside, mid, n));
            assert!(p.link_cut(outside, inside, mid, n), "cut is symmetric");
            assert!(!p.link_cut(outside, 0, mid, n), "majority side intact");
            assert!(!p.link_cut(inside, outside, start.saturating_sub(1), n));
            assert!(!p.link_cut(inside, outside, end, n), "healed at end");
            // Members freeze for the window; outsiders never do.
            assert_eq!(p.freeze_until(inside, mid, n), Some(end));
            assert_eq!(p.freeze_until(outside, mid, n), None);
            assert_eq!(p.freeze_until(inside, end, n), None);
        }
        assert_eq!(armed, 64);
    }

    #[test]
    fn unhealed_partition_uses_sentinel_duration() {
        let mut p = FaultPlan::partitioned(3);
        p.partition_per_mille = 1000;
        p.partition_dur_ns = 0;
        let (start, end) = p.partition_window(8).unwrap();
        assert_eq!(end - start, UNHEALED_NS);
    }

    #[test]
    fn gray_rank_stalls_past_window_then_resumes() {
        let mut p = FaultPlan::partitioned(17);
        p.partition_per_mille = 0;
        p.gray_per_mille = 1000;
        let n = 8;
        let g = p.gray_rank(n).expect("per_mille=1000 must arm a gray rank");
        assert!(g >= 1 && g < n, "never rank 0");
        let (start, end) = p.gray_window(n).unwrap();
        assert_eq!(end - start, p.gray_stall_ns);
        let mid = start + 1;
        assert_eq!(p.freeze_until(g, mid, n), Some(end));
        let healthy = (1..n).find(|&r| r != g).unwrap();
        assert_eq!(p.freeze_until(healthy, mid, n), None);
        assert_eq!(p.freeze_until(g, end, n), None, "resumes after window");
        // Gray failure is a stall, not a cut: links stay up.
        assert!(!p.link_cut(g, healthy, mid, n));
    }

    #[test]
    fn restart_follows_kill_by_fixed_delay() {
        let p = FaultPlan::partitioned(29);
        let n = 8;
        assert!(p.crash_active());
        if let Some(victim) = p.killed_rank(n) {
            let kill = p.kill_time(victim, n).unwrap();
            assert_eq!(p.restart_time(victim, n), Some(kill + p.restart_after_ns));
        }
        // A rank that is never killed never restarts.
        assert_eq!(p.restart_time(0, n), None);
        // And with restarts disarmed, kills stay permanent.
        let mut q = p;
        q.restart_after_ns = 0;
        if let Some(victim) = q.killed_rank(n) {
            assert_eq!(q.restart_time(victim, n), None);
        }
    }

    #[test]
    fn overlapping_partition_and_gray_freeze_to_the_later_thaw() {
        let mut p = FaultPlan::partitioned(1);
        p.partition_per_mille = 1000;
        p.gray_per_mille = 1000;
        let n = 9;
        let (ps, pe) = p.partition_window(n).unwrap();
        let (gs, ge) = p.gray_window(n).unwrap();
        let g = p.gray_rank(n).unwrap();
        if p.in_partition(g, n) {
            let lo = ps.max(gs);
            let hi = pe.min(ge);
            if lo < hi {
                assert_eq!(p.freeze_until(g, lo, n), Some(pe.max(ge)));
            }
        }
    }
}
