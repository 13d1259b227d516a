//! Deterministic virtual-time backend.
//!
//! Each simulated UPC thread runs real worker code, but a **conductor**
//! admits exactly one at a time: whenever a thread issues a [`Comm`]
//! operation it (a) advances its own virtual clock by the operation's cost
//! under the active [`MachineModel`], (b) enqueues itself, and (c) hands the
//! baton to the thread with the globally smallest virtual clock. Memory
//! effects are applied at baton-holding time, so the simulated execution is
//! sequentially consistent *in virtual time* and bit-for-bit reproducible —
//! ties are broken by thread id.
//!
//! Pure computation (`work()`) accumulates locally without a baton exchange;
//! it is folded into the clock at the next operation. This keeps the
//! conductor off the hot path of tree exploration: only *communication*
//! pays for scheduling, mirroring how only communication pays latency on a
//! real cluster.
//!
//! # Two conductors, one schedule
//!
//! The scheduling decision — "pop the least `(clock, tid)` key" — is made by
//! two interchangeable *policies* (see `docs/conductor.md`):
//!
//! - **Reference / naive policy** ([`SimCluster::with_lookahead`]`(false)`):
//!   every operation pushes its thread's `(clock, tid)` into a tuple-keyed
//!   queue, pops the minimum and hands the baton over unless it popped
//!   itself. No window, no cached minimum, no inbound count: simple,
//!   obviously correct, and the baseline the equivalence tests and the
//!   conductor bench (`exp conductor`) diff against.
//! - **Fast policy** (the default): the same order, computed with the two
//!   windows below and a packed `u64` key per parked thread.
//!
//! Both policies are one scheduler, the hub (`sim/hub.rs`): the ready
//! queues, the pops and every thread's start and retirement. This file holds
//! the memory image, the pricing of every operation (`op`) and the [`Comm`]
//! impl. A *substrate* only switches the baton holder to the next one, and
//! each target has one (`build.rs` holds the rule). On x86-64 Linux every
//! simulated thread is a *fiber* — a user-level stack on a single OS thread
//! (`sim/fibers.rs`; the context switch and the stack arena live in
//! `fiber.rs`). Since the conductor admits exactly one thread at a time
//! anyway, nothing is lost by giving up kernel parallelism, and a baton
//! handoff is a ~15-instruction stack switch (nanoseconds). On every other
//! target each simulated thread is an OS thread waiting on a condvar
//! (`sim/threads.rs`), a mutex + condvar + scheduler round trip
//! (microseconds) per handoff; that substrate is compiled on x86-64 Linux
//! only for this crate's tests.
//!
//! # Lookahead fast path
//!
//! Even a fiber switch plus a heap push/pop is wasted motion when the
//! conductor would hand the baton straight back: the running thread is so
//! far *behind* every queued thread that after paying its next operation's
//! cost it is still the earliest. Each time a thread acquires the baton it
//! caches the smallest `(clock, tid)` key left in the queue (`next_min`);
//! the queue cannot change while the thread runs, because every other
//! thread is parked in the conductor. If the thread's advanced clock still
//! precedes `next_min` (lexicographically, so ties keep breaking by thread
//! id), it keeps the baton and applies the memory effect directly — no
//! scheduler entry at all. A spinning probe loop that is behind in virtual
//! time therefore burns its whole probe cycle without a single handoff.
//! The schedule, and therefore every virtual time, steal count, and memory
//! state, is bit-for-bit identical either way; only the real-time cost of
//! *computing* the schedule changes. See `docs/conductor.md` for the
//! invariant argument; the equivalence tests diff the two modes.
//!
//! # Reach window
//!
//! At hundreds of threads clocks are dense and almost nothing is globally
//! earliest for two operations in a row — but half or more of all operations
//! touch only the issuer's *own* partition (a lock-less worker polls its own
//! request cell between two probes, a message worker its own mailbox), and
//! only the order of operations *per partition* is observable. An operation
//! on the caller's own partition therefore keeps the baton, although it
//! completes at `t` later than the queue minimum, when nothing can still
//! precede it there:
//!
//! - no thread is *parked* on an operation on this partition that conflicts
//!   with it (`Mem::inbound` counts them: a parked write conflicts with
//!   everything, a parked read with writes; every member of a split-phase
//!   batch, [`Comm::add_many`], counts from the moment the batch is issued,
//!   because the thread parks on the members before it first), and
//! - `t < next_min.clock + reach`, strictly, where `reach` is
//!   [`MachineModel::min_foreign_cost`]: every other thread resumes no
//!   earlier than the queue minimum and then pays at least `reach` for
//!   whatever it issues on a partition not its own, so nothing it has not
//!   already parked can land here before `t`, nor at `t` with a smaller
//!   thread id.
//!
//! `send` never qualifies: it draws from the one global send sequence, so
//! sends are ordered against each other, not per partition. The reference
//! conductor takes neither window.
//!
//! Two idle loops cost less still: a mail wait sleeps until a message could
//! end it (`sim/mail.rs`), and a probe cycle that has to wait is run by the
//! conductor, read by read, without resuming its thread (`sim/cycle.rs`).
//!
//! This is how the paper's 256-1024-thread cluster experiments (§4.2) run on
//! a single host: the virtual makespan plays the role of measured wall-clock
//! time.

use std::collections::BTreeMap;

use crate::comm::{self, Comm, Cycle, Item, MailProbe, OpClass, SpaceConfig};
use crate::fault::{self, FaultPlan, MsgFate};
use crate::machine::MachineModel;
use crate::msg::Msg;
use crate::stats::{CommStats, ConductorStats};

mod cycle;
#[cfg(pgas_fiber)]
mod fibers;
mod hub;
mod mail;
#[cfg(any(not(pgas_fiber), test))]
mod threads;
use hub::Hub;
use mail::MailWaits;

/// Stack size for each simulated thread (OS thread or fiber). Workers use
/// explicit DFS stacks, so half a megabyte is a wide margin over the measured
/// high-water mark ([`ConductorStats::stack_peak_bytes`]; EXPERIMENTS.md
/// records it per workload family). For fibers it is *reserved address space*
/// in the run's `fiber::StackArena` — free until touched — with a guard page
/// below each stack, so overflowing one is a SIGSEGV, never a neighbour's
/// corrupted frames.
pub const SIM_STACK_SIZE: usize = 512 * 1024;

/// Fuel: the virtual time a simulated thread may spend without doing work
/// (2^35 ns ≈ 34.4 s). An operation completing later than that after the
/// thread's last [`Comm::work`] panics "out of fuel", at the same thread and
/// operation under both conductors. A constant, not a knob: four times the
/// never-heals partition sentinel [`fault::UNHEALED_NS`] (`docs/faults.md` §5).
pub const FUEL_NS: u64 = 4 * fault::UNHEALED_NS;

/// Everything a run produces.
#[derive(Debug)]
pub struct SimReport<R> {
    /// Per-thread values returned by the worker closure, indexed by thread.
    pub results: Vec<R>,
    /// Virtual time at which the last thread retired — the simulated
    /// wall-clock duration of the parallel run.
    pub makespan_ns: u64,
    /// Final virtual clock of each thread.
    pub clocks: Vec<u64>,
    /// Per-thread communication statistics.
    pub stats: Vec<CommStats>,
    /// Per-thread conductor (harness) statistics: fast-path vs handoff
    /// scheduling counts. Describes the simulator, not the modelled machine.
    pub conductor: Vec<ConductorStats>,
    /// Final contents of every thread's scalar cells (for assertions).
    pub scalars: Vec<Vec<i64>>,
}

impl<R> SimReport<R> {
    /// Final value of scalar `var` with affinity to `thread`.
    pub fn final_scalar(&self, thread: usize, var: usize) -> i64 {
        self.scalars[thread][var]
    }

    /// Aggregate statistics over all threads.
    pub fn total_stats(&self) -> CommStats {
        let mut acc = CommStats::default();
        for s in &self.stats {
            acc.merge(s);
        }
        acc
    }

    /// Aggregate conductor statistics over all threads.
    pub fn total_conductor(&self) -> ConductorStats {
        let mut acc = ConductorStats::default();
        for s in &self.conductor {
            acc.merge(s);
        }
        acc
    }
}

/// The global memory image.
///
/// Only ever touched by the thread currently holding the baton, in the hub.
/// On fibers that is trivially single-threaded; on OS threads the
/// handover's mutex provides the happens-before edges that publish one
/// holder's writes to the next.
struct Mem<T> {
    scalars: Vec<Vec<i64>>,
    locks: Vec<Vec<bool>>,
    areas: Vec<Vec<T>>,
    /// Per-destination mailbox ordered by (arrival time, send sequence).
    mailboxes: Vec<BTreeMap<(u64, u64), Msg<T>>>,
    send_seq: u64,
    /// Per partition: the operations *other* threads have parked on it (see
    /// "Reach window" in the module docs). Scheduling state, not memory — it
    /// lives here because, like the image, only the baton holder touches it.
    inbound: Vec<Inbound>,
    /// Threads sleeping through a mail wait, beside the ready queue (see
    /// "Mail waits" in the module docs). Scheduling state too.
    waits: MailWaits,
}

/// What an operation does to the partition it names.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Observes the partition and changes nothing (`poll` counts as one).
    Read,
    /// May change the partition.
    Write,
    /// `send`: a write to the destination's mailbox that also draws from the
    /// global send sequence, so it is ordered against every other send.
    Send,
}

/// Operations that threads other than the owner have issued on one partition
/// and that are not yet applied: the one each such thread is parked on in the
/// ready queue, and the members of its batch that land after that one.
#[derive(Clone, Default)]
struct Inbound {
    reads: u32,
    writes: u32,
}

impl Inbound {
    fn count(&mut self, access: Access) -> &mut u32 {
        match access {
            Access::Read => &mut self.reads,
            Access::Write | Access::Send => &mut self.writes,
        }
    }

    /// Whether an operation of the partition's owner conflicts with none of
    /// them, i.e. commutes with all: reads with reads.
    fn admits(&self, own: Access) -> bool {
        self.writes == 0 && (own == Access::Read || self.reads == 0)
    }
}

/// The fast policy's two windows (module docs): may an operation of `tid`
/// that completes at `t` on `peer`'s partition keep the baton against the
/// queue minimum `next_min`? `Some(false)` if it precedes that minimum (the
/// lookahead window), `Some(true)` if only the reach window admits it — an
/// operation on `tid`'s own partition, not a send, strictly inside the
/// horizon, and `admits()` that nothing parked there conflicts with it —
/// and `None` if it must wait for the baton.
fn window(
    next_min: Option<(u64, usize)>,
    tid: usize,
    t: u64,
    peer: usize,
    access: Access,
    reach_ns: u64,
    admits: impl FnOnce() -> bool,
) -> Option<bool> {
    let Some((min_clock, min_tid)) = next_min else {
        return Some(false);
    };
    if (t, tid) < (min_clock, min_tid) {
        return Some(false);
    }
    // Strictly: at `min_clock + reach_ns` a thread with a smaller id could
    // commit on our partition first.
    (peer == tid && access != Access::Send && t < min_clock + reach_ns && admits()).then_some(true)
}

impl<T: Item> Mem<T> {
    fn new(nthreads: usize, cfg: &SpaceConfig) -> Self {
        Mem {
            scalars: vec![vec![0i64; cfg.scalars]; nthreads],
            locks: vec![vec![false; cfg.locks]; nthreads],
            areas: (0..nthreads).map(|_| Vec::new()).collect(),
            mailboxes: (0..nthreads).map(|_| BTreeMap::new()).collect(),
            send_seq: 0,
            inbound: vec![Inbound::default(); nthreads],
            waits: MailWaits::new(nthreads),
        }
    }
}

/// A virtual cluster: construct, then [`SimCluster::run`] a worker closure on
/// every simulated thread.
pub struct SimCluster<T: Item> {
    machine: MachineModel,
    nthreads: usize,
    cfg: SpaceConfig,
    lookahead: bool,
    faults: FaultPlan,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Item> SimCluster<T> {
    /// Create a cluster of `nthreads` simulated UPC threads over `machine`.
    ///
    /// The fast conductor (the lookahead and reach windows) is enabled by
    /// default; see [`SimCluster::with_lookahead`].
    pub fn new(machine: MachineModel, nthreads: usize, cfg: SpaceConfig) -> Self {
        assert!(nthreads > 0, "need at least one thread");
        SimCluster {
            machine,
            nthreads,
            cfg,
            lookahead: true,
            faults: FaultPlan::none(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Enable or disable the fast conductor (on by default).
    ///
    /// Both modes produce bit-identical virtual results; disabling selects
    /// the reference conductor — the naive policy on the same substrate:
    /// every operation queues its thread and pops the minimum, no window —
    /// which the equivalence tests and `exp conductor` use as the baseline
    /// schedule.
    pub fn with_lookahead(mut self, enabled: bool) -> Self {
        self.lookahead = enabled;
        self
    }

    /// Install a deterministic fault schedule (see [`FaultPlan`]).
    ///
    /// Faults are priced into the virtual clocks exactly like modelled
    /// communication costs, so a faulted run is just as deterministic and
    /// conductor-independent as a fault-free one. The default is
    /// [`FaultPlan::none()`], which leaves every result bit-identical to a
    /// cluster without this call.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Run `f` on every simulated thread and collect the report.
    ///
    /// `f` receives a mutable [`SimComm`] handle; its return values are
    /// gathered in thread order.
    pub fn run<R, F>(self, f: F) -> SimReport<R>
    where
        R: Send,
        F: Fn(&mut SimComm<T>) -> R + Sync,
    {
        #[cfg(pgas_fiber)]
        return self.run_fibers(&f);
        #[cfg(not(pgas_fiber))]
        self.run_threads(&f)
    }
}

/// How the baton holder suspends itself and resumes the next one: all that
/// differs between the substrates. Which one is next, the hub decides.
#[derive(Clone, Copy)]
enum Switch {
    /// The run's fiber contexts (`sim/fibers.rs`).
    #[cfg(pgas_fiber)]
    Fiber(*mut usize),
    /// The run's condvar handover (`sim/threads.rs`).
    #[cfg(any(not(pgas_fiber), test))]
    Thread(*const threads::Handover),
}

impl Switch {
    /// Resume `next` — with none left, the host (on OS threads, nobody) —
    /// and suspend `me`, which holds the baton, until it is resumed in turn;
    /// without `me` the caller retires and is never resumed.
    #[inline(always)]
    fn pass(self, me: Option<usize>, next: Option<usize>) {
        match self {
            // SAFETY: only the baton holder passes it, and `next` was just
            // taken off the hub, so nothing else loads its context.
            #[cfg(pgas_fiber)]
            Switch::Fiber(contexts) => unsafe { fibers::pass(contexts, me, next) },
            // SAFETY: the handover outlives every simulated thread.
            #[cfg(any(not(pgas_fiber), test))]
            Switch::Thread(handover) => unsafe { &*handover }.pass(me, next),
        }
    }
}

// SAFETY: required by the `Comm: Send` supertrait. The handle holds a raw
// pointer to the hub, but it is created, used and
// abandoned on the stack of one simulated thread: workers only ever receive
// `&mut SimComm` and cannot move the handle out (fields are private and there
// is no constructor), so it never actually crosses threads.
unsafe impl<T: Item> Send for SimComm<T> {}

/// Per-thread handle for the simulated cluster. Implements [`Comm`].
pub struct SimComm<T: Item> {
    /// The run's hub, which outlives every simulated thread; dereferenced
    /// only while this thread holds the baton.
    hub: *mut Hub<T>,
    tid: usize,
    nthreads: usize,
    lookahead: bool,
    /// Width of the reach window: the run's [`MachineModel::min_foreign_cost`].
    reach_ns: u64,
    /// This thread's virtual clock as of its last operation. Authoritative;
    /// the conductor's `clocks[tid]` is only a published (possibly lagging)
    /// copy.
    local_clock: u64,
    /// Accumulated `work()` nanoseconds not yet folded into the clock.
    pending_work: u64,
    /// Clock at the end of the last `work()`, where [`FUEL_NS`] counts from.
    worked_until: u64,
    /// Smallest `(clock, tid)` key waiting in the conductor queue, cached at
    /// the moment we last acquired the baton. Exact while we hold the baton:
    /// only baton-holders push, and we are the unique holder. `None` means
    /// the queue was empty (every other thread retired or not yet started).
    next_min: Option<(u64, usize)>,
    /// The active fault schedule (inert by default; see [`FaultPlan`]).
    faults: FaultPlan,
    stats: CommStats,
    conductor: ConductorStats,
}

impl<T: Item> SimComm<T> {
    /// The memory image.
    ///
    /// # Safety
    /// The caller holds the baton, and drops the borrow before it hands the
    /// baton on.
    unsafe fn mem(&mut self) -> &mut Mem<T> {
        // SAFETY: the baton holder's is the unique live access, and the
        // substrate's switch published the preceding holder's writes.
        unsafe { &mut (*self.hub).mem }
    }

    /// Hand the baton to `next`, just taken off the hub, unless that is us,
    /// and return holding it again, with the queue minimum left at that
    /// moment cached.
    #[inline(always)]
    fn hand_to(&mut self, next: usize) -> &mut Mem<T> {
        if next != self.tid {
            // SAFETY: we hold the baton until the switch; the copy ends the
            // borrow.
            let switch = unsafe { (*self.hub).switch };
            switch.pass(Some(self.tid), Some(next));
        }
        // SAFETY: we hold the baton again; the borrow is unique until the
        // caller hands it on.
        let h = unsafe { &mut *self.hub };
        self.next_min = h.ready_min();
        &mut h.mem
    }

    /// Advance our clock by `cost` (plus pending work) and apply `eff` to the
    /// global memory once no operation that could precede it on the partition
    /// it touches is outstanding. `peer` is the thread whose partition that is
    /// (`tid` itself for local operations) — the active [`FaultPlan`], if
    /// any, prices link faults against it — and `access` what the operation
    /// does there.
    ///
    /// Fast path: if even after the advance we still precede the cached
    /// queue minimum, the conductor would hand the baton straight back to
    /// us, and inside the reach window nobody can get to our own partition
    /// first — skip the scheduler entirely and apply `eff` in place. Ops of
    /// every class have positive cost under all machine models (and the
    /// fault plan never shrinks a cost), so a thread cannot fast-path
    /// forever: its clock strictly grows and eventually leaves both windows,
    /// forcing a real handoff (no starvation).
    fn op<R>(
        &mut self,
        class: OpClass,
        access: Access,
        peer: usize,
        mut cost: u64,
        eff: impl FnOnce(&mut Mem<T>, u64) -> R,
    ) -> R {
        if self.faults.is_active() {
            // Fault decisions key on the *issue* time (before this op's own
            // cost is added) — a pure function of state both conductors
            // share bit-for-bit.
            let issue = self.local_clock + self.pending_work;
            let mut adj = self.faults.op_cost(self.tid, peer, class, cost, issue);
            // Correlated freezes (partition membership, gray stall): the op
            // is held until the thaw and only then runs at its normal cost,
            // so its memory effect lands after the heal. Monotone: thaw >
            // issue whenever Some, so adj never shrinks below base cost.
            if let Some(thaw) = self.faults.freeze_until(self.tid, issue, self.nthreads) {
                adj = adj.max(thaw.saturating_sub(issue) + cost);
            }
            self.stats.fault_ns += adj - cost;
            cost = adj;
        }
        self.stats.comm_ns += cost;
        let t = self.local_clock + self.pending_work + cost;
        assert!(
            self.fueled(t),
            "out of fuel: thread {} of {} did no work from {} ns to {t} ns, after {} operations",
            self.tid,
            self.nthreads,
            self.worked_until,
            self.conductor.total_ops()
        );
        self.pending_work = 0;
        self.local_clock = t;
        if self.lookahead {
            let (me, next_min, reach_ns) = (self.tid, self.next_min, self.reach_ns);
            // SAFETY: `op` runs with the baton held; the borrow ends with the
            // closure.
            let own = || unsafe { self.mem() }.inbound[me].admits(access);
            if let Some(reach) = window(next_min, me, t, peer, access, reach_ns, own) {
                self.conductor.fast_ops += 1;
                self.conductor.reach_ops += u64::from(reach);
                self.conductor.fast_by_class[class.index()] += 1;
                // SAFETY: we hold the baton and keep it.
                return eff(unsafe { self.mem() }, t);
            }
        }
        self.conductor.handoffs += 1;
        // While we are parked on another thread's partition, its owner's
        // reach window must know (the reference conductor has no window).
        let inbound = self.lookahead && peer != self.tid;
        // SAFETY: we hold the baton until the handoff below; the borrow ends
        // with the block.
        let next = unsafe {
            let h = &mut *self.hub;
            if inbound {
                *h.mem.inbound[peer].count(access) += 1;
            }
            h.hand_off(self.tid, t, self.next_min)
        };
        // Resumed by whichever holder later pops our key.
        let mem = self.hand_to(next);
        if inbound {
            *mem.inbound[peer].count(access) -= 1;
        }
        eff(mem, t)
    }

    /// Whether an operation of this thread completing at `t` is within
    /// fuel: the one place [`FUEL_NS`] is compared.
    fn fueled(&self, t: u64) -> bool {
        t - self.worked_until <= FUEL_NS
    }

    fn size_of_items(n: usize) -> usize {
        n * std::mem::size_of::<T>()
    }
}

impl<T: Item> Comm<T> for SimComm<T> {
    fn my_id(&self) -> usize {
        self.tid
    }

    fn n_threads(&self) -> usize {
        self.nthreads
    }

    fn machine(&self) -> &MachineModel {
        // SAFETY: worker code runs with the baton held, and `machine` is
        // written only before the run starts.
        unsafe { &(*self.hub).machine }
    }

    fn now(&self) -> u64 {
        self.local_clock + self.pending_work
    }

    fn work(&mut self, units: u64) {
        let ns = units * self.machine().node_ns;
        // Stragglers take longer per node; the surplus is accounted as fault
        // time, not useful work, so work_ns keeps its fault-free meaning.
        let adj = if self.faults.is_active() {
            let a = self.faults.work_ns(self.tid, ns);
            self.stats.fault_ns += a - ns;
            a
        } else {
            ns
        };
        self.pending_work += adj;
        self.stats.work_ns += ns;
        self.worked_until = self.now();
    }

    fn advance_idle(&mut self, ns: u64) {
        self.pending_work += ns;
        self.stats.comm_ns += ns;
    }

    fn poll(&mut self) {
        self.stats.polls += 1;
        let c = self.machine().poll_ns;
        let me = self.tid;
        self.op(OpClass::Poll, Access::Read, me, c, |_, _| ());
    }

    fn get(&mut self, thread: usize, var: usize) -> i64 {
        self.stats.gets += 1;
        let c = self.machine().ref_cost(self.tid, thread);
        self.op(OpClass::Scalar, Access::Read, thread, c, |m, _| m.scalars[thread][var])
    }

    fn put(&mut self, thread: usize, var: usize, val: i64) {
        self.stats.puts += 1;
        let c = self.machine().ref_cost(self.tid, thread);
        self.op(OpClass::Scalar, Access::Write, thread, c, |m, _| {
            m.scalars[thread][var] = val
        })
    }

    fn cas(&mut self, thread: usize, var: usize, expected: i64, new: i64) -> i64 {
        self.stats.atomics += 1;
        let c = self.machine().atomic_cost(self.tid, thread);
        self.op(OpClass::Atomic, Access::Write, thread, c, |m, _| {
            let cell = &mut m.scalars[thread][var];
            let observed = *cell;
            if observed == expected {
                *cell = new;
            }
            observed
        })
    }

    fn add(&mut self, thread: usize, var: usize, delta: i64) -> i64 {
        self.stats.atomics += 1;
        let c = self.machine().atomic_cost(self.tid, thread);
        self.op(OpClass::Atomic, Access::Write, thread, c, |m, _| {
            let cell = &mut m.scalars[thread][var];
            let old = *cell;
            *cell = old + delta;
            old
        })
    }

    /// Priced as [`Comm::add_many`] states, through [`SimComm::op`] once per
    /// member in landing order, each charged the gap to the landing before it
    /// (an active [`FaultPlan`] prices that wait like any blocking operation).
    fn add_many(&mut self, cells: &[(usize, usize)], delta: i64, prev: &mut Vec<i64>) {
        self.stats.atomics += cells.len() as u64;
        let me = self.tid;
        let overhead = self.machine().msg_overhead_ns;
        // (landing, member), both relative to the clock at the call.
        let mut landings = Vec::with_capacity(cells.len());
        let mut issue = 0;
        for (i, &(thread, _)) in cells.iter().enumerate() {
            let cost = self.machine().atomic_cost(me, thread);
            landings.push((issue + cost, i));
            issue += overhead.min(cost);
        }
        landings.sort_unstable();
        // A member is on its way from this moment, not from the moment this
        // thread parks on it: it can land less than `reach_ns` after the
        // member before it, so the owner of its cell must not take the reach
        // window past it while we are parked on an earlier one.
        // (The reference conductor has no window and counts nothing.)
        let lookahead = self.lookahead;
        let counted = move |thread: usize| u32::from(lookahead && thread != me);
        // SAFETY: worker code runs with the baton held; the borrow ends with
        // the loop, before `op` can hand the baton on.
        let mem = unsafe { self.mem() };
        for &(thread, _) in cells {
            mem.inbound[thread].writes += counted(thread);
        }
        let first = prev.len();
        prev.resize(first + cells.len(), 0);
        let mut landed = 0;
        for (landing, i) in landings {
            let (thread, var) = cells[i];
            prev[first + i] =
                self.op(OpClass::Atomic, Access::Write, thread, landing - landed, |m, _| {
                    m.inbound[thread].writes -= counted(thread);
                    let cell = &mut m.scalars[thread][var];
                    let old = *cell;
                    *cell = old + delta;
                    old
                });
            landed = landing;
        }
    }

    fn try_lock(&mut self, thread: usize, lock: usize) -> bool {
        let c = self.machine().lock_cost(self.tid, thread);
        let ok = self.op(OpClass::Lock, Access::Write, thread, c, |m, _| {
            let held = &mut m.locks[thread][lock];
            if *held {
                false
            } else {
                *held = true;
                true
            }
        });
        if ok {
            self.stats.lock_acquires += 1;
        } else {
            self.stats.lock_failures += 1;
        }
        ok
    }

    fn unlock(&mut self, thread: usize, lock: usize) {
        self.stats.unlocks += 1;
        let c = self.machine().unlock_cost(self.tid, thread);
        self.op(OpClass::Lock, Access::Write, thread, c, |m, _| {
            assert!(m.locks[thread][lock], "unlock of a free lock");
            m.locks[thread][lock] = false;
        })
    }

    fn area_len(&mut self, thread: usize) -> usize {
        self.stats.gets += 1;
        let c = self.machine().ref_cost(self.tid, thread);
        self.op(OpClass::Scalar, Access::Read, thread, c, |m, _| m.areas[thread].len())
    }

    fn area_read(&mut self, thread: usize, offset: usize, len: usize, dst: &mut Vec<T>) {
        self.stats.bulk_ops += 1;
        self.stats.bulk_items += len as u64;
        let c = self
            .machine()
            .bulk_cost(self.tid, thread, Self::size_of_items(len));
        self.op(OpClass::Bulk, Access::Read, thread, c, |m, _| {
            let area = &m.areas[thread];
            assert!(
                offset + len <= area.len(),
                "area_read out of range: {}..{} of {}",
                offset,
                offset + len,
                area.len()
            );
            dst.extend_from_slice(&area[offset..offset + len]);
        })
    }

    fn area_write(&mut self, thread: usize, offset: usize, src: &[T]) {
        self.stats.bulk_ops += 1;
        self.stats.bulk_items += src.len() as u64;
        let c = self
            .machine()
            .bulk_cost(self.tid, thread, Self::size_of_items(src.len()));
        self.op(OpClass::Bulk, Access::Write, thread, c, |m, _| {
            let area = &mut m.areas[thread];
            if area.len() < offset + src.len() {
                area.resize(offset + src.len(), T::default());
            }
            area[offset..offset + src.len()].copy_from_slice(src);
        })
    }

    fn area_truncate(&mut self, thread: usize, len: usize) {
        self.stats.puts += 1;
        let c = self.machine().ref_cost(self.tid, thread);
        self.op(OpClass::Scalar, Access::Write, thread, c, |m, _| {
            assert!(len <= m.areas[thread].len(), "truncate beyond area length");
            m.areas[thread].truncate(len);
        })
    }

    fn send(&mut self, dst: usize, tag: i64, meta: [i64; 4], payload: &[T]) {
        self.stats.msgs_sent += 1;
        self.stats.msg_items_sent += payload.len() as u64;
        let msg = Msg {
            src: self.tid,
            tag,
            meta,
            payload: payload.to_vec(),
        };
        let mut flight = self
            .machine()
            .msg_flight_ns(self.tid, dst, msg.wire_bytes());
        let mut fate = MsgFate::Delivered;
        if self.faults.is_active() {
            // A spiked link also congests in-flight traffic, keyed on the
            // send's issue time.
            let adj = self.faults.flight_ns(self.tid, dst, flight, self.now());
            self.stats.fault_ns += adj - flight;
            flight = adj;
            // A partition cut is a *correlated* fate: every message across
            // the cut is lost for the whole window, overriding the
            // independent per-message fate draw below.
            if self.faults.link_cut(self.tid, dst, self.now(), self.nthreads) {
                fate = MsgFate::Lost;
                self.stats.msgs_cut += 1;
            } else {
                // Crash faults: the send is priced either way, but its effect
                // may be dropped or land twice (second copy at double flight).
                fate = self.faults.msg_fate(self.tid, dst, self.now());
                match fate {
                    MsgFate::Lost => self.stats.msgs_lost += 1,
                    MsgFate::Duplicated => self.stats.msgs_duplicated += 1,
                    MsgFate::Delivered => {}
                }
            }
        }
        let overhead = self.machine().msg_overhead_ns;
        let deliver = move |m: &mut Mem<T>, now: u64| {
            if fate == MsgFate::Lost {
                return None;
            }
            let seq = m.send_seq;
            m.send_seq += 1;
            m.mailboxes[dst].insert((now + flight, seq), msg);
            if fate == MsgFate::Duplicated {
                let dup = m.mailboxes[dst]
                    .get(&(now + flight, seq))
                    .cloned()
                    .expect("just inserted");
                let seq2 = m.send_seq;
                m.send_seq += 1;
                m.mailboxes[dst].insert((now + 2 * flight, seq2), dup);
            }
            // A receiver sleeping through a mail wait wakes for the first pass
            // that can see the message (only fault-free runs sleep).
            m.waits.rekey(dst, tag, now + flight)
        };
        let woken = self.op(OpClass::Message, Access::Send, dst, overhead, deliver);
        // Its key may now precede every other; we hold the baton, so we are
        // the one to know.
        if let Some(key) = woken.filter(|&key| self.next_min.is_none_or(|min| key < min)) {
            self.next_min = Some(key);
        }
    }

    fn has_msg(&mut self, tag: Option<i64>) -> bool {
        self.stats.gets += 1;
        let c = self.machine().local_ref_ns;
        let me = self.tid;
        self.op(OpClass::Message, Access::Read, me, c, |m, now| {
            m.mailboxes[me]
                .iter()
                .take_while(|((arrival, _), _)| *arrival <= now)
                .any(|(_, msg)| tag.is_none_or(|t| msg.tag == t))
        })
    }

    fn idle_for_mail(&mut self, pass: &[MailProbe], idle_ns: u64) {
        self.wait_for_mail(pass, idle_ns);
    }

    fn probe_cycle(
        &mut self,
        victims: &[u32],
        start: usize,
        var: usize,
        own: Option<(usize, i64)>,
    ) -> Cycle {
        if let Some(cycle) = self.conduct_cycle(victims, start, var, own) {
            return cycle;
        }
        comm::probe_loop(self, victims, start, var, own)
    }

    fn try_recv(&mut self, tag: Option<i64>) -> Option<Msg<T>> {
        let c = self.machine().local_ref_ns;
        let me = self.tid;
        let got = self.op(OpClass::Message, Access::Write, me, c, |m, now| {
            let key = m.mailboxes[me]
                .iter()
                .take_while(|((arrival, _), _)| *arrival <= now)
                .find(|(_, msg)| tag.is_none_or(|t| msg.tag == t))
                .map(|(k, _)| *k)?;
            m.mailboxes[me].remove(&key)
        });
        if got.is_some() {
            self.stats.msgs_received += 1;
        }
        got
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smp_cluster(n: usize) -> SimCluster<u64> {
        SimCluster::new(MachineModel::smp(), n, SpaceConfig::default())
    }

    #[test]
    fn single_thread_runs() {
        let report = smp_cluster(1).run(|c| {
            c.put(0, 0, 42);
            c.get(0, 0)
        });
        assert_eq!(report.results, vec![42]);
        assert_eq!(report.final_scalar(0, 0), 42);
        assert!(report.makespan_ns > 0);
        // A lone thread never has competition: every op takes the fast path.
        assert_eq!(report.conductor[0].handoffs, 0);
        assert_eq!(report.conductor[0].fast_ops, 2);
    }

    #[test]
    fn fetch_add_from_all_threads_is_atomic() {
        let n = 16;
        let report = smp_cluster(n).run(|c| {
            for _ in 0..10 {
                c.add(0, 3, 1);
            }
        });
        assert_eq!(report.final_scalar(0, 3), (n * 10) as i64);
    }

    #[test]
    fn cas_exactly_one_winner() {
        let report = smp_cluster(8).run(|c| {
            let me = c.my_id() as i64;
            c.cas(0, 0, 0, me + 1) == 0
        });
        let winners = report.results.iter().filter(|&&w| w).count();
        assert_eq!(winners, 1);
        // The winner must be thread 0: at equal virtual cost, ties break by
        // thread id, deterministically.
        assert!(report.results[0]);
    }

    #[test]
    fn clock_advances_with_costs() {
        let m = MachineModel::kittyhawk();
        let cluster: SimCluster<u64> = SimCluster::new(m.clone(), 2, SpaceConfig::default());
        let report = cluster.run(|c| {
            if c.my_id() == 0 {
                c.work(1000); // 1000 nodes
                c.put(1, 0, 7); // remote put
            }
            c.now()
        });
        // Thread 0's clock ≥ 1000 * node_ns + the put's cost (thread 1 is on
        // the same 4-core node under the kittyhawk model).
        assert!(report.clocks[0] >= 1000 * m.node_ns + m.ref_cost(0, 1));
        assert!(report.makespan_ns >= report.clocks[0]);
        assert_eq!(report.final_scalar(1, 0), 7);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            SimCluster::<u64>::new(MachineModel::topsail(), 8, SpaceConfig::default()).run(|c| {
                let me = c.my_id();
                for i in 0..20 {
                    c.add((me + i) % 8, 1, 1);
                    if i % 3 == 0 {
                        c.work(17);
                    }
                }
                c.now()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.scalars, b.scalars);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.conductor, b.conductor);
    }

    /// The fast conductor must be invisible in every modelled quantity:
    /// running the same contended workload with lookahead on and off yields
    /// the same results, clocks, makespan, memory, and comm stats — only the
    /// conductor (harness) counters may differ.
    #[test]
    fn lookahead_off_is_bit_identical() {
        let run = |lookahead: bool| {
            SimCluster::<u64>::new(MachineModel::kittyhawk(), 8, SpaceConfig::default())
                .with_lookahead(lookahead)
                .run(|c| {
                    let me = c.my_id();
                    let n = c.n_threads();
                    for i in 0..40u64 {
                        match (me as u64 + i) % 6 {
                            0 => {
                                c.add((me + 1) % n, 2, 1);
                            }
                            1 => c.work(7 + (i % 5)),
                            2 => c.put(me, 0, i as i64),
                            3 => {
                                let _ = c.get((me + i as usize) % n, 0);
                            }
                            4 => {
                                if c.try_lock(0, 1) {
                                    c.unlock(0, 1);
                                }
                            }
                            _ => c.poll(),
                        }
                    }
                    c.now()
                })
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.results, slow.results);
        assert_eq!(fast.makespan_ns, slow.makespan_ns);
        assert_eq!(fast.clocks, slow.clocks);
        assert_eq!(fast.scalars, slow.scalars);
        assert_eq!(fast.stats, slow.stats);
        // And the knob really switches modes.
        assert_eq!(slow.total_conductor().fast_ops, 0);
        assert!(fast.total_conductor().fast_ops > 0, "fast path never engaged");
        assert_eq!(
            fast.total_conductor().total_ops(),
            slow.total_conductor().total_ops(),
            "both modes must conduct the same operation stream"
        );
    }

    /// Six kittyhawk threads (four on node 0, two on node 1) each publish
    /// rounds of adds on own, same-node and remote cells that the others hit
    /// too, through `publish(comm, cells) -> previous values`, and return
    /// everything they saw.
    fn contended_adds(
        machine: MachineModel,
        publish: impl Fn(&mut SimComm<u64>, &[(usize, usize)]) -> Vec<i64> + Sync,
    ) -> SimReport<Vec<i64>> {
        SimCluster::<u64>::new(machine, 6, SpaceConfig::default()).run(|c| {
            let (me, n) = (c.my_id(), c.n_threads());
            let mut seen = Vec::new();
            for round in 0..12 {
                c.work(3 + (me + round) as u64 % 4);
                let cells: Vec<(usize, usize)> = (0..1 + (me + round) % 5)
                    .map(|i| ((me + i * (round + 1)) % n, i % 3))
                    .collect();
                seen.extend(publish(c, &cells));
            }
            seen
        })
    }

    fn assert_same_model<R: PartialEq + std::fmt::Debug>(a: &SimReport<R>, b: &SimReport<R>) {
        assert_eq!(a.results, b.results);
        assert_eq!(a.clocks, b.clocks);
        assert_eq!(a.scalars, b.scalars);
        assert_eq!(a.stats, b.stats);
    }

    /// A batch of one is `add`: same clocks, memory and counters — the
    /// conductor's own included.
    #[test]
    fn add_many_of_one_cell_is_add() {
        let one_by_one = |batched: bool| {
            contended_adds(MachineModel::kittyhawk(), move |c, cells| {
                let mut prev = Vec::new();
                for &(thread, var) in cells {
                    if batched {
                        c.add_many(&[(thread, var)], 1, &mut prev);
                    } else {
                        prev.push(c.add(thread, var, 1));
                    }
                }
                prev
            })
        };
        let (batch, add) = (one_by_one(true), one_by_one(false));
        assert_same_model(&batch, &add);
        assert_eq!(batch.conductor, add.conductor);
        assert!(add.total_stats().atomics > 100);
    }

    /// The overlap is priced by `msg_overhead_ns` alone: raise it to the
    /// dearest atomic and a mixed batch is the loop of `add`, bit for bit;
    /// leave it at the preset's 1.5 µs and the same batches finish earlier.
    #[test]
    fn add_many_without_overlap_is_the_loop_of_add() {
        let run = |machine: MachineModel, batched: bool| {
            contended_adds(machine, move |c, cells| {
                let mut prev = Vec::new();
                if batched {
                    c.add_many(cells, 1, &mut prev);
                } else {
                    prev.extend(cells.iter().map(|&(thread, var)| c.add(thread, var, 1)));
                }
                prev
            })
        };
        let preset = MachineModel::kittyhawk();
        let serial = MachineModel {
            msg_overhead_ns: preset.remote_atomic_ns,
            ..preset.clone()
        };
        assert_same_model(&run(serial.clone(), true), &run(serial, false));
        let (batch, looped) = (run(preset.clone(), true), run(preset, false));
        assert_eq!(batch.total_stats().atomics, looped.total_stats().atomics);
        assert!(batch.makespan_ns < looped.makespan_ns);
    }

    /// The platform rule of `build.rs`: on x86-64 Linux both policies run on
    /// fibers — and report a measured, comfortably small stack high-water
    /// mark — and the OS-thread substrate, compiled there for these tests
    /// only, measures none; elsewhere it is the one substrate.
    #[test]
    fn fast_mode_substrate_follows_the_platform_rule() {
        assert_eq!(
            cfg!(pgas_fiber),
            cfg!(all(target_arch = "x86_64", target_os = "linux"))
        );
        let peak = |report: SimReport<i64>| report.total_conductor().stack_peak_bytes;
        for lookahead in [true, false] {
            let cluster = || smp_cluster(4).with_lookahead(lookahead);
            let on_threads = peak(cluster().run_threads(&|c: &mut SimComm<u64>| c.add(0, 0, 1)));
            assert_eq!(on_threads, 0, "the OS-thread substrate measures no stack");
            let measured = peak(cluster().run(|c| c.add(0, 0, 1)));
            if cfg!(pgas_fiber) {
                assert!(
                    (1..SIM_STACK_SIZE as u64 / 2).contains(&measured),
                    "lookahead={lookahead}: {measured}"
                );
            } else {
                assert_eq!(measured, 0, "lookahead={lookahead}: no fibers here");
            }
        }
    }

    /// The fast-path histogram attributes operations to the right class.
    #[test]
    fn conductor_histogram_tracks_classes() {
        let report = smp_cluster(1).run(|c| {
            c.put(0, 0, 1); // scalar
            c.add(0, 0, 1); // atomic
            c.poll(); // poll
            c.send(0, 1, [0; 4], &[1u64]); // message
        });
        let total = report.total_conductor();
        assert_eq!(total.fast_ops, 4);
        assert_eq!(total.fast_by_class[OpClass::Scalar.index()], 1);
        assert_eq!(total.fast_by_class[OpClass::Atomic.index()], 1);
        assert_eq!(total.fast_by_class[OpClass::Poll.index()], 1);
        assert_eq!(total.fast_by_class[OpClass::Message.index()], 1);
    }

    #[test]
    fn locks_mutually_exclude() {
        // Each thread increments a non-atomic pair of cells under a lock;
        // the pair must never be observed torn.
        let report = smp_cluster(8).run(|c| {
            for _ in 0..25 {
                c.lock(0, 0);
                let a = c.get(0, 0);
                let b = c.get(0, 1);
                assert_eq!(a, b, "torn read under lock");
                c.put(0, 0, a + 1);
                c.put(0, 1, b + 1);
                c.unlock(0, 0);
            }
        });
        assert_eq!(report.final_scalar(0, 0), 200);
        assert_eq!(report.final_scalar(0, 1), 200);
        let total = report.total_stats();
        assert_eq!(total.lock_acquires, 200);
        assert_eq!(total.unlocks, 200);
    }

    #[test]
    fn area_write_then_remote_read() {
        let report = smp_cluster(2).run(|c| {
            if c.my_id() == 0 {
                c.area_write(0, 0, &[11u64, 22, 33, 44]);
                c.put(1, 0, 1); // signal
                0
            } else {
                while c.get(1, 0) == 0 {
                    c.poll();
                }
                let mut buf = Vec::new();
                c.area_read(0, 1, 2, &mut buf);
                (buf[0] + buf[1]) as i64
            }
        });
        assert_eq!(report.results[1], 55);
    }

    #[test]
    fn area_grows_and_truncates() {
        let report = smp_cluster(1).run(|c| {
            c.area_write(0, 10, &[5u64; 4]);
            let len = c.area_len(0);
            c.area_truncate(0, 3);
            (len, c.area_len(0))
        });
        assert_eq!(report.results[0], (14, 3));
    }

    #[test]
    fn messages_arrive_after_latency_in_order() {
        let m = MachineModel::kittyhawk();
        let cluster: SimCluster<u64> = SimCluster::new(m, 2, SpaceConfig::default());
        let report = cluster.run(|c| {
            if c.my_id() == 0 {
                c.send(1, 7, [100, 0, 0, 0], &[1, 2, 3]);
                c.send(1, 7, [200, 0, 0, 0], &[4]);
                vec![]
            } else {
                let mut seen = Vec::new();
                while seen.len() < 2 {
                    if let Some(msg) = c.try_recv(Some(7)) {
                        seen.push(msg.meta[0]);
                    } else {
                        c.poll();
                    }
                }
                seen
            }
        });
        assert_eq!(report.results[1], vec![100, 200], "FIFO per sender");
    }

    #[test]
    fn message_not_visible_before_arrival() {
        // With remote latency, a recv issued immediately after the (virtual)
        // send time must not see the message; the receiving thread has to
        // burn virtual time polling first.
        let m = MachineModel::kittyhawk();
        let cluster: SimCluster<u64> = SimCluster::new(m.clone(), 5, SpaceConfig::default());
        let report = cluster.run(|c| {
            if c.my_id() == 0 {
                c.send(4, 1, [9, 0, 0, 0], &[]);
                0
            } else if c.my_id() == 4 {
                let mut polls = 0i64;
                while c.try_recv(Some(1)).is_none() {
                    polls += 1;
                }
                polls
            } else {
                0
            }
        });
        assert!(
            report.results[4] > 1,
            "receiver saw the message instantly despite flight latency"
        );
    }

    #[test]
    fn has_msg_respects_tag_filter() {
        let report = smp_cluster(2).run(|c| {
            if c.my_id() == 0 {
                c.send(1, 3, [0; 4], &[9u64]);
                (false, false)
            } else {
                // Wait for delivery.
                while !c.has_msg(None) {
                    c.poll();
                }
                (c.has_msg(Some(4)), c.has_msg(Some(3)))
            }
        });
        assert_eq!(report.results[1], (false, true));
    }

    #[test]
    fn unlock_without_hold_panics() {
        let result = std::panic::catch_unwind(|| {
            smp_cluster(1).run(|c| c.unlock(0, 0));
        });
        assert!(result.is_err());
    }

    /// A million pure-work charges must not deadlock or involve the
    /// conductor heap (regression guard for the pending-work fast path).
    #[test]
    fn work_fast_path() {
        let report = smp_cluster(2).run(|c| {
            for _ in 0..1000 {
                c.work(1000);
            }
            c.now()
        });
        let m = MachineModel::smp();
        for &t in &report.clocks {
            assert!(t >= 1_000_000 * m.node_ns);
        }
    }

    /// A spinning receiver that is far behind in virtual time must burn its
    /// probe iterations on the lookahead fast path rather than handing off
    /// per probe — the batching the fast path exists for.
    #[test]
    fn spin_probes_batch_on_fast_path() {
        let m = MachineModel::kittyhawk();
        let cluster: SimCluster<u64> = SimCluster::new(m, 2, SpaceConfig::default());
        let report = cluster.run(|c| {
            if c.my_id() == 0 {
                c.work(50_000); // push thread 0 far ahead before sending
                c.send(1, 1, [0; 4], &[]);
            } else {
                while c.try_recv(Some(1)).is_none() {}
            }
        });
        let probe_thread = &report.conductor[1];
        assert!(
            probe_thread.fast_ops > probe_thread.handoffs,
            "probes should mostly stay on the fast path: {probe_thread:?}"
        );
    }

    /// A contended workload exercising every fault class, for the
    /// fault-injection equivalence tests below.
    fn chaos_workload(c: &mut SimComm<u64>) -> u64 {
        let me = c.my_id();
        let n = c.n_threads();
        for i in 0..60u64 {
            match (me as u64 + i) % 7 {
                0 => {
                    c.add((me + 1) % n, 2, 1);
                }
                1 => c.work(9 + (i % 4)),
                2 => c.put((me + i as usize) % n, 0, i as i64),
                3 => {
                    let _ = c.get((me + 2 * i as usize) % n, 0);
                }
                4 => {
                    if c.try_lock(i as usize % n, 1) {
                        c.unlock(i as usize % n, 1);
                    }
                }
                5 => c.send((me + 3) % n, 1, [i as i64; 4], &[i]),
                _ => {
                    let _ = c.try_recv(Some(1));
                }
            }
        }
        c.now()
    }

    /// An installed `FaultPlan::none()` must be indistinguishable — in every
    /// modelled quantity, down to the stats — from never calling
    /// `with_faults` at all.
    #[test]
    fn none_plan_is_bit_identical_to_default() {
        let run = |faults: Option<FaultPlan>| {
            let mut cluster: SimCluster<u64> =
                SimCluster::new(MachineModel::kittyhawk(), 8, SpaceConfig::default());
            if let Some(f) = faults {
                cluster = cluster.with_faults(f);
            }
            cluster.run(chaos_workload)
        };
        let plain = run(None);
        let none = run(Some(FaultPlan::none()));
        assert_eq!(plain.results, none.results);
        assert_eq!(plain.makespan_ns, none.makespan_ns);
        assert_eq!(plain.clocks, none.clocks);
        assert_eq!(plain.scalars, none.scalars);
        assert_eq!(plain.stats, none.stats);
        assert_eq!(plain.conductor, none.conductor);
        assert_eq!(none.total_stats().fault_ns, 0);
    }

    /// A *faulted* schedule is exactly as conductor-independent as a
    /// fault-free one: the fast and the reference conductor agree on
    /// every modelled quantity, and the plan demonstrably fired.
    #[test]
    fn faulted_run_identical_across_conductors() {
        let run = |lookahead: bool| {
            SimCluster::<u64>::new(MachineModel::kittyhawk(), 8, SpaceConfig::default())
                .with_lookahead(lookahead)
                .with_faults(FaultPlan::seeded(0xFA_17))
                .run(chaos_workload)
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.results, slow.results);
        assert_eq!(fast.makespan_ns, slow.makespan_ns);
        assert_eq!(fast.clocks, slow.clocks);
        assert_eq!(fast.scalars, slow.scalars);
        assert_eq!(fast.stats, slow.stats);
        assert!(
            fast.total_stats().fault_ns > 0,
            "fault plan never injected anything"
        );
    }

    /// Crash-fault omission classes: under a `crashy` plan some sends are
    /// dropped and some land twice, the counters record exactly that, and
    /// the schedule stays bit-identical across both conductors.
    #[test]
    fn crash_plan_loses_and_duplicates_messages_deterministically() {
        let workload = |c: &mut SimComm<u64>| {
            let me = c.my_id();
            let n = c.n_threads();
            // A send-heavy phase, then drain: every thread fires 200
            // messages and then counts what actually arrived.
            for i in 0..200u64 {
                c.send((me + 1 + i as usize % (n - 1)) % n, 1, [i as i64; 4], &[i]);
                c.work(3 + i % 5);
            }
            let mut got = 0u64;
            for _ in 0..4000 {
                if c.try_recv(Some(1)).is_some() {
                    got += 1;
                }
                c.advance_idle(500);
            }
            got
        };
        let run = |lookahead: bool| {
            SimCluster::<u64>::new(MachineModel::kittyhawk(), 6, SpaceConfig::default())
                .with_lookahead(lookahead)
                .with_faults(FaultPlan::crashy(0xC4A5))
                .run(workload)
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.results, slow.results);
        assert_eq!(fast.clocks, slow.clocks);
        assert_eq!(fast.stats, slow.stats);
        let total = fast.total_stats();
        assert!(total.msgs_lost > 0, "no sends were lost");
        assert!(total.msgs_duplicated > 0, "no sends were duplicated");
        // Conservation of effects: arrivals = sent - lost + duplicated.
        let arrived: u64 = fast.results.iter().sum();
        assert_eq!(
            arrived,
            total.msgs_sent - total.msgs_lost + total.msgs_duplicated,
            "mailbox arrivals must match the send/loss/dup ledger"
        );
    }

    /// Straggler semantics: a plan that makes every thread a 4x straggler
    /// quadruples the duration of pure work, with the surplus accounted as
    /// fault time and `work_ns` keeping its fault-free meaning.
    #[test]
    fn straggler_plan_inflates_pure_work() {
        let all_stragglers = FaultPlan {
            straggler_per_mille: 1000,
            straggler_mult_x16: 64, // 4x
            ..FaultPlan::seeded(1)
        };
        let plan = FaultPlan {
            spike_per_mille: 0,
            stall_per_mille: 0,
            lock_mult_x16: 16,
            ..all_stragglers
        };
        let m = MachineModel::kittyhawk();
        let base = 1000 * m.node_ns;
        let report = SimCluster::<u64>::new(m, 1, SpaceConfig::default())
            .with_faults(plan)
            .run(|c| {
                c.work(1000);
                c.poll(); // fold pending work into the clock
                c.now()
            });
        let stats = &report.stats[0];
        assert_eq!(stats.work_ns, base, "work_ns must stay the modelled time");
        assert_eq!(stats.fault_ns, 3 * base, "4x straggler adds 3x as fault time");
        assert!(report.clocks[0] >= 4 * base);
    }
}

#[cfg(test)]
mod reach_tests;

#[cfg(test)]
mod failure_tests {
    use super::*;

    /// A worker panic must not deadlock the cluster: the baton is handed on
    /// before unwinding, the other threads run to completion, and the panic
    /// resurfaces from `run` with its own payload — in both conductor modes,
    /// on fibers and on OS threads.
    #[test]
    fn worker_panic_does_not_hang_cluster() {
        let runs = [(true, false), (false, false), (true, true), (false, true)];
        for (lookahead, on_threads) in runs {
            let result = std::panic::catch_unwind(|| {
                let cluster: SimCluster<u64> =
                    SimCluster::new(MachineModel::smp(), 4, SpaceConfig::default())
                        .with_lookahead(lookahead);
                let worker = |c: &mut SimComm<u64>| {
                    if c.my_id() == 2 {
                        panic!("injected failure");
                    }
                    // The survivors do real communication and finish.
                    for _ in 0..50 {
                        c.add(0, 0, 1);
                    }
                    c.my_id()
                };
                if on_threads {
                    cluster.run_threads(&worker)
                } else {
                    cluster.run(worker)
                }
            });
            let panic = result.expect_err("panic must propagate");
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"injected failure"),
                "lookahead={lookahead} on_threads={on_threads}"
            );
        }
    }

    /// Out-of-range bulk reads are detected, not silently truncated.
    #[test]
    fn area_read_out_of_range_panics() {
        let result = std::panic::catch_unwind(|| {
            let cluster: SimCluster<u64> =
                SimCluster::new(MachineModel::smp(), 1, SpaceConfig::default());
            cluster.run(|c| {
                c.area_write(0, 0, &[1, 2, 3]);
                let mut buf = Vec::new();
                c.area_read(0, 2, 5, &mut buf); // 2..7 of 3
            })
        });
        assert!(result.is_err());
    }

    /// Clocks never go backwards across an arbitrary op mix.
    #[test]
    fn clock_monotonicity() {
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::kittyhawk(), 3, SpaceConfig::default());
        let report = cluster.run(|c| {
            let mut last = c.now();
            let mut oks = 0u32;
            for i in 0..200u64 {
                match i % 5 {
                    0 => {
                        c.put((i as usize) % 3, 1, i as i64);
                    }
                    1 => {
                        c.work(3);
                    }
                    2 => {
                        let _ = c.get((i as usize + 1) % 3, 1);
                    }
                    3 => c.poll(),
                    _ => {
                        let _ = c.cas(0, 2, 0, 1);
                    }
                }
                let now = c.now();
                assert!(now >= last, "clock regressed: {now} < {last}");
                last = now;
                oks += 1;
            }
            oks
        });
        assert!(report.results.iter().all(|&o| o == 200));
    }
}
