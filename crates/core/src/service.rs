//! Service mode: open-loop task arrivals, per-epoch quiescence detection,
//! and tail-latency reporting (`docs/service.md`).
//!
//! Batch mode (the paper's setting) pushes one root task and runs to global
//! termination. Service mode models the load balancer as a long-lived
//! system: a seeded arrival process ([`pgas::ArrivalSpec`]) schedules root
//! tasks ("requests") on a virtual-time clock, rank 0 injects each one
//! tagged with its submission **epoch**, and the run reports per-request
//! makespan and p50/p99/p999 tail latency ([`crate::hist`]) instead of a
//! single makespan.
//!
//! # Epoch quiescence
//!
//! Run-to-termination detectors (barriers, token rings, the crash-mode
//! double scan) answer "is *everything* done" — useless mid-service, where
//! new work keeps arriving. Service mode instead proves per-epoch
//! quiescence with cumulative **packed deficit cells**:
//!
//! - Every rank owns [`vars::SVC_WINDOW`] cells, one per epoch residue
//!   class `epoch % SVC_WINDOW`. A cell packs a 24-bit wrapping write count
//!   and a biased 40-bit task deficit ([`SvcAccount`]).
//! - **Publish-before-migration**: an item's `+1` is published before the
//!   item can exist anywhere (injection bumps before pushing the root; each
//!   expansion publishes one fused `kids − 1` bump before `push_all`; a
//!   crash-mode message absorb bumps `+items` before sending the ACK that
//!   lets the donor bump `−items`). At every real instant the global sum
//!   for an epoch is ≥ the number of live tasks of that epoch.
//! - A **scanner** rank (epoch `e` is scanned by rank `e % n`, reassigned
//!   by rank 0 if that rank dies) reads all `n` cells of the slot twice,
//!   one scan interval apart. If both passes return the *identical* packed
//!   vector and the deficits sum to zero, the unchanged write counts prove
//!   the reads form a consistent snapshot — the epoch had zero outstanding
//!   tasks at every instant between the passes, and since only live tasks
//!   create tasks, it is quiescent forever. This generalizes the rank-0
//!   double scan of `crates/core/src/recovery.rs` from "one global
//!   termination event" to "a stream of per-epoch completion events".
//! - Cells are cumulative and never reset; the admission window (at most
//!   [`vars::SVC_WINDOW`] epochs in flight, enforced by rank 0's pump)
//!   guarantees at most one live epoch per residue class, so a zero sum
//!   always refers to the newest epoch of the class.
//!
//! # Termination and the exit race
//!
//! When every request has been injected and declared quiescent, rank 0
//! broadcasts [`vars::SVC_TERM`]; workers poll their own copy locally and
//! exit. A thief's steal request can still be in flight toward a rank that
//! exits on the same tick, so service runs always arm a steal timeout
//! ([`SVC_STEAL_TIMEOUT_NS`]) even without crash faults: the thief times
//! out, rechecks its `SVC_TERM` cell, and exits instead of waiting forever.

use std::collections::{HashMap, HashSet};

use pgas::comm::Item;
use pgas::sim::SimCluster;
use pgas::{ArrivalSpec, Collectives, Comm, MachineModel};

use crate::config::RunConfig;
use crate::distmem::DistMemTransport;
use crate::hist::LatencyHistogram;
use crate::locked::LockedTransport;
use crate::mpi_ws::MpiTransport;
use crate::probe::VictimSelector;
use crate::pushing::PushTransport;
use crate::recovery::Recovery;
use crate::report::{RunReport, ThreadResult};
use crate::sched::bundle::CRASH_STEAL_TIMEOUT_NS;
use crate::sched::{Cx, Discovery, StealOutcome, StealTransport, TransportKind};
use crate::stack::DfsStack;
use crate::state::State;
use crate::taskgen::{SyntheticGen, TaskGen, UtsGen};
use crate::vars;
use crate::watchdog::Watchdog;

/// Virtual-time interval between a scanner's passes over its assigned
/// slots. Two identical passes this far apart declare an epoch quiescent,
/// so detection adds roughly two to three intervals to reported latency.
pub const SVC_SCAN_INTERVAL_NS: u64 = 100_000;

/// Virtual-time interval between rank 0's pump checks (arrival injection,
/// completion-floor advance, shutdown broadcast).
pub const SVC_PUMP_INTERVAL_NS: u64 = 20_000;

/// Base idle backoff between service work-discovery iterations.
pub const SVC_IDLE_BACKOFF_NS: u64 = 3_000;

/// Cap for the escalating idle backoff. Idle ranks double their backoff up
/// to this while no work is sighted, so quiet gaps between arrivals don't
/// burn probe traffic; a request landing in a deep-idle system pays at most
/// this much extra discovery latency per rank.
pub const SVC_IDLE_BACKOFF_MAX_NS: u64 = 100_000;

/// Steal timeout armed for every service run when the config leaves
/// [`RunConfig::steal_timeout_ns`] unset (see the module docs on the exit
/// race). Crash-fault service runs need it for dead victims anyway.
pub const SVC_STEAL_TIMEOUT_NS: u64 = CRASH_STEAL_TIMEOUT_NS;

/// A task tagged with the submission epoch of the request it descends
/// from. This is the task type service-mode clusters actually ship around:
/// children inherit the parent's epoch, so every steal, spill, and
/// reinjection carries its accounting class with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stamped<T> {
    /// The underlying workload task.
    pub task: T,
    /// Submission epoch (index of the request in arrival order).
    pub epoch: u32,
}

/// The epoch extractor handed to message transports via
/// [`StealTransport::arm_service`].
fn stamp_epoch<T: Item>(t: &Stamped<T>) -> u32 {
    t.epoch
}

/// A workload that can mint a fresh root task per request.
///
/// Epoch 0's root should match [`TaskGen::root`] so batch and service runs
/// agree on the first tree; later epochs may (and for UTS do) perturb the
/// tree seed so requests differ.
pub trait ServiceWorkload: TaskGen {
    /// The root task of request `epoch`.
    fn request_root(&self, epoch: u32) -> Self::Task;
}

impl ServiceWorkload for UtsGen {
    fn request_root(&self, epoch: u32) -> Self::Task {
        // Each request is a UTS tree with the seed perturbed by its epoch —
        // epoch 0 is exactly the batch tree.
        let mut spec = *self.spec();
        spec.seed = spec.seed.wrapping_add(epoch);
        spec.root()
    }
}

impl ServiceWorkload for SyntheticGen {
    fn request_root(&self, _epoch: u32) -> Self::Task {
        // The synthetic balanced tree is identical every epoch.
        self.root()
    }
}

/// Additive bias applied to the 40-bit deficit field so an initialized
/// zero-deficit cell is distinguishable from a raw (never written) zero
/// cell: a rank's cells only enter a scanner's zero-sum once that rank has
/// actually activated and published them.
const DEFICIT_BIAS: i64 = 1 << 39;
const DEFICIT_MASK: i64 = (1 << 40) - 1;
const WCOUNT_MASK: u32 = 0x00FF_FFFF;

/// Pack a (write count, deficit) pair into one shared cell. The write
/// count occupies the top 24 bits and wraps; the biased deficit the low 40.
fn pack(wcount: u32, deficit: i64) -> i64 {
    debug_assert!(
        deficit > -DEFICIT_BIAS && deficit < DEFICIT_BIAS,
        "service deficit out of packable range: {deficit}"
    );
    (((wcount & WCOUNT_MASK) as i64) << 40) | (deficit + DEFICIT_BIAS)
}

/// The deficit half of a packed cell. A raw zero cell (rank not yet
/// activated, or dead before activating) unpacks to `-DEFICIT_BIAS`, which
/// can never contribute to a zero sum.
fn unpack_deficit(cell: i64) -> i64 {
    (cell & DEFICIT_MASK) - DEFICIT_BIAS
}

/// Per-rank service accounting state, threaded through [`Cx`] so transports
/// can publish crash-mode transfer attributions without being generic over
/// the stamped task type.
///
/// Each bump is a single put of the freshly packed cell to this rank's own
/// partition — writers never contend (cells are rank-private), scanners
/// only read.
pub struct SvcAccount {
    /// Whether this run is a service run. All methods are no-ops when not.
    pub active: bool,
    me: usize,
    wcount: [u32; vars::SVC_WINDOW],
    deficit: [i64; vars::SVC_WINDOW],
}

impl SvcAccount {
    /// The inert account every batch-mode [`Cx`] carries.
    pub fn inactive() -> SvcAccount {
        SvcAccount {
            active: false,
            me: 0,
            wcount: [0; vars::SVC_WINDOW],
            deficit: [0; vars::SVC_WINDOW],
        }
    }

    /// Arm service accounting and publish `pack(0, 0)` to every owned slot
    /// cell, so scanners can tell "this rank is live with zero deficit"
    /// (biased zero) from "this rank never wrote" (raw zero).
    fn activate<T: Item, C: Comm<T>>(&mut self, comm: &mut C) {
        self.active = true;
        self.me = comm.my_id();
        self.wcount = [0; vars::SVC_WINDOW];
        self.deficit = [0; vars::SVC_WINDOW];
        for w in 0..vars::SVC_WINDOW {
            comm.put(self.me, vars::SVC_SLOT_BASE + w, pack(0, 0));
        }
    }

    /// Publish a deficit change for `epoch`: bump the slot's write count,
    /// apply `delta`, and put the repacked cell (one comm op). The caller
    /// must issue this *before* the tasks it accounts for become visible to
    /// any other rank (publish-before-migration, see the module docs).
    pub fn bump<T: Item, C: Comm<T>>(&mut self, comm: &mut C, epoch: u32, delta: i64) {
        debug_assert!(self.active, "SvcAccount::bump outside service mode");
        let w = epoch as usize % vars::SVC_WINDOW;
        self.wcount[w] = self.wcount[w].wrapping_add(1);
        self.deficit[w] += delta;
        comm.put(
            self.me,
            vars::SVC_SLOT_BASE + w,
            pack(self.wcount[w], self.deficit[w]),
        );
    }

    /// Attribute a moved payload to its epochs: one [`SvcAccount::bump`] of
    /// `sign` per item, grouped so each distinct epoch in the payload costs
    /// one put. Used by the message transports' crash-mode absorb (`+1`
    /// before the ACK is sent) and ACK-close (`−1` once the lineage grant
    /// actually closes); no-op outside service mode.
    pub fn bump_items<T: Item, C: Comm<T>>(
        &mut self,
        comm: &mut C,
        payload: &[T],
        epoch_of: fn(&T) -> u32,
        sign: i64,
    ) {
        if !self.active || payload.is_empty() {
            return;
        }
        let mut groups: Vec<(u32, i64)> = Vec::new();
        for t in payload {
            let e = epoch_of(t);
            match groups.iter_mut().find(|g| g.0 == e) {
                Some(g) => g.1 += sign,
                None => groups.push((e, sign)),
            }
        }
        for (e, d) in groups {
            self.bump(comm, e, d);
        }
    }
}

/// Rank 0's service pump: walks the precomputed arrival schedule, injects
/// due requests (subject to the admission window), advances the completion
/// floor from the done board, reassigns scans orphaned by rank death, and
/// broadcasts shutdown when the stream is drained.
struct SvcPump<'s> {
    schedule: &'s [u64],
    n: usize,
    next_arrival: usize,
    /// Epochs `< floor` are declared complete; the admission window is
    /// `[floor, floor + SVC_WINDOW)`.
    floor: usize,
    /// First epoch whose deferral has not been counted yet (each epoch is
    /// counted as deferred at most once).
    deferred_counted: usize,
    /// Scanner rank assigned to each injected epoch.
    scanner_of: Vec<usize>,
    next_check: u64,
    term_sent: bool,
}

impl<'s> SvcPump<'s> {
    fn new(schedule: &'s [u64], n: usize) -> SvcPump<'s> {
        SvcPump {
            schedule,
            n,
            next_arrival: 0,
            floor: 0,
            deferred_counted: 0,
            scanner_of: Vec::with_capacity(schedule.len()),
            next_check: 0,
            term_sent: false,
        }
    }

    /// The next present rank at or after `start` (wrapping): neither dead
    /// nor evicted by quorum. Rank 0 never dies and is never partitioned
    /// (kills and cuts skip it), so this always terminates.
    fn next_live(&self, start: usize, recovery: &Recovery) -> usize {
        let mut s = start % self.n;
        while recovery.is_gone(s) {
            s = (s + 1) % self.n;
        }
        s
    }

    fn tick<G, C>(
        &mut self,
        comm: &mut C,
        gen: &G,
        stack: &mut DfsStack<Stamped<G::Task>>,
        cx: &mut Cx,
    ) where
        G: ServiceWorkload,
        C: Comm<Stamped<G::Task>>,
    {
        let now = comm.now();
        if self.term_sent || now < self.next_check {
            return;
        }
        self.next_check = now + SVC_PUMP_INTERVAL_NS;

        // Advance the completion floor over the local done board.
        while self.floor < self.next_arrival {
            let w = self.floor % vars::SVC_WINDOW;
            if comm.get(0, vars::SVC_DONE_BASE + w) > self.floor as i64 {
                self.floor += 1;
            } else {
                break;
            }
        }

        // Crash mode: reassign scans owned by a rank that died — or was
        // evicted by quorum — before declaring. Duplicate declarations (the
        // gone rank's declare was already in flight) are harmless — assembly
        // dedups per epoch. The replacement scanner still reads *every*
        // rank's deficit cell, including evicted ones: an epoch whose tasks
        // sit with a fenced zombie simply stays open until the zombie
        // rejoins and drains them, which is exactly the zero-lost-requests
        // guarantee.
        if cx.recovery.active {
            cx.recovery.scan(comm);
            for e in self.floor..self.next_arrival {
                let w = e % vars::SVC_WINDOW;
                if comm.get(0, vars::SVC_DONE_BASE + w) > e as i64 {
                    continue;
                }
                if cx.recovery.is_gone(self.scanner_of[e]) {
                    let s = self.next_live(e + 1, &cx.recovery);
                    self.scanner_of[e] = s;
                    comm.put(s, vars::SVC_ASSIGN_BASE + w, e as i64 + 1);
                }
            }
        }

        // Inject every due arrival the admission window allows. Ordering
        // per epoch: publish the +1 deficit, push the root, then hand the
        // scan assignment out — a scanner can never observe the epoch
        // before its deficit is on the books.
        while self.next_arrival < self.schedule.len() {
            let e = self.next_arrival;
            if self.schedule[e] > now {
                break;
            }
            if e >= self.floor + vars::SVC_WINDOW {
                if self.deferred_counted <= e {
                    cx.res.svc_deferred += 1;
                    self.deferred_counted = e + 1;
                }
                break;
            }
            let epoch = e as u32;
            cx.svc.bump(comm, epoch, 1);
            stack.push(Stamped {
                task: gen.request_root(epoch),
                epoch,
            });
            let s = self.next_live(e, &cx.recovery);
            self.scanner_of.push(s);
            comm.put(s, vars::SVC_ASSIGN_BASE + e % vars::SVC_WINDOW, e as i64 + 1);
            let injected = comm.now();
            cx.res.svc_injections.push((epoch, self.schedule[e], injected));
            self.next_arrival += 1;
        }

        // Stream drained and every epoch declared: broadcast shutdown. At
        // this point every deficit is zero, so no rank holds or will ever
        // hold work again.
        if self.next_arrival == self.schedule.len() && self.floor == self.schedule.len() {
            for r in 0..self.n {
                comm.put(r, vars::SVC_TERM, 1);
            }
            self.term_sent = true;
        }
    }
}

/// The per-rank quiescence scanner: for each slot this rank is assigned
/// (via its [`vars::SVC_ASSIGN_BASE`] board), read all `n` packed cells;
/// two identical zero-sum passes one interval apart declare the epoch
/// complete (see the module docs for why this is a consistent snapshot).
struct Scanner {
    n: usize,
    next_scan: u64,
    /// Armed first pass per slot: the (assignment, packed vector) observed.
    last: Vec<Option<(i64, Vec<i64>)>>,
}

impl Scanner {
    fn new(n: usize) -> Scanner {
        Scanner {
            n,
            next_scan: 0,
            last: (0..vars::SVC_WINDOW).map(|_| None).collect(),
        }
    }

    fn tick<T: Item, C: Comm<T>>(&mut self, comm: &mut C, cx: &mut Cx) {
        let now = comm.now();
        if now < self.next_scan {
            return;
        }
        self.next_scan = now + SVC_SCAN_INTERVAL_NS;
        let me = comm.my_id();
        for w in 0..vars::SVC_WINDOW {
            let assign = comm.get(me, vars::SVC_ASSIGN_BASE + w);
            if assign <= 0 {
                self.last[w] = None;
                continue;
            }
            let mut cur = Vec::with_capacity(self.n);
            let mut sum = 0i64;
            for r in 0..self.n {
                let cell = comm.get(r, vars::SVC_SLOT_BASE + w);
                sum += unpack_deficit(cell);
                cur.push(cell);
            }
            if sum != 0 {
                self.last[w] = None;
                continue;
            }
            match &self.last[w] {
                Some((a, prev)) if *a == assign && *prev == cur => {
                    // Second identical zero-sum pass: declare, clear the
                    // assignment, and record the completion instant.
                    let epoch = (assign - 1) as u32;
                    comm.put(0, vars::SVC_DONE_BASE + w, assign);
                    comm.put(me, vars::SVC_ASSIGN_BASE + w, 0);
                    let done = comm.now();
                    cx.res.svc_completions.push((epoch, done));
                    self.last[w] = None;
                }
                _ => self.last[w] = Some((assign, cur)),
            }
        }
    }
}

/// Service-mode work discovery: replaces the batch termination detectors.
/// Idle ranks keep stealing (probing transports probe-then-steal under
/// `LIN_OUT` guards, message transports blind-steal one victim per
/// iteration), stay responsive to requests, interleave the crash-recovery
/// protocol, run their pump/scanner duties, and exit only on the rank-0
/// [`vars::SVC_TERM`] broadcast — with an escalating idle backoff so quiet
/// arrival gaps don't spin.
#[allow(clippy::too_many_arguments)]
fn svc_discover<G, C, ST, VS>(
    comm: &mut C,
    stack: &mut DfsStack<Stamped<G::Task>>,
    transport: &mut ST,
    victims: &mut VS,
    cx: &mut Cx,
    pump: &mut Option<SvcPump<'_>>,
    scanner: &mut Scanner,
    gen: &G,
    probing: bool,
) -> Discovery
where
    G: ServiceWorkload,
    C: Comm<Stamped<G::Task>>,
    ST: StealTransport<Stamped<G::Task>, C>,
    VS: VictimSelector,
{
    cx.enter(comm, State::Searching);
    cx.recovery.publish_out(comm);
    let mut dog = Watchdog::new("service work discovery");
    let crash = cx.recovery.active;
    let me = comm.my_id();
    // Rank 0 caps its backoff at the pump interval so injections stay on
    // schedule; everyone else may back off up to the scan interval bound.
    let cap = if me == 0 {
        SVC_PUMP_INTERVAL_NS
    } else {
        SVC_IDLE_BACKOFF_MAX_NS
    };
    let mut backoff = SVC_IDLE_BACKOFF_NS.max(ST::IDLE_BACKOFF_NS);
    let mut cycle: Vec<usize> = Vec::new();
    let mut next = 0usize;
    loop {
        dog.tick();
        if crash && cx.recovery.kill_due(comm.now()) {
            return Discovery::Died;
        }
        if let Some(p) = pump.as_mut() {
            p.tick(comm, gen, stack, cx);
        }
        scanner.tick(comm, cx);
        transport.idle_service(comm, stack, cx);
        if transport.absorb_pending(comm, stack, cx) || !stack.is_local_empty() {
            cx.recovery.publish_working(comm);
            transport.got_work(comm);
            return Discovery::GotWork;
        }
        if comm.get(me, vars::SVC_TERM) == 1 {
            return Discovery::Terminated;
        }
        let mut saw_work = false;
        if ST::STEALS {
            if probing {
                for v in victims.cycle() {
                    if cx.recovery.is_gone(v) {
                        continue;
                    }
                    cx.res.probes += 1;
                    if transport.probe(comm, v) > 0 {
                        saw_work = true;
                        cx.enter(comm, State::Stealing);
                        cx.recovery.guard_begin(comm);
                        let outcome = transport.steal(comm, stack, v, cx);
                        if outcome == StealOutcome::Got {
                            // Working-before-unguard (see crate::recovery).
                            cx.recovery.publish_working(comm);
                        }
                        cx.recovery.guard_end(comm);
                        cx.enter(comm, State::Searching);
                        match outcome {
                            StealOutcome::Got => {
                                transport.got_work(comm);
                                return Discovery::GotWork;
                            }
                            StealOutcome::TimedOut => transport.after_timeout(comm, cx),
                            StealOutcome::Denied | StealOutcome::TermRaced => {}
                        }
                        dog.reset();
                    }
                    transport.idle_service(comm, stack, cx);
                }
            } else {
                if next >= cycle.len() {
                    cycle = victims.cycle();
                    next = 0;
                }
                if !cycle.is_empty() {
                    let v = cycle[next];
                    next += 1;
                    if !cx.recovery.is_gone(v) {
                        cx.res.probes += 1;
                        cx.enter(comm, State::Stealing);
                        let outcome = transport.steal(comm, stack, v, cx);
                        cx.enter(comm, State::Searching);
                        match outcome {
                            StealOutcome::Got => {
                                cx.recovery.publish_working(comm);
                                transport.got_work(comm);
                                return Discovery::GotWork;
                            }
                            StealOutcome::TimedOut => {
                                saw_work = true;
                                transport.after_timeout(comm, cx);
                            }
                            StealOutcome::Denied | StealOutcome::TermRaced => {}
                        }
                        dog.reset();
                    }
                }
            }
        }
        if crash {
            cx.recovery.heartbeat(comm);
            if cx.recovery.is_fenced() {
                // Evicted while stalled (partition/gray freeze): fold the
                // old incarnation's holdings and re-enter as a new one.
                crate::sched::refence(comm, stack, transport, cx);
                if !stack.is_local_empty() {
                    return Discovery::GotWork;
                }
            }
            cx.recovery.scan(comm);
            // Evictions this rank just executed by quorum: reclaim what the
            // transport can take over race-free, then release the scavenge
            // guard opened at the quorum vote.
            while let Some(victim) = cx.recovery.take_scavenge() {
                let items = transport.scavenge(comm, stack, victim, cx);
                cx.res.scavenged_nodes += items;
                let now = comm.now();
                cx.log.evict(victim, items, now);
                if items > 0 {
                    cx.recovery.publish_working(comm);
                }
                cx.recovery.guard_end(comm);
                if items > 0 {
                    transport.got_work(comm);
                    return Discovery::GotWork;
                }
            }
            if let Some((dead, items)) = cx.recovery.try_adopt(comm, stack) {
                cx.res.recovered_nodes += items;
                let now = comm.now();
                cx.log.adopt(dead, items, now);
                transport.got_work(comm);
                return Discovery::GotWork;
            }
        }
        backoff = if saw_work {
            SVC_IDLE_BACKOFF_NS.max(ST::IDLE_BACKOFF_NS)
        } else {
            (backoff * 2).min(cap)
        };
        comm.advance_idle(backoff);
    }
}

/// The service-mode worker driver: [`crate::sched::drive`]'s working loop
/// with epoch-stamped tasks, fused per-expansion deficit publication, the
/// rank-0 pump, and per-rank scanners; work discovery goes through
/// [`svc_discover`] instead of a [`crate::sched::TerminationDetector`].
fn drive_service<G, C, ST, VS>(
    comm: &mut C,
    gen: &G,
    cfg: &RunConfig,
    schedule: &[u64],
    mut transport: ST,
    mut victims: VS,
    probing: bool,
) -> ThreadResult
where
    G: ServiceWorkload,
    C: Comm<Stamped<G::Task>>,
    ST: StealTransport<Stamped<G::Task>, C>,
    VS: VictimSelector,
{
    let me = comm.my_id();
    let n = comm.n_threads();
    let mut stack: DfsStack<Stamped<G::Task>> = DfsStack::new(cfg.chunk_size);
    let mut cx = Cx::new(cfg, comm.now());
    cx.recovery = Recovery::new(me, n, &cfg.faults);
    let crash = cx.recovery.active;
    cx.svc.activate(comm);
    transport.init(comm, &mut cx);
    transport.arm_service(stamp_epoch::<G::Task>);

    let mut pump = (me == 0).then(|| SvcPump::new(schedule, n));
    let mut scanner = Scanner::new(n);
    let mut kids: Vec<G::Task> = Vec::new();
    let mut scratch: Vec<Stamped<G::Task>> = Vec::new();

    'outer: loop {
        // ------------------------------------------------- Working (Fig. 1)
        cx.enter(comm, State::Working);
        transport.on_enter_working();
        let mut died = false;
        loop {
            if crash {
                if cx.recovery.kill_due(comm.now()) {
                    died = true;
                    break;
                }
                cx.recovery.heartbeat(comm);
                if cx.recovery.is_fenced() {
                    crate::sched::refence(comm, &mut stack, &mut transport, &mut cx);
                    continue 'outer;
                }
            }
            if let Some(p) = pump.as_mut() {
                p.tick(comm, gen, &mut stack, &mut cx);
            }
            scanner.tick(comm, &mut cx);
            if stack.is_local_empty() {
                if transport.refill(comm, &mut stack, &mut cx) {
                    continue;
                }
                break; // truly out of local work
            }
            let node = stack.pop().expect("nonempty local region");
            cx.res.nodes += 1;
            let e = node.epoch as usize;
            if cx.res.svc_epoch_nodes.len() <= e {
                cx.res.svc_epoch_nodes.resize(e + 1, 0);
            }
            cx.res.svc_epoch_nodes[e] += 1;
            if crash {
                cx.res.explored.push(gen.fingerprint(&node.task));
                cx.res.explored_epoch.push(node.epoch);
            }
            kids.clear();
            gen.expand(&node.task, &mut kids);
            // Publish-before-migration: one fused bump (−1 consumed parent,
            // +kids created children, all the same epoch) must be on this
            // rank's cell before any child can be stolen away.
            cx.svc.bump(comm, node.epoch, kids.len() as i64 - 1);
            scratch.clear();
            scratch.extend(kids.iter().map(|t| Stamped {
                task: *t,
                epoch: node.epoch,
            }));
            stack.push_all(&scratch);
            comm.work(gen.work_units(&node.task));
            transport.poll(comm, &mut stack, &mut cx);
            transport.maybe_release(comm, &mut stack, &mut cx);
        }
        if !died {
            transport.on_out_of_work(comm, &mut stack, &mut cx);
            // ------------------------------ Work discovery / service shutdown
            match svc_discover(
                comm,
                &mut stack,
                &mut transport,
                &mut victims,
                &mut cx,
                &mut pump,
                &mut scanner,
                gen,
                probing,
            ) {
                Discovery::GotWork => continue 'outer,
                Discovery::Terminated => break 'outer,
                Discovery::Died => {} // fall through to the deathbed
            }
        }

        // Deathbed, then (if the plan revives us) sit out the restart delay
        // and rejoin as a new incarnation — same shape as the batch driver.
        transport.deathbed(comm, &mut stack, &mut cx);
        let spilled = cx.recovery.spill_and_die(comm, &mut stack);
        cx.res.died = true;
        let now = comm.now();
        cx.log.death(spilled, now);
        let Some(at) = cx.recovery.restart_at() else {
            return cx.into_result(comm);
        };
        let now = comm.now();
        if at > now {
            comm.advance_idle(at - now);
        }
        let items = cx.recovery.restart(comm, &mut stack);
        cx.res.recovered_nodes += items;
        let now = comm.now();
        cx.log.rejoin(cx.recovery.incarnation(), items, now);
    }

    transport.finish(comm, &mut stack, &mut cx);
    cx.into_result(comm)
}

/// One completed request's statistics in a [`ServiceReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestStat {
    /// Submission epoch (arrival order).
    pub epoch: u32,
    /// Scheduled arrival instant (virtual ns) from the arrival process.
    pub scheduled_ns: u64,
    /// Instant rank 0 actually injected the root (≥ scheduled; later when
    /// the admission window deferred it).
    pub injected_ns: u64,
    /// Instant a scanner declared the epoch quiescent.
    pub completed_ns: u64,
    /// `completed_ns − scheduled_ns`: the client-visible latency, including
    /// deferral and detection time.
    pub latency_ns: u64,
    /// Tree nodes explored for this request (including crash-mode
    /// duplicates).
    pub nodes: u64,
    /// Nodes explored more than once (crash runs; 0 otherwise).
    pub dup_nodes: u64,
}

/// Aggregate results of a service run, attached to
/// [`RunReport::service`](crate::report::RunReport::service).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceReport {
    /// Number of requests in the arrival schedule (all must complete).
    pub requests: usize,
    /// How many injections the admission window deferred past their
    /// scheduled arrival (each epoch counted once).
    pub deferred_injections: u64,
    /// Per-request statistics, in epoch order.
    pub per_request: Vec<RequestStat>,
    /// Log-bucketed latency histogram over all requests; quantiles via
    /// [`LatencyHistogram::quantile`].
    pub hist: LatencyHistogram,
}

/// Sequentially expand request `epoch`'s tree; returns the node count and,
/// when `fps` is given, pushes every node's fingerprint.
fn seq_request<G: ServiceWorkload>(gen: &G, epoch: u32, mut fps: Option<&mut Vec<u64>>) -> u64 {
    let mut stack = vec![gen.request_root(epoch)];
    let mut scratch = Vec::new();
    let mut nodes = 0u64;
    while let Some(t) = stack.pop() {
        nodes += 1;
        if let Some(f) = fps.as_deref_mut() {
            f.push(gen.fingerprint(&t));
        }
        scratch.clear();
        gen.expand(&t, &mut scratch);
        stack.extend_from_slice(&scratch);
    }
    nodes
}

/// Run a service-mode workload on the virtual-time simulator: `nthreads`
/// simulated ranks over `machine`'s cost model, with root tasks injected
/// per `arrivals` (see [`pgas::ArrivalSpec`]). Deterministic for a fixed
/// (config, arrival spec) pair on either conductor; panics if any request
/// fails per-epoch conservation or never completes.
///
/// Service mode is sim-only: arrivals are scheduled on the virtual clock,
/// so there is no native-backend analogue.
pub fn run_service_sim<G>(
    machine: MachineModel,
    nthreads: usize,
    gen: &G,
    cfg: &RunConfig,
    arrivals: &ArrivalSpec,
) -> RunReport
where
    G: ServiceWorkload,
{
    let machine_name = machine.name;
    let mut armed = *cfg;
    if armed.steal_timeout_ns.is_none() {
        // Always armed in service mode — see the module docs (exit race).
        armed.steal_timeout_ns = Some(SVC_STEAL_TIMEOUT_NS);
    }
    let cfg = &armed;
    if let Err(e) = crate::engine::check_crash_fingerprints(gen, cfg) {
        panic!("{e}");
    }
    let schedule = arrivals.schedule();
    let schedule = &schedule[..];
    let spec = cfg.bundle();
    let cluster: SimCluster<Stamped<G::Task>> =
        SimCluster::new(machine, nthreads, vars::space_config_for(gen, nthreads))
            .with_lookahead(cfg.sim_lookahead)
            .with_faults(cfg.faults);
    let report = cluster.run(|comm| {
        let me = comm.my_id();
        let n = comm.n_threads();
        let victims = spec.victims.build(me, n, cfg.seed, comm.machine());
        let sp = spec.steal;
        let mut res = match spec.transport {
            TransportKind::Locked => {
                drive_service(comm, gen, cfg, schedule, LockedTransport::new(sp), victims, true)
            }
            TransportKind::DistMem => {
                drive_service(comm, gen, cfg, schedule, DistMemTransport::new(sp), victims, true)
            }
            TransportKind::MpiMsg => {
                drive_service(comm, gen, cfg, schedule, MpiTransport::new(sp), victims, false)
            }
            TransportKind::PushMsg => drive_service(
                comm,
                gen,
                cfg,
                schedule,
                PushTransport::new(me, n, cfg.seed),
                victims,
                false,
            ),
        };
        if cfg.faults.crash_active() {
            // A dead rank can never join the collective (as in batch mode).
            res.reduced_total = 0;
        } else {
            let mut coll = Collectives::new(vars::COLL_BASE);
            res.reduced_total = coll.all_reduce_sum(comm, res.nodes as i64) as u64;
        }
        res
    });
    assemble_service(
        cfg,
        machine_name,
        nthreads,
        gen,
        schedule,
        report.makespan_ns,
        report.results,
    )
}

/// Host-side assembly and conservation checking for a service run: dedup
/// scanner declarations, pair injections with completions, verify every
/// epoch's node count against a sequential re-expansion (with
/// conservation-with-multiplicity under crash plans), and build the
/// latency histogram.
fn assemble_service<G: ServiceWorkload>(
    cfg: &RunConfig,
    machine: &'static str,
    threads: usize,
    gen: &G,
    schedule: &[u64],
    makespan_ns: u64,
    per_thread: Vec<ThreadResult>,
) -> RunReport {
    let crash = cfg.faults.crash_active();
    let n_requests = schedule.len();
    let total_nodes: u64 = per_thread.iter().map(|t| t.nodes).sum();
    if !crash {
        for (t, r) in per_thread.iter().enumerate() {
            assert_eq!(
                r.reduced_total, total_nodes,
                "thread {t}: in-band reduced total disagrees with host-side sum"
            );
        }
    }

    // Injections come from rank 0's pump, already in epoch order.
    let mut injections: Vec<(u32, u64, u64)> = Vec::with_capacity(n_requests);
    for t in &per_thread {
        injections.extend(t.svc_injections.iter().copied());
    }
    injections.sort_unstable();
    assert_eq!(injections.len(), n_requests, "not every request was injected");

    // Completions: keep the earliest declaration per epoch (a reassigned
    // scan can declare twice after a scanner death).
    let mut completion: Vec<Option<u64>> = vec![None; n_requests];
    for t in &per_thread {
        for &(e, at) in &t.svc_completions {
            let c = &mut completion[e as usize];
            *c = Some(c.map_or(at, |prev| prev.min(at)));
        }
    }

    // Per-epoch explored-node counts across ranks.
    let mut epoch_nodes = vec![0u64; n_requests];
    for t in &per_thread {
        for (e, &v) in t.svc_epoch_nodes.iter().enumerate() {
            epoch_nodes[e] += v;
        }
    }

    // Conservation per epoch, against a sequential re-expansion of each
    // request tree.
    let mut dup_per_epoch = vec![0u64; n_requests];
    let mut max_multiplicity = 1u64;
    if crash {
        let mut mult_by_epoch: Vec<HashMap<u64, u64>> =
            (0..n_requests).map(|_| HashMap::new()).collect();
        for t in &per_thread {
            assert_eq!(t.explored.len(), t.explored_epoch.len());
            for (fp, &e) in t.explored.iter().zip(&t.explored_epoch) {
                *mult_by_epoch[e as usize].entry(*fp).or_insert(0) += 1;
            }
        }
        for e in 0..n_requests {
            let mut fps = Vec::new();
            let seq = seq_request(gen, e as u32, Some(&mut fps));
            let mult = &mult_by_epoch[e];
            let dup: u64 = mult.values().map(|&m| m - 1).sum();
            dup_per_epoch[e] = dup;
            max_multiplicity = max_multiplicity.max(mult.values().copied().max().unwrap_or(1));
            let seq_set: HashSet<u64> = fps.iter().copied().collect();
            if seq_set.len() as u64 == seq {
                // Fingerprints are collision-free for this request:
                // conservation-with-multiplicity must hold exactly.
                assert_eq!(
                    mult.len() as u64,
                    seq,
                    "epoch {e}: unique explored nodes disagree with the request tree"
                );
                assert!(
                    mult.keys().all(|fp| seq_set.contains(fp)),
                    "epoch {e}: explored a fingerprint outside the request tree"
                );
                assert_eq!(
                    epoch_nodes[e],
                    seq + dup,
                    "epoch {e}: explored count is not tree + duplicates"
                );
            }
        }
    } else {
        for (e, &counted) in epoch_nodes.iter().enumerate() {
            let seq = seq_request(gen, e as u32, None);
            assert_eq!(
                counted, seq,
                "epoch {e}: explored {counted} nodes, sequential tree has {seq}"
            );
        }
    }

    // Pair every injection with its (mandatory) completion.
    let mut per_request = Vec::with_capacity(n_requests);
    let mut hist = LatencyHistogram::new();
    for (i, &(e, scheduled_ns, injected_ns)) in injections.iter().enumerate() {
        assert_eq!(e as usize, i, "injection epochs must be dense and ordered");
        let completed_ns = completion[i]
            .unwrap_or_else(|| panic!("epoch {i} was never declared quiescent"));
        let latency_ns = completed_ns.saturating_sub(scheduled_ns);
        hist.record(latency_ns);
        per_request.push(RequestStat {
            epoch: e,
            scheduled_ns,
            injected_ns,
            completed_ns,
            latency_ns,
            nodes: epoch_nodes[i],
            dup_nodes: dup_per_epoch[i],
        });
    }

    RunReport {
        label: cfg.algorithm.label(),
        machine,
        threads,
        chunk_size: cfg.chunk_size,
        total_nodes,
        makespan_ns,
        recovered_nodes: per_thread.iter().map(|t| t.recovered_nodes).sum(),
        duplicate_nodes: dup_per_epoch.iter().sum(),
        max_multiplicity,
        deaths: per_thread.iter().filter(|t| t.died).count(),
        evictions: per_thread.iter().map(|t| t.evictions).sum(),
        rejoins: per_thread.iter().map(|t| t.rejoins).sum(),
        steal_attempts: per_thread
            .iter()
            .map(|t| t.steals_ok + t.steals_failed)
            .sum(),
        successful_steals: per_thread.iter().map(|t| t.steals_ok).sum(),
        critical_path_len: gen.critical_path_len().unwrap_or(0),
        service: Some(ServiceReport {
            requests: n_requests,
            deferred_injections: per_thread.iter().map(|t| t.svc_deferred).sum(),
            per_request,
            hist,
        }),
        per_thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use pgas::ArrivalSpec;

    #[test]
    fn packed_cells_roundtrip() {
        for wc in [0u32, 1, 7, WCOUNT_MASK, WCOUNT_MASK + 3] {
            for d in [0i64, 1, -1, 12345, -9876, DEFICIT_BIAS - 1, 1 - DEFICIT_BIAS] {
                let cell = pack(wc, d);
                assert_eq!(unpack_deficit(cell), d, "wc={wc} d={d}");
                // A raw zero cell is distinguishable from any packed cell.
                assert_ne!(cell, 0, "pack({wc}, {d}) collides with the raw cell");
            }
        }
        assert_eq!(unpack_deficit(0), -DEFICIT_BIAS);
        // The write count wraps at 24 bits without touching the deficit.
        assert_eq!(pack(WCOUNT_MASK + 1, 5), pack(0, 5));
        assert_ne!(pack(1, 5), pack(2, 5));
    }

    #[test]
    fn uts_requests_differ_by_epoch_and_epoch0_is_batch_root() {
        let gen = UtsGen::new(uts_tree::presets::t_tiny().spec);
        assert_eq!(gen.request_root(0), gen.root());
        assert_ne!(
            gen.fingerprint(&gen.request_root(0)),
            gen.fingerprint(&gen.request_root(1))
        );
    }

    #[test]
    fn service_conserves_and_completes_every_request() {
        let gen = SyntheticGen {
            branch: 2,
            depth: 5,
        };
        let cfg = RunConfig::new(Algorithm::DistMem, 2);
        // 20 requests > SVC_WINDOW exercises slot reuse across classes.
        let arrivals = ArrivalSpec::poisson(7, 20, 20_000.0);
        let report = run_service_sim(MachineModel::smp(), 4, &gen, &cfg, &arrivals);
        let svc = report.service.as_ref().expect("service report attached");
        assert_eq!(svc.requests, 20);
        assert_eq!(svc.per_request.len(), 20);
        assert_eq!(svc.hist.count(), 20);
        for r in &svc.per_request {
            assert_eq!(r.nodes, gen.size(), "epoch {}", r.epoch);
            assert_eq!(r.dup_nodes, 0);
            assert!(r.injected_ns >= r.scheduled_ns, "epoch {}", r.epoch);
            assert!(r.completed_ns > r.injected_ns, "epoch {}", r.epoch);
            assert_eq!(r.latency_ns, r.completed_ns - r.scheduled_ns);
        }
        assert_eq!(report.total_nodes, gen.size() * 20);
        assert!(svc.hist.p50() > 0);
        assert!(svc.hist.p999() >= svc.hist.p50());
    }

    #[test]
    fn service_runs_identically_twice() {
        let gen = UtsGen::new(uts_tree::TreeSpec::binomial(11, 6, 2, 0.4));
        let cfg = RunConfig::new(Algorithm::MpiWs, 2);
        let arrivals = ArrivalSpec::mmpp(3, 8, 5_000.0, 60_000.0, 300_000);
        let a = run_service_sim(MachineModel::smp(), 3, &gen, &cfg, &arrivals);
        let b = run_service_sim(MachineModel::smp(), 3, &gen, &cfg, &arrivals);
        assert_eq!(a.service, b.service);
        assert_eq!(a.makespan_ns, b.makespan_ns);
    }

    #[test]
    fn pushing_transport_supports_service_mode() {
        let gen = SyntheticGen {
            branch: 3,
            depth: 3,
        };
        let cfg = RunConfig::new(Algorithm::Pushing, 2);
        let arrivals = ArrivalSpec::poisson(5, 4, 50_000.0);
        let report = run_service_sim(MachineModel::smp(), 3, &gen, &cfg, &arrivals);
        let svc = report.service.unwrap();
        assert_eq!(svc.per_request.len(), 4);
        assert_eq!(report.total_nodes, gen.size() * 4);
    }
}
