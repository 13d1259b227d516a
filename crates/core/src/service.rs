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
//! # One driver, a different detector
//!
//! A service worker is [`crate::sched::drive`] — the batch worker, over the
//! same four transports — with a different termination detector. The
//! private `EpochTerm` owns rank 0's pump and this rank's scanner and runs
//! them from the driver's detector hooks: `start` (no root; activate the
//! deficit cells), `tick` (pump and scanner, every working- and idle-loop
//! iteration), `on_expand` (the fused `kids − 1` bump). Idle ranks run the
//! recovery-aware idle loop crash-mode batch runs use
//! ([`crate::sched::termination`]). `docs/service.md` §4 has the diagram.
//!
//! # Termination and the exit race
//!
//! When every request has been injected and declared quiescent, rank 0
//! broadcasts [`vars::SVC_TERM`]; workers poll their own copy locally — the
//! idle loop's only exit in service mode — and leave. A thief's steal
//! request can still be in flight toward a rank that exits on the same
//! tick, so service runs always arm a steal timeout
//! ([`SVC_STEAL_TIMEOUT_NS`]) even without crash faults: the thief times
//! out, rechecks its `SVC_TERM` cell, and exits instead of waiting forever.

use std::collections::{HashMap, HashSet};

use pgas::comm::Item;
use pgas::sim::SimCluster;
use pgas::{ArrivalSpec, Comm, MachineModel};

use crate::config::RunConfig;
use crate::engine::{build_report, finish_worker, seq_count};
use crate::hist::LatencyHistogram;
use crate::recovery::Recovery;
use crate::report::{RunReport, ThreadResult};
use crate::sched::bundle::{drive_over, CRASH_STEAL_TIMEOUT_NS};
use crate::sched::{Cx, StealTransport, TerminationDetector};
use crate::stack::DfsStack;
use crate::taskgen::{SyntheticGen, TaskGen, UtsGen};
use crate::vars;

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

/// The workload as the service cluster sees it: `gen`'s tasks, each tagged
/// with the epoch of the request it descends from. Children inherit the
/// parent's epoch.
struct StampedGen<'g, G>(&'g G);

impl<G: ServiceWorkload> TaskGen for StampedGen<'_, G> {
    type Task = Stamped<G::Task>;

    fn root(&self) -> Self::Task {
        Stamped { task: self.0.root(), epoch: 0 }
    }

    fn expand(&self, t: &Self::Task, out: &mut Vec<Self::Task>) -> u32 {
        let mut kids = Vec::new();
        let n = self.0.expand(&t.task, &mut kids);
        out.extend(kids.into_iter().map(|task| Stamped {
            task,
            epoch: t.epoch,
        }));
        n
    }

    fn work_units(&self, t: &Self::Task) -> u64 {
        self.0.work_units(&t.task)
    }

    fn fingerprint(&self, t: &Self::Task) -> u64 {
        self.0.fingerprint(&t.task)
    }
}

/// Service mode's termination detector (see the module docs): "done" is a
/// stream of per-epoch completion events, then one shutdown broadcast.
struct EpochTerm<'a, G> {
    gen: &'a G,
    /// Rank 0 only.
    pump: Option<SvcPump<'a>>,
    scanner: Scanner,
}

impl<G, C> TerminationDetector<Stamped<G::Task>, C> for EpochTerm<'_, G>
where
    G: ServiceWorkload,
    C: Comm<Stamped<G::Task>>,
{
    const EAGER_CYCLE: bool = false;

    /// No root: requests arrive through the pump. Publishes this rank's
    /// zero-deficit cells and hands the transport the epoch extractor.
    fn start<ST: StealTransport<Stamped<G::Task>, C>>(
        &mut self,
        comm: &mut C,
        transport: &mut ST,
        cx: &mut Cx,
    ) -> bool {
        cx.svc.activate(comm);
        transport.arm_service(|t| t.epoch);
        false
    }

    fn tick(&mut self, comm: &mut C, stack: &mut DfsStack<Stamped<G::Task>>, cx: &mut Cx) {
        if let Some(p) = self.pump.as_mut() {
            p.tick(comm, self.gen, stack, cx);
        }
        self.scanner.tick(comm, cx);
    }

    fn on_expand(&mut self, comm: &mut C, node: &Stamped<G::Task>, kids: usize, cx: &mut Cx) {
        let e = node.epoch as usize;
        if cx.res.svc_epoch_nodes.len() <= e {
            cx.res.svc_epoch_nodes.resize(e + 1, 0);
        }
        cx.res.svc_epoch_nodes[e] += 1;
        if cx.recovery.active {
            cx.res.explored_epoch.push(node.epoch);
        }
        // Publish-before-migration: one fused bump (−1 consumed parent,
        // +kids created children, all the same epoch) must be on this
        // rank's cell before any child can be stolen away.
        cx.svc.bump(comm, node.epoch, kids as i64 - 1);
    }

    /// Escalating, so quiet arrival gaps don't spin. Rank 0 caps at the pump
    /// interval so injections stay on schedule; everyone else may back off
    /// up to the scan interval bound.
    fn idle_backoff(&self, me: usize, floor: u64) -> (u64, u64) {
        let cap = if me == 0 {
            SVC_PUMP_INTERVAL_NS
        } else {
            SVC_IDLE_BACKOFF_MAX_NS
        };
        (SVC_IDLE_BACKOFF_NS.max(floor), cap)
    }

    fn done_before_steal(&mut self, comm: &mut C) -> bool {
        comm.get(comm.my_id(), vars::SVC_TERM) == 1
    }

    /// Only the broadcast ends a service run.
    fn done_after_recovery(&mut self, _comm: &mut C, _inflight: usize, _cx: &mut Cx) -> bool {
        false
    }
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
    let cluster: SimCluster<Stamped<G::Task>> =
        SimCluster::new(machine, nthreads, vars::space_config_for(gen, nthreads))
            .with_lookahead(cfg.sim_lookahead)
            .with_faults(cfg.faults);
    let report = cluster.run(|comm| {
        let n = comm.n_threads();
        let td = EpochTerm {
            gen,
            pump: (comm.my_id() == 0).then(|| SvcPump::new(schedule, n)),
            scanner: Scanner::new(n),
        };
        let res = drive_over(comm, &StampedGen(gen), cfg, td);
        finish_worker(comm, cfg, res)
    });
    let (service, mult) = service_report(cfg, gen, schedule, &report.results);
    let depth = gen.critical_path_len().unwrap_or(0);
    let mut run =
        build_report(cfg, machine_name, nthreads, depth, report.makespan_ns, report.results, mult);
    run.service = Some(service);
    run
}

/// The service half of the host-side assembly: dedup scanner declarations,
/// pair injections with completions, verify every epoch's node count
/// against a sequential re-expansion (with conservation-with-multiplicity
/// under crash plans), and build the latency histogram. Returns the report
/// with the run's `(duplicate_nodes, max_multiplicity)`.
fn service_report<G: ServiceWorkload>(
    cfg: &RunConfig,
    gen: &G,
    schedule: &[u64],
    per_thread: &[ThreadResult],
) -> (ServiceReport, (u64, u64)) {
    let crash = cfg.faults.crash_active();
    let n_requests = schedule.len();

    // Injections come from rank 0's pump, already in epoch order.
    let mut injections: Vec<(u32, u64, u64)> = Vec::with_capacity(n_requests);
    for t in per_thread {
        injections.extend(t.svc_injections.iter().copied());
    }
    injections.sort_unstable();
    assert_eq!(injections.len(), n_requests, "not every request was injected");

    // Completions: keep the earliest declaration per epoch (a reassigned
    // scan can declare twice after a scanner death).
    let mut completion: Vec<Option<u64>> = vec![None; n_requests];
    for t in per_thread {
        for &(e, at) in &t.svc_completions {
            let c = &mut completion[e as usize];
            *c = Some(c.map_or(at, |prev| prev.min(at)));
        }
    }

    // Per-epoch explored-node counts across ranks.
    let mut epoch_nodes = vec![0u64; n_requests];
    for t in per_thread {
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
        for t in per_thread {
            assert_eq!(t.explored.len(), t.explored_epoch.len());
            for (fp, &e) in t.explored.iter().zip(&t.explored_epoch) {
                *mult_by_epoch[e as usize].entry(*fp).or_insert(0) += 1;
            }
        }
        for e in 0..n_requests {
            let mut fps = Vec::new();
            let seq = seq_count(gen, gen.request_root(e as u32), Some(&mut fps));
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
            let seq = seq_count(gen, gen.request_root(e as u32), None);
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

    let report = ServiceReport {
        requests: n_requests,
        deferred_injections: per_thread.iter().map(|t| t.svc_deferred).sum(),
        per_request,
        hist,
    };
    (report, (dup_per_epoch.iter().sum(), max_multiplicity))
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

    /// Every bundle shares the one service path: per-epoch conservation,
    /// every request completed, nothing explored twice.
    #[test]
    fn service_conserves_and_completes_every_request() {
        let gen = SyntheticGen {
            branch: 2,
            depth: 5,
        };
        // 20 requests > SVC_WINDOW exercises slot reuse across classes.
        let arrivals = ArrivalSpec::poisson(7, 20, 20_000.0);
        for alg in Algorithm::all() {
            let cfg = RunConfig::new(alg, 2);
            let report = run_service_sim(MachineModel::smp(), 4, &gen, &cfg, &arrivals);
            let svc = report.service.as_ref().expect("service report attached");
            assert_eq!(svc.requests, 20, "{}", alg.label());
            assert_eq!(svc.per_request.len(), 20, "{}", alg.label());
            assert_eq!(svc.hist.count(), 20, "{}", alg.label());
            for r in &svc.per_request {
                assert_eq!(r.nodes, gen.size(), "{} epoch {}", alg.label(), r.epoch);
                assert_eq!(r.dup_nodes, 0, "{} epoch {}", alg.label(), r.epoch);
                assert!(r.injected_ns >= r.scheduled_ns, "{} epoch {}", alg.label(), r.epoch);
                assert!(r.completed_ns > r.injected_ns, "{} epoch {}", alg.label(), r.epoch);
                assert_eq!(r.latency_ns, r.completed_ns - r.scheduled_ns);
            }
            assert_eq!(report.total_nodes, gen.size() * 20, "{}", alg.label());
            assert!(svc.hist.p50() > 0);
            assert!(svc.hist.p999() >= svc.hist.p50());
        }
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
