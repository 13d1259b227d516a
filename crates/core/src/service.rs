//! Service mode: open-loop task arrivals, per-epoch quiescence detection,
//! and tail-latency reporting (`docs/service.md`).
//!
//! Batch mode (the paper's setting) pushes one root task and runs to global
//! termination. Service mode models the load balancer as a long-lived
//! system: a seeded arrival process ([`pgas::ArrivalSpec`]) schedules root
//! tasks ("requests") on a virtual-time clock, rank 0 injects each one
//! tagged with its submission **epoch**, and the run reports per-request
//! makespan and p50/p99 tail latency ([`crate::hist`]) instead of a
//! single makespan.
//!
//! # Epoch quiescence
//!
//! Run-to-termination detectors (barriers, token rings, the crash-mode
//! double scan) answer "is *everything* done" — useless mid-service, where
//! new work keeps arriving. Service mode instead proves per-epoch
//! quiescence with per-epoch **packed deficit cells** and a **touch board**
//! naming the ranks whose cells count:
//!
//! - Every rank owns [`vars::SVC_WINDOW`] cells, one per epoch residue
//!   class `epoch % SVC_WINDOW`. A cell packs a 24-bit wrapping write count
//!   and a signed 40-bit task deficit ([`SvcAccount`]). The admission window
//!   (at most [`vars::SVC_WINDOW`] epochs in flight, enforced by rank 0's
//!   pump) guarantees at most one live epoch per residue class.
//! - **Publish-before-migration**: an item's `+1` is published before the
//!   item can exist anywhere (injection bumps before pushing the root; each
//!   expansion publishes one fused `kids − 1` bump before `push_all`; a
//!   crash-mode message absorb bumps `+items` before sending the ACK that
//!   lets the donor bump `−items`). At every real instant the sum over the
//!   ranks that have published for an epoch is ≥ its number of live tasks.
//! - **Touch board**: epoch `e`'s *home*, rank `e % n`, holds per window
//!   slot one bit per rank (63 to a cell). Rank 0 *opens* the epoch — resets
//!   its own cell, then overwrites the board with its own bit alone — before
//!   the root's `+1`. Any other rank, on its first bump for `e`, resets its
//!   cell to deficit 0 (write count + 1), **then** `add`s its bit on the
//!   home, then publishes the bump: a set bit therefore always points at a
//!   cell of *this* epoch. Only the injector ever zeroes a board,
//!   registrants only add bits, scanners only read.
//! - A **scanner** rank (epoch `e` is scanned by its home, reassigned by
//!   rank 0 if that rank dies) reads the board words and then exactly the
//!   registered ranks' cells, twice, one scan interval apart — O(ranks the
//!   epoch touched), about two, not O(n). If both passes return the
//!   *identical* (board ++ cells) vector and the deficits sum to zero, then
//!   — bits being set-only within an epoch and write counts monotone — there
//!   was an instant τ between the passes at which the board was exactly the
//!   set read and its cells held exactly the values read. A rank not on the
//!   board at τ had not finished registering, hence had published nothing
//!   for `e`, hence had neither created nor consumed an `e`-task (the one it
//!   may be holding is still `+1` on its creator's registered cell): the
//!   zero sum over the board is the global deficit at τ, and since only live
//!   tasks create tasks, the epoch is quiescent forever. This generalizes
//!   the rank-0 double scan of `crates/core/src/recovery.rs` from "one
//!   global termination event" to "a stream of per-epoch completion events".
//! - `service_report` checks the safety half on every run: no epoch may be
//!   declared before its tree had been executed
//!   ([`RequestStat::last_node_ns`]).
//!
//! # One driver, a different detector
//!
//! A service worker is [`crate::sched::drive`] — the batch worker, over the
//! same three transports — with a different termination detector. The
//! private `EpochTerm` owns rank 0's pump and this rank's scanner and runs
//! them from the driver's detector hooks: `start` (no root; arm the
//! accounting), `tick` (pump and scanner: every working- and idle-loop
//! iteration, and after every probe of an idle sweep), `on_expand` (the
//! fused `kids − 1` bump). Idle ranks run the recovery-aware idle loop
//! crash-mode batch runs use ([`crate::sched::termination`]).
//! `docs/service.md` §4 has the diagram.
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
/// so detection adds one to two intervals to reported latency.
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

const DEFICIT_BITS: u32 = 40;
const DEFICIT_MASK: i64 = (1 << DEFICIT_BITS) - 1;
const WCOUNT_MASK: u32 = 0x00FF_FFFF;

/// Pack a (write count, deficit) pair into one shared cell. The write
/// count occupies the top 24 bits and wraps; the two's-complement deficit
/// the low 40.
fn pack(wcount: u32, deficit: i64) -> i64 {
    debug_assert_eq!(
        unpack_deficit(deficit & DEFICIT_MASK),
        deficit,
        "service deficit out of packable range"
    );
    (((wcount & WCOUNT_MASK) as i64) << DEFICIT_BITS) | (deficit & DEFICIT_MASK)
}

/// The deficit half of a packed cell, sign-extended.
fn unpack_deficit(cell: i64) -> i64 {
    let shift = 64 - DEFICIT_BITS;
    (cell << shift) >> shift
}

/// Participant bits per touch-board word. Bit 63 stays clear, so a word is
/// never negative and registering with `add` cannot overflow.
const BOARD_BITS: usize = 63;

/// Where the touch boards live: every rank has one block of
/// [`Board::words`] cells per window slot above `base`, and epoch `e` uses
/// the block of its slot on its *home*, rank `e % n`.
#[derive(Clone, Copy)]
struct Board {
    n: usize,
    base: usize,
}

impl Board {
    /// Words per window slot.
    fn words(&self) -> usize {
        self.n.div_ceil(BOARD_BITS)
    }

    /// Cells per rank.
    fn cells(&self) -> usize {
        vars::SVC_WINDOW * self.words()
    }

    /// Rank and cell of word `j` of `epoch`'s board.
    fn cell(&self, epoch: u32, j: usize) -> (usize, usize) {
        let w = epoch as usize % vars::SVC_WINDOW;
        (epoch as usize % self.n, self.base + w * self.words() + j)
    }

    /// Word index and mask of `rank`'s participant bit.
    fn bit(rank: usize) -> (usize, i64) {
        (rank / BOARD_BITS, 1 << (rank % BOARD_BITS))
    }
}

/// Per-rank service accounting state, threaded through [`Cx`] so transports
/// can publish crash-mode transfer attributions without being generic over
/// the stamped task type.
///
/// Each bump is a single put of the freshly packed cell to this rank's own
/// partition — writers never contend (cells are rank-private), scanners
/// only read. The one remote operation is the `add` that registers this
/// rank on an epoch's touch board, once per (rank, epoch).
pub struct SvcAccount {
    /// Whether this run is a service run. All methods are no-ops when not.
    pub active: bool,
    me: usize,
    board: Board,
    wcount: [u32; vars::SVC_WINDOW],
    deficit: [i64; vars::SVC_WINDOW],
    /// The epoch each slot's cell currently accounts for.
    slot_epoch: [Option<u32>; vars::SVC_WINDOW],
    /// Bumps dropped because their epoch was older than the slot's (see
    /// [`SvcAccount::bump`]).
    pub stale_bumps: u64,
}

impl SvcAccount {
    /// The inert account every batch-mode [`Cx`] carries.
    pub fn inactive() -> SvcAccount {
        SvcAccount {
            active: false,
            me: 0,
            board: Board { n: 1, base: 0 },
            wcount: [0; vars::SVC_WINDOW],
            deficit: [0; vars::SVC_WINDOW],
            slot_epoch: [None; vars::SVC_WINDOW],
            stale_bumps: 0,
        }
    }

    /// Arm service accounting. Issues no operation: a cell is first written
    /// when its rank first touches an epoch, and never read before that.
    fn activate(&mut self, me: usize, board: Board) {
        *self = SvcAccount {
            active: true,
            me,
            board,
            ..SvcAccount::inactive()
        };
    }

    /// Put `deficit` into slot `w`'s cell under the next write count.
    fn publish<T: Item, C: Comm<T>>(&mut self, comm: &mut C, w: usize, deficit: i64) {
        self.wcount[w] = self.wcount[w].wrapping_add(1);
        self.deficit[w] = deficit;
        comm.put(self.me, vars::SVC_SLOT_BASE + w, pack(self.wcount[w], deficit));
    }

    /// The injector opens `epoch`: reset this rank's cell, then overwrite
    /// the home's board with this rank as the only participant. Nobody else
    /// ever clears a board bit, so a scanner resuming from a gray stall
    /// cannot erase a live epoch's registrations.
    fn open<T: Item, C: Comm<T>>(&mut self, comm: &mut C, epoch: u32) {
        let w = epoch as usize % vars::SVC_WINDOW;
        self.slot_epoch[w] = Some(epoch);
        self.publish(comm, w, 0);
        let (mine, bit) = Board::bit(self.me);
        for j in 0..self.board.words() {
            let (home, cell) = self.board.cell(epoch, j);
            comm.put(home, cell, if j == mine { bit } else { 0 });
        }
    }

    /// Publish a deficit change for `epoch`: bump the slot's write count,
    /// apply `delta`, and put the repacked cell (one comm op). The caller
    /// must issue this *before* the tasks it accounts for become visible to
    /// any other rank (publish-before-migration, see the module docs).
    ///
    /// This rank's first bump for `epoch` resets the cell *and then*
    /// registers on the epoch's touch board, so a scanner that sees the bit
    /// can only read a cell of this epoch.
    pub fn bump<T: Item, C: Comm<T>>(&mut self, comm: &mut C, epoch: u32, delta: i64) {
        debug_assert!(self.active, "SvcAccount::bump outside service mode");
        let w = epoch as usize % vars::SVC_WINDOW;
        if self.slot_epoch[w] != Some(epoch) {
            if self.slot_epoch[w] > Some(epoch) {
                // The cell already accounts for a newer epoch of this
                // residue class; `epoch` was declared long ago (a zombie's
                // duplicate), and its bump must not land on the newer books.
                debug_assert!(false, "bump for epoch {epoch} after its slot moved on");
                self.stale_bumps += 1;
                return;
            }
            self.slot_epoch[w] = Some(epoch);
            self.publish(comm, w, 0);
            let (j, bit) = Board::bit(self.me);
            let (home, cell) = self.board.cell(epoch, j);
            comm.add(home, cell, bit);
        }
        self.publish(comm, w, self.deficit[w] + delta);
    }

    /// Attribute a moved payload to its epochs: one [`SvcAccount::bump`] of
    /// `sign` per item, grouped so each distinct epoch in the payload costs
    /// one put. Used by the message transport's crash-mode absorb (`+1`
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
        // dedups per epoch. The replacement scanner reads the same board
        // and cells, one-sidedly (a gone rank's memory stays readable),
        // including evicted participants': an epoch whose tasks sit with a
        // fenced zombie simply stays open until the zombie rejoins and
        // drains them, which is exactly the zero-lost-requests guarantee.
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
        // per epoch: open the touch board, publish the +1 deficit, push the
        // root, then hand the scan assignment out — a scanner can never
        // observe the epoch before its board and deficit are on the books.
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
            cx.svc.open(comm, epoch);
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
/// (via its [`vars::SVC_ASSIGN_BASE`] board), read the epoch's touch board
/// from its home and the packed cells of the ranks registered there; two
/// identical zero-sum passes one interval apart declare the epoch complete
/// (see the module docs for why this is a consistent snapshot).
struct Scanner {
    board: Board,
    next_scan: u64,
    /// Armed first pass per slot: the assignment and the (board words ++
    /// registered cells) observed.
    last: Vec<Option<(i64, Vec<i64>)>>,
}

impl Scanner {
    fn new(board: Board) -> Scanner {
        Scanner {
            board,
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
        let words = self.board.words();
        for w in 0..vars::SVC_WINDOW {
            let assign = comm.get(me, vars::SVC_ASSIGN_BASE + w);
            if assign <= 0 {
                self.last[w] = None;
                continue;
            }
            let epoch = (assign - 1) as u32;
            // Two or three ranks touch a typical epoch.
            let mut cur = Vec::with_capacity(words + 4);
            for j in 0..words {
                let (home, cell) = self.board.cell(epoch, j);
                cur.push(comm.get(home, cell));
            }
            let mut sum = 0i64;
            for j in 0..words {
                let mut bits = cur[j];
                while bits != 0 {
                    let r = j * BOARD_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let cell = comm.get(r, vars::SVC_SLOT_BASE + w);
                    sum += unpack_deficit(cell);
                    cur.push(cell);
                }
            }
            if sum != 0 {
                self.last[w] = None;
                continue;
            }
            match &self.last[w] {
                Some((a, prev)) if *a == assign && *prev == cur => {
                    // Second identical zero-sum pass: declare, clear the
                    // assignment, and record the completion instant. The
                    // board is left as it is: only the injector zeroes it.
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

    /// No root: requests arrive through the pump. Arms this rank's
    /// accounting and hands the transport the epoch extractor.
    fn start<ST: StealTransport<Stamped<G::Task>, C>>(
        &mut self,
        comm: &mut C,
        transport: &mut ST,
        cx: &mut Cx,
    ) -> bool {
        cx.svc.activate(comm.my_id(), self.scanner.board);
        if let Some(ledger) = transport.ledger() {
            ledger.epoch_of = Some(|t| t.epoch);
        }
        false
    }

    fn tick(&mut self, comm: &mut C, stack: &mut DfsStack<Stamped<G::Task>>, cx: &mut Cx) {
        if let Some(p) = self.pump.as_mut() {
            p.tick(comm, self.gen, stack, cx);
        }
        self.scanner.tick(comm, cx);
    }

    fn on_expand(&mut self, comm: &mut C, tasks: &[Stamped<G::Task>], kids: usize, cx: &mut Cx) {
        let [node] = tasks else {
            unreachable!("a service workload does not place, so it expands one task at a time")
        };
        // Publish-before-migration: one fused bump (−1 consumed parent,
        // +kids created children, all the same epoch) must be on this
        // rank's cell before any child can be stolen away.
        cx.svc.bump(comm, node.epoch, kids as i64 - 1);
        // The instant this expansion was on the books, for the
        // declared-after-executed check of `service_report`.
        let now = comm.now();
        // Newest epochs sit at the end, and that is where a rank works.
        let mine = &mut cx.res.svc_epochs;
        let i = mine.iter().rposition(|s| s.0 == node.epoch).unwrap_or_else(|| {
            mine.push((node.epoch, 0, 0));
            mine.len() - 1
        });
        mine[i].1 += 1;
        mine[i].2 = now;
        if cx.recovery.active {
            cx.res.explored_epoch.push(node.epoch);
            cx.res.explored_ns.push(now);
        }
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
    /// Instant the request's tree had been executed in full: the last
    /// expansion on any rank (under a crash plan, the latest *first*
    /// execution of a distinct node — duplicates may run later). Asserted
    /// `< completed_ns` on every run.
    pub last_node_ns: u64,
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
    // The touch boards sit above everything a batch run allocates, so every
    // batch layout stays as it is.
    let mut space = vars::space_config_for(gen, nthreads);
    let board = Board { n: nthreads, base: space.scalars };
    space.scalars += board.cells();
    let cluster: SimCluster<Stamped<G::Task>> = SimCluster::new(machine, nthreads, space)
        .with_lookahead(cfg.sim_lookahead)
        .with_faults(cfg.faults);
    let report = cluster.run(|comm| {
        let n = comm.n_threads();
        let td = EpochTerm {
            gen,
            pump: (comm.my_id() == 0).then(|| SvcPump::new(schedule, n)),
            scanner: Scanner::new(board),
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

    // Per-epoch explored-node counts across ranks, and the instant each
    // epoch's tree had been executed in full: every node runs exactly once
    // without a crash class, so that is the last expansion anywhere.
    let mut epoch_nodes = vec![0u64; n_requests];
    let mut last_node_ns = vec![0u64; n_requests];
    for &(e, nodes, at) in per_thread.iter().flat_map(|t| &t.svc_epochs) {
        epoch_nodes[e as usize] += nodes;
        last_node_ns[e as usize] = last_node_ns[e as usize].max(at);
    }

    // Conservation per epoch, against a sequential re-expansion of each
    // request tree.
    let mut dup_per_epoch = vec![0u64; n_requests];
    let mut max_multiplicity = 1u64;
    if crash {
        // Per epoch and fingerprint: (executions, earliest execution).
        let mut mult_by_epoch: Vec<HashMap<u64, (u64, u64)>> =
            (0..n_requests).map(|_| HashMap::new()).collect();
        for t in per_thread {
            assert_eq!(t.explored.len(), t.explored_epoch.len());
            assert_eq!(t.explored.len(), t.explored_ns.len());
            for ((fp, &e), &at) in t.explored.iter().zip(&t.explored_epoch).zip(&t.explored_ns) {
                let m = mult_by_epoch[e as usize].entry(*fp).or_insert((0, at));
                m.0 += 1;
                m.1 = m.1.min(at);
            }
        }
        for e in 0..n_requests {
            let mut fps = Vec::new();
            let seq = seq_count(gen, gen.request_root(e as u32), Some(&mut fps));
            let mult = &mult_by_epoch[e];
            let dup: u64 = mult.values().map(|m| m.0 - 1).sum();
            dup_per_epoch[e] = dup;
            max_multiplicity = max_multiplicity.max(mult.values().map(|m| m.0).max().unwrap_or(1));
            // A fenced zombie may re-run a node after the declaration, so
            // the tree counts as executed once every distinct node has run.
            last_node_ns[e] = mult.values().map(|m| m.1).max().unwrap_or(0);
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
        // The safety half of quiescence detection (conservation above only
        // counts, after the run): no declaration over unexecuted work.
        assert!(
            completed_ns > last_node_ns[i],
            "epoch {i} was declared quiescent at {completed_ns} ns, before its \
             tree had been executed ({} ns)",
            last_node_ns[i]
        );
        let latency_ns = completed_ns.saturating_sub(scheduled_ns);
        hist.record(latency_ns);
        per_request.push(RequestStat {
            epoch: e,
            scheduled_ns,
            injected_ns,
            last_node_ns: last_node_ns[i],
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
        let lim = 1i64 << (DEFICIT_BITS - 1);
        for wc in [0u32, 1, 7, WCOUNT_MASK, WCOUNT_MASK + 3] {
            for d in [0i64, 1, -1, 12345, -9876, lim - 1, -lim] {
                assert_eq!(unpack_deficit(pack(wc, d)), d, "wc={wc} d={d}");
            }
        }
        // The write count wraps at 24 bits without touching the deficit.
        assert_eq!(pack(WCOUNT_MASK + 1, 5), pack(0, 5));
        assert_ne!(pack(1, 5), pack(2, 5));
        assert_ne!(pack(1, -5), pack(2, -5));
    }

    #[test]
    fn board_words_hold_63_ranks_each() {
        let words = |n| Board { n, base: 0 }.words();
        assert_eq!([1, 63, 64, 126, 127, 256].map(words), [1, 1, 2, 2, 3, 5]);
        assert_eq!(Board::bit(62), (0, 1 << 62));
        assert_eq!(Board::bit(63), (1, 1));
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
    ///
    /// Recorded mutant (ROADMAP item 11; break by hand, run this test,
    /// restore): *under-registration* — drop the touch-board
    /// `comm.add(home, cell, bit)` in [`SvcAccount::bump`]. The scan never
    /// reads an unregistered rank's cell, so an epoch whose work crossed
    /// ranks never sums to zero and the run livelocks. Fuel ends it on the
    /// first bundle (`upc-sharedmem`) in about 3 s of debug wall time:
    /// "out of fuel: thread 0 of 4 did no work from 914935 ns to 34360656265
    /// ns, after 14012679 operations".
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

    /// What a pass costs, by `CommStats::gets` net of the 16 assignment
    /// reads every due tick makes: the board words plus one cell per rank
    /// that touched the epoch — at p=64, 3 reads for a request nobody stole
    /// from and 4 with one thief, not 64.
    #[test]
    fn a_pass_reads_the_board_and_the_registered_cells_only() {
        const N: usize = 64;
        const SCANNER: usize = 5;
        for thieves in [0u64, 1] {
            let epoch = SCANNER as u32; // home = scanner = rank 5
            let mut space = vars::space_config();
            let board = Board { n: N, base: space.scalars };
            space.scalars += board.cells();
            let cluster: SimCluster<u64> = SimCluster::new(MachineModel::kittyhawk(), N, space);
            let report = cluster.run(|comm| {
                let mut acct = SvcAccount::inactive();
                acct.activate(comm.my_id(), board);
                match comm.my_id() {
                    // The injector: open, +1 for the root, assignment; then
                    // the root's own expansion.
                    0 => {
                        acct.open(comm, epoch);
                        acct.bump(comm, epoch, 1);
                        let w = vars::SVC_ASSIGN_BASE + epoch as usize % vars::SVC_WINDOW;
                        comm.put(SCANNER, w, epoch as i64 + 1);
                        acct.bump(comm, epoch, thieves as i64 - 1);
                        0
                    }
                    // A thief consuming the root's one child.
                    9 if thieves == 1 => {
                        comm.advance_idle(30_000);
                        acct.bump(comm, epoch, -1);
                        0
                    }
                    SCANNER => {
                        let cfg = RunConfig::new(Algorithm::DistMem, 1);
                        let mut cx = Cx::new(&cfg, comm.now());
                        let mut scanner = Scanner::new(board);
                        let mut ticks = 0;
                        while cx.res.svc_completions.is_empty() {
                            scanner.tick(comm, &mut cx);
                            ticks += 1;
                            comm.advance_idle(SVC_SCAN_INTERVAL_NS);
                        }
                        assert_eq!(cx.res.svc_completions[0].0, epoch);
                        comm.stats().gets - ticks * vars::SVC_WINDOW as u64
                    }
                    _ => 0,
                }
            });
            // Tick 1 finds no assignment; ticks 2 and 3 are the two passes.
            let per_pass = board.words() as u64 + 1 + thieves;
            assert_eq!(report.results[SCANNER], 2 * per_pass, "{thieves} thieves");
        }
    }
}
