//! The policy-based scheduler core.
//!
//! The paper's refinement chain (§3.1 → §3.3.3) swaps two pieces of code —
//! the termination detector and the stack synchronisation discipline — and
//! turns two parameters — steal amount and victim order — so this module
//! factors the worker into two open axes (traits) and two closed ones (enums):
//!
//! | Axis | Type | Implementations |
//! |------|------|-----------------|
//! | transport | trait [`StealTransport`] | locked shared region, CAS request/response, mpisim messages, work pushing |
//! | termination | trait [`TerminationDetector`] | cancelable barrier, streamlined tri-state, counting token ring ([`termination`]); service mode's epoch detector |
//! | steal amount | enum [`StealPolicyKind`] | one, half, adaptive-by-depth ([`policy`]) |
//! | victim order | enum [`VictimPolicy`] | flat random, hierarchical same-node-first — two constructions of one [`ProbeOrder`] |
//!
//! [`drive`] is the single generic worker: the Figure-1 state machine,
//! per-state time accounting, trace emission, and the working loop
//! (pop/expand/push, periodic polling, release checks) live here **once**,
//! parameterized by the two traits — it is the only function that enters
//! [`State::Working`]. Each of the seven [`Algorithm`] variants is a named
//! policy bundle ([`bundle`]), resolved by [`bundle::run_bundle`] — and
//! because the axes are independent, non-paper combinations (hierarchical
//! victims on the locked transport, adaptive steal amounts on distmem) are
//! one-line configurations instead of new algorithm modules. Service mode
//! ([`crate::service`]) is a detector swap on the same driver.
//!
//! **The release rule.** A transport says *how* a chunk leaves the local
//! region ([`StealTransport::maybe_release`]); `drive` alone says when. It
//! is the paper's §3.1 rule: after every node, a rank whose local region
//! holds at least 2k moves one chunk of k to its shared region, and the
//! detector hears of it once ([`TerminationDetector::on_release`]). The
//! chunk size is the one the run was configured with. A placing rank
//! never releases (below).
//!
//! **Placement** ([`placement`]). A workload whose tasks have a home rank
//! ([`TaskGen::PLACED`]) sends each ready task to its owner; the emitter
//! keeps its own and, when it has nothing else, the task it would run next.
//! Such a rank never releases: its work is its own, so it is never
//! advertised to one-sided thieves (`mpi-ws` victims still answer requests
//! from the local region), and the release rule above does not apply. It
//! expands its whole local region as one batch ([`TaskGen::expand_in`]),
//! charges the batch's work once, places what it made ready and polls once —
//! so the dependency round trips of all its ready tasks overlap in one
//! publication instead of queueing task behind task.
//!
//! **Bit-identity contract**: for the seven seed bundles, the sequence of
//! [`Comm`] operations issued by `drive` is identical, call for call, to the
//! pre-refactor monolithic loops. On the virtual-time simulator every comm
//! op advances the clock, so this is checked end-to-end by regenerating the
//! committed result CSVs and, on every test run, by the exact numbers in
//! `tests/frozen_schedules.rs` — any stray operation shifts every
//! subsequent timestamp.
//!
//! [`Algorithm`]: crate::config::Algorithm

pub mod bundle;
pub mod placement;
pub mod policy;
pub mod termination;

use pgas::comm::Item;
use pgas::Comm;

use crate::config::RunConfig;
use crate::probe::ProbeOrder;
use crate::recovery::{Lineage, Recovery};
use crate::report::ThreadResult;
use crate::service::SvcAccount;
use crate::stack::DfsStack;
use crate::state::{State, StateClock};
use crate::taskgen::TaskGen;
use crate::trace::{Event, TraceLog};

pub use bundle::{run_bundle, BundleSpec, TerminationKind, TransportKind};
use placement::Placement;
pub use policy::{StealPolicyKind, VictimPolicy};
pub use termination::{CancelableTerm, RingTerm, StreamlinedTerm, TerminationDetector};
use termination::idle_discover;

/// Per-worker bookkeeping threaded through every policy hook: configuration,
/// result counters, the Figure-1 state clock, and the trace log.
///
/// Policies mutate `res` and `log` directly (they own their protocol
/// counters and trace events); state transitions go through [`Cx::enter`] so
/// the clock and the log always agree on the timestamp.
pub struct Cx<'a> {
    /// The run configuration (chunk size, poll interval, timeouts, ...).
    pub cfg: &'a RunConfig,
    /// Per-thread counters accumulated by the driver and the policies.
    pub res: ThreadResult,
    /// Per-state virtual-time accounting (paper §6.2).
    pub clock: StateClock,
    /// Event recorder (no-op unless [`RunConfig::trace`] is set).
    pub log: TraceLog,
    /// Crash-recovery state (inert unless the fault plan has a crash class;
    /// see [`crate::recovery`]).
    pub recovery: Recovery,
    /// Service-mode per-epoch accounting (inert outside
    /// [`crate::service::run_service_sim`]; see [`crate::service`]).
    pub svc: SvcAccount,
}

impl<'a> Cx<'a> {
    /// Fresh context starting in [`State::Working`] at time `now`, with
    /// inert crash recovery ([`drive`] arms it from the fault plan).
    pub fn new(cfg: &'a RunConfig, now: u64) -> Cx<'a> {
        Cx {
            cfg,
            res: ThreadResult::default(),
            clock: StateClock::new(now),
            log: TraceLog::new(cfg.trace),
            recovery: Recovery::inactive(),
            svc: SvcAccount::inactive(),
        }
    }

    /// Transition to `state`, stamping the clock and the trace log with a
    /// single `now()` read (one per transition, as the accounting requires).
    #[inline]
    pub fn enter<T: Item, C: Comm<T>>(&mut self, comm: &mut C, state: State) {
        let now = comm.now();
        self.clock.transition(state, now);
        self.log.emit(Event::Enter { t_ns: now, state });
    }

    /// Close the books: final state interval, comm statistics, trace events.
    pub(crate) fn into_result<T: Item, C: Comm<T>>(self, comm: &mut C) -> ThreadResult {
        let mut res = self.res;
        let (state_ns, transitions) = self.clock.finish(comm.now());
        res.state_ns = state_ns;
        res.transitions = transitions;
        res.comm = comm.stats().clone();
        res.events = self.log.into_events();
        res.evictions = self.recovery.evictions;
        res.rejoins = self.recovery.rejoins;
        res.fenced_drops = self.recovery.fenced_drops;
        res.svc_stale_bumps = self.svc.stale_bumps;
        res
    }
}

/// What the termination detector's work-discovery phase concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discovery {
    /// Work is in hand (stolen or received); resume the working loop.
    GotWork,
    /// Global termination was detected; the worker is done.
    Terminated,
    /// This rank's scheduled crash fired while it was searching: run the
    /// deathbed spill and exit (crash-fault runs only).
    Died,
}

/// Outcome of one steal attempt against one victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealOutcome {
    /// Chunks arrived on the local stack.
    Got,
    /// The victim denied (no surplus, lost race, or stale probe).
    Denied,
    /// A termination announcement raced the request (message transports):
    /// the victim has already exited and global quiescence is proven.
    TermRaced,
    /// The armed steal timeout expired and the request was retracted
    /// (`docs/faults.md`); back off and re-probe elsewhere.
    TimedOut,
}

/// What a thief's probe sweep issues between two victim probes: a
/// transport's [`StealTransport::idle_service`] as data, so that the sweep
/// can hand a whole probe cycle to [`Comm::probe_cycle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepService {
    /// No probing: thieves ask blindly (the message transports).
    Blind,
    /// Probes, and the idle service issues nothing (locked).
    Quiet,
    /// Probes, and the idle service reads own cell `var` and acts — by
    /// [`StealTransport::serve`] — only on a value other than `quiet`
    /// (distmem's request cell).
    Read {
        /// The own cell read after each probe.
        var: usize,
        /// The value on which the service issues nothing more.
        quiet: i64,
    },
    /// Probes, and the idle service is some other sequence, called after
    /// every probe (a placing workload's settling and absorbing hand-offs).
    Opaque,
}

impl SweepService {
    /// Whether thieves read a victim's work level before stealing.
    pub const fn probes(self) -> bool {
        !matches!(self, SweepService::Blind)
    }

    /// The own read of a [`Comm::probe_cycle`], if the service is one.
    pub const fn own(self) -> Option<(usize, i64)> {
        match self {
            SweepService::Read { var, quiet } => Some((var, quiet)),
            _ => None,
        }
    }
}

/// How a worker moves work and requests between threads — the
/// synchronisation discipline of the shared stack region, which is the §3.1
/// vs §3.2 vs §3.3.3 algorithmic difference.
///
/// Every method has a no-op default so each transport implements only the
/// hooks its protocol uses. The generic
/// driver and the [`TerminationDetector`]s call these hooks at exactly the
/// points the original monolithic loops performed the corresponding
/// operations, which is what makes policy composition preserve op sequences.
pub trait StealTransport<T: Item, C: Comm<T>> {
    /// Whether idle threads actively steal. `false` only for work *pushing*,
    /// where idle threads park in termination detection and wait for chunks
    /// to land in their mailbox.
    const STEALS: bool = true;
    /// Whether a thief reads the victim's advertised work level (its
    /// `WORK_AVAIL` cell, §3.3.1 tri-state: positive = stealable surplus, 0 =
    /// working without surplus, negative = out of work) before committing to
    /// a steal, and what the idle service between two such probes issues
    /// ([`SweepService`]). Probing is for the shared-region transports,
    /// which the barrier detectors need; the message transports' thieves can
    /// only ask.
    const SWEEP: SweepService = SweepService::Blind;
    /// Backoff charged between idle termination-protocol iterations
    /// (token-ring transports).
    const IDLE_BACKOFF_NS: u64 = 0;

    /// One-time protocol setup before the root task is pushed (e.g. arming
    /// the distmem request cell).
    fn init(&mut self, _comm: &mut C, _cx: &mut Cx) {}

    /// A two-sided transport's transfer ledger ([`Lineage`]): the counting
    /// token ring reads its sent/received counts, crash-mode termination
    /// waits for its open grants, and service mode arms it with the
    /// task→epoch extractor. `None` for the shared-region transports, which
    /// move items exactly once even across rank death and keep no
    /// per-transfer accounting ([`placement`] brings one of its own for a
    /// placing workload's hand-offs).
    fn ledger(&mut self) -> Option<&mut Lineage<T>> {
        None
    }

    /// The local region drained: try to move work back from the shared
    /// region. Returns `true` if the local region is nonempty again.
    fn refill(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) -> bool {
        false
    }

    /// Service now: answer the pending steal request, absorb the mailbox.
    /// *When* is [`drive`]'s decision, not the transport's — every
    /// `cfg.poll_interval` nodes of the working loop, and after any expansion
    /// that itself communicated.
    fn poll(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {}

    /// Release one chunk of surplus work if the local region is deep enough.
    /// Returns `true` if a release happened. How often it is asked, and what
    /// the termination detector hears of it, is [`drive`]'s release rule
    /// (module docs) — nothing else calls this.
    fn maybe_release(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) -> bool {
        false
    }

    /// The thread is entirely out of work: publish the tri-state marker,
    /// answer any straggler request, reclaim dead area space.
    fn on_out_of_work(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {}

    /// Execute one steal against `victim` (the victim advertised work or a
    /// request is warranted). Chunks land on `stack` on success.
    fn steal(
        &mut self,
        _comm: &mut C,
        _stack: &mut DfsStack<T>,
        _victim: usize,
        _cx: &mut Cx,
    ) -> StealOutcome {
        unimplemented!("this transport does not steal")
    }

    /// A steal returned [`StealOutcome::TimedOut`]: charge and escalate the
    /// thief-side backoff before re-probing.
    fn after_timeout(&mut self, _comm: &mut C, _cx: &mut Cx) {}

    /// Stay responsive while idle: deny or service steal requests that
    /// arrive while this thread is searching or parked in a barrier.
    fn idle_service(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {}

    /// Finish an idle service of [`SweepService::Read`] whose read of the
    /// own cell has already returned `value`, other than the quiet one:
    /// [`StealTransport::idle_service`] without its first read.
    fn serve(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx, _value: i64) {}

    /// Absorb work that arrived asynchronously (pushed chunks, late grants
    /// from timed-out victims). Returns `true` if work is now in hand.
    fn absorb_pending(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) -> bool {
        false
    }

    /// Work was just acquired through the termination detector's discovery
    /// phase: re-advertise as working (clear the out-of-work marker).
    fn got_work(&mut self, _comm: &mut C) {}

    /// This rank's scheduled crash arrived (crash-fault runs only): fold
    /// every node the protocol still holds responsibility for — shared-region
    /// chunks no thief has copied out, unacknowledged lineage grants — back
    /// into the local deque, and withdraw from any in-flight request, so the
    /// generic spill in [`drive`] publishes one complete snapshot. The same
    /// fold runs when a fenced rank re-enters via
    /// [`crate::recovery::Recovery::rejoin`].
    fn deathbed(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {}

    /// This rank just evicted `victim` by quorum (no deathbed): reclaim
    /// whatever shared-region work the transport can take over *race-free*.
    /// The locked transport empties the victim's advertised chunks under
    /// the victim's stack lock; transports whose owner-side bookkeeping a
    /// resuming zombie could silently race (distmem, the message
    /// transports) leave the work fenced with the zombie, which self-drains
    /// it after observing its eviction — multiplicity-safe either way
    /// (docs/faults.md §8). Scavenged items land on `stack`; returns their
    /// count.
    fn scavenge(
        &mut self,
        _comm: &mut C,
        _stack: &mut DfsStack<T>,
        _victim: usize,
        _cx: &mut Cx,
    ) -> u64 {
        0
    }

    /// Post-termination teardown (drain mailboxes, conservation asserts),
    /// before the state clock takes its final reading.
    fn finish(&mut self, _comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {}
}

/// The single generic worker driver: the paper's Figure-1 state machine
/// parameterized by transport and termination detector, given this rank's
/// victim order (the steal-amount policy lives inside the transport, where
/// grant sizing happens).
///
/// Custom harnesses can call this directly with hand-built policies; the
/// seven paper/extension algorithms go through [`bundle::run_bundle`], and
/// service mode through [`crate::service::run_service_sim`].
pub fn drive<G, C, ST, TD>(
    comm: &mut C,
    gen: &G,
    cfg: &RunConfig,
    transport: ST,
    mut td: TD,
    mut victims: ProbeOrder,
) -> ThreadResult
where
    G: TaskGen,
    C: Comm<G::Task>,
    ST: StealTransport<G::Task, C>,
    TD: TerminationDetector<G::Task, C>,
{
    let me = comm.my_id();
    let mut stack: DfsStack<G::Task> = DfsStack::new(cfg.chunk_size);
    let mut cx = Cx::new(cfg, comm.now());
    cx.recovery = Recovery::new(me, comm.n_threads(), &cfg.faults);
    let crash = cx.recovery.active;
    let mut transport = Placement::<ST, G>::new(transport);
    let (mut batch, mut scratch): (Vec<G::Task>, Vec<G::Task>) = (Vec::new(), Vec::new());

    let seed_root = td.start(comm, &mut transport, &mut cx);
    transport.init(comm, &mut cx);
    if seed_root && me == 0 {
        stack.push(gen.root());
    }

    'outer: loop {
        // ------------------------------------------------- Working (Fig. 1)
        cx.enter(comm, State::Working);
        // Hand-offs taken in while idle: this rank is marked working and out
        // of any barrier now, so their senders may let go of them.
        transport.acknowledge(comm);
        let mut since_poll = 0;
        let mut died = false;
        loop {
            if crash {
                if cx.recovery.kill_due(comm.now()) {
                    died = true;
                    break;
                }
                cx.recovery.heartbeat(comm);
                if cx.recovery.is_fenced() {
                    refence(comm, &mut stack, &mut transport, &mut cx);
                    continue 'outer;
                }
            }
            td.tick(comm, &mut stack, &mut cx);
            if stack.is_local_empty() {
                if transport.refill(comm, &mut stack, &mut cx) {
                    continue;
                }
                break; // truly out of local work
            }
            // A placing rank expands its whole local region as one batch:
            // its tasks are its own (placement), and their dependency round
            // trips overlap in one publication instead of queueing one task
            // behind the other. Every other rank expands one node.
            batch.clear();
            batch.push(stack.pop().expect("nonempty local region"));
            while G::PLACED && !stack.is_local_empty() {
                batch.extend(stack.pop());
            }
            cx.res.nodes += batch.len() as u64;
            if crash {
                cx.res.explored.extend(batch.iter().map(|t| gen.fingerprint(t)));
            }
            scratch.clear();
            // Workloads with shared readiness state (task DAGs) publish it
            // inside expand_in, before the produced tasks are pushed and
            // before they can migrate — tree workloads expand purely,
            // leaving the comm-op stream bit-identical. Publishing is seen
            // as an atomic issued: deciding which completion made a task
            // ready takes a read-modify-write, and one counter compare per
            // node is what a 100 ns native tree node can afford.
            let atomics_before = comm.stats().atomics;
            gen.expand_in(comm, &batch, &mut scratch);
            let communicated = comm.stats().atomics != atomics_before;
            td.on_expand(comm, &batch, scratch.len(), &mut cx);
            if G::PLACED {
                transport.place(comm, gen, &mut scratch, &mut cx);
            }
            stack.push_all(&scratch);
            comm.work(batch.iter().map(|t| gen.work_units(t)).sum());
            // §3.3.3: the owner looks at its own request cell between nodes
            // because that read is free next to the work it interleaves with
            // — every `poll_interval` nodes when a node is a few hundred
            // nanoseconds of hashing, after every node that waited on the
            // network itself.
            since_poll += 1;
            if since_poll >= cfg.poll_interval || communicated {
                since_poll = 0;
                transport.poll(comm, &mut stack, &mut cx);
            }
            if !G::PLACED {
                release_surplus(comm, &mut stack, &mut transport, &mut td, &mut cx);
            }
        }

        if !died {
            transport.on_out_of_work(comm, &mut stack, &mut cx);
            // --------------- Work Discovery / Stealing / Termination (Fig. 1)
            // Under a crash plan none of the paper's protocols can end the
            // search — a dead rank parks either barrier forever, and the
            // ring's transfer counts never balance under message loss or
            // duplication — so every detector falls back on the
            // recovery-aware idle loop.
            let found = if crash {
                idle_discover(comm, &mut stack, &mut transport, &mut victims, &mut cx, &mut td)
            } else {
                td.discover(comm, &mut stack, &mut transport, &mut victims, &mut cx)
            };
            match found {
                Discovery::GotWork => continue 'outer,
                Discovery::Terminated => break 'outer,
                Discovery::Died => {} // fall through to the deathbed
            }
        }

        // Deathbed: the transport folds every chunk it is still responsible
        // for into the local deque, then the spill publishes the snapshot
        // (coordinates first, DEAD flag last) for a survivor to adopt.
        transport.deathbed(comm, &mut stack, &mut cx);
        let spilled = cx.recovery.spill_and_die(comm, &mut stack);
        cx.res.died = true;
        cx.log.emit(Event::Death { t_ns: comm.now(), items: spilled });
        let Some(at) = cx.recovery.restart_at() else {
            return cx.into_result(comm);
        };
        // The plan revives this rank: sit out the restart delay, reclaim
        // our own spill if no survivor beat us to it, and rejoin as a new
        // incarnation.
        let now = comm.now();
        if at > now {
            comm.advance_idle(at - now);
        }
        let items = cx.recovery.restart(comm, &mut stack);
        cx.res.recovered_nodes += items;
        let incarnation = cx.recovery.incarnation();
        cx.log.emit(Event::Rejoin { t_ns: comm.now(), incarnation, items });
    }

    transport.finish(comm, &mut stack, &mut cx);
    cx.into_result(comm)
}

/// The release policy, written once: move one surplus chunk to the shared
/// region (the paper's §3.1 rule, asked once per node). The detector hears
/// of each release once: one [`TerminationDetector::on_release`] wakes every
/// waiter, and the releaser is outside the barrier.
fn release_surplus<T, C, ST, TD>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    transport: &mut ST,
    td: &mut TD,
    cx: &mut Cx,
) where
    T: Item,
    C: Comm<T>,
    ST: StealTransport<T, C>,
    TD: TerminationDetector<T, C>,
{
    if transport.maybe_release(comm, stack, cx) {
        td.on_release(comm);
    }
}

/// A rank observed its own eviction fence: fold everything the old
/// incarnation still holds (the transport deathbed hook covers shared
/// chunks and open lineage), then re-enter as a new incarnation. Shared by
/// [`drive`] and the recovery-aware idle loop.
pub(crate) fn refence<T, C, ST>(
    comm: &mut C,
    stack: &mut DfsStack<T>,
    transport: &mut ST,
    cx: &mut Cx,
) where
    T: Item,
    C: Comm<T>,
    ST: StealTransport<T, C>,
{
    transport.deathbed(comm, stack, cx);
    cx.recovery.rejoin(comm, !stack.is_local_empty());
    if !stack.is_local_empty() {
        transport.got_work(comm);
    }
    let incarnation = cx.recovery.incarnation();
    cx.log.emit(Event::Rejoin { t_ns: comm.now(), incarnation, items: 0 });
}
