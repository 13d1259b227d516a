//! The [`Comm`] trait: the UPC-flavoured operation set shared by both
//! backends.
//!
//! Every UPC thread owns a *partition* of the global space holding:
//!
//! - `i64` **scalar cells** (UPC shared scalars with affinity to the thread),
//! - **locks** (`upc_lock_t` allocated with affinity to the thread),
//! - an **item area**: a growable array of `T` supporting bulk one-sided
//!   transfers (`upc_memget`/`upc_memput`) — this is where the shared region
//!   of each DFS stack lives,
//! - a **mailbox** of typed messages (for the MPI-style baseline).
//!
//! Handles are *per-thread* and methods take `&mut self`: a thread issues its
//! own operations sequentially, exactly like a UPC program. Remote progress
//! happens through the backend (real parallelism in `native`, virtual-time
//! scheduling in `sim`).

use crate::machine::MachineModel;
use crate::msg::Msg;
use crate::stats::CommStats;

/// Items that can live in the global space and in message payloads.
///
/// Blanket-implemented: 24-byte UTS nodes, integers, and any other small
/// `Copy` task descriptor qualify automatically.
pub trait Item: Copy + Send + Sync + Default + 'static {}
impl<X: Copy + Send + Sync + Default + 'static> Item for X {}

/// Cost/scheduling classification of a [`Comm`] operation.
///
/// Every operation the simulator conducts falls into one of these families;
/// the family determines which [`MachineModel`] constant prices it and lets
/// the conductor report *what kind* of traffic dominated a run (the
/// [`crate::stats::ConductorStats`] fast-path histogram). The dominant class
/// in the paper's workloads is `Poll`/`Scalar`: spin loops probing local
/// request/response cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// `poll()` progress hooks (`bupc_poll()`).
    Poll,
    /// Small one-sided scalar reads/writes, including area-length and
    /// area-truncate bookkeeping references.
    Scalar,
    /// Atomic read-modify-write (compare-and-swap, fetch-add).
    Atomic,
    /// Lock acquire/release traffic.
    Lock,
    /// Bulk one-sided area transfers (`upc_memget`/`upc_memput`).
    Bulk,
    /// Message sends, mailbox probes, and receives.
    Message,
}

impl OpClass {
    /// Number of distinct classes (array-index bound for histograms).
    pub const COUNT: usize = 6;

    /// All classes, in histogram index order.
    pub fn all() -> [OpClass; OpClass::COUNT] {
        [
            OpClass::Poll,
            OpClass::Scalar,
            OpClass::Atomic,
            OpClass::Lock,
            OpClass::Bulk,
            OpClass::Message,
        ]
    }

    /// Stable histogram index of this class.
    pub fn index(self) -> usize {
        match self {
            OpClass::Poll => 0,
            OpClass::Scalar => 1,
            OpClass::Atomic => 2,
            OpClass::Lock => 3,
            OpClass::Bulk => 4,
            OpClass::Message => 5,
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Poll => "poll",
            OpClass::Scalar => "scalar",
            OpClass::Atomic => "atomic",
            OpClass::Lock => "lock",
            OpClass::Bulk => "bulk",
            OpClass::Message => "message",
        }
    }
}

/// One probe of a mail-waiting loop's pass (see [`Comm::idle_for_mail`]): an
/// operation on the caller's own mailbox, restricted to one tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MailProbe {
    /// `try_recv(Some(tag))`.
    TryRecv(i64),
    /// `has_msg(Some(tag))`.
    HasMsg(i64),
}

impl MailProbe {
    /// The tag this probe looks for.
    pub fn tag(self) -> i64 {
        match self {
            MailProbe::TryRecv(tag) | MailProbe::HasMsg(tag) => tag,
        }
    }
}

/// What a [`Comm::probe_cycle`] issued and saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cycle {
    /// Reads issued, from the cycle's `start` on.
    pub reads: usize,
    /// Whether a victim read returned 0.
    pub saw_zero: bool,
    /// The read the cycle stopped at, numbered like `start`, and its value;
    /// `None` when every read through the last was issued.
    pub stop: Option<(usize, i64)>,
}

/// Read `r` of a probe cycle (numbered as [`Comm::probe_cycle`] says): the
/// cell it reads and whether it is the issuer's own one.
pub(crate) fn cycle_cell(
    victims: &[u32],
    var: usize,
    own: Option<(usize, i64)>,
    me: usize,
    r: usize,
) -> (usize, usize, bool) {
    match own {
        Some((own_var, _)) if r % 2 == 1 => (me, own_var, true),
        Some(_) => (victims[r / 2] as usize, var, false),
        None => (victims[r] as usize, var, false),
    }
}

/// The loop of [`Comm::get`] that [`Comm::probe_cycle`] is: its default, and
/// what the simulator falls back on.
pub(crate) fn probe_loop<T: Item, C: Comm<T> + ?Sized>(
    comm: &mut C,
    victims: &[u32],
    start: usize,
    var: usize,
    own: Option<(usize, i64)>,
) -> Cycle {
    let me = comm.my_id();
    let reads = victims.len() << usize::from(own.is_some());
    let mut cycle = Cycle::default();
    for r in start..reads {
        let (thread, cell, is_own) = cycle_cell(victims, var, own, me, r);
        let value = comm.get(thread, cell);
        cycle.reads += 1;
        let stops = match own {
            Some((_, quiet)) if is_own => value != quiet,
            _ => {
                cycle.saw_zero |= value == 0;
                value > 0
            }
        };
        if stops {
            cycle.stop = Some((r, value));
            break;
        }
    }
    cycle
}

/// Shape of each thread's partition of the global space.
#[derive(Clone, Copy, Debug)]
pub struct SpaceConfig {
    /// Scalar cells per thread.
    pub scalars: usize,
    /// Locks per thread.
    pub locks: usize,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            scalars: 24,
            locks: 4,
        }
    }
}

/// One thread's handle on the partitioned global address space.
pub trait Comm<T: Item>: Send {
    /// This thread's id (UPC `MYTHREAD`).
    fn my_id(&self) -> usize;
    /// Total number of threads (UPC `THREADS`).
    fn n_threads(&self) -> usize;
    /// The platform cost model.
    fn machine(&self) -> &MachineModel;
    /// Current time in nanoseconds: virtual on the simulator, wall-clock on
    /// the native backend.
    fn now(&self) -> u64;

    /// Charge `units` node-explorations of useful work. On the simulator
    /// this advances this thread's virtual clock by `units * node_ns`;
    /// on the native backend the real work was already done by the caller
    /// and only the accounting is updated.
    fn work(&mut self, units: u64);

    /// Progress hook (`bupc_poll()`): cheap; lets the simulator interleave
    /// other threads and the native backend issue a spin-loop hint.
    fn poll(&mut self);

    /// Charge `ns` of idle/backoff time (spin-wait throttling). On the
    /// simulator this advances the virtual clock without a memory effect; on
    /// the native backend it is a spin hint. Unlike [`Comm::work`] the time
    /// is accounted as overhead, not useful work.
    fn advance_idle(&mut self, ns: u64);

    /// One-sided read of a scalar cell.
    fn get(&mut self, thread: usize, var: usize) -> i64;
    /// One-sided write of a scalar cell.
    fn put(&mut self, thread: usize, var: usize, val: i64);
    /// Atomic compare-and-swap on a scalar cell; returns the value observed
    /// (equal to `expected` iff the swap happened).
    fn cas(&mut self, thread: usize, var: usize, expected: i64, new: i64) -> i64;
    /// Atomic fetch-add on a scalar cell; returns the previous value.
    fn add(&mut self, thread: usize, var: usize, delta: i64) -> i64;
    /// Split-phase fetch-add of `delta` on every `(thread, var)` cell of
    /// `cells`: all members are issued before the caller waits for any, and
    /// the call returns once the last has completed, having appended each
    /// member's previous value to `prev` in the order of `cells`. Every member
    /// is an atomic [`Comm::add`] of its own — nothing is atomic about the
    /// batch — so whatever holds for `cells.len()` separate adds by one
    /// thread, except their order among themselves, holds for the batch.
    ///
    /// The default is the loop of [`Comm::add`], which is what the native
    /// backend keeps: its adds are host instructions and there is no latency
    /// to overlap. The simulator prices the overlap from constants the
    /// [`MachineModel`] already has. With `t0` the caller's clock, member `i`
    /// is *issued* at `t0 + Σ_{j<i} min(msg_overhead_ns, cost_j)` — the
    /// model's one sender-side software overhead
    /// ([`MachineModel::msg_overhead_ns`]), capped by what the member would
    /// have cost as a blocking `add` (`cost_j` =
    /// [`MachineModel::atomic_cost`]) — and *lands* `cost_i` later. Members
    /// commit in landing order, ties in issue order, and the caller resumes at
    /// the last landing. A batch of one therefore **is** `add`, and under a
    /// model whose overhead is not below its atomic costs a batch is the loop,
    /// bit for bit.
    fn add_many(&mut self, cells: &[(usize, usize)], delta: i64, prev: &mut Vec<i64>) {
        for &(thread, var) in cells {
            prev.push(self.add(thread, var, delta));
        }
    }

    /// Attempt to acquire a lock; `false` if already held.
    fn try_lock(&mut self, thread: usize, lock: usize) -> bool;
    /// Acquire a lock, waiting (and paying retry costs) until available.
    fn lock(&mut self, thread: usize, lock: usize) {
        while !self.try_lock(thread, lock) {
            self.poll();
        }
    }
    /// Release a lock. Panics if the lock is not held (algorithm bug).
    fn unlock(&mut self, thread: usize, lock: usize);

    /// Current length of `thread`'s item area.
    fn area_len(&mut self, thread: usize) -> usize;
    /// Bulk one-sided read: append `len` items starting at `offset` of
    /// `thread`'s area onto `dst`. Panics if out of range.
    fn area_read(&mut self, thread: usize, offset: usize, len: usize, dst: &mut Vec<T>);
    /// Bulk one-sided write of `src` into `thread`'s area at `offset`,
    /// growing the area (default-filled) as needed.
    fn area_write(&mut self, thread: usize, offset: usize, src: &[T]);
    /// Shrink own/remote area to `len` items (used to reclaim dead space
    /// below a steal frontier). Panics if `len` exceeds the current length.
    fn area_truncate(&mut self, thread: usize, len: usize);

    /// Send a message to `dst`'s mailbox (non-blocking, buffered).
    ///
    /// Delivery is **at-most-twice, possibly never** under a
    /// [`crate::FaultPlan`] with crash faults active: the simulator hashes
    /// a [`crate::fault::MsgFate`] per send, silently dropping or
    /// double-delivering it (the sender is charged either way). Protocols
    /// that must survive such plans carry their own acknowledgement and
    /// re-send layer — see the lineage tracking in `crates/core`. With no
    /// crash classes active, delivery is exactly-once and in order.
    fn send(&mut self, dst: usize, tag: i64, meta: [i64; 4], payload: &[T]);
    /// Does a delivered message (optionally restricted to `tag`) await us?
    /// (MPI `Iprobe`.)
    fn has_msg(&mut self, tag: Option<i64>) -> bool;
    /// Receive the earliest delivered message (optionally restricted to
    /// `tag`), if any.
    fn try_recv(&mut self, tag: Option<i64>) -> Option<Msg<T>>;

    /// Idle `idle_ns` between two passes of a loop that waits for mail.
    ///
    /// The caller has just run one pass whose only operations were `pass`,
    /// in order — probes of its own mailbox, one tag each — and every one of
    /// them found nothing. An implementation may then skip any number of
    /// further whole passes that would also find nothing, charging each
    /// exactly what the loop would: the clock, [`CommStats::comm_ns`], and a
    /// `gets` for every [`MailProbe::HasMsg`]. The caller resumes before the
    /// first pass that could find something and runs that pass itself.
    ///
    /// The default is [`Comm::advance_idle`]; the simulator's fast conductor
    /// skips (`docs/conductor.md` §3.3).
    fn idle_for_mail(&mut self, pass: &[MailProbe], idle_ns: u64) {
        let _ = pass;
        self.advance_idle(idle_ns);
    }

    /// A searching thief's probe cycle (§3.1, §3.3.1): read cell `var` of
    /// each of `victims` in turn and, when `own = Some((own_var, quiet))`,
    /// the caller's own cell `own_var` after each. Read `2i` is then victim
    /// `i`'s and read `2i + 1` the own read after it; without `own`, read `i`
    /// is victim `i`'s. The cycle issues the reads from `start` on and stops
    /// at the first victim value above 0 or the first own value other than
    /// `quiet`, so that a caller acts on that read and resumes at the one
    /// after it.
    ///
    /// The default is the loop of [`Comm::get`], bit for bit. The simulator's
    /// fast conductor applies a parked read of the cycle, and those after it
    /// that its windows admit, without resuming the caller
    /// (`docs/conductor.md` §3.4); its schedule is the loop's.
    fn probe_cycle(
        &mut self,
        victims: &[u32],
        start: usize,
        var: usize,
        own: Option<(usize, i64)>,
    ) -> Cycle {
        probe_loop(self, victims, start, var, own)
    }

    /// Counters accumulated by this handle.
    fn stats(&self) -> &CommStats;
}
