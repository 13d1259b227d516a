//! The OS-thread substrate: one OS thread per simulated thread, parked on its
//! own [`Condvar`]; every handoff publishes the thread's clock under a global
//! [`Mutex`] and signals the next baton holder — a kernel round trip per
//! operation.
//!
//! It runs either policy (`SimComm::op` decides; the windows are substrate
//! independent). Compiled only where fibers are not (`build.rs` holds the
//! rule), where it is the one substrate, and in this crate's unit tests,
//! which hold both policies on it against both policies on fibers
//! (`reach_tests::random_programs_agree`).

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};

use super::{Backend, Mem, SimCluster, SimComm, SimReport, SIM_STACK_SIZE};
use crate::comm::Item;
use crate::fault::FaultPlan;
use crate::machine::MachineModel;
use crate::stats::{CommStats, ConductorStats};

/// Scheduling state of the OS-thread conductor (guarded by the mutex).
struct Inner {
    /// Last clock each thread *published* (at registration, slow-path ops,
    /// and retirement). May lag the thread's private clock while it runs on
    /// the fast path; authoritative again once the thread parks or retires.
    clocks: Vec<u64>,
    /// Threads waiting for the baton, keyed by (virtual clock, tid).
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Thread currently holding the baton (executing), if any.
    chosen: Option<usize>,
    /// Threads registered so far (scheduling starts when all have).
    started: usize,
    /// Threads that have retired.
    retired: usize,
    /// Stats deposited by retired threads.
    final_stats: Vec<Option<CommStats>>,
    /// Conductor stats deposited by retired threads.
    final_conductor: Vec<Option<ConductorStats>>,
}

/// Shared state of the OS-thread conductor.
pub(super) struct Shared<T> {
    mx: Mutex<Inner>,
    cvs: Vec<Condvar>,
    pub(super) mem: UnsafeCell<Mem<T>>,
    nthreads: usize,
    pub(super) machine: MachineModel,
    lookahead: bool,
    faults: FaultPlan,
}

// SAFETY: `mem` is only accessed by the baton holder. The conductor admits
// exactly one holder at a time (every other thread is parked on its condvar
// inside `op()`/`register()`), and baton transfer happens through `mx`, whose
// lock/unlock establishes happens-before between consecutive holders'
// accesses. All other fields are `Sync` on their own.
unsafe impl<T: Item> Sync for Shared<T> {}

impl<T: Item> SimCluster<T> {
    /// One OS thread per simulated thread, condvar handoffs.
    pub(super) fn run_threads<R, F>(self, f: &F) -> SimReport<R>
    where
        R: Send,
        F: Fn(&mut SimComm<T>) -> R + Sync,
    {
        let n = self.nthreads;
        let shared = Arc::new(Shared {
            mx: Mutex::new(Inner {
                clocks: vec![0; n],
                queue: BinaryHeap::with_capacity(n),
                chosen: None,
                started: 0,
                retired: 0,
                final_stats: vec![None; n],
                final_conductor: vec![None; n],
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            mem: UnsafeCell::new(Mem::new(n, &self.cfg)),
            nthreads: n,
            machine: self.machine,
            lookahead: self.lookahead,
            faults: self.faults,
        });

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let panic = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (tid, slot) in results.iter_mut().enumerate() {
                let shared = Arc::clone(&shared);
                let builder = std::thread::Builder::new()
                    .stack_size(SIM_STACK_SIZE)
                    .name(format!("sim-{tid}"));
                handles.push(
                    builder
                        .spawn_scoped(scope, move || {
                            let mut comm = SimComm::new_threaded(Arc::clone(&shared), tid);
                            comm.register(&shared);
                            // Hand the baton onward even if the worker
                            // panics, so the other simulated threads are not
                            // left parked forever.
                            let res = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| f(&mut comm)),
                            );
                            comm.retire(&shared);
                            match res {
                                Ok(r) => *slot = Some(r),
                                Err(p) => std::panic::resume_unwind(p),
                            }
                        })
                        .expect("spawn simulated thread"),
                );
            }
            // Join all; re-raise the lowest thread's panic, as fibers do.
            handles
                .into_iter()
                .fold(None, |first, h| first.or(h.join().err()))
        });
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }

        let inner = shared.mx.lock().unwrap();
        // SAFETY: every simulated thread has been joined; this is the only
        // live access to the memory image.
        let mem = unsafe { &*shared.mem.get() };
        let makespan_ns = inner.clocks.iter().copied().max().unwrap_or(0);
        SimReport {
            results: results.into_iter().map(|r| r.expect("thread result")).collect(),
            makespan_ns,
            clocks: inner.clocks.clone(),
            stats: inner
                .final_stats
                .iter()
                .map(|s| s.clone().expect("retired stats"))
                .collect(),
            conductor: inner
                .final_conductor
                .iter()
                .map(|s| s.clone().expect("retired conductor stats"))
                .collect(),
            scalars: mem.scalars.clone(),
        }
    }
}

impl<T: Item> Shared<T> {
    /// Queue `(t, tid)`, hand the baton to the queue minimum and wait until
    /// it comes back; returns the queue minimum left at that moment.
    pub(super) fn park(&self, tid: usize, t: u64) -> Option<(u64, usize)> {
        let mut g = self.mx.lock().unwrap();
        g.clocks[tid] = t;
        g.queue.push(Reverse((t, tid)));
        SimComm::<T>::dispatch(&mut g, &self.cvs);
        while g.chosen != Some(tid) {
            g = self.cvs[tid].wait(g).unwrap();
        }
        g.queue.peek().map(|r| r.0)
    }
}

impl<T: Item> SimComm<T> {
    fn new_threaded(shared: Arc<Shared<T>>, tid: usize) -> Self {
        let nthreads = shared.nthreads;
        let lookahead = shared.lookahead;
        let faults = shared.faults;
        let reach_ns = shared.machine.min_foreign_cost();
        SimComm {
            backend: Backend::Threads(shared),
            tid,
            nthreads,
            lookahead,
            reach_ns,
            faults,
            local_clock: 0,
            pending_work: 0,
            worked_until: 0,
            next_min: None,
            stats: CommStats::default(),
            conductor: ConductorStats::default(),
        }
    }

    /// Hand the baton to the thread with the smallest virtual clock.
    fn dispatch(inner: &mut Inner, cvs: &[Condvar]) {
        if let Some(Reverse((_, tid))) = inner.queue.pop() {
            inner.chosen = Some(tid);
            cvs[tid].notify_one();
        } else {
            inner.chosen = None;
        }
    }

    /// Enter the scheduled pool and wait for the first baton (fibers are
    /// pre-queued by the host instead).
    fn register(&mut self, shared: &Shared<T>) {
        let mut g = shared.mx.lock().unwrap();
        g.queue.push(Reverse((0, self.tid)));
        g.started += 1;
        if g.started == self.nthreads {
            Self::dispatch(&mut g, &shared.cvs);
        }
        while g.chosen != Some(self.tid) {
            g = shared.cvs[self.tid].wait(g).unwrap();
        }
        self.next_min = g.queue.peek().map(|r| r.0);
    }

    /// Leave the pool for good, folding in trailing work and publishing the
    /// final clock (fibers retire in `fiber_entry`).
    fn retire(&mut self, shared: &Shared<T>) {
        self.local_clock += self.pending_work;
        self.pending_work = 0;
        let mut g = shared.mx.lock().unwrap();
        g.clocks[self.tid] = self.local_clock;
        g.retired += 1;
        g.final_stats[self.tid] = Some(self.stats.clone());
        g.final_conductor[self.tid] = Some(self.conductor.clone());
        Self::dispatch(&mut g, &shared.cvs);
    }
}
