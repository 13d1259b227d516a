//! The ready-wait probe (EXPERIMENTS.md E18): how long a DAG task waits
//! between becoming ready and starting, and how many ready tasks wait while
//! how many ranks run one.
//!
//! [`ReadyWait`] wraps any [`TaskGen`] and notes the clock on either side of
//! every [`TaskGen::expand_in`]: before it, the task has started; after it,
//! the tasks it emitted are ready. It reads the clock and issues no [`Comm`]
//! operation, so a wrapped run is the run it measures, bit for bit (the test
//! below). Tasks are matched by [`TaskGen::fingerprint`], so the workload's
//! must be injective — a DAG's is — and the run fault-free.

use std::collections::HashMap;
use std::sync::Mutex;

use pgas::Comm;
use worksteal::TaskGen;

/// One expansion as the probe saw it.
struct Expansion {
    rank: usize,
    task: u64,
    start_ns: u64,
    end_ns: u64,
    /// Fingerprints of the tasks it made ready, ready at `end_ns`.
    ready: Vec<u64>,
}

/// What one run's tasks waited ([`ReadyWait::waits`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Waits {
    /// Tasks made ready by an expansion and started (every task but roots).
    pub tasks: u64,
    /// Mean ready-to-start wait, ns.
    pub mean_wait_ns: f64,
    /// Mean wait of the tasks a rank other than the one that made them
    /// ready ran, ns.
    pub mean_moved_wait_ns: f64,
    /// Tasks that moved: run by a rank other than the one that readied them.
    pub moved: u64,
    /// Ready tasks not yet started, averaged over the makespan.
    pub waiting: f64,
    /// Ranks inside a task's expansion, averaged over the makespan.
    pub busy: f64,
}

/// A [`TaskGen`] that records when each task became ready and started
/// (module docs). Every other item forwards to the wrapped workload.
pub struct ReadyWait<G> {
    inner: G,
    log: Mutex<Vec<Expansion>>,
}

impl<G: TaskGen> ReadyWait<G> {
    /// Wrap `inner`.
    pub fn new(inner: G) -> ReadyWait<G> {
        ReadyWait {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// The waits of the run just made (the record is emptied), over its
    /// makespan.
    pub fn waits(&self, makespan_ns: u64) -> Waits {
        let log = std::mem::take(&mut *self.log.lock().expect("probe log"));
        let readied: HashMap<u64, (u64, usize)> = log
            .iter()
            .flat_map(|e| e.ready.iter().map(move |&t| (t, (e.end_ns, e.rank))))
            .collect();
        let (mut tasks, mut moved, mut wait, mut moved_wait, mut busy) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for e in &log {
            busy += e.end_ns - e.start_ns;
            let Some(&(ready_ns, by)) = readied.get(&e.task) else {
                continue; // a root
            };
            let w = e.start_ns - ready_ns;
            tasks += 1;
            wait += w;
            if by != e.rank {
                moved += 1;
                moved_wait += w;
            }
        }
        let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
        Waits {
            tasks,
            mean_wait_ns: per(wait, tasks),
            mean_moved_wait_ns: per(moved_wait, moved),
            moved,
            waiting: per(wait, makespan_ns),
            busy: per(busy, makespan_ns),
        }
    }
}

impl<G: TaskGen> TaskGen for ReadyWait<G> {
    type Task = G::Task;
    const PLACED: bool = G::PLACED;

    fn root(&self) -> G::Task {
        self.inner.root()
    }

    fn expand(&self, task: &G::Task, out: &mut Vec<G::Task>) -> u32 {
        self.inner.expand(task, out)
    }

    fn expand_in<C: Comm<G::Task>>(
        &self,
        comm: &mut C,
        task: &G::Task,
        out: &mut Vec<G::Task>,
    ) -> u32 {
        let (before, start_ns) = (out.len(), comm.now());
        let n = self.inner.expand_in(comm, task, out);
        let e = Expansion {
            rank: comm.my_id(),
            task: self.inner.fingerprint(task),
            start_ns,
            end_ns: comm.now(),
            ready: out[before..]
                .iter()
                .map(|t| self.inner.fingerprint(t))
                .collect(),
        };
        self.log.lock().expect("probe log").push(e);
        n
    }

    fn home(&self, task: &G::Task, n_threads: usize) -> usize {
        self.inner.home(task, n_threads)
    }

    fn work_units(&self, task: &G::Task) -> u64 {
        self.inner.work_units(task)
    }

    fn extra_scalars(&self, n_threads: usize) -> usize {
        self.inner.extra_scalars(n_threads)
    }

    fn critical_path_len(&self) -> Option<u64> {
        self.inner.critical_path_len()
    }

    fn frontier_hint(&self) -> Option<u64> {
        self.inner.frontier_hint()
    }

    fn fingerprint(&self, task: &G::Task) -> u64 {
        self.inner.fingerprint(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::MachineModel;
    use worksteal::{run_sim, Algorithm, DagWorkload, RandomLayered, RunConfig};

    /// The probe observes without touching: a wrapped run has the same
    /// makespan, per-thread results and operation counts as the bare one,
    /// on a one-sided and a message bundle — and it saw every task.
    #[test]
    fn wrapped_run_is_the_same_run() {
        let dag = || DagWorkload::new(RandomLayered::new(6, 32, 150, 4));
        let (bare, probe) = (dag(), ReadyWait::new(dag()));
        for alg in [Algorithm::DistMem, Algorithm::MpiWs] {
            let cfg = RunConfig::new(alg, 1);
            let a = run_sim(MachineModel::kittyhawk(), 8, &bare, &cfg);
            let b = run_sim(MachineModel::kittyhawk(), 8, &probe, &cfg);
            assert_eq!(a.makespan_ns, b.makespan_ns, "{}", alg.label());
            assert_eq!(a.per_thread, b.per_thread, "{}", alg.label());
            let w = probe.waits(b.makespan_ns);
            assert_eq!(
                w.tasks,
                bare.n_tasks() - 1,
                "{}: every task but the root",
                alg.label()
            );
            assert!(
                w.moved > 0 && w.busy > 0.0 && w.waiting > 0.0,
                "{}: {w:?}",
                alg.label()
            );
        }
    }
}
