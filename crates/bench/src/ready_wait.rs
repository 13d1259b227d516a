//! The ready-wait probe (EXPERIMENTS.md E18): how long a DAG task waits
//! between becoming ready and starting, how many ready tasks wait while how
//! many ranks run one, and what the chain of tasks that ends the run spent
//! its time on.
//!
//! [`ReadyWait`] wraps any [`TaskGen`] and notes the clock on either side of
//! every [`TaskGen::expand_in`]: before it, each task of the batch has
//! started; after it, every task of the batch has ended and the tasks it
//! emitted are ready. It reads the clock and issues no [`Comm`] operation,
//! so a wrapped run is the run it measures, bit for bit (the test below).
//! Tasks are matched by [`TaskGen::fingerprint`], so the workload's must be
//! injective — a DAG's is — and the run fault-free.

use std::collections::HashMap;
use std::sync::Mutex;

use pgas::Comm;
use worksteal::TaskGen;

/// One call of the expansion hook as the probe saw it: a batch of tasks
/// that started and ended together on one rank.
struct Expansion {
    rank: usize,
    start_ns: u64,
    end_ns: u64,
    /// Fingerprints of the batch's tasks, each with its home rank when the
    /// workload places them ([`TaskGen::PLACED`]).
    tasks: Vec<(u64, Option<usize>)>,
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
    /// Ranks inside an expansion, averaged over the makespan.
    pub busy: f64,
    /// Mean tasks per expansion.
    pub batch: f64,
    /// The chain of tasks that ends the run.
    pub path: CriticalPath,
}

/// How a task on the critical path got from the rank that made it ready to
/// the rank that ran it, judged by where it ran.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hops {
    /// Hops of this kind.
    pub n: u64,
    /// Their ready-to-start waits, ns.
    pub wait_ns: u64,
}

/// The critical path of a run: walked back from the expansion that ends
/// last, each step to the expansion that made ready the task of the current
/// batch that became ready last, until the root. Its terms sum to the
/// makespan: `head_ns + exec_ns + busy_wait_ns + idle_wait_ns + tail_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Ready-to-start edges on the path (expansions on it, less one).
    pub hops: u64,
    /// Before the root's expansion started, ns.
    pub head_ns: u64,
    /// Inside the path's expansions, ns.
    pub exec_ns: u64,
    /// Waiting while the rank that ran the task was inside other
    /// expansions, ns.
    pub busy_wait_ns: u64,
    /// Waiting while it was not (moving, stealing, polling, idle), ns.
    pub idle_wait_ns: u64,
    /// After the last expansion ended (termination detection), ns.
    pub tail_ns: u64,
    /// Run by the rank that made it ready.
    pub kept: Hops,
    /// Run by its home rank, another than the one that made it ready.
    pub handed_off: Hops,
    /// Run by a rank that neither made it ready nor is its home.
    pub stolen: Hops,
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
        // Task → the expansion that made it ready.
        let readied: HashMap<u64, usize> = log
            .iter()
            .enumerate()
            .flat_map(|(i, e)| e.ready.iter().map(move |&t| (t, i)))
            .collect();
        let (mut tasks, mut moved, mut wait, mut moved_wait, mut busy, mut ran) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for e in &log {
            busy += e.end_ns - e.start_ns;
            ran += e.tasks.len() as u64;
            for &(t, _) in &e.tasks {
                let Some(&by) = readied.get(&t) else {
                    continue; // a root
                };
                let w = e.start_ns - log[by].end_ns;
                tasks += 1;
                wait += w;
                if log[by].rank != e.rank {
                    moved += 1;
                    moved_wait += w;
                }
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
            batch: per(ran, log.len() as u64),
            path: critical_path(&log, &readied, makespan_ns),
        }
    }
}

/// The walk of [`CriticalPath`] over one run's record.
fn critical_path(log: &[Expansion], readied: &HashMap<u64, usize>, makespan_ns: u64) -> CriticalPath {
    let mut path = CriticalPath::default();
    let Some(mut cur) = (0..log.len()).max_by_key(|&i| (log[i].end_ns, i)) else {
        return path;
    };
    path.tail_ns = makespan_ns - log[cur].end_ns;
    // Each rank's expansions, for the busy share of a wait.
    let mut by_rank: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for e in log {
        by_rank.entry(e.rank).or_default().push((e.start_ns, e.end_ns));
    }
    loop {
        let e = &log[cur];
        path.exec_ns += e.end_ns - e.start_ns;
        // The member that became ready last held the batch back.
        let last = e
            .tasks
            .iter()
            .filter_map(|&(t, home)| readied.get(&t).map(|&by| (log[by].end_ns, by, home)))
            .max_by_key(|&(ready_ns, by, _)| (ready_ns, by));
        let Some((ready_ns, by, home)) = last else {
            path.head_ns = e.start_ns;
            return path;
        };
        let wait = e.start_ns - ready_ns;
        let busy: u64 = by_rank[&e.rank]
            .iter()
            .map(|&(s, t)| t.min(e.start_ns).saturating_sub(s.max(ready_ns)))
            .sum();
        path.hops += 1;
        path.busy_wait_ns += busy;
        path.idle_wait_ns += wait
            .checked_sub(busy)
            .expect("one rank's expansions do not overlap");
        let kind = if log[by].rank == e.rank {
            &mut path.kept
        } else if home == Some(e.rank) {
            &mut path.handed_off
        } else {
            &mut path.stolen
        };
        kind.n += 1;
        kind.wait_ns += wait;
        cur = by;
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
        tasks: &[G::Task],
        out: &mut Vec<G::Task>,
    ) -> u32 {
        let (before, start_ns) = (out.len(), comm.now());
        let n = self.inner.expand_in(comm, tasks, out);
        let home = |t: &G::Task| G::PLACED.then(|| self.inner.home(t, comm.n_threads()));
        let e = Expansion {
            rank: comm.my_id(),
            start_ns,
            end_ns: comm.now(),
            tasks: tasks
                .iter()
                .map(|t| (self.inner.fingerprint(t), home(t)))
                .collect(),
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

    /// The walk is a chain from the root to the last expansion (a batch may
    /// hold tasks of two layers, so it can have more hops than the DAG has
    /// layers), each hop of one kind, and its terms add up to the makespan
    /// exactly.
    #[test]
    fn critical_path_terms_sum_to_the_makespan() {
        let probe = ReadyWait::new(DagWorkload::new(RandomLayered::new(6, 32, 150, 4)));
        for alg in [Algorithm::SharedMem, Algorithm::DistMem, Algorithm::MpiWs] {
            let report = run_sim(MachineModel::kittyhawk(), 8, &probe, &RunConfig::new(alg, 1));
            let c = probe.waits(report.makespan_ns).path;
            assert!(c.hops > 0, "{}: {c:?}", alg.label());
            assert_eq!(c.kept.n + c.handed_off.n + c.stolen.n, c.hops, "{}", alg.label());
            assert_eq!(
                c.head_ns + c.exec_ns + c.busy_wait_ns + c.idle_wait_ns + c.tail_ns,
                report.makespan_ns,
                "{}: {c:?}",
                alg.label()
            );
            assert_eq!(
                c.busy_wait_ns + c.idle_wait_ns,
                c.kept.wait_ns + c.handed_off.wait_ns + c.stolen.wait_ns,
                "{}",
                alg.label()
            );
        }
    }
}
