//! Tree-based collective operations over [`Comm`].
//!
//! The UPC UTS implementation combines per-thread node counts with
//! `upc_all_reduce` once the search terminates. These collectives provide
//! the same facility over the substrate's one-sided operations, with the
//! usual O(log n) critical path: values combine up a binary tree rooted at
//! thread 0 and the result broadcasts back down the same tree.
//!
//! All operations are *generation-stamped*: a [`Collectives`] handle carries
//! a per-thread call counter, so the same cells can be reused across any
//! number of collective calls as long as every thread performs the same
//! sequence of calls (the standard SPMD contract).

use crate::comm::{Comm, Item};

/// Per-thread handle for collective operations.
///
/// Uses four consecutive scalar cells starting at `base` in every thread's
/// partition; the caller guarantees those cells are not used for anything
/// else. All threads must construct with the same `base` and issue the same
/// sequence of collective calls.
#[derive(Debug)]
pub struct Collectives {
    base: usize,
    generation: i64,
}

/// Cell offsets within the reserved block.
const PARTIAL: usize = 0; // value being reduced (this thread's subtree sum)
const READY: usize = 1; // generation stamp: PARTIAL is valid
const RESULT: usize = 2; // broadcast result
const RESULT_READY: usize = 3; // generation stamp: RESULT is valid

/// Number of scalar cells [`Collectives`] reserves per thread.
pub const COLLECTIVE_CELLS: usize = 4;

/// Backoff between spin iterations while waiting on a flag cell.
const SPIN_BACKOFF_NS: u64 = 1_000;

fn children(me: usize, n: usize) -> (Option<usize>, Option<usize>) {
    let l = 2 * me + 1;
    let r = 2 * me + 2;
    ((l < n).then_some(l), (r < n).then_some(r))
}

fn parent(me: usize) -> usize {
    (me - 1) / 2
}

impl Collectives {
    /// Create a handle over cells `base .. base + COLLECTIVE_CELLS`.
    pub fn new(base: usize) -> Collectives {
        Collectives {
            base,
            generation: 0,
        }
    }

    fn wait_flag<T: Item, C: Comm<T>>(&self, comm: &mut C, thread: usize, cell: usize, gen: i64) {
        while comm.get(thread, self.base + cell) < gen {
            comm.advance_idle(SPIN_BACKOFF_NS);
        }
    }

    /// Global sum of `value` across all threads; every thread receives the
    /// total. O(log n) depth: combine up the tree, broadcast down.
    pub fn all_reduce_sum<T: Item, C: Comm<T>>(&mut self, comm: &mut C, value: i64) -> i64 {
        self.generation += 1;
        let gen = self.generation;
        let me = comm.my_id();
        let n = comm.n_threads();
        let (l, r) = children(me, n);

        // Combine: wait for each child's partial, add, publish own.
        let mut acc = value;
        for c in [l, r].into_iter().flatten() {
            self.wait_flag(comm, c, READY, gen);
            acc += comm.get(c, self.base + PARTIAL);
        }
        comm.put(me, self.base + PARTIAL, acc);
        comm.put(me, self.base + READY, gen);

        // Broadcast: root publishes, everyone else waits on the parent.
        if me == 0 {
            comm.put(0, self.base + RESULT, acc);
            comm.put(0, self.base + RESULT_READY, gen);
        } else {
            let p = parent(me);
            self.wait_flag(comm, p, RESULT_READY, gen);
            let total = comm.get(p, self.base + RESULT);
            comm.put(me, self.base + RESULT, total);
            comm.put(me, self.base + RESULT_READY, gen);
            return total;
        }
        acc
    }

    /// Global maximum, same structure as [`Collectives::all_reduce_sum`].
    pub fn all_reduce_max<T: Item, C: Comm<T>>(&mut self, comm: &mut C, value: i64) -> i64 {
        self.generation += 1;
        let gen = self.generation;
        let me = comm.my_id();
        let n = comm.n_threads();
        let (l, r) = children(me, n);

        let mut acc = value;
        for c in [l, r].into_iter().flatten() {
            self.wait_flag(comm, c, READY, gen);
            acc = acc.max(comm.get(c, self.base + PARTIAL));
        }
        comm.put(me, self.base + PARTIAL, acc);
        comm.put(me, self.base + READY, gen);

        if me == 0 {
            comm.put(0, self.base + RESULT, acc);
            comm.put(0, self.base + RESULT_READY, gen);
            acc
        } else {
            let p = parent(me);
            self.wait_flag(comm, p, RESULT_READY, gen);
            let total = comm.get(p, self.base + RESULT);
            comm.put(me, self.base + RESULT, total);
            comm.put(me, self.base + RESULT_READY, gen);
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::sim::SimCluster;
    use crate::SpaceConfig;

    fn cfg() -> SpaceConfig {
        SpaceConfig {
            scalars: COLLECTIVE_CELLS + 2,
            locks: 1,
        }
    }

    #[test]
    fn all_reduce_sum_of_ids() {
        for n in [1usize, 2, 3, 7, 16] {
            let cluster: SimCluster<u64> = SimCluster::new(MachineModel::smp(), n, cfg());
            let report = cluster.run(|c| {
                let mut coll = Collectives::new(0);
                coll.all_reduce_sum(c, c.my_id() as i64)
            });
            let want = (n * (n - 1) / 2) as i64;
            assert!(
                report.results.iter().all(|&r| r == want),
                "n={n}: {:?}",
                report.results
            );
        }
    }

    #[test]
    fn all_reduce_max() {
        let n = 9;
        let cluster: SimCluster<u64> = SimCluster::new(MachineModel::kittyhawk(), n, cfg());
        let report = cluster.run(|c| {
            let mut coll = Collectives::new(0);
            // A value that is not monotone in thread id.
            let v = ((c.my_id() * 37) % 11) as i64;
            coll.all_reduce_max(c, v)
        });
        let want = (0..n).map(|i| ((i * 37) % 11) as i64).max().unwrap();
        assert!(report.results.iter().all(|&r| r == want));
    }

    #[test]
    fn repeated_collectives_reuse_cells() {
        let n = 5;
        let cluster: SimCluster<u64> = SimCluster::new(MachineModel::smp(), n, cfg());
        let report = cluster.run(|c| {
            let mut coll = Collectives::new(0);
            let mut sums = Vec::new();
            for round in 0..4i64 {
                sums.push(coll.all_reduce_sum(c, round + c.my_id() as i64));
            }
            sums
        });
        for round in 0..4usize {
            let want = (0..n).map(|i| round as i64 + i as i64).sum::<i64>();
            for r in &report.results {
                assert_eq!(r[round], want, "round {round}");
            }
        }
    }

    #[test]
    fn mixed_sequence_stays_consistent() {
        let n = 6;
        let cluster: SimCluster<u64> = SimCluster::new(MachineModel::kittyhawk(), n, cfg());
        let report = cluster.run(|c| {
            let mut coll = Collectives::new(0);
            let a = coll.all_reduce_sum(c, 1);
            let m = coll.all_reduce_max(c, c.my_id() as i64);
            (a, m)
        });
        for &(a, m) in &report.results {
            assert_eq!(a, n as i64);
            assert_eq!(m, n as i64 - 1);
        }
    }
}
