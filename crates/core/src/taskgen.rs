//! The task-generation abstraction: what the load balancer balances.
//!
//! The paper's benchmark is UTS, but §3 notes the approach "could be easily
//! augmented to use more complex search methods such as branch-and-bound and
//! backtracking". [`TaskGen`] is that seam: any implicitly-defined tree of
//! tasks can be traversed and balanced by the algorithms in this crate.

use pgas::comm::Item;
use pgas::Comm;
use uts_tree::{Node, TreeSpec};

/// An implicit tree of tasks. Implementations must be deterministic: the
/// children of a task are a pure function of the task.
pub trait TaskGen: Sync {
    /// The task descriptor moved between workers.
    type Task: Item;

    /// The root task.
    fn root(&self) -> Self::Task;

    /// Append `task`'s children onto `out`; return how many were produced.
    fn expand(&self, task: &Self::Task, out: &mut Vec<Self::Task>) -> u32;

    /// Expansion of a batch of tasks with access to the communication
    /// substrate, called by the generic driver's working loop in place of
    /// [`TaskGen::expand`]. The default expands each task of `tasks` in
    /// order, issuing no comm operations — which keeps the op stream (and
    /// therefore virtual-time results) of every tree workload bit-identical
    /// to the pre-hook driver. Workloads whose readiness is a *shared*
    /// property — task DAGs publishing dependency-count increments
    /// ([`crate::workload::DagWorkload`]) — override this to route that state
    /// through [`Comm`], so both conductors order the updates identically.
    /// The batch is one task, except for a [`TaskGen::PLACED`] workload,
    /// whose rank expands its whole local region at once
    /// ([`crate::sched::drive`]).
    ///
    /// Contract: any comm operation issued here must happen before the
    /// produced tasks are pushed (the driver pushes `out` — or, for a
    /// [`TaskGen::PLACED`] workload, hands it to its owners — only after this
    /// returns), preserving the publish-before-migration discipline — a
    /// task's readiness is globally visible before the task can be stolen.
    /// An expansion that issues an atomic ([`Comm::add`], [`Comm::add_many`],
    /// [`Comm::cas`] — what deciding "this completion made the task ready"
    /// takes) is followed by a transport poll: its owner has just waited on
    /// the network, so it answers pending steal requests before the next
    /// task.
    fn expand_in<C: Comm<Self::Task>>(
        &self,
        comm: &mut C,
        tasks: &[Self::Task],
        out: &mut Vec<Self::Task>,
    ) -> u32 {
        let _ = comm;
        tasks.iter().map(|t| self.expand(t, out)).sum()
    }

    /// Whether tasks have a home rank ([`TaskGen::home`]). A placing
    /// workload's ready task that is not its emitter's own goes to its home
    /// rank instead of the emitter's stack — see [`crate::sched::placement`].
    /// `false` (the default, every tree) issues no operation for it.
    const PLACED: bool = false;

    /// The rank that owns `task` on `n_threads` ranks. Read only when
    /// [`TaskGen::PLACED`], so a placing workload — or a wrapper of one —
    /// must override it; the default panics rather than pick a rank.
    fn home(&self, _task: &Self::Task, _n_threads: usize) -> usize {
        unreachable!("a TaskGen::PLACED workload must override TaskGen::home")
    }

    /// Virtual work units charged for executing `task` (node-explorations on
    /// the simulator's cost model). Default 1: every task costs one node,
    /// the UTS accounting. Weighted workloads (DAG task weights) override.
    fn work_units(&self, _task: &Self::Task) -> u64 {
        1
    }

    /// Extra per-rank scalar cells this workload needs beyond the protocol
    /// layout in [`crate::vars`] (e.g. DAG pending-dependency counters,
    /// striped across ranks). The engine adds this to the
    /// [`pgas::SpaceConfig`] it builds. Default 0: tree workloads keep the
    /// exact seed layout, preserving bit-identity.
    fn extra_scalars(&self, _n_threads: usize) -> usize {
        0
    }

    /// Critical-path length of the workload (the depth `D` in the
    /// O(p·D) steal bound — see [`crate::theory`]), when the generator
    /// knows it in closed form. `None` (the default) means "not known";
    /// [`crate::theory::tree_depth`] can compute it by host traversal.
    fn critical_path_len(&self) -> Option<u64> {
        None
    }

    /// A stable identity for `task`, used only by crash-fault runs to count
    /// exploration multiplicity (conservation-with-multiplicity checks in
    /// [`crate::report::RunReport`]).
    ///
    /// # Contract
    ///
    /// Crash-fault runs require this to be **injective** over the workload's
    /// tasks: `duplicate_nodes` is computed as the per-fingerprint excess
    /// over one, so two distinct tasks sharing a fingerprint silently
    /// *understate* the duplicate count (collisions masquerade as
    /// re-explorations, and `total − duplicates` drifts below the true task
    /// count). The default `0` collapses every task into one identity —
    /// fine when crash faults are off, which never read it. Crash-mode
    /// setup fails fast with [`crate::config::ConfigError::DegenerateFingerprints`]
    /// when it detects the degenerate default (root and first child sharing
    /// a fingerprint); override with a collision-free hash to run crash
    /// plans ([`UtsGen`] uses the first 8 bytes of the node's SHA-1 state).
    fn fingerprint(&self, _task: &Self::Task) -> u64 {
        0
    }
}

/// UTS: the Unbalanced Tree Search workload (the paper's benchmark).
#[derive(Clone, Copy, Debug)]
pub struct UtsGen {
    spec: TreeSpec,
}

impl UtsGen {
    /// Wrap a UTS tree specification.
    pub fn new(spec: TreeSpec) -> UtsGen {
        UtsGen { spec }
    }

    /// The underlying tree specification.
    pub fn spec(&self) -> &TreeSpec {
        &self.spec
    }
}

impl TaskGen for UtsGen {
    type Task = Node;

    fn root(&self) -> Node {
        self.spec.root()
    }

    fn expand(&self, task: &Node, out: &mut Vec<Node>) -> u32 {
        self.spec.expand_into(task, out)
    }

    /// The first 8 bytes of the node's SHA-1 state: unique per node for all
    /// practical tree sizes, so crash-mode duplicate counts are exact.
    fn fingerprint(&self, task: &Node) -> u64 {
        u64::from_le_bytes(task.state[..8].try_into().expect("8-byte prefix"))
    }
}

/// A cheap synthetic tree for unit tests: a perfect `branch`-ary tree of the
/// given `depth`, so its size is known in closed form without hashing.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticGen {
    /// Branching factor.
    pub branch: u32,
    /// Depth (root at depth 0; nodes at `depth` are leaves).
    pub depth: u32,
}

impl SyntheticGen {
    /// Total node count: (b^(d+1) - 1) / (b - 1) for b > 1.
    pub fn size(&self) -> u64 {
        if self.branch <= 1 {
            return u64::from(self.depth) + 1;
        }
        let b = u64::from(self.branch);
        (b.pow(self.depth + 1) - 1) / (b - 1)
    }
}

/// Task for [`SyntheticGen`]: just the node's depth.
impl TaskGen for SyntheticGen {
    type Task = u32;

    fn root(&self) -> u32 {
        0
    }

    fn expand(&self, task: &u32, out: &mut Vec<u32>) -> u32 {
        if *task >= self.depth {
            0
        } else {
            for _ in 0..self.branch {
                out.push(task + 1);
            }
            self.branch
        }
    }

    /// Depth only — deliberately non-unique (all same-depth nodes collide),
    /// so the synthetic workload is unsuitable for exact duplicate counting.
    fn fingerprint(&self, task: &u32) -> u64 {
        u64::from(*task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_tree::presets;

    #[test]
    fn uts_gen_matches_spec() {
        let p = presets::t_tiny();
        let gen = UtsGen::new(p.spec);
        let mut out = Vec::new();
        let n = gen.expand(&gen.root(), &mut out);
        assert_eq!(n, 16); // t_tiny root branching factor
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn synthetic_size_formula() {
        assert_eq!(SyntheticGen { branch: 2, depth: 3 }.size(), 15);
        assert_eq!(SyntheticGen { branch: 3, depth: 2 }.size(), 13);
        assert_eq!(SyntheticGen { branch: 1, depth: 5 }.size(), 6);
    }

    #[test]
    fn synthetic_expand_respects_depth() {
        let g = SyntheticGen { branch: 2, depth: 1 };
        let mut out = Vec::new();
        assert_eq!(g.expand(&0, &mut out), 2);
        out.clear();
        assert_eq!(g.expand(&1, &mut out), 0);
    }
}
