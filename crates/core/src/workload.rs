//! Task-DAG workloads: dependency-aware work on the unchanged scheduler.
//!
//! The paper balances one workload — UTS, an implicit *tree* — but §3 claims
//! the approach extends to richer search methods. This module supplies the
//! richer workload: implicitly-defined task **DAGs** with dependency edges,
//! per-task weights, and priorities ([`DagGen`]), reduced onto the existing
//! [`TaskGen`] seam by [`DagWorkload`] so the generic Figure-1 driver, all
//! four policy axes, and both conductors run DAGs unchanged.
//!
//! # The ready-queue reduction
//!
//! A tree task is ready the moment its parent expands; a DAG task is ready
//! only when its *last* predecessor completes. [`DagWorkload`] layers a
//! ready queue over the DFS split stack ([`crate::stack`]) without touching
//! the driver:
//!
//! - Every task `t` owns a **count-up cell** in the global address space
//!   (rank `t mod p`, slot [`crate::vars::DAG_BASE`]` + t div p`), starting
//!   at its zero-initialised value.
//! - Completing a task fetch-adds `+1` into each successor's cell — one
//!   split-phase batch, [`Comm::add_many`], that returns when the last add
//!   has, and covers every task a rank expands together — inside the
//!   expansion hook, *before* the driver pushes anything,
//!   so the decrement is published before any produced task can migrate
//!   (the PR-7 publish-before-migration discipline).
//! - The add whose returned previous value makes the counter reach the
//!   successor's in-degree — exactly one add can, the counter is monotonic —
//!   emits the successor as a "child" of the completing task. Tasks
//!   therefore enter a stack exactly when they become ready, and **only
//!   ready tasks are ever stealable**: the shared stack region doubles as
//!   the distributed ready queue, and every steal/release/termination
//!   protocol applies verbatim.
//!
//! Counting *up* to the in-degree (rather than down from it) means cells
//! need no initialisation pass, and under crash faults the scheme stays
//! safe: each predecessor executes at least once, so each cell receives at
//! least `in_degree` adds, so the crossing happens and the task is emitted
//! onto some rank's stack — where the existing spill/adoption/lineage
//! recovery guarantees at-least-once execution. Duplicate predecessor
//! executions push the counter past the in-degree without a second
//! crossing, so a task is *emitted* at most once per crossing; its own
//! multiplicity then comes only from the generic recovery paths, and
//! conservation-with-multiplicity (`total − duplicates == n_tasks`) holds
//! with the machinery already in place.
//!
//! Going through [`Comm`] — not host atomics — is what preserves the
//! conductor bit-identity contract: both the fiber fast path and the
//! reference conductor order comm operations in virtual time, so
//! "which predecessor's add crossed the threshold" is deterministic.
//!
//! Priorities order same-batch emissions (higher priority lands nearer the
//! stack top and pops first); weights feed [`TaskGen::work_units`], so a
//! heavy task advances the virtual clock proportionally.
//!
//! See `docs/workloads.md` for the design note and [`crate::theory`] for
//! the steal-bound/conservation checks run against these workloads.

use std::sync::Mutex;

use pgas::Comm;

use crate::taskgen::TaskGen;
use crate::vars;

/// An implicitly-defined task DAG. Tasks are dense ids `0..n_tasks()`; task
/// 0 is the unique source (the only task with in-degree 0), and every
/// successor id is strictly greater than its predecessor's — acyclicity by
/// construction. Implementations must be deterministic: edges, weights, and
/// priorities are pure functions of the task id.
pub trait DagGen: Sync {
    /// Total number of tasks. Ids are dense: `0..n_tasks()`.
    fn n_tasks(&self) -> u64;

    /// Append `task`'s successor ids onto `out`. Every id must be strictly
    /// greater than `task` and below [`DagGen::n_tasks`]; the same edge must
    /// not be listed twice.
    fn successors(&self, task: u64, out: &mut Vec<u64>);

    /// Number of predecessor edges of `task`. Must equal the number of
    /// times `task` appears across all predecessors' successor lists
    /// ([`validate`] checks this); 0 only for task 0.
    fn in_degree(&self, task: u64) -> u32;

    /// Work units (virtual node-explorations) executing `task` costs.
    fn weight(&self, _task: u64) -> u64 {
        1
    }

    /// Scheduling priority: among tasks becoming ready in the same
    /// expansion, higher priority is pushed nearer the stack top and pops
    /// first. Purely an ordering hint; correctness never depends on it.
    fn priority(&self, _task: u64) -> u32 {
        0
    }

    /// Weighted critical-path length: the maximum total weight along any
    /// source→sink path (the depth `D` of the O(p·D) steal bound).
    fn critical_path(&self) -> u64;
}

/// Host-side structural check of a [`DagGen`]: edges go strictly forward to
/// in-range ids, advertised in-degrees match the enumerated edges, task 0 is
/// the unique source, and every task is reachable from it. Returns the
/// first violation as a message.
pub fn validate<G: DagGen>(g: &G) -> Result<(), String> {
    let n = g.n_tasks();
    if n == 0 {
        return Err("DAG has no tasks".into());
    }
    let mut indeg = vec![0u32; n as usize];
    // Per id, the last task that listed it, stamped as `t + 1` (0: none
    // yet): a second listing by the same task is a duplicate edge.
    let mut last_pred = vec![0u64; n as usize];
    let mut succ = Vec::new();
    for t in 0..n {
        succ.clear();
        g.successors(t, &mut succ);
        for &s in &succ {
            if s <= t {
                return Err(format!("edge {t} -> {s} is not strictly forward"));
            }
            if s >= n {
                return Err(format!("edge {t} -> {s} leaves the id range 0..{n}"));
            }
            if last_pred[s as usize] == t + 1 {
                return Err(format!("task {t} lists a duplicate successor edge"));
            }
            last_pred[s as usize] = t + 1;
            indeg[s as usize] += 1;
        }
    }
    for t in 0..n {
        let advertised = g.in_degree(t);
        if advertised != indeg[t as usize] {
            return Err(format!(
                "task {t}: in_degree() says {advertised}, edges say {}",
                indeg[t as usize]
            ));
        }
        if t == 0 && advertised != 0 {
            return Err("task 0 must be the source (in-degree 0)".into());
        }
        if t > 0 && advertised == 0 {
            return Err(format!("task {t} is unreachable (in-degree 0)"));
        }
    }
    Ok(())
}

/// Unweighted critical path by forward DP over the ids (valid because edges
/// go strictly forward): the maximum total [`DagGen::weight`] along any
/// source→sink path. Generators with closed-form paths use this in tests
/// as the independent cross-check.
pub fn critical_path_dp<G: DagGen>(g: &G) -> u64 {
    let n = g.n_tasks() as usize;
    let mut dist = vec![0u64; n];
    dist[0] = g.weight(0);
    let mut succ = Vec::new();
    let mut best = dist[0];
    for t in 0..n as u64 {
        let d = dist[t as usize];
        if d == 0 && t != 0 {
            continue; // unreachable under an invalid DAG; validate() catches it
        }
        succ.clear();
        g.successors(t, &mut succ);
        for &s in &succ {
            let cand = d + g.weight(s);
            if cand > dist[s as usize] {
                dist[s as usize] = cand;
                best = best.max(cand);
            }
        }
        best = best.max(d);
    }
    best
}

/// A chain of fork-join diamonds: `levels` diamonds in sequence, each a
/// fork task fanning out to `width` parallel tasks joined by the next fork
/// (the final join is a dedicated sink). Task weights vary deterministically
/// with the seed so parallel branches are imbalanced, and deeper levels get
/// higher priority (finish the oldest diamond first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForkJoin {
    /// Number of fork-join diamonds in the chain.
    pub levels: u32,
    /// Parallel tasks per diamond.
    pub width: u32,
    /// Seed for the per-task weight jitter.
    pub seed: u64,
}

impl ForkJoin {
    // Layout: level l's fork is task l*(width+1); its parallel tasks are the
    // following `width` ids; level `levels`'s fork slot is the sink.
    fn stride(&self) -> u64 {
        u64::from(self.width) + 1
    }
}

impl DagGen for ForkJoin {
    fn n_tasks(&self) -> u64 {
        u64::from(self.levels) * self.stride() + 1
    }

    fn successors(&self, task: u64, out: &mut Vec<u64>) {
        let stride = self.stride();
        let (level, pos) = (task / stride, task % stride);
        if level >= u64::from(self.levels) {
            return; // the sink
        }
        if pos == 0 {
            // Fork: all parallel tasks of this diamond.
            out.extend((1..stride).map(|i| task + i));
        } else {
            // Parallel task: the next diamond's fork (or the sink).
            out.push((level + 1) * stride);
        }
    }

    fn in_degree(&self, task: u64) -> u32 {
        let pos = task % self.stride();
        if task == 0 {
            0
        } else if pos == 0 {
            self.width // a join: all parallel tasks of the previous diamond
        } else {
            1
        }
    }

    fn weight(&self, task: u64) -> u64 {
        1 + mix(self.seed ^ task) % 4
    }

    fn priority(&self, task: u64) -> u32 {
        // Older diamonds first: priority decreases with level.
        self.levels - (task / self.stride()) as u32
    }

    fn critical_path(&self) -> u64 {
        // Forks and the sink are forced; per diamond add the heaviest
        // parallel task.
        let stride = self.stride();
        let mut d = 0;
        for level in 0..u64::from(self.levels) {
            let fork = level * stride;
            d += self.weight(fork);
            d += (1..stride).map(|i| self.weight(fork + i)).max().unwrap_or(0);
        }
        d + self.weight(u64::from(self.levels) * stride)
    }
}

/// A stencil/wavefront grid: task `(r, c)` depends on `(r-1, c)` and
/// `(r, c-1)`, the classic dynamic-programming dependence. Parallelism
/// sweeps in as an anti-diagonal front of width `min(rows, cols)`; the
/// unweighted critical path is `rows + cols - 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wavefront {
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Seed for the per-task weight jitter.
    pub seed: u64,
}

impl DagGen for Wavefront {
    fn n_tasks(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }

    fn successors(&self, task: u64, out: &mut Vec<u64>) {
        let cols = u64::from(self.cols);
        let (r, c) = (task / cols, task % cols);
        if c + 1 < cols {
            out.push(task + 1);
        }
        if r + 1 < u64::from(self.rows) {
            out.push(task + cols);
        }
    }

    fn in_degree(&self, task: u64) -> u32 {
        let cols = u64::from(self.cols);
        u32::from(task / cols > 0) + u32::from(!task.is_multiple_of(cols))
    }

    fn weight(&self, task: u64) -> u64 {
        1 + mix(self.seed ^ task) % 3
    }

    fn priority(&self, task: u64) -> u32 {
        // Earlier anti-diagonals first: the front advances evenly.
        let cols = u64::from(self.cols);
        let diag = (task / cols + task % cols) as u32;
        self.rows + self.cols - diag
    }

    fn critical_path(&self) -> u64 {
        // Weighted longest monotone lattice path, by the same forward DP the
        // generic helper runs — but over (r, c) directly, in closed layout.
        critical_path_dp(self)
    }
}

/// A random layered DAG: `layers` layers of `width` tasks over a dedicated
/// source. Every task has a guaranteed predecessor in the previous layer
/// (reachability), plus extra edges drawn per-mille from the full previous
/// layer — the seeded generator family for shapes nobody hand-picked.
/// Edges are stored as one `u32` CSR, built a layer at a time, so the DAG
/// costs what its edges cost and per-task queries stay allocation-free and
/// O(degree).
#[derive(Debug)]
pub struct RandomLayered {
    n: u64,
    /// CSR offsets into `edges`, one per task plus the trailing end.
    succ_off: Vec<u32>,
    /// Concatenated successor lists, each in ascending id order.
    edges: Vec<u32>,
    indeg: Vec<u32>,
    seed: u64,
    critical: u64,
}

impl RandomLayered {
    /// Build the DAG: `layers` layers of `width` tasks under a single
    /// source (task 0), with extra previous-layer edges at `edge_pm`
    /// per-mille density, all drawn deterministically from `seed`.
    ///
    /// Every edge joins two consecutive layers, so layer `L`'s in-edges are
    /// exactly layer `L - 1`'s out-edges: each layer's (predecessor,
    /// target) pairs are drawn in target order, counting-sorted by
    /// predecessor — stably, so every successor list stays ascending — and
    /// appended to the CSR. Only one layer's pairs are ever held besides it.
    pub fn new(layers: u32, width: u32, edge_pm: u32, seed: u64) -> RandomLayered {
        assert!(layers > 0 && width > 0, "need at least one layer and task");
        assert!(edge_pm <= 1000, "edge density is per-mille");
        let n = 1 + u64::from(layers) * u64::from(width);
        assert!(n <= u64::from(u32::MAX), "task ids are stored as u32");
        let (w, pm) = (width as usize, u64::from(edge_pm));
        // The expected edge count (exact at 0 and 1000 per-mille): the
        // source's `width`, then per later task its guaranteed predecessor
        // and `edge_pm` per-mille of the other `width - 1`; 1/64 of slack
        // keeps a draw somewhat above that from doubling the array.
        let later = u64::from(layers - 1) * u64::from(width);
        let expected = u64::from(width) + later + later * (u64::from(width) - 1) * pm / 1000;
        let mut edges: Vec<u32> = Vec::with_capacity((expected + expected / 64) as usize);
        let mut succ_off: Vec<u32> = Vec::with_capacity(n as usize + 1);
        let mut indeg = vec![1u32; n as usize];
        indeg[0] = 0;
        // The source feeds all of layer 0, the only predecessor each has.
        succ_off.push(0);
        edges.extend(1..=width);
        // One layer's (predecessor slot, target) pairs, and per slot first
        // its out-degree, then the cursor of its successor list.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut slot_deg = vec![0u32; w];
        for layer in 1..layers {
            let first = 1 + layer * width; // fits: n <= u32::MAX
            let prev = first - width;
            let mut kept = 0;
            for t in first..first + width {
                // Guaranteed predecessor, plus per-mille extras. Every draw
                // is a pure function of (seed, t, candidate), so drawing
                // each candidate and keeping the anchor regardless leaves
                // the draw loop without a branch.
                let anchor = (mix(seed ^ u64::from(t)) % u64::from(width)) as u32;
                let salt = seed ^ (u64::from(t) << 20);
                pairs.resize(pairs.len().max(kept + w), (0, 0));
                let before = kept;
                for (s, deg) in (0..width).zip(slot_deg.iter_mut()) {
                    let keep = (s == anchor) | (mix(salt ^ u64::from(prev + s)) % 1000 < pm);
                    pairs[kept] = (s, t);
                    kept += usize::from(keep);
                    *deg += u32::from(keep);
                }
                indeg[t as usize] = (kept - before) as u32;
            }
            // Counting sort by predecessor slot, straight into the CSR.
            let mut at = edges.len();
            for slot in &mut slot_deg {
                let off = csr_offset(at);
                succ_off.push(off);
                at += *slot as usize;
                *slot = off;
            }
            edges.resize(at, 0);
            for &(s, t) in &pairs[..kept] {
                let cursor = &mut slot_deg[s as usize];
                edges[*cursor as usize] = t;
                *cursor += 1;
            }
            slot_deg.fill(0);
        }
        // The last layer has no successors.
        let end = csr_offset(edges.len());
        succ_off.resize(n as usize + 1, end);
        let mut dag = RandomLayered {
            n,
            succ_off,
            edges,
            indeg,
            seed,
            critical: 0,
        };
        dag.critical = critical_path_dp(&dag);
        dag
    }
}

/// An edge count as a [`RandomLayered`] CSR offset.
fn csr_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a layered DAG holds at most u32::MAX edges")
}

impl DagGen for RandomLayered {
    fn n_tasks(&self) -> u64 {
        self.n
    }

    fn successors(&self, task: u64, out: &mut Vec<u64>) {
        let (a, b) = (
            self.succ_off[task as usize] as usize,
            self.succ_off[task as usize + 1] as usize,
        );
        out.extend(self.edges[a..b].iter().map(|&s| u64::from(s)));
    }

    fn in_degree(&self, task: u64) -> u32 {
        self.indeg[task as usize]
    }

    fn weight(&self, task: u64) -> u64 {
        1 + mix(self.seed ^ !task) % 5
    }

    fn critical_path(&self) -> u64 {
        self.critical
    }
}

/// Adapter running any [`DagGen`] through the scheduler's [`TaskGen`] seam:
/// the task descriptor is the DAG task id, and expansion emits exactly the
/// successors that *became ready* — see the module docs for the count-up
/// cell protocol. Construct with [`DagWorkload::new`] and run it through
/// [`crate::engine::run_sim`] / [`crate::engine::run_native`] like any tree
/// workload.
#[derive(Debug)]
pub struct DagWorkload<G: DagGen> {
    gen: G,
    /// Per-task pending counts for comm-free host traversals
    /// ([`TaskGen::expand`], used by `seq_run` and engine pre-checks),
    /// allocated by the first of them. Parallel runs never touch it — they
    /// go through [`TaskGen::expand_in`], whose counters live in the global
    /// address space. Expanding the root resets it, so repeated host
    /// traversals of the same workload stay independent.
    host_pending: Mutex<Vec<u32>>,
}

impl<G: DagGen> DagWorkload<G> {
    /// Wrap a DAG generator. Panics if [`validate`] rejects the DAG — a
    /// malformed workload (dangling in-degree, unreachable task) would
    /// otherwise surface as a livelock or a conservation failure mid-run.
    pub fn new(gen: G) -> DagWorkload<G> {
        if let Err(e) = validate(&gen) {
            panic!("invalid DAG workload: {e}");
        }
        DagWorkload {
            gen,
            host_pending: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped generator.
    pub fn dag(&self) -> &G {
        &self.gen
    }

    /// Total task count — the expected `total_nodes` of any fault-free run.
    pub fn n_tasks(&self) -> u64 {
        self.gen.n_tasks()
    }

    /// Order a batch of newly-ready tasks for pushing: ascending
    /// `(priority, id)`, so the highest-priority (then highest-id) task
    /// lands nearest the stack top and pops first. Deterministic by ids
    /// being unique within a batch.
    fn order_ready(&self, batch: &mut [u64]) {
        batch.sort_unstable_by_key(|&s| (self.gen.priority(s), s));
    }
}

impl<G: DagGen> TaskGen for DagWorkload<G> {
    type Task = u64;

    fn root(&self) -> u64 {
        0
    }

    /// Comm-free expansion for host-side traversals: counts dependencies in
    /// the internal per-task counters. Zeroes them when the root is
    /// expanded, so each traversal starts fresh.
    fn expand(&self, task: &u64, out: &mut Vec<u64>) -> u32 {
        let mut pend = self.host_pending.lock().expect("host pending poisoned");
        if *task == 0 || pend.is_empty() {
            pend.clear();
            pend.resize(self.gen.n_tasks() as usize, 0);
        }
        let before = out.len();
        let mut succ = Vec::new();
        self.gen.successors(*task, &mut succ);
        for &s in &succ {
            let c = &mut pend[s as usize];
            *c += 1;
            if *c == self.gen.in_degree(s) {
                out.push(s);
            }
        }
        self.order_ready(&mut out[before..]);
        (out.len() - before) as u32
    }

    /// The parallel path: publish one fetch-add per successor edge of every
    /// task of the batch into its count-up cell — all of them as one
    /// split-phase batch ([`Comm::add_many`]), so the round trips overlap
    /// instead of queueing — and emit the successors whose counter crossed
    /// their in-degree. A successor of two tasks of the batch is two members
    /// of it, and exactly one of them crosses. All shared state goes through
    /// [`Comm`] — see the module docs for why host atomics would break
    /// conductor bit-identity.
    fn expand_in<C: Comm<u64>>(&self, comm: &mut C, tasks: &[u64], out: &mut Vec<u64>) -> u32 {
        let p = comm.n_threads() as u64;
        let before = out.len();
        let mut succ = Vec::new();
        for &t in tasks {
            self.gen.successors(t, &mut succ);
        }
        let cells: Vec<(usize, usize)> = succ
            .iter()
            .map(|&s| ((s % p) as usize, vars::DAG_BASE + (s / p) as usize))
            .collect();
        let mut prev = Vec::with_capacity(cells.len());
        comm.add_many(&cells, 1, &mut prev);
        for (&s, &seen) in succ.iter().zip(&prev) {
            if seen + 1 == i64::from(self.gen.in_degree(s)) {
                out.push(s);
            }
        }
        self.order_ready(&mut out[before..]);
        (out.len() - before) as u32
    }

    /// A task lives where its count-up cell does: the rank whose add makes
    /// it ready is rarely that rank, so the task is handed to its owner.
    const PLACED: bool = true;

    fn home(&self, task: &u64, n_threads: usize) -> usize {
        (task % n_threads as u64) as usize
    }

    fn work_units(&self, task: &u64) -> u64 {
        self.gen.weight(*task)
    }

    fn extra_scalars(&self, n_threads: usize) -> usize {
        (self.gen.n_tasks() as usize).div_ceil(n_threads)
    }

    fn critical_path_len(&self) -> Option<u64> {
        Some(self.gen.critical_path())
    }

    /// `id + 1`: injective by construction (ids are unique), nonzero so the
    /// degenerate-default check never confuses a real DAG fingerprint with
    /// the unset default.
    fn fingerprint(&self, task: &u64) -> u64 {
        task + 1
    }
}

/// SplitMix64 finaliser: a cheap, high-quality deterministic mixer for
/// per-task weight/priority/edge draws.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seq_run;

    #[test]
    fn fork_join_layout_and_sizes() {
        let g = ForkJoin {
            levels: 3,
            width: 4,
            seed: 7,
        };
        assert_eq!(g.n_tasks(), 3 * 5 + 1);
        validate(&g).expect("fork-join is well-formed");
        // Fork 0 fans out to 4 parallel tasks; each joins at task 5.
        let mut out = Vec::new();
        g.successors(0, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
        out.clear();
        g.successors(3, &mut out);
        assert_eq!(out, vec![5]);
        assert_eq!(g.in_degree(5), 4);
        // The sink has no successors.
        out.clear();
        g.successors(15, &mut out);
        assert!(out.is_empty());
        assert_eq!(g.critical_path(), critical_path_dp(&g));
    }

    #[test]
    fn wavefront_structure() {
        let g = Wavefront {
            rows: 3,
            cols: 4,
            seed: 1,
        };
        assert_eq!(g.n_tasks(), 12);
        validate(&g).expect("wavefront is well-formed");
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(1), 1); // (0,1): only (0,0)
        assert_eq!(g.in_degree(5), 2); // (1,1): both neighbours
        let mut out = Vec::new();
        g.successors(5, &mut out);
        assert_eq!(out, vec![6, 9]);
        // Unweighted depth would be rows+cols-1; the weighted DP dominates it.
        assert!(g.critical_path() >= u64::from(g.rows + g.cols) - 1);
    }

    #[test]
    fn random_layered_is_valid_and_reachable_across_seeds() {
        for seed in 0..8 {
            let g = RandomLayered::new(5, 6, 300, seed);
            validate(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(g.n_tasks(), 31);
            assert!(g.critical_path() >= 6, "at least one task per layer");
        }
    }

    #[test]
    fn validate_rejects_malformed_dags() {
        struct Backward;
        impl DagGen for Backward {
            fn n_tasks(&self) -> u64 {
                2
            }
            fn successors(&self, task: u64, out: &mut Vec<u64>) {
                if task == 1 {
                    out.push(0); // backward edge
                }
            }
            fn in_degree(&self, _t: u64) -> u32 {
                0
            }
            fn critical_path(&self) -> u64 {
                1
            }
        }
        let err = validate(&Backward).expect_err("backward edge must fail");
        assert!(err.contains("not strictly forward"), "{err}");

        struct WrongDegree;
        impl DagGen for WrongDegree {
            fn n_tasks(&self) -> u64 {
                2
            }
            fn successors(&self, task: u64, out: &mut Vec<u64>) {
                if task == 0 {
                    out.push(1);
                }
            }
            fn in_degree(&self, t: u64) -> u32 {
                if t == 1 {
                    2 // edges say 1
                } else {
                    0
                }
            }
            fn critical_path(&self) -> u64 {
                2
            }
        }
        let err = validate(&WrongDegree).expect_err("degree mismatch must fail");
        assert!(err.contains("in_degree"), "{err}");

        struct Duplicate;
        impl DagGen for Duplicate {
            fn n_tasks(&self) -> u64 {
                3
            }
            fn successors(&self, task: u64, out: &mut Vec<u64>) {
                match task {
                    0 => out.extend([1, 2]),
                    1 => out.extend([2, 2]), // 2 listed twice by task 1 only
                    _ => {}
                }
            }
            fn in_degree(&self, t: u64) -> u32 {
                [0, 1, 3][t as usize]
            }
            fn critical_path(&self) -> u64 {
                3
            }
        }
        let err = validate(&Duplicate).expect_err("duplicate edge must fail");
        assert_eq!(err, "task 1 lists a duplicate successor edge");
    }

    #[test]
    fn host_traversal_executes_every_task_exactly_once() {
        let w = DagWorkload::new(ForkJoin {
            levels: 4,
            width: 3,
            seed: 2,
        });
        assert_eq!(seq_run(&w).0, w.n_tasks());
        // Repeatable: the root expansion resets the host counters.
        assert_eq!(seq_run(&w).0, w.n_tasks());
        let w = DagWorkload::new(Wavefront {
            rows: 6,
            cols: 5,
            seed: 3,
        });
        assert_eq!(seq_run(&w).0, 30);
        let w = DagWorkload::new(RandomLayered::new(4, 5, 250, 9));
        assert_eq!(seq_run(&w).0, w.n_tasks());
    }

    #[test]
    fn ready_order_puts_high_priority_on_top() {
        let w = DagWorkload::new(ForkJoin {
            levels: 2,
            width: 3,
            seed: 0,
        });
        let mut batch = vec![4, 1, 3, 2];
        w.order_ready(&mut batch);
        // Task 4 is the next diamond's fork — lower priority than the
        // current diamond's parallel tasks (older diamonds drain first), so
        // it is pushed first and pops last; the same-priority tasks order
        // by ascending id, highest nearest the top.
        assert_eq!(batch, vec![4, 1, 2, 3]);
    }

    #[test]
    fn weights_and_fingerprints_are_deterministic_and_injective() {
        let w = DagWorkload::new(Wavefront {
            rows: 4,
            cols: 4,
            seed: 11,
        });
        let fps: Vec<u64> = (0..w.n_tasks()).map(|t| w.fingerprint(&t)).collect();
        let mut dedup = fps.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), fps.len(), "fingerprints must be injective");
        assert!((0..w.n_tasks()).all(|t| w.work_units(&t) >= 1));
        assert_eq!(w.critical_path_len(), Some(w.dag().critical_path()));
    }
}
