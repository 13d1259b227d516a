//! Run results: per-thread counters and the aggregated report with the
//! paper's headline metrics (nodes/sec, speedup, efficiency, steal rate,
//! working-state fraction).

use pgas::CommStats;

use crate::state::{N_STATES, State};
use crate::trace::{diffusion, Diffusion, Event, StealMatrix};

/// What one worker thread did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadResult {
    /// Tree nodes this thread explored.
    pub nodes: u64,
    /// Chunks released from local to shared region.
    pub releases: u64,
    /// Chunks moved back from shared to local region.
    pub reacquires: u64,
    /// Steal attempts that transferred work.
    pub steals_ok: u64,
    /// Steal attempts that failed (lost race / denied / emptied).
    pub steals_failed: u64,
    /// Chunks obtained by successful steals.
    pub chunks_stolen: u64,
    /// Victim probes (work_avail examinations or steal-request messages).
    pub probes: u64,
    /// Ready tasks this thread handed to their home rank
    /// (`crate::sched::placement`); always 0 on workloads that do not place.
    pub handoffs: u64,
    /// Steal requests this thread serviced for others (distmem/mpi).
    pub requests_serviced: u64,
    /// Steal requests abandoned after the virtual-time timeout expired
    /// (0 unless `RunConfig::steal_timeout_ns` is armed).
    pub steal_timeouts: u64,
    /// Timeout retracts that withdrew the request before the victim saw it.
    pub retracts_won: u64,
    /// Timeout retracts that lost to a concurrent victim response (which was
    /// then consumed normally — never dropped).
    pub retracts_lost: u64,
    /// Steal attempts re-issued after a timeout.
    pub steal_retries: u64,
    /// Nanoseconds spent in post-timeout exponential backoff.
    pub timeout_backoff_ns: u64,
    /// Nanoseconds in each Figure-1 state.
    pub state_ns: [u64; N_STATES],
    /// State transitions taken.
    pub transitions: u64,
    /// Communication counters from the substrate.
    pub comm: CommStats,
    /// Traced events (empty unless `RunConfig::trace` was set).
    pub events: Vec<Event>,
    /// Global node total computed *in-band* by the end-of-run tree
    /// reduction (every thread must agree, and it must equal the host-side
    /// sum — the engine asserts both). Zero on crash-fault runs, which skip
    /// the collective (a dead rank cannot join it).
    pub reduced_total: u64,
    /// Nodes recovered through crash-recovery paths: adopted spills and
    /// re-injected lineage grants (always 0 without crash faults).
    pub recovered_nodes: u64,
    /// Whether this rank's scheduled crash fired (it spilled and exited).
    pub died: bool,
    /// Quorum evictions this rank executed (its vote completed the quorum;
    /// docs/faults.md §8). Always 0 without crash faults.
    pub evictions: u64,
    /// Times this rank re-entered as a new incarnation (fence rejoin after
    /// a gray stall / healed partition, or post-kill restart).
    pub rejoins: u64,
    /// Nodes this rank reclaimed from evicted ranks' shared regions via the
    /// transport scavenge pass.
    pub scavenged_nodes: u64,
    /// Inbound messages dropped because their incarnation stamp was below
    /// the sender's admissibility floor (zombie traffic fenced off).
    pub fenced_drops: u64,
    /// Fingerprints of every node explored, in order — recorded only on
    /// crash-fault runs, where the engine folds them into the
    /// conservation-with-multiplicity counters of [`RunReport`].
    pub explored: Vec<u64>,
    /// Submission epoch of every explored node, parallel to `explored` —
    /// recorded only on crash-fault *service* runs, where conservation is
    /// checked per epoch (see [`crate::service`]).
    pub explored_epoch: Vec<u32>,
    /// Virtual time each explored node's expansion was on the epoch's books,
    /// parallel to `explored` — crash-fault *service* runs only, for the
    /// multiplicity-aware declared-after-executed check.
    pub explored_ns: Vec<u64>,
    /// Service mode: epochs this rank's scanner declared quiescent, as
    /// `(epoch, completion virtual time)`. Empty outside service runs.
    pub svc_completions: Vec<(u32, u64)>,
    /// Service mode, rank 0 only: every injected request as
    /// `(epoch, scheduled arrival ns, actual injection ns)`.
    pub svc_injections: Vec<(u32, u64, u64)>,
    /// Service mode: what this rank explored of each epoch it touched, as
    /// `(epoch, nodes, virtual time of the last expansion)` in first-touch
    /// order — a rank touches few epochs, so the list is sparse.
    pub svc_epochs: Vec<(u32, u64, u64)>,
    /// Service mode: deficit bumps dropped because their slot already
    /// accounted for a newer epoch (see `service::SvcAccount::bump`).
    pub svc_stale_bumps: u64,
    /// Service mode, rank 0 only: requests whose injection was deferred past
    /// their scheduled arrival because the admission window was full.
    pub svc_deferred: u64,
}

impl ThreadResult {
    /// Merge (for aggregate totals).
    pub fn merge(&mut self, o: &ThreadResult) {
        self.nodes += o.nodes;
        self.releases += o.releases;
        self.reacquires += o.reacquires;
        self.steals_ok += o.steals_ok;
        self.steals_failed += o.steals_failed;
        self.chunks_stolen += o.chunks_stolen;
        self.probes += o.probes;
        self.handoffs += o.handoffs;
        self.requests_serviced += o.requests_serviced;
        self.steal_timeouts += o.steal_timeouts;
        self.retracts_won += o.retracts_won;
        self.retracts_lost += o.retracts_lost;
        self.steal_retries += o.steal_retries;
        self.timeout_backoff_ns += o.timeout_backoff_ns;
        for i in 0..N_STATES {
            self.state_ns[i] += o.state_ns[i];
        }
        self.transitions += o.transitions;
        self.comm.merge(&o.comm);
        self.events.extend(o.events.iter().copied());
        self.reduced_total = self.reduced_total.max(o.reduced_total);
        self.recovered_nodes += o.recovered_nodes;
        self.died |= o.died;
        self.evictions += o.evictions;
        self.rejoins += o.rejoins;
        self.scavenged_nodes += o.scavenged_nodes;
        self.fenced_drops += o.fenced_drops;
        self.explored.extend(o.explored.iter().copied());
        self.explored_epoch.extend(o.explored_epoch.iter().copied());
        self.explored_ns.extend(o.explored_ns.iter().copied());
        self.svc_completions.extend(o.svc_completions.iter().copied());
        self.svc_injections.extend(o.svc_injections.iter().copied());
        self.svc_epochs.extend(o.svc_epochs.iter().copied());
        self.svc_stale_bumps += o.svc_stale_bumps;
        self.svc_deferred += o.svc_deferred;
    }
}

/// Aggregated result of a parallel run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Algorithm label (paper Figure 3).
    pub label: &'static str,
    /// Platform name.
    pub machine: &'static str,
    /// Threads used.
    pub threads: usize,
    /// Chunk size `k`.
    pub chunk_size: usize,
    /// Total nodes explored (must equal the sequential count).
    pub total_nodes: u64,
    /// Makespan in ns: virtual on sim, wall-clock on native.
    pub makespan_ns: u64,
    /// Nodes recovered through crash-recovery paths (adopted spills plus
    /// re-injected grants). Always 0 without crash faults.
    pub recovered_nodes: u64,
    /// Nodes explored more than once (sum over fingerprints of
    /// `multiplicity - 1`): the duplication cost of at-least-once recovery.
    /// Always 0 without crash faults.
    pub duplicate_nodes: u64,
    /// Largest per-node exploration multiplicity observed (1 = every node
    /// explored exactly once; always 1 on crash-free runs).
    pub max_multiplicity: u64,
    /// Ranks whose scheduled crash fired during the run.
    pub deaths: usize,
    /// Quorum evictions executed during the run (one per evicted tenant;
    /// docs/faults.md §8). Always 0 without crash faults.
    pub evictions: u64,
    /// Incarnation rejoins during the run (fence re-entries plus post-kill
    /// restarts).
    pub rejoins: u64,
    /// Total steal attempts across all threads (successful + failed) — the
    /// numerator of the theory layer's contention metrics.
    pub steal_attempts: u64,
    /// Steal attempts that transferred work, summed across threads. Always
    /// equals [`RunReport::total_steals`]; stored as a field so the theory
    /// checks ([`crate::theory`]) and CSV writers read it uniformly.
    pub successful_steals: u64,
    /// Ready tasks handed to their home rank, summed across threads
    /// ([`ThreadResult::handoffs`]).
    pub handoffs: u64,
    /// Critical-path length `D` of the workload (weighted longest
    /// root→sink path), when the generator knows it
    /// ([`crate::taskgen::TaskGen::critical_path_len`]); 0 when unknown.
    /// The O(p·D) steal bound in [`crate::theory`] checks against it.
    pub critical_path_len: u64,
    /// Service-mode results (per-request latencies, tail histogram) — `None`
    /// on batch runs; see [`crate::service::run_service_sim`].
    pub service: Option<crate::service::ServiceReport>,
    /// Per-thread details.
    pub per_thread: Vec<ThreadResult>,
}

impl RunReport {
    /// Exploration rate in nodes per second of makespan.
    pub fn nodes_per_sec(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.total_nodes as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Speedup versus a sequential explorer running at `seq_rate` nodes/sec
    /// (paper §4: speedup = T_seq / T_par with T_seq = nodes / seq rate).
    pub fn speedup(&self, seq_rate: f64) -> f64 {
        let t_seq = self.total_nodes as f64 / seq_rate;
        let t_par = self.makespan_ns as f64 / 1e9;
        if t_par == 0.0 {
            return 0.0;
        }
        t_seq / t_par
    }

    /// Parallel efficiency: speedup / threads.
    pub fn efficiency(&self, seq_rate: f64) -> f64 {
        self.speedup(seq_rate) / self.threads as f64
    }

    /// Total successful steals.
    pub fn total_steals(&self) -> u64 {
        self.per_thread.iter().map(|t| t.steals_ok).sum()
    }

    /// Steals per second of makespan (the paper's ">85,000 total load
    /// balancing operations per second" metric).
    pub fn steals_per_sec(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.total_steals() as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Fraction of total thread-time spent in a given state.
    pub fn state_fraction(&self, s: State) -> f64 {
        let mut in_state = 0u64;
        let mut total = 0u64;
        for t in &self.per_thread {
            in_state += t.state_ns[s as usize];
            total += t.state_ns.iter().sum::<u64>();
        }
        if total == 0 {
            0.0
        } else {
            in_state as f64 / total as f64
        }
    }

    /// §6.2's "efficiency of threads in the working state": the ratio of
    /// useful work time to time spent in the Working state (the shortfall is
    /// steal-request servicing and release/reacquire overhead).
    pub fn working_state_efficiency(&self) -> f64 {
        let mut useful = 0u64;
        let mut working = 0u64;
        for t in &self.per_thread {
            useful += t.comm.work_ns;
            working += t.state_ns[State::Working as usize];
        }
        if working == 0 {
            0.0
        } else {
            useful as f64 / working as f64
        }
    }

    /// Aggregate of every per-thread result.
    pub fn totals(&self) -> ThreadResult {
        let mut acc = ThreadResult::default();
        for t in &self.per_thread {
            acc.merge(t);
        }
        acc
    }

    /// Per-thread event logs (empty unless tracing was enabled).
    pub fn event_logs(&self) -> Vec<Vec<Event>> {
        self.per_thread.iter().map(|t| t.events.clone()).collect()
    }

    /// Work-diffusion analysis over the traced events.
    pub fn diffusion(&self) -> Diffusion {
        diffusion(&self.event_logs())
    }

    /// Thief/victim steal-count matrix over the traced events.
    pub fn steal_matrix(&self) -> StealMatrix {
        StealMatrix::new(&self.event_logs())
    }

    /// One-line summary for harness output.
    pub fn summary_row(&self, seq_rate: f64) -> String {
        format!(
            "{:<16} p={:<5} k={:<4} nodes={:<10} t={:>9.4}s rate={:>8.3} Mn/s speedup={:>8.2} eff={:>5.1}% steals={:<7} steals/s={:>9.0}",
            self.label,
            self.threads,
            self.chunk_size,
            self.total_nodes,
            self.makespan_ns as f64 / 1e9,
            self.nodes_per_sec() / 1e6,
            self.speedup(seq_rate),
            100.0 * self.efficiency(seq_rate),
            self.total_steals(),
            self.steals_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(nodes: u64, makespan: u64, threads: usize) -> RunReport {
        RunReport {
            label: "test",
            machine: "smp",
            threads,
            chunk_size: 8,
            total_nodes: nodes,
            makespan_ns: makespan,
            recovered_nodes: 0,
            duplicate_nodes: 0,
            max_multiplicity: 1,
            deaths: 0,
            evictions: 0,
            rejoins: 0,
            steal_attempts: 0,
            successful_steals: 0,
            handoffs: 0,
            critical_path_len: 0,
            service: None,
            per_thread: vec![ThreadResult::default(); threads],
        }
    }

    #[test]
    fn rate_speedup_efficiency() {
        // 1e6 nodes in 0.1 s → 10 Mnodes/s; at seq rate 1 Mnode/s the
        // sequential time is 1 s → speedup 10; on 16 threads eff = 62.5%.
        let r = report_with(1_000_000, 100_000_000, 16);
        assert!((r.nodes_per_sec() - 1e7).abs() < 1.0);
        assert!((r.speedup(1e6) - 10.0).abs() < 1e-9);
        assert!((r.efficiency(1e6) - 0.625).abs() < 1e-9);
    }

    #[test]
    fn steal_rate() {
        let mut r = report_with(100, 2_000_000_000, 2);
        r.per_thread[0].steals_ok = 30;
        r.per_thread[1].steals_ok = 10;
        assert_eq!(r.total_steals(), 40);
        assert!((r.steals_per_sec() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn state_fraction_sums_to_one() {
        let mut r = report_with(1, 1, 2);
        r.per_thread[0].state_ns = [70, 10, 10, 10];
        r.per_thread[1].state_ns = [50, 30, 10, 10];
        let sum: f64 = [
            State::Working,
            State::Searching,
            State::Stealing,
            State::Terminating,
        ]
        .iter()
        .map(|&s| r.state_fraction(s))
        .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((r.state_fraction(State::Working) - 120.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn working_state_efficiency_ratio() {
        let mut r = report_with(1, 1, 1);
        r.per_thread[0].state_ns = [100, 0, 0, 0];
        r.per_thread[0].comm.work_ns = 93;
        assert!((r.working_state_efficiency() - 0.93).abs() < 1e-12);
    }

    #[test]
    fn zero_makespan_is_safe() {
        let r = report_with(10, 0, 1);
        assert_eq!(r.nodes_per_sec(), 0.0);
        assert_eq!(r.steals_per_sec(), 0.0);
        assert_eq!(r.speedup(1e6), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ThreadResult {
            nodes: 5,
            steals_ok: 1,
            state_ns: [1, 2, 3, 4],
            ..Default::default()
        };
        let b = ThreadResult {
            nodes: 7,
            steals_failed: 2,
            state_ns: [10, 20, 30, 40],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes, 12);
        assert_eq!(a.steals_ok, 1);
        assert_eq!(a.steals_failed, 2);
        assert_eq!(a.state_ns, [11, 22, 33, 44]);
    }
}
