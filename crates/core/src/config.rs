//! Run configuration: algorithm selection and tuning knobs.

use pgas::FaultPlan;

use crate::sched::policy::{StealPolicyKind, VictimPolicy};

/// Which load-balancing implementation to run (paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// §3.1 `upc-sharedmem`: lock-protected shared stack region, cancelable
    /// barrier termination, single-chunk steals.
    SharedMem,
    /// §3.3.1 `upc-term`: SharedMem + streamlined termination detection.
    Term,
    /// §3.3.2 `upc-term-rapdif`: Term + steal-half rapid diffusion.
    TermRapdif,
    /// §3.3.3 `upc-distmem`: TermRapdif + lock-less request/response stack.
    DistMem,
    /// §3.2 `mpi-ws`: message-passing work stealing with polling victims and
    /// token-ring termination.
    MpiWs,
    /// Extension (§6.2 future work): DistMem with node-local-first victim
    /// selection (the `bupc_thread_distance()` idea).
    Hier,
}

impl Algorithm {
    /// The paper's label for this implementation.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::SharedMem => "upc-sharedmem",
            Algorithm::Term => "upc-term",
            Algorithm::TermRapdif => "upc-term-rapdif",
            Algorithm::DistMem => "upc-distmem",
            Algorithm::MpiWs => "mpi-ws",
            Algorithm::Hier => "upc-hier",
        }
    }

    /// The five implementations evaluated in the paper, in refinement order.
    pub fn paper_set() -> [Algorithm; 5] {
        [
            Algorithm::SharedMem,
            Algorithm::Term,
            Algorithm::TermRapdif,
            Algorithm::DistMem,
            Algorithm::MpiWs,
        ]
    }

    /// Every implementation in this crate.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::SharedMem,
            Algorithm::Term,
            Algorithm::TermRapdif,
            Algorithm::DistMem,
            Algorithm::MpiWs,
            Algorithm::Hier,
        ]
    }
}

/// Tuning parameters for a run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Chunk size `k`: nodes moved per release/steal unit (§2: "the value of
    /// k represents a tradeoff between load imbalance and communication
    /// costs").
    pub chunk_size: usize,
    /// For polling implementations (DistMem victim polling, MpiWs): number
    /// of nodes explored between polls for incoming requests. A node whose
    /// expansion itself communicated is followed by a poll regardless
    /// ([`crate::sched::drive`]).
    pub poll_interval: u64,
    /// Seed for the pseudo-random victim probe order.
    pub seed: u64,
    /// Record per-thread [`crate::trace::Event`] logs (state transitions,
    /// steals, releases) for post-run analysis. Off by default: tracing
    /// allocates.
    pub trace: bool,
    /// Enable the simulator conductor's lookahead fast path (on by default).
    /// Purely a harness-speed knob: virtual-time results are bit-identical
    /// either way (see `docs/conductor.md`). Ignored by the native backend.
    pub sim_lookahead: bool,
    /// Deterministic fault schedule injected into the simulator's cost
    /// accounting (see `docs/faults.md`). [`FaultPlan::none()`] by default:
    /// fault-free runs pay zero cost and stay bit-identical. Ignored by the
    /// native backend.
    pub faults: FaultPlan,
    /// Virtual-time budget a thief waits on an outstanding steal request
    /// before retracting it and re-probing (the timeout/retract hardening in
    /// `docs/faults.md`). `None` (the default) reproduces the paper's
    /// wait-forever protocol exactly; fault schedules with stalled victims
    /// need it armed to stay live-ish under long stalls.
    pub steal_timeout_ns: Option<u64>,
    /// Override the victim-order policy of the algorithm's bundle (see
    /// [`RunConfig::bundle`](crate::sched::bundle)). `None` (the default)
    /// keeps the algorithm's own choice, preserving the paper labels
    /// bit-exactly; `Some(VictimPolicy::Hier)` puts same-node-first victim
    /// selection on any probing transport.
    pub victim_policy: Option<VictimPolicy>,
    /// Override the steal-amount policy of the algorithm's bundle. `None`
    /// (the default) keeps the algorithm's own choice;
    /// `Some(StealPolicyKind::Adaptive)` sizes grants by the victim's
    /// surplus depth on any transport.
    pub steal_policy: Option<StealPolicyKind>,
}

/// A [`RunConfig`] that a backend cannot execute. Returned (rather than
/// panicking) so harnesses can route the run to the right backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The plan requests crash-class faults (kills, leases, partitions,
    /// gray stalls, restarts), which only exist in virtual time. The
    /// native OS-thread backend has no kill schedule, no virtual leases,
    /// and no deterministic membership protocol; run the config through
    /// `run_sim` instead.
    CrashFaultsAreSimOnly,
    /// The plan requests crash-class faults but the task generator still
    /// uses the degenerate default [`crate::taskgen::TaskGen::fingerprint`]
    /// (root and first child share an identity), which would silently
    /// understate duplicate counts and break
    /// conservation-with-multiplicity. Override `fingerprint` with an
    /// injective hash (see the trait docs) to run crash plans.
    DegenerateFingerprints,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CrashFaultsAreSimOnly => write!(
                f,
                "crash fault plans are sim-only: virtual-time kills, leases, \
                 partitions, and restarts have no native analogue; run this \
                 config through run_sim (the simulator backend) instead"
            ),
            ConfigError::DegenerateFingerprints => write!(
                f,
                "crash fault plans need injective task fingerprints: this \
                 generator's root and first child share the degenerate \
                 default fingerprint, so duplicate counting (conservation \
                 with multiplicity) would silently understate; override \
                 TaskGen::fingerprint with a collision-free hash"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl RunConfig {
    /// Default configuration with a given algorithm and chunk size.
    pub fn new(algorithm: Algorithm, chunk_size: usize) -> RunConfig {
        RunConfig {
            algorithm,
            chunk_size,
            poll_interval: 8,
            seed: 0x5EED_CAFE,
            trace: false,
            sim_lookahead: true,
            faults: FaultPlan::none(),
            steal_timeout_ns: None,
            victim_policy: None,
            steal_policy: None,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::new(Algorithm::DistMem, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_figure3() {
        assert_eq!(Algorithm::SharedMem.label(), "upc-sharedmem");
        assert_eq!(Algorithm::Term.label(), "upc-term");
        assert_eq!(Algorithm::TermRapdif.label(), "upc-term-rapdif");
        assert_eq!(Algorithm::DistMem.label(), "upc-distmem");
        assert_eq!(Algorithm::MpiWs.label(), "mpi-ws");
    }

    #[test]
    fn paper_set_has_five_distinct() {
        let set = Algorithm::paper_set();
        for i in 0..set.len() {
            for j in i + 1..set.len() {
                assert_ne!(set[i], set[j]);
            }
        }
    }
}
