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
    /// Extension (paper ref \[16\] flavour): randomized work *pushing* —
    /// loaded threads push surplus chunks to random targets.
    Pushing,
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
            Algorithm::Pushing => "push-random",
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
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::SharedMem,
            Algorithm::Term,
            Algorithm::TermRapdif,
            Algorithm::DistMem,
            Algorithm::MpiWs,
            Algorithm::Hier,
            Algorithm::Pushing,
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

    /// Apply opt-in chaos overrides from the environment, so any harness can
    /// be fault-injected without new flags:
    ///
    /// - `UTS_CHAOS_SEED=<u64>` installs [`FaultPlan::seeded`] with that seed;
    /// - `UTS_STEAL_TIMEOUT_NS=<u64>` arms the thief request timeout;
    /// - `UTS_CHAOS_LOSS_PM=<0..=1000>`, `UTS_CHAOS_DUP_PM=<0..=1000>`, and
    ///   `UTS_CHAOS_KILL_PM=<0..=1000>` set the crash-class per-mille rates
    ///   (message loss, duplication, rank death — see `docs/faults.md`) on
    ///   top of whatever plan is installed, enabling it if necessary. A
    ///   kill rate set this way gets [`FaultPlan::crashy`]'s death window
    ///   unless the plan already has one;
    /// - `UTS_CHAOS_PARTITION_PM=<0..=1000>` and `UTS_CHAOS_GRAY_PM=<0..=1000>`
    ///   arm the correlated membership faults (network partition, gray
    ///   stall — `docs/faults.md` §8) the same way, borrowing
    ///   [`FaultPlan::partitioned`]'s windows when the plan has none;
    /// - `UTS_CHAOS_RESTART_NS=<u64>` makes killed ranks restart after that
    ///   virtual-time delay (0 disables restarts).
    ///
    /// Unset variables leave the config untouched, keeping fault-free runs
    /// bit-identical. A *set but malformed* variable panics with the
    /// offending name and value — a chaos run that silently ran fault-free
    /// because of a typo is worse than no chaos run at all.
    ///
    /// # Panics
    ///
    /// If any of the variables above is set to a value that does not parse
    /// as `u64`, or a `_PM` rate exceeds 1000.
    pub fn with_env_chaos(mut self) -> RunConfig {
        if let Some(seed) = parse_env("UTS_CHAOS_SEED") {
            self.faults = FaultPlan::seeded(seed);
        }
        if let Some(ns) = parse_env("UTS_STEAL_TIMEOUT_NS") {
            self.steal_timeout_ns = Some(ns);
        }
        if let Some(pm) = parse_env_pm("UTS_CHAOS_LOSS_PM") {
            self.faults.loss_per_mille = pm;
            self.faults.enabled = true;
        }
        if let Some(pm) = parse_env_pm("UTS_CHAOS_DUP_PM") {
            self.faults.dup_per_mille = pm;
            self.faults.enabled = true;
        }
        if let Some(pm) = parse_env_pm("UTS_CHAOS_KILL_PM") {
            self.faults.kill_per_mille = pm;
            self.faults.enabled = true;
            if pm > 0 && self.faults.kill_min_ns == 0 && self.faults.kill_span_ns == 0 {
                let crashy = FaultPlan::crashy(self.faults.seed);
                self.faults.kill_min_ns = crashy.kill_min_ns;
                self.faults.kill_span_ns = crashy.kill_span_ns;
            }
        }
        if let Some(pm) = parse_env_pm("UTS_CHAOS_PARTITION_PM") {
            self.faults.partition_per_mille = pm;
            self.faults.enabled = true;
            if pm > 0 && self.faults.partition_span_ns == 0 {
                let part = FaultPlan::partitioned(self.faults.seed);
                self.faults.partition_min_ns = part.partition_min_ns;
                self.faults.partition_span_ns = part.partition_span_ns;
                self.faults.partition_dur_ns = part.partition_dur_ns;
            }
        }
        if let Some(pm) = parse_env_pm("UTS_CHAOS_GRAY_PM") {
            self.faults.gray_per_mille = pm;
            self.faults.enabled = true;
            if pm > 0 && self.faults.gray_span_ns == 0 {
                let part = FaultPlan::partitioned(self.faults.seed);
                self.faults.gray_min_ns = part.gray_min_ns;
                self.faults.gray_span_ns = part.gray_span_ns;
                self.faults.gray_stall_ns = part.gray_stall_ns;
            }
        }
        if let Some(ns) = parse_env("UTS_CHAOS_RESTART_NS") {
            self.faults.restart_after_ns = ns;
            self.faults.enabled = true;
        }
        self
    }
}

fn parse_env(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => panic!(
            "{name}={raw:?} is not a valid u64; unset it or fix the value \
             (chaos overrides refuse to be silently ignored)"
        ),
    }
}

fn parse_env_pm(name: &str) -> Option<u32> {
    let v = parse_env(name)?;
    assert!(
        v <= 1000,
        "{name}={v} is out of range: per-mille rates must be 0..=1000"
    );
    Some(v as u32)
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

    /// All env-chaos cases in one test: env vars are process-global and the
    /// test harness runs tests on parallel threads, so splitting these up
    /// would race on the variables.
    #[test]
    fn env_chaos_overrides_parse_strictly() {
        let vars = [
            "UTS_CHAOS_SEED",
            "UTS_STEAL_TIMEOUT_NS",
            "UTS_CHAOS_LOSS_PM",
            "UTS_CHAOS_DUP_PM",
            "UTS_CHAOS_KILL_PM",
            "UTS_CHAOS_PARTITION_PM",
            "UTS_CHAOS_GRAY_PM",
            "UTS_CHAOS_RESTART_NS",
        ];
        let clear = || {
            for v in vars {
                std::env::remove_var(v);
            }
        };
        clear();

        // Unset vars leave the config untouched.
        let cfg = RunConfig::default().with_env_chaos();
        assert!(!cfg.faults.is_active());
        assert_eq!(cfg.steal_timeout_ns, None);

        // Well-formed values install a plan, arm the timeout, and set the
        // crash rates (which also pick up crashy()'s death window).
        std::env::set_var("UTS_CHAOS_SEED", "42");
        std::env::set_var("UTS_STEAL_TIMEOUT_NS", " 30000 ");
        std::env::set_var("UTS_CHAOS_LOSS_PM", "25");
        std::env::set_var("UTS_CHAOS_DUP_PM", "0");
        std::env::set_var("UTS_CHAOS_KILL_PM", "400");
        let cfg = RunConfig::default().with_env_chaos();
        assert_eq!(cfg.faults.seed, 42);
        assert_eq!(cfg.steal_timeout_ns, Some(30_000));
        assert_eq!(cfg.faults.loss_per_mille, 25);
        assert_eq!(cfg.faults.dup_per_mille, 0);
        assert_eq!(cfg.faults.kill_per_mille, 400);
        assert!(cfg.faults.kill_span_ns > 0, "kill window defaulted");
        assert!(cfg.faults.crash_active());

        // Crash rates alone enable a plan even without UTS_CHAOS_SEED.
        clear();
        std::env::set_var("UTS_CHAOS_DUP_PM", "10");
        let cfg = RunConfig::default().with_env_chaos();
        assert!(cfg.faults.crash_active());
        assert_eq!(cfg.faults.dup_per_mille, 10);

        // Membership faults borrow partitioned()'s windows when armed bare.
        clear();
        std::env::set_var("UTS_CHAOS_PARTITION_PM", "500");
        std::env::set_var("UTS_CHAOS_GRAY_PM", "250");
        std::env::set_var("UTS_CHAOS_RESTART_NS", "200000");
        let cfg = RunConfig::default().with_env_chaos();
        assert!(cfg.faults.crash_active());
        assert_eq!(cfg.faults.partition_per_mille, 500);
        assert!(cfg.faults.partition_span_ns > 0, "partition window defaulted");
        assert!(cfg.faults.partition_dur_ns > 0, "partition heals by default");
        assert_eq!(cfg.faults.gray_per_mille, 250);
        assert!(cfg.faults.gray_stall_ns > 0, "gray stall defaulted");
        assert_eq!(cfg.faults.restart_after_ns, 200_000);

        // Malformed or out-of-range values panic instead of being swallowed.
        for (var, bad) in [
            ("UTS_CHAOS_SEED", "banana"),
            ("UTS_STEAL_TIMEOUT_NS", "12ms"),
            ("UTS_CHAOS_LOSS_PM", "-3"),
            ("UTS_CHAOS_KILL_PM", "1001"),
        ] {
            clear();
            std::env::set_var(var, bad);
            let err = std::panic::catch_unwind(|| RunConfig::default().with_env_chaos())
                .expect_err("malformed {var} must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(var), "panic names the variable: {msg}");
        }
        clear();
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
