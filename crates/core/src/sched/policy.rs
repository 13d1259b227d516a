//! Steal-amount and victim-selection policies: the two "how much / from
//! whom" axes of the scheduler core — closed sets, so enums, not traits —
//! and the thief's pause after a steal timeout.
//!
//! Steal amounts are the §3.1 → §3.3.2 refinement (one chunk vs. half the
//! victim's surplus), plus an adaptive extension in the spirit of per-victim
//! steal-amount adaptation in distributed task runtimes. Victim selection is
//! §3.1's flat pseudo-random probe order vs. the §6.2 hierarchical
//! same-node-first order ([`crate::probe`]).

use pgas::comm::Item;
use pgas::{Comm, MachineModel};

use crate::probe::ProbeOrder;
use crate::report::ThreadResult;

/// How many chunks move per successful steal: the grant-sizing policy a
/// victim (or lock-holding thief) applies to its stealable surplus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StealPolicyKind {
    /// §3.1: one chunk per steal — minimal transfer cost, slow diffusion.
    One,
    /// §3.3.2 rapid diffusion: half the available chunks (rounded down), or
    /// the single chunk when only one is there. "Stealing half ... allows
    /// work to diffuse more rapidly through the pool of idle processors."
    Half,
    /// Extension: adapt the transfer to the victim's surplus depth. Poor
    /// victims (≤ 2 chunks) yield a single chunk — minimal disruption where
    /// steal-half would strip them anyway; moderately rich victims diffuse
    /// half (§3.3.2); very rich victims (≥ 8 chunks) yield three quarters,
    /// spreading hoarded subtrees aggressively so diffusion does not
    /// bottleneck on one deep stack at large thread counts.
    Adaptive,
}

impl StealPolicyKind {
    /// Short label for reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            StealPolicyKind::One => "one",
            StealPolicyKind::Half => "half",
            StealPolicyKind::Adaptive => "adaptive",
        }
    }

    /// Chunks to transfer when `avail` chunks are stealable. Contract:
    /// `amount(0) == 0` and `amount(avail) <= avail` — a policy can never
    /// grant work that is not there.
    pub fn amount(self, avail: usize) -> usize {
        match (self, avail) {
            (StealPolicyKind::One, _) => avail.min(1),
            (StealPolicyKind::Half, 0..=1) => avail,
            (StealPolicyKind::Half, _) => avail / 2,
            (StealPolicyKind::Adaptive, 0) => 0,
            (StealPolicyKind::Adaptive, 1..=2) => 1,
            (StealPolicyKind::Adaptive, 3..=7) => avail / 2,
            (StealPolicyKind::Adaptive, _) => avail - avail / 4,
        }
    }
}

/// Which victim-order construction a bundle uses. Both resolve to a
/// [`ProbeOrder`] — the single xorshift/Fisher–Yates source in the codebase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VictimPolicy {
    /// Flat pseudo-random order over all other threads (§3.1).
    Flat,
    /// Same-node victims first, classified by [`MachineModel::distance`]
    /// (§6.2's `bupc_thread_distance()` idea).
    Hier,
}

impl VictimPolicy {
    /// Short label for reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            VictimPolicy::Flat => "flat",
            VictimPolicy::Hier => "hier",
        }
    }

    /// Build this thread's probe-order generator.
    pub fn build(self, me: usize, n: usize, seed: u64, machine: &MachineModel) -> ProbeOrder {
        match self {
            VictimPolicy::Flat => ProbeOrder::flat(me, n, seed),
            VictimPolicy::Hier => ProbeOrder::hierarchical(me, n, seed, machine),
        }
    }
}

/// A thief's pause after a steal timeout, before it re-probes elsewhere
/// (`docs/faults.md`): 4 µs, doubling per consecutive timeout up to 512 µs,
/// back to 4 µs on a successful steal.
#[derive(Clone, Copy, Debug)]
pub struct TimeoutBackoff(u64);

impl Default for TimeoutBackoff {
    fn default() -> TimeoutBackoff {
        TimeoutBackoff(Self::MIN_NS)
    }
}

impl TimeoutBackoff {
    const MIN_NS: u64 = 4_000;
    const MAX_NS: u64 = 512_000;

    /// Sit out the current pause (charged to `res`), then double it.
    pub fn charge<T: Item, C: Comm<T>>(&mut self, comm: &mut C, res: &mut ThreadResult) {
        res.timeout_backoff_ns += self.0;
        comm.advance_idle(self.0);
        self.0 = (self.0 * 2).min(Self::MAX_NS);
    }
}

#[cfg(test)]
mod tests {
    use super::StealPolicyKind::{Adaptive, Half, One};

    #[test]
    fn all_policies_satisfy_the_contract() {
        for kind in [One, Half, Adaptive] {
            assert_eq!(kind.amount(0), 0, "amount(0) must be 0");
            for avail in 1..=64 {
                let a = kind.amount(avail);
                assert!(a >= 1, "nonzero surplus must grant at least one chunk");
                assert!(a <= avail, "cannot grant more than available");
            }
        }
    }

    #[test]
    fn one_takes_one_and_half_matches_the_paper_rule() {
        assert_eq!([1, 2, 7, 8].map(|a| One.amount(a)), [1; 4]);
        assert_eq!([1, 2, 7, 8].map(|a| Half.amount(a)), [1, 1, 3, 4]);
    }

    #[test]
    fn adaptive_has_three_regimes() {
        // Poor victims: one chunk, where half would take the same or more.
        assert_eq!(Adaptive.amount(1), 1);
        assert_eq!(Adaptive.amount(2), 1);
        // Middling: rapid diffusion.
        assert_eq!(Adaptive.amount(4), 2);
        assert_eq!(Adaptive.amount(7), 3);
        // Rich: three quarters — strictly more aggressive than half.
        assert_eq!(Adaptive.amount(8), 6);
        assert_eq!(Adaptive.amount(16), 12);
        assert!(Adaptive.amount(12) > Half.amount(12));
    }
}
