//! Named policy bundles: each [`Algorithm`] variant resolved to a concrete
//! (victim, steal, termination, transport) quadruple, and the dispatcher
//! that instantiates the generic driver for it.
//!
//! | [`Algorithm`] | victims | steal | termination | transport |
//! |---------------|---------|-------|-------------|-----------|
//! | `SharedMem`   | flat    | one   | cancelable  | locked    |
//! | `Term`        | flat    | one   | streamlined | locked    |
//! | `TermRapdif`  | flat    | half  | streamlined | locked    |
//! | `DistMem`     | flat    | half  | streamlined | distmem   |
//! | `Hier`        | hier    | half  | streamlined | distmem   |
//! | `MpiWs`       | flat    | one   | token ring  | mpi-msg   |
//!
//! [`RunConfig::victim_policy`] and [`RunConfig::steal_policy`] override the
//! bundle's victim/steal axes, which is how non-paper combinations
//! (hierarchical victims on the locked transport, adaptive steal on
//! distmem) are expressed — see `docs/policies.md`.

use pgas::Comm;

use crate::config::{Algorithm, RunConfig};
use crate::distmem::DistMemTransport;
use crate::locked::LockedTransport;
use crate::mpi_ws::MpiTransport;
use crate::report::ThreadResult;
use crate::taskgen::TaskGen;

use super::policy::{StealPolicyKind, VictimPolicy};
use super::termination::{CancelableTerm, RingTerm, StreamlinedTerm, TerminationDetector};
use super::drive;

/// Which termination detector a bundle uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TerminationKind {
    /// §3.1 cancelable barrier ([`CancelableTerm`]).
    Cancelable,
    /// §3.3.1 streamlined tri-state barrier ([`StreamlinedTerm`]).
    Streamlined,
    /// §3.2 counting token ring ([`RingTerm`]).
    TokenRing,
}

/// Which steal transport a bundle runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// §3.1 lock-protected shared stack region ([`LockedTransport`]).
    Locked,
    /// §3.3.3 lock-less CAS request/response protocol ([`DistMemTransport`]).
    DistMem,
    /// §3.2 two-sided message exchange ([`MpiTransport`]).
    MpiMsg,
}

/// A fully resolved policy quadruple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BundleSpec {
    /// Victim-order policy.
    pub victims: VictimPolicy,
    /// Steal-amount policy.
    pub steal: StealPolicyKind,
    /// Termination detector.
    pub termination: TerminationKind,
    /// Steal transport.
    pub transport: TransportKind,
}

impl Algorithm {
    /// The policy bundle this algorithm names (see the module table).
    pub fn bundle(self) -> BundleSpec {
        let (victims, steal, termination, transport) = match self {
            Algorithm::SharedMem => (
                VictimPolicy::Flat,
                StealPolicyKind::One,
                TerminationKind::Cancelable,
                TransportKind::Locked,
            ),
            Algorithm::Term => (
                VictimPolicy::Flat,
                StealPolicyKind::One,
                TerminationKind::Streamlined,
                TransportKind::Locked,
            ),
            Algorithm::TermRapdif => (
                VictimPolicy::Flat,
                StealPolicyKind::Half,
                TerminationKind::Streamlined,
                TransportKind::Locked,
            ),
            Algorithm::DistMem => (
                VictimPolicy::Flat,
                StealPolicyKind::Half,
                TerminationKind::Streamlined,
                TransportKind::DistMem,
            ),
            Algorithm::Hier => (
                VictimPolicy::Hier,
                StealPolicyKind::Half,
                TerminationKind::Streamlined,
                TransportKind::DistMem,
            ),
            Algorithm::MpiWs => (
                VictimPolicy::Flat,
                StealPolicyKind::One,
                TerminationKind::TokenRing,
                TransportKind::MpiMsg,
            ),
        };
        BundleSpec {
            victims,
            steal,
            termination,
            transport,
        }
    }
}

impl RunConfig {
    /// The effective bundle for this run: the algorithm's named bundle with
    /// any [`RunConfig::victim_policy`] / [`RunConfig::steal_policy`]
    /// overrides applied.
    pub fn bundle(&self) -> BundleSpec {
        let mut spec = self.algorithm.bundle();
        if let Some(v) = self.victim_policy {
            spec.victims = v;
        }
        if let Some(s) = self.steal_policy {
            spec.steal = s;
        }
        spec
    }
}

/// Virtual-time steal timeout auto-armed under crash-fault plans when the
/// config leaves [`RunConfig::steal_timeout_ns`] unset: a thief waiting on a
/// rank that died mid-request must eventually retract and re-probe, so the
/// paper's wait-forever default would hang.
pub const CRASH_STEAL_TIMEOUT_NS: u64 = 50_000;

/// The one place the three transports are constructed: run the generic
/// driver with detector `td` over the transport (and with the victim order)
/// `cfg`'s bundle names. Batch mode passes the bundle's paper detector
/// ([`run_bundle`]), service mode its epoch detector ([`crate::service`]).
pub(crate) fn drive_over<G, C, TD>(comm: &mut C, gen: &G, cfg: &RunConfig, td: TD) -> ThreadResult
where
    G: TaskGen,
    C: Comm<G::Task>,
    TD: TerminationDetector<G::Task, C>,
{
    let spec = cfg.bundle();
    let victims = spec.victims.build(comm.my_id(), comm.n_threads(), cfg.seed, comm.machine());
    let sp = spec.steal;
    match spec.transport {
        TransportKind::Locked => drive(comm, gen, cfg, LockedTransport::new(sp), td, victims),
        TransportKind::DistMem => drive(comm, gen, cfg, DistMemTransport::new(sp), td, victims),
        TransportKind::MpiMsg => drive(comm, gen, cfg, MpiTransport::new(sp), td, victims),
    }
}

/// Resolve `cfg`'s policy bundle and run the generic driver with it.
///
/// Under a crash-fault plan ([`pgas::FaultPlan::crash_active`]) an unset
/// [`RunConfig::steal_timeout_ns`] is auto-armed to
/// [`CRASH_STEAL_TIMEOUT_NS`] so no thief waits forever on a dead victim;
/// fault-free configs are passed through untouched.
///
/// Panics on a bundle whose termination detector cannot run over its
/// transport: the barriers need the shared `work_avail`/barrier cells the
/// message transport never publishes, and the counting ring needs
/// transfer-message counts the shared-region transports never produce.
pub fn run_bundle<G, C>(comm: &mut C, gen: &G, cfg: &RunConfig) -> ThreadResult
where
    G: TaskGen,
    C: Comm<G::Task>,
{
    let mut armed = *cfg;
    if armed.faults.crash_active() && armed.steal_timeout_ns.is_none() {
        armed.steal_timeout_ns = Some(CRASH_STEAL_TIMEOUT_NS);
    }
    let cfg = &armed;
    let spec = cfg.bundle();
    let messages = spec.transport == TransportKind::MpiMsg;
    assert!(
        messages == (spec.termination == TerminationKind::TokenRing),
        "unsupported policy bundle: {:?} termination cannot run over the {:?} transport",
        spec.termination,
        spec.transport
    );
    match spec.termination {
        TerminationKind::Cancelable => drive_over(comm, gen, cfg, CancelableTerm),
        TerminationKind::Streamlined => drive_over(comm, gen, cfg, StreamlinedTerm),
        TerminationKind::TokenRing => {
            let ring = RingTerm::new(comm.my_id(), comm.n_threads());
            drive_over(comm, gen, cfg, ring)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The policy-bundle equivalence test from the issue: each `Algorithm`
    /// maps to exactly the bundle the paper's refinement chain prescribes.
    #[test]
    fn algorithms_map_to_expected_bundles() {
        use StealPolicyKind as S;
        use TerminationKind as D;
        use TransportKind as T;
        use VictimPolicy as V;
        let expect = [
            (Algorithm::SharedMem, V::Flat, S::One, D::Cancelable, T::Locked),
            (Algorithm::Term, V::Flat, S::One, D::Streamlined, T::Locked),
            (Algorithm::TermRapdif, V::Flat, S::Half, D::Streamlined, T::Locked),
            (Algorithm::DistMem, V::Flat, S::Half, D::Streamlined, T::DistMem),
            (Algorithm::Hier, V::Hier, S::Half, D::Streamlined, T::DistMem),
            (Algorithm::MpiWs, V::Flat, S::One, D::TokenRing, T::MpiMsg),
        ];
        for (alg, v, s, d, t) in expect {
            let b = alg.bundle();
            assert_eq!(b.victims, v, "{}", alg.label());
            assert_eq!(b.steal, s, "{}", alg.label());
            assert_eq!(b.termination, d, "{}", alg.label());
            assert_eq!(b.transport, t, "{}", alg.label());
        }
    }

    #[test]
    fn config_overrides_replace_bundle_axes() {
        let mut cfg = RunConfig::new(Algorithm::TermRapdif, 4);
        assert_eq!(cfg.bundle(), Algorithm::TermRapdif.bundle());
        cfg.victim_policy = Some(VictimPolicy::Hier);
        cfg.steal_policy = Some(StealPolicyKind::Adaptive);
        let b = cfg.bundle();
        assert_eq!(b.victims, VictimPolicy::Hier);
        assert_eq!(b.steal, StealPolicyKind::Adaptive);
        // The structural axes are not overridable.
        assert_eq!(b.termination, TerminationKind::Streamlined);
        assert_eq!(b.transport, TransportKind::Locked);
    }
}
