//! Deterministic open-loop arrival processes for service mode.
//!
//! Service mode (see `docs/service.md`) replaces the batch "one tree, run to
//! termination" shape with a stream of root-task *requests* injected at
//! virtual times drawn from a seeded arrival process. The schedule is
//! **precomputed** on the host from `(process, seed)` before any simulated
//! thread runs: the generator never touches a [`crate::Comm`] handle, so the
//! same [`ArrivalSpec`] yields the same `Vec<u64>` of arrival instants on
//! both the fiber and the reference conductor, and injection stays
//! bit-identical by construction.
//!
//! Two processes are provided:
//!
//! - [`ArrivalProcess::Poisson`]: memoryless arrivals at a fixed mean rate —
//!   the open-loop baseline (squared coefficient of variation of the
//!   inter-arrival times ≈ 1).
//! - [`ArrivalProcess::Mmpp`]: a two-state Markov-modulated Poisson process
//!   alternating between a quiet and a bursty rate with exponentially
//!   distributed dwell times — the classic bursty-traffic model (CV² > 1),
//!   which is what exposes tail-latency cliffs that a smooth Poisson stream
//!   hides.
//!
//! Floating point is used only inside this host-side precomputation (the
//! same precedent as the geometric sampling in the UTS tree spec); the
//! output instants are integer nanoseconds, which is all the simulator ever
//! sees.

/// The stochastic law generating inter-arrival times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_per_sec` requests per (virtual) second.
    Poisson {
        /// Mean arrival rate, requests per virtual second.
        rate_per_sec: f64,
    },
    /// Two-state Markov-modulated Poisson process: the instantaneous rate
    /// alternates between `rate_lo_per_sec` and `rate_hi_per_sec`, dwelling
    /// in each state for an exponentially distributed virtual time with mean
    /// `mean_dwell_ns`. Starts in the low state.
    Mmpp {
        /// Arrival rate in the quiet state, requests per virtual second.
        rate_lo_per_sec: f64,
        /// Arrival rate in the burst state, requests per virtual second.
        rate_hi_per_sec: f64,
        /// Mean dwell time in each state, virtual nanoseconds.
        mean_dwell_ns: u64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate in requests per virtual second (for MMPP
    /// the dwell times are symmetric, so the two states weigh equally).
    pub fn mean_rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Mmpp {
                rate_lo_per_sec,
                rate_hi_per_sec,
                ..
            } => 0.5 * (rate_lo_per_sec + rate_hi_per_sec),
        }
    }
}

/// A fully determined arrival schedule: process, seed, request count, and
/// the virtual instant of the first possible arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalSpec {
    /// The inter-arrival law.
    pub process: ArrivalProcess,
    /// Seed for the private hash-stream RNG (independent of every other
    /// seed in the system).
    pub seed: u64,
    /// Number of requests to generate.
    pub n_requests: usize,
    /// Virtual time of the schedule's origin; the first arrival falls one
    /// inter-arrival sample after this.
    pub start_ns: u64,
}

impl ArrivalSpec {
    /// A Poisson schedule with `n_requests` arrivals at `rate_per_sec`,
    /// starting at virtual time zero.
    pub fn poisson(seed: u64, n_requests: usize, rate_per_sec: f64) -> ArrivalSpec {
        ArrivalSpec {
            process: ArrivalProcess::Poisson { rate_per_sec },
            seed,
            n_requests,
            start_ns: 0,
        }
    }

    /// A two-state MMPP schedule starting at virtual time zero.
    pub fn mmpp(
        seed: u64,
        n_requests: usize,
        rate_lo_per_sec: f64,
        rate_hi_per_sec: f64,
        mean_dwell_ns: u64,
    ) -> ArrivalSpec {
        ArrivalSpec {
            process: ArrivalProcess::Mmpp {
                rate_lo_per_sec,
                rate_hi_per_sec,
                mean_dwell_ns,
            },
            seed,
            n_requests,
            start_ns: 0,
        }
    }

    /// Materialize the schedule: `n_requests` non-decreasing virtual arrival
    /// instants in nanoseconds. Pure function of the spec — see the module
    /// docs for why this guarantees conductor bit-identity.
    ///
    /// # Panics
    ///
    /// If any configured rate is not strictly positive and finite.
    pub fn schedule(&self) -> Vec<u64> {
        let check = |r: f64| {
            assert!(
                r.is_finite() && r > 0.0,
                "arrival rate must be positive and finite, got {r}"
            );
        };
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => check(rate_per_sec),
            ArrivalProcess::Mmpp {
                rate_lo_per_sec,
                rate_hi_per_sec,
                ..
            } => {
                check(rate_lo_per_sec);
                check(rate_hi_per_sec);
            }
        }

        let mut rng = HashStream::new(self.seed);
        let mut out = Vec::with_capacity(self.n_requests);
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                let mut t = self.start_ns as f64;
                for _ in 0..self.n_requests {
                    t += rng.exp_ns(rate_per_sec);
                    out.push(t.round() as u64);
                }
            }
            ArrivalProcess::Mmpp {
                rate_lo_per_sec,
                rate_hi_per_sec,
                mean_dwell_ns,
            } => {
                let dwell_rate = 1e9 / (mean_dwell_ns.max(1) as f64);
                let mut t = self.start_ns as f64;
                let mut high = false;
                let mut phase_end = t + rng.exp_ns(dwell_rate);
                for _ in 0..self.n_requests {
                    loop {
                        let rate = if high { rate_hi_per_sec } else { rate_lo_per_sec };
                        let dt = rng.exp_ns(rate);
                        if t + dt <= phase_end {
                            t += dt;
                            out.push(t.round() as u64);
                            break;
                        }
                        // No arrival before the phase boundary: jump to it,
                        // flip state, and resample (memorylessness makes the
                        // discarded residual exact, not an approximation).
                        t = phase_end;
                        high = !high;
                        phase_end = t + rng.exp_ns(dwell_rate);
                    }
                }
            }
        }
        out
    }
}

/// SplitMix64 counter-hash stream: `i`-th output is a pure function of
/// `(seed, i)`, so the schedule needs no mutable RNG state to reproduce.
pub(crate) struct HashStream {
    state: u64,
}

impl HashStream {
    pub(crate) fn new(seed: u64) -> HashStream {
        HashStream { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in the half-open interval (0, 1]: never zero, so the
    /// logarithm below is always finite.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-event time in nanoseconds for an event rate given
    /// in events per second. Clamped to at least 1 ns so arrivals are
    /// strictly ordered in integer virtual time at any sane rate.
    fn exp_ns(&mut self, rate_per_sec: f64) -> f64 {
        let dt = -self.unit().ln() * 1e9 / rate_per_sec;
        dt.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv2(times: &[u64]) -> f64 {
        let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        var / (mean * mean)
    }

    #[test]
    fn schedules_are_deterministic() {
        let spec = ArrivalSpec::poisson(7, 100, 50_000.0);
        assert_eq!(spec.schedule(), spec.schedule());
        let spec = ArrivalSpec::mmpp(7, 100, 10_000.0, 200_000.0, 500_000);
        assert_eq!(spec.schedule(), spec.schedule());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ArrivalSpec::poisson(1, 50, 50_000.0).schedule();
        let b = ArrivalSpec::poisson(2, 50, 50_000.0).schedule();
        assert_ne!(a, b);
    }

    #[test]
    fn schedules_are_monotone_and_offset_by_start() {
        for spec in [
            ArrivalSpec::poisson(3, 200, 100_000.0),
            ArrivalSpec::mmpp(3, 200, 20_000.0, 400_000.0, 200_000),
        ] {
            let s = spec.schedule();
            assert_eq!(s.len(), 200);
            assert!(s.windows(2).all(|w| w[0] <= w[1]), "monotone");
            assert!(s[0] >= spec.start_ns);
            let shifted = ArrivalSpec {
                start_ns: 1_000_000,
                ..spec
            }
            .schedule();
            assert!(shifted[0] >= 1_000_000);
        }
    }

    #[test]
    fn poisson_hits_its_mean_rate() {
        // 20k arrivals at 100k req/s: mean gap should be 10_000 ns ± a few %.
        let s = ArrivalSpec::poisson(11, 20_000, 100_000.0).schedule();
        let span = (s[s.len() - 1] - s[0]) as f64;
        let mean_gap = span / (s.len() - 1) as f64;
        assert!(
            (mean_gap - 10_000.0).abs() < 500.0,
            "mean gap {mean_gap} far from 10_000"
        );
        let c = cv2(&s);
        assert!(
            (c - 1.0).abs() < 0.15,
            "Poisson CV^2 should be ~1, got {c}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Strongly asymmetric rates with dwell long enough to see both
        // phases: inter-arrival CV^2 must exceed the memoryless value 1.
        let s = ArrivalSpec::mmpp(13, 20_000, 10_000.0, 500_000.0, 2_000_000).schedule();
        let c = cv2(&s);
        assert!(c > 1.5, "MMPP CV^2 should exceed 1, got {c}");
    }

    #[test]
    fn mean_rate_reports_the_long_run_average() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 5.0 };
        assert_eq!(p.mean_rate_per_sec(), 5.0);
        let m = ArrivalProcess::Mmpp {
            rate_lo_per_sec: 10.0,
            rate_hi_per_sec: 30.0,
            mean_dwell_ns: 100,
        };
        assert_eq!(m.mean_rate_per_sec(), 20.0);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        ArrivalSpec::poisson(1, 10, 0.0).schedule();
    }
}
