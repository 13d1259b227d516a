//! # mpisim — the message-passing substrate for the `mpi-ws` baseline
//!
//! The paper's §3.2 baseline ([Dinan et al., PMEO-PDS'07]) implements work
//! stealing with explicit messages: idle threads send steal requests,
//! working threads poll and reply with work or a denial, and global quiescence
//! is detected with a token circulating on a ring (the paper cites Dijkstra's
//! token algorithm \[9\]).
//!
//! This crate layers MPI-ish vocabulary over [`pgas::Comm`]'s mailboxes — so
//! the message costs come from the *same* [`pgas::MachineModel`] as the
//! one-sided costs, keeping the UPC-vs-MPI comparison fair — and provides
//! [`TokenRing`], a termination detector.
//!
//! ## Termination-detection substitution
//!
//! We implement the token ring with **message counting** (Mattern's
//! four-counter method) rather than Dijkstra-Feijen-van Gasteren colours:
//! each rank accumulates its cumulative work-messages-sent/received counts
//! into the circulating token, and rank 0 declares termination after two
//! consecutive rounds with identical, balanced totals. With asynchronous
//! message delivery (our mailboxes have real in-flight latency) the counting
//! variant is sound against the classic "work overtakes the token" race,
//! which the colour variant only handles under stronger assumptions. The
//! message pattern (one token hop per idle rank per round + a final
//! broadcast) — which is what the paper's performance results depend on —
//! is identical.

#![warn(missing_docs)]

use pgas::{Comm, Msg};

/// Reserved message tags. Applications must use non-negative tags.
pub mod tags {
    /// The termination token.
    pub const TOKEN: i64 = -100;
    /// Termination announcement broadcast by rank 0.
    pub const TERM: i64 = -101;
}

/// Items that can flow through rank mailboxes (re-export of the pgas bound).
pub use pgas::comm::Item;

/// Counting token-ring termination detector for one rank.
///
/// Usage: every time a rank is **idle** (no local work; it may still be
/// denying steal requests), call [`TokenRing::step`] with its cumulative
/// counts of *work-transfer* messages sent and received. The call returns
/// `true` once global termination is established — after that the rank may
/// exit. Ranks that are busy simply do not call `step`, which parks the
/// token at their mailbox until they go idle.
#[derive(Debug)]
pub struct TokenRing {
    me: usize,
    n: usize,
    /// Rank 0 bootstraps holding a fresh token.
    holding: Option<TokenState>,
    /// Rank 0: totals of the previously completed round.
    prev_round: Option<(i64, i64)>,
    /// Set once TERM has been observed/broadcast.
    terminated: bool,
    /// Number of ring rounds this rank has participated in (diagnostics).
    pub rounds: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenState {
    /// Rank 0's initial possession: no accumulated counts yet.
    Fresh,
    /// A token received from the predecessor with accumulated counts.
    Received { sent: i64, recv: i64 },
}

impl TokenRing {
    /// Create the detector for rank `me` of `n`.
    pub fn new(me: usize, n: usize) -> TokenRing {
        assert!(me < n);
        TokenRing {
            me,
            n,
            holding: (me == 0).then_some(TokenState::Fresh),
            prev_round: None,
            terminated: false,
            rounds: 0,
        }
    }

    /// Idle-time protocol step. `work_sent` / `work_recv` are this rank's
    /// *cumulative* counts of work-transfer messages. Returns `true` on
    /// global termination.
    pub fn step<T: Item, C: Comm<T>>(
        &mut self,
        comm: &mut C,
        work_sent: i64,
        work_recv: i64,
    ) -> bool {
        if self.terminated {
            return true;
        }
        // A solo rank that is idle is globally done.
        if self.n == 1 {
            self.terminated = true;
            return true;
        }
        // Termination announcement?
        if comm.try_recv(Some(tags::TERM)).is_some() {
            self.terminated = true;
            return true;
        }
        // Pick up a circulating token if one has arrived.
        if self.holding.is_none() {
            if let Some(msg) = comm.try_recv(Some(tags::TOKEN)) {
                self.holding = Some(TokenState::Received {
                    sent: msg.meta[0],
                    recv: msg.meta[1],
                });
            }
        }
        let Some(state) = self.holding else {
            return false;
        };

        if self.me != 0 {
            // Accumulate and forward.
            let TokenState::Received { sent, recv } = state else {
                unreachable!("only rank 0 holds a fresh token");
            };
            let next = (self.me + 1) % self.n;
            comm.send(
                next,
                tags::TOKEN,
                [sent + work_sent, recv + work_recv, 0, 0],
                &[],
            );
            self.holding = None;
            self.rounds += 1;
            return false;
        }

        // Rank 0.
        if let TokenState::Received { sent, recv } = state {
            // A round just completed; `sent`/`recv` include every other
            // rank's counts at visit time. Add our own as of *now*.
            let totals = (sent + work_sent, recv + work_recv);
            self.rounds += 1;
            if totals.0 == totals.1 && self.prev_round == Some(totals) {
                // Two consecutive identical, balanced rounds: every rank was
                // idle at both visits and no work message was sent, received,
                // or in flight in between. Announce termination.
                for r in 1..self.n {
                    comm.send(r, tags::TERM, [0; 4], &[]);
                }
                self.terminated = true;
                return true;
            }
            self.prev_round = Some(totals);
        }
        // Launch the next round. Rank 0's own counts are folded in when the
        // token returns (folding them here too would double-count them).
        comm.send(1, tags::TOKEN, [0, 0, 0, 0], &[]);
        self.holding = None;
        false
    }
}

/// Drain and discard any late protocol messages (steal requests that raced
/// with termination, stray tokens). Call after termination before shutdown
/// assertions.
pub fn drain_mailbox<T: Item, C: Comm<T>>(comm: &mut C) -> Vec<Msg<T>> {
    let mut leftovers = Vec::new();
    while let Some(m) = comm.try_recv(None) {
        leftovers.push(m);
    }
    leftovers
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::sim::SimCluster;
    use pgas::{MachineModel, SpaceConfig};

    fn cluster(n: usize) -> SimCluster<u64> {
        SimCluster::new(MachineModel::kittyhawk(), n, SpaceConfig::default())
    }

    /// All ranks idle from the start, no messages: termination must be
    /// detected by everyone, quickly.
    #[test]
    fn immediate_quiescence() {
        let n = 8;
        let report = cluster(n).run(|c| {
            let mut ring = TokenRing::new(c.my_id(), n);
            let mut steps = 0u64;
            while !ring.step(c, 0, 0) {
                c.poll();
                steps += 1;
                assert!(steps < 100_000, "termination not detected");
            }
            steps
        });
        assert_eq!(report.results.len(), n);
    }

    #[test]
    fn solo_rank_terminates_instantly() {
        let report = cluster(1).run(|c| {
            let mut ring = TokenRing::new(0, 1);
            ring.step(c, 0, 0)
        });
        assert!(report.results[0]);
    }

    /// A work message in flight must block termination until received.
    /// Rank 1 sends one work message to rank 2 and then goes idle; rank 2
    /// stays "busy" (not stepping the ring) until the message arrives.
    #[test]
    fn in_flight_work_blocks_termination() {
        let n = 4;
        const WORK: i64 = 5;
        let report = cluster(n).run(|c| {
            let me = c.my_id();
            let mut ring = TokenRing::new(me, n);
            let mut sent = 0i64;
            let mut recv = 0i64;
            if me == 1 {
                c.send(2, WORK, [0; 4], &[99u64]);
                sent = 1;
            }
            if me == 2 {
                // Busy until the work arrives: do not touch the ring.
                while c.try_recv(Some(WORK)).is_none() {
                    c.poll();
                }
                recv = 1;
            }
            let mut steps = 0u64;
            while !ring.step(c, sent, recv) {
                c.poll();
                steps += 1;
                assert!(steps < 200_000, "termination not detected");
            }
            (sent, recv)
        });
        // The run completing at all proves soundness here: rank 2 only joins
        // the ring after receiving the in-flight work, and rank 0 cannot
        // assemble two identical balanced rounds before that.
        assert_eq!(report.results[2], (0, 1));
    }

    /// Unbalanced counts (receiver never acknowledges participation) must
    /// never produce termination; conversely once balanced it must.
    #[test]
    fn counts_must_balance() {
        let n = 3;
        let report = cluster(n).run(|c| {
            let me = c.my_id();
            let mut ring = TokenRing::new(me, n);
            // Pretend rank 0 sent one work message that rank 1 received:
            // totals balance, so termination proceeds.
            let (s, r) = match me {
                0 => (1, 0),
                1 => (0, 1),
                _ => (0, 0),
            };
            let mut steps = 0u64;
            while !ring.step(c, s, r) {
                c.poll();
                steps += 1;
                assert!(steps < 100_000);
            }
            ring.rounds
        });
        // Rank 0 needs at least: one bootstrap round, then two identical
        // balanced rounds.
        assert!(report.results[0] >= 2);
    }

    /// Late steal requests sitting in mailboxes after termination are
    /// drainable and do not disturb the protocol.
    #[test]
    fn drain_leftovers() {
        let n = 2;
        const REQ: i64 = 7;
        let report = cluster(n).run(|c| {
            let me = c.my_id();
            let mut ring = TokenRing::new(me, n);
            if me == 1 {
                // A request that rank 0 will never answer.
                c.send(0, REQ, [0; 4], &[]);
            }
            while !ring.step(c, 0, 0) {
                c.poll();
            }
            drain_mailbox(c).len()
        });
        // Rank 0 drains the stray request (and possibly a stale token).
        assert!(report.results[0] >= 1);
    }

    /// The token makes progress even when ranks interleave busy periods.
    #[test]
    fn staggered_idleness_terminates() {
        let n = 6;
        let report = cluster(n).run(|c| {
            let me = c.my_id();
            let mut ring = TokenRing::new(me, n);
            // Each rank burns a different amount of virtual work first.
            c.work((me as u64 + 1) * 1000);
            let mut steps = 0u64;
            while !ring.step(c, 0, 0) {
                c.poll();
                steps += 1;
                assert!(steps < 200_000);
            }
            true
        });
        assert!(report.results.iter().all(|&t| t));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use pgas::sim::SimCluster;
    use pgas::{Comm, MachineModel, SpaceConfig};

    /// A busy rank parks the token: no ring progress (and no termination)
    /// until it goes idle and steps.
    #[test]
    fn token_parks_at_busy_rank() {
        let n = 3;
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::smp(), n, SpaceConfig::default());
        let report = cluster.run(|c| {
            let me = c.my_id();
            let mut ring = TokenRing::new(me, n);
            if me == 1 {
                // Busy for a long virtual while; the token waits in our
                // mailbox untouched. (Kept short: the idle ranks burn one
                // conductor op per poll while they wait.)
                c.work(100_000);
            }
            let t_start = c.now();
            while !ring.step(c, 0, 0) {
                c.poll();
            }
            (t_start, c.now())
        });
        // Nobody can terminate before rank 1's busy period ends.
        let busy_end = report.results[1].0;
        for (t, &(_, done)) in report.results.iter().enumerate() {
            assert!(done >= busy_end, "rank {t} terminated during the busy period");
        }
    }

    /// Termination latches: step stays true afterwards.
    #[test]
    fn termination_latches() {
        let cluster: SimCluster<u64> =
            SimCluster::new(MachineModel::smp(), 2, SpaceConfig::default());
        let report = cluster.run(|c| {
            let mut ring = TokenRing::new(c.my_id(), 2);
            while !ring.step(c, 0, 0) {
                c.poll();
            }
            // Further steps are idempotent.
            assert!(ring.step(c, 0, 0));
            ring.rounds
        });
        // Rank 0 needed at least two completed rounds to declare.
        assert!(report.results[0] >= 2, "{:?}", report.results);
    }

    #[test]
    #[should_panic]
    fn rank_out_of_range_panics() {
        let _ = TokenRing::new(4, 4);
    }
}
