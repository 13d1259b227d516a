//! Event tracing and post-run analysis.
//!
//! When [`crate::RunConfig::trace`] is set, every worker records its state
//! transitions and steal protocol events with virtual timestamps. The
//! analyses here turn those logs into the quantities the paper reasons
//! about qualitatively:
//!
//! - **Work diffusion** (§3.3.2): how quickly work reaches idle threads
//!   after the start of the run — the whole point of steal-half. Measured
//!   as the time by which 50% / 90% / 100% of threads first held work.
//! - **Steal topology**: who stole from whom (and, with a machine model,
//!   how much of the traffic stayed on-node — the §6.2 `upc-hier` motive).
//! - **Timelines**: an ASCII Gantt chart of the Figure-1 states per thread.

use crate::state::State;

/// One traced event (timestamps are `Comm::now()` nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Entered a Figure-1 state.
    Enter {
        /// Time of the transition.
        t_ns: u64,
        /// New state.
        state: State,
    },
    /// A successful steal: we obtained `chunks` chunks from `victim`.
    StealOk {
        /// Completion time.
        t_ns: u64,
        /// The thread robbed.
        victim: usize,
        /// Chunks transferred.
        chunks: u64,
    },
    /// A failed steal attempt against `victim`.
    StealFail {
        /// Failure time.
        t_ns: u64,
        /// The targeted thread.
        victim: usize,
    },
    /// Released one chunk from local to shared region.
    Release {
        /// Release time.
        t_ns: u64,
    },
    /// A steal request timed out awaiting `victim`'s response (fault
    /// hardening; see `docs/faults.md`).
    StealTimeout {
        /// Expiry time.
        t_ns: u64,
        /// The unresponsive victim.
        victim: usize,
    },
    /// Outcome of the timeout retract against `victim`.
    Retract {
        /// Retract time.
        t_ns: u64,
        /// The abandoned victim.
        victim: usize,
        /// `true`: the request was withdrawn before the victim saw it.
        /// `false`: the victim's response had already landed and was
        /// consumed instead.
        won: bool,
    },
    /// This rank's scheduled crash fired: it spilled `items` nodes and died
    /// (crash-fault runs only; see `docs/faults.md`).
    Death {
        /// Time of death.
        t_ns: u64,
        /// Nodes published in the spill.
        items: u64,
    },
    /// This rank adopted a dead rank's orphaned spill.
    Adopt {
        /// Adoption time.
        t_ns: u64,
        /// The dead rank whose spill was recovered.
        dead: usize,
        /// Nodes recovered.
        items: u64,
    },
    /// A donor re-injected an unacknowledged lineage grant (lost message or
    /// dead thief).
    Reinject {
        /// Re-injection time.
        t_ns: u64,
        /// Nodes pushed back onto the donor's own stack.
        items: u64,
    },
    /// This rank executed a quorum eviction (its vote completed the quorum)
    /// and ran the scavenge pass over the victim's shared region
    /// (docs/faults.md §8).
    Evict {
        /// Time the scavenge pass completed.
        t_ns: u64,
        /// The evicted rank.
        victim: usize,
        /// Nodes scavenged from the victim's shared region.
        items: u64,
    },
    /// Ready tasks whose home is this rank arrived from the rank that made
    /// them ready (`crate::sched::placement`).
    HandOff {
        /// Time they were taken onto the stack.
        t_ns: u64,
        /// The sender.
        from: usize,
        /// Tasks in the hand-off.
        items: u64,
    },
    /// This rank re-entered the membership as a new incarnation (after
    /// observing its own eviction fence, or restarting after a kill).
    Rejoin {
        /// Rejoin time.
        t_ns: u64,
        /// The new incarnation number.
        incarnation: i64,
        /// Spill items self-adopted on a post-kill restart (0 on a fence
        /// rejoin — the folded work was never spilled).
        items: u64,
    },
}

/// Per-thread event recorder. When disabled (the default) every call is a
/// no-op and no memory is touched, keeping the hot path clean.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    enabled: bool,
    events: Vec<Event>,
}

impl TraceLog {
    /// A recorder; pass `enabled = false` for a no-op log.
    pub fn new(enabled: bool) -> TraceLog {
        TraceLog {
            enabled,
            events: Vec::new(),
        }
    }

    /// Record `event` — the one way into the log.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Consume the log.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

/// Work-diffusion summary over all threads.
#[derive(Clone, Debug, PartialEq)]
pub struct Diffusion {
    /// For each thread, the first time it held work (`None` if it never
    /// worked: possible when threads outnumber chunks).
    pub first_work_ns: Vec<Option<u64>>,
    /// Time by which half the threads had worked.
    pub t50_ns: Option<u64>,
    /// Time by which 90% of the threads had worked.
    pub t90_ns: Option<u64>,
    /// Time by which every thread had worked.
    pub t100_ns: Option<u64>,
}

/// Compute diffusion times from per-thread event logs.
///
/// A thread "has work" at its first `Enter { state: Working }` *with actual
/// exploration following* — thread 0 starts Working by construction, other
/// threads enter Working only after a successful steal,
/// so the first Working entry after a `StealOk` is the arrival of work. For
/// thread 0 the run start (its first Working entry) counts.
pub fn diffusion(per_thread: &[Vec<Event>]) -> Diffusion {
    let n = per_thread.len();
    let mut first_work_ns: Vec<Option<u64>> = vec![None; n];
    for (t, events) in per_thread.iter().enumerate() {
        let mut stole = t == 0; // thread 0 is born with the root
        for e in events {
            match e {
                Event::StealOk { t_ns, .. } => {
                    stole = true;
                    if first_work_ns[t].is_none() {
                        // Work is in hand the moment the transfer completes.
                        first_work_ns[t] = Some(*t_ns);
                    }
                }
                Event::Enter {
                    t_ns,
                    state: State::Working,
                } if stole && first_work_ns[t].is_none() => {
                    first_work_ns[t] = Some(*t_ns);
                }
                _ => {}
            }
        }
    }
    let mut times: Vec<u64> = first_work_ns.iter().flatten().copied().collect();
    times.sort_unstable();
    let q = |frac: f64| -> Option<u64> {
        let need = (n as f64 * frac).ceil() as usize;
        (times.len() >= need && need > 0).then(|| times[need - 1])
    };
    Diffusion {
        t50_ns: q(0.5),
        t90_ns: q(0.9),
        t100_ns: q(1.0),
        first_work_ns,
    }
}

/// Steal topology: counts of successful steals between thread pairs.
#[derive(Clone, Debug)]
pub struct StealMatrix {
    n: usize,
    /// `counts[thief * n + victim]`.
    counts: Vec<u64>,
}

impl StealMatrix {
    /// Number of threads.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Build from per-thread logs.
    pub fn new(per_thread: &[Vec<Event>]) -> StealMatrix {
        let n = per_thread.len();
        let mut counts = vec![0u64; n * n];
        for (thief, events) in per_thread.iter().enumerate() {
            for e in events {
                if let Event::StealOk { victim, .. } = e {
                    counts[thief * n + victim] += 1;
                }
            }
        }
        StealMatrix { n, counts }
    }

    /// Steals from `victim` by `thief`.
    pub fn get(&self, thief: usize, victim: usize) -> u64 {
        self.counts[thief * self.n + victim]
    }

    /// Total successful steals.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of steals whose thief and victim share a compute node of
    /// `threads_per_node` threads (the §6.2 locality metric).
    pub fn same_node_fraction(&self, threads_per_node: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut same = 0u64;
        for thief in 0..self.n {
            for victim in 0..self.n {
                if threads_per_node == usize::MAX
                    || thief / threads_per_node == victim / threads_per_node
                {
                    same += self.get(thief, victim);
                }
            }
        }
        same as f64 / total as f64
    }

    /// Number of distinct threads that were ever robbed — the "work
    /// sources" count the §3.3.2 diffusion argument is about.
    pub fn distinct_victims(&self) -> usize {
        (0..self.n)
            .filter(|&v| (0..self.n).any(|t| self.get(t, v) > 0))
            .count()
    }
}

/// Render per-thread timelines as an ASCII Gantt chart: one row per thread,
/// `width` buckets across `[0, makespan_ns]`, the dominant state per bucket
/// drawn as `W`/`s`/`x`/`t` (working / searching / stealing / terminating),
/// `.` for pre-first-event time.
pub fn render_timeline(per_thread: &[Vec<Event>], makespan_ns: u64, width: usize) -> String {
    let mut out = String::new();
    for (t, events) in per_thread.iter().enumerate() {
        let mut row = vec!['.'; width];
        // Build (start, state) segments from Enter events.
        let mut segs: Vec<(u64, State)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Enter { t_ns, state } => Some((*t_ns, *state)),
                _ => None,
            })
            .collect();
        segs.sort_by_key(|(t, _)| *t);
        for (i, (start, state)) in segs.iter().enumerate() {
            let end = segs.get(i + 1).map(|(t, _)| *t).unwrap_or(makespan_ns);
            if makespan_ns == 0 {
                continue;
            }
            let b0 = (*start as u128 * width as u128 / makespan_ns as u128) as usize;
            let b1 = (end as u128 * width as u128 / makespan_ns as u128) as usize;
            let ch = match state {
                State::Working => 'W',
                State::Searching => 's',
                State::Stealing => 'x',
                State::Terminating => 't',
            };
            for cell in row.iter_mut().take(b1.min(width).max(b0 + 1)).skip(b0) {
                *cell = ch;
            }
        }
        out.push_str(&format!("{t:>4} |"));
        out.extend(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(t_ns: u64, state: State) -> Event {
        Event::Enter { t_ns, state }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new(false);
        log.emit(enter(0, State::Working));
        log.emit(Event::StealOk { t_ns: 5, victim: 1, chunks: 2 });
        log.emit(Event::Release { t_ns: 9 });
        assert!(log.into_events().is_empty());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = TraceLog::new(true);
        log.emit(enter(0, State::Working));
        log.emit(Event::StealFail { t_ns: 4, victim: 3 });
        log.emit(Event::StealOk { t_ns: 7, victim: 2, chunks: 1 });
        let events = log.into_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], Event::StealOk { t_ns: 7, victim: 2, chunks: 1 });
    }

    #[test]
    fn diffusion_thread0_at_start() {
        let logs = vec![
            vec![enter(0, State::Working)],
            vec![
                enter(0, State::Searching),
                Event::StealOk { t_ns: 100, victim: 0, chunks: 1 },
                enter(110, State::Working),
            ],
        ];
        let d = diffusion(&logs);
        assert_eq!(d.first_work_ns[0], Some(0));
        assert_eq!(d.first_work_ns[1], Some(100));
        assert_eq!(d.t100_ns, Some(100));
        assert_eq!(d.t50_ns, Some(0));
    }

    #[test]
    fn diffusion_with_starved_thread() {
        let logs = vec![
            vec![enter(0, State::Working)],
            vec![enter(0, State::Searching)], // never worked
        ];
        let d = diffusion(&logs);
        assert_eq!(d.first_work_ns[1], None);
        assert_eq!(d.t100_ns, None, "t100 undefined when a thread starves");
        assert_eq!(d.t50_ns, Some(0));
    }

    #[test]
    fn steal_matrix_counts_and_locality() {
        let logs = vec![
            vec![],
            vec![
                Event::StealOk { t_ns: 1, victim: 0, chunks: 1 },
                Event::StealOk { t_ns: 2, victim: 0, chunks: 2 },
            ],
            vec![Event::StealOk { t_ns: 3, victim: 1, chunks: 1 }],
            vec![Event::StealOk { t_ns: 4, victim: 0, chunks: 1 }],
        ];
        let m = StealMatrix::new(&logs);
        assert_eq!(m.get(1, 0), 2);
        assert_eq!(m.get(2, 1), 1);
        assert_eq!(m.total(), 4);
        assert_eq!(m.distinct_victims(), 2);
        // Nodes of 2 threads: {0,1} and {2,3}. Same-node steals: 1→0, 2→1? no
        // (2 is on node 1, 1 on node 0) → only the two 1→0 steals count.
        assert!((m.same_node_fraction(2) - 0.5).abs() < 1e-12);
        // One big node: everything is local.
        assert!((m.same_node_fraction(usize::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_renders_rows() {
        let logs = vec![
            vec![enter(0, State::Working), enter(50, State::Searching)],
            vec![enter(0, State::Searching), enter(50, State::Working)],
        ];
        let s = render_timeline(&logs, 100, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('W'));
        assert!(lines[0].contains('s'));
        assert!(lines[1].ends_with('W') || lines[1].contains('W'));
    }

    #[test]
    fn timeline_zero_makespan_is_safe() {
        let logs = vec![vec![enter(0, State::Working)]];
        let s = render_timeline(&logs, 0, 8);
        assert_eq!(s.lines().count(), 1);
    }
}
