//! Spans around every call into a layer, kept in memory and written at exit.
//!
//! A span is a name, a start, an end and the span that caused it; all spans
//! of one process share the workload name as their identifier. Self time is
//! a span's duration minus what its children cover. The file format is the
//! Chrome trace-event JSON that Perfetto and `chrome://tracing` open: host
//! spans live in process 0, and a sim workload's per-rank virtual-time
//! states and steal arrows (folded from `ThreadResult::events`) in process 1.

use std::time::Instant;

use uts_dlb::worksteal::trace::Event;

use crate::json::Json;

/// One recorded host span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.cluster_run`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans nest by call order: a span opened while
/// another is open is its child.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now. Disabled, it still times what it
    /// wraps but records nothing: the untraced pass runs with tracing off.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; returns `f`'s value and the
    /// span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (
            r,
            (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9,
        )
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Total self time of all spans whose name starts with `prefix`, in
    /// seconds — "where did the host time go", by layer.
    pub fn self_seconds_of(&self, prefix: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum::<u64>() as f64
            / 1e9
    }
}

/// A state interval or steal arrow on the virtual clock of one rank.
#[derive(Clone, Debug, PartialEq)]
pub enum VirtEvent {
    /// `rank` was in `state` during `[start_ns, end_ns)`.
    State {
        rank: usize,
        state: &'static str,
        start_ns: u64,
        end_ns: u64,
    },
    /// `thief` completed a steal of `chunks` chunks from `victim` at `t_ns`.
    Steal {
        thief: usize,
        victim: usize,
        chunks: u64,
        t_ns: u64,
    },
}

impl VirtEvent {
    fn t(&self) -> u64 {
        match self {
            VirtEvent::State { start_ns, .. } => *start_ns,
            VirtEvent::Steal { t_ns, .. } => *t_ns,
        }
    }
}

/// Fold the scheduler's per-rank event logs into state intervals and steal
/// arrows, ordered by virtual time. Event kinds this benchmark does not draw
/// (releases, fault handling) are skipped, so new kinds cannot break it.
pub fn fold_virtual(logs: &[&[Event]], makespan_ns: u64) -> Vec<VirtEvent> {
    let mut out = Vec::new();
    for (rank, log) in logs.iter().enumerate() {
        let mut current: Option<(&'static str, u64)> = None;
        for ev in *log {
            match *ev {
                Event::Enter { t_ns, state } => {
                    let name = state_name(state);
                    match current {
                        Some((cur, _)) if cur == name => {}
                        Some((cur, since)) => {
                            out.push(VirtEvent::State {
                                rank,
                                state: cur,
                                start_ns: since,
                                end_ns: t_ns,
                            });
                            current = Some((name, t_ns));
                        }
                        None => current = Some((name, t_ns)),
                    }
                }
                Event::StealOk {
                    t_ns,
                    victim,
                    chunks,
                } => {
                    out.push(VirtEvent::Steal {
                        thief: rank,
                        victim,
                        chunks,
                        t_ns,
                    });
                }
                _ => {}
            }
        }
        if let Some((cur, since)) = current {
            out.push(VirtEvent::State {
                rank,
                state: cur,
                start_ns: since,
                end_ns: makespan_ns.max(since),
            });
        }
    }
    out.sort_by_key(VirtEvent::t);
    out
}

fn state_name(s: uts_dlb::worksteal::state::State) -> &'static str {
    use uts_dlb::worksteal::state::State;
    // the catch-all keeps the benchmark building if a state is ever added
    #[allow(unreachable_patterns)]
    match s {
        State::Working => "working",
        State::Searching => "searching",
        State::Stealing => "stealing",
        State::Terminating => "terminating",
        _ => "other",
    }
}

/// Render host spans plus at most `virt_cap` virtual events (the earliest —
/// the work-diffusion phase) as a Chrome trace-event document.
pub fn trace_document(
    workload: &str,
    tracer: &Tracer,
    virt: &[VirtEvent],
    virt_cap: usize,
) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let own = tracer.self_ns();
    let mut events = vec![
        meta_event("process_name", 0, "host wall-clock"),
        meta_event("process_name", 1, "virtual time, one thread per rank"),
    ];
    for (id, (s, own_ns)) in tracer.spans().iter().zip(&own).enumerate() {
        events.push(Json::obj([
            ("name", Json::str(&s.name)),
            ("ph", Json::str("X")),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(0.0)),
            ("ts", us(s.start_ns)),
            ("dur", us(s.end_ns.saturating_sub(s.start_ns))),
            (
                "args",
                Json::obj([
                    ("span", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload", Json::str(workload)),
                    ("self_us", us(*own_ns)),
                ]),
            ),
        ]));
    }
    for (i, ev) in virt.iter().take(virt_cap).enumerate() {
        match ev {
            VirtEvent::State {
                rank,
                state,
                start_ns,
                end_ns,
            } => events.push(Json::obj([
                ("name", Json::str(*state)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(*rank as f64)),
                ("ts", us(*start_ns)),
                ("dur", us(end_ns - start_ns)),
            ])),
            VirtEvent::Steal {
                thief,
                victim,
                chunks,
                t_ns,
            } => {
                // a flow arrow from the victim's row to the thief's
                for (ph, tid) in [("s", victim), ("f", thief)] {
                    events.push(Json::obj([
                        ("name", Json::str("steal")),
                        ("cat", Json::str("steal")),
                        ("ph", Json::str(ph)),
                        ("bp", Json::str("e")),
                        ("id", Json::Num(i as f64)),
                        ("pid", Json::Num(1.0)),
                        ("tid", Json::Num(*tid as f64)),
                        ("ts", us(*t_ns)),
                        ("args", Json::obj([("chunks", Json::Num(*chunks as f64))])),
                    ]));
                }
            }
        }
    }
    Json::obj([
        ("workload", Json::str(workload)),
        ("displayTimeUnit", Json::str("ns")),
        ("virt_events_total", Json::Num(virt.len() as f64)),
        (
            "virt_events_written",
            Json::Num(virt.len().min(virt_cap) as f64),
        ),
        ("traceEvents", Json::Arr(events)),
    ])
}

fn meta_event(name: &str, pid: u32, label: &str) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("M")),
        ("pid", Json::Num(f64::from(pid))),
        ("args", Json::obj([("name", Json::str(label))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_dlb::worksteal::state::State;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner.a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner.b", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        let own = t.self_ns();
        let dur = |i: usize| s[i].end_ns - s[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert!(dur(1) >= 2_000_000);
        assert!((t.self_seconds_of("inner.") - (dur(1) + dur(2)) as f64 / 1e9).abs() < 1e-12);

        let mut off = Tracer::new(false);
        let (v, secs) = off.span("x", |_| 7);
        assert_eq!((v, off.spans().len()), (7, 0));
        assert!(secs >= 0.0);
    }

    #[test]
    fn events_fold_into_state_intervals_and_arrows() {
        let rank0 = [
            Event::Enter {
                t_ns: 0,
                state: State::Working,
            },
            Event::Release { t_ns: 5 },
            Event::Enter {
                t_ns: 10,
                state: State::Working,
            }, // re-entry coalesces
            Event::Enter {
                t_ns: 40,
                state: State::Terminating,
            },
        ];
        let rank1 = [
            Event::Enter {
                t_ns: 0,
                state: State::Searching,
            },
            Event::Enter {
                t_ns: 7,
                state: State::Stealing,
            },
            Event::StealOk {
                t_ns: 12,
                victim: 0,
                chunks: 2,
            },
            Event::Enter {
                t_ns: 12,
                state: State::Working,
            },
        ];
        let v = fold_virtual(&[&rank0, &rank1], 50);
        assert!(v.contains(&VirtEvent::State {
            rank: 0,
            state: "working",
            start_ns: 0,
            end_ns: 40
        }));
        assert!(v.contains(&VirtEvent::State {
            rank: 0,
            state: "terminating",
            start_ns: 40,
            end_ns: 50
        }));
        assert!(v.contains(&VirtEvent::Steal {
            thief: 1,
            victim: 0,
            chunks: 2,
            t_ns: 12
        }));
        assert_eq!(v.len(), 6);
        assert!(
            v.windows(2).all(|w| w[0].t() <= w[1].t()),
            "ordered by virtual time"
        );

        let doc = trace_document("w", &Tracer::new(true), &v, 3);
        assert_eq!(
            doc.get("virt_events_total").and_then(Json::as_f64),
            Some(6.0)
        );
        assert_eq!(
            doc.get("virt_events_written").and_then(Json::as_f64),
            Some(3.0)
        );
        assert!(Json::parse(&doc.to_line()).is_ok());
    }
}
