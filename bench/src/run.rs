//! One workload in one process: the untraced pass that yields the
//! end-to-end metrics, and the traced pass that yields the per-layer ledger.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::host;
use crate::json::Json;
use crate::ledger::{self, Entry, END_TO_END, EXPLAINED_BAND, PER_LAYER};
use crate::micro;
use crate::probes;
use crate::spans::{fold_virtual, trace_document, Tracer, VirtEvent};
use crate::stats::{iqr_frac, mean, median, quartiles};
use crate::workloads::{self, Detail, Outcome, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Virtual events written per trace file (the earliest ones).
const VIRT_EVENT_CAP: usize = 2000;

/// What the driver asked for.
pub struct Request<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Seconds-scale sizes for the harness tests.
    pub smoke: bool,
    /// Directory for the trace file (traced pass only).
    pub out_dir: &'a str,
}

/// What one run reports: the line the driver parses, as a value.
pub struct Report {
    /// Every output checked correct.
    pub correct: bool,
    /// Operations attempted: timed runs, or requests on `svc_ladder`.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in contract order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and quartiles, for the human-readable output.
    pub notes: Vec<String>,
    /// Untraced pass: the host-time samples, which are not end-to-end metrics
    /// but belong in a run set's ledger.
    pub extras: Option<Json>,
}

impl Report {
    /// The result object, keys exactly as the contract names them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(n, v, u)| {
                            let value =
                                Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]);
                            (n.to_string(), value)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Failures of operations, collected instead of aborting: a failed operation
/// is counted and reported, and makes the exit code non-zero.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Run `op`, turning a panic inside the library into an `Err`.
fn catching(op: impl FnOnce() -> Result<Outcome, String>) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", msg.unwrap_or_else(|| "?".into())))
    })
}

impl Tally {
    /// Run one operation; an `Err` or a panic is a failed operation.
    fn attempt(
        &mut self,
        what: &str,
        op: impl FnOnce() -> Result<Outcome, String>,
    ) -> Option<Outcome> {
        match catching(op) {
            Ok(o) => {
                // a service pass counts its requests, a batch run itself
                self.attempted += o.requests.max(1);
                self.failed += o.lost;
                if o.lost > 0 {
                    self.errors
                        .push(format!("{what}: {} request(s) never completed", o.lost));
                }
                Some(o)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// A workload after set-up.
struct Ready {
    workload: Box<dyn Workload>,
    /// Outcome of the warm-up operation (sub-seed 0).
    warm_up: Outcome,
    /// Host seconds the set-up took.
    seconds: f64,
}

/// One set-up: build the inputs, then one warm-up operation. A warm-up that
/// fails is an error, not a failed operation: nothing can be measured.
fn set_up(req: &Request, tr: &mut Tracer) -> Result<Ready, String> {
    let (built, seconds) = tr.span("setup", |tr| {
        let (w, _) = tr.span("setup.inputs", |tr| {
            workloads::build(req.workload, req.seed, req.smoke, tr)
        });
        let w = w?;
        let (warm, _) = tr.span("setup.warmup", |tr| catching(|| w.warm_up(tr)));
        Ok::<_, String>((w, warm.map_err(|e| format!("warm-up: {e}"))?))
    });
    let (workload, warm_up) = built?;
    Ok(Ready {
        workload,
        warm_up,
        seconds,
    })
}

/// Bit-equality of virtual results for the same sub-seed, across repeats.
struct Repeats {
    first: Vec<Option<Vec<u64>>>,
}

impl Repeats {
    fn new(sub_seeds: usize) -> Repeats {
        Repeats {
            first: vec![None; sub_seeds],
        }
    }

    /// The warm-up ran sub-seed 0, so the first timed run must match it —
    /// unless it was the service's single-rung warm-up, which is not a pass.
    fn seed_from_warm_up(&mut self, warm: &Outcome) {
        if warm.requests == 0 && !warm.digest.is_empty() {
            self.first[0] = Some(warm.digest.clone());
        }
    }

    fn check(&mut self, sub: usize, o: &Outcome, what: &str, tally: &mut Tally) {
        if o.digest.is_empty() {
            return;
        }
        match &self.first[sub] {
            None => self.first[sub] = Some(o.digest.clone()),
            Some(d) if *d != o.digest => tally.fail(format!(
                "{what}: virtual results differ from the first run with sub-seed {sub}"
            )),
            Some(_) => {}
        }
    }
}

/// The untraced pass: `SETUPS` set-ups, then operations for `seconds`
/// (at least one per sub-seed), the program's own tracing off throughout.
pub fn untraced(req: &Request) -> Result<Report, String> {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // drop the previous build first: set-up time and peak memory are
        // those of one workload, not of three
        drop(ready.take());
        let r = set_up(req, &mut tr)?;
        setups.push(r.seconds);
        ready = Some(r);
    }
    let Ready {
        workload: w,
        warm_up: warm,
        ..
    } = ready.expect("SETUPS > 0");
    let mut tally = Tally::default();

    let k = w.sub_seeds();
    let mut repeats = Repeats::new(k);
    repeats.seed_from_warm_up(&warm);
    let (mut host, mut machine_ns, mut units) = (Vec::new(), Vec::new(), 0);
    let budget = Duration::from_secs_f64(req.seconds);
    let t0 = Instant::now();
    let mut rep = 0;
    while rep < k || t0.elapsed() < budget {
        let sub = rep % k;
        let what = format!("run {rep}");
        if let Some(o) = tally.attempt(&what, || w.run(sub, false, &mut tr)) {
            repeats.check(sub, &o, &what, &mut tally);
            host.push(o.host_s);
            // the virtual result is the mean over the distinct sub-seeds,
            // so it does not depend on how many repeats fit in the time
            if !w.virtual_clock() || rep < k {
                machine_ns.push(o.makespan_ns as f64);
            }
            units = o.units;
        }
        rep += 1;
    }
    if host.is_empty() {
        return Err(format!(
            "no operation succeeded: {}",
            tally.errors.join("; ")
        ));
    }

    let wall = median(&host);
    // Virtual time is exact, so its sub-seeds are averaged. Host time is
    // disturbed from outside, and only ever upwards: the fastest operation
    // is the one least disturbed, and over four sets of ten runs its spread
    // was about half the median's (README.md).
    let makespan_ns = if w.virtual_clock() {
        mean(&machine_ns)
    } else {
        machine_ns.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let values = [
        median(&setups),
        makespan_ns / 1e6,
        host::peak_rss_kb() as f64 / 1024.0,
    ];
    let (q1, q3) = quartiles(&host);
    let notes = vec![
        format!(
            "makespan_ms: {} over {} sample(s) on the {} clock",
            if w.virtual_clock() { "mean" } else { "minimum" },
            machine_ns.len(),
            if w.virtual_clock() { "virtual" } else { "host" },
        ),
        format!("setup_s: median of {SETUPS} set-ups {setups:.3?}"),
        format!(
            "host wall-clock per operation (not bounded): median {wall:.4} s of {} runs, \
             quartiles {q1:.4} / {q3:.4}, spread {:.3}; {units} nodes, {:.4} Mnodes/s",
            host.len(),
            iqr_frac(&host),
            units as f64 / wall / 1e6,
        ),
    ];
    // the host-time samples, for the run set's ledger
    let extras = Json::obj([
        ("host_wall_s", Json::Num(wall)),
        ("host_mnodes_per_s", Json::Num(units as f64 / wall / 1e6)),
        ("nodes_per_operation", Json::Num(units as f64)),
        (
            "host_samples_s",
            Json::Arr(host.iter().map(|&h| Json::Num(h)).collect()),
        ),
        (
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&h| Json::Num(h)).collect()),
        ),
    ]);
    for e in &tally.errors {
        eprintln!("FAILED {e}");
    }
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        notes,
        extras: Some(extras),
    })
}

/// The traced pass: spans around every call into a layer, the program's own
/// `RunConfig::trace` folded into the same file, the micro sections, and the
/// ledger derived from all of it.
pub fn traced(req: &Request) -> Result<Report, String> {
    let mut tr = Tracer::new(true);
    let mut tally = Tally::default();
    let Ready {
        workload: w,
        warm_up: warm,
        ..
    } = set_up(req, &mut tr)?;
    let mut repeats = Repeats::new(w.sub_seeds());
    repeats.seed_from_warm_up(&warm);

    // Alternate the program's tracing off and on, same sub-seed: the virtual
    // results must not notice, and the host-time ratio is the overhead.
    let (mut plain, mut with_trace, mut last) = (Vec::new(), Vec::new(), None);
    let budget = Duration::from_secs_f64(0.4 * req.seconds);
    let t0 = Instant::now();
    tr.span("operations", |tr| {
        while (plain.len() < 2 || t0.elapsed() < budget) && tally.failed == 0 {
            for on in [false, true] {
                let what = if on { "traced run" } else { "untraced run" };
                if let Some(o) = tally.attempt(what, || w.run(0, on, tr)) {
                    repeats.check(0, &o, what, &mut tally);
                    if on { &mut with_trace } else { &mut plain }.push(o.host_s);
                    last = Some(o);
                }
            }
        }
    });
    let Some(op) = last.filter(|_| tally.failed == 0) else {
        return Err(format!("traced pass failed: {}", tally.errors.join("; ")));
    };
    let wall = median(&plain);

    // what the library's own reports say about the traced operation
    let mut entries: Vec<Entry> = vec![
        ("host_wall_s".into(), wall),
        ("host_mnodes_per_s".into(), op.units as f64 / wall / 1e6),
        (
            "bench.trace_overhead_frac".into(),
            median(&with_trace) / wall - 1.0,
        ),
        ("bench.repeat_iqr_frac".into(), iqr_frac(&plain)),
    ];
    let report = match &op.detail {
        Detail::Seq => None,
        Detail::Batch(r) => Some(&**r),
        Detail::Ladder(rungs) => {
            ledger::from_ladder(
                rungs,
                op.requests as usize / rungs.len().max(1),
                &mut entries,
            );
            // scheduler counters and virtual events: those of the overload rung
            rungs.last().map(|r| &r.2)
        }
    };
    let mut virt: Vec<VirtEvent> = Vec::new();
    if let Some(r) = report {
        ledger::from_report(r, w.depth(), w.virtual_clock(), &mut entries);
        let logs: Vec<&[_]> = r.per_thread.iter().map(|t| &t.events[..]).collect();
        virt = fold_virtual(&logs, r.makespan_ns);
    }
    if w.virtual_clock() {
        entries.push(("virt.makespan_ms".into(), op.makespan_ns as f64 / 1e6));
        entries.push((
            "virt.mnodes_per_s".into(),
            op.units as f64 / op.makespan_ns as f64 * 1e3,
        ));
    }
    // conducted operations: exact and split by path where the conductor's
    // counters are reachable, else (service) counted from CommStats and all
    // priced as handoffs — on the batch workloads over 99 % are
    let (fast_ops, handoffs) = match (w.conductor_stats(&mut tr), &op.detail) {
        (Some(c), _) => {
            ledger::from_conductor(&c, &mut entries);
            (c.fast_ops, c.handoffs)
        }
        (None, Detail::Ladder(rungs)) => {
            let ops = rungs.iter().map(|r| ledger::comm_ops(&r.2)).sum();
            entries.push(("sim.ops".into(), ops as f64));
            (0, ops)
        }
        (None, _) => (0, 0),
    };
    entries.extend(
        w.own_ledger(wall, &mut tr)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
    );

    let micro = micro::run_all(&mut tr, w.sim_threads(), req.smoke);
    let micro_of = |name: &str| micro.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    entries.extend(tr.span("probes", |_| probes::run_all(req.smoke)).0);

    // do the layers add up to the end-to-end figure?
    let hashes = w.hashes(op.units);
    let hash_s = hashes as f64 * micro_of("sha1.ns_per_hash_24B") / 1e9;
    entries.push(("sha1.hashes".into(), hashes as f64));
    entries.push((
        "sha1.wall_share".into(),
        hash_s / (wall * w.host_threads() as f64),
    ));
    let sim_ops = fast_ops + handoffs;
    if sim_ops > 0 {
        let op_s = (fast_ops as f64 * micro_of("sim.micro_ns_per_put_1t")
            + handoffs as f64 * micro_of("sim.micro_ns_per_add_at_p"))
            / 1e9;
        let explained = (hash_s + op_s) / wall;
        entries.push(("sim.ops_per_host_s".into(), sim_ops as f64 / wall));
        entries.push((
            "sim.host_ns_per_op".into(),
            (wall - hash_s) * 1e9 / sim_ops as f64,
        ));
        entries.push(("bench.explained_frac".into(), explained));
        let (lo, hi) = EXPLAINED_BAND;
        if !(lo..=hi).contains(&explained) {
            eprintln!("warning: bench.explained_frac {explained:.2} is outside [{lo}, {hi}]: hashes x ns/hash + ops x ns/op does not add up to host_wall_s");
        }
    }
    entries.extend(micro.iter().map(|(k, v)| (k.to_string(), *v)));

    let doc = trace_document(req.workload, &tr, &virt, VIRT_EVENT_CAP);
    let path = format!("{}/trace_{}.json", req.out_dir, req.workload);
    std::fs::create_dir_all(req.out_dir)
        .and_then(|()| std::fs::write(&path, doc.to_line() + "\n"))
        .map_err(|e| format!("{path}: {e}"))?;

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = entries.iter().find(|e| e.0 == name).map_or(0.0, |e| e.1);
            (name, v, unit)
        })
        .collect();
    let notes = vec![
        format!("trace: {path} ({} host spans, {} of {} virtual events)", tr.spans().len(), virt.len().min(VIRT_EVENT_CAP), virt.len()),
        format!(
            "host self time: sim {:.3} s, native {:.3} s, uts {:.3} s, checks {:.3} s, micro {:.3} s",
            tr.self_seconds_of("sim.") + tr.self_seconds_of("service."),
            tr.self_seconds_of("native."),
            tr.self_seconds_of("uts."),
            tr.self_seconds_of("theory."),
            tr.self_seconds_of("micro"),
        ),
    ];
    Ok(Report {
        correct: true,
        attempted: tally.attempted,
        failed: 0,
        metrics,
        notes,
        extras: None,
    })
}
