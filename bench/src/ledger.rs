//! The metric names, and how the per-layer ledger is derived from the
//! counters the library already returns.
//!
//! Nothing here measures: it divides counters by counters. A metric a
//! workload has nothing to say about stays 0 (see README.md, "0 means not
//! applicable").

use uts_dlb::pgas::ConductorStats;
use uts_dlb::worksteal::state::State;
use uts_dlb::worksteal::theory::DEFAULT_STEAL_FACTOR;
use uts_dlb::worksteal::RunReport;

use crate::stats::{backlog_growing, latency_order_stats, max_sustainable_rate, Rung};
use crate::workloads::SVC_LIMIT_NS;

/// An end-to-end metric as `BENCHMARK.json` fixes it.
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

impl E2e {
    /// Whether the run-to-run spread must stay within the bound. The
    /// contract exempts set-up time: only its medians are compared.
    pub fn spread_checked(&self) -> bool {
        self.name != "setup_s"
    }
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> E2e {
    E2e {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// End-to-end metrics, every one reported by every workload. Host
/// wall-clock per operation is not among them: on the reference host its
/// run-to-run spread exceeds the widest bound the contract allows (README.md,
/// "Why host time is not bounded"), so it lives in [`PER_LAYER`] and
/// `setup_s`, whose spread the contract exempts, is the bounded host time.
pub const END_TO_END: &[E2e] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("makespan_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Per-layer metrics `(name, unit)`, in ledger order.
pub const PER_LAYER: &[(&str, &str)] = &[
    // the whole run, on the host clock
    ("host_wall_s", "s"),
    ("host_mnodes_per_s", "Mnodes/s"),
    // sha1
    ("sha1.ns_per_hash_24B", "ns"),
    ("sha1.ns_digest_24B", "ns"),
    ("sha1.mb_per_s_64B", "MB/s"),
    ("sha1.mb_per_s_1024B", "MB/s"),
    ("sha1.mb_per_s_65536B", "MB/s"),
    ("sha1.hashes", "count"),
    ("sha1.wall_share", "ratio"),
    // uts
    ("uts.ns_per_child", "ns"),
    ("uts.ns_per_child_x8", "ns"),
    ("uts.ns_per_node_seq", "ns"),
    ("uts.ns_per_node_seq_tiny", "ns"),
    ("uts.ns_per_node_seq_geo", "ns"),
    ("uts.self_ns_per_node", "ns"),
    ("uts.nodes", "count"),
    // core.stack
    ("stack.ns_push_pop", "ns"),
    ("stack.ns_release_k8", "ns"),
    ("stack.ns_push_all_64", "ns"),
    ("stack.releases", "count"),
    ("stack.reacquires", "count"),
    // core.probe
    ("probe.ns_per_victim_p16", "ns"),
    ("probe.ns_per_victim_p256", "ns"),
    ("probe.ns_per_victim_p1024", "ns"),
    ("probe.ns_xorshift", "ns"),
    // core.sched
    ("sched.steal_attempts", "count"),
    ("sched.steals_ok", "count"),
    ("sched.steal_success_ratio", "ratio"),
    ("sched.probes", "count"),
    ("sched.chunks_per_steal", "ratio"),
    ("sched.virt_steals_per_s", "1/s"),
    ("sched.virt_us_per_steal", "us"),
    ("sched.working_frac", "ratio"),
    ("sched.working_eff", "ratio"),
    ("sched.virt_share.searching", "ratio"),
    ("sched.virt_share.stealing", "ratio"),
    ("sched.virt_share.terminating", "ratio"),
    ("sched.steal_bound_util", "ratio"),
    ("virt.makespan_ms", "ms"),
    ("virt.mnodes_per_s", "Mnodes/s"),
    // pgas.sim
    ("sim.ops", "count"),
    ("sim.ops_per_host_s", "1/s"),
    ("sim.host_ns_per_op", "ns"),
    ("sim.fast_ops_frac", "ratio"),
    ("sim.handoffs", "count"),
    ("sim.micro_ns_per_put_1t", "ns"),
    ("sim.micro_ns_per_add_2t", "ns"),
    ("sim.micro_ns_per_add_8t", "ns"),
    ("sim.micro_ns_per_add_at_p", "ns"),
    ("sim.micro_ns_per_sendrecv_2t", "ns"),
    ("sim.micro_ns_per_work_call", "ns"),
    ("sim.spawn_us_per_fiber", "us"),
    ("sim.rss_kb_per_fiber", "KB"),
    ("simrun.us_sharedmem_p8_tiny", "us"),
    ("simrun.us_term_p8_tiny", "us"),
    ("simrun.us_rapdif_p8_tiny", "us"),
    ("simrun.us_distmem_p8_tiny", "us"),
    ("simrun.us_mpiws_p8_tiny", "us"),
    ("sim_ref.host_ns_per_op", "ns"),
    ("sim_par.host_ns_per_op", "ns"),
    ("sim_par.parked_frac", "ratio"),
    // pgas.native
    ("native.ns_per_get", "ns"),
    ("native.ns_per_cas", "ns"),
    ("native.ns_per_add", "ns"),
    ("native.ns_lock_unlock", "ns"),
    ("native.ns_per_sendrecv", "ns"),
    ("native.us_distmem_p2_ts", "us"),
    ("native.us_mpiws_p2_ts", "us"),
    ("native.steal_attempts", "count"),
    ("native.steals_ok", "count"),
    ("native.comm_frac", "ratio"),
    ("native.speedup_vs_seq", "ratio"),
    // mpisim + pgas.msg
    ("msg.sent", "count"),
    ("msg.items_per_msg", "ratio"),
    ("msg.polls", "count"),
    // core.service + pgas.arrival + core.hist
    ("svc_p50_us.r1000", "us"),
    ("svc_p99_us.r1000", "us"),
    ("svc_p50_us.r2000", "us"),
    ("svc_p99_us.r2000", "us"),
    ("svc_p50_us.r4000", "us"),
    ("svc_p99_us.r4000", "us"),
    ("svc_max_rate_rps", "1/s"),
    ("svc_goodput_rps.r8000", "1/s"),
    ("svc.defer_us.p99.r1000", "us"),
    ("svc.inflight_us.p99.r1000", "us"),
    ("svc.deferred_frac.r1000", "ratio"),
    ("svc.achieved_rps.r1000", "1/s"),
    ("svc.defer_us.p99.r2000", "us"),
    ("svc.inflight_us.p99.r2000", "us"),
    ("svc.deferred_frac.r2000", "ratio"),
    ("svc.achieved_rps.r2000", "1/s"),
    ("svc.defer_us.p99.r3000", "us"),
    ("svc.inflight_us.p99.r3000", "us"),
    ("svc.deferred_frac.r3000", "ratio"),
    ("svc.achieved_rps.r3000", "1/s"),
    ("svc.defer_us.p99.r4000", "us"),
    ("svc.inflight_us.p99.r4000", "us"),
    ("svc.deferred_frac.r4000", "ratio"),
    ("svc.achieved_rps.r4000", "1/s"),
    ("svc.defer_us.p99.r8000", "us"),
    ("svc.inflight_us.p99.r8000", "us"),
    ("svc.deferred_frac.r8000", "ratio"),
    ("svc.achieved_rps.r8000", "1/s"),
    ("svc.host_us_per_request", "us"),
    ("arrival.schedule_us_per_1k", "us"),
    ("hist.ns_per_record", "ns"),
    // core.workload
    ("dag.tasks", "count"),
    ("dag.edges", "count"),
    ("dag.validate_ms", "ms"),
    ("dag.host_us_per_task", "us"),
    // the benchmark itself
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.explained_frac", "ratio"),
    ("bench.repeat_iqr_frac", "ratio"),
    ("bench.timer_ns", "ns"),
];

/// Accepted band of `bench.explained_frac`; outside it the run warns.
pub const EXPLAINED_BAND: (f64, f64) = (0.6, 1.4);

/// A named value on its way into the ledger.
pub type Entry = (String, f64);

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Scheduler, stack and message counters of one report. `virtual_clock`
/// says whether its times are virtual; on the native backend the steal
/// counters are repeated under `native.*`, where a reader looks for them.
pub fn from_report(r: &RunReport, depth: u64, virtual_clock: bool, out: &mut Vec<Entry>) {
    let t = r.totals();
    let steals = r.successful_steals as f64;
    let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
    if virtual_clock {
        put("sched.virt_steals_per_s", r.steals_per_sec());
        put(
            "sched.virt_us_per_steal",
            ratio(t.state_ns[State::Stealing as usize] as f64 / 1e3, steals),
        );
    } else {
        put("native.steal_attempts", r.steal_attempts as f64);
        put("native.steals_ok", steals);
        put(
            "native.comm_frac",
            ratio(
                t.comm.comm_ns as f64,
                (t.comm.comm_ns + t.comm.work_ns) as f64,
            ),
        );
    }
    put("sched.steal_attempts", r.steal_attempts as f64);
    put("sched.steals_ok", steals);
    put(
        "sched.steal_success_ratio",
        ratio(steals, r.steal_attempts as f64),
    );
    put("sched.probes", t.probes as f64);
    put(
        "sched.chunks_per_steal",
        ratio(t.chunks_stolen as f64, steals),
    );
    put("sched.working_frac", r.state_fraction(State::Working));
    put("sched.working_eff", r.working_state_efficiency());
    put(
        "sched.virt_share.searching",
        r.state_fraction(State::Searching),
    );
    put(
        "sched.virt_share.stealing",
        r.state_fraction(State::Stealing),
    );
    put(
        "sched.virt_share.terminating",
        r.state_fraction(State::Terminating),
    );
    put(
        "sched.steal_bound_util",
        ratio(
            steals,
            DEFAULT_STEAL_FACTOR * r.threads as f64 * depth as f64,
        ),
    );
    put("stack.releases", t.releases as f64);
    put("stack.reacquires", t.reacquires as f64);
    put("msg.sent", t.comm.msgs_sent as f64);
    put(
        "msg.items_per_msg",
        ratio(t.comm.msg_items_sent as f64, t.comm.msgs_sent as f64),
    );
    put("msg.polls", t.comm.polls as f64);
}

/// Simulator operations of a report as `CommStats` counts them — the only
/// count `run_service_sim` exposes. It leaves out mailbox probes; batch runs
/// use the conductor's own exact count instead.
pub fn comm_ops(r: &RunReport) -> u64 {
    let c = r.totals().comm;
    c.total_ops() + c.polls
}

/// Conductor counters of one direct `SimCluster` run.
pub fn from_conductor(c: &ConductorStats, out: &mut Vec<Entry>) {
    out.push(("sim.ops".into(), c.total_ops() as f64));
    out.push(("sim.fast_ops_frac".into(), c.fast_fraction()));
    out.push(("sim.handoffs".into(), c.handoffs as f64));
}

/// The latency ladder of one pass of `n` requests per rung: `(rate, host
/// seconds, report)` per rung.
pub fn from_ladder(rungs: &[(u64, f64, RunReport)], n: usize, out: &mut Vec<Entry>) {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut ladder = Vec::new();
    for (rate, _, r) in rungs {
        let Some(svc) = r.service.as_ref() else {
            continue;
        };
        let done = &svc.per_request;
        let lost = n.saturating_sub(done.len());
        // a lost request misses any limit: it counts as an infinite latency
        let mut lat: Vec<u64> = done.iter().map(|q| q.latency_ns).collect();
        lat.extend(std::iter::repeat_n(u64::MAX, lost));
        let (p50, tail, _) = latency_order_stats(&lat);
        let defer: Vec<u64> = done
            .iter()
            .map(|q| q.injected_ns - q.scheduled_ns)
            .collect();
        let inflight: Vec<u64> = done
            .iter()
            .map(|q| q.completed_ns - q.injected_ns)
            .collect();
        let achieved = ratio(done.len() as f64, r.makespan_ns as f64 / 1e9);
        // names the ledger does not list (p50 at 3000 req/s) are dropped there
        out.push((format!("svc_p50_us.r{rate}"), us(p50)));
        out.push((format!("svc_p99_us.r{rate}"), us(tail)));
        out.push((format!("svc_goodput_rps.r{rate}"), achieved));
        out.push((format!("svc.achieved_rps.r{rate}"), achieved));
        out.push((
            format!("svc.defer_us.p99.r{rate}"),
            us(latency_order_stats(&defer).1),
        ));
        out.push((
            format!("svc.inflight_us.p99.r{rate}"),
            us(latency_order_stats(&inflight).1),
        ));
        out.push((
            format!("svc.deferred_frac.r{rate}"),
            ratio(svc.deferred_injections as f64, n as f64),
        ));
        ladder.push(Rung {
            rate: *rate,
            tail_ns: tail,
            backlog: backlog_growing(&lat[..done.len()]),
            lost: lost as u64,
        });
    }
    let host_s: f64 = rungs.iter().map(|r| r.1).sum();
    out.push((
        "svc_max_rate_rps".into(),
        max_sustainable_rate(&ladder, SVC_LIMIT_NS) as f64,
    ));
    out.push((
        "svc.host_us_per_request".into(),
        ratio(host_s * 1e6, (n * rungs.len()) as f64),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let names: Vec<&str> = e2e.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(seen.insert(n), "{n} listed twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
        }
        for (_, unit) in e2e.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(e2e.contains(&("setup_s", "s")));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; it must name exactly what
    /// the program emits.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::json::Json::parse(&std::fs::read_to_string(path).expect(path))
            .expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(crate::json::Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(crate::json::Json::as_str)
                            .unwrap_or_else(|| panic!("{key}: {k}"))
                            .to_string()
                    };
                    (
                        s("name"),
                        m.get("unit").map_or(String::new(), |_| s("unit")),
                    )
                })
                .collect()
        };
        let own = |ms: &[(&str, &str)]| {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed("end_to_end"), own(&e2e));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        for (m, j) in END_TO_END.iter().zip(
            doc.get("end_to_end")
                .and_then(crate::json::Json::as_arr)
                .expect("end_to_end"),
        ) {
            assert_eq!(
                j.get("bound").and_then(crate::json::Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                j.get("better").and_then(crate::json::Json::as_str),
                Some(better),
                "{}",
                m.name
            );
        }
        let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
