//! Frozen schedules: exact virtual-time results pinned across commits.
//!
//! Every other determinism test compares two runs of the *same* build; this
//! one compares the build against numbers captured at an earlier commit, so
//! a refactor that claims "same `Comm` operations in the same order" is
//! checked rather than trusted: on the simulator every operation advances
//! the clock, and one stray, missing or reordered op shifts the makespan and
//! the op totals of some row below.
//!
//! The rows cover every worker path: the seven bundles fault-free, the
//! timeout/retract paths (`FaultPlan::seeded`), the crash-mode discovery
//! loops with deaths, lineage re-injection, quorum eviction and rejoin
//! (`crashy`, `partitioned`), a DAG through `expand_in` and hand-offs to its
//! tasks' owners, and service mode (pump, scanners, `SVC_TERM`) with and
//! without crash faults.
//!
//! A deliberate schedule change regenerates the table: run the test, and
//! paste the `FROZEN` block it prints on mismatch.

use pgas::{ArrivalSpec, FaultPlan, MachineModel};
use uts_dlb::worksteal::{
    run_service_sim, run_sim, Algorithm, DagWorkload, RunConfig, RunReport, UtsGen, Wavefront,
};
use uts_tree::{presets, TreeSpec};

/// `(row, makespan_ns, comm ops, steal attempts, total nodes, fold of the
/// per-request completed_ns — 0 for batch rows)`.
type Row = (String, u64, u64, u64, u64, u64);

const FROZEN: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("batch/none/upc-sharedmem", 103656, 1699, 28, 431, 0),
    ("batch/none/upc-term", 77070, 1284, 24, 431, 0),
    ("batch/none/upc-term-rapdif", 77070, 1284, 24, 431, 0),
    ("batch/none/upc-distmem", 83752, 1293, 57, 431, 0),
    ("batch/none/mpi-ws", 189212, 462, 67, 431, 0),
    ("batch/none/upc-hier", 83752, 1293, 57, 431, 0),
    ("batch/none/push-random", 153440, 218, 0, 431, 0),
    ("batch/seeded3/upc-term", 127216, 1508, 34, 431, 0),
    ("batch/seeded3/upc-distmem", 103406, 1258, 55, 431, 0),
    ("batch/seeded3/mpi-ws", 603000, 502, 64, 431, 0),
    ("batch/seeded3/push-random", 402100, 206, 0, 431, 0),
    ("batch/crashy8/upc-term", 269822, 2531, 19, 431, 0),
    ("batch/crashy8/upc-distmem", 283578, 3406, 28, 431, 0),
    ("batch/crashy8/mpi-ws", 650600, 2075, 144, 431, 0),
    ("batch/crashy8/push-random", 740464, 2444, 0, 439, 0),
    ("batch/partitioned2/upc-term", 1043425, 1744, 25, 431, 0),
    ("batch/partitioned2/upc-distmem", 1043725, 2012, 38, 431, 0),
    ("batch/partitioned2/mpi-ws", 2211379, 2020, 84, 431, 0),
    ("batch/partitioned2/push-random", 1606004, 3754, 0, 613, 0),
    ("batch/partitioned8/upc-term", 1128430, 2475, 19, 431, 0),
    ("batch/partitioned8/upc-distmem", 1140130, 3293, 28, 431, 0),
    ("batch/partitioned8/mpi-ws", 1140410, 1873, 106, 431, 0),
    ("batch/partitioned8/push-random", 3244600, 3472, 0, 433, 0),
    ("batch-mid/crashy8/upc-term", 788872, 5087, 80, 5635, 0),
    ("batch-mid/crashy8/upc-distmem", 702624, 4059, 44, 5635, 0),
    ("batch-mid/crashy8/mpi-ws", 1258688, 2635, 151, 6157, 0),
    ("batch-mid/partitioned2/upc-term", 1363547, 5432, 77, 5635, 0),
    ("batch-mid/partitioned2/upc-distmem", 1286667, 4675, 68, 5635, 0),
    ("batch-mid/partitioned2/mpi-ws", 2215271, 4615, 296, 5881, 0),
    ("batch-mid/partitioned8/upc-term", 1179464, 6656, 54, 5635, 0),
    ("batch-mid/partitioned8/upc-distmem", 1335434, 9835, 274, 5635, 0),
    ("batch-mid/partitioned8/mpi-ws", 1313054, 2139, 106, 5707, 0),
    ("batch/none/wavefront/upc-distmem", 89004, 1725, 8, 120, 0),
    ("service/none/upc-term", 1370317, 8372, 53, 1644, 14135598511550185921),
    ("service/none/upc-distmem", 1283810, 6141, 5, 1644, 1020831894268373066),
    ("service/none/mpi-ws", 1588690, 5122, 125, 1644, 3085732314318750932),
    ("service/none/push-random", 1407920, 4582, 0, 1644, 6962938281770954676),
    ("service/seeded3/upc-term", 1322400, 7649, 33, 1644, 18371844445120437326),
    ("service/seeded3/upc-distmem", 1405650, 6702, 22, 1644, 14117080263579104314),
    ("service/seeded3/mpi-ws", 1391810, 4975, 146, 1644, 9465008896437851170),
    ("service/seeded3/push-random", 1483930, 4572, 0, 1644, 15395488883702057754),
    ("service/crashy8/upc-term", 1370983, 9174, 42, 1644, 15169365004599814720),
    ("service/crashy8/upc-distmem", 1392060, 7631, 21, 1644, 17103885748649303481),
    ("service/crashy8/mpi-ws", 1588860, 5722, 114, 1644, 1275873710790542083),
    ("service/crashy8/push-random", 2723352, 12769, 0, 2174, 500444604780666763),
];

const THREADS: usize = 6;

/// Deaths, evictions and rejoins summed over every row's run.
#[derive(Default)]
struct Exercised {
    deaths: u64,
    evictions: u64,
    rejoins: u64,
}

fn row(name: String, r: &RunReport, seen: &mut Exercised) -> Row {
    seen.deaths += r.deaths as u64;
    seen.evictions += r.evictions;
    seen.rejoins += r.rejoins;
    let ops = r.per_thread.iter().map(|t| t.comm.total_ops()).sum();
    let fold = r.service.as_ref().map_or(0, |s| {
        s.per_request.iter().fold(0u64, |h, q| {
            (h.rotate_left(7) ^ q.completed_ns).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
    });
    (name, r.makespan_ns, ops, r.steal_attempts, r.total_nodes, fold)
}

/// The four bundles that between them reach every crash-mode path: probing
/// over the locked and the distmem transport, blind stealing, pushing.
const CRASH_ALGS: [Algorithm; 4] = [
    Algorithm::Term,
    Algorithm::DistMem,
    Algorithm::MpiWs,
    Algorithm::Pushing,
];

/// Fault plans for the batch rows. At p=6 `crashy(8)` kills rank 2 at
/// 472 µs, `partitioned(2)` cuts a partition and freezes rank 4, and
/// `partitioned(8)` kills rank 2 inside a partition and restarts it — the
/// test asserts the runs really saw deaths, evictions and rejoins.
fn batch_plans() -> [(&'static str, FaultPlan); 4] {
    [
        ("seeded3", FaultPlan::seeded(3)),
        ("crashy8", FaultPlan::crashy(8)),
        ("partitioned2", FaultPlan::partitioned(2)),
        ("partitioned8", FaultPlan::partitioned(8)),
    ]
}

fn actual() -> (Vec<Row>, Exercised) {
    let mut rows = Vec::new();
    let mut seen = Exercised::default();
    let tiny = UtsGen::new(presets::t_tiny().spec);
    for alg in Algorithm::all() {
        let cfg = RunConfig::new(alg, 2);
        let r = run_sim(MachineModel::topsail(), THREADS, &tiny, &cfg);
        rows.push(row(format!("batch/none/{}", alg.label()), &r, &mut seen));
    }
    for (plan_name, plan) in batch_plans() {
        for alg in CRASH_ALGS {
            let mut cfg = RunConfig::new(alg, 2);
            cfg.faults = plan;
            cfg.steal_timeout_ns = Some(25_000);
            let r = run_sim(MachineModel::topsail(), THREADS, &tiny, &cfg);
            rows.push(row(format!("batch/{plan_name}/{}", alg.label()), &r, &mut seen));
        }
    }
    // T-tiny is over (77 µs fault-free) before most of the plans' kills and
    // partitions begin; a 5,635-node tree keeps ranks busy across them.
    // (No push-random here: under loss/duplication it re-injects this tree
    // millions of times over — conserved with multiplicity, but minutes.)
    let mid = UtsGen::new(TreeSpec::binomial(5, 64, 2, presets::q_for_inverse_gap(150.0)));
    for (plan_name, plan) in &batch_plans()[1..] {
        for alg in &CRASH_ALGS[..3] {
            let mut cfg = RunConfig::new(*alg, 4);
            cfg.faults = *plan;
            let r = run_sim(MachineModel::topsail(), THREADS, &mid, &cfg);
            rows.push(row(format!("batch-mid/{plan_name}/{}", alg.label()), &r, &mut seen));
        }
    }
    let dag = DagWorkload::new(Wavefront {
        rows: 12,
        cols: 10,
        seed: 4,
    });
    let cfg = RunConfig::new(Algorithm::DistMem, 2);
    let r = run_sim(MachineModel::topsail(), THREADS, &dag, &cfg);
    rows.push(row("batch/none/wavefront/upc-distmem".into(), &r, &mut seen));

    let small = UtsGen::new(TreeSpec::binomial(23, 16, 2, presets::q_for_inverse_gap(12.0)));
    let arrivals = ArrivalSpec::poisson(7, 10, 12_000.0);
    for (plan_name, plan) in [
        ("none", FaultPlan::none()),
        ("seeded3", FaultPlan::seeded(3)),
        ("crashy8", FaultPlan::crashy(8)),
    ] {
        for alg in CRASH_ALGS {
            let mut cfg = RunConfig::new(alg, 2);
            cfg.faults = plan;
            let r = run_service_sim(MachineModel::smp(), THREADS, &small, &cfg, &arrivals);
            rows.push(row(format!("service/{plan_name}/{}", alg.label()), &r, &mut seen));
        }
    }
    (rows, seen)
}

#[test]
fn schedules_match_the_frozen_table() {
    let (rows, seen) = actual();
    // The crash rows only freeze something if their plans fire.
    assert!(seen.deaths > 0, "no row killed a rank");
    assert!(seen.evictions > 0, "no row evicted a rank by quorum");
    assert!(seen.rejoins > 0, "no row rejoined as a new incarnation");
    let got: Vec<_> = rows
        .iter()
        .map(|r| (r.0.as_str(), r.1, r.2, r.3, r.4, r.5))
        .collect();
    if got != FROZEN {
        let mut table = String::from("const FROZEN: &[(&str, u64, u64, u64, u64, u64)] = &[\n");
        for (name, mk, ops, steals, nodes, fold) in &got {
            table.push_str(&format!(
                "    ({name:?}, {mk}, {ops}, {steals}, {nodes}, {fold}),\n"
            ));
        }
        table.push_str("];");
        let first = got
            .iter()
            .zip(FROZEN)
            .find(|(a, f)| a != f)
            .map_or("row count", |(a, _)| a.0);
        panic!("virtual schedules moved (first difference: {first}); actual table:\n{table}");
    }
}
