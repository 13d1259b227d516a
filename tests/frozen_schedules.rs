//! Frozen schedules: exact virtual-time results pinned across commits.
//!
//! Every other determinism test compares two runs of the *same* build; this
//! one compares the build against numbers captured at an earlier commit, so
//! a refactor that claims "same `Comm` operations in the same order" is
//! checked rather than trusted: on the simulator every operation advances
//! the clock, and one stray, missing or reordered op shifts the makespan and
//! the op totals of some row below.
//!
//! The rows cover every worker path: the seven bundles fault-free (`hier` at
//! p=12, whose ranks span two 8-thread topsail nodes: at p=6 all share one,
//! and same-node-first order is flat order), one fault-free row near its
//! makespan floor (p=2, 95 % efficiency, so a run charged for half its nodes
//! falls under the floor), the timeout/retract paths (`seeded`), the
//! crash-mode discovery loops with deaths, lineage re-injection, quorum
//! eviction and rejoin (`crashy`, `partitioned`), a DAG through `expand_in`
//! and hand-offs to its tasks' owners, and service mode (pump, scanners,
//! `SVC_TERM`) with and without crash faults. At p=6 `crashy(8)` kills rank
//! 2 at 472 µs, `partitioned(2)` cuts a partition and freezes rank 4, and
//! `partitioned(8)` kills rank 2 inside a partition and restarts it; T-tiny
//! is over (77 µs fault-free) before most of them begin, so the
//! `binomial(5,64,…)` rows keep ranks busy across them (no push-random
//! there: under loss/duplication it re-injects that tree millions of times
//! over — conserved with multiplicity, but minutes).
//!
//! Each row is named by its run spec line (`worksteal::spec`), which the
//! test parses and runs, so a row pastes straight into
//! `uts_cli --spec '<line>'`. A deliberate schedule change regenerates the
//! table: run the test, and paste the `FROZEN` block it prints on mismatch.

use uts_dlb::worksteal::spec::Workload;
use uts_dlb::worksteal::theory::makespan_floor_ns;
use uts_dlb::worksteal::{tree_depth, DagGen, RandomLayered, RunReport, RunSpec, UtsGen};

/// `(spec line, makespan_ns, comm ops, steal attempts, total nodes, fold
/// of the per-request completed_ns — 0 for batch rows)`.
type Row<'a> = (&'a str, u64, u64, u64, u64, u64);

const FROZEN: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("topsail p=6 tree=tiny alg=sharedmem k=2", 103656, 1699, 28, 431, 0),
    ("topsail p=6 tree=tiny alg=term k=2", 77070, 1284, 24, 431, 0),
    ("topsail p=6 tree=tiny alg=rapdif k=2", 77070, 1284, 24, 431, 0),
    ("topsail p=6 tree=tiny alg=distmem k=2", 83752, 1293, 57, 431, 0),
    ("topsail p=6 tree=tiny alg=mpi k=2", 189212, 462, 67, 431, 0),
    ("topsail p=6 tree=tiny alg=push k=2", 153440, 218, 0, 431, 0),
    ("topsail p=12 tree=tiny alg=hier k=2", 238116, 2062, 47, 431, 0),
    ("topsail p=2 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4", 1410706, 1642, 5, 5635, 0),
    ("topsail p=6 tree=tiny alg=term k=2 faults=seeded(3) timeout=25000", 127216, 1508, 34, 431, 0),
    ("topsail p=6 tree=tiny alg=distmem k=2 faults=seeded(3) timeout=25000", 103406, 1258, 55, 431, 0),
    ("topsail p=6 tree=tiny alg=mpi k=2 faults=seeded(3) timeout=25000", 603000, 502, 64, 431, 0),
    ("topsail p=6 tree=tiny alg=push k=2 faults=seeded(3) timeout=25000", 402100, 206, 0, 431, 0),
    ("topsail p=6 tree=tiny alg=term k=2 faults=crashy(8) timeout=25000", 269822, 2531, 19, 431, 0),
    ("topsail p=6 tree=tiny alg=distmem k=2 faults=crashy(8) timeout=25000", 283578, 3406, 28, 431, 0),
    ("topsail p=6 tree=tiny alg=mpi k=2 faults=crashy(8) timeout=25000", 650600, 2075, 144, 431, 0),
    ("topsail p=6 tree=tiny alg=push k=2 faults=crashy(8) timeout=25000", 740464, 2444, 0, 439, 0),
    ("topsail p=6 tree=tiny alg=term k=2 faults=partitioned(2) timeout=25000", 1043425, 1744, 25, 431, 0),
    ("topsail p=6 tree=tiny alg=distmem k=2 faults=partitioned(2) timeout=25000", 1043725, 2012, 38, 431, 0),
    ("topsail p=6 tree=tiny alg=mpi k=2 faults=partitioned(2) timeout=25000", 2211379, 2020, 84, 431, 0),
    ("topsail p=6 tree=tiny alg=push k=2 faults=partitioned(2) timeout=25000", 1606004, 3754, 0, 613, 0),
    ("topsail p=6 tree=tiny alg=term k=2 faults=partitioned(8) timeout=25000", 1128430, 2475, 19, 431, 0),
    ("topsail p=6 tree=tiny alg=distmem k=2 faults=partitioned(8) timeout=25000", 1140130, 3293, 28, 431, 0),
    ("topsail p=6 tree=tiny alg=mpi k=2 faults=partitioned(8) timeout=25000", 1140410, 1873, 106, 431, 0),
    ("topsail p=6 tree=tiny alg=push k=2 faults=partitioned(8) timeout=25000", 3244600, 3472, 0, 433, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=term k=4 faults=crashy(8)", 788872, 5087, 80, 5635, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4 faults=crashy(8)", 702624, 4059, 44, 5635, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=mpi k=4 faults=crashy(8)", 1258688, 2635, 151, 6157, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=term k=4 faults=partitioned(2)", 1363547, 5432, 77, 5635, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4 faults=partitioned(2)", 1286667, 4675, 68, 5635, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=mpi k=4 faults=partitioned(2)", 2215271, 4615, 296, 5881, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=term k=4 faults=partitioned(8)", 1179464, 6656, 54, 5635, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4 faults=partitioned(8)", 1335434, 9835, 274, 5635, 0),
    ("topsail p=6 tree=binomial(5,64,2,0.49666666666666665) alg=mpi k=4 faults=partitioned(8)", 1313054, 2139, 106, 5707, 0),
    ("topsail p=6 dag=wavefront(12,10,4) alg=distmem k=2", 94780, 1817, 0, 120, 0),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=term k=2 arrivals=poisson(7,10,12000)", 1370317, 8372, 53, 1644, 14135598511550185921),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=distmem k=2 arrivals=poisson(7,10,12000)", 1283810, 6141, 5, 1644, 1020831894268373066),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=mpi k=2 arrivals=poisson(7,10,12000)", 1588690, 5122, 125, 1644, 3085732314318750932),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=push k=2 arrivals=poisson(7,10,12000)", 1407920, 4582, 0, 1644, 6962938281770954676),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=term k=2 faults=seeded(3) arrivals=poisson(7,10,12000)", 1322400, 7649, 33, 1644, 18371844445120437326),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=distmem k=2 faults=seeded(3) arrivals=poisson(7,10,12000)", 1405650, 6702, 22, 1644, 14117080263579104314),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=mpi k=2 faults=seeded(3) arrivals=poisson(7,10,12000)", 1391810, 4975, 146, 1644, 9465008896437851170),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=push k=2 faults=seeded(3) arrivals=poisson(7,10,12000)", 1483930, 4572, 0, 1644, 15395488883702057754),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=term k=2 faults=crashy(8) arrivals=poisson(7,10,12000)", 1370983, 9174, 42, 1644, 15169365004599814720),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=distmem k=2 faults=crashy(8) arrivals=poisson(7,10,12000)", 1392060, 7631, 21, 1644, 17103885748649303481),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=mpi k=2 faults=crashy(8) arrivals=poisson(7,10,12000)", 1588860, 5722, 114, 1644, 1275873710790542083),
    ("smp p=6 tree=binomial(23,16,2,0.4583333333333333) alg=push k=2 faults=crashy(8) arrivals=poisson(7,10,12000)", 2723352, 12769, 0, 2174, 500444604780666763),
];

/// Deaths, evictions and rejoins summed over every row's run.
#[derive(Default)]
struct Exercised {
    deaths: u64,
    evictions: u64,
    rejoins: u64,
}

fn row<'a>(line: &'a str, r: &RunReport, seen: &mut Exercised) -> Row<'a> {
    seen.deaths += r.deaths as u64;
    seen.evictions += r.evictions;
    seen.rejoins += r.rejoins;
    let ops = r.per_thread.iter().map(|t| t.comm.total_ops()).sum();
    let fold = r.service.as_ref().map_or(0, |s| {
        s.per_request.iter().fold(0u64, |h, q| {
            (h.rotate_left(7) ^ q.completed_ns).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
    });
    (line, r.makespan_ns, ops, r.steal_attempts, r.total_nodes, fold)
}

/// A DAG's work units (summed task weights) and weighted critical path.
fn dag_terms<D: DagGen>(dag: &D) -> (u64, u64) {
    ((0..dag.n_tasks()).map(|t| dag.weight(t)).sum(), dag.critical_path())
}

/// No batch row finishes faster than the model allows
/// ([`makespan_floor_ns`]): `W` is the workload's distinct tree nodes or
/// summed DAG task weights, `D` its critical path.
fn assert_above_floor(line: &str, spec: &RunSpec, r: &RunReport) {
    let (work, span) = match spec.workload {
        Workload::Tree(tree) => (r.total_nodes - r.duplicate_nodes, tree_depth(&UtsGen::new(tree))),
        Workload::ForkJoin(dag) => dag_terms(&dag),
        Workload::Wavefront(dag) => dag_terms(&dag),
        Workload::Layered { layers, width, edge_pm, seed } => {
            dag_terms(&RandomLayered::new(layers, width, edge_pm, seed))
        }
    };
    let floor = makespan_floor_ns(work, span, spec.machine_model().node_ns, spec.p);
    assert!(r.makespan_ns >= floor, "{line}: makespan {} ns under the model's floor {floor} ns", r.makespan_ns);
}

#[test]
fn schedules_match_the_frozen_table() {
    let mut seen = Exercised::default();
    let got: Vec<Row> = FROZEN
        .iter()
        .map(|&(line, ..)| {
            let spec: RunSpec = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(spec.to_string(), line, "a row's name is its spec's own line");
            let r = spec.run();
            if spec.arrivals.is_none() {
                assert_above_floor(line, &spec, &r);
            }
            row(line, &r, &mut seen)
        })
        .collect();
    // The crash rows only freeze something if their plans fire.
    assert!(seen.deaths > 0, "no row killed a rank");
    assert!(seen.evictions > 0, "no row evicted a rank by quorum");
    assert!(seen.rejoins > 0, "no row rejoined as a new incarnation");
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
