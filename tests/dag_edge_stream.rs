//! The layered DAG's edge stream, pinned. `RandomLayered::new` draws its
//! edges from a seeded mixer and stores them in CSR form; how it stores them
//! may change, what it draws may not: every successor list (in order), every
//! in-degree and weight, and the critical path feed the schedules that
//! `results/dag_sweep.csv`, the frozen rows and the benchmark's
//! `dag_layered` makespan pin. Each shape below holds FNV-1a digests of the
//! first three and the critical path itself, so a generator rewrite that
//! moves one edge fails here, naming the shape, before it moves a schedule.

use uts_dlb::worksteal::{DagGen, RandomLayered};

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Digests of one DAG's successor lists, in-degrees and weights, then its
/// critical path as it is. A successor list is hashed with its length first,
/// so moving an edge from one task to the next changes the digest.
fn digests(g: &RandomLayered) -> [u64; 4] {
    let (mut succ, mut indeg, mut weight) = (Fnv::new(), Fnv::new(), Fnv::new());
    let mut out = Vec::new();
    for t in 0..g.n_tasks() {
        out.clear();
        g.successors(t, &mut out);
        succ.word(out.len() as u64);
        out.iter().for_each(|&s| succ.word(s));
        indeg.word(u64::from(g.in_degree(t)));
        weight.word(g.weight(t));
    }
    [succ.0, indeg.0, weight.0, g.critical_path()]
}

/// The benchmark's DAG seed on ledger seed 1: `DAG_SEED ^ perturb(1, 0)` in
/// `bench/src/workloads.rs`.
const LEDGER_SEED_1: u64 = 3 ^ 64u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);

/// `RandomLayered::new`'s `(layers, width, edge_pm, seed)`.
type Shape = (u32, u32, u32, u64);

/// Every shape the repo runs, each with its [`digests`] as the
/// per-task-vector generator that the CSR build replaced drew them. On a
/// mismatch the test prints the rows as they now are; paste them only if
/// the generator's draws change on purpose, which moves every DAG schedule
/// in the repo.
#[rustfmt::skip]
const TABLE: [(Shape, [u64; 4]); 14] = [
    // The benchmark's `dag_layered` (and `exp ready_wait`), at DAG seed 3
    // and at ledger seed 1.
    ((100, 256, 80, 3), [0xfac046578aec2197, 0x7804a60718ff20ff, 0x626419ff45b630a0, 502]),
    ((100, 256, 80, LEDGER_SEED_1), [0xaee4df2c0c66de69, 0xdbd38212a5f6a7d4, 0xd7e5d3c3e4442887, 503]),
    // The layered shapes of `exp dag_sweep` and `exp dag_sweep_smoke`.
    ((40, 120, 80, 3), [0x3127c28c6e55824a, 0x2b22cc9711c74514, 0xc2c287091b329c21, 202]),
    ((8, 12, 150, 3), [0x7a9bcf5e97188254, 0xdac4b48c4a543724, 0x4e64d9868eb516c0, 38]),
    // The test suites' shapes.
    ((5, 256, 80, 11), [0x2d1c1ed659d38a1e, 0xa4e8aaf9fece3ecf, 0x64bd9be1abd20226, 28]),
    ((6, 10, 250, 7), [0xe1722f0d97240dc4, 0x6826cf9259432b29, 0xf0cad99f024a2122, 28]),
    ((5, 8, 200, 11), [0x302722201768a36f, 0x1e21a2f07f1c39c3, 0x0b0a67db3a4c5ac2, 26]),
    ((8, 24, 200, 5), [0x9fe76b11dbb6390d, 0x89c3bf72012ae887, 0x906c1cf024e931a5, 45]),
    ((7, 9, 300, 23), [0x15807937522ad0e7, 0xc38b0fcef32de767, 0x763f822c7fc219e5, 35]),
    ((6, 32, 150, 4), [0x4f59a57f49ca5f07, 0x7bd2883854894ccc, 0x1e4ef3cb239846c5, 35]),
    // Edge cases: one layer, width 1, no extra edges, every extra edge.
    ((1, 64, 500, 5), [0x0b257990bab36fc5, 0x407874079cd11dc5, 0x2070f5067c63d8e4, 10]),
    ((30, 1, 500, 5), [0x6c6683a396ce235a, 0x301bb68987a8d8a5, 0xd54786a604200284, 91]),
    ((12, 40, 0, 5), [0x041cd6ce40c0fac6, 0x4f9e32bcbe21e7c5, 0x335ec96c3feee2a1, 54]),
    ((6, 40, 1000, 5), [0x8ce0044925e1f345, 0xea88cf23c4c61245, 0x811561f4e6049b20, 35]),
];

#[test]
fn layered_edge_streams_match_their_digests() {
    let mut wrong = Vec::new();
    for ((layers, width, edge_pm, seed), want) in TABLE {
        let got = digests(&RandomLayered::new(layers, width, edge_pm, seed));
        if got != want {
            let [a, b, c, d] = got;
            wrong.push(format!(
                "(({layers}, {width}, {edge_pm}, {seed}), [{a:#018x}, {b:#018x}, {c:#018x}, {d}]),"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "edge streams moved:\n{}",
        wrong.join("\n")
    );
}
