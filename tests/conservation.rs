//! The golden invariant, across the whole matrix: every algorithm, backend,
//! tree shape, thread count, and chunk size must count every node exactly
//! once. Any termination-detection or steal-protocol bug shows up here as a
//! lost/duplicated node or a hang.

use uts_dlb::worksteal::spec::{algorithm_name, Workload};
use uts_dlb::worksteal::{seq_run, Algorithm, RunSpec, UtsGen};

/// `alg` on `threads` threads of `machine` with chunk size `k` over `tree`
/// (a spec's `tree=` value) counts every node exactly once.
fn check_sim(machine: &str, tree: &str, threads: usize, k: usize, alg: Algorithm) {
    let line = format!("{machine} p={threads} tree={tree} alg={} k={k}", algorithm_name(alg));
    let spec: RunSpec = line.parse().unwrap();
    let Workload::Tree(tree) = spec.workload else { unreachable!("a tree") };
    assert_eq!(spec.run().total_nodes, seq_run(&UtsGen::new(tree)).0, "{line}");
}

#[test]
fn paper_algorithms_tiny_tree_thread_grid() {
    for alg in Algorithm::paper_set() {
        for threads in [1, 2, 4, 9] {
            check_sim("smp", "tiny", threads, 2, alg);
        }
    }
}

#[test]
fn extensions_tiny_tree_thread_grid() {
    for alg in [Algorithm::Hier, Algorithm::Pushing] {
        for threads in [1, 3, 8] {
            check_sim("smp", "tiny", threads, 2, alg);
        }
    }
}

#[test]
fn chunk_size_grid() {
    for alg in [Algorithm::DistMem, Algorithm::SharedMem, Algorithm::MpiWs] {
        for k in [1, 2, 7, 32] {
            check_sim("kittyhawk", "tiny", 4, k, alg);
        }
    }
}

#[test]
fn high_latency_machine_models() {
    for m in ["kittyhawk", "topsail", "altix"] {
        for alg in [Algorithm::DistMem, Algorithm::Term, Algorithm::MpiWs] {
            check_sim(m, "tiny", 6, 2, alg);
        }
    }
}

#[test]
fn degenerate_trees() {
    // Root-only, star, and a two-child root: work may be scarcer than
    // threads; termination must still be detected.
    for tree in ["binomial(1,0,2,0.9)", "binomial(2,6,2,0)", "binomial(4,2,2,0.45)"] {
        for alg in Algorithm::paper_set() {
            check_sim("smp", tree, 5, 2, alg);
        }
    }
}

#[test]
fn more_threads_than_nodes() {
    // 13-node star on 16 threads: most threads never get work at all.
    for alg in Algorithm::all() {
        check_sim("smp", "binomial(9,12,2,0)", 16, 1, alg);
    }
}

/// Mid-size tree, release profile: a bigger run (~46k nodes) exercising
/// deep stacks, compaction, and multi-chunk grants.
#[test]
fn t_s_distmem_and_rapdif() {
    for alg in [Algorithm::DistMem, Algorithm::TermRapdif] {
        check_sim("kittyhawk", "s", 8, 4, alg);
    }
}
