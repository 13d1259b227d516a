//! The load balancers must work on more than the paper's binomial trees:
//! the child-count law is opaque to the algorithms, so every paper
//! algorithm also counts a geometric tree, whose root draws its own child
//! count.

use uts_dlb::worksteal::spec::Workload;
use uts_dlb::worksteal::{seq_run, RunSpec, UtsGen};

/// Run `smp <words> k=4` and count its tree exactly. Geometric roots draw
/// their child count too: a given seed can yield a single-node tree
/// (probability 1/(1+b0)), so the seed first moves forward to the first
/// non-degenerate instance.
fn check(words: &str) {
    let mut spec: RunSpec = format!("smp {words} k=4").parse().unwrap();
    let Workload::Tree(tree) = &mut spec.workload else { unreachable!("a tree") };
    let expect = loop {
        let (expect, _) = seq_run(&UtsGen::new(*tree));
        if expect > 10 {
            break expect;
        }
        tree.seed += 100;
    };
    assert_eq!(spec.run().total_nodes, expect, "{spec}");
}

#[test]
fn geometric_fixed() {
    check("p=4 tree=geometric(1,2,8) alg=distmem");
}

/// Every paper algorithm on a law other than the binomial one. The name is
/// the one this test had when it ran on UTS's hybrid law, since deleted; the
/// geometric law is the non-binomial law that remains.
#[test]
fn hybrid_tree_all_paper_algorithms() {
    for alg in ["sharedmem", "term", "rapdif", "distmem", "mpi"] {
        check(&format!("p=5 tree=geometric(4,3,6) alg={alg}"));
    }
}
