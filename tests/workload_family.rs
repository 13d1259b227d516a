//! The load balancers must work on the *whole* UTS family, not just the
//! paper's binomial trees: geometric (all four depth profiles) and hybrid
//! shapes too, since the child-count law is opaque to the algorithms.

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
    check("p=4 tree=geometric(1,2,8,fixed) alg=distmem");
}

#[test]
fn geometric_linear() {
    check("p=4 tree=geometric(2,4,10,linear) alg=rapdif");
}

#[test]
fn geometric_expdec() {
    check("p=3 tree=geometric(3,6,12,expdec) alg=mpi");
}

#[test]
fn geometric_cyclic() {
    check("p=4 tree=geometric(5,2,4,cyclic) alg=term");
}

#[test]
fn hybrid_tree_all_paper_algorithms() {
    for alg in ["sharedmem", "term", "rapdif", "distmem", "mpi"] {
        check(&format!("p=5 tree=hybrid(4,3,3,2,0.4) alg={alg}"));
    }
}
