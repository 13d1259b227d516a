//! Tree shape specifications: the child-count laws of the UTS benchmark.
//!
//! The paper's evaluation uses *binomial* trees exclusively (§4.1, footnotes 1
//! and 2): the root has `b0` children; every other node has `m` children with
//! probability `q` and none with probability `1-q`. With `m*q` slightly below
//! 1 the process is just-subcritical, which yields the scale-free, extremely
//! heavy-tailed subtree-size distribution that defeats static partitioning.
//!
//! One other law is kept: a geometric child count with a fixed expected
//! branching factor and a depth cutoff. Its draw is not UTS's (ROADMAP item
//! 20), so it names no UTS sample tree; it gives the tests a law whose root
//! draws its own child count, and the benchmark its `uts.ns_per_node_seq_geo`
//! row.

use crate::node::Node;

/// Depth profile of the branching factor for geometric trees: only the
/// fixed one is left, and the enum keeps [`TreeSpec::geometric`]'s
/// signature, which the benchmark calls.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GeoShape {
    /// Constant expected branching factor `b0` until the depth cutoff.
    Fixed,
}

/// The child-count law.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TreeKind {
    /// Root has `b0` children; all other nodes have `m` children with
    /// probability `q`, else none. (The paper's tree type.)
    Binomial {
        /// Root branching factor.
        b0: u32,
        /// Non-root branching factor when the node branches.
        m: u32,
        /// Probability that a non-root node branches.
        q: f64,
    },
    /// Number of children drawn from a geometric distribution with expected
    /// value `b0`; nodes at `depth >= gen_mx` are leaves.
    Geometric {
        /// Expected branching factor.
        b0: f64,
        /// Depth cutoff.
        gen_mx: u32,
    },
}

/// A complete tree instance: a shape law plus the root seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeSpec {
    /// Root seed (`r` in the paper's parameter footnotes).
    pub seed: u32,
    /// Child-count law.
    pub kind: TreeKind,
}

/// Safety cap on the number of children of any single node (matches the UTS
/// reference implementation's `MAXNUMCHILDREN`-style guard for geometric
/// laws; binomial roots may exceed it by design).
pub const MAX_GEO_CHILDREN: u32 = 100;

impl TreeSpec {
    /// Binomial tree (the paper's configuration).
    pub fn binomial(seed: u32, b0: u32, m: u32, q: f64) -> TreeSpec {
        assert!((0.0..=1.0).contains(&q), "q must be a probability");
        TreeSpec {
            seed,
            kind: TreeKind::Binomial { b0, m, q },
        }
    }

    /// Geometric tree of the one profile there is.
    pub fn geometric(seed: u32, b0: f64, gen_mx: u32, GeoShape::Fixed: GeoShape) -> TreeSpec {
        assert!(b0 > 0.0);
        TreeSpec {
            seed,
            kind: TreeKind::Geometric { b0, gen_mx },
        }
    }

    /// The root node of this tree.
    pub fn root(&self) -> Node {
        Node::root(self.seed)
    }

    /// Number of children of `node` under this law.
    pub fn num_children(&self, node: &Node) -> u32 {
        match self.kind {
            TreeKind::Binomial { b0, m, q } => {
                if node.height == 0 {
                    b0
                } else {
                    binomial_children(node, m, q)
                }
            }
            TreeKind::Geometric { b0, gen_mx } => geometric_children(node, b0, gen_mx),
        }
    }

    /// Expand `node`, pushing its children onto `out` (in child-index order).
    /// Returns the number of children produced.
    pub fn expand_into(&self, node: &Node, out: &mut Vec<Node>) -> u32 {
        let n = self.num_children(node);
        node.children(0..n, out);
        n
    }

    /// Expected subtree size below a *non-root* binomial node: `1/(1 - m q)`.
    /// Returns `None` for non-binomial laws or supercritical parameters.
    pub fn expected_binomial_subtree(&self) -> Option<f64> {
        match self.kind {
            TreeKind::Binomial { m, q, .. } => {
                let drift = m as f64 * q;
                (drift < 1.0).then(|| 1.0 / (1.0 - drift))
            }
            _ => None,
        }
    }
}

/// Binomial law for non-root nodes: `m` children with probability `q`.
fn binomial_children(node: &Node, m: u32, q: f64) -> u32 {
    // Compare the node's 31-bit random value against q scaled to 31 bits,
    // exactly like the UTS reference (`rng_toProb` + comparison).
    let threshold = (q * (1u64 << 31) as f64) as u32;
    if node.rand31() < threshold {
        m
    } else {
        0
    }
}

/// Geometric law: child count with expectation `b0`; leaves at and beyond
/// the depth cutoff.
fn geometric_children(node: &Node, b0: f64, gen_mx: u32) -> u32 {
    if node.height >= gen_mx {
        return 0;
    }
    // Draw from a geometric distribution with mean b0: success probability
    // p = 1/(1+b0); children = floor(ln(u) / ln(1-p)).
    let p = 1.0 / (1.0 + b0);
    let u = (node.rand31() as f64 + 1.0) / (1u64 << 31) as f64; // (0, 1]
    let n = (u.ln() / (1.0 - p).ln()).floor();
    (n as u32).min(MAX_GEO_CHILDREN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_root_has_b0_children() {
        let spec = TreeSpec::binomial(0, 17, 2, 0.4);
        assert_eq!(spec.num_children(&spec.root()), 17);
    }

    #[test]
    fn binomial_nonroot_children_are_zero_or_m() {
        let spec = TreeSpec::binomial(0, 8, 2, 0.45);
        let root = spec.root();
        for i in 0..8 {
            let c = root.child(i);
            let n = spec.num_children(&c);
            assert!(n == 0 || n == 2, "unexpected child count {n}");
        }
    }

    /// Empirically, the fraction of branching non-root nodes should be near q.
    #[test]
    fn binomial_branch_probability_close_to_q() {
        let q = 0.3;
        let spec = TreeSpec::binomial(3, 10_000, 2, q);
        let root = spec.root();
        let branching = (0..10_000u32)
            .filter(|&i| spec.num_children(&root.child(i)) == 2)
            .count() as f64
            / 10_000.0;
        assert!(
            (branching - q).abs() < 0.02,
            "empirical branch prob {branching} vs q {q}"
        );
    }

    #[test]
    fn q_extremes() {
        let never = TreeSpec::binomial(0, 4, 2, 0.0);
        let root = never.root();
        for i in 0..4 {
            assert_eq!(never.num_children(&root.child(i)), 0);
        }
        // q = 1.0: threshold is 2^31, every rand31 < 2^31 branches.
        let always = TreeSpec::binomial(0, 4, 3, 1.0);
        for i in 0..4 {
            assert_eq!(always.num_children(&root.child(i)), 3);
        }
    }

    #[test]
    fn geometric_respects_depth_cutoff() {
        let spec = TreeSpec::geometric(1, 4.0, 3, GeoShape::Fixed);
        let mut n = spec.root();
        for _ in 0..3 {
            n = n.child(0);
        }
        assert_eq!(n.height, 3);
        assert_eq!(spec.num_children(&n), 0);
    }

    #[test]
    fn geometric_mean_children_near_b0() {
        let b0 = 3.0;
        let spec = TreeSpec::geometric(1, b0, 100, GeoShape::Fixed);
        let root = spec.root();
        let mut total = 0u64;
        let samples = 20_000u32;
        for i in 0..samples {
            total += spec.num_children(&root.child(i)) as u64;
        }
        let mean = total as f64 / samples as f64;
        assert!(
            (mean - b0).abs() < 0.15,
            "empirical mean {mean} vs b0 {b0}"
        );
    }

    #[test]
    fn geometric_children_capped() {
        let spec = TreeSpec::geometric(1, 1e6, 10, GeoShape::Fixed);
        let root = spec.root();
        for i in 0..100 {
            assert!(spec.num_children(&root.child(i)) <= MAX_GEO_CHILDREN);
        }
    }

    #[test]
    fn expand_into_matches_num_children() {
        let spec = TreeSpec::binomial(0, 5, 2, 0.5);
        let mut out = Vec::new();
        let n = spec.expand_into(&spec.root(), &mut out);
        assert_eq!(n, 5);
        assert_eq!(out.len(), 5);
        assert_eq!(out[3], spec.root().child(3));
    }

    #[test]
    fn expected_subtree_size_formula() {
        let spec = TreeSpec::binomial(0, 4, 2, 0.25);
        assert!((spec.expected_binomial_subtree().unwrap() - 2.0).abs() < 1e-12);
        let crit = TreeSpec::binomial(0, 4, 2, 0.5);
        assert!(crit.expected_binomial_subtree().is_none());
        let geo = TreeSpec::geometric(0, 2.0, 4, GeoShape::Fixed);
        assert!(geo.expected_binomial_subtree().is_none());
    }
}
