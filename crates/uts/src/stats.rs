//! Imbalance statistics.
//!
//! The paper's §4.1 notes that in its sample problem "over 99.9% of the work
//! is contained in just one of the 2000 subtrees below the root". The preset
//! trees in this repo are validated against the same kind of yardstick: these
//! helpers measure how concentrated the work is.

use crate::seq::dfs_count_subtree;
use crate::spec::TreeSpec;

/// Distribution of work across the subtrees rooted at the root's children.
#[derive(Clone, Debug, Default)]
pub struct Imbalance {
    /// Total nodes in the tree (including the root).
    pub total: u64,
    /// Per-root-child subtree sizes, sorted descending.
    pub child_sizes: Vec<u64>,
}

impl Imbalance {
    /// Fraction of all nodes contained in the single largest root subtree.
    pub fn largest_fraction(&self) -> f64 {
        match self.child_sizes.first() {
            Some(&s) => s as f64 / self.total as f64,
            None => 0.0,
        }
    }

    /// Smallest number of root subtrees that together hold at least `frac`
    /// of the nodes. A tiny value on a wide root signals extreme imbalance.
    pub fn subtrees_for_fraction(&self, frac: f64) -> usize {
        let target = (self.total as f64 * frac) as u64;
        let mut acc = 0u64;
        for (i, &s) in self.child_sizes.iter().enumerate() {
            acc += s;
            if acc >= target {
                return i + 1;
            }
        }
        self.child_sizes.len()
    }

    /// Coefficient of variation of the root-subtree sizes (std-dev / mean).
    pub fn coefficient_of_variation(&self) -> f64 {
        let n = self.child_sizes.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.child_sizes.iter().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .child_sizes
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

/// Measure the subtree-size distribution under the root by full traversal of
/// every root child. Cost is one full tree traversal.
pub fn measure_imbalance(spec: &TreeSpec) -> Imbalance {
    let root = spec.root();
    let nchildren = spec.num_children(&root);
    let mut child_sizes: Vec<u64> = (0..nchildren)
        .map(|i| dfs_count_subtree(spec, root.child(i)))
        .collect();
    child_sizes.sort_unstable_by(|a, b| b.cmp(a));
    let total = 1 + child_sizes.iter().sum::<u64>();
    Imbalance { total, child_sizes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_tree_is_balanced() {
        let spec = TreeSpec::binomial(0, 10, 2, 0.0);
        let imb = measure_imbalance(&spec);
        assert_eq!(imb.total, 11);
        assert_eq!(imb.child_sizes, vec![1; 10]);
        assert!(imb.coefficient_of_variation() < 1e-12);
        assert_eq!(imb.subtrees_for_fraction(0.5), 5);
    }

    #[test]
    fn subcritical_tree_is_imbalanced() {
        // Close-to-critical branching: sizes should vary by orders of
        // magnitude across root children.
        let spec = TreeSpec::binomial(3, 64, 2, 0.495);
        let imb = measure_imbalance(&spec);
        assert!(imb.coefficient_of_variation() > 1.0, "cv = {}", imb.coefficient_of_variation());
        // Work concentrated in far fewer than half the subtrees.
        assert!(imb.subtrees_for_fraction(0.9) < 16);
    }

    #[test]
    fn largest_fraction_bounds() {
        let spec = TreeSpec::binomial(3, 16, 2, 0.45);
        let imb = measure_imbalance(&spec);
        let f = imb.largest_fraction();
        assert!(f > 0.0 && f <= 1.0);
    }

    #[test]
    fn empty_imbalance_is_safe() {
        let imb = Imbalance::default();
        assert_eq!(imb.largest_fraction(), 0.0);
        assert_eq!(imb.coefficient_of_variation(), 0.0);
    }
}

/// Per-depth node counts and the DFS stack-depth profile of a tree.
///
/// The stack high-water mark bounds the shared-region footprint each worker
/// needs; the depth histogram characterises where the work lives.
#[derive(Clone, Debug, Default)]
pub struct DepthProfile {
    /// `histogram[d]` = number of nodes at depth `d`.
    pub histogram: Vec<u64>,
    /// Total nodes.
    pub total: u64,
    /// Maximum DFS stack occupancy during a sequential traversal.
    pub max_stack: usize,
}

impl DepthProfile {
    /// Depth below which `frac` of all nodes lie.
    pub fn depth_quantile(&self, frac: f64) -> u32 {
        let target = (self.total as f64 * frac) as u64;
        let mut acc = 0u64;
        for (d, &n) in self.histogram.iter().enumerate() {
            acc += n;
            if acc >= target {
                return d as u32;
            }
        }
        self.histogram.len().saturating_sub(1) as u32
    }

    /// Mean node depth.
    pub fn mean_depth(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(d, &n)| d as f64 * n as f64)
            .sum();
        weighted / self.total as f64
    }
}

/// Measure the depth profile with one sequential traversal.
pub fn depth_profile(spec: &TreeSpec) -> DepthProfile {
    let mut stack = vec![spec.root()];
    let mut prof = DepthProfile {
        max_stack: 1,
        ..DepthProfile::default()
    };
    while let Some(node) = stack.pop() {
        let d = node.height as usize;
        if prof.histogram.len() <= d {
            prof.histogram.resize(d + 1, 0);
        }
        prof.histogram[d] += 1;
        prof.total += 1;
        spec.expand_into(&node, &mut stack);
        prof.max_stack = prof.max_stack.max(stack.len());
    }
    prof
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn star_profile() {
        let spec = TreeSpec::binomial(0, 6, 2, 0.0);
        let p = depth_profile(&spec);
        assert_eq!(p.histogram, vec![1, 6]);
        assert_eq!(p.total, 7);
        assert!((p.mean_depth() - 6.0 / 7.0).abs() < 1e-12);
        assert_eq!(p.depth_quantile(0.1), 0);
        assert_eq!(p.depth_quantile(1.0), 1);
    }

    #[test]
    fn profile_total_matches_dfs_count() {
        let spec = TreeSpec::binomial(7, 16, 2, 0.46);
        let p = depth_profile(&spec);
        let r = crate::seq::dfs_count(&spec);
        assert_eq!(p.total, r.nodes);
        assert_eq!(p.max_stack, r.max_stack);
        assert_eq!(p.histogram.len() as u32 - 1, r.max_depth);
        assert_eq!(p.histogram.iter().sum::<u64>(), r.nodes);
    }

    #[test]
    fn single_node_profile() {
        let spec = TreeSpec::binomial(0, 0, 2, 0.5);
        let p = depth_profile(&spec);
        assert_eq!(p.histogram, vec![1]);
        assert_eq!(p.mean_depth(), 0.0);
    }
}
