//! Reference sequential depth-first traversal.
//!
//! This is the baseline against which every parallel run is validated (node
//! counts must match exactly) and measured (§4.1 of the paper reports the
//! sequential exploration rate, which anchors the machine models).

use crate::node::Node;
use crate::spec::TreeSpec;

/// Result of a sequential traversal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqResult {
    /// Total number of tree nodes visited (including the root).
    pub nodes: u64,
    /// Number of leaves.
    pub leaves: u64,
    /// Maximum node height observed.
    pub max_depth: u32,
    /// High-water mark of the explicit DFS stack.
    pub max_stack: usize,
}

/// Count every node of the tree with an explicit-stack DFS.
pub fn dfs_count(spec: &TreeSpec) -> SeqResult {
    dfs_count_bounded(spec, u64::MAX).expect("unbounded traversal cannot exceed the bound")
}

/// Like [`dfs_count`] but aborts (returning `None`) once more than `limit`
/// nodes have been visited — a guard for possibly-supercritical parameters.
pub fn dfs_count_bounded(spec: &TreeSpec, limit: u64) -> Option<SeqResult> {
    let mut stack: Vec<Node> = vec![spec.root()];
    let mut res = SeqResult {
        max_stack: 1,
        ..SeqResult::default()
    };
    while let Some(node) = stack.pop() {
        res.nodes += 1;
        if res.nodes > limit {
            return None;
        }
        res.max_depth = res.max_depth.max(node.height);
        // `node` is a copy, so its children go straight onto the stack.
        if spec.expand_into(&node, &mut stack) == 0 {
            res.leaves += 1;
        }
        res.max_stack = res.max_stack.max(stack.len());
    }
    Some(res)
}

/// Count only the subtree rooted at `node` (used by imbalance statistics and
/// by tests that cross-check partial traversals).
pub fn dfs_count_subtree(spec: &TreeSpec, node: Node) -> u64 {
    let mut stack = vec![node];
    let mut count = 0u64;
    while let Some(n) = stack.pop() {
        count += 1;
        spec.expand_into(&n, &mut stack);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GeoShape;

    /// q = 0: the tree is exactly the root plus its b0 leaf children.
    #[test]
    fn star_tree() {
        let spec = TreeSpec::binomial(0, 12, 2, 0.0);
        let r = dfs_count(&spec);
        assert_eq!(r.nodes, 13);
        assert_eq!(r.leaves, 12);
        assert_eq!(r.max_depth, 1);
    }

    /// b0 = 0: the tree is just the root.
    #[test]
    fn single_node_tree() {
        let spec = TreeSpec::binomial(0, 0, 2, 0.9);
        let r = dfs_count(&spec);
        assert_eq!(r.nodes, 1);
        assert_eq!(r.leaves, 1);
        assert_eq!(r.max_depth, 0);
        assert_eq!(r.max_stack, 1);
    }

    /// Leaves + internal nodes account for every node; for a binary-or-leaf
    /// law, nodes = 2*internal_nonroot + ... simpler: check leaf/node
    /// relation for m=2: every internal non-root node has exactly 2 children,
    /// so nodes = 1 + b0 + 2*(internal non-root).
    #[test]
    fn binomial_node_leaf_arithmetic() {
        let spec = TreeSpec::binomial(5, 20, 2, 0.47);
        let r = dfs_count(&spec);
        let internal = r.nodes - r.leaves;
        // children edges: root contributes 20, every other internal node 2.
        let edges = 20 + 2 * (internal - 1);
        assert_eq!(edges, r.nodes - 1, "every non-root node has one parent");
    }

    /// Subtree counts of the root's children sum to the whole tree.
    #[test]
    fn subtree_counts_sum() {
        let spec = TreeSpec::binomial(9, 8, 2, 0.45);
        let whole = dfs_count(&spec);
        let root = spec.root();
        let sum: u64 = (0..8).map(|i| dfs_count_subtree(&spec, root.child(i))).sum();
        assert_eq!(sum + 1, whole.nodes);
    }

    #[test]
    fn bounded_traversal_aborts() {
        let spec = TreeSpec::binomial(5, 20, 2, 0.47);
        let full = dfs_count(&spec).nodes;
        assert!(dfs_count_bounded(&spec, full - 1).is_none());
        assert_eq!(dfs_count_bounded(&spec, full).unwrap().nodes, full);
    }

    #[test]
    fn geometric_fixed_tree_terminates() {
        let spec = TreeSpec::geometric(1, 2.0, 6, GeoShape::Fixed);
        let r = dfs_count_bounded(&spec, 10_000_000).expect("tree too large");
        assert!(r.nodes >= 1);
        assert!(r.max_depth <= 6);
    }

    /// Traversal is deterministic.
    #[test]
    fn deterministic() {
        let spec = TreeSpec::binomial(11, 16, 2, 0.48);
        assert_eq!(dfs_count(&spec), dfs_count(&spec));
    }
}

/// Lazy depth-first iterator over a tree's nodes.
///
/// Yields every node exactly once in DFS order without materialising the
/// tree; memory use is bounded by the DFS stack high-water mark. Useful for
/// streaming analyses (sampling node properties, exporting subsets) where
/// [`dfs_count`]'s aggregate view is too coarse.
///
/// ```
/// use uts_tree::{TreeSpec, seq::DfsIter};
/// let spec = TreeSpec::binomial(0, 4, 2, 0.3);
/// let total = DfsIter::new(&spec).count() as u64;
/// assert_eq!(total, uts_tree::seq::dfs_count(&spec).nodes);
/// ```
pub struct DfsIter<'a> {
    spec: &'a TreeSpec,
    stack: Vec<Node>,
}

impl<'a> DfsIter<'a> {
    /// Iterator over every node of `spec`'s tree, root first.
    pub fn new(spec: &'a TreeSpec) -> DfsIter<'a> {
        DfsIter {
            spec,
            stack: vec![spec.root()],
        }
    }

    /// Current DFS stack depth (diagnostic).
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }
}

impl Iterator for DfsIter<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        let node = self.stack.pop()?;
        self.spec.expand_into(&node, &mut self.stack);
        Some(node)
    }
}

#[cfg(test)]
mod iter_tests {
    use super::*;

    #[test]
    fn iterator_agrees_with_dfs_count() {
        let spec = TreeSpec::binomial(5, 12, 2, 0.44);
        let r = dfs_count(&spec);
        let mut n = 0u64;
        let mut leaves = 0u64;
        let mut max_depth = 0u32;
        for node in DfsIter::new(&spec) {
            n += 1;
            if spec.num_children(&node) == 0 {
                leaves += 1;
            }
            max_depth = max_depth.max(node.height);
        }
        assert_eq!(n, r.nodes);
        assert_eq!(leaves, r.leaves);
        assert_eq!(max_depth, r.max_depth);
    }

    #[test]
    fn first_item_is_root() {
        let spec = TreeSpec::binomial(3, 2, 2, 0.2);
        let mut it = DfsIter::new(&spec);
        assert_eq!(it.next(), Some(spec.root()));
    }

    #[test]
    fn iterator_is_fused_at_end() {
        let spec = TreeSpec::binomial(0, 0, 2, 0.0);
        let mut it = DfsIter::new(&spec);
        assert!(it.next().is_some());
        assert!(it.next().is_none());
        assert!(it.next().is_none());
    }

    #[test]
    fn visits_each_node_once() {
        use std::collections::HashSet;
        let spec = TreeSpec::binomial(9, 8, 2, 0.4);
        let mut seen = HashSet::new();
        for node in DfsIter::new(&spec) {
            assert!(seen.insert(node), "duplicate node visited");
        }
        assert_eq!(seen.len() as u64, dfs_count(&spec).nodes);
    }
}
