//! # uts-tree — the Unbalanced Tree Search benchmark
//!
//! UTS (Olivier et al., LCPC 2006) defines a family of *implicit* trees: every
//! node is a 20-byte SHA-1 state, and the children of a node are obtained by
//! hashing the parent state together with the child index. The whole tree is
//! therefore determined by a root seed and a handful of distribution
//! parameters, yet its realised shape is wildly imbalanced — the property that
//! makes it a stress test for dynamic load balancing.
//!
//! This crate provides:
//! - [`Node`]: the 24-byte task descriptor moved between workers,
//! - [`TreeSpec`]: the binomial child-count law (the paper's) and one
//!   geometric law,
//! - [`seq`]: the reference sequential count (sixteen children per SHA-1
//!   call) and a depth-first iterator,
//! - [`presets`]: frozen tree instances (exact sizes verified by tests),
//! - [`stats`]: imbalance analysis (subtree-size distribution under the root).
//!
//! # Example
//! ```
//! use uts_tree::{TreeSpec, seq::dfs_count};
//! let spec = TreeSpec::binomial(0, 4, 2, 0.49);
//! let result = dfs_count(&spec);
//! assert!(result.nodes >= 5); // root + 4 children at least
//! ```

#![warn(missing_docs)]

pub mod node;
pub mod presets;
pub mod seq;
pub mod spec;
pub mod stats;

pub use node::Node;
pub use spec::{GeoShape, TreeKind, TreeSpec};
