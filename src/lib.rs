//! # uts-dlb — Scalable Dynamic Load Balancing (UPC work stealing, reproduced in Rust)
//!
//! Facade crate re-exporting the full reproduction of Olivier & Prins,
//! *Scalable Dynamic Load Balancing Using UPC* (ICPP 2008):
//!
//! - [`sha1`] — RFC 3174 SHA-1 (tree-generation substrate)
//! - [`tree`] — the UTS benchmark trees (binomial, and one geometric law)
//! - [`pgas`] — the UPC-like PGAS substrate (native threads or virtual-time simulation)
//! - [`worksteal`] — the paper's five load-balancing algorithms and run harness
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.
#![warn(missing_docs)]

pub use pgas;
pub use uts_sha1 as sha1;
pub use uts_tree as tree;
pub use worksteal;
