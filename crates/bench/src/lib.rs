//! The experiment table behind the `exp` binary and the plumbing it shares
//! with `uts_cli`. See `src/bin/`.
#![warn(missing_docs)]

pub mod chaos;
pub mod exp;
pub mod harness;
pub mod ready_wait;
pub mod viz;
