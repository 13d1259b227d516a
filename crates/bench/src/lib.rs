//! The experiment table behind the `exp` binary and the plumbing every
//! harness binary shares. See `src/bin/`.
#![warn(missing_docs)]

pub mod chaos;
pub mod exp;
pub mod harness;
pub mod ready_wait;
