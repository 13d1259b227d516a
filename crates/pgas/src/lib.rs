//! # pgas — a UPC-like partitioned global address space substrate
//!
//! The paper's implementations are written in UPC: a global address space
//! partitioned across threads, with *affinity* (each shared object lives with
//! one thread), one-sided reads/writes (`upc_memget`/`upc_memput`), global
//! locks (`upc_lock_t`), and a progress hook (`bupc_poll()`).
//!
//! This crate reproduces those semantics behind the [`Comm`] trait, with two
//! interchangeable backends:
//!
//! - [`native`]: real OS threads on real shared memory (atomics + mutexes).
//!   This is the paper's *shared memory* setting (§4.3): communication is as
//!   fast as the machine's cache coherence.
//! - [`sim`]: a deterministic **virtual-time** executor. Every simulated UPC
//!   thread is a fiber (an OS thread on targets other than x86-64 Linux), but
//!   exactly one runs at a time and threads are
//!   scheduled in global virtual-clock order, so execution is sequentially
//!   consistent in virtual time and fully deterministic. Each operation
//!   advances the issuing thread's clock by a cost taken from a
//!   [`MachineModel`]; this reproduces the paper's *distributed memory*
//!   setting (§4.2) — 2008-era Infiniband latencies, hundreds-to-thousands
//!   of threads — on a single host. A lookahead fast path keeps the
//!   scheduling overhead off the simulation's hot loops without changing a
//!   single virtual result; the reference conductor is the same executor
//!   with that policy switched off, a naive pop-the-minimum per operation
//!   (see `docs/conductor.md`).
//!
//! The global space itself is deliberately simple, shaped by what the
//! paper's five load balancers need:
//!
//! - per-thread **scalar cells** (`i64`) with one-sided get/put/cas/add —
//!   UPC shared scalar variables (`work_avail`, steal-request cells, ...),
//! - per-thread **locks** — `upc_lock_t`,
//! - a per-thread **item area** (a growable array of `T`) with bulk
//!   one-sided reads/writes — the shared region of each DFS stack,
//! - per-thread **mailboxes** carrying typed messages — MPI's
//!   send/recv/iprobe over the same cost model (`mpi-ws` and its token ring
//!   in `worksteal`).
//!
//! ```
//! use pgas::{sim::SimCluster, MachineModel, SpaceConfig, Comm};
//!
//! let cluster = SimCluster::<u64>::new(MachineModel::smp(), 4, SpaceConfig::default());
//! let report = cluster.run(|mut c| {
//!     // every thread increments a counter with affinity to thread 0
//!     c.add(0, 0, 1);
//!     c.my_id()
//! });
//! assert_eq!(report.results, vec![0, 1, 2, 3]);
//! assert_eq!(report.final_scalar(0, 0), 4);
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod collectives;
pub mod comm;
pub mod fault;
#[cfg(pgas_fiber)]
mod fiber;
pub mod machine;
pub mod msg;
pub mod native;
pub mod sim;
pub mod stats;

pub use arrival::{ArrivalProcess, ArrivalSpec};
pub use collectives::Collectives;
pub use comm::{Comm, Cycle, MailProbe, OpClass, SpaceConfig};
pub use fault::FaultPlan;
pub use machine::{Distance, MachineModel};
pub use msg::Msg;
pub use stats::{CommStats, ConductorStats};
