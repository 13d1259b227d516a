//! # worksteal — scalable asynchronous work stealing (the paper's contribution)
//!
//! Reproduces all five load-balancing implementations evaluated in
//! Olivier & Prins, *Scalable Dynamic Load Balancing Using UPC* (ICPP 2008):
//!
//! | [`Algorithm`]                                     | Paper label       | Section |
//! |---------------------------------------------------|-------------------|---------|
//! | [`Algorithm::SharedMem`]                          | `upc-sharedmem`   | §3.1    |
//! | [`Algorithm::Term`]                               | `upc-term`        | §3.3.1  |
//! | [`Algorithm::TermRapdif`]                         | `upc-term-rapdif` | §3.3.2  |
//! | [`Algorithm::DistMem`]                            | `upc-distmem`     | §3.3.3  |
//! | [`Algorithm::MpiWs`]                              | `mpi-ws`          | §3.2    |
//!
//! plus two extensions: [`Algorithm::Hier`] (the §6.2 future-work idea:
//! steal within the compute node before probing off-node) and
//! [`Algorithm::Pushing`] (a randomized work-*pushing* baseline in the
//! spirit of the paper's reference \[16\]).
//!
//! Every worker runs the Figure-1 state machine (Working → Work Discovery →
//! Work Stealing → Termination Detection) over the [`pgas::Comm`] substrate,
//! so the same code executes on real threads (`native`) or on the
//! virtual-time cluster simulator (`sim`).
//!
//! The engine is generic over [`TaskGen`], so any exhaustive tree-shaped
//! search — not just UTS — can be load balanced (see `examples/`).
//!
//! ```
//! use worksteal::{run_sim, Algorithm, RunConfig, UtsGen};
//! use pgas::MachineModel;
//!
//! let preset = uts_tree::presets::t_tiny();
//! let cfg = RunConfig { algorithm: Algorithm::DistMem, ..RunConfig::default() };
//! let report = run_sim(MachineModel::smp(), 4, &UtsGen::new(preset.spec), &cfg);
//! assert_eq!(report.total_nodes, preset.expected.nodes);
//! ```

#![warn(missing_docs)]

pub mod barrier;
pub mod config;
pub mod distmem;
pub mod engine;
pub mod hist;
pub mod locked;
pub mod model;
pub mod mpi_ws;
pub mod probe;
pub mod pushing;
pub mod recovery;
pub mod report;
pub mod sched;
pub mod service;
pub mod stack;
pub mod state;
pub mod taskgen;
pub mod theory;
pub mod trace;
pub mod vars;
pub mod workload;

pub use config::{Algorithm, ConfigError, RunConfig};
pub use engine::{run_native, run_sim, seq_run, try_run_sim, worker};
pub use hist::LatencyHistogram;
pub use probe::ProbeOrder;
pub use report::{RunReport, ThreadResult};
pub use sched::{
    drive, run_bundle, BundleSpec, StealPolicyKind, TerminationKind, TransportKind, VictimPolicy,
};
pub use service::{run_service_sim, RequestStat, ServiceReport, ServiceWorkload, Stamped};
pub use taskgen::{SyntheticGen, TaskGen, UtsGen};
pub use theory::{check_run, steal_bound, tree_depth, TheorySummary, TheoryViolation};
pub use workload::{DagGen, DagWorkload, ForkJoin, RandomLayered, Wavefront};
