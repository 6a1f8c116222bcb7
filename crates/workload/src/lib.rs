//! # cas-workload — the paper's workloads and testbed
//!
//! * [`testbed`] — the machines of Table 2 and the two server sets used in
//!   the experiments (§5.1 and §5.2).
//! * [`matmul`] — the first experiment set's tasks: square matrix
//!   multiplications of sizes 1200/1500/1800 with the measured per-server
//!   phase costs and memory needs of Table 3.
//! * [`wastecpu`] — the second set's tasks: the memory-free "waste-cpu"
//!   problem with parameters 200/400/600 and the costs of Table 4.
//! * [`metatask`] — metatask generation: N independent tasks, uniformly
//!   random type, inter-arrival gaps drawn from a Poisson (or exponential)
//!   distribution with a configurable mean, from a dedicated RNG stream.
//! * [`synthetic`] — parametric platform/workload families for sweeps and
//!   ablations beyond the paper's fixed testbed.
//! * [`churn`] — the farm lifecycle fault injector: deterministic
//!   per-server MTBF/MTTR renewal processes feeding the middleware's
//!   server join/leave/crash kernel events.
//! * [`trace`] — trace-driven production workloads: an object-safe
//!   [`Trace`] source trait (CSV ingestion +
//!   fitted per-app generator) compiled onto a demand-ladder farm with
//!   per-task user classes.

pub mod churn;
pub mod matmul;
pub mod metatask;
pub mod synthetic;
pub mod testbed;
pub mod trace;
pub mod wastecpu;

pub use churn::{ChurnModel, ChurnProcess};
pub use metatask::{arrival_summary, ArrivalSummary, GapDistribution, MetataskSpec};
pub use testbed::Machine;
pub use trace::{
    AppProfile, CompiledTrace, CsvTrace, FittedTrace, FittedTraceSpec, Trace, TraceEntry,
    TraceError, TraceWorkload,
};
