//! # cas-middleware — the client-agent-server system, simulated end to end
//!
//! This crate is the substitute for the paper's real NetSolve deployment.
//! It wires the platform substrate, the HTM and a heuristic into one
//! discrete-event world:
//!
//! * **clients** submit the metatask's requests at their arrival dates and
//!   retry on rejection (NetSolve's fault tolerance);
//! * the **agent** keeps the information model (static costs + corrected
//!   load reports) and the HTM, and runs the configured heuristic for every
//!   request;
//! * **servers** execute tasks through the three phases on fair-shared
//!   resources, reserve and release memory, thrash and collapse, run load
//!   monitors and send periodic reports.
//!
//! The ground truth deliberately differs from the agent's model: CPU and
//! link speeds carry multiplicative log-normal noise redrawn periodically,
//! and the agent's load picture is stale between reports. The HTM's ≈3 %
//! prediction error (Table 1) *emerges* from that asymmetry rather than
//! being injected.
//!
//! [`runner`] fans replications out over the process-wide work-stealing
//! pool (`cas_sim::pool`), reducing results in replication order — the
//! experiments of Tables 5–8 run dozens of seed × heuristic combinations
//! without per-call thread spawning.

pub mod config;
pub mod engine;
pub mod event;
#[cfg(test)]
mod harness;
pub mod runner;
pub mod shard;
pub mod validate;

pub use config::{ExperimentConfig, FaultTolerance, Sharding};
pub use engine::{
    run_experiment, run_experiment_with_users, AdmissionStats, ChurnStats, GridWorld,
};
pub use event::GridEvent;
pub use runner::{
    run_heuristic_matrix, run_replications, run_replications_sequential, MatrixResult,
};
pub use shard::{AgentRouter, SkylineStats};
pub use validate::{validation_report, ValidationRow};
