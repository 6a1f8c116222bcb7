//! # cas-platform — the resource substrate
//!
//! Everything the paper's environment is made of, minus the scheduling logic:
//!
//! * [`ids`] — newtyped identifiers for servers, problems and tasks.
//! * [`task`] — problem descriptions (input/output data sizes, memory need)
//!   and task instances; the paper's three-phase task model (input transfer,
//!   compute, output transfer).
//! * [`cost`] — static information: the per-(problem, server) phase-cost
//!   tables that the paper measured on unloaded machines and compiled into
//!   NetSolve (Tables 3 and 4), plus helpers to derive tables from machine
//!   specs for synthetic workloads.
//! * [`fairshare`] — the shared-resource model of §2.3: a resource running
//!   `n` activities gives each `1/n` of its capacity. One generic
//!   implementation backs both time-shared CPUs and shared network links.
//! * [`server`] — server specifications (Table 2) and runtime state: the
//!   fair-share CPU, the memory/swap accounting with thrashing and collapse
//!   that drives the paper's first set of experiments, and the in/out links.
//! * [`index`] — the incrementally maintained stage-1 placement index:
//!   per-problem server rankings by static cost × believed load, re-ranked
//!   by commit/retract/complete hooks so candidate pruning never rescans
//!   the platform per arrival. Rankings live in a cache-friendly flat
//!   sorted-vec ladder, tested against a `BTreeSet` model.
//! * [`shard`] — deterministic contiguous partitioning of the farm into
//!   shards, the substrate of the middleware's federated agent: pure in
//!   `(n_servers, n_shards)`, so sharded runs reproduce on any host.
//! * [`monitor`] — the UNIX-style exponentially-damped load average that
//!   NetSolve servers report to the agent, plus report staleness bookkeeping.
//!
//! The ground truth of an experiment is built from these pieces by
//! `cas-middleware`; the agent's *model* of the platform (the HTM) lives in
//! `cas-core` and deliberately shares the task/cost vocabulary defined here.

pub mod cost;
pub mod fairshare;
pub mod ids;
pub mod index;
pub mod monitor;
pub mod server;
pub mod shard;
pub mod task;

pub use cost::{CostTable, PhaseCosts};
pub use fairshare::FairShareResource;
pub use ids::{ProblemId, ServerId, TaskId};
pub use index::StaticIndex;
pub use monitor::{LoadAverage, LoadReport};
pub use server::{AdmitOutcome, MemoryModel, ServerRuntime, ServerSpec};
pub use shard::{ShardMap, ShardTree};
pub use task::{Phase, Problem, TaskInstance};
