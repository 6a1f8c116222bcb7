//! # casgrid — dynamic scheduling heuristics in the client-agent-server model
//!
//! A faithful, self-contained reproduction of *"New Dynamic Heuristics in
//! the Client-Agent-Server Model"* (Yves Caniou & Emmanuel Jeannot, IEEE
//! Heterogeneous Computing Workshop, 2003): the **Historical Trace
//! Manager** — an online simulation the scheduling agent keeps of every
//! task it has mapped onto time-shared servers — and the heuristics built
//! on it (**HMCT**, **MP**, **MSF**), evaluated against NetSolve's **MCT**
//! baseline inside a complete discrete-event simulation of the
//! client-agent-server protocol.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `cas-sim` | discrete-event kernel: time, stable event queue, RNG streams, distributions |
//! | [`platform`] | `cas-platform` | servers (fair-share CPU, memory/swap), links, monitors, cost tables |
//! | [`core`] | `cas-core` | the HTM, perturbations, Gantt charts, and all heuristics |
//! | [`middleware`] | `cas-middleware` | the client-agent-server engine and parallel experiment runner |
//! | [`workload`] | `cas-workload` | the paper's testbed (Table 2) and workloads (Tables 3–4), metatask generators |
//! | [`metrics`] | `cas-metrics` | makespan / sum-flow / max-flow / max-stretch / finish-sooner, stats, tables |
//!
//! ## Quickstart
//!
//! ```
//! use casgrid::prelude::*;
//!
//! // The paper's waste-cpu workload: 4 servers, 3 task types (Table 4).
//! let costs = casgrid::workload::wastecpu::cost_table();
//! let servers = casgrid::workload::testbed::set2_servers();
//!
//! // A small metatask: 50 tasks, Poisson-process arrivals, mean gap 20 s.
//! let tasks = MetataskSpec { n_tasks: 50, ..MetataskSpec::paper(20.0) }.generate(42);
//!
//! // Schedule it with Minimum Sum Flow and with the MCT baseline.
//! let msf = run_experiment(
//!     ExperimentConfig::paper(HeuristicKind::Msf, 1),
//!     costs.clone(), servers.clone(), tasks.clone());
//! let mct = run_experiment(
//!     ExperimentConfig::paper(HeuristicKind::Mct, 1),
//!     costs, servers, tasks);
//!
//! let m_msf = MetricSet::compute(&msf);
//! let m_mct = MetricSet::compute(&mct);
//! assert_eq!(m_msf.completed, 50);
//! // MSF's whole point: less total time in system.
//! assert!(m_msf.sumflow <= m_mct.sumflow * 1.2);
//! println!("sum-flow: MSF {:.0} vs MCT {:.0}; {} of 50 tasks finish sooner",
//!          m_msf.sumflow, m_mct.sumflow, finish_sooner_count(&msf, &mct));
//! ```

pub use cas_core as core;
pub use cas_metrics as metrics;
pub use cas_middleware as middleware;
pub use cas_platform as platform;
pub use cas_sim as sim;
pub use cas_workload as workload;

/// The commonly used names in one import.
pub mod prelude {
    pub use cas_core::heuristics::{Heuristic, HeuristicKind, SchedView};
    pub use cas_core::{
        CandidateSelector, Gantt, Htm, Prediction, SelectorKind, ServerTrace, SyncPolicy,
    };
    pub use cas_metrics::{
        finish_sooner_count, per_class_slo, ClassSlo, MetricSet, Summary, Table, TaskOutcome,
        TaskRecord,
    };
    pub use cas_middleware::{
        run_experiment, run_experiment_with_users, run_heuristic_matrix, run_replications,
        run_replications_sequential, AdmissionStats, AgentRouter, ExperimentConfig, FaultTolerance,
        Sharding, SkylineStats,
    };
    pub use cas_platform::{
        CostTable, MemoryModel, PhaseCosts, Problem, ProblemId, ServerId, ServerSpec, ShardMap,
        StaticIndex, TaskId, TaskInstance,
    };
    pub use cas_sim::{RngStream, SimTime, StreamKind};
    pub use cas_workload::metatask::{GapDistribution, MetataskSpec};
    pub use cas_workload::trace::{
        CompiledTrace, CsvTrace, FittedTraceSpec, Trace, TraceEntry, TraceError, TraceWorkload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let costs = crate::workload::wastecpu::cost_table();
        let servers = crate::workload::testbed::set2_servers();
        let tasks = MetataskSpec {
            n_tasks: 10,
            ..MetataskSpec::paper(20.0)
        }
        .generate(1);
        let recs = run_experiment(
            ExperimentConfig::paper(HeuristicKind::Msf, 1),
            costs,
            servers,
            tasks,
        );
        assert_eq!(MetricSet::compute(&recs).completed, 10);
    }
}
