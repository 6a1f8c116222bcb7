//! The event vocabulary of the grid world.

use cas_platform::{Phase, ServerId};
use cas_sim::Generation;

/// Events driving the client-agent-server simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum GridEvent {
    /// A client submits task `idx` (index into the metatask) to the agent.
    Submit {
        /// Index into the experiment's task list.
        idx: usize,
    },
    /// The agent runs the heuristic for task `idx`.
    Schedule {
        /// Index into the experiment's task list.
        idx: usize,
        /// Placement attempt number (1 = first try).
        attempt: u32,
        /// Servers that already refused this task (excluded from the
        /// candidate list on retries).
        excluded: Vec<ServerId>,
    },
    /// A phase-completion check on one server resource. Stale events
    /// (generation mismatch) are discarded: membership changed since this
    /// was scheduled.
    PhaseDone {
        /// The server whose resource fired.
        server: ServerId,
        /// Which of the three stage resources.
        phase: Phase,
        /// Generation of the resource when the event was scheduled.
        gen: Generation,
    },
    /// A transfer-completion check on the shared client link (only used
    /// when `ExperimentConfig::shared_client_link` is on).
    ClientLinkDone {
        /// Generation of the client link when the event was scheduled.
        gen: Generation,
    },
    /// Periodic monitor report from a server to the agent.
    LoadReport {
        /// The reporting server.
        server: ServerId,
    },
    /// Periodic **aggregated** monitor report: one kernel event refreshes
    /// every server in one shard's block (only used when
    /// `ExperimentConfig::aggregated_reports` is on). At 10k servers this
    /// turns O(n_servers) report events per period into O(n_shards).
    ShardLoadReport {
        /// The reporting shard (index into the router's `ShardMap`).
        shard: usize,
    },
    /// Periodic redraw of a server's ground-truth speed noise.
    NoiseRedraw {
        /// The affected server.
        server: ServerId,
    },
    /// A **brand-new** server is admitted to the running campaign: the
    /// world grows every per-server vector, the farm-wide cost table
    /// gains the pre-registered column, and the agent's owning shard
    /// engine joins it through the proven incremental pushes
    /// ([`cas_platform::CostTable::push_server`],
    /// [`cas_platform::StaticIndex::push_server`]). The column index
    /// points into the provision schedule declared before the run.
    ServerProvision {
        /// Index into the experiment's provision schedule.
        idx: usize,
    },
    /// A provisioned server (re)joins the farm: it becomes eligible for
    /// placement again and its runtime state starts fresh.
    ServerJoin {
        /// The joining server.
        server: ServerId,
    },
    /// A server leaves gracefully: it stops taking new work but its
    /// in-flight tasks drain to completion.
    ServerLeave {
        /// The departing server.
        server: ServerId,
    },
    /// A server crashes: its in-flight tasks are lost, retracted from the
    /// agent's model and re-dispatched through the normal decision
    /// pipeline (bounded retry budget, re-dispatch backoff).
    ServerCrash {
        /// The crashed server.
        server: ServerId,
    },
    /// The admission deadline of a user class's oldest buffered task
    /// came due. The gate keeps at most one of these pending per class,
    /// armed at the class head's deadline: if the head it was armed for
    /// still waits, it is shed with `DropReason::AdmissionDeadline`;
    /// either way the event re-arms at the current head's deadline, if
    /// the class still has one.
    AdmissionTimeout {
        /// The user class.
        class: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable() {
        let a = GridEvent::Submit { idx: 1 };
        let b = GridEvent::Submit { idx: 1 };
        assert_eq!(a, b);
        let c = GridEvent::LoadReport {
            server: ServerId(0),
        };
        assert_ne!(a, c);
    }
}
