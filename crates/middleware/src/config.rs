//! Experiment configuration.

use cas_core::heuristics::HeuristicKind;
use cas_core::{SelectorKind, SyncPolicy};
use cas_platform::{MemoryModel, ShardMap};

/// How the agent's decision state is partitioned across the farm.
///
/// `Single` is the paper's one-agent configuration and the executable
/// spec. The federated variants split the farm into shards behind
/// `cas_middleware`'s deterministic router; `Federated { shards: 1 }`
/// runs the full router machinery over one shard and is proven
/// bit-identical to `Single` by the differential tests (so `--shards 1`
/// is a safe way to exercise the router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sharding {
    /// One engine owns the whole farm (the unsharded path).
    #[default]
    Single,
    /// Shard count picked from the platform size
    /// ([`ShardMap::auto_shards`]): deterministic in the farm alone,
    /// never in the host.
    Auto {
        /// Shards-per-group fan-out of the two-level skyline tree
        /// (`--shards auto:GROUPSIZE`); `None` takes the router default
        /// ([`cas_platform::ShardTree::DEFAULT_GROUP_SHARDS`]).
        group_size: Option<usize>,
    },
    /// Explicit shard count (clamped to the farm size).
    Federated {
        /// Number of shards (≥ 1).
        shards: usize,
    },
}

impl Sharding {
    /// The auto mode with the default group fan-out (what bare
    /// `--shards auto` means).
    pub const AUTO: Sharding = Sharding::Auto { group_size: None };

    /// Parses `auto`, `auto:GROUPSIZE` (group fan-out ≥ 1) or a shard
    /// count ≥ 1 (the `--shards` grammar).
    pub fn parse(s: &str) -> Option<Sharding> {
        if s.eq_ignore_ascii_case("auto") {
            return Some(Sharding::AUTO);
        }
        if let Some(gs) = s
            .get(..5)
            .filter(|p| p.eq_ignore_ascii_case("auto:"))
            .map(|_| &s[5..])
        {
            return gs
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(|n| Sharding::Auto {
                    group_size: Some(n),
                });
        }
        s.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .map(|shards| Sharding::Federated { shards })
    }

    /// The shard count to run an `n_servers` farm with, or `None` for the
    /// single-agent path.
    pub fn resolve(self, n_servers: usize) -> Option<usize> {
        match self {
            Sharding::Single => None,
            Sharding::Auto { .. } => Some(ShardMap::auto_shards(n_servers)),
            Sharding::Federated { shards } => Some(shards.clamp(1, n_servers.max(1))),
        }
    }

    /// The group fan-out override carried by `auto:GROUPSIZE`, if any.
    pub fn group_size(self) -> Option<usize> {
        match self {
            Sharding::Auto { group_size } => group_size,
            _ => None,
        }
    }
}

/// What happens when a server refuses a task (memory exhaustion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTolerance {
    /// The client gives up: the task fails. This matches the paper's
    /// HTM-heuristic implementations at the high rate (Table 6: HMCT
    /// completes only 358/500).
    None,
    /// The client retries through the agent with the refusing server
    /// excluded, up to `max_attempts` total tries — "the NetSolve MCT has
    /// fault tolerance mechanisms that permit to schedule almost all
    /// tasks" (§5.1).
    RankedRetry {
        /// Total placement attempts allowed per task.
        max_attempts: u32,
    },
}

impl FaultTolerance {
    /// The paper's configuration for a given heuristic: NetSolve's MCT path
    /// retries; the prototype HTM heuristics did not.
    pub fn paper_default(kind: HeuristicKind) -> FaultTolerance {
        match kind {
            HeuristicKind::Mct => FaultTolerance::RankedRetry { max_attempts: 8 },
            _ => FaultTolerance::None,
        }
    }
}

/// All knobs of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// The scheduling policy under test.
    pub heuristic: HeuristicKind,
    /// Stage-1 candidate selection: which servers even get an HTM what-if
    /// query. [`SelectorKind::Exhaustive`] (the default) reproduces the
    /// paper's every-solver loop; `TopK`/`Adaptive` prune the candidate
    /// set from the incrementally maintained static index first.
    pub selector: SelectorKind,
    /// How the agent's decision state is partitioned across the farm:
    /// the single-agent path (default) or a shard federation behind the
    /// deterministic router.
    pub shards: Sharding,
    /// Collapse the periodic per-server load-report events into one
    /// aggregated event per shard (default off): each firing refreshes
    /// the whole shard block in a single kernel event, cutting report
    /// queue pressure from O(n_servers) to O(n_shards) per period on
    /// huge farms. Changes *when* reports refresh (a shard's servers
    /// report together at the shard's phase instead of staggered
    /// per-server), so it is a config knob rather than a sharding
    /// side-effect — the S = 1 ≡ Single invariant is stated at equal
    /// report modes.
    pub aggregated_reports: bool,
    /// HTM ↔ reality synchronisation policy.
    pub sync: SyncPolicy,
    /// Root seed: drives ground-truth noise and tie-breaking. The workload
    /// itself is generated separately (its own seed) so the same metatask
    /// can be replayed under many heuristics.
    pub seed: u64,
    /// Server load-report period, seconds (NetSolve monitors report
    /// periodically; the agent's picture is stale in between).
    pub load_report_period: f64,
    /// Load-average damping time constant, seconds (UNIX 1-min: 60).
    pub load_tau: f64,
    /// σ of the multiplicative log-normal CPU/link speed noise
    /// (ground-truth realism; 0 disables noise). The paper's validation
    /// observed ≈3 % deviation between model and reality.
    pub noise_sigma: f64,
    /// How often ground-truth speed factors are redrawn, seconds.
    pub noise_redraw_period: f64,
    /// Agent processing latency per request, seconds (measured < 0.01 s in
    /// the paper).
    pub agent_latency: f64,
    /// Memory model for the servers.
    pub memory: MemoryModel,
    /// Behaviour on server refusal.
    pub fault_tolerance: FaultTolerance,
    /// When `true`, all input/output transfers of *all* servers share one
    /// client-side link, so any transfer interferes with any other — the
    /// paper's §6 communication model ("we assume that all tasks can create
    /// communication bandwidth interference for any other task"). When
    /// `false` (default), each server has its own independent link pair, as
    /// the HTM models. The gap between the two is an ablation
    /// (`ablation_htm`): the HTM stays per-server either way, so enabling
    /// this measures the cost of that modelling simplification.
    pub shared_client_link: bool,
    /// Mean time between failures per server, seconds
    /// (`f64::INFINITY`, the default, freezes the farm: no churn events
    /// are scheduled and no churn RNG stream is derived, so the run is
    /// bit-identical to a pre-lifecycle build).
    pub mtbf: f64,
    /// Mean time to repair after a crash, seconds.
    pub mttr: f64,
    /// Seed of the fault schedule, independent of `seed` so the same
    /// world can be replayed under different fault schedules.
    pub churn_seed: u64,
    /// Total dispatch attempts allowed per task across crash
    /// re-dispatches; beyond it the task is dropped with a reason code.
    pub redispatch_budget: u32,
    /// Backpressure: maximum tasks concurrently admitted past the
    /// agent's admission gate. `0` (the default) disables admission
    /// control entirely — submissions go straight to the decision
    /// pipeline and the run is bit-identical to a pre-backpressure
    /// build.
    pub admission_capacity: usize,
    /// Bounded admission-buffer size: tasks arriving while the gate is
    /// full wait here; arrivals beyond this bound are shed immediately
    /// with `DropReason::AdmissionDeadline`.
    pub admission_buffer: usize,
    /// Seconds a task may wait in the admission buffer before being
    /// shed with `DropReason::AdmissionDeadline`
    /// (`f64::INFINITY` = wait forever).
    pub admission_deadline: f64,
}

impl ExperimentConfig {
    /// Baseline configuration used by the paper-table experiments: noise at
    /// 3 %, 30 s load reports, 60 s load damping, memory model on, paper
    /// fault-tolerance defaults for the heuristic.
    pub fn paper(heuristic: HeuristicKind, seed: u64) -> Self {
        ExperimentConfig {
            heuristic,
            selector: SelectorKind::Exhaustive,
            shards: Sharding::Single,
            aggregated_reports: false,
            sync: SyncPolicy::None,
            seed,
            load_report_period: 30.0,
            load_tau: 60.0,
            noise_sigma: 0.03,
            noise_redraw_period: 20.0,
            agent_latency: 0.005,
            memory: MemoryModel::default(),
            fault_tolerance: FaultTolerance::paper_default(heuristic),
            shared_client_link: false,
            mtbf: f64::INFINITY,
            mttr: 60.0,
            churn_seed: 0,
            redispatch_budget: 8,
            admission_capacity: 0,
            admission_buffer: 0,
            admission_deadline: f64::INFINITY,
        }
    }

    /// Noise-free, memory-free, instant-information variant: the idealised
    /// environment where the HTM should be *exact* (used by unit tests and
    /// the validation harness's control arm).
    pub fn ideal(heuristic: HeuristicKind, seed: u64) -> Self {
        ExperimentConfig {
            heuristic,
            selector: SelectorKind::Exhaustive,
            shards: Sharding::Single,
            aggregated_reports: false,
            sync: SyncPolicy::None,
            seed,
            load_report_period: 5.0,
            load_tau: 10.0,
            noise_sigma: 0.0,
            noise_redraw_period: 1e6,
            agent_latency: 0.0,
            memory: MemoryModel::disabled(),
            fault_tolerance: FaultTolerance::None,
            shared_client_link: false,
            mtbf: f64::INFINITY,
            mttr: 60.0,
            churn_seed: 0,
            redispatch_budget: 8,
            admission_capacity: 0,
            admission_buffer: 0,
            admission_deadline: f64::INFINITY,
        }
    }

    /// Returns a copy with a different heuristic (and that heuristic's
    /// paper fault-tolerance default).
    pub fn with_heuristic(mut self, heuristic: HeuristicKind) -> Self {
        self.heuristic = heuristic;
        self.fault_tolerance = FaultTolerance::paper_default(heuristic);
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different stage-1 candidate selector.
    pub fn with_selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    /// Returns a copy with a different sharding mode.
    pub fn with_shards(mut self, shards: Sharding) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with aggregated per-shard load reports toggled.
    pub fn with_aggregated_reports(mut self, aggregated: bool) -> Self {
        self.aggregated_reports = aggregated;
        self
    }

    /// Returns a copy with fault injection enabled: mean time between
    /// failures and mean time to repair, seconds. `mtbf = f64::INFINITY`
    /// keeps the farm frozen.
    pub fn with_churn(mut self, mtbf: f64, mttr: f64) -> Self {
        self.mtbf = mtbf;
        self.mttr = mttr;
        self
    }

    /// Returns a copy with a different fault-schedule seed.
    pub fn with_churn_seed(mut self, churn_seed: u64) -> Self {
        self.churn_seed = churn_seed;
        self
    }

    /// Returns a copy with admission backpressure enabled: at most
    /// `capacity` tasks concurrently past the gate, at most `buffer`
    /// waiting behind it, each for at most `deadline` seconds before
    /// being shed with `DropReason::AdmissionDeadline`.
    pub fn with_admission(mut self, capacity: usize, buffer: usize, deadline: f64) -> Self {
        self.admission_capacity = capacity;
        self.admission_buffer = buffer;
        self.admission_deadline = deadline;
        self
    }

    /// Whether admission backpressure is on (`admission_capacity > 0`).
    pub fn admission_enabled(&self) -> bool {
        self.admission_capacity > 0
    }

    /// The churn model this configuration describes (disabled when
    /// `mtbf` is infinite).
    pub fn churn_model(&self) -> cas_workload::ChurnModel {
        cas_workload::ChurnModel {
            mtbf: self.mtbf,
            mttr: self.mttr,
            seed: self.churn_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ExperimentConfig::paper(HeuristicKind::Mct, 1);
        assert_eq!(
            c.fault_tolerance,
            FaultTolerance::RankedRetry { max_attempts: 8 }
        );
        assert!(c.memory.enabled);
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert_eq!(c.fault_tolerance, FaultTolerance::None);
    }

    #[test]
    fn ideal_is_noise_free() {
        let c = ExperimentConfig::ideal(HeuristicKind::Msf, 1);
        assert_eq!(c.noise_sigma, 0.0);
        assert!(!c.memory.enabled);
        assert_eq!(c.agent_latency, 0.0);
    }

    #[test]
    fn sharding_parse_and_resolve() {
        assert_eq!(Sharding::parse("auto"), Some(Sharding::AUTO));
        assert_eq!(Sharding::parse("AUTO"), Some(Sharding::AUTO));
        assert_eq!(
            Sharding::parse("auto:4"),
            Some(Sharding::Auto {
                group_size: Some(4)
            })
        );
        assert_eq!(
            Sharding::parse("AUTO:2"),
            Some(Sharding::Auto {
                group_size: Some(2)
            })
        );
        assert_eq!(Sharding::parse("auto:0"), None);
        assert_eq!(Sharding::parse("auto:"), None);
        assert_eq!(Sharding::parse("auto:x"), None);
        assert_eq!(
            Sharding::parse("4"),
            Some(Sharding::Federated { shards: 4 })
        );
        assert_eq!(Sharding::parse("0"), None);
        assert_eq!(Sharding::parse("-1"), None);
        assert_eq!(Sharding::parse("many"), None);
        assert_eq!(Sharding::Single.resolve(10_000), None);
        assert_eq!(Sharding::AUTO.resolve(10_000), Some(16));
        assert_eq!(Sharding::AUTO.resolve(100), Some(1));
        assert_eq!(Sharding::AUTO.group_size(), None);
        assert_eq!(Sharding::parse("auto:4").unwrap().group_size(), Some(4));
        assert_eq!(Sharding::parse("auto:4").unwrap().resolve(10_000), Some(16));
        assert_eq!(Sharding::Federated { shards: 4 }.group_size(), None);
        assert_eq!(
            Sharding::Federated { shards: 64 }.resolve(8),
            Some(8),
            "clamped so no shard is empty"
        );
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert_eq!(c.shards, Sharding::Single);
        assert_eq!(c.with_shards(Sharding::AUTO).shards, Sharding::AUTO);
    }

    #[test]
    fn churn_defaults_to_frozen_farm() {
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert!(c.mtbf.is_infinite());
        assert!(!c.churn_model().enabled());
        let c = c.with_churn(400.0, 60.0).with_churn_seed(9);
        assert_eq!(c.mtbf, 400.0);
        assert_eq!(c.mttr, 60.0);
        assert_eq!(c.churn_seed, 9);
        assert!(c.churn_model().enabled());
        assert_eq!(c.redispatch_budget, 8);
    }

    #[test]
    fn admission_defaults_off_and_builder_arms_it() {
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert!(!c.admission_enabled());
        assert_eq!(c.admission_capacity, 0);
        assert_eq!(c.admission_buffer, 0);
        assert!(c.admission_deadline.is_infinite());
        assert!(!ExperimentConfig::ideal(HeuristicKind::Mct, 1).admission_enabled());
        let c = c.with_admission(4, 32, 120.0);
        assert!(c.admission_enabled());
        assert_eq!(c.admission_capacity, 4);
        assert_eq!(c.admission_buffer, 32);
        assert_eq!(c.admission_deadline, 120.0);
    }

    #[test]
    fn with_heuristic_updates_fault_tolerance() {
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1).with_heuristic(HeuristicKind::Mct);
        assert!(matches!(
            c.fault_tolerance,
            FaultTolerance::RankedRetry { .. }
        ));
        assert_eq!(c.with_seed(9).seed, 9);
    }
}
