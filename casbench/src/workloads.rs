//! The four workloads, each generated from the seed alone with the
//! repository's public generators. Each stresses a different layer of
//! the decision stack; the README explains which and why.

use cas_core::heuristics::HeuristicKind;
use cas_core::SelectorKind;
use cas_middleware::{ExperimentConfig, Sharding};
use cas_platform::{CostTable, ProblemId, ServerId, ServerSpec, TaskInstance};
use cas_workload::synthetic::{BurstArrivals, SyntheticPlatform};
use cas_workload::trace::{AppProfile, FittedTraceSpec, TraceWorkload};

/// The selector every workload runs: the standing campaign's pruning
/// selector.
const SELECTOR: SelectorKind = SelectorKind::Adaptive {
    k_min: 8,
    k_max: 64,
};

/// Load reports every 30 s, as in the standing campaign.
const REPORT_PERIOD_S: f64 = 30.0;

/// Peak-to-trough ratio of the bursty arrival rate.
const BURSTINESS: f64 = 4.0;

/// The fault schedule is fixed, so seeds vary the load and not the
/// crashes.
const CHURN_SEED: u64 = 7;

/// Task-count scale of the smoke run.
pub const SMOKE_SCALE: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BurstHmct1k,
    MsfCrest1k,
    Federated30k,
    ChurnTraceMct,
}

/// Engine inputs of one rep, generated from the seed.
pub struct Inputs {
    pub cfg: ExperimentConfig,
    pub costs: CostTable,
    pub servers: Vec<ServerSpec>,
    pub tasks: Vec<TaskInstance>,
    /// Per-task user classes; `None` for single-class workloads.
    pub users: Option<Vec<u32>>,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BurstHmct1k,
        Workload::MsfCrest1k,
        Workload::Federated30k,
        Workload::ChurnTraceMct,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstHmct1k => "burst_hmct_1k",
            Workload::MsfCrest1k => "msf_crest_1k",
            Workload::Federated30k => "federated_30k",
            Workload::ChurnTraceMct => "churn_trace_mct",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tasks in one full-scale rep, sized so a rep takes a few seconds
    /// on a 2-core host and several reps fit in one run.
    fn full_tasks(self) -> usize {
        match self {
            Workload::BurstHmct1k => 120_000,
            Workload::MsfCrest1k => 24_000,
            Workload::Federated30k => 40_000,
            Workload::ChurnTraceMct => 80_000,
        }
    }

    /// Generates one rep's inputs. `scale` multiplies the task count
    /// (1.0 for measurement, about 1/50 for the smoke run); the farm
    /// keeps its size, because the farm shape is what each workload is
    /// about.
    pub fn generate(self, seed: u64, scale: f64) -> Inputs {
        let n_tasks = ((self.full_tasks() as f64 * scale).round() as usize).max(1);
        match self {
            Workload::BurstHmct1k => burst(seed, 1_000, n_tasks, 0.5, None, HeuristicKind::Hmct),
            Workload::MsfCrest1k => burst(seed, 1_000, n_tasks, 0.9, None, HeuristicKind::Msf),
            Workload::Federated30k => burst(
                seed,
                30_000,
                n_tasks,
                0.5,
                Some(Sharding::AUTO),
                HeuristicKind::Hmct,
            ),
            Workload::ChurnTraceMct => churn_trace(seed, n_tasks),
        }
    }
}

/// The standing campaign's synthetic farm (`scale_smoke`'s platform).
fn farm(n_servers: usize) -> SyntheticPlatform {
    SyntheticPlatform {
        n_servers,
        heterogeneity: 4.0,
        n_problems: 3,
        base_cost: 15.0,
        cost_spread: 3.0,
        comm_fraction: 0.02,
        mem_fraction: 0.0,
    }
}

/// Aggregate service rate of the farm, tasks/s: one task at a time per
/// server at its mean unloaded duration over the problem mix.
fn service_rate(costs: &CostTable) -> f64 {
    let n_problems = costs.n_problems();
    (0..costs.n_servers() as u32)
        .map(|s| {
            let mean_cost = (0..n_problems as u32)
                .map(|p| {
                    costs
                        .costs(ProblemId(p), ServerId(s))
                        .expect("synthetic tables are fully solvable")
                        .total()
                })
                .sum::<f64>()
                / n_problems as f64;
            1.0 / mean_cost
        })
        .sum()
}

/// A synthetic farm under IPPP-thinned bursty arrivals at mean
/// utilisation `util`. Unsharded farms keep the standing campaign's
/// 1800 s burst period; a federated farm's period is the campaign
/// horizon, so every rep covers exactly one crest and one trough.
fn burst(
    seed: u64,
    n_servers: usize,
    n_tasks: usize,
    util: f64,
    shards: Option<Sharding>,
    heuristic: HeuristicKind,
) -> Inputs {
    let platform = farm(n_servers);
    let servers = platform.servers(seed);
    let costs = platform.cost_table(seed);
    let mean_rate = util * service_rate(&costs);
    let base_rate = 2.0 * mean_rate / (1.0 + BURSTINESS);
    let period = match shards {
        None => 1800.0,
        Some(_) => n_tasks as f64 / mean_rate,
    };
    let tasks = BurstArrivals {
        n_tasks,
        base_rate,
        peak_rate: BURSTINESS * base_rate,
        period,
        n_problems: platform.n_problems,
    }
    .generate(seed);
    let mut cfg = ExperimentConfig::ideal(heuristic, seed).with_selector(SELECTOR);
    cfg.load_report_period = REPORT_PERIOD_S;
    if let Some(shards) = shards {
        cfg = cfg.with_shards(shards).with_aggregated_reports(true);
    }
    Inputs {
        cfg,
        costs,
        servers,
        tasks,
        users: None,
    }
}

/// Mean submission rate of the trace workload, tasks/s. Fixed, so the
/// task count sets the horizon and the load shape holds at any scale.
const TRACE_RATE: f64 = 40.0;

/// A fitted three-app trace on a 2,000-server farm: a steady background
/// class, a crest class that submits faster than the admission gate
/// drains during the first quarter of the horizon, and a sparse class
/// of long jobs — under crash/repair churn and a bounded admission
/// buffer, scheduled by MCT (no what-ifs).
fn churn_trace(seed: u64, n_tasks: usize) -> Inputs {
    // (user class, share of the tasks, share of the horizon it submits
    // over, mean service demand in s)
    let apps = [
        (0u32, 0.60, 1.0, 10.0),
        (1u32, 0.35, 0.25, 10.0),
        (2u32, 0.05, 1.0, 120.0),
    ];
    let horizon_s = n_tasks as f64 / TRACE_RATE;
    let spec = FittedTraceSpec {
        apps: apps
            .iter()
            .map(|&(user, share, span, mean_duration_s)| {
                let n = ((n_tasks as f64 * share).round() as usize).max(1);
                AppProfile {
                    user,
                    n_tasks: n,
                    mean_gap_s: span * horizon_s / n as f64,
                    mean_duration_s,
                }
            })
            .collect(),
    };
    let compiled = TraceWorkload {
        n_servers: 2_000,
        ..TraceWorkload::default()
    }
    .compile(&mut spec.generate(seed), seed)
    .expect("a fitted trace is never empty");
    let mut cfg = ExperimentConfig::ideal(HeuristicKind::Mct, seed)
        .with_selector(SELECTOR)
        .with_shards(Sharding::AUTO)
        .with_aggregated_reports(true)
        .with_churn(600.0, 60.0)
        .with_churn_seed(CHURN_SEED)
        .with_admission(1_500, 4_000, 120.0);
    cfg.load_report_period = REPORT_PERIOD_S;
    Inputs {
        cfg,
        costs: compiled.costs,
        servers: compiled.servers,
        tasks: compiled.tasks,
        users: Some(compiled.users),
    }
}
