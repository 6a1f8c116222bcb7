//! Parallel experiment execution.
//!
//! A paper table cell is the mean over several executions of the same
//! metatask; a full table is |heuristics| × |seeds| runs. Runs are
//! independent, so they fan out over [`cas_sim::pool`]'s scoped
//! threads. Each replication writes into its own result slot and the
//! slots are collected in replication order afterwards, so the
//! reduction is deterministic regardless of which thread ran what.

use crate::config::ExperimentConfig;
use crate::engine::run_experiment;
use cas_core::heuristics::HeuristicKind;
use cas_metrics::{MetricSet, TaskRecord};
use cas_platform::{CostTable, ServerSpec, TaskInstance};

/// All runs of one heuristic over a set of workload seeds.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// The heuristic.
    pub kind: HeuristicKind,
    /// One record set per replication, in replication order.
    pub runs: Vec<Vec<TaskRecord>>,
}

impl MatrixResult {
    /// Metric sets of all replications.
    pub fn metrics(&self) -> Vec<MetricSet> {
        self.runs.iter().map(|r| MetricSet::compute(r)).collect()
    }

    /// Mean of one named metric across replications.
    pub fn mean_metric(&self, name: &str) -> f64 {
        let ms = self.metrics();
        let vals: Vec<f64> = ms.iter().filter_map(|m| m.by_name(name)).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }
}

/// Runs `replications` of the same configuration (differing only in the
/// experiment seed, `base_cfg.seed + i`) over `workloads[i]`, in parallel
/// on [`cas_sim::pool::global`].
///
/// `workloads` supplies one task list per replication (the paper replays
/// the same metatask, so callers typically pass clones of one list or
/// per-seed variants). There is no worker-count knob: results land in
/// per-replication slots and are reduced in replication order, so the
/// outcome is bit-identical to [`run_replications_sequential`] regardless
/// of parallelism (the determinism differential test asserts exactly
/// that). A single replication runs on the calling thread.
pub fn run_replications(
    base_cfg: ExperimentConfig,
    costs: &CostTable,
    servers: &[ServerSpec],
    workloads: &[Vec<TaskInstance>],
) -> Vec<Vec<TaskRecord>> {
    cas_sim::pool::global().map(workloads.len(), |i| {
        let cfg = base_cfg.with_seed(base_cfg.seed.wrapping_add(i as u64));
        let records = run_experiment(cfg, costs.clone(), servers.to_vec(), workloads[i].clone());
        // Profiler spans land in the thread-locals of whichever thread
        // ran this replication; flushing here, still on that thread, is
        // what makes `prof::merged_snapshot` see a parallel campaign
        // whole.
        cas_sim::prof::flush();
        records
    })
}

/// Strictly in-order, single-threaded variant of [`run_replications`] —
/// the executable spec the parallel path is differentially tested
/// against, and the right tool when replications must not run
/// concurrently (e.g. when timing one run).
pub fn run_replications_sequential(
    base_cfg: ExperimentConfig,
    costs: &CostTable,
    servers: &[ServerSpec],
    workloads: &[Vec<TaskInstance>],
) -> Vec<Vec<TaskRecord>> {
    (0..workloads.len())
        .map(|i| {
            let cfg = base_cfg.with_seed(base_cfg.seed.wrapping_add(i as u64));
            run_experiment(cfg, costs.clone(), servers.to_vec(), workloads[i].clone())
        })
        .collect()
}

/// Runs a full heuristic × replication matrix — one paper table.
pub fn run_heuristic_matrix(
    base_cfg: ExperimentConfig,
    heuristics: &[HeuristicKind],
    costs: &CostTable,
    servers: &[ServerSpec],
    workloads: &[Vec<TaskInstance>],
) -> Vec<MatrixResult> {
    heuristics
        .iter()
        .map(|&kind| MatrixResult {
            kind,
            runs: run_replications(base_cfg.with_heuristic(kind), costs, servers, workloads),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_platform::{PhaseCosts, Problem, ProblemId, TaskId};
    use cas_sim::SimTime;

    fn setup() -> (CostTable, Vec<ServerSpec>, Vec<TaskInstance>) {
        let mut costs = CostTable::new(2);
        costs.add_problem(
            Problem::new("p", 0.1, 0.1, 0.0),
            vec![
                Some(PhaseCosts::new(0.1, 5.0, 0.1)),
                Some(PhaseCosts::new(0.1, 15.0, 0.1)),
            ],
        );
        let servers = vec![
            ServerSpec::new("a", 1000.0, 512.0, 512.0),
            ServerSpec::new("b", 400.0, 512.0, 512.0),
        ];
        let tasks: Vec<TaskInstance> = (0..20)
            .map(|i| {
                TaskInstance::new(
                    TaskId(i as u64),
                    ProblemId(0),
                    SimTime::from_secs(i as f64 * 2.0),
                )
            })
            .collect();
        (costs, servers, tasks)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (costs, servers, tasks) = setup();
        let cfg = ExperimentConfig::paper(HeuristicKind::Msf, 11);
        let workloads: Vec<_> = (0..4).map(|_| tasks.clone()).collect();
        let par = run_replications(cfg, &costs, &servers, &workloads);
        let seq = run_replications_sequential(cfg, &costs, &servers, &workloads);
        assert_eq!(par, seq, "parallel fan-out must not change results");
    }

    #[test]
    fn replication_seeds_differ() {
        let (costs, servers, tasks) = setup();
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 3);
        let workloads: Vec<_> = (0..2).map(|_| tasks.clone()).collect();
        let runs = run_replications(cfg, &costs, &servers, &workloads);
        // Same workload, different noise seeds: records usually differ in
        // completion dates (noise) even when placements agree.
        assert_eq!(runs.len(), 2);
        assert_ne!(runs[0], runs[1]);
    }

    #[test]
    fn matrix_covers_all_heuristics() {
        let (costs, servers, tasks) = setup();
        let cfg = ExperimentConfig::paper(HeuristicKind::Mct, 5);
        let kinds = [HeuristicKind::Mct, HeuristicKind::Msf];
        let workloads = vec![tasks];
        let results = run_heuristic_matrix(cfg, &kinds, &costs, &servers, &workloads);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.runs.len(), 1);
            let m = &r.metrics()[0];
            assert_eq!(m.completed, 20);
            assert!(r.mean_metric("makespan") > 0.0);
        }
    }
}
