//! Model validation (Table 1).
//!
//! The paper validates the shared-resource model by comparing real and
//! simulated completion dates of small matmul metatasks on a time-shared
//! server, reporting per-task absolute error and "percentage of error"
//! (100 · |Δ| / real task duration), with a mean below 3 %.
//!
//! Here the "real" completion date comes from the noisy ground-truth
//! simulator and the "simulated" one is the HTM's commit-time prediction —
//! the same quantities the paper tabulates, with the testbed replaced by
//! the noisy ground truth the crate docs describe.

use crate::config::ExperimentConfig;
use crate::engine::run_experiment;
use cas_metrics::TaskRecord;
use cas_platform::{CostTable, ServerSpec, TaskInstance};

/// One row of a Table-1-style validation report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationRow {
    /// The task (paper column 1).
    pub task: u64,
    /// Arrival date (column 2).
    pub arrival: f64,
    /// Real (ground-truth) completion date (column 4).
    pub real: f64,
    /// HTM-simulated completion date (column 5).
    pub simulated: f64,
    /// `simulated − real` … the paper tabulates `real − simulated`; sign
    /// convention follows the paper (column 6).
    pub difference: f64,
    /// `100 · |difference| / (real − arrival)` (column 7).
    pub error_pct: f64,
}

/// Runs one experiment and extracts the validation rows (completed tasks
/// with predictions only), in completion order.
pub fn validation_report(
    cfg: ExperimentConfig,
    costs: CostTable,
    servers: Vec<ServerSpec>,
    tasks: Vec<TaskInstance>,
) -> Vec<ValidationRow> {
    let records = run_experiment(cfg, costs, servers, tasks);
    rows_from_records(&records)
}

/// Extracts validation rows from existing records.
pub fn rows_from_records(records: &[TaskRecord]) -> Vec<ValidationRow> {
    let mut rows: Vec<ValidationRow> = records
        .iter()
        .filter_map(|r| {
            let real = r.finished()?.as_secs();
            let simulated = r.predicted_completion?.as_secs();
            let duration = real - r.arrival.as_secs();
            if duration <= 0.0 {
                return None;
            }
            Some(ValidationRow {
                task: r.task.0,
                arrival: r.arrival.as_secs(),
                real,
                simulated,
                difference: real - simulated,
                error_pct: 100.0 * (real - simulated).abs() / duration,
            })
        })
        .collect();
    rows.sort_by(|a, b| a.real.partial_cmp(&b.real).expect("finite times"));
    rows
}

/// Mean percentage error over a report — the paper's headline "< 3 %".
pub fn mean_error_pct(rows: &[ValidationRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.error_pct).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_core::heuristics::HeuristicKind;
    use cas_platform::{PhaseCosts, Problem, ProblemId, TaskId};
    use cas_sim::SimTime;

    fn one_server() -> (CostTable, Vec<ServerSpec>) {
        let mut costs = CostTable::new(1);
        costs.add_problem(
            Problem::new("mm", 5.0, 2.0, 0.0),
            vec![Some(PhaseCosts::new(2.0, 40.0, 1.0))],
        );
        (costs, vec![ServerSpec::new("solo", 500.0, 2048.0, 1024.0)])
    }

    fn tasks(arrivals: &[f64]) -> Vec<TaskInstance> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| TaskInstance::new(TaskId(i as u64), ProblemId(0), SimTime::from_secs(a)))
            .collect()
    }

    #[test]
    fn ideal_mode_has_zero_error() {
        let (costs, servers) = one_server();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        let rows = validation_report(cfg, costs, servers, tasks(&[0.0, 10.0, 20.0]));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.error_pct < 1e-6, "{r:?}");
        }
        assert!(mean_error_pct(&rows) < 1e-6);
    }

    #[test]
    fn noisy_mode_has_small_nonzero_error() {
        let (costs, servers) = one_server();
        let mut cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 5);
        cfg.memory = cas_platform::MemoryModel::disabled();
        let rows = validation_report(cfg, costs, servers, tasks(&[0.0, 15.0, 33.0, 50.0]));
        assert_eq!(rows.len(), 4);
        let mean = mean_error_pct(&rows);
        assert!(mean > 0.0, "noise must produce error");
        assert!(mean < 12.0, "error should stay small, got {mean}");
    }

    #[test]
    fn rows_sorted_by_completion() {
        let (costs, servers) = one_server();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        let rows = validation_report(cfg, costs, servers, tasks(&[0.0, 1.0, 2.0]));
        for w in rows.windows(2) {
            assert!(w[0].real <= w[1].real);
        }
    }

    #[test]
    fn empty_records_mean_is_zero() {
        assert_eq!(mean_error_pct(&[]), 0.0);
    }
}
