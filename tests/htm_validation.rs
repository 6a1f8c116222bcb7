//! Cross-crate validation of the Historical Trace Manager against the
//! ground-truth engine — the Table 1 property, plus property-based checks
//! that the agent's model and the platform's execution agree exactly when
//! their information coincides.

use casgrid::middleware::validate::{mean_error_pct, rows_from_records};
use casgrid::prelude::*;
use proptest::prelude::*;

fn run_ideal(kind: HeuristicKind, n: usize, gap: f64, seed: u64) -> Vec<TaskRecord> {
    let costs = casgrid::workload::matmul::cost_table();
    let servers = casgrid::workload::testbed::set1_servers();
    let tasks = MetataskSpec {
        n_tasks: n,
        ..MetataskSpec::paper(gap)
    }
    .generate(seed);
    run_experiment(ExperimentConfig::ideal(kind, seed), costs, servers, tasks)
}

/// In the noise-free environment the HTM *is* the ground truth: simulated
/// and real completion dates agree to float tolerance for every task, for
/// every HTM heuristic.
#[test]
fn htm_exact_in_ideal_environment() {
    for kind in [HeuristicKind::Hmct, HeuristicKind::Mp, HeuristicKind::Msf] {
        let recs = run_ideal(kind, 120, 15.0, 11);
        let rows = rows_from_records(&recs);
        assert_eq!(rows.len(), 120, "{kind:?}: all tasks validated");
        let mean = mean_error_pct(&rows);
        assert!(mean < 1e-6, "{kind:?}: mean error {mean} should be ~0");
    }
}

/// The sharded twin of the Table 1 property: routed through a 4-shard
/// federation (per-shard HTMs, skyline merge on), the model is still
/// exact in the ideal environment — and the records match the unsharded
/// run bit for bit under the paper's exhaustive selector.
#[test]
fn htm_exact_in_ideal_environment_sharded() {
    let costs = casgrid::workload::matmul::cost_table();
    let servers = casgrid::workload::testbed::set1_servers();
    let tasks = MetataskSpec {
        n_tasks: 120,
        ..MetataskSpec::paper(15.0)
    }
    .generate(11);
    let single = run_experiment(
        ExperimentConfig::ideal(HeuristicKind::Msf, 11),
        costs.clone(),
        servers.clone(),
        tasks.clone(),
    );
    let cfg = ExperimentConfig::ideal(HeuristicKind::Msf, 11)
        .with_shards(Sharding::Federated { shards: 4 });
    let recs = run_experiment(cfg, costs, servers, tasks);
    assert_eq!(recs, single, "federation diverged from the single agent");
    let rows = rows_from_records(&recs);
    assert_eq!(rows.len(), 120);
    let mean = mean_error_pct(&rows);
    assert!(mean < 1e-6, "sharded mean error {mean} should be ~0");
}

/// With the paper-level 3 % speed noise, the mean prediction error stays
/// in the single digits (Table 1 reports < 3 % on a lightly loaded server;
/// a fully loaded metatask compounds drift, so we assert a looser bound
/// and that error is strictly positive).
#[test]
fn htm_error_small_under_paper_noise() {
    let costs = casgrid::workload::matmul::cost_table();
    let servers = casgrid::workload::testbed::set1_servers();
    let tasks = MetataskSpec {
        n_tasks: 150,
        ..MetataskSpec::paper(20.0)
    }
    .generate(13);
    let recs = run_experiment(
        ExperimentConfig::paper(HeuristicKind::Hmct, 13),
        costs,
        servers,
        tasks,
    );
    let rows = rows_from_records(&recs);
    let mean = mean_error_pct(&rows);
    assert!(mean > 0.0);
    assert!(mean < 10.0, "mean error {mean}% too large for sigma=0.03");
}

/// Force-finish synchronisation never loses tasks and keeps predictions
/// sane under heavy noise.
#[test]
fn sync_policy_stays_consistent() {
    let costs = casgrid::workload::wastecpu::cost_table();
    let servers = casgrid::workload::testbed::set2_servers();
    let tasks = MetataskSpec {
        n_tasks: 150,
        ..MetataskSpec::paper(15.0)
    }
    .generate(17);
    let mut cfg = ExperimentConfig::paper(HeuristicKind::Msf, 17);
    cfg.noise_sigma = 0.15;
    cfg.sync = SyncPolicy::ForceFinish;
    let recs = run_experiment(cfg, costs, servers, tasks);
    assert_eq!(MetricSet::compute(&recs).completed, 150);
    // Every completed task has a simulated completion date.
    assert!(recs.iter().all(|r| r.predicted_completion.is_some()));
}

/// A crash-retracted task that completes on its next server reports
/// that server's simulated completion. A retraction's crash instant is
/// not a simulated completion: read as one, it would lie before the last
/// placement's commit prediction by more than the task's whole unloaded
/// duration, which no later commit on that server can bring about. Runs
/// the waste-cpu farm under crash churn for three heuristics and counts
/// such records among the completed multi-attempt tasks.
#[test]
fn retracted_tasks_keep_their_real_simulated_completion() {
    let costs = casgrid::workload::wastecpu::cost_table();
    let servers = casgrid::workload::testbed::set2_servers();
    let tasks = MetataskSpec {
        n_tasks: 400,
        ..MetataskSpec::paper(15.0)
    }
    .generate(1);
    let mut replaced = 0;
    for kind in [HeuristicKind::Hmct, HeuristicKind::Mct, HeuristicKind::Msf] {
        let cfg = ExperimentConfig::ideal(kind, 99)
            .with_churn(400.0, 60.0)
            .with_churn_seed(7);
        let recs = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        for r in recs.iter().filter(|r| r.is_completed() && r.attempts > 1) {
            replaced += 1;
            let simulated = r
                .predicted_completion
                .expect("completed tasks were simulated");
            let committed = r.commit_prediction.expect("completed tasks were committed");
            assert!(
                simulated.as_secs() >= committed.as_secs() - r.unloaded_duration,
                "{kind:?}: task {} simulated to finish at {simulated:?}, before its last \
                 commit prediction {committed:?} less its unloaded duration {}",
                r.task,
                r.unloaded_duration
            );
        }
    }
    assert!(replaced > 0, "the churn must re-place some task");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ideal-mode exactness holds across random workload shapes, not just
    /// the fixed fixtures above.
    #[test]
    fn htm_exact_for_random_workloads(
        n in 20usize..80,
        gap in 5.0f64..40.0,
        seed in 0u64..1000,
    ) {
        let recs = run_ideal(HeuristicKind::Msf, n, gap, seed);
        let rows = rows_from_records(&recs);
        prop_assert_eq!(rows.len(), n);
        let mean = mean_error_pct(&rows);
        prop_assert!(mean < 1e-6, "mean error {} at n={} gap={} seed={}", mean, n, gap, seed);
    }

    /// Every task completes and flow times are positive under arbitrary
    /// small workloads and any heuristic (no deadlocks, no lost events).
    #[test]
    fn engine_liveness(
        n in 1usize..60,
        gap in 1.0f64..30.0,
        seed in 0u64..1000,
        kind_idx in 0usize..HeuristicKind::ALL.len(),
    ) {
        let kind = HeuristicKind::ALL[kind_idx];
        let costs = casgrid::workload::wastecpu::cost_table();
        let servers = casgrid::workload::testbed::set2_servers();
        let tasks = MetataskSpec { n_tasks: n, ..MetataskSpec::paper(gap) }.generate(seed);
        let recs = run_experiment(
            ExperimentConfig::paper(kind, seed),
            costs, servers, tasks,
        );
        prop_assert_eq!(recs.len(), n);
        for r in &recs {
            prop_assert!(r.is_completed(), "{:?} lost {}", kind, r.task);
            prop_assert!(r.flow().unwrap() > 0.0);
        }
    }
}
