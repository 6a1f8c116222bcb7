//! Reproducibility guarantees across the whole stack.

use casgrid::prelude::*;

fn setup(n: usize, seed: u64) -> (CostTable, Vec<ServerSpec>, Vec<TaskInstance>) {
    let costs = casgrid::workload::wastecpu::cost_table();
    let servers = casgrid::workload::testbed::set2_servers();
    let tasks = MetataskSpec {
        n_tasks: n,
        ..MetataskSpec::paper(15.0)
    }
    .generate(seed);
    (costs, servers, tasks)
}

/// Bit-identical records for identical (seed, workload, heuristic).
#[test]
fn identical_runs_are_bit_identical() {
    let (costs, servers, tasks) = setup(150, 1);
    for kind in HeuristicKind::ALL {
        let cfg = ExperimentConfig::paper(kind, 99);
        let a = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        let b = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        assert_eq!(a, b, "{kind:?} not deterministic");
    }
}

/// The workload is identical across heuristics (paired comparison): task
/// ids, problems and arrivals agree record-by-record.
#[test]
fn workload_identical_across_heuristics() {
    let (costs, servers, tasks) = setup(100, 2);
    let runs: Vec<Vec<TaskRecord>> = HeuristicKind::PAPER
        .iter()
        .map(|&k| {
            run_experiment(
                ExperimentConfig::paper(k, 5),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
            )
        })
        .collect();
    for pair in runs.windows(2) {
        for (a, b) in pair[0].iter().zip(&pair[1]) {
            assert_eq!(a.task, b.task);
            assert_eq!(a.problem, b.problem);
            assert_eq!(a.arrival, b.arrival);
        }
    }
}

/// The sharded twin of the bit-identity guarantee: a federated run is
/// deterministic across repeats, and — under the paper's exhaustive
/// selector — bit-identical to the single-agent run it federates. A
/// router regression can no longer hide behind the single-agent path.
#[test]
fn sharded_runs_are_bit_identical_and_match_single() {
    let (costs, servers, tasks) = setup(120, 6);
    for kind in [HeuristicKind::Msf, HeuristicKind::Mct] {
        let single = run_experiment(
            ExperimentConfig::paper(kind, 99),
            costs.clone(),
            servers.clone(),
            tasks.clone(),
        );
        let cfg = ExperimentConfig::paper(kind, 99).with_shards(Sharding::Federated { shards: 3 });
        let a = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        let b = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        assert_eq!(a, b, "{kind:?} sharded run not deterministic");
        assert_eq!(
            a, single,
            "{kind:?} federation diverged from the single agent"
        );
    }
}

/// Different root seeds change ground-truth noise, hence completions.
#[test]
fn different_seeds_differ() {
    let (costs, servers, tasks) = setup(100, 3);
    let a = run_experiment(
        ExperimentConfig::paper(HeuristicKind::Msf, 1),
        costs.clone(),
        servers.clone(),
        tasks.clone(),
    );
    let b = run_experiment(
        ExperimentConfig::paper(HeuristicKind::Msf, 2),
        costs,
        servers,
        tasks,
    );
    assert_ne!(a, b);
}

/// The parallel runner yields exactly the sequential results —
/// parallelism is invisible in the records. There are more replications
/// than threads, so every thread claims more than one.
#[test]
fn runner_parallelism_is_invisible() {
    let (costs, servers, tasks) = setup(80, 4);
    let reps = 2 * casgrid::sim::pool::global().workers() + 1;
    let workloads: Vec<_> = (0..reps).map(|_| tasks.clone()).collect();
    let cfg = ExperimentConfig::paper(HeuristicKind::Mp, 17);
    let seq = run_replications_sequential(cfg, &costs, &servers, &workloads);
    for round in 0..3 {
        let parallel = run_replications(cfg, &costs, &servers, &workloads);
        assert_eq!(seq, parallel, "round = {round}");
    }
}

/// A replication that panics — here one workload among sorted ones lists
/// its arrivals backwards, which `GridWorld::new` rejects — takes
/// `run_replications` down with its own message, whichever thread ran it.
#[test]
#[should_panic(expected = "tasks must be sorted by arrival")]
fn runner_propagates_a_replication_panic() {
    let (costs, servers, tasks) = setup(40, 4);
    let reps = 2 * casgrid::sim::pool::global().workers() + 1;
    let mut workloads: Vec<_> = (0..reps).map(|_| tasks.clone()).collect();
    workloads[reps / 2].reverse();
    let cfg = ExperimentConfig::paper(HeuristicKind::Mct, 3);
    run_replications(cfg, &costs, &servers, &workloads);
}

/// Metatask generation is stable across calls and sensitive to every knob.
#[test]
fn metatask_generation_stability() {
    let base = MetataskSpec::paper(20.0);
    assert_eq!(base.generate(9), base.generate(9));
    let longer = MetataskSpec {
        n_tasks: 501,
        ..base
    };
    assert_eq!(longer.generate(9).len(), 501);
    let poisson = MetataskSpec {
        gaps: GapDistribution::Poisson,
        ..base
    };
    assert_ne!(base.generate(9), poisson.generate(9));
}
