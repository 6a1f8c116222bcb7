//! End-to-end tests of the paper's headline claims (§5.3, §7), on reduced
//! metatasks so the suite stays fast in debug builds.
//!
//! These are *shape* assertions — orderings and factors, not absolute
//! numbers — mirroring what the `cas-bench` table binaries print for the
//! full-size runs.

use casgrid::prelude::*;

fn wastecpu_run(kind: HeuristicKind, gap: f64, n: usize, seed: u64) -> Vec<TaskRecord> {
    let costs = casgrid::workload::wastecpu::cost_table();
    let servers = casgrid::workload::testbed::set2_servers();
    let tasks = MetataskSpec {
        n_tasks: n,
        ..MetataskSpec::paper(gap)
    }
    .generate(seed);
    run_experiment(ExperimentConfig::paper(kind, 0xC0DE), costs, servers, tasks)
}

fn matmul_run(kind: HeuristicKind, gap: f64, n: usize, seed: u64) -> Vec<TaskRecord> {
    let costs = casgrid::workload::matmul::cost_table();
    let servers = casgrid::workload::testbed::set1_servers();
    let tasks = MetataskSpec {
        n_tasks: n,
        ..MetataskSpec::paper(gap)
    }
    .generate(seed);
    run_experiment(ExperimentConfig::paper(kind, 0xC0DE), costs, servers, tasks)
}

/// "MSF outperforms NetSolve's MCT in all the cases" — on sum-flow, at
/// both rates, on both workloads.
#[test]
fn msf_beats_mct_on_sumflow_everywhere() {
    for gap in [20.0, 15.0] {
        let mct = MetricSet::compute(&wastecpu_run(HeuristicKind::Mct, gap, 250, 1));
        let msf = MetricSet::compute(&wastecpu_run(HeuristicKind::Msf, gap, 250, 1));
        assert!(
            msf.sumflow < mct.sumflow,
            "waste-cpu gap {gap}: MSF {} !< MCT {}",
            msf.sumflow,
            mct.sumflow
        );
        let mct = MetricSet::compute(&matmul_run(HeuristicKind::Mct, gap, 250, 2));
        let msf = MetricSet::compute(&matmul_run(HeuristicKind::Msf, gap, 250, 2));
        assert!(
            msf.sumflow < mct.sumflow,
            "matmul gap {gap}: MSF {} !< MCT {}",
            msf.sumflow,
            mct.sumflow
        );
    }
}

/// The sharded twin of the headline claim: every §5.3 ordering asserted
/// in this file transfers verbatim to the federation, because a paper
/// run (exhaustive selector) routed through shards — skyline merge on —
/// is bit-identical to the single agent. Asserted here on the MSF-vs-MCT
/// sum-flow claim plus the record equality that carries the rest.
#[test]
fn paper_claims_survive_the_federation() {
    let costs = casgrid::workload::wastecpu::cost_table();
    let servers = casgrid::workload::testbed::set2_servers();
    let tasks = MetataskSpec {
        n_tasks: 250,
        ..MetataskSpec::paper(15.0)
    }
    .generate(1);
    let sharded = |kind: HeuristicKind| {
        run_experiment(
            ExperimentConfig::paper(kind, 0xC0DE).with_shards(Sharding::Federated { shards: 2 }),
            costs.clone(),
            servers.clone(),
            tasks.clone(),
        )
    };
    let mct = sharded(HeuristicKind::Mct);
    let msf = sharded(HeuristicKind::Msf);
    assert!(
        MetricSet::compute(&msf).sumflow < MetricSet::compute(&mct).sumflow,
        "sharded MSF must still beat sharded MCT on sum-flow"
    );
    let single = run_experiment(
        ExperimentConfig::paper(HeuristicKind::Msf, 0xC0DE),
        costs.clone(),
        servers.clone(),
        tasks,
    );
    assert_eq!(
        msf, single,
        "the federation must reproduce the paper run exactly"
    );
}

/// "The number of tasks that finish sooner than if scheduled with MCT is
/// always very high" — a strict majority for MSF and MP at the high rate.
#[test]
fn majority_of_tasks_finish_sooner_than_mct() {
    let n = 250;
    let mct = wastecpu_run(HeuristicKind::Mct, 15.0, n, 3);
    for kind in [HeuristicKind::Msf, HeuristicKind::Mp] {
        let h = wastecpu_run(kind, 15.0, n, 3);
        let sooner = finish_sooner_count(&h, &mct);
        assert!(
            sooner > n / 2,
            "{:?}: only {sooner}/{n} finish sooner",
            kind
        );
    }
}

/// "MP is always the best on the max-stretch" — among the four paper
/// heuristics at the high rate.
#[test]
fn mp_wins_maxstretch_at_high_rate() {
    let stretches: Vec<(HeuristicKind, f64)> = HeuristicKind::PAPER
        .iter()
        .map(|&k| {
            let m = MetricSet::compute(&wastecpu_run(k, 15.0, 250, 4));
            (k, m.maxstretch)
        })
        .collect();
    let mp = stretches
        .iter()
        .find(|(k, _)| *k == HeuristicKind::Mp)
        .unwrap()
        .1;
    for (k, s) in &stretches {
        assert!(
            mp <= s * 1.05,
            "MP max-stretch {mp} should be best; {k:?} has {s}"
        );
    }
}

/// Makespan is rate-bound: no heuristic degrades it meaningfully (§5.3:
/// "we cannot expect at the very outset a big difference between two
/// heuristics on that metric").
#[test]
fn makespan_within_two_percent_across_heuristics() {
    let makespans: Vec<f64> = HeuristicKind::PAPER
        .iter()
        .map(|&k| MetricSet::compute(&wastecpu_run(k, 20.0, 250, 5)).makespan)
        .collect();
    let min = makespans.iter().cloned().fold(f64::MAX, f64::min);
    let max = makespans.iter().cloned().fold(0.0, f64::max);
    assert!(max / min < 1.05, "makespans spread too far: {makespans:?}");
}

/// Table 6's completion story: with the memory model on, the high-rate
/// matmul metatask completes fully under MCT (fault-tolerant retries) and
/// loses tasks under HMCT (no retries), while MP loses fewer than HMCT.
#[test]
fn memory_crunch_reproduces_completion_ordering() {
    // Dense arrivals + big memory needs; shrink the gap to stress memory
    // within a 300-task run.
    let mct = MetricSet::compute(&matmul_run(HeuristicKind::Mct, 10.0, 300, 6));
    let hmct = MetricSet::compute(&matmul_run(HeuristicKind::Hmct, 10.0, 300, 6));
    let mp = MetricSet::compute(&matmul_run(HeuristicKind::Mp, 10.0, 300, 6));
    assert!(
        mct.completed > hmct.completed,
        "retrying MCT ({}) must complete more than non-retrying HMCT ({})",
        mct.completed,
        hmct.completed
    );
    assert!(
        mp.completed >= hmct.completed,
        "MP ({}) spreads load and should lose no more than HMCT ({})",
        mp.completed,
        hmct.completed
    );
    assert!(hmct.completed < 300, "the crunch must actually bite");
}

/// The waste-cpu workload never hits memory at all: every task of every
/// heuristic completes at both rates (Tables 7–8's "number of completed
/// tasks" rows).
#[test]
fn wastecpu_always_completes() {
    for gap in [20.0, 15.0] {
        for kind in HeuristicKind::PAPER {
            let m = MetricSet::compute(&wastecpu_run(kind, gap, 200, 7));
            assert_eq!(m.completed, 200, "{kind:?} at gap {gap}");
        }
    }
}

/// Stretch is well-defined and ≥ 1 for every completed task in the
/// noise-free model (the fair-share model can only slow tasks down; with
/// speed noise a task can beat its nominal cost slightly, so this
/// invariant is asserted on the ideal configuration).
#[test]
fn stretch_at_least_one_without_noise() {
    let costs = casgrid::workload::wastecpu::cost_table();
    let servers = casgrid::workload::testbed::set2_servers();
    let tasks = MetataskSpec {
        n_tasks: 200,
        ..MetataskSpec::paper(15.0)
    }
    .generate(8);
    let recs = run_experiment(
        ExperimentConfig::ideal(HeuristicKind::Msf, 8),
        costs,
        servers,
        tasks,
    );
    for r in &recs {
        if let Some(s) = r.stretch() {
            assert!(s >= 1.0 - 1e-9, "task {} has stretch {s} < 1", r.task);
        }
    }
}
