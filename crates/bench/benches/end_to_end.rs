//! Criterion benchmark: full experiment throughput.
//!
//! Wall-clock cost of one complete paper-scale experiment (500 tasks, four
//! servers, noise on) per heuristic — the number that determines how many
//! replications a sweep can afford. Also benches the parallel runner
//! against the strictly sequential one.

use cas_core::heuristics::HeuristicKind;
use cas_middleware::{
    run_experiment, run_replications, run_replications_sequential, ExperimentConfig,
};
use cas_workload::metatask::MetataskSpec;
use cas_workload::{testbed, wastecpu};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_full_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment_500_tasks");
    group.sample_size(20);
    let costs = wastecpu::cost_table();
    let servers = testbed::set2_servers();
    let tasks = MetataskSpec::paper(15.0).generate(1);
    for kind in HeuristicKind::PAPER {
        group.throughput(Throughput::Elements(tasks.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            let cfg = ExperimentConfig::paper(k, 3);
            b.iter(|| {
                black_box(run_experiment(
                    cfg,
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                ))
            });
        });
    }
    group.finish();
}

fn bench_parallel_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner_8_replications");
    group.sample_size(10);
    let costs = wastecpu::cost_table();
    let servers = testbed::set2_servers();
    let tasks = MetataskSpec::paper(20.0).generate(2);
    let workloads: Vec<_> = (0..8).map(|_| tasks.clone()).collect();
    let cfg = ExperimentConfig::paper(HeuristicKind::Msf, 9);
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| black_box(run_replications_sequential(cfg, &costs, &servers, &workloads).len()));
    });
    group.bench_function(BenchmarkId::from_parameter("parallel"), |b| {
        b.iter(|| black_box(run_replications(cfg, &costs, &servers, &workloads).len()));
    });
    group.finish();
}

criterion_group!(benches, bench_full_run, bench_parallel_runner);
criterion_main!(benches);
