//! Criterion benchmark: scheduling decision cost.
//!
//! §5 claims "a scheduling decision cost is negligible compared to the
//! duration of the shortest task (less than 0.01 second in most of cases)
//! for all the proposed heuristics". This bench measures `select()` for
//! every heuristic with 4 servers and trace populations of 0–128 active
//! tasks per server — far beyond the paper's loads — and confirms the
//! sub-10 ms envelope holds by orders of magnitude in Rust.

use cas_core::heuristics::{HeuristicKind, SchedView};
use cas_core::{Htm, SyncPolicy};
use cas_platform::{
    CostTable, LoadReport, PhaseCosts, Problem, ProblemId, ServerId, TaskId, TaskInstance,
};
use cas_sim::{RngStream, SimTime, StreamKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn table() -> CostTable {
    let mut t = CostTable::new(4);
    for p in 0..3 {
        let base = 15.0 * (p + 1) as f64;
        t.add_problem(
            Problem::new(format!("p{p}"), 1.0, 0.5, 0.0),
            (0..4)
                .map(|s| Some(PhaseCosts::new(0.2, base * (1.0 + s as f64), 0.1)))
                .collect(),
        );
    }
    t
}

/// Builds an HTM with `per_server` active tasks on each of the 4 servers.
fn loaded_htm(per_server: usize) -> Htm {
    let mut htm = Htm::new(table(), SyncPolicy::None);
    let mut id = 1000u64;
    for s in 0..4u32 {
        for k in 0..per_server {
            let t = TaskInstance::new(
                TaskId(id),
                ProblemId((k % 3) as u32),
                SimTime::from_secs(k as f64),
            );
            htm.commit(t.arrival, ServerId(s), &t);
            id += 1;
        }
    }
    htm
}

fn bench_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_cost");
    let loads: Vec<LoadReport> = (0..4u32)
        .map(|i| LoadReport::initial(ServerId(i)))
        .collect();
    for kind in [
        HeuristicKind::Mct,
        HeuristicKind::Hmct,
        HeuristicKind::Mp,
        HeuristicKind::Msf,
        HeuristicKind::Mni,
    ] {
        for per_server in [0usize, 8, 32, 128] {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), per_server),
                &per_server,
                |b, &n| {
                    let htm = loaded_htm(n);
                    let costs = table();
                    let mut heuristic = kind.build();
                    let mut rng = RngStream::derive(1, StreamKind::TieBreak);
                    let task =
                        TaskInstance::new(TaskId(1), ProblemId(0), SimTime::from_secs(500.0));
                    b.iter_batched(
                        || htm.clone(),
                        |mut htm| {
                            let mut view = SchedView::new(
                                task.arrival,
                                task,
                                costs.solvers(task.problem),
                                &costs,
                                &loads,
                                &mut htm,
                                &mut rng,
                            );
                            black_box(heuristic.select(&mut view))
                        },
                        criterion::BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    group.finish();
}

/// A wider sweep: 64 servers, the scale the prediction cache is gated on.
fn table64() -> CostTable {
    let mut t = CostTable::new(64);
    for p in 0..3 {
        let base = 15.0 * (p + 1) as f64;
        t.add_problem(
            Problem::new(format!("p{p}"), 1.0, 0.5, 0.0),
            (0..64)
                .map(|s| {
                    Some(PhaseCosts::new(
                        0.2,
                        base * (1.0 + (s % 7) as f64 * 0.3),
                        0.1,
                    ))
                })
                .collect(),
        );
    }
    t
}

fn loaded_htm64(per_server: usize) -> Htm {
    let mut htm = Htm::new(table64(), SyncPolicy::None);
    let mut id = 1000u64;
    for s in 0..64u32 {
        for k in 0..per_server {
            let t = TaskInstance::new(
                TaskId(id),
                ProblemId((k % 3) as u32),
                SimTime::from_secs(k as f64),
            );
            htm.commit(t.arrival, ServerId(s), &t);
            id += 1;
        }
    }
    htm
}

/// One full decision (a what-if query per candidate over all 64 servers,
/// each through `Htm::predict`) on the generation-cached zero-clone
/// engine.
fn bench_predict_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_cost_64srv");
    let probe = TaskInstance::new(TaskId(1), ProblemId(0), SimTime::from_secs(500.0));
    let candidates: Vec<ServerId> = (0..64u32).map(ServerId).collect();
    for per_server in [8usize, 32, 128] {
        group.bench_with_input(
            BenchmarkId::new("cached", per_server),
            &per_server,
            |b, &n| {
                let mut htm = loaded_htm64(n);
                b.iter(|| {
                    for &s in &candidates {
                        black_box(htm.predict(probe.arrival, s, &probe));
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decision, bench_predict_paths);
criterion_main!(benches);
