//! Criterion benchmark: event-queue and fair-share-resource throughput.
//!
//! The simulation kernel's hot paths: push/pop cycles on the stable event
//! queue (with the hold-model access pattern a DES produces) and
//! advance/add/remove cycles on the fair-share resource.

use cas_platform::FairShareResource;
use cas_sim::{EventQueue, RngStream, SimTime, StreamKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_queue_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    for size in [64usize, 1024, 16384] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            // Classic hold model: steady-state queue of `size` events; each
            // iteration pops the earliest and pushes a new one later.
            let mut rng = RngStream::derive(7, StreamKind::Custom(1));
            let mut q = EventQueue::new();
            for i in 0..size {
                q.push(SimTime::from_secs(rng.uniform(0.0, 100.0)), i as u64);
            }
            b.iter(|| {
                let e = q.pop().expect("non-empty");
                q.push(e.at + SimTime::from_secs(rng.uniform(0.1, 10.0)), e.event);
                black_box(e.at)
            });
        });
    }
    group.finish();
}

fn bench_fairshare_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairshare_advance_cycle");
    for n in [2usize, 16, 128] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut res = FairShareResource::new(1.0);
            for i in 0..n {
                res.add(
                    SimTime::ZERO,
                    cas_platform::TaskId(i as u64),
                    1e12 + i as f64,
                );
            }
            let mut now = 0.0;
            let mut next_id = n as u64;
            b.iter(|| {
                now += 1.0;
                let t = SimTime::from_secs(now);
                res.add(t, cas_platform::TaskId(next_id), 1.0);
                let first = res.next_completion(t);
                res.remove(t, cas_platform::TaskId(next_id));
                next_id += 1;
                black_box(first)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queue_hold, bench_fairshare_cycle);
criterion_main!(benches);
