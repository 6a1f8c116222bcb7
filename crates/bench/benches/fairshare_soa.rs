//! Criterion benchmark: `FairShareResource` memory layout.
//!
//! The resource's two hot loops — `advance`'s uniform work subtraction and
//! `next_completion`'s minimum scan — dominate a ground-truth server's
//! event handling once it carries tens of tasks. The live implementation
//! stores activities structure-of-arrays (keys and remaining-work scalars
//! in parallel vectors); `AosResource` below preserves the previous
//! array-of-structs layout as the measured "before". The workload replays
//! the 64-server sweep shape: 64 resources, 8–128 activities each, one
//! advance → next_completion → add → remove cycle per iteration (the
//! ground-truth engine's per-event pattern).

use cas_platform::FairShareResource;
use cas_sim::SimTime;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// The pre-refactor layout: array-of-structs entries, with keys found by
/// the same linear scan the SoA version uses (so the two sides differ in
/// *layout only* and the comparison is honest).
struct AosResource {
    entries: Vec<(u64, f64)>,
    capacity: f64,
    updated_at: SimTime,
}

impl AosResource {
    fn new(capacity: f64) -> Self {
        AosResource {
            entries: Vec::new(),
            capacity,
            updated_at: SimTime::ZERO,
        }
    }

    fn advance(&mut self, now: SimTime) {
        if self.entries.is_empty() || now == self.updated_at {
            self.updated_at = now;
            return;
        }
        let dt = (now - self.updated_at).as_secs();
        let rate = self.capacity / self.entries.len() as f64;
        let done = rate * dt;
        for e in &mut self.entries {
            e.1 = (e.1 - done).max(0.0);
        }
        self.updated_at = now;
    }

    fn add(&mut self, now: SimTime, key: u64, work: f64) {
        self.advance(now);
        assert!(!self.entries.iter().any(|e| e.0 == key));
        self.entries.push((key, work));
    }

    fn remove(&mut self, now: SimTime, key: u64) -> Option<f64> {
        self.advance(now);
        let idx = self.entries.iter().position(|e| e.0 == key)?;
        Some(self.entries.remove(idx).1)
    }

    fn next_completion(&self, now: SimTime) -> Option<(u64, SimTime)> {
        let lag = (now - self.updated_at).as_secs();
        let rate = self.capacity / self.entries.len().max(1) as f64;
        self.entries
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .map(|e| {
                let dt = ((e.1 / rate) - lag).max(0.0);
                (e.0, now + SimTime::from_secs(dt))
            })
    }
}

const N_SERVERS: usize = 64;

fn bench_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairshare_layout");
    for per_server in [8usize, 32, 128] {
        group.throughput(Throughput::Elements(N_SERVERS as u64));
        group.bench_with_input(
            BenchmarkId::new("aos_before", per_server),
            &per_server,
            |b, &n| {
                let mut resources: Vec<AosResource> =
                    (0..N_SERVERS).map(|_| AosResource::new(1.0)).collect();
                for (s, r) in resources.iter_mut().enumerate() {
                    for k in 0..n {
                        r.add(SimTime::ZERO, k as u64, 1e12 + (s * n + k) as f64);
                    }
                }
                let mut now = 0.0;
                let mut next_id = n as u64;
                b.iter(|| {
                    now += 1.0;
                    let t = SimTime::from_secs(now);
                    for r in &mut resources {
                        r.add(t, next_id, 1.0);
                        black_box(r.next_completion(t));
                        r.remove(t, next_id);
                    }
                    next_id += 1;
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("soa_after", per_server),
            &per_server,
            |b, &n| {
                let mut resources: Vec<FairShareResource<u64>> = (0..N_SERVERS)
                    .map(|_| FairShareResource::new(1.0))
                    .collect();
                for (s, r) in resources.iter_mut().enumerate() {
                    for k in 0..n {
                        r.add(SimTime::ZERO, k as u64, 1e12 + (s * n + k) as f64);
                    }
                }
                let mut now = 0.0;
                let mut next_id = n as u64;
                b.iter(|| {
                    now += 1.0;
                    let t = SimTime::from_secs(now);
                    for r in &mut resources {
                        r.add(t, next_id, 1.0);
                        black_box(r.next_completion(t));
                        r.remove(t, next_id);
                    }
                    next_id += 1;
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_layouts);
criterion_main!(benches);
