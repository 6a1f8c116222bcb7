//! Campaign state bounded by the work in flight: the event kernel's
//! pending set, the HTM's per-task state and the admission gate's
//! deadline events follow the servers, the user classes and the tasks
//! still in flight, not the length of the campaign.

use casgrid::middleware::{GridEvent, GridWorld};
use casgrid::prelude::*;
use casgrid::sim::{Scheduler, Simulation, World};
use casgrid::workload::synthetic::{BurstArrivals, SyntheticPlatform};
use casgrid::workload::trace::AppProfile;

/// Runs `world` to completion; returns it with the kernel's peak pending
/// event count.
fn run(world: GridWorld) -> (GridWorld, usize) {
    let mut sim = Simulation::new(world);
    sim.run_to_completion();
    let peak = sim.peak_pending();
    let world = sim.into_world();
    assert_eq!(world.remaining(), 0, "every task must end terminal");
    (world, peak)
}

/// After a 2,000-task HMCT campaign on the paper farm (waste-cpu on the
/// four set-2 servers), the HTM keeps per-task state only for the tasks
/// still active in a trace, and no trace holds a finished task, under
/// both sync policies. Every completed task still got its simulated
/// completion, handed out as it left its trace.
#[test]
fn htm_keeps_only_the_tasks_still_in_a_trace() {
    let servers = casgrid::workload::testbed::set2_servers();
    let n_servers = servers.len() as u32;
    let tasks = MetataskSpec {
        n_tasks: 2_000,
        ..MetataskSpec::paper(15.0)
    }
    .generate(1);
    for sync in [SyncPolicy::None, SyncPolicy::ForceFinish] {
        let mut cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        cfg.sync = sync;
        let world = GridWorld::new(
            cfg,
            casgrid::workload::wastecpu::cost_table(),
            servers.clone(),
            tasks.clone(),
        );
        let (world, _) = run(world);
        let htm = world.htm();
        let active: usize = (0..n_servers).map(|s| htm.active_on(ServerId(s))).sum();
        assert_eq!(htm.tracked_tasks(), active, "{sync:?}");
        for s in 0..n_servers {
            assert!(htm.trace(ServerId(s)).finished().is_empty(), "{sync:?}");
        }
        if sync == SyncPolicy::ForceFinish {
            assert_eq!(active, 0, "every completion was observed");
        }
        let records = world.records();
        let handed = records
            .iter()
            .filter(|r| r.predicted_completion.is_some())
            .count();
        assert_eq!(
            handed + active,
            records.iter().filter(|r| r.is_completed()).count(),
            "{sync:?}: a completed task's simulated completion is either \
             handed out or still in a trace"
        );
    }
}

/// One farm at two task counts: the kernel's peak pending events stay
/// under a ceiling that does not involve the task count. Arrivals stream
/// through the kernel one at a time, so what can be pending is the
/// chain's next `Submit`, per server the three resources' live
/// completion events plus one stale one each, one load report and one
/// decision in flight — the count `cas_bench::pending_events_ceiling`
/// makes for a frozen farm with per-server reports.
#[test]
fn pending_events_do_not_grow_with_the_task_count() {
    let platform = SyntheticPlatform {
        n_servers: 40,
        ..Default::default()
    };
    let costs = platform.cost_table(3);
    // Arrivals at half the farm's aggregate service rate.
    let capacity: f64 = (0..platform.n_servers as u32)
        .map(|s| {
            let mean: f64 = (0..platform.n_problems as u32)
                .map(|p| {
                    costs
                        .unloaded_duration(ProblemId(p), ServerId(s))
                        .expect("synthetic tables are fully solvable")
                })
                .sum::<f64>()
                / platform.n_problems as f64;
            1.0 / mean
        })
        .sum();
    let ceiling = 1 + platform.n_servers * (3 * 2 + 1 + 1);
    let mut peaks = Vec::new();
    for n_tasks in [1_000, 8_000] {
        let tasks = BurstArrivals {
            n_tasks,
            base_rate: 0.4 * capacity,
            peak_rate: 0.6 * capacity,
            period: 600.0,
            n_problems: platform.n_problems,
        }
        .generate(3);
        let world = GridWorld::new(
            ExperimentConfig::ideal(HeuristicKind::Hmct, 3),
            costs.clone(),
            platform.servers(3),
            tasks,
        );
        let (_, peak) = run(world);
        assert!(
            peak <= ceiling,
            "{n_tasks} tasks: peak pending {peak} > ceiling {ceiling}"
        );
        peaks.push(peak);
    }
    eprintln!("peak pending at 1,000 and 8,000 tasks: {peaks:?} (ceiling {ceiling})");
}

/// `GridWorld` plus a count of the `AdmissionTimeout` events it handles.
struct CountDeadlines {
    world: GridWorld,
    deadlines: u64,
}

impl World for CountDeadlines {
    type Event = GridEvent;

    fn init(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        self.world.init(sched);
    }

    fn handle(&mut self, now: SimTime, event: GridEvent, sched: &mut Scheduler<'_, GridEvent>) {
        if matches!(event, GridEvent::AdmissionTimeout { .. }) {
            self.deadlines += 1;
        }
        self.world.handle(now, event, sched);
    }
}

/// A gated campaign of three user classes under churn: a steady class,
/// a crest class that outruns the gate early on and a sparse class of
/// long jobs. The gate keeps one deadline pending per class, not one per
/// buffer entry, so the campaign handles fewer deadline events than it
/// buffers entries: at most one per task shed at its deadline plus one
/// per entry dequeued before it.
#[test]
fn admission_deadlines_fire_per_class_not_per_entry() {
    let spec = FittedTraceSpec {
        // (class, tasks, seconds it submits over, mean demand in s)
        apps: [
            (0, 600, 1000.0, 10.0),
            (1, 350, 250.0, 10.0),
            (2, 50, 1000.0, 120.0),
        ]
        .into_iter()
        .map(|(user, n_tasks, span_s, mean_duration_s)| AppProfile {
            user,
            n_tasks,
            mean_gap_s: span_s / n_tasks as f64,
            mean_duration_s,
        })
        .collect(),
    };
    let compiled = TraceWorkload {
        n_servers: 40,
        ..TraceWorkload::default()
    }
    .compile(&mut spec.generate(5), 5)
    .expect("a fitted trace is never empty");
    let cfg = ExperimentConfig::ideal(HeuristicKind::Mct, 5)
        .with_churn(300.0, 30.0)
        .with_churn_seed(7)
        .with_admission(30, 100, 60.0);
    let world = GridWorld::new(cfg, compiled.costs, compiled.servers, compiled.tasks)
        .with_users(compiled.users);
    let mut sim = Simulation::new(CountDeadlines {
        world,
        deadlines: 0,
    });
    sim.run_to_completion();
    let CountDeadlines { world, deadlines } = sim.into_world();
    assert_eq!(world.remaining(), 0, "every task must end terminal");
    let adm = world.admission_stats();
    assert!(
        adm.shed_deadline > 0 && adm.dequeued > 0 && adm.reentries > 0,
        "the gate must shed at deadline, dequeue and re-enter: {adm:?}"
    );
    eprintln!("{deadlines} deadline events for {adm:?}");
    assert!(
        deadlines < adm.buffered,
        "{deadlines} deadline events for {} buffer entries",
        adm.buffered
    );
    assert!(
        deadlines <= adm.shed_deadline + adm.dequeued,
        "{deadlines} deadline events > {} shed at deadline + {} dequeued",
        adm.shed_deadline,
        adm.dequeued
    );
}
