//! One rep of a workload, measured from outside the engine.
//!
//! [`Probe`] wraps `GridWorld` in the benchmark's own `World`. Untraced,
//! it times only `GridEvent::Schedule` handling (the decision latency).
//! Traced, it times every `handle` call by event kind and snapshots the
//! engine's always-on profiler around it, so each kind's time splits
//! into profiler phases and the handler's own (self) time; [`run_rep`]
//! times every `Simulation::step` around it. The span tree is
//! step → handle(kind) → profiler phases, aggregated in memory per kind.

use crate::metrics::{Values, ENGINE_KINDS};
use crate::stats::records_digest;
use crate::workloads::Workload;
use cas_core::MemoStats;
use cas_metrics::prof::{self, Phase};
use cas_metrics::{per_class_slo, percentile, DropReason, MetricSet, TaskOutcome};
use cas_middleware::{GridEvent, GridWorld};
use cas_sim::{Scheduler, SimTime, Simulation, World};
use std::hint::black_box;
use std::time::Instant;

const N_KINDS: usize = 12;
const SCHEDULE: usize = 1;

/// Event kind index; the first entries line up with [`ENGINE_KINDS`].
fn kind_of(event: &GridEvent) -> usize {
    match event {
        GridEvent::Submit { .. } => 0,
        GridEvent::Schedule { .. } => SCHEDULE,
        GridEvent::PhaseDone { .. } => 2,
        GridEvent::LoadReport { .. } => 3,
        GridEvent::ShardLoadReport { .. } => 4,
        GridEvent::ServerCrash { .. } => 5,
        GridEvent::ServerJoin { .. } => 6,
        GridEvent::AdmissionTimeout { .. } => 7,
        GridEvent::ClientLinkDone { .. } => 8,
        GridEvent::NoiseRedraw { .. } => 9,
        GridEvent::ServerProvision { .. } => 10,
        GridEvent::ServerLeave { .. } => 11,
    }
}

/// Kinds whose handling may rebalance the federation, rebuilding shard
/// engines and with them their stage-2 counters.
fn may_rebalance(kind: usize) -> bool {
    matches!(kind, 5 | 6 | 10 | 11)
}

/// Aggregated `handle` spans of one event kind.
#[derive(Debug, Default, Clone, Copy)]
struct KindSpans {
    count: u64,
    handle_ns: u64,
    /// Profiler-phase time that closed inside those spans.
    phase_ns: u64,
}

/// Runs `f` as one handle span of `acc`'s kind.
#[inline]
fn span(acc: &mut KindSpans, f: impl FnOnce()) {
    let p0 = prof::snapshot();
    let t0 = Instant::now();
    f();
    let ns = t0.elapsed().as_nanos() as u64;
    acc.count += 1;
    acc.handle_ns += ns;
    acc.phase_ns += prof::snapshot().since(&p0).total_nanos();
}

/// `AgentRouter::stage2_stats` sums the live shard engines only, so a
/// rebalance drops the history of every rebuilt engine. The probe
/// samples the counters around events that may rebalance and carries
/// whatever fell forward; the total it reports is then monotone (a
/// lower bound on the true total: work done inside the resetting event
/// by the engines it replaced is not recovered).
fn carry_lost(before: MemoStats, after: MemoStats) -> Option<MemoStats> {
    let lost = MemoStats {
        drains: before.drains.saturating_sub(after.drains),
        hits: before.hits.saturating_sub(after.hits),
        cross_task_hits: before.cross_task_hits.saturating_sub(after.cross_task_hits),
        truncated: before.truncated.saturating_sub(after.truncated),
        prefix_hits: before.prefix_hits.saturating_sub(after.prefix_hits),
    };
    (lost != MemoStats::default()).then_some(lost)
}

/// The benchmark's `World`: `GridWorld` plus the spans around it.
struct Probe {
    world: GridWorld,
    traced: bool,
    /// Wall nanoseconds of each untraced `Schedule` handling.
    decisions_ns: Vec<u32>,
    kinds: [KindSpans; N_KINDS],
    stage2_carry: MemoStats,
    counter_resets: u64,
}

impl World for Probe {
    type Event = GridEvent;

    fn init(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        self.world.init(sched);
    }

    fn handle(&mut self, now: SimTime, event: GridEvent, sched: &mut Scheduler<'_, GridEvent>) {
        let kind = kind_of(&event);
        if !self.traced {
            if kind == SCHEDULE {
                let t0 = Instant::now();
                self.world.handle(now, event, sched);
                let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
                self.decisions_ns.push(ns);
            } else {
                self.world.handle(now, event, sched);
            }
            return;
        }
        let before = may_rebalance(kind).then(|| self.world.agent().stage2_stats());
        span(&mut self.kinds[kind], || {
            self.world.handle(now, event, sched)
        });
        if let Some(lost) = before.and_then(|b| carry_lost(b, self.world.agent().stage2_stats())) {
            self.counter_resets += 1;
            self.stage2_carry = self.stage2_carry.merge(lost);
        }
    }
}

/// Nanoseconds the traced probe adds to a step outside the handle span
/// it measures, found by wrapping an empty body many times.
fn probe_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut acc = KindSpans::default();
    let t0 = Instant::now();
    for _ in 0..N {
        span(&mut acc, || black_box(()));
    }
    (t0.elapsed().as_nanos() as f64 - acc.handle_ns as f64).max(0.0) / f64::from(N)
}

/// CPU time of every thread of this process so far, seconds.
fn process_cpu_s() -> Result<f64, String> {
    let dir = std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut ns = 0u64;
    for task in dir {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between listing and reading; it then has no
        // CPU time left to count.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        ns += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("unreadable {}", path.display()))?;
    }
    Ok(ns as f64 / 1e9)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one rep measured and produced.
pub struct Rep {
    pub n_tasks: usize,
    /// Tasks every candidate server refused (`TaskOutcome::Failed`).
    pub failed: u64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub digest: u64,
    pub events: u64,
    /// Wall nanoseconds of each `Schedule` handling, in simulation
    /// order (untraced reps only). Reps replay the same decisions, so
    /// the run takes each decision's median over its reps.
    pub decisions_ns: Vec<u32>,
    /// Generation + build time of each of the rep's [`SETUPS_PER_REP`]
    /// set-ups, seconds.
    pub setup_s: Vec<f64>,
    /// End-to-end metrics except the decision latencies, `setup_s` and
    /// the process-wide `peak_rss_mb`, which the run computes over all
    /// its reps.
    pub e2e: Values,
    /// Per-layer metrics except those that compare traced with
    /// untraced reps (traced reps only).
    pub layers: Values,
}

/// Set-ups each rep times; the world of the last one is simulated. A
/// set-up takes milliseconds, so a single one per rep would leave
/// `setup_s` at the mercy of one page fault or one preemption.
pub const SETUPS_PER_REP: usize = 5;

/// A generated and built world, ready to simulate.
struct Built {
    world: GridWorld,
    n_tasks: usize,
    admission_on: bool,
    generate_s: f64,
    build_s: f64,
}

fn build(workload: Workload, seed: u64, scale: f64) -> Built {
    let t0 = Instant::now();
    let inputs = workload.generate(seed, scale);
    let generate_s = t0.elapsed().as_secs_f64();
    let n_tasks = inputs.tasks.len();
    let admission_on = inputs.cfg.admission_enabled();

    let t0 = Instant::now();
    let mut world = GridWorld::new(inputs.cfg, inputs.costs, inputs.servers, inputs.tasks);
    if let Some(users) = inputs.users {
        world = world.with_users(users);
    }
    Built {
        world,
        n_tasks,
        admission_on,
        generate_s,
        build_s: t0.elapsed().as_secs_f64(),
    }
}

/// Generates `workload` from `seed`, builds the world, runs it to
/// completion and checks the outputs. Any broken invariant is an `Err`
/// naming it.
pub fn run_rep(workload: Workload, seed: u64, scale: f64, traced: bool) -> Result<Rep, String> {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_REP);
    let mut built = None;
    for _ in 0..SETUPS_PER_REP {
        // Free the previous world first, so that repeated set-ups do
        // not raise the peak RSS.
        drop(built.take());
        let b = build(workload, seed, scale);
        setup_s.push(b.generate_s + b.build_s);
        built = Some(b);
    }
    let Built {
        world,
        n_tasks,
        admission_on,
        generate_s,
        build_s,
    } = built.expect("at least one set-up ran");
    // Rebalancing may merge shards later; the layer is sized at build.
    let n_shards = world.agent().n_shards();

    let probe_ns = if traced { probe_cost_ns() } else { 0.0 };
    let mut sim = Simulation::new(Probe {
        world,
        traced,
        decisions_ns: Vec::with_capacity(if traced { 0 } else { n_tasks }),
        kinds: [KindSpans::default(); N_KINDS],
        stage2_carry: MemoStats::default(),
        counter_resets: 0,
    });

    let cpu0 = process_cpu_s()?;
    let p0 = prof::snapshot();
    let t0 = Instant::now();
    let (mut init_ns, mut step_ns) = (0u64, 0u64);
    if traced {
        // A zero-event run seeds the queue without processing anything.
        sim.run(SimTime::ZERO, 0);
        init_ns = t0.elapsed().as_nanos() as u64;
        loop {
            let s = Instant::now();
            let more = sim.step();
            step_ns += s.elapsed().as_nanos() as u64;
            if !more {
                break;
            }
        }
    } else {
        sim.run_to_completion();
    }
    let run_s = t0.elapsed().as_secs_f64();
    let phases = prof::snapshot().since(&p0);
    let cpu_s = process_cpu_s()? - cpu0;

    let events = sim.processed();
    let peak_pending = sim.peak_pending();
    let migrations = sim.queue().migrations();
    let probe = sim.into_world();
    let world = &probe.world;

    let t0 = Instant::now();
    let records = world.records();
    let metric_set = MetricSet::compute(records);
    let stretches: Vec<f64> = records.iter().filter_map(|r| r.stretch()).collect();
    let p99_stretch = percentile(&stretches, 0.99).unwrap_or(0.0);
    let worst_class_p99 = per_class_slo(records, world.users(), world.admission_waits())
        .iter()
        .filter_map(|c| c.p99_stretch)
        .fold(0.0, f64::max);
    let digest = records_digest(records);
    let metrics_s = t0.elapsed().as_secs_f64();

    // Output checks.
    let (mut completed, mut dropped, mut failed, mut in_flight) = (0u64, 0u64, 0u64, 0u64);
    let (mut budget_drops, mut admission_drops) = (0u64, 0u64);
    for r in records {
        match r.outcome {
            TaskOutcome::Completed { .. } => completed += 1,
            TaskOutcome::Failed => failed += 1,
            TaskOutcome::InFlight => in_flight += 1,
            TaskOutcome::Dropped { reason } => {
                dropped += 1;
                match reason {
                    DropReason::RedispatchBudget => budget_drops += 1,
                    DropReason::AdmissionDeadline => admission_drops += 1,
                    DropReason::NoLiveSolver => {}
                }
            }
        }
    }
    let name = workload.name();
    let adm = world.admission_stats();
    let churn = world.churn_stats();
    if in_flight > 0 || completed + dropped + failed != n_tasks as u64 {
        return Err(format!(
            "{name}: completed {completed} + dropped {dropped} + failed {failed} != n_tasks \
             {n_tasks} ({in_flight} left in flight)"
        ));
    }
    if adm.buffered != adm.dequeued + adm.shed_deadline {
        return Err(format!(
            "{name}: admission buffered {} != dequeued {} + shed_deadline {}",
            adm.buffered, adm.dequeued, adm.shed_deadline
        ));
    }
    if admission_drops != adm.shed_deadline + adm.shed_overflow {
        return Err(format!(
            "{name}: {admission_drops} admission-deadline drops != shed_deadline {} + \
             shed_overflow {}",
            adm.shed_deadline, adm.shed_overflow
        ));
    }
    // Under backpressure every crash retraction either re-enters the
    // buffer or spends its re-dispatch budget; without the gate a
    // retraction re-dispatches through the backoff instead.
    if admission_on && adm.reentries + budget_drops != churn.retractions {
        return Err(format!(
            "{name}: reentries {} + budget drops {budget_drops} != retractions {}",
            adm.reentries, churn.retractions
        ));
    }

    let n = n_tasks as f64;
    let mut e2e = Values::new();
    e2e.insert("tasks_per_s".into(), n / run_s);
    e2e.insert("cpu_us_per_task".into(), cpu_s * 1e6 / n);
    e2e.insert("mean_stretch".into(), metric_set.meanstretch);
    e2e.insert("p99_stretch".into(), p99_stretch);
    e2e.insert("worst_class_p99_stretch".into(), worst_class_p99);
    e2e.insert("completed_ratio".into(), completed as f64 / n);

    let mut layers = Values::new();
    if traced {
        let wall_ns = run_s * 1e9;
        let share = |ns: f64| ns / wall_ns;
        // Mean µs per count.
        let per = |ns: u64, count: u64| ratio(ns as f64, count as f64) / 1e3;
        let mut put = |name: &str, v: f64| {
            layers.insert(name.to_string(), v);
        };
        let handle_ns: u64 = probe.kinds.iter().map(|k| k.handle_ns).sum();
        let self_ns: u64 = probe
            .kinds
            .iter()
            .map(|k| k.handle_ns.saturating_sub(k.phase_ns))
            .sum();
        for (k, kind) in ENGINE_KINDS.iter().enumerate() {
            let s = probe.kinds[k];
            put(&format!("engine.{kind}.count"), s.count as f64);
            put(&format!("engine.{kind}.mean_us"), per(s.handle_ns, s.count));
            put(
                &format!("engine.{kind}.self_us"),
                per(s.handle_ns.saturating_sub(s.phase_ns), s.count),
            );
        }
        let sim_self =
            init_ns as f64 + step_ns as f64 - handle_ns as f64 - events as f64 * probe_ns;
        put("sim.events_per_task", events as f64 / n);
        put(
            "sim.pop_us_per_event",
            per(
                phases.nanos_of(Phase::KernelPop),
                phases.count_of(Phase::KernelPop),
            ),
        );
        put("sim.self_share", share(sim_self.max(0.0)));
        put("sim.peak_pending", peak_pending as f64);
        put("sim.queue_migrations", migrations as f64);
        put("engine.self_share", share(self_ns as f64));
        put(
            "engine.unattributed_share",
            share((wall_ns - init_ns as f64 - step_ns as f64).max(0.0)),
        );

        let agent = world.agent();
        let sky = agent.skyline_stats();
        let (s1_ns, s1_n) = (
            phases.nanos_of(Phase::Stage1Walk),
            phases.count_of(Phase::Stage1Walk),
        );
        put("shard.stage1_us_per_decision", per(s1_ns, s1_n));
        put("shard.stage1_share", share(s1_ns as f64));
        put(
            "shard.visits_per_decision",
            ratio(sky.shard_visits as f64, sky.decisions as f64),
        );
        put("shard.skip_rate", sky.skip_rate());
        put("shard.group_skip_rate", sky.group_skip_rate());
        put("shard.n_shards", n_shards as f64);

        let s2 = agent.stage2_stats().merge(probe.stage2_carry);
        let (s2_ns, s2_n) = (
            phases.nanos_of(Phase::Stage2Predict),
            phases.count_of(Phase::Stage2Predict),
        );
        let hooks_ns = phases.nanos_of(Phase::CommitHooks);
        put("htm.stage2_us_per_decision", per(s2_ns, s2_n));
        put("htm.stage2_share", share(s2_ns as f64));
        put(
            "htm.predictions_per_decision",
            ratio((s2.drains + s2.hits) as f64, s2_n as f64),
        );
        put("htm.memo_hit_rate", s2.hit_rate());
        put("htm.truncation_rate", s2.truncation_rate());
        put("htm.prefix_reuse_rate", s2.prefix_reuse_rate());
        put("htm.counter_resets", probe.counter_resets as f64);
        put("htm.hooks_us_per_task", hooks_ns as f64 / n / 1e3);
        put("htm.hooks_share", share(hooks_ns as f64));

        let crash = probe.kinds[5];
        put("churn.share", share(phases.nanos_of(Phase::Churn) as f64));
        put("churn.crash_us", per(crash.handle_ns, crash.count));
        put(
            "churn.retractions_per_crash",
            ratio(churn.retractions as f64, churn.crashes as f64),
        );
        put("churn.redispatches", churn.redispatches as f64);
        put("churn.rebalances", churn.rebalances as f64);

        put("admission.buffered", adm.buffered as f64);
        put(
            "admission.shed_ratio",
            (adm.shed_deadline + adm.shed_overflow) as f64 / n,
        );
        let waited_s: f64 = world.admission_waits().iter().sum();
        put(
            "admission.mean_wait_s",
            ratio(waited_s, adm.buffered as f64),
        );
        put("admission.peak_buffered", adm.peak_buffered as f64);

        put("reports.events_per_task", world.report_events() as f64 / n);
        put(
            "reports.share",
            share(phases.nanos_of(Phase::Reports) as f64),
        );
        put("pool.workers", cas_sim::pool::global().workers() as f64);
        put("workload.generate_s", generate_s);
        put("engine.build_s", build_s);
        put("metrics.compute_s", metrics_s);
    }

    Ok(Rep {
        n_tasks,
        failed,
        run_s,
        cpu_s,
        digest,
        events,
        decisions_ns: probe.decisions_ns,
        setup_s,
        e2e,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, END_TO_END};
    use crate::workloads::SMOKE_SCALE;

    /// Two smoke-scale runs of every workload, one of them traced,
    /// produce the same records (so runs are deterministic and the probe
    /// is invisible), and each rep measures every metric the run emits.
    #[test]
    fn smoke_runs_have_equal_digests_and_all_metrics() {
        for w in Workload::ALL {
            let plain = run_rep(w, 5, SMOKE_SCALE, false).unwrap();
            let traced = run_rep(w, 5, SMOKE_SCALE, true).unwrap();
            assert_eq!(
                (plain.digest, plain.events),
                (traced.digest, traced.events),
                "{}",
                w.name()
            );
            // The run computes the rest over all its reps.
            let per_run = [
                "decision_p50_us",
                "decision_p99_us",
                "setup_s",
                "peak_rss_mb",
            ];
            for (name, _) in END_TO_END {
                assert!(
                    plain.e2e.contains_key(name) || per_run.contains(&name),
                    "{name}"
                );
            }
            assert!(!plain.decisions_ns.is_empty() && traced.decisions_ns.is_empty());
            assert_eq!(plain.setup_s.len(), SETUPS_PER_REP);
            // The run adds the two metrics that compare traced with
            // untraced reps.
            for (name, _) in per_layer() {
                assert!(
                    traced.layers.contains_key(&name)
                        || ["trace.overhead_pct", "pool.cpu_over_wall"].contains(&name.as_str()),
                    "{name}"
                );
            }
            assert_eq!(traced.layers.len() + 2, per_layer().len());
        }
    }

    #[test]
    fn lost_stage2_history_is_carried_only_when_counters_fall() {
        let s = |drains, hits| MemoStats {
            drains,
            hits,
            ..MemoStats::default()
        };
        assert_eq!(carry_lost(s(10, 4), s(12, 4)), None);
        assert_eq!(carry_lost(s(10, 4), s(3, 5)), Some(s(7, 0)));
    }
}
