//! The standing scale campaign: 1k servers, bursty arrivals, now at up to
//! 10⁶ tasks behind the two-stage decision pipeline.
//!
//! This is the workload the candidate pipeline exists for: enough
//! servers that an exhaustive one-drain-per-candidate decision is the
//! dominant cost, and enough commits to make incremental baseline repair
//! the difference between minutes and hours. The binary:
//!
//! 1. runs the **headline campaign** — one HMCT experiment on a synthetic
//!    `SCALE_SMOKE_SERVERS`-server platform under inhomogeneous-Poisson
//!    (thinning) arrivals sized to ~50 % of aggregate capacity at the
//!    mean and ~80 % at crests, with the pruning selector of
//!    `SCALE_SMOKE_SELECTOR` (default `adaptive:8:64`);
//! 2. measures the **decision path** in isolation — µs per scheduling
//!    decision on a loaded platform, exhaustive versus `topk:16`
//!    shortlists (gate: ≥ `SCALE_DECISION_GATE`, default 5×);
//! 3. reruns a **comparison campaign** (`SCALE_SMOKE_COMPARE_TASKS`,
//!    default min(tasks, 100k)) under the exhaustive selector and checks
//!    that pruning moves the completion rate by at most
//!    `SCALE_COMPLETION_DELTA_GATE` (default 1 %);
//! 4. reruns the comparison arrivals squeezed to 0.9 mean load, where
//!    queues run deep, and requires the **stage-2 drain counters**
//!    (drains, truncations, prefix-cursor reuses) live in the `stage2`
//!    JSON section — a silent fall-back to full drains would keep the
//!    records and lose the speed;
//! 5. reruns the headline campaign through the **shard federation**
//!    (`SCALE_SMOKE_SHARDS`, default `auto`) and checks the sharded
//!    completion rate within the same delta gate of the unsharded run;
//! 6. checks **group-walk equality**: the comparison campaign rerun with
//!    every shard its own group (`auto:1`) must be record-identical to
//!    the flat lazy walk — the two-level tree may prune walks, never
//!    decisions (exact gate);
//! 7. measures the **decision pipeline at production width** — one full
//!    two-stage decision plus commit and complete hooks per task through
//!    the real router — at `SHARD_BENCH_SERVERS` (default 10k) servers,
//!    unsharded versus `SHARD_BENCH_SHARDS` (default auto ⇒ 16) shards
//!    (recorded, not gated);
//! 8. measures the **two-level walk** against the flat skyline walk at
//!    `SHARD_TREE_SHARDS` (default 1024, the auto cap — the walk shape a
//!    million-server federation pays) over the same farm (gate: ≥
//!    `SHARD_TREE_GATE`, default 1.3×, with both per-level skip counters
//!    required live);
//! 9. reruns the sharded campaign under a **fault schedule**
//!    (`SCALE_CHURN_MTBF`, default 400 s — far below the campaign length
//!    — and `SCALE_CHURN_MTTR`, default 60 s) and gates on accounting:
//!    every task must end terminal, completed or dropped with a reason
//!    code; nothing may be lost in flight;
//! 10. replays a **fitted trace** whose crest class outruns the bounded
//!     admission buffer on its own compiled farm, gating on an
//!     uncontended gate being bit-invisible, deterministic and
//!     shard-invariant replay, exact terminal accounting against the
//!     admission counters, and live backpressure counters — the JSON
//!     gains a `trace` section with per-user-class SLOs.
//!
//! Equivalences between optimised paths and their oracles (eager merge,
//! flat rankings, full drains) are proven in the crates' tests and by the
//! golden record digests, not replayed here.
//!
//! The whole run executes under the always-on phase profiler: the JSON
//! gains a `profile` section (per-phase totals, estimated span overhead
//! gated at ≤ `SCALE_PROFILE_OVERHEAD_GATE`, default 2 %, with every
//! phase required live) and a `peak_pending` section (event-kernel
//! high-water mark across the headline, sharded and churn campaigns,
//! gated at `SCALE_PEAK_PENDING_GATE`, by default
//! `cas_bench::pending_events_ceiling` — 9·servers + 1, which does not
//! grow with the task count).
//!
//! Everything lands in `BENCH_scale.json` (path overridable as `argv[1]`).
//! Exit is non-zero when the wall budget (`SCALE_SMOKE_BUDGET_SECS`,
//! default 600) is blown, tasks fail, or any pipeline gate regresses —
//! CI runs the 1k/10⁵ configuration as a blocking job, the 1k/10⁶
//! configuration (`SCALE_SMOKE_TASKS=1000000`) nightly, and the
//! 10k-server/10⁶-task sharded configuration nightly as well; the
//! 100k-server/10⁷-task hierarchical campaign has its own nightly
//! binary (`scale_100k`, writing `BENCH_scale_100k.json`).

use cas_core::heuristics::HeuristicKind;
use cas_core::{Htm, MemoStats, SelectorKind, SyncPolicy};
use cas_metrics::{prof, MetricSet};
use cas_middleware::shard::DecisionInputs;
use cas_middleware::{
    run_experiment, run_experiment_with_users, AgentRouter, ChurnStats, ExperimentConfig,
    GridWorld, Sharding, SkylineStats,
};
use cas_platform::{CostTable, LoadReport, ProblemId, ServerId, StaticIndex, TaskId, TaskInstance};
use cas_sim::{RngStream, SimTime, Simulation, StreamKind};
use cas_workload::synthetic::{BurstArrivals, SyntheticPlatform};
use cas_workload::trace::{AppProfile, FittedTraceSpec, TraceWorkload};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

fn env_or(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Everything one campaign run reports back.
struct CampaignRun {
    records: Vec<cas_metrics::TaskRecord>,
    metrics: MetricSet,
    wall: f64,
    events: u64,
    /// Kernel events spent on periodic load reports (O(n) per period in
    /// the default mode, O(S) with aggregated per-shard reports).
    report_events: u64,
    /// Kernel queue-pressure high-water mark.
    peak_pending: usize,
    /// Skyline visit/skip counters (zero off the lazy-merge path).
    skyline: SkylineStats,
    /// Farm-lifecycle counters (all zero on a frozen farm).
    churn: ChurnStats,
    /// Stage-2 drain-engine counters, merged across shards: drains run,
    /// memo hits, truncations, prefix-cursor reuses.
    stage2: MemoStats,
    /// What-if queries stopped at the backlog before their drain.
    pruned: u64,
}

fn run_campaign(
    cfg: ExperimentConfig,
    costs: CostTable,
    servers: Vec<cas_platform::ServerSpec>,
    tasks: Vec<TaskInstance>,
) -> CampaignRun {
    let world = GridWorld::new(cfg, costs, servers, tasks);
    let mut sim = Simulation::new(world);
    let start = Instant::now();
    let _ = sim.run_to_completion();
    let wall = start.elapsed().as_secs_f64();
    let events = sim.processed();
    let peak_pending = sim.peak_pending();
    let world = sim.into_world();
    let metrics = MetricSet::compute(world.records());
    let report_events = world.report_events();
    let skyline = world.agent().skyline_stats();
    let churn = world.churn_stats();
    let stage2 = world.agent().stage2_stats();
    let pruned = world.htm().pruned_queries();
    CampaignRun {
        metrics,
        report_events,
        skyline,
        churn,
        stage2,
        pruned,
        records: world.into_records(),
        wall,
        events,
        peak_pending,
    }
}

/// Decision-path microbenchmark at full platform width: µs per HMCT-style
/// decision (argmin of predicted completion over the candidate set, one
/// commit per round as in a live scheduler), exhaustive candidates versus
/// a `topk`-pruned shortlist fed from the incrementally maintained index.
fn decision_microbench(costs: &CostTable, k: usize, per_server: usize) -> (f64, f64) {
    let n_servers = costs.n_servers();
    let build = || {
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let mut index = StaticIndex::new(costs);
        let mut id = 10_000_000u64;
        for s in 0..n_servers as u32 {
            for t in 0..per_server {
                let task = TaskInstance::new(
                    TaskId(id),
                    ProblemId((t % costs.n_problems()) as u32),
                    SimTime::from_secs(t as f64 * 0.5),
                );
                let work = costs
                    .unloaded_duration(task.problem, ServerId(s))
                    .expect("synthetic tables are fully solvable");
                htm.commit(task.arrival, ServerId(s), &task);
                index.on_commit(ServerId(s), work);
                id += 1;
            }
        }
        (htm, index, id)
    };
    let all: Vec<ServerId> = (0..n_servers as u32).map(ServerId).collect();
    let decide = |htm: &mut Htm, probe: &TaskInstance, candidates: &[ServerId]| {
        candidates
            .iter()
            .filter_map(|&s| {
                htm.predict(probe.arrival, s, probe)
                    .map(|p| (s, p.completion.as_secs()))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite completion"))
            .map(|(s, _)| s)
            .expect("synthetic tables are fully solvable")
    };

    // Exhaustive side: every solver drained per round.
    let (mut htm, _, mut id) = build();
    let rounds_exh = 24;
    let mut now = per_server as f64;
    for warm in 0..2 {
        let probe = TaskInstance::new(TaskId(id + warm), ProblemId(0), SimTime::from_secs(now));
        decide(&mut htm, &probe, &all);
    }
    id += 2;
    let start = Instant::now();
    for round in 0..rounds_exh {
        now += 0.01;
        let probe = TaskInstance::new(
            TaskId(id),
            ProblemId((round % costs.n_problems()) as u32),
            SimTime::from_secs(now),
        );
        id += 1;
        let winner = decide(&mut htm, &probe, &all);
        htm.commit(probe.arrival, winner, &probe);
    }
    let exhaustive_us = start.elapsed().as_secs_f64() * 1e6 / rounds_exh as f64;

    // Pruned side: stage 1 from the index, stage 2 on the shortlist; the
    // index maintenance (one re-rank per commit) is timed too — it is
    // part of the decision path.
    let (mut htm, mut index, mut id) = build();
    let rounds_topk = 400;
    let mut now = per_server as f64;
    let mut scored = Vec::new();
    let mut shortlist = Vec::new();
    for warm in 0..2 {
        let probe = TaskInstance::new(TaskId(id + warm), ProblemId(0), SimTime::from_secs(now));
        index.k_best(probe.problem, k, &|_| true, &mut scored);
        shortlist.clear();
        shortlist.extend(scored.iter().map(|&(s, _)| s));
        shortlist.sort_unstable();
        decide(&mut htm, &probe, &shortlist);
    }
    id += 2;
    let start = Instant::now();
    for round in 0..rounds_topk {
        now += 0.01;
        let probe = TaskInstance::new(
            TaskId(id),
            ProblemId((round % costs.n_problems()) as u32),
            SimTime::from_secs(now),
        );
        id += 1;
        index.k_best(probe.problem, k, &|_| true, &mut scored);
        shortlist.clear();
        shortlist.extend(scored.iter().map(|&(s, _)| s));
        shortlist.sort_unstable();
        let winner = decide(&mut htm, &probe, &shortlist);
        let work = costs
            .unloaded_duration(probe.problem, winner)
            .expect("synthetic tables are fully solvable");
        htm.commit(probe.arrival, winner, &probe);
        index.on_commit(winner, work);
    }
    let topk_us = start.elapsed().as_secs_f64() * 1e6 / rounds_topk as f64;
    (exhaustive_us, topk_us)
}

/// Per-task decision-pipeline microbench through the **real router** at
/// farm width `n_servers`: every round runs one full two-stage decision
/// (adaptive selector, as the campaign uses), commits the winner and —
/// once the in-flight window fills — completes the oldest task, i.e. the
/// commit *and* complete hooks (model repair + index re-rank) are timed
/// as part of the pipeline, exactly as a live campaign pays them.
/// Returns µs/task for the unsharded single agent and the federation over
/// the same platform (plus the federation's skipped-shard rate): the
/// contrast is purely structural (per-engine state `O(n)` vs `O(n/S)`,
/// skyline-pruned shard walks), since worker fan-out cannot change
/// results.
fn sharding_microbench(
    costs: &CostTable,
    specs: &[cas_platform::ServerSpec],
    n_shards: usize,
    per_server: usize,
    width: usize,
    rounds: usize,
) -> (f64, f64, f64) {
    let n_servers = costs.n_servers();
    let reports: Vec<LoadReport> = (0..n_servers as u32)
        .map(|i| LoadReport::initial(ServerId(i)))
        .collect();
    let server_mem: Vec<f64> = specs.iter().map(|s| s.total_mem_mb()).collect();
    // Fixed width so both arms run identical stage-2 shortlists: the
    // contrast under measurement is the structural O(n) vs O(n/S) cost,
    // not selector-width dynamics. The default width is the adaptive
    // selector's calm floor (8) — its standing width in the campaign.
    let selector = SelectorKind::TopK { k: width };

    let run = |shards: Option<usize>| -> (f64, SkylineStats) {
        // ForceFinish so completions actually leave the traces — the
        // standing state of a live campaign — and so the complete hook
        // exercises the incremental repair the federation routes to one
        // shard.
        let mut router = AgentRouter::new(costs, shards, selector, SyncPolicy::ForceFinish);
        let mut heuristic = HeuristicKind::Hmct.build();
        let mut tie_rng = RngStream::derive(9, StreamKind::TieBreak);
        let mut id = 50_000_000u64;
        // Campaign-like standing load: `per_server` tasks on every
        // second server — the ~0.5 mean utilisation of the standing
        // campaign leaves roughly half the farm idle at any instant, and
        // stage-1 steers new work there.
        for s in (0..n_servers as u32).filter(|s| s % 2 == 1) {
            for t in 0..per_server {
                let task = TaskInstance::new(
                    TaskId(id),
                    ProblemId((t % costs.n_problems()) as u32),
                    SimTime::from_secs(t as f64 * 0.5),
                );
                let work = costs
                    .unloaded_duration(task.problem, ServerId(s))
                    .expect("synthetic tables are fully solvable");
                router.on_commit(task.arrival, ServerId(s), &task, work);
                id += 1;
            }
        }
        let mut now = per_server as f64;
        let mut inflight: VecDeque<(TaskId, ServerId, f64)> = VecDeque::new();
        let admit = |_: ServerId| true;
        let round_trip =
            |now: f64,
             id: u64,
             round: usize,
             router: &mut AgentRouter,
             heuristic: &mut dyn cas_core::Heuristic,
             tie_rng: &mut RngStream,
             inflight: &mut VecDeque<(TaskId, ServerId, f64)>| {
                let when = SimTime::from_secs(now);
                let task = TaskInstance::new(
                    TaskId(id),
                    ProblemId((round % costs.n_problems()) as u32),
                    when,
                );
                let pick = router
                    .decide(
                        DecisionInputs {
                            now: when,
                            task,
                            costs,
                            reports: &reports,
                            server_mem: &server_mem,
                            admit: &admit,
                        },
                        heuristic,
                        tie_rng,
                    )
                    .expect("synthetic tables are fully solvable");
                let work = costs
                    .unloaded_duration(task.problem, pick)
                    .expect("picked implies solvable");
                router.on_commit(when, pick, &task, work);
                inflight.push_back((task.id, pick, work));
                if inflight.len() > 64 {
                    let (done, server, w) = inflight.pop_front().expect("window is full");
                    router.on_complete(when, server, done, w, now, now * 0.95);
                }
            };
        for warm in 0..4 {
            now += 0.01;
            round_trip(
                now,
                id,
                warm,
                &mut router,
                heuristic.as_mut(),
                &mut tie_rng,
                &mut inflight,
            );
            id += 1;
        }
        let start = Instant::now();
        for round in 0..rounds {
            now += 0.01;
            round_trip(
                now,
                id,
                round,
                &mut router,
                heuristic.as_mut(),
                &mut tie_rng,
                &mut inflight,
            );
            id += 1;
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        (us, router.skyline_stats())
    };

    // Interleaved repetitions, median per arm: the arms' working sets
    // differ by orders of magnitude, so one-shot means are at the mercy
    // of host noise.
    let reps = 5;
    let (mut unsharded, mut sharded) = (Vec::new(), Vec::new());
    let mut skip_rate = 0.0;
    for _ in 0..reps {
        unsharded.push(run(None).0);
        let (us, stats) = run(Some(n_shards));
        sharded.push(us);
        // Deterministic: every rep sees the same decisions, so any rep's
        // skip counters are the run's skip counters.
        skip_rate = stats.skip_rate();
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    (median(&mut unsharded), median(&mut sharded), skip_rate)
}

/// Group-walk microbench at federation scale: µs per task through the
/// full decision pipeline (as [`sharding_microbench`]) with the skyline
/// federation's **flat** shard walk (one group spanning every shard)
/// versus the **two-level tree** walk over the same `n_shards` — the
/// contrast is purely the per-decision walk bookkeeping (flat: build +
/// sort an `O(S)` order vector and test every shard's skyline key; tree:
/// sort `O(S/G)` group keys and descend only into groups whose group
/// skyline survives), since both walks produce the identical merged cut
/// and so run identical stage-2 shortlists.
/// `n_shards` defaults to the auto-shard cap (1024): the walk shape a
/// million-server federation pays, hosted on the 10k bench farm.
/// Returns (flat µs/task, tree µs/task, tree-arm counters).
fn tree_walk_microbench(
    costs: &CostTable,
    specs: &[cas_platform::ServerSpec],
    n_shards: usize,
    group_size: usize,
    per_server: usize,
    width: usize,
    rounds: usize,
) -> (f64, f64, SkylineStats) {
    let n_servers = costs.n_servers();
    let reports: Vec<LoadReport> = (0..n_servers as u32)
        .map(|i| LoadReport::initial(ServerId(i)))
        .collect();
    let server_mem: Vec<f64> = specs.iter().map(|s| s.total_mem_mb()).collect();
    let selector = SelectorKind::TopK { k: width };

    let run = |grouped: bool| -> (f64, SkylineStats) {
        let mut router = AgentRouter::new(costs, Some(n_shards), selector, SyncPolicy::ForceFinish)
            .with_group_size(if grouped { group_size } else { usize::MAX });
        let mut heuristic = HeuristicKind::Hmct.build();
        let mut tie_rng = RngStream::derive(9, StreamKind::TieBreak);
        let mut id = 70_000_000u64;
        for s in (0..n_servers as u32).filter(|s| s % 2 == 1) {
            for t in 0..per_server {
                let task = TaskInstance::new(
                    TaskId(id),
                    ProblemId((t % costs.n_problems()) as u32),
                    SimTime::from_secs(t as f64 * 0.5),
                );
                let work = costs
                    .unloaded_duration(task.problem, ServerId(s))
                    .expect("synthetic tables are fully solvable");
                router.on_commit(task.arrival, ServerId(s), &task, work);
                id += 1;
            }
        }
        let mut now = per_server as f64;
        let mut inflight: VecDeque<(TaskId, ServerId, f64)> = VecDeque::new();
        let admit = |_: ServerId| true;
        let mut round_trip = |now: f64, id: u64, round: usize, router: &mut AgentRouter| {
            let when = SimTime::from_secs(now);
            let task = TaskInstance::new(
                TaskId(id),
                ProblemId((round % costs.n_problems()) as u32),
                when,
            );
            let pick = router
                .decide(
                    DecisionInputs {
                        now: when,
                        task,
                        costs,
                        reports: &reports,
                        server_mem: &server_mem,
                        admit: &admit,
                    },
                    heuristic.as_mut(),
                    &mut tie_rng,
                )
                .expect("synthetic tables are fully solvable");
            let work = costs
                .unloaded_duration(task.problem, pick)
                .expect("picked implies solvable");
            router.on_commit(when, pick, &task, work);
            inflight.push_back((task.id, pick, work));
            if inflight.len() > 64 {
                let (done, server, w) = inflight.pop_front().expect("window is full");
                router.on_complete(when, server, done, w, now, now * 0.95);
            }
        };
        for warm in 0..4 {
            now += 0.01;
            round_trip(now, id, warm, &mut router);
            id += 1;
        }
        let start = Instant::now();
        for round in 0..rounds {
            now += 0.01;
            round_trip(now, id, round, &mut router);
            id += 1;
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        (us, router.skyline_stats())
    };

    let reps = 5;
    let (mut flat, mut tree) = (Vec::new(), Vec::new());
    let mut tree_stats = SkylineStats::default();
    for _ in 0..reps {
        flat.push(run(false).0);
        let (us, stats) = run(true);
        tree.push(us);
        // Deterministic: every rep replays the same decisions.
        tree_stats = stats;
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    (median(&mut flat), median(&mut tree), tree_stats)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let n_servers = env_or("SCALE_SMOKE_SERVERS", 1000.0) as usize;
    let n_tasks = env_or("SCALE_SMOKE_TASKS", 100_000.0) as usize;
    let budget_secs = env_or("SCALE_SMOKE_BUDGET_SECS", 600.0);
    let compare_tasks = env_or("SCALE_SMOKE_COMPARE_TASKS", n_tasks.min(100_000) as f64) as usize;
    let decision_gate = env_or("SCALE_DECISION_GATE", 5.0);
    let delta_gate = env_or("SCALE_COMPLETION_DELTA_GATE", 0.01);
    let selector_spec =
        std::env::var("SCALE_SMOKE_SELECTOR").unwrap_or_else(|_| "adaptive:8:64".to_string());
    let selector = SelectorKind::parse(&selector_spec)
        .unwrap_or_else(|| panic!("bad SCALE_SMOKE_SELECTOR {selector_spec}"));
    let shards_spec = std::env::var("SCALE_SMOKE_SHARDS").unwrap_or_else(|_| "auto".to_string());
    let sharding = Sharding::parse(&shards_spec)
        .unwrap_or_else(|| panic!("bad SCALE_SMOKE_SHARDS {shards_spec} (N|auto)"));
    let shard_bench_servers = env_or("SHARD_BENCH_SERVERS", 10_000.0) as usize;
    let shard_bench_shards = match env_or("SHARD_BENCH_SHARDS", 0.0) as usize {
        0 => cas_platform::ShardMap::auto_shards(shard_bench_servers),
        s => s,
    };
    // Standing load at the campaign's 0.5 mean utilisation is ~0.5
    // tasks in flight per server; 1 is the conservative round-up.
    let shard_bench_per_server = env_or("SHARD_BENCH_PER_SERVER", 1.0) as usize;
    let shard_bench_width = env_or("SHARD_BENCH_WIDTH", 8.0) as usize;
    let shard_bench_rounds = env_or("SHARD_BENCH_ROUNDS", 400.0) as usize;
    // The group-walk microbench runs at the auto-shard cap by default:
    // the flat-vs-tree contrast is the per-decision walk bookkeeping,
    // and 1024 shards is the walk shape the auto policy hands a
    // million-server federation (hosted here on the 10k bench farm).
    let tree_shards = env_or("SHARD_TREE_SHARDS", 1024.0) as usize;
    let tree_group = env_or(
        "SHARD_TREE_GROUP",
        cas_platform::ShardTree::DEFAULT_GROUP_SHARDS as f64,
    ) as usize;
    let tree_gate = env_or("SHARD_TREE_GATE", 1.3);
    let profile_overhead_gate = env_or("SCALE_PROFILE_OVERHEAD_GATE", 0.02);
    // Queue-pressure ceiling over the headline, sharded and churn arms,
    // none of which grows with the task count (see
    // `pending_events_ceiling`): the headline's per-server reports are
    // the most report chains, and the churn arm adds a fault event per
    // server.
    let peak_pending_gate = env_or(
        "SCALE_PEAK_PENDING_GATE",
        cas_bench::pending_events_ceiling(n_servers, n_servers, true) as f64,
    ) as usize;

    // The always-on profiler covers the whole binary: every campaign and
    // microbench below accumulates into the same thread-local phase
    // counters, so the churn arm keeps the `churn` phase live and the
    // overhead estimate is measured against total wall time.
    prof::reset();
    let prof_start = Instant::now();

    let platform = SyntheticPlatform {
        n_servers,
        heterogeneity: 4.0,
        n_problems: 3,
        base_cost: 15.0,
        cost_spread: 3.0,
        comm_fraction: 0.02,
        mem_fraction: 0.0,
    };
    let seed = 0x5CA1E;
    let servers = platform.servers(seed);
    let costs = platform.cost_table(seed);

    // Aggregate service rate: one task at a time per server at its mean
    // unloaded duration. The burst process runs at 50 % of it on average
    // and ~80 % at crests, so the system is loaded but stable.
    let total_rate: f64 = (0..n_servers)
        .map(|s| {
            let mean_cost: f64 = (0..platform.n_problems)
                .map(|p| {
                    costs
                        .costs(ProblemId(p as u32), ServerId(s as u32))
                        .expect("synthetic tables are fully solvable")
                        .total()
                })
                .sum::<f64>()
                / platform.n_problems as f64;
            1.0 / mean_cost
        })
        .sum();
    let mean_rate = 0.5 * total_rate;
    let burstiness = 4.0; // peak/trough ratio
    let base_rate = 2.0 * mean_rate / (1.0 + burstiness);
    let arrivals = BurstArrivals {
        n_tasks,
        base_rate,
        peak_rate: burstiness * base_rate,
        period: 1800.0,
        n_problems: platform.n_problems,
    };

    let build_start = Instant::now();
    let tasks = arrivals.generate(seed);
    let horizon = tasks.last().expect("non-empty campaign").arrival.as_secs();
    let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, seed);
    cfg.load_report_period = 30.0;
    cfg.selector = selector;
    let build_secs = build_start.elapsed().as_secs_f64();

    // 1. Headline campaign, pruned decision path.
    let headline = run_campaign(cfg, costs.clone(), servers.clone(), tasks.clone());
    let metrics = headline.metrics;
    let (run_secs, events) = (headline.wall, headline.events);
    let completed = metrics.completed;
    eprintln!(
        "{n_servers} servers, {n_tasks} tasks over {horizon:.0} sim-seconds \
         (selector {selector_spec}): {completed} completed"
    );
    eprintln!(
        "build {build_secs:.2} s, run {run_secs:.2} s \
         ({:.0} events/s, {:.0} tasks/s)",
        events as f64 / run_secs,
        n_tasks as f64 / run_secs
    );

    // 2. Decision-path microbench at full width.
    let (exhaustive_us, topk_us) = decision_microbench(&costs, 16, 48);
    let decision_speedup = exhaustive_us / topk_us;
    eprintln!(
        "decision path at {n_servers} servers x 48 tasks: exhaustive {exhaustive_us:.1} \
         µs/decision, topk:16 {topk_us:.1} µs/decision, speedup {decision_speedup:.1}x \
         (gate >= {decision_gate}x)"
    );

    // 3. Pruning-quality comparison on the burst campaign.
    let compare_arrivals = BurstArrivals {
        n_tasks: compare_tasks,
        ..arrivals
    };
    let compare_workload = compare_arrivals.generate(seed);
    let (pruned_m, pruned_secs) = if compare_tasks == n_tasks {
        (metrics, run_secs)
    } else {
        let run = run_campaign(
            cfg,
            costs.clone(),
            servers.clone(),
            compare_workload.clone(),
        );
        (run.metrics, run.wall)
    };
    let exh = run_campaign(
        cfg.with_selector(SelectorKind::Exhaustive),
        costs.clone(),
        servers.clone(),
        compare_workload.clone(),
    );
    let (exh_m, exh_secs) = (exh.metrics, exh.wall);
    let pruned_rate = pruned_m.completed as f64 / compare_tasks as f64;
    let exh_rate = exh_m.completed as f64 / compare_tasks as f64;
    let completion_delta = (pruned_rate - exh_rate).abs();
    eprintln!(
        "pruning quality over {compare_tasks} tasks: completion {pruned_rate:.4} \
         (pruned, {pruned_secs:.1} s wall) vs {exh_rate:.4} (exhaustive, {exh_secs:.1} s wall), \
         delta {completion_delta:.4} (gate <= {delta_gate}); mean stretch {:.3} vs {:.3}",
        pruned_m.meanstretch, exh_m.meanstretch
    );

    // 3b. Stage-2 drain engine: the comparison arrivals squeezed to 0.9
    // mean utilisation (the headline sits at 0.5). At half load most
    // candidate servers are idle at decision time and a what-if is O(1);
    // near saturation the bursty crests run past capacity, queues
    // deepen, and drains truncate and resume the shared prefix. The gate
    // is liveness: drains, truncations and prefix reuses must all be
    // non-zero, or the engine has silently fallen back to full drains.
    let stage2_load = 0.9;
    let squeeze = stage2_load / 0.5;
    let stage2_arrivals = BurstArrivals {
        n_tasks: compare_tasks,
        base_rate: arrivals.base_rate * squeeze,
        peak_rate: arrivals.peak_rate * squeeze,
        ..arrivals
    };
    let stage2_workload = stage2_arrivals.generate(seed);
    let prof_fast0 = prof::snapshot();
    let stage2_run = run_campaign(cfg, costs.clone(), servers.clone(), stage2_workload);
    let stage2_ns = prof::snapshot()
        .since(&prof_fast0)
        .nanos_of(prof::Phase::Stage2Predict);
    let s2 = stage2_run.stage2;
    let ok_stage2_counters = s2.drains > 0 && s2.truncated > 0 && s2.prefix_hits > 0;
    eprintln!(
        "stage-2 drain engine over {compare_tasks} tasks at {stage2_load:.2} mean load: \
         stage2_predict {:.2} s; {} drains ({} truncated, {:.1}%), {} memo hits \
         ({:.1}% hit rate), {} prefix-cursor reuses ({:.1}% of drains), {} queries pruned \
         at the backlog",
        stage2_ns as f64 / 1e9,
        s2.drains,
        s2.truncated,
        100.0 * s2.truncation_rate(),
        s2.hits,
        100.0 * s2.hit_rate(),
        s2.prefix_hits,
        100.0 * s2.prefix_reuse_rate(),
        stage2_run.pruned,
    );

    // 4. The sharded campaign: same workload through the shard
    // federation in its production configuration — skyline merge on,
    // load reports aggregated per shard; pruning decisions, hooks and
    // model repair all stay O(shard), report kernel events O(S) per
    // period. Gate: the federation may move the completion rate by at
    // most the same delta the pruning gate allows.
    let n_shards = sharding.resolve(n_servers).unwrap_or(1);
    let cfg_sharded = cfg.with_shards(sharding).with_aggregated_reports(true);
    let sharded = run_campaign(cfg_sharded, costs.clone(), servers.clone(), tasks.clone());
    let (sharded_m, sharded_secs) = (sharded.metrics, sharded.wall);
    let sharded_rate = sharded_m.completed as f64 / n_tasks as f64;
    let headline_rate = completed as f64 / n_tasks as f64;
    let shard_delta = (sharded_rate - headline_rate).abs();
    let campaign_skip_rate = sharded.skyline.skip_rate();
    eprintln!(
        "sharded campaign ({n_shards} shards): {} / {n_tasks} completed in {sharded_secs:.1} s \
         wall (unsharded {run_secs:.1} s), completion delta {shard_delta:.4} \
         (gate <= {delta_gate}), mean stretch {:.3} vs {:.3}",
        sharded_m.completed, sharded_m.meanstretch, metrics.meanstretch
    );
    eprintln!(
        "  skyline: skipped {:.1}% of shard walks ({} skips / {} decisions); \
         report kernel events {} (aggregated per shard) vs {} (per server, unsharded arm); \
         peak pending events {} vs {}",
        100.0 * campaign_skip_rate,
        sharded.skyline.shard_skips,
        sharded.skyline.decisions,
        sharded.report_events,
        headline.report_events,
        sharded.peak_pending,
        headline.peak_pending,
    );

    // 4b. Group-walk whole-run equality: the two-level tree rerun of the
    // comparison campaign (`auto:1` — every shard its own group, so the
    // group walk drives every decision) must be record-identical to the
    // flat lazy walk at the same shard count. Exact gate: the tree may
    // only prune walks, never decisions.
    let flat_ref = run_campaign(
        cfg.with_shards(Sharding::AUTO)
            .with_aggregated_reports(true),
        costs.clone(),
        servers.clone(),
        compare_workload.clone(),
    );
    let grouped = run_campaign(
        cfg.with_shards(Sharding::Auto {
            group_size: Some(1),
        })
        .with_aggregated_reports(true),
        costs.clone(),
        servers.clone(),
        compare_workload,
    );
    let auto_shards_n = Sharding::AUTO.resolve(n_servers).unwrap_or(1);
    let tree_equal = grouped.records == flat_ref.records;
    let tree_active = auto_shards_n > 1;
    let ok_tree_equal = tree_equal && (!tree_active || grouped.skyline.group_visits > 0);
    eprintln!(
        "group-walk equivalence over {compare_tasks} tasks (auto:1 => {auto_shards_n} singleton \
         groups): records equal: {tree_equal}, {:.1} s wall grouped vs {:.1} s flat; \
         group walks skipped {:.1}% ({} skips / {} visits), \
         shard walks inside visited groups skipped {:.1}%",
        grouped.wall,
        flat_ref.wall,
        100.0 * grouped.skyline.group_skip_rate(),
        grouped.skyline.group_skips,
        grouped.skyline.group_visits,
        100.0 * grouped.skyline.skip_rate(),
    );

    // 5. Decision-pipeline microbench at production width: the full
    // two-stage decision + commit + complete hooks through the real
    // router, unsharded vs federated, at `SHARD_BENCH_SERVERS` servers.
    let shard_platform = SyntheticPlatform {
        n_servers: shard_bench_servers,
        ..platform
    };
    let shard_costs = shard_platform.cost_table(seed);
    let shard_specs = shard_platform.servers(seed);
    let (unsharded_us, sharded_us, bench_skip_rate) = sharding_microbench(
        &shard_costs,
        &shard_specs,
        shard_bench_shards,
        shard_bench_per_server,
        shard_bench_width,
        shard_bench_rounds,
    );
    let shard_speedup = unsharded_us / sharded_us;
    eprintln!(
        "decision pipeline at {shard_bench_servers} servers x {shard_bench_per_server} tasks, \
         width {shard_bench_width}: unsharded {unsharded_us:.1} µs/task, \
         {shard_bench_shards} shards {sharded_us:.1} µs/task, speedup {shard_speedup:.2}x \
         (skipped-shard-rate {bench_skip_rate:.3})"
    );

    // 5b. Group-walk microbench: flat versus two-level skyline walk at
    // `SHARD_TREE_SHARDS` shards (default: the 1024 auto cap) over the
    // same bench farm. Both arms visit the identical shard set and run
    // identical stage-2 shortlists — the contrast is the walk bookkeeping
    // the tree exists to collapse.
    let tree_groups = tree_shards.div_ceil(tree_group);
    let (flat_walk_us, tree_walk_us, tree_stats) = tree_walk_microbench(
        &shard_costs,
        &shard_specs,
        tree_shards,
        tree_group,
        shard_bench_per_server,
        shard_bench_width,
        shard_bench_rounds,
    );
    let tree_speedup = flat_walk_us / tree_walk_us;
    let ok_tree_decision =
        tree_speedup >= tree_gate && tree_stats.group_skips > 0 && tree_stats.shard_skips > 0;
    eprintln!(
        "group walk at {shard_bench_servers} servers, {tree_shards} shards in {tree_groups} \
         groups of {tree_group}: flat walk {flat_walk_us:.1} µs/task, tree walk \
         {tree_walk_us:.1} µs/task, speedup {tree_speedup:.2}x (gate >= {tree_gate}x); \
         groups skipped {:.1}% ({} / {} considered), member shards skipped {:.1}%",
        100.0 * tree_stats.group_skip_rate(),
        tree_stats.group_skips,
        tree_stats.group_visits + tree_stats.group_skips,
        100.0 * tree_stats.skip_rate(),
    );

    // 6. The living-farm gate: the sharded campaign rerun under a fault
    // schedule whose MTBF is far below the campaign length, so every
    // server crashes several times. The gate is **accounting**, not
    // completion: every task must end terminal — completed, or dropped
    // with a reason code once its re-dispatch budget (or last live
    // solver) is gone. Nothing may be lost in flight.
    let churn_mtbf = env_or("SCALE_CHURN_MTBF", 400.0);
    let churn_mttr = env_or("SCALE_CHURN_MTTR", 60.0);
    let churn_seed = env_or("SCALE_CHURN_SEED", 7.0) as u64;
    let cfg_churn = cfg_sharded
        .with_churn(churn_mtbf, churn_mttr)
        .with_churn_seed(churn_seed);
    let churned = run_campaign(cfg_churn, costs.clone(), servers.clone(), tasks.clone());
    let churn_stats = churned.churn;
    let (mut churn_completed, mut churn_budget_drops, mut churn_solver_drops, mut churn_other) =
        (0u64, 0u64, 0u64, 0u64);
    for r in &churned.records {
        match r.outcome {
            cas_metrics::TaskOutcome::Completed { .. } => churn_completed += 1,
            cas_metrics::TaskOutcome::Dropped { reason } => match reason.code() {
                "redispatch_budget" => churn_budget_drops += 1,
                "no_live_solver" => churn_solver_drops += 1,
                _ => churn_other += 1,
            },
            _ => churn_other += 1,
        }
    }
    let churn_rate = churn_completed as f64 / n_tasks as f64;
    let mut churn_stretches: Vec<f64> =
        churned.records.iter().filter_map(|r| r.stretch()).collect();
    churn_stretches.sort_unstable_by(|a, b| a.partial_cmp(b).expect("stretches are finite"));
    let churn_p99 = churn_stretches
        .get(((churn_stretches.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(f64::NAN);
    let ok_churn = churn_other == 0
        && churn_completed + churn_budget_drops + churn_solver_drops == n_tasks as u64
        && churn_stats.crashes > 0
        && churned.wall <= budget_secs;
    eprintln!(
        "churn campaign (mtbf {churn_mtbf:.0} s, mttr {churn_mttr:.0} s, seed {churn_seed}): \
         {churn_completed} completed + {churn_budget_drops} dropped (budget) + \
         {churn_solver_drops} dropped (no live solver) of {n_tasks} in {:.1} s wall; \
         {} crashes, {} retractions, {} re-dispatches, {} rebalances (pass: {ok_churn})",
        churned.wall,
        churn_stats.crashes,
        churn_stats.retractions,
        churn_stats.redispatches,
        churn_stats.rebalances,
    );

    // 7. The trace gate: a fitted three-app trace — steady background,
    // a crest class submitting faster than the admission gate drains,
    // and a sparse long-job class — replayed on its own compiled farm
    // (a trace binds its farm; the campaign platform stays untouched).
    // Four gates: the *uncontended* gate must be bit-invisible, the
    // contended replay must be deterministic and shard-invariant, every
    // task must end terminal with the admission counters balancing the
    // record-level sheds exactly, and the backpressure counters must be
    // live (something buffered, something shed) under the crest.
    let trace_seed = env_or("SCALE_TRACE_SEED", 24301.0) as u64;
    let trace_spec = FittedTraceSpec {
        apps: vec![
            AppProfile {
                user: 0,
                n_tasks: 300,
                mean_gap_s: 8.0,
                mean_duration_s: 10.0,
            },
            AppProfile {
                user: 1,
                n_tasks: 600,
                mean_gap_s: 0.8,
                mean_duration_s: 10.0,
            },
            AppProfile {
                user: 2,
                n_tasks: 50,
                mean_gap_s: 50.0,
                mean_duration_s: 30.0,
            },
        ],
    };
    let mut trace_src = trace_spec.generate(trace_seed);
    let tc = TraceWorkload {
        n_servers: 8,
        ..TraceWorkload::default()
    }
    .compile(&mut trace_src, trace_seed)
    .expect("fitted trace is non-empty");
    let trace_n = tc.tasks.len();
    let trace_cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, trace_seed);
    let trace_run = |cfg: ExperimentConfig| {
        run_experiment_with_users(
            cfg,
            tc.costs.clone(),
            tc.servers.clone(),
            tc.tasks.clone(),
            tc.users.clone(),
        )
    };
    let trace_plain = run_experiment(
        trace_cfg,
        tc.costs.clone(),
        tc.servers.clone(),
        tc.tasks.clone(),
    );
    let (trace_unc, trace_unc_stats, _) = trace_run(trace_cfg.with_admission(trace_n + 1, 1, 1.0));
    let trace_invisible = trace_plain == trace_unc && trace_unc_stats.buffered == 0;
    // 6 concurrent admissions at ~10 s mean demand drain ~0.6 tasks/s
    // against a crest of ~1.25/s: the gate must buffer and shed.
    let trace_adm = trace_cfg.with_admission(6, 24, 45.0);
    let trace_start = Instant::now();
    let (trace_recs, trace_stats, trace_waits) = trace_run(trace_adm);
    let trace_wall = trace_start.elapsed().as_secs_f64();
    let trace_rerun = trace_run(trace_adm);
    let trace_deterministic =
        trace_recs == trace_rerun.0 && trace_stats == trace_rerun.1 && trace_waits == trace_rerun.2;
    let trace_sharded_run = trace_run(trace_adm.with_shards(Sharding::Federated { shards: 4 }));
    let trace_shard_equal = trace_recs == trace_sharded_run.0 && trace_stats == trace_sharded_run.1;
    let (mut trace_completed, mut trace_adm_sheds, mut trace_other_drops, mut trace_nonterminal) =
        (0u64, 0u64, 0u64, 0u64);
    for r in &trace_recs {
        match r.outcome {
            cas_metrics::TaskOutcome::Completed { .. } => trace_completed += 1,
            cas_metrics::TaskOutcome::Failed => trace_other_drops += 1,
            cas_metrics::TaskOutcome::Dropped { reason } => {
                if reason.code() == "admission_deadline" {
                    trace_adm_sheds += 1;
                } else {
                    trace_other_drops += 1;
                }
            }
            cas_metrics::TaskOutcome::InFlight => trace_nonterminal += 1,
        }
    }
    let trace_terminal = trace_nonterminal == 0
        && trace_completed + trace_adm_sheds + trace_other_drops == trace_n as u64;
    let trace_counters_live = trace_stats.peak_buffered > 0
        && trace_stats.shed_deadline + trace_stats.shed_overflow > 0
        && trace_stats.buffered == trace_stats.dequeued + trace_stats.shed_deadline
        && trace_adm_sheds == trace_stats.shed_deadline + trace_stats.shed_overflow;
    let ok_trace = trace_invisible
        && trace_deterministic
        && trace_shard_equal
        && trace_terminal
        && trace_counters_live;
    let trace_slo = cas_metrics::per_class_slo(&trace_recs, &tc.users, &trace_waits);
    eprintln!(
        "trace campaign ({trace_n} tasks, 3 classes, admission 6:24:45, seed {trace_seed}): \
         {trace_completed} completed + {trace_adm_sheds} shed (admission) + {trace_other_drops} \
         other drops in {trace_wall:.2} s wall; peak admitted {} / buffered {}; invisible \
         uncontended: {trace_invisible}, deterministic: {trace_deterministic}, sharded == \
         single: {trace_shard_equal} (pass: {ok_trace})",
        trace_stats.peak_admitted, trace_stats.peak_buffered,
    );
    for c in &trace_slo {
        eprintln!(
            "  user {}: {} tasks, {} completed, drop {:.1} %, p50 stretch {:.2}, p99 stretch \
             {:.2}, mean buffered {:.2} s",
            c.user,
            c.tasks,
            c.completed,
            c.drop_rate_pct,
            c.p50_stretch.unwrap_or(f64::NAN),
            c.p99_stretch.unwrap_or(f64::NAN),
            c.mean_buffered_s,
        );
    }

    // The profile snapshot closes over every arm above; the overhead
    // estimate (calibrated span cost × spans closed) must stay within
    // `profile_overhead_gate` of total wall, and every phase must have
    // closed at least one span — a dead phase means an instrumentation
    // hole.
    let prof_wall = prof_start.elapsed().as_secs_f64();
    let prof_totals = prof::snapshot();
    let (profile_json, ok_profile) =
        prof::render_profile_json(&prof_totals, prof_wall, profile_overhead_gate);
    eprint!(
        "phase profile over {prof_wall:.1} s wall (pass: {ok_profile}):\n{}",
        prof::render_profile_table(&prof_totals, prof_wall)
    );

    let peak_pending_max = headline
        .peak_pending
        .max(sharded.peak_pending)
        .max(churned.peak_pending);
    let ok_peak_pending = peak_pending_max <= peak_pending_gate;
    eprintln!(
        "peak pending kernel events: headline {}, sharded {}, churn {} (gate <= \
         {peak_pending_gate}, pass: {ok_peak_pending})",
        headline.peak_pending, sharded.peak_pending, churned.peak_pending
    );

    let ok_campaign = run_secs <= budget_secs && completed == n_tasks;
    let ok_decision = decision_speedup >= decision_gate;
    let ok_delta = completion_delta <= delta_gate;
    let ok_shard_delta = shard_delta <= delta_gate && sharded_m.completed == n_tasks;
    let ok = ok_campaign
        && ok_decision
        && ok_delta
        && ok_shard_delta
        && ok_tree_equal
        && ok_tree_decision
        && ok_churn
        && ok_trace
        && ok_stage2_counters
        && ok_profile
        && ok_peak_pending;

    let manifest = cas_bench::manifest_json();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"scale_smoke\",\n  \"manifest\": {manifest},\n  \
         \"scenario\": \"{n_servers}-server burst campaign \
         (IPPP thinning arrivals, HMCT, incremental HTM repair, \
         two-stage candidate pipeline)\",\n\
  \"n_servers\": {n_servers},\n  \"n_tasks\": {n_tasks},\n  \"selector\": \"{selector_spec}\",\n\
  \"arrivals\": {{\"base_rate_per_s\": {base_rate:.4}, \"peak_rate_per_s\": {:.4}, \
         \"period_s\": 1800.0, \"mean_utilisation\": 0.5}},\n\
  \"sim_horizon_s\": {horizon:.1},\n  \"events_processed\": {events},\n\
  \"wall_build_s\": {build_secs:.3},\n  \"wall_run_s\": {run_secs:.3},\n\
  \"events_per_wall_s\": {:.0},\n  \"tasks_per_wall_s\": {:.0},\n\
  \"completed\": {completed},\n  \"mean_stretch\": {:.3},\n",
        burstiness * base_rate,
        events as f64 / run_secs,
        n_tasks as f64 / run_secs,
        metrics.meanstretch,
    );
    let _ = write!(
        json,
        "  \"decision_cost\": {{\n    \"unit\": \"microseconds per scheduling decision (HMCT \
         argmin, one commit per round)\",\n    \"servers\": {n_servers},\n    \
         \"per_server_tasks\": 48,\n    \"exhaustive_us_per_decision\": {exhaustive_us:.2},\n    \
         \"topk16_us_per_decision\": {topk_us:.2},\n    \"speedup\": {decision_speedup:.2},\n    \
         \"acceptance\": {{\"required_min_speedup\": {decision_gate}, \"pass\": {ok_decision}}}\n  }},\n"
    );
    let _ = write!(
        json,
        "  \"pruning_quality\": {{\n    \"compare_tasks\": {compare_tasks},\n    \
         \"pruned_completion_rate\": {pruned_rate:.6},\n    \
         \"exhaustive_completion_rate\": {exh_rate:.6},\n    \
         \"completion_delta\": {completion_delta:.6},\n    \
         \"pruned_mean_stretch\": {:.4},\n    \"exhaustive_mean_stretch\": {:.4},\n    \
         \"pruned_wall_s\": {pruned_secs:.3},\n    \"exhaustive_wall_s\": {exh_secs:.3},\n    \
         \"acceptance\": {{\"max_completion_delta\": {delta_gate}, \"pass\": {ok_delta}}}\n  }},\n",
        pruned_m.meanstretch, exh_m.meanstretch
    );
    let _ = write!(
        json,
        "  \"sharding\": {{\n    \"campaign\": {{\n      \"shards\": {n_shards},\n      \
         \"completed\": {},\n      \"wall_run_s\": {sharded_secs:.3},\n      \
         \"unsharded_wall_run_s\": {run_secs:.3},\n      \"mean_stretch\": {:.4},\n      \
         \"completion_delta_vs_unsharded\": {shard_delta:.6},\n      \
         \"skipped_shard_rate\": {campaign_skip_rate:.4},\n      \
         \"group_visits\": {},\n      \"group_skips\": {},\n      \
         \"group_skip_rate\": {:.4},\n      \
         \"acceptance\": {{\"max_completion_delta\": {delta_gate}, \"pass\": {ok_shard_delta}}}\n    }},\n    \
         \"reports\": {{\n      \"aggregated_per_shard\": true,\n      \
         \"report_kernel_events_sharded\": {},\n      \
         \"report_kernel_events_unsharded_per_server\": {},\n      \
         \"peak_pending_events_sharded\": {},\n      \
         \"peak_pending_events_unsharded\": {},\n      \
         \"note\": \"aggregated mode fires one kernel event per shard per period (O(S)) instead \
         of one per server (O(n)); the unsharded headline arm keeps the per-server schedule\"\n    }},\n    \
         \"decision_path\": {{\n      \"unit\": \"microseconds per task through the full decision \
         pipeline (two-stage decision, commit hook, complete hook; HMCT, TopK width \
         {shard_bench_width})\",\n      \
         \"servers\": {shard_bench_servers},\n      \"shards\": {shard_bench_shards},\n      \
         \"per_server_tasks\": {shard_bench_per_server},\n      \
         \"unsharded_us_per_task\": {unsharded_us:.2},\n      \
         \"sharded_us_per_task\": {sharded_us:.2},\n      \
         \"speedup_vs_unsharded\": {shard_speedup:.2},\n      \
         \"skipped_shard_rate\": {bench_skip_rate:.4},\n      \
         \"note\": \"recorded, not gated: the federation's per-task cost against the single \
         agent on the same farm\"\n    }},\n",
        sharded_m.completed,
        sharded_m.meanstretch,
        sharded.skyline.group_visits,
        sharded.skyline.group_skips,
        sharded.skyline.group_skip_rate(),
        sharded.report_events,
        headline.report_events,
        sharded.peak_pending,
        headline.peak_pending,
    );
    let _ = write!(
        json,
        "    \"tree\": {{\n      \"equivalence\": {{\n        \"tasks\": {compare_tasks},\n        \
         \"auto_shards\": {auto_shards_n},\n        \"group_size\": 1,\n        \
         \"records_equal\": {tree_equal},\n        \
         \"wall_grouped_s\": {:.3},\n        \"wall_flat_s\": {:.3},\n        \
         \"group_visits\": {},\n        \"group_skips\": {},\n        \
         \"group_skip_rate\": {:.4},\n        \"member_shard_skip_rate\": {:.4},\n        \
         \"acceptance\": {{\"required\": \"records bit-identical to the flat walk; group walk \
         live when auto resolves > 1 shard\", \"pass\": {ok_tree_equal}}}\n      }},\n      \
         \"decision_path\": {{\n        \"unit\": \"microseconds per task through the full \
         decision pipeline (two-stage decision, commit hook, complete hook; HMCT, TopK width \
         {shard_bench_width})\",\n        \
         \"servers\": {shard_bench_servers},\n        \"shards\": {tree_shards},\n        \
         \"groups\": {tree_groups},\n        \"group_fanout\": {tree_group},\n        \
         \"flat_walk_us_per_task\": {flat_walk_us:.2},\n        \
         \"tree_walk_us_per_task\": {tree_walk_us:.2},\n        \
         \"speedup_vs_flat\": {tree_speedup:.2},\n        \
         \"group_visits\": {},\n        \"group_skips\": {},\n        \
         \"group_skip_rate\": {:.4},\n        \"member_shard_skip_rate\": {:.4},\n        \
         \"note\": \"SHARD_TREE_SHARDS defaults to the auto-shard cap: the walk shape a \
         million-server federation pays, hosted on the bench farm; both arms visit the same \
         shard set, so the contrast is walk bookkeeping alone\",\n        \
         \"acceptance\": {{\"required_min_speedup\": {tree_gate}, \
         \"required_counters\": \"group and member-shard skips > 0\", \
         \"pass\": {ok_tree_decision}}}\n      }}\n    }}\n  }},\n",
        grouped.wall,
        flat_ref.wall,
        grouped.skyline.group_visits,
        grouped.skyline.group_skips,
        grouped.skyline.group_skip_rate(),
        grouped.skyline.skip_rate(),
        tree_stats.group_visits,
        tree_stats.group_skips,
        tree_stats.group_skip_rate(),
        tree_stats.skip_rate(),
    );
    let _ = write!(
        json,
        "  \"churn\": {{\n    \"scenario\": \"the sharded campaign under a fault schedule: \
         exponential per-server uptime (MTBF far below the campaign length) and repair time; \
         crashed placements are retracted through the HTM/index and re-dispatched with backoff \
         until the budget is spent\",\n    \
         \"mtbf_s\": {churn_mtbf},\n    \"mttr_s\": {churn_mttr},\n    \
         \"churn_seed\": {churn_seed},\n    \"wall_run_s\": {:.3},\n    \
         \"crashes\": {},\n    \"joins\": {},\n    \"leaves\": {},\n    \
         \"retractions\": {},\n    \"redispatches\": {},\n    \"drops\": {},\n    \
         \"rebalances\": {},\n    \"completed\": {churn_completed},\n    \
         \"dropped_redispatch_budget\": {churn_budget_drops},\n    \
         \"dropped_no_live_solver\": {churn_solver_drops},\n    \
         \"completion_rate\": {churn_rate:.6},\n    \"p99_stretch\": {churn_p99:.4},\n    \
         \"acceptance\": {{\"required\": \"every task terminal: completed + dropped (with reason \
         code) == n_tasks, crashes > 0, wall within budget\", \"pass\": {ok_churn}}}\n  }},\n",
        churned.wall,
        churn_stats.crashes,
        churn_stats.joins,
        churn_stats.leaves,
        churn_stats.retractions,
        churn_stats.redispatches,
        churn_stats.drops,
        churn_stats.rebalances,
    );
    let mut trace_slo_json = String::new();
    for (i, c) in trace_slo.iter().enumerate() {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
        let _ = write!(
            trace_slo_json,
            "{}{{\"user\": {}, \"tasks\": {}, \"completed\": {}, \"dropped\": {}, \
             \"drop_rate_pct\": {:.2}, \"p50_stretch\": {}, \"p99_stretch\": {}, \
             \"mean_buffered_s\": {:.3}}}",
            if i == 0 { "" } else { ", " },
            c.user,
            c.tasks,
            c.completed,
            c.dropped,
            c.drop_rate_pct,
            opt(c.p50_stretch),
            opt(c.p99_stretch),
            c.mean_buffered_s,
        );
    }
    let _ = write!(
        json,
        "  \"trace\": {{\n    \"scenario\": \"fitted three-app trace (steady background, an \
         over-capacity crest class, a sparse long-job class) compiled to its own farm and \
         replayed through the bounded admission buffer with per-user fair dequeue and \
         admission deadlines\",\n    \
         \"n_tasks\": {trace_n},\n    \"n_servers\": 8,\n    \"trace_seed\": {trace_seed},\n    \
         \"admission\": {{\"capacity\": 6, \"buffer\": 24, \"deadline_s\": 45.0}},\n    \
         \"wall_run_s\": {trace_wall:.3},\n    \
         \"completed\": {trace_completed},\n    \
         \"shed_admission_deadline\": {trace_adm_sheds},\n    \
         \"dropped_other\": {trace_other_drops},\n    \
         \"buffered\": {},\n    \"dequeued\": {},\n    \"shed_deadline\": {},\n    \
         \"shed_overflow\": {},\n    \"reentries\": {},\n    \
         \"peak_admitted\": {},\n    \"peak_buffered\": {},\n    \
         \"per_class_slo\": [{trace_slo_json}],\n    \
         \"uncontended_bit_invisible\": {trace_invisible},\n    \
         \"deterministic_replay\": {trace_deterministic},\n    \
         \"sharded_equals_single\": {trace_shard_equal},\n    \
         \"acceptance\": {{\"required\": \"uncontended gate bit-invisible, replay deterministic \
         and shard-invariant, every task terminal (completed + sheds + drops == n_tasks), \
         buffer and shed counters live and balancing the records exactly\", \
         \"pass\": {ok_trace}}}\n  }},\n",
        trace_stats.buffered,
        trace_stats.dequeued,
        trace_stats.shed_deadline,
        trace_stats.shed_overflow,
        trace_stats.reentries,
        trace_stats.peak_admitted,
        trace_stats.peak_buffered,
    );
    let _ = write!(
        json,
        "  \"stage2\": {{\n    \"mean_load\": {stage2_load:.2},\n    \
         \"tasks\": {compare_tasks},\n    \"wall_run_s\": {:.3},\n    \
         \"stage2_predict_s\": {:.3},\n    \
         \"counters\": {{\n      \"drains_run\": {},\n      \"memo_hits\": {},\n      \
         \"memo_hit_rate\": {:.4},\n      \"cross_task_hits\": {},\n      \
         \"truncated\": {},\n      \"truncation_rate\": {:.4},\n      \
         \"prefix_reuses\": {},\n      \"prefix_reuse_rate\": {:.4},\n      \
         \"pruned_queries\": {},\n      \
         \"headline_campaign\": {{\"drains_run\": {}, \"truncated\": {}, \
         \"prefix_reuses\": {}, \"memo_hit_rate\": {:.4}, \"pruned_queries\": {}}},\n      \
         \"acceptance\": {{\"required\": \"drains, truncations and prefix reuses all > 0 \
         (the drain engine must actually run, truncate and resume)\", \
         \"pass\": {ok_stage2_counters}}}\n    }}\n  }},\n",
        stage2_run.wall,
        stage2_ns as f64 / 1e9,
        s2.drains,
        s2.hits,
        s2.hit_rate(),
        s2.cross_task_hits,
        s2.truncated,
        s2.truncation_rate(),
        s2.prefix_hits,
        s2.prefix_reuse_rate(),
        stage2_run.pruned,
        headline.stage2.drains,
        headline.stage2.truncated,
        headline.stage2.prefix_hits,
        headline.stage2.hit_rate(),
        headline.pruned,
    );
    let _ = write!(
        json,
        "  \"peak_pending\": {{\n    \"headline\": {},\n    \"sharded\": {},\n    \
         \"churn\": {},\n    \
         \"acceptance\": {{\"max_peak_pending_events\": {peak_pending_gate}, \
         \"pass\": {ok_peak_pending}}}\n  }},\n",
        headline.peak_pending, sharded.peak_pending, churned.peak_pending,
    );
    let _ = writeln!(json, "  \"profile\": {profile_json},");
    let _ = write!(
        json,
        "  \"acceptance\": {{\"budget_wall_s\": {budget_secs}, \"all_tasks_complete\": {}, \
         \"decision_gate_pass\": {ok_decision}, \"completion_delta_pass\": {ok_delta}, \
         \"shard_delta_pass\": {ok_shard_delta}, \
         \"tree_equivalence_pass\": {ok_tree_equal}, \
         \"tree_decision_gate_pass\": {ok_tree_decision}, \
         \"churn_gate_pass\": {ok_churn}, \
         \"trace_gate_pass\": {ok_trace}, \
         \"stage2_counters_pass\": {ok_stage2_counters}, \
         \"profile_gate_pass\": {ok_profile}, \
         \"peak_pending_gate_pass\": {ok_peak_pending}, \
         \"pass\": {ok}}}\n}}\n",
        completed == n_tasks,
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path} (budget {budget_secs:.0} s, pass: {ok})");
    if !ok {
        std::process::exit(1);
    }
}
