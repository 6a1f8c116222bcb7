//! The hierarchical-federation campaign: 100k servers, 10⁷ tasks, one
//! sharded HMCT experiment through the two-level skyline tree.
//!
//! This is the workload the group walk exists for: `--shards auto` on a
//! 100k farm resolves to 157 shards in 10 groups of 16, so every
//! decision's ascending-skyline walk prunes whole groups before it
//! touches a member shard. The binary runs exactly one campaign — the
//! production configuration (auto sharding, skyline merge, aggregated
//! per-shard load reports, the adaptive selector) — and gates on:
//!
//! * **completion** — every task must complete (the 100k farm itself is
//!   frozen; crash-safe accounting at this binary's settings is covered
//!   by the churn smoke below);
//! * **wall budget** — `SCALE100K_BUDGET_SECS` (default 4500: the full
//!   campaign measured ~52 min on one dev core at ~3.2k tasks/s, so the
//!   envelope carries ~1.4× margin; a 3·10⁵-task run at this farm size
//!   measures 17.5 s on a 2-core host; the decision path is serial, so
//!   extra cores do not shorten it);
//! * **liveness of both walk levels** — group and member-shard skip
//!   counters must be non-zero: a silent fall-back to the flat walk is
//!   a regression even when it completes in time;
//! * **liveness of the stage-2 drain engine** — drains, truncations and
//!   prefix-cursor reuses (the `stage2` JSON section) must all be
//!   non-zero: HMCT is completion-only, so a campaign whose fast drains
//!   never truncate or resume the shared baseline prefix has silently
//!   fallen back to full drains;
//! * **event-kernel high water** — `peak_pending` stays under
//!   `SCALE100K_PEAK_PENDING_GATE` (default
//!   `cas_bench::pending_events_ceiling` for a frozen farm with one
//!   report chain per shard, 7·servers + shards + 1): pending events
//!   must track the servers and the work in flight, not the campaign
//!   length;
//! * **phase profile** — the whole run executes under the always-on
//!   phase profiler; the JSON records per-phase totals, every phase must
//!   close at least one span, and the estimated span overhead must stay
//!   under `SCALE100K_PROFILE_OVERHEAD_GATE` (default 2 %). Because the
//!   100k farm schedules no churn events, a **churn smoke** — a
//!   laptop-scale faulted campaign (`SCALE100K_CHURN_SERVERS`/`_TASKS`,
//!   defaults 2000/20k, MTBF 400 s, MTTR 60 s) — runs in the same
//!   process to exercise the churn phase and re-check terminal
//!   accounting under crashes.
//!
//! Sizes are env-overridable (`SCALE100K_SERVERS`, `SCALE100K_TASKS`)
//! so the same binary smoke-tests at laptop scale. Results land in
//! `BENCH_scale_100k.json` (path overridable as `argv[1]`); CI runs the
//! full configuration nightly, non-blocking.

use cas_core::heuristics::HeuristicKind;
use cas_core::SelectorKind;
use cas_metrics::{prof, MetricSet};
use cas_middleware::{ExperimentConfig, GridWorld, Sharding};
use cas_platform::{CostTable, ProblemId, ServerId};
use cas_sim::Simulation;
use cas_workload::synthetic::{BurstArrivals, SyntheticPlatform};
use std::fmt::Write as _;
use std::time::Instant;

fn env_or(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Aggregate service rate of the farm (tasks per sim-second with every
/// server busy), the base of the arrival-rate sizing.
fn aggregate_rate(platform: &SyntheticPlatform, costs: &CostTable) -> f64 {
    (0..platform.n_servers)
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
        .sum()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scale_100k.json".to_string());
    let n_servers = env_or("SCALE100K_SERVERS", 100_000.0) as usize;
    let n_tasks = env_or("SCALE100K_TASKS", 10_000_000.0) as usize;
    let budget_secs = env_or("SCALE100K_BUDGET_SECS", 4500.0);
    let selector_spec =
        std::env::var("SCALE100K_SELECTOR").unwrap_or_else(|_| "adaptive:8:64".to_string());
    let selector = SelectorKind::parse(&selector_spec)
        .unwrap_or_else(|| panic!("bad SCALE100K_SELECTOR {selector_spec}"));
    let shards_spec = std::env::var("SCALE100K_SHARDS").unwrap_or_else(|_| "auto".to_string());
    let sharding = Sharding::parse(&shards_spec)
        .unwrap_or_else(|| panic!("bad SCALE100K_SHARDS {shards_spec} (N|auto[:G])"));
    let n_shards = sharding.resolve(n_servers).unwrap_or(1);
    let profile_overhead_gate = env_or("SCALE100K_PROFILE_OVERHEAD_GATE", 0.02);
    // The main campaign runs on a frozen farm with aggregated reports:
    // one report chain per shard, no fault events.
    let peak_pending_gate = env_or(
        "SCALE100K_PEAK_PENDING_GATE",
        cas_bench::pending_events_ceiling(n_servers, n_shards, false) as f64,
    ) as usize;
    let churn_servers = env_or("SCALE100K_CHURN_SERVERS", 2000.0) as usize;
    let churn_tasks = env_or("SCALE100K_CHURN_TASKS", 20_000.0) as usize;

    let platform = SyntheticPlatform {
        n_servers,
        heterogeneity: 4.0,
        n_problems: 3,
        base_cost: 15.0,
        cost_spread: 3.0,
        comm_fraction: 0.02,
        mem_fraction: 0.0,
    };
    let seed = 0x100_000;
    let build_start = Instant::now();
    let servers = platform.servers(seed);
    let costs = platform.cost_table(seed);

    // Same sizing as the standing scale campaign: arrivals at 50 % of
    // aggregate service capacity on average, ~80 % at crests.
    let mean_rate = 0.5 * aggregate_rate(&platform, &costs);
    let burstiness = 4.0;
    let base_rate = 2.0 * mean_rate / (1.0 + burstiness);
    let arrivals = BurstArrivals {
        n_tasks,
        base_rate,
        peak_rate: burstiness * base_rate,
        period: 1800.0,
        n_problems: platform.n_problems,
    };
    let tasks = arrivals.generate(seed);
    let horizon = tasks.last().expect("non-empty campaign").arrival.as_secs();

    let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, seed);
    cfg.load_report_period = 30.0;
    cfg.selector = selector;
    let cfg = cfg.with_shards(sharding).with_aggregated_reports(true);
    let build_secs = build_start.elapsed().as_secs_f64();

    prof::reset();
    let prof_start = Instant::now();
    let world = GridWorld::new(cfg, costs, servers, tasks);
    let n_groups = world.agent().tree().n_groups();
    let tree_active = world.agent().tree().n_groups() > 1;
    let mut sim = Simulation::new(world);
    let start = Instant::now();
    let _ = sim.run_to_completion();
    let run_secs = start.elapsed().as_secs_f64();
    let events = sim.processed();
    let peak_pending = sim.peak_pending();
    let world = sim.into_world();
    let metrics = MetricSet::compute(world.records());
    let skyline = world.agent().skyline_stats();
    let stage2 = world.agent().stage2_stats();
    let report_events = world.report_events();
    let completed = metrics.completed;

    eprintln!(
        "{n_servers} servers in {n_shards} shards / {n_groups} groups, {n_tasks} tasks over \
         {horizon:.0} sim-seconds (selector {selector_spec}): {completed} completed"
    );
    eprintln!(
        "build {build_secs:.2} s, run {run_secs:.2} s ({:.0} events/s, {:.0} tasks/s); \
         peak pending {peak_pending}, \
         report kernel events {report_events}",
        events as f64 / run_secs,
        n_tasks as f64 / run_secs,
    );
    eprintln!(
        "group walk: skipped {:.1}% of group walks ({} / {} considered), \
         {:.1}% of member-shard walks ({} / {} considered)",
        100.0 * skyline.group_skip_rate(),
        skyline.group_skips,
        skyline.group_visits + skyline.group_skips,
        100.0 * skyline.skip_rate(),
        skyline.shard_skips,
        skyline.shard_visits + skyline.shard_skips,
    );
    eprintln!(
        "stage-2 drain engine: {} drains ({} truncated, {:.1}%), {} memo hits \
         ({:.1}% hit rate), {} prefix-cursor reuses ({:.1}% of drains)",
        stage2.drains,
        stage2.truncated,
        100.0 * stage2.truncation_rate(),
        stage2.hits,
        100.0 * stage2.hit_rate(),
        stage2.prefix_hits,
        100.0 * stage2.prefix_reuse_rate(),
    );

    // Churn smoke: the 100k farm is frozen, so the churn phase of the
    // profile — and crash-safe terminal accounting at this binary's
    // configuration — is exercised by a laptop-scale faulted campaign in
    // the same process.
    let churn_platform = SyntheticPlatform {
        n_servers: churn_servers,
        ..platform
    };
    let churn_costs = churn_platform.cost_table(seed);
    let churn_specs = churn_platform.servers(seed);
    let churn_mean_rate = 0.5 * aggregate_rate(&churn_platform, &churn_costs);
    let churn_base_rate = 2.0 * churn_mean_rate / (1.0 + burstiness);
    let churn_arrivals = BurstArrivals {
        n_tasks: churn_tasks,
        base_rate: churn_base_rate,
        peak_rate: burstiness * churn_base_rate,
        period: 1800.0,
        n_problems: churn_platform.n_problems,
    };
    let mut churn_cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, seed);
    churn_cfg.load_report_period = 30.0;
    churn_cfg.selector = selector;
    let churn_cfg = churn_cfg
        .with_shards(sharding)
        .with_aggregated_reports(true)
        .with_churn(
            env_or("SCALE100K_CHURN_MTBF", 400.0),
            env_or("SCALE100K_CHURN_MTTR", 60.0),
        )
        .with_churn_seed(7);
    let churn_start = Instant::now();
    let churn_world = GridWorld::new(
        churn_cfg,
        churn_costs,
        churn_specs,
        churn_arrivals.generate(seed),
    );
    let mut churn_sim = Simulation::new(churn_world);
    let _ = churn_sim.run_to_completion();
    let churn_wall = churn_start.elapsed().as_secs_f64();
    let churn_world = churn_sim.into_world();
    let churn_stats = churn_world.churn_stats();
    let (mut churn_completed, mut churn_dropped, mut churn_other) = (0u64, 0u64, 0u64);
    for r in churn_world.records() {
        match r.outcome {
            cas_metrics::TaskOutcome::Completed { .. } => churn_completed += 1,
            cas_metrics::TaskOutcome::Dropped { reason } => match reason.code() {
                "redispatch_budget" | "no_live_solver" => churn_dropped += 1,
                _ => churn_other += 1,
            },
            _ => churn_other += 1,
        }
    }
    let ok_churn_smoke = churn_other == 0
        && churn_completed + churn_dropped == churn_tasks as u64
        && churn_stats.crashes > 0;
    eprintln!(
        "churn smoke at {churn_servers} servers / {churn_tasks} tasks: {churn_completed} \
         completed + {churn_dropped} dropped with reason in {churn_wall:.2} s wall; \
         {} crashes, {} retractions, {} re-dispatches (pass: {ok_churn_smoke})",
        churn_stats.crashes, churn_stats.retractions, churn_stats.redispatches,
    );

    // Phase profile of everything above (build + campaign + churn
    // smoke), from the always-on profiler.
    let prof_wall = prof_start.elapsed().as_secs_f64();
    let prof_totals = prof::snapshot();
    let (profile_json, ok_profile) =
        prof::render_profile_json(&prof_totals, prof_wall, profile_overhead_gate);
    eprintln!(
        "phase profile over {prof_wall:.3} s wall (pass: {ok_profile}):\n{}",
        prof::render_profile_table(&prof_totals, prof_wall)
    );
    let ok_peak_pending = peak_pending <= peak_pending_gate;
    eprintln!(
        "peak pending kernel events: {peak_pending} (gate <= {peak_pending_gate}, \
         pass: {ok_peak_pending})"
    );

    let ok_complete = completed == n_tasks;
    let ok_budget = run_secs <= budget_secs;
    // Both walk levels must be live whenever the configuration calls
    // for them: a silent flat-walk fall-back is a regression.
    let ok_counters = !tree_active || (skyline.group_skips > 0 && skyline.group_visits > 0);
    // The fast drain engine must actually run, truncate and resume the
    // prefix cursor — all-zero counters mean a silent full-drain
    // fall-back (HMCT is completion-only, so truncation must be live).
    let ok_stage2 = stage2.drains > 0 && stage2.truncated > 0 && stage2.prefix_hits > 0;
    let ok = ok_complete
        && ok_budget
        && ok_counters
        && ok_stage2
        && ok_churn_smoke
        && ok_profile
        && ok_peak_pending;

    let manifest = cas_bench::manifest_json();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"scale_100k\",\n  \"manifest\": {manifest},\n  \
         \"scenario\": \"{n_servers}-server burst campaign \
         through the hierarchical shard federation (two-level skyline tree, aggregated \
         per-shard reports, IPPP thinning arrivals, HMCT)\",\n\
  \"n_servers\": {n_servers},\n  \"n_tasks\": {n_tasks},\n  \"selector\": \"{selector_spec}\",\n\
  \"shards\": {n_shards},\n  \"groups\": {n_groups},\n  \"tree_active\": {tree_active},\n\
  \"sim_horizon_s\": {horizon:.1},\n  \"events_processed\": {events},\n\
  \"wall_build_s\": {build_secs:.3},\n  \"wall_run_s\": {run_secs:.3},\n\
  \"events_per_wall_s\": {:.0},\n  \"tasks_per_wall_s\": {:.0},\n\
  \"peak_pending_events\": {peak_pending},\n\
  \"report_kernel_events\": {report_events},\n\
  \"completed\": {completed},\n  \"mean_stretch\": {:.3},\n",
        events as f64 / run_secs,
        n_tasks as f64 / run_secs,
        metrics.meanstretch,
    );
    let _ = write!(
        json,
        "  \"skyline\": {{\n    \"decisions\": {},\n    \
         \"group_visits\": {},\n    \"group_skips\": {},\n    \
         \"group_skip_rate\": {:.4},\n    \
         \"shard_visits\": {},\n    \"shard_skips\": {},\n    \
         \"member_shard_skip_rate\": {:.4}\n  }},\n",
        skyline.decisions,
        skyline.group_visits,
        skyline.group_skips,
        skyline.group_skip_rate(),
        skyline.shard_visits,
        skyline.shard_skips,
        skyline.skip_rate(),
    );
    let _ = write!(
        json,
        "  \"stage2\": {{\n    \"mode\": \"fast\",\n    \"drains_run\": {},\n    \
         \"memo_hits\": {},\n    \"memo_hit_rate\": {:.4},\n    \
         \"cross_task_hits\": {},\n    \"truncated\": {},\n    \
         \"truncation_rate\": {:.4},\n    \"prefix_reuses\": {},\n    \
         \"prefix_reuse_rate\": {:.4},\n    \
         \"acceptance\": {{\"required\": \"drains, truncations and prefix reuses all > 0\", \
         \"pass\": {ok_stage2}}}\n  }},\n",
        stage2.drains,
        stage2.hits,
        stage2.hit_rate(),
        stage2.cross_task_hits,
        stage2.truncated,
        stage2.truncation_rate(),
        stage2.prefix_hits,
        stage2.prefix_reuse_rate(),
    );
    let _ = write!(
        json,
        "  \"churn_smoke\": {{\n    \"servers\": {churn_servers},\n    \
         \"tasks\": {churn_tasks},\n    \"wall_s\": {churn_wall:.3},\n    \
         \"completed\": {churn_completed},\n    \"dropped_with_reason\": {churn_dropped},\n    \
         \"crashes\": {},\n    \"retractions\": {},\n    \"redispatches\": {},\n    \
         \"note\": \"the 100k farm is frozen, so the churn phase of the profile and \
         crash-safe terminal accounting are exercised by this laptop-scale faulted campaign \
         in the same process\",\n    \
         \"acceptance\": {{\"required\": \"every task terminal (completed or dropped with \
         reason), crashes observed\", \"pass\": {ok_churn_smoke}}}\n  }},\n",
        churn_stats.crashes, churn_stats.retractions, churn_stats.redispatches,
    );
    let _ = writeln!(
        json,
        "  \"peak_pending\": {{\"campaign\": {peak_pending}, \
         \"acceptance\": {{\"max_peak_pending_events\": {peak_pending_gate}, \
         \"pass\": {ok_peak_pending}}}}},"
    );
    let _ = writeln!(json, "  \"profile\": {profile_json},");
    let _ = write!(
        json,
        "  \"acceptance\": {{\"budget_wall_s\": {budget_secs}, \
         \"all_tasks_complete\": {ok_complete}, \"within_budget\": {ok_budget}, \
         \"walk_levels_live\": {ok_counters}, \"stage2_counters_live\": {ok_stage2}, \
         \"churn_smoke_pass\": {ok_churn_smoke}, \
         \"profile_gate_pass\": {ok_profile}, \"peak_pending_gate_pass\": {ok_peak_pending}, \
         \"pass\": {ok}}}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path} (budget {budget_secs:.0} s, pass: {ok})");
    if !ok {
        std::process::exit(1);
    }
}
