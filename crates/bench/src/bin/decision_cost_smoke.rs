//! Decision-cost smoke benchmark, JSON output.
//!
//! Measures the cost of one full scheduling decision — a what-if query per
//! candidate across a 64-server platform — through [`Htm::predict`], the
//! generation-cached, zero-clone engine. (The clone-and-drain oracle it
//! is proven bit-identical to lives in `htm.rs`'s tests.) Every candidate
//! is queried, as MP and MNI do; HMCT and MSF prune the walk by lower
//! bound, which this per-query figure does not show. The bounded-walk
//! section below does.
//!
//! Two workload modes bracket reality: `steady` issues decisions with no
//! commits in between (every server's baseline cache stays warm) and
//! `churn` commits the chosen task after every decision (one server's
//! cache invalidated per round, as in a live scheduler).
//!
//! Every section queries from just after the last loaded arrival, while
//! every loaded task is still running, so a row's `per_server_tasks` is
//! the load it prices; each row records `active_tasks_per_server`, the
//! mean count at its first query (over every measured decision in the
//! bounded-walk section).
//!
//! A second section measures the **commit path**: the cost of absorbing a
//! placement into the model, from the commit call to the next baseline
//! consumer (`resident_estimate`, the memory-aware veto's per-decision
//! read). Each round replays the engine's exact order — predict the
//! chosen server, commit, read the baseline — and times only the
//! commit-and-read portion. The commit adopts the memoised speculative
//! after-schedule, so the read is a cache hit.
//!
//! A third section measures the **prediction memo**: the speculative
//! after-drain is keyed on (problem costs, instant, trace generation) —
//! not the probe id — so same-instant probes of the same problem share
//! one drain. The section times a second same-problem sweep against the
//! first and reports the memo's hit-rate counters
//! ([`cas_core::MemoStats`]).
//!
//! A fourth section times **whole bounded decisions**: HMCT and MSF
//! select over every server through [`SchedView`], each walking its
//! candidates in lower-bound order, skipping queues that cannot win
//! before their drain and stopping at the incumbent. After each
//! decision the winner is committed and retracted, outside the timing:
//! one server's caches change per round, as after a live commit, while
//! the load stays the row's. Each row reports the drains run and the
//! queries pruned at the backlog per decision, and the mean tasks
//! active per server over the measured decisions.
//!
//! Writes `BENCH_decision_cost.json` (path overridable as `argv[1]`) with
//! per-configuration timings, and exits non-zero when the memo section
//! records no cross-task hit (a dead memo).

use cas_core::heuristics::HeuristicKind;
use cas_core::{DecisionMemo, Htm, MemoStats, SchedView, SyncPolicy};
use cas_platform::{
    CostTable, LoadReport, PhaseCosts, Problem, ProblemId, ServerId, TaskId, TaskInstance,
};
use cas_sim::{RngStream, SimTime, StreamKind};
use std::hint::black_box;
use std::time::Instant;

const N_SERVERS: u32 = 64;

fn table64() -> CostTable {
    let mut t = CostTable::new(N_SERVERS as usize);
    for p in 0..3 {
        let base = 15.0 * (p + 1) as f64;
        t.add_problem(
            Problem::new(format!("p{p}"), 1.0, 0.5, 0.0),
            (0..N_SERVERS)
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

/// `per_server` tasks on each of the 64 servers, one arriving per second
/// from t = 0. Each computes for at least 15 s alone and slower under fair
/// sharing, so none has finished by [`query_start`].
fn loaded_htm(per_server: usize) -> Htm {
    let mut htm = Htm::new(table64(), SyncPolicy::None);
    let mut id = 1000u64;
    for s in 0..N_SERVERS {
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

/// The first query instant: just after the last loaded arrival, so every
/// server still holds all `per_server` tasks.
fn query_start(per_server: usize) -> f64 {
    per_server as f64
}

/// Mean tasks active per server at the first query, counted as the
/// perturbations of a probe's what-if on each server of a fresh farm
/// (the prediction lists every task still running at the query instant).
fn mean_active_at_start(per_server: usize) -> f64 {
    let mut htm = loaded_htm(per_server);
    let probe = TaskInstance::new(
        TaskId(u64::MAX),
        ProblemId(0),
        SimTime::from_secs(query_start(per_server)),
    );
    let total: usize = (0..N_SERVERS)
        .filter_map(|s| htm.predict(probe.arrival, ServerId(s), &probe))
        .map(|p| p.perturbations.len())
        .sum();
    total as f64 / N_SERVERS as f64
}

/// One what-if query per candidate through [`Htm::predict`]; returns the
/// earliest-completion candidate (ties to the first), HMCT's pick.
fn predict_each(htm: &mut Htm, probe: &TaskInstance, candidates: &[ServerId]) -> Option<ServerId> {
    let mut best: Option<(ServerId, f64)> = None;
    for &s in candidates {
        if let Some(p) = htm.predict(probe.arrival, s, probe) {
            let c = p.completion.as_secs();
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((s, c));
            }
        }
    }
    best.map(|(s, _)| s)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Decisions only; no trace mutation between rounds.
    Steady,
    /// Commit the picked task after every decision (cache churn).
    Churn,
}

/// Runs `rounds` decisions and returns the mean microseconds per decision.
fn run(mode: Mode, per_server: usize, rounds: usize) -> f64 {
    let mut htm = loaded_htm(per_server);
    let candidates: Vec<ServerId> = (0..N_SERVERS).map(ServerId).collect();
    let mut next_id = 500_000u64;
    let mut now = query_start(per_server);
    // Warm-up (fills caches, faults in scratch buffers).
    for _ in 0..3 {
        let probe = TaskInstance::new(TaskId(next_id), ProblemId(0), SimTime::from_secs(now));
        next_id += 1;
        black_box(predict_each(&mut htm, &probe, &candidates));
    }
    let start = Instant::now();
    for round in 0..rounds {
        now += 0.01;
        let probe = TaskInstance::new(
            TaskId(next_id),
            ProblemId((round % 3) as u32),
            SimTime::from_secs(now),
        );
        next_id += 1;
        let pick = predict_each(&mut htm, &probe, &candidates);
        if mode == Mode::Churn {
            let server = pick.expect("some server solves every problem");
            htm.commit(probe.arrival, server, &probe);
        } else {
            black_box(pick);
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

/// Times the commit path (commit + first baseline read), returning mean
/// microseconds per commit. The surrounding predict matches the engine's
/// decision order and is excluded from the measurement.
fn run_commit_path(per_server: usize, rounds: usize) -> f64 {
    let mut htm = loaded_htm(per_server);
    let mut next_id = 900_000u64;
    let mut now = query_start(per_server);
    // Warm-up: fault in every server's baseline cache and scratch.
    for s in 0..N_SERVERS {
        black_box(htm.resident_estimate(SimTime::from_secs(now), ServerId(s)));
    }
    let mut in_commit = std::time::Duration::ZERO;
    for round in 0..rounds {
        now += 0.01;
        let server = ServerId((round % N_SERVERS as usize) as u32);
        let task = TaskInstance::new(
            TaskId(next_id),
            ProblemId((round % 3) as u32),
            SimTime::from_secs(now),
        );
        next_id += 1;
        // The decision the engine makes before every commit (untimed).
        black_box(htm.predict(task.arrival, server, &task));
        let start = Instant::now();
        htm.commit(task.arrival, server, &task);
        black_box(htm.resident_estimate(task.arrival, server));
        in_commit += start.elapsed();
    }
    in_commit.as_secs_f64() * 1e6 / rounds as f64
}

/// Times same-instant same-problem probe sweeps over every candidate: the
/// first sweep drains, the second must be answered from the problem-keyed
/// memo. Returns (first µs/sweep, repeat µs/sweep, final memo stats).
fn run_memo_probe(per_server: usize, rounds: usize) -> (f64, f64, MemoStats) {
    let mut htm = loaded_htm(per_server);
    let candidates: Vec<ServerId> = (0..N_SERVERS).map(ServerId).collect();
    let mut next_id = 700_000u64;
    let mut now = query_start(per_server);
    // Warm-up.
    let probe = TaskInstance::new(TaskId(next_id), ProblemId(0), SimTime::from_secs(now));
    next_id += 1;
    black_box(predict_each(&mut htm, &probe, &candidates));
    let (mut in_first, mut in_repeat) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    for round in 0..rounds {
        now += 0.01;
        let when = SimTime::from_secs(now);
        let problem = ProblemId((round % 3) as u32);
        let first = TaskInstance::new(TaskId(next_id), problem, when);
        let repeat = TaskInstance::new(TaskId(next_id + 1), problem, when);
        next_id += 2;
        let start = Instant::now();
        black_box(predict_each(&mut htm, &first, &candidates));
        in_first += start.elapsed();
        let start = Instant::now();
        black_box(predict_each(&mut htm, &repeat, &candidates));
        in_repeat += start.elapsed();
    }
    (
        in_first.as_secs_f64() * 1e6 / rounds as f64,
        in_repeat.as_secs_f64() * 1e6 / rounds as f64,
        htm.memo_stats(),
    )
}

/// What one bounded-walk row measured, per decision.
struct BoundedWalk {
    us: f64,
    drains: f64,
    pruned: f64,
    active: f64,
}

/// Times `rounds` whole decisions of `kind` (HMCT or MSF) over every
/// server, committing and retracting each winner untimed, and counts the
/// drains, the queries pruned at the backlog and the tasks active.
fn run_bounded_walk(kind: HeuristicKind, per_server: usize, rounds: usize) -> BoundedWalk {
    let mut htm = loaded_htm(per_server);
    let mut heuristic = kind.build();
    htm.set_completion_only(!heuristic.needs_perturbations());
    let costs = table64();
    let loads: Vec<LoadReport> = (0..N_SERVERS)
        .map(|s| LoadReport::initial(ServerId(s)))
        .collect();
    let candidates: Vec<ServerId> = (0..N_SERVERS).map(ServerId).collect();
    let mut memo = DecisionMemo::new();
    let mut rng = RngStream::derive(1, StreamKind::TieBreak);
    let mut now = query_start(per_server);
    let mut in_decisions = std::time::Duration::ZERO;
    let (mut drains, mut pruned, mut active) = (0, 0, 0);
    // Three warm-up rounds, then the timed ones.
    for round in 0..rounds + 3 {
        now += 0.01;
        let task = TaskInstance::new(
            TaskId(600_000 + round as u64),
            ProblemId((round % 3) as u32),
            SimTime::from_secs(now),
        );
        let counters = (htm.memo_stats().drains, htm.pruned_queries());
        let tasks: usize = (0..N_SERVERS).map(|s| htm.active_on(ServerId(s))).sum();
        let start = Instant::now();
        let pick = {
            let mut view = SchedView::new(
                task.arrival,
                task,
                candidates.as_slice(),
                &costs,
                &loads,
                &mut htm,
                &mut rng,
            )
            .with_memo(&mut memo);
            heuristic.select(&mut view)
        };
        if round >= 3 {
            in_decisions += start.elapsed();
            drains += htm.memo_stats().drains - counters.0;
            pruned += htm.pruned_queries() - counters.1;
            active += tasks;
        }
        let server = pick.expect("some server solves every problem");
        htm.commit(task.arrival, server, &task);
        htm.retract(task.arrival, task.id);
    }
    BoundedWalk {
        us: in_decisions.as_secs_f64() * 1e6 / rounds as f64,
        drains: drains as f64 / rounds as f64,
        pruned: pruned as f64 / rounds as f64,
        active: active as f64 / (rounds * N_SERVERS as usize) as f64,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_decision_cost.json".to_string());
    let mut results = Vec::new();
    for &per_server in &[8usize, 32, 128] {
        let active = mean_active_at_start(per_server);
        for (mode, mode_name) in [(Mode::Steady, "steady"), (Mode::Churn, "churn")] {
            let rounds = match per_server {
                128 => 40,
                32 => 120,
                _ => 400,
            };
            let cached_us = run(mode, per_server, rounds);
            eprintln!(
                "64 servers × {per_server:>3} tasks ({active:.2} active), {mode_name:<6}: \
                 {cached_us:>8.1} µs/decision"
            );
            results.push(format!(
                "    {{\"servers\": {N_SERVERS}, \"per_server_tasks\": {per_server}, \
                 \"active_tasks_per_server\": {active:.2}, \
                 \"mode\": \"{mode_name}\", \"rounds\": {rounds}, \
                 \"cached_us_per_decision\": {cached_us:.2}}}"
            ));
        }
    }
    let mut commit_results = Vec::new();
    for &per_server in &[8usize, 32, 128] {
        let rounds = match per_server {
            128 => 192,
            32 => 640,
            _ => 1920,
        };
        let active = mean_active_at_start(per_server);
        let inc_us = run_commit_path(per_server, rounds);
        eprintln!(
            "64 servers × {per_server:>3} tasks ({active:.2} active), commit : \
             {inc_us:>8.2} µs/commit"
        );
        commit_results.push(format!(
            "    {{\"servers\": {N_SERVERS}, \"per_server_tasks\": {per_server}, \
             \"active_tasks_per_server\": {active:.2}, \
             \"rounds\": {rounds}, \"incremental_us_per_commit\": {inc_us:.2}}}"
        ));
    }
    // Prediction-memo section: same-instant, same-problem probes must be
    // answered from the problem-keyed memo instead of re-draining.
    let memo_active = mean_active_at_start(32);
    let (first_us, repeat_us, memo) = run_memo_probe(32, 200);
    let memo_speedup = first_us / repeat_us;
    eprintln!(
        "64 servers ×  32 tasks ({memo_active:.2} active), memo  : first probe {first_us:>10.1} µs/sweep, same-problem \
         repeat {repeat_us:>8.1} µs/sweep, speedup {memo_speedup:>6.1}x \
         (hit rate {:.3}, {} cross-task hits)",
        memo.hit_rate(),
        memo.cross_task_hits
    );
    let memo_live = memo.cross_task_hits > 0;
    let mut walk_results = Vec::new();
    for &per_server in &[8usize, 32, 128] {
        let rounds = match per_server {
            128 => 200,
            32 => 600,
            _ => 2000,
        };
        for kind in [HeuristicKind::Hmct, HeuristicKind::Msf] {
            let w = run_bounded_walk(kind, per_server, rounds);
            eprintln!(
                "64 servers × {per_server:>3} tasks ({:.2} active), {:<4} walk: \
                 {:>8.1} µs/decision, {:.2} drains, {:.2} pruned",
                w.active,
                kind.name(),
                w.us,
                w.drains,
                w.pruned
            );
            walk_results.push(format!(
                "      {{\"heuristic\": \"{}\", \"servers\": {N_SERVERS}, \
                 \"per_server_tasks\": {per_server}, \"active_tasks_per_server\": {:.2}, \
                 \"rounds\": {rounds}, \"us_per_decision\": {:.2}, \
                 \"drains_per_decision\": {:.2}, \"pruned_per_decision\": {:.2}}}",
                kind.name(),
                w.active,
                w.us,
                w.drains,
                w.pruned
            ));
        }
    }
    let manifest = cas_bench::manifest_json();
    let json = format!(
        "{{\n  \"bench\": \"decision_cost\",\n  \"manifest\": {manifest},\n  \
         \"unit\": \"microseconds per scheduling decision \
         (one what-if query per candidate server)\",\n  \"engine\": \"Htm::predict per \
         candidate (generation-cached baseline + zero-clone scratch drain)\",\n  \
         \"results\": [\n{}\n  ],\n\
  \"commit_path\": {{\n    \"unit\": \"microseconds per commit (commit + first baseline read, \
         predict excluded; the commit splices the memoised after-schedule)\",\n    \
         \"results\": [\n{}\n    ]\n  }},\n\
  \"prediction_memo\": {{\n    \"unit\": \"microseconds per 64-candidate sweep (same instant, \
         same problem, different task id)\",\n    \
    \"active_tasks_per_server\": {memo_active:.2},\n    \"first_probe_us_per_sweep\": {first_us:.2},\n    \
    \"same_problem_repeat_us_per_sweep\": {repeat_us:.2},\n    \"speedup\": {memo_speedup:.2},\n    \
    \"drains\": {},\n    \"hits\": {},\n    \"cross_task_hits\": {},\n    \
    \"hit_rate\": {:.4},\n    \"acceptance\": {{\"cross_task_hits_nonzero\": {memo_live}}}\n  }},\n\
  \"bounded_walk\": {{\n    \"unit\": \"microseconds per whole HMCT or MSF decision over all 64 \
         servers (lower-bound walk, queues that cannot win pruned before their drain; each \
         winner committed and retracted untimed, so the load stays fixed; active tasks are \
         the mean over the measured decisions)\",\n    \
         \"results\": [\n{}\n    ]\n  }}\n}}\n",
        results.join(",\n"),
        commit_results.join(",\n"),
        memo.drains,
        memo.hits,
        memo.cross_task_hits,
        memo.hit_rate(),
        walk_results.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path}; prediction memo live: {memo_live}");
    if !memo_live {
        std::process::exit(1);
    }
}
