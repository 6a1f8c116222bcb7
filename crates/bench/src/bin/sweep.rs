//! Ablation A: heuristic ranking versus arrival process.
//!
//! Three scenarios:
//!
//! * **rate** (default) — §5.3's crossover: MP is sub-optimal at low rates
//!   (it wastes fast servers on idle slow ones) but strong at high rates,
//!   while MSF is never worse than MCT at any rate. The sweep varies the
//!   mean inter-arrival gap of homogeneous-Poisson arrivals over the
//!   waste-cpu workload.
//! * **burst** (`sweep burst`) — beyond the paper: arrivals follow the
//!   thinning-sampled inhomogeneous Poisson process of
//!   [`cas_workload::synthetic::BurstArrivals`]. The mean rate is held at
//!   the paper's high-rate setting while the peak/trough ratio grows, so
//!   the columns isolate how each heuristic degrades as the same load
//!   arrives in ever-sharper bursts. `sweep burst` also appends the
//!   crest-overload tables below.
//! * **crest** (`sweep crest`) — the collapse chart: the crest rate is
//!   driven *past the platform's aggregate service capacity* on the
//!   memory-bound matmul workload. Below capacity every heuristic
//!   completes everything; past it, queues build through each burst,
//!   memory fills, and the per-heuristic completion counts chart where
//!   each policy's completion rate collapses (the HTM heuristics run
//!   without NetSolve's retry loop, as in the paper's Table 6).
//!
//! All print sum-flow, max-stretch, mean-flow and completion counts per
//! heuristic. `sweep trace` instead replays a fitted multi-app trace
//! whose crest class outruns the admission gate and prints per-user-class
//! SLO tables (drop rate, stretch percentiles, buffered time) per
//! heuristic × selector, asserting first that an *uncontended* gate is
//! bit-invisible.

use cas_core::heuristics::HeuristicKind;
use cas_core::SelectorKind;
use cas_metrics::{per_class_slo, MetricSet, Table};
use cas_middleware as middleware;
use cas_middleware::{
    run_experiment, run_experiment_with_users, run_heuristic_matrix, ExperimentConfig, Sharding,
};
use cas_platform::{CostTable, ProblemId, ServerId, ServerSpec, TaskInstance};
use cas_workload::metatask::MetataskSpec;
use cas_workload::synthetic::{BurstArrivals, SyntheticPlatform};
use cas_workload::trace::{AppProfile, FittedTraceSpec, TraceWorkload};
use cas_workload::{matmul, testbed, wastecpu};

const GAPS: [f64; 6] = [8.0, 10.0, 12.0, 15.0, 20.0, 30.0];
/// Peak-to-trough rate ratios of the burst scenario (1 = homogeneous).
const BURSTINESS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
/// Crest rate as a multiple of aggregate service capacity (`crest`
/// scenario): the completion cliff sits past 1.
const CREST_MULTIPLES: [f64; 5] = [0.5, 0.8, 1.0, 2.0, 4.0];
/// The burst scenario's mean arrival rate: the paper's high-rate setting
/// (one task per 15 s).
const BURST_MEAN_RATE: f64 = 1.0 / 15.0;
/// Burst period, seconds — a few hundred tasks per cycle.
const BURST_PERIOD: f64 = 1800.0;
const KINDS: [HeuristicKind; 6] = [
    HeuristicKind::Mct,
    HeuristicKind::Hmct,
    HeuristicKind::Mp,
    HeuristicKind::Msf,
    HeuristicKind::Mni,
    HeuristicKind::RoundRobin,
];

/// Aggregate service rate of a platform, tasks/second: one task at a time
/// per server at its mean unloaded duration across problems.
fn aggregate_capacity(costs: &CostTable) -> f64 {
    (0..costs.n_servers() as u32)
        .map(|s| {
            let durations: Vec<f64> = (0..costs.n_problems() as u32)
                .filter_map(|p| costs.unloaded_duration(ProblemId(p), ServerId(s)))
                .collect();
            let mean = durations.iter().sum::<f64>() / durations.len().max(1) as f64;
            if mean > 0.0 {
                1.0 / mean
            } else {
                0.0
            }
        })
        .sum()
}

fn metric_rows(
    title_of: impl Fn(&str) -> String,
    costs: &CostTable,
    servers: &[ServerSpec],
    rows: &[(String, Vec<TaskInstance>)],
) {
    // One matrix run per row; every metric below reads from these sets
    // (a MetricSet already carries all of them).
    let computed: Vec<(&String, Vec<Vec<MetricSet>>)> = rows
        .iter()
        .map(|(label, tasks)| {
            let workloads: Vec<_> = (0..2).map(|_| tasks.clone()).collect();
            let cfg = ExperimentConfig::paper(HeuristicKind::Mct, 0xF00D);
            let results = run_heuristic_matrix(cfg, &KINDS, costs, servers, &workloads);
            (label, results.iter().map(|r| r.metrics()).collect())
        })
        .collect();
    for metric in ["sumflow", "maxstretch", "meanflow", "completed"] {
        let mut table = Table::new(
            title_of(metric),
            KINDS.iter().map(|k| k.name().to_string()).collect(),
        );
        for (label, per_kind) in &computed {
            let row: Vec<f64> = per_kind
                .iter()
                .map(|ms| {
                    ms.iter().filter_map(|m| m.by_name(metric)).sum::<f64>() / ms.len() as f64
                })
                .collect();
            table.push_row_f64((*label).clone(), &row, 1);
        }
        println!("{}", table.render());
        println!();
    }
}

fn sweep_rate() {
    let rows: Vec<(String, Vec<TaskInstance>)> = GAPS
        .iter()
        .map(|&gap| {
            (
                format!("gap {gap:>4.0} s"),
                MetataskSpec::paper(gap).generate(0x5EED),
            )
        })
        .collect();
    metric_rows(
        |m| format!("Arrival-rate sweep, waste-cpu x 500 tasks: {m}"),
        &wastecpu::cost_table(),
        &testbed::set2_servers(),
        &rows,
    );
    println!(
        "Expected shape (§5.3): MP's sum-flow is worst-or-near-worst at large gaps\n\
         (low rate) and competitive at small gaps; MSF tracks the best heuristic at\n\
         every rate; MCT degrades fastest as the gap shrinks."
    );
}

fn sweep_burst() {
    let rows: Vec<(String, Vec<TaskInstance>)> = BURSTINESS
        .iter()
        .map(|&ratio| {
            // Hold the mean rate fixed: base + peak = 2 · mean, peak = ratio · base.
            let base_rate = 2.0 * BURST_MEAN_RATE / (1.0 + ratio);
            let spec = BurstArrivals {
                n_tasks: 500,
                base_rate,
                peak_rate: ratio * base_rate,
                period: BURST_PERIOD,
                n_problems: 3,
            };
            (format!("peak/trough {ratio:>4.0}x"), spec.generate(0x5EED))
        })
        .collect();
    metric_rows(
        |m| format!("Burstiness sweep (IPPP thinning, mean gap 15 s), waste-cpu x 500: {m}"),
        &wastecpu::cost_table(),
        &testbed::set2_servers(),
        &rows,
    );
    println!(
        "Row 1 (1x) reproduces the homogeneous high-rate workload; subsequent rows\n\
         deliver the same mean load in sharper bursts. HTM-based heuristics keep\n\
         their lead as long as the crest does not saturate every server at once."
    );
}

fn sweep_crest() {
    let costs = matmul::cost_table();
    let servers = testbed::set1_servers();
    let capacity = aggregate_capacity(&costs);
    let rows: Vec<(String, Vec<TaskInstance>)> = CREST_MULTIPLES
        .iter()
        .map(|&m| {
            // Quiet troughs, crests at m × capacity: below 1 every burst
            // drains before the next; past 1 the backlog compounds.
            let peak_rate = m * capacity;
            let spec = BurstArrivals {
                n_tasks: 500,
                base_rate: (0.1 * capacity).min(peak_rate),
                peak_rate,
                period: BURST_PERIOD,
                n_problems: costs.n_problems(),
            };
            (format!("crest {m:>3.1}x cap"), spec.generate(0x5EED))
        })
        .collect();
    metric_rows(
        |m| format!("Crest-overload sweep (capacity {capacity:.4}/s), matmul x 500: {m}"),
        &costs,
        &servers,
        &rows,
    );
    println!(
        "Crests below aggregate capacity ({capacity:.4} tasks/s) drain between bursts:\n\
         everyone completes ~500. Past 1x the backlog compounds through each crest,\n\
         server memory fills, and completion counts collapse — policies that pile\n\
         work on the fast (memory-limited) servers collapse first; MCT's retry loop\n\
         (NetSolve fault tolerance) is the main survival lever, as in Table 6."
    );
}

/// Shard-count sweep: the same bursty campaign on a synthetic farm,
/// through the single agent and through federations of growing width.
/// Charts completion, mean stretch, wall time and the skyline's
/// skipped-shard rate per shard count — the quality side of the
/// federation (`--shards N` must not move the metrics) next to its cost
/// side (`BENCH_scale.json`'s sharding section).
fn sweep_shards() {
    const SHARD_COUNTS: [Sharding; 5] = [
        Sharding::Single,
        Sharding::Federated { shards: 1 },
        Sharding::Federated { shards: 2 },
        Sharding::Federated { shards: 4 },
        Sharding::Federated { shards: 8 },
    ];
    let platform = SyntheticPlatform {
        n_servers: 256,
        heterogeneity: 4.0,
        n_problems: 3,
        base_cost: 15.0,
        cost_spread: 3.0,
        comm_fraction: 0.02,
        mem_fraction: 0.0,
    };
    let seed = 0x5EED_u64;
    let costs = platform.cost_table(seed);
    let servers = platform.servers(seed);
    let capacity = aggregate_capacity(&costs);
    let base_rate = 2.0 * (0.5 * capacity) / (1.0 + 4.0);
    let tasks = BurstArrivals {
        n_tasks: 20_000,
        base_rate,
        peak_rate: 4.0 * base_rate,
        period: 1800.0,
        n_problems: platform.n_problems,
    }
    .generate(seed);
    let mut table = Table::new(
        format!(
            "Shard sweep: 256 servers, 20k bursty tasks, HMCT + adaptive:8:64              (capacity {capacity:.3}/s)"
        ),
        vec![
            "completed".into(),
            "meanstretch".into(),
            "maxstretch".into(),
            "wall s".into(),
            "skip %".into(),
        ],
    );
    // One campaign through the world directly (not the runner) so the
    // router's skyline counters are readable afterwards.
    let run = |cfg: middleware::ExperimentConfig| {
        let world = middleware::GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
        let mut sim = cas_sim::Simulation::new(world);
        let start = std::time::Instant::now();
        let _ = sim.run_to_completion();
        let wall = start.elapsed().as_secs_f64();
        let world = sim.into_world();
        let skip = world.agent().skyline_stats().skip_rate();
        (world.records().to_vec(), wall, skip)
    };
    for sharding in SHARD_COUNTS {
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, seed)
            .with_selector(SelectorKind::Adaptive {
                k_min: 8,
                k_max: 64,
            })
            .with_shards(sharding);
        let (recs, wall, skip) = run(cfg);
        let m = MetricSet::compute(&recs);
        let label = match sharding {
            Sharding::Single => "single agent".to_string(),
            Sharding::Auto { .. } => "auto".to_string(),
            Sharding::Federated { shards } => format!("{shards} shard(s)"),
        };
        table.push_row_f64(
            label,
            &[
                m.completed as f64,
                m.meanstretch,
                m.maxstretch,
                wall,
                100.0 * skip,
            ],
            3,
        );
    }
    println!("{}", table.render());
    println!(
        "The single-agent row and the 1-shard row must agree exactly (the S = 1
         invariant); `skip %` is the fraction of shard walks the skyline
         avoided. Wider federations
         may move placements slightly (each shard adapts its own stage-1 width)
         but completion and stretch stay flat."
    );
}

/// Churn sweep: the living-farm chart — completion rate, re-dispatch
/// pressure and tail stretch as the fault rate grows, per heuristic ×
/// selector backend. The `inf` row is asserted bit-identical to a run
/// with the churn machinery absent entirely (switching it on must be
/// invisible), so the remaining rows chart the cost of the *faults*,
/// never of the subsystem.
fn sweep_churn() {
    const MTBFS: [f64; 4] = [f64::INFINITY, 2000.0, 500.0, 125.0];
    const MTTR: f64 = 60.0;
    const COMBOS: [(HeuristicKind, &str, SelectorKind); 4] = [
        (HeuristicKind::Hmct, "exhaustive", SelectorKind::Exhaustive),
        (
            HeuristicKind::Hmct,
            "adaptive:4:16",
            SelectorKind::Adaptive {
                k_min: 4,
                k_max: 16,
            },
        ),
        (HeuristicKind::Mct, "exhaustive", SelectorKind::Exhaustive),
        (
            HeuristicKind::Mct,
            "adaptive:4:16",
            SelectorKind::Adaptive {
                k_min: 4,
                k_max: 16,
            },
        ),
    ];
    let platform = SyntheticPlatform {
        n_servers: 64,
        heterogeneity: 4.0,
        n_problems: 3,
        base_cost: 15.0,
        cost_spread: 3.0,
        comm_fraction: 0.02,
        mem_fraction: 0.0,
    };
    let seed = 0x5EED_u64;
    let costs = platform.cost_table(seed);
    let servers = platform.servers(seed);
    let capacity = aggregate_capacity(&costs);
    let n_tasks = 4000;
    let tasks = MetataskSpec {
        n_tasks,
        // Half of aggregate capacity: enough headroom that drops measure
        // fault pressure, not baseline overload.
        mean_gap: 2.0 / capacity,
        ..MetataskSpec::paper(1.0)
    }
    .generate(seed);
    let run = |cfg: middleware::ExperimentConfig| {
        let world = middleware::GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
        let mut sim = cas_sim::Simulation::new(world);
        let _ = sim.run_to_completion();
        let world = sim.into_world();
        (world.records().to_vec(), world.churn_stats())
    };
    for (kind, sel_name, selector) in COMBOS {
        let base = ExperimentConfig::ideal(kind, seed)
            .with_selector(selector)
            .with_shards(Sharding::Federated { shards: 4 });
        let (frozen, _) = run(base);
        let mut table = Table::new(
            format!(
                "Churn sweep: 64 servers, 4k tasks, {} + {sel_name}, mttr {MTTR} s",
                kind.name()
            ),
            vec![
                "completed %".into(),
                "redispatch".into(),
                "dropped".into(),
                "crashes".into(),
                "p99 stretch".into(),
            ],
        );
        for mtbf in MTBFS {
            let cfg = base.with_churn(mtbf, MTTR).with_churn_seed(7);
            let (recs, stats) = run(cfg);
            if mtbf.is_infinite() {
                assert_eq!(
                    recs,
                    frozen,
                    "{}/{sel_name}: mtbf = inf must be bit-identical to the frozen farm",
                    kind.name()
                );
            }
            let mut stretches: Vec<f64> = recs.iter().filter_map(|r| r.stretch()).collect();
            stretches.sort_by(|a, b| a.partial_cmp(b).expect("stretches are finite"));
            let p99 = if stretches.is_empty() {
                f64::NAN
            } else {
                stretches
                    [((stretches.len() as f64 * 0.99).ceil() as usize - 1).min(stretches.len() - 1)]
            };
            let completed = recs.iter().filter(|r| r.is_completed()).count();
            let label = if mtbf.is_infinite() {
                "mtbf   inf".to_string()
            } else {
                format!("mtbf {mtbf:>5.0}")
            };
            table.push_row_f64(
                label,
                &[
                    100.0 * completed as f64 / n_tasks as f64,
                    stats.redispatches as f64,
                    stats.drops as f64,
                    stats.crashes as f64,
                    p99,
                ],
                2,
            );
        }
        println!("{}", table.render());
        println!();
    }
    println!(
        "Each table holds one heuristic x selector pair; rows shorten the mean\n\
         uptime (exponential MTBF per server, repairs exponential at 60 s). The\n\
         inf row is asserted bit-identical to the frozen farm. As faults\n\
         accelerate, crashed placements are retracted and re-dispatched with\n\
         backoff; completion erodes only once the re-dispatch budget (8) is\n\
         consumed, and the stretch tail charts the queueing cost of retries."
    );
}

/// Trace sweep: a fitted three-app trace whose burst class submits
/// faster than the admission gate can drain, per heuristic × selector.
/// Before each contended run the *uncontended* gate (capacity ≥ n) is
/// asserted bit-identical to no gate at all, so the SLO tables chart the
/// cost of the overload, never of the subsystem.
fn sweep_trace() {
    const COMBOS: [(HeuristicKind, &str, SelectorKind); 4] = [
        (HeuristicKind::Hmct, "exhaustive", SelectorKind::Exhaustive),
        (
            HeuristicKind::Hmct,
            "adaptive:4:16",
            SelectorKind::Adaptive {
                k_min: 4,
                k_max: 16,
            },
        ),
        (HeuristicKind::Mct, "exhaustive", SelectorKind::Exhaustive),
        (
            HeuristicKind::Mct,
            "adaptive:4:16",
            SelectorKind::Adaptive {
                k_min: 4,
                k_max: 16,
            },
        ),
    ];
    // Three user classes: steady background, a crest that outruns the
    // gate, and a sparse long-job class that must not starve under the
    // round-robin dequeue.
    let spec = FittedTraceSpec {
        apps: vec![
            AppProfile {
                user: 0,
                n_tasks: 400,
                mean_gap_s: 8.0,
                mean_duration_s: 10.0,
            },
            AppProfile {
                user: 1,
                n_tasks: 800,
                mean_gap_s: 0.8,
                mean_duration_s: 10.0,
            },
            AppProfile {
                user: 2,
                n_tasks: 60,
                mean_gap_s: 50.0,
                mean_duration_s: 30.0,
            },
        ],
    };
    let seed = 0x5EED_u64;
    let mut trace = spec.generate(seed);
    let c = TraceWorkload {
        n_servers: 8,
        ..TraceWorkload::default()
    }
    .compile(&mut trace, seed)
    .expect("fitted trace is non-empty");
    let n = c.tasks.len();
    // The contended gate: 8 concurrent admissions at ~10 s mean demand
    // drains ~0.8 tasks/s against a crest of ~1.25/s — it must shed.
    let (cap, buf, deadline) = (8usize, 32usize, 60.0f64);
    for (kind, sel_name, selector) in COMBOS {
        let base = ExperimentConfig::ideal(kind, seed).with_selector(selector);
        let plain = run_experiment(base, c.costs.clone(), c.servers.clone(), c.tasks.clone());
        let (unc, unc_stats, _) = run_experiment_with_users(
            base.with_admission(n + 1, 1, 1.0),
            c.costs.clone(),
            c.servers.clone(),
            c.tasks.clone(),
            c.users.clone(),
        );
        assert_eq!(
            plain,
            unc,
            "{}/{sel_name}: an uncontended gate must be bit-invisible",
            kind.name()
        );
        assert_eq!(unc_stats.buffered, 0, "uncontended gate must never buffer");
        let (recs, stats, waits) = run_experiment_with_users(
            base.with_admission(cap, buf, deadline),
            c.costs.clone(),
            c.servers.clone(),
            c.tasks.clone(),
            c.users.clone(),
        );
        let mut table = Table::new(
            format!(
                "Trace sweep: {n} tasks / 3 classes, {} + {sel_name}, admission {cap}:{buf}:{deadline}",
                kind.name()
            ),
            vec![
                "tasks".into(),
                "completed".into(),
                "drop %".into(),
                "p50 stretch".into(),
                "p99 stretch".into(),
                "buffered s".into(),
            ],
        );
        for class in per_class_slo(&recs, &c.users, &waits) {
            table.push_row_f64(
                format!("user {}", class.user),
                &[
                    class.tasks as f64,
                    class.completed as f64,
                    class.drop_rate_pct,
                    class.p50_stretch.unwrap_or(f64::NAN),
                    class.p99_stretch.unwrap_or(f64::NAN),
                    class.mean_buffered_s,
                ],
                2,
            );
        }
        println!("{}", table.render());
        println!(
            "  peak admitted {} / buffered {}; sheds: {} deadline + {} overflow; reentries {}",
            stats.peak_admitted,
            stats.peak_buffered,
            stats.shed_deadline,
            stats.shed_overflow,
            stats.reentries
        );
        println!();
    }
    println!(
        "Class 1 is the crest: its arrival rate outruns the gate's drain rate, so\n\
         its drop rate and buffered time dominate while the round-robin dequeue\n\
         keeps classes 0 and 2 near their uncontended stretch. Every table rides\n\
         on the asserted invariant that an uncontended gate changes nothing."
    );
}

fn main() {
    let scenario = std::env::args().nth(1).unwrap_or_else(|| "rate".into());
    match scenario.as_str() {
        "rate" => sweep_rate(),
        // `burst` charts both halves of the story: degradation at fixed
        // mean load, then the completion collapse past aggregate capacity.
        "burst" => {
            sweep_burst();
            sweep_crest();
        }
        "crest" => sweep_crest(),
        // Shard federation: quality and wall time versus shard count.
        "shards" => sweep_shards(),
        // The living farm: fault injection, retraction and re-dispatch.
        "churn" => sweep_churn(),
        // Trace replay: per-user-class SLOs under admission backpressure.
        "trace" => sweep_trace(),
        other => {
            eprintln!("unknown scenario {other} (rate|burst|crest|shards|churn|trace)");
            std::process::exit(2);
        }
    }
}
