//! Golden whole-campaign record digests.
//!
//! Each row runs one campaign and takes two FNV-1a 64 digests. The
//! records digest hashes every record's task id, server, outcome code,
//! finish-time bits and attempts (the fields `casbench`'s
//! `records_digest` hashes), so it moves when a decision moves. The
//! model digest hashes every record's commit-time and final simulated
//! completion, every task's admission wait and the gate's counters, so
//! it also moves when a what-if value or a wait shifts without moving a
//! pick. The rows
//! cover every heuristic × {exhaustive, `topk:4`, `adaptive:2:8`} ×
//! {single agent, three shards} on the `determinism.rs` farm, the same
//! farm under crash churn, under admission backpressure and under both,
//! a 20-shard farm whose stage-1 walk goes through the group level of
//! the shard tree, and the paper farm under harsher churn behind the
//! gate with a re-dispatch budget of two, where crash victims are
//! dropped on budget as well as re-entered. The last rows pin paths no
//! row above reaches: the shared client link and `ForceFinish`
//! synchronisation, each under churn behind the gate; aggregated
//! per-shard reports under churn; and the golden CSV trace's three user
//! classes behind gates whose whole-second deadlines tie with arrivals.
//! The bounded stage-2 heuristics (HMCT, MSF and their memory-aware
//! wrappers) also run with a wide adaptive shortlist on a 32-server farm
//! at about 0.9 load, with transfers at 2 % and at 50–100 % of compute,
//! so their walks meet real queues, with busy and with idle input lanes;
//! each of those rows must stop some what-if query at its backlog.
//!
//! Every row also checks the run invariants casbench checks per rep:
//! nothing is left in flight, and the admission counters balance each
//! other and the records.
//!
//! `golden_digests.txt` holds the expected table. A change to the
//! decision stack that moves any decision or any prediction in any row
//! fails here. On a
//! mismatch the test prints the whole recomputed table; when the change
//! in behaviour is intended, replace the file with it by hand.

use casgrid::metrics::DropReason;
use casgrid::middleware::GridWorld;
use casgrid::prelude::*;
use casgrid::sim::Simulation;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_digests.txt");

/// FNV-1a 64, fed bytes in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a 64 over the decision-bearing fields of every record.
fn records_digest(records: &[TaskRecord]) -> u64 {
    let mut h = Fnv::new();
    let mut eat = |bytes: &[u8]| h.eat(bytes);
    for r in records {
        eat(&r.task.0.to_le_bytes());
        eat(&r.server.map_or(u32::MAX, |s| s.0).to_le_bytes());
        let (code, finished) = match r.outcome {
            TaskOutcome::Completed { finished } => (0u8, finished.as_secs()),
            TaskOutcome::Failed => (1, 0.0),
            TaskOutcome::InFlight => (2, 0.0),
            TaskOutcome::Dropped { reason } => (3 + reason as u8, 0.0),
        };
        eat(&[code]);
        eat(&finished.to_bits().to_le_bytes());
        eat(&r.attempts.to_le_bytes());
    }
    h.0
}

/// FNV-1a 64 over what the HTM predicted and what the admission gate
/// did: every record's commit-time and final simulated completion
/// (`u64::MAX`, a NaN pattern no clock produces, when absent), every
/// task's admission wait, then the gate's counters.
fn model_digest(records: &[TaskRecord], waits: &[f64], adm: &AdmissionStats) -> u64 {
    let mut h = Fnv::new();
    let bits = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.as_secs().to_bits());
    for r in records {
        h.eat(&bits(r.commit_prediction).to_le_bytes());
        h.eat(&bits(r.predicted_completion).to_le_bytes());
    }
    for w in waits {
        h.eat(&w.to_bits().to_le_bytes());
    }
    for n in [
        adm.buffered,
        adm.dequeued,
        adm.shed_deadline,
        adm.shed_overflow,
        adm.reentries,
        adm.peak_buffered as u64,
        adm.peak_admitted as u64,
    ] {
        h.eat(&n.to_le_bytes());
    }
    h.0
}

/// The `determinism.rs` farm: the paper's waste-cpu table on its
/// four-server testbed, with a paper metatask of `n` tasks.
fn paper_farm(n: usize, seed: u64) -> Farm {
    let costs = casgrid::workload::wastecpu::cost_table();
    let servers = casgrid::workload::testbed::set2_servers();
    let tasks = MetataskSpec {
        n_tasks: n,
        ..MetataskSpec::paper(15.0)
    }
    .generate(seed);
    (costs, servers, tasks, vec![0; n])
}

/// A 40-server synthetic farm: at 20 shards the default fan-out of 16
/// shards per group yields two groups, so the group walk engages.
fn wide_farm(n: usize, seed: u64) -> Farm {
    let platform = casgrid::workload::synthetic::SyntheticPlatform {
        n_servers: 40,
        ..Default::default()
    };
    let tasks = MetataskSpec {
        n_tasks: n,
        ..MetataskSpec::paper(0.5)
    }
    .generate(seed);
    (
        platform.cost_table(seed),
        platform.servers(seed),
        tasks,
        vec![0; n],
    )
}

/// A 32-server synthetic farm at about 0.9 load, so the bounded stage-2
/// walks find queues at decision time. Capacity is compute-bound: the
/// three problems average 28.7 s on the fastest server, speeds fall
/// geometrically to half the fastest's, and the farm serves 0.81
/// tasks/s, of which a 1.38 s mean gap offers 0.9. Transfers cost
/// `comm_fraction` of the fastest server's compute, so 0.02 leaves
/// input lanes nearly always idle and 1.0 (50–100 % of compute) keeps
/// them busy.
fn busy_farm(n: usize, comm_fraction: f64, seed: u64) -> Farm {
    let platform = casgrid::workload::synthetic::SyntheticPlatform {
        n_servers: 32,
        heterogeneity: 2.0,
        comm_fraction,
        ..Default::default()
    };
    let tasks = MetataskSpec {
        n_tasks: n,
        ..MetataskSpec::paper(1.38)
    }
    .generate(seed);
    (
        platform.cost_table(seed),
        platform.servers(seed),
        tasks,
        vec![0; n],
    )
}

/// The golden CSV trace (`crates/workload/fixtures/golden_trace.csv`):
/// 36 tasks of three user classes on three servers, arriving on whole
/// and half seconds.
fn trace_farm(seed: u64) -> Farm {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/workload/fixtures/golden_trace.csv"
    );
    let text = std::fs::read_to_string(path).expect("the golden trace is checked in");
    let mut trace = CsvTrace::parse(&text).expect("the golden trace parses");
    let c = TraceWorkload {
        n_servers: 3,
        ..TraceWorkload::default()
    }
    .compile(&mut trace, seed)
    .expect("the golden trace compiles");
    (c.costs, c.servers, c.tasks, c.users)
}

const SELECTORS: [(&str, SelectorKind); 3] = [
    ("exhaustive", SelectorKind::Exhaustive),
    ("topk:4", SelectorKind::TopK { k: 4 }),
    (
        "adaptive:2:8",
        SelectorKind::Adaptive { k_min: 2, k_max: 8 },
    ),
];

const SHARDINGS: [(&str, Sharding); 2] = [
    ("single", Sharding::Single),
    ("fed3", Sharding::Federated { shards: 3 }),
];

/// What one campaign leaves behind besides its digests.
struct Run {
    digest: u64,
    model: u64,
    pruned: u64,
    group_visits: u64,
    rebalances: u64,
    admission: AdmissionStats,
    budget_drops: u64,
}

/// A cost table, its servers, the tasks and each task's user class.
type Farm = (CostTable, Vec<ServerSpec>, Vec<TaskInstance>, Vec<u32>);

/// Which farm a row runs on.
#[derive(Clone, Copy)]
enum FarmKind {
    Paper,
    Wide,
    Trace,
    BusyComm2,
    BusyComm100,
}

/// A named transformation of a row's config (churn, admission, …).
type Variant = (&'static str, fn(ExperimentConfig) -> ExperimentConfig);

fn run(label: &str, cfg: ExperimentConfig, farm: &Farm) -> Run {
    let (costs, servers, tasks, users) = farm.clone();
    let mut sim = Simulation::new(GridWorld::new(cfg, costs, servers, tasks).with_users(users));
    sim.run_to_completion();
    let world = sim.into_world();
    assert_eq!(
        world.remaining(),
        0,
        "{label}: every task must end terminal"
    );
    let records = world.records();
    assert!(
        records
            .iter()
            .all(|r| !matches!(r.outcome, TaskOutcome::InFlight)),
        "{label}: a record is left in flight"
    );
    let dropped = |reason: DropReason| {
        records
            .iter()
            .filter(|r| matches!(r.outcome, TaskOutcome::Dropped { reason: d } if d == reason))
            .count() as u64
    };
    let adm = world.admission_stats();
    assert_eq!(
        adm.buffered,
        adm.dequeued + adm.shed_deadline,
        "{label}: buffered != dequeued + shed_deadline"
    );
    assert_eq!(
        dropped(DropReason::AdmissionDeadline),
        adm.shed_deadline + adm.shed_overflow,
        "{label}: admission-deadline drops != shed_deadline + shed_overflow"
    );
    if cfg.admission_capacity > 0 {
        // Under backpressure every crash retraction either re-enters the
        // buffer or spends its re-dispatch budget.
        assert_eq!(
            adm.reentries + dropped(DropReason::RedispatchBudget),
            world.churn_stats().retractions,
            "{label}: reentries + budget drops != retractions"
        );
    } else {
        assert_eq!(
            adm,
            AdmissionStats::default(),
            "{label}: the gate is off but its counters moved"
        );
    }
    Run {
        digest: records_digest(records),
        model: model_digest(records, world.admission_waits(), &adm),
        pruned: world.htm().pruned_queries(),
        group_visits: world.agent().skyline_stats().group_visits,
        rebalances: world.churn_stats().rebalances,
        admission: adm,
        budget_drops: dropped(DropReason::RedispatchBudget),
    }
}

/// Every row of the table, in file order: its label, its config and
/// the farm it runs on.
fn jobs() -> Vec<(String, ExperimentConfig, FarmKind)> {
    let mut out = Vec::new();
    // The full heuristic × selector × sharding matrix, static farm.
    for kind in HeuristicKind::ALL {
        for (sel_name, selector) in SELECTORS {
            for (shard_name, shards) in SHARDINGS {
                let cfg = ExperimentConfig::paper(kind, 99)
                    .with_selector(selector)
                    .with_shards(shards);
                let label = format!("{}/{sel_name}/{shard_name}/static", kind.name());
                out.push((label, cfg, FarmKind::Paper));
            }
        }
    }
    // Churn, admission and both, on the same matrix of sharding modes.
    let variants: [Variant; 3] = [
        ("churn", |c| c.with_churn(400.0, 60.0).with_churn_seed(7)),
        ("admission", |c| c.with_admission(2, 6, 90.0)),
        ("churn+admission", |c| {
            c.with_churn(400.0, 60.0)
                .with_churn_seed(7)
                .with_admission(2, 6, 90.0)
        }),
    ];
    for (variant, apply) in variants {
        for kind in HeuristicKind::ALL {
            for (sel_name, selector) in [SELECTORS[0], SELECTORS[2]] {
                for (shard_name, shards) in SHARDINGS {
                    let cfg = apply(
                        ExperimentConfig::paper(kind, 99)
                            .with_selector(selector)
                            .with_shards(shards),
                    );
                    let label = format!("{}/{sel_name}/{shard_name}/{variant}", kind.name());
                    out.push((label, cfg, FarmKind::Paper));
                }
            }
        }
    }
    // More than 16 shards: the stage-1 walk prunes whole groups.
    for kind in HeuristicKind::PAPER {
        for (sel_name, selector) in [SELECTORS[1], SELECTORS[2]] {
            let cfg = ExperimentConfig::paper(kind, 99)
                .with_selector(selector)
                .with_shards(Sharding::Federated { shards: 20 });
            out.push((
                format!("{}/{sel_name}/fed20/static", kind.name()),
                cfg,
                FarmKind::Wide,
            ));
        }
    }
    // A harsher fault schedule behind the gate with a budget of two
    // dispatches, so crash victims both re-enter the buffer and spend
    // their budget.
    for kind in HeuristicKind::ALL {
        for (sel_name, selector) in [SELECTORS[0], SELECTORS[2]] {
            for (shard_name, shards) in SHARDINGS {
                let mut cfg = ExperimentConfig::paper(kind, 99)
                    .with_selector(selector)
                    .with_shards(shards)
                    .with_churn(150.0, 60.0)
                    .with_churn_seed(7)
                    .with_admission(2, 6, 90.0);
                cfg.redispatch_budget = 2;
                let label = format!(
                    "{}/{sel_name}/{shard_name}/churn+admission+budget",
                    kind.name()
                );
                out.push((label, cfg, FarmKind::Paper));
            }
        }
    }
    // Paths the rows above leave out, each under churn: the shared
    // client link and `ForceFinish` synchronisation behind the gate,
    // and aggregated per-shard reports.
    let variants: [Variant; 3] = [
        ("churn+admission+shared-link", |mut c| {
            c.shared_client_link = true;
            c.with_churn(400.0, 60.0)
                .with_churn_seed(7)
                .with_admission(2, 6, 90.0)
        }),
        ("churn+admission+force-finish", |mut c| {
            c.sync = SyncPolicy::ForceFinish;
            c.with_churn(400.0, 60.0)
                .with_churn_seed(7)
                .with_admission(2, 6, 90.0)
        }),
        ("churn+aggregated", |c| {
            c.with_churn(400.0, 60.0)
                .with_churn_seed(7)
                .with_aggregated_reports(true)
        }),
    ];
    for (variant, apply) in variants {
        let shardings: &[(&str, Sharding)] = if variant == "churn+aggregated" {
            &SHARDINGS[1..]
        } else {
            &SHARDINGS
        };
        for kind in HeuristicKind::ALL {
            for &(shard_name, shards) in shardings {
                let cfg = apply(ExperimentConfig::paper(kind, 99).with_shards(shards));
                let label = format!("{}/exhaustive/{shard_name}/{variant}", kind.name());
                out.push((label, cfg, FarmKind::Paper));
            }
        }
    }
    // The golden trace's three classes behind tight gates: arrivals and
    // deadlines fall on whole seconds, so deadlines tie with arrivals
    // (and, without agent latency, with decisions); under churn crash
    // victims re-enter the buffer.
    let variants: [Variant; 3] = [
        ("trace+admission", |c| c.with_admission(1, 4, 10.0)),
        ("trace+admission/ideal", |c| {
            ExperimentConfig::ideal(c.heuristic, c.seed).with_admission(1, 4, 10.0)
        }),
        ("trace+churn+admission", |c| {
            c.with_churn(150.0, 30.0)
                .with_churn_seed(7)
                .with_admission(2, 4, 20.0)
        }),
    ];
    for (variant, apply) in variants {
        for kind in HeuristicKind::ALL {
            let cfg = apply(ExperimentConfig::paper(kind, 17));
            let label = format!("{}/exhaustive/single/{variant}", kind.name());
            out.push((label, cfg, FarmKind::Trace));
        }
    }
    // The bounded stage-2 heuristics on a busy farm, with a shortlist
    // wide enough that their walks have candidates left to skip.
    let adaptive = SelectorKind::Adaptive {
        k_min: 8,
        k_max: 64,
    };
    let bounded = [
        HeuristicKind::Hmct,
        HeuristicKind::Msf,
        HeuristicKind::MemHmct,
        HeuristicKind::MemMsf,
    ];
    for (farm_name, farm) in [
        ("busy32-comm2", FarmKind::BusyComm2),
        ("busy32-comm100", FarmKind::BusyComm100),
    ] {
        for kind in bounded {
            for (shard_name, shards) in SHARDINGS {
                let cfg = ExperimentConfig::paper(kind, 99)
                    .with_selector(adaptive)
                    .with_shards(shards);
                let label = format!("{}/adaptive:8:64/{shard_name}/{farm_name}", kind.name());
                out.push((label, cfg, farm));
            }
        }
    }
    out
}

/// Runs every job, spread over a few threads (each campaign is
/// deterministic on its own, so the split cannot change a digest).
fn rows() -> Vec<(String, Run)> {
    let farms = [
        paper_farm(100, 1),
        wide_farm(150, 2),
        trace_farm(17),
        busy_farm(250, 0.02, 3),
        busy_farm(250, 1.0, 3),
    ];
    let jobs = jobs();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut runs: Vec<Option<Run>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (t, slots) in runs.chunks_mut(jobs.len().div_ceil(threads)).enumerate() {
            let (jobs, farms) = (&jobs, &farms);
            scope.spawn(move || {
                let first = t * jobs.len().div_ceil(threads);
                for (i, slot) in slots.iter_mut().enumerate() {
                    let (label, cfg, farm) = &jobs[first + i];
                    *slot = Some(run(label, *cfg, &farms[*farm as usize]));
                }
            });
        }
    });
    jobs.into_iter()
        .zip(runs)
        .map(|((label, _, _), r)| (label, r.expect("every job ran")))
        .collect()
}

fn render(rows: &[(String, Run)]) -> String {
    let mut text = String::from(
        "# One campaign per row (tests/golden_digests.rs): label, FNV-1a 64 records digest,\n\
         # FNV-1a 64 model digest.\n",
    );
    for (label, r) in rows {
        text.push_str(&format!("{label} {:016x} {:016x}\n", r.digest, r.model));
    }
    text
}

#[test]
fn campaign_record_digests_match_the_golden_table() {
    let rows = rows();
    for (label, r) in &rows {
        assert!(
            !label.contains("/fed20/") || r.group_visits > 0,
            "{label}: the group walk never ran"
        );
        // The busy-farm rows are there to reach the queue-aware bounds.
        assert!(
            !label.contains("/busy32-") || r.pruned > 0,
            "{label}: no query stopped at its backlog"
        );
    }
    assert!(
        rows.iter()
            .filter(|(label, _)| label.contains("/fed3/churn"))
            .any(|(_, r)| r.rebalances > 0),
        "no churn row rebalanced its federation"
    );
    // The admission invariants above are only as strong as the rows
    // that move their counters.
    let gated: Vec<AdmissionStats> = rows
        .iter()
        .filter(|(label, _)| label.contains("admission"))
        .map(|(_, r)| r.admission)
        .collect();
    assert!(
        gated
            .iter()
            .any(|a| a.shed_deadline > 0 && a.shed_overflow > 0),
        "no admission row shed a task both ways"
    );
    assert!(
        gated.iter().any(|a| a.reentries > 0),
        "no admission row re-entered a crash victim"
    );
    // The re-entry balance above has two terms; some row must move both.
    assert!(
        rows.iter()
            .filter(|(label, _)| label.contains("admission"))
            .any(|(_, r)| r.budget_drops > 0 && r.admission.reentries > 0),
        "no admission row both re-entered a crash victim and dropped one on budget"
    );
    assert!(
        rows.iter()
            .filter(|(label, _)| label.contains("/trace+"))
            .any(|(_, r)| r.admission.shed_deadline > 0 && r.admission.reentries > 0),
        "no multi-class row both shed a task at its deadline and re-entered a crash victim"
    );
    let table = render(&rows);
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let data = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(str::to_owned)
            .collect()
    };
    let (got, want) = (data(&table), data(&expected));
    if got != want {
        let changed: Vec<&String> = got.iter().filter(|l| !want.contains(l)).collect();
        panic!(
            "{} of {} rows differ from {GOLDEN} (first: {:?}); recomputed table:\n{table}",
            changed.len().max(want.len().abs_diff(got.len())),
            got.len(),
            changed.first()
        );
    }
}
