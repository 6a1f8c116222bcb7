//! `casgrid` — command-line front end.
//!
//! ```text
//! casgrid run     --workload wastecpu --heuristic MSF --gap 15 --tasks 500
//! casgrid run     --workload wastecpu --burst 8 --selector topk:2
//! casgrid compare --workload matmul --gap 20 --reps 3 --format csv
//! casgrid list
//! ```
//!
//! `run` executes one experiment and prints the §3 metrics; `compare` runs
//! every paper heuristic (plus any extras via `--heuristics`) on the same
//! metatask and prints the paper-style table including the
//! finish-sooner-than-MCT row. `--burst R` swaps the homogeneous-Poisson
//! metatask for the thinning-sampled inhomogeneous process
//! ([`BurstArrivals`]) with peak/trough ratio `R` at the same mean rate;
//! `--selector` picks the stage-1 candidate-selection backend
//! (`exhaustive`, `topk[:K]`, `adaptive[:MIN:MAX]`). Argument parsing is
//! hand-rolled to keep the dependency set to the sanctioned list.

use casgrid::metrics::prof;
use casgrid::prelude::*;
use casgrid::workload::synthetic::BurstArrivals;
use std::process::ExitCode;
use std::time::Instant;

/// Parses a numeric flag value into a one-line error naming the flag and
/// the accepted form — never the raw `ParseIntError`/`ParseFloatError`
/// text.
fn num_flag<T: std::str::FromStr>(flag: &str, value: &str, expected: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: expected {expected}, got {value:?}"))
}

/// [`num_flag`] plus a range check, failing with the same one-line error.
fn num_flag_where<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let v = num_flag(flag, value, expected)?;
    if valid(&v) {
        Ok(v)
    } else {
        Err(format!("{flag}: expected {expected}, got {value:?}"))
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    heuristic: String,
    heuristics: Option<Vec<String>>,
    gap: f64,
    /// Peak/trough ratio of the bursty arrival process; 1 (default) keeps
    /// the paper's homogeneous-Poisson metatask.
    burst: f64,
    /// Burst period, seconds.
    burst_period: f64,
    selector: String,
    shards: String,
    /// Print the always-on phase profiler's per-phase wall-time table
    /// after the run. Replications fan out over threads as usual: each
    /// one flushes its spans into the process-wide ledger and the table
    /// renders the merged cross-thread view.
    profile: bool,
    /// Mean time between failures per server, seconds; infinite (the
    /// default) freezes the farm.
    mtbf: f64,
    /// Mean time to repair per server, seconds.
    mttr: f64,
    /// Seed of the fault schedule — independent of the workload seed, so
    /// the same schedule can replay against different campaigns.
    churn_seed: u64,
    /// Admission backpressure: "off" (default) or "CAP:BUF:DEADLINE"
    /// (concurrency gate, buffer bound, buffered-wait deadline in
    /// seconds or "inf").
    admission: String,
    tasks: usize,
    seed: u64,
    reps: usize,
    noise: f64,
    format: String,
    memory: bool,
    sync: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: "wastecpu".into(),
            heuristic: "MSF".into(),
            heuristics: None,
            gap: 20.0,
            burst: 1.0,
            burst_period: 1800.0,
            selector: "exhaustive".into(),
            shards: "single".into(),
            profile: false,
            mtbf: f64::INFINITY,
            mttr: 60.0,
            churn_seed: 0,
            admission: "off".into(),
            tasks: 500,
            seed: 1,
            reps: 1,
            noise: 0.03,
            format: "table".into(),
            memory: true,
            sync: false,
        }
    }
}

fn usage() -> &'static str {
    // One literal per line: a `\` line continuation would strip the
    // second column's indentation.
    concat!(
        "casgrid — dynamic heuristics in the client-agent-server model\n",
        "\n",
        "USAGE:\n",
        "casgrid run     [OPTS]   run one experiment, print metrics\n",
        "casgrid compare [OPTS]   run several heuristics on the same metatask\n",
        "casgrid list             list available heuristics and workloads\n",
        "\n",
        "OPTIONS:\n",
        "--workload matmul|wastecpu|synthetic:N|trace:FILE\n",
        "                             workload family        [wastecpu]\n",
        "                             (trace:FILE replays an\n",
        "                             arrival_s,user,duration_s CSV on a\n",
        "                             synthetic farm; `run` only)\n",
        "--heuristic NAME             policy for `run`       [MSF]\n",
        "--heuristics A,B,C           policies for `compare` [MCT,HMCT,MP,MSF]\n",
        "--gap SECONDS                mean inter-arrival gap [20]\n",
        "--burst RATIO                peak/trough ratio of bursty (IPPP\n",
        "                             thinning) arrivals at the same mean\n",
        "                             rate; 1 = homogeneous Poisson  [1]\n",
        "--burst-period SECONDS       burst period           [1800]\n",
        "--selector NAME              stage-1 candidate selection:\n",
        "                             exhaustive | topk[:K] | adaptive[:MIN:MAX]\n",
        "                             [exhaustive]\n",
        "--shards N|auto[:G]          federate the agent across N shards\n",
        "                             (auto picks from the farm size; auto:G\n",
        "                             also sets the skyline tree's shards-\n",
        "                             per-group fan-out; omit for the single-\n",
        "                             agent path; 1 runs the router over one\n",
        "                             shard, bit-identical to the single\n",
        "                             agent)  [single]\n",
        "--profile                    print the always-on phase profiler's\n",
        "                             per-phase wall-time table after the\n",
        "                             run (merged across the threads of\n",
        "                             parallel replications)\n",
        "--mtbf SECONDS               mean time between failures per server\n",
        "                             (exponential); \"inf\" freezes the farm\n",
        "                             [inf]\n",
        "--mttr SECONDS               mean time to repair a crashed server\n",
        "                             (exponential)          [60]\n",
        "--churn-seed N               fault-schedule seed, independent of\n",
        "                             --seed                 [0]\n",
        "--admission CAP:BUF:DEADLINE admission backpressure: at most CAP\n",
        "                             tasks past the gate, BUF buffered\n",
        "                             behind it, each at most DEADLINE\n",
        "                             seconds (\"inf\" = wait forever)\n",
        "                             before being shed; \"off\" disables\n",
        "                             the gate entirely      [off]\n",
        "--tasks N                    metatask size          [500]\n",
        "--seed N                     root seed              [1]\n",
        "--reps N                     replications           [1]\n",
        "--noise SIGMA                speed-noise sigma      [0.03]\n",
        "--format table|csv|json      output format          [table]\n",
        "--no-memory                  disable the memory model\n",
        "--sync                       HTM force-finish synchronisation",
    )
}

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut args = Args::default();
    let cmd = argv.first().cloned().ok_or_else(|| usage().to_string())?;
    let mut i = 1;
    while i < argv.len() {
        let flag = &argv[i];
        let take = |args_i: &mut usize| -> Result<String, String> {
            *args_i += 1;
            argv.get(*args_i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = take(&mut i)?,
            "--heuristic" => args.heuristic = take(&mut i)?,
            "--heuristics" => {
                args.heuristics = Some(
                    take(&mut i)?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--gap" => {
                args.gap = num_flag_where(
                    "--gap",
                    &take(&mut i)?,
                    "a positive, finite number of seconds (e.g. 15)",
                    |g: &f64| *g > 0.0 && g.is_finite(),
                )?
            }
            "--burst" => {
                args.burst = num_flag_where(
                    "--burst",
                    &take(&mut i)?,
                    "a peak/trough RATIO >= 1 (e.g. 8)",
                    |b: &f64| *b >= 1.0,
                )?
            }
            "--burst-period" => {
                args.burst_period = num_flag_where(
                    "--burst-period",
                    &take(&mut i)?,
                    "a positive number of seconds (e.g. 1800)",
                    |p: &f64| *p > 0.0,
                )?
            }
            "--selector" => {
                let v = take(&mut i)?;
                if SelectorKind::parse(&v).is_none() {
                    return Err(format!(
                        "--selector: expected exhaustive | topk[:K] | adaptive[:MIN:MAX], got {v:?}"
                    ));
                }
                args.selector = v;
            }
            "--shards" => {
                let v = take(&mut i)?;
                if !v.eq_ignore_ascii_case("single") && Sharding::parse(&v).is_none() {
                    return Err(format!(
                        "--shards: expected a shard count >= 1, \"auto\" or \"auto:GROUPSIZE\", got {v:?}"
                    ));
                }
                args.shards = v;
            }
            "--profile" => args.profile = true,
            "--mtbf" => {
                args.mtbf = num_flag_where(
                    "--mtbf",
                    &take(&mut i)?,
                    "a positive number of seconds or \"inf\" (e.g. 3600)",
                    |m: &f64| *m > 0.0,
                )?
            }
            "--mttr" => {
                args.mttr = num_flag_where(
                    "--mttr",
                    &take(&mut i)?,
                    "a positive, finite number of seconds (e.g. 60)",
                    |m: &f64| *m > 0.0 && m.is_finite(),
                )?
            }
            "--churn-seed" => {
                args.churn_seed = num_flag(
                    "--churn-seed",
                    &take(&mut i)?,
                    "a non-negative integer (e.g. 42)",
                )?
            }
            "--admission" => {
                let v = take(&mut i)?;
                if parse_admission(&v).is_none() {
                    return Err(format!(
                        "--admission: expected CAP:BUF:DEADLINE (CAP >= 1, deadline in seconds or \"inf\", e.g. 8:64:120) or \"off\", got {v:?}"
                    ));
                }
                args.admission = v;
            }
            "--tasks" => {
                args.tasks = num_flag("--tasks", &take(&mut i)?, "a positive integer (e.g. 500)")?
            }
            "--seed" => {
                args.seed = num_flag("--seed", &take(&mut i)?, "a non-negative integer (e.g. 1)")?
            }
            "--reps" => {
                args.reps = num_flag_where(
                    "--reps",
                    &take(&mut i)?,
                    "a positive integer (e.g. 3)",
                    |r: &usize| *r >= 1,
                )?
            }
            "--noise" => {
                args.noise = num_flag_where(
                    "--noise",
                    &take(&mut i)?,
                    "a finite sigma >= 0 (e.g. 0.03)",
                    |n: &f64| *n >= 0.0 && n.is_finite(),
                )?
            }
            "--format" => args.format = take(&mut i)?,
            "--no-memory" => args.memory = false,
            "--sync" => args.sync = true,
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
        i += 1;
    }
    Ok((cmd, args))
}

/// Parses the `--admission` grammar: "off" or "CAP:BUF:DEADLINE" with
/// CAP ≥ 1 and a positive deadline in seconds ("inf" = wait forever).
fn parse_admission(s: &str) -> Option<(usize, usize, f64)> {
    if s.eq_ignore_ascii_case("off") {
        return Some((0, 0, f64::INFINITY));
    }
    let mut it = s.split(':');
    let cap = it.next()?.parse::<usize>().ok().filter(|&c| c >= 1)?;
    let buf = it.next()?.parse::<usize>().ok()?;
    let d = it.next()?;
    let deadline = if d.eq_ignore_ascii_case("inf") {
        f64::INFINITY
    } else {
        d.parse::<f64>().ok().filter(|&x| x > 0.0 && !x.is_nan())?
    };
    if it.next().is_some() {
        return None;
    }
    Some((cap, buf, deadline))
}

fn workload_of(args: &Args) -> Result<(CostTable, Vec<ServerSpec>), String> {
    match args.workload.as_str() {
        "matmul" => Ok((
            casgrid::workload::matmul::cost_table(),
            casgrid::workload::testbed::set1_servers(),
        )),
        "wastecpu" => Ok((
            casgrid::workload::wastecpu::cost_table(),
            casgrid::workload::testbed::set2_servers(),
        )),
        // `synthetic:N` — the bench farm at N servers, for driving the
        // shard federation at sizes the paper testbeds can't reach.
        other => {
            if let Some(n) = other
                .get(..10)
                .filter(|p| p.eq_ignore_ascii_case("synthetic:"))
                .and(other.get(10..))
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 1)
            {
                let platform = casgrid::workload::synthetic::SyntheticPlatform {
                    n_servers: n,
                    ..Default::default()
                };
                return Ok((platform.cost_table(args.seed), platform.servers(args.seed)));
            }
            Err(format!(
                "unknown workload {other} (matmul|wastecpu|synthetic:N|trace:FILE)"
            ))
        }
    }
}

fn config_of(args: &Args, kind: HeuristicKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(kind, args.seed);
    cfg.noise_sigma = args.noise;
    cfg.selector = SelectorKind::parse(&args.selector).expect("validated at parse time");
    cfg.shards = if args.shards.eq_ignore_ascii_case("single") {
        Sharding::Single
    } else {
        Sharding::parse(&args.shards).expect("validated at parse time")
    };
    if !args.memory {
        cfg.memory = MemoryModel::disabled();
    }
    if args.sync {
        cfg.sync = SyncPolicy::ForceFinish;
    }
    let (cap, buf, deadline) = parse_admission(&args.admission).expect("validated at parse time");
    cfg.with_churn(args.mtbf, args.mttr)
        .with_churn_seed(args.churn_seed)
        .with_admission(cap, buf, deadline)
}

/// The metatask: the paper's homogeneous-Poisson process by default, or
/// the thinning-sampled bursty process at the same mean rate when
/// `--burst` exceeds 1.
fn tasks_of(args: &Args, costs: &CostTable) -> Vec<TaskInstance> {
    if args.burst > 1.0 {
        // Hold the mean rate at 1/gap: base + peak = 2 · mean.
        let base_rate = 2.0 / (args.gap * (1.0 + args.burst));
        BurstArrivals {
            n_tasks: args.tasks,
            base_rate,
            peak_rate: args.burst * base_rate,
            period: args.burst_period,
            n_problems: costs.n_problems(),
        }
        .generate(args.seed)
    } else {
        MetataskSpec {
            n_tasks: args.tasks,
            ..MetataskSpec::paper(args.gap)
        }
        .generate(args.seed)
    }
}

fn emit(table: &Table, format: &str) -> Result<(), String> {
    match format {
        "table" => print!("{}", table.render()),
        "csv" => print!("{}", casgrid::metrics::render_csv(table)),
        "json" => println!("{}", table.to_json()),
        other => return Err(format!("unknown format {other} (table|csv|json)")),
    }
    Ok(())
}

/// Replays a CSV trace end to end: compiles it onto the synthetic
/// demand-ladder farm, runs one campaign per replication (seed + rep)
/// through the admission gate, and prints the paper metrics plus the
/// per-user-class SLO table (p50/p99 stretch, drop rate, buffered
/// time) of the first replication.
fn cmd_run_trace(args: &Args, path: &str, kind: HeuristicKind) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--workload trace:{path}: cannot read file ({e})"))?;
    let mut trace = CsvTrace::parse(&text).map_err(|e| format!("--workload trace:{path}: {e}"))?;
    let compiled = TraceWorkload::default()
        .compile(&mut trace, args.seed)
        .map_err(|e| format!("--workload trace:{path}: {e}"))?;
    let base = config_of(args, kind);
    let mut runs = Vec::with_capacity(args.reps);
    let mut first_slo: Option<Vec<ClassSlo>> = None;
    for rep in 0..args.reps.max(1) {
        let cfg = base.with_seed(args.seed + rep as u64);
        let (records, stats, waits) = run_experiment_with_users(
            cfg,
            compiled.costs.clone(),
            compiled.servers.clone(),
            compiled.tasks.clone(),
            compiled.users.clone(),
        );
        if first_slo.is_none() {
            let _ = stats;
            first_slo = Some(per_class_slo(&records, &compiled.users, &waits));
        }
        runs.push(records);
    }
    let mut table = Table::new(
        format!(
            "{} on trace:{} ({} tasks, {} class(es), admission {}, shards {}, {} rep(s))",
            kind.name(),
            path,
            compiled.tasks.len(),
            first_slo.as_ref().map_or(0, |s| s.len()),
            args.admission,
            args.shards,
            args.reps
        ),
        vec!["mean".into(), "min".into(), "max".into()],
    );
    for metric in MetricSet::PAPER_ROWS {
        let vals: Vec<f64> = runs
            .iter()
            .filter_map(|r| MetricSet::compute(r).by_name(metric))
            .collect();
        if let Some(s) = Summary::of(&vals) {
            table.push_row_f64(metric, &[s.mean, s.min, s.max], 1);
        }
    }
    emit(&table, &args.format)?;
    let slo = first_slo.expect("at least one replication ran");
    let mut slo_table = Table::new(
        format!("per-user-class SLOs (seed {})", args.seed),
        vec![
            "tasks".into(),
            "completed".into(),
            "drop %".into(),
            "p50 stretch".into(),
            "p99 stretch".into(),
            "buffered s".into(),
        ],
    );
    for class in &slo {
        slo_table.push_row_f64(
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
    emit(&slo_table, &args.format)
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let kind = HeuristicKind::parse(&args.heuristic)
        .ok_or_else(|| format!("unknown heuristic {}", args.heuristic))?;
    if let Some(path) = args.workload.strip_prefix("trace:") {
        return cmd_run_trace(args, path, kind);
    }
    let (costs, servers) = workload_of(args)?;
    let tasks = tasks_of(args, &costs);
    let workloads: Vec<_> = (0..args.reps).map(|_| tasks.clone()).collect();
    // `--profile` renders the merged cross-thread view: the runner
    // flushes each replication's spans into the process-wide ledger
    // from whichever thread ran it, so the replications fan out
    // in parallel exactly as an unprofiled run would.
    let (runs, profiled) = if args.profile {
        prof::reset();
        prof::reset_merged();
        let t0 = Instant::now();
        let runs = run_replications(config_of(args, kind), &costs, &servers, &workloads);
        let wall_s = t0.elapsed().as_secs_f64();
        (runs, Some((prof::merged_snapshot(), wall_s)))
    } else {
        (
            run_replications(config_of(args, kind), &costs, &servers, &workloads),
            None,
        )
    };
    let mut table = Table::new(
        format!(
            "{} on {} ({} tasks, gap {} s, burst {}x, selector {}, shards {}, {} rep(s))",
            kind.name(),
            args.workload,
            args.tasks,
            args.gap,
            args.burst,
            args.selector,
            args.shards,
            args.reps
        ),
        vec!["mean".into(), "min".into(), "max".into()],
    );
    for metric in MetricSet::PAPER_ROWS {
        let vals: Vec<f64> = runs
            .iter()
            .filter_map(|r| MetricSet::compute(r).by_name(metric))
            .collect();
        let s = Summary::of(&vals).expect("at least one rep");
        table.push_row_f64(metric, &[s.mean, s.min, s.max], 1);
    }
    emit(&table, &args.format)?;
    if let Some((totals, wall_s)) = profiled {
        print!(
            "\nphase profile over {wall_s:.3} s wall:\n{}",
            prof::render_profile_table(&totals, wall_s)
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    if args.profile {
        return Err("--profile: supported by `run` only (one campaign, one table)".into());
    }
    if args.workload.starts_with("trace:") {
        return Err(
            "--workload trace:FILE: supported by `run` only (a trace binds its own farm)".into(),
        );
    }
    let names = args
        .heuristics
        .clone()
        .unwrap_or_else(|| vec!["MCT".into(), "HMCT".into(), "MP".into(), "MSF".into()]);
    let kinds: Vec<HeuristicKind> = names
        .iter()
        .map(|n| HeuristicKind::parse(n).ok_or_else(|| format!("unknown heuristic {n}")))
        .collect::<Result<_, _>>()?;
    let (costs, servers) = workload_of(args)?;
    let tasks = tasks_of(args, &costs);
    let workloads: Vec<_> = (0..args.reps).map(|_| tasks.clone()).collect();
    let results = run_heuristic_matrix(
        config_of(args, kinds[0]),
        &kinds,
        &costs,
        &servers,
        &workloads,
    );
    let mut table = Table::new(
        format!(
            "{} tasks on {}, gap {} s, burst {}x, selector {}, shards {}, {} rep(s)",
            args.tasks, args.workload, args.gap, args.burst, args.selector, args.shards, args.reps
        ),
        names.clone(),
    );
    for metric in MetricSet::PAPER_ROWS {
        let row: Vec<f64> = results.iter().map(|r| r.mean_metric(metric)).collect();
        table.push_row_f64(metric, &row, 1);
    }
    // Finish-sooner row against the first heuristic (MCT by default).
    let baseline = &results[0];
    let sooner: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i == 0 {
                "-".into()
            } else {
                let counts: Vec<f64> = r
                    .runs
                    .iter()
                    .zip(&baseline.runs)
                    .map(|(c, b)| finish_sooner_count(c, b) as f64)
                    .collect();
                format!("{:.0}", counts.iter().sum::<f64>() / counts.len() as f64)
            }
        })
        .collect();
    table.push_row(format!("sooner than {}", names[0]), sooner);
    emit(&table, &args.format)
}

fn cmd_list() {
    println!("heuristics:");
    for k in HeuristicKind::ALL {
        println!("  {:8} (HTM: {})", k.name(), k.build().uses_htm());
    }
    println!("\nworkloads:\n  matmul    Table 3, servers chamagne/cabestan/artimon/pulney");
    println!("  wastecpu  Table 4, servers valette/spinnaker/cabestan/artimon");
    println!("  synthetic:N  the bench farm at N servers (federation scale)");
    println!(
        "  trace:FILE   replay an arrival_s,user,duration_s CSV on the\n  \
         \x20          synthetic demand-ladder farm (per-class SLOs;\n  \
         \x20          pair with --admission for backpressure; run only)"
    );
    println!(
        "\nselectors (stage-1 candidate pruning):\n  \
         exhaustive        every solver gets an HTM query (paper behaviour)\n  \
         topk[:K]          K best by stage-1 score               [K=16]\n  \
         adaptive[:MIN:MAX] self-adjusting width: near-tie, regret and\n  \
                    completed-task stretch driven"
    );
    println!(
        "\nsharding (--shards):\n  \
         single (default)  one agent owns the whole farm (the paper)\n  \
         N | auto[:G]      partition the farm across N per-shard engines\n  \
                    behind the deterministic router; auto picks from\n  \
                    the farm size, auto:G overrides the skyline tree's\n  \
                    shards-per-group fan-out (default 16);\n  \
                    --shards 1 is bit-identical to single"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = match parse(&argv) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "list" => {
            cmd_list();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let (cmd, args) = parse(&argv("run")).unwrap();
        assert_eq!(cmd, "run");
        assert_eq!(args.workload, "wastecpu");
        assert_eq!(args.gap, 20.0);
        assert_eq!(args.burst, 1.0);
        assert_eq!(args.selector, "exhaustive");
        assert_eq!(args.tasks, 500);
        assert!(args.memory);
        assert!(!args.sync);
    }

    #[test]
    fn parse_full_flag_set() {
        let (cmd, args) = parse(&argv(
            "compare --workload matmul --heuristics MCT,MSF --gap 15 --tasks 100 \
             --seed 7 --reps 2 --noise 0.1 --format csv --no-memory --sync \
             --burst 8 --burst-period 600 --selector topk:4",
        ))
        .unwrap();
        assert_eq!(cmd, "compare");
        assert_eq!(args.workload, "matmul");
        assert_eq!(args.heuristics, Some(vec!["MCT".into(), "MSF".into()]));
        assert_eq!(args.gap, 15.0);
        assert_eq!(args.tasks, 100);
        assert_eq!(args.seed, 7);
        assert_eq!(args.reps, 2);
        assert_eq!(args.noise, 0.1);
        assert_eq!(args.format, "csv");
        assert!(!args.memory);
        assert!(args.sync);
        assert_eq!(args.burst, 8.0);
        assert_eq!(args.burst_period, 600.0);
        assert_eq!(args.selector, "topk:4");
    }

    #[test]
    fn parse_rejects_bad_burst_and_selector() {
        assert!(parse(&argv("run --burst 0.5")).is_err());
        assert!(parse(&argv("run --burst-period 0")).is_err());
        assert!(parse(&argv("run --selector nope")).is_err());
        assert!(parse(&argv("run --selector topk:0")).is_err());
        // The retired runner knob is gone for good.
        assert!(parse(&argv("run --workers 3")).is_err());
    }

    /// The retired executable-spec flags are gone: each takes the
    /// standard unknown-flag path (first line names the flag, usage
    /// follows) instead of parsing or panicking.
    #[test]
    fn retired_spec_flags_are_rejected() {
        for (cmdline, flag) in [
            ("run --stage2 fast", "--stage2"),
            ("run --rankings btree", "--rankings"),
            ("run --skyline off", "--skyline"),
            ("run --index-scoring count", "--index-scoring"),
        ] {
            let err = parse(&argv(cmdline)).unwrap_err();
            assert_eq!(
                err.lines().next(),
                Some(format!("unknown flag {flag}").as_str()),
                "{cmdline}: {err}"
            );
            assert!(err.contains("USAGE:"), "{cmdline}: {err}");
            assert!(!usage().contains(flag), "{flag} still documented");
        }
    }

    #[test]
    fn parse_shards_flag() {
        let (_, args) = parse(&argv("run --shards auto")).unwrap();
        assert_eq!(args.shards, "auto");
        let cfg = config_of(&args, HeuristicKind::Hmct);
        assert_eq!(cfg.shards, Sharding::AUTO);
        let (_, args) = parse(&argv("run --shards auto:4")).unwrap();
        assert_eq!(
            config_of(&args, HeuristicKind::Hmct).shards,
            Sharding::Auto {
                group_size: Some(4)
            }
        );
        let (_, args) = parse(&argv("run --shards 4")).unwrap();
        assert_eq!(
            config_of(&args, HeuristicKind::Hmct).shards,
            Sharding::Federated { shards: 4 }
        );
        let (_, args) = parse(&argv("run")).unwrap();
        assert_eq!(
            config_of(&args, HeuristicKind::Hmct).shards,
            Sharding::Single
        );
        assert!(parse(&argv("run --shards 0")).is_err());
        assert!(parse(&argv("run --shards sideways")).is_err());
        assert!(parse(&argv("run --shards auto:0")).is_err());
        assert!(parse(&argv("run --shards auto:big")).is_err());
    }

    #[test]
    fn parse_profile_flag() {
        let (_, args) = parse(&argv("run")).unwrap();
        assert!(!args.profile);
        let (_, args) = parse(&argv("run --profile")).unwrap();
        assert!(args.profile);
        // `--profile` is `run`-only: compare fans replications out across
        // threads, away from the measuring thread.
        let (_, args) = parse(&argv("compare --profile --tasks 5")).unwrap();
        let err = cmd_compare(&args).unwrap_err();
        assert!(err.starts_with("--profile"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
    }

    /// `casgrid run --profile` must execute end to end and leave live
    /// span counts behind: the profiler is always on, so a tiny campaign
    /// already closes stage-1, stage-2, commit and kernel spans. With
    /// the replications fanned out over threads, the counts land in the
    /// merged cross-thread view (each replication flushes its thread's
    /// spans into the process-wide ledger).
    #[test]
    fn profile_run_end_to_end_leaves_live_phases() {
        let (_, mut args) = parse(&argv("run --tasks 5 --reps 2 --profile")).unwrap();
        args.heuristic = "HMCT".into();
        prof::reset();
        assert!(cmd_run(&args).is_ok());
        let totals = prof::merged_snapshot();
        for phase in [
            prof::Phase::Stage1Walk,
            prof::Phase::Stage2Predict,
            prof::Phase::CommitHooks,
            prof::Phase::KernelPop,
        ] {
            assert!(
                totals.count_of(phase) > 0,
                "{} closed no spans",
                phase.name()
            );
        }
    }

    /// `--workload synthetic:N` builds the bench farm at N servers — the
    /// only workload family big enough for `--shards auto` to resolve to
    /// a real federation from the CLI.
    #[test]
    fn synthetic_workload_scales_the_farm() {
        let (_, args) = parse(&argv("run --workload synthetic:1500 --shards auto")).unwrap();
        let (costs, servers) = workload_of(&args).unwrap();
        assert_eq!(servers.len(), 1500);
        assert_eq!(costs.n_servers(), 1500);
        assert_eq!(Sharding::AUTO.resolve(1500), Some(3));
        for bad in ["synthetic:", "synthetic:0", "synthetic:x", "synth"] {
            let (_, mut args) = parse(&argv("run")).unwrap();
            args.workload = bad.into();
            let err = workload_of(&args).unwrap_err();
            assert!(err.contains("synthetic:N"), "{bad}: {err}");
        }
    }

    /// Flag parse failures must name the flag and the accepted forms —
    /// one line, no raw `ParseIntError`/`ParseFloatError` text.
    #[test]
    fn parse_errors_name_flag_and_accepted_forms() {
        for (cmdline, flag) in [
            ("run --tasks many", "--tasks"),
            ("run --seed x", "--seed"),
            ("run --reps -2", "--reps"),
            ("run --gap fast", "--gap"),
            ("run --noise loud", "--noise"),
            ("run --burst 0.2", "--burst"),
            ("run --burst-period -5", "--burst-period"),
            ("run --shards none", "--shards"),
            ("run --shards auto:", "--shards"),
            ("run --selector best", "--selector"),
            ("run --mtbf sometimes", "--mtbf"),
            ("run --mtbf 0", "--mtbf"),
            ("run --mtbf -100", "--mtbf"),
            ("run --mttr inf", "--mttr"),
            ("run --mttr 0", "--mttr"),
            ("run --mttr soon", "--mttr"),
            ("run --churn-seed x", "--churn-seed"),
            ("run --churn-seed -1", "--churn-seed"),
            ("run --gap 0", "--gap"),
            ("run --gap -5", "--gap"),
            ("run --noise -1", "--noise"),
            ("run --reps 0", "--reps"),
        ] {
            let err = parse(&argv(cmdline)).unwrap_err();
            assert!(err.starts_with(flag), "{cmdline}: {err}");
            assert!(err.contains("expected"), "{cmdline}: {err}");
            assert!(
                !err.contains("invalid digit") && !err.contains("invalid float"),
                "{cmdline} leaked a raw parse error: {err}"
            );
            assert_eq!(err.lines().count(), 1, "{cmdline}: {err}");
        }
    }

    /// Continuation lines of the help text stay in the second column,
    /// level with the descriptions that follow a flag on its own line.
    #[test]
    fn usage_continuation_lines_keep_their_indent() {
        let column = |needle: &str| {
            usage()
                .lines()
                .find_map(|line| line.find(needle))
                .unwrap_or_else(|| panic!("{needle:?} missing from usage"))
        };
        assert!(column("workload family") > 0);
        assert_eq!(column("workload family"), column("policy for `run`"));
    }

    #[test]
    fn parse_churn_flags() {
        let (_, args) = parse(&argv("run")).unwrap();
        assert!(args.mtbf.is_infinite());
        assert_eq!(args.mttr, 60.0);
        assert_eq!(args.churn_seed, 0);
        assert!(
            !config_of(&args, HeuristicKind::Hmct)
                .churn_model()
                .enabled(),
            "the default farm is frozen"
        );
        let (_, args) = parse(&argv("run --mtbf 3600 --mttr 120 --churn-seed 42")).unwrap();
        assert_eq!(args.mtbf, 3600.0);
        assert_eq!(args.mttr, 120.0);
        assert_eq!(args.churn_seed, 42);
        let cfg = config_of(&args, HeuristicKind::Hmct);
        assert!(cfg.churn_model().enabled());
        assert_eq!(cfg.churn_seed, 42);
        // "inf" is the explicit spelling of the frozen default.
        let (_, args) = parse(&argv("run --mtbf inf")).unwrap();
        assert!(args.mtbf.is_infinite());
        assert!(parse(&argv("run --mtbf")).is_err());
        assert!(parse(&argv("run --mttr")).is_err());
        assert!(parse(&argv("run --churn-seed")).is_err());
    }

    #[test]
    fn parse_admission_flag() {
        let (_, args) = parse(&argv("run")).unwrap();
        assert_eq!(args.admission, "off");
        assert!(!config_of(&args, HeuristicKind::Hmct).admission_enabled());
        let (_, args) = parse(&argv("run --admission 8:64:120")).unwrap();
        let cfg = config_of(&args, HeuristicKind::Hmct);
        assert!(cfg.admission_enabled());
        assert_eq!(cfg.admission_capacity, 8);
        assert_eq!(cfg.admission_buffer, 64);
        assert_eq!(cfg.admission_deadline, 120.0);
        let (_, args) = parse(&argv("run --admission 4:16:inf")).unwrap();
        assert!(config_of(&args, HeuristicKind::Hmct)
            .admission_deadline
            .is_infinite());
        let (_, args) = parse(&argv("run --admission OFF")).unwrap();
        assert!(!config_of(&args, HeuristicKind::Hmct).admission_enabled());
        for bad in [
            "run --admission 8:64",
            "run --admission 8:64:120:7",
            "run --admission 0:64:120",
            "run --admission 8:64:0",
            "run --admission 8:64:-5",
            "run --admission lots",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert!(err.starts_with("--admission"), "{bad}: {err}");
            assert!(err.contains("expected"), "{bad}: {err}");
            assert_eq!(err.lines().count(), 1, "{bad}: {err}");
        }
        assert!(parse(&argv("run --admission")).is_err());
    }

    const GOLDEN: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/workload/fixtures/golden_trace.csv"
    );

    /// `casgrid run --workload trace:FILE --admission ...` replays the
    /// golden fixture end to end; `compare` rejects trace workloads
    /// with a one-line error; a missing file names the path.
    #[test]
    fn trace_workload_runs_end_to_end_and_compare_rejects_it() {
        let (_, mut args) =
            parse(&argv("run --admission 2:4:25 --heuristic HMCT --reps 2")).unwrap();
        args.workload = format!("trace:{GOLDEN}");
        assert!(cmd_run(&args).is_ok());
        let err = cmd_compare(&args).unwrap_err();
        assert!(err.starts_with("--workload trace:"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
        args.workload = "trace:/does/not/exist.csv".into();
        let err = cmd_run(&args).unwrap_err();
        assert!(err.contains("/does/not/exist.csv"), "{err}");
    }

    #[test]
    fn burst_tasks_share_mean_rate_with_metatask() {
        let (_, mut args) = parse(&argv("run --tasks 400 --gap 10")).unwrap();
        let (costs, _) = workload_of(&args).unwrap();
        args.burst = 6.0;
        let bursty = tasks_of(&args, &costs);
        assert_eq!(bursty.len(), 400);
        let span = bursty.last().unwrap().arrival.as_secs();
        let mean_gap = span / bursty.len() as f64;
        assert!(
            (mean_gap - 10.0).abs() < 2.0,
            "bursty mean gap drifted: {mean_gap}"
        );
        args.burst = 1.0;
        assert_eq!(tasks_of(&args, &costs).len(), 400);
    }

    #[test]
    fn parse_rejects_unknown_flag() {
        assert!(parse(&argv("run --bogus 1")).is_err());
    }

    #[test]
    fn parse_rejects_missing_value() {
        assert!(parse(&argv("run --gap")).is_err());
    }

    #[test]
    fn parse_rejects_bad_number() {
        assert!(parse(&argv("run --tasks many")).is_err());
    }

    #[test]
    fn workload_and_config_resolution() {
        let (_, mut args) = parse(&argv("run --workload matmul")).unwrap();
        assert!(workload_of(&args).is_ok());
        args.workload = "nope".into();
        assert!(workload_of(&args).is_err());
        args.workload = "wastecpu".into();
        args.sync = true;
        args.memory = false;
        let cfg = config_of(&args, HeuristicKind::Msf);
        assert_eq!(cfg.sync, SyncPolicy::ForceFinish);
        assert!(!cfg.memory.enabled);
    }

    #[test]
    fn tiny_end_to_end_run() {
        let (_, mut args) = parse(&argv("run --tasks 5 --reps 1")).unwrap();
        args.heuristic = "MSF".into();
        assert!(cmd_run(&args).is_ok());
    }
}
