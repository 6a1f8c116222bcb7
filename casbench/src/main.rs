//! casbench: one command, four workloads, end-to-end and per-layer
//! metrics for the client-agent-server decision stack.
//!
//! ```text
//! casbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//!          [--smoke]
//! casbench compare A.jsonl B.jsonl
//! ```
//!
//! Each workload runs in a fresh child process of this binary, which
//! repeats generate → build → simulate → check reps until `--seconds`
//! have passed (and at least three reps ran) and reports per-metric
//! medians over its reps; decision latencies are percentiles over each
//! decision's median time across the reps. The last line of standard
//! output is one JSON object with the end-to-end metrics, or with the
//! per-layer metrics under `--trace 1`. See README.md for the workloads, the metrics and
//! how to compare two builds.

mod json;
mod metrics;
mod probe;
mod stats;
mod workloads;

use json::{quote, Json};
use metrics::{medians, per_layer, Values, END_TO_END};
use probe::{run_rep, Rep};
use stats::{median, per_decision_median, quartiles, Latency};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::{Workload, SMOKE_SCALE};

const USAGE: &str = "usage: casbench [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--json FILE] [--smoke]\n       \
                     casbench compare A.jsonl B.jsonl";

/// Reps every run makes at least, so `setup_s` and the other medians
/// always come from several set-ups.
const MIN_REPS: usize = 3;

/// Default measuring time, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => run_main(&args),
    };
    if let Err(e) = result {
        eprintln!("casbench: {e}");
        std::process::exit(1);
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<String>,
    scale: f64,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        json: None,
        scale: 1.0,
    };
    let (mut seconds, mut smoke) = (None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads.push(Workload::parse(v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds wants a number >= 0, got {v:?}"))?,
                );
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--json" => a.json = Some(value()?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    if smoke {
        // As short as the minimum rep count allows, unless told otherwise.
        a.scale = SMOKE_SCALE;
        a.seconds = seconds.unwrap_or(0.0);
    } else {
        a.seconds = seconds.unwrap_or(DEFAULT_SECONDS);
    }
    Ok(a)
}

/// Runs each workload in a child process, prints its metrics and, last,
/// the JSON result line.
fn run_main(args: &[String]) -> Result<(), String> {
    let a = parse_run(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut results = Vec::new();
    for &w in &a.workloads {
        let out = Command::new(&exe)
            .args([
                "child",
                w.name(),
                &a.seed.to_string(),
                &a.seconds.to_string(),
                if a.traced { "1" } else { "0" },
                &a.scale.to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        if !out.status.success() {
            return Err(format!("workload {} failed ({})", w.name(), out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("workload {} printed nothing", w.name()))?
            .to_string();
        let result =
            Json::parse(&line).map_err(|e| format!("{}: bad child output: {e}", w.name()))?;
        print_run(&result);
        if let Some(path) = &a.json {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))?;
        }
        results.push((w, result));
    }

    let (section, defs): (&str, Vec<(String, &str)>) = if a.traced {
        ("per_layer", per_layer())
    } else {
        ("metrics", e2e_defs())
    };
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut fields = Vec::new();
    for (w, r) in &results {
        attempted += r.get("attempted").and_then(Json::num).unwrap_or(0.0);
        failed += r.get("failed").and_then(Json::num).unwrap_or(0.0);
        for (name, unit) in &defs {
            let value = r
                .get(section)
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::num)
                .ok_or_else(|| format!("{}: no value for {name}", w.name()))?;
            let key = if results.len() == 1 {
                name.clone()
            } else {
                format!("{}.{name}", w.name())
            };
            fields.push(metric_field(&key, value, unit));
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

/// Human-readable report of one child's result.
fn print_run(r: &Json) {
    let s = |k: &str| r.get(k).and_then(Json::str).unwrap_or("?").to_string();
    let n = |k: &str| r.get(k).and_then(Json::num).unwrap_or(f64::NAN);
    println!(
        "{}: seed {}, {} reps x {} tasks, {} events/rep, records digest {}",
        s("workload"),
        n("seed"),
        n("reps"),
        n("tasks_per_rep"),
        n("events_per_rep"),
        s("digest"),
    );
    for (section, defs) in [("metrics", e2e_defs()), ("per_layer", per_layer())] {
        let Some(m) = r.get(section) else {
            continue;
        };
        for (name, unit) in defs {
            let value = m
                .get(&name)
                .and_then(|v| v.get("value"))
                .and_then(Json::num)
                .unwrap_or(f64::NAN);
            let note = if name.starts_with("decision_") {
                format!(
                    "  (over {} decisions, each its median over the reps)",
                    n("decision_samples")
                )
            } else {
                String::new()
            };
            println!("  {name:<34} {value:>16.4} {unit}{note}");
        }
    }
}

/// One `"name": {"value": v, "unit": "u"}` member of a metrics object.
fn metric_field(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        quote(name),
        quote(unit)
    )
}

fn e2e_defs() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// `child WORKLOAD SEED SECONDS TRACED SCALE`: measures one workload in
/// this fresh process and prints its result as one JSON line.
fn child_main(args: &[String]) -> Result<(), String> {
    let [w, seed, seconds, traced, scale] = args else {
        return Err(format!("child wants 5 arguments, got {args:?}"));
    };
    let w = Workload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?;
    let bad = |what: &str| format!("child: bad {what}");
    let seed: u64 = seed.parse().map_err(|_| bad("seed"))?;
    let seconds: f64 = seconds.parse().map_err(|_| bad("seconds"))?;
    let scale: f64 = scale.parse().map_err(|_| bad("scale"))?;
    println!("{}", measure(w, seed, seconds, traced == "1", scale)?);
    Ok(())
}

/// Repeats reps until `seconds` have passed and [`MIN_REPS`] ran, checks
/// that every rep produced the same records, and returns the result
/// line: per-metric medians over the reps plus the run's identity.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
) -> Result<String, String> {
    let start = Instant::now();
    let (mut plain, mut with_trace): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = None;
    while plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        plain.push(run_rep(w, seed, scale, false)?);
        // The peak of one campaign in a fresh process: later reps only
        // add allocator fragmentation, which varies from run to run.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(probe::peak_rss_mb()?);
        }
        if traced {
            with_trace.push(run_rep(w, seed, scale, true)?);
        }
    }
    let first = &plain[0];
    for (i, r) in plain.iter().chain(&with_trace).enumerate() {
        if (r.digest, r.events) != (first.digest, first.events) {
            return Err(format!(
                "{}: rep {i} is not deterministic: digest {:#018x} after {} events, rep 0 \
                 {:#018x} after {}",
                w.name(),
                r.digest,
                r.events,
                first.digest,
                first.events
            ));
        }
    }

    let decisions: Vec<&[u32]> = plain.iter().map(|r| r.decisions_ns.as_slice()).collect();
    let latency = per_decision_median(&decisions)
        .and_then(|ns| Latency::of_nanos(&ns))
        .ok_or_else(|| {
            format!(
                "{}: reps timed no decisions or different numbers of them",
                w.name()
            )
        })?;
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();

    let values = |reps: &[Rep], pick: fn(&Rep) -> &Values| {
        medians(&reps.iter().map(pick).collect::<Vec<_>>())
    };
    let mut e2e = values(&plain, |r| &r.e2e);
    e2e.insert("decision_p50_us".into(), latency.p50_us);
    e2e.insert("decision_p99_us".into(), latency.p99_us);
    e2e.insert("setup_s".into(), median(&setups));
    e2e.insert(
        "peak_rss_mb".into(),
        peak_rss_mb.expect("at least one rep ran"),
    );
    let mut layers = Values::new();
    if traced {
        layers = values(&with_trace, |r| &r.layers);
        let med =
            |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let plain_run = med(&plain, |r| r.run_s);
        layers.insert(
            "trace.overhead_pct".into(),
            100.0 * (med(&with_trace, |r| r.run_s) / plain_run - 1.0),
        );
        layers.insert(
            "pool.cpu_over_wall".into(),
            med(&plain, |r| r.cpu_s) / plain_run,
        );
    }

    let section = |values: &Values, defs: &[(String, &str)]| -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in defs {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{}: {name} not measured", w.name()))?;
            fields.push(metric_field(name, v, unit));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    };
    let metrics = section(&e2e, &e2e_defs())?;
    let per_layer = if traced {
        format!(", \"per_layer\": {}", section(&layers, &per_layer())?)
    } else {
        String::new()
    };
    let reps = plain.len() + with_trace.len();
    let all = plain.iter().chain(&with_trace);
    let attempted: usize = all.clone().map(|r| r.n_tasks).sum();
    let failed: u64 = all.map(|r| r.failed).sum();
    Ok(format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"scale\": {scale}, \"seconds\": {seconds}, \
         \"traced\": {traced}, \"reps\": {reps}, \"tasks_per_rep\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"digest\": \"{:#018x}\", \
         \"events_per_rep\": {}, \"decision_samples\": {}, \"metrics\": {metrics}{per_layer}}}",
        quote(w.name()),
        first.n_tasks,
        first.digest,
        first.events,
        latency.samples,
    ))
}

/// `compare A.jsonl B.jsonl`: per workload and end-to-end metric, both
/// sides' medians and quartiles over the runs each file holds, with
/// every metric whose B median is worse than A's by more than its
/// `BENCHMARK.json` bound flagged. Runs of the same workload, seed and
/// scale must agree on their records digest and event count, within
/// and across the files. Fails when anything is flagged.
fn compare_main(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err(format!("compare wants two files\n{USAGE}"));
    };
    let read = |path: &str| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
            .collect()
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let bench = Json::parse(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;

    let mut ok = true;
    // (workload, seed, scale) → (digest, events) of its first run.
    let mut identity = BTreeMap::new();
    for r in a.iter().chain(&b) {
        let field = |k: &str| match r.get(k) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => n.to_string(),
            _ => String::new(),
        };
        let key = format!(
            "{} seed {} scale {}",
            field("workload"),
            field("seed"),
            field("scale")
        );
        let id = format!(
            "digest {} events {}",
            field("digest"),
            field("events_per_rep")
        );
        match identity.get(&key) {
            Some(first) if *first != id => {
                println!("MISMATCH {key}: {id} vs {first}");
                ok = false;
            }
            Some(_) => {}
            None => {
                identity.insert(key, id);
            }
        }
    }

    for w in Workload::ALL {
        let runs = |side: &[Json]| -> Vec<Json> {
            side.iter()
                .filter(|r| r.get("workload").and_then(Json::str) == Some(w.name()))
                .cloned()
                .collect()
        };
        let (ra, rb) = (runs(&a), runs(&b));
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        if ra.is_empty() || rb.is_empty() {
            println!("{}: runs on one side only", w.name());
            ok = false;
            continue;
        }
        println!(
            "{} ({} runs in A, {} in B)\n  {:<26} {:>36} {:>36} {:>8}",
            w.name(),
            ra.len(),
            rb.len(),
            "metric",
            "A median [q1, q3]",
            "B median [q1, q3]",
            "change"
        );
        for m in bench.get("end_to_end").map(Json::arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
            let lower_is_better = m.get("better").and_then(Json::str) == Some("lower");
            let values = |runs: &[Json]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.num())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                println!("  {name:<26} missing");
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let worse = if lower_is_better { change } else { -change };
            let flagged = worse > bound;
            ok &= !flagged;
            let cell = |v: &[f64], m: f64| {
                let (q1, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            println!(
                "  {name:<26} {:>36} {:>36} {:>+7.2}%{}",
                cell(&va, ma),
                cell(&vb, mb),
                100.0 * change,
                if flagged {
                    format!("  WORSE than the {:.1}% bound", 100.0 * bound)
                } else {
                    String::new()
                }
            );
        }
    }
    if ok {
        Ok(())
    } else {
        Err("B differs from A: see the flagged lines".to_string())
    }
}
