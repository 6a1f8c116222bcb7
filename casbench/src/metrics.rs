//! The names and units of every metric the benchmark emits. These
//! tables are what `BENCHMARK.json` must list (a unit test checks it);
//! direction and regression bounds live only there.

use std::collections::BTreeMap;

/// One metric: its name and unit.
pub type Def = (&'static str, &'static str);

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Def; 10] = [
    ("tasks_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("decision_p99_us", "us"),
    ("cpu_us_per_task", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_stretch", "ratio"),
    ("p99_stretch", "ratio"),
    ("worst_class_p99_stretch", "ratio"),
    ("completed_ratio", "fraction"),
];

/// Event kinds the workloads produce, by metric-name stem. The other
/// `GridEvent` kinds (shared client link, noise redraw, provisioning,
/// graceful leave) never fire in these configurations; their time still
/// counts in `engine.self_share`.
pub const ENGINE_KINDS: [&str; 8] = [
    "submit",
    "schedule",
    "phase_done",
    "load_report",
    "shard_load_report",
    "server_crash",
    "server_join",
    "admission_timeout",
];

/// Per-layer metrics other than the per-kind engine spans, by layer.
pub const LAYERS: [Def; 39] = [
    ("sim.events_per_task", "count"),
    ("sim.pop_us_per_event", "us"),
    ("sim.self_share", "fraction"),
    ("sim.peak_pending", "count"),
    ("sim.queue_migrations", "count"),
    ("engine.self_share", "fraction"),
    ("engine.unattributed_share", "fraction"),
    ("shard.stage1_us_per_decision", "us"),
    ("shard.stage1_share", "fraction"),
    ("shard.visits_per_decision", "count"),
    ("shard.skip_rate", "fraction"),
    ("shard.group_skip_rate", "fraction"),
    ("shard.n_shards", "count"),
    ("htm.stage2_us_per_decision", "us"),
    ("htm.stage2_share", "fraction"),
    ("htm.predictions_per_decision", "count"),
    ("htm.memo_hit_rate", "fraction"),
    ("htm.truncation_rate", "fraction"),
    ("htm.prefix_reuse_rate", "fraction"),
    ("htm.counter_resets", "count"),
    ("htm.hooks_us_per_task", "us"),
    ("htm.hooks_share", "fraction"),
    ("churn.share", "fraction"),
    ("churn.crash_us", "us"),
    ("churn.retractions_per_crash", "count"),
    ("churn.redispatches", "count"),
    ("churn.rebalances", "count"),
    ("admission.buffered", "count"),
    ("admission.shed_ratio", "fraction"),
    ("admission.mean_wait_s", "s"),
    ("admission.peak_buffered", "count"),
    ("reports.events_per_task", "count"),
    ("reports.share", "fraction"),
    ("pool.workers", "count"),
    ("pool.cpu_over_wall", "ratio"),
    ("workload.generate_s", "s"),
    ("engine.build_s", "s"),
    ("metrics.compute_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric: the per-kind engine spans, then [`LAYERS`].
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut defs = Vec::new();
    for kind in ENGINE_KINDS {
        defs.push((format!("engine.{kind}.count"), "count"));
        defs.push((format!("engine.{kind}.mean_us"), "us"));
        defs.push((format!("engine.{kind}.self_us"), "us"));
    }
    defs.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    defs
}

/// Metric values by name, as one rep or one run reports them.
pub type Values = BTreeMap<String, f64>;

/// The per-name median over several reps' values.
pub fn medians(reps: &[&Values]) -> Values {
    let mut out = Values::new();
    for name in reps.first().map(|r| r.keys()).into_iter().flatten() {
        let v: Vec<f64> = reps.iter().map(|r| r[name]).collect();
        out.insert(name.clone(), crate::stats::median(&v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset_once_each() {
        let mut names: Vec<String> = END_TO_END.iter().map(|d| d.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|d| d.0));
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(!valid_name("engine.schedule mean"));
        assert!(!valid_name(".hidden"));
    }

    /// `BENCHMARK.json` must list exactly the workloads and metrics the
    /// binary emits, with the same units.
    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let text = include_str!("../../BENCHMARK.json");
        let mut listed: Vec<(String, Option<String>)> = Vec::new();
        for entry in text.split('{').skip(2) {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\""))?;
                let rest = &entry[at + key.len() + 2..];
                let open = rest.find('"')? + 1;
                let len = rest[open..].find('"')?;
                Some(rest[open..open + len].to_string())
            };
            if let Some(name) = field("name") {
                listed.push((name, field("unit")));
            }
        }
        let mut emitted: Vec<(String, Option<String>)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), None))
            .collect();
        emitted.extend(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string()))),
        );
        emitted.extend(
            per_layer()
                .into_iter()
                .map(|(n, u)| (n, Some(u.to_string()))),
        );
        listed.sort();
        emitted.sort();
        assert_eq!(listed, emitted);
    }
}
