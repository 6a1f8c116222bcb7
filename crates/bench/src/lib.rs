//! # cas-bench — experiment harness
//!
//! One binary per paper table/figure:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — HTM validation (real vs simulated completions) |
//! | `figure1` | Fig. 1 — Gantt chart before/after inserting a task |
//! | `table3` / `table4` | cost-table listings (workload definitions) |
//! | `table5` / `table6` | matmul metatasks at low/high rate |
//! | `table7` / `table8` | waste-cpu metatasks at low/high rate |
//! | `sweep` | ablation A — heuristic ranking vs arrival rate |
//! | `ablation_htm` | ablation B — prediction error vs noise & staleness |
//!
//! plus Criterion micro-benchmarks (`cargo bench -p cas-bench`) for the
//! scheduling decision cost (§5: "negligible … less than 0.01 second"),
//! HTM simulation throughput and the event queue.
//!
//! This library holds the code shared by the binaries: configured table
//! experiments, paper reference values, and result formatting.

pub mod paper;
pub mod tables;

pub use tables::{run_table, TableSpec, Workload};

/// The `manifest` object the `BENCH_*.json` writers put at their top
/// level, so a reader can tell which build and which host a file came
/// from: the checkout the binary ran in (`git describe --always
/// --dirty`, so a build from uncommitted changes reads `<rev>-dirty`;
/// `"unknown"` without git) and the host's core count.
pub fn manifest_json() -> String {
    let git_rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{{\"git_rev\": \"{git_rev}\", \"host_cores\": {host_cores}}}")
}

/// The ceiling the scale binaries put on the event kernel's pending
/// events. Arrivals stream through the kernel one at a time (the Submit
/// chain), so the ceiling counts what can be pending at once and does not
/// involve the task count:
///
/// * **Arrivals:** the chain's next `Submit`, 1.
/// * **Resource completions:** each server's three resources (input
///   link, CPU, output link) hold one live `PhaseDone` each. A membership
///   change leaves the resource's previous event behind, stale, until its
///   date passes; one stale event per resource is budgeted — a lane of
///   these campaigns, at ≤ 0.8 load at crests, rarely sees more than one
///   entry or exit within the horizon of its live event — so 6 per
///   server.
/// * **Reports:** one per `report_chains` (every server, or every shard
///   when reports are aggregated).
/// * **Churn:** under `churn`, each server's next crash or join, 1 per
///   server.
/// * **Decisions in flight:** at zero agent latency a `Schedule` is
///   pending only within its arrival instant, and a crash victim's
///   re-dispatch waits out its backoff; a victim was in flight on its
///   server, and 1 per server is budgeted.
///
/// The scale campaigns run noise-free with the admission gate off, so
/// they arm no noise redraw and no admission deadline.
pub fn pending_events_ceiling(n_servers: usize, report_chains: usize, churn: bool) -> usize {
    let per_server = 3 * 2 + usize::from(churn) + 1;
    1 + n_servers * per_server + report_chains
}
