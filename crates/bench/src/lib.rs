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
