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
