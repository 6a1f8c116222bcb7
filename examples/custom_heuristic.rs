//! Extending the library: plug a custom heuristic into the full engine.
//!
//! ```sh
//! cargo run --release --example custom_heuristic
//! ```
//!
//! Implements **MMP** (Minimum *Maximum* Perturbation) — a variant the
//! paper does not study: instead of minimising the *sum* of perturbations
//! (MP), minimise the single worst delay inflicted on any running task,
//! tie-breaking on completion date. Then compares it against the paper's
//! four on a common metatask.
//!
//! Because [`Heuristic`] is a public trait and the engine takes any
//! implementor, no library changes are needed — but the stock engine is
//! driven by [`HeuristicKind`]; for custom policies we drive the middleware
//! world's own pieces through the public [`SchedView`] the same way the
//! bundled heuristics do, using the simulation-free harness below (an HTM
//! replay over a generated metatask).

use casgrid::core::heuristics::SchedView;
use casgrid::prelude::*;
use std::collections::HashMap;

/// Minimum Maximum Perturbation: protect the worst-hit task.
#[derive(Debug, Default)]
struct Mmp;

impl Heuristic for Mmp {
    fn name(&self) -> &'static str {
        "MMP"
    }
    fn uses_htm(&self) -> bool {
        true
    }
    fn select(&mut self, view: &mut SchedView<'_>) -> Option<ServerId> {
        // Lexicographic (max perturbation, completion) argmin.
        let candidates = view.candidates.clone();
        let mut best: Option<(ServerId, f64, f64)> = None;
        for &s in candidates.iter() {
            let Some(p) = view.predict(s) else { continue };
            let key = (p.max_perturbation(), p.completion.as_secs());
            best = match best {
                None => Some((s, key.0, key.1)),
                Some((_, bm, bc)) if key.0 < bm - 1e-9 || (key.0 <= bm + 1e-9 && key.1 < bc) => {
                    Some((s, key.0, key.1))
                }
                other => other,
            };
        }
        best.map(|(s, _, _)| s)
    }
}

/// Replays a metatask against an HTM with a pluggable heuristic and
/// returns the simulated records — an idealised (noise-free) arena that is
/// exactly the agent's model, useful for rapid heuristic prototyping
/// before a full middleware run.
fn replay(
    heuristic: &mut dyn Heuristic,
    costs: &CostTable,
    tasks: &[TaskInstance],
) -> Vec<(TaskId, f64, f64)> {
    let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
    let loads: Vec<_> = (0..costs.n_servers() as u32)
        .map(|i| casgrid::platform::LoadReport::initial(ServerId(i)))
        .collect();
    let mut rng = RngStream::derive(99, StreamKind::TieBreak);
    // The HTM hands out each task's simulated completion once the task
    // leaves its trace; the tasks still active at the end are drained.
    let mut completions = HashMap::new();
    for task in tasks {
        let mut view = SchedView::new(
            task.arrival,
            *task,
            costs.solvers(task.problem),
            costs,
            &loads,
            &mut htm,
            &mut rng,
        );
        let server = heuristic.select(&mut view).expect("candidates exist");
        htm.commit(task.arrival, server, task);
        htm.take_completions(|id, when| {
            completions.insert(id, when);
        });
    }
    for s in 0..costs.n_servers() as u32 {
        completions.extend(htm.completions_on(ServerId(s)));
    }
    tasks
        .iter()
        .map(|t| {
            let f = completions[&t.id].as_secs();
            (t.id, t.arrival.as_secs(), f)
        })
        .collect()
}

fn main() {
    let costs = casgrid::workload::wastecpu::cost_table();
    let tasks = MetataskSpec {
        n_tasks: 300,
        ..MetataskSpec::paper(15.0)
    }
    .generate(77);

    println!("HTM-replay comparison on a 300-task waste-cpu metatask (high rate):\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "policy", "sum-flow", "max-flow", "makespan"
    );
    let mut policies: Vec<Box<dyn Heuristic>> = vec![
        HeuristicKind::Hmct.build(),
        HeuristicKind::Mp.build(),
        HeuristicKind::Msf.build(),
        Box::new(Mmp),
    ];
    for p in &mut policies {
        let rows = replay(p.as_mut(), &costs, &tasks);
        let sumflow: f64 = rows.iter().map(|(_, a, f)| f - a).sum();
        let maxflow = rows.iter().map(|(_, a, f)| f - a).fold(0.0, f64::max);
        let makespan = rows.iter().map(|(_, _, f)| *f).fold(0.0, f64::max);
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>12.0}",
            p.name(),
            sumflow,
            maxflow,
            makespan
        );
    }
    println!(
        "\nMMP greedily protects the single worst-hit task at each decision, but\n\
         that per-decision guarantee does not compound into better aggregate\n\
         metrics — it lands near HMCT on sum-flow and can even inflate max-flow.\n\
         Negative results are cheap here: one trait impl and a replay, no\n\
         testbed. That is the workflow the HTM enables."
    );
}
