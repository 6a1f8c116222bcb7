//! The HTM-based heuristics: HMCT (Fig. 2), MP (Fig. 3), MSF (Fig. 4) and
//! Weissman's MNI.
//!
//! All four share the same skeleton — ask the HTM a what-if question per
//! candidate server, take an argmin — and differ only in the objective:
//!
//! | policy | objective                                   | tie-break      |
//! |--------|---------------------------------------------|----------------|
//! | HMCT   | `f(i, n_i+1)` (completion date)             | lowest id      |
//! | MP     | `Σ_j π(i, j)` (sum of perturbations)        | completion date|
//! | MSF    | `Σ_j π(i, j) + d(i, n_i+1)` (sum-flow delta)| lowest id      |
//! | MNI    | number of tasks with `π > 0`                | completion date|
//!
//! HMCT and MSF take their argmin through
//! [`SchedView::argmin_bounded`]: under the HTM's fair-share lanes a
//! probe never finishes sooner than it would alone, so the unloaded
//! duration `d` bounds both objectives from below and the walk stops
//! once no unvisited bound can beat the incumbent. MP and MNI keep the
//! full scan — their objectives have no such bound.

use super::{Heuristic, SchedView, TIE_EPS};
use cas_platform::ServerId;

/// Relative slack on the stage-2 lower bounds. In exact arithmetic the
/// probe's completion is at least `now + d`; the drain's float rounding
/// grows with the absolute clock, so the slack scales with `now + d`. A
/// looser bound only costs pruning, a tighter one would move decisions.
const BOUND_SLACK: f64 = 1e-9;

/// HMCT's lower bound on a server where the probe's unloaded duration is
/// `d`: the probe's completion date is at least `now + d`, because it
/// passes through three sequential fair-share lanes, each serving it at
/// a rate of at most 1.
pub(crate) fn hmct_lower_bound(now: f64, d: f64) -> f64 {
    (now + d) * (1.0 - BOUND_SLACK)
}

/// MSF's lower bound: its objective `Σπ + (completion − now)` is at
/// least `d`, since every π is clamped at zero and the flow time is at
/// least the unloaded duration (see [`hmct_lower_bound`]).
pub(crate) fn msf_lower_bound(now: f64, d: f64) -> f64 {
    d - BOUND_SLACK * (now + d)
}

/// Historical Minimum Completion Time (Fig. 2): MCT's objective computed on
/// the HTM's simulation instead of load averages.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hmct;

impl Heuristic for Hmct {
    fn name(&self) -> &'static str {
        "HMCT"
    }

    fn uses_htm(&self) -> bool {
        true
    }

    // HMCT's objective is the probe's completion date alone — the
    // perturbation list is never read, so drains may truncate.
    fn needs_perturbations(&self) -> bool {
        false
    }

    fn select(&mut self, view: &mut SchedView<'_>) -> Option<ServerId> {
        let now = view.now.as_secs();
        view.argmin_bounded(
            |v, s| {
                v.costs()
                    .unloaded_duration(v.task.problem, s)
                    .map(|d| hmct_lower_bound(now, d))
            },
            |v, s| v.predict(s).map(|p| p.completion.as_secs()),
        )
    }
}

/// Minimum Perturbation (Fig. 3): delay already-mapped tasks as little as
/// possible; when every candidate perturbs equally (e.g. all idle), fall
/// back to the completion date.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mp;

impl Heuristic for Mp {
    fn name(&self) -> &'static str {
        "MP"
    }

    fn uses_htm(&self) -> bool {
        true
    }

    fn select(&mut self, view: &mut SchedView<'_>) -> Option<ServerId> {
        // Gather per-candidate sums first to apply Fig. 3's "if all equal"
        // rule exactly.
        let candidates = view.candidates.clone();
        let mut sums: Vec<(ServerId, f64)> = Vec::with_capacity(candidates.len());
        for &s in candidates.iter() {
            if let Some(p) = view.predict(s) {
                sums.push((s, p.sum_perturbation()));
            }
        }
        let (first, rest) = sums.split_first()?;
        let all_equal = rest.iter().all(|(_, v)| (v - first.1).abs() <= TIE_EPS);
        if all_equal {
            // Fig. 3 line 5: map to the server minimising f(i, n_i+1).
            view.argmin(|v, s| v.predict(s).map(|p| p.completion.as_secs()))
        } else {
            view.argmin(|v, s| v.predict(s).map(|p| p.sum_perturbation()))
        }
    }
}

/// Minimum Sum Flow (Fig. 4): minimise the increase of the system-wide
/// sum-flow, `Σ_j π(i, j) + d(i, n_i+1)` — "the same as MTI (minimize total
/// interference) proposed by Weissman".
#[derive(Debug, Default, Clone, Copy)]
pub struct Msf;

impl Heuristic for Msf {
    fn name(&self) -> &'static str {
        "MSF"
    }

    fn uses_htm(&self) -> bool {
        true
    }

    fn select(&mut self, view: &mut SchedView<'_>) -> Option<ServerId> {
        let now = view.now.as_secs();
        view.argmin_bounded(
            |v, s| {
                v.costs()
                    .unloaded_duration(v.task.problem, s)
                    .map(|d| msf_lower_bound(now, d))
            },
            |v, s| v.predict(s).map(|p| p.msf_objective()),
        )
    }
}

/// Weissman's MNI: minimise the *number* of tasks that experience
/// interference; break ties on the new task's completion date.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mni;

impl Heuristic for Mni {
    fn name(&self) -> &'static str {
        "MNI"
    }

    fn uses_htm(&self) -> bool {
        true
    }

    fn select(&mut self, view: &mut SchedView<'_>) -> Option<ServerId> {
        // Lexicographic (count, completion) argmin, encoded as a single
        // scan to stay deterministic.
        let candidates = view.candidates.clone();
        let mut best: Option<(ServerId, usize, f64)> = None;
        for &s in candidates.iter() {
            let Some(p) = view.predict(s) else { continue };
            let count = p.interfered_count(TIE_EPS);
            let completion = p.completion.as_secs();
            best = match best {
                None => Some((s, count, completion)),
                Some((_, bc, bf)) if count < bc || (count == bc && completion + TIE_EPS < bf) => {
                    Some((s, count, completion))
                }
                other => other,
            };
        }
        best.map(|(s, _, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::htm::{Htm, SyncPolicy};

    #[test]
    fn hmct_picks_fastest_idle_server() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3();
        let s = select_once(&mut Hmct, &mut htm, &loads, &costs, task(1, 0.0));
        assert_eq!(s, Some(ServerId(0)));
    }

    #[test]
    fn hmct_sees_queued_work_that_mct_misses() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3(); // stale: everyone reports idle
                              // Three tasks already committed to S0; the load report hasn't
                              // caught up but the HTM knows.
        for id in 10..13 {
            htm.commit(cas_sim::SimTime::ZERO, ServerId(0), &task(id, 0.0));
        }
        let s = select_once(&mut Hmct, &mut htm, &loads, &costs, task(1, 0.0));
        // On S0 the new task shares with 3 others (completion ≈ 400);
        // S1 idle gives 150.
        assert_eq!(s, Some(ServerId(1)));
    }

    #[test]
    fn mp_prefers_idle_slow_server() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3();
        // S0 busy, S1 busy, S2 (slowest) idle: MP avoids all perturbation.
        htm.commit(cas_sim::SimTime::ZERO, ServerId(0), &task(10, 0.0));
        htm.commit(cas_sim::SimTime::ZERO, ServerId(1), &task(11, 0.0));
        let s = select_once(&mut Mp, &mut htm, &loads, &costs, task(1, 0.0));
        assert_eq!(
            s,
            Some(ServerId(2)),
            "MP loads slower servers because they are idle"
        );
    }

    #[test]
    fn mp_tie_breaks_on_completion_when_all_idle() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3();
        // All idle → all perturbations are zero → Fig. 3 line 5: fastest.
        let s = select_once(&mut Mp, &mut htm, &loads, &costs, task(1, 0.0));
        assert_eq!(s, Some(ServerId(0)));
    }

    #[test]
    fn msf_balances_perturbation_against_duration() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3();
        // S0 runs one task with 100 s left. Placing on S0: perturbation 100
        // (T10 delayed by sharing) + own flow 200 → 300. S1 idle: 0 + 150.
        // S2 idle: 0 + 300. MSF picks S1.
        htm.commit(cas_sim::SimTime::ZERO, ServerId(0), &task(10, 0.0));
        let s = select_once(&mut Msf, &mut htm, &loads, &costs, task(1, 0.0));
        assert_eq!(s, Some(ServerId(1)));
    }

    #[test]
    fn msf_accepts_small_perturbation_for_big_speed_gain() {
        // S0's queued task is nearly done: perturbing it slightly beats
        // running on the much slower idle S2. (Disable S1 to force the
        // choice.)
        let mut costs = cas_platform::CostTable::new(3);
        costs.add_problem(
            cas_platform::Problem::new("p", 0.0, 0.0, 0.0),
            vec![
                Some(cas_platform::PhaseCosts::new(0.0, 100.0, 0.0)),
                None,
                Some(cas_platform::PhaseCosts::new(0.0, 300.0, 0.0)),
            ],
        );
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3();
        htm.commit(cas_sim::SimTime::ZERO, ServerId(0), &task(10, 0.0));
        // Decide at t=95: T10 has 5 s left. On S0: π = 5, own flow ≈ 105
        // → 110. On S2: 0 + 300. MSF takes the perturbation.
        let s = select_once(&mut Msf, &mut htm, &loads, &costs, task(1, 95.0));
        assert_eq!(s, Some(ServerId(0)));
        // MP, by contrast, refuses to perturb and picks the slow server.
        let mut htm2 = Htm::new(costs.clone(), SyncPolicy::None);
        htm2.commit(cas_sim::SimTime::ZERO, ServerId(0), &task(10, 0.0));
        let s2 = select_once(&mut Mp, &mut htm2, &loads, &costs, task(1, 95.0));
        assert_eq!(s2, Some(ServerId(2)));
    }

    #[test]
    fn mni_minimises_victim_count() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3();
        // S0 runs two tasks, S1 runs one, S2 runs one.
        for (srv, id) in [(0, 10), (0, 11), (1, 12), (2, 13)] {
            htm.commit(cas_sim::SimTime::ZERO, ServerId(srv), &task(id, 0.0));
        }
        let s = select_once(&mut Mni, &mut htm, &loads, &costs, task(1, 0.0));
        // One victim on S1 or S2; S1 gives the earlier completion.
        assert_eq!(s, Some(ServerId(1)));
    }

    #[test]
    fn all_policies_handle_empty_candidates() {
        let costs = table3();
        let loads = loads3();
        for kind in [
            crate::heuristics::HeuristicKind::Hmct,
            crate::heuristics::HeuristicKind::Mp,
            crate::heuristics::HeuristicKind::Msf,
            crate::heuristics::HeuristicKind::Mni,
        ] {
            let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
            let mut rng = cas_sim::RngStream::derive(1, cas_sim::StreamKind::TieBreak);
            let t = task(1, 0.0);
            let mut view = super::super::SchedView::new(
                t.arrival,
                t,
                vec![],
                &costs,
                &loads,
                &mut htm,
                &mut rng,
            );
            assert_eq!(kind.build().select(&mut view), None, "{kind:?}");
        }
    }
}
