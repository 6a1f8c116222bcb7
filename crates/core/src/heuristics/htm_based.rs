//! The HTM-based heuristics: HMCT (Fig. 2), MP (Fig. 3), MSF (Fig. 4) and
//! Weissman's MNI.
//!
//! All four share the same skeleton — ask the HTM a what-if question per
//! candidate server, take an argmin — and differ only in the objective:
//!
//! | policy | objective                                   | tie-break      | lower bound         |
//! |--------|---------------------------------------------|----------------|---------------------|
//! | HMCT   | `f(i, n_i+1)` (completion date)             | lowest id      | `now + d + X`       |
//! | MP     | `Σ_j π(i, j)` (sum of perturbations)        | completion date| none: full scan     |
//! | MSF    | `Σ_j π(i, j) + d(i, n_i+1)` (sum-flow delta)| lowest id      | `d + max(X, 2X − P)`|
//! | MNI    | number of tasks with `π > 0`                | completion date| none: full scan     |
//!
//! HMCT and MSF take their argmin through
//! [`SchedView::argmin_bounded`]. The walk visits candidates in ascending
//! order of the bound on an idle server (`now + d` and `d`, `d` being the
//! probe's unloaded duration) and stops once no unvisited candidate can
//! beat the incumbent. Each visited candidate first reads the queue the
//! probe would join ([`Backlog`], after the HTM's shared prefix settles
//! to `now`); when the bound on that queue already loses, the candidate
//! is skipped without a drain ([`SchedView::objective_unless`]).
//!
//! # The lower bounds
//!
//! A probe with phase costs `(i, c, o)` and `d = i + c + o` joins a
//! server at `now`. Each of the server's three lanes is an equal-share
//! resource of capacity 1 (§2.3). The backlog gives `S = Σ_j min(r_j, c)`
//! over the compute lane's tasks, `r_j` being each one's remaining
//! compute; whether the input lane is idle; the output work `Σ_j o_j`
//! still ahead of the `m` active tasks; and so `X = max(0, S − i)` and,
//! in the table, `P = (m − 1)·Σ_j o_j`.
//!
//! **HMCT: the completion date is at least `now + d + X`.** The probe is
//! served at a rate of at most 1 in each lane, so it reaches the compute
//! lane at some `t1 ≥ now + i`. Until then the compute lane serves at
//! most `t1 − now` of work in all, so `Σ_j min(r_j(t1), c) ≥ S − (t1 −
//! now)`. From `t1` on, each task `j` present since `now` is served at
//! the probe's own rate for as long as both are in the lane, so while
//! the probe computes its `c`, `j` receives exactly `min(r_j(t1), c)`.
//! The lane serves at most 1 per second, so the probe leaves it no
//! earlier than `t1 + c + S − (t1 − now) = now + c + S`, and no earlier
//! than `t1 + c ≥ now + i + c`. Output takes at least `o` more, so the
//! probe completes no earlier than `now + c + o + max(S, i) = now + d +
//! X`.
//!
//! **MSF: the objective is at least `d + X`, and, with the input lane
//! idle, at least `d + 2X − P`.** The first follows from HMCT's bound,
//! since every π is clamped at zero. For the second, `π_j = max(0, C'_j −
//! C_j) ≥ C'_j − C_j`, `C` and `C'` being a task's completion without
//! and with the probe, so `Σπ + flow` is at least the growth of the
//! tasks' total time in system from `now`, which splits by lane. In one
//! equal-share lane a task's sojourn is its own work plus what the lane
//! serves the others while it is there, so `Σ sojourns = Σ work + 2·Σ
//! overlap` over pairs, a pair's overlap being what each of the two
//! receives while both are present. Lane by lane:
//!
//! * input: idle before, the probe alone after — exactly `i`, so the
//!   probe reaches compute at `now + i`;
//! * compute: nothing but the probe can enter, so the pairs present at
//!   `now` keep their overlap `min(r_j, r_k)`; the probe adds its `c` and
//!   pairs with overlaps `Σ_j min(r_j(now + i), c) ≥ S − i`, and `≥ 0`:
//!   at least `c + 2X` in all;
//! * output: the probe adds its `o`; a pair's overlap is at most
//!   `min(o_j, o_k)` before and at least 0 after, so the pairs lose at
//!   most `2·Σ_{j<k} min(o_j, o_k) ≤ (m − 1)·Σ_j o_j = P`.
//!
//! The three sum to `i + c + 2X + o − P`. When the input lane is busy,
//! tasks still to enter the compute lane break the second step, and MSF
//! falls back to `d + X`.
//!
//! The drain runs in floats, and its rounding grows with the clock, so
//! every bound gives up `1e-9 · (now + d + W)`, `W` being all the work
//! left in the lanes: some lane is busy until the drain ends, so none of
//! its instants lies past `now + d + W`. A looser bound only costs
//! pruning; a tighter one would move decisions. Proptests in `htm.rs`
//! check both bounds against the clone-and-drain oracle, deep queues
//! and clocks up to 1e7 s included.

use super::{Heuristic, SchedView, TIE_EPS};
use crate::prediction::Prediction;
use crate::trace::Backlog;
use cas_platform::ServerId;

/// Relative slack on the stage-2 lower bounds (see the module docs): a
/// looser bound only costs pruning, a tighter one would move decisions.
const BOUND_SLACK: f64 = 1e-9;

/// `X = max(0, S − i)`: the compute work the probe must see served to
/// the tasks already in the compute lane, beyond what its own input
/// transfer overlaps.
fn queue_wait(q: &Backlog) -> f64 {
    (q.compute_overlap - q.probe.input).max(0.0)
}

/// The rounding slack of a bound at `now`: `1e-9 · (now + d + W)`.
fn slack(now: f64, q: &Backlog) -> f64 {
    BOUND_SLACK * (now + q.probe.total() + q.work)
}

/// HMCT's lower bound on the probe's completion date: `now + d + X`.
pub(crate) fn hmct_lower_bound(now: f64, q: &Backlog) -> f64 {
    now + q.probe.total() + queue_wait(q) - slack(now, q)
}

/// MSF's two lower bounds on `Σπ + flow`, before the slack: the flow
/// term `d + X`, and the pair term `d + 2X − (m − 1)·Σ o_j`, which holds
/// only with the input lane idle (−∞ otherwise).
pub(crate) fn msf_terms(q: &Backlog) -> (f64, f64) {
    let (d, x) = (q.probe.total(), queue_wait(q));
    let pairs = if q.input_idle {
        d + 2.0 * x - q.tasks.saturating_sub(1) as f64 * q.output_work
    } else {
        f64::NEG_INFINITY
    };
    (d + x, pairs)
}

/// MSF's lower bound on `Σπ + flow`: the larger of its two terms.
pub(crate) fn msf_lower_bound(now: f64, q: &Backlog) -> f64 {
    let (flow, pairs) = msf_terms(q);
    flow.max(pairs) - slack(now, q)
}

/// The bounded walk HMCT and MSF share: candidates in ascending order of
/// `bound` on an idle server; each visited one answers `objective` of
/// its prediction, or `bound` on its backlog when that already loses.
fn bounded_argmin(
    view: &mut SchedView<'_>,
    bound: fn(f64, &Backlog) -> f64,
    objective: fn(&Prediction) -> f64,
) -> Option<ServerId> {
    let now = view.now.as_secs();
    view.argmin_bounded(
        |v, s| {
            v.costs()
                .costs(v.task.problem, s)
                .map(|c| bound(now, &Backlog::idle(c)))
        },
        |v, s, beat| v.objective_unless(s, beat, |q| bound(now, q), objective),
    )
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
        bounded_argmin(view, hmct_lower_bound, |p| p.completion.as_secs())
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
        bounded_argmin(view, msf_lower_bound, Prediction::msf_objective)
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

    /// Both queue-aware bounds are exact on one shared CPU: at t = 6 task
    /// 10 has 94 s of its 100 s left on S0 when a 100 s probe asks. Task
    /// 10 then finishes at 194 and the probe at 200, so HMCT's `now + d +
    /// X = 6 + 100 + 94` is the completion, and MSF's pair term `d + 2X =
    /// 288` is `π + flow = 94 + 194`. An idle server's backlog gives back
    /// `now + d` and `d`.
    #[test]
    fn queue_bounds_are_exact_on_a_shared_cpu() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        htm.commit(cas_sim::SimTime::ZERO, ServerId(0), &task(10, 0.0));
        let probe = task(1, 6.0);
        let mut seen = None;
        let mut out = Prediction::empty();
        htm.predict_into_unless(probe.arrival, ServerId(0), &probe, &mut out, |q| {
            seen = Some(*q);
            false
        });
        let q = seen.expect("the drain read the backlog");
        assert_eq!(out.completion.as_secs(), 200.0);
        assert_eq!(out.msf_objective(), 288.0);
        assert_eq!(msf_terms(&q), (194.0, 288.0));
        let close = |bound: f64, exact: f64| bound <= exact && bound > exact - 1e-6;
        assert!(close(hmct_lower_bound(6.0, &q), 200.0));
        assert!(close(msf_lower_bound(6.0, &q), 288.0));
        let idle = Backlog::idle(q.probe);
        assert!(close(hmct_lower_bound(6.0, &idle), 106.0));
        assert!(close(msf_lower_bound(6.0, &idle), 100.0));
    }

    /// A candidate whose unloaded duration could still beat the incumbent
    /// but whose queue cannot is skipped without a drain. At t = 40, S0
    /// (100 s) has task 10 with 60 s left and S1 (150 s) has task 11 with
    /// 110 s left; S2 (300 s) is idle. S0 answers 200 (HMCT) or 220
    /// (MSF). S1's unloaded bound, 190 or 150, loses to neither, but its
    /// queue bound, 300 or 370, loses to both. S2's unloaded bound ends
    /// the walk.
    #[test]
    fn a_queue_that_cannot_win_is_pruned() {
        let costs = table3();
        let loads = loads3();
        for kind in [
            crate::heuristics::HeuristicKind::Hmct,
            crate::heuristics::HeuristicKind::Msf,
        ] {
            let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
            htm.commit(cas_sim::SimTime::ZERO, ServerId(0), &task(10, 0.0));
            htm.commit(cas_sim::SimTime::ZERO, ServerId(1), &task(11, 0.0));
            let pick = select_once(
                kind.build().as_mut(),
                &mut htm,
                &loads,
                &costs,
                task(1, 40.0),
            );
            assert_eq!(pick, Some(ServerId(0)), "{kind:?}");
            assert_eq!(htm.pruned_queries(), 1, "{kind:?}: S1 is pruned");
            assert_eq!(htm.predictions_made(), 1, "{kind:?}: only S0 drains");
        }
    }

    proptest::proptest! {
        /// On real HTM state, HMCT's and MSF's bounded walks — the
        /// idle-server order, the break and the queue-aware pruning —
        /// pick exactly the server a full scan of every candidate's
        /// prediction picks. Farms of six servers with whole-second costs
        /// (so objectives tie), queues grown by commits and by committing
        /// each pick, both sync policies, clocks up to 1e6 s, and unsorted
        /// candidate lists with duplicates.
        #[test]
        fn bounded_stage2_walk_matches_the_full_scan(
            // Per server: whole-second (input, compute, output).
            phase_costs in proptest::collection::vec((0u32..3, 1u32..12, 0u32..3), 6),
            // (decide when 0, else commit; server; time gap)
            ops in proptest::collection::vec((0u32..3, 0u32..6, 0u32..3), 1..40),
            picks in proptest::collection::vec(0u32..6, 1..10),
            start in 0u32..1_000_000,
            force_finish in proptest::bool::ANY,
        ) {
            let mut costs = cas_platform::CostTable::new(6);
            costs.add_problem(
                cas_platform::Problem::new("p", 0.0, 0.0, 0.0),
                phase_costs
                    .iter()
                    .map(|&(i, c, o)| {
                        Some(cas_platform::PhaseCosts::new(
                            f64::from(i),
                            f64::from(c),
                            f64::from(o),
                        ))
                    })
                    .collect(),
            );
            let loads: Vec<cas_platform::LoadReport> =
                (0..6).map(|s| cas_platform::LoadReport::initial(ServerId(s))).collect();
            let candidates: Vec<ServerId> = picks.iter().map(|&s| ServerId(s)).collect();
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            for kind in [
                crate::heuristics::HeuristicKind::Hmct,
                crate::heuristics::HeuristicKind::Msf,
            ] {
                let mut heuristic = kind.build();
                let objective = |p: &Prediction| match kind {
                    crate::heuristics::HeuristicKind::Hmct => p.completion.as_secs(),
                    _ => p.msf_objective(),
                };
                let mut htm = Htm::new(costs.clone(), sync);
                htm.set_completion_only(!heuristic.needs_perturbations());
                let mut now = f64::from(start);
                for (id, &(op, server, gap)) in ops.iter().enumerate() {
                    now += f64::from(gap);
                    let t = task(id as u64, now);
                    let mut rng = cas_sim::RngStream::derive(7, cas_sim::StreamKind::TieBreak);
                    let target = if op == 0 {
                        let mut view = crate::heuristics::SchedView::new(
                            t.arrival, t, candidates.clone(), &costs, &loads, &mut htm, &mut rng,
                        );
                        let bounded = heuristic.select(&mut view);
                        let mut view = crate::heuristics::SchedView::new(
                            t.arrival, t, candidates.clone(), &costs, &loads, &mut htm, &mut rng,
                        );
                        let full = view.argmin(|v, s| v.predict(s).map(objective));
                        proptest::prop_assert_eq!(
                            bounded, full, "{:?} at {}, candidates {:?}", kind, now, &candidates
                        );
                        bounded.expect("every server solves the problem")
                    } else {
                        ServerId(server)
                    };
                    htm.commit(t.arrival, target, &t);
                }
            }
        }
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
