//! Stage 1 of the scheduling pipeline: candidate selection.
//!
//! Every HTM-based heuristic pays one speculative drain per candidate
//! server per arriving task. With the candidate list equal to *all*
//! solvers — the paper's "for each server that can resolve the new
//! submitted problem" loop — that fan-out is linear in the platform size
//! and dominates decisions on 1k-server campaigns. The decision path is
//! therefore split in two:
//!
//! 1. a [`CandidateSelector`] proposes a shortlist from the cheap,
//!    incrementally maintained [`StaticIndex`] (static unloaded cost ×
//!    the agent's believed in-flight count — no HTM query, no O(n)
//!    platform rescan);
//! 2. the [`Heuristic`](crate::heuristics::Heuristic) runs its HTM
//!    predictions on the shortlist only — HMCT and MSF on fewer still,
//!    walking it in lower-bound order and stopping at the incumbent
//!    ([`SchedView::argmin_bounded`](crate::heuristics::SchedView::argmin_bounded)).
//!
//! Three backends ship:
//!
//! * [`Exhaustive`] — the identity stage: shortlist = all admissible
//!   solvers, in server-id order. This *is* the pre-pipeline behaviour
//!   and serves as the executable specification of the other two.
//! * [`TopK`] — the `k` admissible solvers of lowest stage-1 score. With
//!   `k ≥ n` the shortlist, re-sorted to id order, is provably identical
//!   to [`Exhaustive`]'s (the differential proptest below drives both
//!   through arbitrary commit/predict/retract interleavings and asserts
//!   bit-equal picks and predictions).
//! * [`Adaptive`] — [`TopK`] with a self-adjusting width: the cut widens
//!   on the spot when stage-1 scores are nearly tied at the boundary
//!   (pruning there would be arbitrary), and the base width grows or
//!   shrinks with an EWMA of *edge regret* — how often stage 2 picks a
//!   server from the tail of the shortlist, which is exactly the signal
//!   that the next-best pruned server might have won.
//!
//! Shortlists are always emitted in ascending server id, because the
//! heuristics break exact objective ties by scan order: a selector must
//! not be able to change a tie-break by reordering, only by pruning.

use cas_platform::{ProblemId, ServerId, StaticIndex};

/// Everything stage 1 may look at for one decision. Deliberately *no*
/// HTM access: the whole point is that the shortlist costs no drains.
pub struct SelectorInput<'a> {
    /// The problem the arriving task instantiates.
    pub problem: ProblemId,
    /// The incrementally maintained load/static-cost index; it also
    /// holds every unloaded duration, so it answers solvability.
    pub index: &'a StaticIndex,
}

/// An object-safe stage-1 candidate selector.
pub trait CandidateSelector: Send {
    /// Display name, as recorded in bench output.
    fn name(&self) -> &'static str;

    /// Fills `out` with the stage-2 candidate shortlist, in ascending
    /// server id. `admit` rejects servers the agent must not consider
    /// (excluded by a retry, known collapsed); a rejected server must not
    /// appear in `out`.
    fn shortlist(
        &mut self,
        input: SelectorInput<'_>,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<ServerId>,
    );

    /// Scored variant of [`CandidateSelector::shortlist`] for callers
    /// that need the stage-1 scores alongside the ids (a shard federation
    /// merging shortlists by score): fills `out` with `(server, score)`
    /// pairs in ascending `(score, server id)` order — the federation
    /// folds them into its merge without sorting — and returns `true`.
    /// Backends that do not track scores return `false` without touching
    /// `out`. The federation calls this only on selectors that report a
    /// [`CandidateSelector::width_cap`], so every width-capped backend
    /// must support it. When supported, the id set must equal what
    /// `shortlist` would emit from the same state, and selector state
    /// must advance identically.
    fn shortlist_scored(
        &mut self,
        input: SelectorInput<'_>,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<(ServerId, f64)>,
    ) -> bool {
        let _ = (input, admit, out);
        false
    }

    /// A hard upper bound on the shortlist length this selector can ever
    /// emit (for any input), or `None` when it has no fixed bound (the
    /// exhaustive backend). A shard federation combines this with the
    /// index's per-problem solvable count to decide — *before* running
    /// the selector — whether a shard could possibly contribute to the
    /// merged shortlist: a shard whose skyline score cannot beat the cut
    /// line and whose width bound cannot widen the merge is skipped
    /// without its selector being called at all. Implementations
    /// overriding this must guarantee `shortlist` never emits more than
    /// the bound, and must tolerate decisions on which they are not
    /// called (skipping is a pure pruning of the merge, so a skipped
    /// shard never owns the eventual pick and never receives
    /// [`CandidateSelector::observe_selection`] for that decision).
    fn width_cap(&self) -> Option<usize> {
        None
    }

    /// Feedback after stage 2: the heuristic chose `chosen` from the last
    /// shortlist. Lets adaptive backends track regret. Default: ignored.
    fn observe_selection(&mut self, chosen: ServerId) {
        let _ = chosen;
    }

    /// Feedback when a task placed through this selector completes:
    /// the observed flow versus the flow the model predicted at commit
    /// time (durations in seconds — durations, not absolute dates, so a
    /// relative tolerance means the same thing at any point of a long
    /// campaign). Lets adaptive backends track *stretch* — quality
    /// regressions the rank-based regret signal cannot see. Default:
    /// ignored.
    fn observe_outcome(&mut self, observed_completion: f64, predicted_completion: f64) {
        let _ = (observed_completion, predicted_completion);
    }
}

/// Stage-1 identity: every admissible solver, in id order — the
/// pre-pipeline candidate list and the spec the pruning backends are
/// differentially tested against.
#[derive(Debug, Default, Clone, Copy)]
pub struct Exhaustive;

impl CandidateSelector for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn shortlist(
        &mut self,
        input: SelectorInput<'_>,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<ServerId>,
    ) {
        out.clear();
        out.extend(
            (0..input.index.n_servers() as u32)
                .map(ServerId)
                .filter(|&s| input.index.solves(input.problem, s) && admit(s)),
        );
    }
}

/// Fixed-width pruning: the `k` admissible solvers of lowest stage-1
/// score, re-sorted to id order.
#[derive(Debug, Clone)]
pub struct TopK {
    /// Shortlist width (≥ 1; wider than the platform degenerates to
    /// [`Exhaustive`]).
    pub k: usize,
    /// Reusable (server, score) buffer in score order.
    scored: Vec<(ServerId, f64)>,
}

impl TopK {
    /// A selector keeping the `k` best candidates.
    ///
    /// # Panics
    /// Panics if `k == 0` (an empty shortlist would fail every task).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "TopK needs k >= 1");
        TopK {
            k,
            scored: Vec::new(),
        }
    }
}

impl CandidateSelector for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn shortlist(
        &mut self,
        input: SelectorInput<'_>,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<ServerId>,
    ) {
        input
            .index
            .k_best(input.problem, self.k, admit, &mut self.scored);
        out.clear();
        out.extend(self.scored.iter().map(|&(s, _)| s));
        out.sort_unstable();
    }

    fn shortlist_scored(
        &mut self,
        input: SelectorInput<'_>,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<(ServerId, f64)>,
    ) -> bool {
        // The k-best walk already carries the scores — hand them out
        // instead of making the caller re-derive each one.
        input.index.k_best(input.problem, self.k, admit, out);
        true
    }

    fn width_cap(&self) -> Option<usize> {
        Some(self.k)
    }
}

/// Self-adjusting pruning: a [`TopK`] whose width tracks decision quality.
///
/// Three mechanisms, all deterministic:
///
/// * **Near-tie widening** (per decision): after taking the base `k`, the
///   cut keeps absorbing servers whose stage-1 score is within
///   `tie_margin` (relative) of the k-th best — when the boundary is a
///   coin-flip, pruning at it would be arbitrary, so don't.
/// * **Regret tracking** (across decisions): every stage-2 pick lands in
///   the stored shortlist; picks from its worst-scored quartile (or
///   absent from it entirely, as after a wrapper heuristic widened the
///   list) bump an EWMA. Above `widen_above` the base width doubles
///   (capped at `k_max`); below `shrink_below` it decays by one (floored
///   at `k_min`). A pick near the edge means the static proxy mis-ranked
///   the eventual winner, so the next-best pruned server might have won —
///   the width grows before that becomes observable damage.
/// * **Stretch tracking** (across completions): the regret EWMA reacts to
///   *rank* disagreements but is blind to quality — a shortlist whose
///   head keeps winning can still be a bad shortlist if the pruned
///   servers would have finished sooner. Completed tasks feed back
///   through [`CandidateSelector::observe_outcome`]: completions landing
///   more than `stretch_tol` (relative) past their commit-time prediction
///   bump a second EWMA, and above `widen_above` it too doubles the
///   width. The width only decays when **both** EWMAs are calm.
#[derive(Debug, Clone)]
pub struct Adaptive {
    /// Current base width.
    k: usize,
    /// Width floor.
    pub k_min: usize,
    /// Width ceiling.
    pub k_max: usize,
    /// Relative near-tie window at the cut boundary.
    pub tie_margin: f64,
    /// EWMA smoothing factor for edge regret.
    pub alpha: f64,
    /// Regret level that doubles the width.
    pub widen_above: f64,
    /// Regret level that lets the width decay.
    pub shrink_below: f64,
    /// Relative slack before an observed completion counts as a stretch
    /// regression (0.10 = 10 % past the commit-time prediction).
    pub stretch_tol: f64,
    /// EWMA smoothing factor for stretch regressions (slower than the
    /// regret EWMA: completions arrive task-by-task and lag decisions).
    pub stretch_alpha: f64,
    regret: f64,
    stretch: f64,
    /// Last emitted shortlist in ascending *score* order.
    last: Vec<(ServerId, f64)>,
}

impl Adaptive {
    /// An adaptive selector starting (and bottoming out) at `k_min`,
    /// never exceeding `k_max`.
    ///
    /// # Panics
    /// Panics unless `1 <= k_min <= k_max`.
    pub fn new(k_min: usize, k_max: usize) -> Self {
        assert!(k_min >= 1 && k_min <= k_max, "need 1 <= k_min <= k_max");
        Adaptive {
            k: k_min,
            k_min,
            k_max,
            tie_margin: 0.02,
            alpha: 0.05,
            widen_above: 0.30,
            shrink_below: 0.05,
            stretch_tol: 0.10,
            stretch_alpha: 0.02,
            regret: 0.0,
            stretch: 0.0,
            last: Vec::new(),
        }
    }

    /// The current base width (diagnostics).
    pub fn current_k(&self) -> usize {
        self.k
    }

    /// The current edge-regret EWMA (diagnostics).
    pub fn regret(&self) -> f64 {
        self.regret
    }

    /// The current stretch-regression EWMA (diagnostics).
    pub fn stretch_regret(&self) -> f64 {
        self.stretch
    }
}

impl Adaptive {
    /// The widest cut the *current* decision can emit: the base width
    /// plus near-tie widening, which stops at twice the base (clamped to
    /// the configured `[k_min, k_max]` band). This is a live bound — it
    /// tightens as the base width shrinks — and `fill_last` breaks on
    /// exactly this value, so [`CandidateSelector::width_cap`] can
    /// advertise it instead of the conservative `k_max`.
    fn current_cap(&self) -> usize {
        (self.k * 2).clamp(self.k_min, self.k_max)
    }

    /// The shared stage-1 body: fills `self.last` with the current cut
    /// (base width plus near-tie widening), in ascending score order.
    fn fill_last(&mut self, input: SelectorInput<'_>, admit: &dyn Fn(ServerId) -> bool) {
        self.last.clear();
        let cap = self.current_cap();
        let mut iter = input.index.ranked_iter(input.problem, admit);
        self.last.extend(iter.by_ref().take(self.k));
        if let Some(&(_, cut)) = self.last.last() {
            // Near-tie widening: keep absorbing while the next score is
            // within the margin of the cut (capped at the live bound).
            let limit = cut * (1.0 + self.tie_margin);
            for (s, score) in iter {
                if score > limit || self.last.len() >= cap {
                    break;
                }
                self.last.push((s, score));
            }
        }
    }
}

impl CandidateSelector for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn shortlist(
        &mut self,
        input: SelectorInput<'_>,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<ServerId>,
    ) {
        self.fill_last(input, admit);
        out.clear();
        out.extend(self.last.iter().map(|&(s, _)| s));
        out.sort_unstable();
    }

    fn shortlist_scored(
        &mut self,
        input: SelectorInput<'_>,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<(ServerId, f64)>,
    ) -> bool {
        self.fill_last(input, admit);
        out.clear();
        out.extend_from_slice(&self.last);
        true
    }

    fn width_cap(&self) -> Option<usize> {
        // The live bound: near-tie widening stops at twice the current
        // base width (`fill_last` breaks on the same value), so the cap
        // tracks the EWMA-driven width instead of pinning at `k_max` —
        // a calm selector advertises a narrow cut and lets the lazy
        // federation merge skip far more shards. Width changes happen in
        // the observe hooks, *after* the decision the cap was quoted
        // for, so the quote is sound for that decision.
        Some(self.current_cap())
    }

    fn observe_selection(&mut self, chosen: ServerId) {
        // The "edge" is the worst-scored quartile (at least the single
        // worst entry); a 1-element shortlist carries no signal and only
        // damps the EWMA toward zero.
        let len = self.last.len();
        let edge_from = len.saturating_sub((len / 4).max(1)).max(1);
        let edge = match self.last.iter().position(|&(s, _)| s == chosen) {
            Some(pos) => pos >= edge_from,
            // Not in the shortlist at all: a wrapper heuristic restored a
            // wider list and its pick beat everything we proposed — the
            // strongest possible mis-ranking signal.
            None => true,
        };
        self.regret = (1.0 - self.alpha) * self.regret + self.alpha * f64::from(edge);
        if self.regret > self.widen_above && self.k < self.k_max {
            self.k = (self.k * 2).min(self.k_max);
            // Reset so the wider cut gets a fresh read before widening
            // again.
            self.regret = 0.0;
        } else if self.regret < self.shrink_below
            && self.stretch < self.shrink_below
            && self.k > self.k_min
        {
            // Decay only on fully calm windows: rank agreement alone is
            // not enough while completions keep running late.
            self.k -= 1;
        }
    }

    fn observe_outcome(&mut self, observed_completion: f64, predicted_completion: f64) {
        // A completion is a regression when it lands more than the
        // tolerance past the commit-time prediction. Guard against
        // degenerate predictions (≤ 0): no signal either way.
        if predicted_completion <= 0.0 {
            return;
        }
        let late = observed_completion > predicted_completion * (1.0 + self.stretch_tol);
        self.stretch =
            (1.0 - self.stretch_alpha) * self.stretch + self.stretch_alpha * f64::from(late);
        if self.stretch > self.widen_above && self.k < self.k_max {
            self.k = (self.k * 2).min(self.k_max);
            // Fresh read for the wider cut — but parked at the shrink
            // threshold, not zero, so the width cannot decay again until
            // an actually-calm window of on-time completions accrues.
            self.stretch = self.shrink_below;
            self.regret = 0.0;
        }
    }
}

/// Which stage-1 backend a run uses — configuration-level mirror of the
/// backends, like `HeuristicKind` for heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SelectorKind {
    /// No pruning (the executable spec).
    #[default]
    Exhaustive,
    /// Fixed-width k-best by stage-1 score.
    TopK {
        /// Shortlist width.
        k: usize,
    },
    /// Self-adjusting width within `[k_min, k_max]`.
    Adaptive {
        /// Width floor (and starting width).
        k_min: usize,
        /// Width ceiling.
        k_max: usize,
    },
}

impl SelectorKind {
    /// An adaptive selector sized for an `n`-server platform: floor 8,
    /// ceiling n (¼ of the platform at ≥ 32 servers).
    pub fn adaptive_for(n_servers: usize) -> Self {
        SelectorKind::Adaptive {
            k_min: 8.min(n_servers.max(1)),
            k_max: (n_servers / 4).max(8).min(n_servers.max(1)),
        }
    }

    /// Instantiates the backend.
    pub fn build(self) -> Box<dyn CandidateSelector> {
        match self {
            SelectorKind::Exhaustive => Box::new(Exhaustive),
            SelectorKind::TopK { k } => Box::new(TopK::new(k)),
            SelectorKind::Adaptive { k_min, k_max } => Box::new(Adaptive::new(k_min, k_max)),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SelectorKind::Exhaustive => "exhaustive",
            SelectorKind::TopK { .. } => "topk",
            SelectorKind::Adaptive { .. } => "adaptive",
        }
    }

    /// Parses `exhaustive`, `topk` / `topk:K`, `adaptive` /
    /// `adaptive:MIN:MAX` (case-insensitive; `topk` defaults to k=16,
    /// `adaptive` to [8, 64]).
    pub fn parse(s: &str) -> Option<SelectorKind> {
        let lower = s.to_ascii_lowercase();
        let mut parts = lower.split(':');
        let head = parts.next()?;
        let kind = match head {
            "exhaustive" | "full" => {
                if parts.next().is_some() {
                    return None;
                }
                SelectorKind::Exhaustive
            }
            "topk" => {
                let k = match parts.next() {
                    Some(v) => v.parse().ok().filter(|&k| k >= 1)?,
                    None => 16,
                };
                SelectorKind::TopK { k }
            }
            "adaptive" => {
                let (k_min, k_max) = match (parts.next(), parts.next()) {
                    (None, _) => (8, 64),
                    (Some(a), Some(b)) => {
                        let lo = a.parse().ok().filter(|&k| k >= 1)?;
                        let hi = b.parse().ok().filter(|&k| k >= lo)?;
                        (lo, hi)
                    }
                    (Some(_), None) => return None,
                };
                SelectorKind::Adaptive { k_min, k_max }
            }
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_platform::{CostTable, PhaseCosts, Problem};

    /// 4 servers; P0 durations 100/150/300/300, P1 only on S2 (50).
    fn table() -> CostTable {
        let mut c = CostTable::new(4);
        c.add_problem(
            Problem::new("p0", 0.0, 0.0, 0.0),
            vec![
                Some(PhaseCosts::new(0.0, 100.0, 0.0)),
                Some(PhaseCosts::new(0.0, 150.0, 0.0)),
                Some(PhaseCosts::new(0.0, 300.0, 0.0)),
                Some(PhaseCosts::new(0.0, 300.0, 0.0)),
            ],
        );
        c.add_problem(
            Problem::new("p1", 0.0, 0.0, 0.0),
            vec![None, None, Some(PhaseCosts::new(0.0, 50.0, 0.0)), None],
        );
        c
    }

    fn run(
        sel: &mut dyn CandidateSelector,
        index: &StaticIndex,
        problem: u32,
        admit: impl Fn(ServerId) -> bool,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        sel.shortlist(
            SelectorInput {
                problem: ProblemId(problem),
                index,
            },
            &admit,
            &mut out,
        );
        out.into_iter().map(|s| s.0).collect()
    }

    #[test]
    fn exhaustive_matches_solvers_in_id_order() {
        let costs = table();
        let index = StaticIndex::new(&costs);
        let mut sel = Exhaustive;
        assert_eq!(run(&mut sel, &index, 0, |_| true), vec![0, 1, 2, 3]);
        assert_eq!(run(&mut sel, &index, 1, |_| true), vec![2]);
        assert_eq!(run(&mut sel, &index, 0, |s| s.0 != 1), vec![0, 2, 3]);
    }

    #[test]
    fn topk_prunes_by_score_and_emits_id_order() {
        let costs = table();
        let mut index = StaticIndex::new(&costs);
        // Load S0 so its score (100 + 300 of backlog = 400) falls behind
        // S1/S2/S3.
        for _ in 0..3 {
            index.on_commit(ServerId(0), 100.0);
        }
        let mut sel = TopK::new(2);
        assert_eq!(run(&mut sel, &index, 0, |_| true), vec![1, 2]);
        // k = 1: single best.
        let mut sel = TopK::new(1);
        assert_eq!(run(&mut sel, &index, 0, |_| true), vec![1]);
        // k > n: everything, id order — Exhaustive's output.
        let mut sel = TopK::new(100);
        assert_eq!(run(&mut sel, &index, 0, |_| true), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_candidate_sets_yield_empty_shortlists() {
        let costs = table();
        let index = StaticIndex::new(&costs);
        let none = |_s: ServerId| false;
        for sel in [
            &mut Exhaustive as &mut dyn CandidateSelector,
            &mut TopK::new(3),
            &mut Adaptive::new(1, 4),
        ] {
            assert_eq!(run(sel, &index, 0, none), Vec::<u32>::new());
            // P1 with its only solver rejected is empty too.
            assert_eq!(run(sel, &index, 1, |s| s.0 != 2), Vec::<u32>::new());
        }
    }

    #[test]
    fn adaptive_widens_on_near_ties() {
        let costs = table();
        let index = StaticIndex::new(&costs);
        // k_min = 3 cuts between the tied 300-scores of S2/S3: the near-tie
        // rule must absorb S3.
        let mut sel = Adaptive::new(3, 4);
        assert_eq!(run(&mut sel, &index, 0, |_| true), vec![0, 1, 2, 3]);
        // With the tie broken (S3 loaded → 600), the cut stays at 3.
        let mut index = StaticIndex::new(&costs);
        index.on_commit(ServerId(3), 300.0);
        assert_eq!(run(&mut sel, &index, 0, |_| true), vec![0, 1, 2]);
    }

    #[test]
    fn adaptive_widens_under_edge_regret_and_decays_when_calm() {
        let costs = table();
        let index = StaticIndex::new(&costs);
        let mut sel = Adaptive::new(2, 4);
        // Persistent tail picks: stage 2 keeps choosing the worst-ranked
        // shortlist entry → width must grow to k_max.
        for _ in 0..200 {
            let list = run(&mut sel, &index, 0, |_| true);
            let worst = ServerId(*list.last().unwrap());
            sel.observe_selection(worst);
            if sel.current_k() == 4 {
                break;
            }
        }
        assert_eq!(sel.current_k(), 4, "regret must widen the cut");
        // Persistent head picks: regret decays, width shrinks back.
        for _ in 0..400 {
            let list = run(&mut sel, &index, 0, |_| true);
            sel.observe_selection(ServerId(list[0]));
        }
        assert_eq!(sel.current_k(), 2, "calm decisions must shrink the cut");
    }

    #[test]
    fn adaptive_counts_out_of_shortlist_picks_as_regret() {
        let costs = table();
        let index = StaticIndex::new(&costs);
        let mut sel = Adaptive::new(2, 4);
        for _ in 0..200 {
            let _ = run(&mut sel, &index, 0, |_| true);
            sel.observe_selection(ServerId(3)); // never shortlisted at k=2
            if sel.current_k() == 4 {
                break;
            }
        }
        assert_eq!(sel.current_k(), 4);
    }

    #[test]
    fn adaptive_widens_on_stretch_regressions() {
        let mut sel = Adaptive::new(2, 4);
        // Completions keep landing 50 % past their predictions: the
        // stretch EWMA must widen the cut even though rank regret is zero.
        for _ in 0..200 {
            sel.observe_outcome(150.0, 100.0);
            if sel.current_k() == 4 {
                break;
            }
        }
        assert_eq!(sel.current_k(), 4, "stretch must widen the cut");
        assert_eq!(
            sel.stretch_regret(),
            sel.shrink_below,
            "widening parks the EWMA at the shrink threshold"
        );
    }

    #[test]
    fn adaptive_stretch_blocks_decay_until_calm() {
        let costs = table();
        let index = StaticIndex::new(&costs);
        let mut sel = Adaptive::new(2, 4);
        // Drive the width up via stretch, then keep picks calm (head
        // picks) while completions stay late: the width must hold.
        while sel.current_k() < 4 {
            sel.observe_outcome(150.0, 100.0);
        }
        for _ in 0..100 {
            let list = run(&mut sel, &index, 0, |_| true);
            sel.observe_selection(ServerId(list[0]));
            sel.observe_outcome(150.0, 100.0);
        }
        assert_eq!(sel.current_k(), 4, "late completions must block decay");
        // On-time completions let both EWMAs decay and the width shrink.
        for _ in 0..600 {
            let list = run(&mut sel, &index, 0, |_| true);
            sel.observe_selection(ServerId(list[0]));
            sel.observe_outcome(100.0, 100.0);
        }
        assert_eq!(sel.current_k(), 2, "calm windows must shrink the cut");
    }

    #[test]
    fn adaptive_outcome_ignores_degenerate_predictions() {
        let mut sel = Adaptive::new(2, 4);
        for _ in 0..100 {
            sel.observe_outcome(50.0, 0.0);
        }
        assert_eq!(sel.current_k(), 2);
        assert_eq!(sel.stretch_regret(), 0.0);
    }

    #[test]
    fn kind_parse_roundtrip() {
        assert_eq!(
            SelectorKind::parse("exhaustive"),
            Some(SelectorKind::Exhaustive)
        );
        assert_eq!(SelectorKind::parse("FULL"), Some(SelectorKind::Exhaustive));
        assert_eq!(
            SelectorKind::parse("topk"),
            Some(SelectorKind::TopK { k: 16 })
        );
        assert_eq!(
            SelectorKind::parse("topk:5"),
            Some(SelectorKind::TopK { k: 5 })
        );
        assert_eq!(
            SelectorKind::parse("adaptive"),
            Some(SelectorKind::Adaptive {
                k_min: 8,
                k_max: 64
            })
        );
        assert_eq!(
            SelectorKind::parse("Adaptive:4:32"),
            Some(SelectorKind::Adaptive {
                k_min: 4,
                k_max: 32
            })
        );
        for bad in [
            "",
            "topk:0",
            "topk:x",
            "adaptive:9:4",
            "adaptive:4",
            "nope",
            "topk:3:4",
        ] {
            assert_eq!(SelectorKind::parse(bad), None, "{bad}");
        }
        for kind in [
            SelectorKind::Exhaustive,
            SelectorKind::TopK { k: 3 },
            SelectorKind::Adaptive { k_min: 2, k_max: 9 },
        ] {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn adaptive_for_scales_with_platform() {
        assert_eq!(
            SelectorKind::adaptive_for(1000),
            SelectorKind::Adaptive {
                k_min: 8,
                k_max: 250
            }
        );
        assert_eq!(
            SelectorKind::adaptive_for(4),
            SelectorKind::Adaptive { k_min: 4, k_max: 4 }
        );
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn topk_zero_panics() {
        TopK::new(0);
    }

    /// `width_cap` is a true upper bound on every emitted shortlist:
    /// exhaustive is unbounded, TopK caps at k, Adaptive at its live
    /// bound even through near-tie widening.
    #[test]
    fn width_cap_bounds_emitted_width() {
        assert_eq!(Exhaustive.width_cap(), None);
        assert_eq!(TopK::new(3).width_cap(), Some(3));
        let costs = table();
        let index = StaticIndex::new(&costs);
        // k_min = 3 would absorb the tied S3 via near-tie widening, but
        // k_max = 3 pins the cap.
        let mut sel = Adaptive::new(3, 3);
        assert_eq!(sel.width_cap(), Some(3));
        let out = run(&mut sel, &index, 0, |_| true);
        assert_eq!(out.len(), 3);
        let mut topk = TopK::new(2);
        assert!(run(&mut topk, &index, 0, |_| true).len() <= 2);
    }

    /// The adaptive cap is *live*: a calm selector at base width `k`
    /// advertises `2k` (clamped to the band), not the conservative
    /// `k_max`, and the bound tracks the EWMA-driven width up and down.
    #[test]
    fn adaptive_width_cap_tracks_base_width() {
        let costs = table();
        let index = StaticIndex::new(&costs);
        let mut sel = Adaptive::new(2, 64);
        assert_eq!(sel.width_cap(), Some(4), "2·k, far below k_max");
        // Regret doubles the base width; the cap follows.
        for _ in 0..200 {
            let _ = run(&mut sel, &index, 0, |_| true);
            sel.observe_selection(ServerId(3));
            if sel.current_k() == 4 {
                break;
            }
        }
        assert_eq!(sel.current_k(), 4);
        assert_eq!(sel.width_cap(), Some(8));
        // Calm windows shrink it again, and the floor is k_min.
        for _ in 0..400 {
            let list = run(&mut sel, &index, 0, |_| true);
            sel.observe_selection(ServerId(list[0]));
        }
        assert_eq!(sel.current_k(), 2);
        assert_eq!(sel.width_cap(), Some(4));
        let sel = Adaptive::new(1, 1);
        assert_eq!(sel.width_cap(), Some(1), "clamped into the band");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::heuristics::{HeuristicKind, SchedView};
    use crate::htm::{Htm, SyncPolicy};
    use cas_platform::{CostTable, LoadReport, PhaseCosts, Problem, TaskId, TaskInstance};
    use cas_sim::{RngStream, SimTime, StreamKind};
    use proptest::prelude::*;

    const N_SERVERS: usize = 5;
    const N_PROBLEMS: usize = 2;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    prop_compose! {
        fn arb_costs()(i in 0.0f64..3.0, c in 0.1f64..30.0, o in 0.0f64..3.0) -> PhaseCosts {
            PhaseCosts::new(i, c, o)
        }
    }

    fn build_table(costs: &[PhaseCosts], solvable: &[bool]) -> CostTable {
        let mut table = CostTable::new(N_SERVERS);
        for p in 0..N_PROBLEMS {
            let row = (0..N_SERVERS)
                .map(|s| {
                    let k = p * N_SERVERS + s;
                    (s == 0 || solvable[k]).then_some(costs[k])
                })
                .collect();
            table.add_problem(Problem::new(format!("p{p}"), 0.1, 0.1, 0.0), row);
        }
        table
    }

    proptest! {
        /// `TopK(k = n)` is **bit-identical** to `Exhaustive` over
        /// arbitrary interleavings of commit / predict / retract: at every
        /// decision both selectors produce the same shortlist, every
        /// heuristic picks the same server on both, and the winning
        /// predictions agree bit for bit — the acceptance property of the
        /// two-stage pipeline.
        #[test]
        fn topk_full_width_is_bitwise_exhaustive(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS * N_PROBLEMS),
            solvable in proptest::collection::vec(proptest::bool::ANY, N_SERVERS * N_PROBLEMS),
            ops in proptest::collection::vec(
                // (op kind, server, problem, time gap, excluded server)
                (0u32..10, 0u32..N_SERVERS as u32, 0u32..N_PROBLEMS as u32, 0.0f64..15.0,
                 0u32..N_SERVERS as u32),
                1..40,
            ),
        ) {
            let table = build_table(&costs, &solvable);
            let mut htm = Htm::new(table.clone(), SyncPolicy::None);
            let mut index = StaticIndex::new(&table);
            let mut exhaustive = Exhaustive;
            let mut topk = TopK::new(N_SERVERS);
            let loads: Vec<LoadReport> =
                (0..N_SERVERS as u32).map(|i| LoadReport::initial(ServerId(i))).collect();
            let mut now = 0.0f64;
            let mut next_id = 0u64;
            let mut committed: Vec<(TaskId, ServerId, f64)> = Vec::new();
            for (kind, server, problem, gap, excl) in ops {
                now += gap;
                let when = t(now);
                match kind {
                    // Decision rounds: both pipelines must agree exactly.
                    0..=5 => {
                        let probe = TaskInstance::new(
                            TaskId(1_000_000 + next_id),
                            ProblemId(problem),
                            when,
                        );
                        next_id += 1;
                        let admit = |s: ServerId| s.0 != excl;
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        exhaustive.shortlist(
                            SelectorInput { problem: probe.problem, index: &index },
                            &admit,
                            &mut a,
                        );
                        topk.shortlist(
                            SelectorInput { problem: probe.problem, index: &index },
                            &admit,
                            &mut b,
                        );
                        prop_assert_eq!(&a, &b, "shortlists diverged");
                        for h in [HeuristicKind::Hmct, HeuristicKind::Mp, HeuristicKind::Msf] {
                            let pick = |cands: Vec<ServerId>, htm: &mut Htm| {
                                let mut rng = RngStream::derive(7, StreamKind::TieBreak);
                                let mut view = SchedView::new(
                                    when, probe, cands, &table, &loads, htm, &mut rng,
                                );
                                let pick = h.build().select(&mut view)?;
                                let p = view.predict(pick).cloned();
                                Some((pick, p))
                            };
                            let pa = pick(a.clone(), &mut htm);
                            let pb = pick(b.clone(), &mut htm);
                            match (&pa, &pb) {
                                (None, None) => {}
                                (Some((sa, qa)), Some((sb, qb))) => {
                                    prop_assert_eq!(sa, sb, "{:?} diverged", h);
                                    prop_assert_eq!(qa, qb, "{:?} prediction diverged", h);
                                }
                                _ => prop_assert!(false, "{h:?}: one pipeline failed the task"),
                            }
                        }
                    }
                    // Commits keep HTM and index in lockstep.
                    6..=8 => {
                        let task = TaskInstance::new(TaskId(next_id), ProblemId(problem), when);
                        next_id += 1;
                        let target = if table.costs(task.problem, ServerId(server)).is_some() {
                            ServerId(server)
                        } else {
                            ServerId(0) // always solvable by construction
                        };
                        let work = table
                            .unloaded_duration(task.problem, target)
                            .expect("target is solvable");
                        htm.commit(when, target, &task);
                        index.on_commit(target, work);
                        committed.push((task.id, target, work));
                    }
                    // Retracts undo a commit on both sides. (`retract`
                    // returns false when the task's simulated completion
                    // already passed — the trace is clean either way, and
                    // the index ledger pairs the retract with its commit.)
                    _ => {
                        if let Some((id, srv, work)) = committed.pop() {
                            htm.retract(when, id);
                            index.on_retract(srv, work);
                        }
                    }
                }
            }
        }

        /// Pruned shortlists are always a subset of the exhaustive one,
        /// never empty while an admissible candidate exists, in strict id
        /// order, and within the width bound — for every backend and
        /// arbitrary index churn.
        #[test]
        fn shortlist_structural_invariants(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS * N_PROBLEMS),
            solvable in proptest::collection::vec(proptest::bool::ANY, N_SERVERS * N_PROBLEMS),
            churn in proptest::collection::vec((0u32..N_SERVERS as u32, proptest::bool::ANY), 0..30),
            k in 1usize..N_SERVERS + 3,
            problem in 0u32..N_PROBLEMS as u32,
            excl in 0u32..N_SERVERS as u32 + 1,
        ) {
            let table = build_table(&costs, &solvable);
            let mut index = StaticIndex::new(&table);
            let mut active = [0u32; N_SERVERS];
            for (s, up) in churn {
                let s = s as usize;
                if up {
                    index.on_commit(ServerId(s as u32), 2.5 * (s as f64 + 1.0));
                    active[s] += 1;
                } else if active[s] > 0 {
                    index.on_complete(ServerId(s as u32), 2.5 * (s as f64 + 1.0));
                    active[s] -= 1;
                }
            }
            let admit = |s: ServerId| s.0 != excl;
            let input = || SelectorInput {
                problem: ProblemId(problem),
                index: &index,
            };
            let mut full = Vec::new();
            Exhaustive.shortlist(input(), &admit, &mut full);
            let mut selectors: Vec<Box<dyn CandidateSelector>> = vec![
                Box::new(TopK::new(k)),
                Box::new(Adaptive::new(k.min(N_SERVERS), N_SERVERS)),
            ];
            for sel in &mut selectors {
                let cap = sel.width_cap();
                let mut out = Vec::new();
                sel.shortlist(input(), &admit, &mut out);
                prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "not id-sorted");
                prop_assert!(out.iter().all(|s| full.contains(s)), "not a subset");
                prop_assert_eq!(out.is_empty(), full.is_empty(), "dropped every candidate");
                prop_assert!(out.len() <= full.len());
                if let Some(cap) = cap {
                    prop_assert!(out.len() <= cap, "emitted {} > cap {}", out.len(), cap);
                }
            }
        }

        /// The adaptive `width_cap` quoted *before* a decision bounds that
        /// decision's emitted shortlist, through arbitrary regret and
        /// stretch feedback driving the base width up and down — the
        /// soundness property the lazy federation merge leans on when it
        /// skips shards without running their selectors.
        #[test]
        fn adaptive_live_cap_is_sound_under_feedback(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS * N_PROBLEMS),
            solvable in proptest::collection::vec(proptest::bool::ANY, N_SERVERS * N_PROBLEMS),
            band in (1usize..N_SERVERS + 2, 0usize..4)
                .prop_map(|(lo, extra)| (lo, lo + extra)),
            // (problem, feedback kind, picked rank, lateness)
            rounds in proptest::collection::vec(
                (0u32..N_PROBLEMS as u32, 0u32..3, 0usize..N_SERVERS, 0.0f64..2.0),
                1..60,
            ),
        ) {
            let table = build_table(&costs, &solvable);
            let index = StaticIndex::new(&table);
            let (k_min, k_max) = band;
            let mut sel = Adaptive::new(k_min, k_max);
            for (problem, feedback, rank, lateness) in rounds {
                let quoted = sel.width_cap().expect("adaptive always bounds");
                prop_assert!(quoted <= k_max && quoted >= k_min.min(k_max));
                let mut out = Vec::new();
                sel.shortlist(
                    SelectorInput { problem: ProblemId(problem), index: &index },
                    &|_| true,
                    &mut out,
                );
                prop_assert!(
                    out.len() <= quoted,
                    "emitted {} > cap {} quoted before the decision",
                    out.len(),
                    quoted,
                );
                match feedback {
                    0 if !out.is_empty() => {
                        sel.observe_selection(out[rank.min(out.len() - 1)]);
                    }
                    1 => sel.observe_outcome(100.0 * (1.0 + lateness), 100.0),
                    _ => {}
                }
            }
        }
    }
}
