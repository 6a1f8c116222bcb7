//! Scheduling heuristics (§4 and Figs. 2–4).
//!
//! Every policy implements [`Heuristic`]: given a [`SchedView`] — the
//! agent's window onto the world at decision time — pick a server. The view
//! offers two information channels, mirroring the paper's two worlds:
//!
//! * `load(s)` / `mct_estimate(s)` — the NetSolve information model: static
//!   costs plus stale, correction-adjusted load reports. This is all MCT
//!   ever sees.
//! * `predict(s)` — an HTM what-if query (simulated completion and
//!   perturbations). HMCT, MP, MSF and MNI are built on this.
//!
//! Selections are deterministic: all argmin scans break exact ties by
//! candidate-list position — ascending server id on every list the
//! engine builds — (and [`RandomChoice`] draws from its own dedicated RNG
//! stream), so experiments are reproducible bit-for-bit.

mod htm_based;
mod mct;
mod memaware;
mod simple;

#[cfg(test)]
pub(crate) use htm_based::{hmct_lower_bound, msf_lower_bound, msf_terms};
pub use htm_based::{Hmct, Mni, Mp, Msf};
pub use mct::Mct;
pub use memaware::MemAware;
pub use simple::{Kpb, MinLoad, Olb, RandomChoice, RoundRobin};

use crate::htm::Htm;
use crate::prediction::Prediction;
use crate::trace::Backlog;
use cas_platform::{CostTable, LoadReport, ServerId, TaskInstance};
use cas_sim::{RngStream, SimTime};
use std::borrow::Cow;

/// Tolerance for "equal" objective values in tie-break rules (MP's
/// "if all π are equal" test of Fig. 3). Objectives are sums of simulated
/// seconds, so an absolute epsilon in seconds is appropriate.
pub const TIE_EPS: f64 = 1e-9;

/// Reusable storage for one decision's memoised what-if answers.
///
/// A [`SchedView`] lives for one scheduling decision, but a run makes one
/// decision per task arrival — hundreds of thousands in a campaign. Owning
/// a fresh `HashMap` per view put a hash-map allocation on every decision;
/// the engine instead keeps one `DecisionMemo` for the whole run and lends
/// it to each view ([`SchedView::with_memo`]). A memo probe is an array
/// read, dense by server index, and invalidation is a stamp comparison:
/// starting a new decision bumps one counter instead of walking or
/// clearing anything, and each slot's [`Prediction`] buffer persists
/// across decisions so the steady state rewrites it in place — the
/// decision loop performs no heap allocation at all.
#[derive(Debug, Default)]
pub struct DecisionMemo {
    /// The current decision's stamp. A slot belongs to this decision
    /// exactly when its entry in `stamps` matches; everything else is
    /// stale regardless of content.
    stamp: u64,
    /// Per-server stamp of the last write. Fresh slots hold `u64::MAX`,
    /// which no decision counter ever reaches.
    stamps: Vec<u64>,
    /// Whether the memoised answer is a prediction (`true`, stored in
    /// `preds`) or "cannot solve" (`false`).
    solvable: Vec<bool>,
    /// Reusable prediction storage; `preds[s]` is meaningful only when
    /// `stamps[s]` is current and `solvable[s]`.
    preds: Vec<Prediction>,
    /// Visit order of [`SchedView::argmin_bounded`]: `(lower bound,
    /// candidate-list position)`, rebuilt per walk in place.
    bounds: Vec<(f64, usize)>,
}

impl DecisionMemo {
    /// An empty memo; buffers grow to the server count on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new decision over `n_servers`: O(1) — bumping the stamp
    /// invalidates every slot at once (plus a one-time grow).
    fn begin(&mut self, n_servers: usize) {
        self.stamp += 1;
        self.grow_to(n_servers);
    }

    fn grow_to(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, u64::MAX);
            self.solvable.resize(n, false);
            self.preds.resize_with(n, Prediction::empty);
        }
    }

    /// Whether `server` was queried this decision (including "cannot
    /// solve" answers — unsolvable servers are not re-queried).
    fn queried(&self, server: ServerId) -> bool {
        self.stamps.get(server.index()) == Some(&self.stamp)
    }

    /// This decision's memoised prediction, `None` when unqueried or
    /// unsolvable.
    fn lookup(&self, server: ServerId) -> Option<&Prediction> {
        let i = server.index();
        (self.queried(server) && self.solvable[i]).then(|| &self.preds[i])
    }

    /// Writes `server`'s slot in place: `fill` receives the slot's
    /// reusable [`Prediction`] storage and returns whether the server
    /// can solve (`false` memoises "cannot solve" without touching the
    /// buffer).
    fn fill_with(&mut self, server: ServerId, fill: impl FnOnce(&mut Prediction) -> bool) {
        self.try_fill_with(server, |out| Some(fill(out)));
    }

    /// [`Self::fill_with`] for a query that may stop short: `fill`
    /// returning `None` leaves the slot unqueried. Every what-if query
    /// writes through here.
    fn try_fill_with(
        &mut self,
        server: ServerId,
        fill: impl FnOnce(&mut Prediction) -> Option<bool>,
    ) {
        self.grow_to(server.index() + 1);
        let i = server.index();
        if let Some(solvable) = fill(&mut self.preds[i]) {
            self.solvable[i] = solvable;
            self.stamps[i] = self.stamp;
        }
    }
}

/// The memo a view works against: its own (stand-alone construction, as in
/// tests and benches) or one lent by the engine for the whole run.
#[derive(Debug)]
enum MemoSlot<'a> {
    Owned(DecisionMemo),
    Shared(&'a mut DecisionMemo),
}

impl MemoSlot<'_> {
    fn get(&self) -> &DecisionMemo {
        match self {
            MemoSlot::Owned(m) => m,
            MemoSlot::Shared(m) => m,
        }
    }

    fn get_mut(&mut self) -> &mut DecisionMemo {
        match self {
            MemoSlot::Owned(m) => m,
            MemoSlot::Shared(m) => m,
        }
    }
}

/// The agent's window onto the world at one scheduling decision.
///
/// A what-if query answers only the server it names: one
/// `predict_into`, written straight into the memo's reusable slot, so
/// the steady-state decision loop allocates nothing. Every repeat query
/// — MP re-reading the winner's completion date, MNI's tie-breaks — is
/// a memo lookup. Which servers get queried at all is the heuristic's
/// business: HMCT and MSF walk the list through
/// [`SchedView::argmin_bounded`] and stop once no unvisited candidate's
/// lower bound can beat the incumbent; the other HTM policies query
/// every candidate.
pub struct SchedView<'a> {
    /// Decision time.
    pub now: SimTime,
    /// The task to place.
    pub task: TaskInstance,
    /// Servers able to solve the task's problem (the candidate list of
    /// Figs. 2–4, line 2). Already excludes servers the agent knows to have
    /// collapsed. Borrowed from the engine's scratch in the steady state;
    /// wrapper heuristics that narrow the list swap in an owned copy.
    pub candidates: Cow<'a, [ServerId]>,
    costs: &'a CostTable,
    loads: &'a [LoadReport],
    /// The agent's HTM: one trace per server, global ids.
    htm: &'a mut Htm,
    rng: &'a mut RngStream,
    /// Memoised what-if answers, dense by server index; "cannot solve" is
    /// recorded so unsolvable servers are not re-queried.
    memo: MemoSlot<'a>,
    /// Per-server admission limits (RAM + swap), MB — set by the engine
    /// when memory-aware policies are in play.
    server_mem: Option<&'a [f64]>,
}

impl<'a> SchedView<'a> {
    /// Builds a view. `candidates` should come from
    /// [`CostTable::solvers`] minus known-dead servers; the engine lends
    /// its scratch list as a slice (no per-decision copy), while owned
    /// vectors — tests, wrappers — convert implicitly.
    pub fn new(
        now: SimTime,
        task: TaskInstance,
        candidates: impl Into<Cow<'a, [ServerId]>>,
        costs: &'a CostTable,
        loads: &'a [LoadReport],
        htm: &'a mut Htm,
        rng: &'a mut RngStream,
    ) -> Self {
        SchedView {
            now,
            task,
            candidates: candidates.into(),
            costs,
            loads,
            htm,
            rng,
            memo: MemoSlot::Owned(DecisionMemo::new()),
            server_mem: None,
        }
    }

    /// Attaches per-server admission limits (RAM + swap, MB) so
    /// memory-aware policies can veto doomed placements.
    pub fn with_server_mem(mut self, mem: &'a [f64]) -> Self {
        self.server_mem = Some(mem);
        self
    }

    /// Lends the run-wide [`DecisionMemo`] to this view instead of the
    /// owned throw-away one, dropping the per-decision allocation. Call
    /// before the first query.
    pub fn with_memo(mut self, memo: &'a mut DecisionMemo) -> Self {
        memo.begin(self.costs.n_servers());
        self.memo = MemoSlot::Shared(memo);
        self
    }

    /// The admission limit of `server`, if memory information is attached.
    pub fn server_total_mem(&self, server: ServerId) -> Option<f64> {
        self.server_mem.map(|m| m[server.index()])
    }

    /// The HTM's estimate of `server`'s resident memory at decision time,
    /// MB.
    pub fn resident_estimate(&mut self, server: ServerId) -> f64 {
        self.htm.resident_estimate(self.now, server)
    }

    /// The memory need of the task being placed, MB.
    pub fn task_mem_need(&self) -> f64 {
        self.costs.problem(self.task.problem).mem_mb
    }

    /// Static cost table.
    pub fn costs(&self) -> &CostTable {
        self.costs
    }

    /// The agent's current (corrected) load estimate for a server.
    pub fn load(&self, server: ServerId) -> f64 {
        self.loads[server.index()].corrected_load()
    }

    /// The NetSolve completion estimate (§2.2): communication at face
    /// value, computation stretched by the load — the available CPU
    /// fraction on a server with load `l` is `1/(l+1)`, so the compute cost
    /// divides by it.
    ///
    /// Returns `None` if the server cannot solve the problem.
    pub fn mct_estimate(&self, server: ServerId) -> Option<f64> {
        let c = self.costs.costs(self.task.problem, server)?;
        let load = self.load(server);
        Some(c.input + c.compute * (load + 1.0) + c.output)
    }

    /// HTM what-if query for `server`, memoised per decision.
    ///
    /// Returns `None` if the server cannot solve the problem.
    pub fn predict(&mut self, server: ServerId) -> Option<&Prediction> {
        if !self.memo.get().queried(server) {
            let Self {
                now,
                ref task,
                ref mut htm,
                ref mut memo,
                ..
            } = *self;
            memo.get_mut()
                .fill_with(server, |out| htm.predict_into(now, server, task, out));
        }
        self.memo.get().lookup(server)
    }

    /// One candidate of a bounded walk: `objective` of `server`'s
    /// prediction, unless the queue the probe would join already rules
    /// it out. Before the drain, `bound` maps the server's [`Backlog`] to
    /// a lower bound on the objective; when `beat` rules that bound out,
    /// the query stops there and the bound is returned instead — a value
    /// that loses to the incumbent and is at most the objective. A pruned
    /// query memoises nothing. Returns `None` if the server cannot solve
    /// the problem.
    pub fn objective_unless(
        &mut self,
        server: ServerId,
        beat: Incumbent,
        bound: impl FnOnce(&Backlog) -> f64,
        objective: impl FnOnce(&Prediction) -> f64,
    ) -> Option<f64> {
        if !self.memo.get().queried(server) {
            let Self {
                now,
                ref task,
                ref mut htm,
                ref mut memo,
                ..
            } = *self;
            let mut lost = None;
            memo.get_mut().try_fill_with(server, |out| {
                htm.predict_into_unless(now, server, task, out, |q| {
                    lost = Some(bound(q)).filter(|&b| beat.rules_out(b));
                    lost.is_some()
                })
            });
            if lost.is_some() {
                return lost;
            }
        }
        self.memo.get().lookup(server).map(objective)
    }

    /// The tie-break RNG stream (only [`RandomChoice`] uses it).
    pub fn rng(&mut self) -> &mut RngStream {
        self.rng
    }

    /// Generic deterministic argmin over candidates: evaluates `objective`
    /// for each candidate (skipping `None`s) and returns the server with
    /// the smallest value, ties to the earliest list position.
    pub fn argmin<F>(&mut self, mut objective: F) -> Option<ServerId>
    where
        F: FnMut(&mut Self, ServerId) -> Option<f64>,
    {
        // Cloning a borrowed candidate list copies the reference, not the
        // servers — the engine-path argmin stays allocation-free.
        let candidates = self.candidates.clone();
        let mut best: Option<(ServerId, f64)> = None;
        for &s in candidates.iter() {
            let Some(v) = objective(self, s) else {
                continue;
            };
            debug_assert!(v.is_finite(), "objective for {s} is not finite");
            best = match best {
                None => Some((s, v)),
                Some((_, bv)) if v < bv => Some((s, v)),
                other => other,
            };
        }
        best.map(|(s, _)| s)
    }

    /// [`SchedView::argmin`] as a branch-and-bound: returns exactly the
    /// server `argmin(objective)` returns, evaluating `objective` only
    /// where it could still matter.
    ///
    /// `bound(view, s)` must never exceed `objective(view, s, _)` when the
    /// latter is `Some`; `None` means "no bound" and forces an
    /// evaluation. Candidates are visited in ascending `(bound, list
    /// position)` order, and the walk stops at the first candidate whose
    /// bound the [`Incumbent`] rules out: above the incumbent's value, or
    /// equal to it from a later list position — every candidate from
    /// there on is at least as bad and loses the position tie-break.
    /// Ties between evaluated candidates go to the earlier list position,
    /// so the pick equals `argmin`'s first minimum for any list order.
    ///
    /// `objective` receives the incumbent the candidate must beat
    /// ([`Incumbent::NONE`] before the first evaluation). It returns the
    /// candidate's objective, or any lower bound on it that the incumbent
    /// rules out — a proven loser needs no exact value. The visit order
    /// is kept in the memo's reusable buffer: the walk allocates nothing.
    pub fn argmin_bounded<B, F>(&mut self, mut bound: B, mut objective: F) -> Option<ServerId>
    where
        B: FnMut(&Self, ServerId) -> Option<f64>,
        F: FnMut(&mut Self, ServerId, Incumbent) -> Option<f64>,
    {
        let candidates = self.candidates.clone();
        let mut order = std::mem::take(&mut self.memo.get_mut().bounds);
        order.clear();
        order.extend(
            candidates
                .iter()
                .enumerate()
                .map(|(pos, &s)| (bound(self, s).unwrap_or(f64::NEG_INFINITY), pos)),
        );
        // `partial_cmp`, not `total_cmp`: the stop rule compares bounds
        // with `==`, under which -0.0 and 0.0 are one value, so they must
        // also sort as one value (by position).
        order.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("lower bounds are never NaN")
                .then(a.1.cmp(&b.1))
        });
        let mut best: Option<(usize, f64)> = None;
        for &(b, pos) in &order {
            let beat = best.map_or(Incumbent::NONE, |(best_pos, value)| Incumbent {
                value,
                tie_loses: pos > best_pos,
            });
            if beat.rules_out(b) {
                break;
            }
            let s = candidates[pos];
            let Some(v) = objective(self, s, beat) else {
                continue;
            };
            debug_assert!(v.is_finite(), "objective for {s} is not finite");
            debug_assert!(b <= v, "lower bound {b} exceeds objective {v} on {s}");
            // Positions are distinct, so "not ruled out" is "strictly
            // better, or tied from an earlier position".
            if !beat.rules_out(v) {
                best = Some((pos, v));
            }
        }
        self.memo.get_mut().bounds = order;
        best.map(|(pos, _)| candidates[pos])
    }
}

/// What a candidate of [`SchedView::argmin_bounded`] must beat to take
/// the lead: the incumbent's objective value, where a tie loses when
/// the candidate sits later in the list than the incumbent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incumbent {
    /// The incumbent's objective.
    pub value: f64,
    /// Whether a candidate equal to `value` loses (it sits later in the
    /// list than the incumbent).
    pub tie_loses: bool,
}

impl Incumbent {
    /// No incumbent yet: nothing finite is ruled out.
    pub const NONE: Incumbent = Incumbent {
        value: f64::INFINITY,
        tie_loses: false,
    };

    /// The walk's stop rule: whether a candidate whose objective is at
    /// least `bound` cannot take the lead.
    pub fn rules_out(&self, bound: f64) -> bool {
        bound > self.value || (bound == self.value && self.tie_loses)
    }
}

/// A scheduling policy.
pub trait Heuristic: Send {
    /// Display name, as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Whether the policy needs HTM commits to be maintained. The
    /// middleware keeps the HTM up to date for every policy (it is also the
    /// metric oracle), but this flag documents the dependency.
    fn uses_htm(&self) -> bool;

    /// Whether the policy ever reads a prediction's perturbation list.
    /// Defaults to `true` (the safe depth); completion-only policies
    /// (HMCT, MCT, the simple baselines) override to `false`, which lets
    /// the fast stage-2 engine truncate speculative drains at the probe's
    /// completion ([`crate::Htm::set_completion_only`]).
    fn needs_perturbations(&self) -> bool {
        true
    }

    /// Picks a server for `view.task`, or `None` when no candidate exists.
    fn select(&mut self, view: &mut SchedView<'_>) -> Option<ServerId>;
}

/// Enumeration of all shipped heuristics, for configuration and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// NetSolve's Minimum Completion Time (baseline).
    Mct,
    /// Historical MCT (Fig. 2).
    Hmct,
    /// Minimum Perturbation (Fig. 3).
    Mp,
    /// Minimum Sum Flow (Fig. 4) — Weissman's MTI.
    Msf,
    /// Minimize the Number of tasks that experience Interference (Weissman).
    Mni,
    /// Round-robin over candidates.
    RoundRobin,
    /// Uniform random candidate.
    Random,
    /// Lowest corrected load.
    MinLoad,
    /// Opportunistic load balancing: first idle server, else min load.
    Olb,
    /// HMCT behind the memory admission veto (paper future work §7).
    MemHmct,
    /// MSF behind the memory admission veto (paper future work §7).
    MemMsf,
    /// k-percent best (Maheswaran et al., HCW'99) with k = 50 %.
    Kpb,
}

impl HeuristicKind {
    /// All kinds, in the order the paper's tables list them (extensions
    /// after).
    pub const ALL: [HeuristicKind; 12] = [
        HeuristicKind::Mct,
        HeuristicKind::Hmct,
        HeuristicKind::Mp,
        HeuristicKind::Msf,
        HeuristicKind::Mni,
        HeuristicKind::RoundRobin,
        HeuristicKind::Random,
        HeuristicKind::MinLoad,
        HeuristicKind::Olb,
        HeuristicKind::MemHmct,
        HeuristicKind::MemMsf,
        HeuristicKind::Kpb,
    ];

    /// The four policies evaluated in the paper's tables.
    pub const PAPER: [HeuristicKind; 4] = [
        HeuristicKind::Mct,
        HeuristicKind::Hmct,
        HeuristicKind::Mp,
        HeuristicKind::Msf,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Heuristic> {
        match self {
            HeuristicKind::Mct => Box::new(Mct),
            HeuristicKind::Hmct => Box::new(Hmct),
            HeuristicKind::Mp => Box::new(Mp),
            HeuristicKind::Msf => Box::new(Msf),
            HeuristicKind::Mni => Box::new(Mni),
            HeuristicKind::RoundRobin => Box::new(RoundRobin::default()),
            HeuristicKind::Random => Box::new(RandomChoice),
            HeuristicKind::MinLoad => Box::new(MinLoad),
            HeuristicKind::Olb => Box::new(Olb),
            HeuristicKind::MemHmct => Box::new(MemAware::new(Hmct)),
            HeuristicKind::MemMsf => Box::new(MemAware::new(Msf)),
            HeuristicKind::Kpb => Box::new(Kpb::default()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::Mct => "MCT",
            HeuristicKind::Hmct => "HMCT",
            HeuristicKind::Mp => "MP",
            HeuristicKind::Msf => "MSF",
            HeuristicKind::Mni => "MNI",
            HeuristicKind::RoundRobin => "RR",
            HeuristicKind::Random => "RAND",
            HeuristicKind::MinLoad => "MINLOAD",
            HeuristicKind::Olb => "OLB",
            HeuristicKind::MemHmct => "M-HMCT",
            HeuristicKind::MemMsf => "M-MSF",
            HeuristicKind::Kpb => "KPB",
        }
    }

    /// Parses a display name (case-insensitive).
    pub fn parse(s: &str) -> Option<HeuristicKind> {
        let up = s.to_ascii_uppercase();
        HeuristicKind::ALL.into_iter().find(|k| k.name() == up)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::htm::Htm;
    use cas_platform::{PhaseCosts, Problem, TaskId};

    /// Builds a 3-server cost table: P0 costs 100/150/300 s compute on
    /// S0/S1/S2, no transfers, no memory.
    pub fn table3() -> CostTable {
        let mut c = CostTable::new(3);
        c.add_problem(
            Problem::new("p", 0.0, 0.0, 0.0),
            vec![
                Some(PhaseCosts::new(0.0, 100.0, 0.0)),
                Some(PhaseCosts::new(0.0, 150.0, 0.0)),
                Some(PhaseCosts::new(0.0, 300.0, 0.0)),
            ],
        );
        c
    }

    pub fn loads3() -> Vec<LoadReport> {
        (0..3).map(|i| LoadReport::initial(ServerId(i))).collect()
    }

    pub fn task(id: u64, arrival: f64) -> TaskInstance {
        TaskInstance::new(
            TaskId(id),
            cas_platform::ProblemId(0),
            SimTime::from_secs(arrival),
        )
    }

    /// Runs one selection with fresh state.
    pub fn select_once(
        h: &mut dyn Heuristic,
        htm: &mut Htm,
        loads: &[LoadReport],
        costs: &CostTable,
        t: TaskInstance,
    ) -> Option<ServerId> {
        let mut rng = RngStream::derive(7, cas_sim::StreamKind::TieBreak);
        let mut view = SchedView::new(
            t.arrival,
            t,
            costs.solvers(t.problem),
            costs,
            loads,
            htm,
            &mut rng,
        );
        h.select(&mut view)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::htm::{Htm, SyncPolicy};
    use cas_sim::SimTime;

    /// Writes a solvable answer completing at `secs`, with `perturbations`
    /// copied into the slot's reusable storage.
    fn fill_solvable(
        memo: &mut DecisionMemo,
        server: ServerId,
        secs: f64,
        perturbations: &[(cas_platform::TaskId, f64)],
    ) {
        memo.fill_with(server, |out| {
            out.completion = SimTime::from_secs(secs);
            out.queried_at = SimTime::ZERO;
            out.perturbations.clear();
            out.perturbations.extend_from_slice(perturbations);
            true
        });
    }

    /// The run-wide memo must forget the previous decision's entries on
    /// `begin` — no stale prediction may leak into the next decision.
    /// The reset is a single stamp bump, so nothing is walked or cleared.
    #[test]
    fn decision_memo_stamp_reset_between_decisions() {
        let mut memo = DecisionMemo::new();
        memo.begin(4);
        memo.fill_with(ServerId(1), |_| false);
        fill_solvable(&mut memo, ServerId(3), 5.0, &[]);
        assert!(memo.queried(ServerId(1)), "cannot-solve is memoised");
        assert!(
            memo.lookup(ServerId(1)).is_none(),
            "but yields no prediction"
        );
        assert!(memo.lookup(ServerId(3)).is_some());
        // Next decision: everything the last one wrote is stale.
        memo.begin(4);
        for s in 0..4 {
            assert!(!memo.queried(ServerId(s)), "S{s} leaked");
            assert!(memo.lookup(ServerId(s)).is_none(), "S{s} leaked");
        }
    }

    /// Filling the same server twice within one decision keeps the last
    /// answer, and the slot's perturbation storage survives across
    /// decisions so in-place fills reuse it instead of reallocating.
    #[test]
    fn decision_memo_overwrites_and_reuses_slot_storage() {
        let mut memo = DecisionMemo::new();
        memo.begin(2);
        fill_solvable(
            &mut memo,
            ServerId(0),
            1.0,
            &[(cas_platform::TaskId(9), 2.0)],
        );
        memo.fill_with(ServerId(0), |_| false);
        assert!(memo.queried(ServerId(0)));
        assert!(memo.lookup(ServerId(0)).is_none(), "last write wins");
        // Next decision: the in-place fill finds the buffer the first
        // fill wrote still in the slot.
        memo.begin(2);
        memo.fill_with(ServerId(0), |out| {
            assert!(!out.perturbations.is_empty(), "slot storage persisted");
            out.perturbations.clear();
            out.completion = SimTime::from_secs(7.0);
            true
        });
        let p = memo.lookup(ServerId(0)).expect("filled as solvable");
        assert_eq!(p.completion, SimTime::from_secs(7.0));
        assert!(p.perturbations.is_empty());
        // A fill reporting "cannot solve" memoises exactly that.
        memo.begin(2);
        memo.fill_with(ServerId(1), |_| false);
        assert!(memo.queried(ServerId(1)));
        assert!(memo.lookup(ServerId(1)).is_none());
    }

    /// A memo created before the platform grew (or used stand-alone with
    /// no `begin`) grows on demand and keeps working.
    #[test]
    fn decision_memo_grows_on_demand() {
        let mut memo = DecisionMemo::new();
        memo.begin(2);
        memo.fill_with(ServerId(7), |_| false);
        assert!(memo.queried(ServerId(7)));
        assert!(!memo.queried(ServerId(6)));
        memo.begin(8);
        assert!(!memo.queried(ServerId(7)));
    }

    /// Across trace generations: a shared memo must answer from the
    /// *current* HTM state in every decision — after a commit bumps a
    /// server's generation, the next decision's memoised prediction
    /// reflects the committed task, not the previous decision's answer.
    #[test]
    fn decision_memo_reuse_across_generations_stays_fresh() {
        let costs = table3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let loads = loads3();
        let mut memo = DecisionMemo::new();
        let mut rng = cas_sim::RngStream::derive(7, cas_sim::StreamKind::TieBreak);
        let t1 = task(1, 0.0);
        let before = {
            let mut view = SchedView::new(
                t1.arrival,
                t1,
                costs.solvers(t1.problem),
                &costs,
                &loads,
                &mut htm,
                &mut rng,
            )
            .with_memo(&mut memo);
            view.predict(ServerId(0)).unwrap().completion
        };
        htm.commit(SimTime::ZERO, ServerId(0), &task(10, 0.0));
        let t2 = task(2, 0.0);
        let after = {
            let mut view = SchedView::new(
                t2.arrival,
                t2,
                costs.solvers(t2.problem),
                &costs,
                &loads,
                &mut htm,
                &mut rng,
            )
            .with_memo(&mut memo);
            view.predict(ServerId(0)).unwrap().completion
        };
        assert!(
            after > before,
            "second decision must see the committed task: {before:?} vs {after:?}"
        );
    }

    /// Runs `f` on a stand-alone view over `candidates`; the objective
    /// and bound closures of the argmin tests read their own tables, so
    /// the view's cost table and HTM only have to exist.
    fn with_view<R>(candidates: Vec<ServerId>, f: impl FnOnce(&mut SchedView<'_>) -> R) -> R {
        let costs = table3();
        let loads = loads3();
        let mut htm = Htm::new(costs.clone(), SyncPolicy::None);
        let mut rng = cas_sim::RngStream::derive(7, cas_sim::StreamKind::TieBreak);
        let t = task(1, 0.0);
        let mut view = SchedView::new(t.arrival, t, candidates, &costs, &loads, &mut htm, &mut rng);
        f(&mut view)
    }

    /// An earlier-position candidate that ties the incumbent's objective
    /// still wins, although its higher bound puts it later in the walk:
    /// the tie-break is list position, exactly as in `argmin`.
    #[test]
    fn bounded_stage2_earlier_tie_with_higher_bound_wins() {
        let objective = |_: ServerId| Some(10.0);
        let bound = |s: ServerId| Some(if s == ServerId(0) { 5.0 } else { 1.0 });
        let mut visited = Vec::new();
        let (plain, bounded) = with_view(vec![ServerId(0), ServerId(1)], |view| {
            let plain = view.argmin(|_, s| objective(s));
            let bounded = view.argmin_bounded(
                |_, s| bound(s),
                |_, s, _| {
                    visited.push(s);
                    objective(s)
                },
            );
            (plain, bounded)
        });
        assert_eq!(
            visited,
            [ServerId(1), ServerId(0)],
            "walk is in bound order"
        );
        assert_eq!(plain, Some(ServerId(0)));
        assert_eq!(bounded, Some(ServerId(0)), "earlier position wins the tie");
    }

    /// The walk stops at the first bound that cannot beat the incumbent.
    #[test]
    fn bounded_stage2_stops_at_the_incumbent() {
        let objective = |s: ServerId| Some([4.0, 2.0, 9.0, 7.0][s.index()]);
        let bound = |s: ServerId| Some([3.0, 1.0, 8.0, 2.0][s.index()]);
        let mut visited = Vec::new();
        let pick = with_view((0..4).map(ServerId).collect(), |view| {
            view.argmin_bounded(
                |_, s| bound(s),
                |_, s, _| {
                    visited.push(s);
                    objective(s)
                },
            )
        });
        assert_eq!(pick, Some(ServerId(1)));
        // S1 (bound 1) sets the incumbent at 2; S3's bound 2 ties it from
        // a later position, so nothing after S1 is evaluated.
        assert_eq!(visited, [ServerId(1)]);
    }

    /// The objective sees the incumbent it must beat, and a candidate
    /// answered with a bound the incumbent rules out never takes the
    /// lead.
    #[test]
    fn bounded_stage2_objective_sees_the_incumbent() {
        let objective = |s: ServerId| [4.0, 2.0, 9.0][s.index()];
        let bound = |s: ServerId| [1.0, 1.0, 1.0][s.index()];
        let mut seen = Vec::new();
        let pick = with_view((0..3).map(ServerId).collect(), |view| {
            view.argmin_bounded(
                |_, s| Some(bound(s)),
                |_, s, beat| {
                    seen.push((s, beat));
                    // A queue-aware bound of 3.0 on S1 and S2: it cannot
                    // rule S1 out against S0's 4.0, but it rules S2 out
                    // against S1's 2.0.
                    let q = if s == ServerId(0) { 1.0 } else { 3.0 };
                    Some(if beat.rules_out(q) { q } else { objective(s) })
                },
            )
        });
        assert_eq!(pick, Some(ServerId(1)));
        let tie_loses = |value| Incumbent {
            value,
            tie_loses: true,
        };
        assert_eq!(
            seen,
            [
                (ServerId(0), Incumbent::NONE),
                (ServerId(1), tie_loses(4.0)),
                (ServerId(2), tie_loses(2.0)),
            ]
        );
        assert!(!Incumbent::NONE.rules_out(f64::MAX));
        assert!(Incumbent {
            value: 2.0,
            tie_loses: false
        }
        .rules_out(2.5));
        assert!(!Incumbent {
            value: 2.0,
            tie_loses: false
        }
        .rules_out(2.0));
    }

    proptest::proptest! {
        /// The bounded walk returns exactly `argmin`'s pick over arbitrary
        /// objective tables: small integer objectives force exact ties,
        /// `None` objectives carry arbitrary (even absurd) bounds, bounds
        /// sit anywhere from the objective itself down to "no bound" and
        /// a signed zero under a zero objective, and candidate lists are
        /// unsorted with duplicates. Each candidate also has a second,
        /// queue-aware bound between its order bound and its objective
        /// (often equal to the objective, so it ties the incumbent): the
        /// objective answers with that bound whenever the incumbent
        /// rules it out, as a pruned query does.
        #[test]
        fn bounded_stage2_argmin_matches_argmin(
            // Per server: (objective level, solvable draw, bound gap,
            // bound kind, queue-bound lift in halves of the gap).
            table in proptest::collection::vec(
                (0u32..4, 0u32..5, 0.0f64..3.0, 0u32..4, 0u32..3),
                1..12,
            ),
            picks in proptest::collection::vec(0usize..64, 0..24),
        ) {
            let objective: Vec<Option<f64>> = table
                .iter()
                .map(|&(level, draw, _, _, _)| (draw > 0).then_some(f64::from(level)))
                .collect();
            let bound: Vec<Option<f64>> = table
                .iter()
                .zip(&objective)
                .map(|(&(_, _, gap, kind, _), v)| match (kind, *v) {
                    (2, _) => None,
                    // Unsolvable: the bound is never checked against
                    // anything, so it may be arbitrarily high.
                    (_, None) => Some(10.0 + gap),
                    (0, Some(v)) => Some(v),
                    // A zero objective gets the bound -0.0, equal to it
                    // under `==` but sorted below it by `total_cmp`.
                    (3, Some(v)) => Some(if v == 0.0 { -0.0 } else { v - gap }),
                    (_, Some(v)) => Some(v - gap),
                })
                .collect();
            // The queue-aware bound: at least the order bound, at most
            // the objective.
            let queue: Vec<f64> = table
                .iter()
                .zip(&objective)
                .zip(&bound)
                .map(|((&(_, _, _, _, lift), v), b)| {
                    let v = v.unwrap_or(0.0);
                    let b = b.unwrap_or(v - 3.0);
                    b + (v - b) * f64::from(lift) / 2.0
                })
                .collect();
            let n = table.len();
            let candidates: Vec<ServerId> =
                picks.iter().map(|&k| ServerId((k % n) as u32)).collect();
            let (plain, bounded) = with_view(candidates.clone(), |view| {
                let plain = view.argmin(|_, s| objective[s.index()]);
                let bounded = view.argmin_bounded(
                    |_, s| bound[s.index()],
                    |_, s, beat| {
                        let q = queue[s.index()];
                        objective[s.index()].map(|v| if beat.rules_out(q) { q } else { v })
                    },
                );
                (plain, bounded)
            });
            proptest::prop_assert_eq!(
                bounded,
                plain,
                "candidates {:?}, objectives {:?}, bounds {:?}, queue bounds {:?}",
                &candidates,
                &objective,
                &bound,
                &queue
            );
        }
    }

    #[test]
    fn kind_roundtrip() {
        for k in HeuristicKind::ALL {
            assert_eq!(HeuristicKind::parse(k.name()), Some(k));
            assert_eq!(k.build().name(), k.name());
        }
        assert_eq!(HeuristicKind::parse("mct"), Some(HeuristicKind::Mct));
        assert_eq!(HeuristicKind::parse("nope"), None);
    }

    #[test]
    fn paper_subset() {
        assert_eq!(
            HeuristicKind::PAPER.map(|k| k.name()),
            ["MCT", "HMCT", "MP", "MSF"]
        );
    }

    /// The depth flag must mirror what each policy actually reads: only
    /// the perturbation-objective policies (MP, MSF, MNI and the wrapped
    /// M-MSF) may demand full drains; everything else is completion-only
    /// and eligible for truncated stage-2 drains.
    #[test]
    fn needs_perturbations_flags() {
        for k in [
            HeuristicKind::Mp,
            HeuristicKind::Msf,
            HeuristicKind::Mni,
            HeuristicKind::MemMsf,
        ] {
            assert!(k.build().needs_perturbations(), "{k:?}");
        }
        for k in [
            HeuristicKind::Mct,
            HeuristicKind::Hmct,
            HeuristicKind::RoundRobin,
            HeuristicKind::Random,
            HeuristicKind::MinLoad,
            HeuristicKind::Olb,
            HeuristicKind::MemHmct,
            HeuristicKind::Kpb,
        ] {
            assert!(!k.build().needs_perturbations(), "{k:?}");
        }
    }

    #[test]
    fn uses_htm_flags() {
        assert!(!HeuristicKind::Mct.build().uses_htm());
        for k in [HeuristicKind::Hmct, HeuristicKind::Mp, HeuristicKind::Msf] {
            assert!(k.build().uses_htm(), "{k:?}");
        }
    }
}
