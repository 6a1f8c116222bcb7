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
//! lowest server id (and [`RandomChoice`] draws from its own dedicated RNG
//! stream), so experiments are reproducible bit-for-bit.

mod htm_based;
mod mct;
mod memaware;
mod simple;

pub use htm_based::{Hmct, Mni, Mp, Msf};
pub use mct::Mct;
pub use memaware::MemAware;
pub use simple::{Kpb, MinLoad, Olb, RandomChoice, RoundRobin};

use crate::prediction::Prediction;
use crate::whatif::WhatIf;
use cas_platform::{CostTable, LoadReport, ServerId, TaskInstance};
use cas_sim::{RngStream, SimTime};
use std::borrow::Cow;

/// Tolerance for "equal" objective values in tie-break rules (MP's
/// "if all π are equal" test of Fig. 3). Objectives are sums of simulated
/// seconds, so an absolute epsilon in seconds is appropriate.
pub const TIE_EPS: f64 = 1e-9;

/// Candidate lists at most this long take the direct per-candidate
/// `predict_into` path instead of `predict_all` on the first what-if
/// query. Matches the federated router's small-run threshold, where
/// per-candidate queries are already the proven-identical fast path for
/// short runs; above it the batch path's pool fan-out starts to pay.
const DIRECT_PREDICT_MAX: usize = 16;

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

    fn set(&mut self, server: ServerId, p: Option<Prediction>) {
        self.grow_to(server.index() + 1);
        let i = server.index();
        self.stamps[i] = self.stamp;
        match p {
            Some(pred) => {
                self.solvable[i] = true;
                self.preds[i] = pred;
            }
            None => self.solvable[i] = false,
        }
    }

    /// Writes `server`'s slot in place: `fill` receives the slot's
    /// reusable [`Prediction`] storage and returns whether the server
    /// can solve (`false` memoises "cannot solve" without touching the
    /// buffer). The zero-allocation direct path writes through here.
    fn fill_with(&mut self, server: ServerId, fill: impl FnOnce(&mut Prediction) -> bool) {
        self.grow_to(server.index() + 1);
        let i = server.index();
        self.solvable[i] = fill(&mut self.preds[i]);
        self.stamps[i] = self.stamp;
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
/// Predictions are memoised and evaluated over the whole candidate list
/// on the first what-if query: short lists (≤ [`DIRECT_PREDICT_MAX`])
/// take one routed `predict_into` per candidate, written straight into
/// the memo's reusable slots — the steady-state decision loop allocates
/// nothing — while longer lists batch through [`Htm::predict_all`] (one
/// generation-cached, zero-clone drain per candidate, threaded when the
/// load justifies it). Every later query — MP re-reading the winner's
/// completion date, MNI's tie-breaks — is a memo lookup. A query for a
/// server outside the candidate list (a wrapper heuristic restoring a
/// wider list) falls back to a single routed query.
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
    /// The what-if backend: one HTM, or a shard federation routing each
    /// query to the owning shard — the heuristic cannot tell.
    htm: &'a mut dyn WhatIf,
    rng: &'a mut RngStream,
    /// Memoised what-if answers, dense by server index; "cannot solve" is
    /// recorded so unsolvable servers are not re-queried.
    memo: MemoSlot<'a>,
    /// Whether the candidate list has been batch-predicted already.
    batched: bool,
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
        htm: &'a mut dyn WhatIf,
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
            batched: false,
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

    /// HTM what-if query, memoised per decision; the first query
    /// evaluates the whole candidate list — per candidate in place for
    /// short lists, via [`Htm::predict_all`] for long ones.
    ///
    /// Returns `None` if the server cannot solve the problem.
    pub fn predict(&mut self, server: ServerId) -> Option<&Prediction> {
        if !self.memo.get().queried(server) {
            if !self.batched && self.candidates.contains(&server) {
                self.batched = true;
                if self.candidates.len() <= DIRECT_PREDICT_MAX {
                    // Short list: one routed query per candidate, each
                    // written into the memo's reusable slot. Bit-identical
                    // to the batch path (the federated backend already
                    // serves short same-shard runs per candidate); a
                    // duplicate candidate re-queries instead of cloning,
                    // which only nudges the predictions-made counter —
                    // the answer comes from the same memoised drain.
                    let Self {
                        now,
                        ref task,
                        ref candidates,
                        ref mut htm,
                        ref mut memo,
                        ..
                    } = *self;
                    let memo = memo.get_mut();
                    for &s in candidates.iter() {
                        memo.fill_with(s, |out| htm.predict_into(now, s, task, out));
                    }
                } else {
                    let results = self.htm.predict_all(self.now, &self.task, &self.candidates);
                    let memo = self.memo.get_mut();
                    for (&s, p) in self.candidates.iter().zip(results) {
                        memo.set(s, p);
                    }
                }
            } else {
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
        }
        self.memo.get().lookup(server)
    }

    /// The tie-break RNG stream (only [`RandomChoice`] uses it).
    pub fn rng(&mut self) -> &mut RngStream {
        self.rng
    }

    /// Generic deterministic argmin over candidates: evaluates `objective`
    /// for each candidate (skipping `None`s) and returns the server with
    /// the smallest value, ties to the lowest id.
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

    /// The run-wide memo must forget the previous decision's entries on
    /// `begin` — no stale prediction may leak into the next decision.
    /// The reset is a single stamp bump, so nothing is walked or cleared.
    #[test]
    fn decision_memo_stamp_reset_between_decisions() {
        let mut memo = DecisionMemo::new();
        memo.begin(4);
        memo.set(ServerId(1), None);
        memo.set(
            ServerId(3),
            Some(Prediction {
                completion: SimTime::from_secs(5.0),
                queried_at: SimTime::ZERO,
                perturbations: vec![],
            }),
        );
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

    /// Setting the same server twice within one decision keeps the last
    /// answer, and the slot's perturbation storage survives across
    /// decisions so in-place fills reuse it instead of reallocating.
    #[test]
    fn decision_memo_overwrites_and_reuses_slot_storage() {
        let mut memo = DecisionMemo::new();
        memo.begin(2);
        memo.set(
            ServerId(0),
            Some(Prediction {
                completion: SimTime::from_secs(1.0),
                queried_at: SimTime::ZERO,
                perturbations: vec![(cas_platform::TaskId(9), 2.0)],
            }),
        );
        memo.set(ServerId(0), None);
        assert!(memo.queried(ServerId(0)));
        assert!(memo.lookup(ServerId(0)).is_none(), "last write wins");
        // Next decision: the in-place fill finds the buffer adopted by
        // the first `set` still in the slot.
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
        memo.set(ServerId(7), None);
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
