//! The Historical Trace Manager.
//!
//! "We have designed a historical trace manager (HTM) that stores and keeps
//! track of information about each task. It simulates the execution of tasks
//! on resources and is able to predict the completion time of each task
//! assigned to a server." (§2.3)
//!
//! [`Htm`] owns one [`ServerTrace`] per registered server and exposes the
//! two operations every HTM-based heuristic in Figs. 2–4 performs:
//!
//! * **predict** — "Ask the HTM to compute …": simulate mapping the new task
//!   on a server and report completion date + perturbations, without
//!   committing anything;
//! * **commit** — "Tell the HTM that task is allocated to server …": make
//!   the mapping part of the historical trace.
//!
//! It also implements the paper's announced future work, synchronisation
//! between the HTM and the real platform ([`SyncPolicy`]): when the real
//! environment reports a completion, the model can be corrected so its error
//! does not compound.
//!
//! # The prediction engine
//!
//! Answering a what-if query is the scheduler's decision cost: every
//! HTM-based heuristic issues up to one query per candidate server per
//! incoming task. The engine therefore avoids all per-query cloning:
//!
//! * **Generation-cached baseline.** The *before* schedule (`f(i,j)` of all
//!   tasks already on a server, with no insertion) only changes when the
//!   server's trace mutates. Each trace carries a [`Generation`] stamp
//!   ([`ServerTrace::generation`]); the HTM caches the drained baseline per
//!   server keyed by that stamp, so the baseline is computed once per
//!   commit/retract/sync, not once per query. Queries never advance the
//!   real trace (the trace stays lazy until the next mutation), which is
//!   what keeps the stamp stable across an entire decision round — and
//!   across rounds for every server the agent did not commit to.
//! * **Zero-clone speculative drain.** A trace keeps its state as three
//!   flat lanes, and the live trace and every what-if run one event loop
//!   over them. The *after* schedule (with the candidate task inserted)
//!   runs that loop on a [`DrainScratch`](crate::trace::DrainScratch), a
//!   reusable copy of the trace's lanes, so results are bit-for-bit those
//!   of the clone-based path without per-query heap allocation. Every
//!   replay overwrites the scratch before reading it, so the HTM owns one
//!   for all its servers, beside one task → completion map; per server it
//!   keeps only what outlives a query (the baseline, the memoised
//!   after-schedule, the prefix cursor and the counters).
//! * **Incremental baseline repair.** The speculative *after*-schedule
//!   computed for `(task, now)` — which the engine has almost always just
//!   computed, since every commit follows a prediction for the winning
//!   server — **is** the post-commit baseline: the commit mutates the
//!   trace into exactly the state that drain describes. Commit therefore
//!   splices: it adopts the memoised after-schedule (recomputing it on
//!   the spot only if no matching query preceded the commit), so the
//!   trace mutation costs O(advance) instead of O(full re-drain). Retract
//!   and observe repair the same way through
//!   [`ServerTrace::drain_schedule_without`]. The proptests below assert
//!   after every mutation that [`Htm::cached_baseline`] equals a
//!   from-scratch [`ServerTrace::drain_schedule`], bit for bit.
//!
//! # The stage-2 drain engine
//!
//! Profiling showed the speculative drains above — phase `stage2_predict`
//! of the decision pipeline — dominating campaign wall time. Two further
//! optimisations apply, each bit-identical to a full drain by
//! construction, and the heuristics run fewer drains (below):
//!
//! * **Truncated drains.** When the configured heuristic only reads the
//!   probe's completion (HMCT and the non-perturbation policies — see
//!   [`Htm::set_completion_only`]), the drain stops as soon as the probe's
//!   last phase completes: the output is a bit-exact *prefix* of the full
//!   after-schedule, and rejected candidates never pay for the tail. The
//!   memo records whether its entry is truncated; a commit (which splices
//!   the after-schedule in as the new baseline and therefore needs all of
//!   it) re-runs the drain to completion — cheaply, via the prefix cursor.
//! * **Prefix sharing.** Every probe of a decision round replays the same
//!   baseline events on a server before its insertion point. A per-server
//!   [`PrefixCursor`](crate::trace::PrefixCursor) caches the replay state
//!   at the last processed event of the shared advance-to-`now` prefix,
//!   keyed by trace generation; subsequent probes (and the commit's
//!   full re-drain) resume from the snapshot instead of replaying the
//!   trace's whole event history.
//!
//! # Bounded stage 2
//!
//! Queries are serial and answer one server each; HMCT and MSF decide
//! how many to ask. Each lane of a trace is an equal-share resource of
//! capacity 1, so a probe inserted at `now` gets a rate of at most 1 in
//! each of its three sequential phases and completes no earlier than
//! `now + d`, `d` being its unloaded duration
//! ([`CostTable::unloaded_duration`]). That bounds HMCT's objective
//! (the completion date) by `now + d` and MSF's (`Σπ` plus the flow
//! time) by `d`, because every perturbation is clamped at zero — which
//! also settles `Σπ ≥ 0` for the three-lane pipeline, where an insertion
//! can otherwise speed a bystander up. The heuristics walk their
//! shortlist in ascending bound order through
//! [`SchedView::argmin_bounded`](crate::heuristics::SchedView::argmin_bounded)
//! and stop at the first bound that cannot beat the incumbent, so most
//! candidates of a lightly loaded farm never run a drain at all. The
//! bounds carry a slack of `1e-9 · (now + d)`, since the drain's rounding
//! grows with the absolute clock; a proptest below checks both against
//! the clone-and-drain oracle.
//!
//! The oracle for all of this lives in the test module: it clones the
//! trace, inserts the probe and drains the clone — the original what-if
//! implementation. The proptests below drive the engine and the oracle
//! through arbitrary commit/predict/retract/observe interleavings and
//! assert bit-for-bit agreement. The clone runs the same lane kernel as
//! the engine; `trace.rs`'s proptests pin that kernel to an independent
//! reference trace (three `FairShareResource`s and a job table), which
//! closes the chain.
//!
//! Per-task metadata (assignment + problem of every committed task) lives
//! in a [`cas_platform::Arena`]: contiguous records, recycled slots, one
//! id→key map instead of two id-keyed hash maps.

use crate::prediction::Prediction;
use crate::trace::{DrainScratch, PrefixCursor, ServerTrace};
use cas_platform::{Arena, ArenaKey, CostTable, PhaseCosts, ServerId, TaskId, TaskInstance};
use cas_sim::{Generation, SimTime};
use std::collections::HashMap;

/// After-schedules at most this long answer completion/perturbation
/// lookups by linear scan instead of rebuilding the per-query hash map —
/// cheaper for the handful of active tasks a campaign-realistic trace
/// holds, and observably identical.
const LINEAR_LOOKUP_MAX: usize = 12;

/// How the HTM reacts to completions observed on the real platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Pure open-loop simulation, as in the published system: the HTM's
    /// trace is never corrected by observations.
    #[default]
    None,
    /// Close the loop: when a completion is observed, force-finish the task
    /// in the trace at the observed time (the paper's "improve the
    /// synchronization between the HTM and the execution of the tasks"
    /// future work).
    ForceFinish,
}

/// What a memoised speculative drain depends on: the probe's phase costs
/// (bit patterns — the drain arithmetic consumes exactly these floats),
/// the query instant, and the trace state it ran against. Everything
/// *except* the probe's id, which is a pure label.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AfterKey {
    costs_bits: (u64, u64, u64),
    now: SimTime,
    generation: Generation,
}

impl AfterKey {
    fn new(costs: PhaseCosts, now: SimTime, generation: Generation) -> Self {
        AfterKey {
            costs_bits: (
                costs.input.to_bits(),
                costs.compute.to_bits(),
                costs.output.to_bits(),
            ),
            now,
            generation,
        }
    }
}

/// Per-server prediction state: what persists from one query to the next
/// — the generation-keyed baseline, the memoised after-schedule and its
/// key, the prefix cursor and the counters. The buffers every query
/// overwrites (the drain scratch, the lookup map) live once on [`Htm`].
#[derive(Debug, Clone, Default)]
struct PredictState {
    /// Cached baseline schedule (task, completion), in completion order —
    /// exactly what `trace.drain_schedule()` would return.
    baseline: Vec<(TaskId, SimTime)>,
    /// Trace generation the baseline was computed at. A fresh trace is at
    /// the default generation with an empty schedule, so the default state
    /// is consistent without a sentinel.
    baseline_gen: Generation,
    /// The memoised speculative drain: the after-schedule answering
    /// [`Self::after_query`], in completion order.
    after: Vec<(TaskId, SimTime)>,
    /// The query `after` currently answers: `(phase-cost bit patterns,
    /// now, trace generation at query time)`. Keyed on the *costs*, not
    /// the task id: the drain arithmetic never looks at the probe's id
    /// (the probe always enters at the tail of the input lane and ties
    /// break by lane position), so two same-instant probes of the same
    /// problem share one drain and differ only in the label of the
    /// probe's own entry — see [`PredictState::refresh_after`]. Also lets
    /// a commit that follows its own prediction — the engine's invariable
    /// order — adopt `after` as the new baseline without recomputing.
    /// The [`TaskId`] is the probe id currently labelling the memoised
    /// schedule.
    after_query: Option<(AfterKey, TaskId)>,
    /// Whether `after` holds the *complete* after-schedule (`true`) or a
    /// truncated prefix ending at the probe's completion (`false`). A
    /// truncated memo answers completion-only queries; a consumer that
    /// needs the whole schedule (commit's splice, perturbation fills)
    /// re-drains. Only ever `false` under completion-only depth.
    after_complete: bool,
    /// Baseline-prefix snapshot shared by all probes against one
    /// `(generation, now)`; invalidated implicitly by generation bumps.
    prefix: PrefixCursor,
    /// Speculative drains actually run (memo misses).
    drains: u64,
    /// Queries answered from the memoised `after` (exact repeats plus
    /// relabelled same-problem hits).
    memo_hits: u64,
    /// The subset of `memo_hits` where only the probe id differed — the
    /// hits the problem-keyed memo added over the old exact-task key.
    cross_task_hits: u64,
    /// Drains that stopped early at the probe's completion.
    truncated: u64,
    /// Drains that resumed the shared baseline prefix instead of
    /// replaying the trace's event history.
    prefix_hits: u64,
}

impl PredictState {
    /// Recomputes the baseline if the trace mutated since the cached copy.
    fn refresh_baseline(&mut self, trace: &ServerTrace, scratch: &mut DrainScratch) {
        if self.baseline_gen != trace.generation() {
            trace.drain_schedule_into(scratch, &mut self.baseline);
            self.baseline_gen = trace.generation();
        }
    }

    /// Ensures `self.after` holds the drained schedule with `(task,
    /// costs)` inserted at `now`, reusing the memoised answer when the
    /// last speculative drain asked the *same question* of an unchanged
    /// trace. "Same question" is keyed on the probe's phase costs, not
    /// its id: the drain never branches on the id (the probe enters at
    /// the tail of the input lane; completion ties break by lane
    /// position), so a same-instant probe of the same problem reuses the
    /// drain wholesale and only the probe's own entry is relabelled.
    ///
    /// `truncate` grants permission to stop the drain at the probe's
    /// completion; a memoised *truncated* schedule never satisfies a
    /// `!truncate` caller — the drain re-runs to completion, resuming the
    /// shared prefix.
    fn refresh_after(
        &mut self,
        trace: &ServerTrace,
        scratch: &mut DrainScratch,
        now: SimTime,
        task: TaskId,
        costs: PhaseCosts,
        truncate: bool,
    ) {
        let key = AfterKey::new(costs, now, trace.generation());
        let usable = match &self.after_query {
            Some((memo_key, _)) => *memo_key == key && (self.after_complete || truncate),
            None => false,
        };
        if usable {
            let (_, memo_task) = self.after_query.as_mut().expect("usable implies memoised");
            // Mirrors the drain path's duplicate-mapping panic: a hit
            // for a task the trace already holds would silently skip
            // that check.
            debug_assert!(
                *memo_task == task || !trace.is_active(task),
                "task {task} already mapped on this trace"
            );
            if *memo_task != task {
                let old = *memo_task;
                for entry in &mut self.after {
                    if entry.0 == old {
                        entry.0 = task;
                    }
                }
                *memo_task = task;
                self.cross_task_hits += 1;
            }
            self.memo_hits += 1;
        } else {
            let (prefix_hit, truncated) = trace.drain_schedule_into_fast(
                scratch,
                &mut self.prefix,
                now,
                task,
                costs,
                truncate,
                &mut self.after,
            );
            self.prefix_hits += prefix_hit as u64;
            self.truncated += truncated as u64;
            self.after_complete = !truncated;
            self.after_query = Some((key, task));
            self.drains += 1;
        }
    }

    /// Promotes `after` to `baseline` (the splice step of incremental
    /// repair); `after` is left holding the superseded baseline and its
    /// memo stamp is cleared.
    fn adopt_after_as_baseline(&mut self) {
        std::mem::swap(&mut self.baseline, &mut self.after);
        self.after_query = None;
    }
}

/// Aggregate counters of the speculative-drain memo, summed over servers
/// (see [`Htm::memo_stats`]): how many what-if questions actually ran a
/// drain versus how many were answered from the per-server memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Speculative drains run (memo misses).
    pub drains: u64,
    /// Queries answered from a memoised drain (exact repeats plus
    /// relabelled same-problem probes).
    pub hits: u64,
    /// The subset of `hits` where only the probe id differed — what the
    /// problem-keyed memo buys over an exact `(task, now, generation)`
    /// key.
    pub cross_task_hits: u64,
    /// The subset of `drains` that stopped early at the probe's
    /// completion (completion-only depth).
    pub truncated: u64,
    /// The subset of `drains` that resumed the shared baseline-prefix
    /// cursor instead of replaying the trace's event history.
    pub prefix_hits: u64,
}

impl MemoStats {
    /// Hits over all memo lookups, in [0, 1]; 0 when nothing was queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.drains + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Early-exited drains over all drains run, in [0, 1].
    pub fn truncation_rate(&self) -> f64 {
        if self.drains == 0 {
            0.0
        } else {
            self.truncated as f64 / self.drains as f64
        }
    }

    /// Field-wise sum of two counter sets.
    pub fn merge(self, other: MemoStats) -> MemoStats {
        MemoStats {
            drains: self.drains + other.drains,
            hits: self.hits + other.hits,
            cross_task_hits: self.cross_task_hits + other.cross_task_hits,
            truncated: self.truncated + other.truncated,
            prefix_hits: self.prefix_hits + other.prefix_hits,
        }
    }

    /// Prefix-cursor resumes over all drains run, in [0, 1].
    pub fn prefix_reuse_rate(&self) -> f64 {
        if self.drains == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.drains as f64
        }
    }
}

/// Arena record of one committed task: where it went and what problem it
/// instantiates (the agent-side memory estimate needs the problem; see
/// [`Htm::resident_estimate`]).
#[derive(Debug, Clone, Copy)]
struct CommittedTask {
    server: ServerId,
    problem: cas_platform::ProblemId,
}

/// The agent-side Historical Trace Manager.
#[derive(Debug, Clone)]
pub struct Htm {
    costs: CostTable,
    traces: Vec<ServerTrace>,
    /// One prediction cache per server, index-aligned with `traces`.
    predict_states: Vec<PredictState>,
    /// The replay buffers every speculative drain overwrites before it
    /// reads them, shared by all servers.
    scratch: DrainScratch,
    /// Reusable task → completion lookup over a long after-schedule,
    /// rebuilt on every query that needs it.
    after_map: HashMap<TaskId, SimTime>,
    /// Per-committed-task metadata, arena-backed (assignment + problem in
    /// one contiguous record; the paper's first piece of future work —
    /// "we need to incorporate memory requirements into the model" —
    /// reads the problem back for the memory estimate).
    committed: Arena<CommittedTask>,
    /// External id → arena key. Task ids are globally unique, so this is
    /// the single id-keyed map left on the commit path.
    by_task: HashMap<TaskId, ArenaKey<CommittedTask>>,
    sync: SyncPolicy,
    /// Query depth: when `true`, the configured heuristic only ever
    /// reads the probe's completion, so queries skip the perturbation
    /// fill and drains may truncate.
    completion_only: bool,
    predictions_made: u64,
}

impl Htm {
    /// Creates an HTM for the servers covered by `costs`.
    pub fn new(costs: CostTable, sync: SyncPolicy) -> Self {
        let n = costs.n_servers();
        Htm {
            costs,
            traces: (0..n).map(|_| ServerTrace::new()).collect(),
            predict_states: (0..n).map(|_| PredictState::default()).collect(),
            scratch: DrainScratch::new(),
            after_map: HashMap::new(),
            committed: Arena::new(),
            by_task: HashMap::new(),
            sync,
            completion_only: false,
            predictions_made: 0,
        }
    }

    /// Declares whether the run's heuristic reads only the probe's
    /// completion from predictions (no perturbations). This lets
    /// speculative drains stop at the probe's completion; predictions then
    /// carry an empty perturbation list.
    pub fn set_completion_only(&mut self, completion_only: bool) {
        self.completion_only = completion_only;
    }

    /// Whether completion-only query depth is active.
    pub fn completion_only(&self) -> bool {
        self.completion_only
    }

    /// Enables Gantt recording on one server's trace (diagnostics, Fig. 1).
    pub fn enable_recording(&mut self, server: ServerId) {
        let tr = std::mem::take(&mut self.traces[server.index()]);
        self.traces[server.index()] = tr.with_recording();
    }

    /// Extends the HTM with one brand-new server, online: the cost table
    /// grows by the given per-problem column and the server starts with
    /// an empty trace and a fresh prediction cache — exactly the state a
    /// fresh `Htm::new` over the extended table would give it, so a
    /// post-growth HTM is bit-identical to one built grown from the
    /// start (the dynamic half of a server provisioning event, next to
    /// `CostTable::push_server` / `StaticIndex::push_server`).
    ///
    /// # Panics
    /// Panics unless exactly one entry per registered problem is given.
    pub fn push_server(&mut self, per_problem: Vec<Option<cas_platform::PhaseCosts>>) -> ServerId {
        let id = self.costs.push_server(per_problem);
        self.traces.push(ServerTrace::new());
        self.predict_states.push(PredictState::default());
        id
    }

    /// The static cost table the HTM works from.
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }

    /// The trace of one server.
    pub fn trace(&self, server: ServerId) -> &ServerTrace {
        &self.traces[server.index()]
    }

    /// Number of what-if queries answered (for the decision-cost bench).
    pub fn predictions_made(&self) -> u64 {
        self.predictions_made
    }

    /// Speculative-drain memo counters, summed over all servers (for the
    /// decision-cost bench's hit-rate section).
    pub fn memo_stats(&self) -> MemoStats {
        self.predict_states
            .iter()
            .fold(MemoStats::default(), |acc, s| MemoStats {
                drains: acc.drains + s.drains,
                hits: acc.hits + s.memo_hits,
                cross_task_hits: acc.cross_task_hits + s.cross_task_hits,
                truncated: acc.truncated + s.truncated,
                prefix_hits: acc.prefix_hits + s.prefix_hits,
            })
    }

    /// Where a task was committed, if it was.
    pub fn assignment(&self, task: TaskId) -> Option<ServerId> {
        self.by_task
            .get(&task)
            .and_then(|&key| self.committed.get(key))
            .map(|rec| rec.server)
    }

    /// The cached baseline schedule of `server`, if it is fresh for the
    /// trace's current generation. Always `Some` in practice (the splice
    /// keeps the cache consistent through every mutation); the proptests
    /// compare it bitwise against [`ServerTrace::drain_schedule`].
    pub fn cached_baseline(&self, server: ServerId) -> Option<&[(TaskId, SimTime)]> {
        let state = &self.predict_states[server.index()];
        (state.baseline_gen == self.traces[server.index()].generation())
            .then_some(state.baseline.as_slice())
    }

    /// Simulates mapping `task` on `server` at time `now`.
    ///
    /// Returns `None` when the server did not register the task's problem.
    /// Does not modify the historical trace: the query runs on the HTM's
    /// reusable scratch buffers against the server's generation-cached
    /// baseline (see the module docs), so no per-query cloning or trace
    /// advancement happens. Bit-for-bit identical to the clone-and-drain
    /// oracle of the test module.
    pub fn predict(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
    ) -> Option<Prediction> {
        let mut out = Prediction::empty();
        self.predict_into(now, server, task, &mut out)
            .then_some(out)
    }

    /// [`Self::predict`] into caller-owned storage: returns `false` (and
    /// leaves `out` untouched) when the server did not register the
    /// task's problem, `true` with `out` overwritten in place otherwise.
    /// The steady-state decision loop queries through here so a grown
    /// perturbation buffer is reused instead of reallocated per query:
    /// `out.perturbations` is cleared and refilled in place. Unsolvable
    /// queries do not count toward `predictions_made`.
    pub fn predict_into(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
        out: &mut Prediction,
    ) -> bool {
        let Some(costs) = self.costs.costs(task.problem, server) else {
            return false;
        };
        self.predictions_made += 1;
        let trace = &self.traces[server.index()];
        let state = &mut self.predict_states[server.index()];
        let task = task.id;
        out.queried_at = now;
        out.perturbations.clear();
        // Completion-only depth: nothing reads the perturbations, so skip
        // the baseline refresh and the perturbation fill entirely and let
        // the drain stop at the probe's completion. The completion value
        // is bit-identical — truncation only cuts the schedule *after* the
        // probe's entry.
        if self.completion_only {
            state.refresh_after(trace, &mut self.scratch, now, task, costs, true);
            // Scan from the back: a truncated drain stops at the probe's
            // completion, so the probe is the last entry (or within its
            // same-instant tie batch). Task ids are unique in `after`, so
            // the direction cannot change the value found.
            out.completion = state
                .after
                .iter()
                .rev()
                .find(|&&(j, _)| j == task)
                .expect("probe is in its own after-schedule")
                .1;
            return true;
        }
        state.refresh_baseline(trace, &mut self.scratch);
        state.refresh_after(trace, &mut self.scratch, now, task, costs, false);
        // Small schedules answer by linear scan: rebuilding the task →
        // completion hash map costs more than scanning a few contiguous
        // pairs, and a campaign-realistic trace holds a handful of active
        // tasks. Same lookups, same floats, same order — bit-identical to
        // the map path (the differential proptests cover both regimes).
        let after = &state.after;
        let linear = after.len() <= LINEAR_LOOKUP_MAX;
        if !linear {
            self.after_map.clear();
            self.after_map.extend(after.iter().copied());
        }
        let after_map = &self.after_map;
        let lookup = |j: TaskId| -> Option<SimTime> {
            if linear {
                after.iter().find(|&&(t, _)| t == j).map(|&(_, f)| f)
            } else {
                after_map.get(&j).copied()
            }
        };
        out.completion = lookup(task).expect("probe is in its own after-schedule");
        out.perturbations
            .extend(state.baseline.iter().filter_map(|&(j, f_before)| {
                // Baseline entries absent from the after-schedule completed
                // before `now` (a task inserted at `now` cannot influence
                // them): they are no longer active at decision time and
                // carry no perturbation.
                //
                // Clamped at zero: the paper defines π on the
                // CPU-sharing intuition where insertions only delay. In
                // the full three-phase model an insertion can
                // occasionally *help* a bystander (by slowing a
                // competitor's input transfer), and float rounding can
                // also produce tiny negatives; both are treated as zero
                // interference.
                lookup(j).map(|f_after| (j, (f_after - f_before).as_secs().max(0.0)))
            }));
        true
    }

    /// Records that `task` has been allocated to `server` (Figs. 2–4, last
    /// line). The mapping becomes part of the historical trace used by all
    /// later predictions.
    ///
    /// The server's cached baseline is spliced rather than invalidated:
    /// the speculative after-schedule for `(task, now)` — memoised from
    /// the prediction that invariably precedes a commit, or recomputed
    /// here if none did — *is* the post-commit baseline, so the next query
    /// pays no re-drain.
    ///
    /// # Panics
    /// Panics if the server cannot solve the problem or the task was
    /// already committed.
    pub fn commit(&mut self, now: SimTime, server: ServerId, task: &TaskInstance) {
        let costs = self
            .costs
            .costs(task.problem, server)
            .expect("committing to a server that cannot solve the problem");
        assert!(
            !self.by_task.contains_key(&task.id),
            "task {} committed twice",
            task.id
        );
        let trace = &self.traces[server.index()];
        let state = &mut self.predict_states[server.index()];
        // The splice needs the *complete* after-schedule: a truncated memo
        // entry (completion-only depth) is re-drained to the end here,
        // resuming the shared prefix the prediction saved.
        state.refresh_after(trace, &mut self.scratch, now, task.id, costs, false);
        state.adopt_after_as_baseline();
        let trace = &mut self.traces[server.index()];
        trace.add_task(now, task.id, costs);
        state.baseline_gen = trace.generation();
        let key = self.committed.insert(CommittedTask {
            server,
            problem: task.problem,
        });
        self.by_task.insert(task.id, key);
    }

    /// Force-finishes `task` on `server`'s trace, splicing the cached
    /// baseline (the without-task drain becomes the new baseline; see
    /// [`ServerTrace::drain_schedule_without`]). Returns whether the task
    /// was still active.
    fn force_finish_repaired(&mut self, now: SimTime, server: ServerId, task: TaskId) -> bool {
        let trace = &self.traces[server.index()];
        let state = &mut self.predict_states[server.index()];
        let removed_predicted =
            trace.drain_schedule_without(&mut self.scratch, now, task, &mut state.after);
        state.adopt_after_as_baseline();
        let trace = &mut self.traces[server.index()];
        let removed = trace.force_finish(now, task);
        debug_assert_eq!(removed, removed_predicted);
        state.baseline_gen = trace.generation();
        removed
    }

    /// Un-commits a task (the real server rejected it and the client will
    /// retry elsewhere). Returns `true` if the task was present.
    pub fn retract(&mut self, now: SimTime, task: TaskId) -> bool {
        let Some(key) = self.by_task.remove(&task) else {
            return false;
        };
        let rec = self.committed.remove(key).expect("indexed record is live");
        self.force_finish_repaired(now, rec.server, task)
    }

    /// Feeds an observed completion back into the model, according to the
    /// [`SyncPolicy`].
    pub fn observe_completion(&mut self, now: SimTime, task: TaskId) {
        if self.sync == SyncPolicy::None {
            return;
        }
        if let Some(&key) = self.by_task.get(&task) {
            let server = self
                .committed
                .get(key)
                .expect("indexed record is live")
                .server;
            self.force_finish_repaired(now, server, task);
        }
    }

    /// Simulated completion dates of every unfinished task on `server`
    /// (the `f(i,j)` of §2.4) as of the trace cursor.
    pub fn completions_on(&self, server: ServerId) -> Vec<(TaskId, SimTime)> {
        self.traces[server.index()].drain_schedule()
    }

    /// Number of unfinished tasks the HTM believes `server` holds.
    pub fn active_on(&self, server: ServerId) -> usize {
        self.traces[server.index()].active_len()
    }

    /// The agent's estimate of `server`'s resident memory at `now`, MB:
    /// the summed memory needs of every task the HTM believes is still
    /// running there at that instant.
    ///
    /// Queries are pure, so a trace's job list only shrinks on mutations;
    /// "still running at `now`" therefore comes from the cached baseline
    /// schedule — a task is resident while its simulated completion lies
    /// beyond `now` — which is exactly the set a query-time
    /// `advance(now)` would have left active, without mutating anything
    /// or allocating.
    ///
    /// This is the model-side half of the paper's future work ("incorporate
    /// memory requirements into the model"); the memory-aware heuristics in
    /// [`crate::heuristics`] use it to veto placements the real server
    /// would reject.
    pub fn resident_estimate(&mut self, now: SimTime, server: ServerId) -> f64 {
        let trace = &self.traces[server.index()];
        let state = &mut self.predict_states[server.index()];
        state.refresh_baseline(trace, &mut self.scratch);
        let (by_task, committed, costs) = (&self.by_task, &self.committed, &self.costs);
        state
            .baseline
            .iter()
            .filter(|&&(_, completion)| completion > now)
            .map(|(t, _)| {
                by_task
                    .get(t)
                    .and_then(|&key| committed.get(key))
                    .map(|rec| costs.problem(rec.problem).mem_mb)
                    .unwrap_or(0.0)
            })
            .sum()
    }

    /// The simulated completion date of every committed task: dates already
    /// recorded in the traces for tasks the simulation finished, plus
    /// drained dates for tasks still active. Under [`SyncPolicy::None`]
    /// these are the open-loop `f(i,j)` values that Table 1 compares to
    /// reality.
    pub fn simulated_completions(&self) -> HashMap<TaskId, SimTime> {
        let mut out = HashMap::new();
        for trace in &self.traces {
            for &(task, when) in trace.finished() {
                out.insert(task, when);
            }
            for (task, when) in trace.drain_schedule() {
                out.insert(task, when);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_platform::{PhaseCosts, Problem};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Two servers; P0 is 100 s on S0 and 200 s on S1, no data, no memory.
    fn table() -> CostTable {
        let mut c = CostTable::new(2);
        c.add_problem(
            Problem::new("p", 0.0, 0.0, 0.0),
            vec![
                Some(PhaseCosts::new(0.0, 100.0, 0.0)),
                Some(PhaseCosts::new(0.0, 200.0, 0.0)),
            ],
        );
        c
    }

    fn task(id: u64, arrival: f64) -> TaskInstance {
        TaskInstance::new(TaskId(id), cas_platform::ProblemId(0), t(arrival))
    }

    /// The oracle of the prediction engine: the original clone-and-drain
    /// what-if path. Drains the trace as it stands, drains a clone with
    /// the probe inserted at `now`, and diffs the two schedules.
    pub(super) fn predict_reference(
        htm: &Htm,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
    ) -> Option<Prediction> {
        let costs = htm.costs().costs(task.problem, server)?;
        let trace = htm.trace(server);
        let before: Vec<(TaskId, SimTime)> = trace.drain_schedule();
        let mut with = trace.clone();
        with.add_task(now, task.id, costs);
        let after: HashMap<TaskId, SimTime> = with.drain_schedule().into_iter().collect();
        let perturbations = before
            .iter()
            .filter_map(|(j, f_before)| {
                // Tasks that finish before `now` drop out of the schedule
                // once the clone advances; they carry no perturbation.
                after
                    .get(j)
                    .map(|f_after| (*j, (*f_after - *f_before).as_secs().max(0.0)))
            })
            .collect();
        Some(Prediction {
            completion: after[&task.id],
            queried_at: now,
            perturbations,
        })
    }

    #[test]
    fn predict_empty_server_is_unloaded_cost() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        let p = htm.predict(t(0.0), ServerId(0), &task(1, 0.0)).unwrap();
        assert_eq!(p.completion, t(100.0));
        assert!(p.perturbations.is_empty());
        let p2 = htm.predict(t(0.0), ServerId(1), &task(1, 0.0)).unwrap();
        assert_eq!(p2.completion, t(200.0));
    }

    #[test]
    fn predict_does_not_mutate() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.predict(t(0.0), ServerId(0), &task(1, 0.0));
        htm.predict(t(0.0), ServerId(0), &task(1, 0.0));
        assert_eq!(htm.active_on(ServerId(0)), 0);
        assert_eq!(htm.predictions_made(), 2);
    }

    #[test]
    fn commit_then_predict_sees_perturbation() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        let p = htm.predict(t(0.0), ServerId(0), &task(2, 0.0)).unwrap();
        // T1 alone would finish at 100; sharing with T2 (100) makes T1
        // finish at 200: perturbation 100.
        assert_eq!(p.perturbations, vec![(TaskId(1), 100.0)]);
        // T2 finishes at 200 too (tie, same size).
        assert_eq!(p.completion, t(200.0));
        assert_eq!(p.sum_perturbation(), 100.0);
    }

    #[test]
    fn perturbation_depends_on_remaining_work() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        // At t=80, T1 has 20 s left. Inserting T2 (100 s): T1 finishes at
        // 0.5 rate → +20 s of sharing → done at 120 (perturbation 20).
        let p = htm.predict(t(80.0), ServerId(0), &task(2, 80.0)).unwrap();
        assert_eq!(p.perturbations, vec![(TaskId(1), 20.0)]);
        // T2: shares 40 s (does 20), then alone 80 → done at 200.
        assert_eq!(p.completion, t(200.0));
    }

    #[test]
    fn unsolvable_returns_none() {
        let mut c = CostTable::new(2);
        c.add_problem(
            Problem::new("only-s1", 0.0, 0.0, 0.0),
            vec![None, Some(PhaseCosts::new(0.0, 10.0, 0.0))],
        );
        let mut htm = Htm::new(c, SyncPolicy::None);
        assert!(htm.predict(t(0.0), ServerId(0), &task(1, 0.0)).is_none());
        assert!(htm.predict(t(0.0), ServerId(1), &task(1, 0.0)).is_some());
    }

    #[test]
    fn retract_frees_the_trace() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        assert_eq!(htm.assignment(TaskId(1)), Some(ServerId(0)));
        assert!(htm.retract(t(10.0), TaskId(1)));
        assert_eq!(htm.assignment(TaskId(1)), None);
        // Server looks free again: a new prediction shows no perturbation.
        let p = htm.predict(t(10.0), ServerId(0), &task(2, 10.0)).unwrap();
        assert!(p.perturbations.is_empty());
        assert_eq!(p.completion, t(110.0));
    }

    /// Edge case for the crash path: retracting the *last* in-flight
    /// task of a server must return its trace to pristine — the ledger
    /// empties, the spliced baseline is the empty re-drain, the resident
    /// estimate zeroes, and the next prediction is the unloaded cost.
    #[test]
    fn retracting_last_in_flight_task_resets_server() {
        let mut htm = Htm::new(table(), SyncPolicy::ForceFinish);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.commit(t(5.0), ServerId(0), &task(2, 5.0));
        assert!(htm.retract(t(10.0), TaskId(2)));
        assert!(htm.retract(t(10.0), TaskId(1)), "last task");
        assert_eq!(htm.active_on(ServerId(0)), 0);
        assert_eq!(htm.cached_baseline(ServerId(0)), Some(&[][..]));
        assert_eq!(htm.resident_estimate(t(10.0), ServerId(0)), 0.0);
        let p = htm.predict(t(10.0), ServerId(0), &task(3, 10.0)).unwrap();
        assert!(p.perturbations.is_empty());
        assert_eq!(p.completion, t(110.0));
    }

    /// Edge case for the crash path: a single-task retraction racing
    /// the crash of its own server at the same instant. Whether the
    /// lone retract lands before the crash's oldest-first sweep of the
    /// remainder, or the sweep runs first and the racing retract finds
    /// its task already gone, the model ends in the same state.
    #[test]
    fn retract_then_crash_at_same_instant_is_order_independent() {
        let build = || {
            let mut htm = Htm::new(table(), SyncPolicy::ForceFinish);
            htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
            htm.commit(t(2.0), ServerId(0), &task(2, 2.0));
            htm.commit(t(4.0), ServerId(0), &task(3, 4.0));
            htm
        };
        // Ordering A: the lone retract of T2, then the crash sweep.
        let mut a = build();
        assert!(a.retract(t(50.0), TaskId(2)));
        assert!(a.retract(t(50.0), TaskId(1)));
        assert!(a.retract(t(50.0), TaskId(3)));
        // Ordering B: the crash sweep runs first and already covers the
        // racing task; the late retract reports it gone, mutating nothing.
        let mut b = build();
        assert!(b.retract(t(50.0), TaskId(1)));
        assert!(b.retract(t(50.0), TaskId(2)));
        assert!(b.retract(t(50.0), TaskId(3)));
        assert!(!b.retract(t(50.0), TaskId(2)), "sweep got there first");
        for htm in [&mut a, &mut b] {
            assert_eq!(htm.active_on(ServerId(0)), 0);
            assert_eq!(htm.assignment(TaskId(2)), None);
        }
        let pa = a.predict(t(50.0), ServerId(0), &task(9, 50.0)).unwrap();
        let pb = b.predict(t(50.0), ServerId(0), &task(9, 50.0)).unwrap();
        assert_eq!(pa.completion, pb.completion);
        assert!(pa.perturbations.is_empty() && pb.perturbations.is_empty());
    }

    #[test]
    fn sync_force_finish_corrects_model() {
        let mut htm = Htm::new(table(), SyncPolicy::ForceFinish);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        // Reality says T1 finished early, at t=60 (model said 100).
        htm.observe_completion(t(60.0), TaskId(1));
        let p = htm.predict(t(60.0), ServerId(0), &task(2, 60.0)).unwrap();
        assert!(p.perturbations.is_empty(), "model still thinks T1 runs");
        assert_eq!(p.completion, t(160.0));
    }

    #[test]
    fn sync_none_ignores_observations() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.observe_completion(t(60.0), TaskId(1));
        let p = htm.predict(t(60.0), ServerId(0), &task(2, 60.0)).unwrap();
        assert_eq!(p.perturbations.len(), 1, "open loop keeps simulating T1");
    }

    #[test]
    #[should_panic(expected = "committed twice")]
    fn double_commit_panics() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.commit(t(0.0), ServerId(1), &task(1, 0.0));
    }

    #[test]
    fn completions_on_reports_schedule() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.commit(t(0.0), ServerId(0), &task(2, 0.0));
        let mut fins = htm.completions_on(ServerId(0));
        fins.sort_by_key(|(id, _)| *id);
        assert_eq!(fins.len(), 2);
        assert_eq!(fins[0].1, t(200.0));
        assert_eq!(fins[1].1, t(200.0));
    }

    /// Regression: queries are pure (the trace is not advanced at query
    /// time), so the residency estimate must derive "still running" from
    /// the cached schedule rather than the raw job list — otherwise, under
    /// `SyncPolicy::None`, a server that stops receiving commits would
    /// report its peak residency forever and the memory-aware veto would
    /// exclude it permanently.
    #[test]
    fn resident_estimate_decays_as_simulated_tasks_finish() {
        let mut c = CostTable::new(1);
        c.add_problem(
            Problem::new("hungry", 0.0, 0.0, 100.0),
            vec![Some(PhaseCosts::new(0.0, 10.0, 0.0))],
        );
        let mut htm = Htm::new(c, SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        assert_eq!(htm.resident_estimate(t(0.0), ServerId(0)), 100.0);
        assert_eq!(htm.resident_estimate(t(5.0), ServerId(0)), 100.0);
        // The task's simulated completion is t=10: from then on it no
        // longer occupies memory, with no commit needed to notice.
        assert_eq!(htm.resident_estimate(t(10.0), ServerId(0)), 0.0);
        assert_eq!(htm.resident_estimate(t(1000.0), ServerId(0)), 0.0);
    }

    /// Two same-instant probes of the same problem must share one
    /// speculative drain (the memo key is the problem's costs, not the
    /// probe id) and still answer bit-identically to the reference path.
    #[test]
    fn same_problem_probes_share_a_drain() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        let a = htm
            .predict(t(5.0), ServerId(0), &task(100, 5.0))
            .unwrap()
            .clone();
        let before = htm.memo_stats();
        let b = htm
            .predict(t(5.0), ServerId(0), &task(101, 5.0))
            .unwrap()
            .clone();
        let after = htm.memo_stats();
        assert_eq!(after.drains, before.drains, "second probe must not drain");
        assert_eq!(after.cross_task_hits, before.cross_task_hits + 1);
        assert!(after.hit_rate() > 0.0);
        // Same costs at the same instant: identical numbers, relabelled.
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.perturbations, b.perturbations);
        let reference = predict_reference(&htm, t(5.0), ServerId(0), &task(101, 5.0)).unwrap();
        assert_eq!(b, reference);
    }

    /// A commit that follows a *relabelled* memo hit must still splice the
    /// correct after-schedule in as the new baseline.
    #[test]
    fn commit_after_cross_task_hit_splices_correctly() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.predict(t(5.0), ServerId(0), &task(100, 5.0)).unwrap();
        // Same problem, same instant, different id — then commit it.
        let winner = task(101, 5.0);
        htm.predict(t(5.0), ServerId(0), &winner).unwrap();
        htm.commit(t(5.0), ServerId(0), &winner);
        let cached = htm.cached_baseline(ServerId(0)).expect("baseline fresh");
        assert_eq!(cached.to_vec(), htm.trace(ServerId(0)).drain_schedule());
        assert!(cached.iter().any(|&(id, _)| id == TaskId(101)));
    }

    #[test]
    fn predict_agrees_with_reference_on_fixture() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.commit(t(5.0), ServerId(0), &task(2, 5.0));
        for now in [5.0, 40.0, 150.0, 500.0] {
            for s in [ServerId(0), ServerId(1)] {
                let probe = task(99, now);
                let fast = htm.predict(t(now), s, &probe).unwrap();
                let slow = predict_reference(&htm, t(now), s, &probe).unwrap();
                assert_eq!(fast, slow, "now={now}, server={s}");
            }
        }
    }

    /// Incremental repair keeps the baseline fresh through commits that
    /// were *not* preceded by a matching prediction (cold splice) and
    /// through retracts, matching a from-scratch re-drain exactly.
    #[test]
    fn spliced_baseline_matches_full_redrain() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        // Cold commits: no predict in between.
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.commit(t(5.0), ServerId(0), &task(2, 5.0));
        htm.commit(t(5.0), ServerId(1), &task(3, 5.0));
        for s in [ServerId(0), ServerId(1)] {
            let cached = htm.cached_baseline(s).expect("baseline stays fresh");
            assert_eq!(cached.to_vec(), htm.trace(s).drain_schedule(), "{s}");
        }
        // Warm commit: predict first (the engine's order), then commit.
        let probe = task(4, 8.0);
        htm.predict(t(8.0), ServerId(0), &probe).unwrap();
        htm.commit(t(8.0), ServerId(0), &probe);
        let cached = htm.cached_baseline(ServerId(0)).unwrap();
        assert_eq!(cached.to_vec(), htm.trace(ServerId(0)).drain_schedule());
        // Retract splices too.
        assert!(htm.retract(t(10.0), TaskId(2)));
        let cached = htm.cached_baseline(ServerId(0)).unwrap();
        assert_eq!(cached.to_vec(), htm.trace(ServerId(0)).drain_schedule());
        // Retracting an unknown task is a no-op.
        assert!(!htm.retract(t(11.0), TaskId(99)));
    }

    /// Completion-only depth must truncate drains (the counters say so)
    /// while reporting the exact completion a full-depth query computes,
    /// and a commit after a truncated prediction must still splice a
    /// complete baseline.
    #[test]
    fn completion_only_truncates_and_commit_completes_the_schedule() {
        let mut c = CostTable::new(1);
        c.add_problem(
            Problem::new("p", 0.0, 0.0, 0.0),
            vec![Some(PhaseCosts::new(0.0, 100.0, 0.0))],
        );
        c.add_problem(
            Problem::new("q", 0.0, 0.0, 0.0),
            vec![Some(PhaseCosts::new(0.0, 1.0, 0.0))],
        );
        let mut fast = Htm::new(c.clone(), SyncPolicy::None);
        fast.set_completion_only(true);
        let mut full = Htm::new(c, SyncPolicy::None);
        // Queue long tasks so a short probe completes strictly first and
        // the truncated drain has a tail to skip.
        for id in 0..4 {
            let tk = task(id, 0.0);
            fast.commit(t(0.0), ServerId(0), &tk);
            full.commit(t(0.0), ServerId(0), &tk);
        }
        let probe = TaskInstance::new(TaskId(100), cas_platform::ProblemId(1), t(1.0));
        let a = fast.predict(t(1.0), ServerId(0), &probe).unwrap();
        let b = full.predict(t(1.0), ServerId(0), &probe).unwrap();
        assert_eq!(
            a.completion.as_secs().to_bits(),
            b.completion.as_secs().to_bits()
        );
        assert!(a.perturbations.is_empty(), "completion-only depth");
        assert!(!b.perturbations.is_empty(), "full depth keeps them");
        let stats = fast.memo_stats();
        assert!(stats.truncated > 0, "drain must have stopped early");
        assert!(stats.truncation_rate() > 0.0);
        // Committing the probe needs the whole after-schedule: the splice
        // must still be bit-identical to a full re-drain.
        fast.commit(t(1.0), ServerId(0), &probe);
        full.commit(t(1.0), ServerId(0), &probe);
        let cached = fast.cached_baseline(ServerId(0)).expect("fresh");
        assert_eq!(cached.to_vec(), fast.trace(ServerId(0)).drain_schedule());
        assert_eq!(cached.len(), 5, "all five tasks in the spliced baseline");
    }

    /// Repeated queries against an unchanged server resume the shared
    /// baseline prefix instead of replaying the whole event history.
    #[test]
    fn repeat_queries_hit_the_prefix_cursor() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        for id in 0..3 {
            htm.commit(t(0.0), ServerId(0), &task(id, 0.0));
        }
        // Commits run drains of their own; measure the query phase alone.
        let s0 = htm.memo_stats();
        // Distinct costs per probe problem would be needed to dodge the
        // costs-keyed memo; distinct *times* do it too.
        for (k, now) in [5.0, 6.0, 7.0, 8.0].into_iter().enumerate() {
            htm.predict(t(now), ServerId(0), &task(100 + k as u64, now))
                .unwrap();
        }
        let stats = htm.memo_stats();
        assert_eq!(
            stats.drains - s0.drains,
            4,
            "four distinct questions, four drains"
        );
        assert!(
            stats.prefix_hits - s0.prefix_hits >= 3,
            "later drains resume the prefix: {stats:?}"
        );
        // The rate folds in the commit-time drains too (each a miss, the
        // generation having just changed), so only its liveness is pinned.
        assert!(stats.prefix_reuse_rate() > 0.0);
    }

    /// A crash retraction bumps the trace generation, which must
    /// invalidate both the costs-keyed drain memo and the prefix cursor:
    /// the same question re-asked after the retract runs a fresh drain
    /// (no stale hit) and answers from the repaired trace.
    #[test]
    fn retract_invalidates_drain_memo_and_prefix() {
        let mut htm = Htm::new(table(), SyncPolicy::None);
        htm.commit(t(0.0), ServerId(0), &task(1, 0.0));
        htm.commit(t(0.0), ServerId(0), &task(2, 0.0));
        let probe = task(100, 5.0);
        let before = htm.predict(t(5.0), ServerId(0), &probe).unwrap();
        let s0 = htm.memo_stats();
        // Same question again: answered from the memo, no new drain.
        htm.predict(t(5.0), ServerId(0), &task(101, 5.0)).unwrap();
        let s1 = htm.memo_stats();
        assert_eq!(s1.drains, s0.drains, "unchanged trace answers from memo");
        // Crash retraction: T1 vanishes at t=5.
        assert!(htm.retract(t(5.0), TaskId(1)));
        let after = htm.predict(t(5.0), ServerId(0), &task(102, 5.0)).unwrap();
        let s2 = htm.memo_stats();
        assert_eq!(
            s2.drains,
            s1.drains + 1,
            "post-retract query must re-drain, not hit the stale memo"
        );
        assert!(
            after.completion < before.completion,
            "answer reflects the retracted task: {before:?} vs {after:?}"
        );
        // The prefix cursor was generation-stamped too: the fresh drain
        // cannot have resumed the pre-retract snapshot.
        assert_eq!(s2.prefix_hits, s1.prefix_hits, "no stale prefix resume");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::predict_reference;
    use super::*;
    use crate::heuristics::{hmct_lower_bound, msf_lower_bound};
    use cas_platform::{PhaseCosts, Problem, ProblemId};
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    const N_SERVERS: usize = 3;
    const N_PROBLEMS: usize = 2;

    prop_compose! {
        fn arb_costs()(i in 0.0f64..4.0, c in 0.1f64..40.0, o in 0.0f64..4.0) -> PhaseCosts {
            PhaseCosts::new(i, c, o)
        }
    }

    prop_compose! {
        /// Phase costs with all three phases nonzero.
        fn arb_costs_all_phases()(i in 0.01f64..4.0, c in 0.1f64..40.0, o in 0.01f64..4.0)
            -> PhaseCosts {
            PhaseCosts::new(i, c, o)
        }
    }

    /// Builds a 2-problem × 3-server table from raw draws; every problem is
    /// forced solvable on server 0 so commits always have a home.
    fn build_table(costs: &[PhaseCosts], solvable: &[bool]) -> CostTable {
        let mut table = CostTable::new(N_SERVERS);
        for p in 0..N_PROBLEMS {
            let row = (0..N_SERVERS)
                .map(|s| {
                    let k = p * N_SERVERS + s;
                    if s == 0 || solvable[k] {
                        Some(costs[k])
                    } else {
                        None
                    }
                })
                .collect();
            table.add_problem(Problem::new(format!("p{p}"), 0.1, 0.1, 0.0), row);
        }
        table
    }

    /// Asserts two predictions are bit-for-bit identical (f64 bit patterns,
    /// perturbation order included).
    fn assert_bit_identical(
        fast: &Prediction,
        slow: &Prediction,
    ) -> Result<(), proptest::TestCaseError> {
        prop_assert_eq!(
            fast.completion.as_secs().to_bits(),
            slow.completion.as_secs().to_bits(),
            "completion differs: {:?} vs {:?}",
            fast.completion,
            slow.completion
        );
        prop_assert_eq!(fast.queried_at, slow.queried_at);
        prop_assert_eq!(
            fast.perturbations.len(),
            slow.perturbations.len(),
            "perturbation sets differ: {:?} vs {:?}",
            &fast.perturbations,
            &slow.perturbations
        );
        for ((jf, pf), (js, ps)) in fast.perturbations.iter().zip(&slow.perturbations) {
            prop_assert_eq!(jf, js);
            prop_assert_eq!(
                pf.to_bits(),
                ps.to_bits(),
                "perturbation of {} differs: {} vs {}",
                jf,
                pf,
                ps
            );
        }
        Ok(())
    }

    /// After every trace mutation under incremental repair, the spliced
    /// baseline must be bit-for-bit what a full re-drain would compute —
    /// the acceptance property of the repair engine.
    fn assert_baselines_match_full_redrain(htm: &Htm) -> Result<(), proptest::TestCaseError> {
        for s in 0..N_SERVERS as u32 {
            let server = ServerId(s);
            let cached = htm.cached_baseline(server);
            prop_assert!(
                cached.is_some(),
                "incremental repair left server {server} with a stale baseline"
            );
            let cached = cached.unwrap();
            let full = htm.trace(server).drain_schedule();
            prop_assert_eq!(
                cached.len(),
                full.len(),
                "baseline length diverged on {}",
                server
            );
            for (a, b) in cached.iter().zip(&full) {
                prop_assert_eq!(a.0, b.0, "task order diverged on {}", server);
                prop_assert_eq!(
                    a.1.as_secs().to_bits(),
                    b.1.as_secs().to_bits(),
                    "completion of {} diverged on {}: {:?} vs {:?}",
                    a.0,
                    server,
                    a.1,
                    b.1
                );
            }
        }
        Ok(())
    }

    proptest! {
        /// The generation-cached, scratch-buffer prediction engine agrees
        /// **bit for bit** with the naive clone-and-drain reference over
        /// arbitrary interleavings of commit / predict / retract / observe,
        /// and after every mutation the incrementally spliced baseline equals
        /// a from-scratch re-drain, bit for bit.
        #[test]
        fn fast_predict_is_bitwise_equal_to_reference(
            costs in proptest::collection::vec(arb_costs(), 6),
            solvable in proptest::collection::vec(proptest::bool::ANY, 6),
            ops in proptest::collection::vec(
                // (op kind, server, problem, time gap)
                (0u32..10, 0u32..3, 0u32..2, 0.0f64..20.0),
                1..50,
            ),
            force_finish in proptest::bool::ANY,
        ) {
            let table = build_table(&costs, &solvable);
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            let mut htm = Htm::new(table, sync);
            let mut now = 0.0f64;
            let mut next_id = 0u64;
            let mut committed: Vec<TaskId> = Vec::new();
            for (kind, server, problem, gap) in ops {
                now += gap;
                let when = t(now);
                match kind {
                    // Half the ops are what-if queries, checked on every
                    // server so the per-server caches get hit, refreshed
                    // and cross-validated in the same round.
                    0..=4 => {
                        let probe = TaskInstance::new(
                            TaskId(1_000_000 + next_id),
                            ProblemId(problem),
                            when,
                        );
                        next_id += 1;
                        for s in 0..N_SERVERS as u32 {
                            let fast = htm.predict(when, ServerId(s), &probe);
                            let slow = predict_reference(&htm, when, ServerId(s), &probe);
                            match (&fast, &slow) {
                                (None, None) => {}
                                (Some(f), Some(r)) => assert_bit_identical(f, r)?,
                                _ => prop_assert!(
                                    false,
                                    "solvability disagreement on {}",
                                    s
                                ),
                            }
                        }
                    }
                    // Commits mutate a trace and must invalidate its cache.
                    5..=7 => {
                        let task = TaskInstance::new(TaskId(next_id), ProblemId(problem), when);
                        next_id += 1;
                        let target = if htm.costs().costs(task.problem, ServerId(server)).is_some() {
                            ServerId(server)
                        } else {
                            ServerId(0) // always solvable by construction
                        };
                        htm.commit(when, target, &task);
                        committed.push(task.id);
                        assert_baselines_match_full_redrain(&htm)?;
                    }
                    // Retract a previously committed task.
                    8 => {
                        if let Some(id) = committed.pop() {
                            htm.retract(when, id);
                            assert_baselines_match_full_redrain(&htm)?;
                        }
                    }
                    // Feed back an observed completion (force-finishes the
                    // trace under SyncPolicy::ForceFinish, no-op otherwise).
                    _ => {
                        if let Some(&id) = committed.first() {
                            htm.observe_completion(when, id);
                            assert_baselines_match_full_redrain(&htm)?;
                        }
                    }
                }
            }
        }

        /// The stage-2 lower bounds HMCT and MSF prune with never exceed
        /// the objective they bound, measured on the clone-and-drain
        /// oracle: `now + d` (slackened) against the probe's completion
        /// date, `d` (slackened) against `Σπ + flow`. Drives arbitrary
        /// commit / predict / retract / observe interleavings with every
        /// phase nonzero — so all three lanes shape each drain — at
        /// clocks from 0 up to 1e7 s, where drain rounding is largest.
        #[test]
        fn bounded_stage2_lower_bounds_never_exceed_the_oracle(
            costs in proptest::collection::vec(arb_costs_all_phases(), 6),
            solvable in proptest::collection::vec(proptest::bool::ANY, 6),
            mantissa in 0.0f64..10.0,
            exponent in 0i32..7,
            ops in proptest::collection::vec(
                (0u32..10, 0u32..3, 0u32..2, 0.0f64..20.0),
                1..50,
            ),
            force_finish in proptest::bool::ANY,
        ) {
            let table = build_table(&costs, &solvable);
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            let mut htm = Htm::new(table, sync);
            let mut now = mantissa * 10f64.powi(exponent);
            let mut next_id = 0u64;
            let mut committed: Vec<TaskId> = Vec::new();
            for (kind, server, problem, gap) in ops {
                now += gap;
                let when = t(now);
                match kind {
                    0..=4 => {
                        let probe = TaskInstance::new(
                            TaskId(1_000_000 + next_id),
                            ProblemId(problem),
                            when,
                        );
                        next_id += 1;
                        for s in 0..N_SERVERS as u32 {
                            let Some(oracle) = predict_reference(&htm, when, ServerId(s), &probe)
                            else {
                                continue;
                            };
                            let d = htm
                                .costs()
                                .unloaded_duration(probe.problem, ServerId(s))
                                .expect("the oracle answered, so the server solves");
                            let completion = oracle.completion.as_secs();
                            let hmct = hmct_lower_bound(now, d);
                            prop_assert!(
                                hmct <= completion,
                                "HMCT bound {} > completion {} on {} at {}",
                                hmct,
                                completion,
                                s,
                                now
                            );
                            let msf = msf_lower_bound(now, d);
                            let objective = oracle.msf_objective();
                            prop_assert!(
                                msf <= objective,
                                "MSF bound {} > objective {} on {} at {}",
                                msf,
                                objective,
                                s,
                                now
                            );
                        }
                    }
                    5..=7 => {
                        let task = TaskInstance::new(TaskId(next_id), ProblemId(problem), when);
                        next_id += 1;
                        let target = if htm.costs().costs(task.problem, ServerId(server)).is_some() {
                            ServerId(server)
                        } else {
                            ServerId(0) // always solvable by construction
                        };
                        htm.commit(when, target, &task);
                        committed.push(task.id);
                    }
                    8 => {
                        if let Some(id) = committed.pop() {
                            htm.retract(when, id);
                        }
                    }
                    _ => {
                        if let Some(&id) = committed.first() {
                            htm.observe_completion(when, id);
                        }
                    }
                }
            }
        }

        /// Completion-only depth (the truncated-drain path taken for
        /// heuristics that never read perturbations) reports the same
        /// completion **bits** as the clone-and-drain oracle over arbitrary
        /// interleavings — truncation may cut only the tail *after* the
        /// probe's own entry — and the splice-on-commit still leaves
        /// baselines equal to a full re-drain even when the preceding
        /// drain was truncated.
        #[test]
        fn completion_only_fast_matches_full_completions(
            costs in proptest::collection::vec(arb_costs(), 6),
            ops in proptest::collection::vec(
                (0u32..10, 0u32..3, 0u32..2, 0.0f64..20.0),
                1..40,
            ),
        ) {
            let solvable = vec![true; 6];
            let table = build_table(&costs, &solvable);
            let mut fast = Htm::new(table, SyncPolicy::ForceFinish);
            fast.set_completion_only(true);
            prop_assert!(fast.completion_only());
            let mut now = 0.0f64;
            let mut next_id = 0u64;
            let mut committed: Vec<TaskId> = Vec::new();
            for (kind, server, problem, gap) in ops {
                now += gap;
                let when = t(now);
                match kind {
                    0..=4 => {
                        let probe = TaskInstance::new(
                            TaskId(1_000_000 + next_id),
                            ProblemId(problem),
                            when,
                        );
                        next_id += 1;
                        for s in 0..N_SERVERS as u32 {
                            let a = fast.predict(when, ServerId(s), &probe);
                            let b = predict_reference(&fast, when, ServerId(s), &probe);
                            match (&a, &b) {
                                (None, None) => {}
                                (Some(f), Some(r)) => {
                                    prop_assert_eq!(
                                        f.completion.as_secs().to_bits(),
                                        r.completion.as_secs().to_bits(),
                                        "completion differs on {}: {:?} vs {:?}",
                                        s,
                                        f.completion,
                                        r.completion
                                    );
                                    prop_assert_eq!(f.queried_at, r.queried_at);
                                    // The whole point of the depth flag:
                                    // the perturbation fill is skipped.
                                    prop_assert!(f.perturbations.is_empty());
                                }
                                _ => prop_assert!(false, "solvability disagreement on {}", s),
                            }
                        }
                    }
                    5..=7 => {
                        let task = TaskInstance::new(TaskId(next_id), ProblemId(problem), when);
                        next_id += 1;
                        fast.commit(when, ServerId(server), &task);
                        committed.push(task.id);
                        assert_baselines_match_full_redrain(&fast)?;
                    }
                    8 => {
                        if let Some(id) = committed.pop() {
                            fast.retract(when, id);
                            assert_baselines_match_full_redrain(&fast)?;
                        }
                    }
                    _ => {
                        if let Some(&id) = committed.first() {
                            fast.observe_completion(when, id);
                            assert_baselines_match_full_redrain(&fast)?;
                        }
                    }
                }
            }
        }
    }
}
