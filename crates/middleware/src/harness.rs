//! The differential-equivalence harness.
//!
//! Every structural optimisation of the decision stack in this repo —
//! incremental HTM repair, the two-stage candidate pipeline, the shard
//! federation, the lazy skyline merge — ships with the same kind of
//! proof: drive the optimised implementation and a test-only oracle
//! through arbitrary interleavings of
//! decide / commit / retract / complete and demand **bit-identical**
//! picks, predictions and resting model state — and, where both sides
//! expose them, candidate lists. This module is that proof engine,
//! factored out once so the federation's proptests, the skyline
//! differential tests and any future integration test share one
//! definition of "equivalent".
//!
//! Three pieces:
//!
//! * [`DecisionAgent`] — the minimal surface a decision stack must offer
//!   to be diffed: one two-stage decision (returning the pick *and* the
//!   winning prediction), the three model-mutation hooks, the HTM (whose
//!   handed-out and resting simulated completions are compared) and,
//!   optionally, the last decision's candidate list. Implemented by [`AgentRouter`]
//!   (any shard count), by the eager-merge oracle in `shard.rs` and by
//!   [`SingleAgentReference`], the inline replica of the pre-federation
//!   single-agent loop kept as the oracle of the federation.
//! * [`DiffHarness`] — owns the static world (cost table, initial load
//!   reports, admission limits) and replays an [`Op`] sequence against
//!   two agents in lockstep, returning a description of the first
//!   divergence. Proptests feed it generated op vectors; fixed unit
//!   tests feed it hand-built edge cases.
//! * [`ModelOp`] — the stage-1 index ops a session applied, in order
//!   ([`DiffSession::model_ops`]): the log the rebalance oracle in
//!   `shard.rs` replays to rebuild every block from scratch.
//!
//! The op encoding is deliberately dumb (five scalars) so proptest
//! strategies stay trivial and failures minimise well.

use crate::shard::DecisionInputs;
use crate::AgentRouter;
use cas_core::heuristics::{DecisionMemo, Heuristic, HeuristicKind, SchedView};
use cas_core::selector::{CandidateSelector, SelectorInput};
use cas_core::{Htm, Prediction, SelectorKind, SyncPolicy};
use cas_platform::{CostTable, LoadReport, ProblemId, ServerId, StaticIndex, TaskId, TaskInstance};
use cas_sim::{RngStream, SimTime, StreamKind};

/// One step of a differential run. `kind` selects the operation:
/// `0..=5` a decision round (the value also rotates the heuristic),
/// `6 | 7` a commit, `8` a retract of the most recent commit, `10` a
/// server crash (every in-flight commit on `server` is retracted, then
/// the server goes down), `11` a repair (the server comes back up),
/// anything else a completion of the oldest commit.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Operation selector (see type docs).
    pub kind: u32,
    /// Preferred commit target (falls back to the problem's first solver
    /// when it cannot solve the problem).
    pub server: u32,
    /// Problem of the decision probe or committed task.
    pub problem: u32,
    /// Seconds to advance the clock before the operation (must be ≥ 0).
    pub gap: f64,
    /// Server excluded by the decision's admit filter (models a retry
    /// exclusion or a known-dead server).
    pub excl: u32,
}

impl From<(u32, u32, u32, f64, u32)> for Op {
    fn from((kind, server, problem, gap, excl): (u32, u32, u32, f64, u32)) -> Self {
        Op {
            kind,
            server,
            problem,
            gap,
            excl,
        }
    }
}

/// One index-mutating hook a session applied to both agents. The index
/// state of any block is a function of the ops on its servers alone, so
/// replaying the log filtered to a block rebuilds that block's index.
#[derive(Debug, Clone, Copy)]
pub enum ModelOp {
    /// `work` committed to `server`.
    Commit { server: ServerId, work: f64 },
    /// A placement of `work` on `server` retracted.
    Retract { server: ServerId, work: f64 },
    /// A task of `work` completed on `server`.
    Complete { server: ServerId, work: f64 },
    /// `server` went down or came back.
    Available { server: ServerId, up: bool },
}

impl ModelOp {
    /// The server the op touched.
    pub fn server(self) -> ServerId {
        match self {
            ModelOp::Commit { server, .. }
            | ModelOp::Retract { server, .. }
            | ModelOp::Complete { server, .. }
            | ModelOp::Available { server, .. } => server,
        }
    }
}

/// The surface a decision stack exposes to the harness.
pub trait DecisionAgent {
    /// Runs one full two-stage decision; returns the pick and the
    /// winning server's prediction (both sides of a diff must agree on
    /// both, bit for bit).
    fn decide(
        &mut self,
        inp: DecisionInputs<'_>,
        heuristic: &mut dyn Heuristic,
        tie_rng: &mut RngStream,
    ) -> Option<(ServerId, Prediction)>;

    /// A task was committed to `server` with service demand `work`.
    fn commit(&mut self, now: SimTime, server: ServerId, task: &TaskInstance, work: f64);

    /// A committed task was retracted before running.
    fn retract(&mut self, now: SimTime, server: ServerId, task: TaskId, work: f64);

    /// A committed task completed (`observed` / `predicted` are flows —
    /// durations since arrival — feeding the selector's stretch signal).
    fn complete(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: TaskId,
        work: f64,
        observed: f64,
        predicted: f64,
    );

    /// The agent's HTM: the harness compares the simulated completions
    /// both sides hand out after every op, and their resting schedules
    /// at the end.
    fn htm(&mut self) -> &mut Htm;

    /// `server` went down (`up = false`) or came back (`up = true`):
    /// stage-1 rankings must drop or re-admit it. The harness also
    /// excludes down servers through the decision's admit filter, the
    /// way the engine's liveness vector does.
    fn set_available(&mut self, server: ServerId, up: bool);

    /// The last decision's stage-2 candidate list (ascending global id),
    /// for agents that expose it. When both sides of a diff do, the
    /// lists must agree after every decision: a stage-1 walk that drops
    /// a candidate which would not have won leaves the pick unchanged.
    fn candidates(&self) -> Option<&[ServerId]> {
        None
    }
}

impl DecisionAgent for AgentRouter {
    fn decide(
        &mut self,
        inp: DecisionInputs<'_>,
        heuristic: &mut dyn Heuristic,
        tie_rng: &mut RngStream,
    ) -> Option<(ServerId, Prediction)> {
        let now = inp.now;
        let task = inp.task;
        let pick = AgentRouter::decide(self, inp, heuristic, tie_rng)?;
        let p = self
            .predict(now, pick, &task)
            .expect("picked server is solvable");
        Some((pick, p))
    }

    fn commit(&mut self, now: SimTime, server: ServerId, task: &TaskInstance, work: f64) {
        self.on_commit(now, server, task, work);
    }

    fn retract(&mut self, now: SimTime, server: ServerId, task: TaskId, work: f64) {
        self.on_retract(now, server, task, work);
    }

    fn complete(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: TaskId,
        work: f64,
        observed: f64,
        predicted: f64,
    ) {
        self.on_complete(now, server, task, work, observed, predicted);
    }

    fn htm(&mut self) -> &mut Htm {
        self.htm_mut()
    }

    fn set_available(&mut self, server: ServerId, up: bool) {
        AgentRouter::set_available(self, server, up);
    }

    fn candidates(&self) -> Option<&[ServerId]> {
        Some(self.last_candidates())
    }
}

/// The single-agent decision loop, replicated inline: one farm-wide HTM,
/// one index, one selector — the pre-federation `engine` path, kept as
/// the oracle every router configuration is diffed against.
pub struct SingleAgentReference {
    htm: Htm,
    index: StaticIndex,
    selector: Box<dyn CandidateSelector>,
    memo: DecisionMemo,
}

impl SingleAgentReference {
    /// Builds the reference over the full cost table.
    pub fn new(costs: &CostTable, selector: SelectorKind, sync: SyncPolicy) -> Self {
        SingleAgentReference {
            htm: Htm::new(costs.clone(), sync),
            index: StaticIndex::new(costs),
            selector: selector.build(),
            memo: DecisionMemo::new(),
        }
    }
}

impl DecisionAgent for SingleAgentReference {
    fn decide(
        &mut self,
        inp: DecisionInputs<'_>,
        heuristic: &mut dyn Heuristic,
        tie_rng: &mut RngStream,
    ) -> Option<(ServerId, Prediction)> {
        let mut candidates = Vec::new();
        self.selector.shortlist(
            SelectorInput {
                problem: inp.task.problem,
                index: &self.index,
            },
            &|s| (inp.admit)(s),
            &mut candidates,
        );
        let picked = {
            let mut view = SchedView::new(
                inp.now,
                inp.task,
                candidates,
                inp.costs,
                inp.reports,
                &mut self.htm,
                tie_rng,
            )
            .with_server_mem(inp.server_mem)
            .with_memo(&mut self.memo);
            let pick = heuristic.select(&mut view)?;
            let p = view.predict(pick).cloned().expect("picked is solvable");
            (pick, p)
        };
        self.selector.observe_selection(picked.0);
        Some(picked)
    }

    fn commit(&mut self, now: SimTime, server: ServerId, task: &TaskInstance, work: f64) {
        self.htm.commit(now, server, task);
        self.index.on_commit(server, work);
    }

    fn retract(&mut self, now: SimTime, server: ServerId, task: TaskId, work: f64) {
        self.htm.retract(now, task);
        self.index.on_retract(server, work);
    }

    fn complete(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: TaskId,
        work: f64,
        observed: f64,
        predicted: f64,
    ) {
        self.index.on_complete(server, work);
        self.htm.observe_completion(now, task);
        self.selector.observe_outcome(observed, predicted);
    }

    fn htm(&mut self) -> &mut Htm {
        &mut self.htm
    }

    fn set_available(&mut self, server: ServerId, up: bool) {
        self.index.set_available(server, up);
    }
}

/// The static world shared by both sides of a differential run.
pub struct DiffHarness {
    table: CostTable,
    reports: Vec<LoadReport>,
    server_mem: Vec<f64>,
}

impl DiffHarness {
    /// A harness over `table` with fresh initial load reports and a flat
    /// 512 MB admission limit per server.
    pub fn new(table: CostTable) -> Self {
        let n = table.n_servers();
        DiffHarness {
            reports: (0..n as u32)
                .map(|i| LoadReport::initial(ServerId(i)))
                .collect(),
            server_mem: vec![512.0; n],
            table,
        }
    }

    /// Replays `ops` against both agents in lockstep from a fresh
    /// session. Returns `Err` with a human-readable description at the
    /// first divergence: a pick, a winning prediction, a candidate list,
    /// a one-sided failure, the simulated completions handed out after
    /// an op, or (after the full sequence) the resting schedules. Use [`DiffHarness::session`] to replay
    /// in instalments (inspecting agent state between them).
    pub fn run(
        &self,
        a: &mut dyn DecisionAgent,
        b: &mut dyn DecisionAgent,
        ops: &[Op],
    ) -> Result<(), String> {
        let mut session = self.session();
        session.run(a, b, ops)?;
        session.finish(a, b)
    }

    /// Starts a resumable differential session: clock, task-id sequence,
    /// the in-flight commit ledger and the down-server set persist
    /// across `run` calls.
    pub fn session(&self) -> DiffSession<'_> {
        DiffSession {
            harness: self,
            now: 0.0,
            next_id: 0,
            committed: Vec::new(),
            down: vec![false; self.table.n_servers()],
            step: 0,
            log: Vec::new(),
        }
    }
}

/// An in-progress differential replay (see [`DiffHarness::session`]).
pub struct DiffSession<'a> {
    harness: &'a DiffHarness,
    now: f64,
    next_id: u64,
    committed: Vec<(TaskId, ServerId, f64)>,
    /// Servers taken down by crash ops (kind 10) and not yet repaired
    /// (kind 11); excluded from every decision's admit filter, the way
    /// the engine's liveness vector is.
    down: Vec<bool>,
    step: usize,
    /// Every index op applied so far, in order.
    log: Vec<ModelOp>,
}

impl DiffSession<'_> {
    /// The index ops this session has applied to both agents, in order.
    pub fn model_ops(&self) -> &[ModelOp] {
        &self.log
    }

    /// Replays `ops` against both agents in lockstep, continuing from
    /// the session's current clock and ledger.
    pub fn run(
        &mut self,
        a: &mut dyn DecisionAgent,
        b: &mut dyn DecisionAgent,
        ops: &[Op],
    ) -> Result<(), String> {
        for op in ops {
            self.now += op.gap.max(0.0);
            let now = self.now;
            let when = SimTime::from_secs(now);
            let step = self.step;
            self.step += 1;
            match op.kind {
                // Decision rounds, rotating the heuristic family.
                0..=5 => {
                    let heuristic = match op.kind {
                        0 | 3 => HeuristicKind::Hmct,
                        1 | 4 => HeuristicKind::Msf,
                        2 => HeuristicKind::MemHmct,
                        _ => HeuristicKind::Mct,
                    };
                    let task = TaskInstance::new(
                        TaskId(1_000_000 + self.next_id),
                        ProblemId(op.problem),
                        when,
                    );
                    self.next_id += 1;
                    let excl = op.excl;
                    let down = self.down.clone();
                    let admit = move |s: ServerId| s.0 != excl && !down[s.index()];
                    let world = self.harness;
                    let inputs = || DecisionInputs {
                        now: when,
                        task,
                        costs: &world.table,
                        reports: &world.reports,
                        server_mem: &world.server_mem,
                        admit: &admit,
                    };
                    // Both sides draw from identically seeded tie-break
                    // streams and identically fresh heuristic instances.
                    let mut rng_a = RngStream::derive(7, StreamKind::TieBreak);
                    let mut rng_b = RngStream::derive(7, StreamKind::TieBreak);
                    let pa = a.decide(inputs(), heuristic.build().as_mut(), &mut rng_a);
                    let pb = b.decide(inputs(), heuristic.build().as_mut(), &mut rng_b);
                    match (&pa, &pb) {
                        (None, None) => {}
                        (Some((sa, qa)), Some((sb, qb))) => {
                            if sa != sb {
                                return Err(format!(
                                    "step {step}: {heuristic:?} pick diverged: {sa} vs {sb}"
                                ));
                            }
                            if qa != qb {
                                return Err(format!(
                                    "step {step}: {heuristic:?} prediction diverged on {sa}: \
                                     {qa:?} vs {qb:?}"
                                ));
                            }
                        }
                        _ => {
                            return Err(format!(
                                "step {step}: {heuristic:?} one side failed the task \
                                 ({pa:?} vs {pb:?})"
                            ));
                        }
                    }
                    if let (Some(ca), Some(cb)) = (a.candidates(), b.candidates()) {
                        if ca != cb {
                            return Err(format!(
                                "step {step}: {heuristic:?} candidate lists diverged: \
                                 {ca:?} vs {cb:?}"
                            ));
                        }
                    }
                }
                // Commits keep both sides in lockstep.
                6 | 7 => {
                    let table = &self.harness.table;
                    let task = TaskInstance::new(TaskId(self.next_id), ProblemId(op.problem), when);
                    self.next_id += 1;
                    let target = if table.costs(task.problem, ServerId(op.server)).is_some() {
                        Some(ServerId(op.server))
                    } else {
                        // Fall back to the problem's first solver.
                        (0..table.n_servers() as u32)
                            .map(ServerId)
                            .find(|&s| table.costs(task.problem, s).is_some())
                    };
                    let Some(target) = target else {
                        continue; // nobody solves it: nothing to commit
                    };
                    let work = table
                        .unloaded_duration(task.problem, target)
                        .expect("target is solvable");
                    a.commit(when, target, &task, work);
                    b.commit(when, target, &task, work);
                    self.log.push(ModelOp::Commit {
                        server: target,
                        work,
                    });
                    self.committed.push((task.id, target, work));
                }
                // Retracts undo the most recent commit on both sides.
                8 => {
                    if let Some((id, srv, work)) = self.committed.pop() {
                        a.retract(when, srv, id, work);
                        b.retract(when, srv, id, work);
                        self.log.push(ModelOp::Retract { server: srv, work });
                    }
                }
                // A crash: every in-flight commit on the server is
                // retracted (oldest first — the order the engine walks
                // its per-server flight list), then the server goes
                // down. Crashing a down server only re-retracts nothing
                // and re-asserts the flag (idempotent on both sides).
                10 => {
                    let srv = ServerId(op.server % self.harness.table.n_servers() as u32);
                    let mut i = 0;
                    while i < self.committed.len() {
                        if self.committed[i].1 == srv {
                            let (id, srv, work) = self.committed.remove(i);
                            a.retract(when, srv, id, work);
                            b.retract(when, srv, id, work);
                            self.log.push(ModelOp::Retract { server: srv, work });
                        } else {
                            i += 1;
                        }
                    }
                    a.set_available(srv, false);
                    b.set_available(srv, false);
                    self.log.push(ModelOp::Available {
                        server: srv,
                        up: false,
                    });
                    self.down[srv.index()] = true;
                }
                // A repair: the server rejoins the rankings at its
                // current believed load.
                11 => {
                    let srv = ServerId(op.server % self.harness.table.n_servers() as u32);
                    a.set_available(srv, true);
                    b.set_available(srv, true);
                    self.log.push(ModelOp::Available {
                        server: srv,
                        up: true,
                    });
                    self.down[srv.index()] = false;
                }
                // Completions drain the oldest commit on both sides.
                _ => {
                    if !self.committed.is_empty() {
                        let (id, srv, work) = self.committed.remove(0);
                        let observed = now;
                        let predicted = now * 0.9 + 1.0;
                        a.complete(when, srv, id, work, observed, predicted);
                        b.complete(when, srv, id, work, observed, predicted);
                        self.log.push(ModelOp::Complete { server: srv, work });
                    }
                }
            }
            let (ca, cb) = (handed_out(a), handed_out(b));
            if ca != cb {
                return Err(format!(
                    "step {step}: handed-out simulated completions diverged: {ca:?} vs {cb:?}"
                ));
            }
        }
        Ok(())
    }

    /// End-of-run check: the two models must agree at rest (every task
    /// still active in a trace simulated to the same completion date, and
    /// the same tasks kept).
    pub fn finish(
        self,
        a: &mut dyn DecisionAgent,
        b: &mut dyn DecisionAgent,
    ) -> Result<(), String> {
        for s in 0..self.harness.table.n_servers() as u32 {
            let ca = a.htm().completions_on(ServerId(s));
            let cb = b.htm().completions_on(ServerId(s));
            if ca != cb {
                return Err(format!(
                    "resting simulated completions on {s} diverged: {ca:?} vs {cb:?}"
                ));
            }
        }
        let (ta, tb) = (a.htm().tracked_tasks(), b.htm().tracked_tasks());
        if ta != tb {
            return Err(format!("tracked tasks diverged: {ta} vs {tb}"));
        }
        Ok(())
    }
}

/// The simulated completions `agent`'s HTM handed out since the last
/// call.
fn handed_out(agent: &mut dyn DecisionAgent) -> Vec<(TaskId, SimTime)> {
    let mut out = Vec::new();
    agent
        .htm()
        .take_completions(|task, when| out.push((task, when)));
    out
}
