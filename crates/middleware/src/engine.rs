//! The grid world: clients, agent and servers in one discrete-event model.
//!
//! Event flow for one task (§2.1's protocol, compressed to what matters for
//! scheduling):
//!
//! ```text
//! Submit ──agent latency──► Schedule ──reserve memory──► input transfer
//!     (reject? retry/fail)      │
//!                               ▼
//!                     input done → compute (fair-shared CPU)
//!                               ▼
//!                    compute done → output transfer → task complete
//! ```
//!
//! Shared-resource completions use the generation-stamp pattern: every
//! membership or capacity change on a fair-share resource invalidates the
//! previously scheduled completion event, and a fresh one is scheduled from
//! the resource's new state.
//!
//! The world is written against the kernel's `EventQueue` trait (via the
//! backend-erased `Scheduler`), and [`run_experiment`] drives it on the
//! default [`AdaptiveQueue`](cas_sim::AdaptiveQueue) — small paper runs
//! stay on the binary heap, 1k-server campaigns migrate to the calendar
//! queue automatically. Per-task hot state avoids hashing entirely:
//! in-flight records live in a generational [`Arena`] reached through a
//! dense task-indexed key table, and each decision's prediction memo
//! reuses one run-wide [`DecisionMemo`].
//!
//! Scheduling decisions run the **two-stage pipeline** behind the shard
//! federation's [`AgentRouter`] (see [`crate::shard`]): stage 1, each
//! shard's configured `CandidateSelector` proposes a shortlist from its
//! incrementally maintained `StaticIndex` (kept current by the
//! commit/complete hooks in this file — no per-arrival platform rescan);
//! stage 2, the heuristic runs its what-if queries on the merged
//! shortlist only, against the farm-wide HTM. The default
//! configuration is a single agent owning the whole farm (the paper's
//! model, and the reference the federation is differentially tested
//! against); `ExperimentConfig::shards` partitions stage 1 so no
//! ranking or stage-1 walk scales with the farm's size. The exhaustive
//! selector reproduces the paper's every-solver loop bit for bit in both
//! modes.

use crate::config::{ExperimentConfig, FaultTolerance};
use crate::event::GridEvent;
use crate::shard::{AgentRouter, DecisionInputs};
use cas_core::heuristics::Heuristic;
use cas_core::Htm;
use cas_metrics::{DropReason, TaskOutcome, TaskRecord};
use cas_platform::{
    AdmitOutcome, Arena, ArenaKey, CostTable, LoadAverage, LoadReport, Phase, PhaseCosts, ServerId,
    ServerRuntime, ServerSpec, TaskId, TaskInstance,
};
use cas_sim::dist::{LogNormalNoise, Sample};
use cas_sim::{prof, RngStream, Scheduler, SimTime, Simulation, StreamKind, World};
use cas_workload::ChurnProcess;
use std::collections::VecDeque;

/// Tolerance when matching a completion event's time against the
/// resource's recomputed completion time.
const COMPLETION_EPS: f64 = 1e-6;

/// Lifecycle counters of one run: how often the farm changed shape and
/// what the scheduler did about it. The cheap observability surface of
/// the fault-injection subsystem, next to
/// [`GridWorld::report_events`] and `Simulation::peak_pending`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChurnStats {
    /// Servers that crashed (in-flight work lost).
    pub crashes: u64,
    /// Servers that came back after a crash.
    pub joins: u64,
    /// Servers that left gracefully (drained, no retraction).
    pub leaves: u64,
    /// In-flight placements undone by crashes: one HTM retract plus one
    /// index-ledger payback each.
    pub retractions: u64,
    /// Tasks re-entered into the decision pipeline — after a crash
    /// retraction, or after finding no live solver — with the
    /// re-dispatch backoff applied.
    pub redispatches: u64,
    /// Tasks dropped with a reason code (re-dispatch budget exhausted,
    /// or no live solver left).
    pub drops: u64,
    /// Federation re-partitions triggered by the live-count band.
    pub rebalances: u64,
    /// Brand-new servers admitted mid-campaign (provision schedule).
    pub provisions: u64,
}

/// Observability counters of the admission backpressure gate: how much
/// the bounded buffer absorbed and how much it shed. All-zero when the
/// gate is off (`ExperimentConfig::admission_capacity == 0`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Buffer entries: tasks that waited behind the gate at least once
    /// (a crash-retracted task re-entering counts again).
    pub buffered: u64,
    /// Buffer exits into the decision pipeline (fair dequeue).
    pub dequeued: u64,
    /// Tasks shed because their admission deadline expired in the
    /// buffer.
    pub shed_deadline: u64,
    /// Tasks shed on arrival (or re-entry) because the buffer itself
    /// was full.
    pub shed_overflow: u64,
    /// Crash-retracted tasks that re-entered through the buffer instead
    /// of the re-dispatch backoff.
    pub reentries: u64,
    /// High-water mark of the buffer occupancy.
    pub peak_buffered: usize,
    /// High-water mark of concurrently admitted tasks (≤ capacity).
    pub peak_admitted: usize,
}

/// One task waiting behind the admission gate. `attempt`/`excluded`
/// are the Schedule arguments to replay on dequeue, so a re-buffered
/// crash victim keeps its attempt count and exclusion.
#[derive(Debug, Clone)]
struct BufferedTask {
    idx: usize,
    attempt: u32,
    excluded: Vec<ServerId>,
    enqueued: SimTime,
}

/// The bounded admission buffer: per-user-class FIFO queues drained
/// round-robin (so one flooding class cannot starve the others), a
/// concurrency gate of `capacity` tasks, and a per-task deadline after
/// which a buffered task is shed with
/// [`DropReason::AdmissionDeadline`]. Built at `init` when
/// `ExperimentConfig::admission_capacity > 0`; `None` otherwise, in
/// which case submissions take the exact pre-backpressure path.
struct AdmissionState {
    capacity: usize,
    buffer_cap: usize,
    in_admission: usize,
    buffered_total: usize,
    /// Per-class FIFO queues, sorted by class id so iteration order is
    /// deterministic in the workload alone.
    queues: Vec<(u32, VecDeque<BufferedTask>)>,
    /// Round-robin cursor of the fair dequeue: index into `queues` of
    /// the class to serve next.
    rr: usize,
    /// Whether task `idx` currently waits in the buffer.
    buffered: Vec<bool>,
    /// Admission generation per task, bumped on every buffer exit: a
    /// deadline event armed for an earlier stay cannot shed a task
    /// that was dequeued and re-buffered since.
    gen: Vec<u32>,
    /// Total buffered seconds per task (the SLO "buffered time").
    waits: Vec<f64>,
    stats: AdmissionStats,
}

impl AdmissionState {
    fn new(cfg: &ExperimentConfig, users: &[u32]) -> Self {
        let mut classes: Vec<u32> = users.to_vec();
        classes.sort_unstable();
        classes.dedup();
        AdmissionState {
            capacity: cfg.admission_capacity,
            buffer_cap: cfg.admission_buffer,
            in_admission: 0,
            buffered_total: 0,
            queues: classes.into_iter().map(|c| (c, VecDeque::new())).collect(),
            rr: 0,
            buffered: vec![false; users.len()],
            gen: vec![0; users.len()],
            waits: vec![0.0; users.len()],
            stats: AdmissionStats::default(),
        }
    }

    fn queue_of(&mut self, class: u32) -> &mut VecDeque<BufferedTask> {
        let i = self
            .queues
            .binary_search_by_key(&class, |(c, _)| *c)
            .expect("every task's class is registered");
        &mut self.queues[i].1
    }

    fn enqueue(&mut self, class: u32, entry: BufferedTask) {
        self.buffered[entry.idx] = true;
        self.buffered_total += 1;
        self.stats.buffered += 1;
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered_total);
        self.queue_of(class).push_back(entry);
    }

    /// Fair dequeue: the oldest waiting task of the next non-empty
    /// class, round-robin starting after the class served last.
    fn dequeue(&mut self, now: SimTime) -> Option<BufferedTask> {
        if self.buffered_total == 0 {
            return None;
        }
        let n = self.queues.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if let Some(entry) = self.queues[i].1.pop_front() {
                self.rr = (i + 1) % n;
                self.buffered_total -= 1;
                self.buffered[entry.idx] = false;
                self.gen[entry.idx] += 1;
                self.waits[entry.idx] += now.as_secs() - entry.enqueued.as_secs();
                self.stats.dequeued += 1;
                return Some(entry);
            }
        }
        None
    }

    /// Removes a deadline-expired task from its class queue (the caller
    /// has already checked `buffered` and the generation stamp).
    fn expire(&mut self, class: u32, idx: usize, now: SimTime) {
        let q = self.queue_of(class);
        let pos = q
            .iter()
            .position(|e| e.idx == idx)
            .expect("buffered task is queued under its class");
        let entry = q.remove(pos).expect("position is in bounds");
        self.buffered_total -= 1;
        self.buffered[idx] = false;
        self.gen[idx] += 1;
        self.waits[idx] += now.as_secs() - entry.enqueued.as_secs();
        self.stats.shed_deadline += 1;
    }
}

/// A scheduled mid-campaign server admission: at `at`, a brand-new
/// server with `spec` joins the farm, solving each problem at the
/// pre-measured `column` costs (one entry per problem, `None` =
/// unsolvable there — exactly a column of the cost table). Declared
/// before the run ([`GridWorld::with_provisions`]) so the grown farm is
/// a deterministic function of the schedule, never of event timing.
#[derive(Debug, Clone)]
pub struct Provision {
    /// Admission time.
    pub at: SimTime,
    /// The joining server's machine description.
    pub spec: ServerSpec,
    /// Its cost-table column, one entry per problem.
    pub column: Vec<Option<PhaseCosts>>,
}

/// A task in flight on a server.
#[derive(Debug, Clone, Copy)]
struct Flight {
    server: ServerId,
    costs: PhaseCosts,
    /// Which phase the task is currently in (needed to interpret shared
    /// client-link completions, which carry no phase information).
    phase: Phase,
    /// Predicted seconds of work the commit added to the static index's
    /// remaining-work ledger; the completion hook must decrement exactly
    /// this amount.
    work: f64,
}

/// The complete simulated system.
pub struct GridWorld {
    cfg: ExperimentConfig,
    costs: CostTable,
    tasks: Vec<TaskInstance>,
    servers: Vec<ServerRuntime>,
    monitors: Vec<LoadAverage>,
    reports: Vec<LoadReport>,
    /// The agent's entire decision stack: the farm-wide HTM plus
    /// per-shard static indices and stage-1 selectors behind the
    /// deterministic router (a single shard owning the whole farm by
    /// default — the paper's agent).
    agent: AgentRouter,
    heuristic: Box<dyn Heuristic>,
    /// Per-server admission limits (RAM + swap, MB), cached once at
    /// build: specs are immutable, and collecting this per decision put
    /// an O(n) scan on every arrival.
    server_mem: Vec<f64>,
    tie_rng: RngStream,
    cpu_noise: Vec<RngStream>,
    net_noise: Vec<RngStream>,
    noise_dist: LogNormalNoise,
    /// In-flight per-task state, arena-backed: records live contiguously,
    /// slots recycle as tasks complete, and the per-event lookup is a
    /// dense-index read (`flight_keys[task]` → arena slot) instead of a
    /// hash. Task ids are dense submission indices, so the key table is a
    /// plain `Vec` aligned with `records`.
    flights: Arena<Flight>,
    flight_keys: Vec<Option<ArenaKey<Flight>>>,
    /// The single client-side link all transfers share when
    /// `cfg.shared_client_link` is on; `None` in per-server-link mode.
    client_link: Option<cas_platform::FairShareResource<TaskId>>,
    records: Vec<TaskRecord>,
    /// Tasks not yet terminal (completed or failed); recurring events stop
    /// re-arming when this reaches zero so the simulation drains.
    remaining: usize,
    /// Servers the agent has learned are collapsed (a refusal response
    /// carries the flag).
    agent_known_dead: Vec<bool>,
    /// Liveness under churn: `false` while a server is crashed or has
    /// left. Dead servers are excluded from every decision's admit
    /// filter and dropped from the stage-1 rankings
    /// (`AgentRouter::set_available`); with churn disabled the vector
    /// stays all-true and the run is bit-identical to a frozen farm.
    live: Vec<bool>,
    /// Tasks currently in flight per server — the list a crash walks to
    /// retract the victim's placements. Maintained by the commit,
    /// completion and retraction paths.
    inflight: Vec<Vec<TaskId>>,
    /// Servers scheduled to join mid-campaign, in declaration order
    /// (admission events index into this).
    provisions: Vec<Provision>,
    /// The instantiated fault schedule (`None` when `cfg.mtbf` is
    /// infinite: no churn events, no churn RNG streams).
    churn: Option<ChurnProcess>,
    churn_stats: ChurnStats,
    /// Live-count band `(lo, hi)` per shard: drifting outside it
    /// triggers an online re-partition (federated router only).
    band: (usize, usize),
    /// Kernel events spent on load reports so far (per-server events in
    /// the default mode, per-shard events in aggregated mode) — the
    /// counter behind the O(n) → O(S) queue-pressure claim.
    report_events: u64,
    /// Per-task user classes, aligned with `tasks` (all-zero unless a
    /// trace workload attached real ones via
    /// [`GridWorld::with_users`]). Feed the admission gate's fair
    /// dequeue and the per-class SLO report.
    users: Vec<u32>,
    /// The admission backpressure gate (`None` when
    /// `cfg.admission_capacity == 0`: submissions take the exact
    /// pre-backpressure path). Built once at `init`, after the
    /// builders have had their say on `users`.
    admission: Option<AdmissionState>,
}

impl GridWorld {
    /// Builds the world. `tasks` must be sorted by arrival (metatask
    /// generators produce them that way).
    pub fn new(
        cfg: ExperimentConfig,
        costs: CostTable,
        server_specs: Vec<ServerSpec>,
        tasks: Vec<TaskInstance>,
    ) -> Self {
        assert_eq!(
            costs.n_servers(),
            server_specs.len(),
            "cost table and server list must agree"
        );
        assert!(
            tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "tasks must be sorted by arrival"
        );
        let n = server_specs.len();
        let churn = cfg.churn_model().process(n);
        let heuristic = cfg.heuristic.build();
        let mut agent = AgentRouter::new(
            &costs,
            cfg.shards.resolve(n),
            cfg.selector,
            cfg.index_scoring,
            cfg.sync,
        )
        // The run binds one heuristic for its whole lifetime, so the
        // drain depth is a run-level property: a policy that never reads
        // perturbations lets drains truncate at the probe's completion.
        .with_completion_only(!heuristic.needs_perturbations());
        if let Some(group_size) = cfg.shards.group_size() {
            agent = agent.with_group_size(group_size);
        }
        // Per-shard live-count band from the initial shape: merge below
        // half the initial mean block, split above twice it.
        let mean_block = (n / agent.n_shards().max(1)).max(1);
        let band = ((mean_block / 2).max(1), (mean_block * 2).max(2));
        let records = tasks
            .iter()
            .map(|t| TaskRecord {
                task: t.id,
                problem: t.problem,
                arrival: t.arrival,
                server: None,
                unloaded_duration: 0.0,
                predicted_completion: None,
                commit_prediction: None,
                outcome: TaskOutcome::InFlight,
                attempts: 0,
            })
            .collect();
        GridWorld {
            remaining: tasks.len(),
            flight_keys: vec![None; tasks.len()],
            agent,
            heuristic,
            tie_rng: RngStream::derive(cfg.seed, StreamKind::TieBreak),
            cpu_noise: (0..n as u32)
                .map(|i| RngStream::derive(cfg.seed, StreamKind::CpuNoise(i)))
                .collect(),
            net_noise: (0..n as u32)
                .map(|i| RngStream::derive(cfg.seed, StreamKind::NetNoise(i)))
                .collect(),
            noise_dist: LogNormalNoise::new(cfg.noise_sigma),
            server_mem: server_specs
                .iter()
                .map(|spec| spec.total_mem_mb())
                .collect(),
            servers: server_specs
                .into_iter()
                .map(|spec| ServerRuntime::new(spec, cfg.memory))
                .collect(),
            monitors: (0..n).map(|_| LoadAverage::new(cfg.load_tau)).collect(),
            reports: (0..n as u32)
                .map(|i| LoadReport::initial(ServerId(i)))
                .collect(),
            flights: Arena::with_capacity(64),
            client_link: if cfg.shared_client_link {
                Some(cas_platform::FairShareResource::new(1.0))
            } else {
                None
            },
            records,
            agent_known_dead: vec![false; n],
            live: vec![true; n],
            inflight: vec![Vec::new(); n],
            provisions: Vec::new(),
            churn,
            churn_stats: ChurnStats::default(),
            band,
            report_events: 0,
            users: vec![0; tasks.len()],
            admission: None,
            cfg,
            costs,
            tasks,
        }
    }

    /// Declares servers that join the farm mid-campaign (sorted or not —
    /// each is scheduled at its own `at`). Every column must cover the
    /// cost table's problems; the asserts fire at admission time.
    pub fn with_provisions(mut self, provisions: Vec<Provision>) -> Self {
        self.provisions = provisions;
        self
    }

    /// Attaches per-task user classes (trace workloads): `users[i]` is
    /// the class of `tasks[i]`. The admission gate dequeues fairly
    /// across classes and the SLO report splits by them. Defaults to a
    /// single class (all zero).
    pub fn with_users(mut self, users: Vec<u32>) -> Self {
        assert_eq!(users.len(), self.tasks.len(), "one user class per task");
        self.users = users;
        self
    }

    /// The agent's HTM (inspection, Gantt extraction): one trace per
    /// server of the whole farm, sharded or not.
    pub fn htm(&self) -> &Htm {
        self.agent.htm()
    }

    /// Mutable HTM access (to enable Gantt recording before a run).
    pub fn htm_mut(&mut self) -> &mut Htm {
        self.agent.htm_mut()
    }

    /// The federated agent: the full decision stack.
    pub fn agent(&self) -> &AgentRouter {
        &self.agent
    }

    /// The per-task records accumulated so far.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Consumes the world, returning the per-task records without a
    /// copy (for benches that keep whole-campaign records around).
    pub fn into_records(self) -> Vec<TaskRecord> {
        self.records
    }

    /// One server's runtime state.
    pub fn server(&self, id: ServerId) -> &ServerRuntime {
        &self.servers[id.index()]
    }

    /// Number of tasks not yet terminal.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Kernel events spent on periodic load reports so far: one per
    /// server per period in the default mode, one per **shard** per
    /// period with `ExperimentConfig::aggregated_reports` on.
    pub fn report_events(&self) -> u64 {
        self.report_events
    }

    /// Lifecycle counters: crashes, joins, leaves, retractions,
    /// re-dispatches, drops and rebalances so far.
    pub fn churn_stats(&self) -> ChurnStats {
        self.churn_stats
    }

    /// Number of currently live servers.
    pub fn live_servers(&self) -> usize {
        self.live.iter().filter(|&&up| up).count()
    }

    /// Per-task user classes (all-zero unless a trace attached real
    /// ones).
    pub fn users(&self) -> &[u32] {
        &self.users
    }

    /// Admission backpressure counters (all-zero when the gate is off).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.as_ref().map(|a| a.stats).unwrap_or_default()
    }

    /// Per-task total buffered seconds behind the admission gate —
    /// empty when the gate is off (`cas_metrics::per_class_slo` reads
    /// an empty slice as all-zero waits).
    pub fn admission_waits(&self) -> &[f64] {
        self.admission.as_ref().map_or(&[], |a| a.waits.as_slice())
    }

    fn resource(&self, server: ServerId, phase: Phase) -> &cas_platform::FairShareResource<TaskId> {
        let s = &self.servers[server.index()];
        match phase {
            Phase::Input => &s.link_in,
            Phase::Compute => &s.cpu,
            Phase::Output => &s.link_out,
        }
    }

    fn resource_mut(
        &mut self,
        server: ServerId,
        phase: Phase,
    ) -> &mut cas_platform::FairShareResource<TaskId> {
        let s = &mut self.servers[server.index()];
        match phase {
            Phase::Input => &mut s.link_in,
            Phase::Compute => &mut s.cpu,
            Phase::Output => &mut s.link_out,
        }
    }

    /// (Re)schedules the completion event for a server resource from its
    /// current state.
    fn resched(&mut self, server: ServerId, phase: Phase, sched: &mut Scheduler<'_, GridEvent>) {
        let now = sched.now();
        let res = self.resource(server, phase);
        if let Some((_, when)) = res.next_completion(now) {
            let gen = res.generation();
            sched.at(when.max(now), GridEvent::PhaseDone { server, phase, gen });
        }
    }

    /// (Re)schedules the completion event for the shared client link.
    fn resched_client_link(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        let now = sched.now();
        let link = self.client_link.as_ref().expect("shared link enabled");
        if let Some((_, when)) = link.next_completion(now) {
            let gen = link.generation();
            sched.at(when.max(now), GridEvent::ClientLinkDone { gen });
        }
    }

    /// The in-flight record of `task` (task ids are dense, so this is an
    /// indexed read through the arena key table).
    fn flight(&self, task: TaskId) -> &Flight {
        let key = self.flight_keys[task.index()].expect("flight exists");
        self.flights.get(key).expect("flight key is live")
    }

    fn flight_mut(&mut self, task: TaskId) -> &mut Flight {
        let key = self.flight_keys[task.index()].expect("flight exists");
        self.flights.get_mut(key).expect("flight key is live")
    }

    /// A task finished its input transfer: move it onto the CPU.
    fn input_arrived(&mut self, now: SimTime, task: TaskId, sched: &mut Scheduler<'_, GridEvent>) {
        let flight = self.flight_mut(task);
        debug_assert_eq!(flight.phase, Phase::Input);
        flight.phase = Phase::Compute;
        let (server, compute) = (flight.server, flight.costs.compute);
        self.touch_monitor(server, now);
        self.servers[server.index()].begin_compute(now, task, compute);
        self.resched(server, Phase::Compute, sched);
    }

    /// A task finished its output transfer: it is complete. The
    /// completion routes to the owning shard only — index decrement, HTM
    /// sync and the selector's stretch feedback all stay O(shard).
    ///
    /// The stretch signal compares **flows** (durations since arrival),
    /// not absolute completion dates: a relative tolerance on absolute
    /// sim dates would decay to nothing as the campaign clock grows, and
    /// a task late by 10 s must register the same at t = 100 as at
    /// t = 10,000.
    fn output_arrived(&mut self, now: SimTime, task: TaskId, sched: &mut Scheduler<'_, GridEvent>) {
        if let Some(key) = self.flight_keys[task.index()].take() {
            let flight = self.flights.remove(key).expect("flight key is live");
            self.forget_inflight(flight.server, task);
            let rec = &self.records[task.index()];
            let arrival = rec.arrival.as_secs();
            let predicted_flow = rec
                .commit_prediction
                .map_or(0.0, |p| (p.as_secs() - arrival).max(0.0));
            let observed_flow = now.as_secs() - arrival;
            let _hooks = prof::span(prof::Phase::CommitHooks);
            self.agent.on_complete(
                now,
                flight.server,
                task,
                flight.work,
                observed_flow,
                predicted_flow,
            );
        }
        let rec = self.record_mut(task);
        rec.outcome = TaskOutcome::Completed { finished: now };
        self.remaining -= 1;
        self.release_admission(now, sched);
    }

    /// Integrates the load monitor up to `now` with the run-queue length
    /// that held since the last touch. Must be called *before* changing the
    /// CPU membership.
    fn touch_monitor(&mut self, server: ServerId, now: SimTime) {
        let len = self.servers[server.index()].run_queue_len();
        self.monitors[server.index()].observe(now, len);
    }

    fn record_mut(&mut self, task: TaskId) -> &mut TaskRecord {
        // Task ids are dense indices into the metatask.
        &mut self.records[task.index()]
    }

    /// Drops `task` from `server`'s in-flight list (order-preserving, so
    /// a crash retracts oldest placements first).
    fn forget_inflight(&mut self, server: ServerId, task: TaskId) {
        let list = &mut self.inflight[server.index()];
        if let Some(pos) = list.iter().position(|&t| t == task) {
            list.remove(pos);
        }
    }

    fn fail_task(
        &mut self,
        idx: usize,
        attempts: u32,
        last_server: Option<ServerId>,
        now: SimTime,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let task = self.tasks[idx];
        let rec = self.record_mut(task.id);
        rec.outcome = TaskOutcome::Failed;
        rec.attempts = attempts;
        rec.server = last_server;
        self.remaining -= 1;
        self.release_admission(now, sched);
    }

    /// A submission reaches the agent: straight into the decision
    /// pipeline when the admission gate is off (bit-identical to the
    /// pre-backpressure build), through the bounded gate otherwise.
    fn handle_submit(&mut self, now: SimTime, idx: usize, sched: &mut Scheduler<'_, GridEvent>) {
        if self.admission.is_none() {
            let delay = SimTime::from_secs(self.cfg.agent_latency);
            sched.in_(
                delay,
                GridEvent::Schedule {
                    idx,
                    attempt: 1,
                    excluded: Vec::new(),
                },
            );
            return;
        }
        let adm = self.admission.as_mut().expect("gate is on");
        if adm.in_admission < adm.capacity {
            adm.in_admission += 1;
            adm.stats.peak_admitted = adm.stats.peak_admitted.max(adm.in_admission);
            sched.in_(
                SimTime::from_secs(self.cfg.agent_latency),
                GridEvent::Schedule {
                    idx,
                    attempt: 1,
                    excluded: Vec::new(),
                },
            );
        } else {
            self.buffer_or_shed(now, idx, 1, Vec::new(), sched);
        }
    }

    /// Buffers a task behind the full gate — arming its admission
    /// deadline — or sheds it immediately when the buffer itself is
    /// full.
    fn buffer_or_shed(
        &mut self,
        now: SimTime,
        idx: usize,
        attempt: u32,
        excluded: Vec<ServerId>,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let adm = self.admission.as_mut().expect("gate is on");
        if adm.buffered_total >= adm.buffer_cap {
            adm.stats.shed_overflow += 1;
            self.shed_task(idx);
            return;
        }
        let class = self.users[idx];
        let gen = adm.gen[idx];
        adm.enqueue(
            class,
            BufferedTask {
                idx,
                attempt,
                excluded,
                enqueued: now,
            },
        );
        if self.cfg.admission_deadline.is_finite() {
            sched.in_(
                SimTime::from_secs(self.cfg.admission_deadline),
                GridEvent::AdmissionTimeout { idx, gen },
            );
        }
    }

    /// Terminal admission shed: the task never (re)reached a server.
    /// `attempts` and `server` keep whatever earlier dispatch attempts
    /// recorded.
    fn shed_task(&mut self, idx: usize) {
        let task = self.tasks[idx];
        let rec = self.record_mut(task.id);
        rec.outcome = TaskOutcome::Dropped {
            reason: DropReason::AdmissionDeadline,
        };
        self.remaining -= 1;
    }

    /// An admitted task left the pipeline (terminal, or re-buffered
    /// after a crash retraction): free its slot and pull waiting tasks
    /// through the gate, round-robin across user classes. No-op when
    /// the gate is off.
    fn release_admission(&mut self, now: SimTime, sched: &mut Scheduler<'_, GridEvent>) {
        let Some(adm) = &mut self.admission else {
            return;
        };
        debug_assert!(adm.in_admission > 0, "release without a held slot");
        adm.in_admission -= 1;
        while adm.in_admission < adm.capacity {
            let Some(entry) = adm.dequeue(now) else { break };
            adm.in_admission += 1;
            adm.stats.peak_admitted = adm.stats.peak_admitted.max(adm.in_admission);
            sched.in_(
                SimTime::from_secs(self.cfg.agent_latency),
                GridEvent::Schedule {
                    idx: entry.idx,
                    attempt: entry.attempt,
                    excluded: entry.excluded,
                },
            );
        }
    }

    /// A buffered task's admission deadline fired: shed it unless the
    /// event is stale (the task was dequeued — and possibly re-buffered
    /// — since the deadline was armed).
    fn handle_admission_timeout(&mut self, now: SimTime, idx: usize, gen: u32) {
        let Some(adm) = &mut self.admission else {
            return;
        };
        if !adm.buffered[idx] || adm.gen[idx] != gen {
            return;
        }
        let class = self.users[idx];
        adm.expire(class, idx, now);
        self.shed_task(idx);
    }

    fn handle_schedule(
        &mut self,
        now: SimTime,
        idx: usize,
        attempt: u32,
        excluded: Vec<ServerId>,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let task = self.tasks[idx];
        // The full two-stage decision runs inside the router: stage 1 on
        // every shard's static index (no HTM drain yet; an exhaustive
        // selector reproduces the old solvers-minus-dead candidate list
        // exactly), stage 2 over the merged shortlist on the owning
        // shards. Regret feedback reaches the picked server's
        // shard selector inside `decide`.
        let pick = {
            let dead = &self.agent_known_dead;
            let live = &self.live;
            let excluded = &excluded;
            let admit =
                move |s: ServerId| !excluded.contains(&s) && !dead[s.index()] && live[s.index()];
            self.agent.decide(
                DecisionInputs {
                    now,
                    task,
                    costs: &self.costs,
                    reports: &self.reports,
                    server_mem: &self.server_mem,
                    admit: &admit,
                },
                self.heuristic.as_mut(),
                &mut self.tie_rng,
            )
        };
        let Some(server) = pick else {
            if self.churn.is_some() {
                // Under churn "nobody can take it" is usually transient
                // — the solvers are down, not gone. Re-enter the
                // pipeline after the backoff (with a clean exclusion
                // set: a rejoined server is a fresh candidate) until the
                // dispatch budget runs out, then drop with a reason
                // code so the campaign accounting stays exact.
                if attempt < self.cfg.redispatch_budget {
                    self.churn_stats.redispatches += 1;
                    sched.in_(
                        SimTime::from_secs(self.cfg.redispatch_backoff),
                        GridEvent::Schedule {
                            idx,
                            attempt: attempt + 1,
                            excluded: Vec::new(),
                        },
                    );
                } else {
                    self.churn_stats.drops += 1;
                    let rec = self.record_mut(task.id);
                    rec.outcome = TaskOutcome::Dropped {
                        reason: DropReason::NoLiveSolver,
                    };
                    rec.attempts = attempt;
                    self.remaining -= 1;
                    self.release_admission(now, sched);
                }
                return;
            }
            self.fail_task(idx, attempt, excluded.last().copied(), now, sched);
            return;
        };
        let phase_costs = self
            .costs
            .costs(task.problem, server)
            .expect("heuristic picked a solver");
        let mem = self.costs.problem(task.problem).mem_mb;

        match self.servers[server.index()].reserve(now, task.id, mem) {
            AdmitOutcome::Admitted => {
                // Reservation can push the server into thrashing, which
                // changes the CPU capacity — keep the CPU event fresh.
                self.resched(server, Phase::Compute, sched);
                let commit_span = prof::span(prof::Phase::CommitHooks);
                let predicted = self.agent.predict_completion(now, server, &task);
                self.reports[server.index()].note_assignment();
                // The index's remaining-work ledger grows by the task's
                // *service demand* (unloaded total), not by its predicted
                // residence time: `predicted − now` includes queueing
                // delay, so summing it over a backlog multiply-counts the
                // queue (three queued tasks of duration d would ledger
                // d + 2d + 3d). Service demands sum to exactly the
                // serial drain time of the backlog — the quantity the
                // `d + remaining` stage-1 proxy wants. The completion
                // hook pays back the same amount.
                let work = phase_costs.total();
                self.agent.on_commit(now, server, &task, work);
                drop(commit_span);
                {
                    let rec = self.record_mut(task.id);
                    rec.server = Some(server);
                    rec.unloaded_duration = phase_costs.total();
                    rec.commit_prediction = predicted;
                    rec.attempts = attempt;
                }
                let key = self.flights.insert(Flight {
                    server,
                    costs: phase_costs,
                    phase: Phase::Input,
                    work,
                });
                self.flight_keys[task.id.index()] = Some(key);
                self.inflight[server.index()].push(task.id);
                if let Some(link) = &mut self.client_link {
                    link.add(now, task.id, phase_costs.input);
                    self.resched_client_link(sched);
                } else {
                    self.servers[server.index()].start_input(now, task.id, phase_costs.input);
                    self.resched(server, Phase::Input, sched);
                }
            }
            outcome @ (AdmitOutcome::Rejected | AdmitOutcome::Collapsed) => {
                if outcome == AdmitOutcome::Collapsed || self.servers[server.index()].is_collapsed()
                {
                    // The refusal response tells the agent the server is
                    // gone for good.
                    self.agent_known_dead[server.index()] = true;
                }
                let retry = match self.cfg.fault_tolerance {
                    FaultTolerance::RankedRetry { max_attempts } => attempt < max_attempts,
                    FaultTolerance::None => false,
                };
                if retry {
                    let mut excluded = excluded;
                    excluded.push(server);
                    sched.immediately(GridEvent::Schedule {
                        idx,
                        attempt: attempt + 1,
                        excluded,
                    });
                } else {
                    self.fail_task(idx, attempt, Some(server), now, sched);
                }
            }
        }
    }

    fn handle_phase_done(
        &mut self,
        now: SimTime,
        server: ServerId,
        phase: Phase,
        gen: cas_sim::Generation,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        {
            let res = self.resource(server, phase);
            if !res.generation().is_current(gen) {
                return; // stale: membership/capacity changed since scheduling
            }
        }
        let next = self.resource(server, phase).next_completion(now);
        let Some((task, when)) = next else {
            return;
        };
        if when.as_secs() > now.as_secs() + COMPLETION_EPS {
            // Not actually done yet (same generation but queried earlier in
            // the same instant); re-arm at the true time.
            sched.at(when, GridEvent::PhaseDone { server, phase, gen });
            return;
        }
        let flight = *self.flight(task);
        debug_assert_eq!(flight.server, server);
        match phase {
            Phase::Input => {
                self.resource_mut(server, Phase::Input).remove(now, task);
                self.resched(server, Phase::Input, sched);
                self.input_arrived(now, task, sched);
            }
            Phase::Compute => {
                self.touch_monitor(server, now);
                self.servers[server.index()].finish_compute(now, task);
                // Correction 2: the server notifies the agent of the
                // completed computation.
                self.reports[server.index()].note_completion();
                self.flight_mut(task).phase = Phase::Output;
                if let Some(link) = &mut self.client_link {
                    link.add(now, task, flight.costs.output);
                    self.resched(server, Phase::Compute, sched);
                    self.resched_client_link(sched);
                } else {
                    self.servers[server.index()].start_output(now, task, flight.costs.output);
                    self.resched(server, Phase::Compute, sched);
                    self.resched(server, Phase::Output, sched);
                }
            }
            Phase::Output => {
                self.resource_mut(server, Phase::Output).remove(now, task);
                self.resched(server, Phase::Output, sched);
                self.output_arrived(now, task, sched);
            }
        }
    }

    /// Shared-link transfer completion: dispatch on the task's phase.
    fn handle_client_link_done(
        &mut self,
        now: SimTime,
        gen: cas_sim::Generation,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        {
            let link = self.client_link.as_ref().expect("shared link enabled");
            if !link.generation().is_current(gen) {
                return;
            }
        }
        let next = self
            .client_link
            .as_ref()
            .expect("shared link enabled")
            .next_completion(now);
        let Some((task, when)) = next else { return };
        if when.as_secs() > now.as_secs() + COMPLETION_EPS {
            sched.at(when, GridEvent::ClientLinkDone { gen });
            return;
        }
        self.client_link
            .as_mut()
            .expect("shared link enabled")
            .remove(now, task);
        let phase = self.flight(task).phase;
        self.resched_client_link(sched);
        match phase {
            Phase::Input => self.input_arrived(now, task, sched),
            Phase::Output => self.output_arrived(now, task, sched),
            Phase::Compute => unreachable!("compute never runs on the client link"),
        }
    }

    fn handle_load_report(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        self.report_events += 1;
        let len = self.servers[server.index()].run_queue_len();
        let value = self.monitors[server.index()].observe(now, len);
        self.reports[server.index()].refresh(now, value);
        if self.remaining > 0 {
            sched.in_(
                SimTime::from_secs(self.cfg.load_report_period),
                GridEvent::LoadReport { server },
            );
        }
    }

    /// Aggregated report: one kernel event refreshes the whole shard
    /// block. Per-server work is identical to the per-server events (one
    /// monitor observation and one report refresh each); only the kernel
    /// pressure changes — O(n_shards) pending report events instead of
    /// O(n_servers).
    fn handle_shard_load_report(
        &mut self,
        now: SimTime,
        shard: usize,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if shard >= self.agent.map().n_shards() {
            // A rebalance shrank the federation after this report was
            // scheduled; the stale event dies here and the surviving
            // shards' own report chains cover every server.
            return;
        }
        self.report_events += 1;
        let members = self.agent.map().members(shard);
        for s in members {
            let i = s as usize;
            let len = self.servers[i].run_queue_len();
            let value = self.monitors[i].observe(now, len);
            self.reports[i].refresh(now, value);
        }
        if self.remaining > 0 {
            sched.in_(
                SimTime::from_secs(self.cfg.load_report_period),
                GridEvent::ShardLoadReport { shard },
            );
        }
    }

    fn handle_noise_redraw(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if self.cfg.noise_sigma > 0.0 {
            let i = server.index();
            let cpu_factor = self.noise_dist.sample(&mut self.cpu_noise[i]);
            let net_factor = self.noise_dist.sample(&mut self.net_noise[i]);
            self.servers[i].set_noise(now, cpu_factor);
            self.servers[i].link_in.set_capacity(now, net_factor);
            self.servers[i].link_out.set_capacity(now, net_factor);
            self.resched(server, Phase::Input, sched);
            self.resched(server, Phase::Compute, sched);
            self.resched(server, Phase::Output, sched);
            // In shared-link mode, server 0's net stream doubles as the
            // client link's noise source (one redraw per period).
            if i == 0 && self.client_link.is_some() {
                let factor = self.noise_dist.sample(&mut self.net_noise[0]);
                self.client_link
                    .as_mut()
                    .expect("just checked")
                    .set_capacity(now, factor);
                self.resched_client_link(sched);
            }
        }
        if self.remaining > 0 {
            sched.in_(
                SimTime::from_secs(self.cfg.noise_redraw_period),
                GridEvent::NoiseRedraw { server },
            );
        }
    }

    /// Undoes one in-flight placement on a crashed server: the task is
    /// pulled out of whatever resource it occupies (its memory
    /// reservation released), the agent's model retracts it through the
    /// HTM/index hooks, and the task re-enters the decision pipeline
    /// after the re-dispatch backoff — or is dropped with a reason code
    /// once its dispatch budget is spent.
    fn retract_flight(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: TaskId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let Some(key) = self.flight_keys[task.index()].take() else {
            return;
        };
        let flight = self.flights.remove(key).expect("flight key is live");
        debug_assert_eq!(flight.server, server);
        match flight.phase {
            Phase::Input => {
                if let Some(link) = &mut self.client_link {
                    link.remove(now, task);
                    self.resched_client_link(sched);
                } else {
                    self.resource_mut(server, Phase::Input).remove(now, task);
                    self.resched(server, Phase::Input, sched);
                }
                // The commit-time memory reservation is still held;
                // releasing it can ease thrashing, which changes the CPU
                // capacity — keep the CPU event fresh.
                self.servers[server.index()].release(now, task);
                self.resched(server, Phase::Compute, sched);
            }
            Phase::Compute => {
                self.touch_monitor(server, now);
                self.servers[server.index()].finish_compute(now, task);
                self.resched(server, Phase::Compute, sched);
            }
            Phase::Output => {
                if let Some(link) = &mut self.client_link {
                    link.remove(now, task);
                    self.resched_client_link(sched);
                } else {
                    self.resource_mut(server, Phase::Output).remove(now, task);
                    self.resched(server, Phase::Output, sched);
                }
            }
        }
        self.agent.on_retract(now, server, task, flight.work);
        self.churn_stats.retractions += 1;
        let attempts = self.records[task.index()].attempts;
        if attempts < self.cfg.redispatch_budget {
            self.churn_stats.redispatches += 1;
            if let Some(adm) = &mut self.admission {
                // Under backpressure the bounded buffer replaces the
                // re-dispatch backoff: the victim re-enters the queue
                // (that one `redispatches` increment above is its only
                // count — the dequeue does not count it again), its
                // held slot is released below, and the fair dequeue
                // decides when it reaches the pipeline again.
                adm.stats.reentries += 1;
                self.buffer_or_shed(now, task.index(), attempts + 1, vec![server], sched);
                self.release_admission(now, sched);
            } else {
                sched.in_(
                    SimTime::from_secs(self.cfg.redispatch_backoff),
                    GridEvent::Schedule {
                        idx: task.index(),
                        attempt: attempts + 1,
                        excluded: vec![server],
                    },
                );
            }
        } else {
            self.churn_stats.drops += 1;
            let rec = self.record_mut(task);
            rec.outcome = TaskOutcome::Dropped {
                reason: DropReason::RedispatchBudget,
            };
            self.remaining -= 1;
            self.release_admission(now, sched);
        }
    }

    /// Re-partitions the federation when the live-server count has
    /// drifted past the size band (no-op for the single-agent path, or
    /// while the boundaries still fit). Growth of the shard count under
    /// aggregated reports seeds report events for the new shards;
    /// shrink leaves the stale events to die on the bounds check in
    /// [`GridWorld::handle_shard_load_report`].
    fn maybe_rebalance(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        if !self.agent.is_federated() {
            return;
        }
        let (lo, hi) = self.band;
        // With every block's live count inside the band neither the merge
        // nor the split pass of `rebalanced` can fire: skip its O(n) scan.
        if !self.agent.live_out_of_band(lo, hi) {
            debug_assert!(self.agent.map().rebalanced(&self.live, lo, hi).is_none());
            return;
        }
        let Some(new_map) = self.agent.map().rebalanced(&self.live, lo, hi) else {
            return;
        };
        let old_shards = self.agent.n_shards();
        self.agent.rebalance(&self.costs, new_map);
        self.churn_stats.rebalances += 1;
        let new_shards = self.agent.n_shards();
        if self.cfg.aggregated_reports && new_shards > old_shards && self.remaining > 0 {
            for k in old_shards..new_shards {
                let phase = self.cfg.load_report_period * (k + 1) as f64 / new_shards as f64;
                sched.in_(
                    SimTime::from_secs(phase),
                    GridEvent::ShardLoadReport { shard: k },
                );
            }
        }
    }

    /// A server crashes: every placement in flight on it is retracted
    /// and re-dispatched (or dropped), the server leaves the rankings
    /// and the admit filter, and a rejoin is scheduled after the
    /// repair-time draw. Once every task is terminal the fault
    /// schedule has nothing left to act on, and the event is dropped.
    fn handle_server_crash(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if !self.live[server.index()] || self.remaining == 0 {
            return;
        }
        self.churn_stats.crashes += 1;
        self.live[server.index()] = false;
        self.agent.set_available(server, false);
        let victims = std::mem::take(&mut self.inflight[server.index()]);
        for task in victims {
            self.retract_flight(now, server, task, sched);
        }
        self.maybe_rebalance(sched);
        if self.remaining > 0 {
            let downtime = self
                .churn
                .as_mut()
                .expect("crash events exist only under churn")
                .next_downtime(server);
            sched.in_(
                SimTime::from_secs(downtime),
                GridEvent::ServerJoin { server },
            );
        }
    }

    /// A crashed server comes back: it rejoins the rankings at its
    /// believed load (its ledger kept draining while it was away), its
    /// monitor history and report restart fresh, and the next crash is
    /// scheduled from the uptime draw. Like a crash, a join after the
    /// last task went terminal is dropped.
    fn handle_server_join(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if self.live[server.index()] || self.remaining == 0 {
            return;
        }
        self.churn_stats.joins += 1;
        self.live[server.index()] = true;
        self.agent.set_available(server, true);
        // Rejoin resets the agent's collapse knowledge; a server whose
        // runtime really did collapse will refuse its next reservation
        // and be re-marked.
        self.agent_known_dead[server.index()] = false;
        self.monitors[server.index()] = LoadAverage::new(self.cfg.load_tau);
        self.reports[server.index()] = LoadReport::initial(server);
        let _ = now;
        self.maybe_rebalance(sched);
        let uptime = self
            .churn
            .as_mut()
            .expect("join events exist only under churn")
            .next_uptime(server);
        sched.in_(
            SimTime::from_secs(uptime),
            GridEvent::ServerCrash { server },
        );
    }

    /// A server leaves gracefully: no new placements (rankings and admit
    /// exclude it immediately) but work already in flight drains to
    /// completion — the index ledger and HTM hooks on a down server stay
    /// consistent by design.
    fn handle_server_leave(
        &mut self,
        _now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if !self.live[server.index()] {
            return;
        }
        self.churn_stats.leaves += 1;
        self.live[server.index()] = false;
        self.agent.set_available(server, false);
        self.maybe_rebalance(sched);
    }

    /// A brand-new server is admitted mid-campaign: every per-server
    /// vector of the world grows by one, the farm-wide cost table gains
    /// the declared column, and the agent joins it into the owning (last)
    /// shard through the proven incremental pushes — no engine rebuild,
    /// no other shard touched. The newcomer is live, idle and eligible
    /// from its very next decision; its periodic report/noise events are
    /// scheduled here (in aggregated-report mode the owning shard's
    /// existing report chain covers it for free, since shard reports walk
    /// the *current* block). The fault schedule deliberately does not
    /// extend to provisioned servers: churn streams are drawn per initial
    /// server at init so the schedule stays a function of the churn seed
    /// alone.
    fn handle_server_provision(
        &mut self,
        now: SimTime,
        idx: usize,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let spec = self.provisions[idx].spec.clone();
        let column = self.provisions[idx].column.clone();
        assert_eq!(
            column.len(),
            self.costs.n_problems(),
            "provision column must cover every problem"
        );
        let id = ServerId(self.servers.len() as u32);
        self.costs.push_server(column.clone());
        let agent_id = self.agent.push_server(column);
        assert_eq!(agent_id, id, "world and router must agree on the new id");
        self.server_mem.push(spec.total_mem_mb());
        self.servers.push(ServerRuntime::new(spec, self.cfg.memory));
        self.monitors.push(LoadAverage::new(self.cfg.load_tau));
        self.reports.push(LoadReport::initial(id));
        self.cpu_noise
            .push(RngStream::derive(self.cfg.seed, StreamKind::CpuNoise(id.0)));
        self.net_noise
            .push(RngStream::derive(self.cfg.seed, StreamKind::NetNoise(id.0)));
        self.agent_known_dead.push(false);
        self.live.push(true);
        self.inflight.push(Vec::new());
        self.churn_stats.provisions += 1;
        let _ = now;
        if self.remaining > 0 {
            if !self.cfg.aggregated_reports {
                sched.in_(
                    SimTime::from_secs(self.cfg.load_report_period),
                    GridEvent::LoadReport { server: id },
                );
            }
            if self.cfg.noise_sigma > 0.0 {
                sched.in_(
                    SimTime::from_secs(self.cfg.noise_redraw_period),
                    GridEvent::NoiseRedraw { server: id },
                );
            }
        }
        // Growth can push the last shard past the live-count band. Only a
        // churning farm re-partitions: a frozen farm keeps the partition
        // it was built with, its provisioned servers appended to the last
        // block, so growth alone never moves a block boundary.
        if self.churn.is_some() {
            self.maybe_rebalance(sched);
        }
    }
}

impl World for GridWorld {
    type Event = GridEvent;

    fn init(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        if self.cfg.admission_enabled() {
            self.admission = Some(AdmissionState::new(&self.cfg, &self.users));
        }
        for (idx, task) in self.tasks.iter().enumerate() {
            sched.at(task.arrival, GridEvent::Submit { idx });
        }
        let n = self.servers.len().max(1);
        if self.cfg.aggregated_reports {
            // One report event per shard, staggered across shards the
            // same way per-server reports stagger across servers.
            let n_shards = self.agent.map().n_shards().max(1);
            for k in 0..self.agent.map().n_shards() {
                let phase = self.cfg.load_report_period * (k + 1) as f64 / n_shards as f64;
                sched.at(
                    SimTime::from_secs(phase),
                    GridEvent::ShardLoadReport { shard: k },
                );
            }
        }
        for i in 0..self.servers.len() {
            // Stagger periodic events across servers so reports don't all
            // land on the same instant.
            if !self.cfg.aggregated_reports {
                let phase = self.cfg.load_report_period * (i + 1) as f64 / n as f64;
                sched.at(
                    SimTime::from_secs(phase),
                    GridEvent::LoadReport {
                        server: ServerId(i as u32),
                    },
                );
            }
            if self.cfg.noise_sigma > 0.0 {
                let phase = self.cfg.noise_redraw_period * (i + 1) as f64 / n as f64;
                sched.at(
                    SimTime::from_secs(phase),
                    GridEvent::NoiseRedraw {
                        server: ServerId(i as u32),
                    },
                );
            }
        }
        for (idx, p) in self.provisions.iter().enumerate() {
            sched.at(p.at, GridEvent::ServerProvision { idx });
        }
        if let Some(churn) = &mut self.churn {
            // Each server's first failure comes from its own uptime
            // stream, so the fault schedule is a function of the churn
            // seed alone — independent of workload or heuristic.
            for i in 0..self.servers.len() {
                let server = ServerId(i as u32);
                let uptime = churn.next_uptime(server);
                sched.at(
                    SimTime::from_secs(uptime),
                    GridEvent::ServerCrash { server },
                );
            }
        }
    }

    fn handle(&mut self, now: SimTime, event: GridEvent, sched: &mut Scheduler<'_, GridEvent>) {
        match event {
            GridEvent::Submit { idx } => self.handle_submit(now, idx, sched),
            GridEvent::AdmissionTimeout { idx, gen } => {
                self.handle_admission_timeout(now, idx, gen)
            }
            GridEvent::Schedule {
                idx,
                attempt,
                excluded,
            } => self.handle_schedule(now, idx, attempt, excluded, sched),
            GridEvent::PhaseDone { server, phase, gen } => {
                self.handle_phase_done(now, server, phase, gen, sched)
            }
            GridEvent::ClientLinkDone { gen } => self.handle_client_link_done(now, gen, sched),
            GridEvent::LoadReport { server } => {
                let _reports = prof::span(prof::Phase::Reports);
                self.handle_load_report(now, server, sched)
            }
            GridEvent::ShardLoadReport { shard } => {
                let _reports = prof::span(prof::Phase::Reports);
                self.handle_shard_load_report(now, shard, sched)
            }
            GridEvent::NoiseRedraw { server } => self.handle_noise_redraw(now, server, sched),
            GridEvent::ServerCrash { server } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.handle_server_crash(now, server, sched)
            }
            GridEvent::ServerProvision { idx } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.handle_server_provision(now, idx, sched)
            }
            GridEvent::ServerJoin { server } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.handle_server_join(now, server, sched)
            }
            GridEvent::ServerLeave { server } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.handle_server_leave(now, server, sched)
            }
        }
    }
}

/// Drives a built world to completion and back-fills the HTM's final
/// simulated completion dates (Table 1's "simulated completion date"
/// column).
fn run_world(world: GridWorld) -> GridWorld {
    let mut sim = Simulation::new(world);
    let outcome = sim.run_to_completion();
    debug_assert_eq!(outcome, cas_sim::engine::RunOutcome::Exhausted);
    let mut world = sim.into_world();
    debug_assert_eq!(
        world.remaining(),
        0,
        "all tasks must reach a terminal state"
    );
    let simulated = world.agent.simulated_completions();
    for rec in &mut world.records {
        rec.predicted_completion = simulated.get(&rec.task).copied();
    }
    world
}

/// Runs one experiment to completion and returns the per-task records.
pub fn run_experiment(
    cfg: ExperimentConfig,
    costs: CostTable,
    servers: Vec<ServerSpec>,
    tasks: Vec<TaskInstance>,
) -> Vec<TaskRecord> {
    run_world(GridWorld::new(cfg, costs, servers, tasks)).records
}

/// Runs one experiment with per-task user classes (trace workloads) and
/// returns the records plus the admission observability surface: the
/// gate's counters and the per-task buffered seconds
/// (`cas_metrics::per_class_slo` consumes records + users + waits).
pub fn run_experiment_with_users(
    cfg: ExperimentConfig,
    costs: CostTable,
    servers: Vec<ServerSpec>,
    tasks: Vec<TaskInstance>,
    users: Vec<u32>,
) -> (Vec<TaskRecord>, AdmissionStats, Vec<f64>) {
    let world = run_world(GridWorld::new(cfg, costs, servers, tasks).with_users(users));
    let stats = world.admission_stats();
    let waits = world.admission_waits().to_vec();
    (world.records, stats, waits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Sharding;
    use cas_core::heuristics::HeuristicKind;
    use cas_platform::Problem;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Six heterogeneous servers, two problems (P1 solvable on half the
    /// farm), small transfers — wide enough that a shard federation has
    /// real blocks to own.
    fn six_setup() -> (CostTable, Vec<ServerSpec>) {
        let mut costs = CostTable::new(6);
        costs.add_problem(
            Problem::new("p0", 1.0, 0.5, 0.0),
            (0..6)
                .map(|s| Some(PhaseCosts::new(0.5, 8.0 + 4.0 * s as f64, 0.5)))
                .collect(),
        );
        costs.add_problem(
            Problem::new("p1", 1.0, 0.5, 0.0),
            (0..6)
                .map(|s| (s % 2 == 0).then(|| PhaseCosts::new(0.3, 20.0 - 2.0 * s as f64, 0.3)))
                .collect(),
        );
        let servers = (0..6)
            .map(|s| ServerSpec::new(format!("s{s}"), 1000.0 - 100.0 * s as f64, 1024.0, 1024.0))
            .collect();
        (costs, servers)
    }

    fn six_tasks(n: usize) -> Vec<TaskInstance> {
        (0..n)
            .map(|i| {
                TaskInstance::new(
                    TaskId(i as u64),
                    cas_platform::ProblemId((i % 2) as u32),
                    t(i as f64 * 0.7),
                )
            })
            .collect()
    }

    /// Two servers: fast (10 s compute) and slow (30 s), 1 s transfers
    /// each way, no memory pressure.
    fn mini_setup() -> (CostTable, Vec<ServerSpec>) {
        let mut costs = CostTable::new(2);
        costs.add_problem(
            Problem::new("p", 1.0, 0.5, 0.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 30.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast", 1000.0, 1024.0, 1024.0),
            ServerSpec::new("slow", 500.0, 1024.0, 1024.0),
        ];
        (costs, servers)
    }

    fn mini_tasks(arrivals: &[f64]) -> Vec<TaskInstance> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| TaskInstance::new(TaskId(i as u64), cas_platform::ProblemId(0), t(a)))
            .collect()
    }

    #[test]
    fn single_task_completes_at_unloaded_duration() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[5.0]));
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert!(r.is_completed());
        assert_eq!(r.server, Some(ServerId(0)), "picks the fast server");
        // 5.0 arrival + 1 + 10 + 1 = 17.0, no noise, no latency.
        assert!(r.finished().unwrap().approx_eq(t(17.0), 1e-9));
        assert_eq!(r.unloaded_duration, 12.0);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn htm_prediction_is_exact_in_ideal_mode() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Msf, 3);
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 2.0, 4.0, 6.0, 8.0]));
        for r in &recs {
            let pred = r.predicted_completion.expect("HTM committed");
            let actual = r.finished().expect("completed");
            assert!(
                pred.approx_eq(actual, 1e-6),
                "task {}: predicted {pred:?}, actual {actual:?}",
                r.task
            );
        }
    }

    #[test]
    fn noise_makes_predictions_imperfect_but_close() {
        let (costs, servers) = mini_setup();
        let mut cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 7);
        cfg.memory = cas_platform::MemoryModel::disabled();
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 3.0, 6.0, 9.0, 12.0]));
        let errors: Vec<f64> = recs
            .iter()
            .filter_map(|r| r.prediction_error_pct())
            .collect();
        assert_eq!(errors.len(), 5);
        assert!(errors.iter().any(|&e| e > 0.0), "noise must show up");
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 15.0, "errors should stay moderate, got {mean}");
    }

    #[test]
    fn contention_stretches_flows() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        // Twenty tasks arriving almost at once: heavy sharing.
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&arrivals));
        assert!(recs.iter().all(|r| r.is_completed()));
        let max_stretch = recs.iter().filter_map(|r| r.stretch()).fold(0.0, f64::max);
        assert!(
            max_stretch > 1.5,
            "sharing must slow tasks, got {max_stretch}"
        );
    }

    #[test]
    fn memory_exhaustion_fails_tasks_without_retry() {
        // One tiny server (RAM+swap = 150 MB), tasks need 100 MB each: the
        // second concurrent task must be refused.
        let mut costs = CostTable::new(1);
        costs.add_problem(
            Problem::new("big", 1.0, 1.0, 100.0),
            vec![Some(PhaseCosts::new(1.0, 50.0, 1.0))],
        );
        let servers = vec![ServerSpec::new("tiny", 300.0, 100.0, 50.0)];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::None;
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 1.0]));
        assert!(recs[0].is_completed());
        assert!(!recs[1].is_completed());
        assert_eq!(recs[1].attempts, 1);
    }

    #[test]
    fn ranked_retry_rescues_rejected_tasks() {
        // Two servers; the fast one is memory-tiny, the slow one is big.
        let mut costs = CostTable::new(2);
        costs.add_problem(
            Problem::new("big", 1.0, 1.0, 100.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 40.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast-tiny", 1000.0, 100.0, 20.0),
            ServerSpec::new("slow-big", 500.0, 2048.0, 1024.0),
        ];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::RankedRetry { max_attempts: 4 };
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 0.5]));
        assert!(recs.iter().all(|r| r.is_completed()), "{recs:?}");
        // The second task was bounced off the fast server to the slow one.
        let rescued = recs.iter().find(|r| r.attempts > 1).expect("one retry");
        assert_eq!(rescued.server, Some(ServerId(1)));
    }

    #[test]
    fn deterministic_across_runs() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::paper(HeuristicKind::Msf, 42);
        let arrivals: Vec<f64> = (0..30).map(|i| i as f64 * 2.0).collect();
        let a = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
        let b = run_experiment(cfg, costs, servers, mini_tasks(&arrivals));
        assert_eq!(a, b);
    }

    #[test]
    fn all_heuristics_run_end_to_end() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..15).map(|i| i as f64 * 1.5).collect();
        for kind in HeuristicKind::ALL {
            let cfg = ExperimentConfig::paper(kind, 5);
            let recs = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            assert_eq!(recs.len(), 15, "{kind:?}");
            assert!(
                recs.iter().all(|r| r.is_completed()),
                "{kind:?} left tasks unfinished"
            );
        }
    }

    #[test]
    fn shared_client_link_serialises_transfers() {
        // Two tasks on two different servers with long input transfers: in
        // per-server mode their inputs run in parallel (each 10 s); on a
        // shared client link they halve each other's bandwidth.
        let mut costs = CostTable::new(2);
        costs.add_problem(
            cas_platform::Problem::new("p", 1.0, 0.0, 0.0),
            vec![
                Some(PhaseCosts::new(10.0, 1.0, 0.0)),
                Some(PhaseCosts::new(10.0, 1.0, 0.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("a", 1000.0, 512.0, 512.0),
            ServerSpec::new("b", 1000.0, 512.0, 512.0),
        ];
        // MP maps the second task to the idle server, so the two inputs
        // overlap fully in time.
        let mut cfg = ExperimentConfig::ideal(cas_core::heuristics::HeuristicKind::Mp, 1);
        let tasks = mini_tasks(&[0.0, 0.0]);
        let per_server = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        cfg.shared_client_link = true;
        let shared = run_experiment(cfg, costs, servers, tasks);
        let end = |recs: &[cas_metrics::TaskRecord]| {
            recs.iter()
                .map(|r| r.finished().unwrap().as_secs())
                .fold(0.0, f64::max)
        };
        // Per-server: both inputs 0..10, compute 10..11 → last done at 11.
        assert!((end(&per_server) - 11.0).abs() < 1e-6, "{per_server:?}");
        // Shared: both transfers at half rate finish at t=20 → done at 21.
        assert!((end(&shared) - 21.0).abs() < 1e-6, "{shared:?}");
    }

    #[test]
    fn shared_client_link_full_workload_completes() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..25).map(|i| i as f64 * 1.0).collect();
        for kind in [
            cas_core::heuristics::HeuristicKind::Mct,
            cas_core::heuristics::HeuristicKind::Msf,
        ] {
            let mut cfg = ExperimentConfig::paper(kind, 3);
            cfg.shared_client_link = true;
            let recs = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            assert!(recs.iter().all(|r| r.is_completed()), "{kind:?}");
        }
    }

    /// The end-to-end acceptance property of the two-stage pipeline: a
    /// `TopK` selector wide enough to never prune is **bit-identical** to
    /// the exhaustive selector across whole experiments — same servers,
    /// same attempts, same completion dates — for every shipped
    /// heuristic, including the retry/memory/noise machinery.
    #[test]
    fn topk_full_width_matches_exhaustive_end_to_end() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..25).map(|i| i as f64 * 0.8).collect();
        for kind in HeuristicKind::ALL {
            let cfg = ExperimentConfig::paper(kind, 21);
            let base = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            let wide = cfg.with_selector(cas_core::SelectorKind::TopK { k: 64 });
            let pruned =
                run_experiment(wide, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            assert_eq!(base, pruned, "{kind:?} diverged under TopK(k >= n)");
        }
    }

    /// Aggressive pruning (k = 1, and a tight adaptive band) must still
    /// complete every task — the shortlist never goes empty while an
    /// admissible server exists.
    #[test]
    fn pruned_selectors_complete_all_tasks() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 1.2).collect();
        for selector in [
            cas_core::SelectorKind::TopK { k: 1 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 2 },
        ] {
            for kind in [HeuristicKind::Hmct, HeuristicKind::Msf, HeuristicKind::Mct] {
                let cfg = ExperimentConfig::paper(kind, 13).with_selector(selector);
                let recs =
                    run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
                assert!(
                    recs.iter().all(|r| r.is_completed()),
                    "{kind:?}/{selector:?} left tasks unfinished"
                );
            }
        }
    }

    /// Retry exclusions must stay honoured through the selector: after a
    /// refusal the excluded server cannot reappear in the shortlist, even
    /// when it is the static ranking's best.
    #[test]
    fn pruned_retry_respects_exclusions() {
        // Fast-but-tiny vs slow-but-roomy, tasks need 100 MB (as in
        // `ranked_retry_rescues_rejected_tasks`) — under TopK(1) the
        // first pick is the fast server; the retry must reach the slow
        // one rather than re-proposing the refuser.
        let mut costs = CostTable::new(2);
        costs.add_problem(
            cas_platform::Problem::new("big", 1.0, 1.0, 100.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 40.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast-tiny", 1000.0, 100.0, 20.0),
            ServerSpec::new("slow-big", 500.0, 2048.0, 1024.0),
        ];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1)
            .with_selector(cas_core::SelectorKind::TopK { k: 1 });
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::RankedRetry { max_attempts: 4 };
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 0.5]));
        assert!(recs.iter().all(|r| r.is_completed()), "{recs:?}");
        let rescued = recs.iter().find(|r| r.attempts > 1).expect("one retry");
        assert_eq!(rescued.server, Some(ServerId(1)));
    }

    /// The federation's acceptance property: `--shards 1` (the full
    /// router machinery over one shard) is **bit-identical** to the
    /// unsharded single-agent engine across whole experiments — same
    /// servers, same attempts, same completion dates — for every shipped
    /// heuristic × every selector backend, including the
    /// retry/memory/noise machinery.
    #[test]
    fn federated_single_shard_bitwise_matches_unsharded_end_to_end() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for kind in HeuristicKind::ALL {
            for selector in [
                cas_core::SelectorKind::Exhaustive,
                cas_core::SelectorKind::TopK { k: 1 },
                cas_core::SelectorKind::TopK { k: 64 },
                cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
            ] {
                let cfg = ExperimentConfig::paper(kind, 33).with_selector(selector);
                let single = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                let routed = run_experiment(
                    cfg.with_shards(Sharding::Federated { shards: 1 }),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    single, routed,
                    "{kind:?}/{selector:?} diverged under --shards 1"
                );
            }
        }
    }

    /// Under the exhaustive selector the scatter–merge–gather router is
    /// bit-identical to the single agent at any shard count: the union
    /// of per-shard every-solver loops is the every-solver loop, and
    /// every hook routes to the same model state.
    #[test]
    fn federated_exhaustive_matches_unsharded_for_any_shard_count() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        for kind in HeuristicKind::ALL {
            let cfg = ExperimentConfig::paper(kind, 9);
            let single = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
            for shards in [2, 3, 6] {
                let routed = run_experiment(
                    cfg.with_shards(Sharding::Federated { shards }),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(single, routed, "{kind:?} diverged at {shards} shards");
            }
        }
    }

    /// Pruning selectors across a real federation (each shard adapting
    /// its own width) must still complete every task, under both index
    /// scoring proxies and auto sharding.
    #[test]
    fn sharded_pruned_campaigns_complete() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        for selector in [
            cas_core::SelectorKind::TopK { k: 1 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 2 },
        ] {
            for shards in [Sharding::AUTO, Sharding::Federated { shards: 3 }] {
                for scoring in [
                    cas_platform::IndexScoring::RemainingWork,
                    cas_platform::IndexScoring::ActiveCount,
                ] {
                    let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 17)
                        .with_selector(selector)
                        .with_shards(shards)
                        .with_index_scoring(scoring);
                    let recs = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                    assert!(
                        recs.iter().all(|r| r.is_completed()),
                        "{selector:?}/{shards:?}/{scoring:?} left tasks unfinished"
                    );
                }
            }
        }
    }

    /// The fast engine's counters are live through the whole stack: a
    /// completion-only campaign (HMCT) truncates drains and resumes the
    /// shared prefix; a perturbation-reading campaign (MSF) never
    /// truncates but still shares the prefix.
    #[test]
    fn stage2_counters_are_live_end_to_end() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        let run = |kind: HeuristicKind| {
            let cfg = ExperimentConfig::paper(kind, 59);
            let world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            let mut sim = cas_sim::Simulation::new(world);
            sim.run_to_completion();
            sim.into_world().agent().stage2_stats()
        };
        let hmct = run(HeuristicKind::Hmct);
        assert!(hmct.drains > 0, "{hmct:?}");
        assert!(
            hmct.truncated > 0,
            "HMCT is completion-only; drains must truncate: {hmct:?}"
        );
        assert!(
            hmct.prefix_hits > 0,
            "repeat queries must resume the prefix: {hmct:?}"
        );
        let msf = run(HeuristicKind::Msf);
        assert_eq!(
            msf.truncated, 0,
            "MSF reads perturbations; no drain may truncate: {msf:?}"
        );
        assert!(msf.prefix_hits > 0, "{msf:?}");
    }

    /// Aggregated load reports fire O(n_shards) kernel events per period
    /// instead of O(n_servers) — and, for a heuristic that never reads
    /// the reports, change nothing else about the run.
    #[test]
    fn aggregated_reports_fire_per_shard_not_per_server() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 11)
            .with_shards(Sharding::Federated { shards: 3 });
        let run = |cfg: ExperimentConfig| {
            let world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            let mut sim = cas_sim::Simulation::new(world);
            let _ = sim.run_to_completion();
            let world = sim.into_world();
            (world.records().to_vec(), world.report_events())
        };
        let (per_server_recs, per_server_events) = run(cfg);
        let (per_shard_recs, per_shard_events) = run(cfg.with_aggregated_reports(true));
        // HMCT never reads the load reports, so the whole run is
        // bit-identical — the only difference is kernel pressure.
        assert_eq!(per_server_recs, per_shard_recs);
        assert!(per_shard_events > 0, "aggregated reports must fire");
        // 3 shards over 6 servers, same period, same staggering, same
        // horizon: half the kernel events (± the tail-of-run partials).
        assert!(
            per_shard_events * 2 <= per_server_events + 6,
            "expected ~{}/2 aggregated report events, got {per_shard_events}",
            per_server_events
        );
        assert!(
            per_shard_events * 2 + 6 >= per_server_events,
            "aggregated mode fired implausibly few events: \
             {per_shard_events} vs {per_server_events} per-server"
        );
        // A report-reading heuristic still completes every task on the
        // aggregated schedule (its decisions may legitimately differ).
        let mct = ExperimentConfig::paper(HeuristicKind::Mct, 11)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_aggregated_reports(true);
        let (recs, _) = run(mct);
        assert!(recs.iter().all(|r| r.is_completed()));
    }

    /// Retry exclusions must stay honoured through the federation: after
    /// a refusal the excluded server cannot reappear in any shard's
    /// shortlist, even when it is its shard's best.
    #[test]
    fn sharded_retry_respects_exclusions() {
        let mut costs = CostTable::new(2);
        costs.add_problem(
            cas_platform::Problem::new("big", 1.0, 1.0, 100.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 40.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast-tiny", 1000.0, 100.0, 20.0),
            ServerSpec::new("slow-big", 500.0, 2048.0, 1024.0),
        ];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1)
            .with_selector(cas_core::SelectorKind::TopK { k: 1 })
            .with_shards(Sharding::Federated { shards: 2 });
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::RankedRetry { max_attempts: 4 };
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 0.5]));
        assert!(recs.iter().all(|r| r.is_completed()), "{recs:?}");
        let rescued = recs.iter().find(|r| r.attempts > 1).expect("one retry");
        assert_eq!(rescued.server, Some(ServerId(1)));
    }

    #[test]
    fn load_reports_influence_mct() {
        // With long report periods and no corrections the MCT would dogpile
        // the fast server; the assignment correction spreads tasks.
        let (costs, servers) = mini_setup();
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Mct, 2);
        cfg.load_report_period = 1e5; // reports effectively never arrive
        let arrivals: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&arrivals));
        let on_slow = recs
            .iter()
            .filter(|r| r.server == Some(ServerId(1)))
            .count();
        assert!(
            on_slow > 0,
            "assignment-bump correction must steer some tasks to the slow server"
        );
    }

    /// Switching the churn machinery on with an infinite MTBF must be
    /// invisible: no fault process derives from the model, so every
    /// selector backend — sharded or not — produces records
    /// bit-identical to the frozen farm.
    #[test]
    fn infinite_mtbf_is_bitwise_identical_to_frozen_farm() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for selector in [
            cas_core::SelectorKind::Exhaustive,
            cas_core::SelectorKind::TopK { k: 1 },
            cas_core::SelectorKind::TopK { k: 64 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
        ] {
            for shards in [Sharding::Single, Sharding::Federated { shards: 3 }] {
                let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 41)
                    .with_selector(selector)
                    .with_shards(shards);
                let frozen = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                let churned = run_experiment(
                    cfg.with_churn(f64::INFINITY, 60.0).with_churn_seed(99),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    frozen, churned,
                    "{selector:?}/{shards:?} diverged under mtbf = inf"
                );
            }
        }
    }

    /// Crash-retraction equivalence end to end: under the exhaustive
    /// selector, a sharded federation subjected to a fault schedule
    /// produces records bit-identical to the single-agent engine under
    /// the *same* schedule — retraction, backoff re-dispatch, budget
    /// drops and online rebalancing included. The fault schedule is a
    /// function of the churn seed alone, so both runs see the same one.
    #[test]
    fn churned_federation_matches_single_agent_under_same_faults() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 9)
            .with_churn(60.0, 15.0)
            .with_churn_seed(3);
        let single = run_experiment(base, costs.clone(), servers.clone(), tasks.clone());
        for shards in [2, 3, 6] {
            let routed = run_experiment(
                base.with_shards(Sharding::Federated { shards }),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
            );
            assert_eq!(single, routed, "diverged at {shards} shards under churn");
        }
    }

    /// A harsh fault schedule must leave no task unaccounted: every
    /// record ends terminal, the completed/dropped/failed partition
    /// sums to the campaign size, and the lifecycle counters agree
    /// with the records.
    #[test]
    fn churn_campaign_accounts_for_every_task() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(40);
        let n_tasks = tasks.len() as u64;
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 23)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(40.0, 20.0)
            .with_churn_seed(7);
        let world = GridWorld::new(cfg, costs, servers, tasks);
        let mut sim = cas_sim::Simulation::new(world);
        let _ = sim.run_to_completion();
        let world = sim.into_world();
        let stats = world.churn_stats();
        assert!(stats.crashes > 0, "schedule must crash servers: {stats:?}");
        let (mut completed, mut dropped, mut failed) = (0u64, 0u64, 0u64);
        for r in world.records() {
            match r.outcome {
                TaskOutcome::Completed { .. } => completed += 1,
                TaskOutcome::Dropped { .. } => dropped += 1,
                TaskOutcome::Failed => failed += 1,
                TaskOutcome::InFlight => panic!("task {:?} left in flight", r.task),
            }
        }
        assert_eq!(completed + dropped + failed, n_tasks);
        assert_eq!(dropped, stats.drops, "every drop carries a reason code");
        // Every retraction either re-dispatched or consumed the budget;
        // the requeue path may add re-dispatches of its own on top.
        assert!(
            stats.redispatches + stats.drops >= stats.retractions,
            "unaccounted retraction: {stats:?}"
        );
    }

    /// When repairs lag far behind failures, whole blocks go dark and
    /// the live-server count leaves the size band: the router must
    /// re-partition online — and the campaign must still account for
    /// every task afterwards.
    #[test]
    fn churn_triggers_online_rebalance() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(40);
        let n_tasks = tasks.len() as u64;
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 5)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(30.0, 90.0)
            .with_churn_seed(11);
        let world = GridWorld::new(cfg, costs, servers, tasks);
        let mut sim = cas_sim::Simulation::new(world);
        let _ = sim.run_to_completion();
        let world = sim.into_world();
        let stats = world.churn_stats();
        assert!(
            stats.rebalances > 0,
            "long repairs must empty a block and trigger a merge: {stats:?}"
        );
        let terminal = world
            .records()
            .iter()
            .filter(|r| !matches!(r.outcome, TaskOutcome::InFlight))
            .count() as u64;
        assert_eq!(terminal, n_tasks);
    }

    /// Once the last task is terminal the fault schedule has nothing
    /// left to act on: the crashes and joins still pending in the queue
    /// fire, but move neither the churn counters nor the live set.
    #[test]
    fn faults_stop_when_the_campaign_ends() {
        let (costs, servers) = six_setup();
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 5)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(30.0, 90.0)
            .with_churn_seed(11);
        let world = GridWorld::new(cfg, costs, servers, six_tasks(40));
        let mut sim = cas_sim::Simulation::new(world);
        while sim.world().remaining() > 0 {
            assert!(sim.step(), "the queue drained before the campaign ended");
        }
        let (stats, live) = (sim.world().churn_stats(), sim.world().live_servers());
        assert!(
            stats.crashes > 0,
            "the schedule must crash servers: {stats:?}"
        );
        let at_end = sim.processed();
        let _ = sim.run_to_completion();
        assert!(
            sim.processed() > at_end,
            "fault events must still be pending"
        );
        assert_eq!(sim.world().churn_stats(), stats);
        assert_eq!(sim.world().live_servers(), live);
    }

    /// Provisioning under churn across a real federation: servers join
    /// the last block one by one until it splits, and crashes with long
    /// repairs merge blocks, so rebalances rebuild blocks that hold
    /// provisioned servers with work on them. Under the exhaustive
    /// selector the records stay bit-identical to the single agent's.
    #[test]
    fn provisioned_churn_campaign_rebalances_and_matches_single_agent() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(40);
        let provisions: Vec<Provision> = (0..5)
            .map(|i| Provision {
                at: t(2.0 + 3.0 * i as f64),
                spec: ServerSpec::new(format!("joiner{i}"), 1000.0, 1024.0, 1024.0),
                column: vec![
                    Some(PhaseCosts::new(0.4, 6.0 + i as f64, 0.4)),
                    Some(PhaseCosts::new(0.2, 8.0 + i as f64, 0.2)),
                ],
            })
            .collect();
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 13)
            .with_churn(30.0, 90.0)
            .with_churn_seed(11);
        let single = run_with_provisions(
            base,
            costs.clone(),
            servers.clone(),
            tasks.clone(),
            provisions.clone(),
        );
        let routed = run_with_provisions(
            base.with_shards(Sharding::Federated { shards: 3 }),
            costs,
            servers,
            tasks,
            provisions,
        );
        let stats = routed.churn_stats();
        assert_eq!(stats.provisions, 5);
        assert!(stats.rebalances > 0, "{stats:?}");
        assert!(
            routed
                .records()
                .iter()
                .any(|r| r.server.is_some_and(|s| s.0 >= 6)),
            "provisioned servers must take work"
        );
        assert_eq!(single.records(), routed.records());
    }

    /// `run_experiment` with a provision schedule attached (the public
    /// helper takes none, to keep the common call sites lean).
    fn run_with_provisions(
        cfg: ExperimentConfig,
        costs: CostTable,
        servers: Vec<ServerSpec>,
        tasks: Vec<TaskInstance>,
        provisions: Vec<Provision>,
    ) -> GridWorld {
        let world = GridWorld::new(cfg, costs, servers, tasks).with_provisions(provisions);
        let mut sim = cas_sim::Simulation::new(world);
        let outcome = sim.run_to_completion();
        assert_eq!(outcome, cas_sim::engine::RunOutcome::Exhausted);
        let mut world = sim.into_world();
        assert_eq!(
            world.remaining(),
            0,
            "all tasks must reach a terminal state"
        );
        let simulated = world.agent.simulated_completions();
        for rec in &mut world.records {
            rec.predicted_completion = simulated.get(&rec.task).copied();
        }
        world
    }

    /// A server provisioned mid-campaign becomes eligible immediately:
    /// it wins decisions made after its admission (it is the cheapest
    /// machine on the farm) and never appears in decisions made before.
    #[test]
    fn provisioned_server_joins_mid_campaign_and_takes_work() {
        let (costs, servers) = mini_setup();
        let tasks = mini_tasks(&[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0]);
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        let world = run_with_provisions(
            cfg,
            costs,
            servers,
            tasks,
            vec![Provision {
                at: t(5.0),
                spec: ServerSpec::new("joiner", 1000.0, 1024.0, 1024.0),
                column: vec![Some(PhaseCosts::new(1.0, 5.0, 1.0))],
            }],
        );
        assert_eq!(world.churn_stats().provisions, 1);
        assert_eq!(world.live_servers(), 3);
        let joiner = ServerId(2);
        let on_joiner: Vec<_> = world
            .records()
            .iter()
            .filter(|r| r.server == Some(joiner))
            .collect();
        assert!(
            !on_joiner.is_empty(),
            "the cheapest machine must win post-admission decisions"
        );
        assert!(
            on_joiner.iter().all(|r| r.arrival >= t(5.0)),
            "no task decided before admission may land on the newcomer"
        );
        assert!(world.records().iter().all(|r| r.is_completed()));
    }

    /// Provision-equivalence end to end: under the exhaustive selector a
    /// sharded federation given a provision schedule produces records
    /// bit-identical to the single-agent engine given the same schedule —
    /// the incremental shard join must be invisible to the decisions.
    #[test]
    fn provisioned_campaign_sharded_matches_single_agent() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let provisions = vec![Provision {
            at: t(3.0),
            spec: ServerSpec::new("joiner", 1000.0, 1024.0, 1024.0),
            column: vec![
                Some(PhaseCosts::new(0.4, 6.0, 0.4)),
                Some(PhaseCosts::new(0.2, 8.0, 0.2)),
            ],
        }];
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 13);
        let single = run_with_provisions(
            base,
            costs.clone(),
            servers.clone(),
            tasks.clone(),
            provisions.clone(),
        );
        assert_eq!(single.churn_stats().provisions, 1);
        assert!(
            single
                .records()
                .iter()
                .any(|r| r.server == Some(ServerId(6))),
            "the provisioned server must actually receive work"
        );
        for shards in [2, 3, 6] {
            let routed = run_with_provisions(
                base.with_shards(Sharding::Federated { shards }),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
                provisions.clone(),
            );
            assert_eq!(
                single.records(),
                routed.records(),
                "provision diverged at {shards} shards"
            );
        }
    }

    /// A farm big enough for `--shards auto` to produce a real federation
    /// (1300 servers → 3 shards under the 640-servers-per-shard target).
    fn farm_setup(n: usize) -> (CostTable, Vec<ServerSpec>) {
        let mut costs = CostTable::new(n);
        costs.add_problem(
            Problem::new("p0", 1.0, 0.5, 0.0),
            (0..n)
                .map(|s| Some(PhaseCosts::new(0.5, 6.0 + (s % 37) as f64, 0.5)))
                .collect(),
        );
        costs.add_problem(
            Problem::new("p1", 1.0, 0.5, 0.0),
            (0..n)
                .map(|s| (s % 3 == 0).then(|| PhaseCosts::new(0.3, 15.0 + (s % 23) as f64, 0.3)))
                .collect(),
        );
        let servers = (0..n)
            .map(|s| {
                ServerSpec::new(
                    format!("s{s}"),
                    400.0 + (s % 100) as f64 * 10.0,
                    1024.0,
                    1024.0,
                )
            })
            .collect();
        (costs, servers)
    }

    /// The group-walk acceptance property end to end: on a farm where
    /// `auto` resolves to a real federation, campaigns run with the
    /// two-level tree active (`auto:1`, `auto:2`) are record-identical
    /// to the flat lazy walk (default fan-out puts all 3 shards in one
    /// group) — the tree may only prune group visits, never decisions.
    #[test]
    fn grouped_auto_campaigns_bitwise_match_flat_walk() {
        let (costs, servers) = farm_setup(1300);
        let tasks = six_tasks(40);
        for selector in [
            cas_core::SelectorKind::TopK { k: 2 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
        ] {
            let base = ExperimentConfig::paper(HeuristicKind::Hmct, 31).with_selector(selector);
            let flat = run_experiment(
                base.with_shards(Sharding::AUTO),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
            );
            for group_size in [1, 2] {
                let grouped = run_experiment(
                    base.with_shards(Sharding::Auto {
                        group_size: Some(group_size),
                    }),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    flat, grouped,
                    "{selector:?} diverged between flat walk and auto:{group_size}"
                );
            }
        }
    }

    /// The `auto:GROUPSIZE` override reaches the router: fan-out 1 on a
    /// 3-shard farm yields 3 singleton groups, the campaign's decisions
    /// drive the group-level walk (both counters live), and the per-level
    /// accounting invariant holds.
    #[test]
    fn auto_group_size_override_drives_group_walk() {
        let (costs, servers) = farm_setup(1300);
        let tasks = six_tasks(40);
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 31)
            .with_selector(cas_core::SelectorKind::TopK { k: 2 })
            .with_shards(Sharding::Auto {
                group_size: Some(1),
            });
        let world = GridWorld::new(cfg, costs, servers, tasks);
        assert_eq!(world.agent().tree().n_groups(), 3);
        let mut sim = cas_sim::Simulation::new(world);
        let _ = sim.run_to_completion();
        let world = sim.into_world();
        let stats = world.agent().skyline_stats();
        assert!(stats.decisions > 0);
        assert!(stats.group_visits > 0, "group walk never ran: {stats:?}");
        assert_eq!(
            stats.group_visits + stats.group_skips,
            stats.decisions * 3,
            "every decision must account for every group: {stats:?}"
        );
        assert!(world.records().iter().all(|r| r.is_completed()));
    }

    /// Runs a world with user classes attached and returns it.
    fn run_with_users(
        cfg: ExperimentConfig,
        costs: CostTable,
        servers: Vec<ServerSpec>,
        tasks: Vec<TaskInstance>,
        users: Vec<u32>,
    ) -> GridWorld {
        let world = GridWorld::new(cfg, costs, servers, tasks).with_users(users);
        let mut sim = cas_sim::Simulation::new(world);
        let outcome = sim.run_to_completion();
        assert_eq!(outcome, cas_sim::engine::RunOutcome::Exhausted);
        let world = sim.into_world();
        assert_eq!(world.remaining(), 0, "every task must end terminal");
        world
    }

    /// An uncontended admission gate (capacity ≥ campaign size) must be
    /// bitwise invisible: every submission admits instantly, so the
    /// event sequence — and therefore every record — matches the
    /// disabled gate across selectors and sharding modes.
    #[test]
    fn uncontended_admission_is_bitwise_invisible() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for selector in [
            cas_core::SelectorKind::Exhaustive,
            cas_core::SelectorKind::TopK { k: 2 },
        ] {
            for shards in [Sharding::Single, Sharding::Federated { shards: 3 }] {
                let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 41)
                    .with_selector(selector)
                    .with_shards(shards);
                let off = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                let on = run_experiment(
                    cfg.with_admission(10_000, 16, 60.0),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    off, on,
                    "{selector:?}/{shards:?} diverged under an idle gate"
                );
            }
        }
    }

    /// Crest overload against a tight gate: a burst far beyond capacity
    /// must shed — every shed carries `AdmissionDeadline` — while the
    /// terminal accounting stays exact and the counters balance
    /// (entries = exits, peaks bounded by the knobs).
    #[test]
    fn admission_crest_overload_sheds_and_accounts() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
        let tasks = mini_tasks(&arrivals);
        let n = tasks.len();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1).with_admission(1, 2, 5.0);
        let world = run_with_users(cfg, costs, servers, tasks, vec![0; n]);
        let adm = world.admission_stats();
        let (mut completed, mut shed) = (0usize, 0usize);
        for r in world.records() {
            match r.outcome {
                TaskOutcome::Completed { .. } => completed += 1,
                TaskOutcome::Dropped {
                    reason: DropReason::AdmissionDeadline,
                } => shed += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(completed + shed, n);
        assert!(shed > 0, "a 0.5 s burst must overwhelm capacity 1");
        assert_eq!(shed as u64, adm.shed_deadline + adm.shed_overflow);
        assert!(adm.shed_deadline > 0, "5 s deadlines must expire");
        assert!(adm.shed_overflow > 0, "a 2-slot buffer must overflow");
        assert_eq!(adm.buffered, adm.dequeued + adm.shed_deadline);
        assert_eq!(adm.peak_admitted, 1);
        assert!(adm.peak_buffered <= 2);
        // The SLO surface is live: one class, a real drop rate, real
        // buffered time, and stretch percentiles from the completions.
        let slo =
            cas_metrics::per_class_slo(world.records(), world.users(), world.admission_waits());
        assert_eq!(slo.len(), 1);
        assert_eq!(slo[0].tasks, n);
        assert!(slo[0].drop_rate_pct > 0.0);
        assert!(slo[0].mean_buffered_s > 0.0);
        assert!(slo[0].p50_stretch.is_some() && slo[0].p99_stretch.is_some());
    }

    /// The fair dequeue is round-robin across user classes: a class
    /// that floods the buffer cannot starve a later, smaller class —
    /// the small class's tasks overtake the flood's tail.
    #[test]
    fn admission_fair_dequeue_serves_classes_round_robin() {
        let (costs, servers) = mini_setup();
        // Class 0 floods four tasks at t = 0; class 1 submits two just
        // after. Capacity 1 serialises everything through the buffer.
        let tasks = mini_tasks(&[0.0, 0.0, 0.0, 0.0, 0.01, 0.01]);
        let users = vec![0, 0, 0, 0, 1, 1];
        let cfg =
            ExperimentConfig::ideal(HeuristicKind::Hmct, 1).with_admission(1, 8, f64::INFINITY);
        let world = run_with_users(cfg, costs, servers, tasks, users);
        assert!(world.records().iter().all(|r| r.is_completed()));
        let finished = |i: usize| world.records()[i].finished().expect("completed");
        // Round-robin: class 1's last task beats class 0's last; a
        // global FIFO would drain the flood first.
        assert!(
            finished(5) < finished(3),
            "class 1 starved: {:?} vs {:?}",
            finished(5),
            finished(3)
        );
        let adm = world.admission_stats();
        assert_eq!(adm.buffered, adm.dequeued);
        assert_eq!(adm.shed_deadline + adm.shed_overflow, 0);
    }

    /// The gate sits above the shard router, so backpressure must not
    /// perturb the federation equivalence: same records, sharded or
    /// not, under a contended gate.
    #[test]
    fn admission_sharded_matches_single() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 9).with_admission(2, 4, 8.0);
        let single = run_experiment(base, costs.clone(), servers.clone(), tasks.clone());
        assert!(
            single.iter().any(|r| matches!(
                r.outcome,
                TaskOutcome::Dropped {
                    reason: DropReason::AdmissionDeadline
                }
            )),
            "the gate must actually bind for this to test anything"
        );
        for shards in [2, 3, 6] {
            let routed = run_experiment(
                base.with_shards(Sharding::Federated { shards }),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
            );
            assert_eq!(single, routed, "diverged at {shards} shards under the gate");
        }
    }

    /// Churn × backpressure: crash-retracted tasks re-enter through the
    /// bounded buffer — each retraction counted exactly once in
    /// `ChurnStats::redispatches` (the dequeue adds nothing) — and the
    /// terminal accounting of a saturated gate under a harsh fault
    /// schedule stays exact, with churn drops and admission sheds
    /// partitioning the dropped records by reason.
    #[test]
    fn churn_with_backpressure_accounts_and_reenters_once() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(40);
        let n_tasks = tasks.len() as u64;
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 23)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(40.0, 20.0)
            .with_churn_seed(7)
            .with_admission(3, 4, 30.0);
        let world = run_with_users(cfg, costs, servers, tasks, vec![0; 40]);
        let stats = world.churn_stats();
        let adm = world.admission_stats();
        assert!(stats.crashes > 0, "schedule must crash servers: {stats:?}");
        assert!(
            stats.retractions > 0,
            "crashes must retract work: {stats:?}"
        );
        assert!(adm.buffered > 0, "the gate must saturate: {adm:?}");
        let (mut completed, mut churn_drops, mut admission_sheds, mut budget_drops, mut failed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for r in world.records() {
            match r.outcome {
                TaskOutcome::Completed { .. } => completed += 1,
                TaskOutcome::Dropped {
                    reason: DropReason::AdmissionDeadline,
                } => admission_sheds += 1,
                TaskOutcome::Dropped {
                    reason: DropReason::RedispatchBudget,
                } => {
                    churn_drops += 1;
                    budget_drops += 1;
                }
                TaskOutcome::Dropped { .. } => churn_drops += 1,
                TaskOutcome::Failed => failed += 1,
                TaskOutcome::InFlight => panic!("task {:?} left in flight", r.task),
            }
        }
        assert_eq!(completed + churn_drops + admission_sheds + failed, n_tasks);
        assert_eq!(churn_drops, stats.drops, "churn drops carry churn reasons");
        assert_eq!(admission_sheds, adm.shed_deadline + adm.shed_overflow);
        // Every retraction re-entered the buffer exactly once or spent
        // its budget — nothing double-counted, nothing lost.
        assert_eq!(
            adm.reentries + budget_drops,
            stats.retractions,
            "retraction↔re-entry bijection broke: {stats:?} {adm:?}"
        );
        assert!(
            stats.redispatches >= adm.reentries,
            "each re-entry was counted once as a redispatch"
        );
        assert_eq!(adm.buffered, adm.dequeued + adm.shed_deadline);
    }
}
