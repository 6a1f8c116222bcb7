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
//! The world schedules through the kernel's `Scheduler`, and
//! [`run_experiment`] drives it on the kernel's one event queue.
//! Arrivals stream through the kernel as a **Submit chain**: `init`
//! reserves one sequence number per task before it pushes anything else
//! and queues only task 0's `Submit`, and each `Submit` first queues its
//! successor's at the successor's arrival, under the successor's
//! reserved number. Every event therefore carries the sequence number an
//! up-front push of all the submits would have given it (the submits
//! 0..n, everything else from n on), so the pop order, same-instant ties
//! included, is that of pushing them all at `init`, while the queue
//! holds one pending arrival instead of one per task. The task list must
//! be sorted by arrival (`GridWorld::new` asserts it), which puts each
//! successor at or after the instant that queues it. Per-task hot state
//! avoids hashing entirely: task ids are dense submission indices, so
//! records and in-flight state are columns indexed by task id.
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
    AdmitOutcome, CostTable, LoadAverage, LoadReport, Phase, PhaseCosts, ServerId, ServerRuntime,
    ServerSpec, TaskId, TaskInstance,
};
use cas_sim::dist::{LogNormalNoise, Sample};
use cas_sim::{prof, RngStream, Scheduler, SimTime, Simulation, StreamKind, World};
use cas_workload::ChurnProcess;
use std::collections::VecDeque;

/// Tolerance when matching a completion event's time against the
/// resource's recomputed completion time.
const COMPLETION_EPS: f64 = 1e-6;

/// Delay before a task re-enters the decision pipeline after a crash
/// retraction (gate off) or after finding no live solver, seconds: a
/// client would not observe the failure and resubmit instantaneously.
const REDISPATCH_BACKOFF_S: f64 = 1.0;

/// The outcome of a task the admission gate sheds, at its deadline or
/// on a full buffer.
const SHED: TaskOutcome = TaskOutcome::Dropped {
    reason: DropReason::AdmissionDeadline,
};

/// What a completion check of generation `gen` on `res` finds at `now`:
/// nothing when it is stale or `res` is idle, else the task that is
/// done, or (`Err`) the true completion time of a check that fired
/// early in the same instant, to re-arm at.
fn due(
    res: &cas_platform::FairShareResource<TaskId>,
    gen: cas_sim::Generation,
    now: SimTime,
) -> Option<Result<TaskId, SimTime>> {
    if !res.generation().is_current(gen) {
        return None;
    }
    let (task, when) = res.next_completion(now)?;
    Some(if when.as_secs() > now.as_secs() + COMPLETION_EPS {
        Err(when)
    } else {
        Ok(task)
    })
}

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
    /// The kernel sequence number reserved on entry, under which the
    /// entry's deadline event pops if its class arms it.
    seq: u64,
}

/// One user class behind the gate: its FIFO queue and its deadline
/// chain.
#[derive(Default)]
struct ClassQueue {
    class: u32,
    queue: VecDeque<BufferedTask>,
    /// The sequence number of the class's pending `AdmissionTimeout`
    /// (its head's when armed), or `None` when none is pending.
    armed: Option<u64>,
}

impl ClassQueue {
    /// Arms the chain at the head's deadline, under the head's reserved
    /// number (`timeout` builds the event); no-op when the queue is
    /// empty.
    fn arm<E>(
        &mut self,
        deadline: SimTime,
        sched: &mut Scheduler<'_, E>,
        timeout: impl FnOnce(u32) -> E,
    ) {
        if let Some(head) = self.queue.front() {
            self.armed = Some(head.seq);
            sched.push_reserved(head.enqueued + deadline, head.seq, timeout(self.class));
        }
    }
}

/// The bounded admission buffer: per-user-class FIFO queues drained
/// round-robin (so one flooding class cannot starve the others), a
/// concurrency gate of `capacity` tasks, and a deadline after which a
/// buffered task is shed with [`DropReason::AdmissionDeadline`]. Built
/// at `init` when `ExperimentConfig::admission_capacity > 0`; `None`
/// otherwise, in which case submissions take the exact pre-backpressure
/// path.
///
/// Deadlines run as one chain per class. A class queue is FIFO under
/// one constant deadline, so only its head can expire next: a non-empty
/// class has exactly one pending `AdmissionTimeout`, armed at its head's
/// deadline. Every entry reserves a kernel sequence number as it joins
/// the queue and the chain pops under the head's, so it fires exactly
/// where an event pushed per entry would have, same-instant ties
/// included. A firing sheds the head it was armed for if that head still
/// waits, then re-arms at the current head's deadline; a head dequeued
/// before its deadline leaves the chain armed until that firing.
struct AdmissionState {
    capacity: usize,
    buffer_cap: usize,
    /// How long an entry may wait; `None` waits forever.
    deadline: Option<SimTime>,
    in_admission: usize,
    buffered_total: usize,
    /// Per-class queues, sorted by class id so iteration order is
    /// deterministic in the workload alone.
    queues: Vec<ClassQueue>,
    /// Round-robin cursor of the fair dequeue: index into `queues` of
    /// the class to serve next.
    rr: usize,
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
            deadline: cfg
                .admission_deadline
                .is_finite()
                .then(|| SimTime::from_secs(cfg.admission_deadline)),
            in_admission: 0,
            buffered_total: 0,
            queues: classes
                .into_iter()
                .map(|class| ClassQueue {
                    class,
                    ..ClassQueue::default()
                })
                .collect(),
            rr: 0,
            waits: vec![0.0; users.len()],
            stats: AdmissionStats::default(),
        }
    }

    fn class_mut(&mut self, class: u32) -> &mut ClassQueue {
        let i = self
            .queues
            .binary_search_by_key(&class, |q| q.class)
            .expect("every task's class is registered");
        &mut self.queues[i]
    }

    /// Takes an admission slot if one is free.
    fn take_slot(&mut self) -> bool {
        if self.in_admission >= self.capacity {
            return false;
        }
        self.in_admission += 1;
        self.stats.peak_admitted = self.stats.peak_admitted.max(self.in_admission);
        true
    }

    /// Queues task `idx` of `class` now, with the Schedule arguments to
    /// replay on dequeue. With a deadline, the entry reserves the
    /// sequence number its deadline event pops under, and arms the
    /// class's chain if none is pending (`timeout` builds the event).
    fn enqueue<E>(
        &mut self,
        class: u32,
        idx: usize,
        attempt: u32,
        excluded: Vec<ServerId>,
        sched: &mut Scheduler<'_, E>,
        timeout: impl FnOnce(u32) -> E,
    ) {
        self.buffered_total += 1;
        self.stats.buffered += 1;
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered_total);
        let deadline = self.deadline;
        let seq = if deadline.is_some() {
            sched.reserve(1)
        } else {
            0
        };
        let q = self.class_mut(class);
        q.queue.push_back(BufferedTask {
            idx,
            attempt,
            excluded,
            enqueued: sched.now(),
            seq,
        });
        if let Some(deadline) = deadline.filter(|_| q.armed.is_none()) {
            q.arm(deadline, sched, timeout);
        }
    }

    /// Fair dequeue into a free slot: the oldest waiting task of the
    /// next non-empty class, round-robin starting after the class
    /// served last. `None` when nothing waits or no slot is free.
    fn admit_next(&mut self, now: SimTime) -> Option<BufferedTask> {
        if self.buffered_total == 0 || !self.take_slot() {
            return None;
        }
        let n = self.queues.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if let Some(entry) = self.queues[i].queue.pop_front() {
                self.rr = (i + 1) % n;
                self.buffered_total -= 1;
                self.waits[entry.idx] += now.as_secs() - entry.enqueued.as_secs();
                self.stats.dequeued += 1;
                return Some(entry);
            }
        }
        unreachable!("a buffered task waits in some class queue")
    }

    /// `class`'s deadline event fired: sheds the head it was armed for
    /// if that head still waits, returning its task, and re-arms at the
    /// current head's deadline (`timeout` builds the event).
    fn expire<E>(
        &mut self,
        class: u32,
        sched: &mut Scheduler<'_, E>,
        timeout: impl FnOnce(u32) -> E,
    ) -> Option<usize> {
        let deadline = self.deadline.expect("deadline events need a deadline");
        let q = self.class_mut(class);
        let armed = q.armed.take().expect("a firing class is armed");
        let shed = match q.queue.front() {
            Some(head) if head.seq == armed => q.queue.pop_front(),
            _ => None,
        };
        q.arm(deadline, sched, timeout);
        let entry = shed?;
        self.buffered_total -= 1;
        self.waits[entry.idx] += sched.now().as_secs() - entry.enqueued.as_secs();
        self.stats.shed_deadline += 1;
        Some(entry.idx)
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

/// A task in flight on a server. Its phase costs are read back from the
/// cost table ([`GridWorld::placed_costs`]).
#[derive(Debug, Clone, Copy)]
struct Flight {
    server: ServerId,
    /// Which phase the task is currently in (needed to interpret shared
    /// client-link completions, which carry no phase information).
    phase: Phase,
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
    /// In-flight per-task state, indexed by task id like `records`
    /// (task ids are dense submission indices); `None` while the task is
    /// not placed.
    flights: Vec<Option<Flight>>,
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
    /// The first of the sequence numbers `init` reserves for the Submit
    /// chain: task `idx`'s `Submit` is queued under `submit_base + idx`.
    submit_base: u64,
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
        let mut agent = AgentRouter::new(&costs, cfg.shards.resolve(n), cfg.selector, cfg.sync)
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
            flights: vec![None; tasks.len()],
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
            submit_base: 0,
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

    fn resource(
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

    /// Applies `change` (a transfer starting or withdrawn, a capacity
    /// redraw) to the link `server`'s `phase` transfers run on — the
    /// shared client link when `cfg.shared_client_link` is on, else the
    /// server's own — and re-arms that link's completion event.
    fn on_link(
        &mut self,
        server: ServerId,
        phase: Phase,
        sched: &mut Scheduler<'_, GridEvent>,
        change: impl FnOnce(&mut cas_platform::FairShareResource<TaskId>),
    ) {
        match &mut self.client_link {
            Some(link) => {
                change(link);
                let now = sched.now();
                if let Some((_, when)) = link.next_completion(now) {
                    let gen = link.generation();
                    sched.at(when.max(now), GridEvent::ClientLinkDone { gen });
                }
            }
            None => {
                change(self.resource(server, phase));
                self.resched(server, phase, sched);
            }
        }
    }

    /// The in-flight record of `task`.
    fn flight(&self, task: TaskId) -> Flight {
        self.flights[task.index()].expect("flight exists")
    }

    fn flight_mut(&mut self, task: TaskId) -> &mut Flight {
        self.flights[task.index()].as_mut().expect("flight exists")
    }

    /// The phase costs of `task` on the server it was placed on. A placed
    /// server's cost column never changes (`CostTable::push_server` only
    /// appends a column), so these are the costs the commit charged:
    /// `total()` is the work the index ledger must be paid back.
    fn placed_costs(&self, task: TaskId, server: ServerId) -> PhaseCosts {
        self.costs
            .costs(self.tasks[task.index()].problem, server)
            .expect("a placed task's server solves its problem")
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
        if let Some(flight) = self.flights[task.index()].take() {
            self.forget_inflight(flight.server, task);
            let work = self.placed_costs(task, flight.server).total();
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
                work,
                observed_flow,
                predicted_flow,
            );
        }
        self.finish(
            now,
            task.index(),
            TaskOutcome::Completed { finished: now },
            sched,
        );
    }

    /// Integrates the load monitor up to `now` with the run-queue length
    /// that held since the last touch. Must be called *before* changing the
    /// CPU membership.
    fn touch_monitor(&mut self, server: ServerId, now: SimTime) {
        let len = self.servers[server.index()].run_queue_len();
        self.monitors[server.index()].observe(now, len);
    }

    /// Writes the simulated completions the HTM handed out since the
    /// last call into the records (Table 1's "simulated completion date"
    /// column); [`GridWorld::handle`] calls it once per event. A
    /// re-placed task's later completion overwrites its earlier one.
    fn record_completions(&mut self) {
        let records = &mut self.records;
        self.agent.take_completions(|task, when| {
            records[task.index()].predicted_completion = Some(when);
        });
    }

    /// Fills in the simulated completion of every task still active in
    /// an HTM trace: the HTM hands out only tasks that left their trace.
    fn record_active_completions(&mut self) {
        let htm = self.agent.htm();
        for s in 0..self.servers.len() as u32 {
            let server = ServerId(s);
            if htm.active_on(server) == 0 {
                continue;
            }
            for (task, when) in htm.completions_on(server) {
                self.records[task.index()].predicted_completion = Some(when);
            }
        }
    }

    /// Drops `task` from `server`'s in-flight list (order-preserving, so
    /// a crash retracts oldest placements first).
    fn forget_inflight(&mut self, server: ServerId, task: TaskId) {
        let list = &mut self.inflight[server.index()];
        if let Some(pos) = list.iter().position(|&t| t == task) {
            list.remove(pos);
        }
    }

    /// Ends task `idx` with `outcome`: the record's outcome, one task
    /// fewer remaining and, unless the gate shed it (a shed task holds
    /// no admission slot), its slot freed for the tasks waiting behind
    /// the gate.
    fn finish(
        &mut self,
        now: SimTime,
        idx: usize,
        outcome: TaskOutcome,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        self.records[idx].outcome = outcome;
        self.remaining -= 1;
        if outcome != SHED {
            self.release_admission(now, sched);
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
        let rec = &mut self.records[idx];
        rec.attempts = attempts;
        rec.server = last_server;
        self.finish(now, idx, TaskOutcome::Failed, sched);
    }

    /// A submission reaches the agent: straight into the decision
    /// pipeline when the admission gate is off (bit-identical to the
    /// pre-backpressure build) or has a free slot, into the gate's
    /// buffer otherwise. First it queues the next task's `Submit`, the
    /// next link of the chain `init` starts.
    fn handle_submit(&mut self, now: SimTime, idx: usize, sched: &mut Scheduler<'_, GridEvent>) {
        if let Some(next) = self.tasks.get(idx + 1) {
            sched.push_reserved(
                next.arrival,
                self.submit_base + idx as u64 + 1,
                GridEvent::Submit { idx: idx + 1 },
            );
        }
        if self
            .admission
            .as_mut()
            .is_none_or(AdmissionState::take_slot)
        {
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

    /// Buffers a task behind the full gate, arming its class's deadline
    /// chain if no deadline is pending there, or sheds it at once when
    /// the buffer itself is full.
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
            self.finish(now, idx, SHED, sched);
            return;
        }
        let class = self.users[idx];
        adm.enqueue(class, idx, attempt, excluded, sched, |class| {
            GridEvent::AdmissionTimeout { class }
        });
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
        while let Some(entry) = adm.admit_next(now) {
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

    /// `class`'s deadline chain fired: shed the head it was armed for if
    /// that head still waits, and re-arm at the current head's deadline.
    fn handle_admission_timeout(
        &mut self,
        now: SimTime,
        class: u32,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let adm = self
            .admission
            .as_mut()
            .expect("deadline events exist only behind the gate");
        let shed = adm.expire(class, sched, |class| GridEvent::AdmissionTimeout { class });
        if let Some(idx) = shed {
            self.finish(now, idx, SHED, sched);
        }
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
            if self.churn.is_none() {
                self.fail_task(idx, attempt, excluded.last().copied(), now, sched);
            } else {
                // Under churn "nobody can take it" is usually transient
                // — the solvers are down, not gone. Retry with a clean
                // exclusion set: a rejoined server is a fresh candidate.
                self.redispatch(now, idx, attempt, None, DropReason::NoLiveSolver, sched);
            }
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
                let rec = &mut self.records[idx];
                rec.server = Some(server);
                rec.unloaded_duration = phase_costs.total();
                rec.commit_prediction = predicted;
                rec.attempts = attempt;
                self.flights[task.id.index()] = Some(Flight {
                    server,
                    phase: Phase::Input,
                });
                self.inflight[server.index()].push(task.id);
                self.on_link(server, Phase::Input, sched, |link| {
                    link.add(now, task.id, phase_costs.input)
                });
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
        let task = match due(self.resource(server, phase), gen, now) {
            None => return,
            Some(Err(when)) => {
                sched.at(when, GridEvent::PhaseDone { server, phase, gen });
                return;
            }
            Some(Ok(task)) => task,
        };
        debug_assert_eq!(self.flight(task).server, server);
        if phase != Phase::Compute {
            self.transfer_done(now, task, sched);
            return;
        }
        self.touch_monitor(server, now);
        self.servers[server.index()].finish_compute(now, task);
        // Correction 2: the server notifies the agent of the completed
        // computation.
        self.reports[server.index()].note_completion();
        self.flight_mut(task).phase = Phase::Output;
        let output = self.placed_costs(task, server).output;
        self.resched(server, Phase::Compute, sched);
        self.on_link(server, Phase::Output, sched, |link| {
            link.add(now, task, output)
        });
    }

    /// Shared-link transfer completion.
    fn handle_client_link_done(
        &mut self,
        now: SimTime,
        gen: cas_sim::Generation,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let link = self.client_link.as_ref().expect("shared link enabled");
        match due(link, gen, now) {
            None => {}
            Some(Err(when)) => {
                sched.at(when, GridEvent::ClientLinkDone { gen });
            }
            Some(Ok(task)) => self.transfer_done(now, task, sched),
        }
    }

    /// `task`'s current transfer finished: it leaves its link, and its
    /// input moves on to the CPU or its output completes the task.
    fn transfer_done(&mut self, now: SimTime, task: TaskId, sched: &mut Scheduler<'_, GridEvent>) {
        let Flight { server, phase } = self.flight(task);
        self.on_link(server, phase, sched, |link| {
            link.remove(now, task);
        });
        match phase {
            Phase::Input => {
                self.flight_mut(task).phase = Phase::Compute;
                let compute = self.placed_costs(task, server).compute;
                self.touch_monitor(server, now);
                self.servers[server.index()].begin_compute(now, task, compute);
                self.resched(server, Phase::Compute, sched);
            }
            Phase::Output => self.output_arrived(now, task, sched),
            Phase::Compute => unreachable!("compute is not a transfer"),
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
                self.on_link(server, Phase::Input, sched, |link| {
                    link.set_capacity(now, factor)
                });
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
        let Some(flight) = self.flights[task.index()].take() else {
            return;
        };
        debug_assert_eq!(flight.server, server);
        match flight.phase {
            Phase::Input => {
                self.on_link(server, Phase::Input, sched, |link| {
                    link.remove(now, task);
                });
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
            Phase::Output => self.on_link(server, Phase::Output, sched, |link| {
                link.remove(now, task);
            }),
        }
        let work = self.placed_costs(task, server).total();
        self.agent.on_retract(now, server, task, work);
        self.churn_stats.retractions += 1;
        let attempts = self.records[task.index()].attempts;
        match &mut self.admission {
            Some(adm) if attempts < self.cfg.redispatch_budget => {
                // Under backpressure the bounded buffer replaces the
                // re-dispatch backoff: the victim re-enters the queue
                // (counted once in `redispatches` — the dequeue does not
                // count it again), its held slot is released below, and
                // the fair dequeue decides when it reaches the pipeline
                // again.
                adm.stats.reentries += 1;
                self.churn_stats.redispatches += 1;
                self.buffer_or_shed(now, task.index(), attempts + 1, vec![server], sched);
                self.release_admission(now, sched);
            }
            _ => {
                let reason = DropReason::RedispatchBudget;
                self.redispatch(now, task.index(), attempts, Some(server), reason, sched);
            }
        }
    }

    /// Re-enters task `idx` into the decision pipeline for attempt
    /// `attempt + 1` after the re-dispatch backoff, excluding `exclude`,
    /// or, once its dispatch budget is spent, drops it with `reason` so
    /// the campaign accounting stays exact.
    fn redispatch(
        &mut self,
        now: SimTime,
        idx: usize,
        attempt: u32,
        exclude: Option<ServerId>,
        reason: DropReason,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if attempt >= self.cfg.redispatch_budget {
            self.churn_stats.drops += 1;
            self.records[idx].attempts = attempt;
            self.finish(now, idx, TaskOutcome::Dropped { reason }, sched);
            return;
        }
        self.churn_stats.redispatches += 1;
        sched.in_(
            SimTime::from_secs(REDISPATCH_BACKOFF_S),
            GridEvent::Schedule {
                idx,
                attempt: attempt + 1,
                excluded: exclude.into_iter().collect(),
            },
        );
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
        // The Submit chain: one reserved number per task, taken before
        // any other push, and only the first link queued (see the
        // module docs).
        self.submit_base = sched.reserve(self.tasks.len() as u64);
        if let Some(first) = self.tasks.first() {
            sched.push_reserved(
                first.arrival,
                self.submit_base,
                GridEvent::Submit { idx: 0 },
            );
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
            GridEvent::AdmissionTimeout { class } => {
                self.handle_admission_timeout(now, class, sched)
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
        self.record_completions();
    }
}

/// Drives a built world to completion and fills in the simulated
/// completion dates of the tasks still active in an HTM trace (the
/// others were recorded as the HTM handed them out).
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
    world.record_active_completions();
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
    use proptest::prelude::*;

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
    /// its own width) must still complete every task, under auto
    /// sharding too.
    #[test]
    fn sharded_pruned_campaigns_complete() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        for selector in [
            cas_core::SelectorKind::TopK { k: 1 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 2 },
        ] {
            for shards in [Sharding::AUTO, Sharding::Federated { shards: 3 }] {
                let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 17)
                    .with_selector(selector)
                    .with_shards(shards);
                let recs = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                assert!(
                    recs.iter().all(|r| r.is_completed()),
                    "{selector:?}/{shards:?} left tasks unfinished"
                );
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
        world.record_active_completions();
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

    /// The admission deadlines before the per-class chains, kept as the
    /// chains' oracle: every buffer entry pushes its own deadline event,
    /// stamped with the task's admission generation (bumped on every
    /// buffer exit), and a firing sheds the task only if it still waits
    /// in the same stay, found by a linear scan of its class queue.
    struct ReferenceGate {
        capacity: usize,
        buffer_cap: usize,
        deadline: f64,
        in_admission: usize,
        buffered_total: usize,
        /// Per-class FIFO queues of `(task, enqueued)`, sorted by class.
        queues: Vec<(u32, VecDeque<(usize, SimTime)>)>,
        rr: usize,
        buffered: Vec<bool>,
        gen: Vec<u32>,
        waits: Vec<f64>,
        stats: AdmissionStats,
    }

    impl ReferenceGate {
        fn new(cfg: &ExperimentConfig, users: &[u32]) -> Self {
            let mut classes: Vec<u32> = users.to_vec();
            classes.sort_unstable();
            classes.dedup();
            ReferenceGate {
                capacity: cfg.admission_capacity,
                buffer_cap: cfg.admission_buffer,
                deadline: cfg.admission_deadline,
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

        fn queue_of(&mut self, class: u32) -> &mut VecDeque<(usize, SimTime)> {
            let i = self
                .queues
                .binary_search_by_key(&class, |(c, _)| *c)
                .expect("registered class");
            &mut self.queues[i].1
        }

        fn take_slot(&mut self) -> bool {
            if self.in_admission >= self.capacity {
                return false;
            }
            self.in_admission += 1;
            self.stats.peak_admitted = self.stats.peak_admitted.max(self.in_admission);
            true
        }

        fn dequeue(&mut self, now: SimTime) -> Option<usize> {
            if self.buffered_total == 0 {
                return None;
            }
            let n = self.queues.len();
            for k in 0..n {
                let i = (self.rr + k) % n;
                if let Some((idx, enqueued)) = self.queues[i].1.pop_front() {
                    self.rr = (i + 1) % n;
                    self.buffered_total -= 1;
                    self.buffered[idx] = false;
                    self.gen[idx] += 1;
                    self.waits[idx] += now.as_secs() - enqueued.as_secs();
                    self.stats.dequeued += 1;
                    return Some(idx);
                }
            }
            None
        }

        /// The deadline event `(idx, gen)` fired: sheds the task unless
        /// the event is stale.
        fn expire(&mut self, idx: usize, gen: u32, class: u32, now: SimTime) -> bool {
            if !self.buffered[idx] || self.gen[idx] != gen {
                return false;
            }
            let q = self.queue_of(class);
            let pos = q.iter().position(|&(i, _)| i == idx).expect("queued");
            let (_, enqueued) = q.remove(pos).expect("in bounds");
            self.buffered_total -= 1;
            self.buffered[idx] = false;
            self.gen[idx] += 1;
            self.waits[idx] += now.as_secs() - enqueued.as_secs();
            self.stats.shed_deadline += 1;
            true
        }
    }

    /// One step of a scripted gate session.
    #[derive(Debug, Clone, Copy)]
    enum GateOp {
        /// The next task arrives from a class: it takes a free slot or
        /// waits in the buffer.
        Arrive(u32),
        /// The oldest admitted task finishes and frees its slot.
        Finish,
        /// The oldest admitted task is retracted: it re-enters the
        /// buffer (as a crash victim does), then frees its slot.
        Reenter,
    }

    /// The gate a [`GateWorld`] drives: the production chains or their
    /// oracle.
    enum GateUnderTest {
        Chains(AdmissionState),
        Reference(ReferenceGate),
    }

    #[derive(Debug, Clone, PartialEq)]
    enum GateEvent {
        /// Script step `i`.
        Step(usize),
        /// A class chain's deadline (the production gate).
        Chain(u32),
        /// One entry's deadline (the oracle).
        Entry { idx: usize, gen: u32 },
    }

    /// What happened to a task, and when.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum GateLog {
        Admitted(usize, f64),
        ShedAtDeadline(usize, f64),
        ShedOnOverflow(usize, f64),
    }

    /// A scripted session against one gate: steps `(gap, op, early)`
    /// follow each other `gap` whole seconds apart, each queueing the
    /// next before its own work when `early` is set and after it
    /// otherwise, so steps and deadlines tie in both orders.
    struct GateWorld {
        script: Vec<(u32, GateOp, bool)>,
        users: Vec<u32>,
        gate: GateUnderTest,
        next_task: usize,
        admitted: VecDeque<usize>,
        log: Vec<GateLog>,
        /// Deadline events handled, and the most a class had pending.
        firings: u64,
        pending: Vec<u32>,
        peak_pending: u32,
    }

    impl GateWorld {
        fn new(script: Vec<(u32, GateOp, bool)>, cfg: &ExperimentConfig, chains: bool) -> Self {
            let users: Vec<u32> = script
                .iter()
                .filter_map(|&(_, op, _)| match op {
                    GateOp::Arrive(class) => Some(class),
                    _ => None,
                })
                .collect();
            let gate = if chains {
                GateUnderTest::Chains(AdmissionState::new(cfg, &users))
            } else {
                GateUnderTest::Reference(ReferenceGate::new(cfg, &users))
            };
            let n_classes = users.iter().max().map_or(0, |&c| c as usize + 1);
            GateWorld {
                script,
                users,
                gate,
                next_task: 0,
                admitted: VecDeque::new(),
                log: Vec::new(),
                firings: 0,
                pending: vec![0; n_classes],
                peak_pending: 0,
            }
        }

        fn stats(&self) -> AdmissionStats {
            match &self.gate {
                GateUnderTest::Chains(g) => g.stats,
                GateUnderTest::Reference(g) => g.stats,
            }
        }

        fn waits(&self) -> &[f64] {
            match &self.gate {
                GateUnderTest::Chains(g) => &g.waits,
                GateUnderTest::Reference(g) => &g.waits,
            }
        }

        fn take_slot(&mut self) -> bool {
            match &mut self.gate {
                GateUnderTest::Chains(g) => g.take_slot(),
                GateUnderTest::Reference(g) => g.take_slot(),
            }
        }

        /// `GridWorld::buffer_or_shed`, against either gate.
        fn buffer(&mut self, now: SimTime, idx: usize, sched: &mut Scheduler<'_, GateEvent>) {
            let class = self.users[idx];
            let now_s = now.as_secs();
            match &mut self.gate {
                GateUnderTest::Chains(g) => {
                    if g.buffered_total >= g.buffer_cap {
                        g.stats.shed_overflow += 1;
                        self.log.push(GateLog::ShedOnOverflow(idx, now_s));
                        return;
                    }
                    let (pending, peak) = (&mut self.pending, &mut self.peak_pending);
                    g.enqueue(class, idx, 1, Vec::new(), sched, |class| {
                        armed(pending, peak, class)
                    });
                }
                GateUnderTest::Reference(g) => {
                    if g.buffered_total >= g.buffer_cap {
                        g.stats.shed_overflow += 1;
                        self.log.push(GateLog::ShedOnOverflow(idx, now_s));
                        return;
                    }
                    let gen = g.gen[idx];
                    g.buffered[idx] = true;
                    g.buffered_total += 1;
                    g.stats.buffered += 1;
                    g.stats.peak_buffered = g.stats.peak_buffered.max(g.buffered_total);
                    g.queue_of(class).push_back((idx, now));
                    if g.deadline.is_finite() {
                        sched.in_(
                            SimTime::from_secs(g.deadline),
                            GateEvent::Entry { idx, gen },
                        );
                    }
                }
            }
        }

        /// `GridWorld::release_admission`, against either gate.
        fn release(&mut self, now: SimTime) {
            match &mut self.gate {
                GateUnderTest::Chains(g) => {
                    g.in_admission -= 1;
                    while let Some(entry) = g.admit_next(now) {
                        self.admitted.push_back(entry.idx);
                        self.log.push(GateLog::Admitted(entry.idx, now.as_secs()));
                    }
                }
                GateUnderTest::Reference(g) => {
                    g.in_admission -= 1;
                    while g.in_admission < g.capacity {
                        let Some(idx) = g.dequeue(now) else { break };
                        g.in_admission += 1;
                        g.stats.peak_admitted = g.stats.peak_admitted.max(g.in_admission);
                        self.admitted.push_back(idx);
                        self.log.push(GateLog::Admitted(idx, now.as_secs()));
                    }
                }
            }
        }

        fn step(&mut self, now: SimTime, op: GateOp, sched: &mut Scheduler<'_, GateEvent>) {
            match op {
                GateOp::Arrive(_) => {
                    let idx = self.next_task;
                    self.next_task += 1;
                    if self.take_slot() {
                        self.admitted.push_back(idx);
                        self.log.push(GateLog::Admitted(idx, now.as_secs()));
                    } else {
                        self.buffer(now, idx, sched);
                    }
                }
                GateOp::Finish => {
                    if self.admitted.pop_front().is_some() {
                        self.release(now);
                    }
                }
                GateOp::Reenter => {
                    if let Some(idx) = self.admitted.pop_front() {
                        self.buffer(now, idx, sched);
                        self.release(now);
                    }
                }
            }
        }
    }

    /// The chains' deadline event for `class`, counted as pending.
    fn armed(pending: &mut [u32], peak: &mut u32, class: u32) -> GateEvent {
        pending[class as usize] += 1;
        *peak = (*peak).max(pending[class as usize]);
        GateEvent::Chain(class)
    }

    impl World for GateWorld {
        type Event = GateEvent;

        fn init(&mut self, sched: &mut Scheduler<'_, GateEvent>) {
            if let Some(&(gap, _, _)) = self.script.first() {
                sched.at(SimTime::from_secs(f64::from(gap)), GateEvent::Step(0));
            }
        }

        fn handle(&mut self, now: SimTime, event: GateEvent, sched: &mut Scheduler<'_, GateEvent>) {
            match event {
                GateEvent::Step(i) => {
                    let (_, op, early) = self.script[i];
                    let next = self.script.get(i + 1).map(|&(gap, _, _)| gap);
                    let queue_next = |sched: &mut Scheduler<'_, GateEvent>| {
                        if let Some(gap) = next {
                            sched.in_(SimTime::from_secs(f64::from(gap)), GateEvent::Step(i + 1));
                        }
                    };
                    if early {
                        queue_next(sched);
                        self.step(now, op, sched);
                    } else {
                        self.step(now, op, sched);
                        queue_next(sched);
                    }
                }
                GateEvent::Chain(class) => {
                    self.firings += 1;
                    self.pending[class as usize] -= 1;
                    let GateUnderTest::Chains(g) = &mut self.gate else {
                        unreachable!("chain events come from the chains")
                    };
                    let (pending, peak) = (&mut self.pending, &mut self.peak_pending);
                    if let Some(idx) = g.expire(class, sched, |class| armed(pending, peak, class)) {
                        self.log.push(GateLog::ShedAtDeadline(idx, now.as_secs()));
                    }
                }
                GateEvent::Entry { idx, gen } => {
                    self.firings += 1;
                    let class = self.users[idx];
                    let GateUnderTest::Reference(g) = &mut self.gate else {
                        unreachable!("entry events come from the oracle")
                    };
                    if g.expire(idx, gen, class, now) {
                        self.log.push(GateLog::ShedAtDeadline(idx, now.as_secs()));
                    }
                }
            }
        }
    }

    prop_compose! {
        /// A script step: whole-second gaps (ties are the rule), mostly
        /// arrivals from `n_classes` classes, with finishes and
        /// re-entries between them.
        fn arb_gate_step(n_classes: u32)(
            gap in 0u32..4,
            kind in 0u32..7,
            class in 0..n_classes,
            early in proptest::bool::ANY,
        ) -> (u32, GateOp, bool) {
            let op = match kind {
                0..=3 => GateOp::Arrive(class),
                4 | 5 => GateOp::Finish,
                _ => GateOp::Reenter,
            };
            (gap, op, early)
        }
    }

    proptest! {
        /// The per-class deadline chains shed the same tasks at the same
        /// instants as per-entry deadline events, admit the same tasks
        /// at the same instants, and leave the same waits and counters,
        /// with at most one deadline pending per class and no more
        /// firings than the oracle's events.
        #[test]
        fn admission_chain_matches_per_entry_deadlines(
            n_classes in 2u32..4,
            script in proptest::collection::vec(arb_gate_step(n_classes), 1..80),
            capacity in 1usize..4,
            buffer in 1usize..8,
            deadline_s in 0u32..7,
        ) {
            // 0 stands for no deadline at all.
            let deadline = if deadline_s == 0 { f64::INFINITY } else { f64::from(deadline_s) };
            let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1)
                .with_admission(capacity, buffer, deadline);
            let run = |chains: bool| {
                let mut sim = Simulation::new(GateWorld::new(script.clone(), &cfg, chains));
                sim.run_to_completion();
                sim.into_world()
            };
            let (chains, oracle) = (run(true), run(false));
            prop_assert_eq!(&chains.log, &oracle.log);
            prop_assert_eq!(chains.waits(), oracle.waits());
            prop_assert_eq!(chains.stats(), oracle.stats());
            prop_assert!(chains.peak_pending <= 1, "{} deadlines pending in a class", chains.peak_pending);
            let stats = chains.stats();
            prop_assert!(chains.firings <= oracle.firings);
            prop_assert!(chains.firings <= stats.shed_deadline + stats.dequeued);
        }
    }
}
