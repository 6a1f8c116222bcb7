//! The per-server trace: the HTM's discrete simulation of one server.
//!
//! A [`ServerTrace`] models a server exactly as §2.3 prescribes: three
//! fair-shared stages (input link, CPU, output link); tasks move from stage
//! to stage; within a stage, `n` concurrent activities each progress at
//! `1/n` of the stage's nominal rate. The trace state is advanced lazily to
//! a *cursor* time; what-if questions clone the trace and drain the clone.
//!
//! Work units are "seconds on the unloaded server" taken straight from the
//! static cost tables — the same convention NetSolve's measured costs use.
//! A trace therefore never consults machine specs; heterogeneity is entirely
//! encoded in the per-server costs, as in the paper.
//!
//! # Change tracking and the zero-clone what-if path
//!
//! Every mutation of a trace's observable state (task added, task
//! force-finished, cursor advanced past an event or any span of time) bumps
//! a [`Generation`] stamp, exposed via [`ServerTrace::generation`]. Between
//! two equal stamps the trace state is bit-identical, so any quantity
//! derived from it — in particular the drained baseline schedule the HTM
//! caches per server — can be reused without recomputation.
//!
//! What-if questions ("when would these tasks finish if X were inserted
//! now?") used to clone the whole trace per query. They now run through
//! [`DrainScratch`], a reusable flat-buffer copy of the three fair-share
//! lanes: [`ServerTrace::drain_schedule_into`] and
//! [`ServerTrace::drain_schedule_into_fast`] load the scratch from the
//! live trace (no heap allocation once the buffers are warm), the latter
//! injecting one hypothetical task, and replay the exact event arithmetic
//! of [`ServerTrace::advance`]/[`ServerTrace::drain`]. The replay performs
//! the same floating-point operations in the same order as cloning the
//! trace, inserting the task and draining the clone, so results agree
//! **bit for bit** — a property the tests below and in `htm.rs` check
//! against that clone-and-drain oracle.

use cas_platform::{FairShareResource, Phase, PhaseCosts, TaskId};
use cas_sim::{Generation, SimTime};
use std::collections::BTreeMap;

/// Where a task currently is inside the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JobState {
    pub phase: Phase,
    pub costs: PhaseCosts,
    pub arrival: SimTime,
}

/// One segment of Gantt history: a task held `share` of `phase`'s resource
/// from `start` to `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// The task.
    pub task: TaskId,
    /// Which stage the segment belongs to.
    pub phase: Phase,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
    /// Fraction of the resource held, in (0, 1].
    pub share: f64,
}

/// The simulated timeline of one server.
#[derive(Debug, Clone)]
pub struct ServerTrace {
    cursor: SimTime,
    link_in: FairShareResource<TaskId>,
    cpu: FairShareResource<TaskId>,
    link_out: FairShareResource<TaskId>,
    jobs: BTreeMap<TaskId, JobState>,
    finished: Vec<(TaskId, SimTime)>,
    /// When `true`, [`Self::segments`] accumulates Gantt history.
    record_segments: bool,
    segments: Vec<TraceSegment>,
    /// Bumped on every observable state change (see the module docs); lets
    /// derived quantities (the HTM's baseline schedule cache) be reused
    /// while the stamp is unchanged.
    generation: Generation,
}

impl Default for ServerTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerTrace {
    /// An empty trace at time zero.
    pub fn new() -> Self {
        ServerTrace {
            cursor: SimTime::ZERO,
            link_in: FairShareResource::new(1.0),
            cpu: FairShareResource::new(1.0),
            link_out: FairShareResource::new(1.0),
            jobs: BTreeMap::new(),
            finished: Vec::new(),
            record_segments: false,
            segments: Vec::new(),
            generation: Generation::default(),
        }
    }

    /// Enables Gantt-segment recording (off by default: what-if clones don't
    /// need history and predictions are the hot path).
    pub fn with_recording(mut self) -> Self {
        self.record_segments = true;
        self
    }

    /// The time up to which this trace has been advanced.
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// The change stamp: two reads returning the same value guarantee the
    /// trace state (cursor, lane memberships, remaining work) is
    /// bit-identical, so schedules derived from it are still valid.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of tasks not yet finished.
    pub fn active_len(&self) -> usize {
        self.jobs.len()
    }

    /// Number of tasks in the compute stage right now.
    pub fn compute_len(&self) -> usize {
        self.cpu.len()
    }

    /// Tasks finished so far, with completion dates, in completion order.
    pub fn finished(&self) -> &[(TaskId, SimTime)] {
        &self.finished
    }

    /// Recorded Gantt segments (empty unless recording was enabled).
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Ids of unfinished tasks, in insertion (task-id) order — the paper's
    /// "local numbers" on this server.
    pub fn active_tasks(&self) -> Vec<TaskId> {
        self.jobs.keys().copied().collect()
    }

    /// Iterator over unfinished task ids, allocation-free (prefer this over
    /// [`Self::active_tasks`] on hot paths).
    pub fn active_task_iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.jobs.keys().copied()
    }

    /// Whether `task` is mapped here and unfinished.
    pub fn is_active(&self, task: TaskId) -> bool {
        self.jobs.contains_key(&task)
    }

    fn resource(&self, phase: Phase) -> &FairShareResource<TaskId> {
        match phase {
            Phase::Input => &self.link_in,
            Phase::Compute => &self.cpu,
            Phase::Output => &self.link_out,
        }
    }

    fn resource_mut(&mut self, phase: Phase) -> &mut FairShareResource<TaskId> {
        match phase {
            Phase::Input => &mut self.link_in,
            Phase::Compute => &mut self.cpu,
            Phase::Output => &mut self.link_out,
        }
    }

    /// Next internal event: the earliest phase completion across stages.
    fn next_event(&self) -> Option<(Phase, TaskId, SimTime)> {
        let mut best: Option<(Phase, TaskId, SimTime)> = None;
        for phase in Phase::ALL {
            if let Some((task, when)) = self.resource(phase).next_completion(self.cursor) {
                let better = match &best {
                    None => true,
                    Some((_, _, t)) => when < *t,
                };
                if better {
                    best = Some((phase, task, when));
                }
            }
        }
        best
    }

    fn record_interval(&mut self, from: SimTime, to: SimTime) {
        if !self.record_segments || to <= from {
            return;
        }
        let mut new_segments = Vec::new();
        for phase in Phase::ALL {
            let res = self.resource(phase);
            let n = res.len();
            if n == 0 {
                continue;
            }
            let share = 1.0 / n as f64;
            for task in res.keys() {
                new_segments.push(TraceSegment {
                    task,
                    phase,
                    start: from,
                    end: to,
                    share,
                });
            }
        }
        // Merge with the previous segment when nothing changed, keeping the
        // chart compact.
        for seg in new_segments {
            if let Some(last) = self
                .segments
                .iter_mut()
                .rev()
                .find(|s| s.task == seg.task && s.phase == seg.phase && s.end == seg.start)
            {
                if (last.share - seg.share).abs() < 1e-12 {
                    last.end = seg.end;
                    continue;
                }
            }
            self.segments.push(seg);
        }
    }

    /// Advances the trace to `to`, processing all phase transitions on the
    /// way. Idempotent for `to == cursor`.
    ///
    /// # Panics
    /// Panics if `to` is before the cursor.
    pub fn advance(&mut self, to: SimTime) {
        assert!(to >= self.cursor, "trace cannot rewind");
        let mut changed = to > self.cursor;
        while let Some((phase, task, when)) = self.next_event() {
            if when > to {
                break;
            }
            changed = true;
            self.record_interval(self.cursor, when);
            for p in Phase::ALL {
                self.resource_mut(p).advance(when);
            }
            self.cursor = when;
            // Move the task to its next phase (or finish it).
            self.resource_mut(phase).remove(when, task);
            let state = self.jobs.get_mut(&task).expect("job state exists");
            debug_assert_eq!(state.phase, phase);
            match phase.next() {
                Some(next) => {
                    state.phase = next;
                    let cost = state.costs.phase(next);
                    self.resource_mut(next).add(when, task, cost);
                }
                None => {
                    self.jobs.remove(&task);
                    self.finished.push((task, when));
                }
            }
        }
        self.record_interval(self.cursor, to);
        for p in Phase::ALL {
            self.resource_mut(p).advance(to);
        }
        self.cursor = to;
        if changed {
            self.generation.bump();
        }
    }

    /// Maps a new task onto this server at time `now` with the given static
    /// costs. The task enters the input stage (a zero input cost falls
    /// through to compute at the same instant during the next advance).
    ///
    /// # Panics
    /// Panics if `now` is before the cursor or the task is already mapped.
    pub fn add_task(&mut self, now: SimTime, task: TaskId, costs: PhaseCosts) {
        self.advance(now);
        assert!(
            !self.jobs.contains_key(&task),
            "task {task} already mapped on this trace"
        );
        self.jobs.insert(
            task,
            JobState {
                phase: Phase::Input,
                costs,
                arrival: now,
            },
        );
        self.link_in.add(now, task, costs.input);
        self.generation.bump();
    }

    /// Force-finishes a task at `now` (HTM ↔ reality synchronisation: the
    /// real server said it's done, so the model stops simulating it).
    /// Returns `true` if the task was active.
    pub fn force_finish(&mut self, now: SimTime, task: TaskId) -> bool {
        self.advance(now);
        let Some(state) = self.jobs.remove(&task) else {
            return false;
        };
        self.resource_mut(state.phase).remove(now, task);
        self.finished.push((task, now));
        self.generation.bump();
        true
    }

    /// Simulated completion dates of all currently active tasks assuming no
    /// further arrivals — the `f(i,j)` values of §2.4. Pure: works on a
    /// clone. Returned as (task, completion) in completion order.
    pub fn drain_schedule(&self) -> Vec<(TaskId, SimTime)> {
        let mut clone = self.clone();
        clone.record_segments = false;
        let already = clone.finished.len();
        clone.drain();
        clone.finished.split_off(already)
    }

    /// Advances until no active task remains.
    pub fn drain(&mut self) {
        while !self.jobs.is_empty() {
            let (_, _, when) = self
                .next_event()
                .expect("active jobs must produce a next event");
            self.advance(when);
        }
    }

    /// The simulated completion date of one active task, if active.
    pub fn completion_of(&self, task: TaskId) -> Option<SimTime> {
        self.drain_schedule()
            .into_iter()
            .find(|(t, _)| *t == task)
            .map(|(_, when)| when)
    }

    /// Arrival date recorded for an active task.
    pub fn arrival_of(&self, task: TaskId) -> Option<SimTime> {
        self.jobs.get(&task).map(|j| j.arrival)
    }

    /// Drains the schedule into `out` through a reusable scratch buffer —
    /// [`Self::drain_schedule`] bit for bit (completion order and float
    /// values), without cloning the trace. The HTM's baseline refresh.
    ///
    /// `out` is cleared first. The trace itself is not modified, and after
    /// the scratch buffers have grown to the high-water mark no heap
    /// allocation happens per call.
    pub fn drain_schedule_into(
        &self,
        scratch: &mut DrainScratch,
        out: &mut Vec<(TaskId, SimTime)>,
    ) {
        out.clear();
        scratch.load(self);
        scratch.drain(&self.jobs, None, out);
    }

    /// Drains the schedule into `out` as if `task` had been force-finished
    /// at `now` — the retract-side twin of [`Self::drain_schedule_into_fast`],
    /// and the primitive behind the HTM's incremental baseline repair on
    /// retract/observe.
    ///
    /// Reproduces `{ let mut c = trace.clone(); c.force_finish(now, task);
    /// c.drain_schedule() }` bit for bit, without cloning or mutating the
    /// trace: the scratch advances to `now` with the same event arithmetic
    /// (completions reached on the way are discarded, exactly like the
    /// clone's `finished` list), removes the task from its lane, and
    /// drains. Returns whether the task was still active at `now` — the
    /// same value `force_finish` would return.
    ///
    /// # Panics
    /// Panics if `now` is before the cursor (mirrors `force_finish`).
    pub fn drain_schedule_without(
        &self,
        scratch: &mut DrainScratch,
        now: SimTime,
        task: TaskId,
        out: &mut Vec<(TaskId, SimTime)>,
    ) -> bool {
        assert!(now >= self.cursor, "trace cannot rewind");
        out.clear();
        scratch.load(self);
        let mut pre = std::mem::take(&mut scratch.pre_now);
        pre.clear();
        scratch.advance_to(now, &self.jobs, None, &mut pre);
        scratch.pre_now = pre;
        // Mirrors `FairShareResource::remove` on the task's current lane:
        // the entry vanishes, later entries keep their relative order.
        let removed = scratch.remove_entry(task);
        scratch.drain(&self.jobs, None, out);
        removed
    }

    /// The what-if drain: the schedule with a hypothetical task inserted at
    /// `now`, accelerated by the baseline-prefix cursor and — when
    /// `truncate` is set — an early exit once the probe's completion is
    /// known.
    ///
    /// Produces values bit-identical to the clone-and-drain path `{ let
    /// mut c = trace.clone(); c.add_task(now, task, costs);
    /// c.drain_schedule() }`: the scratch advances to `now` with the same
    /// event arithmetic before the task enters the input lane, the prefix
    /// cursor only ever resumes the event loop from a state every full
    /// replay passes through, and truncation only cuts the tail of `out`
    /// *after* the probe's entry. When `truncate` is `false`, `out` is the
    /// complete after-schedule, bit for bit.
    ///
    /// Returns `(prefix_hit, truncated)`: whether the shared prefix was
    /// resumed from `prefix` instead of replayed from the live trace, and
    /// whether `out` is a (probe-containing) prefix rather than the full
    /// schedule. `prefix` is refreshed to this query's `(generation, now)`
    /// on every call, so the next probe of the same decision round hits.
    ///
    /// # Panics
    /// Panics if `now` is before the cursor or names a task already mapped
    /// here (mirrors [`Self::add_task`]).
    #[allow(clippy::too_many_arguments)]
    pub fn drain_schedule_into_fast(
        &self,
        scratch: &mut DrainScratch,
        prefix: &mut PrefixCursor,
        now: SimTime,
        task: TaskId,
        costs: PhaseCosts,
        truncate: bool,
        out: &mut Vec<(TaskId, SimTime)>,
    ) -> (bool, bool) {
        assert!(now >= self.cursor, "trace cannot rewind");
        assert!(
            !self.jobs.contains_key(&task),
            "task {task} already mapped on this trace"
        );
        out.clear();
        let hit = prefix.usable_for(self, now);
        if hit {
            scratch.restore_prefix(prefix);
        } else {
            scratch.load(self);
        }
        // Shared prefix: process every baseline event up to `now`,
        // discarding pre-now completions exactly like the clone path's
        // `finished` list. Lanes are left at the last processed event —
        // the snapshot point — and only then settled to `now`.
        let mut pre = std::mem::take(&mut scratch.pre_now);
        pre.clear();
        let moved = scratch.advance_events_until(now, &self.jobs, None, &mut pre);
        scratch.pre_now = pre;
        if !hit || moved > 0 {
            scratch.save_prefix(prefix);
            prefix.events_until = now;
            prefix.generation = self.generation();
            prefix.valid = true;
        }
        // On a hit that processed no event the snapshot already *is* this
        // state: skip the copy-back and keep the older — strictly more
        // reusable — `events_until`.
        scratch.settle(now);
        scratch.lanes[0].entries.push((task, costs.input));
        let truncated = if truncate {
            scratch.drain_until(&self.jobs, Some((task, costs)), task, out)
        } else {
            scratch.drain(&self.jobs, Some((task, costs)), out);
            false
        };
        (hit, truncated)
    }
}

/// Reusable flat-buffer state for zero-clone what-if drains.
///
/// Holds one lane per phase resource — `(task, remaining work)` pairs in
/// the same order as the live [`FairShareResource`] entries — plus the
/// cursor. [`ServerTrace::drain_schedule_into`] copies the live state in
/// (reusing capacity), then replays the trace's event loop on the copy.
///
/// The replay is deliberately **operation-for-operation identical** to
/// [`ServerTrace::advance`]/[`ServerTrace::drain`] + the fair-share
/// resource arithmetic, so its floating-point results match the
/// clone-and-drain path exactly. When changing either side, change both —
/// the differential proptests in `htm.rs` will catch a drift.
#[derive(Debug, Clone, Default)]
pub struct DrainScratch {
    lanes: [ScratchLane; 3],
    cursor: SimTime,
    /// Reusable sink for completions that fall before the insertion time
    /// (dropped, like the clone path's `finished` list).
    pre_now: Vec<(TaskId, SimTime)>,
}

/// One phase lane of the scratch: mirrors `FairShareResource`'s state.
#[derive(Debug, Clone, Default)]
struct ScratchLane {
    /// `(task, remaining work)` in insertion order.
    entries: Vec<(TaskId, f64)>,
    /// Last time progress was integrated up to.
    updated_at: SimTime,
    /// Total capacity, split equally.
    capacity: f64,
}

impl ScratchLane {
    /// Mirrors [`FairShareResource::next_completion`].
    fn next_completion(&self, now: SimTime) -> Option<(TaskId, SimTime)> {
        let lag = (now - self.updated_at).as_secs();
        let rate = self.capacity / self.entries.len().max(1) as f64;
        self.entries
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("remaining work is never NaN"))
            .map(|e| {
                let dt = ((e.1 / rate) - lag).max(0.0);
                (e.0, now + SimTime::from_secs(dt))
            })
    }

    /// Mirrors [`FairShareResource::advance`].
    fn advance(&mut self, now: SimTime) {
        if self.entries.is_empty() || now == self.updated_at {
            self.updated_at = now;
            return;
        }
        let dt = (now - self.updated_at).as_secs();
        let rate = self.capacity / self.entries.len() as f64;
        let done = rate * dt;
        for e in &mut self.entries {
            e.1 = (e.1 - done).max(0.0);
        }
        self.updated_at = now;
    }
}

impl DrainScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the live trace state in, reusing buffer capacity.
    fn load(&mut self, trace: &ServerTrace) {
        for (lane, phase) in self.lanes.iter_mut().zip(Phase::ALL) {
            let res = trace.resource(phase);
            lane.entries.clear();
            lane.entries.extend(res.entries_iter());
            lane.updated_at = res.updated_at();
            lane.capacity = res.capacity();
        }
        self.cursor = trace.cursor;
    }

    /// Number of tasks still inside any lane.
    fn active(&self) -> usize {
        self.lanes.iter().map(|l| l.entries.len()).sum()
    }

    /// Removes `task` from whichever lane holds it, preserving the order
    /// of the remaining entries (mirrors `FairShareResource::remove`).
    /// Returns whether the task was present.
    fn remove_entry(&mut self, task: TaskId) -> bool {
        for lane in &mut self.lanes {
            if let Some(pos) = lane.entries.iter().position(|e| e.0 == task) {
                lane.entries.remove(pos);
                return true;
            }
        }
        false
    }

    /// Static phase costs of `task`: the hypothetical task's costs come
    /// from `extra`, everything else from the live job table.
    fn costs_of(
        jobs: &BTreeMap<TaskId, JobState>,
        extra: Option<(TaskId, PhaseCosts)>,
        task: TaskId,
    ) -> PhaseCosts {
        match extra {
            Some((id, costs)) if id == task => costs,
            _ => jobs.get(&task).expect("task has a job record").costs,
        }
    }

    /// Mirrors [`ServerTrace::next_event`]: earliest completion across the
    /// lanes, ties to the earliest phase.
    fn next_event(&self) -> Option<(usize, TaskId, SimTime)> {
        let mut best: Option<(usize, TaskId, SimTime)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some((task, when)) = lane.next_completion(self.cursor) {
                let better = match &best {
                    None => true,
                    Some((_, _, t)) => when < *t,
                };
                if better {
                    best = Some((i, task, when));
                }
            }
        }
        best
    }

    /// Mirrors [`ServerTrace::advance`] (without Gantt recording).
    ///
    /// Structured as the event loop ([`Self::advance_events_until`])
    /// followed by the final partial advance ([`Self::settle`]); the split
    /// exists so the prefix cursor can snapshot the scratch at the last
    /// processed event — the only state that is bit-identical across every
    /// replay that passes that event (the trailing partial advance splits
    /// an interval, and `(w − r·dt₁) − r·dt₂ ≠ w − r·(dt₁+dt₂)` in floats).
    fn advance_to(
        &mut self,
        to: SimTime,
        jobs: &BTreeMap<TaskId, JobState>,
        extra: Option<(TaskId, PhaseCosts)>,
        out: &mut Vec<(TaskId, SimTime)>,
    ) {
        self.advance_events_until(to, jobs, extra, out);
        self.settle(to);
    }

    /// The event half of [`Self::advance_to`]: processes every phase
    /// completion at or before `to`, leaving all lanes advanced exactly to
    /// the last processed event (or untouched when no event fires). No
    /// partial progress beyond an event time is integrated, so the
    /// resulting state can be resumed for any later `to` bit-identically.
    /// Returns the number of events processed, so the prefix-cursor path
    /// can tell a no-op resume (state unchanged, snapshot still exact)
    /// from one that moved the scratch forward.
    fn advance_events_until(
        &mut self,
        to: SimTime,
        jobs: &BTreeMap<TaskId, JobState>,
        extra: Option<(TaskId, PhaseCosts)>,
        out: &mut Vec<(TaskId, SimTime)>,
    ) -> usize {
        let mut processed = 0;
        while let Some((lane_idx, task, when)) = self.next_event() {
            if when > to {
                break;
            }
            self.process_event(lane_idx, task, when, jobs, extra, out);
            processed += 1;
        }
        processed
    }

    /// One step of the event loop: advance every lane to `when`, retire
    /// `task` from `lanes[lane_idx]`, and either feed it to the next lane
    /// or append its final completion to `out`. Factored out so
    /// [`Self::advance_events_until`] and [`Self::drain_until`] share the
    /// exact arithmetic (and therefore stay bit-identical).
    fn process_event(
        &mut self,
        lane_idx: usize,
        task: TaskId,
        when: SimTime,
        jobs: &BTreeMap<TaskId, JobState>,
        extra: Option<(TaskId, PhaseCosts)>,
        out: &mut Vec<(TaskId, SimTime)>,
    ) {
        for lane in &mut self.lanes {
            lane.advance(when);
        }
        self.cursor = when;
        let lane = &mut self.lanes[lane_idx];
        let pos = lane
            .entries
            .iter()
            .position(|e| e.0 == task)
            .expect("completing task is in its lane");
        lane.entries.remove(pos);
        if lane_idx + 1 < self.lanes.len() {
            let costs = Self::costs_of(jobs, extra, task);
            let cost = match lane_idx + 1 {
                1 => costs.compute,
                _ => costs.output,
            };
            self.lanes[lane_idx + 1].entries.push((task, cost));
        } else {
            out.push((task, when));
        }
    }

    /// The trailing half of [`Self::advance_to`]: integrates the partial
    /// interval from the last processed event up to `to` on every lane.
    fn settle(&mut self, to: SimTime) {
        for lane in &mut self.lanes {
            lane.advance(to);
        }
        self.cursor = to;
    }

    /// Mirrors [`ServerTrace::drain`]: advance event by event until no
    /// task remains, appending completions to `out` in completion order.
    fn drain(
        &mut self,
        jobs: &BTreeMap<TaskId, JobState>,
        extra: Option<(TaskId, PhaseCosts)>,
        out: &mut Vec<(TaskId, SimTime)>,
    ) {
        while self.active() > 0 {
            let (_, _, when) = self
                .next_event()
                .expect("active tasks must produce a next event");
            self.advance_to(when, jobs, extra, out);
        }
    }

    /// Truncated drain: identical to [`Self::drain`] but returns as soon as
    /// `stop`'s completion has been appended to `out`. The output is a
    /// bit-exact prefix of the full drain (same events, same order, same
    /// float values — the loop merely exits early), possibly including a
    /// few same-instant completions that tie with `stop`. Returns `true`
    /// when the drain stopped early (tasks remain in the lanes), `false`
    /// when the schedule drained to empty anyway.
    fn drain_until(
        &mut self,
        jobs: &BTreeMap<TaskId, JobState>,
        extra: Option<(TaskId, PhaseCosts)>,
        stop: TaskId,
        out: &mut Vec<(TaskId, SimTime)>,
    ) -> bool {
        // Single event loop (one `next_event` scan per event, against the
        // three scans of the `drain` + `advance_to` composition): process
        // events in completion order, note the instant `stop` finishes,
        // keep draining its same-instant tie batch, and return as soon as
        // the next event lies strictly later. Event arithmetic is
        // `process_event` — the exact loop body of the full drain — so the
        // output is a bit-exact prefix of [`Self::drain`]'s.
        let mut stop_at: Option<SimTime> = None;
        while let Some((lane_idx, task, when)) = self.next_event() {
            if stop_at.is_some_and(|t| when > t) {
                return true;
            }
            self.process_event(lane_idx, task, when, jobs, extra, out);
            if lane_idx + 1 == self.lanes.len() && task == stop {
                stop_at = Some(when);
            }
        }
        false
    }

    /// Snapshots the scratch state into `cur` (reusing its buffers).
    fn save_prefix(&self, cur: &mut PrefixCursor) {
        for (src, dst) in self.lanes.iter().zip(cur.lanes.iter_mut()) {
            dst.entries.clear();
            dst.entries.extend_from_slice(&src.entries);
            dst.updated_at = src.updated_at;
            dst.capacity = src.capacity;
        }
        cur.cursor = self.cursor;
    }

    /// Restores the scratch from a snapshot taken by [`Self::save_prefix`].
    fn restore_prefix(&mut self, cur: &PrefixCursor) {
        for (dst, src) in self.lanes.iter_mut().zip(cur.lanes.iter()) {
            dst.entries.clear();
            dst.entries.extend_from_slice(&src.entries);
            dst.updated_at = src.updated_at;
            dst.capacity = src.capacity;
        }
        self.cursor = cur.cursor;
    }
}

/// A reusable snapshot of a [`DrainScratch`] taken at the last processed
/// event of the shared advance-to-`now` prefix of a what-if drain — the
/// baseline-prefix cursor of the fast stage-2 path.
///
/// Every probe of a decision round replays the same baseline events on a
/// server before injecting its hypothetical task. The cursor caches the
/// scratch state *after* the event loop but *before* the trailing partial
/// advance ([`DrainScratch::settle`]) — the unique point that is
/// bit-identical across all replays that pass it (see
/// [`DrainScratch::advance_events_until`]). A later query at the same or a
/// later `now` restores the snapshot and resumes the event loop instead of
/// replaying from the live trace state.
///
/// Validity is the caller's job (the HTM keys cursors by trace
/// [`Generation`] and invalidates on mismatch or when `now` moves
/// backwards past [`Self::events_until`]).
#[derive(Debug, Clone, Default)]
pub struct PrefixCursor {
    lanes: [ScratchLane; 3],
    cursor: SimTime,
    /// The `now` the snapshot's event loop ran until: all events ≤ this
    /// time are already processed, so the snapshot is resumable only for
    /// queries at `now ≥ events_until`.
    events_until: SimTime,
    /// Trace change stamp at snapshot time; any later mutation invalidates.
    generation: Generation,
    /// Whether the snapshot holds valid state at all.
    valid: bool,
}

impl PrefixCursor {
    /// An empty, invalid cursor (buffers grow on first save).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the cursor invalid (e.g. after a retraction repair that
    /// bypassed the normal save path).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Whether the snapshot can seed a replay of `trace` at `now`.
    fn usable_for(&self, trace: &ServerTrace, now: SimTime) -> bool {
        self.valid && self.generation == trace.generation() && now >= self.events_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn costs(i: f64, c: f64, o: f64) -> PhaseCosts {
        PhaseCosts::new(i, c, o)
    }

    /// The what-if oracle: clone the trace, insert the probe at `now`,
    /// drain the clone.
    pub(super) fn clone_and_drain(
        tr: &ServerTrace,
        now: SimTime,
        probe: TaskId,
        pc: PhaseCosts,
    ) -> Vec<(TaskId, SimTime)> {
        let mut c = tr.clone();
        c.add_task(now, probe, pc);
        c.drain_schedule()
    }

    #[test]
    fn single_task_three_phases() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(2.0, 10.0, 1.0));
        let sched = tr.drain_schedule();
        assert_eq!(sched, vec![(TaskId(1), t(13.0))]);
        // Draining the trace itself gives the same answer.
        tr.drain();
        assert_eq!(tr.finished(), &[(TaskId(1), t(13.0))]);
        assert_eq!(tr.active_len(), 0);
    }

    #[test]
    fn compute_sharing_two_tasks() {
        // Both tasks have no transfer costs: pure §2.3 CPU sharing.
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(0.0, 100.0, 0.0));
        tr.add_task(t(0.0), TaskId(2), costs(0.0, 200.0, 0.0));
        let sched = tr.drain_schedule();
        // Shared until T1 done: T1 needs 100 at rate 1/2 → t=200.
        // T2 then has 100 left alone → t=300.
        assert_eq!(sched[0], (TaskId(1), t(200.0)));
        assert_eq!(sched[1], (TaskId(2), t(300.0)));
    }

    #[test]
    fn usefulness_example_from_paper() {
        // §2.3: servers s and s' got 100 s and 200 s tasks at t=0. At t=80 a
        // new 100 s task arrives. HTM says remaining durations are 20 s and
        // 120 s, so s gives the shorter completion.
        let mut s = ServerTrace::new();
        let mut s2 = ServerTrace::new();
        s.add_task(t(0.0), TaskId(1), costs(0.0, 100.0, 0.0));
        s2.add_task(t(0.0), TaskId(2), costs(0.0, 200.0, 0.0));
        s.advance(t(80.0));
        s2.advance(t(80.0));
        let mut s_with = s.clone();
        s_with.add_task(t(80.0), TaskId(3), costs(0.0, 100.0, 0.0));
        let mut s2_with = s2.clone();
        s2_with.add_task(t(80.0), TaskId(3), costs(0.0, 100.0, 0.0));
        let f_on_s = s_with.completion_of(TaskId(3)).unwrap();
        let f_on_s2 = s2_with.completion_of(TaskId(3)).unwrap();
        assert!(f_on_s < f_on_s2, "{f_on_s:?} vs {f_on_s2:?}");
        // Exact values: on s, T1 has 20 left; shared at 1/2 → T1 done at
        // t=120, T3 then has 80 left alone → t=200.
        assert_eq!(f_on_s, t(200.0));
        // On s', T2 has 120 left; shared → T3 done first: 100 at 1/2 → t=280.
        assert_eq!(f_on_s2, t(280.0));
    }

    #[test]
    fn input_transfers_share_the_link() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(10.0, 5.0, 0.0));
        tr.add_task(t(0.0), TaskId(2), costs(10.0, 5.0, 0.0));
        let sched = tr.drain_schedule();
        // Inputs share: both transfers finish at t=20 (tie → id order).
        // Computes then share: both need 5, finish at t=30 — wait: both
        // enter compute at t=20, share → each at rate 1/2, done at t=30.
        assert_eq!(sched[0], (TaskId(1), t(30.0)));
        assert_eq!(sched[1], (TaskId(2), t(30.0)));
    }

    #[test]
    fn phases_pipeline_distinct_resources() {
        // T1 is in compute while T2 is still transferring input: no
        // interference between the stages.
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(1.0, 10.0, 0.0));
        tr.advance(t(1.0)); // T1 now computing
        tr.add_task(t(1.0), TaskId(2), costs(4.0, 1.0, 0.0));
        let sched = tr.drain_schedule();
        // T2's input runs t=1..5 alone; its compute joins T1's at t=5.
        // T1: compute 10, alone t=1..5 (4 done), shared from t=5.
        // T2 compute needs 1: shared rate 1/2 → done at t=7.
        // T1 then 6 - ... at t=7 T1 has 10-4-1=5 left, alone → t=12.
        assert_eq!(sched[0], (TaskId(2), t(7.0)));
        assert_eq!(sched[1], (TaskId(1), t(12.0)));
    }

    #[test]
    fn zero_cost_phases_fall_through() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(5.0), TaskId(1), costs(0.0, 0.0, 0.0));
        let sched = tr.drain_schedule();
        assert_eq!(sched, vec![(TaskId(1), t(5.0))]);
    }

    #[test]
    fn force_finish_removes_task() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(0.0, 100.0, 0.0));
        tr.add_task(t(0.0), TaskId(2), costs(0.0, 100.0, 0.0));
        assert!(tr.force_finish(t(10.0), TaskId(1)));
        assert!(!tr.force_finish(t(10.0), TaskId(1)));
        // T2 now runs alone: had 95 left at t=10 (rate 1/2 for 10 s), so
        // completion at t=105.
        let sched = tr.drain_schedule();
        assert_eq!(sched.len(), 1);
        assert!(sched[0].1.approx_eq(t(105.0), 1e-9));
    }

    #[test]
    fn drain_schedule_is_pure() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(1.0, 1.0, 1.0));
        let before = tr.cursor();
        let _ = tr.drain_schedule();
        assert_eq!(tr.cursor(), before);
        assert_eq!(tr.active_len(), 1);
    }

    #[test]
    fn recording_produces_segments() {
        let mut tr = ServerTrace::new().with_recording();
        tr.add_task(t(0.0), TaskId(1), costs(0.0, 10.0, 0.0));
        tr.add_task(t(0.0), TaskId(2), costs(0.0, 10.0, 0.0));
        tr.drain();
        let segs: Vec<_> = tr
            .segments()
            .iter()
            .filter(|s| s.phase == Phase::Compute)
            .collect();
        // Both tasks share 50/50 from 0 to 20.
        assert_eq!(segs.len(), 2);
        for s in segs {
            assert_eq!(s.start, t(0.0));
            assert_eq!(s.end, t(20.0));
            assert_eq!(s.share, 0.5);
        }
    }

    #[test]
    fn segment_share_changes_split_segments() {
        let mut tr = ServerTrace::new().with_recording();
        tr.add_task(t(0.0), TaskId(1), costs(0.0, 10.0, 0.0));
        tr.advance(t(5.0));
        tr.add_task(t(5.0), TaskId(2), costs(0.0, 2.5, 0.0));
        tr.drain();
        let t1_segs: Vec<_> = tr
            .segments()
            .iter()
            .filter(|s| s.task == TaskId(1) && s.phase == Phase::Compute)
            .collect();
        // T1: full share 0..5, half share 5..10 (T2 runs 2.5 at 1/2 → done
        // t=10), full share 10..12.5.
        assert_eq!(t1_segs.len(), 3);
        assert_eq!(t1_segs[0].share, 1.0);
        assert_eq!(t1_segs[1].share, 0.5);
        assert_eq!(t1_segs[2].share, 1.0);
        assert_eq!(t1_segs[2].end, t(12.5));
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn trace_rewind_panics() {
        let mut tr = ServerTrace::new();
        tr.advance(t(10.0));
        tr.advance(t(5.0));
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn duplicate_task_panics() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(0.0, 1.0, 0.0));
        tr.add_task(t(0.0), TaskId(1), costs(0.0, 1.0, 0.0));
    }

    #[test]
    fn completion_of_missing_task() {
        let tr = ServerTrace::new();
        assert_eq!(tr.completion_of(TaskId(9)), None);
    }

    /// `drain_schedule_without` must agree bit-for-bit with the clone-based
    /// force-finish path, including its return value.
    #[test]
    fn drain_without_matches_clone_force_finish() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(2.0, 30.0, 1.0));
        tr.add_task(t(1.0), TaskId(2), costs(0.0, 10.0, 0.0));
        tr.add_task(t(3.0), TaskId(3), costs(1.0, 5.0, 2.0));
        let mut scratch = DrainScratch::new();
        let mut fast = Vec::new();
        for now in [3.0, 8.0, 20.0, 100.0] {
            for victim in [TaskId(1), TaskId(2), TaskId(3), TaskId(99)] {
                let removed = tr.drain_schedule_without(&mut scratch, t(now), victim, &mut fast);
                let mut clone = tr.clone();
                let clone_removed = clone.force_finish(t(now), victim);
                let slow = clone.drain_schedule();
                assert_eq!(removed, clone_removed, "now={now}, victim={victim}");
                assert_eq!(fast.len(), slow.len(), "now={now}, victim={victim}");
                for (a, b) in fast.iter().zip(&slow) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.as_secs().to_bits(), b.1.as_secs().to_bits());
                }
            }
        }
    }

    /// Documents a real (and initially surprising) property of the
    /// three-phase model: adding a task can make a *bystander* finish
    /// earlier, because the new task slows a competitor's input transfer
    /// and thereby delays that competitor's entry into the CPU stage.
    /// The paper's perturbation is defined on the CPU sharing intuition;
    /// the HTM clamps negative values to zero accordingly.
    #[test]
    fn three_phase_insertion_can_help_a_bystander() {
        // T1: long input transfer, then compute. T2: pure compute.
        let mut base = ServerTrace::new();
        base.add_task(t(0.0), TaskId(1), costs(10.0, 10.0, 0.0));
        base.add_task(t(0.0), TaskId(2), costs(0.0, 15.0, 0.0));
        let before: std::collections::HashMap<_, _> = base.drain_schedule().into_iter().collect();
        // Insert T3 with a big input transfer: it halves T1's input rate,
        // postponing T1's arrival in the CPU stage and letting T2 run alone
        // for longer.
        let mut with = base.clone();
        with.add_task(t(0.0), TaskId(3), costs(40.0, 1.0, 0.0));
        let after: std::collections::HashMap<_, _> = with.drain_schedule().into_iter().collect();
        assert!(
            after[&TaskId(2)] < before[&TaskId(2)],
            "bystander not helped: {:?} -> {:?}",
            before[&TaskId(2)],
            after[&TaskId(2)]
        );
    }

    /// The fast what-if drain (prefix cursor + truncation) must agree bit
    /// for bit with the clone-and-drain oracle on the probe's completion —
    /// across repeated probes at the same `now` (prefix hits), later `now`s
    /// (prefix resume), and after trace mutations (prefix invalidation).
    #[test]
    fn fast_drain_matches_slow_drain_bitwise() {
        let mut tr = ServerTrace::new();
        tr.add_task(t(0.0), TaskId(1), costs(2.0, 30.0, 1.0));
        tr.add_task(t(1.0), TaskId(2), costs(0.0, 10.0, 0.0));
        tr.add_task(t(3.0), TaskId(3), costs(1.0, 5.0, 2.0));
        let mut scratch = DrainScratch::new();
        let mut prefix = PrefixCursor::new();
        let mut fast = Vec::new();
        let mut slow;
        let mut hits = 0usize;
        let mut mutated_at = 0;
        for (i, now) in [4.0, 4.0, 4.0, 9.0, 9.0, 25.0, 25.0]
            .into_iter()
            .enumerate()
        {
            if i == 5 {
                // Mutate the trace mid-sequence: the cursor must invalidate.
                tr.add_task(t(20.0), TaskId(50), costs(0.5, 8.0, 0.5));
                mutated_at = i;
            }
            for (probe, pc) in [
                (TaskId(100), costs(1.0, 20.0, 1.0)),
                (TaskId(101), costs(0.0, 3.0, 0.0)),
            ] {
                for truncate in [false, true] {
                    let (hit, truncated) = tr.drain_schedule_into_fast(
                        &mut scratch,
                        &mut prefix,
                        t(now),
                        probe,
                        pc,
                        truncate,
                        &mut fast,
                    );
                    hits += hit as usize;
                    slow = clone_and_drain(&tr, t(now), probe, pc);
                    if truncate && truncated {
                        assert!(fast.len() < slow.len(), "truncated output must be shorter");
                    } else {
                        assert_eq!(fast.len(), slow.len(), "now={now}, probe={probe}");
                    }
                    // The fast output is a bit-exact prefix of the slow one.
                    for (a, b) in fast.iter().zip(&slow) {
                        assert_eq!(a.0, b.0, "now={now}, probe={probe}");
                        assert_eq!(a.1.as_secs().to_bits(), b.1.as_secs().to_bits());
                    }
                    assert!(
                        fast.iter().any(|e| e.0 == probe),
                        "probe completion present even when truncated"
                    );
                }
            }
        }
        // Every call but the very first at each (generation, now) resumes
        // the prefix: 7 rounds × 4 calls, minus the first round's first
        // call, minus the post-mutation round's first call.
        assert_eq!(
            hits,
            7 * 4 - 2,
            "prefix hit pattern (mutated at {mutated_at})"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    prop_compose! {
        fn arb_costs()(i in 0.0f64..5.0, c in 0.1f64..50.0, o in 0.0f64..5.0) -> PhaseCosts {
            PhaseCosts::new(i, c, o)
        }
    }

    proptest! {
        /// Every added task eventually finishes, exactly once.
        #[test]
        fn all_tasks_finish(
            specs in proptest::collection::vec((0.0f64..100.0, arb_costs()), 1..25)
        ) {
            let mut tr = ServerTrace::new();
            let mut arrivals: Vec<(f64, PhaseCosts)> = specs;
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for (i, (arr, c)) in arrivals.iter().enumerate() {
                tr.add_task(t(*arr), TaskId(i as u64), *c);
            }
            tr.drain();
            prop_assert_eq!(tr.finished().len(), arrivals.len());
            let mut ids: Vec<u64> = tr.finished().iter().map(|(id, _)| id.0).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..arrivals.len() as u64).collect::<Vec<_>>());
        }

        /// A task never finishes before its unloaded duration has elapsed
        /// (sharing can only slow it down) — the invariant behind the
        /// stretch metric being ≥ 1.
        #[test]
        fn completion_at_least_unloaded_duration(
            specs in proptest::collection::vec((0.0f64..50.0, arb_costs()), 1..20)
        ) {
            let mut tr = ServerTrace::new();
            let mut arrivals = specs;
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for (i, (arr, c)) in arrivals.iter().enumerate() {
                tr.add_task(t(*arr), TaskId(i as u64), *c);
            }
            tr.drain();
            for (id, fin) in tr.finished() {
                let (arr, c) = &arrivals[id.0 as usize];
                prop_assert!(
                    fin.as_secs() + 1e-6 >= arr + c.total(),
                    "task {id} finished at {fin:?}, arrival {arr}, unloaded {}",
                    c.total()
                );
            }
        }

        /// In the compute-only model (no transfer phases), inserting a task
        /// never speeds up already-mapped tasks: all perturbations are
        /// non-negative. (With transfer phases this is *not* a theorem:
        /// the insertion can delay a competitor's input transfer and
        /// thereby ease CPU contention for a third task — see
        /// `three_phase_insertion_can_help_a_bystander` below.)
        #[test]
        fn compute_only_insertion_only_delays(
            specs in proptest::collection::vec(0.1f64..50.0, 1..15)
                .prop_map(|cs| cs.into_iter().map(|c| PhaseCosts::new(0.0, c, 0.0)).collect::<Vec<_>>()),
            new_compute in 0.1f64..50.0,
            when_frac in 0.0f64..1.0,
        ) {
            let new_costs = PhaseCosts::new(0.0, new_compute, 0.0);
            let mut tr = ServerTrace::new();
            for (i, c) in specs.iter().enumerate() {
                tr.add_task(t(0.0), TaskId(i as u64), *c);
            }
            let horizon = specs.iter().map(|c| c.total()).sum::<f64>();
            let now = t(when_frac * horizon);
            tr.advance(now);
            let before: std::collections::HashMap<TaskId, SimTime> =
                tr.drain_schedule().into_iter().collect();
            let mut with = tr.clone();
            with.add_task(now, TaskId(999), new_costs);
            let after: std::collections::HashMap<TaskId, SimTime> =
                with.drain_schedule().into_iter().collect();
            for (task, fin_before) in &before {
                let fin_after = after[task];
                prop_assert!(
                    fin_after.as_secs() >= fin_before.as_secs() - 1e-6,
                    "{task} sped up: {fin_before:?} -> {fin_after:?}"
                );
            }
        }

        /// Advancing in many small steps gives the same completions as one
        /// big advance (piecewise integration is exact, not approximate).
        #[test]
        fn advance_granularity_irrelevant(
            specs in proptest::collection::vec(arb_costs(), 1..10),
            steps in 1usize..20,
        ) {
            let mut coarse = ServerTrace::new();
            let mut fine = ServerTrace::new();
            for (i, c) in specs.iter().enumerate() {
                coarse.add_task(t(0.0), TaskId(i as u64), *c);
                fine.add_task(t(0.0), TaskId(i as u64), *c);
            }
            let horizon = specs.iter().map(|c| c.total()).sum::<f64>() + 1.0;
            coarse.advance(t(horizon));
            for k in 1..=steps {
                fine.advance(t(horizon * k as f64 / steps as f64));
            }
            prop_assert_eq!(coarse.finished().len(), fine.finished().len());
            for (a, b) in coarse.finished().iter().zip(fine.finished()) {
                prop_assert_eq!(a.0, b.0);
                prop_assert!(a.1.approx_eq(b.1, 1e-6));
            }
        }

        /// The fast what-if drain is bit-identical to the reference drain
        /// for arbitrary resident schedules, probe costs, query times and
        /// truncation choices — including prefix-cursor reuse across a
        /// monotone sequence of query times.
        #[test]
        fn fast_drain_bitwise_equals_reference(
            specs in proptest::collection::vec((0.0f64..40.0, arb_costs()), 1..15),
            probe_costs in arb_costs(),
            nows in proptest::collection::vec(0.0f64..120.0, 1..6),
            truncate in proptest::bool::ANY,
        ) {
            let mut tr = ServerTrace::new();
            let mut arrivals = specs;
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for (i, (arr, c)) in arrivals.iter().enumerate() {
                tr.add_task(t(*arr), TaskId(i as u64), *c);
            }
            let mut sorted_nows = nows;
            sorted_nows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut scratch = DrainScratch::new();
            let mut prefix = PrefixCursor::new();
            let mut fast = Vec::new();
            for (k, now) in sorted_nows.iter().enumerate() {
                let now = t(now.max(tr.cursor().as_secs()));
                let probe = TaskId(1000 + k as u64);
                let slow = super::tests::clone_and_drain(&tr, now, probe, probe_costs);
                let (_, truncated) = tr.drain_schedule_into_fast(
                    &mut scratch, &mut prefix, now, probe, probe_costs, truncate, &mut fast,
                );
                prop_assert!(fast.iter().any(|e| e.0 == probe));
                if truncated {
                    prop_assert!(fast.len() < slow.len());
                } else {
                    prop_assert_eq!(fast.len(), slow.len());
                }
                for (a, b) in fast.iter().zip(&slow) {
                    prop_assert_eq!(a.0, b.0);
                    prop_assert_eq!(a.1.as_secs().to_bits(), b.1.as_secs().to_bits());
                }
            }
        }
    }
}
