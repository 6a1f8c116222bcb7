//! The per-server trace: the HTM's discrete simulation of one server.
//!
//! A [`ServerTrace`] models a server exactly as §2.3 prescribes: three
//! fair-shared stages (input link, CPU, output link); tasks move from stage
//! to stage; within a stage, `n` concurrent activities each progress at
//! `1/n` of the stage's nominal rate. The trace state is advanced lazily to
//! a *cursor* time; what-if questions replay it in a [`DrainScratch`] and
//! leave the trace untouched.
//!
//! Work units are "seconds on the unloaded server" taken straight from the
//! static cost tables — the same convention NetSolve's measured costs use.
//! A trace therefore never consults machine specs; heterogeneity is entirely
//! encoded in the per-server costs, as in the paper.
//!
//! # One lane kernel
//!
//! A trace keeps its state as three flat lanes, one per stage, each an
//! equal-share resource of capacity 1. A lane entry carries its task's
//! remaining work in the lane's phase and the task's phase costs, and each
//! lane caches its per-task rate. The live trace
//! ([`ServerTrace::add_task`], [`ServerTrace::advance`],
//! [`ServerTrace::force_finish`]) and every what-if replay run the same
//! event loop over that state, so the §2.3 arithmetic exists once.
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
//! now?") run through [`DrainScratch`], a reusable copy of the lanes:
//! [`ServerTrace::drain_schedule_into`] and
//! [`ServerTrace::drain_schedule_into_fast`] copy the live lanes in (no
//! heap allocation once the buffers are warm), the latter injecting one
//! hypothetical task, and run the event loop on the copy. The replay
//! performs the same floating-point operations in the same order as
//! cloning the trace, inserting the task and draining the clone
//! ([`ServerTrace::drain_schedule`]), so results agree **bit for bit**.
//!
//! The oracle is independent of the kernel: the test module keeps a
//! reference trace built on three `FairShareResource`s and a job table,
//! and the proptests diff the live trace and every drain against it.

use cas_platform::{Phase, PhaseCosts, TaskId};
use cas_sim::{Generation, SimTime};

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
#[derive(Debug, Clone, Default)]
pub struct ServerTrace {
    /// The three stage lanes and the cursor: the state every what-if
    /// replays.
    lanes: LaneSet,
    finished: Vec<(TaskId, SimTime)>,
    /// When `true`, [`Self::segments`] accumulates Gantt history.
    record_segments: bool,
    segments: Vec<TraceSegment>,
    /// Bumped on every observable state change (see the module docs); lets
    /// derived quantities (the HTM's baseline schedule cache) be reused
    /// while the stamp is unchanged.
    generation: Generation,
}

impl ServerTrace {
    /// An empty trace at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables Gantt-segment recording (off by default: what-if clones don't
    /// need history and predictions are the hot path).
    pub fn with_recording(mut self) -> Self {
        self.record_segments = true;
        self
    }

    /// The time up to which this trace has been advanced.
    pub fn cursor(&self) -> SimTime {
        self.lanes.cursor
    }

    /// The change stamp: two reads returning the same value guarantee the
    /// trace state (cursor, lane memberships, remaining work) is
    /// bit-identical, so schedules derived from it are still valid.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of tasks not yet finished.
    pub fn active_len(&self) -> usize {
        self.lanes.by_phase.iter().map(|l| l.entries.len()).sum()
    }

    /// Tasks finished so far, with completion dates, in completion order.
    pub fn finished(&self) -> &[(TaskId, SimTime)] {
        &self.finished
    }

    /// Recorded Gantt segments (empty unless recording was enabled).
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Whether `task` is mapped here and unfinished.
    pub fn is_active(&self, task: TaskId) -> bool {
        self.lanes.contains(task)
    }

    fn record_interval(&mut self, from: SimTime, to: SimTime) {
        if !self.record_segments || to <= from {
            return;
        }
        let mut new_segments = Vec::new();
        for (lane, phase) in self.lanes.by_phase.iter().zip(Phase::ALL) {
            new_segments.extend(lane.entries.iter().map(|e| TraceSegment {
                task: e.task,
                phase,
                start: from,
                end: to,
                share: lane.rate,
            }));
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
        assert!(to >= self.cursor(), "trace cannot rewind");
        let mut changed = to > self.cursor();
        while let Some(event) = self.lanes.next_event() {
            if event.when > to {
                break;
            }
            changed = true;
            self.record_interval(self.cursor(), event.when);
            if let Some(done) = self.lanes.process_event(event) {
                self.finished.push(done);
            }
        }
        self.record_interval(self.cursor(), to);
        self.lanes.settle(to);
        if changed {
            self.generation.bump();
        }
    }

    /// Maps a new task onto this server at time `now` with the given static
    /// costs. The task enters the input stage (a zero input cost falls
    /// through to compute at the same instant during the next advance).
    ///
    /// # Panics
    /// Panics if `now` is before the cursor, the task is already mapped or
    /// a phase cost is negative or not finite.
    pub fn add_task(&mut self, now: SimTime, task: TaskId, costs: PhaseCosts) {
        self.advance(now);
        for work in Phase::ALL.map(|p| costs.phase(p)) {
            assert!(
                work >= 0.0 && work.is_finite(),
                "work must be >= 0, got {work}"
            );
        }
        self.lanes.insert(task, costs);
        self.generation.bump();
    }

    /// Force-finishes a task at `now` (HTM ↔ reality synchronisation: the
    /// real server said it's done, so the model stops simulating it).
    /// Returns `true` if the task was active.
    pub fn force_finish(&mut self, now: SimTime, task: TaskId) -> bool {
        self.advance(now);
        if !self.lanes.remove_task(task) {
            return false;
        }
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
        while let Some(event) = self.lanes.next_event() {
            self.advance(event.when);
        }
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
        scratch.lanes.copy_from(&self.lanes);
        scratch.lanes.drain(None, out);
    }

    /// Drains the schedule into `out` as if `task` had been force-finished
    /// at `now` — the retract-side twin of [`Self::drain_schedule_into_fast`],
    /// and the primitive behind the HTM's incremental baseline repair on
    /// retract/observe.
    ///
    /// Reproduces `{ let mut c = trace.clone(); c.force_finish(now, task);
    /// c.drain_schedule() }` bit for bit, without cloning or mutating the
    /// trace: the scratch advances to `now` with the same event loop
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
        assert!(now >= self.cursor(), "trace cannot rewind");
        out.clear();
        let lanes = &mut scratch.lanes;
        lanes.copy_from(&self.lanes);
        lanes.advance_events_until(now);
        lanes.settle(now);
        let removed = lanes.remove_task(task);
        lanes.drain(None, out);
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
    /// event loop before the task enters the input lane, the prefix
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
    /// Panics if `now` is before the cursor or names a task still active
    /// here at `now` (mirrors [`Self::add_task`]).
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
        assert!(now >= self.cursor(), "trace cannot rewind");
        out.clear();
        let lanes = &mut scratch.lanes;
        let hit = prefix.usable_for(self, now);
        lanes.copy_from(if hit { &prefix.lanes } else { &self.lanes });
        // Shared prefix: process every baseline event up to `now`,
        // discarding pre-now completions exactly like the clone path's
        // `finished` list. Lanes are left at the last processed event —
        // the snapshot point — and only then settled to `now`.
        let moved = lanes.advance_events_until(now);
        if !hit || moved > 0 {
            prefix.lanes.copy_from(lanes);
            prefix.events_until = now;
            prefix.generation = self.generation();
            prefix.valid = true;
        }
        // On a hit that processed no event the snapshot already *is* this
        // state: skip the copy-back and keep the older — strictly more
        // reusable — `events_until`.
        lanes.settle(now);
        lanes.insert(task, costs);
        let truncated = lanes.drain(truncate.then_some(task), out);
        (hit, truncated)
    }
}

/// Reusable buffers for zero-clone what-if drains.
///
/// Holds a copy of one trace's lanes. [`ServerTrace::drain_schedule_into`]
/// and its siblings copy the live lanes in (reusing capacity), then run the
/// trace's own event loop on the copy. Every replay overwrites the whole
/// scratch — from the live trace or from a [`PrefixCursor`] — before it
/// reads any of it, so one scratch serves every trace: the HTM owns a
/// single one for its whole farm.
#[derive(Debug, Clone, Default)]
pub struct DrainScratch {
    lanes: LaneSet,
}

impl DrainScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A server's three stage lanes and their clock — the state a live trace
/// keeps and every what-if replays — and the one event loop both run.
#[derive(Debug, Clone, Default)]
struct LaneSet {
    /// One lane per phase, in [`Phase::ALL`] order.
    by_phase: [Lane; 3],
    /// The last processed event, or the instant the lanes were last
    /// settled to.
    cursor: SimTime,
}

/// One stage of a server: an equal-share resource of capacity 1 (§2.3).
///
/// Kept apart from `FairShareResource`, which serves the ground-truth
/// servers: a lane carries per-entry phase costs and removes by position,
/// and never needs generations or a capacity change.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// The lane's tasks in insertion order.
    entries: Vec<LaneEntry>,
    /// Last time progress was integrated up to.
    updated_at: SimTime,
    /// Each entry's progress rate, `1 / max(len, 1)`, re-derived on every
    /// membership change rather than on every scan. An empty lane never
    /// reads it.
    rate: f64,
}

/// One task inside a [`Lane`].
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    task: TaskId,
    /// Work left in the lane's phase.
    remaining: f64,
    /// The task's static phase costs, carried along so a lane transition
    /// reads the next phase's work from the entry itself.
    costs: PhaseCosts,
}

/// The next phase completion of a lane set.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Index of the lane it completes in.
    lane: usize,
    /// Position of the completing entry within that lane.
    pos: usize,
    task: TaskId,
    when: SimTime,
}

impl Lane {
    /// Re-derives [`Self::rate`]; called on every membership change.
    fn set_rate(&mut self) {
        self.rate = 1.0 / self.entries.len().max(1) as f64;
    }

    /// Appends an entry.
    fn push(&mut self, entry: LaneEntry) {
        self.entries.push(entry);
        self.set_rate();
    }

    /// Removes the entry at `pos`, later entries keeping their order.
    fn remove(&mut self, pos: usize) -> LaneEntry {
        let entry = self.entries.remove(pos);
        self.set_rate();
        entry
    }

    /// Position of `task`'s entry, if it is in this lane.
    fn position(&self, task: TaskId) -> Option<usize> {
        self.entries.iter().position(|e| e.task == task)
    }

    /// The position of the first entry with the least remaining work (ties
    /// go to the earliest added) and its completion time, seen from `now`.
    fn next_completion(&self, now: SimTime) -> Option<(usize, SimTime)> {
        let lag = (now - self.updated_at).as_secs();
        self.entries
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.remaining
                    .partial_cmp(&b.1.remaining)
                    .expect("remaining work is never NaN")
            })
            .map(|(pos, e)| {
                let dt = ((e.remaining / self.rate) - lag).max(0.0);
                (pos, now + SimTime::from_secs(dt))
            })
    }

    /// Integrates progress up to `now`: every entry loses `rate · dt` of
    /// work, clamped at zero (float rounding may overshoot the exact
    /// completion instant by a hair).
    fn advance(&mut self, now: SimTime) {
        if self.entries.is_empty() || now == self.updated_at {
            self.updated_at = now;
            return;
        }
        let dt = (now - self.updated_at).as_secs();
        let done = self.rate * dt;
        for e in &mut self.entries {
            e.remaining = (e.remaining - done).max(0.0);
        }
        self.updated_at = now;
    }
}

impl LaneSet {
    /// Overwrites this set with `src`, reusing the entry buffers.
    fn copy_from(&mut self, src: &LaneSet) {
        for (dst, src) in self.by_phase.iter_mut().zip(&src.by_phase) {
            dst.entries.clone_from(&src.entries);
            dst.updated_at = src.updated_at;
            dst.rate = src.rate;
        }
        self.cursor = src.cursor;
    }

    /// Whether `task` is in one of the lanes.
    fn contains(&self, task: TaskId) -> bool {
        self.by_phase.iter().any(|l| l.position(task).is_some())
    }

    /// Puts `task` at the tail of the input lane with its input work.
    ///
    /// # Panics
    /// Panics if `task` is still in a lane. Callers settle the lanes to
    /// the insertion instant first, so a task that has finished by then
    /// may be inserted again, as on a cloned trace.
    fn insert(&mut self, task: TaskId, costs: PhaseCosts) {
        assert!(
            !self.contains(task),
            "task {task} already mapped on this trace"
        );
        self.by_phase[0].push(LaneEntry {
            task,
            remaining: costs.input,
            costs,
        });
    }

    /// Removes `task` from whichever lane holds it, preserving the order
    /// of the remaining entries. Returns whether the task was present.
    fn remove_task(&mut self, task: TaskId) -> bool {
        for lane in &mut self.by_phase {
            if let Some(pos) = lane.position(task) {
                lane.remove(pos);
                return true;
            }
        }
        false
    }

    /// The earliest completion across the lanes, ties to the earliest
    /// phase.
    fn next_event(&self) -> Option<Event> {
        let mut best: Option<Event> = None;
        for (lane, l) in self.by_phase.iter().enumerate() {
            if let Some((pos, when)) = l.next_completion(self.cursor) {
                let better = match &best {
                    None => true,
                    Some(b) => when < b.when,
                };
                if better {
                    best = Some(Event {
                        lane,
                        pos,
                        task: l.entries[pos].task,
                        when,
                    });
                }
            }
        }
        best
    }

    /// The event loop of [`ServerTrace::advance`] (without Gantt
    /// recording), stopped at `to`: processes every phase completion at or
    /// before `to`, discarding final completions like the clone path's
    /// `finished` list, and leaves all lanes advanced exactly to the last
    /// processed event (or untouched when no event fires). [`Self::settle`]
    /// then integrates the partial interval up to `to`.
    ///
    /// The split exists so the prefix cursor can snapshot the scratch at
    /// the last processed event — the only state that is bit-identical
    /// across every replay that passes that event (the trailing partial
    /// advance splits an interval, and `(w − r·dt₁) − r·dt₂ ≠ w − r·(dt₁+dt₂)`
    /// in floats). Returns the number of events processed, so the
    /// prefix-cursor path can tell a no-op resume (state unchanged,
    /// snapshot still exact) from one that moved the scratch forward.
    fn advance_events_until(&mut self, to: SimTime) -> usize {
        let mut processed = 0;
        while let Some(event) = self.next_event() {
            if event.when > to {
                break;
            }
            self.process_event(event);
            processed += 1;
        }
        processed
    }

    /// One step of the event loop: advance every lane to the event, retire
    /// the completing entry from its lane, and either feed it to the next
    /// lane at that phase's cost or return its final completion. The live
    /// trace and every replay run through here, so they share the exact
    /// arithmetic.
    fn process_event(&mut self, event: Event) -> Option<(TaskId, SimTime)> {
        for lane in &mut self.by_phase {
            lane.advance(event.when);
        }
        self.cursor = event.when;
        let mut entry = self.by_phase[event.lane].remove(event.pos);
        assert_eq!(entry.task, event.task, "completing task is in its lane");
        match Phase::ALL.get(event.lane + 1) {
            Some(&next) => {
                entry.remaining = entry.costs.phase(next);
                self.by_phase[event.lane + 1].push(entry);
                None
            }
            None => Some((entry.task, event.when)),
        }
    }

    /// The trailing half of [`ServerTrace::advance`]: integrates the
    /// partial interval from the last processed event up to `to` on every
    /// lane.
    fn settle(&mut self, to: SimTime) {
        for lane in &mut self.by_phase {
            lane.advance(to);
        }
        self.cursor = to;
    }

    /// [`ServerTrace::drain`] without the trace: processes events until
    /// every lane is empty, appending completions to `out` in completion
    /// order.
    ///
    /// One `next_event` scan per event. The trace's `drain` → `advance`
    /// nesting also settles every lane to each event batch's instant, a
    /// no-op here because `process_event` has already advanced every lane
    /// to it; the sequence of `process_event` calls is the same.
    ///
    /// With `stop` set, the drain returns as soon as the next event lies
    /// strictly after `stop`'s completion: `out` is then a bit-exact prefix
    /// of the full drain, ending with `stop`'s same-instant tie batch.
    /// Returns `true` when it stopped early (tasks remain in the lanes).
    fn drain(&mut self, stop: Option<TaskId>, out: &mut Vec<(TaskId, SimTime)>) -> bool {
        let mut stop_at: Option<SimTime> = None;
        while let Some(event) = self.next_event() {
            if stop_at.is_some_and(|t| event.when > t) {
                return true;
            }
            if let Some(done) = self.process_event(event) {
                out.push(done);
                if Some(done.0) == stop {
                    stop_at = Some(done.1);
                }
            }
        }
        false
    }
}

/// A reusable snapshot of a [`DrainScratch`] taken at the last processed
/// event of the shared advance-to-`now` prefix of a what-if drain — the
/// baseline-prefix cursor of the fast stage-2 path.
///
/// Every probe of a decision round replays the same baseline events on a
/// server before injecting its hypothetical task. The cursor caches the
/// scratch state *after* the event loop but *before* the trailing partial
/// advance ([`LaneSet::settle`]) — the unique point that is
/// bit-identical across all replays that pass it (see
/// [`LaneSet::advance_events_until`]). A later query at the same or a
/// later `now` restores the snapshot and resumes the event loop instead of
/// replaying from the live trace state.
///
/// Validity is the caller's job (the HTM keys cursors by trace
/// [`Generation`] and invalidates on mismatch or when `now` moves
/// backwards past [`Self::events_until`]).
#[derive(Debug, Clone, Default)]
pub struct PrefixCursor {
    /// The scratch's lanes and clock at the snapshot point, phase costs
    /// included.
    lanes: LaneSet,
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

    /// Whether the snapshot can seed a replay of `trace` at `now`.
    fn usable_for(&self, trace: &ServerTrace, now: SimTime) -> bool {
        self.valid && self.generation == trace.generation() && now >= self.events_until
    }
}

/// The oracle: the trace as it stood before the lane kernel, trimmed to
/// what the tests drive. Three `FairShareResource` lanes and a job table,
/// with an event loop of its own; it shares no code with [`LaneSet`], so
/// diffing against it checks the kernel against an independent model.
#[cfg(test)]
mod reference {
    use cas_platform::{FairShareResource, Phase, PhaseCosts, TaskId};
    use cas_sim::SimTime;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    pub(super) struct ReferenceTrace {
        pub(super) cursor: SimTime,
        link_in: FairShareResource<TaskId>,
        cpu: FairShareResource<TaskId>,
        link_out: FairShareResource<TaskId>,
        /// Each active task's current phase and static costs.
        pub(super) jobs: BTreeMap<TaskId, (Phase, PhaseCosts)>,
        pub(super) finished: Vec<(TaskId, SimTime)>,
    }

    impl ReferenceTrace {
        pub(super) fn new() -> Self {
            ReferenceTrace {
                cursor: SimTime::ZERO,
                link_in: FairShareResource::new(1.0),
                cpu: FairShareResource::new(1.0),
                link_out: FairShareResource::new(1.0),
                jobs: BTreeMap::new(),
                finished: Vec::new(),
            }
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

        pub(super) fn advance(&mut self, to: SimTime) {
            assert!(to >= self.cursor, "trace cannot rewind");
            while let Some((phase, task, when)) = self.next_event() {
                if when > to {
                    break;
                }
                for p in Phase::ALL {
                    self.resource_mut(p).advance(when);
                }
                self.cursor = when;
                self.resource_mut(phase).remove(when, task);
                let state = self.jobs.get_mut(&task).expect("job state exists");
                match phase.next() {
                    Some(next) => {
                        state.0 = next;
                        let cost = state.1.phase(next);
                        self.resource_mut(next).add(when, task, cost);
                    }
                    None => {
                        self.jobs.remove(&task);
                        self.finished.push((task, when));
                    }
                }
            }
            for p in Phase::ALL {
                self.resource_mut(p).advance(to);
            }
            self.cursor = to;
        }

        pub(super) fn add_task(&mut self, now: SimTime, task: TaskId, costs: PhaseCosts) {
            self.advance(now);
            assert!(!self.jobs.contains_key(&task), "task {task} already mapped");
            self.jobs.insert(task, (Phase::Input, costs));
            self.link_in.add(now, task, costs.input);
        }

        pub(super) fn force_finish(&mut self, now: SimTime, task: TaskId) -> bool {
            self.advance(now);
            let Some((phase, _)) = self.jobs.remove(&task) else {
                return false;
            };
            self.resource_mut(phase).remove(now, task);
            self.finished.push((task, now));
            true
        }

        pub(super) fn drain(&mut self) {
            while !self.jobs.is_empty() {
                let (_, _, when) = self
                    .next_event()
                    .expect("active jobs must produce a next event");
                self.advance(when);
            }
        }

        pub(super) fn drain_schedule(&self) -> Vec<(TaskId, SimTime)> {
            let mut clone = self.clone();
            let already = clone.finished.len();
            clone.drain();
            clone.finished.split_off(already)
        }

        /// The what-if oracle: clone, insert the probe at `now`, drain the
        /// clone.
        pub(super) fn what_if(
            &self,
            now: SimTime,
            probe: TaskId,
            costs: PhaseCosts,
        ) -> Vec<(TaskId, SimTime)> {
            let mut clone = self.clone();
            clone.add_task(now, probe, costs);
            clone.drain_schedule()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceTrace;
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn costs(i: f64, c: f64, o: f64) -> PhaseCosts {
        PhaseCosts::new(i, c, o)
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
        let completion = |tr: &ServerTrace| {
            let sched = tr.drain_schedule();
            sched
                .iter()
                .find(|e| e.0 == TaskId(3))
                .expect("T3 mapped")
                .1
        };
        let f_on_s = completion(&s_with);
        let f_on_s2 = completion(&s2_with);
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
    fn empty_trace_drains_to_nothing() {
        let tr = ServerTrace::new();
        assert!(tr.drain_schedule().is_empty());
        let mut out = vec![(TaskId(9), t(1.0))];
        tr.drain_schedule_into(&mut DrainScratch::new(), &mut out);
        assert!(out.is_empty());
    }

    /// `drain_schedule_without` must agree bit-for-bit with the reference
    /// trace's clone-based force-finish path, including its return value.
    #[test]
    fn drain_without_matches_clone_force_finish() {
        let mut tr = ServerTrace::new();
        let mut reference = ReferenceTrace::new();
        for (at, id, pc) in [
            (0.0, 1, costs(2.0, 30.0, 1.0)),
            (1.0, 2, costs(0.0, 10.0, 0.0)),
            (3.0, 3, costs(1.0, 5.0, 2.0)),
        ] {
            tr.add_task(t(at), TaskId(id), pc);
            reference.add_task(t(at), TaskId(id), pc);
        }
        let mut scratch = DrainScratch::new();
        let mut fast = Vec::new();
        for now in [3.0, 8.0, 20.0, 100.0] {
            for victim in [TaskId(1), TaskId(2), TaskId(3), TaskId(99)] {
                let removed = tr.drain_schedule_without(&mut scratch, t(now), victim, &mut fast);
                let mut clone = reference.clone();
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
    /// for bit with the reference trace's clone-and-drain on the probe's
    /// completion — across repeated probes at the same `now` (prefix hits),
    /// later `now`s (prefix resume), and after trace mutations (prefix
    /// invalidation).
    #[test]
    fn fast_drain_matches_slow_drain_bitwise() {
        let mut tr = ServerTrace::new();
        let mut reference = ReferenceTrace::new();
        for (at, id, pc) in [
            (0.0, 1, costs(2.0, 30.0, 1.0)),
            (1.0, 2, costs(0.0, 10.0, 0.0)),
            (3.0, 3, costs(1.0, 5.0, 2.0)),
        ] {
            tr.add_task(t(at), TaskId(id), pc);
            reference.add_task(t(at), TaskId(id), pc);
        }
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
                reference.add_task(t(20.0), TaskId(50), costs(0.5, 8.0, 0.5));
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
                    slow = reference.what_if(t(now), probe, pc);
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
    use super::reference::ReferenceTrace;
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

    prop_compose! {
        /// Small whole-second costs: equal remaining work and equal
        /// completion instants become the rule instead of the exception.
        fn arb_int_costs()(i in 0u32..3, c in 1u32..4, o in 0u32..3) -> PhaseCosts {
            PhaseCosts::new(f64::from(i), f64::from(c), f64::from(o))
        }
    }

    /// Asserts two schedules agree entry by entry: task id and the bits of
    /// the completion date.
    fn assert_same_schedule(
        fast: &[(TaskId, SimTime)],
        slow: &[(TaskId, SimTime)],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(slow) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.as_secs().to_bits(), b.1.as_secs().to_bits());
        }
        Ok(())
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

        /// The fast what-if drain is bit-identical to the reference trace's
        /// clone-and-drain for arbitrary resident schedules, probe costs,
        /// query times and truncation choices — including prefix-cursor
        /// reuse across a monotone sequence of query times.
        #[test]
        fn fast_drain_bitwise_equals_reference(
            specs in proptest::collection::vec((0.0f64..40.0, arb_costs()), 1..15),
            probe_costs in arb_costs(),
            nows in proptest::collection::vec(0.0f64..120.0, 1..6),
            truncate in proptest::bool::ANY,
        ) {
            let mut tr = ServerTrace::new();
            let mut reference = ReferenceTrace::new();
            let mut arrivals = specs;
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for (i, (arr, c)) in arrivals.iter().enumerate() {
                tr.add_task(t(*arr), TaskId(i as u64), *c);
                reference.add_task(t(*arr), TaskId(i as u64), *c);
            }
            let mut sorted_nows = nows;
            sorted_nows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut scratch = DrainScratch::new();
            let mut prefix = PrefixCursor::new();
            let mut fast = Vec::new();
            for (k, now) in sorted_nows.iter().enumerate() {
                let now = t(now.max(tr.cursor().as_secs()));
                let probe = TaskId(1000 + k as u64);
                let slow = reference.what_if(now, probe, probe_costs);
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

        /// The drain kernel under forced ties: whole-second arrivals and
        /// costs make lanes hold equal remaining work (the first-minimum
        /// tie-break inside a lane), lanes complete at the same instant
        /// (the earliest-phase tie-break across lanes) and events land
        /// exactly on query instants. The fast what-if drain must match
        /// the reference trace's clone-and-drain, truncated or not, and the
        /// scratch baseline drain must match the reference's drain — entry
        /// by entry, id and completion bits.
        #[test]
        fn drain_kernel_ties_match_reference(
            specs in proptest::collection::vec((0u32..6, arb_int_costs()), 1..41),
            probe_costs in arb_int_costs(),
            nows in proptest::collection::vec(0u32..41, 1..6),
            truncate in proptest::bool::ANY,
        ) {
            let mut tr = ServerTrace::new();
            let mut reference = ReferenceTrace::new();
            let mut arrivals = specs;
            arrivals.sort_by_key(|a| a.0);
            for (i, (arr, c)) in arrivals.iter().enumerate() {
                tr.add_task(t(f64::from(*arr)), TaskId(i as u64), *c);
                reference.add_task(t(f64::from(*arr)), TaskId(i as u64), *c);
            }
            let mut sorted_nows = nows;
            sorted_nows.sort_unstable();
            let mut scratch = DrainScratch::new();
            let mut prefix = PrefixCursor::new();
            let mut fast = Vec::new();
            for (k, now) in sorted_nows.iter().enumerate() {
                let now = t(f64::from(*now).max(tr.cursor().as_secs()));
                let probe = TaskId(1000 + k as u64);
                let slow = reference.what_if(now, probe, probe_costs);
                let (_, truncated) = tr.drain_schedule_into_fast(
                    &mut scratch, &mut prefix, now, probe, probe_costs, truncate, &mut fast,
                );
                prop_assert!(fast.iter().any(|e| e.0 == probe));
                if truncated {
                    prop_assert!(fast.len() < slow.len());
                    assert_same_schedule(&fast, &slow[..fast.len()])?;
                } else {
                    assert_same_schedule(&fast, &slow)?;
                }
                tr.drain_schedule_into(&mut scratch, &mut fast);
                assert_same_schedule(&fast, &reference.drain_schedule())?;
            }
        }

        /// The live trace is the reference trace, operation for operation:
        /// random interleavings of `add_task`, `advance`, `force_finish`
        /// and the four read paths (see [`drive_against_reference`]).
        #[test]
        fn flat_trace_matches_reference(
            ops in proptest::collection::vec(arb_op(), 1..60),
        ) {
            drive_against_reference(&ops)?;
        }

        /// [`flat_trace_matches_reference`] with whole-second costs and
        /// gaps, so lanes hold equal remaining work (the in-lane
        /// first-minimum tie-break), lanes complete at the same instant
        /// (the cross-lane earliest-phase tie-break) and operations land
        /// exactly on completion instants.
        #[test]
        fn flat_trace_matches_reference_under_ties(
            ops in proptest::collection::vec(arb_int_op(), 1..100),
        ) {
            drive_against_reference(&ops)?;
        }
    }

    /// One operation of [`drive_against_reference`]: `(kind, gap before
    /// it, pick, costs, truncate)`.
    type Op = (u32, f64, u32, PhaseCosts, bool);

    /// A task id no operation ever maps.
    const NEVER_MAPPED: TaskId = TaskId(u64::MAX);

    prop_compose! {
        /// One operation in three comes at the previous one's instant.
        fn arb_op()(
            kind in 0u32..10,
            zero_gap in 0u32..3,
            gap in 0.0f64..12.0,
            pick in 0u32..1000,
            costs in arb_costs(),
            truncate in proptest::bool::ANY,
        ) -> Op {
            (kind, if zero_gap == 0 { 0.0 } else { gap }, pick, costs, truncate)
        }
    }

    prop_compose! {
        fn arb_int_op()(
            kind in 0u32..10,
            gap in 0u32..4,
            pick in 0u32..1000,
            costs in arb_int_costs(),
            truncate in proptest::bool::ANY,
        ) -> Op {
            (kind, f64::from(gap), pick, costs, truncate)
        }
    }

    /// Applies `ops` to a live trace and to the reference and compares
    /// them after every operation: the cursor, the active set, the
    /// finished list, `force_finish`'s answer and every schedule a read
    /// path returns, entry by entry (id and `f64` bits). Victims of
    /// `force_finish` and `drain_schedule_without` are active, already
    /// finished or never-mapped tasks; fast drains reuse one prefix
    /// cursor throughout, so consecutive ones resume it.
    fn drive_against_reference(ops: &[Op]) -> Result<(), TestCaseError> {
        let mut flat = ServerTrace::new();
        let mut reference = ReferenceTrace::new();
        let mut scratch = DrainScratch::new();
        let mut prefix = PrefixCursor::new();
        let mut out = Vec::new();
        let mut now = 0.0;
        let mut next_id = 0u64;
        for &(kind, gap, pick, costs, truncate) in ops {
            now += gap;
            let when = t(now);
            let k = (pick / 3) as usize;
            let victim = match pick % 3 {
                0 if !reference.jobs.is_empty() => {
                    *reference.jobs.keys().nth(k % reference.jobs.len()).unwrap()
                }
                1 if !reference.finished.is_empty() => {
                    reference.finished[k % reference.finished.len()].0
                }
                _ => NEVER_MAPPED,
            };
            match kind {
                0..=2 => {
                    let task = TaskId(next_id);
                    next_id += 1;
                    flat.add_task(when, task, costs);
                    reference.add_task(when, task, costs);
                }
                3 => {
                    flat.advance(when);
                    reference.advance(when);
                }
                4 => {
                    let removed = flat.force_finish(when, victim);
                    prop_assert_eq!(removed, reference.force_finish(when, victim));
                }
                5 => {
                    let slow = reference.drain_schedule();
                    assert_same_schedule(&flat.drain_schedule(), &slow)?;
                    flat.drain_schedule_into(&mut scratch, &mut out);
                    assert_same_schedule(&out, &slow)?;
                }
                6 => {
                    let removed = flat.drain_schedule_without(&mut scratch, when, victim, &mut out);
                    let mut clone = reference.clone();
                    prop_assert_eq!(removed, clone.force_finish(when, victim));
                    assert_same_schedule(&out, &clone.drain_schedule())?;
                }
                _ => {
                    let probe = TaskId(1_000_000 + u64::from(pick));
                    let (_, truncated) = flat.drain_schedule_into_fast(
                        &mut scratch,
                        &mut prefix,
                        when,
                        probe,
                        costs,
                        truncate,
                        &mut out,
                    );
                    let slow = reference.what_if(when, probe, costs);
                    prop_assert!(out.iter().any(|e| e.0 == probe));
                    if truncated {
                        prop_assert!(out.len() < slow.len());
                        assert_same_schedule(&out, &slow[..out.len()])?;
                    } else {
                        assert_same_schedule(&out, &slow)?;
                    }
                }
            }
            prop_assert_eq!(
                flat.cursor().as_secs().to_bits(),
                reference.cursor.as_secs().to_bits()
            );
            prop_assert_eq!(flat.active_len(), reference.jobs.len());
            for task in (0..next_id).map(TaskId).chain([NEVER_MAPPED]) {
                prop_assert_eq!(flat.is_active(task), reference.jobs.contains_key(&task));
            }
            assert_same_schedule(flat.finished(), &reference.finished)?;
        }
        Ok(())
    }
}
