//! The simulation driver.
//!
//! A thin loop over the kernel's [`EventQueue`]: pop the earliest event,
//! advance the clock, hand the event to the [`World`], which may schedule
//! further events through the [`Scheduler`] handle. The driver enforces
//! the fundamental DES invariant — time never goes backwards — and offers
//! run-until-horizon and step-by-step execution for tests.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Handle through which a [`World`] schedules new events.
///
/// Wraps the event queue so the world cannot pop events or rewind time; it
/// can only append to the future.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` seconds from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative (via `SimTime` construction in the
    /// caller) — scheduling into the past is always a logic error.
    pub fn in_(&mut self, delay: SimTime, event: E) -> u64 {
        self.at(self.now + delay, event)
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn at(&mut self, at: SimTime, event: E) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?}, at={:?}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` to fire immediately (at the current instant, after
    /// all events already queued for this instant).
    pub fn immediately(&mut self, event: E) -> u64 {
        self.queue.push(self.now, event)
    }

    /// Sets aside `n` sequence numbers for events pushed later with
    /// [`Self::push_reserved`]; returns the first (see
    /// [`EventQueue::reserve`]).
    pub fn reserve(&mut self, n: u64) -> u64 {
        self.queue.reserve(n)
    }

    /// Schedules `event` at the absolute time `at` under the reserved
    /// sequence number `seq`: it pops where it would have, had it been
    /// pushed when `seq` was reserved.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time or `seq` was never
    /// reserved.
    pub fn push_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?}, at={:?}",
            self.now,
            at
        );
        self.queue.push_reserved(at, seq, event);
    }
}

/// The model being simulated.
///
/// Implementors own all mutable state; the driver owns the clock and queue.
pub trait World {
    /// Event payload type.
    type Event;

    /// Handles one event at time `now`, scheduling follow-ups via `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// Called once before the first event is processed, to seed the queue.
    fn init(&mut self, sched: &mut Scheduler<'_, Self::Event>) {
        let _ = sched;
    }
}

/// Outcome of a [`Simulation::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Exhausted,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was consumed with events still pending.
    BudgetExhausted,
}

/// A discrete-event simulation: a [`World`] plus clock and queue.
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
    /// High-water mark of pending events, sampled after each handled
    /// event — the queue-pressure figure the periodic-event work (load
    /// reports, noise redraws) dominates on huge farms.
    peak_pending: usize,
    initialized: bool,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            peak_pending: 0,
            initialized: false,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The largest number of pending events observed after any handled
    /// event — the kernel's queue-pressure high-water mark.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for test setup between steps).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Immutable access to the event queue (diagnostics).
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event from outside the world (setup code, tests).
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    fn ensure_init(&mut self) {
        if !self.initialized {
            self.initialized = true;
            let mut sched = Scheduler {
                queue: &mut self.queue,
                now: self.now,
            };
            self.world.init(&mut sched);
        }
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.ensure_init();
        let popped = {
            // The pop is the kernel's own share of every event: the
            // front compare and the heap's sift land here. One pop in a
            // sampling period is timed for all of them.
            let _sp = crate::prof::pop_span(self.processed);
            self.queue.pop()
        };
        let Some(entry) = popped else {
            return false;
        };
        debug_assert!(entry.at >= self.now, "event queue returned a past event");
        self.now = entry.at;
        self.processed += 1;
        let mut sched = Scheduler {
            queue: &mut self.queue,
            now: self.now,
        };
        self.world.handle(self.now, entry.event, &mut sched);
        let pending = self.queue.len();
        if pending > self.peak_pending {
            self.peak_pending = pending;
        }
        true
    }

    /// Runs until the queue drains, the horizon passes, or `max_events`
    /// events have been processed (a safety net against runaway models).
    pub fn run(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        self.ensure_init();
        let mut budget = max_events;
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Exhausted,
                Some(t) if t > horizon => return RunOutcome::HorizonReached,
                Some(_) => {}
            }
            if budget == 0 {
                return RunOutcome::BudgetExhausted;
            }
            budget -= 1;
            self.step();
        }
    }

    /// Runs to queue exhaustion with a default event budget of one billion.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run(SimTime::MAX, 1_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: event `n` schedules event `n-1` one second
    /// later, until zero.
    struct Countdown {
        seen: Vec<(f64, u32)>,
    }

    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((now.as_secs(), ev));
            if ev > 0 {
                sched.in_(SimTime::from_secs(1.0), ev - 1);
            }
        }
    }

    #[test]
    fn countdown_runs_to_exhaustion() {
        let mut sim = Simulation::new(Countdown { seen: vec![] });
        sim.schedule(SimTime::from_secs(0.5), 3);
        let outcome = sim.run_to_completion();
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(
            sim.world().seen,
            vec![(0.5, 3), (1.5, 2), (2.5, 1), (3.5, 0)]
        );
        assert_eq!(sim.processed(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(3.5));
        assert_eq!(sim.peak_pending(), 1, "countdown keeps one event in flight");
    }

    #[test]
    fn horizon_stops_early() {
        let mut sim = Simulation::new(Countdown { seen: vec![] });
        sim.schedule(SimTime::ZERO, 100);
        let outcome = sim.run(SimTime::from_secs(5.0), u64::MAX);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Events at t=0..=5 processed; the next (t=6) is still queued.
        assert_eq!(sim.world().seen.len(), 6);
        assert_eq!(sim.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn budget_stops_early() {
        let mut sim = Simulation::new(Countdown { seen: vec![] });
        sim.schedule(SimTime::ZERO, 100);
        let outcome = sim.run(SimTime::MAX, 10);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(sim.processed(), 10);
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut sim = Simulation::new(Countdown { seen: vec![] });
        assert!(!sim.step());
    }

    /// A world whose init seeds the first event.
    struct SelfStarting {
        fired: bool,
    }
    impl World for SelfStarting {
        type Event = ();
        fn init(&mut self, sched: &mut Scheduler<'_, ()>) {
            sched.at(SimTime::from_secs(1.0), ());
        }
        fn handle(&mut self, _now: SimTime, _ev: (), _sched: &mut Scheduler<'_, ()>) {
            self.fired = true;
        }
    }

    #[test]
    fn init_seeds_queue() {
        let mut sim = Simulation::new(SelfStarting { fired: false });
        sim.run_to_completion();
        assert!(sim.world().fired);
    }

    #[test]
    fn simultaneous_events_fifo_through_driver() {
        struct Recorder {
            order: Vec<u32>,
        }
        impl World for Recorder {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.order.push(ev);
                // Event 0 spawns two immediate events; they must run after
                // already-queued same-instant events.
                if ev == 0 {
                    sched.immediately(10);
                    sched.immediately(11);
                }
            }
        }
        let mut sim = Simulation::new(Recorder { order: vec![] });
        sim.schedule(SimTime::ZERO, 0);
        sim.schedule(SimTime::ZERO, 1);
        sim.run_to_completion();
        assert_eq!(sim.world().order, vec![0, 1, 10, 11]);
        // After event 0: event 1 plus the two spawned events are pending.
        assert_eq!(sim.peak_pending(), 3);
    }

    /// A stream pushed one link at a time under numbers reserved at
    /// `init` pops exactly like the same stream pushed whole at `init`,
    /// same-instant ties with the events it spawns included, while the
    /// queue holds one link of it at a time.
    #[test]
    fn reserved_chain_pops_like_an_upfront_push() {
        const ARRIVALS: [f64; 5] = [0.0, 1.0, 1.0, 2.0, 2.0];
        struct Stream {
            chained: bool,
            base: u64,
            order: Vec<(f64, u32)>,
        }
        impl World for Stream {
            type Event = u32;
            fn init(&mut self, sched: &mut Scheduler<'_, u32>) {
                if self.chained {
                    self.base = sched.reserve(ARRIVALS.len() as u64);
                    sched.push_reserved(SimTime::from_secs(ARRIVALS[0]), self.base, 0);
                } else {
                    for (i, &at) in ARRIVALS.iter().enumerate() {
                        sched.at(SimTime::from_secs(at), i as u32);
                    }
                }
            }
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.order.push((now.as_secs(), ev));
                let i = ev as usize;
                if ev >= 100 {
                    return;
                }
                if self.chained && i + 1 < ARRIVALS.len() {
                    let at = SimTime::from_secs(ARRIVALS[i + 1]);
                    sched.push_reserved(at, self.base + i as u64 + 1, ev + 1);
                }
                // Each arrival spawns follow-ups that tie with the next
                // arrivals' instants.
                sched.in_(SimTime::from_secs(1.0), 100 + ev);
                sched.immediately(200 + ev);
            }
        }
        let run = |chained| {
            let mut sim = Simulation::new(Stream {
                chained,
                base: 0,
                order: Vec::new(),
            });
            sim.run_to_completion();
            (sim.peak_pending(), sim.into_world().order)
        };
        let (peak_upfront, upfront) = run(false);
        let (peak_chained, chained) = run(true);
        assert_eq!(chained, upfront);
        assert!(
            peak_chained < peak_upfront,
            "{peak_chained} vs {peak_upfront}"
        );
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
                sched.at(now - SimTime::from_secs(1.0), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule(SimTime::from_secs(5.0), ());
        sim.run_to_completion();
    }
}
