//! The shared-resource model of §2.3.
//!
//! "We consider a simple but realistic model when a server executes `n`
//! tasks: each task is given `1/n` of the total power of the resource."
//!
//! [`FairShareResource`] implements exactly that, for any resource whose
//! activities carry a scalar amount of remaining *work*: a CPU (work =
//! seconds of dedicated compute at nominal speed), a network link (work = MB
//! to move). Between membership changes the progress rate is constant, so
//! the state only needs updating at event boundaries — the same
//! piecewise-constant integration the paper's HTM performs ("all tasks
//! mapped on a given server progress at the same speed until a new task
//! arrives or a running task finishes").
//!
//! The resource does not own any event scheduling. The caller asks
//! [`FairShareResource::next_completion`] after every membership or capacity
//! change and (re)schedules its completion event, using the embedded
//! [`Generation`] stamp to invalidate the previously scheduled one.

use cas_sim::{Generation, SimTime};

/// A capacity shared equally among its current activities.
///
/// `K` identifies activities (typically a `TaskId`). Keys must be unique
/// among concurrently running activities.
///
/// Activities are stored **structure-of-arrays**: keys in one `Vec`,
/// remaining-work scalars in a parallel `Vec` (same positions). The two
/// hot loops — [`Self::advance`]'s uniform work subtraction and
/// [`Self::next_completion`]'s minimum scan — then stream over a dense
/// `f64` slice the compiler can vectorise, instead of striding over
/// key/value pairs; the `fairshare_layout` micro-bench in `cas-bench`
/// measures the layouts against each other at the 64-server sweep scale.
/// [`Self::add`]'s duplicate check and [`Self::remove`] find a key by
/// scanning the key column: a resource holds the few tasks one server
/// runs, and `remove` shifts both columns anyway.
#[derive(Debug, Clone)]
pub struct FairShareResource<K> {
    /// Activity keys, in insertion order.
    keys: Vec<K>,
    /// `remaining[i]` = work still to do for `keys[i]`, in resource units
    /// (CPU-seconds, MB, …).
    remaining: Vec<f64>,
    /// Work units delivered per second in total, split equally.
    capacity: f64,
    /// Last time `advance` integrated progress up to.
    updated_at: SimTime,
    /// Bumped on every change that invalidates previously computed
    /// completion times.
    generation: Generation,
}

impl<K: Copy + Eq + std::fmt::Debug> FairShareResource<K> {
    /// Creates an empty resource with the given total capacity
    /// (work units per second).
    ///
    /// # Panics
    /// Panics unless `capacity > 0` and finite.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "capacity must be positive, got {capacity}"
        );
        FairShareResource {
            keys: Vec::new(),
            remaining: Vec::new(),
            capacity,
            updated_at: SimTime::ZERO,
            generation: Generation::default(),
        }
    }

    /// Number of running activities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when idle.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The generation stamp valid for events derived from the current state.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Integrates progress up to `now`. Idempotent; must be called (and is
    /// called internally) before any state change.
    ///
    /// # Panics
    /// Panics if `now` is before the last update — the resource cannot run
    /// backwards.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.updated_at,
            "resource cannot rewind: updated_at={:?}, now={now:?}",
            self.updated_at
        );
        if self.keys.is_empty() || now == self.updated_at {
            self.updated_at = now;
            return;
        }
        let dt = (now - self.updated_at).as_secs();
        let rate = self.capacity / self.keys.len() as f64;
        let done = rate * dt;
        for r in &mut self.remaining {
            // Clamp: float rounding may overshoot the exact completion
            // instant by a hair; remaining work is never negative.
            *r = (*r - done).max(0.0);
        }
        self.updated_at = now;
    }

    /// Adds an activity with `work` units to do. Advances to `now` first and
    /// invalidates previously computed completions.
    ///
    /// # Panics
    /// Panics if `work` is negative/non-finite or the key is already running.
    pub fn add(&mut self, now: SimTime, key: K, work: f64) {
        assert!(
            work >= 0.0 && work.is_finite(),
            "work must be >= 0, got {work}"
        );
        self.advance(now);
        assert!(
            !self.keys.contains(&key),
            "activity {key:?} already running"
        );
        self.keys.push(key);
        self.remaining.push(work);
        self.generation.bump();
    }

    /// Removes an activity, returning its remaining work (0 when it was
    /// complete). Advances to `now` first.
    ///
    /// Returns `None` if the key was not running.
    pub fn remove(&mut self, now: SimTime, key: K) -> Option<f64> {
        self.advance(now);
        let idx = self.keys.iter().position(|k| *k == key)?;
        self.keys.remove(idx);
        let left = self.remaining.remove(idx);
        self.generation.bump();
        Some(left)
    }

    /// Changes the total capacity (CPU noise redraws, thrashing slowdown).
    /// Advances to `now` under the old capacity first.
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "capacity must be positive, got {capacity}"
        );
        self.advance(now);
        if capacity != self.capacity {
            self.capacity = capacity;
            self.generation.bump();
        }
    }

    /// The next activity to finish and its completion time, given the
    /// current membership and capacity, or `None` when idle.
    ///
    /// Ties (identical remaining work) resolve to the earliest-added
    /// activity, keeping behaviour deterministic.
    pub fn next_completion(&self, now: SimTime) -> Option<(K, SimTime)> {
        debug_assert!(now >= self.updated_at);
        let lag = (now - self.updated_at).as_secs();
        let rate = self.capacity / self.keys.len().max(1) as f64;
        // First-minimal scan over the dense work column (`min_by` returns
        // the first of equal minima: ties resolve to the earliest-added
        // activity, as on the AoS layout).
        self.remaining
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("remaining work is never NaN"))
            .map(|(i, &r)| {
                let dt = ((r / rate) - lag).max(0.0);
                (self.keys[i], now + SimTime::from_secs(dt))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Runs `r` until idle from `now` by `next_completion`/`remove`
    /// stepping: every activity's `(key, completion)`, in completion order.
    pub(super) fn step_to_idle(
        mut r: FairShareResource<u32>,
        mut now: SimTime,
    ) -> Vec<(u32, SimTime)> {
        let mut out = Vec::new();
        while let Some((k, when)) = r.next_completion(now) {
            now = when;
            r.remove(now, k);
            out.push((k, now));
        }
        out
    }

    #[test]
    fn single_activity_runs_at_full_capacity() {
        let mut r = FairShareResource::new(2.0);
        r.add(t(0.0), 1u32, 10.0);
        let (k, when) = r.next_completion(t(0.0)).unwrap();
        assert_eq!(k, 1);
        assert_eq!(when, t(5.0)); // 10 units at 2 units/s
    }

    #[test]
    fn two_activities_share_equally() {
        let mut r = FairShareResource::new(1.0);
        r.add(t(0.0), 1u32, 10.0);
        r.add(t(0.0), 2u32, 10.0);
        // Each progresses at 0.5/s → both finish at t=20; tie → first added.
        let (k, when) = r.next_completion(t(0.0)).unwrap();
        assert_eq!(k, 1);
        assert_eq!(when, t(20.0));
    }

    #[test]
    fn paper_usefulness_example() {
        // §2.3: at t=0 two identical servers get tasks of 100 s and 200 s.
        // At t=80 the remaining durations are 20 s and 120 s.
        let mut s1 = FairShareResource::new(1.0);
        let mut s2 = FairShareResource::new(1.0);
        s1.add(t(0.0), 1u32, 100.0);
        s2.add(t(0.0), 2u32, 200.0);
        assert!((s1.remove(t(80.0), 1).unwrap() - 20.0).abs() < 1e-9);
        assert!((s2.remove(t(80.0), 2).unwrap() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_mid_flight_delays_running_task() {
        // Fig. 1 mechanics: T1 runs alone, T3 arrives, both share.
        let mut r = FairShareResource::new(1.0);
        r.add(t(0.0), 1u32, 100.0);
        r.advance(t(50.0)); // T1 half done
        r.add(t(50.0), 3u32, 25.0);
        // T3 finishes first: 25 units at 0.5/s = 50 s → t=100.
        let (k, when) = r.next_completion(t(50.0)).unwrap();
        assert_eq!(k, 3);
        assert_eq!(when, t(100.0));
        r.remove(t(100.0), 3);
        // T1 had 50 left at t=50, did 25 during sharing, 25 left at full rate.
        let (k, when) = r.next_completion(t(100.0)).unwrap();
        assert_eq!(k, 1);
        assert_eq!(when, t(125.0));
        // Perturbation of T3 on T1 = 125 - 100 = 25 s: half of T3's 50 s of
        // shared residence, exactly the model's prediction.
    }

    #[test]
    fn next_completion_respects_unadvanced_lag() {
        let mut r = FairShareResource::new(1.0);
        r.add(t(0.0), 1u32, 10.0);
        // Query at t=4 without advancing: completion must still be t=10.
        assert_eq!(r.next_completion(t(4.0)), Some((1, t(10.0))));
        assert_eq!(step_to_idle(r, t(4.0)), vec![(1, t(10.0))]);
    }

    #[test]
    fn capacity_change_rescales_rates() {
        let mut r = FairShareResource::new(1.0);
        r.add(t(0.0), 1u32, 10.0);
        r.set_capacity(t(5.0), 0.5); // 5 units left, now at 0.5/s
        let (_, when) = r.next_completion(t(5.0)).unwrap();
        assert_eq!(when, t(15.0));
    }

    #[test]
    fn remove_returns_remaining_work() {
        let mut r = FairShareResource::new(1.0);
        r.add(t(0.0), 1u32, 10.0);
        r.add(t(0.0), 2u32, 10.0);
        let left = r.remove(t(10.0), 2).unwrap();
        assert!((left - 5.0).abs() < 1e-9);
        assert_eq!(r.remove(t(10.0), 2), None);
    }

    #[test]
    fn generation_bumps_on_changes() {
        let mut r = FairShareResource::new(1.0);
        let g0 = r.generation();
        r.add(t(0.0), 1u32, 1.0);
        let g1 = r.generation();
        assert_ne!(g0, g1);
        r.set_capacity(t(0.0), 2.0);
        assert_ne!(g1, r.generation());
        // Setting the same capacity is not a change.
        let g2 = r.generation();
        r.set_capacity(t(0.0), 2.0);
        assert_eq!(g2, r.generation());
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut r = FairShareResource::new(1.0);
        r.add(t(3.0), 1u32, 0.0);
        let (k, when) = r.next_completion(t(3.0)).unwrap();
        assert_eq!(k, 1);
        assert_eq!(when, t(3.0));
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn rewind_panics() {
        let mut r = FairShareResource::new(1.0);
        r.add(t(5.0), 1u32, 1.0);
        r.advance(t(4.0));
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn duplicate_key_panics() {
        let mut r = FairShareResource::new(1.0);
        r.add(t(0.0), 1u32, 1.0);
        r.add(t(0.0), 1u32, 1.0);
    }

    #[test]
    fn idle_resource_has_no_completion() {
        let r: FairShareResource<u32> = FairShareResource::new(1.0);
        assert!(r.next_completion(t(0.0)).is_none());
        assert!(step_to_idle(r, t(0.0)).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::step_to_idle;
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    proptest! {
        /// Work is conserved: running a set of activities to completion via
        /// next_completion/remove takes total time = total work / capacity
        /// (the resource is never idle while work remains).
        #[test]
        fn work_conservation(
            works in proptest::collection::vec(0.1f64..100.0, 1..20),
            capacity in 0.1f64..10.0,
        ) {
            let mut r = FairShareResource::new(capacity);
            let total: f64 = works.iter().sum();
            for (i, &w) in works.iter().enumerate() {
                r.add(t(0.0), i as u32, w);
            }
            let mut now = t(0.0);
            while let Some((k, when)) = r.next_completion(now) {
                now = when;
                r.remove(now, k);
            }
            let expected = total / capacity;
            prop_assert!((now.as_secs() - expected).abs() < 1e-6 * expected.max(1.0),
                "finished at {} expected {}", now.as_secs(), expected);
        }

        /// Completion order equals ascending remaining-work order.
        #[test]
        fn completion_order_is_work_order(
            works in proptest::collection::vec(0.1f64..50.0, 2..15),
        ) {
            let mut r = FairShareResource::new(2.0);
            for (i, &w) in works.iter().enumerate() {
                r.add(t(0.0), i as u32, w);
            }
            let sched = step_to_idle(r, t(0.0));
            prop_assert_eq!(sched.len(), works.len());
            let mut prev = f64::NEG_INFINITY;
            for (k, _) in sched {
                let w = works[k as usize];
                prop_assert!(w >= prev);
                prev = w;
            }
        }

        /// Adding an activity never makes any existing activity finish
        /// earlier (perturbations are non-negative — the invariant the MP
        /// heuristic relies on).
        #[test]
        fn perturbation_nonnegative(
            works in proptest::collection::vec(1.0f64..50.0, 1..10),
            new_work in 1.0f64..50.0,
            arrival_frac in 0.0f64..1.0,
        ) {
            let mut base = FairShareResource::new(1.0);
            for (i, &w) in works.iter().enumerate() {
                base.add(t(0.0), i as u32, w);
            }
            let before = step_to_idle(base.clone(), t(0.0));
            let arrival = t(arrival_frac * works.iter().cloned().fold(0.0, f64::max));
            let mut with_new = base;
            with_new.advance(arrival);
            with_new.add(arrival, 999, new_work);
            let after = step_to_idle(with_new, arrival);
            for (k, t_before) in before {
                if let Some(&(_, t_after)) = after.iter().find(|(kk, _)| *kk == k) {
                    prop_assert!(t_after >= t_before - SimTime::from_secs(1e-9),
                        "task {k} finished earlier after insertion");
                }
            }
        }

        /// The resource against [`Model`], a plain `Vec` of `(key,
        /// remaining)` pairs doing the same arithmetic, under random adds
        /// of fresh keys, removes of present and absent keys, advances and
        /// capacity changes (some to the current capacity). After every
        /// operation the next completion's key and time bits, `len`,
        /// `remove`'s returned work bits and whether the generation moved
        /// must agree.
        #[test]
        fn resource_matches_vec_model(
            capacity in 0.1f64..4.0,
            ops in proptest::collection::vec(
                // (op kind, gap, pick, work, capacity)
                (0u32..6, 0.0f64..6.0, 0u32..1000, 0.0f64..30.0, 0.1f64..4.0),
                1..80,
            ),
        ) {
            let mut r = FairShareResource::new(capacity);
            let mut model = Model { entries: Vec::new(), capacity, updated_at: t(0.0) };
            let mut now = t(0.0);
            let mut next_key = 0u32;
            for (kind, gap, pick, work, new_capacity) in ops {
                // One operation in four comes at the previous one's instant.
                if pick % 4 != 0 {
                    now += t(gap);
                }
                let generation = r.generation();
                let bumped = match kind {
                    0 | 1 => {
                        let work = if pick % 5 == 0 { 0.0 } else { work };
                        r.add(now, next_key, work);
                        model.advance(now);
                        model.entries.push((next_key, work));
                        next_key += 1;
                        true
                    }
                    2 | 3 => {
                        // Kind 2 removes a present key when there is one;
                        // kind 3 any key added so far (present or removed)
                        // or one never added.
                        let key = match model.entries.len() {
                            n if kind == 2 && n > 0 => model.entries[pick as usize % n].0,
                            _ if pick % 2 == 0 && next_key > 0 => pick % next_key,
                            _ => 1_000_000 + pick,
                        };
                        let left = r.remove(now, key);
                        model.advance(now);
                        let expected = model
                            .entries
                            .iter()
                            .position(|e| e.0 == key)
                            .map(|i| model.entries.remove(i).1);
                        prop_assert_eq!(left.map(f64::to_bits), expected.map(f64::to_bits));
                        expected.is_some()
                    }
                    4 => {
                        r.advance(now);
                        model.advance(now);
                        false
                    }
                    _ => {
                        let capacity = if pick % 3 == 0 { model.capacity } else { new_capacity };
                        r.set_capacity(now, capacity);
                        model.advance(now);
                        let changed = capacity != model.capacity;
                        model.capacity = capacity;
                        changed
                    }
                };
                prop_assert_eq!(r.generation() != generation, bumped);
                prop_assert_eq!(r.len(), model.entries.len());
                let got = r.next_completion(now).map(|(k, w)| (k, w.as_secs().to_bits()));
                let want = model.next_completion(now).map(|(k, w)| (k, w.as_secs().to_bits()));
                prop_assert_eq!(got, want);
            }
        }
    }

    /// The model of [`resource_matches_vec_model`]: the activities as
    /// `(key, remaining)` pairs in insertion order, with the resource's
    /// arithmetic written out again.
    struct Model {
        entries: Vec<(u32, f64)>,
        capacity: f64,
        updated_at: SimTime,
    }

    impl Model {
        fn advance(&mut self, now: SimTime) {
            if !self.entries.is_empty() && now != self.updated_at {
                let rate = self.capacity / self.entries.len() as f64;
                let done = rate * (now - self.updated_at).as_secs();
                for e in &mut self.entries {
                    e.1 = (e.1 - done).max(0.0);
                }
            }
            self.updated_at = now;
        }

        /// The first entry with the least remaining work and its
        /// completion time.
        fn next_completion(&self, now: SimTime) -> Option<(u32, SimTime)> {
            let rate = self.capacity / self.entries.len().max(1) as f64;
            let lag = (now - self.updated_at).as_secs();
            let mut first_min: Option<(u32, f64)> = None;
            for &(k, r) in &self.entries {
                if first_min.is_none_or(|(_, m)| r < m) {
                    first_min = Some((k, r));
                }
            }
            first_min.map(|(k, r)| (k, now + SimTime::from_secs((r / rate - lag).max(0.0))))
        }
    }
}
