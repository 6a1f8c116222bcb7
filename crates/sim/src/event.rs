//! The simulation kernel's event queue.
//!
//! [`EventQueue`] is a stable, earliest-first queue. Two properties a
//! reproducible discrete-event simulation needs beyond a plain priority
//! queue:
//!
//! * **Stability** — events scheduled for the same instant pop in the order
//!   they were pushed (FIFO), via a monotonically increasing sequence number.
//!   Without this, simultaneous events (common here: a load report and a task
//!   arrival at the same second) would pop in an unspecified order and runs
//!   would not be reproducible.
//! * **Cheap cancellation** — shared-resource models (fair-share CPU, shared
//!   links) must reschedule their "next completion" event every time resource
//!   membership changes. Rather than removing events from the middle of the
//!   queue, callers tag events with a [`Generation`] and bump the generation
//!   to invalidate all previously scheduled events for that resource; stale
//!   events are dropped when popped.
//!
//! The queue keeps two stores: a binary heap, and a sorted run that takes
//! every push whose `(time, sequence)` key is at or after its last
//! entry's. Events pushed in time order land in the run and cost O(1)
//! each, so the heap holds only the events that arrive out of order.
//!
//! A model that knows a stream of future events up front (a campaign's
//! arrivals) need not queue them all at once: [`EventQueue::reserve`]
//! sets aside one sequence number per event, and the model pushes each
//! one later under its reserved number with
//! [`EventQueue::push_reserved`] — for arrivals, each `Submit` pushes its
//! successor. An entry's key is the same whenever it is pushed, so the
//! pop order is the one an up-front push would give, while the pending
//! set holds only the next event of the stream.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A generation counter used to lazily invalidate scheduled events.
///
/// Resources that reschedule their next-completion event keep a `Generation`
/// and bump it whenever previously scheduled events become obsolete. Events
/// carry the generation current at scheduling time; [`Generation::is_current`]
/// tells the popper whether the event is still live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Generation(pub u64);

impl Generation {
    /// Invalidate all events scheduled under the current generation.
    #[inline]
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Whether an event stamped with `stamp` is still valid.
    #[inline]
    pub fn is_current(self, stamp: Generation) -> bool {
        self == stamp
    }
}

/// An entry in the queue: an event plus its scheduling metadata.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence number (push order).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first,
        // then lowest sequence number first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A stable, earliest-first event queue — the heart of the simulation
/// kernel.
///
/// The contract, pinned by the sorted-reference proptest below:
///
/// * `pop` returns entries in ascending `(at, seq)` order — time order,
///   FIFO within one instant (push order, or reserved order for entries
///   pushed under a reserved number);
/// * `push` and `reserve` hand out strictly increasing sequence numbers
///   across the queue's whole lifetime, so every entry's key is unique;
/// * `peek_time` reports the timestamp `pop` would return, without removal.
///
/// A push whose `(at, seq)` is after the run's last entry's (or onto an
/// empty run) is appended to the run; any other push goes into the heap.
/// The run is therefore sorted by `(at, seq)` by construction, and the
/// heap by its ordering, so `pop` and `peek_time` take the smaller of the
/// two fronts. An entry pushed under a reserved number may carry a
/// smaller `seq` than the run's tail at the same instant; it goes into
/// the heap, which keeps the same-instant order exact.
///
/// ```
/// use cas_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// q.push(SimTime::from_secs(1.0), "early-second");
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    run: VecDeque<EventEntry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            run: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`. Returns the sequence number
    /// assigned to the entry (strictly increasing across all pushes and
    /// reservations).
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.reserve(1);
        self.insert(EventEntry { at, seq, event });
        seq
    }

    /// Sets aside `n` consecutive sequence numbers for entries pushed
    /// later through [`Self::push_reserved`], and returns the first. No
    /// entry is queued; later pushes number on from the block's end.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `event` to fire at `at` under `seq`, a number handed out
    /// by [`Self::reserve`]. The entry pops exactly where it would have,
    /// had it been pushed when its number was reserved.
    ///
    /// # Panics
    /// Panics if `seq` was never handed out. Pushing one reserved number
    /// twice is a caller error the queue does not detect.
    pub fn push_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved (next is {})",
            self.next_seq
        );
        self.insert(EventEntry { at, seq, event });
    }

    /// Appends `entry` to the run when its key follows the run's tail,
    /// and pushes it into the heap otherwise.
    fn insert(&mut self, entry: EventEntry<E>) {
        match self.run.back() {
            Some(tail) if (entry.at, entry.seq) < (tail.at, tail.seq) => self.heap.push(entry),
            _ => self.run.push_back(entry),
        }
    }

    /// `true` when the heap's front pops before the run's front.
    #[inline]
    fn heap_first(&self) -> bool {
        match (self.heap.peek(), self.run.front()) {
            (Some(h), Some(r)) => (h.at, h.seq) < (r.at, r.seq),
            (heap, _) => heap.is_some(),
        }
    }

    /// Removes and returns the earliest entry, or `None` if empty.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        if self.heap_first() {
            self.heap.pop()
        } else {
            self.run.pop_front()
        }
    }

    /// The timestamp of the earliest entry without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.heap_first() {
            self.heap.peek().map(|e| e.at)
        } else {
            self.run.front().map(|e| e.at)
        }
    }

    /// Number of pending entries in both stores (including any that a
    /// caller will later discard as stale — the queue itself does not know
    /// about generations).
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// `true` if no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }

    /// Always 0: the queue has one backend and never migrates. Kept
    /// because casbench's probe reads `sim.queue().migrations()` for its
    /// `sim.queue_migrations` metric, and the benchmark builds against
    /// this crate unchanged.
    pub fn migrations(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 'c');
        q.push(t(1.0), 'a');
        q.push(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "a1");
        q.push(t(2.0), "b1");
        q.push(t(1.0), "a2");
        q.push(t(0.5), "z");
        q.push(t(2.0), "b2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["z", "a1", "a2", "b1", "b2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(7.0), ());
        assert_eq!(q.peek_time(), Some(t(7.0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn generation_invalidation() {
        let mut gen = Generation::default();
        let stamp = gen;
        assert!(gen.is_current(stamp));
        gen.bump();
        assert!(!gen.is_current(stamp));
        assert!(gen.is_current(gen));
    }

    #[test]
    fn reserved_entries_pop_in_reserved_order() {
        let mut q = EventQueue::new();
        let base = q.reserve(2);
        q.push(t(1.0), "later-push");
        assert_eq!(q.len(), 1, "a reservation queues nothing");
        // Pushed after "later-push" at the same instant, but under an
        // earlier number: it must pop first.
        q.push_reserved(t(1.0), base + 1, "reserved-second");
        q.push_reserved(t(1.0), base, "reserved-first");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            vec!["reserved-first", "reserved-second", "later-push"]
        );
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn unreserved_number_panics() {
        let mut q = EventQueue::new();
        q.reserve(1);
        q.push_reserved(t(0.0), 1, ());
    }

    #[test]
    fn pop_empty_is_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert_eq!(q.migrations(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and equal
        /// timestamps preserve push order.
        #[test]
        fn pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u32..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &ti) in times.iter().enumerate() {
                q.push(SimTime::from_secs(ti as f64), i);
            }
            let mut prev_time = SimTime::ZERO;
            let mut prev_idx_at_time: Option<usize> = None;
            while let Some(entry) = q.pop() {
                prop_assert!(entry.at >= prev_time);
                if entry.at == prev_time {
                    if let Some(pi) = prev_idx_at_time {
                        prop_assert!(entry.event > pi, "FIFO violated at equal timestamps");
                    }
                }
                if entry.at > prev_time {
                    prev_time = entry.at;
                }
                prev_idx_at_time = Some(entry.event);
            }
        }

        /// Every pushed event is popped exactly once.
        #[test]
        fn conservation(times in proptest::collection::vec(0u32..1000, 0..300)) {
            let mut q = EventQueue::new();
            for (i, &ti) in times.iter().enumerate() {
                q.push(SimTime::from_secs(ti as f64), i);
            }
            let mut seen = vec![false; times.len()];
            while let Some(e) = q.pop() {
                prop_assert!(!seen[e.event]);
                seen[e.event] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// The queue is indistinguishable from a `Vec` kept sorted by
        /// `(at, seq)` under any interleaving of pushes, reservations,
        /// reserved pushes and pops. Push times come in four kinds, so
        /// both stores fill and their fronts tie: exactly the last popped
        /// time (a tie with the front), `clock + raw / 100` (may land
        /// below the run's tail, so it goes into the heap), at or after
        /// the last pushed time (appended to the run), and exactly the
        /// run tail's time. Reserved numbers are pushed later and in any
        /// order, so a reserved entry at the tail's instant carries a
        /// smaller `seq` than the tail and must not join the run.
        #[test]
        fn queue_matches_sorted_reference(
            ops in proptest::collection::vec((0u8..6, 0u8..4, 0u32..500), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut reference: Vec<(SimTime, u64, usize)> = Vec::new();
            let mut reserved: Vec<u64> = Vec::new();
            let mut clock = 0.0f64;
            let mut last_pushed = 0.0f64;
            for (i, &(op, kind, raw)) in ops.iter().enumerate() {
                if op == 0 {
                    // Pop: the reference front is its smallest (at, seq).
                    let expected = (!reference.is_empty()).then(|| reference.remove(0));
                    let popped = q.pop().map(|e| (e.at, e.seq, e.event));
                    prop_assert_eq!(popped, expected);
                    if let Some((at, _, _)) = popped {
                        clock = at.as_secs();
                    }
                } else if op == 4 {
                    let n = 1 + u64::from(raw % 4);
                    let first = q.reserve(n);
                    reserved.extend(first..first + n);
                } else {
                    let at = match kind {
                        0 => clock,
                        1 => clock + raw as f64 / 100.0,
                        2 => last_pushed.max(clock) + (raw % 5) as f64,
                        _ => q.run.back().map_or(clock, |tail| tail.at.as_secs()),
                    };
                    let seq = if op == 5 {
                        if reserved.is_empty() {
                            continue;
                        }
                        let seq = reserved.swap_remove(raw as usize % reserved.len());
                        q.push_reserved(SimTime::from_secs(at), seq, i);
                        seq
                    } else {
                        q.push(SimTime::from_secs(at), i)
                    };
                    last_pushed = at;
                    let entry = (SimTime::from_secs(at), seq, i);
                    let pos = reference.partition_point(|r| (r.0, r.1) < (entry.0, entry.1));
                    reference.insert(pos, entry);
                }
                prop_assert_eq!(q.peek_time(), reference.first().map(|r| r.0));
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
            }
        }
    }
}
