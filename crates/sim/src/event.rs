//! The event queue and scheduler driving a simulation.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stable priority queue of timed events: ordering is (time, sequence),
/// so simultaneous events fire in scheduling order — the keystone of
/// deterministic replay. Payloads live in a slot pool so `E` needs no
/// ordering traits and pops avoid moving large events through the heap.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<EntryKey>>,
    // Events stored aside so `E` needs no ordering traits.
    slots: Vec<Option<(SimTime, E)>>,
    free: Vec<usize>,
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EntryKey {
    at: SimTime,
    seq: u64,
    slot: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue pre-sized for about `capacity` simultaneously pending
    /// events, so steady-state simulations never grow the heap or the
    /// slot pool mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some((at, event));
                s
            }
            None => {
                self.slots.push(Some((at, event)));
                self.slots.len() - 1
            }
        };
        let key = EntryKey {
            at,
            seq: self.seq,
            slot,
        };
        self.seq += 1;
        self.heap.push(Reverse(key));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        #[expect(
            clippy::expect_used,
            reason = "a heap key is pushed only with its slot filled and popped once; an empty slot is a bug in this file, not an input error"
        )]
        let (at, event) = self.slots[key.slot].take().expect("slot must be filled");
        self.free.push(key.slot);
        debug_assert_eq!(at, key.at);
        debug_assert!(
            self.free.len() <= self.slots.len(),
            "free-list ({}) exceeds slot arena ({})",
            self.free.len(),
            self.slots.len()
        );
        Some((at, event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(k)| k.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A scheduler: an event queue plus the current virtual clock.
///
/// The owning simulation loop repeatedly calls [`Scheduler::next`], which
/// advances the clock to the fired event's timestamp. Scheduling into the
/// past is a logic error and panics in debug builds.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler whose queue is pre-sized for about `capacity`
    /// simultaneously pending events (one per task is the engine's
    /// steady state).
    pub fn with_capacity(capacity: usize) -> Self {
        Scheduler {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Time of the earliest pending event, without firing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedules an event at an absolute instant (must not be in the past).
    pub fn at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at.max(self.now), event);
    }

    /// Schedules an event `delay` from now.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Fires the next event, advancing the clock. Returns `None` when the
    /// queue is drained.
    ///
    /// Deliberately named like `Iterator::next`; the scheduler is not an
    /// iterator because callers interleave `schedule` with draining.
    #[expect(clippy::should_implement_trait, reason = "see above: not an iterator")]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Fires the next event only if it is at or before `deadline`.
    pub fn next_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.next(),
            _ => None,
        }
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..5 {
                q.schedule(SimTime::from_secs(round * 5 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.slots.len() <= 5,
            "slot pool must not grow: {}",
            q.slots.len()
        );
    }

    #[test]
    fn scheduler_advances_clock() -> Result<(), Box<dyn std::error::Error>> {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.after(SimDuration::from_secs(5), "later");
        s.at(SimTime::from_secs(2), "sooner");
        let (t1, e1) = s.next().ok_or("first event")?;
        assert_eq!((t1, e1), (SimTime::from_secs(2), "sooner"));
        assert_eq!(s.now(), SimTime::from_secs(2));
        let (t2, e2) = s.next().ok_or("second event")?;
        assert_eq!((t2, e2), (SimTime::from_secs(5), "later"));
        assert!(s.next().is_none());
        assert!(s.is_idle());
        Ok(())
    }

    #[test]
    fn next_until_respects_deadline() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.at(SimTime::from_secs(10), "x");
        assert!(s.next_until(SimTime::from_secs(5)).is_none());
        assert_eq!(s.now(), SimTime::ZERO, "clock untouched when nothing fires");
        assert!(s.next_until(SimTime::from_secs(10)).is_some());
    }

    #[test]
    fn interleaved_scheduling_keeps_determinism() {
        // Schedule from within the drain loop, mimicking a simulation.
        let mut s: Scheduler<u32> = Scheduler::new();
        s.at(SimTime::from_secs(1), 1);
        let mut fired = Vec::new();
        while let Some((t, e)) = s.next() {
            fired.push(e);
            if e < 5 {
                s.at(t + SimDuration::from_secs(1), e + 1);
                s.at(t + SimDuration::from_secs(1), e + 100);
            }
        }
        assert_eq!(fired, vec![1, 2, 101, 3, 102, 4, 103, 5, 104]);
    }

    #[test]
    fn queue_pre_sizing_does_not_change_order() {
        let mut a: Scheduler<u64> = Scheduler::new();
        let mut b: Scheduler<u64> = Scheduler::with_capacity(128);
        for id in 0..64 {
            // Scattered instants with plenty of same-instant ties.
            let at = SimTime::ZERO + SimDuration::from_micros(id * 7 % 9);
            a.at(at, id);
            b.at(at, id);
        }
        let da: Vec<u64> = std::iter::from_fn(|| a.next().map(|(_, e)| e)).collect();
        let db: Vec<u64> = std::iter::from_fn(|| b.next().map(|(_, e)| e)).collect();
        assert_eq!(da, db);
    }
}
