//! A deterministic event queue keyed by simulated time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled<E> {
    /// Firing time.
    pub time: f64,
    /// Insertion sequence number (ties broken FIFO for determinism).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E: PartialEq> Eq for Scheduled<E> {}

impl<E: PartialEq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: PartialEq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: the BinaryHeap is a max-heap, we need earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<E: PartialEq> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E: PartialEq> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Borrows the earliest event without removing it.
    pub fn peek(&self) -> Option<(f64, &E)> {
        self.heap.peek().map(|s| (s.time, &s.event))
    }

    /// The firing time of the earliest event, if any.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Drops every pending event. The insertion sequence counter is *not*
    /// reset, so FIFO tie-breaking stays globally consistent across a clear
    /// (events pushed after a clear still fire after same-time events pushed
    /// before it would have).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_out_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, "c");
        q.push(1.0, "a");
        q.push(3.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((3.0, "b")));
        assert_eq!(q.pop(), Some((5.0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, 1u32);
        q.push(2.0, 2u32);
        q.push(2.0, 3u32);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn peek_and_next_time_do_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        assert_eq!(q.next_time(), None);
        q.push(3.0, "b");
        q.push(1.0, "a");
        assert_eq!(q.peek(), Some((1.0, &"a")));
        assert_eq!(q.next_time(), Some(1.0));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.next_time(), Some(3.0));
    }

    #[test]
    fn peek_respects_fifo_tie_break_at_equal_times() {
        let mut q = EventQueue::new();
        q.push(2.0, 10u32);
        q.push(2.0, 20u32);
        assert_eq!(q.peek(), Some((2.0, &10)), "earliest insertion wins ties");
        q.pop();
        assert_eq!(q.peek(), Some((2.0, &20)));
    }

    #[test]
    fn clear_empties_but_keeps_tie_break_order() {
        let mut q = EventQueue::new();
        q.push(1.0, 1u32);
        q.push(1.0, 2u32);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Events pushed after the clear keep FIFO order among themselves.
        q.push(1.0, 3u32);
        q.push(1.0, 4u32);
        assert_eq!(q.pop(), Some((1.0, 3)));
        assert_eq!(q.pop(), Some((1.0, 4)));
    }
}
