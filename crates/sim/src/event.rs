//! A deterministic event queue keyed by simulated time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a simulated time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scheduled<E> {
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
pub(crate) struct EventQueue<E: PartialEq> {
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

    /// The firing time of the earliest event, if any.
    pub(crate) fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
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
        assert_eq!(q.len(), 0);
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
        assert_eq!(q.next_time(), None);
        q.push(3.0, "b");
        q.push(1.0, "a");
        assert_eq!(q.next_time(), Some(1.0));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.next_time(), Some(3.0));
    }
}
