//! A deterministic event queue keyed by simulated time: a calendar queue
//! (R. Brown, "Calendar queues: a fast O(1) priority queue implementation
//! for the simulation event set problem", CACM 31(10), 1988).
//!
//! An event at time `t` belongs to slot `⌊t / width⌋`. A ring of buckets
//! holds one *turn* of consecutive slots, bucket `i` holding slot
//! `turn + i`; events past the turn wait in a far list, which is
//! redistributed once per turn. Only the current bucket is sorted
//! (descending, so the earliest event pops off its end): a bucket is sorted
//! when the queue reaches it, and a push at or before the current slot is
//! binary-inserted into it. Pops skip straight to the far list's earliest
//! turn when the ring runs dry.
//!
//! Events leave in `(time, insertion sequence)` order under
//! [`f64::total_cmp`] — the order of a binary heap on the same keys — for
//! every width, because the slot of a time never decreases as the time
//! grows. The width only sets the speed: [`EventQueue::retune`] makes a
//! slot a few mean gaps of the merged arrival stream wide.

use std::cmp::Ordering;

/// Mean gaps of the merged event stream per slot: the queue sorts a bucket
/// of a few events each time it reaches one.
const GAPS_PER_SLOT: f64 = 4.0;
/// Buckets in the ring before the first [`EventQueue::retune`].
const MIN_SLOTS: usize = 16;
/// Slots are capped here, so `turn + slots` cannot overflow: every time
/// past `MAX_SLOT` widths (up to `+∞`) shares the last slot.
const MAX_SLOT: u64 = 1 << 62;

/// An event scheduled at a simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    /// Firing time.
    time: f64,
    /// Insertion sequence number (ties broken FIFO for determinism).
    seq: u64,
    /// The payload.
    event: E,
}

impl<E> Scheduled<E> {
    /// Earliest first: by time under `total_cmp`, then by insertion.
    fn order(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A time-ordered event queue.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    /// Bucket `i` holds the events of slot `turn + i`; the current bucket
    /// also holds any event pushed at an earlier slot.
    ring: Vec<Vec<Scheduled<E>>>,
    /// Events at slots past the ring's turn.
    far: Vec<Scheduled<E>>,
    /// `1 / width`.
    inv_width: f64,
    /// First slot of the ring's turn (a multiple of the ring length).
    turn: u64,
    /// The current slot: its bucket is sorted, and holds the earliest event
    /// whenever the queue is not empty.
    cur: u64,
    len: usize,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with one-second slots.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..MIN_SLOTS).map(|_| Vec::new()).collect(),
            far: Vec::new(),
            inv_width: 1.0,
            turn: 0,
            cur: 0,
            len: 0,
            seq: 0,
        }
    }

    /// The slot of `time`: non-decreasing in `time`.
    fn slot(&self, time: f64) -> u64 {
        ((time * self.inv_width) as u64).min(MAX_SLOT)
    }

    /// The current bucket.
    fn current(&mut self) -> &mut Vec<Scheduled<E>> {
        &mut self.ring[(self.cur - self.turn) as usize]
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let item = Scheduled {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let slot = self.slot(time);
        if self.len == 0 {
            // An empty queue re-anchors at the pushed slot.
            self.turn = slot & !(self.ring.len() as u64 - 1);
            self.cur = slot;
        }
        self.len += 1;
        if slot <= self.cur {
            let bucket = self.current();
            let at = bucket.partition_point(|e| e.order(&item).is_gt());
            bucket.insert(at, item);
        } else if slot < self.turn + self.ring.len() as u64 {
            self.ring[(slot - self.turn) as usize].push(item);
        } else {
            self.far.push(item);
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let item = self.current().pop()?;
        self.len -= 1;
        if self.len > 0 && self.current().is_empty() {
            self.advance();
        }
        Some((item.time, item.event))
    }

    /// Moves to the next non-empty slot and sorts its bucket. The queue is
    /// not empty and the current bucket is.
    fn advance(&mut self) {
        let slots = self.ring.len() as u64;
        loop {
            if self.len == self.far.len() {
                // The ring ran dry: jump to the turn of the earliest far event.
                let first = self.far.iter().map(|e| self.slot(e.time)).min();
                self.cur = first.expect("a non-empty queue with an empty ring has far events");
                self.turn = self.cur & !(slots - 1);
                self.redistribute();
            } else {
                self.cur += 1;
                if self.cur == self.turn + slots {
                    self.turn += slots;
                    self.redistribute();
                }
            }
            let bucket = self.current();
            if !bucket.is_empty() {
                bucket.sort_unstable_by(|a, b| b.order(a));
                return;
            }
        }
    }

    /// Moves the far events that fall in the ring's turn into their buckets.
    fn redistribute(&mut self) {
        let end = self.turn + self.ring.len() as u64;
        let mut i = 0;
        while i < self.far.len() {
            let slot = self.slot(self.far[i].time);
            if slot < end {
                let item = self.far.swap_remove(i);
                self.ring[(slot - self.turn) as usize].push(item);
            } else {
                i += 1;
            }
        }
    }

    /// Re-buckets the pending events for a merged event stream of
    /// `total_rate` events per second: slots of [`GAPS_PER_SLOT`] mean
    /// gaps, and a ring of one bucket per pending event (a power of two, at
    /// least [`MIN_SLOTS`]). The queue stays as it is when the rate is not
    /// positive and finite. The pop order does not depend on the width.
    pub(crate) fn retune(&mut self, total_rate: f64) {
        let width = GAPS_PER_SLOT / total_rate;
        if !(width.is_finite() && width > 0.0) {
            return;
        }
        let slots = self.len.next_power_of_two().max(MIN_SLOTS);
        let mut pending = std::mem::take(&mut self.far);
        for bucket in &mut self.ring {
            pending.append(bucket);
        }
        self.inv_width = 1.0 / width;
        self.ring.resize_with(slots, Vec::new);
        let first = pending.iter().map(|e| self.slot(e.time)).min();
        self.cur = first.unwrap_or(0);
        self.turn = self.cur & !(slots as u64 - 1);
        let end = self.turn + slots as u64;
        for item in pending {
            let slot = self.slot(item.time);
            if slot < end {
                self.ring[(slot - self.turn) as usize].push(item);
            } else {
                self.far.push(item);
            }
        }
        self.current().sort_unstable_by(|a, b| b.order(a));
    }

    /// The firing time of the earliest event, if any.
    pub(crate) fn next_time(&self) -> Option<f64> {
        self.ring[(self.cur - self.turn) as usize]
            .last()
            .map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::metrics::order_key;

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

    /// The queue this one replaced: a binary heap on `(time, seq)`.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, time: f64, event: u32) {
            self.heap.push(Reverse((order_key(time), self.seq, event)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            self.heap.pop().map(|Reverse((key, _, event))| (key, event))
        }
    }

    /// One push time of a script whose last popped event fired at `now`,
    /// for a stream of about one event per unit time. Most lie at or after
    /// `now`; a tie with an already popped push, or a time near 1e15 once
    /// `now` is past it, lies before `now`, which the queue must order too.
    fn script_time(rng: &mut StdRng, now: f64, last_push: f64) -> f64 {
        match rng.gen_range(0..10) {
            0 => now,                            // at exactly the current time
            1 => last_push,                      // an exact tie with the previous push
            2 => now + rng.gen_range(0.0..1e-3), // a burst inside one slot
            3 => now + rng.gen_range(1e3..1e6),  // a drought, past the ring
            4 => now + rng.gen_range(0.0..1e15), // up to ~1e15
            5 => 1e15 + rng.gen_range(0.0..1e3), // near 1e15
            _ => now + rng.gen_range(0.0..50.0),
        }
    }

    #[test]
    fn calendar_pops_what_a_binary_heap_pops() {
        for script in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(0xCA1E_0DA2 ^ script);
            let mut calendar = EventQueue::new();
            let mut heap = HeapQueue::default();
            let (mut now, mut last_push) = (0.0f64, 0.0f64);
            let steps = rng.gen_range(1..600);
            let retune_at = rng.gen_range(0..steps);
            for step in 0..steps {
                if step == retune_at {
                    // A width re-derivation mid-script: a few gaps from tiny
                    // to huge, or a rate that leaves the width alone.
                    let rate = [0.0, 1e-9, 0.01, 1.0, 250.0, 1e9][rng.gen_range(0..6usize)];
                    calendar.retune(rate);
                }
                if rng.gen_bool(0.55) {
                    let time = script_time(&mut rng, now, last_push);
                    last_push = time;
                    calendar.push(time, step as u32);
                    heap.push(time, step as u32);
                } else {
                    let popped = calendar.pop();
                    let expected = heap.pop();
                    assert_eq!(
                        popped.map(|(t, e)| (order_key(t), e)),
                        expected,
                        "script {script} step {step}"
                    );
                    if let Some((t, _)) = popped {
                        now = t;
                    }
                }
                assert_eq!(
                    calendar.len(),
                    heap.heap.len(),
                    "script {script} step {step}"
                );
                assert_eq!(
                    calendar.next_time().map(order_key),
                    heap.heap.peek().map(|Reverse((key, ..))| *key),
                    "script {script} step {step}"
                );
            }
            while let Some(expected) = heap.pop() {
                let popped = calendar.pop().map(|(t, e)| (order_key(t), e));
                assert_eq!(popped, Some(expected), "script {script} drain");
            }
            assert_eq!(calendar.pop(), None, "script {script}");
        }
    }
}
