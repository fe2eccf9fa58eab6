//! One FIFO server in virtual time — the node model of the paper's Lemma 1.
//!
//! A storage node serves chunk reads one at a time, first come first served,
//! without preemption, so a read's finish time is fixed when it is queued:
//! `done = max(now, busy_until) + service` (Lindley's recursion, one
//! private function here). The simulation engine's per-node queues advance
//! a [`FifoQueue`]; the store's [`StorageNode`](crate::node::StorageNode),
//! which every serving worker reads at once, advances `AtomicFifoQueue`: the
//! same recursion on a clock that a compare-and-swap moves, so no lock is
//! taken.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lindley's recursion: a job arriving at `now` that needs `service`
/// seconds starts when the previous job finishes (`busy_until`) or at
/// `now`, whichever is later, and finishes `service` after that.
fn lindley(busy_until: f64, now: f64, service: f64) -> f64 {
    busy_until.max(now) + service
}

/// Fraction of `[0, horizon]` a server that spent `busy_time` serving was
/// busy.
fn utilization(busy_time: f64, horizon: f64) -> f64 {
    if horizon <= 0.0 {
        0.0
    } else {
        (busy_time / horizon).min(1.0)
    }
}

/// A FIFO server's clock: when its last queued job finishes, and how long it
/// has spent serving.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct FifoQueue {
    busy_until: f64,
    busy_time: f64,
}

impl FifoQueue {
    /// Queues a job arriving at `now` that needs `service` seconds and
    /// returns when it finishes: it starts when the previous job finishes or
    /// at `now`, whichever is later.
    pub fn serve(&mut self, now: f64, service: f64) -> f64 {
        let done = lindley(self.busy_until, now, service);
        self.busy_until = done;
        self.busy_time += service;
        done
    }

    /// Fraction of `[0, horizon]` the server spent serving.
    pub fn utilization(&self, horizon: f64) -> f64 {
        utilization(self.busy_time, horizon)
    }
}

/// [`FifoQueue`] shared by concurrent readers: both fields are `f64` bits in
/// atomics. A job is queued by one compare-and-swap of the clock, so
/// concurrent jobs are serialized in the order their swaps succeed and each
/// gets its own finish time; the served total is added after.
#[derive(Debug, Default)]
pub(crate) struct AtomicFifoQueue {
    busy_until: AtomicU64,
    busy_time: AtomicU64,
}

impl AtomicFifoQueue {
    /// [`FifoQueue::serve`] from any thread.
    pub(crate) fn serve(&self, now: f64, service: f64) -> f64 {
        // Relaxed is enough: the clock is one variable, and its swaps are
        // totally ordered whatever the ordering argument says.
        let mut current = self.busy_until.load(Ordering::Relaxed);
        let done = loop {
            let done = lindley(f64::from_bits(current), now, service);
            match self.busy_until.compare_exchange_weak(
                current,
                done.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break done,
                Err(seen) => current = seen,
            }
        };
        // `fetch_update` cannot return `Err` here: the closure always
        // returns `Some`.
        let _ = self
            .busy_time
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + service).to_bits())
            });
        done
    }

    /// Queueing delay a job arriving at `now` would wait before its service
    /// starts.
    pub(crate) fn queue_delay(&self, now: f64) -> f64 {
        (f64::from_bits(self.busy_until.load(Ordering::Relaxed)) - now).max(0.0)
    }

    /// Fraction of `[0, horizon]` the server spent serving.
    pub(crate) fn utilization(&self, horizon: f64) -> f64 {
        utilization(
            f64::from_bits(self.busy_time.load(Ordering::Relaxed)),
            horizon,
        )
    }
}
