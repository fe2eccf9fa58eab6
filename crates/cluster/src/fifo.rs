//! One FIFO server in virtual time — the node model of the paper's Lemma 1.
//!
//! A storage node serves chunk reads one at a time, first come first served,
//! without preemption, so a read's finish time is fixed when it is queued:
//! `done = max(now, busy_until) + service` (Lindley's recursion). The store's
//! [`StorageNode`](crate::node::StorageNode) and the simulation engine's
//! per-node queues both advance this one type.

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
        let done = self.busy_until.max(now) + service;
        self.busy_until = done;
        self.busy_time += service;
        done
    }

    /// Queueing delay a job arriving at `now` would wait before its service
    /// starts.
    pub fn queue_delay(&self, now: f64) -> f64 {
        (self.busy_until - now).max(0.0)
    }

    /// Fraction of `[0, horizon]` the server spent serving.
    pub fn utilization(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            0.0
        } else {
            (self.busy_time / horizon).min(1.0)
        }
    }
}
