//! `sproutd`: a thread-pooled serving front-end over the lock-sharded store.
//!
//! The simulator exercises the byte-accurate store one request at a time in
//! virtual time; this module serves it with *real* concurrency — the
//! ROADMAP's "serve real traffic through the store" item. The shape is a
//! classic daemon front-end, kept dependency-free on purpose (std threads
//! and sync primitives only; no async runtime, no crossbeam):
//!
//! * a **bounded MPMC queue** ([`Mutex`] + two [`Condvar`]s) between
//!   submitters and workers — submitters block when the queue is full
//!   (open-loop load degrades to backpressure instead of unbounded memory),
//!   or use the non-blocking path and count a drop. The hand-off is
//!   wake-free when nobody sleeps: the queue counts parked poppers and
//!   pushers under its mutex and signals a condvar only when that count is
//!   non-zero, so a busy pool pays one uncontended lock per job, not a
//!   `futex_wake`. Jobs move one at a time (no batching), so
//!   [`Sproutd::queue_len`] stays "accepted, not yet started";
//! * a fixed pool of **worker threads**, each pulling requests and
//!   executing them on the shared [`StoreHandle`]. The daemon keeps no
//!   checksum of its own: the store records each object's checksum with
//!   its metadata at `put` and verifies every `get` against it, so a
//!   completed request *is* a verified one and a mismatch arrives as the
//!   typed [`ClusterError::ChecksumMismatch`], counted in
//!   [`ServeReport::checksum_mismatches`];
//! * a **plan epoch** — an `AtomicU64` that a live reoptimization
//!   ([`Sproutd::swap_plan`]) bumps after installing new cache contents, so
//!   every request records which plan generation served it without stopping
//!   the pool;
//! * **per-worker latency histograms** — each worker owns two
//!   [`LatencyHistogram`]s (no shared state on the hot path) and the
//!   front-end merges them at shutdown into p50/p99/p999.
//!
//! Store latencies remain *virtual* (device models, FIFO queues):
//! [`ServeReport::model_histogram`] records the modelled latency of every
//! served get, the quantity the paper's plan minimises.
//! [`ServeReport::histogram`] records *wall-clock* request latency —
//! queueing in the daemon plus real decode work — which is what the repo
//! benchmark's serving workloads (`benchmark/`) track.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use sprout_cluster::{ClusterError, StoreHandle};
use sprout_optimizer::CachePlan;

/// Knobs for [`Sproutd::start`].
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Number of worker threads (≥ 1).
    pub workers: usize,
    /// Bound of the submission queue; blocking submitters wait (and count a
    /// backpressure event) when it is full.
    pub queue_depth: usize,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            workers: 4,
            queue_depth: 256,
        }
    }
}

impl ServeOpts {
    /// Sets the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue bound.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

/// A cache plan as served: the per-object cached-chunk counts the swap
/// installs.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// `cached_chunks[i]` chunks of object `i` live in the cache tier.
    pub cached_chunks: Vec<usize>,
}

impl ServePlan {
    /// Wraps an optimizer [`CachePlan`]'s cached-chunk counts. The label is
    /// unused; the parameter stays while `benchmark/` still passes one.
    pub fn from_cache_plan(plan: &CachePlan, _label: impl Into<String>) -> Self {
        ServePlan {
            cached_chunks: plan.cached_chunks.clone(),
        }
    }
}

#[derive(Debug)]
enum Op {
    Get { object: u64 },
    Put { object: u64, data: Vec<u8> },
}

#[derive(Debug)]
struct Job {
    op: Op,
    submitted: Instant,
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Poppers parked on `not_empty` (or woken and not yet running).
    parked_poppers: usize,
    /// Pushers parked on `not_full` (or woken and not yet running).
    parked_pushers: usize,
}

/// Bounded MPMC queue: one mutex, two condvars. The parked counts change
/// only under the mutex, around the waits, so whoever changes the queue
/// sees every sleeper that went to sleep on the state it is changing and
/// skips the wake-up syscall when there is none.
#[derive(Debug)]
struct SharedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

impl SharedQueue {
    fn new(depth: usize) -> Self {
        SharedQueue {
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth,
        }
    }

    /// Blocking push; returns `false` (job discarded) after shutdown.
    /// `waited` reports whether the caller hit backpressure.
    fn push(&self, job: Job, waited: &mut bool) -> bool {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.jobs.len() >= self.depth && !state.closed {
            *waited = true;
            state.parked_pushers += 1;
            state = self.not_full.wait(state).expect("queue lock poisoned");
            state.parked_pushers -= 1;
        }
        if state.closed {
            return false;
        }
        self.enqueue(state, job);
        true
    }

    /// Appends `job` and wakes one popper if any is parked.
    fn enqueue(&self, mut state: MutexGuard<'_, QueueState>, job: Job) {
        state.jobs.push_back(job);
        let wake = state.parked_poppers > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Non-blocking push; returns `false` when full or closed.
    fn try_push(&self, job: Job) -> bool {
        let state = self.state.lock().expect("queue lock poisoned");
        if state.closed || state.jobs.len() >= self.depth {
            return false;
        }
        self.enqueue(state, job);
        true
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                let wake = state.parked_pushers > 0;
                drop(state);
                if wake {
                    self.not_full.notify_one();
                }
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.parked_poppers += 1;
            state = self.not_empty.wait(state).expect("queue lock poisoned");
            state.parked_poppers -= 1;
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").jobs.len()
    }
}

/// A log-bucketed latency histogram over microseconds: 16 linear buckets
/// under 16 µs, then 16 sub-buckets per power of two (≤ 6.25% relative
/// error). Each worker owns one — recording is plain array arithmetic, no
/// atomics, no locks — and the front-end merges them at shutdown.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

/// Majors cover up to 2^(4 + MAJORS) µs ≈ 1.2 hours; plenty.
const HIST_MAJORS: usize = 28;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 16 + HIST_MAJORS * 16],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    fn index_of(value_us: u64) -> usize {
        if value_us < 16 {
            return value_us as usize;
        }
        let major = (63 - value_us.leading_zeros() as usize).min(4 + HIST_MAJORS - 1);
        let sub = ((value_us >> (major - 4)) & 0xF) as usize;
        16 + (major - 4) * 16 + sub
    }

    /// Lower bound of the bucket at `index`, in microseconds.
    fn bucket_floor(index: usize) -> u64 {
        if index < 16 {
            return index as u64;
        }
        let major = (index - 16) / 16 + 4;
        let sub = ((index - 16) % 16) as u64;
        (1u64 << major) + (sub << (major - 4))
    }

    /// Records one latency sample.
    pub fn record(&mut self, value_us: u64) {
        self.buckets[Self::index_of(value_us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(value_us);
        self.max_us = self.max_us.max(value_us);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Largest recorded sample, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The `q`-quantile (0 < q ≤ 1) in microseconds: the floor of the bucket
    /// holding the target rank (≤ 6.25% below the true value), clamped to
    /// the recorded maximum.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (Self::bucket_floor(index) as f64).min(self.max_us as f64);
            }
        }
        self.max_us as f64
    }
}

/// What one worker hands back at shutdown.
#[derive(Debug)]
struct WorkerReport {
    completed: u64,
    errors: u64,
    checksum_mismatches: u64,
    min_epoch: u64,
    max_epoch: u64,
    histogram: LatencyHistogram,
    model_histogram: LatencyHistogram,
}

#[derive(Debug)]
struct ServeShared {
    store: StoreHandle,
    queue: SharedQueue,
    /// Plan generation: 0 until the first [`Sproutd::swap_plan`].
    plan_epoch: AtomicU64,
    started: Instant,
    in_flight: AtomicU64,
    submitted: AtomicU64,
    dropped: AtomicU64,
    backpressure_waits: AtomicU64,
    plan_swaps: AtomicU64,
    swaps_under_load: AtomicU64,
}

fn worker_loop(shared: Arc<ServeShared>) -> WorkerReport {
    let mut report = WorkerReport {
        completed: 0,
        errors: 0,
        checksum_mismatches: 0,
        min_epoch: u64::MAX,
        max_epoch: 0,
        histogram: LatencyHistogram::new(),
        model_histogram: LatencyHistogram::new(),
    };
    while let Some(job) = shared.queue.pop() {
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let epoch = shared.plan_epoch.load(Ordering::Acquire);
        report.min_epoch = report.min_epoch.min(epoch);
        report.max_epoch = report.max_epoch.max(epoch);
        // Virtual "now" for the store's FIFO/device models tracks real
        // elapsed time, so simulated queueing reflects the offered load.
        let now = shared.started.elapsed().as_secs_f64();
        match job.op {
            Op::Get { object } => match shared.store.get(object, now) {
                Ok(outcome) => {
                    report.completed += 1;
                    report
                        .model_histogram
                        .record((outcome.latency * 1e6).round() as u64);
                }
                Err(e) => {
                    report.errors += 1;
                    if matches!(e, ClusterError::ChecksumMismatch { .. }) {
                        report.checksum_mismatches += 1;
                    }
                }
            },
            Op::Put { object, data } => match shared.store.put(object, &data) {
                Ok(()) => report.completed += 1,
                Err(_) => report.errors += 1,
            },
        }
        report.histogram.record(
            job.submitted
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX)) as u64,
        );
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
    report
}

/// Merged end-of-run statistics from [`Sproutd::shutdown`].
#[derive(Debug)]
pub struct ServeReport {
    /// Requests that executed to completion (get decoded / put stored).
    pub completed: u64,
    /// Completed requests the store vouches for: gets whose decoded bytes
    /// matched the checksum recorded with the object, puts that recorded
    /// one. The store does both on every call, so this equals `completed`;
    /// a get that fails the check is an error, not an unverified completion.
    pub verified: u64,
    /// Requests that returned an error from the store.
    pub errors: u64,
    /// The share of `errors` that were gets whose decoded bytes failed the
    /// object's checksum ([`ClusterError::ChecksumMismatch`]).
    pub checksum_mismatches: u64,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Non-blocking submissions rejected because the queue was full.
    pub dropped: u64,
    /// Blocking submissions that had to wait for queue space.
    pub backpressure_waits: u64,
    /// Plan swaps installed over the run.
    pub plan_swaps: u64,
    /// Plan swaps installed while requests were queued or executing.
    pub swaps_under_load: u64,
    /// Lowest plan epoch any request was served under.
    pub min_epoch_served: u64,
    /// Highest plan epoch any request was served under.
    pub max_epoch_served: u64,
    /// Wall-clock duration from start to shutdown, in seconds.
    pub wall_seconds: f64,
    /// Merged wall-clock request-latency histogram.
    pub histogram: LatencyHistogram,
    /// Merged *modelled* latency ([`ReadOutcome::latency`], virtual time) of
    /// every completed get — the store's prediction beside the wall clock.
    ///
    /// [`ReadOutcome::latency`]: sprout_cluster::ReadOutcome::latency
    pub model_histogram: LatencyHistogram,
}

impl ServeReport {
    /// Completed requests per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.wall_seconds
        }
    }
}

/// The serving front-end: a fixed worker pool draining a bounded queue of
/// get/put requests against a shared [`StoreHandle`], with live plan swaps.
///
/// Start with [`Sproutd::start`], feed it via [`Sproutd::submit_get`] /
/// [`Sproutd::submit_put`] (blocking) or the `try_` variants (lossy), swap
/// plans with [`Sproutd::swap_plan`], and call [`Sproutd::shutdown`] to
/// drain, join the pool and collect the [`ServeReport`].
#[derive(Debug)]
pub struct Sproutd {
    shared: Arc<ServeShared>,
    workers: Vec<JoinHandle<WorkerReport>>,
}

impl Sproutd {
    /// Spawns the worker pool over `store`.
    pub fn start(store: StoreHandle, opts: ServeOpts) -> Sproutd {
        let workers = opts.workers.max(1);
        let shared = Arc::new(ServeShared {
            store,
            queue: SharedQueue::new(opts.queue_depth.max(1)),
            plan_epoch: AtomicU64::new(0),
            started: Instant::now(),
            in_flight: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
            plan_swaps: AtomicU64::new(0),
            swaps_under_load: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Sproutd {
            shared,
            workers: handles,
        }
    }

    /// Writes an object directly (bypassing the queue) — the setup path
    /// load generators use to populate the store before opening the
    /// floodgates.
    ///
    /// # Errors
    ///
    /// Propagates store write errors.
    pub fn preload(&self, object: u64, data: &[u8]) -> Result<(), ClusterError> {
        self.shared.store.put(object, data)
    }

    fn submit(&self, op: Op, blocking: bool) -> bool {
        let job = Job {
            op,
            submitted: Instant::now(),
        };
        let accepted = if blocking {
            let mut waited = false;
            let ok = self.shared.queue.push(job, &mut waited);
            if waited {
                self.shared
                    .backpressure_waits
                    .fetch_add(1, Ordering::Relaxed);
            }
            ok
        } else {
            self.shared.queue.try_push(job)
        };
        if accepted {
            self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
        accepted
    }

    /// Enqueues a read, blocking while the queue is full. Returns `false`
    /// only after shutdown.
    pub fn submit_get(&self, object: u64) -> bool {
        self.submit(Op::Get { object }, true)
    }

    /// Enqueues a read without blocking; `false` means the request was
    /// dropped (queue full) and counted.
    pub fn try_submit_get(&self, object: u64) -> bool {
        self.submit(Op::Get { object }, false)
    }

    /// Enqueues a write, blocking while the queue is full.
    pub fn submit_put(&self, object: u64, data: Vec<u8>) -> bool {
        self.submit(Op::Put { object, data }, true)
    }

    /// Installs a new cache plan while traffic flows: applies the plan's
    /// cached-chunk counts to the store's cache tier, then publishes a new
    /// epoch. Objects the plan names that do not exist (yet)
    /// are skipped. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Propagates cache-installation failures (wrong policy, capacity).
    pub fn swap_plan(&self, plan: ServePlan) -> Result<u64, ClusterError> {
        let under_load =
            self.shared.in_flight.load(Ordering::Acquire) > 0 || self.shared.queue.len() > 0;
        for (object, &d) in plan.cached_chunks.iter().enumerate() {
            match self.shared.store.set_cached_chunks(object as u64, d) {
                Ok(()) | Err(ClusterError::UnknownObject(_)) => {}
                Err(other) => return Err(other),
            }
        }
        let epoch = self.shared.plan_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.shared.plan_swaps.fetch_add(1, Ordering::Relaxed);
        if under_load {
            self.shared.swaps_under_load.fetch_add(1, Ordering::Relaxed);
        }
        Ok(epoch)
    }

    /// Requests currently queued (excludes in-flight execution).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// The shared store handle.
    pub fn store(&self) -> StoreHandle {
        self.shared.store.clone()
    }

    /// Closes the queue, drains every accepted request, joins the pool and
    /// merges the per-worker statistics.
    pub fn shutdown(self) -> ServeReport {
        self.shared.queue.close();
        let mut histogram = LatencyHistogram::new();
        let mut model_histogram = LatencyHistogram::new();
        let mut completed = 0;
        let mut errors = 0;
        let mut checksum_mismatches = 0;
        let mut min_epoch = u64::MAX;
        let mut max_epoch = 0;
        for handle in self.workers {
            let report = handle.join().expect("serve worker panicked");
            completed += report.completed;
            errors += report.errors;
            checksum_mismatches += report.checksum_mismatches;
            min_epoch = min_epoch.min(report.min_epoch);
            max_epoch = max_epoch.max(report.max_epoch);
            histogram.merge(&report.histogram);
            model_histogram.merge(&report.model_histogram);
        }
        if min_epoch == u64::MAX {
            min_epoch = 0;
        }
        ServeReport {
            completed,
            verified: completed,
            errors,
            checksum_mismatches,
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            backpressure_waits: self.shared.backpressure_waits.load(Ordering::Relaxed),
            plan_swaps: self.shared.plan_swaps.load(Ordering::Relaxed),
            swaps_under_load: self.shared.swaps_under_load.load(Ordering::Relaxed),
            min_epoch_served: min_epoch,
            max_epoch_served: max_epoch,
            wall_seconds: self.shared.started.elapsed().as_secs_f64(),
            histogram,
            model_histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::synthetic_payload;
    use sprout_cluster::{CachePolicy, ClusterConfig, DeviceModel};

    fn handle(policy: CachePolicy) -> StoreHandle {
        let config = ClusterConfig::builder()
            .nodes(8)
            .code(6, 3)
            .uniform_device(DeviceModel::exponential(0.001))
            .cache_policy(policy)
            .cache_capacity_bytes(10_000_000)
            .seed(3)
            .build();
        StoreHandle::new(config).unwrap()
    }

    #[test]
    fn histogram_buckets_are_monotone_and_quantiles_bound() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 5, 15, 16, 100, 1000, 65_000, 1_000_000] {
            let i = LatencyHistogram::index_of(v);
            let floor = LatencyHistogram::bucket_floor(i);
            assert!(floor <= v, "floor({v}) = {floor}");
            // The next bucket's floor bounds the relative error.
            let next = LatencyHistogram::bucket_floor(i + 1);
            assert!(next > v, "bucket [{floor}, {next}) must contain {v}");
        }
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert!((430.0..=500.0).contains(&p50), "p50 = {p50}");
        assert!((900.0..=990.0).contains(&p99), "p99 = {p99}");
        assert!(h.quantile_us(1.0) <= h.max_us() as f64);
        assert!((h.mean_us() - 500.5).abs() < 1e-9);

        let mut other = LatencyHistogram::new();
        other.record(2_000_000);
        h.merge(&other);
        assert_eq!(h.count(), 1001);
        assert_eq!(h.max_us(), 2_000_000);
    }

    #[test]
    fn queue_try_push_respects_the_bound() {
        let q = SharedQueue::new(2);
        let job = || Job {
            op: Op::Get { object: 0 },
            submitted: Instant::now(),
        };
        assert!(q.try_push(job()));
        assert!(q.try_push(job()));
        assert!(!q.try_push(job()), "third push exceeds depth 2");
        assert_eq!(q.len(), 2);
        assert!(q.pop().is_some());
        assert!(q.try_push(job()));
        q.close();
        assert!(!q.try_push(job()), "closed queue accepts nothing");
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "drained + closed");
    }

    /// 4 producers × 3 consumers over a nearly-always-full, a tiny and a
    /// roomy queue. A wake-up skipped while somebody was parked leaves a
    /// popper or pusher asleep for good and this test hangs (CI's job
    /// timeout is the guard); a double hand-off shows up in the id list.
    #[test]
    fn queue_hands_every_accepted_job_to_exactly_one_popper() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 3;
        const JOBS: u64 = 20_000;
        for depth in [1, 2, 256] {
            let q = SharedQueue::new(depth);
            let (mut accepted, mut popped) = std::thread::scope(|scope| {
                let consumers: Vec<_> = (0..CONSUMERS)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut ids = Vec::new();
                            while let Some(job) = q.pop() {
                                match job.op {
                                    Op::Get { object } => ids.push(object),
                                    Op::Put { .. } => unreachable!("only gets are pushed"),
                                }
                            }
                            ids
                        })
                    })
                    .collect();
                let producers: Vec<_> = (0..PRODUCERS)
                    .map(|p| {
                        let q = &q;
                        scope.spawn(move || {
                            let mut ids = Vec::new();
                            for object in (p..JOBS).step_by(PRODUCERS as usize) {
                                let job = Job {
                                    op: Op::Get { object },
                                    submitted: Instant::now(),
                                };
                                // Every third job takes the lossy path.
                                let ok = if object % 3 == 0 {
                                    q.try_push(job)
                                } else {
                                    q.push(job, &mut false)
                                };
                                if ok {
                                    ids.push(object);
                                }
                            }
                            ids
                        })
                    })
                    .collect();
                let accepted: Vec<u64> = producers
                    .into_iter()
                    .flat_map(|p| p.join().expect("producer panicked"))
                    .collect();
                q.close();
                let popped: Vec<u64> = consumers
                    .into_iter()
                    .flat_map(|c| c.join().expect("consumer panicked"))
                    .collect();
                (accepted, popped)
            });
            accepted.sort_unstable();
            popped.sort_unstable();
            assert!(
                accepted.len() as u64 >= JOBS - JOBS.div_ceil(3),
                "every blocking push is accepted (depth {depth})"
            );
            assert_eq!(popped, accepted, "depth {depth}");
            assert!(q.pop().is_none(), "closed and drained (depth {depth})");
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn sproutd_serves_and_verifies_under_a_live_plan_swap() {
        let store = handle(CachePolicy::Functional);
        let daemon = Sproutd::start(store, ServeOpts::default().workers(3).queue_depth(64));
        let objects = 10u64;
        for object in 0..objects {
            let data = synthetic_payload(object as usize, 30_000, 5);
            daemon.preload(object, &data).unwrap();
        }
        for round in 0..20u64 {
            for object in 0..objects {
                assert!(daemon.submit_get(object));
            }
            if round == 10 {
                let plan = ServePlan {
                    cached_chunks: vec![2; objects as usize],
                };
                assert_eq!(daemon.swap_plan(plan).unwrap(), 1);
            }
        }
        let report = daemon.shutdown();
        assert_eq!(report.submitted, 200);
        assert_eq!(report.completed, 200);
        assert_eq!(
            report.verified, report.completed,
            "every decode must verify"
        );
        assert_eq!(report.errors, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.plan_swaps, 1);
        assert_eq!(
            report.max_epoch_served, 1,
            "requests ran under the new plan"
        );
        assert_eq!(report.histogram.count(), 200);
        assert!(report.requests_per_sec() > 0.0);
    }

    #[test]
    fn model_histogram_records_the_modelled_latency_of_every_get() {
        let store = handle(CachePolicy::None);
        let daemon = Sproutd::start(store, ServeOpts::default().workers(2));
        for object in 0..4u64 {
            let data = synthetic_payload(object as usize, 30_000, 5);
            daemon.preload(object, &data).unwrap();
        }
        // A put completes too, but has no modelled read latency.
        assert!(daemon.submit_put(9, synthetic_payload(9, 30_000, 5)));
        for i in 0..400u64 {
            assert!(daemon.submit_get(i % 4));
        }
        let report = daemon.shutdown();
        assert_eq!(report.completed, 401);
        assert_eq!(report.errors, 0);
        assert_eq!(report.checksum_mismatches, 0);
        assert_eq!(report.model_histogram.count(), 400, "one sample per get");
        // A get is the slowest of k = 3 chunk reads, each exponential with
        // mean 1 ms plus whatever FIFO queueing the burst built up: the mean
        // sits above one device mean and far below a second.
        let mean_us = report.model_histogram.mean_us();
        assert!(
            (1_000.0..1_000_000.0).contains(&mean_us),
            "modelled mean {mean_us} µs"
        );
    }

    #[test]
    fn puts_through_the_daemon_are_verified_on_read() {
        let store = handle(CachePolicy::None);
        // One worker drains the queue in FIFO order, so every get runs after
        // its put; with two, a get can overtake its own in-flight put and
        // (correctly) fail with `UnknownObject`.
        let daemon = Sproutd::start(store, ServeOpts::default().workers(1));
        for object in 0..6u64 {
            let data = synthetic_payload(object as usize, 8_000, 9);
            assert!(daemon.submit_put(object, data));
        }
        for object in 0..6u64 {
            assert!(daemon.submit_get(object));
        }
        let report = daemon.shutdown();
        assert_eq!(report.completed, 12);
        assert_eq!(report.verified, 12, "puts then gets all verify");
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn unknown_objects_count_as_errors_not_panics() {
        let store = handle(CachePolicy::None);
        let daemon = Sproutd::start(store, ServeOpts::default().workers(1));
        assert!(daemon.submit_get(404));
        let report = daemon.shutdown();
        assert_eq!(report.errors, 1);
        assert_eq!(report.completed, 0);
    }
}
