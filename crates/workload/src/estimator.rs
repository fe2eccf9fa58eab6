//! Sliding-window arrival-rate estimation with change detection.
//!
//! The paper assumes a rate monitoring/prediction oracle — "a simple
//! sliding-window-based method, which continuously measures the average
//! request arrival and introduces a new time bin if the arrival rates vary
//! sufficiently" (§III, §V-B). This module implements that method: per-file
//! request counts over a sliding window give rate estimates, and a relative
//! change beyond a threshold on any file triggers a new time bin.

use std::collections::VecDeque;

/// Sliding-window estimator of per-file arrival rates.
#[derive(Debug, Clone)]
pub struct SlidingWindowEstimator {
    window: f64,
    threshold: f64,
    num_files: usize,
    /// (time, file) of requests inside the window, oldest first.
    events: VecDeque<(f64, usize)>,
    /// Rates at the last time-bin boundary, used for change detection.
    baseline: Vec<f64>,
    now: f64,
}

impl SlidingWindowEstimator {
    /// Creates an estimator.
    ///
    /// * `num_files` — number of files tracked.
    /// * `window` — window length in seconds.
    /// * `threshold` — relative rate change (e.g. `0.5` for 50 %) on any file
    ///   that triggers a new time bin.
    ///
    /// # Panics
    ///
    /// Panics if `window <= 0` or `threshold <= 0`.
    pub fn new(num_files: usize, window: f64, threshold: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        assert!(threshold > 0.0, "threshold must be positive");
        SlidingWindowEstimator {
            window,
            threshold,
            num_files,
            events: VecDeque::new(),
            baseline: vec![0.0; num_files],
            now: 0.0,
        }
    }

    /// Records a request for `file` at absolute time `time` (non-decreasing).
    ///
    /// Returns `true` if the estimated rates have drifted far enough from the
    /// baseline that a new time bin (and a re-optimization) should start; the
    /// baseline is then reset to the current estimates.
    ///
    /// # Panics
    ///
    /// Panics if `file` is out of range or `time` moves backwards.
    pub fn observe(&mut self, time: f64, file: usize) -> bool {
        assert!(file < self.num_files, "file index out of range");
        assert!(time >= self.now, "time must be non-decreasing");
        self.now = time;
        self.events.push_back((time, file));
        self.evict();
        if self.drifted() {
            self.baseline = self.rates();
            true
        } else {
            false
        }
    }

    /// Current per-file rate estimates (requests per second over the window).
    pub fn rates(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.num_files];
        for &(_, file) in &self.events {
            counts[file] += 1;
        }
        let effective_window = self.window.min(self.now.max(f64::MIN_POSITIVE));
        counts
            .into_iter()
            .map(|c| c as f64 / effective_window)
            .collect()
    }

    fn evict(&mut self) {
        let cutoff = self.now - self.window;
        while let Some(&(t, _)) = self.events.front() {
            if t < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    fn drifted(&self) -> bool {
        let rates = self.rates();
        rates.iter().zip(&self.baseline).any(|(&cur, &base)| {
            let denom = base.max(1.0 / self.window);
            (cur - base).abs() / denom > self.threshold
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_reflect_window_counts() {
        let mut est = SlidingWindowEstimator::new(2, 10.0, 1000.0);
        for i in 1..=10 {
            est.observe(i as f64, 0);
        }
        let rates = est.rates();
        assert!((rates[0] - 1.0).abs() < 0.11, "rate {rates:?}");
        assert_eq!(rates[1], 0.0);
    }

    #[test]
    fn old_events_fall_out_of_the_window() {
        let mut est = SlidingWindowEstimator::new(2, 5.0, 1000.0);
        est.observe(0.0, 0);
        est.observe(1.0, 0);
        est.observe(20.0, 1);
        assert_eq!(est.rates()[0], 0.0);
    }

    #[test]
    fn drift_triggers_new_time_bin() {
        let mut est = SlidingWindowEstimator::new(1, 10.0, 0.5);
        // establish a baseline of ~0.5 req/s
        let mut triggered = false;
        for i in 0..20 {
            triggered |= est.observe(i as f64 * 2.0, 0);
        }
        // now a burst at 5 req/s should trigger
        let mut fired = false;
        for i in 0..50 {
            if est.observe(40.0 + i as f64 * 0.2, 0) {
                fired = true;
                break;
            }
        }
        assert!(fired, "burst should trigger a new time bin");
        let _ = triggered;
    }

    #[test]
    fn steady_rate_does_not_trigger() {
        let mut est = SlidingWindowEstimator::new(1, 50.0, 0.8);
        let mut warmup = 0;
        let mut fired_after_warmup = false;
        for i in 0..500 {
            let fired = est.observe(i as f64, 0);
            if i < 100 {
                warmup += usize::from(fired);
            } else {
                fired_after_warmup |= fired;
            }
        }
        let _ = warmup; // transitions during warm-up are acceptable
        assert!(
            !fired_after_warmup,
            "steady traffic must not retrigger bins"
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_going_backwards_panics() {
        let mut est = SlidingWindowEstimator::new(1, 10.0, 0.5);
        est.observe(5.0, 0);
        est.observe(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_file_panics() {
        let mut est = SlidingWindowEstimator::new(1, 10.0, 0.5);
        est.observe(0.0, 3);
    }
}
