//! Poisson request-arrival generation.
//!
//! File-access requests are modeled as independent Poisson processes, one per
//! file (§III). The generator below superposes them into a single
//! time-ordered request trace, which both the discrete-event simulator and
//! the cluster substrate replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One file-access request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time in seconds from the start of the trace.
    pub time: f64,
    /// Index of the requested file.
    pub file: usize,
}

/// Generator of Poisson request traces.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: StdRng,
}

impl PoissonArrivals {
    /// Creates a generator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates a time-ordered trace over `[0, horizon)` seconds where file
    /// `i` is requested according to a Poisson process of rate `rates[i]`.
    pub fn generate(&mut self, rates: &[f64], horizon: f64) -> Vec<Request> {
        assert!(horizon >= 0.0, "horizon must be non-negative");
        let mut trace = Vec::new();
        for (file, &rate) in rates.iter().enumerate() {
            assert!(rate >= 0.0, "arrival rates must be non-negative");
            if rate == 0.0 {
                continue;
            }
            let mut t = 0.0;
            loop {
                t += self.sample_exp(rate);
                if t >= horizon {
                    break;
                }
                trace.push(Request { time: t, file });
            }
        }
        trace.sort_by(|a, b| a.time.total_cmp(&b.time));
        trace
    }

    fn sample_exp(&mut self, rate: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate
    }
}

/// A lazily-sampled Poisson arrival process for a single file, at a
/// constant rate.
///
/// Unlike [`PoissonArrivals::generate`], which materializes a whole trace up
/// front (O(total requests) memory), an `ArrivalStream` produces one arrival
/// at a time: the simulator keeps exactly one pending arrival event per file,
/// so event-queue residency is O(files) regardless of the horizon. Rates that
/// change over time are driven from outside with [`ArrivalStream::set_rate`]
/// (the simulator's `SetRates` events).
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    rate: f64,
    rng: StdRng,
}

impl ArrivalStream {
    /// Creates a stream at `rate` arrivals per second with a deterministic
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or NaN.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(rate >= 0.0, "arrival rate must be non-negative");
        ArrivalStream {
            rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The rate in force, in arrivals per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Changes the rate from now on. By Poisson memorylessness the caller can
    /// simply discard the previously scheduled arrival and draw a fresh one
    /// with [`ArrivalStream::next_arrival`].
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or NaN.
    pub fn set_rate(&mut self, rate: f64) {
        assert!(rate >= 0.0, "arrival rate must be non-negative");
        self.rate = rate;
    }

    /// Draws the next arrival strictly after `now`, or `None` if it would
    /// land at or beyond `horizon` (or the rate is zero). Every call consumes
    /// one uniform, so a stream's draws do not depend on where they land.
    pub fn next_arrival(&mut self, now: f64, horizon: f64) -> Option<f64> {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        if now >= horizon || self.rate <= 0.0 {
            return None;
        }
        let t = now + -u.ln() / self.rate;
        (t < horizon).then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_time_ordered_and_within_horizon() {
        let mut gen = PoissonArrivals::new(1);
        let trace = gen.generate(&[0.5, 0.2, 0.0], 200.0);
        assert!(!trace.is_empty());
        for w in trace.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(trace.iter().all(|r| r.time < 200.0 && r.file < 2));
    }

    #[test]
    fn empirical_rate_matches_specification() {
        let mut gen = PoissonArrivals::new(7);
        let horizon = 50_000.0;
        let rates = [0.02, 0.05];
        let trace = gen.generate(&rates, horizon);
        for (file, &rate) in rates.iter().enumerate() {
            let count = trace.iter().filter(|r| r.file == file).count();
            let empirical = count as f64 / horizon;
            assert!(
                (empirical - rate).abs() / rate < 0.05,
                "file {file}: empirical {empirical} vs {rate}"
            );
        }
    }

    #[test]
    fn zero_rates_produce_empty_trace() {
        let mut gen = PoissonArrivals::new(3);
        assert!(gen.generate(&[0.0, 0.0], 1000.0).is_empty());
        assert!(gen.generate(&[1.0], 0.0).is_empty());
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = PoissonArrivals::new(99).generate(&[0.1, 0.3], 500.0);
        let b = PoissonArrivals::new(99).generate(&[0.1, 0.3], 500.0);
        assert_eq!(a, b);
        let c = PoissonArrivals::new(100).generate(&[0.1, 0.3], 500.0);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let mut gen = PoissonArrivals::new(1);
        let _ = gen.generate(&[-0.1], 10.0);
    }

    #[test]
    fn stream_is_increasing_within_horizon_and_deterministic() {
        let mut a = ArrivalStream::new(0.8, 42);
        let mut b = ArrivalStream::new(0.8, 42);
        let mut t = 0.0;
        let mut count = 0usize;
        while let Some(next) = a.next_arrival(t, 500.0) {
            assert!(next > t && next < 500.0);
            assert_eq!(b.next_arrival(t, 500.0), Some(next));
            t = next;
            count += 1;
        }
        // Empirical rate within 15 % of nominal over 500 s.
        let empirical = count as f64 / 500.0;
        assert!(
            (empirical - 0.8).abs() / 0.8 < 0.15,
            "empirical {empirical}"
        );
    }

    #[test]
    fn zero_rate_stream_terminates() {
        let mut s = ArrivalStream::new(0.0, 1);
        assert_eq!(s.next_arrival(0.0, 1e12), None);
    }

    #[test]
    fn set_rate_restarts_the_process() {
        let mut s = ArrivalStream::new(0.0, 3);
        assert_eq!(s.next_arrival(0.0, 1e6), None);
        s.set_rate(5.0);
        let t = s.next_arrival(100.0, 1e6).unwrap();
        assert!(t > 100.0);
    }
}
