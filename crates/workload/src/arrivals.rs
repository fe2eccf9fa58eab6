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

    /// Generates a trace for a piecewise-constant (non-homogeneous) rate
    /// schedule: `bins[b]` gives `(bin_length_seconds, per-file rates)`.
    /// Arrival times are absolute (bins are concatenated).
    pub fn generate_piecewise(&mut self, bins: &[(f64, Vec<f64>)]) -> Vec<Request> {
        let mut trace = Vec::new();
        let mut offset = 0.0;
        for (length, rates) in bins {
            let mut part = self.generate(rates, *length);
            for req in &mut part {
                req.time += offset;
            }
            trace.extend(part);
            offset += length;
        }
        trace
    }

    fn sample_exp(&mut self, rate: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate
    }
}

/// The arrival rate of one file as a function of time: either constant, or
/// piecewise-constant over a sequence of time segments (the shape produced by
/// [`crate::timebins::RateSchedule`]). Beyond the last segment of a piecewise
/// profile the rate is zero.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// A single rate holding forever.
    Constant(f64),
    /// Piecewise-constant rates: `rates[s]` holds on `[ends[s-1], ends[s])`
    /// (with `ends[-1] = 0`); the rate is zero from `ends.last()` onwards.
    Piecewise {
        /// Absolute end time of each segment, strictly increasing.
        ends: Vec<f64>,
        /// Rate in force during each segment; same length as `ends`.
        rates: Vec<f64>,
    },
}

impl RateProfile {
    /// Creates a constant-rate profile.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or NaN.
    pub fn constant(rate: f64) -> Self {
        assert!(rate >= 0.0, "arrival rate must be non-negative");
        RateProfile::Constant(rate)
    }

    /// Creates a piecewise profile from `(duration, rate)` segments.
    ///
    /// # Panics
    ///
    /// Panics if any duration is not positive or any rate is negative.
    pub fn piecewise(segments: &[(f64, f64)]) -> Self {
        let mut ends = Vec::with_capacity(segments.len());
        let mut rates = Vec::with_capacity(segments.len());
        let mut t = 0.0;
        for &(duration, rate) in segments {
            assert!(duration > 0.0, "segment duration must be positive");
            assert!(rate >= 0.0, "arrival rate must be non-negative");
            t += duration;
            ends.push(t);
            rates.push(rate);
        }
        RateProfile::Piecewise { ends, rates }
    }

    /// The rate in force at absolute time `t`, together with the end of the
    /// current constant-rate segment (`f64::INFINITY` for the final one).
    pub(crate) fn segment_at(&self, t: f64) -> (f64, f64) {
        match self {
            RateProfile::Constant(rate) => (*rate, f64::INFINITY),
            RateProfile::Piecewise { ends, rates } => {
                for (&end, &rate) in ends.iter().zip(rates) {
                    if t < end {
                        return (rate, end);
                    }
                }
                (0.0, f64::INFINITY)
            }
        }
    }

    /// The rate in force at absolute time `t`.
    pub(crate) fn rate_at(&self, t: f64) -> f64 {
        self.segment_at(t).0
    }
}

/// A lazily-sampled Poisson arrival process for a single file.
///
/// Unlike [`PoissonArrivals::generate`], which materializes a whole trace up
/// front (O(total requests) memory), an `ArrivalStream` produces one arrival
/// at a time: the simulator keeps exactly one pending arrival event per file,
/// so event-heap residency is O(files) regardless of the horizon.
///
/// Non-homogeneous (piecewise-constant) rates are sampled exactly: a unit
/// exponential is spent across segments, so no thinning loop and no bias at
/// segment boundaries.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    profile: RateProfile,
    rng: StdRng,
}

impl ArrivalStream {
    /// Creates a stream with a deterministic seed.
    pub fn new(profile: RateProfile, seed: u64) -> Self {
        ArrivalStream {
            profile,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The current rate profile.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Replaces the profile with a constant rate from now on — any remaining
    /// piecewise segments are discarded (a dynamic rate shift supersedes the
    /// static schedule). By Poisson memorylessness the caller can simply
    /// discard the previously scheduled arrival and draw a fresh one with
    /// [`ArrivalStream::next_arrival`].
    pub fn set_rate(&mut self, rate: f64) {
        assert!(rate >= 0.0, "arrival rate must be non-negative");
        self.profile = RateProfile::Constant(rate);
    }

    /// Draws the next arrival strictly after `now`, or `None` if it would
    /// land at or beyond `horizon` (or the profile has no rate left).
    pub fn next_arrival(&mut self, now: f64, horizon: f64) -> Option<f64> {
        let mut t = now;
        // One unit-exponential "budget" spent across rate segments.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let mut e = -u.ln();
        loop {
            if t >= horizon {
                return None;
            }
            let (rate, end) = self.profile.segment_at(t);
            if rate <= 0.0 {
                if end.is_infinite() {
                    return None;
                }
                t = end;
                continue;
            }
            let dt = e / rate;
            if t + dt < end {
                t += dt;
                return (t < horizon).then_some(t);
            }
            if end.is_infinite() || end >= horizon {
                return None;
            }
            e -= (end - t) * rate;
            t = end;
        }
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
    fn piecewise_trace_concatenates_bins() {
        let mut gen = PoissonArrivals::new(11);
        let bins = vec![(100.0, vec![0.5, 0.0]), (100.0, vec![0.0, 0.5])];
        let trace = gen.generate_piecewise(&bins);
        for r in &trace {
            if r.time < 100.0 {
                assert_eq!(r.file, 0);
            } else {
                assert_eq!(r.file, 1);
                assert!(r.time < 200.0);
            }
        }
        for w in trace.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let mut gen = PoissonArrivals::new(1);
        let _ = gen.generate(&[-0.1], 10.0);
    }

    #[test]
    fn rate_profile_segments() {
        let c = RateProfile::constant(0.3);
        assert_eq!(c.segment_at(1e9), (0.3, f64::INFINITY));
        let p = RateProfile::piecewise(&[(10.0, 0.5), (20.0, 0.0), (5.0, 2.0)]);
        assert_eq!(p.segment_at(0.0), (0.5, 10.0));
        assert_eq!(p.segment_at(9.99), (0.5, 10.0));
        assert_eq!(p.segment_at(10.0), (0.0, 30.0));
        assert_eq!(p.segment_at(30.0), (2.0, 35.0));
        assert_eq!(p.rate_at(35.0), 0.0);
        assert_eq!(p.segment_at(100.0), (0.0, f64::INFINITY));
    }

    #[test]
    fn stream_is_increasing_within_horizon_and_deterministic() {
        let mut a = ArrivalStream::new(RateProfile::constant(0.8), 42);
        let mut b = ArrivalStream::new(RateProfile::constant(0.8), 42);
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
    fn stream_matches_piecewise_rate_per_segment() {
        let profile = RateProfile::piecewise(&[(2_000.0, 1.0), (2_000.0, 0.0), (2_000.0, 3.0)]);
        let mut s = ArrivalStream::new(profile, 7);
        let (mut low, mut mid, mut high) = (0usize, 0usize, 0usize);
        let mut t = 0.0;
        while let Some(next) = s.next_arrival(t, 6_000.0) {
            match next {
                x if x < 2_000.0 => low += 1,
                x if x < 4_000.0 => mid += 1,
                _ => high += 1,
            }
            t = next;
        }
        assert_eq!(mid, 0, "zero-rate segment must produce no arrivals");
        let low_rate = low as f64 / 2_000.0;
        let high_rate = high as f64 / 2_000.0;
        assert!((low_rate - 1.0).abs() < 0.1, "low {low_rate}");
        assert!((high_rate - 3.0).abs() < 0.3, "high {high_rate}");
    }

    #[test]
    fn zero_rate_stream_terminates() {
        let mut s = ArrivalStream::new(RateProfile::constant(0.0), 1);
        assert_eq!(s.next_arrival(0.0, 1e12), None);
        let mut s = ArrivalStream::new(RateProfile::piecewise(&[(10.0, 0.0)]), 1);
        assert_eq!(s.next_arrival(0.0, 1e12), None);
    }

    #[test]
    fn set_rate_restarts_the_process() {
        let mut s = ArrivalStream::new(RateProfile::constant(0.0), 3);
        assert_eq!(s.next_arrival(0.0, 1e6), None);
        s.set_rate(5.0);
        let t = s.next_arrival(100.0, 1e6).unwrap();
        assert!(t > 100.0);
    }
}
