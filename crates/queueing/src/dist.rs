//! Chunk service-time distributions.
//!
//! The latency bound of Lemma 1 only needs the first three moments of the
//! per-chunk service time at each node; the discrete-event simulator
//! additionally needs to sample from the distribution. Both capabilities live
//! here.
//!
//! The paper measures mean and variance of chunk service times on its Ceph
//! testbed (Table IV for HDD-backed OSDs, Table V for the SSD cache) and
//! feeds the fitted moments into the optimizer. [`ServiceDistribution::from_mean_variance`]
//! reproduces that workflow by fitting a Gamma distribution, which has a
//! closed-form third moment.

use rand::Rng;
use std::fmt;

/// First three raw moments of a service-time distribution.
///
/// The notation follows the paper: `mean = 1/µ`, `second = Γ²`,
/// `third = Γ̂³`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMoments {
    /// `E[X]`, the mean service time (seconds).
    pub mean: f64,
    /// `E[X²]`, the second raw moment.
    pub second: f64,
    /// `E[X³]`, the third raw moment.
    pub third: f64,
}

impl ServiceMoments {
    /// Creates a moments triple.
    ///
    /// # Panics
    ///
    /// Panics if the moments are not positive and consistent
    /// (`second ≥ mean²` is required for a valid distribution).
    pub fn new(mean: f64, second: f64, third: f64) -> Self {
        assert!(mean > 0.0, "mean service time must be positive");
        assert!(
            second >= mean * mean * (1.0 - 1e-12),
            "second moment must be at least mean^2"
        );
        assert!(third > 0.0, "third moment must be positive");
        ServiceMoments {
            mean,
            second,
            third,
        }
    }

    /// Service rate `µ = 1 / E[X]`.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }

    /// Variance `σ² = E[X²] − E[X]²`.
    pub fn variance(&self) -> f64 {
        (self.second - self.mean * self.mean).max(0.0)
    }
}

/// A chunk service-time distribution with analytic moments and sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDistribution {
    /// Exponential with the given rate (mean `1/rate`).
    Exponential {
        /// Service rate `µ` (per second).
        rate: f64,
    },
    /// Deterministic (constant) service time.
    Deterministic {
        /// The constant service time.
        value: f64,
    },
    /// Uniform on `[low, high]`.
    Uniform {
        /// Lower endpoint.
        low: f64,
        /// Upper endpoint.
        high: f64,
    },
    /// A constant shift plus an exponential tail; a common model for disk
    /// reads (positioning time + transfer time).
    ShiftedExponential {
        /// Constant part of the service time.
        shift: f64,
        /// Rate of the exponential part.
        rate: f64,
    },
    /// Gamma distribution with the given shape and scale.
    Gamma {
        /// Shape parameter `α`.
        shape: f64,
        /// Scale parameter `θ`.
        scale: f64,
    },
}

impl ServiceDistribution {
    /// Exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        ServiceDistribution::Exponential { rate }
    }

    /// Deterministic service time.
    ///
    /// # Panics
    ///
    /// Panics if `value <= 0`.
    pub fn deterministic(value: f64) -> Self {
        assert!(value > 0.0, "service time must be positive");
        ServiceDistribution::Deterministic { value }
    }

    /// Uniform service time on `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low < 0` or `high <= low`.
    pub fn uniform(low: f64, high: f64) -> Self {
        assert!(low >= 0.0 && high > low, "require 0 <= low < high");
        ServiceDistribution::Uniform { low, high }
    }

    /// Shifted-exponential service time.
    ///
    /// # Panics
    ///
    /// Panics if `shift < 0` or `rate <= 0`.
    pub fn shifted_exponential(shift: f64, rate: f64) -> Self {
        assert!(
            shift >= 0.0 && rate > 0.0,
            "require shift >= 0 and rate > 0"
        );
        ServiceDistribution::ShiftedExponential { shift, rate }
    }

    /// Gamma service time with the given shape and scale.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive.
    pub fn gamma(shape: f64, scale: f64) -> Self {
        assert!(
            shape > 0.0 && scale > 0.0,
            "gamma parameters must be positive"
        );
        ServiceDistribution::Gamma { shape, scale }
    }

    /// Fits a Gamma distribution to a measured mean and variance.
    ///
    /// This mirrors the paper's prototype, which measures per-chunk mean and
    /// variance on the testbed (Table IV) and needs a third moment to
    /// evaluate the bound.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `variance <= 0`.
    pub fn from_mean_variance(mean: f64, variance: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        assert!(variance > 0.0, "variance must be positive");
        let shape = mean * mean / variance;
        let scale = variance / mean;
        ServiceDistribution::Gamma { shape, scale }
    }

    /// Mean service time.
    pub fn mean(&self) -> f64 {
        self.moments().mean
    }

    /// Service rate `µ = 1 / mean`.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean()
    }

    /// First three raw moments of the distribution.
    pub fn moments(&self) -> ServiceMoments {
        match *self {
            ServiceDistribution::Exponential { rate } => {
                let m = 1.0 / rate;
                ServiceMoments {
                    mean: m,
                    second: 2.0 * m * m,
                    third: 6.0 * m * m * m,
                }
            }
            ServiceDistribution::Deterministic { value } => ServiceMoments {
                mean: value,
                second: value * value,
                third: value * value * value,
            },
            ServiceDistribution::Uniform { low, high } => {
                let m1 = (low + high) / 2.0;
                let m2 = (high.powi(3) - low.powi(3)) / (3.0 * (high - low));
                let m3 = (high.powi(4) - low.powi(4)) / (4.0 * (high - low));
                ServiceMoments {
                    mean: m1,
                    second: m2,
                    third: m3,
                }
            }
            ServiceDistribution::ShiftedExponential { shift, rate } => {
                // X = s + E where E ~ Exp(rate)
                let e1 = 1.0 / rate;
                let e2 = 2.0 / (rate * rate);
                let e3 = 6.0 / (rate * rate * rate);
                ServiceMoments {
                    mean: shift + e1,
                    second: shift * shift + 2.0 * shift * e1 + e2,
                    third: shift.powi(3) + 3.0 * shift * shift * e1 + 3.0 * shift * e2 + e3,
                }
            }
            ServiceDistribution::Gamma { shape, scale } => ServiceMoments {
                mean: shape * scale,
                second: scale * scale * shape * (shape + 1.0),
                third: scale.powi(3) * shape * (shape + 1.0) * (shape + 2.0),
            },
        }
    }

    /// Draws one service time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ServiceDistribution::Exponential { rate } => sample_exponential(rng, rate),
            ServiceDistribution::Deterministic { value } => value,
            ServiceDistribution::Uniform { low, high } => rng.gen_range(low..high),
            ServiceDistribution::ShiftedExponential { shift, rate } => {
                shift + sample_exponential(rng, rate)
            }
            ServiceDistribution::Gamma { shape, scale } => sample_gamma(rng, shape, scale),
        }
    }
}

impl fmt::Display for ServiceDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServiceDistribution::Exponential { rate } => write!(f, "Exp(rate={rate})"),
            ServiceDistribution::Deterministic { value } => write!(f, "Det({value})"),
            ServiceDistribution::Uniform { low, high } => write!(f, "Uniform[{low}, {high}]"),
            ServiceDistribution::ShiftedExponential { shift, rate } => {
                write!(f, "ShiftedExp(shift={shift}, rate={rate})")
            }
            ServiceDistribution::Gamma { shape, scale } => {
                write!(f, "Gamma(shape={shape}, scale={scale})")
            }
        }
    }
}

fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Marsaglia–Tsang gamma sampling (with the boosting trick for `shape < 1`).
fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    if shape < 1.0 {
        // boost: Gamma(a) = Gamma(a+1) * U^{1/a}
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // standard normal via Box-Muller
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x.powi(2) + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn check_moments_by_sampling(dist: ServiceDistribution, tol: f64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!(x >= 0.0, "service times must be non-negative");
            s1 += x;
            s2 += x * x;
        }
        let m = dist.moments();
        let emp1 = s1 / n as f64;
        let emp2 = s2 / n as f64;
        assert!(
            (emp1 - m.mean).abs() / m.mean < tol,
            "{dist}: empirical mean {emp1} vs analytic {}",
            m.mean
        );
        assert!(
            (emp2 - m.second).abs() / m.second < 3.0 * tol,
            "{dist}: empirical 2nd moment {emp2} vs analytic {}",
            m.second
        );
    }

    #[test]
    fn exponential_moments() {
        let d = ServiceDistribution::exponential(0.1);
        let m = d.moments();
        assert!((m.mean - 10.0).abs() < 1e-12);
        assert!((m.second - 200.0).abs() < 1e-9);
        assert!((m.third - 6000.0).abs() < 1e-6);
        assert!((m.variance() - 100.0).abs() < 1e-9);
        assert!((m.variance() / (m.mean * m.mean) - 1.0).abs() < 1e-9);
        assert!((d.rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn deterministic_moments_have_zero_variance() {
        let d = ServiceDistribution::deterministic(4.0);
        let m = d.moments();
        assert_eq!(m.mean, 4.0);
        assert_eq!(m.second, 16.0);
        assert_eq!(m.third, 64.0);
        assert!(m.variance() < 1e-12);
    }

    #[test]
    fn uniform_moments() {
        let d = ServiceDistribution::uniform(2.0, 6.0);
        let m = d.moments();
        assert!((m.mean - 4.0).abs() < 1e-12);
        // var = (b-a)^2/12 = 16/12
        assert!((m.variance() - 16.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn shifted_exponential_moments() {
        let d = ServiceDistribution::shifted_exponential(1.0, 0.5);
        let m = d.moments();
        assert!((m.mean - 3.0).abs() < 1e-12);
        // var equals the exponential part's variance, 1/rate^2 = 4
        assert!((m.variance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_moments_and_fit() {
        let d = ServiceDistribution::from_mean_variance(147.8, 389.0);
        let m = d.moments();
        assert!((m.mean - 147.8).abs() < 1e-9);
        assert!((m.variance() - 389.0).abs() < 1e-6);
        assert!(m.third > 0.0);
    }

    #[test]
    fn sampling_matches_analytic_moments() {
        check_moments_by_sampling(ServiceDistribution::exponential(0.25), 0.02);
        check_moments_by_sampling(ServiceDistribution::deterministic(3.0), 0.001);
        check_moments_by_sampling(ServiceDistribution::uniform(1.0, 9.0), 0.02);
        check_moments_by_sampling(ServiceDistribution::shifted_exponential(2.0, 1.0), 0.02);
        check_moments_by_sampling(ServiceDistribution::gamma(2.5, 3.0), 0.03);
        check_moments_by_sampling(ServiceDistribution::gamma(0.5, 1.0), 0.03);
    }

    #[test]
    fn display_names() {
        assert!(ServiceDistribution::exponential(1.0)
            .to_string()
            .contains("Exp"));
        assert!(ServiceDistribution::deterministic(1.0)
            .to_string()
            .contains("Det"));
        assert!(ServiceDistribution::uniform(0.0, 1.0)
            .to_string()
            .contains("Uniform"));
        assert!(ServiceDistribution::gamma(1.0, 1.0)
            .to_string()
            .contains("Gamma"));
        assert!(ServiceDistribution::shifted_exponential(1.0, 1.0)
            .to_string()
            .contains("ShiftedExp"));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn invalid_exponential_rate_panics() {
        let _ = ServiceDistribution::exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "second moment")]
    fn inconsistent_moments_panic() {
        let _ = ServiceMoments::new(10.0, 50.0, 1000.0);
    }

    #[test]
    fn moments_constructor_accepts_valid_input() {
        let m = ServiceMoments::new(2.0, 5.0, 20.0);
        assert!((m.variance() - 1.0).abs() < 1e-12);
        assert!((m.rate() - 0.5).abs() < 1e-12);
    }
}
