//! M/G/1 queue-delay moments (Eqs. (3) and (4) of the paper).
//!
//! Node `j` serves chunk requests from an infinite FIFO queue. Under
//! probabilistic scheduling the aggregate chunk-arrival process at node `j`
//! is Poisson with rate `Λ_j`, so the waiting-plus-service time `Q_j` of a
//! chunk request follows M/G/1 dynamics. The Pollaczek–Khinchine transform
//! gives its mean and variance in terms of the first three service-time
//! moments:
//!
//! ```text
//! E[Q_j]   = 1/µ_j + Λ_j Γ_j² / (2 (1 − ρ_j))
//! Var[Q_j] = σ_j² + Λ_j Γ̂_j³ / (3 (1 − ρ_j)) + Λ_j² Γ_j⁴ / (4 (1 − ρ_j)²)
//! ```
//!
//! with `ρ_j = Λ_j / µ_j`. The derivative helpers are used by the optimizer's
//! analytic gradient of the latency objective with respect to the scheduling
//! probabilities.

use crate::dist::ServiceMoments;
use crate::stability::StabilityError;

/// Mean and variance of the queueing delay `Q_j` at one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueDelayMoments {
    /// `E[Q_j]` — expected waiting plus service time of a chunk request.
    pub mean: f64,
    /// `Var[Q_j]` — variance of the chunk delay.
    pub variance: f64,
}

/// Computes the M/G/1 queue-delay moments for a node.
///
/// `arrival_rate` is the aggregate chunk-arrival rate `Λ_j` at the node and
/// `service` the service-time moments of the node.
///
/// # Errors
///
/// Returns [`StabilityError`] if `ρ = Λ / µ ≥ 1` (the queue is unstable and
/// the moments diverge). The reported node index is 0 because this function
/// analyses a single node; callers embedding it in a cluster remap the index.
pub fn queue_delay_moments(
    arrival_rate: f64,
    service: &ServiceMoments,
) -> Result<QueueDelayMoments, StabilityError> {
    assert!(arrival_rate >= 0.0, "arrival rate must be non-negative");
    let mu = service.rate();
    let rho = arrival_rate / mu;
    if rho >= 1.0 {
        return Err(StabilityError {
            node: 0,
            utilization: rho,
        });
    }
    let gamma2 = service.second;
    let gamma3 = service.third;
    let sigma2 = service.variance();
    let one_minus_rho = 1.0 - rho;
    let mean = service.mean + arrival_rate * gamma2 / (2.0 * one_minus_rho);
    let variance = sigma2
        + arrival_rate * gamma3 / (3.0 * one_minus_rho)
        + arrival_rate * arrival_rate * gamma2 * gamma2 / (4.0 * one_minus_rho * one_minus_rho);
    Ok(QueueDelayMoments { mean, variance })
}

/// Derivative of `E[Q_j]` with respect to the node arrival rate `Λ_j`.
///
/// `d E[Q] / dΛ = Γ² / (2 (1 − ρ)²)`.
pub fn mean_delay_derivative(arrival_rate: f64, service: &ServiceMoments) -> f64 {
    let rho = arrival_rate * service.mean;
    let one_minus_rho = (1.0 - rho).max(f64::MIN_POSITIVE);
    service.second / (2.0 * one_minus_rho * one_minus_rho)
}

/// Derivative of `Var[Q_j]` with respect to the node arrival rate `Λ_j`.
///
/// `d Var[Q] / dΛ = Γ̂³ / (3 (1 − ρ)²) + Λ Γ⁴ / (2 (1 − ρ)³)`.
pub fn variance_delay_derivative(arrival_rate: f64, service: &ServiceMoments) -> f64 {
    let rho = arrival_rate * service.mean;
    let one_minus_rho = (1.0 - rho).max(f64::MIN_POSITIVE);
    service.third / (3.0 * one_minus_rho * one_minus_rho)
        + arrival_rate * service.second * service.second
            / (2.0 * one_minus_rho * one_minus_rho * one_minus_rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ServiceDistribution;

    #[test]
    fn zero_load_reduces_to_service_time() {
        let s = ServiceDistribution::exponential(0.1).moments();
        let q = queue_delay_moments(0.0, &s).unwrap();
        assert!((q.mean - 10.0).abs() < 1e-12);
        assert!((q.variance - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mm1_sojourn_time_matches_closed_form() {
        // For M/M/1 the mean sojourn (wait in queue + service) is
        // 1/µ + ρ/(µ(1-ρ)) = 1/(µ - λ) ... but note E[Q] as defined in the
        // paper is waiting-in-queue-plus-service, i.e. the sojourn time.
        let mu = 0.2;
        let lambda = 0.1;
        let s = ServiceDistribution::exponential(mu).moments();
        let q = queue_delay_moments(lambda, &s).unwrap();
        let expect = 1.0 / (mu - lambda);
        assert!(
            (q.mean - expect).abs() < 1e-9,
            "got {} want {expect}",
            q.mean
        );
    }

    #[test]
    fn md1_has_smaller_mean_delay_than_mm1() {
        let mu = 0.2;
        let lambda = 0.12;
        let exp = ServiceDistribution::exponential(mu).moments();
        let det = ServiceDistribution::deterministic(1.0 / mu).moments();
        let q_exp = queue_delay_moments(lambda, &exp).unwrap();
        let q_det = queue_delay_moments(lambda, &det).unwrap();
        assert!(q_det.mean < q_exp.mean);
        assert!(q_det.variance < q_exp.variance);
    }

    #[test]
    fn moments_increase_with_load() {
        let s = ServiceDistribution::exponential(0.1).moments();
        let mut prev = queue_delay_moments(0.0, &s).unwrap();
        for i in 1..9 {
            let lambda = i as f64 * 0.01;
            let q = queue_delay_moments(lambda, &s).unwrap();
            assert!(q.mean > prev.mean);
            assert!(q.variance > prev.variance);
            prev = q;
        }
    }

    #[test]
    fn overload_is_an_error() {
        let s = ServiceDistribution::exponential(0.1).moments();
        assert!(queue_delay_moments(0.1, &s).is_err());
        assert!(queue_delay_moments(0.5, &s).is_err());
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let s = ServiceDistribution::gamma(2.0, 5.0).moments();
        let h = 1e-7;
        for &lambda in &[0.0, 0.01, 0.05, 0.08] {
            let base = queue_delay_moments(lambda, &s).unwrap();
            let bumped = queue_delay_moments(lambda + h, &s).unwrap();
            let d_mean = (bumped.mean - base.mean) / h;
            let d_var = (bumped.variance - base.variance) / h;
            let a_mean = mean_delay_derivative(lambda, &s);
            let a_var = variance_delay_derivative(lambda, &s);
            assert!(
                (d_mean - a_mean).abs() / a_mean.max(1.0) < 1e-3,
                "lambda={lambda}: {d_mean} vs {a_mean}"
            );
            assert!(
                (d_var - a_var).abs() / a_var.max(1.0) < 1e-3,
                "lambda={lambda}: {d_var} vs {a_var}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_arrival_rate_panics() {
        let s = ServiceDistribution::exponential(1.0).moments();
        let _ = queue_delay_moments(-0.1, &s);
    }
}
