//! One node's M/G/1 queue (Eqs. (3) and (4) of the paper) and its term of
//! Lemma 1.
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
//! with `ρ_j = Λ_j / µ_j`. [`NodeQueue`] holds both moments, their
//! derivatives in `Λ_j` and the node's term of Lemma 1 built from them, so
//! the bound, its minimizing `z` and the optimizer's gradient read one value.

use crate::dist::ServiceMoments;
use crate::stability::StabilityError;

/// One node's M/G/1 queue at chunk-arrival rate `Λ_j`: the sojourn-time
/// moments `E[Q_j]` and `Var[Q_j]`, their derivatives in `Λ_j`, and
/// Lemma 1's per-node excess built from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeQueue {
    /// `E[Q_j]`.
    mean: f64,
    /// `Var[Q_j]`.
    variance: f64,
    /// `dE[Q_j]/dΛ_j = Γ² / (2 (1 − ρ)²)`.
    d_mean: f64,
    /// `dVar[Q_j]/dΛ_j = Γ̂³ / (3 (1 − ρ)²) + Λ Γ⁴ / (2 (1 − ρ)³)`.
    d_variance: f64,
}

impl NodeQueue {
    /// The queue of node `node` when chunk requests arrive at rate
    /// `arrival_rate` (`Λ_j ≥ 0`, or it panics) and are served with moments
    /// `service`.
    ///
    /// # Errors
    ///
    /// Returns [`StabilityError`] naming `node` if `ρ = Λ / µ ≥ 1` (the queue
    /// is unstable and the moments diverge).
    pub fn new(
        node: usize,
        arrival_rate: f64,
        service: &ServiceMoments,
    ) -> Result<Self, StabilityError> {
        assert!(arrival_rate >= 0.0, "arrival rate must be non-negative");
        let rho = arrival_rate / service.rate();
        if rho >= 1.0 {
            return Err(StabilityError {
                node,
                utilization: rho,
            });
        }
        let gamma2 = service.second;
        let gamma3 = service.third;
        let one_minus_rho = 1.0 - rho;
        let mean = service.mean + arrival_rate * gamma2 / (2.0 * one_minus_rho);
        let variance = service.variance()
            + arrival_rate * gamma3 / (3.0 * one_minus_rho)
            + arrival_rate * arrival_rate * gamma2 * gamma2 / (4.0 * one_minus_rho * one_minus_rho);
        // The derivatives take ρ as Λ·E[X], not Λ/µ: the two differ in the
        // last bit, and the gradient has always used this one.
        let slack = (1.0 - arrival_rate * service.mean).max(f64::MIN_POSITIVE);
        let d_mean = gamma2 / (2.0 * slack * slack);
        let d_variance = gamma3 / (3.0 * slack * slack)
            + arrival_rate * gamma2 * gamma2 / (2.0 * slack * slack * slack);
        Ok(NodeQueue {
            mean,
            variance,
            d_mean,
            d_variance,
        })
    }

    /// `E[Q_j]` — expected waiting plus service time of a chunk request.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// `Var[Q_j]` — variance of the chunk delay.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// `x = E[Q_j] − z` and `sqrt(x² + Var[Q_j])`, the two terms of the
    /// excess and of both its derivatives.
    fn offset_and_root(&self, z: f64) -> (f64, f64) {
        let x = self.mean - z;
        (x, (x * x + self.variance).sqrt())
    }

    /// Lemma 1's excess `½ [x + sqrt(x² + Var[Q_j])]` with `x = E[Q_j] − z`:
    /// this node's term of the bound per unit of scheduling probability.
    pub fn excess(&self, z: f64) -> f64 {
        let (x, root) = self.offset_and_root(z);
        0.5 * (x + root)
    }

    /// `d excess(z) / dz = ½ [−1 − x / sqrt(x² + Var[Q_j])]`.
    pub(crate) fn excess_dz(&self, z: f64) -> f64 {
        let (x, root) = self.offset_and_root(z);
        let ratio = if root > 0.0 { x / root } else { 0.0 };
        0.5 * (-1.0 - ratio)
    }

    /// `d excess(z) / dΛ_j = ½ [E' + (x E' + Var'/2) / sqrt(x² + Var[Q_j])]`,
    /// with `'` the derivative in the node's arrival rate `Λ_j`.
    pub fn excess_dlambda(&self, z: f64) -> f64 {
        let (x, root) = self.offset_and_root(z);
        let root = root.max(f64::MIN_POSITIVE);
        0.5 * (self.d_mean + (x * self.d_mean + 0.5 * self.d_variance) / root)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dist::ServiceDistribution;
    use proptest::prelude::*;

    /// One node of every service law, with parameters drawn at random.
    pub(crate) fn service_dist() -> impl Strategy<Value = ServiceDistribution> {
        prop_oneof![
            (0.05f64..2.0).prop_map(ServiceDistribution::exponential),
            (0.1f64..20.0).prop_map(ServiceDistribution::deterministic),
            (0.1f64..5.0, 0.1f64..5.0).prop_map(|(a, b)| ServiceDistribution::uniform(a, a + b)),
            (0.2f64..5.0, 0.2f64..5.0)
                .prop_map(|(shape, scale)| ServiceDistribution::gamma(shape, scale)),
            (0.1f64..3.0, 0.05f64..2.0)
                .prop_map(|(shift, rate)| ServiceDistribution::shifted_exponential(shift, rate)),
        ]
    }

    /// A queue with the given moments and no load dependence, for tests of
    /// the bound at hand-picked `E[Q]` and `Var[Q]`.
    pub(crate) fn with_moments(mean: f64, variance: f64) -> NodeQueue {
        NodeQueue {
            mean,
            variance,
            d_mean: 0.0,
            d_variance: 0.0,
        }
    }

    fn queue(lambda: f64, s: &ServiceMoments) -> NodeQueue {
        NodeQueue::new(0, lambda, s).unwrap()
    }

    #[test]
    fn zero_load_reduces_to_service_time() {
        let s = ServiceDistribution::exponential(0.1).moments();
        let q = queue(0.0, &s);
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
        let q = queue(lambda, &s);
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
        let q_exp = queue(lambda, &exp);
        let q_det = queue(lambda, &det);
        assert!(q_det.mean < q_exp.mean);
        assert!(q_det.variance < q_exp.variance);
    }

    #[test]
    fn moments_increase_with_load() {
        let s = ServiceDistribution::exponential(0.1).moments();
        let mut prev = queue(0.0, &s);
        for i in 1..9 {
            let lambda = i as f64 * 0.01;
            let q = queue(lambda, &s);
            assert!(q.mean > prev.mean);
            assert!(q.variance > prev.variance);
            prev = q;
        }
    }

    #[test]
    fn overload_is_an_error() {
        let s = ServiceDistribution::exponential(0.1).moments();
        assert!(NodeQueue::new(0, 0.1, &s).is_err());
        assert!(NodeQueue::new(0, 0.5, &s).is_err());
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let s = ServiceDistribution::gamma(2.0, 5.0).moments();
        let h = 1e-7;
        for &lambda in &[0.0, 0.01, 0.05, 0.08] {
            let base = queue(lambda, &s);
            let bumped = queue(lambda + h, &s);
            let d_mean = (bumped.mean - base.mean) / h;
            let d_var = (bumped.variance - base.variance) / h;
            let (a_mean, a_var) = (base.d_mean, base.d_variance);
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

    proptest! {
        #[test]
        fn excess_dz_matches_a_central_difference(
            dist in service_dist(),
            frac in 0.0f64..0.9,
            z_frac in 0.0f64..3.0,
        ) {
            let q = queue(frac * dist.rate(), &dist.moments());
            let z = z_frac * q.mean;
            let h = 1e-6 * q.mean;
            let fd = (q.excess(z + h) - q.excess(z - h)) / (2.0 * h);
            let analytic = q.excess_dz(z);
            prop_assert!((fd - analytic).abs() < 1e-5, "{fd} vs {analytic}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_arrival_rate_panics() {
        let s = ServiceDistribution::exponential(1.0).moments();
        let _ = NodeQueue::new(0, -0.1, &s);
    }
}
