//! The order-statistic upper bound on per-file latency (Lemma 1).
//!
//! Under probabilistic scheduling, a file-`i` request is forwarded to a
//! random set `A_i` of storage nodes where node `j` is chosen with
//! probability `π_{i,j}`; the file latency is the maximum of the chunk
//! delays `Q_j` over `j ∈ A_i`. Lemma 1 upper-bounds its expectation by
//!
//! ```text
//! U_i = min_{z ≥ 0}  z + Σ_j (π_{i,j} / 2) [ (E[Q_j] − z)
//!                        + sqrt((E[Q_j] − z)² + Var[Q_j]) ]
//! ```
//!
//! The bound is jointly convex in `z` and `π`, which is what makes the cache
//! optimization of §IV tractable.

use crate::mg1::QueueDelayMoments;

/// One node's contribution to a file's scheduling decision: the probability
/// `π_{i,j}` that the node serves a chunk of the file, together with the
/// node's queue-delay moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulingTerm {
    /// Probability `π_{i,j} ∈ [0, 1]` that node `j` is selected for file `i`.
    pub probability: f64,
    /// Queue-delay moments of the node.
    pub delay: QueueDelayMoments,
}

/// Evaluates the Lemma 1 bound at a fixed auxiliary variable `z`: the one
/// per-file term of the bound, which the optimizer's objective sums over
/// files. The bound itself is this term at [`optimal_z`].
///
/// Terms with zero probability contribute nothing; an empty term list (a file
/// served entirely from the cache) yields `z` itself, so minimizing over
/// `z ≥ 0` gives zero latency, matching the paper's treatment of fully-cached
/// files. Any iterator of terms will do, so a caller can build them on the
/// fly without allocating.
pub fn latency_bound_given_z(z: f64, terms: impl IntoIterator<Item = SchedulingTerm>) -> f64 {
    let mut total = z;
    for term in terms {
        if term.probability <= 0.0 {
            continue;
        }
        let x = term.delay.mean - z;
        total += term.probability / 2.0 * (x + (x * x + term.delay.variance).sqrt());
    }
    total
}

/// Derivative of the bound with respect to `z` (the bound is convex in `z`,
/// so this derivative is non-decreasing).
pub fn bound_derivative_z(z: f64, terms: &[SchedulingTerm]) -> f64 {
    let mut d = 1.0;
    for term in terms {
        if term.probability <= 0.0 {
            continue;
        }
        let x = term.delay.mean - z;
        let denom = (x * x + term.delay.variance).sqrt();
        let ratio = if denom > 0.0 { x / denom } else { 0.0 };
        d += term.probability / 2.0 * (-1.0 - ratio);
    }
    d
}

/// Finds the minimizing `z ≥ 0` of the Lemma 1 bound by bisection on the
/// (monotone) derivative.
pub fn optimal_z(terms: &[SchedulingTerm]) -> f64 {
    // If the derivative is already non-negative at z = 0, the constraint
    // z >= 0 is active.
    if bound_derivative_z(0.0, terms) >= 0.0 {
        return 0.0;
    }
    // Bracket the root: the derivative tends to 1 as z -> infinity.
    let mut lo = 0.0;
    let mut hi = terms
        .iter()
        .map(|t| t.delay.mean + t.delay.variance.sqrt())
        .fold(1.0, f64::max);
    while bound_derivative_z(hi, terms) < 0.0 {
        hi *= 2.0;
        if hi > 1e18 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if bound_derivative_z(mid, terms) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ServiceDistribution;
    use crate::mg1::queue_delay_moments;

    fn term(prob: f64, mean: f64, variance: f64) -> SchedulingTerm {
        SchedulingTerm {
            probability: prob,
            delay: QueueDelayMoments { mean, variance },
        }
    }

    /// The Lemma 1 bound `U_i` and its minimizer `z_i`.
    fn bound_and_z(terms: &[SchedulingTerm]) -> (f64, f64) {
        let z = optimal_z(terms);
        (latency_bound_given_z(z, terms.iter().copied()), z)
    }

    #[test]
    fn empty_terms_give_zero_latency() {
        let (latency, z) = bound_and_z(&[]);
        assert_eq!(latency, 0.0);
        assert_eq!(z, 0.0);
    }

    #[test]
    fn single_deterministic_node_bound_is_tight() {
        // One node selected with probability 1 and zero delay variance: the
        // latency is exactly the node's mean delay and the bound achieves it.
        let (latency, _) = bound_and_z(&[term(1.0, 5.0, 0.0)]);
        assert!((latency - 5.0).abs() < 1e-9, "bound {latency}");
    }

    #[test]
    fn bound_dominates_weighted_mean_delay() {
        // E[max over A] >= sum_j pi_j E[Q_j] / |A| style sanity: the bound
        // must be at least the largest single-node mean times its selection
        // probability share, and at least the mean of each always-selected node.
        let terms = [term(1.0, 10.0, 25.0), term(1.0, 20.0, 100.0)];
        let (latency, _) = bound_and_z(&terms);
        assert!(latency >= 20.0);
    }

    #[test]
    fn bound_increases_with_variance() {
        let (low, _) = bound_and_z(&[term(1.0, 10.0, 1.0), term(1.0, 12.0, 1.0)]);
        let (high, _) = bound_and_z(&[term(1.0, 10.0, 100.0), term(1.0, 12.0, 100.0)]);
        assert!(high > low);
    }

    #[test]
    fn bound_increases_with_probability() {
        let (small, _) = bound_and_z(&[term(1.0, 10.0, 4.0), term(0.2, 30.0, 4.0)]);
        let (large, _) = bound_and_z(&[term(1.0, 10.0, 4.0), term(0.9, 30.0, 4.0)]);
        assert!(large > small);
    }

    #[test]
    fn zero_probability_terms_are_ignored() {
        let (a, _) = bound_and_z(&[term(1.0, 10.0, 4.0)]);
        let (b, _) = bound_and_z(&[term(1.0, 10.0, 4.0), term(0.0, 1000.0, 1e6)]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn optimal_z_is_a_stationary_point_or_zero() {
        let terms = [
            term(0.7, 15.0, 30.0),
            term(0.9, 22.0, 60.0),
            term(0.4, 8.0, 10.0),
        ];
        let z = optimal_z(&terms);
        assert!(z >= 0.0);
        if z > 0.0 {
            assert!(bound_derivative_z(z, &terms).abs() < 1e-6);
        }
        // z should (weakly) beat a grid of alternatives
        let best = latency_bound_given_z(z, terms);
        for i in 0..400 {
            let alt = i as f64 * 0.25;
            assert!(best <= latency_bound_given_z(alt, terms) + 1e-9);
        }
    }

    #[test]
    fn sub_one_total_probability_clamps_z_to_zero() {
        // When sum pi <= 1 the derivative is non-negative at z = 0 only if
        // the delay terms are small enough; with a single small-probability
        // term the minimizer is z = 0.
        let terms = [term(0.3, 5.0, 1.0)];
        assert_eq!(optimal_z(&terms), 0.0);
    }

    #[test]
    fn bound_exceeds_simulated_max_of_independent_delays() {
        // Monte-Carlo check of Lemma 1 with independent exponential delays
        // (independence is the worst case the bound must dominate).
        use rand::Rng;
        use rand::SeedableRng;
        let mu = [0.2, 0.15, 0.1];
        let lambda = 0.05;
        let moments: Vec<_> = mu
            .iter()
            .map(|&m| {
                queue_delay_moments(lambda, &ServiceDistribution::exponential(m).moments()).unwrap()
            })
            .collect();
        let terms: Vec<_> = moments
            .iter()
            .map(|&q| SchedulingTerm {
                probability: 1.0,
                delay: q,
            })
            .collect();
        let (bound, _) = bound_and_z(&terms);

        // The true E[max] for exponential sojourn approximations: sample
        // exponentials with the matching means (a crude but adequate check
        // that the bound is not violated by a plausible dependency-free
        // realisation).
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let mut max = 0.0f64;
            for q in &moments {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let sample = -u.ln() * q.mean;
                max = max.max(sample);
            }
            acc += max;
        }
        let emp = acc / n as f64;
        assert!(
            bound >= emp * 0.98,
            "bound {bound} should not be far below the empirical mean max {emp}"
        );
    }
}
