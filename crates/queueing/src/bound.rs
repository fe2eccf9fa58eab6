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
//! Each node's bracket, halved, is that node's
//! [`NodeQueue::excess`](crate::mg1::NodeQueue::excess). The bound is
//! jointly convex in `z` and `π`, which is what makes the cache optimization
//! of §IV tractable.

use crate::mg1::NodeQueue;

/// Evaluates the Lemma 1 bound at a fixed auxiliary variable `z`: the one
/// per-file term of the bound, which the optimizer's objective sums over
/// files. The bound itself is this term at [`optimal_z`].
///
/// `pairs` holds, for each node the file may read, the probability
/// `π_{i,j}` of reading it and the node's queue. Pairs with zero probability
/// contribute nothing; no pairs at all (a file served entirely from the
/// cache) yield `z` itself, so minimizing over `z ≥ 0` gives zero latency,
/// matching the paper's treatment of fully-cached files. Any iterator will
/// do, so a caller can build the pairs on the fly without allocating.
pub fn latency_bound_given_z<'q>(
    z: f64,
    pairs: impl IntoIterator<Item = (f64, &'q NodeQueue)>,
) -> f64 {
    let mut total = z;
    for (probability, queue) in pairs {
        if probability <= 0.0 {
            continue;
        }
        total += probability * queue.excess(z);
    }
    total
}

/// Derivative of the bound with respect to `z` (the bound is convex in `z`,
/// so this derivative is non-decreasing).
fn derivative_z<'q>(z: f64, pairs: impl IntoIterator<Item = (f64, &'q NodeQueue)>) -> f64 {
    let mut d = 1.0;
    for (probability, queue) in pairs {
        if probability <= 0.0 {
            continue;
        }
        d += probability * queue.excess_dz(z);
    }
    d
}

/// Finds the minimizing `z ≥ 0` of the Lemma 1 bound over `pairs` (as in
/// [`latency_bound_given_z`]) by bisection on the (monotone) derivative.
/// The pairs are walked once per probe, so they must be cheap to clone.
pub fn optimal_z<'q, I>(pairs: I) -> f64
where
    I: IntoIterator<Item = (f64, &'q NodeQueue)> + Clone,
{
    // If the derivative is already non-negative at z = 0, the constraint
    // z >= 0 is active.
    if derivative_z(0.0, pairs.clone()) >= 0.0 {
        return 0.0;
    }
    // Bracket the root: the derivative tends to 1 as z -> infinity.
    let mut lo = 0.0;
    let mut hi = pairs
        .clone()
        .into_iter()
        .map(|(_, q)| q.mean() + q.variance().sqrt())
        .fold(1.0, f64::max);
    while derivative_z(hi, pairs.clone()) < 0.0 {
        hi *= 2.0;
        if hi > 1e18 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if derivative_z(mid, pairs.clone()) < 0.0 {
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
    use crate::mg1::tests::{service_dist, with_moments};
    use proptest::prelude::*;

    /// A node read with probability `prob` whose queue has the given moments.
    type Term = (f64, NodeQueue);

    fn term(prob: f64, mean: f64, variance: f64) -> Term {
        (prob, with_moments(mean, variance))
    }

    fn pairs(terms: &[Term]) -> impl Iterator<Item = (f64, &NodeQueue)> + Clone {
        terms.iter().map(|(p, q)| (*p, q))
    }

    /// The Lemma 1 bound `U_i` and its minimizer `z_i`.
    fn bound_and_z(terms: &[Term]) -> (f64, f64) {
        let z = optimal_z(pairs(terms));
        (latency_bound_given_z(z, pairs(terms)), z)
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
        let z = optimal_z(pairs(&terms));
        assert!(z >= 0.0);
        if z > 0.0 {
            assert!(derivative_z(z, pairs(&terms)).abs() < 1e-6);
        }
        // z should (weakly) beat a grid of alternatives
        let best = latency_bound_given_z(z, pairs(&terms));
        for i in 0..400 {
            let alt = i as f64 * 0.25;
            assert!(best <= latency_bound_given_z(alt, pairs(&terms)) + 1e-9);
        }
    }

    #[test]
    fn sub_one_total_probability_clamps_z_to_zero() {
        // When sum pi <= 1 the derivative is non-negative at z = 0 only if
        // the delay terms are small enough; with a single small-probability
        // term the minimizer is z = 0.
        let terms = [term(0.3, 5.0, 1.0)];
        assert_eq!(optimal_z(pairs(&terms)), 0.0);
    }

    #[test]
    fn bound_exceeds_simulated_max_of_independent_delays() {
        // Monte-Carlo check of Lemma 1 with independent exponential delays
        // (independence is the worst case the bound must dominate).
        use rand::Rng;
        use rand::SeedableRng;
        let mu = [0.2, 0.15, 0.1];
        let lambda = 0.05;
        let terms: Vec<Term> = mu
            .iter()
            .enumerate()
            .map(|(j, &m)| {
                let service = ServiceDistribution::exponential(m).moments();
                (1.0, NodeQueue::new(j, lambda, &service).unwrap())
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
            for (_, q) in &terms {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let sample = -u.ln() * q.mean();
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

    #[test]
    fn single_mm1_node_has_a_closed_form_bound() {
        // An M/M/1 sojourn time is exponential with rate µ − λ, so
        // Var[Q] = E[Q]²; the bound's slope at z = 0 is 1 − (1 + 1/√2)/2 > 0,
        // so z = 0 and U = ½ (E[Q] + √2 E[Q]) = (1 + √2) / (2 (µ − λ)).
        let (mu, lambda) = (0.2, 0.1);
        let service = ServiceDistribution::exponential(mu).moments();
        let q = NodeQueue::new(0, lambda, &service).unwrap();
        let rel = |got: f64, want: f64| (got - want).abs() / want;
        assert!(rel(q.mean(), 1.0 / (mu - lambda)) < 1e-12, "{}", q.mean());
        assert!(rel(q.variance(), q.mean() * q.mean()) < 1e-12);
        let terms = [(1.0, q)];
        let (bound, z) = bound_and_z(&terms);
        assert_eq!(z, 0.0);
        let want = (1.0 + 2f64.sqrt()) / (2.0 * (mu - lambda));
        assert!(rel(bound, want) < 1e-12, "{bound} vs {want}");
    }

    /// A node of any service law at a load in `[0, 0.9)`, read with any
    /// probability.
    fn node_term() -> impl Strategy<Value = Term> {
        (0.0f64..=1.0, service_dist(), 0.0f64..0.9).prop_map(|(p, dist, frac)| {
            let q = NodeQueue::new(0, frac * dist.rate(), &dist.moments()).unwrap();
            (p, q)
        })
    }

    proptest! {
        #[test]
        fn bound_derivative_is_nondecreasing(
            terms in proptest::collection::vec(node_term(), 1..6),
            z1 in 0.0f64..100.0,
            dz in 0.0f64..100.0,
        ) {
            let at = |z| derivative_z(z, pairs(&terms));
            prop_assert!(at(z1 + dz) >= at(z1) - 1e-9);
        }
    }
}
