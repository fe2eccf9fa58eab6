//! Property-based tests for the M/G/1 node queue and the Lemma 1 bound.

use proptest::prelude::*;
use sprout_queueing::bound::{latency_bound_given_z, optimal_z};
use sprout_queueing::dist::ServiceDistribution;
use sprout_queueing::mg1::NodeQueue;

fn service_dist() -> impl Strategy<Value = ServiceDistribution> {
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

/// A node of any service law at a load in `[0, 0.9)`, read with any
/// probability.
fn term() -> impl Strategy<Value = (f64, NodeQueue)> {
    (0.0f64..=1.0, service_dist(), 0.0f64..0.9).prop_map(|(p, dist, frac)| {
        let q = NodeQueue::new(0, frac * dist.rate(), &dist.moments()).unwrap();
        (p, q)
    })
}

fn pairs(terms: &[(f64, NodeQueue)]) -> impl Iterator<Item = (f64, &NodeQueue)> + Clone {
    terms.iter().map(|(p, q)| (*p, q))
}

/// The Lemma 1 bound `U_i` and its minimizer `z_i`.
fn bound_and_z(terms: &[(f64, NodeQueue)]) -> (f64, f64) {
    let z = optimal_z(pairs(terms));
    (latency_bound_given_z(z, pairs(terms)), z)
}

proptest! {
    #[test]
    fn queue_moments_are_monotone_in_load(dist in service_dist(), frac1 in 0.01f64..0.9, frac2 in 0.01f64..0.9) {
        let m = dist.moments();
        let mu = m.rate();
        let (lo, hi) = if frac1 <= frac2 { (frac1, frac2) } else { (frac2, frac1) };
        let q_lo = NodeQueue::new(0, lo * mu, &m).unwrap();
        let q_hi = NodeQueue::new(0, hi * mu, &m).unwrap();
        prop_assert!(q_hi.mean() >= q_lo.mean() - 1e-12);
        prop_assert!(q_hi.variance() >= q_lo.variance() - 1e-12);
        // The sojourn time is always at least the bare service time.
        prop_assert!(q_lo.mean() >= m.mean - 1e-12);
    }

    #[test]
    fn excess_dlambda_is_nonnegative(dist in service_dist(), frac in 0.0f64..0.95, z_frac in 0.0f64..3.0) {
        let m = dist.moments();
        let q = NodeQueue::new(0, frac * m.rate(), &m).unwrap();
        prop_assert!(q.excess_dlambda(z_frac * q.mean()) >= 0.0);
    }

    #[test]
    fn excess_dlambda_matches_a_central_difference(
        dist in service_dist(),
        frac in 0.0f64..0.9,
        z_frac in 0.0f64..3.0,
    ) {
        // Λ ± h stays non-negative and below 0.9 µ + h, so both queues are
        // stable at every drawn load.
        let m = dist.moments();
        let h = 1e-7 * m.rate();
        let lambda = frac * m.rate() + h;
        let q = NodeQueue::new(0, lambda, &m).unwrap();
        let z = z_frac * q.mean();
        let excess_at = |l| NodeQueue::new(0, l, &m).unwrap().excess(z);
        let fd = (excess_at(lambda + h) - excess_at(lambda - h)) / (2.0 * h);
        let analytic = q.excess_dlambda(z);
        prop_assert!(
            (fd - analytic).abs() <= 1e-4 * analytic.abs().max(1.0),
            "{fd} vs {analytic}"
        );
    }

    #[test]
    fn overload_always_errors(dist in service_dist(), extra in 1.0f64..5.0) {
        let m = dist.moments();
        prop_assert!(NodeQueue::new(0, extra * m.rate(), &m).is_err());
    }

    #[test]
    fn bound_is_convex_in_z(terms in proptest::collection::vec(term(), 1..6), z1 in 0.0f64..200.0, z2 in 0.0f64..200.0) {
        let mid = 0.5 * (z1 + z2);
        let at = |z| latency_bound_given_z(z, pairs(&terms));
        let lhs = at(mid);
        let rhs = 0.5 * at(z1) + 0.5 * at(z2);
        prop_assert!(lhs <= rhs + 1e-9);
    }

    #[test]
    fn optimal_z_minimizes_over_a_grid(terms in proptest::collection::vec(term(), 1..6)) {
        let (best, best_z) = bound_and_z(&terms);
        prop_assert!(best_z >= 0.0);
        for i in 0..200 {
            let z = i as f64 * 0.75;
            prop_assert!(best <= latency_bound_given_z(z, pairs(&terms)) + 1e-7);
        }
    }

    #[test]
    fn bound_dominates_every_individual_mean_times_probability(terms in proptest::collection::vec(term(), 1..6)) {
        // With pi_j = 1 the node is always in the selected set, so the file
        // latency (a maximum including that node) is at least E[Q_j]; the
        // bound must respect that.
        let (bound, _) = bound_and_z(&terms);
        for (p, q) in &terms {
            if *p >= 1.0 - 1e-12 {
                prop_assert!(bound >= q.mean() - 1e-9);
            }
        }
        prop_assert!(bound >= 0.0);
    }
}
