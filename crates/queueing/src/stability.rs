//! The queue-stability error.
//!
//! Under probabilistic scheduling, chunk requests arrive at node `j` as a
//! Poisson process with rate `Λ_j = Σ_i λ_i π_{i,j}`. The M/G/1 queue at node
//! `j` is stable only when the utilization `ρ_j = Λ_j / µ_j` is strictly
//! below one; otherwise queueing delay (and the latency bound) diverges,
//! and [`NodeQueue::new`](crate::mg1::NodeQueue::new) reports the overloaded
//! node as a [`StabilityError`].

use std::fmt;

/// Error raised when a node would be overloaded (`ρ_j ≥ 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityError {
    /// Index of the overloaded node.
    pub node: usize,
    /// The offending utilization `ρ = Λ / µ`.
    pub utilization: f64,
}

impl fmt::Display for StabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} is unstable: utilization {:.4} >= 1",
            self.node, self.utilization
        )
    }
}

impl std::error::Error for StabilityError {}

#[cfg(test)]
mod tests {
    use crate::dist::ServiceDistribution;
    use crate::mg1::NodeQueue;

    #[test]
    fn stable_system_passes() {
        let service = ServiceDistribution::exponential(0.1).moments();
        assert!(NodeQueue::new(0, 0.08, &service).is_ok());
    }

    #[test]
    fn unstable_node_is_reported() {
        let service = ServiceDistribution::exponential(0.1).moments();
        let err = NodeQueue::new(7, 0.12, &service).unwrap_err();
        assert_eq!(err.node, 7);
        assert!(err.utilization >= 1.0);
        assert!(err.to_string().contains("node 7"));
    }

    #[test]
    fn exactly_critical_load_is_unstable() {
        let service = ServiceDistribution::exponential(0.1).moments();
        assert!(NodeQueue::new(0, 0.1, &service).is_err());
    }
}
