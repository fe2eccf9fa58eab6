//! Optimizer output types.

/// Objective values recorded while the algorithm runs; used to reproduce the
/// paper's convergence plot (Fig. 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceTrace {
    /// Objective value after each outer (alternating-minimization) iteration,
    /// including the initial value at index 0.
    pub outer_objectives: Vec<f64>,
    /// Total number of inner rounding rounds across all outer iterations.
    pub rounding_rounds: usize,
    /// Total number of projected-gradient iterations performed.
    pub gradient_iterations: usize,
    /// Total number of projections onto the Prob Π constraint set: one per
    /// line-search probe, one per Prob Π solve, one for the starting point.
    pub projections: usize,
    /// Total number of line-search candidates projected and evaluated.
    pub line_search_probes: usize,
    /// Total number of evaluations of the projections' aggregate
    /// `Σ_i clamp(Σ_j clamp(π_{i,j} + ν, 0, 1), K_{L,i}, K_{U,i})` while
    /// searching the coupling multiplier `ν`: one at `ν = 0` per projection,
    /// plus one per bisection step when the cache constraint binds.
    pub nu_probes: usize,
}

impl ConvergenceTrace {
    /// Number of outer iterations actually performed.
    pub fn outer_iterations(&self) -> usize {
        self.outer_objectives.len().saturating_sub(1)
    }
}

/// The optimized cache placement and request-scheduling policy for one time
/// bin.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePlan {
    /// Number of functional chunks of each file to hold in the cache (`d_i`).
    pub cached_chunks: Vec<usize>,
    /// Scheduling probabilities `π_{i,j}`, one row per file aligned with its
    /// placement: row `i` has `n_i` entries, and entry `r` is the probability
    /// of reading from the node that hosts chunk row `r`. `π_{i,j}` is zero
    /// for every node outside the placement, so no entry stores it.
    pub scheduling: Vec<Vec<f64>>,
    /// Optimal auxiliary variables `z_i` of the Lemma 1 bound.
    pub z: Vec<f64>,
    /// The achieved weighted mean latency bound (seconds).
    pub objective: f64,
    /// Per-file latency bounds `U_i` (seconds).
    pub per_file_latency: Vec<f64>,
    /// Convergence history.
    pub trace: ConvergenceTrace,
}

impl CachePlan {
    /// Total number of cache chunks used by the plan.
    pub fn cache_chunks_used(&self) -> usize {
        self.cached_chunks.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_counts_iterations() {
        let t = ConvergenceTrace {
            outer_objectives: vec![10.0, 7.0, 6.5],
            rounding_rounds: 4,
            gradient_iterations: 100,
            ..ConvergenceTrace::default()
        };
        assert_eq!(t.outer_iterations(), 2);
        assert_eq!(ConvergenceTrace::default().outer_iterations(), 0);
    }

    #[test]
    fn plan_accessors() {
        let plan = CachePlan {
            cached_chunks: vec![2, 0, 1],
            scheduling: vec![
                vec![0.5, 0.5, 1.0],
                vec![1.0, 1.0, 1.0],
                vec![0.0, 1.0, 1.0],
            ],
            z: vec![0.0; 3],
            objective: 5.0,
            per_file_latency: vec![4.0, 6.0, 5.0],
            trace: ConvergenceTrace::default(),
        };
        assert_eq!(plan.cache_chunks_used(), 3);
    }
}
