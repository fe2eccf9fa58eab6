//! Optimizer configuration.

/// How the integer constraint on `d_i` is restored after each relaxed
/// Prob Π solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RoundingStrategy {
    /// Pin one file per inner iteration — the file whose `Σ_j π_{i,j}` has
    /// the largest fractional part (the literal Algorithm 1 inner loop,
    /// `O(r)` convex solves; the reference `Fraction` is tested against).
    #[cfg(test)]
    OneAtATime,
    /// Pin a fixed fraction of the still-fractional files per inner
    /// iteration (the paper's `O(log r)` refinement). The fraction is
    /// clamped to `(0, 1]`.
    Fraction(f64),
}

impl RoundingStrategy {
    /// Number of files to pin given `fractional` files still unrounded.
    pub(crate) fn batch_size(&self, fractional: usize) -> usize {
        match *self {
            #[cfg(test)]
            RoundingStrategy::OneAtATime => 1.min(fractional),
            RoundingStrategy::Fraction(f) => {
                let f = f.clamp(1e-6, 1.0);
                ((fractional as f64 * f).ceil() as usize).clamp(1, fractional)
            }
        }
    }
}

/// Tunable parameters of [`Optimizer::run`](crate::Optimizer::run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Outer-loop convergence threshold `ε` on the objective decrease
    /// (seconds of latency). The paper uses 0.01.
    pub tolerance: f64,
    /// Maximum number of outer (alternating) iterations.
    pub max_outer_iterations: usize,
    /// Maximum number of projected-gradient iterations per Prob Π solve.
    pub max_gradient_iterations: usize,
    /// Relative objective improvement below which a Prob Π solve stops early.
    pub gradient_tolerance: f64,
    /// Initial step size for projected gradient descent (scaled by
    /// backtracking line search).
    pub initial_step: f64,
    /// Rounding strategy for the integer constraint.
    pub(crate) rounding: RoundingStrategy,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            tolerance: 0.01,
            max_outer_iterations: 50,
            max_gradient_iterations: 120,
            gradient_tolerance: 1e-6,
            initial_step: 1.0,
            rounding: RoundingStrategy::Fraction(0.3),
        }
    }
}

impl OptimizerConfig {
    /// A configuration tuned for speed over precision, useful in tests and
    /// large parameter sweeps.
    pub fn fast() -> Self {
        OptimizerConfig {
            tolerance: 0.05,
            max_outer_iterations: 15,
            max_gradient_iterations: 40,
            gradient_tolerance: 1e-4,
            initial_step: 1.0,
            rounding: RoundingStrategy::Fraction(0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_tolerance() {
        let c = OptimizerConfig::default();
        assert!((c.tolerance - 0.01).abs() < 1e-12);
        assert!(c.max_outer_iterations >= 20);
    }

    #[test]
    fn batch_sizes() {
        assert_eq!(RoundingStrategy::OneAtATime.batch_size(10), 1);
        assert_eq!(RoundingStrategy::OneAtATime.batch_size(0), 0);
        assert_eq!(RoundingStrategy::Fraction(0.3).batch_size(10), 3);
        assert_eq!(RoundingStrategy::Fraction(0.3).batch_size(1), 1);
        assert_eq!(RoundingStrategy::Fraction(2.0).batch_size(4), 4);
        assert_eq!(RoundingStrategy::Fraction(0.0).batch_size(4), 1);
    }

    #[test]
    fn fast_config_is_cheaper() {
        let fast = OptimizerConfig::fast();
        let default = OptimizerConfig::default();
        assert!(fast.max_gradient_iterations < default.max_gradient_iterations);
    }
}
