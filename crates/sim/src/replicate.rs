//! Mean / confidence-interval aggregation over replications.
//!
//! A single simulation run is one sample path; the paper's figures (and any
//! serious latency claim) need several independent replications. The
//! [`sweep`](crate::sweep) runner executes them (replication `r` seeded with
//! [`replication_seed`](crate::engine::replication_seed)`(base, r)`) and
//! folds the replication-level values into [`MeanCi`] summaries.

/// Two-sided 97.5 % Student-t quantiles for `df = 1..=30`; beyond 30 the
/// normal quantile 1.96 is close enough. Replication counts are small (4–16
/// in the scenario suite), where the normal approximation would understate
/// a 95 % interval by up to 2x.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

fn t_quantile_975(df: usize) -> f64 {
    if df == 0 {
        0.0
    } else if df <= T_975.len() {
        T_975[df - 1]
    } else {
        1.96
    }
}

/// Sample mean with spread: sample standard deviation and a 95 % Student-t
/// confidence half-width over replication-level values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Number of replications aggregated.
    pub replications: usize,
    /// Mean over replications.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected) over replications.
    pub std_dev: f64,
    /// Half-width of the 95 % confidence interval
    /// (`t_{0.975, R−1} · s / √R`; zero for a single replication).
    pub ci95: f64,
}

impl MeanCi {
    /// Aggregates replication-level values (empty input yields all zeros).
    pub(crate) fn from_values(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return MeanCi {
                replications: 0,
                mean: 0.0,
                std_dev: 0.0,
                ci95: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let (std_dev, ci95) = if n > 1 {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            let std_dev = var.sqrt();
            (std_dev, t_quantile_975(n - 1) * std_dev / (n as f64).sqrt())
        } else {
            (0.0, 0.0)
        };
        MeanCi {
            replications: n,
            mean,
            std_dev,
            ci95,
        }
    }

    /// Lower edge of the 95 % interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// Upper edge of the 95 % interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::replication_seed;

    #[test]
    fn mean_ci_of_known_values() {
        let m = MeanCi::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(m.replications, 3);
        assert!((m.mean - 2.0).abs() < 1e-12);
        // Sample (Bessel-corrected) standard deviation: var = (1+0+1)/2 = 1.
        assert!((m.std_dev - 1.0).abs() < 1e-12);
        // t_{0.975, df=2} = 4.303, so ci95 = 4.303 / sqrt(3).
        assert!((m.ci95 - 4.303 / 3.0f64.sqrt()).abs() < 1e-9);
        assert!(m.lo() < m.mean && m.mean < m.hi());
        let single = MeanCi::from_values(&[5.0]);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(MeanCi::from_values(&[]).replications, 0);
    }

    #[test]
    fn small_sample_intervals_are_wider_than_normal_theory() {
        // At R = 4 the t half-width must exceed the z half-width by ~62 %.
        let values = [1.0, 2.0, 3.0, 4.0];
        let m = MeanCi::from_values(&values);
        let z_halfwidth = 1.96 * m.std_dev / 2.0;
        assert!(m.ci95 > z_halfwidth * 1.5, "{} vs {z_halfwidth}", m.ci95);
        // Large samples converge to the normal quantile.
        let big: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = MeanCi::from_values(&big);
        assert!((b.ci95 - 1.96 * b.std_dev / 10.0).abs() < 1e-9);
    }

    #[test]
    fn replication_seeds_are_distinct_and_stable() {
        let a = replication_seed(7, 0);
        let b = replication_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(a, replication_seed(7, 0));
        assert_ne!(replication_seed(8, 0), a);
    }
}
