//! Zipf popularity distributions.
//!
//! The paper motivates caching with the classic 80/20 skew of video
//! workloads ("20 % of the video content is accessed 80 % of the time").
//! A Zipf law over file ranks is the standard way to generate such skewed
//! popularity, and is used by the example applications and some benches.

/// A Zipf popularity law over `n` files with exponent `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfPopularity {
    exponent: f64,
    weights: Vec<f64>,
}

impl ZipfPopularity {
    /// Creates a Zipf law over `num_files` ranks with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `num_files == 0` or the exponent is negative.
    pub fn new(num_files: usize, exponent: f64) -> Self {
        assert!(num_files > 0, "need at least one file");
        assert!(exponent >= 0.0, "exponent must be non-negative");
        let weights: Vec<f64> = (1..=num_files)
            .map(|rank| 1.0 / (rank as f64).powf(exponent))
            .collect();
        ZipfPopularity { exponent, weights }
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability that a request targets the file of the given rank
    /// (0 = most popular).
    pub fn probability(&self, rank: usize) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights.get(rank).map_or(0.0, |w| w / total)
    }

    /// Splits an aggregate arrival rate into per-file rates according to the
    /// popularity law (rank 0 receives the largest share).
    pub fn arrival_rates(&self, aggregate_rate: f64) -> Vec<f64> {
        assert!(aggregate_rate >= 0.0, "aggregate rate must be non-negative");
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .map(|w| aggregate_rate * w / total)
            .collect()
    }

    /// Fraction of requests captured by the `top` most popular files.
    pub fn head_mass(&self, top: usize) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights.iter().take(top).sum::<f64>() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one_and_decrease() {
        let z = ZipfPopularity::new(100, 1.0);
        let sum: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(z.probability(r) <= z.probability(r - 1));
        }
        assert_eq!(z.probability(1000), 0.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfPopularity::new(10, 0.0);
        for r in 0..10 {
            assert!((z.probability(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_concentrates_mass_in_the_head() {
        let uniform = ZipfPopularity::new(100, 0.0);
        let skewed = ZipfPopularity::new(100, 1.2);
        assert!(skewed.head_mass(20) > uniform.head_mass(20));
        assert!(
            skewed.head_mass(20) > 0.6,
            "Zipf(1.2) head should capture most traffic"
        );
        assert!((skewed.exponent() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn arrival_rates_preserve_aggregate() {
        let z = ZipfPopularity::new(50, 0.8);
        let rates = z.arrival_rates(2.0);
        assert_eq!(rates.len(), 50);
        let sum: f64 = rates.iter().sum();
        assert!((sum - 2.0).abs() < 1e-9);
        assert!(rates[0] > rates[49]);
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn empty_population_panics() {
        let _ = ZipfPopularity::new(0, 1.0);
    }
}
