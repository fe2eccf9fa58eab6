//! Time-binned arrival-rate schedules.
//!
//! The paper assumes time-scale separation: service time is divided into
//! bins, with stationary arrival rates inside each bin and a fresh cache
//! optimization at the start of every bin (§III). [`RateSchedule`] captures
//! such a schedule, and [`table_i_schedule`] reproduces the 3-bin, 10-file
//! scenario of Table I used for the cache-evolution experiment (Fig. 5).

/// One time bin: a duration and the per-file arrival rates that hold in it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeBin {
    /// Length of the bin in seconds.
    pub duration: f64,
    /// Per-file arrival rates (requests per second).
    pub rates: Vec<f64>,
}

impl TimeBin {
    /// Creates a time bin.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not positive or any rate is negative.
    pub fn new(duration: f64, rates: Vec<f64>) -> Self {
        assert!(duration > 0.0, "bin duration must be positive");
        assert!(
            rates.iter().all(|&r| r >= 0.0),
            "rates must be non-negative"
        );
        TimeBin { duration, rates }
    }

    /// Aggregate arrival rate in the bin.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// The same bin with every rate multiplied by `factor` (relative
    /// popularity is preserved; used to recreate realistic contention from
    /// the paper's small published rates).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "rate scale factor must be finite and non-negative"
        );
        TimeBin::new(
            self.duration,
            self.rates.iter().map(|r| r * factor).collect(),
        )
    }
}

/// A sequence of time bins over a common file population.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RateSchedule {
    bins: Vec<TimeBin>,
}

impl RateSchedule {
    /// Creates a schedule from bins.
    ///
    /// # Panics
    ///
    /// Panics if bins disagree on the number of files.
    pub fn new(bins: Vec<TimeBin>) -> Self {
        if let Some(first) = bins.first() {
            assert!(
                bins.iter().all(|b| b.rates.len() == first.rates.len()),
                "all bins must cover the same number of files"
            );
        }
        RateSchedule { bins }
    }

    /// The bins, in order.
    pub fn bins(&self) -> &[TimeBin] {
        &self.bins
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Returns `true` if the schedule has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Number of files covered by the schedule (0 if empty).
    pub fn num_files(&self) -> usize {
        self.bins.first().map_or(0, |b| b.rates.len())
    }

    /// The same schedule with every rate multiplied by `factor`
    /// (see [`TimeBin::scaled`]).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Self {
        RateSchedule::new(self.bins.iter().map(|b| b.scaled(factor)).collect())
    }

    /// The schedule's first `bins` bins (all of them when `bins` exceeds the
    /// length) — the prefix a sweep cell re-runs to reach one bin with the
    /// warm-start chain intact.
    pub fn truncated(&self, bins: usize) -> Self {
        RateSchedule::new(self.bins.iter().take(bins).cloned().collect())
    }
}

/// The Table I scenario: 10 files, 3 time bins, with the arrival-rate
/// increases/decreases marked in the paper. `bin_duration` is the length of
/// each bin in seconds (the paper's experiment uses 100 s bins).
pub fn table_i_schedule(bin_duration: f64) -> RateSchedule {
    let bin1 = vec![
        0.000156, 0.000156, 0.000125, 0.000167, 0.000104, 0.000156, 0.000156, 0.000125, 0.000167,
        0.000104,
    ];
    let bin2 = vec![
        0.000156, 0.000156, 0.000125, 0.000125, 0.000125, 0.000156, 0.000156, 0.000125, 0.000125,
        0.000125,
    ];
    let bin3 = vec![
        0.000125, 0.00025, 0.000125, 0.000167, 0.000104, 0.000125, 0.00025, 0.000125, 0.000167,
        0.000104,
    ];
    RateSchedule::new(vec![
        TimeBin::new(bin_duration, bin1),
        TimeBin::new(bin_duration, bin2),
        TimeBin::new(bin_duration, bin3),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_matches_paper_structure() {
        let s = table_i_schedule(100.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.num_files(), 10);
        assert!(s.bins().iter().all(|b| b.duration == 100.0));
        // Bin 2: file 4 (index 3) decreased, file 5 (index 4) increased.
        assert!(s.bins()[1].rates[3] < s.bins()[0].rates[3]);
        assert!(s.bins()[1].rates[4] > s.bins()[0].rates[4]);
        // Bin 3: file 2 (index 1) increased to 0.00025, file 1 decreased.
        assert!(s.bins()[2].rates[1] > s.bins()[1].rates[1]);
        assert!(s.bins()[2].rates[0] < s.bins()[1].rates[0]);
    }

    #[test]
    fn scaling_preserves_structure_and_truncation_keeps_prefixes() {
        let s = table_i_schedule(100.0);
        let scaled = s.scaled(60.0);
        assert_eq!(scaled.len(), 3);
        assert!((scaled.bins()[0].rates[0] - 60.0 * s.bins()[0].rates[0]).abs() < 1e-15);
        assert!((scaled.bins()[2].duration - 100.0).abs() < 1e-12);
        // Relative popularity within a bin is unchanged.
        let ratio = s.bins()[0].rates[3] / s.bins()[0].rates[4];
        let scaled_ratio = scaled.bins()[0].rates[3] / scaled.bins()[0].rates[4];
        assert!((ratio - scaled_ratio).abs() < 1e-12);
        let two = s.truncated(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two.bins(), &s.bins()[..2]);
        assert_eq!(s.truncated(9).len(), 3);
        assert!(s.truncated(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_scale_panics() {
        let _ = table_i_schedule(10.0).scaled(-1.0);
    }

    #[test]
    fn empty_schedule() {
        let s = RateSchedule::default();
        assert!(s.is_empty());
        assert_eq!(s.num_files(), 0);
    }

    #[test]
    #[should_panic(expected = "same number of files")]
    fn inconsistent_bins_panic() {
        let _ = RateSchedule::new(vec![
            TimeBin::new(1.0, vec![0.1]),
            TimeBin::new(1.0, vec![0.1, 0.2]),
        ]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        let _ = TimeBin::new(0.0, vec![0.1]);
    }

    #[test]
    fn total_rate() {
        let b = TimeBin::new(10.0, vec![0.1, 0.2, 0.3]);
        assert!((b.total_rate() - 0.6).abs() < 1e-12);
    }
}
