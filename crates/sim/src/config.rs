//! Simulation configuration.

/// The most slots a per-slot chunk-source series may have: a series holds
/// two `u64` counts per slot, so this caps it at 160 MB.
const MAX_SLOTS: usize = 10_000_000;

/// The number of slots of `slot` seconds that cover `horizon` seconds (at
/// least one), or an error naming the bound when that is more than
/// `MAX_SLOTS` = 10⁷ (a per-slot series holds two `u64` counts per slot).
/// `slot` must be positive.
pub fn slot_count(horizon: f64, slot: f64) -> Result<usize, String> {
    let slots = (horizon / slot).ceil().max(1.0);
    if slots <= MAX_SLOTS as f64 {
        Ok(slots as usize)
    } else {
        Err(format!(
            "{slots} slots of {slot} s over a {horizon} s horizon exceed MAX_SLOTS = {MAX_SLOTS}"
        ))
    }
}

/// Run-length and sampling parameters of a simulation.
///
/// The fields and setters take any value; [`SimConfig::check`] is the one
/// rule for them, applied when a run starts and when a scenario file's
/// `[sim]` table is loaded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// RNG seed (arrivals, service times, scheduling draws).
    pub seed: u64,
    /// Requests arriving before this time are simulated but excluded from the
    /// latency statistics (queue warm-up).
    pub warmup: f64,
    /// Mean latency of serving one chunk from the cache, in seconds. The
    /// paper treats cache reads as negligible next to HDD reads; a small
    /// nonzero value can be supplied to model the SSD of Table V.
    pub cache_chunk_latency: f64,
    /// Length in seconds of the time slots of the per-slot chunk-source
    /// series (Fig. 7). `None` (the default) keeps only run totals, so a
    /// run's memory does not grow with its horizon.
    pub slot_length: Option<f64>,
}

impl SimConfig {
    /// Share of the horizon [`SimConfig::new`] sets as the warm-up.
    pub const DEFAULT_WARMUP_SHARE: f64 = 0.05;

    /// Creates a configuration with the given horizon and seed and default
    /// warm-up ([`SimConfig::DEFAULT_WARMUP_SHARE`] of the horizon), zero
    /// cache latency and no per-slot series.
    ///
    /// # Panics
    ///
    /// Panics if `horizon <= 0`.
    pub fn new(horizon: f64, seed: u64) -> Self {
        assert!(horizon > 0.0, "horizon must be positive");
        SimConfig {
            horizon,
            seed,
            warmup: horizon * Self::DEFAULT_WARMUP_SHARE,
            cache_chunk_latency: 0.0,
            slot_length: None,
        }
    }

    /// Sets the warm-up period (checked by [`SimConfig::check`], not
    /// clamped).
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the per-chunk cache read latency (checked by
    /// [`SimConfig::check`], not clamped).
    pub fn with_cache_latency(mut self, latency: f64) -> Self {
        self.cache_chunk_latency = latency;
        self
    }

    /// The one rule for a configuration: a positive, finite horizon; a
    /// positive, finite slot length that splits it into at most
    /// [`slot_count`]'s bound; a finite, non-negative warm-up before the
    /// horizon (a later one would leave no request to measure); and a
    /// finite, non-negative cache latency.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule as a message naming the value.
    pub fn check(&self) -> Result<(), String> {
        let horizon = self.horizon;
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(format!(
                "simulation horizon must be positive and finite, got {horizon}"
            ));
        }
        if let Some(slot) = self.slot_length {
            if !slot.is_finite() || slot <= 0.0 {
                return Err(format!(
                    "slot length must be positive and finite, got {slot}"
                ));
            }
            slot_count(horizon, slot)?;
        }
        let warmup = self.warmup;
        if !(0.0..horizon).contains(&warmup) {
            return Err(format!(
                "warmup must be finite, non-negative and before the {horizon} s horizon, \
                 got {warmup}"
            ));
        }
        let latency = self.cache_chunk_latency;
        if !latency.is_finite() || latency < 0.0 {
            return Err(format!(
                "cache_chunk_latency must be finite and non-negative, got {latency}"
            ));
        }
        Ok(())
    }

    /// Records per-slot chunk-source counts in slots of `slot` seconds
    /// ([`crate::SlotCounts`]); memory then grows with `horizon / slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot <= 0` or the horizon spans more slots than
    /// [`slot_count`] allows.
    pub fn with_slot_length(mut self, slot: f64) -> Self {
        assert!(slot > 0.0, "slot length must be positive");
        if let Err(bound) = slot_count(self.horizon, slot) {
            panic!("{bound}");
        }
        self.slot_length = Some(slot);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let c = SimConfig::new(1000.0, 3);
        assert!((c.warmup - 50.0).abs() < 1e-9);
        assert_eq!(c.cache_chunk_latency, 0.0);
        assert_eq!(c.slot_length, None);
        let c = c
            .with_warmup(10.0)
            .with_cache_latency(0.002)
            .with_slot_length(2.0);
        assert_eq!(c.warmup, 10.0);
        assert_eq!(c.cache_chunk_latency, 0.002);
        assert_eq!(c.slot_length, Some(2.0));
        assert_eq!(c.check(), Ok(()));
        let unclamped = SimConfig::new(10.0, 0).with_warmup(-5.0);
        assert_eq!(unclamped.warmup, -5.0);
    }

    #[test]
    fn check_rejects_every_out_of_range_value() {
        let base = SimConfig::new(200.0, 1);
        assert_eq!(base.check(), Ok(()));
        assert_eq!(base.with_warmup(0.0).check(), Ok(()));
        assert_eq!(base.with_warmup(199.9).check(), Ok(()));
        for (config, fragment) in [
            (base.with_warmup(200.0), "before the 200 s horizon, got 200"),
            (base.with_warmup(5e3), "before the 200 s horizon, got 5000"),
            (
                base.with_warmup(-1.0),
                "non-negative and before the 200 s horizon, got -1",
            ),
            (base.with_warmup(f64::INFINITY), "got inf"),
            (base.with_warmup(f64::NAN), "got NaN"),
            (base.with_cache_latency(-0.001), "non-negative, got -0.001"),
            (
                base.with_cache_latency(f64::INFINITY),
                "finite and non-negative, got inf",
            ),
            (base.with_cache_latency(f64::NAN), "got NaN"),
            (
                SimConfig {
                    horizon: f64::INFINITY,
                    ..base
                },
                "horizon must be positive and finite, got inf",
            ),
            (
                SimConfig {
                    horizon: -1.0,
                    ..base
                },
                "positive and finite, got -1",
            ),
            (
                SimConfig {
                    slot_length: Some(0.0),
                    ..base
                },
                "slot length must be positive and finite, got 0",
            ),
            (
                SimConfig {
                    slot_length: Some(1e-12),
                    ..base
                },
                "exceed MAX_SLOTS",
            ),
        ] {
            let message = config.check().expect_err(fragment);
            assert!(message.contains(fragment), "{message:?} lacks {fragment:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceed MAX_SLOTS")]
    fn a_series_of_more_than_max_slots_panics() {
        let _ = SimConfig::new(1e6, 1).with_slot_length(1e-9);
    }

    #[test]
    fn a_series_of_exactly_max_slots_is_accepted() {
        let c = SimConfig::new(MAX_SLOTS as f64, 1).with_slot_length(1.0);
        assert_eq!(c.slot_length, Some(1.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_horizon_panics() {
        let _ = SimConfig::new(0.0, 1);
    }
}
