//! Per-device chunk service-time models.
//!
//! The paper measures chunk read service times on its testbed for a range of
//! chunk sizes: Table IV gives the mean and variance at an HDD-backed OSD,
//! Table V the read latency from the SSD cache. Those tables are reproduced
//! here as calibration points; intermediate chunk sizes are handled by
//! log-linear interpolation of the mean (and of the coefficient of variation
//! for the variance), which preserves the tables' strong size dependence.

use sprout_queueing::dist::{ServiceDistribution, ServiceMoments};

/// Milliseconds per second (the tables are in ms; the cluster works in seconds).
const MS: f64 = 1e-3;

/// Calibration table: (chunk bytes, mean seconds, variance seconds²).
fn hdd_table() -> Vec<(f64, f64, f64)> {
    vec![
        (1e6, 6.6696 * MS, 0.0963 * MS * MS),
        (4e6, 35.88 * MS, 2.6925 * MS * MS),
        (16e6, 147.8462 * MS, 388.9872 * MS * MS),
        (64e6, 355.08 * MS, 1256.61 * MS * MS),
        (256e6, 6758.06 * MS, 554_180.0 * MS * MS),
    ]
}

/// Calibration table for the SSD cache: (chunk bytes, mean seconds).
/// The paper only reports means for the cache; we model a 5 % coefficient of
/// variation, which keeps cache reads effectively deterministic relative to
/// HDD reads (the paper treats them as negligible).
fn ssd_table() -> Vec<(f64, f64)> {
    vec![
        (1e6, 1.866_19 * MS),
        (4e6, 7.356_39 * MS),
        (16e6, 30.4927 * MS),
        (64e6, 97.0968 * MS),
        (256e6, 349.133 * MS),
    ]
}

/// A storage-device latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceModel {
    /// An HDD-backed OSD calibrated to Table IV, with its service rate scaled
    /// so that a 25 MB chunk (the paper's simulation chunk size) is served at
    /// `rate_scale` times the table's speed. Use `rate_scale = 1.0` for the
    /// table as measured.
    Hdd {
        /// Multiplier on the service *rate* (2.0 = twice as fast).
        rate_scale: f64,
    },
    /// The SSD cache device calibrated to Table V.
    Ssd,
    /// A synthetic device with exponential chunk service times of the given
    /// mean (seconds), independent of chunk size — matches the abstract
    /// simulation setup of §V-A where per-server service rates are specified
    /// directly.
    Exponential {
        /// Mean chunk service time in seconds.
        mean: f64,
    },
}

impl DeviceModel {
    /// An HDD device exactly matching Table IV.
    pub fn hdd() -> Self {
        DeviceModel::Hdd { rate_scale: 1.0 }
    }

    /// The SSD cache device of Table V.
    pub fn ssd() -> Self {
        DeviceModel::Ssd
    }

    /// A size-independent exponential device with the given mean service time.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`.
    pub fn exponential(mean: f64) -> Self {
        assert!(mean > 0.0, "mean service time must be positive");
        DeviceModel::Exponential { mean }
    }

    /// The service-time distribution for reading one chunk of `chunk_bytes`
    /// from this device.
    pub fn service_distribution(&self, chunk_bytes: u64) -> ServiceDistribution {
        match *self {
            DeviceModel::Hdd { rate_scale } => {
                let (mean, variance) = interpolate_mean_variance(&hdd_table(), chunk_bytes as f64);
                let mean = mean / rate_scale;
                let variance = variance / (rate_scale * rate_scale);
                ServiceDistribution::from_mean_variance(mean, variance.max(1e-12))
            }
            DeviceModel::Ssd => {
                let mean = interpolate_mean(&ssd_table(), chunk_bytes as f64);
                let cv = 0.05;
                ServiceDistribution::from_mean_variance(mean, (cv * mean).powi(2))
            }
            DeviceModel::Exponential { mean } => ServiceDistribution::exponential(1.0 / mean),
        }
    }

    /// Convenience accessor for the first three moments.
    pub fn service_moments(&self, chunk_bytes: u64) -> ServiceMoments {
        self.service_distribution(chunk_bytes).moments()
    }

    /// Mean chunk read time for the given chunk size (seconds).
    pub fn mean_service_time(&self, chunk_bytes: u64) -> f64 {
        self.service_moments(chunk_bytes).mean
    }
}

/// Log-log interpolation of the mean over the calibration points, with
/// proportional extrapolation beyond the table ends.
fn interpolate_mean(table: &[(f64, f64)], size: f64) -> f64 {
    let size = size.max(1.0);
    if size <= table[0].0 {
        return table[0].1 * size / table[0].0;
    }
    if size >= table[table.len() - 1].0 {
        let (s, m) = table[table.len() - 1];
        return m * size / s;
    }
    for w in table.windows(2) {
        let (s0, m0) = w[0];
        let (s1, m1) = w[1];
        if size >= s0 && size <= s1 {
            let t = (size.ln() - s0.ln()) / (s1.ln() - s0.ln());
            return (m0.ln() + t * (m1.ln() - m0.ln())).exp();
        }
    }
    table[table.len() - 1].1
}

fn interpolate_mean_variance(table: &[(f64, f64, f64)], size: f64) -> (f64, f64) {
    let means: Vec<(f64, f64)> = table.iter().map(|&(s, m, _)| (s, m)).collect();
    // Interpolate the squared coefficient of variation, which varies far less
    // violently with size than the raw variance.
    let scv: Vec<(f64, f64)> = table
        .iter()
        .map(|&(s, m, v)| (s, (v / (m * m)).max(1e-9)))
        .collect();
    let mean = interpolate_mean(&means, size);
    let c2 = interpolate_mean(&scv, size);
    (mean, c2 * mean * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_matches_table_iv_at_calibration_points() {
        let hdd = DeviceModel::hdd();
        for (bytes, mean_ms, var_ms2) in [
            (1_000_000u64, 6.6696, 0.0963),
            (4_000_000, 35.88, 2.6925),
            (16_000_000, 147.8462, 388.9872),
            (64_000_000, 355.08, 1256.61),
            (256_000_000, 6758.06, 554_180.0),
        ] {
            let m = hdd.service_moments(bytes);
            assert!(
                (m.mean - mean_ms * 1e-3).abs() / (mean_ms * 1e-3) < 1e-6,
                "mean mismatch at {bytes}"
            );
            assert!(
                (m.variance() - var_ms2 * 1e-6).abs() / (var_ms2 * 1e-6) < 1e-3,
                "variance mismatch at {bytes}: {} vs {}",
                m.variance(),
                var_ms2 * 1e-6
            );
        }
    }

    #[test]
    fn ssd_matches_table_v_and_is_faster_than_hdd() {
        let ssd = DeviceModel::ssd();
        let hdd = DeviceModel::hdd();
        for (bytes, ms) in [
            (1_000_000u64, 1.866_19),
            (4_000_000, 7.356_39),
            (16_000_000, 30.4927),
            (64_000_000, 97.0968),
            (256_000_000, 349.133),
        ] {
            let mean = ssd.mean_service_time(bytes);
            assert!((mean - ms * 1e-3).abs() / (ms * 1e-3) < 1e-6);
            assert!(mean < hdd.mean_service_time(bytes));
        }
    }

    #[test]
    fn interpolation_is_monotone_in_chunk_size() {
        let hdd = DeviceModel::hdd();
        let mut prev = 0.0;
        for mb in [1u64, 2, 4, 8, 16, 25, 32, 64, 128, 256, 512] {
            let mean = hdd.mean_service_time(mb * 1_000_000);
            assert!(mean > prev, "mean should grow with chunk size at {mb} MB");
            prev = mean;
        }
    }

    #[test]
    fn rate_scaling_speeds_up_the_device() {
        let slow = DeviceModel::hdd();
        let fast = DeviceModel::Hdd { rate_scale: 2.0 };
        let bytes = 25_000_000;
        assert!((fast.mean_service_time(bytes) - slow.mean_service_time(bytes) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_device_ignores_chunk_size() {
        let d = DeviceModel::exponential(10.0);
        assert!((d.mean_service_time(1) - 10.0).abs() < 1e-9);
        assert!((d.mean_service_time(1_000_000_000) - 10.0).abs() < 1e-9);
        let m = d.service_moments(123);
        assert!((m.variance() / (m.mean * m.mean) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_nonnegative() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for device in [
            DeviceModel::hdd(),
            DeviceModel::ssd(),
            DeviceModel::exponential(1.0),
        ] {
            let dist = device.service_distribution(25_000_000);
            for _ in 0..100 {
                assert!(dist.sample(&mut rng) >= 0.0);
            }
        }
    }
}
