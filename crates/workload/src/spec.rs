//! The workload numbers used in the paper's evaluation.

/// Bytes per megabyte (the paper uses decimal MB for object sizes).
pub const MB: u64 = 1_000_000;
/// Bytes per gigabyte.
pub const GB: u64 = 1_000 * MB;

/// The per-file arrival rates of the paper's simulation setup (§V-A):
/// groups of five files cycle through the rates
/// `{0.000156, 0.000156, 0.000125, 0.000167, 0.000104}` requests/second,
/// giving an aggregate of ≈0.1416 req/s for 1000 files.
pub fn paper_simulation_rates(num_files: usize) -> Vec<f64> {
    const GROUP: [f64; 5] = [0.000156, 0.000156, 0.000125, 0.000167, 0.000104];
    (0..num_files).map(|i| GROUP[i % GROUP.len()]).collect()
}

/// The heterogeneous service rates (1/mean service time, per second) of the
/// paper's 12 storage servers, taken from its §V-A measurement-based setup.
///
/// The paper lists eleven values for "the 12 storage servers"; the published
/// list is `{0.1, 0.1, 0.1, 0.0909, 0.0909, 0.0667, 0.0667, 0.0769, 0.0769,
/// 0.0588, 0.0588}` and we complete the twelfth server by repeating the last
/// value, preserving the mix of fast and slow servers.
pub fn paper_server_service_rates() -> Vec<f64> {
    vec![
        0.1, 0.1, 0.1, 0.0909, 0.0909, 0.0667, 0.0667, 0.0769, 0.0769, 0.0588, 0.0588, 0.0588,
    ]
}

/// An object-size class of the paper's 24-hour production workload
/// (Table III) with its average per-object request arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectSizeClass {
    /// Object size in bytes.
    pub size_bytes: u64,
    /// Average request arrival rate per object (requests per second).
    pub arrival_rate: f64,
    /// Human-readable label ("4MB", "1GB", …).
    pub label: &'static str,
}

/// Table III of the paper: the five most popular object sizes of the
/// production trace and their average per-object arrival rates.
pub fn table_iii_object_classes() -> Vec<ObjectSizeClass> {
    vec![
        ObjectSizeClass {
            size_bytes: 4 * MB,
            arrival_rate: 0.000_298_68,
            label: "4MB",
        },
        ObjectSizeClass {
            size_bytes: 16 * MB,
            arrival_rate: 0.000_108_24,
            label: "16MB",
        },
        ObjectSizeClass {
            size_bytes: 64 * MB,
            arrival_rate: 0.000_518_52,
            label: "64MB",
        },
        ObjectSizeClass {
            size_bytes: 256 * MB,
            arrival_rate: 0.000_007_8,
            label: "256MB",
        },
        ObjectSizeClass {
            size_bytes: GB,
            arrival_rate: 0.000_002_4,
            label: "1GB",
        },
    ]
}

/// Measured chunk service-time statistics from the paper's Ceph testbed
/// (Table IV): mean and variance of the read service time (milliseconds) at
/// an HDD-backed OSD for each chunk size.
pub fn table_iv_hdd_service_ms() -> Vec<(u64, f64, f64)> {
    vec![
        (MB, 6.6696, 0.0963),
        (4 * MB, 35.88, 2.6925),
        (16 * MB, 147.8462, 388.9872),
        (64 * MB, 355.08, 1256.61),
        (256 * MB, 6758.06, 554_180.0),
    ]
}

/// Measured chunk read latency from the SSD cache (Table V), milliseconds.
pub fn table_v_ssd_latency_ms() -> Vec<(u64, f64)> {
    vec![
        (MB, 1.866_19),
        (4 * MB, 7.356_39),
        (16 * MB, 30.4927),
        (64 * MB, 97.0968),
        (256 * MB, 349.133),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_aggregate_to_quoted_total() {
        let rates = paper_simulation_rates(1000);
        let total: f64 = rates.iter().sum();
        // The paper quotes an aggregate arrival rate of 0.1416 /s.
        assert!((total - 0.1416).abs() < 1e-3, "total = {total}");
    }

    #[test]
    fn server_rates_have_twelve_entries() {
        let rates = paper_server_service_rates();
        assert_eq!(rates.len(), 12);
        assert!(rates.iter().all(|&r| r > 0.05 && r <= 0.1));
    }

    #[test]
    fn table_iii_has_five_classes_in_increasing_size() {
        let classes = table_iii_object_classes();
        assert_eq!(classes.len(), 5);
        for w in classes.windows(2) {
            assert!(w[0].size_bytes < w[1].size_bytes);
        }
        assert_eq!(classes[0].label, "4MB");
        assert_eq!(classes[4].size_bytes, GB);
    }

    #[test]
    fn table_iv_and_v_cover_same_chunk_sizes() {
        let hdd = table_iv_hdd_service_ms();
        let ssd = table_v_ssd_latency_ms();
        assert_eq!(hdd.len(), ssd.len());
        for ((s1, mean_hdd, _), (s2, lat_ssd)) in hdd.iter().zip(&ssd) {
            assert_eq!(s1, s2);
            // SSD cache reads are much faster than HDD reads at every size.
            assert!(lat_ssd < mean_hdd);
        }
    }
}
