//! Small numeric helpers: medians, Python-compatible quartiles, an
//! interpolated histogram quantile, peak RSS.

use sprout::LatencyHistogram;

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest of `values`: the repetition least disturbed by the machine, for a
/// timing that interference can only lengthen.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest of `values`: the least disturbed repetition of a throughput.
pub fn most(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the rule the benchmark contract judges spread by.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile range as a share of the median (0 with fewer than two
/// values or a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The `q`-quantile of a served-latency histogram in microseconds, linearly
/// interpolated inside its bucket.
///
/// `LatencyHistogram::quantile_us` answers with the bucket's floor, so a tail
/// latency moves in 6.25 % steps and reads identically run after run. Only
/// that public function is used here: it is a step function of the rank, so
/// the first and last rank that share the answer's floor give the bucket's
/// population, and the target rank's position among them places the quantile
/// inside the bucket (1 µs wide below 16 µs, then a sixteenth of the floor's
/// power of two — the layout the type documents).
pub fn interpolated_quantile_us(hist: &LatencyHistogram, q: f64) -> f64 {
    let n = hist.count();
    if n == 0 {
        return 0.0;
    }
    // Asking at (rank − ½)/n lands on exactly that rank whatever the rounding.
    let floor_at = |rank: u64| hist.quantile_us((rank as f64 - 0.5) / n as f64);
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    let floor = floor_at(target);
    // Smallest rank in [1, target] and largest in [target, n] with this floor.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if floor_at(mid) < floor {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if floor_at(mid) > floor {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let width = if floor < 16.0 {
        1.0
    } else {
        (1u64 << ((floor as u64).ilog2() - 4)) as f64
    };
    let position = (target - first) as f64 + 0.5;
    (floor + width * position / (last - first + 1) as f64).min(hist.max_us() as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interpolated_quantile_moves_inside_a_bucket() {
        // 1000 samples 1..=1000 µs: the true p99 is 990; its bucket is
        // [960, 992), whose floor is all `quantile_us` can say.
        let mut hist = LatencyHistogram::new();
        for v in 1..=1000 {
            hist.record(v);
        }
        assert_eq!(hist.quantile_us(0.99), 960.0);
        let p99 = interpolated_quantile_us(&hist, 0.99);
        assert!((p99 - 990.0).abs() <= 1.0, "p99 = {p99}");
        let p50 = interpolated_quantile_us(&hist, 0.5);
        assert!((p50 - 500.0).abs() <= 1.0, "p50 = {p50}");
        assert!(interpolated_quantile_us(&hist, 1.0) <= 1000.0);
        // Below 16 µs buckets are 1 µs wide; an empty histogram reads 0.
        let mut small = LatencyHistogram::new();
        small.record(7);
        let only = interpolated_quantile_us(&small, 0.99);
        assert!((7.0..=8.0).contains(&only), "{only}");
        assert_eq!(
            interpolated_quantile_us(&LatencyHistogram::new(), 0.99),
            0.0
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
    }
}
