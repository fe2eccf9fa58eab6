//! Latency statistics and chunk-source accounting.

/// Summary statistics of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of completed (post-warm-up) requests.
    pub count: usize,
    /// Mean latency (seconds).
    pub mean: f64,
    /// Standard deviation (seconds).
    pub std_dev: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed latency.
    pub max: f64,
}

impl LatencySummary {
    /// Builds a summary from raw samples (empty input yields all zeros):
    /// sorts a copy, then [`LatencySummary::from_sorted`]. The reference
    /// that [`summarize_per_file`] is tested against.
    #[cfg(test)]
    pub(crate) fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sort_latencies(&mut sorted);
        Self::from_sorted(&sorted)
    }

    /// Builds a summary from samples sorted ascending under
    /// [`f64::total_cmp`] (empty input yields all zeros). The sums run in
    /// that ascending order, so the result depends only on the multiset of
    /// samples, never on the order they were recorded in.
    pub(crate) fn from_sorted(sorted: &[f64]) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "samples must be sorted ascending"
        );
        let n = sorted.len();
        if n == 0 {
            return LatencySummary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let pct = |p: f64| -> f64 {
            let idx = ((n as f64 - 1.0) * p).round() as usize;
            sorted[idx.min(n - 1)]
        };
        LatencySummary {
            count: n,
            mean,
            std_dev: var.sqrt(),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: sorted[n - 1],
        }
    }
}

/// Sorts latency samples ascending, in place. `total_cmp` is a total order
/// (a `partial_cmp(..).unwrap_or(Equal)` comparator is not: a NaN scrambles
/// the order, and since Rust 1.81 the sort may panic on it). It agrees with
/// `<` on every finite value except `-0.0 < +0.0`, and latencies are `+0.0`
/// or positive. Samples that compare equal are bit-identical, so the unstable
/// (allocation-free) sort yields the same sequence as a stable one.
fn sort_latencies(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// Summarises per-file latency samples without copying them: each file's
/// samples are sorted in place, summarised, moved into one buffer of the
/// total length and dropped; that buffer is sorted in place for the overall
/// summary. Returns `(overall, per_file)`, bit-identical to summarising a
/// sorted copy of each file's samples and of the flattened samples, with one
/// extra copy of the samples where that takes two.
pub(crate) fn summarize_per_file(per_file: Vec<Vec<f64>>) -> (LatencySummary, Vec<LatencySummary>) {
    let mut all = Vec::with_capacity(per_file.iter().map(Vec::len).sum());
    let summaries = per_file
        .into_iter()
        .map(|mut samples| {
            sort_latencies(&mut samples);
            all.extend_from_slice(&samples);
            LatencySummary::from_sorted(&samples)
        })
        .collect();
    sort_latencies(&mut all);
    (LatencySummary::from_sorted(&all), summaries)
}

/// Chunk-source accounting: chunks served from the cache versus the storage
/// nodes. Two exact running totals are always kept; the per-slot series (the
/// quantity plotted in Fig. 7 of the paper) only when a slot length was asked
/// for, so without one the counters are O(1) in the horizon.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlotCounts {
    /// Slot length in seconds; `None` when no per-slot series was requested.
    pub slot_length: Option<f64>,
    /// Chunks served by the cache, per slot (empty without a slot length).
    pub cache_chunks: Vec<u64>,
    /// Chunks served by storage nodes, per slot (empty without a slot
    /// length).
    pub storage_chunks: Vec<u64>,
    /// Chunks served by the cache over the whole run.
    pub cache_total: u64,
    /// Chunks served by storage nodes over the whole run.
    pub storage_total: u64,
}

impl SlotCounts {
    /// Creates empty counters. With `Some(slot_length)` the per-slot series
    /// cover `horizon` seconds in slots of `slot_length` seconds; with `None`
    /// only the totals are kept.
    pub fn new(horizon: f64, slot_length: Option<f64>) -> Self {
        let slots = slot_length.map_or(0, |slot| {
            assert!(slot > 0.0, "slot length must be positive");
            (horizon / slot).ceil().max(1.0) as usize
        });
        SlotCounts {
            slot_length,
            cache_chunks: vec![0; slots],
            storage_chunks: vec![0; slots],
            cache_total: 0,
            storage_total: 0,
        }
    }

    /// Records chunks served at `time`.
    pub fn record(&mut self, time: f64, cache: u64, storage: u64) {
        self.cache_total += cache;
        self.storage_total += storage;
        if let Some(slot) = self.slot_length {
            let idx = ((time / slot) as usize).min(self.cache_chunks.len() - 1);
            self.cache_chunks[idx] += cache;
            self.storage_chunks[idx] += storage;
        }
    }

    /// Fraction of all chunks that came from the cache.
    pub fn cache_fraction(&self) -> f64 {
        let total = self.cache_total + self.storage_total;
        if total == 0 {
            0.0
        } else {
            self.cache_total as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn summary_of_known_samples() {
        let s = LatencySummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.p50 - 3.0).abs() < 1e-12);
        assert!((s.max - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-9);
        assert!(s.p95 >= s.p50);
        assert!(s.p99 >= s.p95);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples(&samples);
        assert!((s.p95 - 95.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
    }

    /// The statistics as computed before summaries were sorted in place: a
    /// copy, stable-sorted by `partial_cmp`.
    fn reference(samples: &[f64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::from_sorted(&[]);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let pct = |p: f64| sorted[(((n as f64 - 1.0) * p).round() as usize).min(n - 1)];
        LatencySummary {
            count: n,
            mean,
            std_dev: var.sqrt(),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: sorted[n - 1],
        }
    }

    fn bits(s: &LatencySummary) -> [u64; 7] {
        [
            s.count as u64,
            s.mean.to_bits(),
            s.std_dev.to_bits(),
            s.p50.to_bits(),
            s.p95.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
        ]
    }

    #[test]
    fn in_place_summaries_equal_summaries_of_copies_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5EED_2025);
        for case in 0..400 {
            let files = rng.gen_range(0..12);
            let per_file: Vec<Vec<f64>> = (0..files)
                .map(|_| {
                    let len = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => rng.gen_range(1..4),
                        _ => rng.gen_range(4..300),
                    };
                    // A small value pool forces ties; zeros are full cache
                    // hits at zero cache latency.
                    let pool: Vec<f64> = (0..rng.gen_range(1..20))
                        .map(|_| match rng.gen_range(0..4) {
                            0 => 0.0,
                            _ => rng.gen_range(0.0..50.0),
                        })
                        .collect();
                    (0..len)
                        .map(|_| match rng.gen_range(0..3) {
                            0 => pool[rng.gen_range(0..pool.len())],
                            _ => rng.gen_range(0.0..100.0),
                        })
                        .collect()
                })
                .collect();
            let flat: Vec<f64> = per_file.iter().flatten().copied().collect();
            let copies: Vec<LatencySummary> = per_file
                .iter()
                .map(|f| LatencySummary::from_samples(f))
                .collect();
            let (overall, summaries) = summarize_per_file(per_file.clone());

            assert_eq!(summaries.len(), per_file.len(), "case {case}");
            for (i, file) in per_file.iter().enumerate() {
                assert_eq!(
                    bits(&summaries[i]),
                    bits(&copies[i]),
                    "case {case} file {i}"
                );
                assert_eq!(
                    bits(&summaries[i]),
                    bits(&reference(file)),
                    "case {case} file {i}"
                );
            }
            assert_eq!(
                bits(&overall),
                bits(&LatencySummary::from_samples(&flat)),
                "case {case}"
            );
            assert_eq!(bits(&overall), bits(&reference(&flat)), "case {case}");
        }
    }

    #[test]
    fn slot_counts_accumulate_and_clamp() {
        let mut c = SlotCounts::new(100.0, Some(5.0));
        assert_eq!(c.cache_chunks.len(), 20);
        c.record(0.0, 1, 3);
        c.record(4.9, 1, 3);
        c.record(5.0, 0, 2);
        c.record(1000.0, 5, 5); // clamps to the last slot
        assert_eq!(c.cache_chunks[0], 2);
        assert_eq!(c.storage_chunks[0], 6);
        assert_eq!(c.storage_chunks[1], 2);
        assert_eq!(c.cache_chunks[19], 5);
        assert_eq!((c.cache_total, c.storage_total), (7, 13));
        let frac = c.cache_fraction();
        assert!((frac - 7.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn totals_without_a_slot_length_keep_no_series() {
        let mut c = SlotCounts::new(1e12, None);
        c.record(0.0, 1, 3);
        c.record(5e11, 2, 2);
        assert!(c.cache_chunks.is_empty() && c.storage_chunks.is_empty());
        assert_eq!((c.cache_total, c.storage_total), (3, 5));
        assert_eq!(c.cache_fraction(), 3.0 / 8.0);
    }

    #[test]
    fn empty_slot_counts_have_zero_cache_fraction() {
        assert_eq!(SlotCounts::new(10.0, Some(5.0)).cache_fraction(), 0.0);
        assert_eq!(SlotCounts::new(10.0, None).cache_fraction(), 0.0);
    }
}
