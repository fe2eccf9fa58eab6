//! Latency statistics and chunk-source accounting.

use crate::config::slot_count;

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
    /// Builds a summary from latencies given as their [`order_key`]s,
    /// sorted ascending (empty input yields all zeros). The sums run in
    /// that ascending order, so the result depends only on the multiset of
    /// samples, never on the order they were recorded in.
    pub(crate) fn from_sorted_keys(keys: &[u64]) -> Self {
        debug_assert!(keys.is_sorted(), "keys must be sorted ascending");
        let n = keys.len();
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
        let values = || keys.iter().map(|&key| from_order_key(key));
        let mean = values().sum::<f64>() / n as f64;
        let var = values().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let pct = |p: f64| -> f64 {
            let idx = ((n as f64 - 1.0) * p).round() as usize;
            from_order_key(keys[idx.min(n - 1)])
        };
        LatencySummary {
            count: n,
            mean,
            std_dev: var.sqrt(),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: from_order_key(keys[n - 1]),
        }
    }
}

/// The key whose unsigned order is [`f64::total_cmp`]'s order: a
/// non-negative float gains the top bit, a negative one has every bit
/// flipped. Latencies are recorded as keys, so the summaries sort integers.
pub(crate) fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The float whose [`order_key`] is `key`.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Summarises per-file latency samples, given as [`order_key`]s, without
/// copying them: each file's keys are sorted in place, summarised, moved
/// into one buffer of the total length and dropped; that buffer is sorted
/// in place for the overall summary. Returns `(overall, per_file)`,
/// bit-identical to summarising a sorted copy of each file's samples and of
/// the flattened samples, with one extra copy of the samples where that
/// takes two. Keys that compare equal are equal, so the unstable
/// (allocation-free) sort yields the sequence a stable one would.
pub(crate) fn summarize_per_file(per_file: Vec<Vec<u64>>) -> (LatencySummary, Vec<LatencySummary>) {
    let mut all = Vec::with_capacity(per_file.iter().map(Vec::len).sum());
    let summaries = per_file
        .into_iter()
        .map(|mut keys| {
            keys.sort_unstable();
            all.extend_from_slice(&keys);
            LatencySummary::from_sorted_keys(&keys)
        })
        .collect();
    all.sort_unstable();
    (LatencySummary::from_sorted_keys(&all), summaries)
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
            slot_count(horizon, slot).unwrap_or_else(|bound| panic!("{bound}"))
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

    /// Summarises raw samples (empty input yields all zeros): keys a copy,
    /// sorts it, then [`LatencySummary::from_sorted_keys`].
    fn from_samples(samples: &[f64]) -> LatencySummary {
        let mut keys: Vec<u64> = samples.iter().map(|&x| order_key(x)).collect();
        keys.sort_unstable();
        LatencySummary::from_sorted_keys(&keys)
    }

    #[test]
    fn order_keys_sort_as_total_cmp_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(0x0D0E_4EED);
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut values: Vec<f64> = specials.into_iter().chain([-f64::INFINITY]).collect();
        values.extend((0..200).map(|_| f64::from_bits(rng.gen::<u64>())));
        for &a in &values {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn summary_of_known_samples() {
        let s = from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
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
        let s = from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = from_samples(&samples);
        assert!((s.p95 - 95.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
    }

    /// The statistics as computed before summaries were sorted in place: a
    /// copy, stable-sorted by `partial_cmp`.
    fn reference(samples: &[f64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::from_sorted_keys(&[]);
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
            let copies: Vec<LatencySummary> = per_file.iter().map(|f| from_samples(f)).collect();
            let keys = per_file
                .iter()
                .map(|f| f.iter().map(|&x| order_key(x)).collect())
                .collect();
            let (overall, summaries) = summarize_per_file(keys);

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
            assert_eq!(bits(&overall), bits(&from_samples(&flat)), "case {case}");
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

    /// `SimConfig`'s fields are public, so the allocation itself checks
    /// the bound a builder would have.
    #[test]
    #[should_panic(expected = "exceed MAX_SLOTS")]
    fn a_series_past_the_slot_bound_panics_before_allocating() {
        let _ = SlotCounts::new(1e6, Some(1e-9));
    }
}
