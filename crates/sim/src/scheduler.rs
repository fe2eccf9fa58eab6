//! Chunk-request scheduling: choosing which storage nodes serve a request.
//!
//! Probabilistic scheduling (the policy analysed by the paper) requires
//! drawing a *set* of exactly `k − d` distinct nodes such that node `j` is
//! included with probability `π_{i,j}`. Madow's systematic sampling does this
//! exactly whenever `Σ_j π_{i,j} = k − d`, which the optimizer guarantees.
//! A load-oblivious uniform sampler is also provided as an ablation baseline.

use rand::Rng;

/// Draws a subset whose inclusion probabilities are exactly `marginals`
/// (Madow's systematic sampling) into `selected`, identified by their index
/// into `marginals`. The marginals must lie in `[0, 1]` and sum to
/// (approximately) an integer `s`; the set has exactly `s` elements.
/// `selected` is cleared and its capacity reused: the simulator's arrival
/// loop calls this once per request.
///
/// # Panics
///
/// Panics if a marginal is outside `[0, 1 + ε]`.
pub(crate) fn systematic_sample_into<R: Rng + ?Sized>(
    marginals: &[f64],
    rng: &mut R,
    selected: &mut Vec<usize>,
) {
    selected.clear();
    let total: f64 = marginals.iter().sum();
    if total <= 1e-12 {
        return;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    let mut cum = 0.0;
    let mut next_mark = u;
    for (idx, &p) in marginals.iter().enumerate() {
        assert!(
            (-1e-9..=1.0 + 1e-9).contains(&p),
            "marginal {p} out of [0, 1]"
        );
        let p = p.clamp(0.0, 1.0);
        cum += p;
        while next_mark < cum - 1e-12 {
            selected.push(idx);
            next_mark += 1.0;
        }
    }
}

/// Chooses `count` distinct indices uniformly at random from `0..n` into
/// `selected` (load-oblivious baseline). `selected` doubles as the partial
/// Fisher–Yates pool, so its capacity is reused across calls.
///
/// # Panics
///
/// Panics if `count > n`.
pub(crate) fn uniform_sample_into<R: Rng + ?Sized>(
    n: usize,
    count: usize,
    rng: &mut R,
    selected: &mut Vec<usize>,
) {
    assert!(count <= n, "cannot choose {count} distinct items from {n}");
    // Partial Fisher-Yates over the reused pool.
    selected.clear();
    selected.extend(0..n);
    for i in 0..count {
        let j = rng.gen_range(i..n);
        selected.swap(i, j);
    }
    selected.truncate(count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn systematic_sample<R: Rng>(marginals: &[f64], rng: &mut R) -> Vec<usize> {
        let mut selected = Vec::new();
        systematic_sample_into(marginals, rng, &mut selected);
        selected
    }

    fn uniform_sample<R: Rng>(n: usize, count: usize, rng: &mut R) -> Vec<usize> {
        let mut selected = Vec::new();
        uniform_sample_into(n, count, rng, &mut selected);
        selected
    }

    #[test]
    fn systematic_sampling_matches_marginals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let marginals = vec![0.9, 0.7, 0.4, 0.6, 0.4]; // sums to 3
        let trials = 40_000;
        let mut counts = vec![0usize; marginals.len()];
        for _ in 0..trials {
            let set = systematic_sample(&marginals, &mut rng);
            assert_eq!(set.len(), 3, "always exactly 3 nodes selected");
            // distinct
            let mut sorted = set.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), set.len());
            for idx in set {
                counts[idx] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!(
                (freq - marginals[i]).abs() < 0.02,
                "node {i}: empirical {freq} vs marginal {}",
                marginals[i]
            );
        }
    }

    #[test]
    fn integer_marginals_are_always_selected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let marginals = vec![1.0, 0.0, 1.0];
        for _ in 0..100 {
            let set = systematic_sample(&marginals, &mut rng);
            assert_eq!(set, vec![0, 2]);
        }
    }

    #[test]
    fn zero_marginals_select_nothing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(systematic_sample(&[0.0, 0.0], &mut rng).is_empty());
        assert!(systematic_sample(&[], &mut rng).is_empty());
    }

    #[test]
    fn uniform_sample_is_distinct_and_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let s = uniform_sample(7, 4, &mut rng);
            assert_eq!(s.len(), 4);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4);
            assert!(s.iter().all(|&i| i < 7));
        }
    }

    #[test]
    fn uniform_sample_covers_all_items_over_time() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..500 {
            for i in uniform_sample(6, 2, &mut rng) {
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "distinct items")]
    fn oversampling_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let _ = uniform_sample(3, 5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_marginal_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let _ = systematic_sample(&[1.5, 0.5], &mut rng);
    }
}
