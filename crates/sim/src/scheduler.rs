//! Chunk-request scheduling: choosing which storage nodes serve a request.
//!
//! Every cache scheme reads through its placement-aligned read rows
//! ([`CacheScheme::read_rows`](crate::CacheScheme::read_rows)): a request of
//! file `i` draws a *set* of exactly `k − d` distinct hosts such that host
//! `j` is included with probability `π_{i,j}`. Madow's systematic sampling
//! does this exactly whenever `Σ_j π_{i,j} = k − d`, which the rows
//! guarantee (checked by [`CacheScheme::validate`](crate::CacheScheme::validate)).

use rand::Rng;

/// Madow's systematic sampling over a plan's rows, with each row's
/// cumulative marks computed once, when the plan is installed.
///
/// Row `r` draws a subset whose inclusion probabilities are exactly its
/// marginals: one uniform `u`, and index `j` is taken once for every point
/// of `u, u + 1, u + 2, …` below `cum_j − 1e-12`, where `cum_j` adds the
/// clamped marginals `0..=j` in order. The marginals must lie in `[0, 1]`
/// and sum to (approximately) an integer `s`; the set then has exactly `s`
/// elements. A row summing to at most 1e-12 draws nothing and consumes no
/// randomness.
#[derive(Debug)]
pub(crate) struct SystematicTable {
    /// The marks `cum_j − 1e-12` of every row that draws, back to back.
    marks: Vec<f64>,
    /// Row `r`'s marks are `marks[starts[r]..starts[r + 1]]`; a row that
    /// draws nothing has none.
    starts: Vec<usize>,
}

impl SystematicTable {
    /// Precomputes `rows`.
    ///
    /// # Panics
    ///
    /// Panics if a row that draws has a marginal outside `[0, 1 + ε]`.
    pub(crate) fn new(rows: &[Vec<f64>]) -> Self {
        let mut table = SystematicTable {
            marks: Vec::new(),
            starts: vec![0],
        };
        for row in rows {
            let total: f64 = row.iter().sum();
            // A NaN total draws, as `total <= 1e-12` is false: its NaN
            // marginal fails the range check.
            if total > 1e-12 || total.is_nan() {
                let mut cum = 0.0;
                for &p in row {
                    assert!(
                        (-1e-9..=1.0 + 1e-9).contains(&p),
                        "marginal {p} out of [0, 1]"
                    );
                    cum += p.clamp(0.0, 1.0);
                    table.marks.push(cum - 1e-12);
                }
            }
            table.starts.push(table.marks.len());
        }
        table
    }

    /// Draws row `row`'s subset into `selected`, identified by index into
    /// the row. `selected` is cleared and its capacity reused: the
    /// simulator's arrival loop calls this once per request.
    pub(crate) fn sample_into<R: Rng + ?Sized>(
        &self,
        row: usize,
        rng: &mut R,
        selected: &mut Vec<usize>,
    ) {
        selected.clear();
        let marks = &self.marks[self.starts[row]..self.starts[row + 1]];
        if marks.is_empty() {
            return;
        }
        let mut next_mark: f64 = rng.gen_range(0.0..1.0);
        for (idx, &mark) in marks.iter().enumerate() {
            while next_mark < mark {
                selected.push(idx);
                next_mark += 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-request sampler the table replaced: sums, clamps and checks
    /// the row on every draw.
    fn systematic_sample_into<R: Rng + ?Sized>(
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

    /// One draw from a table of the single row `marginals`.
    fn systematic_sample<R: Rng>(marginals: &[f64], rng: &mut R) -> Vec<usize> {
        let mut selected = Vec::new();
        SystematicTable::new(&[marginals.to_vec()]).sample_into(0, rng, &mut selected);
        selected
    }

    /// A random row of `n` marginals in `[−1e-9, 1 + 1e-9]`: all zero, or
    /// summing to an integer `s ≤ n` up to float error, with entries at and
    /// just past both ends of the range.
    fn random_row(rng: &mut StdRng, n: usize) -> Vec<f64> {
        if rng.gen_bool(0.1) {
            return vec![0.0; n];
        }
        let mut row: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let s = rng.gen_range(1..=n) as f64;
        // Water-fill towards the integer sum: scale, then cap at 1.
        for _ in 0..50 {
            let sum: f64 = row.iter().sum();
            row.iter_mut().for_each(|p| *p = (*p * s / sum).min(1.0));
        }
        for p in row.iter_mut() {
            match rng.gen_range(0..12) {
                0 => *p = 0.0,
                1 => *p = -1e-9 * rng.gen_range(0.0..1.0),
                2 if *p > 0.999 => *p = 1.0 + 1e-9 * rng.gen_range(0.0..1.0),
                _ => {}
            }
        }
        row
    }

    #[test]
    fn table_draws_what_the_per_request_sampler_draws() {
        let mut gen = StdRng::seed_from_u64(0x5A3F_1E00);
        for case in 0..300 {
            let files = gen.gen_range(1..8);
            // Each file: a row of 2..=9 entries whose first `skip` entries
            // (the rows exact caching copied, 0 under functional caching)
            // are not sampled; the rest sums to k − d. Every fifth file is
            // fully cached and reads nothing.
            let rows: Vec<(Vec<f64>, usize)> = (0..files)
                .map(|_| {
                    let n = gen.gen_range(2..10);
                    let skip = if gen.gen_bool(0.5) {
                        0
                    } else {
                        gen.gen_range(1..n)
                    };
                    let mut row: Vec<f64> = (0..skip).map(|_| gen.gen_range(0.0..1.0)).collect();
                    row.extend(random_row(&mut gen, n - skip));
                    (row, skip)
                })
                .collect();
            let sampled = |f: usize| f % 5 != 4;
            // The table holds the read rows: the unsampled entries zeroed,
            // all of them for a fully cached file.
            let read_rows: Vec<Vec<f64>> = (rows.iter().enumerate())
                .map(|(f, (row, skip))| {
                    let mut read = row.clone();
                    let unread = if sampled(f) { *skip } else { read.len() };
                    read[..unread].fill(0.0);
                    read
                })
                .collect();
            let table = SystematicTable::new(&read_rows);
            let seed = gen.gen::<u64>();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (mut picks, mut expected) = (Vec::new(), Vec::new());
            for draw in 0..200 {
                let f = gen.gen_range(0..files);
                let (row, skip) = &rows[f];
                table.sample_into(f, &mut a, &mut picks);
                expected.clear();
                if sampled(f) {
                    // The per-request sampler indexes the sampled part.
                    systematic_sample_into(&row[*skip..], &mut b, &mut expected);
                    expected.iter_mut().for_each(|i| *i += skip);
                }
                assert_eq!(picks, expected, "case {case} draw {draw} file {f}");
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "case {case}: RNG state");
        }
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
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_marginal_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let _ = systematic_sample(&[1.5, 0.5], &mut rng);
    }
}
