//! Exact Euclidean projections onto the constraint polytope of Prob Π.
//!
//! The feasible set is, per file `i`,
//!
//! ```text
//! π_{i,j} ∈ [0, 1],   π_{i,j} = 0 for j ∉ S_i,   K_{L,i} ≤ Σ_j π_{i,j} ≤ K_{U,i}
//! ```
//!
//! coupled across files by the cache-capacity constraint
//!
//! ```text
//! Σ_i (k_i − Σ_j π_{i,j}) ≤ C      ⇔      Σ_{i,j} π_{i,j} ≥ Σ_i k_i − C.
//! ```
//!
//! The per-file set is a box intersected with a sum band; its Euclidean
//! projection has the water-filling form `clamp(y_j − τ, 0, 1)`. The sum over
//! `j` is piecewise linear in `τ` with breakpoints `{y_j − 1, y_j}`, so `τ` is
//! solved on the sorted breakpoints, without a tolerance. The coupling
//! constraint is handled by a non-negative multiplier `ν` on the aggregate
//! lower bound (projecting `y + ν` per file). A file's projection sums to its
//! box-clamped sum clamped into its band, so the aggregate at `ν` is
//! `Σ_i clamp(Σ_j clamp(y_{i,j} + ν, 0, 1), K_{L,i}, K_{U,i})` in closed form:
//! `ν` is bisected on it until no float separates the bracket ends, and the
//! per-file projection runs once, at the final `ν`. This replaces the
//! commercial solver (MOSEK) used by the paper's prototype.

/// `Σ_j clamp(y_j − τ, 0, 1)`.
fn box_sum(y: &[f64], tau: f64) -> f64 {
    y.iter().map(|&v| (v - tau).clamp(0.0, 1.0)).sum()
}

/// The `τ` with `box_sum(y, τ) = target`; `breaks` is scratch space.
fn shift_for_sum(y: &[f64], target: f64, breaks: &mut Vec<f64>) -> f64 {
    let target = target.clamp(0.0, y.len() as f64);
    breaks.clear();
    breaks.extend(y.iter().flat_map(|&v| [v - 1.0, v]));
    breaks.sort_unstable_by(f64::total_cmp);
    // The sum is n at the first breakpoint, 0 at the last, linear in between.
    let right = breaks.partition_point(|&b| box_sum(y, b) > target);
    if right == 0 {
        return breaks[0];
    }
    let (a, b) = (breaks[right - 1], breaks[right]);
    let (sum_a, sum_b) = (box_sum(y, a), box_sum(y, b));
    a + (sum_a - target) * (b - a) / (sum_a - sum_b)
}

/// Replaces `y` by the projection of `y + ν` onto the box and `band`.
fn project_file(y: &mut [f64], nu: f64, band: FileBand, breaks: &mut Vec<f64>) {
    let free = box_sum(y, -nu);
    let target = band.clamp(free);
    let tau = if target == free {
        -nu
    } else {
        shift_for_sum(y, target, breaks)
    };
    y.iter_mut().for_each(|v| *v = (*v - tau).clamp(0.0, 1.0));
}

/// Projects `y` onto `{x : x ∈ [0,1]^n, lo ≤ Σ x ≤ hi}`.
///
/// # Panics
///
/// Panics if `lo > hi + ε`, `lo > n` (infeasible), or `hi < 0`.
#[cfg(test)]
pub(crate) fn project_box_sum_band(y: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let band = FileBand { lo, hi }.checked(y.len());
    let mut x = y.to_vec();
    project_file(&mut x, 0.0, band, &mut Vec::new());
    x
}

/// Per-file constraint description used by [`project_flat`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FileBand {
    /// Lower bound `K_{L,i}` on `Σ_j π_{i,j}`.
    pub lo: f64,
    /// Upper bound `K_{U,i}` on `Σ_j π_{i,j}`.
    pub hi: f64,
}

impl FileBand {
    /// The nearest sum inside the band.
    fn clamp(self, sum: f64) -> f64 {
        sum.max(self.lo).min(self.hi)
    }

    /// The band itself, once it is known to be one `n` coordinates can meet.
    fn checked(self, n: usize) -> Self {
        let FileBand { lo, hi } = self;
        assert!(lo <= hi + 1e-9, "lower bound {lo} exceeds upper bound {hi}");
        assert!(
            lo <= n as f64 + 1e-9,
            "sum lower bound {lo} infeasible for {n} variables"
        );
        assert!(hi >= -1e-9, "sum upper bound {hi} must be non-negative");
        self
    }
}

/// [`project_flat`] on one `Vec` per file, returning the projection.
#[cfg(test)]
pub(crate) fn project_joint(
    points: &[Vec<f64>],
    bands: &[FileBand],
    aggregate_lo: f64,
) -> Vec<Vec<f64>> {
    let mut offsets = vec![0];
    offsets.extend(points.iter().map(|p| p.len()));
    (1..offsets.len()).for_each(|i| offsets[i] += offsets[i - 1]);
    let mut flat = points.concat();
    project_flat(&mut flat, &offsets, bands, aggregate_lo);
    let files = offsets.windows(2);
    files.map(|w| flat[w[0]..w[1]].to_vec()).collect()
}

/// Projects per-file vectors onto the joint feasible set
/// `{π : π_i ∈ Box_i ∩ Band_i ∀i, Σ_i Σ_j π_{i,j} ≥ aggregate_lo}`, in place.
///
/// File `i` is `y[bounds[i]..bounds[i + 1]]`: the (unconstrained) values of
/// file `i` restricted to its placement set `S_i`.
///
/// # Panics
///
/// Panics if the aggregate lower bound exceeds the sum of per-file upper
/// bounds (the constraint set would be empty) or if `bands.len() + 1`
/// differs from `bounds.len()`.
pub(crate) fn project_flat(y: &mut [f64], bounds: &[usize], bands: &[FileBand], aggregate_lo: f64) {
    assert_eq!(bounds.len(), bands.len() + 1, "one band per file");
    let files = || bounds.windows(2).map(|w| w[0]..w[1]).zip(bands);
    let max_total: f64 = files()
        .map(|(file, band)| band.checked(file.len()).hi.min(file.len() as f64))
        .sum();
    assert!(
        aggregate_lo <= max_total + 1e-6,
        "aggregate lower bound {aggregate_lo} exceeds maximum feasible total {max_total}"
    );

    let total = |nu: f64| -> f64 {
        let sums = files().map(|(file, band)| band.clamp(box_sum(&y[file], -nu)));
        sums.sum()
    };
    // The aggregate sum is non-decreasing in nu and largest once every
    // coordinate has reached 1; find the smallest nu >= 0 meeting the bound.
    let mut nu = 0.0;
    if total(nu) < aggregate_lo {
        let mut below = nu;
        nu = 1.0 - y.iter().copied().fold(1.0, f64::min);
        let mut mid = 0.5 * (below + nu);
        while below < mid && mid < nu {
            if total(mid) < aggregate_lo {
                below = mid;
            } else {
                nu = mid;
            }
            mid = 0.5 * (below + nu);
        }
    }
    let mut breaks = Vec::new();
    for (file, &band) in files() {
        project_file(&mut y[file], nu, band, &mut breaks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_feasible(x: &[f64], lo: f64, hi: f64) {
        let sum: f64 = x.iter().sum();
        assert!(sum >= lo - 1e-6, "sum {sum} below {lo}");
        assert!(sum <= hi + 1e-6, "sum {sum} above {hi}");
        for &v in x {
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&v),
                "coordinate {v} out of box"
            );
        }
    }

    #[test]
    fn projection_of_feasible_point_is_identity() {
        let y = vec![0.2, 0.5, 0.9];
        let p = project_box_sum_band(&y, 1.0, 2.0);
        for (a, b) in y.iter().zip(&p) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_reduces_sum_to_upper_bound() {
        let y = vec![1.0, 1.0, 1.0, 1.0];
        let p = project_box_sum_band(&y, 0.0, 2.5);
        assert_feasible(&p, 0.0, 2.5);
        let sum: f64 = p.iter().sum();
        assert!((sum - 2.5).abs() < 1e-6);
        // symmetric input stays symmetric
        for w in p.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_raises_sum_to_lower_bound() {
        let y = vec![0.0, 0.1, 0.0];
        let p = project_box_sum_band(&y, 2.0, 3.0);
        assert_feasible(&p, 2.0, 3.0);
        let sum: f64 = p.iter().sum();
        assert!((sum - 2.0).abs() < 1e-6);
    }

    #[test]
    fn projection_clamps_negative_and_large_coordinates() {
        let y = vec![-3.0, 5.0, 0.4];
        let p = project_box_sum_band(&y, 0.0, 3.0);
        assert_feasible(&p, 0.0, 3.0);
        assert!(p[0] <= p[2] && p[2] <= p[1], "order preserved: {p:?}");
    }

    #[test]
    fn projection_is_closest_point_on_a_grid() {
        // brute-force optimality check in 2-D
        let y = vec![0.9, 0.8];
        let p = project_box_sum_band(&y, 0.0, 1.0);
        let dist = |a: &[f64]| -> f64 {
            a.iter()
                .zip(&y)
                .map(|(x, yy)| (x - yy).powi(2))
                .sum::<f64>()
        };
        let best = dist(&p);
        let steps = 101;
        for i in 0..steps {
            for j in 0..steps {
                let cand = [i as f64 / 100.0, j as f64 / 100.0];
                if cand[0] + cand[1] <= 1.0 + 1e-12 {
                    assert!(best <= dist(&cand) + 1e-6, "{cand:?} closer than {p:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn inverted_band_panics() {
        let _ = project_box_sum_band(&[0.5], 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn unreachable_lower_bound_panics() {
        let _ = project_box_sum_band(&[0.5, 0.5], 3.0, 4.0);
    }

    #[test]
    fn joint_projection_without_coupling_matches_per_file() {
        let points = vec![vec![0.6, 0.7], vec![0.1, 0.2, 0.3]];
        let bands = vec![FileBand { lo: 0.0, hi: 1.0 }, FileBand { lo: 0.0, hi: 3.0 }];
        let joint = project_joint(&points, &bands, 0.0);
        let separate: Vec<Vec<f64>> = points
            .iter()
            .zip(&bands)
            .map(|(p, b)| project_box_sum_band(p, b.lo, b.hi))
            .collect();
        for (a, b) in joint.iter().flatten().zip(separate.iter().flatten()) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn joint_projection_meets_aggregate_lower_bound() {
        // Cache smaller than total demand: aggregate sum must rise to the bound.
        let points = vec![vec![0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0]];
        let bands = vec![FileBand { lo: 0.0, hi: 2.0 }, FileBand { lo: 0.0, hi: 2.0 }];
        let aggregate_lo = 3.0; // sum k_i - C = 4 - 1
        let joint = project_joint(&points, &bands, aggregate_lo);
        let total: f64 = joint.iter().flatten().sum();
        assert!((total - 3.0).abs() < 1e-5, "total {total}");
        for (row, band) in joint.iter().zip(&bands) {
            assert_feasible(row, band.lo, band.hi);
        }
    }

    #[test]
    fn joint_projection_respects_per_file_upper_bounds() {
        let points = vec![vec![0.9, 0.9, 0.9], vec![0.0, 0.0]];
        let bands = vec![FileBand { lo: 0.0, hi: 1.0 }, FileBand { lo: 0.0, hi: 2.0 }];
        let joint = project_joint(&points, &bands, 2.5);
        let sum0: f64 = joint[0].iter().sum();
        let sum1: f64 = joint[1].iter().sum();
        assert!(sum0 <= 1.0 + 1e-6);
        assert!(sum0 + sum1 >= 2.5 - 1e-5);
    }

    #[test]
    #[should_panic(expected = "exceeds maximum feasible total")]
    fn impossible_aggregate_bound_panics() {
        let points = vec![vec![0.0, 0.0]];
        let bands = vec![FileBand { lo: 0.0, hi: 1.0 }];
        let _ = project_joint(&points, &bands, 5.0);
    }

    /// The nested bisection this module used before the breakpoint solve: `τ`
    /// bisected per file inside every probe of a bisection on `ν`, both to
    /// `TOL`. Kept as the reference the exact projection is compared against.
    mod reference {
        use super::FileBand;

        const TOL: f64 = 1e-10;

        pub(crate) fn project_box_sum_band(y: &[f64], lo: f64, hi: f64) -> Vec<f64> {
            let n = y.len() as f64;
            let lo = lo.clamp(0.0, n);
            let hi = hi.clamp(0.0, n);
            let clamp_sum =
                |tau: f64| -> f64 { y.iter().map(|&v| (v - tau).clamp(0.0, 1.0)).sum() };
            let free_sum = clamp_sum(0.0);
            let tau = if free_sum > hi {
                let max_shift = y.iter().cloned().fold(0.0, f64::max) + 1.0;
                bisect_decreasing(clamp_sum, hi, 0.0, max_shift)
            } else if free_sum < lo {
                let max_shift_neg = 1.0 - y.iter().cloned().fold(0.0, f64::min) + 1.0;
                bisect_decreasing(clamp_sum, lo, -max_shift_neg, 0.0)
            } else {
                0.0
            };
            y.iter().map(|&v| (v - tau).clamp(0.0, 1.0)).collect()
        }

        fn bisect_decreasing<F: Fn(f64) -> f64>(
            f: F,
            target: f64,
            mut lo_tau: f64,
            mut hi_tau: f64,
        ) -> f64 {
            for _ in 0..200 {
                let mid = 0.5 * (lo_tau + hi_tau);
                if f(mid) > target {
                    lo_tau = mid;
                } else {
                    hi_tau = mid;
                }
                if hi_tau - lo_tau < TOL {
                    break;
                }
            }
            0.5 * (lo_tau + hi_tau)
        }

        pub(crate) fn project_joint(
            points: &[Vec<f64>],
            bands: &[FileBand],
            aggregate_lo: f64,
        ) -> Vec<Vec<f64>> {
            let project_all = |nu: f64| -> Vec<Vec<f64>> {
                points
                    .iter()
                    .zip(bands)
                    .map(|(p, b)| {
                        let shifted: Vec<f64> = p.iter().map(|&v| v + nu).collect();
                        project_box_sum_band(&shifted, b.lo, b.hi)
                    })
                    .collect()
            };
            let total =
                |proj: &[Vec<f64>]| -> f64 { proj.iter().map(|p| p.iter().sum::<f64>()).sum() };
            let at_zero = project_all(0.0);
            if total(&at_zero) >= aggregate_lo - 1e-9 {
                return at_zero;
            }
            let mut lo_nu = 0.0;
            let mut hi_nu = 1.0;
            while total(&project_all(hi_nu)) < aggregate_lo - 1e-9 {
                hi_nu *= 2.0;
                if hi_nu > 1e12 {
                    break;
                }
            }
            for _ in 0..200 {
                let mid = 0.5 * (lo_nu + hi_nu);
                if total(&project_all(mid)) < aggregate_lo {
                    lo_nu = mid;
                } else {
                    hi_nu = mid;
                }
                if hi_nu - lo_nu < TOL {
                    break;
                }
            }
            project_all(hi_nu)
        }
    }

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random joint-projection instance: 1–8 files of 1–12 coordinates in
    /// `[-2, 3]`, bands free, one-sided at `0` / `n`, or pinned (`lo == hi`,
    /// integer, as rounding produces them), and an aggregate bound that is
    /// slack, active, or at the largest feasible total.
    fn random_instance(rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<FileBand>, f64) {
        let files = rng.gen_range(1..=8usize);
        let points: Vec<Vec<f64>> = (0..files)
            .map(|_| {
                let n = rng.gen_range(1..=12usize);
                (0..n).map(|_| rng.gen_range(-2.0..3.0)).collect()
            })
            .collect();
        let bands: Vec<FileBand> = points
            .iter()
            .map(|p| {
                let n = p.len() as f64;
                let a = rng.gen_range(0.0..=n);
                let b = rng.gen_range(0.0..=n);
                match rng.gen_range(0..5u32) {
                    0 => FileBand { lo: 0.0, hi: n },
                    1 => FileBand { lo: 0.0, hi: a },
                    2 => FileBand { lo: a, hi: n },
                    3 => FileBand {
                        lo: a.round(),
                        hi: a.round(),
                    },
                    _ => FileBand {
                        lo: a.min(b),
                        hi: a.max(b),
                    },
                }
            })
            .collect();
        let min_total: f64 = bands.iter().map(|b| b.lo).sum();
        let max_total: f64 = bands.iter().map(|b| b.hi).sum();
        let aggregate_lo = match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => max_total,
            _ => rng.gen_range(min_total..=max_total),
        };
        (points, bands, aggregate_lo)
    }

    fn distance(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
        let squares = a.iter().flatten().zip(b.iter().flatten());
        squares.map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt()
    }

    const CASES: u64 = 400;

    #[test]
    fn exact_projection_agrees_with_the_bisection_reference() {
        for seed in 0..CASES {
            let (points, bands, aggregate_lo) = random_instance(&mut StdRng::seed_from_u64(seed));
            let exact = project_joint(&points, &bands, aggregate_lo);
            let bisected = reference::project_joint(&points, &bands, aggregate_lo);
            for (a, b) in exact.iter().flatten().zip(bisected.iter().flatten()) {
                assert!((a - b).abs() < 1e-8, "seed {seed}: {a} vs reference {b}");
            }
            for (y, band) in points.iter().zip(&bands) {
                let alone = project_box_sum_band(y, band.lo, band.hi);
                let alone_ref = reference::project_box_sum_band(y, band.lo, band.hi);
                for (a, b) in alone.iter().zip(&alone_ref) {
                    assert!((a - b).abs() < 1e-8, "seed {seed}: {a} vs reference {b}");
                }
            }
        }
    }

    #[test]
    fn exact_projection_is_feasible_and_pins_integers_to_the_last_digits() {
        for seed in 0..CASES {
            let (points, bands, aggregate_lo) = random_instance(&mut StdRng::seed_from_u64(seed));
            let projected = project_joint(&points, &bands, aggregate_lo);
            let mut total = 0.0;
            for (x, band) in projected.iter().zip(&bands) {
                let sum: f64 = x.iter().sum();
                assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "seed {seed}");
                assert!(sum >= band.lo - 1e-12, "seed {seed}: {sum} below {band:?}");
                assert!(sum <= band.hi + 1e-12, "seed {seed}: {sum} above {band:?}");
                if band.lo == band.hi {
                    assert!(
                        (sum - band.lo).abs() < 1e-12,
                        "seed {seed}: {sum} vs {band:?}"
                    );
                }
                total += sum;
            }
            assert!(
                total >= aggregate_lo - 1e-12,
                "seed {seed}: total {total} below {aggregate_lo}"
            );
        }
    }

    #[test]
    fn exact_projection_is_idempotent() {
        for seed in 0..CASES {
            let (points, bands, aggregate_lo) = random_instance(&mut StdRng::seed_from_u64(seed));
            let once = project_joint(&points, &bands, aggregate_lo);
            let twice = project_joint(&once, &bands, aggregate_lo);
            assert!(
                distance(&once, &twice) < 1e-12,
                "seed {seed}: moved by {}",
                distance(&once, &twice)
            );
        }
    }

    #[test]
    fn exact_projection_is_the_nearest_feasible_point() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let (points, bands, aggregate_lo) = random_instance(&mut rng);
            let projected = project_joint(&points, &bands, aggregate_lo);
            let best = distance(&points, &projected);
            for _ in 0..8 {
                // Feasible competitors on and inside the boundary, from the
                // reference so that they do not depend on the code under test.
                let other: Vec<Vec<f64>> = points
                    .iter()
                    .map(|p| p.iter().map(|_| rng.gen_range(-1.0..2.0)).collect())
                    .collect();
                let feasible = reference::project_joint(&other, &bands, aggregate_lo);
                let theirs = distance(&points, &feasible);
                assert!(best <= theirs + 1e-9, "seed {seed}: {theirs} beats {best}");
            }
        }
    }
}
