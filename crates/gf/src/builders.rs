//! Constructors for the structured matrices used by MDS erasure codes.
//!
//! The Sprout paper constructs an `(n + k, k)` Reed–Solomon code and stores
//! `n` coded chunks on the storage servers, keeping the remaining `k` rows of
//! the generator available for *functional cache* chunks. The generators
//! produced here have the property that **every** `k × k` sub-matrix is
//! invertible, which is exactly the MDS property that functional caching
//! relies on.

use crate::field::Gf256;
use crate::matrix::Matrix;

/// Builds an `rows × cols` Vandermonde matrix over distinct evaluation points.
///
/// Row `r` is `[1, x_r, x_r^2, ..., x_r^{cols-1}]` where `x_r = g^r` for the
/// field generator `g` (so all evaluation points are distinct as long as
/// `rows ≤ 255`).
///
/// Any `cols` rows of this matrix form an invertible square matrix, which is
/// what makes it usable as (the parity part of) an MDS generator.
///
/// # Panics
///
/// Panics if `rows > 255` (the field only has 255 distinct nonzero points) or
/// if either dimension is zero.
pub fn vandermonde(rows: usize, cols: usize) -> Matrix {
    assert!(rows > 0 && cols > 0, "dimensions must be positive");
    assert!(
        rows <= 255,
        "a GF(256) Vandermonde matrix supports at most 255 rows"
    );
    let mut m = Matrix::zero(rows, cols);
    for r in 0..rows {
        let x = Gf256::exp(r);
        let mut acc = Gf256::ONE;
        for c in 0..cols {
            m.set(r, c, acc);
            acc *= x;
        }
    }
    m
}

/// Builds a systematic MDS generator matrix with `total` rows and `k` columns.
///
/// The first `k` rows form the identity (so the first `k` coded symbols equal
/// the data symbols), and every `k × k` sub-matrix of the result is
/// invertible. The construction starts from a `total × k` Vandermonde matrix
/// and applies column operations (multiplication on the right by the inverse
/// of its top `k × k` block), which preserves the MDS property.
///
/// # Panics
///
/// Panics if `k == 0`, `total < k`, or `total > 255`.
pub fn systematic_mds(total: usize, k: usize) -> Matrix {
    assert!(k > 0, "k must be positive");
    assert!(total >= k, "total rows must be at least k");
    let vm = vandermonde(total, k);
    let top: Vec<usize> = (0..k).collect();
    let top_block = vm.select_rows(&top);
    let inv = top_block
        .inverted()
        .expect("top block of a Vandermonde matrix is invertible");
    vm.mul(&inv)
}

/// Checks the MDS property by brute force: every `k × k` sub-matrix of
/// `generator` (which must have `k` columns) is invertible.
///
/// This is exponential in general and intended for tests and small codes
/// (e.g. the `(7, 4)` and `(8, 5)` codes used throughout the paper).
pub fn is_mds(generator: &Matrix) -> bool {
    let k = generator.cols();
    let n = generator.rows();
    if n < k {
        return false;
    }
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        if !generator.select_rows(&combo).is_invertible() {
            return false;
        }
        // next combination
        let mut i = k;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if combo[i] != i + n - k {
                combo[i] += 1;
                for j in i + 1..k {
                    combo[j] = combo[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An `rows × cols` Cauchy matrix: entry `(i, j)` is `1 / (x_i + y_j)`
    /// over disjoint points, so every square sub-matrix is invertible — a
    /// known-MDS, known-invertible input for the tests.
    ///
    /// # Panics
    ///
    /// Panics if `rows + cols > 256` (not enough distinct points) or if
    /// either dimension is zero.
    pub(crate) fn cauchy(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        assert!(
            rows + cols <= 256,
            "a GF(256) Cauchy matrix requires rows + cols <= 256"
        );
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let x = Gf256::new(i as u8);
            for j in 0..cols {
                let y = Gf256::new((rows + j) as u8);
                m.set(i, j, (x + y).inverse());
            }
        }
        m
    }

    #[test]
    fn vandermonde_shape_and_first_column() {
        let m = vandermonde(6, 4);
        assert_eq!(m.rows(), 6);
        assert_eq!(m.cols(), 4);
        for r in 0..6 {
            assert_eq!(m.get(r, 0), Gf256::ONE);
        }
    }

    #[test]
    fn vandermonde_square_blocks_are_invertible() {
        let m = vandermonde(8, 5);
        assert!(is_mds(&m));
    }

    #[test]
    fn cauchy_is_mds() {
        let m = cauchy(6, 4);
        assert!(is_mds(&m));
    }

    #[test]
    fn systematic_mds_has_identity_prefix() {
        let g = systematic_mds(11, 5);
        let top = g.select_rows(&(0..5).collect::<Vec<_>>());
        assert!(top.is_identity());
    }

    #[test]
    fn systematic_mds_is_mds_for_paper_codes() {
        // (7, 4) storage code extended with up to 4 cache rows => (11, 4) generator.
        let g = systematic_mds(11, 4);
        assert!(is_mds(&g));
        // (6, 5) example code from the paper's illustration, extended by 2 cache rows.
        let g = systematic_mds(8, 5);
        assert!(is_mds(&g));
    }

    #[test]
    fn is_mds_detects_failures() {
        // A generator with a repeated row is not MDS.
        let g = systematic_mds(6, 3);
        let bad = g.select_rows(&[0, 1, 2, 3, 3]);
        assert!(!is_mds(&bad));
        // Fewer rows than columns cannot be MDS.
        let short = g.select_rows(&[0, 1]);
        assert!(!is_mds(&short));
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn vandermonde_too_many_rows_panics() {
        let _ = vandermonde(256, 4);
    }

    #[test]
    #[should_panic(expected = "rows + cols")]
    fn cauchy_too_large_panics() {
        let _ = cauchy(200, 100);
    }

    #[test]
    #[should_panic(expected = "at least k")]
    fn systematic_with_total_less_than_k_panics() {
        let _ = systematic_mds(3, 4);
    }
}
