//! Dense matrices over GF(2^8) with the linear algebra needed by
//! Reed–Solomon coding: multiplication, Gaussian elimination, inversion,
//! rank, and row/column extraction.

use std::fmt;

use crate::field::Gf256;

/// Errors produced by matrix operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix is singular and cannot be inverted.
    Singular,
    /// A non-square matrix was passed where a square matrix is required.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major matrix over GF(2^8).
///
/// # Example
///
/// ```
/// use sprout_gf::{Gf256, Matrix};
/// let id = Matrix::identity(4);
/// let m = sprout_gf::builders::vandermonde(4, 4);
/// assert_eq!(m.mul(&id), m);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a zero matrix of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, Gf256::ONE);
        }
        m
    }

    /// Creates a matrix from a row-major vector of elements.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Gf256>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Gf256 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: Gf256) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Gf256] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// All elements, row-major (the coefficient layout of
    /// [`kernel::dot_slices`](crate::kernel::dot_slices)).
    #[inline]
    pub fn as_slice(&self) -> &[Gf256] {
        &self.data
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch in matrix multiplication"
        );
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.get(i, l);
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = a * rhs.get(l, j);
                    let cur = out.get(i, j);
                    out.set(i, j, cur + prod);
                }
            }
        }
        out
    }

    /// Returns a new matrix whose rows are the listed rows of `self`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "at least one row must be selected");
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Returns `true` if this is the identity matrix.
    pub fn is_identity(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                let want = if i == j { Gf256::ONE } else { Gf256::ZERO };
                if self.get(i, j) != want {
                    return false;
                }
            }
        }
        true
    }

    /// Computes the rank of the matrix via Gaussian elimination.
    ///
    /// The elimination runs in place on a single flat working copy of the
    /// element buffer (no per-step row clones or checked element accessors).
    pub fn rank(&self) -> usize {
        let mut work = self.data.clone();
        let mut rank = 0usize;
        for col in 0..self.cols {
            if rank >= self.rows {
                break;
            }
            if eliminate_column(&mut work, self.rows, self.cols, rank, col) {
                rank += 1;
            }
        }
        rank
    }

    /// Inverts a square matrix.
    ///
    /// Gauss–Jordan elimination runs in place on one flat augmented buffer
    /// `[self | I]`; rows are manipulated as disjoint slices (via
    /// `split_at_mut`), so no intermediate matrices or row copies are
    /// allocated beyond the augmented buffer itself.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] if the matrix is not square and
    /// [`MatrixError::Singular`] if it has no inverse.
    pub fn inverted(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let width = 2 * n;
        // augmented [self | I], one flat row-major buffer
        let mut aug = vec![Gf256::ZERO; n * width];
        for i in 0..n {
            aug[i * width..i * width + n].copy_from_slice(self.row(i));
            aug[i * width + n + i] = Gf256::ONE;
        }
        for col in 0..n {
            if !eliminate_column(&mut aug, n, width, col, col) {
                return Err(MatrixError::Singular);
            }
        }
        let mut out = Vec::with_capacity(n * n);
        for i in 0..n {
            out.extend_from_slice(&aug[i * width + n..(i + 1) * width]);
        }
        Ok(Matrix {
            rows: n,
            cols: n,
            data: out,
        })
    }

    /// Returns `true` if the square matrix is invertible.
    pub(crate) fn is_invertible(&self) -> bool {
        self.rows == self.cols && self.rank() == self.rows
    }
}

/// One Gauss–Jordan pivot step, in place, on a flat row-major buffer of
/// `rows` rows of `width` elements each.
///
/// Searches column `col` for a nonzero pivot among rows `pivot_row..rows`
/// (any nonzero element works in a field); if found, swaps it into
/// `pivot_row`, normalizes that row, and cancels column `col` in every other
/// row. Row pairs are accessed as disjoint slices via `split_at_mut`, and
/// all row arithmetic starts at `col` — entries to the left are already
/// zero by the elimination invariant. Returns whether a pivot existed.
fn eliminate_column(
    data: &mut [Gf256],
    rows: usize,
    width: usize,
    pivot_row: usize,
    col: usize,
) -> bool {
    let Some(p) = (pivot_row..rows).find(|&r| !data[r * width + col].is_zero()) else {
        return false;
    };
    if p != pivot_row {
        let (head, tail) = data.split_at_mut(p * width);
        head[pivot_row * width..(pivot_row + 1) * width].swap_with_slice(&mut tail[..width]);
    }
    let inv = data[pivot_row * width + col].inverse();
    if inv != Gf256::ONE {
        for v in &mut data[pivot_row * width + col..(pivot_row + 1) * width] {
            *v *= inv;
        }
    }
    for r in 0..rows {
        if r == pivot_row {
            continue;
        }
        let factor = data[r * width + col];
        if factor.is_zero() {
            continue;
        }
        let (row, pivot): (&mut [Gf256], &[Gf256]) = if r < pivot_row {
            let (head, tail) = data.split_at_mut(pivot_row * width);
            (&mut head[r * width..(r + 1) * width], &tail[..width])
        } else {
            let (head, tail) = data.split_at_mut(r * width);
            (
                &mut tail[..width],
                &head[pivot_row * width..(pivot_row + 1) * width],
            )
        };
        for (d, s) in row[col..].iter_mut().zip(&pivot[col..]) {
            *d += factor * *s;
        }
    }
    true
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:02x}", self.get(r, c).value())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    /// A matrix from rows of raw bytes.
    fn from_rows(rows: &[Vec<u8>]) -> Matrix {
        let data = rows.concat().into_iter().map(Gf256::new).collect();
        Matrix::from_vec(rows.len(), rows[0].len(), data)
    }

    #[test]
    fn identity_properties() {
        let id = Matrix::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.rank(), 5);
        assert_eq!(id.inverted().unwrap(), id);
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let z = Matrix::zero(3, 4);
        assert_eq!(z.rank(), 0);
        assert!(!z.is_identity());
    }

    #[test]
    fn multiplication_by_identity_is_noop() {
        let m = builders::vandermonde(4, 3);
        assert_eq!(m.mul(&Matrix::identity(3)), m);
        assert_eq!(Matrix::identity(4).mul(&m), m);
    }

    #[test]
    fn inverse_of_vandermonde() {
        for n in 1..=8 {
            let m = builders::vandermonde(n, n);
            let inv = m.inverted().expect("square vandermonde is invertible");
            assert!(m.mul(&inv).is_identity(), "n={n}");
            assert!(inv.mul(&m).is_identity(), "n={n}");
        }
    }

    #[test]
    fn inverse_of_cauchy() {
        for n in 1..=6 {
            let m = builders::tests::cauchy(n, n);
            let inv = m.inverted().expect("cauchy is invertible");
            assert!(m.mul(&inv).is_identity(), "n={n}");
        }
    }

    #[test]
    fn singular_matrix_fails_to_invert() {
        // two identical rows
        let m = from_rows(&[vec![1, 2, 3], vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(m.inverted().unwrap_err(), MatrixError::Singular);
        assert!(m.rank() < 3);
        assert!(!m.is_invertible());
    }

    #[test]
    fn non_square_inversion_is_error() {
        let m = Matrix::zero(2, 3);
        assert_eq!(
            m.inverted().unwrap_err(),
            MatrixError::NotSquare { rows: 2, cols: 3 }
        );
    }

    #[test]
    fn mul_vec_matches_mul() {
        let m = builders::vandermonde(4, 3);
        let v = vec![Gf256::new(9), Gf256::new(88), Gf256::new(201)];
        let as_col = Matrix::from_vec(3, 1, v.clone());
        let prod = m.mul(&as_col);
        // The product, row by row as dot products.
        for i in 0..m.rows() {
            let direct: Gf256 = (0..m.cols()).map(|j| m.get(i, j) * v[j]).sum();
            assert_eq!(prod.get(i, 0), direct);
        }
    }

    #[test]
    fn select_rows_and_vstack() {
        let m = builders::vandermonde(5, 3);
        let top = m.select_rows(&[0, 1, 2]);
        let bottom = m.select_rows(&[3, 4]);
        // Stacking the two blocks gives the matrix back.
        let stacked = [top.as_slice(), bottom.as_slice()].concat();
        assert_eq!(Matrix::from_vec(5, 3, stacked), m);
    }

    #[test]
    fn rank_of_rectangular() {
        let m = builders::vandermonde(6, 4);
        assert_eq!(m.rank(), 4);
        // Any 4 rows of a Vandermonde matrix over distinct points are independent.
        let sub = m.select_rows(&[0, 2, 3, 5]);
        assert_eq!(sub.rank(), 4);
        assert!(sub.is_invertible());
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("01"));
    }

    #[test]
    fn error_display() {
        assert_eq!(MatrixError::Singular.to_string(), "matrix is singular");
        assert!(MatrixError::NotSquare { rows: 2, cols: 3 }
            .to_string()
            .contains("2x3"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::identity(2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn from_rows_round_trip() {
        let m = from_rows(&[vec![1, 2], vec![3, 4]]);
        assert_eq!(m.get(0, 1), Gf256::new(2));
        assert_eq!(m.get(1, 0), Gf256::new(3));
        assert_eq!(m.row(1), &[Gf256::new(3), Gf256::new(4)]);
    }
}
