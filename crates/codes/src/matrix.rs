//! Dense matrices over GF(2^8), sized for erasure-code generator algebra.
//!
//! These matrices are tiny (at most `n x k` with `n <= 256`), so a simple
//! row-major `Vec<u8>` with Gauss-Jordan elimination is both clear and fast
//! enough; the hot path of encoding/decoding is the slice kernels in
//! [`crate::gf256`], not this module.

use crate::gf256;
use std::fmt;

/// A dense row-major matrix over GF(2^8).
///
/// # Examples
///
/// ```
/// use ares_codes::matrix::Matrix;
///
/// let m = Matrix::identity(3);
/// assert_eq!(m.mul(&m).as_rows(), m.as_rows());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

/// Error returned when attempting to invert a singular matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError;

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular over GF(256)")
    }
}

impl std::error::Error for SingularMatrixError {}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:02x?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0; rows * cols] }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Builds a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or have differing lengths.
    pub fn from_rows(rows: &[Vec<u8>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Builds the `rows x cols` Vandermonde matrix with evaluation points
    /// `0, 1, .., rows-1`: entry `(r, c) = r^c`.
    ///
    /// Any `cols` distinct rows of this matrix form an invertible square
    /// matrix (the Vandermonde determinant over a field is non-zero for
    /// distinct points), which is exactly the MDS property needed by the
    /// `[n, k]` code of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 256` (GF(256) has only 256 distinct points).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "at most 256 distinct evaluation points in GF(256)");
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns all rows as owned vectors (handy for tests and debugging).
    pub fn as_rows(&self) -> Vec<Vec<u8>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }

    /// Returns a new matrix consisting of the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "must select at least one row");
        let mut m = Matrix::zero(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            assert!(r < self.rows, "row index {r} out of bounds");
            let dst = i * self.cols;
            m.data[dst..dst + self.cols].copy_from_slice(self.row(r));
        }
        m
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zero(self.rows, other.cols);
        for r in 0..self.rows {
            for i in 0..self.cols {
                let a = self.get(r, i);
                if a == 0 {
                    continue;
                }
                let dst = r * out.cols;
                gf256::mul_add_slice(&mut out.data[dst..dst + out.cols], other.row(i), a);
            }
        }
        out
    }

    /// Inverts a square matrix by Gauss-Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the matrix has no inverse.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverted(&self) -> Result<Matrix, SingularMatrixError> {
        assert_eq!(self.rows, self.cols, "only square matrices can be inverted");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0).ok_or(SingularMatrixError)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a.get(col, col);
            if p != 1 {
                let pinv = gf256::inv(p);
                a.scale_row(col, pinv);
                inv.scale_row(col, pinv);
            }
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a.get(r, col);
                if f != 0 {
                    a.add_scaled_row(r, col, f);
                    inv.add_scaled_row(r, col, f);
                }
            }
        }
        Ok(inv)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, f: u8) {
        let start = r * self.cols;
        gf256::scale_slice(&mut self.data[start..start + self.cols], f);
    }

    /// `row[dst] ^= f * row[src]`
    fn add_scaled_row(&mut self, dst: usize, src: usize, f: u8) {
        assert_ne!(dst, src);
        let cols = self.cols;
        let (lo, hi) = if dst < src {
            let (a, b) = self.data.split_at_mut(src * cols);
            (&mut a[dst * cols..dst * cols + cols], &b[..cols])
        } else {
            let (a, b) = self.data.split_at_mut(dst * cols);
            let srow = &a[src * cols..src * cols + cols];
            (&mut b[..cols], srow)
        };
        gf256::mul_add_slice(lo, hi, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let v = Matrix::vandermonde(5, 3);
        let i3 = Matrix::identity(3);
        assert_eq!(v.mul(&i3), v);
    }

    #[test]
    fn vandermonde_shape_and_first_column() {
        let v = Matrix::vandermonde(6, 4);
        assert_eq!(v.rows(), 6);
        assert_eq!(v.cols(), 4);
        for r in 0..6 {
            assert_eq!(v.get(r, 0), 1, "x^0 = 1");
        }
        assert_eq!(v.get(3, 1), 3, "x^1 = x");
    }

    #[test]
    fn invert_round_trips() {
        let m = Matrix::from_rows(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 10]]);
        let inv = m.inverted().expect("invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(3));
        assert_eq!(inv.mul(&m), Matrix::identity(3));
    }

    #[test]
    fn singular_matrix_detected() {
        // Two identical rows.
        let m = Matrix::from_rows(&[vec![1, 2], vec![1, 2]]);
        assert_eq!(m.inverted(), Err(SingularMatrixError));
    }

    #[test]
    fn any_k_vandermonde_rows_invertible() {
        // The MDS property the code relies on: every k-subset of rows of
        // an n x k Vandermonde matrix is invertible.
        let n = 8;
        let k = 4;
        let v = Matrix::vandermonde(n, k);
        // All C(8,4) = 70 subsets.
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let rows: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let sub = v.select_rows(&rows);
            assert!(sub.inverted().is_ok(), "rows {rows:?} should be invertible");
        }
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = Matrix::from_rows(&[vec![0, 1], vec![2, 3], vec![4, 5]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.as_rows(), vec![vec![4, 5], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mul_dimension_mismatch_panics() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(3);
        let _ = a.mul(&b);
    }
}
