use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// Row-major storage keeps the inner loops of matrix-vector products and
/// Gaussian elimination walking contiguous memory, which is what the
/// simplex tableau and the thermal solver spend their time doing.
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from explicit rows. Panics if rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Build a matrix from a flat row-major buffer. Panics if the buffer
    /// length is not `rows * cols`.
    #[cfg(test)]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build an `n x n` matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow two distinct rows at once (used by pivoting row swaps
    /// and eliminations without cloning).
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(a != b && a < self.rows && b < self.rows);
        let c = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * c);
            (&mut lo[a * c..(a + 1) * c], &mut hi[..c])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * c);
            let (rb, ra) = (&mut lo[b * c..(b + 1) * c], &mut hi[..c]);
            (ra, rb)
        }
    }

    /// Swap rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (ra, rb) = self.two_rows_mut(a, b);
        ra.swap_with_slice(rb);
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix-vector product `y = A x`.
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mat_vec_in(x, &mut y);
        y
    }

    /// [`Matrix::mat_vec`] written into `y`, one entry per row.
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mat_vec_in(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        assert_eq!(y.len(), self.rows, "mat_vec output length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = crate::vec_ops::dot(self.row(i), x);
        }
    }

    /// Transposed matrix-vector product `y = A^T x`.
    pub fn mat_vec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "mat_vec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 { // lint: allow(float-eq): sparsity skip on a stored coefficient; exact zeros only
                continue;
            }
            for (yj, aij) in y.iter_mut().zip(self.row(i)) {
                *yj += aij * xi;
            }
        }
        y
    }

    /// Dense matrix-matrix product `C = A B`.
    pub fn mat_mul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "mat_mul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut c = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: the inner loop runs along contiguous rows of
        // `other` and `c`, which is markedly faster than the naive ijk
        // order for row-major storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 { // lint: allow(float-eq): sparsity skip on a stored coefficient; exact zeros only
                    continue;
                }
                let brow = other.row(k);
                let crow = c.row_mut(i);
                for (cij, bkj) in crow.iter_mut().zip(brow) {
                    *cij += aik * bkj;
                }
            }
        }
        Ok(c)
    }

    /// Return the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Element-wise sum. Errors on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference. Errors on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute entry (the max norm), 0 for an empty matrix.
    #[cfg(test)]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Infinity norm: maximum absolute row sum.
    #[cfg(test)]
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Set every entry to `value`, keeping the storage (a caller that
    /// builds matrix after matrix of one shape reuses one buffer).
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Become the `rows x cols` matrix of zeros in the storage this
    /// matrix has, which grows only when the new shape needs more.
    pub(crate) fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Flat row-major view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consume the matrix and return its row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(12) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0)); // lint: allow(float-eq): freshly zeroed buffer is exactly 0.0 by construction

        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn mat_vec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = m.mat_vec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn mat_vec_t_matches_transpose_mat_vec() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [2.0, -1.0];
        let y1 = m.mat_vec_t(&x);
        let y2 = m.transpose().mat_vec(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn mat_mul_identity_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let p = m.mat_mul(&Matrix::identity(2)).unwrap();
        assert_eq!(p, m);
        let p2 = Matrix::identity(3).mat_mul(&m).unwrap();
        assert_eq!(p2, m);
    }

    #[test]
    fn mat_mul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mat_mul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn add_sub_are_inverse() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]);
        let s = a.add(&b).unwrap();
        let back = s.sub(&b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn swap_rows_swaps() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        // Swapping a row with itself is a no-op.
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        {
            let (a, b) = m.two_rows_mut(0, 2);
            a[0] = 9.0;
            b[1] = 8.0;
        }
        assert_eq!(m[(0, 0)], 9.0);
        assert_eq!(m[(2, 1)], 8.0);
        {
            let (a, b) = m.two_rows_mut(2, 0);
            assert_eq!(a[1], 8.0);
            assert_eq!(b[0], 9.0);
        }
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[1.0, -5.0], &[2.0, 2.0]]);
        assert_eq!(m.max_abs(), 5.0);
        assert_eq!(m.norm_inf(), 6.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }
}
