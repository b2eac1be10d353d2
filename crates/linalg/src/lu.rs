use crate::{LinalgError, Matrix};

/// LU factorization with partial (row) pivoting: `P A = L U`.
///
/// The factors are stored packed in a single matrix (`U` on and above the
/// diagonal, the unit-lower `L` strictly below it) together with the row
/// interchanges. This is the classic LAPACK `getrf` layout.
///
/// The thermal steady-state solver factors `(I - A_nn)` once per scenario
/// and then back-substitutes for every candidate power vector, so the
/// factor/solve split matters.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (strictly lower, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// `swaps[k]` is the row exchanged with row `k` at elimination step
    /// `k` (`getrf`'s `ipiv`). Replaying the exchanges applies `P` to a
    /// vector in place; replaying them backwards applies `P^T`.
    swaps: Vec<usize>,
    /// Sign of the permutation, for determinants.
    perm_sign: f64,
}

/// Pivots smaller than this (relative to the matrix scale) are treated as
/// zero, i.e. the matrix is reported singular.
const PIVOT_EPS: f64 = 1e-12;

impl Lu {
    /// Factor a square matrix, consuming it: the factors are computed in
    /// the matrix's own storage (clone at the call site to keep the
    /// original). Returns [`LinalgError::Singular`] when a pivot column
    /// has no usable entry and [`LinalgError::NotSquare`] for non-square
    /// input.
    pub fn factor(a: Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        // Scale-aware singularity threshold: a pivot is "zero" relative to
        // the largest entry of the original matrix.
        let scale = a.max_abs().max(1.0);
        let tol = PIVOT_EPS * scale;
        let mut lu = a;
        let mut swaps: Vec<usize> = Vec::with_capacity(n);
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: pick the largest entry in column k at or
            // below the diagonal.
            let mut piv_row = k;
            let mut piv_val = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = i;
                }
            }
            if piv_val <= tol {
                return Err(LinalgError::Singular { column: k });
            }
            swaps.push(piv_row);
            if piv_row != k {
                lu.swap_rows(piv_row, k);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == 0.0 { // lint: allow(float-eq): exact-zero multiplier skips a no-op elimination row
                    continue;
                }
                // Row update on the contiguous tail of row i.
                let (rk, ri) = lu.two_rows_mut(k, i);
                for j in k + 1..n {
                    ri[j] -= m * rk[j];
                }
            }
        }
        Ok(Lu { lu, swaps, perm_sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    fn check_len(&self, op: &'static str, len: usize) -> Result<(), LinalgError> {
        let n = self.dim();
        if len == n {
            Ok(())
        } else {
            Err(LinalgError::ShapeMismatch {
                op,
                left: (n, n),
                right: (len, 1),
            })
        }
    }

    /// Solve `A x = b` for a single right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solve `A x = b` in place: `x` holds `b` on entry and the solution
    /// on return. No allocation — the revised simplex calls this for every
    /// FTRAN.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), LinalgError> {
        self.check_len("lu_solve", x.len())?;
        let n = self.dim();
        // Apply the permutation, then forward- and back-substitute.
        for (k, &p) in self.swaps.iter().enumerate() {
            x.swap(k, p);
        }
        // L y = P b (unit lower triangular).
        for i in 1..n {
            let row = self.lu.row(i);
            let mut s = x[i];
            for j in 0..i {
                s -= row[j] * x[j];
            }
            x[i] = s;
        }
        // U x = y.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut s = x[i];
            for j in i + 1..n {
                s -= row[j] * x[j];
            }
            x[i] = s / row[i];
        }
        Ok(())
    }

    /// Solve `A^T x = b` for a single right-hand side.
    ///
    /// With `P A = L U` the transpose factors as `A^T = U^T L^T P`, so the
    /// solve runs `U^T z = b` (forward), `L^T w = z` (backward), then
    /// un-permutes `x = P^T w`. The revised simplex uses this for
    /// BTRAN (pricing) against the same factorization FTRAN uses, so both
    /// directions share one `factor` call per basis.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_transposed_in_place(&mut x)?;
        Ok(x)
    }

    /// [`Lu::solve_transposed`] in place, without allocating.
    pub fn solve_transposed_in_place(&self, w: &mut [f64]) -> Result<(), LinalgError> {
        self.check_len("lu_solve_transposed", w.len())?;
        let n = self.dim();
        // U^T z = b: U^T is lower triangular with U's diagonal.
        for i in 0..n {
            let mut s = w[i];
            for j in 0..i {
                s -= self.lu[(j, i)] * w[j];
            }
            w[i] = s / self.lu[(i, i)];
        }
        // L^T w = z: L^T is unit upper triangular.
        for i in (0..n).rev() {
            let mut s = w[i];
            for j in i + 1..n {
                s -= self.lu[(j, i)] * w[j];
            }
            w[i] = s;
        }
        // x = P^T w: undo the row exchanges, last first.
        for (k, &p) in self.swaps.iter().enumerate().rev() {
            w.swap(k, p);
        }
        Ok(())
    }

    /// Solve `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_matrix",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut x = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let sol = self.solve(&col)?;
            for i in 0..n {
                x[(i, j)] = sol[i];
            }
        }
        Ok(x)
    }

    /// Compute the explicit inverse. Prefer [`Lu::solve`] when only products
    /// with the inverse are needed; the explicit inverse is used where the
    /// same small matrix multiplies many vectors (the thermal constraint
    /// coefficient extraction).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// The bit pattern of `-0.0`, the one start value a skipped zero term
/// could have changed (see [`CompressedLu`]).
const NEG_ZERO: u64 = (-0.0_f64).to_bits();

/// The nonzeros of one triangle of the packed factors, grouped by line
/// (row or column) and, inside a line, in ascending order of the other
/// index: line `k` is `at[start[k]..start[k + 1]]` with values `val[..]`.
#[derive(Debug, Clone)]
struct Lines {
    start: Vec<u32>,
    at: Vec<u32>,
    val: Vec<f64>,
}

impl Lines {
    /// Room for `n` lines holding `nnz` entries between them, to start
    /// with.
    fn with_capacity(n: usize, nnz: usize) -> Lines {
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        Lines {
            start,
            at: Vec::with_capacity(nnz),
            val: Vec::with_capacity(nnz),
        }
    }

    /// Lines of the given lengths, every entry still to be written.
    fn with_lengths(lengths: &[u32]) -> Lines {
        let mut start = Vec::with_capacity(lengths.len() + 1);
        let mut total = 0;
        start.push(0);
        for &len in lengths {
            total += len;
            start.push(total);
        }
        Lines {
            start,
            at: vec![0; total as usize],
            val: vec![0.0; total as usize],
        }
    }

    /// Close the line that the entries pushed since the last call make up.
    fn end_line(&mut self) {
        self.start.push(self.at.len() as u32);
    }

    /// The same entries listed by the other index (as many lines as
    /// here). Lines are walked in ascending order, so every line of the
    /// result comes out ascending too.
    fn transposed(&self) -> Lines {
        let n = self.start.len() - 1;
        let mut lengths = vec![0u32; n];
        for &j in &self.at {
            lengths[j as usize] += 1;
        }
        let mut out = Lines::with_lengths(&lengths);
        // Next free slot of each line of the result.
        let mut next: Vec<u32> = out.start[..n].to_vec();
        for k in 0..n {
            let (lo, hi) = (self.start[k] as usize, self.start[k + 1] as usize);
            for (&j, &v) in self.at[lo..hi].iter().zip(&self.val[lo..hi]) {
                let slot = next[j as usize] as usize;
                out.at[slot] = k as u32;
                out.val[slot] = v;
                next[j as usize] += 1;
            }
        }
        out
    }

    /// `s - Σ val·x[at]` over line `k`, one term after the other in
    /// stored order.
    #[inline]
    fn sub_dot(&self, k: usize, mut s: f64, x: &[f64]) -> f64 {
        let (lo, hi) = (self.start[k] as usize, self.start[k + 1] as usize);
        for (&j, &v) in self.at[lo..hi].iter().zip(&self.val[lo..hi]) {
            s -= v * x[j as usize];
        }
        s
    }
}

/// An [`Lu`] whose two substitutions visit the nonzeros of `L` and `U`
/// only: the form the revised simplex solves with, where the basis is a
/// handful of dense columns in an identity and the packed factors are
/// almost all zeros.
///
/// [`Lu::factor`] still runs the elimination on the dense matrix — it
/// picks the pivots, and with them every bit of the factors. This type
/// lists the nonzeros of the result four ways (`L` and `U` by row for
/// `A x = b`, by column for `A^T x = b`), each line in ascending order,
/// so a substitution row subtracts the same products in the same order
/// as the dense loop and leaves out only the terms whose factor entry is
/// an exact zero. Such a term is `±0` (right-hand sides are finite), and
/// subtracting `±0` changes no running sum but one: `-0.0 - (-0.0)` is
/// `+0.0`. A sum can be `-0.0` only while it still holds an untouched
/// `-0.0` right-hand-side entry — exact cancellation gives `+0.0` — so a
/// row that starts from `-0.0` runs the dense loop instead. Every
/// solution is therefore the dense solve's **bit for bit**, signed zeros
/// included (`tests/proptest_lu.rs` holds both to `to_bits`).
#[derive(Debug, Clone)]
pub struct CompressedLu {
    /// The packed factors the lists below were read from: the `-0.0`
    /// rows' loops run on them, and a refactorisation takes the storage
    /// back ([`CompressedLu::into_matrix`]).
    dense: Lu,
    /// `U`'s diagonal.
    diag: Vec<f64>,
    /// Strictly lower `L` by row and by column, strictly upper `U` by
    /// row and by column.
    l_rows: Lines,
    l_cols: Lines,
    u_rows: Lines,
    u_cols: Lines,
}

impl Lu {
    /// List the factors' nonzeros; see [`CompressedLu`]. One pass over the
    /// packed matrix lists both triangles by row; the by-column lists are
    /// then laid out from those — the nonzeros, not the matrix, a second
    /// time.
    pub fn compress(self) -> CompressedLu {
        let n = self.dim();
        assert!(u32::try_from(n * n).is_ok(), "matrix too large to index with u32");
        let mut l_rows = Lines::with_capacity(n, n);
        let mut u_rows = Lines::with_capacity(n, n);
        let mut diag = Vec::with_capacity(n);
        for i in 0..n {
            for (j, &v) in self.lu.row(i).iter().enumerate() {
                if j == i {
                    diag.push(v);
                } else if v != 0.0 { // lint: allow(float-eq): an entry is left out only when it is an exact zero
                    let rows = if j < i { &mut l_rows } else { &mut u_rows };
                    rows.at.push(j as u32);
                    rows.val.push(v);
                }
            }
            l_rows.end_line();
            u_rows.end_line();
        }
        let (l_cols, u_cols) = (l_rows.transposed(), u_rows.transposed());
        CompressedLu {
            dense: self,
            diag,
            l_rows,
            l_cols,
            u_rows,
            u_cols,
        }
    }

    /// Give the matrix storage back (holding the packed factors), for a
    /// caller that factors matrix after matrix of one size.
    pub fn into_matrix(self) -> Matrix {
        self.lu
    }
}

impl CompressedLu {
    /// [`Lu::into_matrix`] of the factorization underneath.
    pub fn into_matrix(self) -> Matrix {
        self.dense.into_matrix()
    }

    /// [`Lu::solve_in_place`], bit for bit, for finite `x`.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), LinalgError> {
        self.dense.check_len("lu_solve", x.len())?;
        let n = self.dense.dim();
        let lu = &self.dense.lu;
        for (k, &p) in self.dense.swaps.iter().enumerate() {
            x.swap(k, p);
        }
        // L y = P b.
        for i in 1..n {
            let s = x[i];
            x[i] = if s.to_bits() == NEG_ZERO {
                let row = lu.row(i);
                (0..i).fold(s, |s, j| s - row[j] * x[j])
            } else {
                self.l_rows.sub_dot(i, s, x)
            };
        }
        // U x = y.
        for i in (0..n).rev() {
            let s = x[i];
            let s = if s.to_bits() == NEG_ZERO {
                let row = lu.row(i);
                (i + 1..n).fold(s, |s, j| s - row[j] * x[j])
            } else {
                self.u_rows.sub_dot(i, s, x)
            };
            x[i] = s / self.diag[i];
        }
        Ok(())
    }

    /// [`Lu::solve_transposed_in_place`], bit for bit, for finite `w`.
    pub fn solve_transposed_in_place(&self, w: &mut [f64]) -> Result<(), LinalgError> {
        self.dense.check_len("lu_solve_transposed", w.len())?;
        let n = self.dense.dim();
        let lu = &self.dense.lu;
        // U^T z = b: row i of U^T is column i of U.
        for i in 0..n {
            let s = w[i];
            let s = if s.to_bits() == NEG_ZERO {
                (0..i).fold(s, |s, j| s - lu[(j, i)] * w[j])
            } else {
                self.u_cols.sub_dot(i, s, w)
            };
            w[i] = s / self.diag[i];
        }
        // L^T w = z.
        for i in (0..n).rev() {
            let s = w[i];
            w[i] = if s.to_bits() == NEG_ZERO {
                (i + 1..n).fold(s, |s, j| s - lu[(j, i)] * w[j])
            } else {
                self.l_cols.sub_dot(i, s, w)
            };
        }
        for (k, &p) in self.dense.swaps.iter().enumerate().rev() {
            w.swap(k, p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let lu = Lu::factor(a).unwrap();
        // Known solution of this textbook system: x = (2, 3, -1).
        let x = lu.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert_close(&x, &[2.0, 3.0, -1.0], 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(a).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert_close(&x, &[7.0, 3.0], 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::factor(a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn not_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::factor(a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn determinant_matches_known_values() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((Lu::factor(a).unwrap().determinant() - 12.0).abs() < 1e-12);
        // A permutation flips the sign.
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((Lu::factor(p).unwrap().determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.5], &[2.0, 5.0, 1.0], &[0.5, 1.0, 3.0]]);
        let inv = Lu::factor(a.clone()).unwrap().inverse().unwrap();
        let prod = a.mat_mul(&inv).unwrap();
        let err = prod.sub(&Matrix::identity(3)).unwrap().max_abs();
        assert!(err < 1e-12, "err = {err}");
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let lu = Lu::factor(a).unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        let c0 = lu.solve(&[1.0, 0.0]).unwrap();
        let c1 = lu.solve(&[0.0, 1.0]).unwrap();
        assert_close(&x.col(0), &c0, 0.0);
        assert_close(&x.col(1), &c1, 0.0);
    }

    #[test]
    fn rhs_length_mismatch_errors() {
        let a = Matrix::identity(3);
        let lu = Lu::factor(a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        assert!(lu.solve_transposed(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn transposed_solve_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[
            &[2.0, 1.0, -1.0, 0.5],
            &[-3.0, -1.0, 2.0, 1.0],
            &[-2.0, 1.0, 2.0, -0.5],
            &[1.0, 4.0, 0.0, 3.0],
        ]);
        let lu = Lu::factor(a.clone()).unwrap();
        let b = [1.0, -2.0, 0.5, 3.0];
        let x = lu.solve_transposed(&b).unwrap();
        let via_t = Lu::factor(a.transpose()).unwrap().solve(&b).unwrap();
        assert_close(&x, &via_t, 1e-12);
        // Residual check against A^T x = b directly.
        for j in 0..4 {
            let s: f64 = (0..4).map(|i| a[(i, j)] * x[i]).sum();
            assert!((s - b[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn transposed_solve_handles_permutations() {
        // A matrix that forces row swaps in the factorization.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 3.0], &[4.0, 1.0, 0.0]]);
        let lu = Lu::factor(a.clone()).unwrap();
        let b = [5.0, -1.0, 2.0];
        let x = lu.solve_transposed(&b).unwrap();
        for j in 0..3 {
            let s: f64 = (0..3).map(|i| a[(i, j)] * x[i]).sum();
            assert!((s - b[j]).abs() < 1e-12);
        }
    }
}
