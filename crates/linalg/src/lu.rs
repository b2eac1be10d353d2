use crate::{kernel, LinalgError, Matrix};

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
    /// The columns that took a full elimination step, ascending. Every
    /// other column was a [`Held::Single`] when its step came and left
    /// nothing off the diagonal but zeros, so the factors' off-diagonal
    /// nonzeros all lie in these.
    wide: Vec<usize>,
    /// What the elimination keeps track of, kept with the factors so that
    /// factoring again in this storage allocates nothing.
    track: Tracking,
}

/// Pivots smaller than this (relative to the matrix scale) are treated as
/// zero, i.e. the matrix is reported singular.
const PIVOT_EPS: f64 = 1e-12;

/// What a column not yet eliminated holds besides `+0.0`s.
#[derive(Debug, Clone, Copy)]
enum Held {
    Nothing,
    /// One entry, which the matrix was given in this row (exchanges have
    /// since moved the row, not the entry out of it). Such a column is its
    /// own elimination step: see [`Lu::eliminate`].
    Single(usize),
    /// More than one, or one that a row update may have added to.
    Several,
}

impl Held {
    /// Count an entry in `row` that is not a `+0.0`.
    fn hold(&mut self, row: usize) {
        *self = match self {
            Held::Nothing => Held::Single(row),
            _ => Held::Several,
        };
    }
}

/// Per-column and per-row state of one elimination.
#[derive(Debug, Clone, Default)]
struct Tracking {
    /// By column.
    held: Vec<Held>,
    /// The row the matrix was given at each position, and its inverse:
    /// where each given row is now.
    row_at: Vec<usize>,
    pos_of: Vec<usize>,
}

impl Tracking {
    /// Start over for an `n × n` matrix: nothing held, no row moved.
    fn reset(&mut self, n: usize) {
        self.held.clear();
        self.held.resize(n, Held::Nothing);
        self.row_at.clear();
        self.row_at.extend(0..n);
        self.pos_of.clear();
        self.pos_of.extend(0..n);
    }

    /// Record the exchange of the rows at positions `a` and `b`.
    fn swap(&mut self, a: usize, b: usize) {
        self.row_at.swap(a, b);
        self.pos_of[self.row_at[a]] = a;
        self.pos_of[self.row_at[b]] = b;
    }
}

impl Lu {
    /// Factors of the empty matrix, for storage to grow in.
    fn empty() -> Lu {
        Lu {
            lu: Matrix::zeros(0, 0),
            swaps: Vec::new(),
            perm_sign: 1.0,
            wide: Vec::new(),
            track: Tracking::default(),
        }
    }

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
        let mut lu = Lu { lu: a, ..Lu::empty() };
        lu.track.reset(n);
        // One pass for the largest entry and for what each column holds.
        let mut scale = 0.0_f64;
        for i in 0..n {
            for (&v, held) in lu.lu.row(i).iter().zip(&mut lu.track.held) {
                scale = scale.max(v.abs());
                if v.to_bits() != 0 {
                    held.hold(i);
                }
            }
        }
        lu.eliminate(scale)?;
        // Nothing factors in this storage again.
        lu.track = Tracking::default();
        Ok(lu)
    }

    /// Gaussian elimination with partial pivoting, in place. `scale` is
    /// the largest `|entry|`: a pivot is "zero" relative to it.
    ///
    /// A column that is one entry `v` among `+0.0`s when its step comes is
    /// eliminated without being walked. The pivot search would start from
    /// the diagonal and move down only to a strictly larger `|entry|`, so
    /// it ends on `v`'s row when that lies on or below the diagonal and
    /// `|v| > tol`, and reports the column singular otherwise; the
    /// multipliers are `+0.0 / v` — `-0.0` under a negative `v`, which is
    /// stored, since a solve that starts a row from `-0.0` reads the
    /// packed factors — and a zero multiplier updates no row. Whether a
    /// column is still that is known without looking: row exchanges move
    /// its entry along with the row (`track`), and a row update
    /// `row_i -= m · row_k` leaves a `+0.0` of the column `+0.0` and its
    /// entry what it was unless the pivot row holds a nonzero there (or
    /// `m` is not finite), in which case the column is marked
    /// [`Held::Several`] and takes the full step like any other. The
    /// packed factors, `swaps` and `perm_sign` are therefore those of the
    /// full step at every column, bit for bit (`tests::plain` is that
    /// elimination, kept as the oracle).
    fn eliminate(&mut self, scale: f64) -> Result<(), LinalgError> {
        let Lu { lu, swaps, perm_sign, wide, track } = self;
        let n = lu.rows();
        let tol = PIVOT_EPS * scale.max(1.0);
        swaps.clear();
        swaps.reserve_exact(n);
        wide.clear();
        *perm_sign = 1.0;

        for k in 0..n {
            let single = match track.held[k] {
                Held::Single(row) => Some(track.pos_of[row]).filter(|&p| !lu[(p, k)].is_nan()),
                _ => None,
            };
            let piv_row = match single {
                Some(p) => {
                    if p < k || lu[(p, k)].abs() <= tol {
                        return Err(LinalgError::Singular { column: k });
                    }
                    p
                }
                None => {
                    // Partial pivoting: pick the largest entry in column k
                    // at or below the diagonal.
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
                    piv_row
                }
            };
            swaps.push(piv_row);
            if piv_row != k {
                lu.swap_rows(piv_row, k);
                track.swap(piv_row, k);
                *perm_sign = -*perm_sign;
            }
            let pivot = lu[(k, k)];
            if single.is_some() {
                if pivot < 0.0 {
                    for i in k + 1..n {
                        lu[(i, k)] = -0.0;
                    }
                }
                continue;
            }

            wide.push(k);
            let mut updated = false;
            let mut finite = true;
            for i in k + 1..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == 0.0 { // lint: allow(float-eq): exact-zero multiplier skips a no-op elimination row
                    continue;
                }
                updated = true;
                finite &= m.is_finite();
                // Row update on the contiguous tail of row i.
                let (rk, ri) = lu.two_rows_mut(k, i);
                kernel::sub_scaled(&mut ri[k + 1..n], m, &rk[k + 1..n]);
            }
            if updated {
                for (held, &v) in track.held[k + 1..].iter_mut().zip(&lu.row(k)[k + 1..]) {
                    if v != 0.0 || !finite { // lint: allow(float-eq): a product with an exact zero is the only one that changes nothing
                        *held = Held::Several;
                    }
                }
            }
        }
        Ok(())
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
    #[cfg(test)]
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
#[derive(Debug, Clone, Default)]
struct Lines {
    start: Vec<u32>,
    at: Vec<u32>,
    val: Vec<f64>,
}

impl Lines {
    /// No lines yet, with room for `n` lines of `nnz` entries between
    /// them: the storage this has, grown by exactly what is missing.
    fn clear_for(&mut self, n: usize, nnz: usize) {
        self.start.clear();
        self.start.reserve_exact(n + 1);
        self.start.push(0);
        self.at.clear();
        self.at.reserve_exact(nnz);
        self.val.clear();
        self.val.reserve_exact(nnz);
    }

    /// Add an entry to the line being written.
    fn push(&mut self, at: usize, val: f64) {
        self.at.push(at as u32);
        self.val.push(val);
    }

    /// Close the line that the entries pushed since the last call make up.
    fn end_line(&mut self) {
        self.start.push(self.at.len() as u32);
    }

    /// Lay the same entries out in `out` by the other index (as many
    /// lines as here). Lines are walked in ascending order, so every line
    /// of the result comes out ascending too. `next` is scratch.
    fn transpose_into(&self, out: &mut Lines, next: &mut Vec<u32>) {
        let n = self.start.len() - 1;
        out.clear_for(n, self.at.len());
        out.start.resize(n + 1, 0);
        for &j in &self.at {
            out.start[j as usize + 1] += 1;
        }
        for k in 0..n {
            out.start[k + 1] += out.start[k];
        }
        out.at.resize(self.at.len(), 0);
        out.val.resize(self.at.len(), 0.0);
        // Next free slot of each line of the result.
        next.clear();
        next.reserve_exact(n);
        next.extend_from_slice(&out.start[..n]);
        for k in 0..n {
            let (lo, hi) = (self.start[k] as usize, self.start[k + 1] as usize);
            for (&j, &v) in self.at[lo..hi].iter().zip(&self.val[lo..hi]) {
                let slot = next[j as usize] as usize;
                out.at[slot] = k as u32;
                out.val[slot] = v;
                next[j as usize] += 1;
            }
        }
    }

    /// `s - Σ val·x[at]` over line `k`, one term after the other in
    /// stored order.
    #[inline]
    fn sub_dot(&self, k: usize, mut s: f64, x: &[f64]) -> f64 {
        let (at, val) = self.line(k);
        for (&j, &v) in at.iter().zip(val) {
            s -= v * x[j as usize];
        }
        s
    }

    /// [`Lines::sub_dot`] over the entries of line `k` at index `from` or
    /// beyond, and how many those were.
    #[inline]
    fn sub_dot_from(&self, k: usize, from: usize, mut s: f64, x: &[f64]) -> (f64, usize) {
        let (at, val) = self.line(k);
        let skip = at.partition_point(|&j| (j as usize) < from);
        for (&j, &v) in at[skip..].iter().zip(&val[skip..]) {
            s -= v * x[j as usize];
        }
        (s, at.len() - skip)
    }

    /// Line `k`'s indices and values.
    #[inline]
    fn line(&self, k: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.start[k] as usize, self.start[k + 1] as usize);
        (&self.at[lo..hi], &self.val[lo..hi])
    }
}

/// Whether `x` is a zero of either sign.
#[inline]
fn is_zero(x: f64) -> bool {
    x.to_bits() << 1 == 0
}

/// A set of rows `0..n`, one bit each.
#[derive(Debug, Clone, Default)]
struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// Room for rows `0..n`, none of them in the set.
    fn clear_for(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Empty the set, keeping its room.
    fn clear(&mut self) {
        self.words.fill(0);
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// The smallest row in the set at or after `from`.
    #[inline]
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut at = from / 64;
        let mut word = *self.words.get(at)? & (!0 << (from % 64));
        while word == 0 {
            at += 1;
            word = *self.words.get(at)?;
        }
        Some(at * 64 + word.trailing_zeros() as usize)
    }

    /// The largest row in the set below `end`.
    #[inline]
    fn last_below(&self, end: usize) -> Option<usize> {
        let last = end.checked_sub(1)?;
        let mut at = last / 64;
        let mut word = self.words[at] & (!0 >> (63 - last % 64));
        while word == 0 {
            at = at.checked_sub(1)?;
            word = self.words[at];
        }
        Some(at * 64 + 63 - word.leading_zeros() as usize)
    }
}

/// No term: the end of a row's list in [`Sweep::terms`].
const NO_TERM: u32 = u32::MAX;

/// Scratch of [`CompressedLu::solve_transposed_in_place`], sized with the
/// factors and left empty by every solve: the three sets, every `head`
/// at [`NO_TERM`], no `terms`, nothing `moved`.
#[derive(Debug, Clone, Default)]
struct Sweep {
    /// Rows of `U^T z = b` that a listed entry or a push reached; every
    /// other row's `z` is `+0.0 / U_kk`.
    reached: RowSet,
    /// Rows whose entry of `b` is `-0.0`.
    neg_zero: RowSet,
    /// Rows of `L^T w = z` to compute: a `z` other than `+0.0`, or a term.
    due: RowSet,
    /// Per row of `L^T`, where its list of terms starts in `terms`.
    head: Vec<u32>,
    /// `(L_ji, w_j, next)`: a term `L_ji · w_j` of row `i` and the next
    /// one of that row's list.
    terms: Vec<(f64, f64, u32)>,
    /// The solution's entries other than `+0.0`, `(row, value)`, on their
    /// way to where `P^T` puts them.
    moved: Vec<(u32, f64)>,
}

impl Sweep {
    /// Size the scratch for `n` rows and `l_nnz` entries of `L`, the most
    /// terms one solve can hand on.
    fn clear_for(&mut self, n: usize, l_nnz: usize) {
        self.reached.clear_for(n);
        self.neg_zero.clear_for(n);
        self.due.clear_for(n);
        self.head.clear();
        self.head.resize(n, NO_TERM);
        self.terms.clear();
        self.terms.reserve_exact(l_nnz);
        self.moved.clear();
        self.moved.reserve_exact(n);
    }
}

/// An [`Lu`] whose two substitutions visit the nonzeros of `L` and `U`
/// only: the form the revised simplex solves with, where the basis is a
/// handful of dense columns in an identity and the packed factors are
/// almost all zeros.
///
/// The elimination still runs on the dense matrix — it picks the pivots,
/// and with them every bit of the factors. This type lists the nonzeros
/// of the result four ways (`L` and `U` by row and by column), each line
/// in ascending order, so a substitution row subtracts the same products
/// in the same order as the dense loop and leaves out only the terms
/// whose factor entry is an exact zero — and the transposed solve also
/// those whose other operand is (see
/// [`CompressedLu::solve_transposed_in_place`]). Such a term is `±0`
/// (right-hand sides are finite), and subtracting `±0`
/// changes no running sum but one: `-0.0 - (-0.0)` is `+0.0`. A sum can be
/// `-0.0` only while it still holds an untouched `-0.0` right-hand-side
/// entry — exact cancellation gives `+0.0` — so a row that starts from
/// `-0.0` runs the dense loop instead. Every solution is therefore the
/// dense solve's **bit for bit**, signed zeros included
/// (`tests/proptest_lu.rs` holds both to `to_bits`).
///
/// A value of this type is also the storage of the next one: the simplex
/// refactorises a basis of one size over and over
/// ([`CompressedLu::factor_columns`]), and neither the matrix nor the
/// lists nor the transposed solve's scratch are allocated again.
#[derive(Debug, Clone)]
pub struct CompressedLu {
    /// The packed factors the lists below were read from: the `-0.0`
    /// rows' loops run on them.
    dense: Lu,
    /// `U`'s diagonal.
    diag: Vec<f64>,
    /// Strictly lower `L` by row and by column, strictly upper `U` by
    /// row and by column.
    l_rows: Lines,
    l_cols: Lines,
    u_rows: Lines,
    u_cols: Lines,
    /// The rows whose `U_kk` is negative, ascending: where a transposed
    /// solve that reaches nothing leaves `+0.0 / U_kk = -0.0`.
    neg_diag: Vec<u32>,
    /// Where `P^T` — the row exchanges replayed last first — moves the
    /// entry at each index.
    dest: Vec<u32>,
    /// Scratch of [`Lines::transpose_into`] and of `dest`.
    next: Vec<u32>,
    sweep: Sweep,
}

/// The factors of the empty matrix: where a chain of
/// [`CompressedLu::factor_columns`] starts.
impl Default for CompressedLu {
    fn default() -> Self {
        Lu::empty().compress()
    }
}

impl Lu {
    /// List the factors' nonzeros; see [`CompressedLu`].
    pub fn compress(self) -> CompressedLu {
        let mut lists = CompressedLu {
            dense: self,
            diag: Vec::new(),
            l_rows: Lines::default(),
            l_cols: Lines::default(),
            u_rows: Lines::default(),
            u_cols: Lines::default(),
            neg_diag: Vec::new(),
            dest: Vec::new(),
            next: Vec::new(),
            sweep: Sweep::default(),
        };
        lists.list();
        lists
    }

}

impl CompressedLu {
    /// Factor the `n × n` matrix whose column `r` is the `r`-th item of
    /// `columns` — its `(row, value)` pairs, no row twice, `+0.0`
    /// everywhere else — and list the factors, all in the storage `self`
    /// already has: [`Lu::factor`] then [`Lu::compress`] of that matrix,
    /// bit for bit, allocating only what a larger `n` than before needs.
    ///
    /// On [`LinalgError::Singular`] `self` becomes the factors of the
    /// empty matrix (every solve refuses its argument's length) and keeps
    /// the storage for the next call.
    ///
    /// # Panics
    /// Panics unless `columns` has `n` items with every row below `n`.
    pub fn factor_columns<C>(
        &mut self,
        n: usize,
        columns: impl IntoIterator<Item = C>,
    ) -> Result<(), LinalgError>
    where
        C: IntoIterator<Item = (usize, f64)>,
    {
        // What each column holds, and the largest entry, are by-products
        // of writing the matrix.
        let Lu { lu, track, .. } = &mut self.dense;
        lu.reset_zeros(n, n);
        track.reset(n);
        let mut scale = 0.0_f64;
        let mut width = 0;
        for (r, column) in columns.into_iter().enumerate() {
            assert!(r < n, "more than {n} columns");
            for (i, v) in column {
                assert!(i < n, "row {i} of column {r} in a {n} x {n} matrix");
                lu[(i, r)] = v;
                scale = scale.max(v.abs());
                if v.to_bits() != 0 {
                    track.held[r].hold(i);
                }
            }
            width = r + 1;
        }
        assert_eq!(width, n, "fewer than {n} columns");
        let done = self.dense.eliminate(scale);
        if done.is_err() {
            self.dense.lu.reset_zeros(0, 0);
            self.dense.swaps.clear();
            self.dense.wide.clear();
        }
        self.list();
        done
    }

    /// Read the nonzero lists off the packed factors. A pass over the
    /// [`Lu::wide`] columns of each row lists both triangles by row — a
    /// column outside them holds nothing off the diagonal but zeros — and
    /// the by-column lists are then laid out from those. A pass before it
    /// counts, so that storage grows to what the lists need and no
    /// further.
    fn list(&mut self) {
        let CompressedLu {
            dense,
            diag,
            l_rows,
            l_cols,
            u_rows,
            u_cols,
            neg_diag,
            dest,
            next,
            sweep,
        } = self;
        let n = dense.dim();
        assert!(u32::try_from(n * n).is_ok(), "matrix too large to index with u32");
        let off_diagonal = |i: usize| {
            let row = dense.lu.row(i);
            let listed = move |&(j, v): &(usize, f64)| {
                j != i && v != 0.0 // lint: allow(float-eq): an entry is left out only when it is an exact zero
            };
            dense.wide.iter().map(move |&j| (j, row[j])).filter(listed)
        };
        let (mut below, mut above) = (0, 0);
        for i in 0..n {
            for (j, _) in off_diagonal(i) {
                if j < i {
                    below += 1;
                } else {
                    above += 1;
                }
            }
        }
        l_rows.clear_for(n, below);
        u_rows.clear_for(n, above);
        diag.clear();
        diag.reserve_exact(n);
        for i in 0..n {
            diag.push(dense.lu[(i, i)]);
            for (j, v) in off_diagonal(i) {
                let rows = if j < i { &mut *l_rows } else { &mut *u_rows };
                rows.push(j, v);
            }
            l_rows.end_line();
            u_rows.end_line();
        }
        l_rows.transpose_into(l_cols, next);
        u_rows.transpose_into(u_cols, next);
        // What the transposed solve needs besides the lists.
        neg_diag.clear();
        neg_diag.extend((0..n as u32).filter(|&k| diag[k as usize] < 0.0));
        let at = next;
        at.clear();
        at.extend(0..n as u32);
        for (k, &p) in dense.swaps.iter().enumerate().rev() {
            at.swap(k, p);
        }
        dest.clear();
        dest.resize(n, 0);
        for (p, &i) in at.iter().enumerate() {
            dest[i as usize] = p as u32;
        }
        sweep.clear_for(n, l_rows.at.len());
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

    /// [`Lu::solve_transposed_in_place`], bit for bit, for finite `w`,
    /// at the cost of what its nonzeros reach rather than of the factors:
    /// `nz` lists every index at which `w` holds anything but `+0.0` (in
    /// any order; a repeat, or an index that holds `+0.0`, costs a little
    /// and changes nothing). Returns how many entries of the factors the
    /// solve read.
    ///
    /// Each substitution row receives the dense loop's terms in the dense
    /// loop's order, leaving out only products with an exact zero:
    ///
    /// * `U^T z = b` runs in ascending rows over the set of rows reached so
    ///   far. A final nonzero `z_j` is pushed into every row `k` of `U`'s
    ///   row `j` (`b_k −= U_jk · z_j`), and rows are finished in ascending
    ///   order, so row `k` receives its terms in ascending `j`: the order
    ///   of the pull down `U`'s column `k`. A row nothing reaches is
    ///   `+0.0 / U_kk`, written as `-0.0` where `U_kk < 0` and left alone
    ///   elsewhere.
    /// * `L^T w = z` runs in descending rows, where a push would add a
    ///   row's terms in descending `j`. A nonzero `w_j` is instead handed
    ///   to every row `i` of `L`'s row `j` as a term `(L_ji, w_j)`
    ///   inserted at the head of row `i`'s list, which therefore reads
    ///   back in ascending `j`; the row sums it when its turn comes.
    /// * A row whose start value is `-0.0` runs the dense loop over the
    ///   packed factors — reading a row nothing reached as its signed
    ///   zero — until the sum leaves `-0.0`, and the nonzero terms after.
    /// * `P^T` moves the entries other than `+0.0` only.
    ///
    /// # Panics
    /// Panics if `nz` lists an index outside `w`.
    pub fn solve_transposed_in_place(&mut self, w: &mut [f64], nz: &[u32]) -> Result<usize, LinalgError> {
        self.dense.check_len("lu_solve_transposed", w.len())?;
        let CompressedLu {
            dense,
            diag,
            l_rows,
            l_cols,
            u_rows,
            u_cols,
            neg_diag,
            dest,
            sweep,
            ..
        } = self;
        let Sweep { reached, neg_zero, due, head, terms, moved } = sweep;
        let n = dense.dim();
        let lu = &dense.lu;
        let mut read = 0;
        for &k in nz {
            let k = k as usize;
            if w[k].to_bits() == NEG_ZERO {
                neg_zero.insert(k);
            }
            reached.insert(k);
        }
        // U^T z = b: row k of U^T is column k of U.
        let mut from = 0;
        while let Some(k) = reached.first_from(from) {
            from = k + 1;
            let s = if neg_zero.contains(k) {
                let mut s = -0.0_f64;
                let mut j = 0;
                while j < k && s.to_bits() == NEG_ZERO {
                    let z = if reached.contains(j) {
                        w[j]
                    } else {
                        0.0_f64.copysign(diag[j])
                    };
                    s -= lu[(j, k)] * z;
                    j += 1;
                }
                let (s, rest) = u_cols.sub_dot_from(k, j, s, w);
                read += j + rest;
                s
            } else {
                w[k]
            };
            let z = s / diag[k];
            w[k] = z;
            read += 1;
            if !is_zero(z) {
                let (at, val) = u_rows.line(k);
                for (&c, &u) in at.iter().zip(val) {
                    w[c as usize] -= u * z;
                    reached.insert(c as usize);
                }
                read += at.len();
            }
            if z.to_bits() != 0 {
                due.insert(k);
            }
        }
        for &k in neg_diag.iter() {
            let k = k as usize;
            if !reached.contains(k) {
                w[k] = -0.0;
                due.insert(k);
            }
        }
        reached.clear();
        neg_zero.clear();
        // L^T w = z, from the last row up: row i of L^T is column i of L.
        let mut end = n;
        while let Some(i) = due.last_below(end) {
            end = i;
            let mut s = w[i];
            let mut t = std::mem::replace(&mut head[i], NO_TERM);
            if s.to_bits() == NEG_ZERO {
                let mut j = i + 1;
                while j < n && s.to_bits() == NEG_ZERO {
                    s -= lu[(j, i)] * w[j];
                    j += 1;
                }
                let (sum, rest) = l_cols.sub_dot_from(i, j, s, w);
                s = sum;
                read += j - i - 1 + rest;
            } else {
                while t != NO_TERM {
                    let (l, x, next) = terms[t as usize];
                    s -= l * x;
                    t = next;
                }
            }
            w[i] = s;
            if !is_zero(s) {
                let (at, val) = l_rows.line(i);
                for (&c, &l) in at.iter().zip(val) {
                    let c = c as usize;
                    terms.push((l, s, head[c]));
                    head[c] = (terms.len() - 1) as u32;
                    due.insert(c);
                }
                read += at.len();
            }
            if s.to_bits() != 0 {
                moved.push((i as u32, s));
            }
        }
        due.clear();
        terms.clear();
        // x = P^T w: every entry not moved is `+0.0`, and so is where it goes.
        for (i, _) in moved.iter_mut() {
            w[*i as usize] = 0.0;
            *i = dest[*i as usize];
        }
        for &(p, x) in moved.iter() {
            w[p as usize] = x;
        }
        moved.clear();
        Ok(read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The matrix `compressed_solves_equal_dense_solves_with_negative_zero_factors`
    /// (`tests/proptest_lu.rs`) solves with: its packed factors hold a
    /// `-0.0` multiplier in `L` and a `-0.0` entry of `A` carried into
    /// `U`.
    #[test]
    fn negative_zero_factors_are_packed_as_such() {
        let a = Matrix::from_rows(&[
            &[-2.0, -0.0, 1.0, -0.0],
            &[0.0, -4.0, -0.0, 2.0],
            &[1.0, 0.0, -3.0, -0.0],
            &[0.0, 2.0, 0.0, -5.0],
        ]);
        let packed = Lu::factor(a).unwrap().lu;
        let neg_zero = |i: usize, j: usize| packed[(i, j)].to_bits() == (-0.0_f64).to_bits();
        assert!(neg_zero(1, 0), "a -0.0 multiplier in L: {packed:?}");
        assert!(neg_zero(0, 1), "a -0.0 entry in U: {packed:?}");
    }

    /// The elimination that walks every column, as `Lu::factor` ran it
    /// before a single-entry column became a step of its own: the oracle
    /// for the packed factors, `swaps` and `perm_sign`.
    fn plain(a: Matrix) -> Result<(Matrix, Vec<usize>, f64), LinalgError> {
        let n = a.rows();
        let tol = PIVOT_EPS * a.max_abs().max(1.0);
        let mut lu = a;
        let mut swaps: Vec<usize> = Vec::with_capacity(n);
        let mut perm_sign = 1.0;
        for k in 0..n {
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
                let (rk, ri) = lu.two_rows_mut(k, i);
                for j in k + 1..n {
                    ri[j] -= m * rk[j];
                }
            }
        }
        Ok((lu, swaps, perm_sign))
    }

    /// The listing that scans every entry of the packed factors: the
    /// oracle for the four lists and the diagonal.
    fn full_scan(lu: &Matrix) -> (Vec<f64>, [Lines; 4]) {
        let n = lu.rows();
        let (mut l_rows, mut u_rows) = (Lines::default(), Lines::default());
        l_rows.clear_for(n, 0);
        u_rows.clear_for(n, 0);
        let mut diag = Vec::new();
        for i in 0..n {
            for (j, &v) in lu.row(i).iter().enumerate() {
                if j == i {
                    diag.push(v);
                } else if v != 0.0 { // lint: allow(float-eq): an entry is left out only when it is an exact zero
                    let rows = if j < i { &mut l_rows } else { &mut u_rows };
                    rows.push(j, v);
                }
            }
            l_rows.end_line();
            u_rows.end_line();
        }
        let (mut l_cols, mut u_cols) = (Lines::default(), Lines::default());
        l_rows.transpose_into(&mut l_cols, &mut Vec::new());
        u_rows.transpose_into(&mut u_cols, &mut Vec::new());
        (diag, [l_rows, l_cols, u_rows, u_cols])
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_lines(got: &Lines, want: &Lines, which: &str) {
        assert_eq!(got.start, want.start, "{which}.start");
        assert_eq!(got.at, want.at, "{which}.at");
        assert_eq!(bits(&got.val), bits(&want.val), "{which}.val");
    }

    /// `a` three ways — `Lu::factor`, `factor_columns` into `kept`
    /// (whatever that held before) and the plain elimination — must agree
    /// on the verdict, the packed factors, `swaps` and `perm_sign`, and
    /// the wide-column lists must be the full scan's. Returns whether `a`
    /// could be factored.
    fn check_against_oracles(a: &Matrix, kept: &mut CompressedLu) -> bool {
        let n = a.rows();
        let by_matrix = Lu::factor(a.clone());
        let by_columns = kept.factor_columns(
            n,
            // Every entry but the `+0.0`s, which is what a sparse column
            // leaves out; stored zeros of the other sign are entries.
            (0..n).map(|r| (0..n).map(move |i| (i, a[(i, r)])).filter(|(_, v)| v.to_bits() != 0)),
        );
        match plain(a.clone()) {
            Err(err) => {
                assert_eq!(by_matrix.err(), Some(err.clone()), "{a:?}");
                assert_eq!(by_columns.err(), Some(err), "{a:?}");
                assert_eq!(kept.dense.dim(), 0, "a failed factorisation solves nothing");
                assert!(kept.solve_in_place(&mut vec![0.0; n]).is_err() || n == 0);
                false
            }
            Ok((packed, swaps, perm_sign)) => {
                assert_eq!(by_columns, Ok(()), "{a:?}");
                let by_matrix = by_matrix.expect("the plain elimination found every pivot");
                let (diag, lists) = full_scan(&packed);
                for (how, lu) in [("matrix", by_matrix.compress()), ("columns", kept.clone())] {
                    let got = &lu.dense;
                    assert_eq!(bits(got.lu.as_slice()), bits(packed.as_slice()), "{how}: {a:?}");
                    assert_eq!(got.swaps, swaps, "{how}: {a:?}");
                    assert_eq!(got.perm_sign.to_bits(), perm_sign.to_bits(), "{how}");
                    assert_eq!(bits(&lu.diag), bits(&diag), "{how}: diag");
                    let [l_rows, l_cols, u_rows, u_cols] = &lists;
                    assert_same_lines(&lu.l_rows, l_rows, "l_rows");
                    assert_same_lines(&lu.l_cols, l_cols, "l_cols");
                    assert_same_lines(&lu.u_rows, u_rows, "u_rows");
                    assert_same_lines(&lu.u_cols, u_cols, "u_cols");
                }
                true
            }
        }
    }

    /// One column of a generated matrix.
    #[derive(Debug, Clone)]
    enum Col {
        /// A single entry (`kind` picks `+1`, `-1`, the value, one around
        /// the singularity threshold, or `-0.0`) in row `at % n`, `+0.0`
        /// elsewhere — unless `stray`, which also puts a `-0.0` in the
        /// next row: no longer single.
        Unit { at: usize, kind: u8, value: f64, stray: bool },
        /// Values, a third of them exact zeros of either sign.
        Dense(Vec<(f64, u8)>),
    }

    fn matrix(n: usize, cols: &[Col]) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for (r, col) in cols.iter().enumerate() {
            if let Col::Dense(vals) = col {
                for (i, &(v, zero)) in vals.iter().enumerate() {
                    a[(i, r)] = match zero {
                        0 => 0.0,
                        1 => -0.0,
                        _ => v,
                    };
                }
            }
        }
        // The units never hold the largest entry, so the threshold is
        // known before they are written.
        let tol = PIVOT_EPS * a.max_abs().max(4.0);
        for (r, col) in cols.iter().enumerate() {
            if let Col::Unit { at, kind, value, stray } = *col {
                let i = at % n;
                a[(i, r)] = match kind {
                    0..=19 => 1.0,
                    20..=35 => -1.0,
                    36..=43 => value,
                    // At the singularity threshold (singular), a hair
                    // above it, and below it.
                    44 => tol,
                    45 => -tol * (1.0 + f64::EPSILON),
                    46 => 0.9 * tol,
                    _ => -0.0,
                };
                if stray {
                    a[((i + 1) % n, r)] = -0.0;
                }
            }
        }
        // One entry pins the scale the threshold was computed from.
        if n > 0 && a.max_abs() < 4.0 {
            let r = cols.iter().position(|c| matches!(c, Col::Dense(_)));
            if let Some(r) = r {
                a[(0, r)] = 4.0;
            }
        }
        a
    }

    /// `n` columns, `dense_tenths` in ten of them dense. The units sit
    /// on a scrambled permutation — so that most matrices can be
    /// factored, with rows exchanged on the way — but for one in 24,
    /// which lands anywhere: on another unit's row, above the diagonal.
    fn cols(n: usize, dense_tenths: u32) -> impl Strategy<Value = Vec<Col>> {
        let unit = (0u8..24, 0..n, 0u8..48, -4.0_f64..4.0, 0u8..8);
        let dense = prop::collection::vec((-4.0_f64..4.0, 0u8..6), n);
        let col = (0u32..10, unit, dense);
        (prop::collection::vec(0.0_f64..1.0, n), prop::collection::vec(col, n)).prop_map(
            move |(order, cols)| {
                let mut perm: Vec<usize> = (0..n).collect();
                perm.sort_by(|&a, &b| order[a].total_cmp(&order[b]));
                cols.into_iter()
                    .zip(perm)
                    .map(|((pick, (stay, anywhere, kind, value, stray), dense), at)| {
                        if pick < dense_tenths {
                            Col::Dense(dense)
                        } else {
                            let at = if stay == 0 { anywhere } else { at };
                            Col::Unit { at, kind, value, stray: stray == 0 }
                        }
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Matrices mixing dense columns with single-entry ones: units
        /// `+1`, `-1` and arbitrary, wherever they fall — on the diagonal,
        /// below it, above it (singular), two in one row (singular) —
        /// moved about by the exchanges the dense columns' pivots ask
        /// for, filled in when a pivot row holds them, at and around the
        /// singularity threshold, with a `-0.0` for company. One
        /// `CompressedLu` is refactored from case to case, so what a
        /// failed or larger or smaller factorisation leaves behind is
        /// part of the input.
        #[test]
        fn single_column_steps_equal_the_plain_elimination(
            cases in prop::collection::vec(
                (1usize..14, 0u32..5).prop_flat_map(|(n, tenths)| (Just(n), cols(n, tenths))),
                1..6,
            ),
        ) {
            let mut kept = CompressedLu::default();
            for (n, cols) in &cases {
                check_against_oracles(&matrix(*n, cols), &mut kept);
            }
        }

        /// The shape of a simplex basis — signed units in scrambled order,
        /// a few dense columns among them — which, unlike the mix above,
        /// usually can be factored.
        #[test]
        fn basis_shaped_matrices_equal_the_plain_elimination(
            (n, order, negative, dense_at, dense_vals) in (4usize..40, 0usize..9)
                .prop_flat_map(|(n, k)| (
                    Just(n),
                    prop::collection::vec(0.0_f64..1.0, n),
                    prop::collection::vec(any::<bool>(), n),
                    prop::collection::vec(0usize..n, k),
                    prop::collection::vec((-3.0_f64..3.0, 0u8..4), k * n),
                ))
        ) {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.sort_by(|&a, &b| order[a].total_cmp(&order[b]));
            let mut a = Matrix::zeros(n, n);
            for (r, &i) in perm.iter().enumerate() {
                a[(i, r)] = if negative[r] { -1.0 } else { 1.0 };
            }
            for (c, &r) in dense_at.iter().enumerate() {
                for i in 0..n {
                    let (v, zero) = dense_vals[c * n + i];
                    a[(i, r)] = if zero == 0 { 0.0 } else { v };
                }
            }
            let mut kept = Lu::factor(Matrix::identity(3)).expect("identity").compress();
            prop_assume!(check_against_oracles(&a, &mut kept));
        }
    }

    #[test]
    fn single_columns_by_hand() {
        let mut kept = CompressedLu::default();
        // A permutation of signed units: every step single, rows
        // exchanged, `-0.0` multipliers under the negative ones.
        let a = Matrix::from_rows(&[
            &[0.0, 0.0, -1.0, 0.0],
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, -2.5],
            &[0.0, 3.0, 0.0, 0.0],
        ]);
        assert!(check_against_oracles(&a, &mut kept));
        assert!(kept.dense.wide.is_empty(), "no column was walked");
        assert_eq!(kept.dense.lu[(3, 2)].to_bits(), (-0.0_f64).to_bits());
        // Two units in one row, the second above the diagonal when its
        // step comes: singular at that column.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]]);
        assert!(!check_against_oracles(&a, &mut kept));
        assert_eq!(kept.factor_columns(3, [vec![(0, 1.0)], vec![(0, 1.0)], vec![(1, 1.0)]]),
            Err(LinalgError::Singular { column: 1 }));
        // A dense first column whose pivot row holds the unit of column 2:
        // that column is filled in and walked, column 1's is only moved.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[2.0, 1.0, 0.0], &[4.0, 0.0, -1.0]]);
        assert!(check_against_oracles(&a, &mut kept));
        assert_eq!(kept.dense.wide, [0, 2]);
        // A NaN for a unit takes the plain step (whose `NaN <= tol` is
        // false), as does a column that also holds a `-0.0`.
        let a = Matrix::from_rows(&[&[f64::NAN, 0.0], &[0.0, 1.0]]);
        let by_columns = kept.factor_columns(2, [vec![(0, f64::NAN)], vec![(1, 1.0)]]);
        assert_eq!(by_columns.is_ok(), plain(a).is_ok());
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[-0.0, 1.0]]);
        assert!(check_against_oracles(&a, &mut kept));
        assert_eq!(kept.dense.wide, [0]);
    }

    /// Refactoring a matrix of a size seen before moves none of the
    /// storage — matrix, lists, diagonal, the transposed solve's
    /// destinations and term pool — and a singular matrix in
    /// between hands it on rather than dropping it. What the transposed
    /// solve keeps per factorisation (the negative-diagonal rows, where
    /// `P^T` sends each entry, its scratch) goes with the factors: refused
    /// with them, and the next factors' own, bit for bit the dense solve's.
    #[test]
    fn refactoring_keeps_its_storage_through_a_singular_matrix() {
        let unit = |i: usize, v: f64| vec![(i, v)];
        let dense = |vals: [f64; 4]| vals.into_iter().enumerate().collect::<Vec<_>>();
        let basis = |d: [f64; 4], s: f64| [unit(0, s), dense(d), unit(2, -s), unit(3, 1.0)];
        // The transposed solves of `kept` against the dense factors of the
        // same matrix, on every unit vector and on `-0.0` among them.
        let transposed_equal_dense = |kept: &mut CompressedLu, cols: &[Vec<(usize, f64)>; 4]| {
            let mut a = Matrix::zeros(4, 4);
            for (r, col) in cols.iter().enumerate() {
                for &(i, v) in col {
                    a[(i, r)] = v;
                }
            }
            let oracle = Lu::factor(a).unwrap();
            for k in 0..4 {
                let mut b = [0.0; 4];
                b[k] = 1.0;
                b[(k + 1) % 4] = -0.0;
                let nz = [k as u32, (k as u32 + 1) % 4];
                let (mut x, mut y) = (b, b);
                oracle.solve_transposed_in_place(&mut x).unwrap();
                kept.solve_transposed_in_place(&mut y, &nz).unwrap();
                assert_eq!(bits(&y), bits(&x), "e_{k}");
            }
        };
        let mut kept = CompressedLu::default();
        let first = basis([0.5, 2.0, -1.0, 0.25], -1.0);
        kept.factor_columns(4, first.clone()).unwrap();
        transposed_equal_dense(&mut kept, &first);
        let storage = |lu: &CompressedLu| {
            let lists = (lu.diag.as_ptr(), lu.l_rows.val.as_ptr(), lu.u_cols.val.as_ptr());
            (lu.dense.lu.as_slice().as_ptr(), lists, lu.dest.as_ptr(), lu.sweep.terms.as_ptr())
        };
        let before = storage(&kept);
        let singular = kept.factor_columns(4, basis([0.5, 0.0, -1.0, 0.25], 1.0));
        assert_eq!(singular, Err(LinalgError::Singular { column: 3 }), "row 1 is empty");
        assert!(kept.solve_in_place(&mut [0.0; 4]).is_err(), "nothing is factored");
        assert!(kept.solve_transposed_in_place(&mut [1.0, 0.0, 0.0, 0.0], &[0]).is_err());
        let last = basis([0.25, -4.0, 1.0, 0.5], 1.0);
        kept.factor_columns(4, last.clone()).unwrap();
        assert_eq!(storage(&kept), before);
        let mut x = [1.0, 2.0, 3.0, 4.0];
        kept.solve_in_place(&mut x).unwrap();
        assert_close(&x, &[1.125, -0.5, -3.5, 4.25], 1e-15);
        transposed_equal_dense(&mut kept, &last);
    }

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
