//! Internal form of an LP: the rewriting the revised simplex runs on.
//!
//! Internal form: `min c·x  s.t.  A x = b,  0 <= x_j <= u_j` (each `u_j`
//! possibly infinite). User problems are rewritten into this form: finite
//! lower bounds are shifted to zero, `(-inf, ub]` variables are mirrored,
//! free variables are split, inequality rows gain slack/surplus columns,
//! rows with negative right-hand sides are negated, and `Ge`/`Eq` rows get
//! artificial columns for the phase-1 cold start.
//!
//! The constraint matrix is stored sparse and **twice**, both times as
//! [`SparseLines`]. Column-major (`cols`) is what the basis is assembled
//! from — the factorisation, the FTRAN of the entering column — and what
//! fixes the column indexing a [`Basis`] handle is written in. Row-major
//! (the structural block only; the problem's own arena when no row needs
//! rewriting, see [`InternalForm::build`]) is what the simplex prices with: the
//! dual pivot row `rho·A` and the reduced costs `c - y·A` are wanted for
//! every column at once from a `rho` or `y` that is mostly exact zeros,
//! so [`InternalForm::pivot_row`] and [`InternalForm::reduced_costs`]
//! walk the rows whose multiplier is not zero and nothing else. Each
//! column still receives its products in ascending row order, the order
//! of its entries in `cols`, so the sums are the column-wise dot products
//! bit for bit. A line whose indices are one ascending run — every line
//! of a dense block, such as the room LP's redline rows — is walked as a
//! slice against a window of the dense vector instead of entry by index:
//! the same products added in the same order (DESIGN §10).
//!
//! [`Basis`]: crate::Basis

use crate::model::{Problem, RowOp, Sense};
use thermaware_linalg::kernel;

/// The bits of `-0.0`, the one right-hand side that subtracting a zero
/// can change.
const NEG_ZERO: u64 = 0x8000_0000_0000_0000;

/// Where an internal column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic,
    /// Nonbasic at its lower bound (0 in internal coordinates).
    Lower,
    /// Nonbasic at its upper bound `u_j`.
    Upper,
}

/// How a user variable maps onto internal columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarMap {
    /// `x_user = x_col + lb`
    Shift { col: usize, lb: f64 },
    /// `x_user = ub - x_col`
    Mirror { col: usize, ub: f64 },
    /// `x_user = x_pos - x_neg`
    Split { pos: usize, neg: usize },
}

/// A sparse matrix by line — rows or columns: line `k` holds the
/// coefficients `val[start[k]..start[k + 1]]` at the cross indices
/// `at[..]`. A [`Problem`] keeps its rows in one, by variable index. A
/// form keeps two: the structural block by row, in the order the
/// problem's row lists its terms and with the row's normalisation sign
/// applied (slack and artificial columns are not listed there: each is a
/// single `±1` that `slack_col`, `art_col` and `ops` already describe) —
/// or, when that is the problem's arena entry for entry, no copy of it;
/// and `cols`, every column, row-sorted — entry for entry the values of
/// the row store, plus those singletons.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseLines {
    pub(crate) start: Vec<u32>,
    pub(crate) at: Vec<u32>,
    pub(crate) val: Vec<f64>,
    /// Whether line `k`'s indices are one ascending run `first, first + 1,
    /// …`: such a line is a window of the dense vector it multiplies into.
    /// Fixed by the sparsity pattern, which no patch changes.
    pub(crate) run: Vec<bool>,
}

impl SparseLines {
    /// No lines yet.
    pub(crate) fn empty() -> SparseLines {
        SparseLines { start: vec![0], at: Vec::new(), val: Vec::new(), run: Vec::new() }
    }

    /// No lines, in the buffers the last ones grew.
    pub(crate) fn clear(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.at.clear();
        self.val.clear();
        self.run.clear();
    }

    /// Lines of the given lengths, every entry still to be written, in
    /// the buffers the last ones grew.
    fn set_lengths(&mut self, lengths: &[u32]) {
        self.clear();
        let mut total = 0;
        for &len in lengths {
            total += len;
            self.start.push(total);
        }
        self.at.resize(total as usize, 0);
        self.val.resize(total as usize, 0.0);
    }

    /// Set `run` from the indices, once every line is written.
    #[cfg(test)]
    fn mark_runs(&mut self) {
        self.run = (0..self.start.len() - 1)
            .map(|k| {
                let at = &self.at[self.range(k)];
                !at.is_empty() && at.windows(2).all(|w| w[1] == w[0] + 1)
            })
            .collect();
    }

    pub(crate) fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.start[k] as usize..self.start[k + 1] as usize
    }

    /// `(cross index, coefficient)` pairs of line `k`.
    pub(crate) fn line(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let at = self.range(k);
        self.at[at.clone()]
            .iter()
            .zip(&self.val[at])
            .map(|(&j, &a)| (j as usize, a))
    }

    /// Where line `k` keeps its entry at cross index `i`.
    fn slot(&self, k: usize, i: usize) -> usize {
        let at = self.range(k);
        if self.run[k] {
            at.start + i - self.at[at.start] as usize
        } else {
            at.start
                + self.at[at]
                    .binary_search(&(i as u32))
                    .expect("every term of a row has an entry in its column")
        }
    }

    /// `x[at] += mult · val` (`Add`) or `x[at] −= mult · val` (`Sub`)
    /// over line `k`, entry after entry in stored order. A run is the
    /// slice kernel against its window of `x`, any other line an indexed
    /// walk: one multiply, then one add or subtract, per entry on either
    /// branch.
    #[inline]
    fn scatter(&self, k: usize, mult: f64, x: &mut [f64], op: Scatter) {
        let at = self.range(k);
        let val = &self.val[at.clone()];
        if self.run[k] {
            let first = self.at[at.start] as usize;
            let window = &mut x[first..first + val.len()];
            match op {
                Scatter::Add => kernel::add_scaled(window, mult, val),
                Scatter::Sub => kernel::sub_scaled(window, mult, val),
            }
        } else {
            for (&j, &a) in self.at[at].iter().zip(val) {
                let p = mult * a;
                match op {
                    Scatter::Add => x[j as usize] += p,
                    Scatter::Sub => x[j as usize] -= p,
                }
            }
        }
    }
}

/// Whether [`SparseLines::scatter`] adds its products or subtracts them.
#[derive(Clone, Copy)]
enum Scatter {
    Add,
    Sub,
}

/// The rewritten problem the engine solves.
///
/// A form can be **patched in place** (`patch_rhs`, `patch_row`,
/// `patch_cost`) after the problem it was built from changed a right-hand
/// side, a row's coefficient values or an objective coefficient. Every
/// patch evaluates the same expressions in the same order as [`build`],
/// so a patched form is bit-identical to a rebuilt one — with one
/// exception that is tracked, not hidden: normalisation negates a row
/// whose shifted right-hand side is negative, and a patch that moves a
/// row across zero would have to negate its coefficients and re-lay the
/// artificial columns. Such a row is left **stale**: `shifted_rhs` and
/// the activity range (all that [`InternalForm::infeasible_row`] reads)
/// are current, the normalised fields wait for the rebuild that
/// [`InternalForm::sync`] runs when `stale_rows > 0`. A row patched back
/// across zero is simply no longer stale.
///
/// A form is built in the storage of the last one it held
/// ([`InternalForm::rebuild`]): every field is written over, none read.
///
/// [`build`]: InternalForm::build
#[derive(Default)]
pub(crate) struct InternalForm {
    /// `-1` for maximization (internally always minimize), `+1` otherwise.
    pub sense_sign: f64,
    /// Per user variable: how it lands in internal columns.
    pub maps: Vec<VarMap>,
    /// Upper bound of every internal column (>= 0, possibly infinite).
    pub upper: Vec<f64>,
    /// Phase-2 (real) internal cost of every column.
    pub cost: Vec<f64>,
    /// Right-hand sides with variable shifts folded in, before
    /// normalisation (any sign).
    pub shifted_rhs: Vec<f64>,
    /// Rows whose shifts all vanish (see [`unshifted`]): their shifted
    /// right-hand side is the stated one, no pass over the terms needed.
    pub unshifted: Vec<bool>,
    /// Smallest and largest value each row's structural part can take
    /// inside the column bounds, in the row's stated orientation
    /// (`Σ_{a<0} a·u` and `Σ_{a>0} a·u`; lower bounds are 0).
    pub act_lo: Vec<f64>,
    pub act_hi: Vec<f64>,
    /// Normalized right-hand sides, all >= 0.
    pub rhs: Vec<f64>,
    /// Normalized row operators (after any negative-rhs flip).
    pub ops: Vec<RowOp>,
    /// Whether row `i` was negated during normalization.
    pub flipped: Vec<bool>,
    /// Every column, including slack and artificial columns.
    pub(crate) cols: SparseLines,
    /// The structural columns again, by row; `None` when that is the
    /// problem's own arena entry for entry ([`InternalForm::row_store`]).
    pub(crate) rows: Option<SparseLines>,
    /// Slack column of each row (`Le`/`Ge` rows only).
    pub slack_col: Vec<Option<usize>>,
    /// Artificial column of each row (`Ge`/`Eq` rows only).
    pub art_col: Vec<Option<usize>>,
    /// First artificial column (artificials occupy `art_start..n_total`).
    pub art_start: usize,
    /// Total internal columns (structural + slack + artificial).
    pub n_total: usize,
    /// Structural signature for warm-start validation (48-bit).
    pub signature: u64,
    /// Rows whose `shifted_rhs` sign disagrees with `flipped` (see the
    /// type docs). Zero after `build` and `sync`.
    pub stale_rows: usize,
    /// What a build works in besides the fields above.
    scratch: Scratch,
}

/// What [`InternalForm::rebuild`] works in, kept for the next rebuild:
/// each is written before it is read.
#[derive(Default)]
struct Scratch {
    /// Which variables, and which rows, a build copies.
    copied_var: Vec<bool>,
    copies: Vec<bool>,
    columns: ColumnScratch,
    /// The row store of an earlier build, while the form needs none.
    spare_rows: SparseLines,
}

/// Row `i`'s right-hand side with the variable shifts folded in.
fn shifted_rhs(maps: &[VarMap], problem: &Problem, i: usize) -> f64 {
    let mut b = problem.cons[i].rhs;
    for (uj, a) in problem.terms.line(i) {
        match maps[uj] {
            VarMap::Shift { lb, .. } => b -= a * lb,
            VarMap::Mirror { ub, .. } => b -= a * ub,
            VarMap::Split { .. } => {}
        }
    }
    b
}

/// Whether folding the shifts into row `i`'s right-hand side subtracts
/// nothing but zeros: every variable of the row is free or bounded at
/// exactly 0 on its finite side, every coefficient finite (so each
/// `a * 0.0` is a zero, not a NaN). Subtracting zeros of either sign
/// leaves any right-hand side but `-0.0` bit for bit as it was.
fn unshifted(maps: &[VarMap], problem: &Problem, i: usize) -> bool {
    problem.terms.line(i).all(|(uj, a)| {
        let zero = 0.0_f64.to_bits();
        a.is_finite()
            && match maps[uj] {
                VarMap::Shift { lb: at, .. } | VarMap::Mirror { ub: at, .. } => {
                    at.abs().to_bits() == zero
                }
                VarMap::Split { .. } => true,
            }
    })
}

/// Visit row `i`'s coefficients on internal columns, in term order,
/// before any normalisation flip.
fn for_each_coeff(maps: &[VarMap], problem: &Problem, i: usize, mut visit: impl FnMut(usize, f64)) {
    for (uj, a) in problem.terms.line(i) {
        match maps[uj] {
            VarMap::Shift { col, .. } => visit(col, a),
            VarMap::Mirror { col, .. } => visit(col, -a),
            VarMap::Split { pos, neg } => {
                visit(pos, a);
                visit(neg, -a);
            }
        }
    }
}

/// Add coefficient `a` on a column bounded by `[0, u]` to a row's
/// activity range.
#[inline]
fn widen(lo: &mut f64, hi: &mut f64, a: f64, u: f64) {
    if a > 0.0 {
        *hi += a * u;
    } else if a < 0.0 {
        *lo += a * u;
    }
}

/// The activity range of every row `copies` marks, which lists its own
/// columns: each row's terms [`widen`] its range one after the other in
/// term order, as the build's walk widens it, so every bound is the
/// walk's bit for bit. Where four neighbouring rows are the same run of
/// columns they go side by side, one `upper` read per column and four
/// rows' add chains in flight where one row alone waits out each add's
/// latency.
fn copied_activity(terms: &SparseLines, upper: &[f64], copies: &[bool], lo: &mut [f64], hi: &mut [f64]) {
    let window = |i: usize| {
        let at = terms.range(i);
        (copies[i] && terms.run[i]).then(|| (terms.at[at.start] as usize, at.len()))
    };
    let vals = |i: usize| &terms.val[terms.range(i)];
    let mut i = 0;
    while i < copies.len() {
        let quad = window(i).filter(|_| i + 4 <= copies.len() && (i + 1..i + 4).all(|k| window(k) == window(i)));
        if let Some((first, len)) = quad {
            let (mut l0, mut l1, mut l2, mut l3) = (0.0, 0.0, 0.0, 0.0);
            let (mut h0, mut h1, mut h2, mut h3) = (0.0, 0.0, 0.0, 0.0);
            let rows = vals(i).iter().zip(vals(i + 1)).zip(vals(i + 2)).zip(vals(i + 3));
            for (&u, (((&a0, &a1), &a2), &a3)) in upper[first..first + len].iter().zip(rows) {
                widen(&mut l0, &mut h0, a0, u);
                widen(&mut l1, &mut h1, a1, u);
                widen(&mut l2, &mut h2, a2, u);
                widen(&mut l3, &mut h3, a3, u);
            }
            lo[i..i + 4].copy_from_slice(&[l0, l1, l2, l3]);
            hi[i..i + 4].copy_from_slice(&[h0, h1, h2, h3]);
            i += 4;
            continue;
        }
        if copies[i] {
            for (j, a) in terms.line(i) {
                widen(&mut lo[i], &mut hi[i], a, upper[j]);
            }
        }
        i += 1;
    }
}

/// Columns [`fill_columns`] writes from one list of rows: the entries of
/// a block's rows stay in L1 while its columns are written one after the
/// other.
const COLUMN_BLOCK: usize = 64;

/// What [`fill_columns`] reads besides the rows and works in, kept by a
/// form from one build to the next: each is written before it is read.
#[derive(Default)]
struct ColumnScratch {
    /// Entries of each column.
    in_col: Vec<u32>,
    /// The rows that span a block, and where each keeps its entry in the
    /// block's first column.
    listed: Vec<u32>,
    from: Vec<usize>,
    /// Next free slot of each column.
    next: Vec<u32>,
}

/// Write the column store of a form into `cols`: column `j` holds
/// `scratch.in_col[j]` entries — the structural rows' (`rows`, by row
/// over the `n_struct` structural columns), then each row's slack and
/// artificial singleton. Each column receives its entries in ascending
/// row order, so it is row-sorted with unique row indices; it is a run
/// until an entry lands that does not follow the one before it by one
/// row, and an empty one never was.
///
/// When every row is empty or one run over whole blocks of
/// `COLUMN_BLOCK` columns (the last block may end at `n_struct`) — every
/// row of a room LP spans all its columns — the store is written column
/// after column, front to back, with no zeroed store to scatter into:
/// the rows that span a block are listed once, and each of its columns
/// is exactly those rows, each entry at the column's offset into the
/// row. Any other structure is scattered row by row into columns of the
/// lengths `in_col` gives.
fn fill_columns(
    cols: &mut SparseLines,
    rows: &SparseLines,
    n_struct: usize,
    slack_col: &[Option<usize>],
    art_col: &[Option<usize>],
    ops: &[RowOp],
    scratch: &mut ColumnScratch,
) {
    let ColumnScratch { in_col, listed, from, next } = scratch;
    let nrows = ops.len();
    let slack_sign = |i: usize| if matches!(ops[i], RowOp::Le) { 1.0 } else { -1.0 };
    let window = |i: usize| {
        let at = rows.range(i);
        rows.run[i].then(|| (rows.at[at.start] as usize, at.len()))
    };
    let whole_blocks = (0..nrows).all(|i| {
        rows.range(i).is_empty()
            || window(i).is_some_and(|(first, len)| {
                let end = first + len;
                first % COLUMN_BLOCK == 0 && (end % COLUMN_BLOCK == 0 || end == n_struct)
            })
    });
    if !whole_blocks {
        cols.set_lengths(in_col);
        cols.run.extend(in_col.iter().map(|&len| len > 0));
        next.clear();
        next.extend_from_slice(&cols.start[..in_col.len()]);
        let mut place = |j: usize, i: usize, a: f64| {
            let slot = next[j] as usize;
            if slot > cols.start[j] as usize && cols.at[slot - 1] as usize + 1 != i {
                cols.run[j] = false;
            }
            (cols.at[slot], cols.val[slot]) = (i as u32, a);
            next[j] += 1;
        };
        for i in 0..nrows {
            for (j, a) in rows.line(i) {
                place(j, i, a);
            }
        }
        for (i, (&s, &a)) in slack_col.iter().zip(art_col).enumerate() {
            if let Some(sc) = s {
                place(sc, i, slack_sign(i));
            }
            if let Some(ac) = a {
                place(ac, i, 1.0);
            }
        }
        return;
    }

    cols.clear();
    let total = in_col.iter().map(|&n| n as usize).sum();
    cols.start.reserve(in_col.len());
    cols.at.reserve(total);
    cols.val.reserve(total);
    cols.run.reserve(in_col.len());
    for block in (0..n_struct).step_by(COLUMN_BLOCK) {
        let end = (block + COLUMN_BLOCK).min(n_struct);
        listed.clear();
        from.clear();
        for i in 0..nrows {
            if let Some((first, _)) = window(i).filter(|&(first, len)| first <= block && end <= first + len) {
                listed.push(i as u32);
                from.push(rows.start[i] as usize + block - first);
            }
        }
        let run = !listed.is_empty() && listed.windows(2).all(|w| w[0] + 1 == w[1]);
        for offset in 0..end - block {
            cols.at.extend_from_slice(listed);
            cols.val.extend(from.iter().map(|&k| rows.val[k + offset]));
            cols.run.push(run);
            cols.start.push(cols.at.len() as u32);
        }
    }
    // Slack columns in row order, then artificial columns in row order:
    // one entry each.
    let singletons = (0..nrows)
        .filter_map(|i| slack_col[i].map(|_| (i, slack_sign(i))))
        .chain((0..nrows).filter_map(|i| art_col[i].map(|_| (i, 1.0))));
    for (i, one) in singletons {
        cols.at.push(i as u32);
        cols.val.push(one);
        cols.run.push(true);
        cols.start.push(cols.at.len() as u32);
    }
    debug_assert_eq!(cols.at.len(), total);
}

/// Lay the user variables out in internal columns: how each maps
/// (`maps`), and the upper bound and phase-2 cost of every structural
/// column, written over what the vectors held. Returns the sense sign.
fn lay_out_vars(problem: &Problem, maps: &mut Vec<VarMap>, upper: &mut Vec<f64>, cost: &mut Vec<f64>) -> f64 {
    maps.clear();
    upper.clear();
    cost.clear();
    let sense_sign = match problem.sense {
        Sense::Maximize => -1.0,
        Sense::Minimize => 1.0,
    };
    for v in &problem.vars {
        if v.lower.is_finite() {
            maps.push(VarMap::Shift {
                col: upper.len(),
                lb: v.lower,
            });
            upper.push(v.upper - v.lower);
            cost.push(sense_sign * v.objective);
        } else if v.upper.is_finite() {
            maps.push(VarMap::Mirror {
                col: upper.len(),
                ub: v.upper,
            });
            upper.push(f64::INFINITY);
            cost.push(-sense_sign * v.objective);
        } else {
            maps.push(VarMap::Split {
                pos: upper.len(),
                neg: upper.len() + 1,
            });
            upper.push(f64::INFINITY);
            upper.push(f64::INFINITY);
            cost.push(sense_sign * v.objective);
            cost.push(-sense_sign * v.objective);
        }
    }
    sense_sign
}

/// Lay out the columns after the `n_struct` structural ones for rows
/// with the normalised operators `ops`: slacks in row order, then
/// artificials in row order, written over what `slack_col` and
/// `art_col` held. Returns the first artificial column and the total.
fn lay_out_extra_columns(
    ops: &[RowOp],
    n_struct: usize,
    slack_col: &mut Vec<Option<usize>>,
    art_col: &mut Vec<Option<usize>>,
) -> (usize, usize) {
    slack_col.clear();
    art_col.clear();
    let mut next = n_struct;
    for op in ops {
        let slack = matches!(op, RowOp::Le | RowOp::Ge);
        slack_col.push(slack.then_some(next));
        next += usize::from(slack);
    }
    let art_start = next;
    for op in ops {
        let art = matches!(op, RowOp::Ge | RowOp::Eq);
        art_col.push(art.then_some(next));
        next += usize::from(art);
    }
    (art_start, next)
}

impl InternalForm {
    pub(crate) fn m(&self) -> usize {
        self.rhs.len()
    }

    /// Build the internal form of `problem`: [`InternalForm::rebuild`]
    /// in new storage.
    pub(crate) fn build(problem: &Problem) -> InternalForm {
        let mut form = InternalForm::default();
        form.rebuild(problem);
        form
    }

    /// Make this the internal form of `problem`, in the storage the form
    /// it held occupies.
    ///
    /// A row that needs no rewriting is *copied*: each of its variables
    /// sits in the column of its own index, bounded below at exactly 0
    /// (`Shift { lb: ±0 }`), each coefficient is finite, and the
    /// right-hand side is neither negative nor `-0.0`. Folding its shifts
    /// subtracts zeros that change nothing (the [`unshifted`] equivalence
    /// [`InternalForm::patch_rhs`] relies on) and no flip negates it, so
    /// its shifted right-hand side is the stated one and its entries are
    /// the problem's own. When every row is copied the form keeps no row
    /// store at all: the problem's arena is it. Otherwise a copied row's
    /// entries are copied as slices, and each other row is read once by
    /// a walk that folds the shifts into the right-hand side, decides
    /// [`unshifted`], widens the activity range, lists the coefficients
    /// by row, notes whether their columns are one run and counts what
    /// every column will hold — each in term order, with the expressions
    /// [`shifted_rhs`], [`unshifted`] and [`for_each_coeff`] evaluate for
    /// a patch. Copied rows get their activity ranges from
    /// [`copied_activity`], in term order too. The column store is then
    /// written from the row store by [`fill_columns`]. The form is the one
    /// the separate walks laid out (`build_multipass`, compiled for tests
    /// only, which the crate's property tests hold it to field by field,
    /// built fresh and in storage a larger or a smaller model left).
    pub(crate) fn rebuild(&mut self, problem: &Problem) {
        let nrows = problem.cons.len();
        let InternalForm {
            sense_sign,
            maps,
            upper,
            cost,
            shifted_rhs: shifted,
            unshifted: unshifted_rows,
            act_lo,
            act_hi,
            rhs,
            ops,
            flipped,
            cols,
            rows: row_store,
            slack_col,
            art_col,
            art_start,
            n_total,
            signature: form_signature,
            stale_rows,
            scratch: Scratch { copied_var, copies, columns, spare_rows },
        } = self;
        *sense_sign = lay_out_vars(problem, maps, upper, cost);
        let n_struct = upper.len();
        let terms = &problem.terms;

        // ---- Which rows are copied -------------------------------------
        let zero = 0.0_f64.to_bits();
        copied_var.clear();
        copied_var.extend(
            maps.iter()
                .enumerate()
                .map(|(uj, m)| matches!(*m, VarMap::Shift { col, lb } if col == uj && lb.abs().to_bits() == zero)),
        );
        let every_var_copied = copied_var.iter().all(|&c| c);
        copies.clear();
        copies.extend(problem.cons.iter().enumerate().map(|(i, c)| {
            let at = terms.range(i);
            c.rhs >= 0.0
                && c.rhs.to_bits() != NEG_ZERO
                && (every_var_copied || terms.at[at.clone()].iter().all(|&j| copied_var[j as usize]))
                && terms.val[at].iter().fold(true, |finite, a| finite & a.is_finite())
        }));

        // ---- Rows in internal coordinates --------------------------------
        shifted.clear();
        unshifted_rows.clear();
        for range in [&mut *act_lo, &mut *act_hi] {
            range.clear();
            range.resize(nrows, 0.0);
        }
        copied_activity(terms, upper, copies, act_lo, act_hi);
        rhs.clear();
        ops.clear();
        flipped.clear();
        // A free variable's term is two entries: room for the terms is
        // room for the entries unless the model has such. A form that
        // needs no row store keeps the one it had for the next build.
        let mut store = row_store.take().unwrap_or_else(|| std::mem::take(spare_rows));
        let mut rows = if copies.iter().all(|&c| c) {
            *spare_rows = store;
            None
        } else {
            store.clear();
            store.start.reserve(nrows + 1);
            store.at.reserve(terms.at.len());
            store.val.reserve(terms.at.len());
            store.run.reserve(nrows);
            Some(store)
        };
        let in_col = &mut columns.in_col;
        in_col.clear();
        in_col.resize(n_struct, 0);
        for (i, c) in problem.cons.iter().enumerate() {
            if copies[i] {
                let at = terms.range(i);
                let listed = &terms.at[at.clone()];
                if terms.run[i] {
                    let first = listed[0] as usize;
                    for n in &mut in_col[first..first + listed.len()] {
                        *n += 1;
                    }
                } else {
                    for &j in listed {
                        in_col[j as usize] += 1;
                    }
                }
                if let Some(rows) = &mut rows {
                    rows.at.extend_from_slice(listed);
                    rows.val.extend_from_slice(&terms.val[at]);
                    rows.run.push(terms.run[i]);
                    rows.start.push(rows.at.len() as u32);
                }
                shifted.push(c.rhs);
                unshifted_rows.push(true);
                rhs.push(c.rhs);
                ops.push(c.op);
                flipped.push(false);
                continue;
            }
            let rows = rows.as_mut().expect("a row that is not copied has a store to go to");
            let first = rows.at.len();
            let mut b = c.rhs;
            let mut no_shift = true;
            let (mut lo, mut hi) = (0.0, 0.0);
            // Whether every column so far follows the one before it by
            // one, and the column that would keep that up.
            let (mut run, mut follows) = (true, None);
            let mut visit = |col: usize, a: f64| {
                widen(&mut lo, &mut hi, a, upper[col]);
                run &= follows.is_none_or(|next| next == col);
                follows = Some(col + 1);
                rows.at.push(col as u32);
                rows.val.push(a);
                in_col[col] += 1;
            };
            for (uj, a) in terms.line(i) {
                no_shift &= a.is_finite();
                match maps[uj] {
                    VarMap::Shift { col, lb } => {
                        b -= a * lb;
                        no_shift &= lb.abs().to_bits() == zero;
                        visit(col, a);
                    }
                    VarMap::Mirror { col, ub } => {
                        b -= a * ub;
                        no_shift &= ub.abs().to_bits() == zero;
                        visit(col, -a);
                    }
                    VarMap::Split { pos, neg } => {
                        visit(pos, a);
                        visit(neg, -a);
                    }
                }
            }
            shifted.push(b);
            unshifted_rows.push(no_shift);
            rows.run.push(run && follows.is_some());
            rows.start.push(rows.at.len() as u32);
            act_lo[i] = lo;
            act_hi[i] = hi;
            let mut op = c.op;
            let flip = b < 0.0;
            if flip {
                b = -b;
                for a in &mut rows.val[first..] {
                    *a = -*a;
                }
                op = match op {
                    RowOp::Le => RowOp::Ge,
                    RowOp::Ge => RowOp::Le,
                    RowOp::Eq => RowOp::Eq,
                };
            }
            rhs.push(b);
            ops.push(op);
            flipped.push(flip);
        }
        *row_store = rows;
        let store = row_store.as_ref().unwrap_or(terms);
        // Every index above and below is at most this: each row adds two
        // columns at most and two entries to the column store. (Indices
        // written so far were cut to 32 bits unchecked; none has been
        // read back as one.)
        assert!(
            u32::try_from(store.at.len().max(n_struct) + 2 * nrows).is_ok(),
            "constraint matrix too large to index with u32"
        );

        (*art_start, *n_total) = lay_out_extra_columns(ops, n_struct, slack_col, art_col);
        upper.resize(*n_total, f64::INFINITY);
        cost.resize(*n_total, 0.0);
        columns.in_col.resize(*n_total, 1);
        fill_columns(cols, store, n_struct, slack_col, art_col, ops, columns);

        *form_signature = signature(*sense_sign, maps, problem, ops, flipped);
        *stale_rows = 0;
    }

    /// The structural block by row: the form's own store, or the
    /// problem's arena when that is it entry for entry.
    pub(crate) fn row_store<'a>(&'a self, problem: &'a Problem) -> &'a SparseLines {
        self.rows.as_ref().unwrap_or(&problem.terms)
    }

    fn is_stale(&self, i: usize) -> bool {
        let negative = self.shifted_rhs[i] < 0.0;
        negative != self.flipped[i]
    }

    /// Re-derive row `i`'s right-hand side after `problem.cons[i].rhs`
    /// (or the row's coefficients, which shifts fold into it) changed.
    pub(crate) fn patch_rhs(&mut self, problem: &Problem, i: usize) {
        let was_stale = self.is_stale(i);
        let stated = problem.cons[i].rhs;
        let b = if self.unshifted[i] && stated.to_bits() != NEG_ZERO {
            stated
        } else {
            shifted_rhs(&self.maps, problem, i)
        };
        self.shifted_rhs[i] = b;
        let stale = self.is_stale(i);
        if !stale {
            self.rhs[i] = if self.flipped[i] { -b } else { b };
        }
        self.stale_rows = self.stale_rows + usize::from(stale) - usize::from(was_stale);
    }

    /// Re-derive row `i` after the coefficient values of the problem's
    /// row `i` changed (same variables, same order).
    pub(crate) fn patch_row(&mut self, problem: &Problem, i: usize) {
        let flip = self.flipped[i];
        let (mut lo, mut hi) = (0.0, 0.0);
        let (cols, upper) = (&mut self.cols, &self.upper);
        // `build` laid the row out with this same walk, so the k-th
        // coefficient visited is the k-th entry of the row-major copy. A
        // form without a copy has no flipped row: the problem's arena
        // already holds what would be written.
        let mut own = self.rows.as_mut().map(|rows| (rows.range(i), &mut rows.val));
        debug_assert!(own.is_some() || !flip, "a flipped row has a store of its own");
        for_each_coeff(&self.maps, problem, i, |col, a| {
            widen(&mut lo, &mut hi, a, upper[col]);
            let a = if flip { -a } else { a };
            let slot = cols.slot(col, i);
            cols.val[slot] = a;
            if let Some((at_row, row_vals)) = &mut own {
                let k = at_row.next().expect("a patched row keeps its length");
                row_vals[k] = a;
            }
        });
        self.act_lo[i] = lo;
        self.act_hi[i] = hi;
        self.unshifted[i] = unshifted(&self.maps, problem, i);
        self.patch_rhs(problem, i);
    }

    /// Re-derive the internal cost of user variable `v` after its
    /// objective coefficient changed.
    pub(crate) fn patch_cost(&mut self, problem: &Problem, v: usize) {
        let (sign, objective) = (self.sense_sign, problem.vars[v].objective);
        match self.maps[v] {
            VarMap::Shift { col, .. } => self.cost[col] = sign * objective,
            VarMap::Mirror { col, .. } => self.cost[col] = -sign * objective,
            VarMap::Split { pos, neg } => {
                self.cost[pos] = sign * objective;
                self.cost[neg] = -sign * objective;
            }
        }
    }

    /// Bring the normalised fields up to date with `problem` after
    /// patches moved rows across zero. A no-op when none did.
    pub(crate) fn sync(&mut self, problem: &Problem) {
        if self.stale_rows > 0 {
            self.rebuild(problem);
        }
    }

    /// Row `i`'s entries outside the structural block, `(column, ±1)`:
    /// `+1` on a `Le` slack and on an artificial, `-1` on a `Ge` surplus.
    /// A product with one is the multiplier or its negation, exactly.
    fn singletons(&self, i: usize) -> impl Iterator<Item = (usize, f64)> {
        let sign = if matches!(self.ops[i], RowOp::Le) { 1.0 } else { -1.0 };
        let slack = self.slack_col[i].map(|s| (s, sign));
        slack.into_iter().chain(self.art_col[i].map(|a| (a, 1.0)))
    }

    /// Row `rho` of `B^{-1} A` for every column: `alpha[j] = rho · a_j`,
    /// from the rows whose multiplier is not an exact zero — structural
    /// entries (`rows`, the [`InternalForm::row_store`]), then the row's
    /// slack and artificial — rows ascending.
    ///
    /// Each sum starts at `+0.0` and adds its products in ascending row
    /// order, as the dot product down column `j` does. The terms left out
    /// are exact zeros, and adding `±0` changes no sum that started at
    /// `+0.0` (it can only ever be `+0.0` or nonzero), so every `alpha[j]`
    /// is the column-wise dot product bit for bit.
    pub(crate) fn pivot_row(&self, rows: &SparseLines, rho: &[f64], alpha: &mut Vec<f64>) {
        alpha.clear();
        alpha.resize(self.n_total, 0.0);
        for (i, &r) in rho.iter().enumerate() {
            if r == 0.0 { // lint: allow(float-eq): a row is skipped only when every product in it is an exact zero
                continue;
            }
            rows.scatter(i, r, alpha, Scatter::Add);
            for (j, one) in self.singletons(i) {
                alpha[j] += r * one;
            }
        }
    }

    /// Reduced cost of every column: `d[j] = costs[j] - y · a_j`, the
    /// bits [`InternalForm::column_reduced_cost`] gives column by column,
    /// from the rows [`InternalForm::pivot_row`] would walk.
    ///
    /// Subtracting the `±0` of a skipped row changes a running sum only
    /// when that sum is `-0.0` (`-0.0 - (-0.0)` is `+0.0`), and a sum is
    /// `-0.0` only while it is still the untouched cost it started from:
    /// exact cancellation gives `+0.0`. A cost is `-0.0` when `Maximize`
    /// negates a zero objective coefficient; those columns are priced
    /// down their column instead, so the pass is exact by construction
    /// rather than up to the sign of a zero — which `total_cmp` in the
    /// dual ratio test would see.
    pub(crate) fn reduced_costs(&self, rows: &SparseLines, costs: &[f64], y: &[f64], d: &mut Vec<f64>) {
        d.clear();
        d.extend_from_slice(costs);
        for (i, &yi) in y.iter().enumerate() {
            if yi == 0.0 { // lint: allow(float-eq): a row is skipped only when every product in it is an exact zero
                continue;
            }
            rows.scatter(i, yi, d, Scatter::Sub);
            for (j, one) in self.singletons(i) {
                d[j] -= yi * one;
            }
        }
        for (j, c) in costs.iter().enumerate() {
            if c.to_bits() == (-0.0_f64).to_bits() {
                d[j] = self.column_reduced_cost(costs, y, j);
            }
        }
    }

    /// Reduced cost of column `j`, term by term down the column.
    pub(crate) fn column_reduced_cost(&self, costs: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = costs[j];
        for (i, a) in self.cols.line(j) {
            d -= y[i] * a;
        }
        d
    }

    /// `b − Σ_{j at upper} u_j a_j`: what the basic variables are left to
    /// meet once every nonbasic column rests at its bound. Columns
    /// ascending, each down its rows.
    pub(crate) fn rhs_at_bounds(&self, state: &[VarState], upper: &[f64], rhs: &mut Vec<f64>) {
        rhs.clone_from(&self.rhs);
        for (j, (&st, &u)) in state.iter().zip(upper).enumerate() {
            if st == VarState::Upper && u != 0.0 { // lint: allow(float-eq): skip columns pinned at a zero bound; exact zeros only
                self.cols.scatter(j, u, rhs, Scatter::Sub);
            }
        }
    }

    /// A row no point inside the column bounds can satisfy, and by how
    /// much it is missed: a `<=` row whose smallest activity still
    /// exceeds the right-hand side by more than `tol`, a `>=` row whose
    /// largest activity falls short of it (`==`: either). Reads only
    /// `shifted_rhs` and the activity range, which patches keep current
    /// even on stale rows, so a sweep can reject a candidate without
    /// normalising it. O(rows).
    ///
    /// In normalised terms the rows caught are `Ge`/`Eq` rows whose
    /// maximum activity cannot reach a positive right-hand side, where
    /// phase 1 would leave that row's artificial at no less than the
    /// shortfall: the verdict is phase 1's, reached early.
    pub(crate) fn infeasible_row(&self, problem: &Problem, tol: f64) -> Option<f64> {
        let mut worst = tol;
        for (i, c) in problem.cons.iter().enumerate() {
            let b = self.shifted_rhs[i];
            let miss = match c.op {
                RowOp::Le => self.act_lo[i] - b,
                RowOp::Ge => b - self.act_hi[i],
                RowOp::Eq => (self.act_lo[i] - b).max(b - self.act_hi[i]),
            };
            // `max` drops the NaN of an infinite bound against an
            // infinite right-hand side.
            worst = worst.max(miss);
        }
        (worst > tol).then_some(worst)
    }

    /// Map an unbounded internal column back to a user variable name.
    pub(crate) fn unbounded_var_name(&self, problem: &Problem, q: usize) -> String {
        self.maps
            .iter()
            .enumerate()
            .find_map(|(ui, vm)| match *vm {
                VarMap::Shift { col, .. } | VarMap::Mirror { col, .. } if col == q => {
                    Some(problem.var_name(ui).to_owned())
                }
                VarMap::Split { pos, neg } if pos == q || neg == q => {
                    Some(problem.var_name(ui).to_owned())
                }
                _ => None,
            })
            .unwrap_or_else(|| format!("slack#{q}"))
    }
}

#[cfg(test)]
impl InternalForm {
    /// [`InternalForm::build`] as it ran before its walks were merged: a
    /// pass over the terms each for the entry count, [`shifted_rhs`],
    /// [`unshifted`] and [`for_each_coeff`], then the finished stores
    /// read again for the column lengths and the runs. The oracle the
    /// one-walk build is held to.
    pub(crate) fn build_multipass(problem: &Problem) -> InternalForm {
        let nrows = problem.cons.len();
        let (mut maps, mut upper, mut cost) = (Vec::new(), Vec::new(), Vec::new());
        let sense_sign = lay_out_vars(problem, &mut maps, &mut upper, &mut cost);
        let n_struct = upper.len();

        let mut shifted = Vec::with_capacity(nrows);
        let mut unshifted_rows = Vec::with_capacity(nrows);
        let mut act_lo = Vec::with_capacity(nrows);
        let mut act_hi = Vec::with_capacity(nrows);
        let mut rhs = Vec::with_capacity(nrows);
        let mut ops = Vec::with_capacity(nrows);
        let mut flipped = Vec::with_capacity(nrows);
        let nnz: usize = problem
            .terms
            .at
            .iter()
            .map(|&uj| if matches!(maps[uj as usize], VarMap::Split { .. }) { 2 } else { 1 })
            .sum();
        assert!(
            u32::try_from(nnz.max(n_struct) + 2 * nrows).is_ok(),
            "constraint matrix too large to index with u32"
        );
        let mut rows = SparseLines {
            start: Vec::with_capacity(nrows + 1),
            at: Vec::with_capacity(nnz),
            val: Vec::with_capacity(nnz),
            run: Vec::new(),
        };
        rows.start.push(0);
        for (i, c) in problem.cons.iter().enumerate() {
            let mut b = shifted_rhs(&maps, problem, i);
            shifted.push(b);
            unshifted_rows.push(unshifted(&maps, problem, i));
            let first = rows.at.len();
            let (mut lo, mut hi) = (0.0, 0.0);
            for_each_coeff(&maps, problem, i, |col, a| {
                widen(&mut lo, &mut hi, a, upper[col]);
                rows.at.push(col as u32);
                rows.val.push(a);
            });
            rows.start.push(rows.at.len() as u32);
            act_lo.push(lo);
            act_hi.push(hi);
            let mut op = c.op;
            let flip = b < 0.0;
            if flip {
                b = -b;
                for a in &mut rows.val[first..] {
                    *a = -*a;
                }
                op = match op {
                    RowOp::Le => RowOp::Ge,
                    RowOp::Ge => RowOp::Le,
                    RowOp::Eq => RowOp::Eq,
                };
            }
            rhs.push(b);
            ops.push(op);
            flipped.push(flip);
        }
        rows.mark_runs();

        let (mut slack_col, mut art_col) = (Vec::new(), Vec::new());
        let (art_start, n_total) = lay_out_extra_columns(&ops, n_struct, &mut slack_col, &mut art_col);
        upper.resize(n_total, f64::INFINITY);
        cost.resize(n_total, 0.0);

        let mut in_col = vec![0u32; n_total];
        for &j in &rows.at {
            in_col[j as usize] += 1;
        }
        in_col[n_struct..].fill(1);
        let mut cols = SparseLines::default();
        cols.set_lengths(&in_col);
        let mut next: Vec<u32> = cols.start[..n_total].to_vec();
        let mut place = |j: usize, i: usize, a: f64| {
            let slot = next[j] as usize;
            (cols.at[slot], cols.val[slot]) = (i as u32, a);
            next[j] += 1;
        };
        for i in 0..nrows {
            for (j, a) in rows.line(i) {
                place(j, i, a);
            }
        }
        for (i, (&s, &a)) in slack_col.iter().zip(&art_col).enumerate() {
            if let Some(sc) = s {
                place(sc, i, if matches!(ops[i], RowOp::Le) { 1.0 } else { -1.0 });
            }
            if let Some(ac) = a {
                place(ac, i, 1.0);
            }
        }
        cols.mark_runs();

        let signature = signature(sense_sign, &maps, problem, &ops, &flipped);
        InternalForm {
            sense_sign,
            maps,
            upper,
            cost,
            shifted_rhs: shifted,
            unshifted: unshifted_rows,
            act_lo,
            act_hi,
            rhs,
            ops,
            flipped,
            cols,
            rows: Some(rows),
            slack_col,
            art_col,
            art_start,
            n_total,
            signature,
            stale_rows: 0,
            scratch: Scratch::default(),
        }
    }
}

/// Structural signature of the internal form, for warm-start validation.
///
/// A warm [`crate::Basis`] is only meaningful when the perturbed problem
/// maps to the *same column layout*: same sense, same per-variable
/// bound-finiteness pattern (Shift/Mirror/Split), same row count, same
/// normalized ops and rhs-flip pattern (slack signs and artificial
/// allocation depend on them). Coefficient *values* are deliberately
/// excluded — perturbing costs/RHS/coefficients is exactly the warm-start
/// use case. FNV-1a, masked to 48 bits so the value survives an f64-backed
/// JSON round trip exactly.
fn signature(
    sense_sign: f64,
    maps: &[VarMap],
    problem: &Problem,
    ops: &[RowOp],
    flipped: &[bool],
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(if sense_sign < 0.0 { 1 } else { 0 });
    eat_usize(&mut eat, problem.vars.len());
    for m in maps {
        eat(match m {
            VarMap::Shift { .. } => 0,
            VarMap::Mirror { .. } => 1,
            VarMap::Split { .. } => 2,
        });
    }
    eat_usize(&mut eat, ops.len());
    for (op, &f) in ops.iter().zip(flipped) {
        let opb = match op {
            RowOp::Le => 0u8,
            RowOp::Ge => 1,
            RowOp::Eq => 2,
        };
        eat(opb << 1 | u8::from(f));
    }
    h & 0x0000_ffff_ffff_ffff
}

fn eat_usize(eat: &mut impl FnMut(u8), x: usize) {
    for b in (x as u64).to_le_bytes() {
        eat(b);
    }
}
