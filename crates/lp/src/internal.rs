//! Shared internal form of an LP: the rewriting both simplex engines
//! (dense tableau and sparse revised) run on.
//!
//! Internal form: `min c·x  s.t.  A x = b,  0 <= x_j <= u_j` (each `u_j`
//! possibly infinite). User problems are rewritten into this form: finite
//! lower bounds are shifted to zero, `(-inf, ub]` variables are mirrored,
//! free variables are split, inequality rows gain slack/surplus columns,
//! rows with negative right-hand sides are negated, and `Ge`/`Eq` rows get
//! artificial columns for the phase-1 cold start.
//!
//! The constraint matrix is stored sparse and **twice**. Column-major
//! (`cols`) is what the basis is assembled from — the factorisation, the
//! FTRAN of the entering column, the dense tableau's `m × n` matrix — and
//! what fixes the column indexing both engines share, which is what makes
//! a [`Basis`] handle produced by either engine consumable by the other.
//! Row-major (`rows`, the structural block only) is what the revised
//! simplex prices with: the dual pivot row `rho·A` and the reduced costs
//! `c - y·A` are wanted for every column at once from a `rho` or `y` that
//! is mostly exact zeros, so [`InternalForm::for_each_row_product`] walks
//! the rows whose multiplier is not zero and nothing else. Each column
//! still receives its products in ascending row order, the order of its
//! entry in `cols`, so the sums are the column-wise dot products bit for
//! bit (DESIGN §10).
//!
//! [`Basis`]: crate::Basis

use crate::model::{Constraint, Problem, RowOp, Sense};

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

/// One sparse internal column: `(row, coefficient)` pairs, row-sorted.
pub(crate) type SparseCol = Vec<(usize, f64)>;

/// The structural block by row (CSR): row `i` holds the coefficients
/// `val[start[i]..start[i + 1]]` on the columns `col[..]`, in the order
/// the problem's row lists its terms and with the row's normalisation
/// sign applied — entry for entry the values `cols` holds. Slack and
/// artificial columns are not listed: each is a single `±1` that
/// `slack_col`, `art_col` and `ops` already describe.
#[derive(Debug)]
pub(crate) struct SparseRows {
    pub(crate) start: Vec<u32>,
    pub(crate) col: Vec<u32>,
    pub(crate) val: Vec<f64>,
}

impl SparseRows {
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.start[i] as usize..self.start[i + 1] as usize
    }

    /// `(column, coefficient)` pairs of row `i`.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let at = self.range(i);
        self.col[at.clone()]
            .iter()
            .zip(&self.val[at])
            .map(|(&j, &a)| (j as usize, a))
    }
}

/// The rewritten problem both engines solve.
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
/// [`build`]: InternalForm::build
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
    /// Sparse columns, including slack and artificial columns.
    pub cols: Vec<SparseCol>,
    /// The structural columns again, by row.
    pub rows: SparseRows,
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
}

/// Row `c`'s right-hand side with the variable shifts folded in.
fn shifted_rhs(maps: &[VarMap], c: &Constraint) -> f64 {
    let mut b = c.rhs;
    for &(uj, a) in &c.terms {
        match maps[uj] {
            VarMap::Shift { lb, .. } => b -= a * lb,
            VarMap::Mirror { ub, .. } => b -= a * ub,
            VarMap::Split { .. } => {}
        }
    }
    b
}

/// Whether folding the shifts into row `c`'s right-hand side subtracts
/// nothing but zeros: every variable of the row is free or bounded at
/// exactly 0 on its finite side, every coefficient finite (so each
/// `a * 0.0` is a zero, not a NaN). Subtracting zeros of either sign
/// leaves any right-hand side but `-0.0` bit for bit as it was.
fn unshifted(maps: &[VarMap], c: &Constraint) -> bool {
    c.terms.iter().all(|&(uj, a)| {
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

/// Visit row `c`'s coefficients on internal columns, in term order,
/// before any normalisation flip.
fn for_each_coeff(maps: &[VarMap], c: &Constraint, mut visit: impl FnMut(usize, f64)) {
    for &(uj, a) in &c.terms {
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
fn widen(lo: &mut f64, hi: &mut f64, a: f64, u: f64) {
    if a > 0.0 {
        *hi += a * u;
    } else if a < 0.0 {
        *lo += a * u;
    }
}

impl InternalForm {
    pub(crate) fn m(&self) -> usize {
        self.rhs.len()
    }

    /// Build the internal form of `problem`.
    pub(crate) fn build(problem: &Problem) -> InternalForm {
        let nrows = problem.cons.len();

        // ---- Column layout of user variables ----------------------------
        let mut maps: Vec<VarMap> = Vec::with_capacity(problem.vars.len());
        let mut upper: Vec<f64> = Vec::new();
        let mut cost: Vec<f64> = Vec::new();
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
        let n_struct = upper.len();

        // ---- Rows in internal coordinates --------------------------------
        // Structural coefficients land in a scratch row first (terms are
        // already deduplicated by the model), then scatter into columns.
        let mut shifted = Vec::with_capacity(nrows);
        let mut unshifted_rows = Vec::with_capacity(nrows);
        let mut act_lo = Vec::with_capacity(nrows);
        let mut act_hi = Vec::with_capacity(nrows);
        let mut rhs = Vec::with_capacity(nrows);
        let mut ops = Vec::with_capacity(nrows);
        let mut flipped = Vec::with_capacity(nrows);
        let nnz: usize = problem
            .cons
            .iter()
            .flat_map(|c| &c.terms)
            .map(|&(uj, _)| if matches!(maps[uj], VarMap::Split { .. }) { 2 } else { 1 })
            .sum();
        assert!(
            u32::try_from(nnz.max(n_struct)).is_ok(),
            "constraint matrix too large to index with u32"
        );
        let mut rows = SparseRows {
            start: Vec::with_capacity(nrows + 1),
            col: Vec::with_capacity(nnz),
            val: Vec::with_capacity(nnz),
        };
        rows.start.push(0);
        for c in &problem.cons {
            let mut b = shifted_rhs(&maps, c);
            shifted.push(b);
            unshifted_rows.push(unshifted(&maps, c));
            let first = rows.col.len();
            let (mut lo, mut hi) = (0.0, 0.0);
            for_each_coeff(&maps, c, |col, a| {
                widen(&mut lo, &mut hi, a, upper[col]);
                rows.col.push(col as u32);
                rows.val.push(a);
            });
            rows.start.push(rows.col.len() as u32);
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

        // ---- Slack then artificial columns -------------------------------
        let mut slack_col: Vec<Option<usize>> = vec![None; nrows];
        let mut next = n_struct;
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, RowOp::Le | RowOp::Ge) {
                slack_col[i] = Some(next);
                next += 1;
            }
        }
        let art_start = next;
        let mut art_col: Vec<Option<usize>> = vec![None; nrows];
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, RowOp::Ge | RowOp::Eq) {
                art_col[i] = Some(next);
                next += 1;
            }
        }
        let n_total = next;
        upper.resize(n_total, f64::INFINITY);
        cost.resize(n_total, 0.0);

        // ---- Scatter into sparse columns ---------------------------------
        let mut cols: Vec<SparseCol> = vec![Vec::new(); n_total];
        for i in 0..nrows {
            for (j, a) in rows.row(i) {
                cols[j].push((i, a));
            }
        }
        // Rows are scanned in order and maps are injective, so each column
        // ends up row-sorted with unique row indices.
        for (i, (&s, &a)) in slack_col.iter().zip(&art_col).enumerate() {
            if let Some(sc) = s {
                let coef = if matches!(ops[i], RowOp::Le) { 1.0 } else { -1.0 };
                cols[sc].push((i, coef));
            }
            if let Some(ac) = a {
                cols[ac].push((i, 1.0));
            }
        }

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
            rows,
            slack_col,
            art_col,
            art_start,
            n_total,
            signature,
            stale_rows: 0,
        }
    }

    fn is_stale(&self, i: usize) -> bool {
        let negative = self.shifted_rhs[i] < 0.0;
        negative != self.flipped[i]
    }

    /// Re-derive row `i`'s right-hand side after `problem.cons[i].rhs`
    /// (or the row's coefficients, which shifts fold into it) changed.
    pub(crate) fn patch_rhs(&mut self, problem: &Problem, i: usize) {
        let was_stale = self.is_stale(i);
        let c = &problem.cons[i];
        let b = if self.unshifted[i] && c.rhs.to_bits() != (-0.0_f64).to_bits() {
            c.rhs
        } else {
            shifted_rhs(&self.maps, c)
        };
        self.shifted_rhs[i] = b;
        let stale = self.is_stale(i);
        if !stale {
            self.rhs[i] = if self.flipped[i] { -b } else { b };
        }
        self.stale_rows = self.stale_rows + usize::from(stale) - usize::from(was_stale);
    }

    /// Re-derive row `i` after the coefficient values of
    /// `problem.cons[i]` changed (same variables, same order).
    pub(crate) fn patch_row(&mut self, problem: &Problem, i: usize) {
        let c = &problem.cons[i];
        let flip = self.flipped[i];
        let (mut lo, mut hi) = (0.0, 0.0);
        let (cols, upper) = (&mut self.cols, &self.upper);
        // `build` laid the row out with this same walk, so the k-th
        // coefficient visited is the k-th entry of the row-major copy.
        let mut at_row = self.rows.range(i);
        let row_vals = &mut self.rows.val;
        for_each_coeff(&self.maps, c, |col, a| {
            widen(&mut lo, &mut hi, a, upper[col]);
            let a = if flip { -a } else { a };
            let column = &mut cols[col];
            let at = column
                .binary_search_by_key(&i, |&(row, _)| row)
                .expect("every term of a row has an entry in its column");
            column[at].1 = a;
            let k = at_row.next().expect("a patched row keeps its length");
            row_vals[k] = a;
        });
        self.act_lo[i] = lo;
        self.act_hi[i] = hi;
        self.unshifted[i] = unshifted(&self.maps, c);
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
            *self = InternalForm::build(problem);
        }
    }

    /// Visit `(j, mult[i] · a_ij)` for every entry of every row whose
    /// multiplier is not an exact zero — structural entries, then the
    /// row's slack and artificial — rows ascending. Column `j` therefore
    /// meets its products in the order of `cols[j]`, minus the ones that
    /// are `±0` because the multiplier is.
    #[inline]
    pub(crate) fn for_each_row_product(&self, mult: &[f64], mut visit: impl FnMut(usize, f64)) {
        for (i, &y) in mult.iter().enumerate() {
            if y == 0.0 { // lint: allow(float-eq): a row is skipped only when every product in it is an exact zero
                continue;
            }
            for (j, a) in self.rows.row(i) {
                visit(j, y * a);
            }
            // The singletons' coefficients: `+1` (`Le` slack, artificial)
            // or `-1` (`Ge` surplus); the product is `y` or `-y` exactly.
            if let Some(s) = self.slack_col[i] {
                visit(s, if matches!(self.ops[i], RowOp::Le) { y } else { -y });
            }
            if let Some(a) = self.art_col[i] {
                visit(a, y);
            }
        }
    }

    /// Row `rho` of `B^{-1} A` for every column: `alpha[j] = rho · a_j`.
    ///
    /// Each sum starts at `+0.0` and adds its products in ascending row
    /// order, as the dot product down `cols[j]` does. The terms left out
    /// are exact zeros, and adding `±0` changes no sum that started at
    /// `+0.0` (it can only ever be `+0.0` or nonzero), so every `alpha[j]`
    /// is the column-wise dot product bit for bit.
    pub(crate) fn pivot_row(&self, rho: &[f64], alpha: &mut Vec<f64>) {
        alpha.clear();
        alpha.resize(self.n_total, 0.0);
        self.for_each_row_product(rho, |j, p| alpha[j] += p);
    }

    /// Reduced cost of every column: `d[j] = costs[j] - y · a_j`, the
    /// bits [`InternalForm::column_reduced_cost`] gives column by column.
    ///
    /// Subtracting the `±0` of a skipped row changes a running sum only
    /// when that sum is `-0.0` (`-0.0 - (-0.0)` is `+0.0`), and a sum is
    /// `-0.0` only while it is still the untouched cost it started from:
    /// exact cancellation gives `+0.0`. A cost is `-0.0` when `Maximize`
    /// negates a zero objective coefficient; those columns are priced
    /// down their column instead, so the pass is exact by construction
    /// rather than up to the sign of a zero — which `total_cmp` in the
    /// dual ratio test would see.
    pub(crate) fn reduced_costs(&self, costs: &[f64], y: &[f64], d: &mut Vec<f64>) {
        d.clear();
        d.extend_from_slice(costs);
        self.for_each_row_product(y, |j, p| d[j] -= p);
        for (j, c) in costs.iter().enumerate() {
            if c.to_bits() == (-0.0_f64).to_bits() {
                d[j] = self.column_reduced_cost(costs, y, j);
            }
        }
    }

    /// Reduced cost of column `j`, term by term down the column.
    pub(crate) fn column_reduced_cost(&self, costs: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = costs[j];
        for &(i, a) in &self.cols[j] {
            d -= y[i] * a;
        }
        d
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
                    Some(problem.vars[ui].name.clone())
                }
                VarMap::Split { pos, neg } if pos == q || neg == q => {
                    Some(problem.vars[ui].name.clone())
                }
                _ => None,
            })
            .unwrap_or_else(|| format!("slack#{q}"))
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
