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
//! The constraint matrix is stored **column-major and sparse** — the
//! revised simplex only ever touches whole columns (FTRAN of the entering
//! column, pricing dot products), and the dense tableau assembles its
//! `m × n` matrix from the same columns. Keeping one builder guarantees the
//! two engines agree on column indexing, which is what makes a [`Basis`]
//! handle produced by either engine consumable by the other.
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
        let mut row_coeffs: Vec<Vec<(usize, f64)>> = Vec::with_capacity(nrows);
        for c in &problem.cons {
            let mut b = shifted_rhs(&maps, c);
            shifted.push(b);
            unshifted_rows.push(unshifted(&maps, c));
            let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 2);
            let (mut lo, mut hi) = (0.0, 0.0);
            for_each_coeff(&maps, c, |col, a| {
                widen(&mut lo, &mut hi, a, upper[col]);
                coeffs.push((col, a));
            });
            act_lo.push(lo);
            act_hi.push(hi);
            let mut op = c.op;
            let flip = b < 0.0;
            if flip {
                b = -b;
                for (_, a) in &mut coeffs {
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
            row_coeffs.push(coeffs);
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
        for (i, coeffs) in row_coeffs.iter().enumerate() {
            for &(j, a) in coeffs {
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
        for_each_coeff(&self.maps, c, |col, a| {
            widen(&mut lo, &mut hi, a, upper[col]);
            let column = &mut cols[col];
            let at = column
                .binary_search_by_key(&i, |&(row, _)| row)
                .expect("every term of a row has an entry in its column");
            column[at].1 = if flip { -a } else { a };
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
