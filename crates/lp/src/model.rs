use crate::basis::Basis;
use crate::internal::{InternalForm, SparseLines};
use crate::revised;
use crate::solution::{LpError, Solution};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Relational operator of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp {
    /// `a · x <= rhs`
    Le,
    /// `a · x >= rhs`
    Ge,
    /// `a · x == rhs`
    Eq,
}

/// Handle to a decision variable of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// Handle to a constraint row of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
}

/// A row's operator and right-hand side; its terms are line `i` of
/// [`Problem::terms`].
#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub op: RowOp,
    pub rhs: f64,
}

/// An LP model under construction.
///
/// Variables carry box bounds `[lower, upper]` (either side may be
/// infinite) and an objective coefficient; constraints are sparse rows.
/// Call [`Problem::solve`] for an optimum; a pure feasibility problem (the
/// Appendix-B coefficient generator's) is one with a zero objective.
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    /// Every variable's name, one after the other: variable `j`'s ends
    /// at `name_end[j]` and starts where variable `j - 1`'s ends.
    names: String,
    name_end: Vec<usize>,
    pub(crate) cons: Vec<Constraint>,
    /// Every row's terms in one arena, row after row: line `i` holds row
    /// `i`'s `(variable, coefficient)` pairs in the order the row lists
    /// them (duplicates merged), `run` whether its variables ascend by
    /// one. A row is written here once, by [`Problem::add_row_with`].
    pub(crate) terms: SparseLines,
}

/// The terms of the row [`Problem::add_row_with`] is adding, written
/// straight into the problem's arena (held here while the row is open,
/// so that the writes go to buffers nothing else can reach).
pub struct RowTerms {
    at: Vec<u32>,
    val: Vec<f64>,
    n_vars: usize,
}

impl RowTerms {
    /// Append the term `coeff · var`. A row lists each variable at most
    /// once (checked in debug builds when the row is closed).
    #[inline]
    pub fn push(&mut self, var: VarId, coeff: f64) {
        debug_assert!(var.0 < self.n_vars, "row references unknown variable");
        debug_assert!(!coeff.is_nan(), "NaN coefficient");
        self.at.push(var.0 as u32);
        self.val.push(coeff);
    }
}

/// The one solve path behind [`Problem::solve_warm`] and
/// [`crate::Prepared::solve_warm`]: the revised simplex on `form` (built
/// on the spot when the caller keeps none), its optimum written into
/// `out`. A debug build certifies every optimum it returns.
pub(crate) fn solve_with(
    problem: &Problem,
    form: Option<&mut InternalForm>,
    ws: &mut revised::Workspace,
    warm: Option<&Basis>,
    out: &mut Solution,
) -> Result<(), LpError> {
    let result = revised::solve(problem, form, ws, warm, out);
    #[cfg(debug_assertions)]
    if result.is_ok() {
        let certified = crate::certify(problem, out);
        assert!(certified.is_ok(), "the solve returned a refuted optimum: {certified:?}");
    }
    result
}

impl Problem {
    /// Create an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            vars: Vec::new(),
            names: String::new(),
            name_end: Vec::new(),
            cons: Vec::new(),
            terms: SparseLines::empty(),
        }
    }

    /// Empty the problem for a new model of the given direction, keeping
    /// the buffers the last one grew.
    pub(crate) fn clear(&mut self, sense: Sense) {
        self.sense = sense;
        self.vars.clear();
        self.names.clear();
        self.name_end.clear();
        self.cons.clear();
        self.terms.clear();
    }

    /// Make room for `rows` more rows of `terms` terms in all, so that
    /// writing them never moves the arena.
    pub fn reserve_rows(&mut self, rows: usize, terms: usize) {
        self.cons.reserve(rows);
        self.terms.start.reserve(rows);
        self.terms.run.reserve(rows);
        self.terms.at.reserve(terms);
        self.terms.val.reserve(terms);
    }

    /// Add a decision variable.
    ///
    /// `lower`/`upper` are the box bounds (use `f64::NEG_INFINITY` /
    /// `f64::INFINITY` for free sides); `objective` is the coefficient in
    /// the objective function.
    ///
    /// # Panics
    /// Panics if `lower > upper` or any argument is NaN — these are
    /// modeling bugs, not runtime conditions.
    pub fn add_var(&mut self, name: &str, lower: f64, upper: f64, objective: f64) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan() && !objective.is_nan(),
            "NaN in variable '{name}'");
        assert!(lower <= upper, "variable '{name}': lower {lower} > upper {upper}");
        assert!(self.vars.len() < u32::MAX as usize, "too many variables to index with u32");
        self.vars.push(Variable {
            lower,
            upper,
            objective,
        });
        self.names.push_str(name);
        self.name_end.push(self.names.len());
        VarId(self.vars.len() - 1)
    }

    /// The name variable `j` was added under.
    pub(crate) fn var_name(&self, j: usize) -> &str {
        let start = if j == 0 { 0 } else { self.name_end[j - 1] };
        &self.names[start..self.name_end[j]]
    }

    /// Add a constraint row `Σ coeff·var (op) rhs`.
    ///
    /// Repeated `VarId`s in `terms` are summed. Zero coefficients are kept
    /// (they are harmless and preserve the caller's row structure).
    ///
    /// # Panics
    /// Panics on NaN coefficients/rhs or out-of-range variable ids.
    pub fn add_row(&mut self, name: &str, terms: &[(VarId, f64)], op: RowOp, rhs: f64) -> ConstraintId {
        assert!(!rhs.is_nan(), "NaN rhs in row '{name}'");
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(VarId(j), c) in terms {
            assert!(j < self.vars.len(), "row '{name}' references unknown variable");
            assert!(!c.is_nan(), "NaN coefficient in row '{name}'");
            dense.push((j, c));
        }
        // Merge duplicate columns. Small rows keep the original linear
        // scan (first-occurrence order, no sort overhead); larger rows
        // switch to sort-then-merge so a row with hundreds of terms costs
        // O(k log k) instead of the old quadratic scan. The sort is
        // stable, so repeated columns still sum in caller order.
        const SCAN_LIMIT: usize = 32;
        if dense.len() <= SCAN_LIMIT {
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(dense.len());
            for (j, c) in dense {
                match merged.iter_mut().find(|(jj, _)| *jj == j) {
                    Some((_, acc)) => *acc += c,
                    None => merged.push((j, c)),
                }
            }
            dense = merged;
        } else {
            // Remember first-occurrence rank so the merged row preserves
            // the caller's column order, like the small-row path.
            let mut first_rank: Vec<(usize, usize, f64)> = Vec::with_capacity(dense.len());
            for (rank, &(j, c)) in dense.iter().enumerate() {
                first_rank.push((j, rank, c));
            }
            first_rank.sort_by_key(|&(j, rank, _)| (j, rank));
            let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(first_rank.len());
            for (j, rank, c) in first_rank {
                match merged.last_mut() {
                    Some((jj, _, acc)) if *jj == j => *acc += c,
                    _ => merged.push((j, rank, c)),
                }
            }
            merged.sort_by_key(|&(_, rank, _)| rank);
            dense = merged.into_iter().map(|(j, _, c)| (j, c)).collect();
        }
        self.add_row_with(name, op, rhs, |row| {
            for (j, c) in dense {
                row.push(VarId(j), c);
            }
        })
    }

    /// Like [`Problem::add_row`] but without duplicate-term merging — the
    /// caller guarantees each `VarId` appears at most once. Use for large
    /// machine-generated rows (e.g. the thermal constraint rows, whose
    /// hundreds of terms would make the quadratic dedup scan the
    /// bottleneck).
    pub fn add_row_nodup(
        &mut self,
        name: &str,
        terms: &[(VarId, f64)],
        op: RowOp,
        rhs: f64,
    ) -> ConstraintId {
        self.add_row_with(name, op, rhs, |row| {
            for &(v, c) in terms {
                row.push(v, c);
            }
        })
    }

    /// Add the row `Σ coeff·var (op) rhs` whose terms `write` pushes, in
    /// order, straight into the problem's arena: a generated row is
    /// written once, with no list of terms in between. Each variable at
    /// most once, as for [`Problem::add_row_nodup`].
    ///
    /// # Panics
    /// Panics on a NaN rhs, and when the arena outgrows `u32` indices.
    pub fn add_row_with(
        &mut self,
        name: &str,
        op: RowOp,
        rhs: f64,
        write: impl FnOnce(&mut RowTerms),
    ) -> ConstraintId {
        assert!(!rhs.is_nan(), "NaN rhs in row '{name}'");
        let first = self.terms.at.len();
        let mut row = RowTerms {
            at: std::mem::take(&mut self.terms.at),
            val: std::mem::take(&mut self.terms.val),
            n_vars: self.vars.len(),
        };
        write(&mut row);
        (self.terms.at, self.terms.val) = (row.at, row.val);
        // Whether the row's variables ascend by one; a row without terms
        // is no run.
        let listed = &self.terms.at[first..];
        let run = !listed.is_empty() && listed.windows(2).all(|w| w[1] == w[0] + 1);
        let end = u32::try_from(self.terms.at.len()).expect("row terms too many to index with u32");
        // (A run lists each variable once by construction.)
        debug_assert!(
            run || {
                let mut seen = self.terms.at[first..].to_vec();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate variable in row '{name}'"
        );
        self.terms.start.push(end);
        self.terms.run.push(run);
        self.cons.push(Constraint { op, rhs });
        ConstraintId(self.cons.len() - 1)
    }

    /// Number of variables added so far.
    #[cfg(test)]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Change a variable's objective coefficient in place (used when the
    /// same constraint structure is re-solved with a different objective).
    pub fn set_var_objective(&mut self, v: VarId, objective: f64) {
        assert!(!objective.is_nan());
        self.vars[v.0].objective = objective;
    }

    /// Change a variable's bounds in place.
    ///
    /// # Panics
    /// Panics if `lower > upper` or either is NaN.
    pub fn set_var_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        assert!(!lower.is_nan() && !upper.is_nan());
        assert!(lower <= upper, "set_var_bounds: lower {lower} > upper {upper}");
        self.vars[v.0].lower = lower;
        self.vars[v.0].upper = upper;
    }

    /// Solve the LP to optimality.
    ///
    /// Returns the optimal [`Solution`], or an [`LpError`] describing
    /// infeasibility / unboundedness / numerical failure.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_warm(None)
    }

    /// Solve with an optional warm-start [`Basis`] from a previous solve
    /// of a structurally identical problem (same variables, bound
    /// finiteness, rows, and operators — costs, bounds, right-hand sides,
    /// and coefficient values may differ).
    ///
    /// A stale or mismatched basis silently degrades to a cold solve;
    /// warm-starting can never change the answer, only the pivot count.
    /// The returned [`Solution`] carries a fresh basis — chain it through
    /// repeated re-solves via [`Solution::take_basis`].
    pub fn solve_warm(&self, warm: Option<&Basis>) -> Result<Solution, LpError> {
        let mut sol = Solution::empty();
        solve_with(self, None, &mut revised::Workspace::default(), warm, &mut sol)?;
        Ok(sol)
    }

    /// Evaluate the objective at a given point (no feasibility check).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        self.vars
            .iter()
            .zip(x)
            .map(|(v, xi)| v.objective * xi)
            .sum()
    }

    /// Maximum constraint violation of a point (0 when feasible): rows
    /// and variable bounds.
    #[cfg(test)]
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        let mut worst = 0.0_f64;
        for v in self.vars.iter().zip(x.iter()) {
            let (var, &xi) = v;
            if var.lower.is_finite() {
                worst = worst.max(var.lower - xi);
            }
            if var.upper.is_finite() {
                worst = worst.max(xi - var.upper);
            }
        }
        for (i, c) in self.cons.iter().enumerate() {
            let lhs: f64 = self.terms.line(i).map(|(j, a)| a * x[j]).sum();
            let viol = match c.op {
                RowOp::Le => lhs - c.rhs,
                RowOp::Ge => c.rhs - lhs,
                RowOp::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0, 1.0);
        p.add_row("r", &[(x, 1.0), (x, 2.0)], RowOp::Le, 6.0);
        // 3x <= 6 -> x = 2 at optimum.
        let sol = p.solve().unwrap();
        assert!((sol.values[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn large_row_dedup_is_linearithmic() {
        // Regression for the old quadratic dedup scan: a 1k-term row with
        // every column duplicated (2000 terms) must build instantly. The
        // wall-clock bound is generous — the quadratic scan at this size
        // costs millions of comparisons and repeated builds made the
        // Stage-1 row assembly measurable; the merge path is ~10^4 ops.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..1000).map(|j| p.add_var(&format!("x{j}"), 0.0, 1.0, 0.0)).collect();
        let mut terms = Vec::with_capacity(2000);
        for (i, &v) in vars.iter().enumerate() {
            terms.push((v, i as f64));
        }
        for (i, &v) in vars.iter().enumerate().rev() {
            terms.push((v, 2.0 * i as f64));
        }
        let start = std::time::Instant::now();
        for r in 0..100 {
            p.add_row(&format!("r{r}"), &terms, RowOp::Le, 1.0);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "dedup blew up: {:?}",
            start.elapsed()
        );
        // Merged correctly: each column once, coefficients summed, in
        // first-occurrence order.
        let row: Vec<(usize, f64)> = p.terms.line(0).collect();
        assert_eq!(row.len(), 1000);
        for (i, &(j, c)) in row.iter().enumerate() {
            assert_eq!(j, i);
            assert!((c - 3.0 * i as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn small_and_large_dedup_paths_agree() {
        // The same duplicated terms through both paths (below and above
        // the scan limit) must produce identical rows.
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..20).map(|j| p.add_var(&format!("x{j}"), 0.0, 1.0, 0.0)).collect();
        // 30 terms (small path): columns 0..10 twice, 10..20 once.
        let mut small: Vec<(VarId, f64)> = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            small.push((v, i as f64 + 1.0));
        }
        for (i, &v) in vars.iter().take(10).enumerate() {
            small.push((v, 10.0 * (i as f64 + 1.0)));
        }
        p.add_row("small", &small, RowOp::Le, 1.0);
        // Pad with repeats of the last column to cross the limit without
        // changing the merge result except in the last coefficient.
        let mut large = small.clone();
        for _ in 0..20 {
            large.push((vars[19], 0.0));
        }
        p.add_row("large", &large, RowOp::Le, 1.0);
        assert!(p.terms.line(0).eq(p.terms.line(1)));
    }

    #[test]
    #[should_panic(expected = "lower")]
    fn inverted_bounds_panic() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var("x", 1.0, 0.0, 0.0);
    }

    #[test]
    fn max_violation_reports_worst() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        let y = p.add_var("y", 0.0, 1.0, 1.0);
        p.add_row("r", &[(x, 1.0), (y, 1.0)], RowOp::Le, 1.0);
        assert_eq!(p.max_violation(&[0.5, 0.5]), 0.0);
        assert!((p.max_violation(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((p.max_violation(&[-0.5, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn objective_value_is_linear() {
        let mut p = Problem::new(Sense::Minimize);
        let _x = p.add_var("x", 0.0, 1.0, 2.0);
        let _y = p.add_var("y", 0.0, 1.0, -3.0);
        assert_eq!(p.objective_value(&[1.0, 1.0]), -1.0);
        assert_eq!(p.objective_value(&[0.0, 2.0]), -6.0);
    }
}
