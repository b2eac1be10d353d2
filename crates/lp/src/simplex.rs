//! Two-phase primal simplex on a dense tableau with implicit variable
//! bounds — the workspace's original engine, kept as the **fallback
//! oracle** for the sparse revised simplex in [`crate::revised`].
//!
//! Both engines share one problem rewriting ([`crate::internal`]): finite
//! lower bounds shifted to zero, `(-inf, ub]` variables mirrored, free
//! variables split, slack/surplus and artificial columns appended, and
//! negative right-hand sides negated. Phase 1 minimizes the sum of
//! artificial variables; phase 2 the real objective.
//!
//! Nonbasic variables sit at either bound (`Lower`/`Upper`), so box
//! constraints never become rows — essential for the Stage-1 LPs whose
//! piecewise-linear segment variables are all box-bounded.
//!
//! Because the engines share the internal column layout, the dense path
//! also emits a [`crate::Basis`] handle, and warm/cold cross-checks in
//! tests can hand bases across engines.

use crate::basis::Basis;
use crate::internal::{InternalForm, VarState};
use crate::model::{Problem, RowOp};
use crate::solution::{LpError, Solution};
use thermaware_linalg::Matrix;

/// Entries smaller than this are unusable as pivots.
const PIVOT_EPS: f64 = 1e-9;
/// Reduced-cost optimality tolerance (scaled by the objective magnitude).
const COST_TOL: f64 = 1e-9;
/// Phase-1 residual above which the problem is declared infeasible.
const FEAS_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_LIMIT: usize = 60;

/// Internal-invariant breach (corrupted tableau bookkeeping) surfaced as
/// the iteration-pathology error instead of a panic. Callers already
/// treat [`LpError::IterationLimit`] as "numerical breakdown, do not
/// trust this solve", which is the right response — and the solver must
/// be panic-free under the runtime supervisor's replan path.
fn internal_pathology(iterations: usize) -> LpError {
    LpError::IterationLimit { limit: iterations }
}

/// Which cost vector is active. Carrying the selector instead of cloned
/// cost vectors keeps repeated solves allocation-light: phase-1 costs are
/// an indicator function of the artificial range and phase-2 costs live
/// in the tableau already, so neither phase materializes a `Vec`.
#[derive(Clone, Copy)]
enum Phase {
    One,
    Two,
}

struct Tableau {
    /// `B^{-1} A`, dense, m x n.
    t: Matrix,
    /// Current values of basic variables, one per row.
    xb: Vec<f64>,
    /// Reduced costs, one per column (relative to the active phase costs).
    d: Vec<f64>,
    /// Column index of the basic variable of each row.
    basis: Vec<usize>,
    /// State of every column.
    state: Vec<VarState>,
    /// Upper bound of every column (internal coordinates, >= 0).
    upper: Vec<f64>,
    /// Phase-2 (real) cost of every column.
    cost: Vec<f64>,
    /// First artificial column (artificials occupy `art_start..n`).
    art_start: usize,
    iterations: usize,
    degen_run: usize,
    /// Degenerate pivots over the whole solve (observability statistic;
    /// `degen_run` is the consecutive-run trigger for Bland's rule).
    degen_total: usize,
    bland: bool,
}

enum StepResult {
    Optimal,
    Progress,
    Unbounded(usize),
    /// A tableau invariant broke mid-step — solver bug, surfaced as
    /// [`LpError::Internal`] rather than a panic (DESIGN.md §6).
    Broken(&'static str),
}

impl Tableau {
    fn m(&self) -> usize {
        self.t.rows()
    }

    fn n(&self) -> usize {
        self.t.cols()
    }

    /// Current value of column `j`. Errors when a column marked basic is
    /// missing from the basis — a bookkeeping corruption that must fail
    /// the solve, not the process.
    fn value_of(&self, j: usize) -> Result<f64, LpError> {
        Ok(match self.state[j] {
            VarState::Lower => 0.0,
            VarState::Upper => self.upper[j],
            VarState::Basic => {
                let row = self
                    .basis
                    .iter()
                    .position(|&b| b == j)
                    .ok_or_else(|| internal_pathology(self.iterations))?;
                self.xb[row]
            }
        })
    }

    /// Recompute reduced costs `d = c - c_B^T (B^{-1}A)` for the active
    /// phase. O(mn), done once per phase — with no cost-vector clone.
    fn reset_reduced_costs(&mut self, phase: Phase) {
        let Tableau {
            t,
            d,
            basis,
            cost,
            art_start,
            ..
        } = self;
        let cost_of = |j: usize| match phase {
            Phase::One => {
                if j >= *art_start {
                    1.0
                } else {
                    0.0
                }
            }
            Phase::Two => cost[j],
        };
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = cost_of(j);
        }
        for i in 0..t.rows() {
            let cb = cost_of(basis[i]);
            if cb != 0.0 { // lint: allow(float-eq): sparsity skip on a stored basis cost; exact zeros only
                let row = t.row(i);
                for (dj, tij) in d.iter_mut().zip(row) {
                    *dj -= cb * tij;
                }
            }
        }
    }

    /// Pick an entering column, or `None` at optimality.
    ///
    /// A column improves the (minimization) objective when it can move and
    /// its reduced cost points downhill: `d < 0` for a variable at its
    /// lower bound (it wants to increase), `d > 0` at its upper bound (it
    /// wants to decrease).
    fn choose_entering(&self, tol: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut best_gain = tol;
        for j in 0..self.n() {
            let (gain, dir) = match self.state[j] {
                VarState::Basic => continue,
                VarState::Lower => (-self.d[j], 1.0),
                VarState::Upper => (self.d[j], -1.0),
            };
            // Fixed columns (u == 0) cannot move; artificials are fixed
            // this way after phase 1.
            if self.upper[j] <= 0.0 {
                continue;
            }
            if gain > best_gain {
                if self.bland {
                    // Bland's rule: first eligible index. Guarantees
                    // termination under degeneracy.
                    return Some((j, dir));
                }
                best = Some((j, dir));
                best_gain = gain;
            }
        }
        best
    }

    /// One simplex step with the active costs. `tol` is the entering
    /// eligibility threshold.
    fn step(&mut self, tol: f64) -> StepResult {
        let Some((q, dir)) = self.choose_entering(tol) else {
            return StepResult::Optimal;
        };

        // Ratio test: how far can x_q move (by t >= 0 in direction `dir`)
        // before a basic variable hits one of its bounds, or x_q hits its
        // own opposite bound?
        let mut t_best = self.upper[q]; // own bound flip distance
        let mut leave: Option<(usize, VarState)> = None; // (row, bound hit)
        for i in 0..self.m() {
            let alpha = dir * self.t[(i, q)];
            let k = self.basis[i];
            if alpha > PIVOT_EPS {
                // Basic variable decreases toward its lower bound 0.
                let t_i = (self.xb[i].max(0.0)) / alpha;
                if t_i < t_best - 1e-12
                    || (t_i < t_best + 1e-12
                        && leave.is_some_and(|(r, _)| {
                            self.t[(r, q)].abs() < self.t[(i, q)].abs()
                        }))
                {
                    t_best = t_i;
                    leave = Some((i, VarState::Lower));
                }
            } else if alpha < -PIVOT_EPS {
                let uk = self.upper[k];
                if uk.is_finite() {
                    // Basic variable increases toward its upper bound.
                    let t_i = ((uk - self.xb[i]).max(0.0)) / (-alpha);
                    if t_i < t_best - 1e-12
                        || (t_i < t_best + 1e-12
                            && leave.is_some_and(|(r, _)| {
                                self.t[(r, q)].abs() < self.t[(i, q)].abs()
                            }))
                    {
                        t_best = t_i;
                        leave = Some((i, VarState::Upper));
                    }
                }
            }
        }

        if t_best.is_infinite() {
            return StepResult::Unbounded(q);
        }
        self.iterations += 1;
        if t_best <= 1e-12 {
            self.degen_run += 1;
            self.degen_total += 1;
            if self.degen_run > DEGEN_LIMIT && !self.bland {
                self.bland = true;
                thermaware_obs::counter_add("lp.bland_switches", 1);
            }
        } else {
            self.degen_run = 0;
        }

        // Update basic values along the direction.
        if t_best != 0.0 { // lint: allow(float-eq): degenerate step detection wants exact zero, not a tolerance
            for i in 0..self.m() {
                let delta = dir * t_best * self.t[(i, q)];
                self.xb[i] -= delta;
            }
        }

        match leave {
            None => {
                // Bound flip: x_q traverses its whole box and becomes
                // nonbasic at the other bound. No pivot.
                self.state[q] = match self.state[q] {
                    VarState::Lower => VarState::Upper,
                    VarState::Upper => VarState::Lower,
                    // `choose_entering` only returns nonbasic columns, so
                    // a basic entering column means the tableau state is
                    // corrupt — report it instead of panicking.
                    VarState::Basic => return StepResult::Broken("entering column was basic"),
                };
            }
            Some((r, hit)) => {
                let k = self.basis[r];
                let x_q_new = if dir > 0.0 {
                    t_best
                } else {
                    self.upper[q] - t_best
                };
                // Pivot on (r, q). The ratio test only admits entries
                // above PIVOT_EPS, so a smaller pivot here means the
                // tableau itself has decayed (or was corrupted): surface
                // the typed error instead of silently dividing by it —
                // in release builds the old debug_assert! vanished and a
                // garbage pivot would poison every later iteration.
                let piv = self.t[(r, q)];
                if piv.abs() <= PIVOT_EPS * 1e-3 {
                    return StepResult::Broken("tiny pivot");
                }
                let inv = 1.0 / piv;
                {
                    let row_r = self.t.row_mut(r);
                    for v in row_r.iter_mut() {
                        *v *= inv;
                    }
                }
                for i in 0..self.m() {
                    if i == r {
                        continue;
                    }
                    let f = self.t[(i, q)];
                    if f == 0.0 { // lint: allow(float-eq): sparsity skip on a stored column entry; exact zeros only
                        continue;
                    }
                    let (row_r, row_i) = self.t.two_rows_mut(r, i);
                    for (vi, vr) in row_i.iter_mut().zip(row_r.iter()) {
                        *vi -= f * *vr;
                    }
                    // Re-zero explicitly to stop error accumulation in the
                    // pivot column.
                    row_i[q] = 0.0;
                }
                let f = self.d[q];
                if f != 0.0 { // lint: allow(float-eq): sparsity skip on a stored column entry; exact zeros only
                    let row_r = self.t.row(r);
                    for (dj, vr) in self.d.iter_mut().zip(row_r) {
                        *dj -= f * vr;
                    }
                    self.d[q] = 0.0;
                }
                self.basis[r] = q;
                self.state[q] = VarState::Basic;
                self.state[k] = hit;
                self.xb[r] = x_q_new;
            }
        }
        StepResult::Progress
    }

    /// Run simplex steps until optimality / unboundedness / the cap.
    fn run(&mut self, tol: f64, cap: usize) -> Result<Option<usize>, LpError> {
        loop {
            if self.iterations > cap {
                return Err(LpError::IterationLimit { limit: cap });
            }
            match self.step(tol) {
                StepResult::Optimal => return Ok(None),
                StepResult::Progress => {}
                StepResult::Unbounded(q) => return Ok(Some(q)),
                StepResult::Broken(what) => {
                    return Err(LpError::Internal { what: what.to_string() })
                }
            }
        }
    }
}

/// Solve `problem` with the dense engine.
///
/// Observability wrapper around [`solve_impl`]: per-solve wall time,
/// iteration/pivot/degeneracy statistics, and outcome counters. The LP
/// solver is the innermost hot loop of the whole stack (the CRAC search
/// calls it per candidate), so all metrics of a solve are batched into a
/// single recorder visit, and no span is opened here — `lp.solve_us` is
/// the per-solve timing. With no recorder installed this adds one
/// relaxed atomic load to the solve.
pub(crate) fn solve(problem: &Problem) -> Result<Solution, LpError> {
    let mut degen = 0usize;
    if !thermaware_obs::enabled() {
        return solve_impl(problem, &mut degen);
    }
    let start = std::time::Instant::now();
    let result = solve_impl(problem, &mut degen);
    let elapsed_us = start.elapsed().as_micros() as f64;
    thermaware_obs::with_recorder(|r| {
        r.counter_add("lp.solves", 1);
        r.observe("lp.solve_us", elapsed_us);
        r.observe("lp.degenerate_steps", degen as f64);
        match &result {
            Ok(sol) => {
                r.counter_add("lp.pivots", sol.iterations as u64);
                r.observe("lp.iterations", sol.iterations as f64);
            }
            Err(LpError::Infeasible { .. }) => r.counter_add("lp.infeasible", 1),
            Err(LpError::Unbounded { .. }) => r.counter_add("lp.unbounded", 1),
            Err(LpError::IterationLimit { .. }) => r.counter_add("lp.iteration_limit", 1),
            Err(LpError::Internal { .. }) => r.counter_add("lp.internal_error", 1),
        }
    });
    result
}

fn solve_impl(problem: &Problem, degen_out: &mut usize) -> Result<Solution, LpError> {
    let f = InternalForm::build(problem);
    let nrows = f.m();
    let n_total = f.n_total;

    // ---- Assemble the dense tableau from the sparse columns --------------
    let mut t = Matrix::zeros(nrows, n_total);
    for j in 0..n_total {
        for (i, a) in f.cols.line(j) {
            t[(i, j)] = a;
        }
    }
    let mut basis = vec![usize::MAX; nrows];
    let mut state = vec![VarState::Lower; n_total];
    for i in 0..nrows {
        // Each row's starting basic column: its slack for `Le`, its
        // artificial for `Ge`/`Eq`. A mismatch is bookkeeping corruption;
        // fail the solve, not the process.
        let basic = match (f.ops[i], f.slack_col[i], f.art_col[i]) {
            (RowOp::Le, Some(s), _) => s,
            (RowOp::Ge, Some(_), Some(a)) | (RowOp::Eq, None, Some(a)) => a,
            _ => return Err(internal_pathology(0)),
        };
        basis[i] = basic;
        state[basic] = VarState::Basic;
    }

    let mut tab = Tableau {
        t,
        xb: f.rhs.clone(),
        d: vec![0.0; n_total],
        basis,
        state,
        upper: f.upper.clone(),
        cost: f.cost.clone(),
        art_start: f.art_start,
        iterations: 0,
        degen_run: 0,
        degen_total: 0,
        bland: false,
    };
    let cap = 200 * (nrows + n_total + 10);

    // ---- Phase 1 ----------------------------------------------------------
    let needs_phase1 = f.art_col.iter().any(Option::is_some);
    if needs_phase1 {
        tab.reset_reduced_costs(Phase::One);
        if let Some(_q) = tab.run(FEAS_TOL * 1e-2, cap)? {
            // Phase 1 is bounded below by 0, so "unbounded" here means a
            // numerical breakdown; report as an iteration pathology.
            return Err(LpError::IterationLimit { limit: cap });
        }
        let residual: f64 = (0..nrows)
            .filter(|&i| tab.basis[i] >= tab.art_start)
            .map(|i| tab.xb[i].max(0.0))
            .sum::<f64>()
            + (tab.art_start..n_total)
                .filter(|&j| tab.state[j] == VarState::Upper)
                .map(|j| tab.upper[j])
                .sum::<f64>();
        if residual > FEAS_TOL {
            return Err(LpError::Infeasible { residual });
        }
        // Freeze artificials at zero so phase 2 cannot revive them. Basic
        // artificials (at value ~0 in degenerate rows) are left in place;
        // the ratio test will evict them on the first pivot that touches
        // their row.
        for j in tab.art_start..n_total {
            tab.upper[j] = 0.0;
            if tab.state[j] == VarState::Upper {
                tab.state[j] = VarState::Lower;
            }
        }
    }

    // ---- Phase 2 ----------------------------------------------------------
    tab.reset_reduced_costs(Phase::Two);
    let cost_scale = 1.0 + tab.cost.iter().fold(0.0_f64, |m, c| m.max(c.abs()));
    if let Some(q) = tab.run(COST_TOL * cost_scale, cap)? {
        return Err(LpError::Unbounded {
            var: f.unbounded_var_name(problem, q),
        });
    }

    let (values, duals) = extract(problem, &tab, &f)?;
    let objective = problem.objective_value(&values);
    debug_assert!(
        {
            // Internal objective plus the constant folded out of
            // shifts/mirrors must agree with the recomputed user-space
            // objective.
            let internal: f64 = (0..tab.n())
                .map(|j| tab.cost[j] * tab.value_of(j).unwrap_or(0.0))
                .sum();
            let obj_const: f64 = problem
                .vars
                .iter()
                .map(|v| {
                    let at = if v.lower.is_finite() { v.lower } else { v.upper };
                    if at.is_finite() { f.sense_sign * v.objective * at } else { 0.0 }
                })
                .sum();
            (f.sense_sign * objective - (internal + obj_const)).abs()
                <= 1e-6 * (1.0 + objective.abs() + obj_const.abs())
        },
        "objective bookkeeping mismatch"
    );
    *degen_out = tab.degen_total;
    Ok(Solution {
        objective,
        values,
        duals,
        iterations: tab.iterations,
        basis: Some(Basis::capture(f.signature, &tab.basis, &tab.state)),
    })
}

/// Recover user-space variable values and row duals from the tableau.
fn extract(
    problem: &Problem,
    tab: &Tableau,
    f: &InternalForm,
) -> Result<(Vec<f64>, Vec<f64>), LpError> {
    use crate::internal::VarMap;
    let values: Vec<f64> = f
        .maps
        .iter()
        .map(|m| {
            Ok(match *m {
                VarMap::Shift { col, lb } => lb + tab.value_of(col)?,
                VarMap::Mirror { col, ub } => ub - tab.value_of(col)?,
                VarMap::Split { pos, neg } => tab.value_of(pos)? - tab.value_of(neg)?,
            })
        })
        .collect::<Result<_, LpError>>()?;

    // Row duals: the reference column of row i (its slack, else its
    // artificial) has A_j = ±e_i and zero phase-2 cost, so its reduced
    // cost pins down y_i.
    let duals: Vec<f64> = (0..problem.cons.len())
        .map(|i| {
            let (col, coef) = match (f.slack_col[i], f.art_col[i]) {
                (Some(s), _) => {
                    // Slack coefficient is +1 for Le rows, -1 for Ge rows
                    // (post-normalization op).
                    let c = match f.ops[i] {
                        RowOp::Le => 1.0,
                        _ => -1.0,
                    };
                    (s, c)
                }
                (None, Some(a)) => (a, 1.0),
                (None, None) => return 0.0,
            };
            // d_col = 0 - y_i * coef  =>  y_i = -d_col / coef.
            let y_int = -tab.d[col] / coef;
            let flip = if f.flipped[i] { -1.0 } else { 1.0 };
            f.sense_sign * flip * y_int
        })
        .collect();
    Ok((values, duals))
}
