//! An optimality certificate, checked from the problem as it was stated.
//!
//! [`certify`] reads the [`Problem`]'s rows, bounds and costs and the
//! [`Solution`]'s `values` and `duals`, and nothing else: no basis, no
//! internal form, none of the engine's arithmetic. What it accepts is
//! optimal by LP duality, not by agreeing with the code that solved it.
//!
//! With `s = +1` for `Minimize` and `-1` for `Maximize`, the duals of
//! [`Solution::duals`] (sign convention there) and the reduced costs
//! `d = c − Aᵀy`, four checks:
//!
//! 1. *primal* — every row meets its right-hand side, every value lies
//!    inside its bounds;
//! 2. *row duals* — `s·yᵢ ≥ 0` on a `>=` row, `≤ 0` on a `<=` row;
//! 3. *reduced costs* — `s·dⱼ ≥ 0` where `xⱼ` sits at its lower bound,
//!    `≤ 0` at its upper, `dⱼ = 0` between them (either sign when it sits
//!    at both);
//! 4. *gap* — `c·x = b·y + Σⱼ dⱼ·boundⱼ`, `boundⱼ` the bound `xⱼ` sits at
//!    (`xⱼ` itself between).
//!
//! Together they are the proof: for any feasible `x'`,
//! `s·(c·x' − c·x) = s·y·(Ax' − b) + Σⱼ s·dⱼ·(x'ⱼ − boundⱼ) − s·gap`, where
//! checks 2 and 3 make every term of the two sums non-negative, so no
//! feasible point beats `x` by more than the gap. Each check holds to
//! [`TOL`] times the scale its own rounding grows with.

use crate::model::{ConstraintId, Problem, RowOp, Sense, VarId};
use crate::solution::Solution;
use std::fmt;

/// The one tolerance of every check, relative to that check's scale.
const TOL: f64 = 1e-6;

/// What [`certify`] measured on a solution it accepted. The residuals
/// are relative to the scale each was checked against, so each is at
/// most the certifier's tolerance (`1e-6`).
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// `c·x`.
    pub primal_objective: f64,
    /// `b·y + Σⱼ dⱼ·boundⱼ`: the bound the duals prove.
    pub dual_objective: f64,
    /// Largest row or bound violation.
    pub primal_residual: f64,
    /// Largest wrong-signed row dual or reduced cost.
    pub dual_residual: f64,
    /// `|c·x − dual_objective|`.
    pub gap: f64,
}

/// The first check a solution fails, the row or variable, and the value.
#[derive(Debug, Clone, PartialEq)]
pub enum CertError {
    /// `values` or `duals` is not one entry per variable or row.
    Shape { values: usize, duals: usize },
    /// A row misses its right-hand side by `residual`.
    Row { row: ConstraintId, residual: f64 },
    /// A value lies `residual` outside its bounds.
    Bound { var: VarId, residual: f64 },
    /// A row dual has the wrong sign for its row's operator.
    DualSign { row: ConstraintId, dual: f64 },
    /// A reduced cost `cⱼ − (Aᵀy)ⱼ` points away from where its variable
    /// sits.
    ReducedCost { var: VarId, reduced_cost: f64 },
    /// `c·x` and `b·y + Σⱼ dⱼ·boundⱼ` differ.
    Gap { primal: f64, dual: f64 },
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Shape { values, duals } => {
                write!(f, "{values} values and {duals} duals do not fit the problem")
            }
            CertError::Row { row, residual } => {
                write!(f, "row {} misses its right-hand side by {residual:.3e}", row.0)
            }
            CertError::Bound { var, residual } => {
                write!(f, "variable {} lies {residual:.3e} outside its bounds", var.0)
            }
            CertError::DualSign { row, dual } => {
                write!(f, "row {} has a dual of the wrong sign: {dual:.3e}", row.0)
            }
            CertError::ReducedCost { var, reduced_cost: d } => {
                write!(f, "variable {} has a reduced cost of the wrong sign: {d:.3e}", var.0)
            }
            CertError::Gap { primal, dual } => {
                write!(f, "duality gap: primal {primal:.9e} vs dual {dual:.9e}")
            }
        }
    }
}

impl std::error::Error for CertError {}

/// Whether a measured violation `r` exceeds `tol`; a NaN does.
fn fails(r: f64, tol: f64) -> bool {
    r.is_nan() || r > tol
}

/// Where a value sits between its bounds.
#[derive(Clone, Copy)]
enum Sits {
    Lower,
    Upper,
    /// At both bounds: a fixed variable, or one whose box is narrower
    /// than the tolerance.
    Both,
    Between,
}

/// Check that `sol` is an optimum of `problem`; see the module docs.
pub fn certify(problem: &Problem, sol: &Solution) -> Result<Certificate, CertError> {
    let (x, y) = (&sol.values, &sol.duals);
    if x.len() != problem.vars.len() || y.len() != problem.cons.len() {
        return Err(CertError::Shape { values: x.len(), duals: y.len() });
    }
    let s = match problem.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    // ---- 1. Primal residuals ---------------------------------------------
    let mut primal_residual = 0.0_f64;
    for (i, c) in problem.cons.iter().enumerate() {
        let (mut lhs, mut scale) = (0.0, 1.0 + c.rhs.abs());
        for (j, a) in problem.terms.line(i) {
            let ax = a * x[j];
            lhs += ax;
            scale += ax.abs();
        }
        let miss = match c.op {
            RowOp::Le => lhs - c.rhs,
            RowOp::Ge => c.rhs - lhs,
            RowOp::Eq => (lhs - c.rhs).abs(),
        };
        let r = miss / scale;
        if fails(r, TOL) {
            return Err(CertError::Row { row: ConstraintId(i), residual: miss });
        }
        primal_residual = primal_residual.max(r);
    }
    let mut sits = Vec::with_capacity(x.len());
    for (j, (v, &xj)) in problem.vars.iter().zip(x).enumerate() {
        let tol = TOL * (1.0 + xj.abs());
        let miss = (v.lower - xj).max(xj - v.upper);
        if fails(miss, tol) {
            return Err(CertError::Bound { var: VarId(j), residual: miss });
        }
        primal_residual = primal_residual.max(miss / (1.0 + xj.abs()));
        sits.push(match (xj - v.lower <= tol, v.upper - xj <= tol) {
            (true, true) => Sits::Both,
            (true, false) => Sits::Lower,
            (false, true) => Sits::Upper,
            (false, false) => Sits::Between,
        });
    }

    // ---- 2. Row dual signs -----------------------------------------------
    // Duals, reduced costs and their rounding all grow with the costs.
    let cost_scale = 1.0 + problem.vars.iter().fold(0.0_f64, |m, v| m.max(v.objective.abs()));
    let mut dual_residual = 0.0_f64;
    for (i, (c, &yi)) in problem.cons.iter().zip(y).enumerate() {
        let wrong = match c.op {
            RowOp::Le => s * yi,
            RowOp::Ge => -s * yi,
            RowOp::Eq => 0.0,
        };
        let r = wrong / cost_scale;
        if fails(r, TOL) {
            return Err(CertError::DualSign { row: ConstraintId(i), dual: yi });
        }
        dual_residual = dual_residual.max(r);
    }

    // ---- 3. Reduced-cost signs -------------------------------------------
    let mut d: Vec<f64> = problem.vars.iter().map(|v| v.objective).collect();
    let mut d_scale = vec![cost_scale; d.len()];
    for (i, &yi) in y.iter().enumerate() {
        for (j, a) in problem.terms.line(i) {
            let ay = a * yi;
            d[j] -= ay;
            d_scale[j] += ay.abs();
        }
    }
    for j in 0..d.len() {
        let sd = s * d[j];
        let wrong = match sits[j] {
            Sits::Lower => -sd,
            Sits::Upper => sd,
            Sits::Both => 0.0,
            Sits::Between => sd.abs(),
        };
        let r = wrong / d_scale[j];
        if fails(r, TOL) {
            return Err(CertError::ReducedCost { var: VarId(j), reduced_cost: d[j] });
        }
        dual_residual = dual_residual.max(r);
    }

    // ---- 4. Duality gap --------------------------------------------------
    let (mut primal, mut dual, mut scale) = (0.0, 0.0, 1.0);
    for (c, &yi) in problem.cons.iter().zip(y) {
        dual += c.rhs * yi;
        scale += (c.rhs * yi).abs();
    }
    for (j, (v, &xj)) in problem.vars.iter().zip(x).enumerate() {
        let bound = match sits[j] {
            Sits::Lower | Sits::Both => v.lower,
            Sits::Upper => v.upper,
            Sits::Between => xj,
        };
        primal += v.objective * xj;
        dual += d[j] * bound;
        scale += (v.objective * xj).abs() + (d[j] * bound).abs();
    }
    let gap = (primal - dual).abs();
    if fails(gap, TOL * scale) {
        return Err(CertError::Gap { primal, dual });
    }
    Ok(Certificate {
        primal_objective: primal,
        dual_objective: dual,
        primal_residual,
        dual_residual,
        gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// max 3x + 2y  s.t.  x + y <= 4,  x in [0, 2],  y >= 0: the optimum
    /// x = 2 at its upper bound, y = 2 between, the row binding at dual 2.
    fn solved() -> (Problem, Solution) {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 2.0, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
        p.add_row("cap", &[(x, 1.0), (y, 1.0)], RowOp::Le, 4.0);
        let sol = p.solve().expect("a bounded, feasible LP");
        (p, sol)
    }

    #[test]
    fn an_optimum_certifies() {
        let (p, sol) = solved();
        let cert = certify(&p, &sol).unwrap();
        assert!((cert.primal_objective - 10.0).abs() < 1e-12);
        assert!((cert.dual_objective - 10.0).abs() < 1e-12);
        assert!(cert.gap <= 1e-12 && cert.primal_residual <= 1e-12 && cert.dual_residual <= 1e-12);
    }

    #[test]
    fn a_value_past_its_bound_fails_the_primal_check() {
        let (p, mut sol) = solved();
        sol.values = vec![2.5, 1.5];
        match certify(&p, &sol) {
            Err(CertError::Bound { var, residual, .. }) => {
                assert_eq!(var, VarId(0));
                assert!((residual - 0.5).abs() < 1e-12);
            }
            other => panic!("expected a bound residual, got {other:?}"),
        }
        sol.values = vec![2.0, 2.5];
        assert!(matches!(
            certify(&p, &sol),
            Err(CertError::Row {
                row: ConstraintId(0),
                ..
            })
        ));
    }

    #[test]
    fn a_binding_rows_dual_of_the_wrong_sign_fails_the_dual_check() {
        let (p, mut sol) = solved();
        sol.duals[0] = -sol.duals[0];
        match certify(&p, &sol) {
            Err(CertError::DualSign { row, dual, .. }) => {
                assert_eq!(row, ConstraintId(0));
                assert!((dual + 2.0).abs() < 1e-12);
            }
            other => panic!("expected a wrong-signed dual, got {other:?}"),
        }
    }

    #[test]
    fn a_nonbasic_value_off_its_bound_fails_the_reduced_cost_check() {
        // x = 1.5 is feasible (3.5 <= 4) but not optimal: between its
        // bounds its reduced cost 3 - 2 must vanish, and it is 1.
        let (p, mut sol) = solved();
        sol.values[0] = 1.5;
        match certify(&p, &sol) {
            Err(CertError::ReducedCost {
                var, reduced_cost, ..
            }) => {
                assert_eq!(var, VarId(0));
                assert!((reduced_cost - 1.0).abs() < 1e-12);
            }
            other => panic!("expected a reduced cost, got {other:?}"),
        }
    }

    #[test]
    fn duals_on_a_slack_row_fail_the_gap_check() {
        // max x  s.t.  x <= 1,  x <= 3,  x in [0, 5]: splitting the dual
        // between the binding row and the slack one keeps every sign
        // right, and proves only 0.5 + 1.5 = 2 against the optimum 1.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 5.0, 1.0);
        p.add_row("tight", &[(x, 1.0)], RowOp::Le, 1.0);
        p.add_row("slack", &[(x, 1.0)], RowOp::Le, 3.0);
        let mut sol = p.solve().unwrap();
        certify(&p, &sol).unwrap();
        sol.duals = vec![0.5, 0.5];
        match certify(&p, &sol) {
            Err(CertError::Gap { primal, dual }) => {
                assert!((primal - 1.0).abs() < 1e-12);
                assert!((dual - 2.0).abs() < 1e-12);
            }
            other => panic!("expected a duality gap, got {other:?}"),
        }
    }

    #[test]
    fn a_solution_of_another_shape_is_refused() {
        let (p, mut sol) = solved();
        sol.duals.push(0.0);
        assert_eq!(
            certify(&p, &sol),
            Err(CertError::Shape {
                values: 2,
                duals: 2
            })
        );
    }
}
