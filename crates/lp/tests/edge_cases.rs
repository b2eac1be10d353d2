//! Edge-case and failure-path tests for the LP solver: the simplex must
//! fail loudly and precisely, never return garbage.

use thermaware_lp::{certify, LpError, Problem, RowOp, Sense};

#[test]
fn zero_objective_problem_reports_infeasible() {
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, 1.0, 0.0);
    p.add_row("hi", &[(x, 1.0)], RowOp::Ge, 2.0);
    match p.solve() {
        Err(LpError::Infeasible { residual }) => assert!(residual > 0.9),
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn contradictory_equalities() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, 10.0, 1.0);
    let y = p.add_var("y", 0.0, 10.0, 1.0);
    p.add_row("a", &[(x, 1.0), (y, 1.0)], RowOp::Eq, 5.0);
    p.add_row("b", &[(x, 1.0), (y, 1.0)], RowOp::Eq, 7.0);
    assert!(matches!(p.solve(), Err(LpError::Infeasible { .. })));
}

#[test]
fn bounds_alone_can_be_infeasible_via_rows() {
    // x in [0, 1] but a row forces x = 3.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, 1.0, 1.0);
    p.add_row("force", &[(x, 1.0)], RowOp::Eq, 3.0);
    assert!(matches!(p.solve(), Err(LpError::Infeasible { .. })));
}

#[test]
fn negative_rhs_equality_normalization() {
    // Internally the row is negated; the answer must be unaffected.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
    p.add_row("neg", &[(x, 2.0)], RowOp::Eq, -6.0);
    let sol = p.solve().unwrap();
    assert!((sol.value(x) + 3.0).abs() < 1e-9);
}

#[test]
fn objective_only_in_removed_direction() {
    // Maximize a variable that no row touches, bounded above: pure bound
    // flip path through phase 2.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", -2.0, 9.0, 4.0);
    let y = p.add_var("y", 0.0, 5.0, 0.0);
    p.add_row("r", &[(y, 1.0)], RowOp::Le, 3.0);
    let sol = p.solve().unwrap();
    assert!((sol.value(x) - 9.0).abs() < 1e-9);
    assert!((sol.objective - 36.0).abs() < 1e-9);
}

#[test]
fn huge_coefficient_spread_is_survivable() {
    // Mixed magnitudes: 1e-6 to 1e6. The scaled tolerances must cope.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 1e-6);
    let y = p.add_var("y", 0.0, f64::INFINITY, 1e6);
    p.add_row("r1", &[(x, 1e6), (y, 1.0)], RowOp::Le, 2e6);
    p.add_row("r2", &[(x, 1.0), (y, 1e-6)], RowOp::Le, 2.0);
    let sol = p.solve().unwrap();
    let (x, y) = (sol.value(x), sol.value(y));
    let worst = [1e6 * x + y - 2e6, x + 1e-6 * y - 2.0, -x, -y].into_iter().fold(0.0, f64::max);
    assert!(worst < 1e-4, "a row or bound missed by {worst}");
}

#[test]
fn many_redundant_rows() {
    // The same constraint 40 times: degenerate but must terminate fast.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
    for i in 0..40 {
        p.add_row(&format!("r{i}"), &[(x, 1.0), (y, 1.0)], RowOp::Le, 10.0);
    }
    let sol = p.solve().unwrap();
    assert!((sol.objective - 10.0).abs() < 1e-7);
}

#[test]
fn equality_chain_forces_unique_point() {
    // x1 = 1, x_{k+1} = x_k + 1 via equalities: unique solution, no
    // optimization freedom at all.
    let mut p = Problem::new(Sense::Maximize);
    let n = 12;
    let vars: Vec<_> = (0..n)
        .map(|j| p.add_var(&format!("x{j}"), 0.0, 100.0, 1.0))
        .collect();
    p.add_row("x0", &[(vars[0], 1.0)], RowOp::Eq, 1.0);
    for k in 1..n {
        p.add_row(
            &format!("chain{k}"),
            &[(vars[k], 1.0), (vars[k - 1], -1.0)],
            RowOp::Eq,
            1.0,
        );
    }
    let sol = p.solve().unwrap();
    for (k, &v) in vars.iter().enumerate() {
        assert!((sol.value(v) - (k as f64 + 1.0)).abs() < 1e-7, "x{k}");
    }
}

#[test]
fn zero_objective_feasibility_equivalence() {
    // With an all-zero objective any feasible point is optimal: the one
    // solve() finds must certify as such.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, 4.0, 0.0);
    let y = p.add_var("y", 0.0, 4.0, 0.0);
    p.add_row("r", &[(x, 1.0), (y, 2.0)], RowOp::Ge, 3.0);
    let a = p.solve().unwrap();
    let (x, y) = (a.value(x), a.value(y));
    let worst = [3.0 - (x + 2.0 * y), -x, -y, x - 4.0, y - 4.0].into_iter().fold(0.0, f64::max);
    assert!(worst < 1e-7, "a row or bound missed by {worst}");
    certify(&p, &a).unwrap();
}

#[test]
fn unbounded_reports_a_variable_name() {
    let mut p = Problem::new(Sense::Maximize);
    let _x = p.add_var("growth", 0.0, f64::INFINITY, 1.0);
    match p.solve() {
        Err(LpError::Unbounded { var }) => assert_eq!(var, "growth"),
        other => panic!("expected unbounded, got {other:?}"),
    }
}
