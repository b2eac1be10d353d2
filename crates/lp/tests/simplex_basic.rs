//! Unit tests for the simplex solver on small LPs with known optima.

use thermaware_lp::{certify, LpError, Problem, RowOp, Sense};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-7 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn textbook_maximization() {
    // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), obj 36.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
    p.add_row("r1", &[(x, 1.0)], RowOp::Le, 4.0);
    p.add_row("r2", &[(y, 2.0)], RowOp::Le, 12.0);
    p.add_row("r3", &[(x, 3.0), (y, 2.0)], RowOp::Le, 18.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 36.0), "obj = {}", sol.objective);
    assert!(close(sol.value(x), 2.0));
    assert!(close(sol.value(y), 6.0));
    let (x, y) = (sol.value(x), sol.value(y));
    let worst = [x - 4.0, 2.0 * y - 12.0, 3.0 * x + 2.0 * y - 18.0, -x, -y].into_iter().fold(0.0, f64::max);
    assert!(close(worst, 0.0), "a row or bound missed by {worst}");
}

#[test]
fn minimization_with_ge_rows() {
    // min 2x + 3y  s.t.  x + y >= 4, x + 2y >= 6  ->  (2, 2), obj 10.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
    p.add_row("r1", &[(x, 1.0), (y, 1.0)], RowOp::Ge, 4.0);
    p.add_row("r2", &[(x, 1.0), (y, 2.0)], RowOp::Ge, 6.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 10.0), "obj = {}", sol.objective);
    assert!(close(sol.value(x), 2.0));
    assert!(close(sol.value(y), 2.0));
}

#[test]
fn equality_constraints() {
    // max x + 2y  s.t.  x + y == 3, x - y == 1  ->  x=2, y=1, obj 4.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
    p.add_row("sum", &[(x, 1.0), (y, 1.0)], RowOp::Eq, 3.0);
    p.add_row("diff", &[(x, 1.0), (y, -1.0)], RowOp::Eq, 1.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 4.0));
    assert!(close(sol.value(x), 2.0));
    assert!(close(sol.value(y), 1.0));
}

#[test]
fn upper_bounds_without_rows() {
    // max x + y with x <= 2, y <= 3 as *variable bounds* and one row.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, 2.0, 1.0);
    let y = p.add_var("y", 0.0, 3.0, 1.0);
    p.add_row("cap", &[(x, 1.0), (y, 1.0)], RowOp::Le, 4.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 4.0));
    // The row binds; each variable stays within its box.
    assert!(sol.value(x) <= 2.0 + 1e-9 && sol.value(y) <= 3.0 + 1e-9);
}

#[test]
fn bound_flip_only_problem() {
    // No constraints at all: optimum sits at the boxes' corners.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, 5.0, 2.0);
    let y = p.add_var("y", 1.0, 4.0, -1.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.value(x), 5.0));
    assert!(close(sol.value(y), 1.0));
    assert!(close(sol.objective, 9.0));
}

#[test]
fn shifted_lower_bounds() {
    // min x + y  s.t.  x + y >= 10, x >= 3, y >= 2 (as variable bounds).
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 3.0, f64::INFINITY, 1.0);
    let y = p.add_var("y", 2.0, f64::INFINITY, 1.0);
    p.add_row("r", &[(x, 1.0), (y, 1.0)], RowOp::Ge, 10.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 10.0));
    assert!(sol.value(x) >= 3.0 - 1e-9 && sol.value(y) >= 2.0 - 1e-9);
}

#[test]
fn negative_lower_bounds() {
    // max x  s.t.  x <= -1 with x in [-5, 10]: optimum -1.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", -5.0, 10.0, 1.0);
    p.add_row("r", &[(x, 1.0)], RowOp::Le, -1.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.value(x), -1.0));
}

#[test]
fn free_variable_split() {
    // min |ish|: min x + 2y s.t. x + y == 1, x free, y >= 0.
    // Optimal: y = 0, x = 1 -> obj 1? No: x free and coefficient +1, so
    // pushing x down helps but x + y == 1 forces x = 1 - y; obj = 1 + y,
    // minimized at y = 0 -> obj 1.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
    p.add_row("r", &[(x, 1.0), (y, 1.0)], RowOp::Eq, 1.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 1.0));
    assert!(close(sol.value(x), 1.0));
}

#[test]
fn free_variable_goes_negative() {
    // min x s.t. x >= -7 (row), x free: optimum -7.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
    p.add_row("r", &[(x, 1.0)], RowOp::Ge, -7.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.value(x), -7.0));
}

#[test]
fn mirror_variable_neg_inf_lower() {
    // max x with x in (-inf, 3]: optimum 3.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", f64::NEG_INFINITY, 3.0, 1.0);
    p.add_row("r", &[(x, 1.0)], RowOp::Ge, -100.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.value(x), 3.0));
}

#[test]
fn infeasible_is_detected() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
    p.add_row("lo", &[(x, 1.0)], RowOp::Ge, 5.0);
    p.add_row("hi", &[(x, 1.0)], RowOp::Le, 3.0);
    match p.solve() {
        Err(LpError::Infeasible { residual }) => assert!(residual >= 1.9),
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn unbounded_is_detected() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 0.0);
    p.add_row("r", &[(x, 1.0), (y, -1.0)], RowOp::Le, 1.0);
    match p.solve() {
        Err(LpError::Unbounded { .. }) => {}
        other => panic!("expected unbounded, got {other:?}"),
    }
}

#[test]
fn degenerate_lp_terminates() {
    // A classic degenerate vertex: multiple rows intersect at the origin.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 0.75);
    let y = p.add_var("y", 0.0, f64::INFINITY, -150.0);
    let z = p.add_var("z", 0.0, f64::INFINITY, 0.02);
    let w = p.add_var("w", 0.0, f64::INFINITY, -6.0);
    // Beale's cycling example.
    p.add_row("r1", &[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], RowOp::Le, 0.0);
    p.add_row("r2", &[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], RowOp::Le, 0.0);
    p.add_row("r3", &[(z, 1.0)], RowOp::Le, 1.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 0.05), "obj = {}", sol.objective);
}

#[test]
fn zero_objective_solve_finds_a_point() {
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, 10.0, 0.0);
    let y = p.add_var("y", 0.0, 10.0, 0.0);
    p.add_row("r1", &[(x, 1.0), (y, 1.0)], RowOp::Eq, 7.0);
    p.add_row("r2", &[(x, 1.0), (y, -1.0)], RowOp::Ge, 1.0);
    let sol = p.solve().unwrap();
    let (x, y) = (sol.value(x), sol.value(y));
    let worst = [(x + y - 7.0).abs(), 1.0 - (x - y), -x, -y, x - 10.0, y - 10.0].into_iter().fold(0.0, f64::max);
    assert!(worst < 1e-7, "a row or bound missed by {worst}");
    certify(&p, &sol).unwrap();
}

#[test]
fn duals_of_binding_le_row_maximize() {
    // max 3x + 2y  s.t.  x + y <= 4, x <= 2 (bound). At optimum y fills
    // the row: d obj / d rhs = 2.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, 2.0, 3.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
    let cap = p.add_row("cap", &[(x, 1.0), (y, 1.0)], RowOp::Le, 4.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 10.0));
    assert!(close(sol.dual(cap), 2.0), "dual = {}", sol.dual(cap));
}

#[test]
fn duals_of_binding_ge_row_minimize() {
    // min 2x + 3y  s.t.  x + y >= 4, x + 2y >= 6. Duals (1, 1):
    // obj = 1*4 + 1*6 = 10 = primal. Strong duality as a sanity check.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
    let r1 = p.add_row("r1", &[(x, 1.0), (y, 1.0)], RowOp::Ge, 4.0);
    let r2 = p.add_row("r2", &[(x, 1.0), (y, 2.0)], RowOp::Ge, 6.0);
    let sol = p.solve().unwrap();
    let dual_obj = sol.dual(r1) * 4.0 + sol.dual(r2) * 6.0;
    assert!(close(dual_obj, sol.objective), "dual obj {dual_obj} vs {}", sol.objective);
    assert!(sol.dual(r1) >= -1e-9 && sol.dual(r2) >= -1e-9);
}

#[test]
fn resolve_after_objective_change() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, 1.0, 1.0);
    let y = p.add_var("y", 0.0, 1.0, 2.0);
    p.add_row("r", &[(x, 1.0), (y, 1.0)], RowOp::Le, 1.0);
    let s1 = p.solve().unwrap();
    assert!(close(s1.objective, 2.0)); // all weight on y
    p.set_var_objective(y, 0.5);
    let s2 = p.solve().unwrap();
    assert!(close(s2.objective, 1.0)); // all weight on x
}

#[test]
fn fixed_variable_lb_equals_ub() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 2.0, 2.0, 5.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
    p.add_row("r", &[(x, 1.0), (y, 1.0)], RowOp::Le, 6.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.value(x), 2.0));
    assert!(close(sol.value(y), 4.0));
    assert!(close(sol.objective, 14.0));
}

#[test]
fn zero_rows_zero_vars() {
    let p = Problem::new(Sense::Maximize);
    let sol = p.solve().unwrap();
    assert_eq!(sol.values.len(), 0);
    assert!(close(sol.objective, 0.0));
}

#[test]
fn redundant_equality_rows() {
    // x + y == 2 listed twice: redundant but consistent; the basic
    // artificial left in the duplicate row must not break phase 2.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
    p.add_row("r1", &[(x, 1.0), (y, 1.0)], RowOp::Eq, 2.0);
    p.add_row("r2", &[(x, 1.0), (y, 1.0)], RowOp::Eq, 2.0);
    let sol = p.solve().unwrap();
    assert!(close(sol.objective, 2.0));
}

#[test]
fn transportation_problem() {
    // 2 supplies (10, 20), 3 demands (5, 15, 10); costs.
    let mut p = Problem::new(Sense::Minimize);
    let costs = [[4.0, 6.0, 9.0], [5.0, 3.0, 8.0]];
    let mut x = [[None; 3]; 2];
    for (i, row) in costs.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            x[i][j] = Some(p.add_var(&format!("x{i}{j}"), 0.0, f64::INFINITY, c));
        }
    }
    let supplies = [10.0, 20.0];
    let demands = [5.0, 15.0, 10.0];
    for (i, &s) in supplies.iter().enumerate() {
        let terms: Vec<_> = (0..3).map(|j| (x[i][j].unwrap(), 1.0)).collect();
        p.add_row(&format!("supply{i}"), &terms, RowOp::Le, s);
    }
    for (j, &d) in demands.iter().enumerate() {
        let terms: Vec<_> = (0..2).map(|i| (x[i][j].unwrap(), 1.0)).collect();
        p.add_row(&format!("demand{j}"), &terms, RowOp::Ge, d);
    }
    let sol = p.solve().unwrap();
    // Optimal: x00=5, x02=5, x11=15, x12=5 -> 20+45+45+40 = 150.
    assert!(close(sol.objective, 150.0), "obj = {}", sol.objective);
    let v = |i: usize, j: usize| sol.value(x[i][j].unwrap());
    for (i, &s) in supplies.iter().enumerate() {
        assert!((0..3).map(|j| v(i, j)).sum::<f64>() <= s + 1e-7, "supply {i}");
    }
    for (j, &d) in demands.iter().enumerate() {
        assert!((0..2).map(|i| v(i, j)).sum::<f64>() >= d - 1e-7, "demand {j}");
    }
    assert!(sol.values.iter().all(|&x| x >= -1e-7));
}
