//! Property tests: every solve must return a feasible point, and on
//! random box-bounded `max c·x s.t. A x <= b` instances the returned row
//! duals must certify optimality through strong duality.
//!
//! For `max c·x, A x <= b, 0 <= x <= u` the dual is
//! `min b·y + u·w, y >= 0, w >= 0, A^T y + w >= c`. Given the solver's row
//! duals `y`, the cheapest feasible `w` is `w_j = max(0, c_j - (A^T y)_j)`;
//! if the resulting dual objective matches the primal objective, the primal
//! solution is provably optimal — a certificate no amount of example-based
//! testing provides.

use proptest::prelude::*;
use thermaware_lp::{Problem, RowOp, Sense};

#[derive(Debug, Clone)]
struct RandomLp {
    m: usize,
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    u: Vec<f64>,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (1usize..6, 1usize..8).prop_flat_map(|(m, n)| {
        (
            Just(m),
            Just(n),
            prop::collection::vec(-2.0_f64..4.0, m * n),
            // b >= 0 keeps x = 0 feasible, so the instance is never
            // infeasible; u finite keeps it bounded.
            prop::collection::vec(0.5_f64..20.0, m),
            prop::collection::vec(-5.0_f64..5.0, n),
            prop::collection::vec(0.1_f64..10.0, n),
        )
            .prop_map(|(m, n, a, b, c, u)| RandomLp { m, n, a, b, c, u })
    })
}

fn build(lp: &RandomLp) -> (Problem, Vec<thermaware_lp::VarId>) {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..lp.n)
        .map(|j| p.add_var(&format!("x{j}"), 0.0, lp.u[j], lp.c[j]))
        .collect();
    for i in 0..lp.m {
        let terms: Vec<_> = (0..lp.n).map(|j| (vars[j], lp.a[i * lp.n + j])).collect();
        p.add_row(&format!("r{i}"), &terms, RowOp::Le, lp.b[i]);
    }
    (p, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solution_is_feasible_and_duality_certified(lp in random_lp()) {
        let (p, _) = build(&lp);
        let sol = p.solve().expect("feasible bounded LP must solve");
        // Primal feasibility.
        let viol = p.max_violation(&sol.values);
        prop_assert!(viol < 1e-7, "violation {viol}");

        // Dual feasibility of y (maximize / Le rows => y >= 0).
        for (i, &y) in sol.duals.iter().enumerate() {
            prop_assert!(y >= -1e-7, "dual {i} = {y} negative");
        }

        // Strong duality with the implied bound duals.
        let mut dual_obj = 0.0;
        for i in 0..lp.m {
            dual_obj += sol.duals[i] * lp.b[i];
        }
        for j in 0..lp.n {
            let at_y: f64 = (0..lp.m).map(|i| sol.duals[i] * lp.a[i * lp.n + j]).sum();
            let w = (lp.c[j] - at_y).max(0.0);
            dual_obj += w * lp.u[j];
        }
        let gap = (dual_obj - sol.objective).abs();
        prop_assert!(
            gap <= 1e-6 * (1.0 + sol.objective.abs() + dual_obj.abs()),
            "duality gap {gap}: primal {} dual {dual_obj}",
            sol.objective
        );
    }

    #[test]
    fn objective_beats_random_feasible_points(lp in random_lp(), scale in 0.0_f64..1.0) {
        let (p, _) = build(&lp);
        let sol = p.solve().expect("solve");
        // A scaled-down box corner is feasible when scaled toward 0 far
        // enough; walk the scale down until feasible, then compare.
        let mut x: Vec<f64> = lp.u.iter().map(|&u| u * scale).collect();
        let mut tries = 0;
        while p.max_violation(&x) > 0.0 && tries < 60 {
            for v in &mut x {
                *v *= 0.5;
            }
            tries += 1;
        }
        if p.max_violation(&x) <= 0.0 {
            let candidate = p.objective_value(&x);
            prop_assert!(
                sol.objective >= candidate - 1e-7 * (1.0 + candidate.abs()),
                "candidate {candidate} beats optimum {}",
                sol.objective
            );
        }
    }

    #[test]
    fn min_and_max_are_consistent(lp in random_lp()) {
        // max c·x  ==  -min (-c)·x on the same feasible set.
        let (pmax, _) = build(&lp);
        let mut pmin = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..lp.n)
            .map(|j| pmin.add_var(&format!("x{j}"), 0.0, lp.u[j], -lp.c[j]))
            .collect();
        for i in 0..lp.m {
            let terms: Vec<_> = (0..lp.n).map(|j| (vars[j], lp.a[i * lp.n + j])).collect();
            pmin.add_row(&format!("r{i}"), &terms, RowOp::Le, lp.b[i]);
        }
        let smax = pmax.solve().unwrap();
        let smin = pmin.solve().unwrap();
        let diff = (smax.objective + smin.objective).abs();
        prop_assert!(diff <= 1e-6 * (1.0 + smax.objective.abs()), "diff {diff}");
    }
}
