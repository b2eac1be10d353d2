//! Property tests: on random feasible, bounded LPs every solve must
//! return an optimum that [`certify`] proves — primal feasible, duals of
//! the right signs, and no duality gap — a certificate no amount of
//! example-based testing provides.
//!
//! The generator mixes both senses, `<=`, `>=` and `==` rows, boxes with
//! negative lower bounds, and lower-only, upper-only and free variables.
//! Feasibility comes from a witness point `x0` inside the bounds: each
//! row's right-hand side is its activity at `x0`, moved onto `x0`'s side
//! for an inequality. Boundedness comes from the objective: a variable
//! unbounded in a direction has a coefficient that does not improve along
//! it (zero for a free one).

use proptest::prelude::*;
use thermaware_lp::{certify, Problem, RowOp, Sense};

#[derive(Debug, Clone)]
struct RandomLp {
    sense: Sense,
    /// `(lower, upper, objective)` of every variable.
    vars: Vec<(f64, f64, f64)>,
    /// A point inside the bounds every row holds at.
    x0: Vec<f64>,
    /// `(op, coefficients, right-hand side)` of every row.
    rows: Vec<(RowOp, Vec<f64>, f64)>,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (1usize..6, 1usize..8).prop_flat_map(|(m, n)| {
        // kind 0-2 a box `[lo, lo + width]` (lo < 0 half the time),
        // 3 `[lo, inf)`, 4 `(-inf, lo + width]`, 5 free; `at` places x0.
        let var = (
            0u8..6,
            -3.0_f64..3.0,
            0.1_f64..10.0,
            -5.0_f64..5.0,
            0.0_f64..1.0,
        );
        let row = (
            0u8..3,
            prop::collection::vec(-2.0_f64..4.0, n),
            0.0_f64..5.0,
        );
        (
            any::<bool>(),
            prop::collection::vec(var, n),
            prop::collection::vec(row, m),
        )
            .prop_map(|(maximize, vars, rows)| {
                let sense = if maximize {
                    Sense::Maximize
                } else {
                    Sense::Minimize
                };
                // The direction the objective improves along.
                let up = if maximize { 1.0 } else { -1.0 };
                let (vars, x0): (Vec<_>, Vec<_>) = vars
                    .into_iter()
                    .map(|(kind, lo, width, c, at)| match kind {
                        0..=2 => ((lo, lo + width, c), lo + at * width),
                        3 => ((lo, f64::INFINITY, -up * c.abs()), lo + at * width),
                        4 => (
                            (f64::NEG_INFINITY, lo + width, up * c.abs()),
                            lo + at * width,
                        ),
                        _ => ((f64::NEG_INFINITY, f64::INFINITY, 0.0), lo + at * width),
                    })
                    .unzip();
                let rows = rows
                    .into_iter()
                    .map(|(op, coeffs, slack)| {
                        let at_x0: f64 = coeffs.iter().zip(&x0).map(|(a, x)| a * x).sum();
                        match op {
                            0 => (RowOp::Le, coeffs, at_x0 + slack),
                            1 => (RowOp::Ge, coeffs, at_x0 - slack),
                            _ => (RowOp::Eq, coeffs, at_x0),
                        }
                    })
                    .collect();
                RandomLp {
                    sense,
                    vars,
                    x0,
                    rows,
                }
            })
    })
}

fn build(lp: &RandomLp, sense: Sense, flip: f64) -> Problem {
    let mut p = Problem::new(sense);
    let vars: Vec<_> = lp
        .vars
        .iter()
        .enumerate()
        .map(|(j, &(lo, hi, c))| p.add_var(&format!("x{j}"), lo, hi, flip * c))
        .collect();
    for (i, (op, coeffs, rhs)) in lp.rows.iter().enumerate() {
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        p.add_row(&format!("r{i}"), &terms, *op, *rhs);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solution_is_feasible_and_duality_certified(lp in random_lp()) {
        let p = build(&lp, lp.sense, 1.0);
        let sol = p.solve().expect("feasible bounded LP must solve");
        certify(&p, &sol).map_err(|e| TestCaseError::fail(format!("optimum refuted: {e}")))?;
    }

    #[test]
    fn objective_beats_random_feasible_points(lp in random_lp()) {
        let p = build(&lp, lp.sense, 1.0);
        let sol = p.solve().expect("solve");
        let witness = p.objective_value(&lp.x0);
        let better = match lp.sense {
            Sense::Maximize => sol.objective - witness,
            Sense::Minimize => witness - sol.objective,
        };
        prop_assert!(
            better >= -1e-7 * (1.0 + witness.abs()),
            "witness {witness} beats optimum {}",
            sol.objective
        );
    }

    #[test]
    fn min_and_max_are_consistent(lp in random_lp()) {
        // max c·x  ==  -min (-c)·x on the same feasible set.
        let other = match lp.sense {
            Sense::Maximize => Sense::Minimize,
            Sense::Minimize => Sense::Maximize,
        };
        let a = build(&lp, lp.sense, 1.0).solve().unwrap();
        let b = build(&lp, other, -1.0).solve().unwrap();
        let diff = (a.objective + b.objective).abs();
        prop_assert!(diff <= 1e-6 * (1.0 + a.objective.abs()), "diff {diff}");
    }
}
