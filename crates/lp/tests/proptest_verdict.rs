//! The row-activity verdict against the dense oracle.
//!
//! Before its first factorisation the revised engine declares a problem
//! infeasible when one row is out of reach of the variable bounds. Every
//! row here sits within ±1 of what its variables can reach — a `<=` row's
//! right-hand side near the row's smallest activity, a `>=` row's near the
//! largest — so the verdict fires on about half the cases and just misses
//! on the rest. It must never fire on a problem the dense tableau, which
//! has no such shortcut, can solve.

use proptest::prelude::*;
use thermaware_lp::{LpError, Problem, RowOp, Sense};

#[derive(Debug, Clone)]
struct Case {
    /// `(lower, width, objective)` of every variable.
    vars: Vec<(f64, f64, f64)>,
    /// `(op, coefficients, offset from the reachable end)` of every row.
    rows: Vec<(u8, Vec<f64>, f64)>,
}

fn case() -> impl Strategy<Value = Case> {
    (1usize..6, 1usize..5).prop_flat_map(|(n, m)| {
        let var = (-2.0_f64..2.0, 0.1_f64..5.0, -3.0_f64..3.0);
        let row = (
            0u8..3,
            prop::collection::vec(-3.0_f64..3.0, n),
            -1.0_f64..1.0,
        );
        (
            prop::collection::vec(var, n),
            prop::collection::vec(row, m),
        )
            .prop_map(|(vars, rows)| Case { vars, rows })
    })
}

fn build(case: &Case) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = case
        .vars
        .iter()
        .enumerate()
        .map(|(j, &(lo, width, obj))| p.add_var(&format!("x{j}"), lo, lo + width, obj))
        .collect();
    for (i, (op, coeffs, offset)) in case.rows.iter().enumerate() {
        // Smallest and largest value of the row over the box.
        let (mut least, mut most) = (0.0, 0.0);
        for (&a, &(lo, width, _)) in coeffs.iter().zip(&case.vars) {
            let (at_lo, at_hi) = (a * lo, a * (lo + width));
            least += at_lo.min(at_hi);
            most += at_lo.max(at_hi);
        }
        // A positive offset puts the right-hand side out of reach.
        let (op, rhs) = match op {
            0 => (RowOp::Le, least - offset),
            1 => (RowOp::Ge, most + offset),
            _ => (RowOp::Eq, most + offset),
        };
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        p.add_row(&format!("r{i}"), &terms, op, rhs);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn never_infeasible_where_the_dense_oracle_finds_a_solution(case in case()) {
        let p = build(&case);
        let out_of_reach = case.rows.iter().any(|&(_, _, offset)| offset > 1e-6);
        match (p.solve(), p.solve_dense()) {
            (Err(LpError::Infeasible { .. }), Ok(dense)) => {
                return Err(TestCaseError::fail(format!(
                    "revised says infeasible, dense found objective {}",
                    dense.objective
                )));
            }
            (Ok(sol), Ok(dense)) => {
                prop_assert!(!out_of_reach, "a row was out of reach");
                prop_assert!(
                    (sol.objective - dense.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
                    "revised {} vs dense {}", sol.objective, dense.objective
                );
            }
            (Ok(sol), Err(e)) => {
                // The oracle may give up where the engine does not; the
                // answer must then stand on its own.
                prop_assert!(p.max_violation(&sol.values) < 1e-6, "dense failed with {e}");
            }
            (Err(_), Err(_)) => {}
            (Err(e), Ok(_)) => return Err(TestCaseError::fail(format!("revised failed: {e}"))),
        }
        if out_of_reach {
            prop_assert!(
                matches!(p.solve(), Err(LpError::Infeasible { .. })),
                "a row out of reach by more than the tolerance must be refused"
            );
        }
    }
}
