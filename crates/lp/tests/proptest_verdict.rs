//! The row-activity verdict, held to what it claims without a second
//! engine.
//!
//! Before its first factorisation the revised engine declares a problem
//! infeasible when one row is out of reach of the variable bounds. Every
//! row of [`case`] sits within ±1 of what its variables can reach — a
//! `<=` row's right-hand side near the row's smallest activity, a `>=`
//! row's near the largest — so the verdict fires on about half the cases
//! and just misses on the rest: a row out of reach must be refused, and
//! whatever the engine calls optimal must certify. Every row of
//! [`witnessed`] has its reachable end at one box corner `x0` and its
//! right-hand side on `x0`'s side of it, so `x0` is feasible by
//! construction and the verdict must never fire.

use proptest::prelude::*;
use thermaware_lp::{certify, LpError, Problem, RowOp, Sense};

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

/// A [`Case`] whose rows all reach their end at one box corner `x0`:
/// each coefficient takes the sign that puts `x0`'s end of its variable
/// at the row's end (lower end of a `<=` row, upper of a `>=` or `==`
/// row), and the offset moves the right-hand side into the reachable
/// range by up to 1 (none for `==`), so `x0` satisfies every row.
fn witnessed() -> impl Strategy<Value = Case> {
    (1usize..6, 1usize..5).prop_flat_map(|(n, m)| {
        let var = (-2.0_f64..2.0, 0.1_f64..5.0, -3.0_f64..3.0);
        let row = (0u8..3, prop::collection::vec(0.0_f64..3.0, n), 0.0_f64..1.0);
        (
            prop::collection::vec(var, n),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(row, m),
        )
            .prop_map(|(vars, at_upper, rows)| {
                let rows = rows
                    .into_iter()
                    .map(|(op, magnitudes, inside)| {
                        // `<=`: the row is least where each term is; `>=`
                        // and `==`: most.
                        let least = op == 0;
                        let coeffs = magnitudes
                            .iter()
                            .zip(&at_upper)
                            .map(|(&a, &up)| if up == least { -a } else { a })
                            .collect();
                        let offset = if op == 2 { 0.0 } else { -inside };
                        (op, coeffs, offset)
                    })
                    .collect();
                Case { vars, rows }
            })
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
    fn out_of_reach_is_infeasible_and_every_optimum_certifies(case in case()) {
        let p = build(&case);
        let out_of_reach = case.rows.iter().any(|&(_, _, offset)| offset > 1e-6);
        match p.solve() {
            Ok(sol) => {
                prop_assert!(!out_of_reach, "a row out of reach by more than the tolerance was solved");
                certify(&p, &sol).map_err(|e| TestCaseError::fail(format!("optimum refuted: {e}")))?;
            }
            Err(e) => prop_assert!(
                matches!(e, LpError::Infeasible { .. }),
                "a box-bounded problem either solves or is infeasible, not {e}"
            ),
        }
    }

    #[test]
    fn never_infeasible_where_a_box_corner_is_feasible(case in witnessed()) {
        let p = build(&case);
        let sol = p
            .solve()
            .map_err(|e| TestCaseError::fail(format!("feasible by construction, got {e}")))?;
        certify(&p, &sol).map_err(|e| TestCaseError::fail(format!("optimum refuted: {e}")))?;
    }
}
