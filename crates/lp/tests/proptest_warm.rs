//! Property tests for basis warm-starting: a warm solve on a perturbed
//! problem must agree with a cold solve on the objective, and both must
//! certify — warm-starting is an accelerator, never an answer-changer.
//!
//! Three perturbation regimes are exercised, matching this workspace's
//! real call sites:
//!
//! * **Cost perturbation** (Stage-1 CRAC grid sweep: neighbouring outlet
//!   temperatures reprice the same segments) — the warm basis stays
//!   primal-feasible and resumes in phase 2.
//! * **RHS perturbation, slack direction** — still primal-feasible.
//! * **RHS tightening** (post-fault replans: capacities shrink) — the
//!   warm basis can go primal-infeasible and must re-enter through the
//!   dual simplex.

use proptest::prelude::*;
use thermaware_lp::{certify, Problem, RowOp, Sense, VarId};

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
    (2usize..6, 2usize..8).prop_flat_map(|(m, n)| {
        (
            Just(m),
            Just(n),
            prop::collection::vec(-2.0_f64..4.0, m * n),
            // b >= 0 keeps x = 0 feasible; u finite keeps it bounded.
            prop::collection::vec(0.5_f64..20.0, m),
            prop::collection::vec(-5.0_f64..5.0, n),
            prop::collection::vec(0.1_f64..10.0, n),
        )
            .prop_map(|(m, n, a, b, c, u)| RandomLp { m, n, a, b, c, u })
    })
}

fn build(lp: &RandomLp) -> (Problem, Vec<VarId>) {
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

/// Warm-solve `perturbed` from `base`'s optimal basis and check it agrees
/// with a cold solve, each certified optimal. Both must succeed: every
/// perturbation here keeps `x = 0` feasible and the box bounded.
fn assert_warm_agrees(base: &Problem, perturbed: &Problem) -> Result<(), TestCaseError> {
    let mut first = base.solve().expect("base LP is feasible and bounded");
    let basis = first.take_basis();
    prop_assert!(basis.is_some(), "optimal revised solve must return a basis");

    let warm = perturbed
        .solve_warm(basis.as_ref())
        .expect("perturbed LP is feasible and bounded");
    let cold = perturbed.solve().expect("cold solve");
    for (which, sol) in [("warm", &warm), ("cold", &cold)] {
        certify(perturbed, sol).map_err(|e| TestCaseError::fail(format!("{which} solve refuted: {e}")))?;
    }

    let gap = (warm.objective - cold.objective).abs();
    prop_assert!(
        gap <= 1e-6 * (1.0 + cold.objective.abs()),
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn warm_agrees_after_cost_perturbation(
        lp in random_lp(),
        dc in prop::collection::vec(-0.5_f64..0.5, 8),
    ) {
        let (base, _) = build(&lp);
        let mut lp2 = lp.clone();
        for (j, cost) in lp2.c.iter_mut().enumerate() {
            *cost += dc[j % dc.len()];
        }
        let (perturbed, _) = build(&lp2);
        assert_warm_agrees(&base, &perturbed)?;
    }

    #[test]
    fn warm_agrees_after_rhs_slackening(
        lp in random_lp(),
        db in prop::collection::vec(0.0_f64..5.0, 6),
    ) {
        let (base, _) = build(&lp);
        let mut lp2 = lp.clone();
        for (i, rhs) in lp2.b.iter_mut().enumerate() {
            *rhs += db[i % db.len()];
        }
        let (perturbed, _) = build(&lp2);
        assert_warm_agrees(&base, &perturbed)?;
    }

    #[test]
    fn warm_agrees_after_fault_style_rhs_tightening(
        lp in random_lp(),
        shrink in prop::collection::vec(0.1_f64..1.0, 6),
    ) {
        // Capacities shrink multiplicatively (a failed unit removes
        // capacity) but stay positive, so x = 0 stays feasible while the
        // old optimal basis generally does not — this is the dual
        // re-entry path.
        let (base, _) = build(&lp);
        let mut lp2 = lp.clone();
        for (i, rhs) in lp2.b.iter_mut().enumerate() {
            *rhs *= shrink[i % shrink.len()];
        }
        let (perturbed, _) = build(&lp2);
        assert_warm_agrees(&base, &perturbed)?;
    }

    #[test]
    fn warm_agrees_after_combined_perturbation(
        lp in random_lp(),
        dc in prop::collection::vec(-1.0_f64..1.0, 8),
        shrink in prop::collection::vec(0.2_f64..1.2, 6),
    ) {
        let (base, _) = build(&lp);
        let mut lp2 = lp.clone();
        for (j, cost) in lp2.c.iter_mut().enumerate() {
            *cost += dc[j % dc.len()];
        }
        for (i, rhs) in lp2.b.iter_mut().enumerate() {
            *rhs *= shrink[i % shrink.len()];
        }
        let (perturbed, _) = build(&lp2);
        assert_warm_agrees(&base, &perturbed)?;
    }

    #[test]
    fn basis_roundtrips_through_serde(lp in random_lp()) {
        // The runtime persists the basis inside its checkpointed world;
        // a serialize/deserialize round trip must restore to the same
        // handle and still warm-start cleanly.
        let (p, _) = build(&lp);
        let mut sol = p.solve().expect("solve");
        let basis = sol.take_basis().expect("basis");
        let json = serde_json::to_string(&basis).expect("serialize");
        let back: thermaware_lp::Basis =
            serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(&back, &basis);
        let warm = p.solve_warm(Some(&back)).expect("warm re-solve");
        prop_assert!(warm.iterations == 0, "re-solve of the same LP took {} pivots", warm.iterations);
        let gap = (warm.objective - sol.objective).abs();
        prop_assert!(gap <= 1e-9 * (1.0 + sol.objective.abs()));
    }
}
