//! The linear-programming solver of the `thermaware` workspace.
//!
//! The paper's optimization problems — Stage 1 with fixed CRAC outlet
//! temperatures, Stage 3, the Eq.-21 baseline, the Eq.-17 power-bounds
//! problem, and the Appendix-B cross-interference feasibility problem — are
//! all linear programs once the (few, 1 °C-granular) CRAC outlet
//! temperatures are fixed, exactly as the paper observes in Section V.B.2.
//! This crate provides the LP solver those problems run on.
//!
//! The engine is a **sparse revised simplex** ([`revised`]) on an
//! internal problem form ([`internal`]): the basis matrix is LU-factorized
//! (`thermaware-linalg`), pivots append product-form eta updates with
//! periodic refactorization, and bounded variables are handled implicitly
//! (nonbasic columns rest at either bound, so box constraints never become
//! rows). Its `y ± a·x` slice loops — the pivot row, the reduced costs,
//! the basic values, the eta chain — run through
//! `thermaware_linalg::kernel`, AVX2-wide where the CPU has it and the
//! same bits either way. Its defining feature is **warm-starting**: [`Solution::basis`]
//! hands back an opaque [`Basis`]; passing it into [`Problem::solve_warm`]
//! on a structurally identical, perturbed problem resumes from the
//! previous optimum — via the primal when still feasible, via a
//! dual-simplex re-entry when an RHS change broke feasibility. The CRAC
//! outlet grid sweep and the post-fault Stage-3 replans live
//! on this path.
//!
//! What it returns is checked by [`certify`], which proves optimality
//! from the problem as stated and the solution's values and duals alone —
//! primal residuals, dual signs, reduced-cost signs and the duality gap —
//! with none of the engine's arithmetic. Debug builds certify every
//! optimum a solve returns; the crate's property tests certify theirs in
//! release too.
//!
//! A model that is solved many times with a few numbers changed in
//! between — the CRAC sweep's one LP per outlet candidate — is kept as a
//! [`Prepared`] problem: [`Problem::prepare`] builds the internal form
//! once, `set_rhs` / `set_row_coeffs` / `set_var_objective` patch problem
//! and form in place (bit for bit what a rebuild gives), and
//! [`Prepared::solve_warm`] runs the same solve path. Before its first
//! factorisation that path refuses a problem with a row out of reach of
//! the variable bounds, so a sweep's infeasible candidates cost a scan of
//! the rows.
//!
//! Anti-cycling falls back to Bland's rule after a run of degenerate
//! steps. Problem sizes in this workspace top out around ~300 rows ×
//! ~2000 columns (the Eq.-21 baseline on a 150-node data center).
//!
//! # Example
//!
//! ```
//! use thermaware_lp::{certify, Problem, Sense, RowOp};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x, y >= 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, 2.0, 3.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
//! p.add_row("cap", &[(x, 1.0), (y, 1.0)], RowOp::Le, 4.0);
//! let mut sol = p.solve().unwrap();
//! assert!((sol.objective - 10.0).abs() < 1e-9); // x = 2, y = 2
//! assert!(certify(&p, &sol).is_ok());
//!
//! // Perturb the budget and re-solve warm from the previous basis.
//! let basis = sol.take_basis();
//! let mut p2 = p.clone();
//! p2.set_var_bounds(x, 0.0, 3.0);
//! let warm = p2.solve_warm(basis.as_ref()).unwrap();
//! assert!((warm.objective - 11.0).abs() < 1e-9); // x = 3, y = 1
//! ```

mod basis;
mod certify;
mod internal;
mod model;
mod prepared;
mod revised;
mod solution;

pub use basis::Basis;
pub use certify::{certify, CertError, Certificate};
pub use model::{ConstraintId, Problem, RowOp, Sense, VarId};
pub use prepared::Prepared;
pub use solution::{LpError, Solution};
