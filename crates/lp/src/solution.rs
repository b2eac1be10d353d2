use serde::{Deserialize, Serialize};
use std::fmt;

/// A solved LP: an optimal solution (every other ending is an
/// [`LpError`]).
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value in the *user's* sense (maximization problems report
    /// the maximum).
    pub objective: f64,
    /// Value of each variable, indexed like [`crate::VarId`].
    pub values: Vec<f64>,
    /// Dual value of each constraint row, indexed like
    /// [`crate::ConstraintId`].
    ///
    /// Sign convention: duals are reported for the problem *as the user
    /// stated it*. For a maximization problem, the dual of a binding `<=`
    /// row is `>= 0` and measures the objective gain per unit of extra
    /// right-hand side; for minimization the dual of a binding `>=` row is
    /// `>= 0`.
    pub duals: Vec<f64>,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
    /// Warm-start handle captured at termination.
    pub(crate) basis: Option<crate::Basis>,
}

impl Solution {
    /// No solution yet: the storage a solve writes its optimum into.
    pub(crate) fn empty() -> Solution {
        Solution { objective: 0.0, values: Vec::new(), duals: Vec::new(), iterations: 0, basis: None }
    }

    /// Value of a variable by handle.
    pub fn value(&self, v: crate::VarId) -> f64 {
        self.values[v.0]
    }

    /// Dual of a row by handle.
    pub fn dual(&self, c: crate::ConstraintId) -> f64 {
        self.duals[c.0]
    }

    /// The warm-start handle of this solve, if one was captured. Pass it
    /// to [`crate::Problem::solve_warm`] on a structurally identical
    /// problem to resume from this optimum.
    pub fn basis(&self) -> Option<&crate::Basis> {
        self.basis.as_ref()
    }

    /// Take ownership of the warm-start handle (leaves `None` behind).
    pub fn take_basis(&mut self) -> Option<crate::Basis> {
        self.basis.take()
    }
}

/// Errors from the simplex solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum LpError {
    /// The constraint set admits no feasible point. The payload is the
    /// residual infeasibility left after phase 1 (useful for diagnosing
    /// near-feasible models).
    Infeasible {
        /// Sum of artificial variables at the end of phase 1.
        residual: f64,
    },
    /// The objective is unbounded in the optimization direction. The
    /// payload names the variable along which it diverges.
    Unbounded {
        /// Name of a variable with an improving, unblocked direction.
        var: String,
    },
    /// The iteration cap was hit — numerically cycling or a genuinely
    /// enormous problem. The cap scales with problem size, so in practice
    /// this indicates a numerical pathology.
    IterationLimit {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// An invariant the solver relies on was violated — a solver
    /// bug, not a property of the model. Formerly an `unreachable!`;
    /// the solver paths are panic-free (DESIGN.md §6), so internal
    /// inconsistency surfaces as a typed error the supervisor can
    /// degrade on instead of a crash.
    Internal {
        /// Which invariant broke.
        what: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible { residual } => {
                write!(f, "LP infeasible (phase-1 residual {residual:.3e})")
            }
            LpError::Unbounded { var } => write!(f, "LP unbounded along variable '{var}'"),
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit {limit} exceeded")
            }
            LpError::Internal { what } => {
                write!(f, "simplex internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for LpError {}
