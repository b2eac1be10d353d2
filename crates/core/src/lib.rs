//! The paper's primary contribution: **data-center-level, thermal-aware
//! P-state assignment** (paper Section V), plus the baseline it is
//! evaluated against and an exact reference solver.
//!
//! The exact first-step problem (Eq. 7) is a mixed-integer nonlinear
//! program — integer P-states, non-convex CRAC power — and does not scale.
//! The paper's answer, reproduced here, is a three-stage decomposition:
//!
//! 1. **Stage 1** ([`stage1`]): relax P-states to continuous per-core
//!    power. The power→reward tradeoff of a core type is captured by the
//!    *aggregate reward rate* curve [`arr::ArrCurve`] — the average of the
//!    per-task-type [`rr`] curves over the best ψ% of task types, with
//!    non-concave ("bad") P-states dropped (Figs. 3–5). At fixed CRAC
//!    outlet temperatures the resulting problem is an LP; the outlets
//!    themselves are found by the coarse-to-fine search of
//!    `thermaware_datacenter::optimize_crac_outlets`.
//! 2. **Stage 2** ([`stage2`]): round per-core powers to discrete
//!    P-states without exceeding any node's Stage-1 power.
//! 3. **Stage 3** ([`stage3`]): with P-states and outlets fixed, Eq. 7
//!    *is* an LP in the desired execution rates `TC(i,k)`; solve it
//!    exactly (cores grouped by `(node type, P-state)` — identical cores
//!    are interchangeable, so the grouping is lossless).
//!
//! [`baseline`] implements the comparison technique adapted from Parolini
//! et al. \[26\] (Eqs. 19–22): continuous per-node fractions of cores
//! running at P-state 0, everything else off. [`minlp`] brute-forces the
//! exact problem on tiny instances to bound the heuristic's optimality
//! gap in tests. [`min_power`] solves the Section-VIII dual problem
//! (minimize power subject to a reward-rate floor). [`verify`] checks any
//! final assignment against the *exact* (clamped, nonlinear) power and
//! thermal models.
//!
//! Stage 1, the baseline and min-power are LPs over the same fixed-outlet
//! redline rows and power row under different variables and objectives;
//! the private `room` module writes the rows, the per-outlet patch, the
//! outlet search and the exact re-check once for all three (DESIGN.md,
//! "The room LP").

pub mod arr;
pub mod baseline;
pub mod error;
pub mod min_power;
pub mod minlp;
pub mod objective;
pub mod pwl;
pub(crate) mod room;
pub mod rr;
pub mod solver;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod three_stage;
pub mod verify;

pub use arr::ArrCurve;
pub use baseline::BaselineSolution;
pub use error::SolveError;
pub use objective::ObjectiveWeights;
pub use pwl::PiecewiseLinear;
pub use rr::reward_rate_curve;
pub use solver::Solver;
pub use three_stage::{ThreeStageOptions, ThreeStageSolution};
pub use verify::{verify_assignment, VerificationReport};
