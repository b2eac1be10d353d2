//! One-import surface for the common workflow: build a scenario, solve a
//! plan, simulate it, supervise it, observe everything.
//!
//! ```
//! use thermaware::prelude::*;
//!
//! let dc = ScenarioParams::small_test().build(7)?;
//! let plan = Solver::new(&dc).psi(50.0).solve()?;
//! assert!(plan.reward_rate() > 0.0);
//! # Ok::<(), thermaware::Error>(())
//! ```
//!
//! The prelude re-exports the *workflow* types only — the entry points a
//! typical example or bench touches. Substrate internals (LP modeling,
//! thermal coefficients, PWL curves) stay behind their module paths:
//! `thermaware::lp`, `thermaware::thermal`, ….

pub use crate::Error;

// Scenario assembly.
pub use thermaware_datacenter::{
    CracSearchOptions, DataCenter, ScenarioError, ScenarioParams, ScenarioSnapshot,
};

// Workload, arrival traces, and the demand curve.
pub use thermaware_workload::{ArrivalTrace, Curve, Workload};

// The solver: the `Solver` builder is the single solve entry point.
pub use thermaware_core::{
    verify_assignment, BaselineSolution, ObjectiveWeights, SolveError, Solver,
    ThreeStageOptions, ThreeStageSolution, VerificationReport,
};

// The second-step dynamic scheduler.
pub use thermaware_scheduler::{simulate, DispatchPolicy, EpochSim, SimulationResult};

// Faults, the physical floor, and the durability layer's error.
pub use thermaware_runtime::{FaultScript, Floor, PersistError};

// Scheduling-as-a-service: the deterministic engine, its durable store,
// and the supervisor that drives it through a fault script (the daemon
// shell and loadgen stay behind `thermaware::service`).
pub use thermaware_service::{
    resume_service, Outcome, ReplanVerdict, ServiceConfig, ServiceEngine, ServiceStore, Supervisor,
    SupervisorConfig, SupervisorReport,
};

// Zone-decomposed fleet solving on the supervised worker pool.
pub use thermaware_shard::{Fleet, FleetConfig, FleetParams, FleetPlan, FleetSolver};

// Observability sinks and the install entry point.
pub use thermaware_obs::{JsonlRecorder, MemoryRecorder, NoopRecorder, Recorder};
