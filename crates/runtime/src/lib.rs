//! **thermaware-runtime** — a fault-tolerant runtime supervisor over the
//! paper's two-step technique.
//!
//! The paper (Section V) plans once at steady state and trusts the
//! dynamic scheduler from then on. A real power-capped floor sees CRAC
//! failures, node deaths, sensor drift, and demand surges mid-flight.
//! This crate closes the loop: [`Supervisor`] advances the discrete-event
//! simulation in epochs, injects faults from a seeded [`FaultScript`],
//! detects violations (inlet redlines, the Eq.-18 power cap, stale
//! plans), and responds through a staged degradation ladder — Stage-3
//! replan on surviving cores, CRAC set-point drops, emergency P-state
//! throttling, load shedding — with bounded retry/backoff and a typed
//! [`EventLog`] of everything it saw and did.
//!
//! Every run terminates with a typed [`Outcome`]; no path through the
//! supervisor panics (`clippy::unwrap_used` is denied crate-wide, and the
//! solver paths it calls return [`thermaware_core::SolveError`]).
//!
//! ```
//! use thermaware_core::Solver;
//! use thermaware_datacenter::ScenarioParams;
//! use thermaware_runtime::{FaultScript, Supervisor, SupervisorConfig};
//!
//! let dc = ScenarioParams { n_nodes: 8, n_crac: 2, ..ScenarioParams::small_test() }
//!     .build(1)
//!     .expect("scenario");
//! let plan = Solver::new(&dc).solve().expect("plan");
//!
//! // Kill a node 3 s in; surge demand 1.5x at 6 s.
//! let script = FaultScript::new().node_death(3.0, 0).arrival_surge(6.0, 1.5);
//! let cfg = SupervisorConfig { horizon_s: 12.0, ..SupervisorConfig::default() };
//! let report = Supervisor::new(&dc, cfg).run(&plan, &script);
//!
//! println!("{:?}: reward {:.1}/s", report.outcome, report.sim.reward_rate);
//! println!("{}", report.log);
//! ```

pub mod degrade;
pub mod event;
pub mod fault;
pub mod persist;
pub mod supervisor;

pub use degrade::{cheapest_throttle_step, throttle_to_budget, ThrottlePlan};
pub use event::{Action, Event, EventKind, EventLog, Violation};
pub use fault::{Fault, FaultEvent, FaultScript};
pub use persist::{
    resume, run_checkpointed, CheckpointConfig, PersistError, RecoveredRun, RecoveryInfo,
    RunHeader,
};
pub use supervisor::{
    LiveRun, Outcome, Supervisor, SupervisorConfig, SupervisorReport, SupervisorState,
};
