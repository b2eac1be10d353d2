//! **thermaware-runtime** — the physical floor under the paper's
//! two-step technique, and the durable trail a running service writes.
//!
//! The paper (Section V) plans once at steady state and trusts the
//! dynamic scheduler from then on. A real power-capped floor sees CRAC
//! failures, node deaths, sensor drift, and demand surges mid-flight.
//! This crate holds what answers them without a solver:
//!
//! * [`Floor`] — outlets, failed units, dead nodes and sensor bias; it
//!   takes a seeded [`FaultScript`]'s faults at epoch boundaries, checks
//!   the observed floor against the redline and the Eq.-18 power cap,
//!   answers a breach with CRAC outlet drops and emergency throttling,
//!   and trips nodes whose true inlet overshoots. What needs a solve (a
//!   Stage-3 replan on the surviving cores) it asks for, and the service
//!   engine (`thermaware-service`) applies as a journaled verdict.
//! * [`degrade`] — the degradation steps the floor, the fleet fallback
//!   and the service breaker share.
//! * [`EventLog`] — a typed record of every fault, detection, action and
//!   recovery.
//! * [`persist`] — the write-ahead journal, snapshots and replay the
//!   service store is built on.
//!
//! No path through the floor panics (`clippy::unwrap_used` is denied
//! crate-wide).
//!
//! ```
//! use thermaware_core::Solver;
//! use thermaware_datacenter::ScenarioParams;
//! use thermaware_runtime::{EventLog, Fault, Floor, DEFAULT_TRIP_MARGIN_C};
//! use thermaware_scheduler::EpochSim;
//!
//! let dc = ScenarioParams { n_nodes: 8, n_crac: 2, ..ScenarioParams::small_test() }
//!     .build(1)
//!     .expect("scenario");
//! let plan = Solver::new(&dc).solve().expect("plan");
//! let mut floor = Floor::new(&dc, plan.crac_out_c(), true, DEFAULT_TRIP_MARGIN_C);
//! let (mut pstates, mut sim, mut log) =
//!     (plan.pstates.clone(), EpochSim::new(&dc, &plan.pstates, &plan.stage3), EventLog::default());
//!
//! // Inlet sensors drift 3 °C hot at the boundary 1 s in: the floor
//! // drops its outlets, then throttles the power the colder air costs,
//! // and asks for the Stage-3 replan the throttled cores need.
//! floor.epoch(&dc, &mut pstates, &mut sim, &[Fault::SensorDrift { bias_c: 3.0 }], 1.0, &mut log);
//! assert!(floor.healthy && floor.wants_replan());
//! println!("{log}");
//! ```

pub mod degrade;
pub mod event;
pub mod fault;
pub mod floor;
pub mod persist;

pub use degrade::{cheapest_throttle_step, throttle_to_budget, ThrottlePlan};
pub use event::{Action, Event, EventKind, EventLog, Violation};
pub use fault::{epoch_arrivals, Fault, FaultEvent, FaultScript};
pub use floor::{Floor, DEFAULT_TRIP_MARGIN_C};
pub use persist::PersistError;
