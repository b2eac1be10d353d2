//! Scheduling-as-a-service: a persistent daemon wrapping the
//! three-stage optimizer and the dynamic dispatcher behind an
//! admission API, the load generator that tries to break it, and the
//! supervisor that drives the same engine through a fault script.
//!
//! The crate splits along a strict determinism boundary:
//!
//! * [`engine`] and [`store`] are the **deterministic core**: the epoch
//!   step is a pure function of (state, admitted batches, floor faults,
//!   replan verdict), and the store journals exactly those inputs — so a
//!   SIGKILL at any byte resumes bit-identically by replay, and no
//!   wall clock, thread timing, or solver latency can leak in. The
//!   engine may stand on a physical floor (`thermaware_runtime::Floor`):
//!   CRAC failures, node deaths and sensor drift enter as journaled
//!   faults, and the floor's outlet-drop and throttle rungs and thermal
//!   trips run inside the step; the step never solves.
//! * [`daemon`] and [`loadgen`] are the **live shell**: sockets,
//!   threads, wall-clock epochs, solve timeouts, and chaos. Every
//!   nondeterministic outcome they produce (a solve that timed out, a
//!   solve that failed) is reified as a [`engine::ReplanVerdict`] and
//!   journaled *before* it is applied.
//! * [`supervisor`] drives the same loop from a script: a seeded
//!   [`FaultScript`](thermaware_runtime::FaultScript), seeded per-epoch
//!   arrivals and synchronous solves turned into `step_with` inputs, for
//!   experiments and drills; a stored run resumes through
//!   [`resume_service`].
//!
//! Overload protection is layered: a bounded admission queue with
//! reject-plus-retry-after backpressure, per-request deadline budgets,
//! a wall-clock solve timeout that falls back to the previous plan,
//! and a circuit [`breaker`] around LP solves that serves the stale
//! plan and sheds the lowest-reward task type while open.

pub mod breaker;
pub mod daemon;
pub mod engine;
pub mod loadgen;
pub mod proto;
pub mod store;
pub mod supervisor;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use daemon::{run_daemon, DaemonConfig};
pub use engine::{ReplanVerdict, ServiceConfig, ServiceEngine};
pub use proto::{Batch, Request, Response};
pub use store::{resume_service, ServiceStore};
pub use supervisor::{Outcome, Supervisor, SupervisorConfig, SupervisorReport};
