//! The second-step **dynamic scheduler** and its discrete-event
//! simulation (paper Section V.C).
//!
//! The first step hands down desired execution rates `TC(i, k)`; the
//! dynamic scheduler sees individual task arrivals and keeps the *actual*
//! rates `ATC(i, k)` tracking the desired ones: each arriving task of
//! type `i` goes to the core with the smallest `ATC(i,k)/TC(i,k)` among
//! cores that (a) have a nonzero desired rate for the type, (b) are not
//! already at or past their desired rate (`ratio <= 1`), and (c) can
//! finish the task before its deadline given their current backlog. If no
//! such core exists the task is **dropped** — in an oversubscribed data
//! center dropping is a decision, not a failure.
//!
//! The simulator is event-driven: arrivals come from a pre-sampled
//! Poisson [`thermaware_workload::ArrivalTrace`]; completions are exact
//! (service times are deterministic `1/ECS`), so a task admitted under
//! check (c) always earns its reward.

mod dispatch;
mod encoded;
mod sim;

pub use dispatch::{DispatchDecision, DispatchPolicy, DynamicScheduler};
pub use sim::{
    simulate, simulate_stochastic, simulate_with_policy, Admitted, EpochSim, LatencyStats,
    SimulationResult, TypeStats,
};
