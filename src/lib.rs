//! **thermaware** — thermal-aware performance optimization in
//! power-constrained heterogeneous data centers.
//!
//! A full Rust reproduction of Al-Qawasmeh, Pasricha, Maciejewski &
//! Siegel, *"Thermal-Aware Performance Optimization in Power Constrained
//! Heterogeneous Data Centers"* (IEEE IPDPSW 2012), including every
//! substrate the paper relies on: a sparse revised-simplex LP solver,
//! the abstract heat-flow thermal model with cross-interference
//! generation, CMOS P-state power models, the Section-VI synthetic
//! workload, the three-stage assignment technique, the Eq.-21 baseline,
//! an exact MINLP reference, and the second-step dynamic scheduler with a
//! discrete-event simulator.
//!
//! This crate is a facade: it re-exports the workspace members under one
//! namespace. Depend on the individual `thermaware-*` crates instead when
//! you only need a substrate.
//!
//! # Quickstart
//!
//! ```
//! use thermaware::prelude::*;
//!
//! // A small data center: 1 CRAC, 10 nodes, the paper's third
//! // simulation set (static share 20%, Vprop 0.3).
//! let params = ScenarioParams {
//!     n_nodes: 10,
//!     n_crac: 1,
//!     ..ScenarioParams::paper(0.2, 0.3)
//! };
//! let dc = params.build(42)?;
//!
//! // The paper's three-stage thermal-aware assignment...
//! let plan = Solver::new(&dc).psi(50.0).solve()?;
//! // ...against the P0-or-off baseline it is evaluated against.
//! let base = Solver::new(&dc).baseline()?;
//! assert!(plan.reward_rate() > 0.0 && base.reward_rate > 0.0);
//! # Ok::<(), thermaware::Error>(())
//! ```
//!
//! To profile a solve, hand the builder a recorder:
//!
//! ```no_run
//! use std::sync::Arc;
//! use thermaware::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dc = ScenarioParams::small_test().build(7)?;
//! let rec = Arc::new(JsonlRecorder::create("results/trace.jsonl")?);
//! let plan = Solver::new(&dc).recorder(rec.clone()).solve()?;
//! rec.finish()?; // metric summary lines + flush
//! # Ok(()) }
//! ```

mod error;
pub mod prelude;

pub use error::Error;

/// The paper's contribution: RR/ARR curves, the three-stage assignment,
/// the baseline, the exact reference solver, and verification.
pub use thermaware_core as core;
/// Scenario assembly: floors, budgets, the Section-VI generator.
pub use thermaware_datacenter as datacenter;
/// Dense linear algebra (matrices, LU).
pub use thermaware_linalg as linalg;
/// Observability on std and the vendored JSON codec: spans, counters,
/// histograms, sinks.
pub use thermaware_obs as obs;
/// The bounded-variable revised-simplex LP solver (primal and dual
/// phases, warm starts).
pub use thermaware_lp as lp;
/// P-state tables and CMOS power models.
pub use thermaware_power as power;
/// The physical floor (fault injection, outlet drops, throttling, trips),
/// typed event logs, and the durable trail.
pub use thermaware_runtime as runtime;
/// The second-step dynamic scheduler and its event-driven simulator.
pub use thermaware_scheduler as scheduler;
/// Scheduling-as-a-service: the overload-protected daemon, its
/// deterministic engine, durable store, wire protocol, and load
/// generator.
pub use thermaware_service as service;
/// Zone-decomposed fleet solving: the supervised worker pool, the
/// power-budget bisection master, and the degraded-zone fallback ladder.
pub use thermaware_shard as shard;
/// The abstract heat-flow model, CoP/CRAC power, interference generation.
pub use thermaware_thermal as thermal;
/// Task types, ECS matrices, arrival traces.
pub use thermaware_workload as workload;
