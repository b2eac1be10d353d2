//! Serializable fleet-solver state for crash-resume.
//!
//! Mirrors PR 2's supervisor snapshots: everything the solver carries
//! across replans — per-zone last-good plans, warm-start bases, and
//! retry backoff counters — derives the vendored serde's `Serialize` /
//! `Deserialize`, so a solver restored from a snapshot replans exactly
//! like the uninterrupted one (warm bases included).

use serde::{Deserialize, Serialize};
use thermaware_core::stage3::Stage3Basis;

/// How a degraded zone's plan was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackKind {
    /// The zone's last-good plan, reused unchanged (it fit the budget).
    LastGood,
    /// The last-good plan walked under the budget by the greedy
    /// throttle ladder (`thermaware_runtime::degrade`).
    Throttled,
    /// Every core off at the zone's all-off optimal outlets — the
    /// unconditional floor.
    AllOff,
}

/// One zone's executable plan for this epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZonePlan {
    /// Zone index in the fleet.
    pub zone: usize,
    /// The budget the master allocated this zone, kW.
    pub budget_kw: f64,
    /// Actual total power (IT + cooling) of the plan, kW.
    pub power_kw: f64,
    /// The plan's reward rate (Stage-3 objective; 0 for all-off).
    pub reward: f64,
    /// CRAC outlet set-points, °C.
    pub outlets: Vec<f64>,
    /// Per-core P-states (zone-local global core order).
    pub pstates: Vec<usize>,
    /// `None` for a fresh solve; otherwise which fallback rung produced
    /// this plan.
    pub degraded: Option<FallbackKind>,
}

/// Per-zone solver carry-state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ZoneSlot {
    /// The newest non-degraded plan this zone produced.
    pub last_good: Option<ZonePlan>,
    /// Stage-3 warm-start basis from the newest fresh solve.
    pub basis: Option<Stage3Basis>,
    /// Epochs left to skip before re-attempting a fresh solve.
    pub backoff_skip: u32,
    /// Skip length of the *next* failure (doubles, capped).
    pub backoff_next: u32,
}

/// A complete, versioned solver snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetState {
    /// Snapshot format version.
    pub version: u32,
    /// The next epoch the solver will replan.
    pub epoch: u64,
    /// Per-zone carry-state, in zone order.
    pub zones: Vec<ZoneSlot>,
}

/// The current snapshot format version.
pub const STATE_VERSION: u32 = 1;
