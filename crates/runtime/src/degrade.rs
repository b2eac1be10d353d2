//! The degradation steps, one copy each.
//!
//! Two ladders give up reward safely under faults: the service's — the
//! floor's rungs ([`crate::floor`]), then the circuit breaker
//! (`thermaware_service`) — and the fleet solver's degraded-zone fallback
//! (`thermaware_shard`). Their rung *orders* differ and stay written out
//! where they are; the *steps* they share live here — the greedy throttle
//! step, the shed rule and the epoch backoff (DESIGN §6 "One copy of each
//! step").
//!
//! The throttle step is the paper's Stage-2 logic run in reverse:
//! repeatedly deepen one node's shallowest core
//! ([`DataCenter::shallowest_core`]), choosing the node by a caller's
//! score. Deepening only ever lowers node powers, and the heat-flow
//! model's inlet temperatures are nondecreasing in node powers, so a
//! redline-feasible plan stays redline-feasible at every step — the
//! ladder can only walk *into* the feasible region.

use crate::event::{Action, EventKind, EventLog};
use thermaware_datacenter::DataCenter;

/// Cap on an epoch backoff's wait: the floor's and every fleet
/// zone's (the breaker's is its configured `max_cooldown_epochs`).
pub const MAX_BACKOFF_EPOCHS: u32 = 8;

/// One failure's epoch backoff: wait `len` epochs (at least one), then
/// double `len` for the next failure, saturating, up to `cap`. Both
/// counters come back from snapshots unchecked, so nothing here may
/// overflow.
pub fn back_off(wait: &mut u32, len: &mut u32, cap: u32) {
    let n = (*len).max(1);
    *wait = n;
    *len = n.saturating_mul(2).min(cap);
}

/// Pick one one-state deepening: among each live node's shallowest core,
/// the one with the highest `score(node, dp_kw, ds_mhz)` — the power it
/// sheds and the speed it gives up — the first node on ties. `dead[j]`
/// masks out dead nodes (`None` = all alive). Returns the global core
/// index, or `None` when every live core is already off.
pub fn cheapest_throttle_step(
    dc: &DataCenter,
    pstates: &[usize],
    dead: Option<&[bool]>,
    score: impl Fn(usize, f64, f64) -> f64,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None; // (score, core)
    for j in 0..dc.n_nodes() {
        if dead.is_some_and(|d| d[j]) {
            continue;
        }
        let Some(k) = dc.shallowest_core(pstates, j) else {
            continue;
        };
        let table = &dc.node_type(j).core.pstates;
        let p = pstates[k];
        let dp_kw = table.power_kw(p) - table.power_kw(p + 1);
        let ds_mhz = (table.freq_mhz(p) - table.freq_mhz(p + 1)).max(1e-9);
        let score = score(j, dp_kw, ds_mhz);
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, k));
        }
    }
    best.map(|(_, k)| k)
}

/// The power-cap score: power shed per MHz lost, so the least
/// reward-efficient speed goes first (by concavity of ARR).
pub(crate) fn power_per_mhz(_node: usize, dp_kw: f64, ds_mhz: f64) -> f64 {
    dp_kw / ds_mhz
}

/// A throttled plan and where it landed.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottlePlan {
    /// The deepened per-core P-states (global core order).
    pub pstates: Vec<usize>,
    /// One-state deepenings applied.
    pub steps: usize,
    /// IT power of the result, kW.
    pub it_kw: f64,
    /// Cooling power of the result at `outlets`, kW.
    pub cooling_kw: f64,
    /// Whether `it_kw + cooling_kw ≤ budget_kw` was reached (false means
    /// the ladder ran out of cores or steps first).
    pub fits: bool,
}

/// Walk `pstates` under `budget_kw` (total IT + cooling at the given
/// CRAC outlets) by greedy power-per-MHz deepenings, up to `max_steps`.
pub fn throttle_to_budget(
    dc: &DataCenter,
    outlets: &[f64],
    pstates: &[usize],
    budget_kw: f64,
    max_steps: usize,
) -> ThrottlePlan {
    let mut pstates = pstates.to_vec();
    let mut steps = 0usize;
    loop {
        let powers = dc.node_powers_from_pstates(&pstates);
        let (it_kw, cooling_kw, _state) = dc.total_power_kw(outlets, &powers);
        if it_kw + cooling_kw <= budget_kw {
            return ThrottlePlan { pstates, steps, it_kw, cooling_kw, fits: true };
        }
        if steps >= max_steps {
            return ThrottlePlan { pstates, steps, it_kw, cooling_kw, fits: false };
        }
        match cheapest_throttle_step(dc, &pstates, None, power_per_mhz) {
            Some(k) => {
                pstates[k] += 1;
                steps += 1;
            }
            None => return ThrottlePlan { pstates, steps, it_kw, cooling_kw, fits: false },
        }
    }
}

/// Shed the lowest-reward of `candidates` — `(task type, reward)` pairs,
/// the caller's eligible types — the first on ties: append it to `shed`,
/// log it, and return it (`None` when there is no candidate).
pub fn shed_lowest_reward(
    candidates: impl IntoIterator<Item = (usize, f64)>,
    shed: &mut Vec<usize>,
    log: &mut EventLog,
    at_s: f64,
) -> Option<usize> {
    let (task_type, reward) = candidates.into_iter().min_by(|a, b| a.1.total_cmp(&b.1))?;
    shed.push(task_type);
    log.record(at_s, EventKind::ActionTaken(Action::ShedTaskType { task_type, reward }));
    Some(task_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_core::Solver;
    use thermaware_datacenter::ScenarioParams;

    fn solved_zone() -> (DataCenter, Vec<usize>, Vec<f64>) {
        let dc = ScenarioParams::small_test().build(3).expect("scenario builds");
        let plan = Solver::new(&dc).solve().expect("solves");
        let outlets = plan.crac_out_c().to_vec();
        (dc, plan.pstates, outlets)
    }

    #[test]
    fn throttling_to_a_lower_budget_monotonically_sheds_power() {
        let (dc, pstates, outlets) = solved_zone();
        let powers = dc.node_powers_from_pstates(&pstates);
        let (it, cooling, _) = dc.total_power_kw(&outlets, &powers);
        let full = it + cooling;
        let target = 0.8 * full;
        let plan = throttle_to_budget(&dc, &outlets, &pstates, target, 100_000);
        assert!(plan.fits, "80% of the solved load must be reachable");
        assert!(plan.it_kw + plan.cooling_kw <= target + 1e-9);
        assert!(plan.steps > 0);
        // Deepening only: every core at an equal-or-deeper state.
        for (a, b) in pstates.iter().zip(&plan.pstates) {
            assert!(b >= a);
        }
    }

    #[test]
    fn redlines_survive_throttling() {
        let (dc, pstates, outlets) = solved_zone();
        let powers = dc.node_powers_from_pstates(&pstates);
        let (it, cooling, state) = dc.total_power_kw(&outlets, &powers);
        assert!(dc.redlines_ok(&state), "solved plan starts feasible");
        let plan = throttle_to_budget(&dc, &outlets, &pstates, 0.75 * (it + cooling), 100_000);
        let (_, _, state) = dc.total_power_kw(&outlets, &dc.node_powers_from_pstates(&plan.pstates));
        assert!(dc.redlines_ok(&state), "throttling must not create violations");
    }

    #[test]
    fn impossible_budget_reports_not_fitting() {
        let (dc, pstates, outlets) = solved_zone();
        // Below even the all-off floor: the ladder must terminate and
        // report fits = false rather than loop.
        let plan = throttle_to_budget(&dc, &outlets, &pstates, 0.0, 100_000);
        assert!(!plan.fits);
        // Everything it could turn off, it did.
        assert!(cheapest_throttle_step(&dc, &plan.pstates, None, power_per_mhz).is_none());
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let (dc, pstates, _outlets) = solved_zone();
        let mut dead = vec![false; dc.n_nodes()];
        dead[0] = true;
        if let Some(k) = cheapest_throttle_step(&dc, &pstates, Some(&dead), power_per_mhz) {
            assert!(!dc.cores_of_node(0).contains(&k), "dead node must not be chosen");
        }
    }

    #[test]
    fn budget_above_draw_is_a_no_op() {
        let (dc, pstates, outlets) = solved_zone();
        let powers = dc.node_powers_from_pstates(&pstates);
        let (it, cooling, _) = dc.total_power_kw(&outlets, &powers);
        let plan = throttle_to_budget(&dc, &outlets, &pstates, it + cooling + 10.0, 100_000);
        assert!(plan.fits, "a budget above the current draw fits as-is");
        assert_eq!(plan.steps, 0);
        assert_eq!(plan.pstates, pstates, "no core may be touched");
    }

    #[test]
    fn zero_budget_on_an_all_off_fleet_terminates_without_steps() {
        let (dc, _, outlets) = solved_zone();
        let all_off = dc.off_pstates();
        // Nothing left to deepen: the ladder must return immediately, and
        // static node power keeps the floor above a zero budget.
        assert!(cheapest_throttle_step(&dc, &all_off, None, power_per_mhz).is_none());
        let plan = throttle_to_budget(&dc, &outlets, &all_off, 0.0, 100_000);
        assert_eq!(plan.steps, 0);
        assert_eq!(plan.pstates, all_off);
        assert!(!plan.fits, "static draw cannot fit a zero budget");
        assert!(plan.it_kw + plan.cooling_kw > 0.0);
    }
}
