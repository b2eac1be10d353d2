//! The degradation steps, one copy each.
//!
//! Three ladders give up reward safely under faults: the supervisor's
//! response (`Supervisor::respond`), the fleet solver's degraded-zone
//! fallback (`thermaware_shard`) and the service's circuit breaker
//! (`thermaware_service`). Their rung *orders* differ and stay written
//! out where they are; the *steps* they share live here — the greedy
//! throttle step, the chip-level die scan and migration, the shed rule
//! and the epoch backoff (DESIGN §6 "One copy of each step").
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
use thermaware_thermal::{ChipGrid, ChipModel};

/// Cap on an epoch backoff's wait: the supervisor's and every fleet
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

/// Node `j`'s die and its per-core powers under `pstates`, when the chip
/// model has a grid for the node's type with the node's core count.
fn die<'c>(
    dc: &DataCenter,
    chip: &'c ChipModel,
    pstates: &[usize],
    j: usize,
) -> Option<(&'c ChipGrid, Vec<f64>)> {
    let t = dc.node_type_of[j];
    if t >= chip.n_types() {
        return None;
    }
    let grid = chip.grid(t);
    let cores = dc.cores_of_node(j);
    if cores.len() != grid.n_cores() {
        return None;
    }
    let table = &dc.node_type(j).core.pstates;
    Some((grid, cores.map(|k| table.power_kw(pstates[k])).collect()))
}

/// The hottest live die, `(peak °C, node)`, the first node on ties:
/// `inlets_c[j]` is node `j`'s die ambient. `None` when no live node has
/// a die the chip model covers.
pub(crate) fn hottest_die(
    dc: &DataCenter,
    chip: &ChipModel,
    inlets_c: &[f64],
    pstates: &[usize],
    dead: &[bool],
) -> Option<(f64, usize)> {
    let mut hottest: Option<(f64, usize)> = None;
    for (j, &inlet_c) in inlets_c.iter().enumerate() {
        if dead[j] {
            continue;
        }
        let Some((grid, powers)) = die(dc, chip, pstates, j) else {
            continue;
        };
        let peak = grid.peak_c(inlet_c, &powers);
        if hottest.is_none_or(|(p, _)| peak > p) {
            hottest = Some((peak, j));
        }
    }
    hottest
}

/// A chip-level migration plan and where it landed.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// The permuted per-core P-states (global core order). Within every
    /// node this is a permutation of the input — node power totals, and
    /// therefore every room-level constraint, are unchanged.
    pub pstates: Vec<usize>,
    /// Pairwise core swaps applied.
    pub swaps: usize,
    /// Fleet-wide peak die temperature before, °C.
    pub peak_before_c: f64,
    /// Fleet-wide peak die temperature after, °C.
    pub peak_after_c: f64,
    /// Whether every die's peak ended at or under the chip model's DTM
    /// threshold (false means migration alone cannot cool the hotspot —
    /// the caller should fall back to throttling).
    pub fits: bool,
}

/// Cool chip-level hotspots by migrating work between cores of the same
/// node: greedy strictly-improving P-state swaps on each over-threshold
/// die, up to `max_swaps` total. `inlets_c[j]` is node `j`'s inlet (die
/// ambient) temperature; `dead[j]` masks out dead nodes. This is the
/// degradation rung between throttle and shed: unlike both, it sheds
/// **zero** reward — node power totals are invariant, so a Stage-3 warm
/// replan after it reproduces the same rates.
pub fn migrate_to_tspd(
    dc: &DataCenter,
    chip: &ChipModel,
    inlets_c: &[f64],
    pstates: &[usize],
    max_swaps: usize,
    dead: Option<&[bool]>,
) -> MigrationPlan {
    let mut pstates = pstates.to_vec();
    let mut swaps = 0usize;
    let mut peak_before = f64::NEG_INFINITY;
    let mut peak_after = f64::NEG_INFINITY;
    let mut fits = true;
    for j in 0..dc.n_nodes() {
        let Some((grid, mut powers)) = die(dc, chip, &pstates, j) else {
            continue;
        };
        let first = dc.cores_of_node(j).start;
        let ambient = inlets_c.get(j).copied().unwrap_or(0.0);
        let mut peak = grid.peak_c(ambient, &powers);
        peak_before = peak_before.max(peak);
        if dead.is_some_and(|d| d[j]) {
            peak_after = peak_after.max(peak);
            continue;
        }
        // Greedy local search: take the swap that lowers this die's peak
        // the most, repeat while any strictly-improving swap exists.
        while peak > chip.t_dtm_c() && swaps < max_swaps {
            let mut best: Option<(f64, usize, usize)> = None; // (peak, a, b)
            for a in 0..powers.len() {
                for b in (a + 1)..powers.len() {
                    if powers[a] == powers[b] {
                        continue;
                    }
                    powers.swap(a, b);
                    let p = grid.peak_c(ambient, &powers);
                    powers.swap(a, b);
                    if p < peak - 1e-12 && best.is_none_or(|(bp, _, _)| p < bp) {
                        best = Some((p, a, b));
                    }
                }
            }
            let Some((p, a, b)) = best else { break };
            powers.swap(a, b);
            pstates.swap(first + a, first + b);
            peak = p;
            swaps += 1;
        }
        peak_after = peak_after.max(peak);
        if peak > chip.t_dtm_c() {
            fits = false;
        }
    }
    MigrationPlan {
        pstates,
        swaps,
        peak_before_c: peak_before,
        peak_after_c: peak_after,
        fits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_core::Solver;
    use thermaware_datacenter::ScenarioParams;
    use thermaware_thermal::ChipParams;

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

    /// A chip model for every node type of `dc`, its DTM redline below
    /// any die temperature, so migration runs to its local optimum.
    fn cold_chip_for(dc: &DataCenter) -> ChipModel {
        let cores: Vec<usize> = dc.node_types.iter().map(|t| t.cores_per_node).collect();
        ChipModel::build(&cores, &ChipParams { t_dtm_c: 0.0, ..ChipParams::default() })
            .expect("chip model builds")
    }

    #[test]
    fn placement_preserves_node_pstate_multisets() {
        let dc = ScenarioParams::small_test().build(11).expect("scenario builds");
        let sol = Solver::new(&dc).solve().expect("solves");
        let inlets = vec![25.0; dc.n_nodes()];
        let placed = migrate_to_tspd(&dc, &cold_chip_for(&dc), &inlets, &sol.pstates, 10_000, None);
        for node in 0..dc.n_nodes() {
            let mut a: Vec<usize> = dc.cores_of_node(node).map(|k| sol.pstates[k]).collect();
            let mut b: Vec<usize> = dc.cores_of_node(node).map(|k| placed.pstates[k]).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "node {node} multiset changed");
        }
    }

    #[test]
    fn placement_never_heats_a_die() {
        let dc = ScenarioParams::small_test().build(12).expect("scenario builds");
        let sol = Solver::new(&dc).solve().expect("solves");
        let chip = cold_chip_for(&dc);
        let inlets = vec![25.0; dc.n_nodes()];
        let placed = migrate_to_tspd(&dc, &chip, &inlets, &sol.pstates, 10_000, None);
        assert!(placed.peak_after_c <= placed.peak_before_c + 1e-9);
        for node in 0..dc.n_nodes() {
            let t = dc.node_type_of[node];
            let grid = chip.grid(t);
            let table = &dc.node_types[t].core.pstates;
            let before: Vec<f64> = dc
                .cores_of_node(node)
                .map(|k| table.power_kw(sol.pstates[k]))
                .collect();
            let after: Vec<f64> = dc
                .cores_of_node(node)
                .map(|k| table.power_kw(placed.pstates[k]))
                .collect();
            assert!(
                grid.peak_c(25.0, &after) <= grid.peak_c(25.0, &before) + 1e-9,
                "node {node} got hotter"
            );
        }
    }

    /// Four max-power cores clustered in a die corner run hotter than any
    /// spread placement; migration must cool the die to its local optimum
    /// without moving a single watt between nodes.
    #[test]
    fn migration_cools_a_clustered_die_and_preserves_node_power() {
        let (dc, _, _) = solved_zone();
        let cores_per_type: Vec<usize> =
            dc.node_types.iter().map(|t| t.cores_per_node).collect();
        // t_dtm below ambient: the greedy search runs until no
        // strictly-improving swap exists, i.e. to its local optimum.
        let cold = ChipModel::build(
            &cores_per_type,
            &ChipParams { t_dtm_c: 0.0, ..ChipParams::default() },
        )
        .expect("chip model builds");

        // All cores off except four shallow (max-power) cores packed into
        // adjacent grid positions in node 0's corner.
        let mut clustered = dc.off_pstates();
        let node0: Vec<usize> = dc.cores_of_node(0).collect();
        let (w, _) = cold.grid(dc.node_type_of[0]).shape();
        for &local in &[0, 1, w, w + 1] {
            clustered[node0[local]] = 0;
        }
        let inlets = vec![25.0; dc.n_nodes()];

        let plan = migrate_to_tspd(&dc, &cold, &inlets, &clustered, 10_000, None);
        assert!(plan.swaps > 0, "the clustered corner must be broken up");
        assert!(
            plan.peak_after_c < plan.peak_before_c - 0.1,
            "peak {} -> {} must drop",
            plan.peak_before_c,
            plan.peak_after_c
        );
        // Node power totals are invariant (room constraints untouched) and
        // every node's P-state multiset is preserved (pure permutation).
        let before = dc.node_powers_from_pstates(&clustered);
        let after = dc.node_powers_from_pstates(&plan.pstates);
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12, "node power moved: {b} -> {a}");
        }
        for j in 0..dc.n_nodes() {
            let mut x: Vec<usize> = dc.cores_of_node(j).map(|k| clustered[k]).collect();
            let mut y: Vec<usize> = dc.cores_of_node(j).map(|k| plan.pstates[k]).collect();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "node {j}: P-state multiset must be preserved");
        }

        // A DTM redline midway between the clustered and migrated peaks is
        // reachable by migration alone: the rung reports fits = true.
        let mid = 0.5 * (plan.peak_before_c + plan.peak_after_c);
        let chip = ChipModel::build(
            &cores_per_type,
            &ChipParams { t_dtm_c: mid, ..ChipParams::default() },
        )
        .expect("chip model builds");
        let plan2 = migrate_to_tspd(&dc, &chip, &inlets, &clustered, 10_000, None);
        assert!(plan2.fits, "a reachable redline must be reported as fitting");
        assert!(plan2.peak_after_c <= mid + 1e-9);
    }
}
