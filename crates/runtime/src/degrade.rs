//! The greedy throttle ladder, exposed as a standalone deterministic
//! primitive.
//!
//! PR 1 buried the power-cap throttle inside the supervisor's rung-3
//! response. The fleet solver (`crates/shard`) needs the same move for
//! its degraded-zone fallback — take the zone's last-good plan and walk
//! it back under a shrunken budget — so the greedy core selection lives
//! here and the supervisor calls it for its power-mode rung.
//!
//! The move is the paper's Stage-2 logic run in reverse: repeatedly
//! deepen the P-state of the core giving up the most power per MHz of
//! speed lost (the least reward-efficient speed, by concavity of ARR).
//! Deepening only ever lowers node powers, and the heat-flow model's
//! inlet temperatures are nondecreasing in node powers, so a
//! redline-feasible plan stays redline-feasible at every step — the
//! ladder can only walk *into* the feasible region.

use thermaware_datacenter::DataCenter;
use thermaware_thermal::ChipModel;

/// Pick the cheapest one-state deepening: among each live node's
/// shallowest core, the one shedding the most power per MHz lost.
/// `dead[j]` masks out dead nodes (`None` = all alive). Returns the
/// global core index, or `None` when every core is already off.
pub fn cheapest_throttle_step(
    dc: &DataCenter,
    pstates: &[usize],
    dead: Option<&[bool]>,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None; // (score, core)
    for j in 0..dc.n_nodes() {
        if dead.is_some_and(|d| d[j]) {
            continue;
        }
        let table = &dc.node_type(j).core.pstates;
        let off = table.off_index();
        let Some(k) = dc
            .cores_of_node(j)
            .filter(|&k| pstates[k] < off)
            .min_by_key(|&k| pstates[k])
        else {
            continue;
        };
        let p = pstates[k];
        let dp_kw = table.power_kw(p) - table.power_kw(p + 1);
        let ds_mhz = (table.freq_mhz(p) - table.freq_mhz(p + 1)).max(1e-9);
        let score = dp_kw / ds_mhz;
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, k));
        }
    }
    best.map(|(_, k)| k)
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
/// CRAC outlets) by greedy one-state deepenings, up to `max_steps`.
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
        match cheapest_throttle_step(dc, &pstates, None) {
            Some(k) => {
                pstates[k] += 1;
                steps += 1;
            }
            None => return ThrottlePlan { pstates, steps, it_kw, cooling_kw, fits: false },
        }
    }
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
        let t = dc.node_type_of[j];
        if t >= chip.n_types() {
            continue;
        }
        let grid = chip.grid(t);
        let cores: Vec<usize> = dc.cores_of_node(j).collect();
        if cores.len() != grid.n_cores() {
            continue;
        }
        let table = &dc.node_type(j).core.pstates;
        let ambient = inlets_c.get(j).copied().unwrap_or(0.0);
        let mut powers: Vec<f64> = cores.iter().map(|&k| table.power_kw(pstates[k])).collect();
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
            pstates.swap(cores[a], cores[b]);
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
        assert!(cheapest_throttle_step(&dc, &plan.pstates, None).is_none());
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let (dc, pstates, _outlets) = solved_zone();
        let mut dead = vec![false; dc.n_nodes()];
        dead[0] = true;
        if let Some(k) = cheapest_throttle_step(&dc, &pstates, Some(&dead)) {
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
        let (dc, pstates, outlets) = solved_zone();
        let mut all_off = pstates;
        for j in 0..dc.n_nodes() {
            let off = dc.node_type(j).core.pstates.off_index();
            for k in dc.cores_of_node(j) {
                all_off[k] = off;
            }
        }
        // Nothing left to deepen: the ladder must return immediately, and
        // static node power keeps the floor above a zero budget.
        assert!(cheapest_throttle_step(&dc, &all_off, None).is_none());
        let plan = throttle_to_budget(&dc, &outlets, &all_off, 0.0, 100_000);
        assert_eq!(plan.steps, 0);
        assert_eq!(plan.pstates, all_off);
        assert!(!plan.fits, "static draw cannot fit a zero budget");
        assert!(plan.it_kw + plan.cooling_kw > 0.0);
    }

    /// Four max-power cores clustered in a die corner run hotter than any
    /// spread placement; migration must cool the die to its local optimum
    /// without moving a single watt between nodes.
    #[test]
    fn migration_cools_a_clustered_die_and_preserves_node_power() {
        let (dc, pstates, _outlets) = solved_zone();
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
        let mut clustered = pstates;
        for j in 0..dc.n_nodes() {
            let off = dc.node_type(j).core.pstates.off_index();
            for k in dc.cores_of_node(j) {
                clustered[k] = off;
            }
        }
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
