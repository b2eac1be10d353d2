//! The Section-VIII dual problem: **minimize total power subject to a
//! reward-rate floor** — the paper's first proposed future-work extension
//! ("in data centers that must provide stringent workload performance
//! guarantees and where power constraints are not active, minimizing the
//! overall power consumption may be a more relevant problem").
//!
//! The machinery mirrors Stage 1 with the objective and constraint
//! swapped: at fixed CRAC outlets, minimize the linearized total power
//! subject to `Σ ARR ≥ reward floor` plus the redlines; search the
//! outlets coarse-to-fine; round the resulting powers **up** to P-states
//! (rounding down could surrender the reward guarantee); then confirm
//! with Stage 3 that the discrete plan still clears the floor.

use crate::error::SolveError;
use crate::pwl::PiecewiseLinear;
use crate::room::{self, Layout, Linearised, RoomLp};
use crate::stage1::{add_segment_vars, arr_and_node_curves, distribute_node_power, segment_node_power};
use crate::stage3::solve_stage3;
use thermaware_datacenter::{CracSearchOptions, DataCenter};
use thermaware_lp::{Problem, RowOp, Sense, VarId};
use thermaware_thermal::ThermalState;

/// Options for the power-minimization solve.
#[derive(Debug, Clone, Copy)]
pub struct MinPowerOptions {
    /// ψ for the ARR curves.
    pub psi_percent: f64,
    /// CRAC outlet search strategy.
    pub search: CracSearchOptions,
}

impl Default for MinPowerOptions {
    fn default() -> Self {
        MinPowerOptions {
            psi_percent: 100.0,
            search: CracSearchOptions::default(),
        }
    }
}

/// A minimum-power plan meeting a reward floor.
#[derive(Debug, Clone)]
pub struct MinPowerSolution {
    /// Chosen CRAC outlets, °C.
    pub crac_out_c: Vec<f64>,
    /// Per-core P-states (global core order).
    pub pstates: Vec<usize>,
    /// Exact total power (IT + cooling) of the discrete plan, kW.
    pub total_power_kw: f64,
    /// Reward rate certified by Stage 3 for the discrete plan.
    pub reward_rate: f64,
}

/// Minimize total power subject to `reward rate >= reward_floor`.
///
/// Errors with [`SolveError::NoFeasibleOutlets`] when the floor is
/// unattainable within the redlines at every searched outlet combination
/// (it exceeds what even all-P0 operation could earn), and with
/// [`SolveError::InvalidInput`] when the floor is NaN.
pub fn solve_min_power(
    dc: &DataCenter,
    reward_floor: f64,
    options: &MinPowerOptions,
) -> Result<MinPowerSolution, SolveError> {
    if reward_floor.is_nan() {
        return Err(SolveError::InvalidInput { what: "the reward floor is NaN".to_string() });
    }
    let (_, node_curves) = arr_and_node_curves(dc, options.psi_percent);

    // Stage 1's segment variables under the swapped objective: each
    // segment costs its contribution to total power, `node_coeff` per kW
    // (set per candidate), and earns its slope towards the floor.
    let nn = dc.n_nodes();
    let mut p = Problem::new(Sense::Minimize);
    let mut layout = Layout::default();
    let slopes: Vec<Vec<f64>> = node_curves.iter().map(PiecewiseLinear::slopes).collect();
    add_segment_vars(&mut p, dc, &node_curves, &slopes, |_| 0.0, &mut layout);
    let reward_terms: Vec<(VarId, f64)> = layout
        .nodes()
        .enumerate()
        .flat_map(|(node, vars)| vars.iter().map(|&(v, _)| v).zip(slopes[dc.node_type_of[node]].iter().copied()))
        .collect();
    // Reward floor. NOTE: a minimization objective would happily leave a
    // later (cheaper-reward) segment filled while an earlier one is not;
    // concavity of the curve plus the floor being a *lower* bound keeps
    // the greedy segment order optimal here too (filling earlier segments
    // first earns at least as much reward per watt).
    p.add_row_nodup("reward_floor", &reward_terms, RowOp::Ge, reward_floor);
    // Redlines only: the power budget is what this problem minimizes.
    let mut room = RoomLp::build(dc, p, layout, None);

    let (mut lin, mut state) = (Linearised::default(), ThermalState::default());
    // The last solved candidate's core power per node: after the search,
    // the winner's.
    let (mut node_core, mut node_powers) = (Vec::new(), Vec::new());
    let (crac_out_c, _) =
        room::search_outlets(dc, options.search, "min_power", |outlets| {
            room.set_outlets(outlets, &mut lin);
            for (vars, &c) in room.layout.nodes().zip(&lin.node_coeff) {
                for &(v, _) in vars {
                    room.lp.set_var_objective(v, c);
                }
            }
            let sol = room.lp.solve_warm(None).ok()?;
            segment_node_power(&room.layout, sol, &mut node_core);
            dc.node_powers_in(&node_core, &mut node_powers);
            // No budget to break here, only redlines. The search maximizes;
            // score the negative of the exact power.
            let exact_power_kw = room::recheck(dc, outlets, &node_powers, f64::INFINITY, &mut state)?;
            Some(-exact_power_kw)
        })?;

    // Distribute node power to cores (same mixing as Stage 1).
    let mut core_power = vec![0.0; dc.n_cores()];
    for node in 0..nn {
        // node_curves are node-level; per-core hull = divide by count.
        let count = dc.node_type(node).cores_per_node;
        let per_core_hull: Vec<(f64, f64)> = node_curves[dc.node_type_of[node]]
            .points()
            .iter()
            .map(|&(x, y)| (x / count as f64, y / count as f64))
            .collect();
        distribute_node_power(node_core[node], &per_core_hull, &mut core_power[dc.cores_of_node(node)]);
    }

    // Round powers *up* to P-states so the continuous reward estimate is
    // not surrendered.
    let pstates: Vec<usize> = (0..dc.n_cores())
        .map(|k| {
            let t = &dc.node_type(dc.node_of_core(k)).core.pstates;
            t.deepest_at_or_above(core_power[k])
        })
        .collect();
    let s3 = solve_stage3(dc, &pstates)?;
    let node_powers = dc.node_powers_from_pstates(&pstates);
    let (it, cooling, _) = dc.total_power_kw(&crac_out_c, &node_powers);
    Ok(MinPowerSolution {
        crac_out_c,
        pstates,
        total_power_kw: it + cooling,
        reward_rate: s3.reward_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    #[test]
    fn meets_floor_with_less_power_than_budgeted_operation() {
        let dc = ScenarioParams::small_test().build(1).unwrap();
        // Ask for half of what the budgeted three-stage solve achieves.
        let full = crate::Solver::new(&dc).solve().unwrap();
        let floor = 0.5 * full.reward_rate();
        let sol = solve_min_power(&dc, floor, &MinPowerOptions::default()).expect("min power");
        assert!(
            sol.reward_rate >= floor * (1.0 - 0.02),
            "reward {} below floor {floor}",
            sol.reward_rate
        );
        // Less aggregate power than the budget-saturating plan.
        assert!(sol.total_power_kw <= dc.budget.p_const_kw + 1e-6);
    }

    #[test]
    fn zero_floor_uses_minimal_power() {
        let dc = ScenarioParams::small_test().build(2).unwrap();
        let sol = solve_min_power(&dc, 0.0, &MinPowerOptions::default()).unwrap();
        // With no reward requirement, everything can switch off: power
        // approaches the all-off bound.
        assert!(sol.total_power_kw <= dc.budget.p_min_kw * 1.05 + 1e-6);
    }

    #[test]
    fn a_nan_floor_is_invalid_input() {
        let dc = ScenarioParams::small_test().build(3).unwrap();
        assert!(matches!(
            solve_min_power(&dc, f64::NAN, &MinPowerOptions::default()),
            Err(SolveError::InvalidInput { .. })
        ));
    }

    #[test]
    fn impossible_floor_errors() {
        let dc = ScenarioParams::small_test().build(3).unwrap();
        let absurd = dc.workload.max_reward_rate() * 10.0;
        assert_eq!(
            solve_min_power(&dc, absurd, &MinPowerOptions::default()).err(),
            Some(SolveError::NoFeasibleOutlets { stage: "min_power" })
        );
    }
}
