//! The comparison technique of Section VII.A (Eqs. 19–22), adapted from
//! Parolini et al. \[26\]: each compute node runs a continuous *fraction*
//! of its cores at P-state 0 per task type — `FRAC(i, j)` — and the rest
//! are off. No intermediate P-states.
//!
//! At fixed CRAC outlets this is an LP in `FRAC`; the outlets are searched
//! exactly like Stage 1's. After solving, the fractions of each node are
//! scaled down by a common factor so the number of cores in use (Eq. 22)
//! is an integer — the paper's rounding rule — and the reward rate is
//! re-evaluated at the reduced fractions.
//!
//! Note on Eq. 19: the printed equation omits the `|cores_j|` factor in
//! the power term while the reward term (Eq. 21) includes it; we restore
//! it so a node's power corresponds to the cores its reward presumes (see
//! DESIGN.md).

use crate::error::SolveError;
use crate::room::{self, Layout, Linearised, RoomLp};
use thermaware_datacenter::{CracSearchOptions, DataCenter};
use thermaware_lp::{Problem, RowOp, Sense, VarId};
use thermaware_thermal::ThermalState;

/// The baseline's assignment.
#[derive(Debug, Clone)]
pub struct BaselineSolution {
    /// Chosen CRAC outlet temperatures, °C.
    pub crac_out_c: Vec<f64>,
    /// `frac[j][i]`: fraction of node `j`'s cores running task type `i`
    /// at P-state 0, *after* the Eq.-22 integerization.
    pub frac: Vec<Vec<f64>>,
    /// Cores in use per node after integerization (an integer value).
    pub cores_on: Vec<f64>,
    /// Total reward rate at the reduced fractions — the number Figure 6
    /// compares.
    pub reward_rate: f64,
    /// Reward rate before integerization (diagnostic upper value).
    pub reward_rate_continuous: f64,
}

/// Solve the baseline for a data center — what
/// [`crate::Solver::baseline`] runs.
pub(crate) fn baseline_impl(
    dc: &DataCenter,
    search: CracSearchOptions,
) -> Result<BaselineSolution, SolveError> {
    let _span = thermaware_obs::span("baseline");
    let (mut room, vars) = frac_lp(dc);
    let (mut lin, mut state) = (Linearised::default(), ThermalState::default());
    // The last solved candidate's fractions: after the search, the
    // winner's.
    let mut frac: Vec<Vec<f64>> = vars.iter().map(|row| vec![0.0; row.len()]).collect();
    let (crac_out_c, reward_rate_continuous) =
        room::search_outlets(dc, search, "baseline", |outlets| {
            room.set_outlets(outlets, &mut lin);
            let sol = room.lp.solve_warm(None).ok()?;
            for (row, fracs) in vars.iter().zip(&mut frac) {
                for (var, f) in row.iter().zip(fracs.iter_mut()) {
                    *f = var.map_or(0.0, |v| sol.value(v).max(0.0));
                }
            }
            let node_powers = baseline_node_powers(dc, &frac);
            room::recheck(dc, outlets, &node_powers, dc.budget.p_const_kw, &mut state)?;
            Some(sol.objective)
        })?;

    // Eq. 22 integerization: per node, shrink all fractions by a common
    // factor so cores-in-use is an integer.
    let t = dc.n_task_types();
    let mut cores_on = vec![0.0; dc.n_nodes()];
    for j in 0..dc.n_nodes() {
        let cores = dc.node_type(j).cores_per_node as f64;
        let used: f64 = frac[j].iter().sum::<f64>() * cores;
        if used > 1e-9 {
            let target = used.floor();
            let scale = target / used;
            for v in &mut frac[j] {
                *v *= scale;
            }
            cores_on[j] = target;
        } else {
            for v in &mut frac[j] {
                *v = 0.0;
            }
        }
    }
    let mut reward_rate = 0.0;
    for j in 0..dc.n_nodes() {
        let nt = dc.node_type_of[j];
        let cores = dc.node_type(j).cores_per_node as f64;
        for i in 0..t {
            reward_rate +=
                dc.workload.task_types[i].reward * dc.workload.ecs.ecs(i, nt, 0) * cores * frac[j][i];
        }
    }

    Ok(BaselineSolution {
        crac_out_c,
        frac,
        cores_on,
        reward_rate,
        reward_rate_continuous,
    })
}

/// Node powers implied by a (possibly reduced) fraction matrix.
pub fn baseline_node_powers(dc: &DataCenter, frac: &[Vec<f64>]) -> Vec<f64> {
    (0..dc.n_nodes())
        .map(|j| {
            let nt = dc.node_type(j);
            let used: f64 = frac[j].iter().sum();
            nt.base_power_kw
                + nt.core.pstates.power_kw(0) * nt.cores_per_node as f64 * used
        })
        .collect()
}

/// The Eq.-21 LP of one outlet search: `FRAC` variables `vars[j][i]`
/// (`None` for deadline-infeasible pairs, FRAC pinned to 0), the arrival
/// and per-node capacity rows, and the room's rows over node powers that
/// are `pw_j` kW per unit of `Σ_i FRAC(i, j)`.
fn frac_lp(dc: &DataCenter) -> (RoomLp<'_>, Vec<Vec<Option<VarId>>>) {
    let nn = dc.n_nodes();
    let t = dc.n_task_types();

    let mut p = Problem::new(Sense::Maximize);
    let mut vars: Vec<Vec<Option<VarId>>> = Vec::with_capacity(nn);
    for j in 0..nn {
        let nt = dc.node_type_of[j];
        let cores = dc.node_type(j).cores_per_node as f64;
        let mut row = Vec::with_capacity(t);
        for i in 0..t {
            let ecs = dc.workload.ecs.ecs(i, nt, 0);
            let ok = ecs > 0.0 && dc.workload.deadline_feasible(i, nt, 0);
            row.push(ok.then(|| {
                p.add_var(
                    &format!("frac_n{j}_t{i}"),
                    0.0,
                    1.0,
                    dc.workload.task_types[i].reward * ecs * cores,
                )
            }));
        }
        vars.push(row);
    }

    // Constraint 1: arrivals.
    for i in 0..t {
        let terms: Vec<(VarId, f64)> = (0..nn)
            .filter_map(|j| {
                vars[j][i].map(|v| {
                    let nt = dc.node_type_of[j];
                    let cores = dc.node_type(j).cores_per_node as f64;
                    (v, cores * dc.workload.ecs.ecs(i, nt, 0))
                })
            })
            .collect();
        if !terms.is_empty() {
            p.add_row_nodup(
                &format!("arrival_t{i}"),
                &terms,
                RowOp::Le,
                dc.workload.task_types[i].arrival_rate,
            );
        }
    }
    // Constraint 2: fractions sum to at most 1 per node.
    for j in 0..nn {
        let terms: Vec<(VarId, f64)> = (0..t)
            .filter_map(|i| vars[j][i].map(|v| (v, 1.0)))
            .collect();
        if !terms.is_empty() {
            p.add_row_nodup(&format!("frac_sum_n{j}"), &terms, RowOp::Le, 1.0);
        }
    }

    // Constraints 4 (redlines) and 3 (power budget, linearized exactly
    // like Stage 1's) are the room's.
    let mut layout = Layout::default();
    for j in 0..nn {
        let nt = dc.node_type(j);
        let pw = nt.core.pstates.power_kw(0) * nt.cores_per_node as f64;
        layout.push_node(nt.base_power_kw, vars[j].iter().flatten().map(|&v| (v, pw)));
    }
    (RoomLp::build(dc, p, layout, Some(dc.budget.p_const_kw)), vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    fn dc(seed: u64) -> DataCenter {
        ScenarioParams::small_test().build(seed).unwrap()
    }

    #[test]
    fn baseline_solves_and_is_feasible() {
        let dc = dc(1);
        let sol = baseline_impl(&dc, CracSearchOptions::default()).expect("baseline");
        assert!(sol.reward_rate > 0.0);
        assert!(sol.reward_rate <= sol.reward_rate_continuous + 1e-9);
        assert!(sol.reward_rate <= dc.workload.max_reward_rate() * (1.0 + 1e-9));

        // Exact feasibility of the reduced solution.
        let node_powers = baseline_node_powers(&dc, &sol.frac);
        let (it, cooling, state) = dc.total_power_kw(&sol.crac_out_c, &node_powers);
        assert!(it + cooling <= dc.budget.p_const_kw * (1.0 + 1e-6) + 1e-6);
        assert!(dc.redlines_ok(&state));
    }

    #[test]
    fn integerization_yields_whole_cores() {
        let dc = dc(2);
        let sol = baseline_impl(&dc, CracSearchOptions::default()).unwrap();
        for j in 0..dc.n_nodes() {
            let cores = dc.node_type(j).cores_per_node as f64;
            let used: f64 = sol.frac[j].iter().sum::<f64>() * cores;
            assert!(
                (used - used.round()).abs() < 1e-6,
                "node {j}: {used} cores in use"
            );
            assert!((used - sol.cores_on[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn fractions_respect_node_capacity() {
        let dc = dc(3);
        let sol = baseline_impl(&dc, CracSearchOptions::default()).unwrap();
        for j in 0..dc.n_nodes() {
            let s: f64 = sol.frac[j].iter().sum();
            assert!(s <= 1.0 + 1e-7, "node {j}: fraction sum {s}");
        }
    }

    #[test]
    fn arrival_rates_respected() {
        let dc = dc(4);
        let sol = baseline_impl(&dc, CracSearchOptions::default()).unwrap();
        for i in 0..dc.n_task_types() {
            let total: f64 = (0..dc.n_nodes())
                .map(|j| {
                    let nt = dc.node_type_of[j];
                    let cores = dc.node_type(j).cores_per_node as f64;
                    cores * dc.workload.ecs.ecs(i, nt, 0) * sol.frac[j][i]
                })
                .sum();
            assert!(
                total <= dc.workload.task_types[i].arrival_rate * (1.0 + 1e-6),
                "type {i}"
            );
        }
    }

    #[test]
    fn oversubscription_leaves_cores_off() {
        let dc = dc(5);
        let sol = baseline_impl(&dc, CracSearchOptions::default()).unwrap();
        let total_on: f64 = sol.cores_on.iter().sum();
        assert!(
            total_on < dc.n_cores() as f64,
            "budget should not allow every core at P0"
        );
        assert!(total_on > 0.0);
    }
}
