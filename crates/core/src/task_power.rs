//! Task-type-dependent core power — the model extension the paper
//! sketches in Section III.C: *"it is possible to extend our model to
//! capture the effect of a task type (I/O or compute intensive task
//! types) on core power consumption. A third index would have to be added
//! to π."*
//!
//! Here π gains that third index multiplicatively on the **dynamic**
//! component: a core of type `j` in P-state `s` spending utilization
//! share `u_i` on task type `i` draws
//!
//! ```text
//! static(j,s) + dynamic(j,s) · ( idle·(1 − Σ_i u_i) + Σ_i factor_i · u_i )
//! ```
//!
//! with `u_i = TC(i,k)/ECS(i,j,s)` — I/O-heavy types (factor < 1) burn
//! less than the nameplate P-state power, exactly as the measurement
//! study the paper cites (\[23\]) reports. Since `u_i` is linear in the
//! decision variables, the first-step Stage-3 LP extends cleanly: the
//! power budget and the thermal redlines become rows **in TC** rather
//! than facts fixed by Stage 2.

use crate::error::SolveError;
use crate::room::{self, NodeLoad, RoomLp};
use crate::stage3::{rate_per_core, RateLp, Stage3Solution};
use thermaware_datacenter::DataCenter;

/// Per-task-type power behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPowerModel {
    /// Multiplier on the dynamic power while executing each task type
    /// (1.0 = the paper's base model; < 1 for I/O-bound types).
    pub factors: Vec<f64>,
    /// Multiplier on the dynamic power while idle in the P-state
    /// (clock-gated idling burns less than full-tilt execution).
    pub idle_factor: f64,
}

impl TaskPowerModel {
    /// The paper's base model: every factor 1 (task type irrelevant).
    pub fn uniform(n_task_types: usize) -> TaskPowerModel {
        TaskPowerModel {
            factors: vec![1.0; n_task_types],
            idle_factor: 1.0,
        }
    }

    /// Validate against a workload size: one factor per task type, each
    /// in [0, 2], the idle factor in [0, 1] (NaN is in neither).
    fn check(&self, n_task_types: usize) -> Result<(), SolveError> {
        let what = if self.factors.len() != n_task_types {
            "one factor per task type"
        } else if !self.factors.iter().all(|&f| (0.0..=2.0).contains(&f)) {
            "factors outside [0, 2]"
        } else if !(0.0..=1.0).contains(&self.idle_factor) {
            "idle factor outside [0, 1]"
        } else {
            return Ok(());
        };
        Err(SolveError::invalid_input(format!("task power: {what}")))
    }
}

/// A task-power-aware Stage-3 result.
#[derive(Debug, Clone)]
pub struct TaskAwareSolution {
    /// The optimal reward rate under the extended model.
    pub reward_rate: f64,
    /// The Stage-3-compatible rates (same indexing contract).
    pub stage3: Stage3Solution,
    /// Exact total power (IT + cooling) the mix draws, kW.
    pub total_power_kw: f64,
    /// Dual value of each group's capacity row — the marginal reward per
    /// extra unit of that group's capacity. Drives the reclamation loop.
    pub capacity_duals: Vec<f64>,
    /// `(node, pstate, count)` of each group, aligned with
    /// `capacity_duals`.
    pub group_info: Vec<(usize, usize, usize)>,
}

/// Solve the Stage-3 assignment under task-dependent power: maximize
/// reward subject to capacity, arrivals, **and** the power budget and
/// redlines evaluated at the utilization-dependent node powers.
///
/// With [`TaskPowerModel::uniform`] this reduces to the paper's base
/// model (the power rows become exactly Stage 2's constant powers, which
/// Stage 1 already certified feasible), so the plain
/// [`crate::stage3::solve_stage3`] objective is recovered — asserted in
/// the tests.
pub fn solve_stage3_task_aware(
    dc: &DataCenter,
    pstates: &[usize],
    crac_out_c: &[f64],
    model: &TaskPowerModel,
) -> Result<TaskAwareSolution, SolveError> {
    dc.pstates_fit(pstates)
        .map_err(|misfit| SolveError::invalid_input(format!("task power: {misfit}")))?;
    let outlets = crac_out_c.len();
    if outlets != dc.n_crac() {
        return Err(SolveError::invalid_input(format!(
            "task power: {outlets} CRAC outlets for {} CRACs",
            dc.n_crac()
        )));
    }
    let t = dc.n_task_types();
    model.check(t)?;
    let nn = dc.n_nodes();

    // ---- Group cores by (node, P-state): cores of one node share a type,
    // so within a node the P-state fully determines behaviour. ----------
    struct Group {
        node: usize,
        pstate: usize,
        count: usize,
    }
    let mut groups: Vec<Group> = Vec::new();
    for node in 0..nn {
        let mut by_ps: std::collections::BTreeMap<usize, usize> = Default::default();
        for k in dc.cores_of_node(node) {
            *by_ps.entry(pstates[k]).or_insert(0) += 1;
        }
        for (ps, count) in by_ps {
            groups.push(Group {
                node,
                pstate: ps,
                count,
            });
        }
    }
    let keys: Vec<(usize, usize)> = groups
        .iter()
        .map(|g| (dc.node_type_of[g.node], g.pstate))
        .collect();
    let counts: Vec<usize> = groups.iter().map(|g| g.count).collect();

    // Static/dynamic split per group (from the node type's calibrated
    // ladder: static scales with voltage, dynamic is the remainder).
    let split: Vec<(f64, f64)> = groups
        .iter()
        .map(|g| {
            let nt = dc.node_type(g.node);
            let ps = &nt.core.pstates;
            if ps.is_off(g.pstate) {
                (0.0, 0.0)
            } else {
                // Reconstruct the static share from the P-state-0
                // calibration: static(s) = beta·V_s; beta = static0/V0.
                // We recover it through the table's voltage column.
                let total = ps.power_kw(g.pstate);
                let v = ps.voltage(g.pstate);
                let v0 = ps.voltage(0);
                // static0 is not stored; derive from the P0 split implied
                // by the deepest state's excess over pure dynamic scaling.
                // Simpler and exact: solve the 2x2 system from two states'
                // totals: total_s = sc·f_s·V_s² + beta·V_s.
                let f0 = ps.freq_mhz(0);
                let t0 = ps.power_kw(0);
                let fs = ps.freq_mhz(g.pstate);
                // [f0·V0², V0; fs·Vs², Vs] [sc, beta]^T = [t0, total]
                let a11 = f0 * v0 * v0;
                let a12 = v0;
                let a21 = fs * v * v;
                let a22 = v;
                let det = a11 * a22 - a12 * a21;
                let (sc, beta) = if det.abs() < 1e-18 {
                    (t0 / a11, 0.0)
                } else {
                    (
                        (t0 * a22 - a12 * total) / det,
                        (a11 * total - t0 * a21) / det,
                    )
                };
                let stat = (beta * v).max(0.0);
                let dyn_ = (sc * fs * v * v).max(0.0);
                // Guard numerical drift: the split must resum to total.
                let sum = stat + dyn_;
                if sum > 0.0 {
                    (stat * total / sum, dyn_ * total / sum)
                } else {
                    (0.0, total)
                }
            }
        })
        .collect();

    // ---- LP: Stage 3's rows, then the room's power rows -------------------
    let RateLp { lp, vars, cap_rows } = RateLp::build(dc, &keys, &counts);

    // Node power as an affine function of the TC variables:
    //   P_j = base_j + Σ_{g∈j} [count·(static + dyn·idle)
    //          + Σ_i dyn·(factor_i − idle)/ECS(i) · TC(i,g)]
    let fixed_node_power: Vec<f64> = {
        let mut fixed: Vec<f64> = (0..nn).map(|j| dc.node_type(j).base_power_kw).collect();
        for (gi, g) in groups.iter().enumerate() {
            let (stat, dyn_) = split[gi];
            fixed[g.node] += g.count as f64 * (stat + dyn_ * model.idle_factor);
        }
        fixed
    };
    // TC coefficient of node power, per (group, type).
    let power_coeff = |gi: usize, i: usize| -> f64 {
        let g = &groups[gi];
        let nt_idx = dc.node_type_of[g.node];
        let ecs = dc.workload.ecs.ecs(i, nt_idx, g.pstate);
        if ecs <= 0.0 {
            return 0.0;
        }
        split[gi].1 * (model.factors[i] - model.idle_factor) / ecs
    };

    // Redlines and power budget over those node powers are the room's.
    let mut layout: Vec<NodeLoad> = fixed_node_power
        .iter()
        .map(|&fixed_kw| NodeLoad {
            vars: Vec::new(),
            fixed_kw,
        })
        .collect();
    for (gi, g) in groups.iter().enumerate() {
        for i in 0..t {
            if let Some(v) = vars[gi][i] {
                layout[g.node].vars.push((v, power_coeff(gi, i)));
            }
        }
    }
    let mut room = RoomLp::build(dc, lp, layout, Some(dc.budget.p_const_kw));
    room.set_outlets(crac_out_c);
    let sol = room.lp.solve_warm(None).map_err(|source| SolveError::Lp {
        stage: "task_power",
        source,
    })?;

    // ---- Re-package as a Stage3Solution --------------------------------
    let mut group_of_core = vec![usize::MAX; dc.n_cores()];
    for (gi, g) in groups.iter().enumerate() {
        for k in dc.cores_of_node(g.node) {
            if pstates[k] == g.pstate {
                group_of_core[k] = gi;
            }
        }
    }
    let stage3 = Stage3Solution {
        reward_rate: sol.objective,
        rate_per_core: rate_per_core(&vars, &sol, &counts),
        group_of_core,
        groups: keys,
    };

    // Exact power at the mix.
    let mut node_powers = fixed_node_power;
    for (gi, _) in groups.iter().enumerate() {
        for i in 0..t {
            if let Some(v) = vars[gi][i] {
                node_powers[groups[gi].node] += power_coeff(gi, i) * sol.value(v).max(0.0);
            }
        }
    }
    let (it, cooling, _) = dc.total_power_kw(crac_out_c, &node_powers);

    let capacity_duals: Vec<f64> = cap_rows
        .iter()
        .map(|row| row.map_or(0.0, |r| sol.dual(r)))
        .collect();
    let group_info: Vec<(usize, usize, usize)> = groups
        .iter()
        .map(|g| (g.node, g.pstate, g.count))
        .collect();
    Ok(TaskAwareSolution {
        reward_rate: sol.objective,
        stage3,
        total_power_kw: it + cooling,
        capacity_duals,
        group_info,
    })
}

/// Greedy **power reclamation**: when the task mix draws less than the
/// nameplate P-state powers (I/O-bound types), the budget gains headroom
/// the fixed P-state plan cannot spend. This loop upgrades one core at a
/// time — from the group whose capacity dual (marginal reward per unit
/// capacity) times its speedup pays the most per reclaimed watt — and
/// re-solves, keeping every iterate feasible under the exact models.
///
/// Returns the upgraded P-state assignment and its solution. Stops when
/// no affordable upgrade improves the reward, or after `max_upgrades`.
pub fn reclaim_power(
    dc: &DataCenter,
    pstates: &[usize],
    crac_out_c: &[f64],
    model: &TaskPowerModel,
    max_upgrades: usize,
) -> Result<(Vec<usize>, TaskAwareSolution), SolveError> {
    let mut current = pstates.to_vec();
    let mut best = solve_stage3_task_aware(dc, &current, crac_out_c, model)?;
    for _ in 0..max_upgrades {
        let headroom = dc.budget.p_const_kw - best.total_power_kw;
        if headroom <= 1e-6 {
            break;
        }
        // Candidate upgrades: one core of a binding group moves one
        // P-state shallower. Score = dual * (speed ratio - 1) per
        // nameplate watt.
        let mut candidates: Vec<(f64, usize)> = Vec::new(); // (score, core)
        for (gi, &(node, ps, _count)) in best.group_info.iter().enumerate() {
            if ps == 0 {
                continue; // already shallowest
            }
            let dual = best.capacity_duals[gi];
            if dual <= 1e-9 {
                continue; // capacity not binding; speed buys nothing
            }
            let nt = dc.node_type(node);
            let table = &nt.core.pstates;
            let delta_power = table.power_kw(ps - 1) - table.power_kw(ps);
            if delta_power > headroom * 0.95 {
                continue; // cannot afford (with safety margin for the mix)
            }
            // Mean speedup over task types from ps to ps-1 (off -> use the
            // deepest active state's speeds as "from zero" gain 1.0).
            let nt_idx = dc.node_type_of[node];
            let speedup: f64 = if table.is_off(ps) {
                1.0
            } else {
                let mut num = 0.0;
                let mut den = 0.0;
                for i in 0..dc.n_task_types() {
                    num += dc.workload.ecs.ecs(i, nt_idx, ps - 1);
                    den += dc.workload.ecs.ecs(i, nt_idx, ps);
                }
                if den > 0.0 {
                    (num / den - 1.0).max(0.0)
                } else {
                    1.0
                }
            };
            let score = dual * speedup / delta_power.max(1e-12);
            if score <= 0.0 {
                continue;
            }
            // Any core of this group will do; take the first.
            if let Some(core) = dc
                .cores_of_node(node)
                .find(|&k| current[k] == ps)
            {
                candidates.push((score, core));
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut improved = false;
        for &(_, core) in candidates.iter().take(4) {
            let mut trial = current.clone();
            trial[core] -= 1;
            match solve_stage3_task_aware(dc, &trial, crac_out_c, model) {
                Ok(sol)
                    if room::within_budget(sol.total_power_kw, dc.budget.p_const_kw)
                        && sol.reward_rate > best.reward_rate + 1e-9 =>
                {
                    current = trial;
                    best = sol;
                    improved = true;
                    break;
                }
                _ => {}
            }
        }
        if !improved {
            break;
        }
    }
    Ok((current, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;
    use thermaware_datacenter::ScenarioParams;

    fn setup() -> (DataCenter, crate::three_stage::ThreeStageSolution) {
        let dc = ScenarioParams::small_test().build(1).unwrap();
        let plan = Solver::new(&dc).solve().unwrap();
        (dc, plan)
    }

    #[test]
    fn uniform_factors_recover_the_base_model() {
        let (dc, plan) = setup();
        let model = TaskPowerModel::uniform(dc.n_task_types());
        let aware =
            solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &model).unwrap();
        let diff = (aware.reward_rate - plan.reward_rate()).abs();
        assert!(
            diff <= 1e-5 * (1.0 + plan.reward_rate()),
            "task-aware {} vs base {}",
            aware.reward_rate,
            plan.reward_rate()
        );
    }

    #[test]
    fn cheaper_tasks_never_reduce_reward() {
        // Factors <= 1 only relax the power/thermal rows relative to the
        // uniform model, so the optimum cannot drop.
        let (dc, plan) = setup();
        let uniform = TaskPowerModel::uniform(dc.n_task_types());
        let io_ish = TaskPowerModel {
            factors: vec![0.6; dc.n_task_types()],
            idle_factor: 0.5,
        };
        let base =
            solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &uniform).unwrap();
        let relaxed =
            solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &io_ish).unwrap();
        assert!(relaxed.reward_rate >= base.reward_rate - 1e-9);
        assert!(relaxed.total_power_kw <= dc.budget.p_const_kw * (1.0 + 1e-6));
    }

    #[test]
    fn hungry_tasks_bind_the_budget() {
        // Factors > 1 make execution *more* expensive than the nameplate
        // P-state power; the power row must bind and the reward drop
        // below the base model's.
        let (dc, plan) = setup();
        let hungry = TaskPowerModel {
            factors: vec![2.0; dc.n_task_types()],
            idle_factor: 1.0,
        };
        let aware =
            solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &hungry).unwrap();
        assert!(
            aware.reward_rate < plan.reward_rate(),
            "hungry {} !< base {}",
            aware.reward_rate,
            plan.reward_rate()
        );
        assert!(aware.total_power_kw <= dc.budget.p_const_kw * (1.0 + 1e-5) + 1e-5);
    }

    #[test]
    fn mixed_factors_respect_power_exactly() {
        let (dc, plan) = setup();
        let mixed = TaskPowerModel {
            factors: (0..dc.n_task_types())
                .map(|i| 0.5 + 0.2 * (i % 4) as f64)
                .collect(),
            idle_factor: 0.4,
        };
        let aware =
            solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &mixed).unwrap();
        assert!(aware.reward_rate > 0.0);
        assert!(aware.total_power_kw <= dc.budget.p_const_kw * (1.0 + 1e-5) + 1e-5);
    }

    #[test]
    fn reclamation_uses_freed_headroom() {
        // With an I/O-light mix the fixed plan leaves power on the table;
        // the reclamation loop must convert some of it into reward while
        // staying inside the exact budget.
        let (dc, plan) = setup();
        let io_ish = TaskPowerModel {
            factors: vec![0.5; dc.n_task_types()],
            idle_factor: 0.4,
        };
        let fixed =
            solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &io_ish).unwrap();
        let (upgraded, reclaimed) =
            reclaim_power(&dc, &plan.pstates, plan.crac_out_c(), &io_ish, 32).unwrap();
        assert!(
            reclaimed.reward_rate >= fixed.reward_rate,
            "reclamation lost reward: {} -> {}",
            fixed.reward_rate,
            reclaimed.reward_rate
        );
        assert!(reclaimed.total_power_kw <= dc.budget.p_const_kw * (1.0 + 1e-6) + 1e-6);
        // Some upgrade actually happened (the plan had headroom).
        let changed = upgraded
            .iter()
            .zip(&plan.pstates)
            .filter(|(a, b)| a != b)
            .count();
        // Both rates come out of independent stage-3 accumulations, so
        // "unchanged" means equal up to rounding, not bit-equal.
        assert!(
            changed > 0 || thermaware_linalg::approx::eq_ulps(reclaimed.reward_rate, fixed.reward_rate, 4),
            "no upgrades despite headroom"
        );
    }

    #[test]
    fn reclamation_is_a_noop_without_headroom() {
        // Stage-2 rounding can leave budget headroom even under uniform
        // factors (the discrete ladder rarely lands exactly on the
        // budget), so construct the no-headroom premise explicitly:
        // shrink the budget to the fixed plan's exact draw. The loop must
        // then terminate immediately at the base reward with the
        // P-states untouched.
        let (mut dc, plan) = setup();
        let uniform = TaskPowerModel::uniform(dc.n_task_types());
        let fixed =
            solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &uniform).unwrap();
        dc.budget.p_const_kw = fixed.total_power_kw;
        let (upgraded, sol) =
            reclaim_power(&dc, &plan.pstates, plan.crac_out_c(), &uniform, 8).unwrap();
        let diff = (sol.reward_rate - fixed.reward_rate).abs();
        assert!(
            diff <= 1e-4 * (1.0 + fixed.reward_rate) + 1e-6,
            "noop reclamation changed reward: {} vs {}",
            sol.reward_rate,
            fixed.reward_rate
        );
        assert_eq!(upgraded, plan.pstates, "P-states changed without headroom");
    }

    #[test]
    fn a_budget_below_the_fixed_draw_is_a_typed_infeasibility() {
        let (mut dc, plan) = setup();
        dc.budget.p_const_kw = 0.5 * dc.budget.p_min_kw;
        let model = TaskPowerModel::uniform(dc.n_task_types());
        match solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &model) {
            Err(SolveError::Lp {
                stage: "task_power",
                source: thermaware_lp::LpError::Infeasible { .. },
            }) => {}
            other => panic!("expected an infeasible task_power LP, got {other:?}"),
        }
    }

    fn assert_invalid(got: Result<TaskAwareSolution, SolveError>, what: &str) {
        match got {
            Err(SolveError::InvalidInput { what: msg }) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected invalid input ({what}), got {other:?}"),
        }
    }

    #[test]
    fn wrong_factor_count_is_invalid_input() {
        let (dc, plan) = setup();
        let bad = TaskPowerModel {
            factors: vec![1.0; 3],
            idle_factor: 1.0,
        };
        let got = solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &bad);
        assert_invalid(got, "one factor per task type");
    }

    #[test]
    fn a_nan_factor_is_invalid_input() {
        let (dc, plan) = setup();
        let mut bad = TaskPowerModel::uniform(dc.n_task_types());
        bad.factors[0] = f64::NAN;
        let got = solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &bad);
        assert_invalid(got, "factors outside [0, 2]");
        let nan_idle = TaskPowerModel {
            idle_factor: f64::NAN,
            ..TaskPowerModel::uniform(dc.n_task_types())
        };
        let got = solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &nan_idle);
        assert_invalid(got, "idle factor outside [0, 1]");
    }

    #[test]
    fn a_short_pstate_vector_is_invalid_input() {
        let (dc, plan) = setup();
        let model = TaskPowerModel::uniform(dc.n_task_types());
        let short = &plan.pstates[..plan.pstates.len() - 1];
        let got = solve_stage3_task_aware(&dc, short, plan.crac_out_c(), &model);
        assert_invalid(got, "do not fit");
    }

    #[test]
    fn an_outlet_vector_of_the_wrong_length_is_invalid_input() {
        let (dc, plan) = setup();
        let model = TaskPowerModel::uniform(dc.n_task_types());
        let long = vec![plan.crac_out_c()[0]; dc.n_crac() + 1];
        for outlets in [&[][..], &long[..]] {
            let got = solve_stage3_task_aware(&dc, &plan.pstates, outlets, &model);
            assert_invalid(got, "CRAC outlets for");
        }
    }
}
