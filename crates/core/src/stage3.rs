//! Stage 3: optimal desired execution rates `TC(i, k)` for fixed P-states
//! and CRAC outlets (paper Section V.B.4).
//!
//! With the other two decision groups fixed, Eq. 7 collapses to an LP.
//! Cores with the same `(node type, P-state)` are statistically identical
//! — same speeds, same deadline feasibility — so the LP is solved over
//! *groups* with the per-core capacity constraint scaled by the group
//! size, then split evenly back to cores. The grouping is lossless: any
//! per-core optimum can be symmetrized into a per-group one with the same
//! objective, and vice versa.

use crate::error::SolveError;
use serde::{Deserialize, Serialize};
use thermaware_datacenter::DataCenter;
use thermaware_lp::{Problem, RowOp, Sense, Solution, VarId};

/// The Stage-3 result: desired execution rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage3Solution {
    /// The optimal total reward rate (Eq. 7's objective).
    pub reward_rate: f64,
    /// Desired rate of task type `i` on *each individual core* of group
    /// `g`: `rate_per_core[g][i]`.
    pub rate_per_core: Vec<Vec<f64>>,
    /// Group key of every core: `group_of_core[k]` indexes
    /// `rate_per_core`.
    pub group_of_core: Vec<usize>,
    /// `(node_type, pstate)` of each group.
    pub groups: Vec<(usize, usize)>,
}

/// Opaque warm-start handle for Stage-3 re-solves.
///
/// Wraps the LP engine's [`thermaware_lp::Basis`] so downstream crates
/// (the service daemon, a fleet zone) can keep and persist it without taking a
/// direct dependency on the LP crate. The handle is only honoured when
/// the rebuilt LP has the same structure (same groups, same rows); a
/// structural change — e.g. a fault creating a new `(type, off)` group —
/// silently degrades to a cold solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage3Basis {
    inner: thermaware_lp::Basis,
}

impl Stage3Solution {
    /// Desired execution rate `TC(i, k)` of task type `i` on core `k`.
    pub fn tc(&self, task_type: usize, core: usize) -> f64 {
        self.rate_per_core[self.group_of_core[core]][task_type]
    }

    /// Total desired rate of task type `i` over all cores.
    pub fn total_rate(&self, dc: &DataCenter, task_type: usize) -> f64 {
        (0..dc.n_cores()).map(|k| self.tc(task_type, k)).sum()
    }

    /// Can [`tc`](Self::tc) be asked for every task type and core of
    /// `dc`? The check for a plan read from disk or a journal, made once
    /// where it enters: a group per core, every group index naming a rate
    /// row, every row one rate per task type.
    pub fn fits(&self, dc: &DataCenter) -> Result<(), String> {
        if self.group_of_core.len() != dc.n_cores() {
            return Err(format!(
                "stage-3 plan groups {} cores, the room has {}",
                self.group_of_core.len(),
                dc.n_cores()
            ));
        }
        if self.group_of_core.iter().any(|&g| g >= self.rate_per_core.len()) {
            return Err("stage-3 plan names a core group it has no rates for".to_string());
        }
        if self.rate_per_core.iter().any(|row| row.len() != dc.n_task_types()) {
            return Err(format!(
                "stage-3 plan rate rows are not {} task types wide",
                dc.n_task_types()
            ));
        }
        Ok(())
    }
}

/// Solve Stage 3 for a concrete P-state assignment (global core order).
pub fn solve_stage3(dc: &DataCenter, pstates: &[usize]) -> Result<Stage3Solution, SolveError> {
    solve_stage3_warm(dc, pstates, None).map(|(sol, _)| sol)
}

/// [`solve_stage3`] with basis reuse: start from `warm` when compatible
/// and hand back this solve's basis for the next re-solve.
///
/// Post-fault replans perturb only a few capacities, so
/// the pre-fault basis is typically a handful of dual-simplex pivots from
/// the new optimum instead of a full cold solve.
pub fn solve_stage3_warm(
    dc: &DataCenter,
    pstates: &[usize],
    warm: Option<&Stage3Basis>,
) -> Result<(Stage3Solution, Option<Stage3Basis>), SolveError> {
    dc.pstates_fit(pstates)
        .map_err(|misfit| SolveError::invalid_input(format!("stage 3: {misfit}")))?;

    // ---- Group cores by (node type, P-state) -----------------------------
    let mut group_index: Vec<Vec<Option<usize>>> = dc
        .node_types
        .iter()
        .map(|nt| vec![None; nt.core.pstates.n_total()])
        .collect();
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut group_of_core = vec![usize::MAX; dc.n_cores()];
    for k in 0..dc.n_cores() {
        let nt = dc.core_type(k);
        let ps = pstates[k];
        let slot = &mut group_index[nt][ps];
        let g = match *slot {
            Some(g) => g,
            None => {
                groups.push((nt, ps));
                counts.push(0);
                *slot = Some(groups.len() - 1);
                groups.len() - 1
            }
        };
        counts[g] += 1;
        group_of_core[k] = g;
    }

    // ---- Grouped LP --------------------------------------------------------
    let (lp, vars) = rate_lp(dc, &groups, &counts);
    let mut sol = lp
        .solve_warm(warm.map(|b| &b.inner))
        .map_err(|e| SolveError::Lp {
            stage: "stage3",
            source: e,
        })?;
    let next_basis = sol.take_basis().map(|inner| Stage3Basis { inner });

    Ok((
        Stage3Solution {
            reward_rate: sol.objective,
            rate_per_core: rate_per_core(&vars, &sol, &counts),
            group_of_core,
            groups,
        },
        next_basis,
    ))
}

/// The grouped rate LP of Eq. 7 at fixed P-states for `groups[g] = (node
/// type, P-state)` holding `counts[g]` cores: maximize reward over the
/// rate variables group by group, then one capacity row per group, then
/// one arrival row per task type. `vars[g][i]` is the total desired rate
/// of type `i` across group `g`'s cores (`None` when the type can't run
/// there: off state, zero speed, or deadline-infeasible — Constraint 2 of
/// Eq. 7 fixes those to 0).
fn rate_lp(
    dc: &DataCenter,
    groups: &[(usize, usize)],
    counts: &[usize],
) -> (Problem, Vec<Vec<Option<VarId>>>) {
    let t = dc.n_task_types();
    let mut lp = Problem::new(Sense::Maximize);
    let vars: Vec<Vec<Option<VarId>>> = groups
        .iter()
        .enumerate()
        .map(|(g, &(nt, ps))| {
            (0..t)
                .map(|i| {
                    let ecs = dc.workload.ecs.ecs(i, nt, ps);
                    let feasible = ecs > 0.0 && dc.workload.deadline_feasible(i, nt, ps);
                    feasible.then(|| {
                        lp.add_var(
                            &format!("tc_g{g}_t{i}"),
                            0.0,
                            f64::INFINITY,
                            dc.workload.task_types[i].reward,
                        )
                    })
                })
                .collect()
        })
        .collect();
    // Constraint 1 (capacity), grouped: Σ_i TC(i,g)/ECS <= count(g).
    for (g, &(nt, ps)) in groups.iter().enumerate() {
        let terms: Vec<(VarId, f64)> = (0..t)
            .filter_map(|i| vars[g][i].map(|v| (v, 1.0 / dc.workload.ecs.ecs(i, nt, ps))))
            .collect();
        if !terms.is_empty() {
            lp.add_row_nodup(&format!("cap_g{g}"), &terms, RowOp::Le, counts[g] as f64);
        }
    }
    // Constraint 3 (arrivals): Σ_g TC(i,g) <= λ_i.
    for i in 0..t {
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .filter_map(|row| row[i].map(|v| (v, 1.0)))
            .collect();
        if !terms.is_empty() {
            lp.add_row_nodup(
                &format!("arrival_t{i}"),
                &terms,
                RowOp::Le,
                dc.workload.task_types[i].arrival_rate,
            );
        }
    }
    (lp, vars)
}

/// Split each group's optimal rates (`vars` of [`rate_lp`]) evenly over
/// its `counts[g]` cores: `Stage3Solution::rate_per_core`.
fn rate_per_core(
    vars: &[Vec<Option<VarId>>],
    sol: &Solution,
    counts: &[usize],
) -> Vec<Vec<f64>> {
    vars.iter()
        .zip(counts)
        .map(|(row, &count)| {
            row.iter()
                .map(|v| v.map_or(0.0, |v| sol.value(v).max(0.0) / count as f64))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    fn dc() -> DataCenter {
        ScenarioParams::small_test().build(1).unwrap()
    }

    #[test]
    fn all_p0_reward_is_positive_and_bounded() {
        let dc = dc();
        let pstates = vec![0usize; dc.n_cores()];
        let s = solve_stage3(&dc, &pstates).unwrap();
        assert!(s.reward_rate > 0.0);
        assert!(s.reward_rate <= dc.workload.max_reward_rate() * (1.0 + 1e-9));
    }

    #[test]
    fn all_off_earns_nothing() {
        let dc = dc();
        let pstates = dc.off_pstates();
        let s = solve_stage3(&dc, &pstates).unwrap();
        assert_eq!(s.reward_rate, 0.0);
        for i in 0..dc.n_task_types() {
            assert_eq!(s.total_rate(&dc, i), 0.0);
        }
    }

    #[test]
    fn capacity_constraint_holds_per_core() {
        let dc = dc();
        let pstates = vec![0usize; dc.n_cores()];
        let s = solve_stage3(&dc, &pstates).unwrap();
        for k in 0..dc.n_cores() {
            let nt = dc.core_type(k);
            let load: f64 = (0..dc.n_task_types())
                .map(|i| {
                    let ecs = dc.workload.ecs.ecs(i, nt, 0);
                    if ecs > 0.0 {
                        s.tc(i, k) / ecs
                    } else {
                        0.0
                    }
                })
                .sum();
            assert!(load <= 1.0 + 1e-7, "core {k} utilization {load}");
        }
    }

    #[test]
    fn arrival_constraint_holds() {
        let dc = dc();
        let pstates = vec![0usize; dc.n_cores()];
        let s = solve_stage3(&dc, &pstates).unwrap();
        for i in 0..dc.n_task_types() {
            let total = s.total_rate(&dc, i);
            assert!(
                total <= dc.workload.task_types[i].arrival_rate * (1.0 + 1e-7),
                "type {i}: {total} > λ"
            );
        }
    }

    #[test]
    fn deeper_pstates_earn_less() {
        let dc = dc();
        let p0 = vec![0usize; dc.n_cores()];
        let p2: Vec<usize> = (0..dc.n_cores()).map(|_| 2).collect();
        let r0 = solve_stage3(&dc, &p0).unwrap().reward_rate;
        let r2 = solve_stage3(&dc, &p2).unwrap().reward_rate;
        assert!(r2 < r0, "P2 reward {r2} !< P0 reward {r0}");
        assert!(r2 > 0.0);
    }

    #[test]
    fn warm_replan_matches_cold_after_pstate_change() {
        let dc = dc();
        // First solve at a mixed assignment yields a reusable basis.
        let pstates: Vec<usize> = (0..dc.n_cores()).map(|k| k % 2).collect();
        let (_, basis) = solve_stage3_warm(&dc, &pstates, None).unwrap();
        assert!(basis.is_some(), "optimal solve must return a basis");
        // Same structure, re-solved warm: identical answer, and the
        // resumed basis is already optimal so no pivots are spent.
        let (warm, _) = solve_stage3_warm(&dc, &pstates, basis.as_ref()).unwrap();
        let cold = solve_stage3(&dc, &pstates).unwrap();
        assert!((warm.reward_rate - cold.reward_rate).abs() < 1e-9);
        assert_eq!(warm.rate_per_core.len(), cold.rate_per_core.len());
        // A structural change (new off group) must degrade gracefully to
        // a cold solve rather than corrupting the answer.
        let off = dc.off_pstates();
        let (changed, _) = solve_stage3_warm(&dc, &off, basis.as_ref()).unwrap();
        assert_eq!(changed.reward_rate, 0.0);
    }

    #[test]
    fn mixed_assignment_groups_correctly() {
        let dc = dc();
        let pstates: Vec<usize> = (0..dc.n_cores()).map(|k| k % 3).collect();
        let s = solve_stage3(&dc, &pstates).unwrap();
        // Group count bounded by node types x P-states actually used.
        assert!(s.groups.len() <= dc.node_types.len() * 3);
        // Every core has a valid group.
        for k in 0..dc.n_cores() {
            let g = s.group_of_core[k];
            assert_eq!(s.groups[g].0, dc.core_type(k));
            assert_eq!(s.groups[g].1, pstates[k]);
        }
    }
}
