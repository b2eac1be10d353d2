//! The end-to-end three-stage assignment (paper Section V.B).

use crate::error::SolveError;
use crate::objective::ObjectiveWeights;
use crate::stage1::{solve_stage1, Stage1Options, Stage1Solution};
use crate::stage2::assign_pstates;
use crate::stage3::{solve_stage3_warm, Stage3Basis, Stage3Solution};
use serde::{Deserialize, Serialize};
use thermaware_datacenter::{CracSearchOptions, DataCenter};

/// Options for the full three-stage solve.
#[derive(Debug, Clone, Copy)]
pub struct ThreeStageOptions {
    /// The ψ parameter (percent of task types in the ARR average).
    pub psi_percent: f64,
    /// CRAC outlet search strategy for Stage 1.
    pub search: CracSearchOptions,
    /// Objective blend (reward vs electricity/carbon cost). The
    /// reward-only default preserves the paper's objective bit for bit.
    pub objective: ObjectiveWeights,
}

impl Default for ThreeStageOptions {
    fn default() -> Self {
        ThreeStageOptions {
            psi_percent: 50.0,
            search: CracSearchOptions::default(),
            objective: ObjectiveWeights::reward_only(),
        }
    }
}

/// The complete first-step assignment the paper's technique produces: CRAC
/// outlets, per-core P-states, and desired execution rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreeStageSolution {
    /// ψ used.
    pub psi_percent: f64,
    /// Stage-1 plan (continuous relaxation).
    pub stage1: Stage1Solution,
    /// Per-core P-state assignment (global core order).
    pub pstates: Vec<usize>,
    /// Stage-3 desired execution rates.
    pub stage3: Stage3Solution,
    /// Optimal basis of the Stage-3 LP, a warm-start seed for runtime
    /// replans of the same structure.
    pub stage3_basis: Option<Stage3Basis>,
}

impl ThreeStageSolution {
    /// The achieved total reward rate (Stage 3's exact LP objective — the
    /// number Figure 6 compares).
    pub fn reward_rate(&self) -> f64 {
        self.stage3.reward_rate
    }

    /// Chosen CRAC outlet temperatures.
    pub fn crac_out_c(&self) -> &[f64] {
        &self.stage1.crac_out_c
    }

    /// Exact total power draw (IT + cooling, kW) of this plan on `dc`.
    pub fn total_power_kw(&self, dc: &DataCenter) -> f64 {
        let node_powers = dc.node_powers_from_pstates(&self.pstates);
        let (it, cooling, _) = dc.total_power_kw(&self.stage1.crac_out_c, &node_powers);
        it + cooling
    }

    /// The blended net objective under `weights`:
    /// `reward_weight·reward_rate − cost_rate·total_power`. With
    /// reward-only weights this is exactly [`reward_rate`]
    /// (no cost arithmetic is performed).
    ///
    /// [`reward_rate`]: ThreeStageSolution::reward_rate
    pub fn net_objective(&self, dc: &DataCenter, weights: &ObjectiveWeights) -> f64 {
        if weights.is_reward_only() {
            return self.reward_rate();
        }
        weights.net_objective(self.reward_rate(), self.total_power_kw(dc))
    }
}

/// Run Stages 1–3 for one ψ — what [`crate::Solver::solve`] runs.
pub(crate) fn three_stage_impl(
    dc: &DataCenter,
    options: &ThreeStageOptions,
) -> Result<ThreeStageSolution, SolveError> {
    let _span = thermaware_obs::span("three_stage");
    thermaware_obs::gauge_set("core.psi_percent", options.psi_percent);
    let stage1 = solve_stage1(
        dc,
        &Stage1Options {
            psi_percent: options.psi_percent,
            search: options.search,
            warm_start: true,
            objective: options.objective,
        },
    )?;
    let pstates = {
        let _s2 = thermaware_obs::span("stage2");
        assign_pstates(dc, &stage1)
    };
    let (stage3, stage3_basis) = {
        let _s3 = thermaware_obs::span("stage3");
        solve_stage3_warm(dc, &pstates, None)?
    };
    thermaware_obs::gauge_set("core.reward_rate", stage3.reward_rate);
    thermaware_obs::observe("core.reward_rate_trajectory", stage3.reward_rate);
    Ok(ThreeStageSolution {
        psi_percent: options.psi_percent,
        stage1,
        pstates,
        stage3,
        stage3_basis,
    })
}

/// Run the three-stage technique for several ψ values and keep the best
/// — the paper's "best of the two" series in Figure 6, behind
/// [`crate::Solver::psi_best_of`]. `base.psi_percent` is ignored — each
/// candidate in `psis` is solved with the rest of `base`'s options, and
/// the winner is picked by `base.objective`'s net objective (exactly
/// the Stage-3 reward rate under reward-only weights).
pub(crate) fn three_stage_best_of_impl(
    dc: &DataCenter,
    psis: &[f64],
    base: &ThreeStageOptions,
) -> Result<ThreeStageSolution, SolveError> {
    if psis.is_empty() {
        return Err(SolveError::invalid_input("best-of: empty ψ candidate set"));
    }
    let _span = thermaware_obs::span("three_stage_best_of");
    let mut best: Option<ThreeStageSolution> = None;
    let mut last_err: Option<SolveError> = None;
    for &psi in psis {
        thermaware_obs::counter_add("core.psi_candidates", 1);
        match three_stage_impl(
            dc,
            &ThreeStageOptions {
                psi_percent: psi,
                ..*base
            },
        ) {
            Ok(sol) => {
                if best.as_ref().is_none_or(|b| {
                    sol.net_objective(dc, &base.objective)
                        > b.net_objective(dc, &base.objective)
                }) {
                    best = Some(sol);
                }
            }
            Err(e) => {
                thermaware_obs::counter_add("core.psi_failures", 1);
                last_err = Some(e);
            }
        }
    }
    match (best, last_err) {
        (Some(sol), _) => Ok(sol),
        // No ψ succeeded: psis is non-empty, so at least one error was
        // recorded.
        (None, Some(e)) => Err(e),
        (None, None) => Err(SolveError::invalid_input(
            "best-of: no ψ produced a result or an error",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_assignment;
    use thermaware_datacenter::ScenarioParams;

    #[test]
    fn end_to_end_solves_and_verifies() {
        let dc = ScenarioParams::small_test().build(1).unwrap();
        let sol = three_stage_impl(&dc, &ThreeStageOptions::default()).expect("solve");
        assert!(sol.reward_rate() > 0.0);
        assert!(sol.reward_rate() <= dc.workload.max_reward_rate() * (1.0 + 1e-9));
        let report = verify_assignment(&dc, sol.crac_out_c(), &sol.pstates, Some(&sol.stage3));
        assert!(report.is_feasible(), "{report:?}");
    }

    #[test]
    fn stage3_reward_no_higher_than_stage1_estimate_bound() {
        // Stage 1's objective is an optimistic estimate built from the
        // best-ψ% task mix; Stage 3's exact reward can be lower (the
        // paper explains this for ψ=25) but not absurdly higher than the
        // theoretical max.
        let dc = ScenarioParams::small_test().build(2).unwrap();
        let sol = three_stage_impl(&dc, &ThreeStageOptions::default()).unwrap();
        assert!(sol.reward_rate() <= dc.workload.max_reward_rate() * (1.0 + 1e-9));
        assert!(sol.stage1.objective > 0.0);
    }

    #[test]
    fn best_of_psi_picks_the_better_one() {
        let dc = ScenarioParams::small_test().build(3).unwrap();
        let s25 = three_stage_impl(
            &dc,
            &ThreeStageOptions {
                psi_percent: 25.0,
                ..ThreeStageOptions::default()
            },
        )
        .unwrap();
        let s50 = three_stage_impl(
            &dc,
            &ThreeStageOptions {
                psi_percent: 50.0,
                ..ThreeStageOptions::default()
            },
        )
        .unwrap();
        let best =
            three_stage_best_of_impl(&dc, &[25.0, 50.0], &ThreeStageOptions::default()).unwrap();
        let expected = s25.reward_rate().max(s50.reward_rate());
        assert!((best.reward_rate() - expected).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_forces_some_cores_off_or_deep() {
        // Pconst = (Pmin+Pmax)/2 cannot power every core at P0: the
        // assignment must park some cores in deeper states or off.
        let dc = ScenarioParams::small_test().build(4).unwrap();
        let sol = three_stage_impl(&dc, &ThreeStageOptions::default()).unwrap();
        let non_p0 = sol.pstates.iter().filter(|&&p| p != 0).count();
        assert!(non_p0 > 0, "all cores at P0 under an oversubscribed budget");
    }
}
