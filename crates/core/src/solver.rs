//! The [`Solver`] builder — the workspace's **single solve entry
//! point**: the three-stage technique, the Eq.-21 baseline and the
//! Stage-3 replan are all asked for here, with every configuration knob
//! (ψ, the CRAC search options, the objective, a demand curve, an
//! observability recorder) gathered in one place and defaults matching
//! [`ThreeStageOptions::default`]:
//!
//! ```
//! use thermaware_core::Solver;
//! use thermaware_datacenter::ScenarioParams;
//!
//! let dc = ScenarioParams::small_test().build(1).unwrap();
//! let plan = Solver::new(&dc).psi(50.0).solve().expect("plan");
//! assert!(plan.reward_rate() > 0.0);
//! ```
//!
//! # The scenario surface
//!
//! Beyond the paper's static solve, the builder takes two scenario
//! knobs:
//!
//! * [`arrival_curve`](Solver::arrival_curve) — a time-varying demand
//!   multiplier; [`solve_at`](Solver::solve_at) samples it and scales
//!   every task type's arrival rate before solving.
//! * [`objective`](Solver::objective) — multi-objective weights blending
//!   electricity price and carbon intensity into the Stage-1 objective,
//!   with reward-only as the bit-identical default.

use crate::baseline::{baseline_impl, BaselineSolution};
use crate::error::SolveError;
use crate::objective::ObjectiveWeights;
use crate::three_stage::{three_stage_best_of_impl, three_stage_impl};
use crate::{ThreeStageOptions, ThreeStageSolution};
use std::sync::Arc;
use thermaware_datacenter::{CracSearchOptions, DataCenter};
use thermaware_obs::Recorder;
use thermaware_workload::Curve;

/// Which ψ policy a [`Solver`] runs.
#[derive(Debug, Clone)]
enum PsiPolicy {
    /// One solve at a single ψ (percent).
    Single(f64),
    /// Solve per candidate ψ, keep the best by the configured net
    /// objective (Stage-3 reward rate under reward-only weights).
    BestOf(Vec<f64>),
}

/// Builder façade over the three-stage technique, the baseline, and the
/// scenario engine (a demand curve, multi-objective cost).
///
/// Construct with [`Solver::new`], chain configuration, finish with
/// [`solve`](Solver::solve) / [`solve_at`](Solver::solve_at) (or
/// [`baseline`](Solver::baseline)). Every knob defaults to
/// [`ThreeStageOptions::default`]'s value.
pub struct Solver<'a> {
    dc: &'a DataCenter,
    psi: PsiPolicy,
    search: CracSearchOptions,
    recorder: Option<Arc<dyn Recorder>>,
    objective: ObjectiveWeights,
    demand: Option<Curve>,
}

impl<'a> Solver<'a> {
    /// A solver over `dc` with default configuration (ψ = 50%, default
    /// coarse-to-fine CRAC search, reward-only objective, no demand
    /// curve, no recorder).
    pub fn new(dc: &'a DataCenter) -> Solver<'a> {
        Solver {
            dc,
            psi: PsiPolicy::Single(ThreeStageOptions::default().psi_percent),
            search: CracSearchOptions::default(),
            recorder: None,
            objective: ObjectiveWeights::reward_only(),
            demand: None,
        }
    }

    /// Use a single ψ (percent of task types averaged into the ARR
    /// curves — paper Section V.B.1).
    pub fn psi(mut self, percent: f64) -> Solver<'a> {
        self.psi = PsiPolicy::Single(percent);
        self
    }

    /// Solve once per candidate ψ and keep the best plan by the
    /// configured net objective — the Stage-3 reward rate under default
    /// reward-only weights (the paper's "best of the two" series in
    /// Figure 6). An empty candidate set fails at
    /// [`solve`](Solver::solve) time with [`SolveError::InvalidInput`].
    pub fn psi_best_of(mut self, psis: impl Into<Vec<f64>>) -> Solver<'a> {
        self.psi = PsiPolicy::BestOf(psis.into());
        self
    }

    /// Configure the coarse-to-fine CRAC outlet temperature search.
    pub fn crac_grid(mut self, search: CracSearchOptions) -> Solver<'a> {
        self.search = search;
        self
    }

    /// Blend electricity price and carbon into the solve objective.
    /// [`ObjectiveWeights::reward_only`] (the default) preserves the
    /// paper's objective bit for bit.
    pub fn objective(mut self, weights: ObjectiveWeights) -> Solver<'a> {
        self.objective = weights;
        self
    }

    /// Attach a time-varying demand multiplier: at
    /// [`solve_at(t)`](Solver::solve_at), every task type's arrival
    /// rate is scaled by `curve.rate_at(t)` (clamped at 0). A constant
    /// curve of 1.0 reproduces the static workload.
    pub fn arrival_curve(mut self, curve: Curve) -> Solver<'a> {
        self.demand = Some(curve);
        self
    }

    /// Install `recorder` as the process-global observability sink for
    /// the duration of the solve (spans, counters, histograms from every
    /// layer down to the simplex pivot loop). The previously installed
    /// recorder, if any, is restored when the solve returns.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Solver<'a> {
        self.recorder = Some(recorder);
        self
    }

    /// Run the configured solve at scenario time `t = 0` — equivalent
    /// to [`solve_at(0.0)`](Solver::solve_at). With no demand curve
    /// attached this takes the direct path on the original data center.
    pub fn solve(&self) -> Result<ThreeStageSolution, SolveError> {
        self.solve_at(0.0)
    }

    /// Run the configured solve at scenario time `t_s` seconds: sample
    /// the demand curve at `t_s` and solve the resulting snapshot.
    pub fn solve_at(&self, t_s: f64) -> Result<ThreeStageSolution, SolveError> {
        let _install = self.recorder.as_ref().map(|r| thermaware_obs::install(Arc::clone(r)));
        match &self.demand {
            // No demand curve: solve the original data center directly,
            // without the clone.
            None => self.run(self.dc),
            Some(curve) => {
                let m = curve.rate_at(t_s).max(0.0);
                let mut dc = self.dc.clone();
                for t in &mut dc.workload.task_types {
                    t.arrival_rate *= m;
                }
                self.run(&dc)
            }
        }
    }

    /// Dispatch the ψ policy.
    fn run(&self, dc: &DataCenter) -> Result<ThreeStageSolution, SolveError> {
        let base = ThreeStageOptions {
            psi_percent: ThreeStageOptions::default().psi_percent,
            search: self.search,
            objective: self.objective,
        };
        match &self.psi {
            PsiPolicy::Single(psi) => three_stage_impl(
                dc,
                &ThreeStageOptions {
                    psi_percent: *psi,
                    ..base
                },
            ),
            PsiPolicy::BestOf(psis) => three_stage_best_of_impl(dc, psis, &base),
        }
    }

    /// Run the Eq.-21 baseline (P0-or-off fractions) under the same CRAC
    /// search and recorder configuration. The ψ policy, the demand curve
    /// and the objective do not apply — the baseline has no ARR averaging
    /// and serves as the paper's static comparison point.
    pub fn baseline(&self) -> Result<BaselineSolution, SolveError> {
        let _install = self.recorder.as_ref().map(|r| thermaware_obs::install(Arc::clone(r)));
        baseline_impl(self.dc, self.search)
    }

    /// Re-solve the Stage-3 rate subproblem with the P-states held fixed
    /// (the paper's Section V.B rule for mid-run replans), warm-starting
    /// from `warm` when given. This is the epoch-replan path a
    /// long-running service drives: demand drifted but the floor did
    /// not, so only the rates move, and the previous basis typically
    /// re-verifies in a handful of pivots. Returns the new plan and the
    /// basis to warm the *next* replan with. The configured recorder is
    /// installed for the duration, as in [`solve`](Solver::solve); the ψ
    /// policy and CRAC search do not apply.
    pub fn stage3_replan(
        &self,
        pstates: &[usize],
        warm: Option<&crate::stage3::Stage3Basis>,
    ) -> Result<(crate::stage3::Stage3Solution, Option<crate::stage3::Stage3Basis>), SolveError>
    {
        let _install = self.recorder.as_ref().map(|r| thermaware_obs::install(Arc::clone(r)));
        crate::stage3::solve_stage3_warm(self.dc, pstates, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    #[test]
    fn defaults_match_three_stage_options() {
        let dc = ScenarioParams::small_test().build(5).unwrap();
        let a = Solver::new(&dc).solve().expect("builder");
        let b = three_stage_impl(&dc, &ThreeStageOptions::default()).expect("options");
        assert_eq!(a, b);
    }

    #[test]
    fn a_pstate_past_the_off_state_is_invalid_input() {
        let dc = ScenarioParams::small_test().build(5).unwrap();
        let mut pstates = dc.off_pstates();
        pstates[0] += 1;
        let err = Solver::new(&dc).stage3_replan(&pstates, None).unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn a_short_pstate_vector_is_invalid_input() {
        let dc = ScenarioParams::small_test().build(5).unwrap();
        let short = dc.off_pstates()[1..].to_vec();
        let mut long = dc.off_pstates();
        long.push(0);
        for pstates in [short, long] {
            let err = Solver::new(&dc).stage3_replan(&pstates, None).unwrap_err();
            let n = pstates.len();
            assert!(matches!(err, SolveError::InvalidInput { .. }), "{n} P-states: {err:?}");
        }
    }

    #[test]
    fn empty_best_of_is_invalid_input() {
        let dc = ScenarioParams::small_test().build(5).unwrap();
        let err = Solver::new(&dc).psi_best_of(Vec::new()).solve().unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput { .. }));
    }

    #[test]
    fn unit_arrival_curve_matches_static_solve() {
        let dc = ScenarioParams::small_test().build(6).unwrap();
        let plain = Solver::new(&dc).solve().expect("static");
        let unit = Solver::new(&dc)
            .arrival_curve(Curve::constant(1.0))
            .solve()
            .expect("unit curve");
        assert_eq!(plain, unit);
    }

    #[test]
    fn diurnal_demand_changes_the_plan_over_the_day() {
        let dc = ScenarioParams::small_test().build(7).unwrap();
        let solver = Solver::new(&dc).arrival_curve(Curve::Diurnal {
            base: 0.4,
            peak: 1.0,
            period_s: 86_400.0,
        });
        let trough = solver.solve_at(0.0).expect("trough");
        let crest = solver.solve_at(43_200.0).expect("crest");
        assert!(
            crest.reward_rate() > trough.reward_rate(),
            "crest {} should beat trough {}",
            crest.reward_rate(),
            trough.reward_rate()
        );
    }

    #[test]
    fn price_weight_trades_reward_for_power() {
        let dc = ScenarioParams::small_test().build(8).unwrap();
        let plain = Solver::new(&dc).solve().expect("reward-only");
        let costed = Solver::new(&dc)
            .objective(ObjectiveWeights {
                price_per_kwh: 50.0,
                ..ObjectiveWeights::reward_only()
            })
            .solve()
            .expect("costed");
        let p0 = plain.total_power_kw(&dc);
        let p1 = costed.total_power_kw(&dc);
        assert!(
            p1 <= p0 + 1e-9,
            "a positive price must not increase power ({p1} vs {p0})"
        );
        assert!(
            plain.reward_rate() >= costed.reward_rate() - 1e-9,
            "reward-only must stay the reward maximizer"
        );
    }
}
