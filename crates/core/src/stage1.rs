//! Stage 1: continuous power assignment + CRAC outlet temperatures
//! (paper Section V.B.2).
//!
//! With P-states relaxed to continuous per-core power, each core of type
//! `j` earns `ARR_j(p)` reward rate at power `p`. `ARR_j` is concave
//! piecewise-linear (the hull of [`crate::arr::ArrCurve`]), so maximizing
//! total reward under the power cap and redlines is an **LP** once the
//! CRAC outlet temperatures are fixed:
//!
//! * Cores inside a node are identical, so a node's optimal aggregate is
//!   `n·ARR(P/n)` — itself concave PWL. One LP variable per *(node,
//!   hull segment)*, bounded by the segment length, with the segment
//!   slope as objective coefficient, encodes it exactly (concavity makes
//!   the greedy segment order self-enforcing).
//! * Node inlet and CRAC inlet temperatures are affine in node powers at
//!   fixed outlets (`thermaware_thermal::ThermalCoefficients`), so Eq. 6
//!   contributes one row per unit.
//! * CRAC power (Eq. 3) at fixed outlets is linear in the inlet
//!   temperature, hence in node powers; Eq. 7's Constraint 4 is one row.
//!   The Eq.-3 clamp (no negative cooling power) is *not* linear, so
//!   every candidate solution is re-checked against the exact clamped
//!   model and rejected if the linearization was optimistic.
//!
//! The outlet temperatures themselves are found by the paper's
//! discretized coarse-to-fine search
//! ([`thermaware_datacenter::optimize_crac_outlets`]). Its ~190
//! candidates are one parametric LP: the sensitivities do not depend on
//! the outlets, so the model is built once per search and each candidate
//! patches the right-hand sides and the power row. The rows, the patch
//! and the exact re-check are `crate::room`'s, shared with the baseline
//! and the min-power dual; what is Stage 1's own is the segment
//! variables, their pricing and the warm basis chained across candidates.
//! A candidate works in storage the sweep keeps — and a
//! [`SweepStorage`] carries from one sweep to the next — so none
//! allocates once the first has grown it.

use crate::arr::ArrCurve;
use crate::error::SolveError;
use crate::objective::ObjectiveWeights;
use crate::pwl::PiecewiseLinear;
use crate::room::{self, Layout, Linearised, RoomLp};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use thermaware_datacenter::{CracSearchOptions, DataCenter};
use thermaware_lp::{Basis, Prepared, Problem, Sense, Solution};
use thermaware_thermal::ThermalState;

/// Options for Stage 1.
#[derive(Debug, Clone, Copy)]
pub struct Stage1Options {
    /// The ψ parameter (percent of task types averaged into ARR).
    pub psi_percent: f64,
    /// CRAC outlet search strategy.
    pub search: CracSearchOptions,
    /// Warm-start each fixed-outlet LP from the previous grid point's
    /// optimal basis. Adjacent grid points share structure and differ only
    /// in coefficients, so the previous basis is usually a few pivots from
    /// optimal. Off restores the cold-solve-per-point behaviour (used by
    /// the benchmark baseline).
    pub warm_start: bool,
    /// Objective blend. The reward-only default takes the historical
    /// code path and is bit-identical to pre-multi-objective solves;
    /// non-default weights subtract an electricity/carbon cost from
    /// every segment's reward slope and rank outlet candidates by the
    /// blended net objective.
    pub objective: ObjectiveWeights,
}

impl Default for Stage1Options {
    fn default() -> Self {
        Stage1Options {
            psi_percent: 50.0,
            search: CracSearchOptions::default(),
            warm_start: true,
            objective: ObjectiveWeights::reward_only(),
        }
    }
}

/// Stage-1 output: outlet temperatures and the continuous power plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage1Solution {
    /// Chosen CRAC outlet temperatures, °C.
    pub crac_out_c: Vec<f64>,
    /// Total core power (kW, base excluded) assigned to each node.
    pub node_core_power_kw: Vec<f64>,
    /// Per-core power assignment (kW), global core order; node sums match
    /// `node_core_power_kw` and all but at most one core per node sit
    /// exactly on an ARR hull breakpoint (i.e. a P-state power).
    pub core_power_kw: Vec<f64>,
    /// The LP objective: estimated aggregate reward rate.
    pub objective: f64,
    /// Per-node-type ARR curves used (indexed by node type).
    pub arr_curves: Vec<ArrCurve>,
}

/// Solve Stage 1 for a data center.
///
/// Returns an error when no searched CRAC outlet combination admits a
/// feasible power/thermal assignment (a thermally unbuildable scenario).
pub fn solve_stage1(
    dc: &DataCenter,
    options: &Stage1Options,
) -> Result<Stage1Solution, SolveError> {
    solve_stage1_under_budget(dc, dc.budget.p_const_kw, options)
}

/// [`solve_stage1`] with the room held to `budget_kw` of total power (IT
/// plus cooling) instead of its own `budget.p_const_kw`: what a fleet
/// master asks of a zone each time it moves the split, without a copy of
/// the room to write the number into.
pub fn solve_stage1_under_budget(
    dc: &DataCenter,
    budget_kw: f64,
    options: &Stage1Options,
) -> Result<Stage1Solution, SolveError> {
    solve_stage1_in(dc, budget_kw, options, &mut SweepStorage::default())
}

/// The storage a Stage-1 sweep works in — the room LP's problem, its
/// internal form, the simplex workspace and solution, and what each
/// candidate writes besides — kept by a caller that runs one sweep after
/// another, so that each builds and solves in the storage the last left
/// ([`solve_stage1_in`]) instead of allocating its own. Empty when made;
/// a sweep that panics drops what it held.
#[derive(Default)]
pub struct SweepStorage {
    lp: Option<Prepared>,
    /// The segment variables of the last sweep's room LP, node by node.
    layout: Layout,
    candidate: CandidateStorage,
}

/// What a Stage-1 candidate writes besides the LP's solution, in storage
/// kept from one candidate to the next.
#[derive(Default)]
struct CandidateStorage {
    lin: Linearised,
    /// The last solved candidate's core power per node: after the
    /// search, the winner's.
    node_core_power: Vec<f64>,
    /// Base plus core power per node, for the re-check.
    node_powers: Vec<f64>,
    /// The re-check's steady state.
    state: ThermalState,
    /// The last feasible candidate's optimal basis while `chained`; its
    /// storage either way.
    warm: Option<Basis>,
    chained: bool,
}

impl CandidateStorage {
    /// The basis the next candidate starts from, if any.
    fn chain(&self) -> Option<&Basis> {
        self.warm.as_ref().filter(|_| self.chained)
    }
}

/// [`solve_stage1_under_budget`] with the room LP built in `storage`,
/// which keeps it for the next sweep. The plan is the one fresh storage
/// gives, bit for bit and pivot for pivot, whatever zone the storage
/// last held.
pub fn solve_stage1_in(
    dc: &DataCenter,
    budget_kw: f64,
    options: &Stage1Options,
    storage: &mut SweepStorage,
) -> Result<Stage1Solution, SolveError> {
    // Every comparison with NaN is false, so no search would refuse it;
    // the LP's right-hand side would.
    if budget_kw.is_nan() {
        return Err(SolveError::InvalidInput { what: "the power budget is NaN".to_string() });
    }
    let _span = thermaware_obs::span("stage1");
    let (arr_curves, node_curves) = arr_and_node_curves(dc, options.psi_percent);
    if thermaware_obs::enabled() {
        for c in &arr_curves {
            thermaware_obs::observe("core.arr_hull_points", c.curve.points().len() as f64);
        }
    }

    let lp = storage.lp.take().unwrap_or_else(|| Problem::new(Sense::Maximize).prepare());
    let layout = std::mem::take(&mut storage.layout);
    let kept = std::mem::take(&mut storage.candidate);
    let mut sweep = OutletSweep::new(dc, budget_kw, &node_curves, options, lp, layout, kept);
    let searched = room::search_outlets(dc, options.search, "stage1", |outlets| sweep.evaluate(outlets));
    storage.lp = Some(sweep.room.lp);
    storage.layout = sweep.room.layout;
    storage.candidate = sweep.kept;
    let (crac_out_c, objective) = searched?;
    let node_core_power_kw = storage.candidate.node_core_power.clone();
    thermaware_obs::gauge_set("core.stage1_objective", objective);

    // Distribute each node's power to its cores along the per-core hull.
    let mut core_power_kw = vec![0.0; dc.n_cores()];
    for node in 0..dc.n_nodes() {
        let t = dc.node_type_of[node];
        let hull = &arr_curves[t].curve;
        distribute_node_power(
            node_core_power_kw[node],
            hull.points(),
            &mut core_power_kw[dc.cores_of_node(node)],
        );
    }

    Ok(Stage1Solution {
        crac_out_c,
        node_core_power_kw,
        core_power_kw,
        objective,
        arr_curves,
    })
}

/// Stage 1's use of the room LP over one outlet search: one variable per
/// node × hull segment, each a kW of that node's core power, priced at the
/// segment's slope (the room's layout lists them node by node); the last
/// feasible candidate's basis carried forward.
struct OutletSweep<'a> {
    dc: &'a DataCenter,
    /// Total power the room is held to, kW.
    budget_kw: f64,
    options: &'a Stage1Options,
    room: RoomLp<'a>,
    /// Segment slopes of every node type's aggregate ARR curve.
    slopes: Vec<Vec<f64>>,
    /// What the candidates write besides the solution.
    kept: CandidateStorage,
}

impl<'a> OutletSweep<'a> {
    /// The sweep's room LP, built in the storage of `lp` and `layout`;
    /// its candidates work in `kept`, starting with no basis to chain
    /// from.
    fn new(
        dc: &'a DataCenter,
        budget_kw: f64,
        node_curves: &[PiecewiseLinear],
        options: &'a Stage1Options,
        lp: Prepared,
        layout: Layout,
        kept: CandidateStorage,
    ) -> Self {
        let slopes: Vec<Vec<f64>> = node_curves.iter().map(PiecewiseLinear::slopes).collect();
        // An infinite budget is no budget: a row `≤ +∞` binds nothing and
        // leaves the optimum no finite certificate.
        let budget_row = (budget_kw < f64::INFINITY).then_some(budget_kw);
        let (room, ()) = RoomLp::build_in(dc, lp, layout, Sense::Maximize, budget_row, |p, layout| {
            // The objective is the raw slope, which is what reward-only
            // weights keep (bit-identical path); cost weights overwrite
            // it per candidate.
            add_segment_vars(p, dc, node_curves, &slopes, |slope| slope, layout);
        });
        OutletSweep {
            dc,
            budget_kw,
            options,
            room,
            slopes,
            kept: CandidateStorage { chained: false, ..kept },
        }
    }

    /// Solve the LP at `outlets`, its per-node core power written into
    /// `kept.node_core_power`. Returns the objective, or `None` when
    /// infeasible (including when the exact clamped power model rejects
    /// the linearized solution).
    ///
    /// With reward-only `objective` weights this is the historical LP,
    /// unchanged coefficient for coefficient. With cost weights each
    /// segment's objective coefficient becomes
    /// `reward_weight·slope − cost_rate·node_coeff[j]` — `node_coeff[j]`
    /// is the *total* power sensitivity to node `j`'s core power (IT plus
    /// induced CRAC cooling), so the LP trades reward against the true
    /// marginal electricity/carbon cost — and the returned objective has
    /// the fixed-power cost subtracted so the outlet search ranks
    /// candidates by the blended net objective.
    ///
    /// With `warm_start` the solve starts from the last feasible
    /// candidate's optimal basis and, on success, replaces it with its
    /// own. Infeasible outlets leave the last good basis in place for the
    /// next grid point.
    fn evaluate(&mut self, outlets: &[f64]) -> Option<f64> {
        let dc = self.dc;
        let kept = &mut self.kept;
        self.room.set_outlets(outlets, &mut kept.lin);
        let linearised = &kept.lin;
        let objective = &self.options.objective;
        let reward_only = objective.is_reward_only();
        let cost_rate = objective.cost_rate_per_kws();

        if !reward_only {
            for (node, vars) in self.room.layout.nodes().enumerate() {
                let slopes = &self.slopes[dc.node_type_of[node]];
                for (&(v, _), &slope) in vars.iter().zip(slopes) {
                    let obj =
                        objective.reward_weight * slope - cost_rate * linearised.node_coeff[node];
                    self.room.lp.set_var_objective(v, obj);
                }
            }
        }

        if !self.options.warm_start {
            kept.chained = false;
        }
        let sol = self.room.lp.solve_warm(kept.chain()).ok()?;
        // The chain's basis, copied into the storage it has.
        match (&mut kept.warm, sol.basis()) {
            (Some(warm), Some(basis)) => warm.clone_from(basis),
            (warm, basis) => *warm = basis.cloned(),
        }
        kept.chained = kept.warm.is_some();

        segment_node_power(&self.room.layout, sol, &mut kept.node_core_power);
        dc.node_powers_in(&kept.node_core_power, &mut kept.node_powers);
        room::recheck(dc, outlets, &kept.node_powers, self.budget_kw, &mut kept.state)?;
        // The variables only carry the *marginal* cost; fold in the cost of
        // the fixed draw (node bases + outlet-dependent CRAC floor) so the
        // outlet search compares candidates by the full net objective.
        Some(if reward_only {
            sol.objective
        } else {
            sol.objective - cost_rate * kept.lin.fixed_power_kw
        })
    }
}

/// ARR per node type at `psi_percent`, and each lifted to the node-level
/// aggregate curve of that type's `cores_per_node` identical cores.
pub(crate) fn arr_and_node_curves(
    dc: &DataCenter,
    psi_percent: f64,
) -> (Vec<ArrCurve>, Vec<PiecewiseLinear>) {
    let arr_curves: Vec<ArrCurve> = (0..dc.node_types.len())
        .map(|j| ArrCurve::build(&dc.workload, &dc.node_types[j].core.pstates, j, psi_percent))
        .collect();
    let node_curves = (0..dc.node_types.len())
        .map(|j| {
            arr_curves[j]
                .curve
                .aggregate_copies(dc.node_types[j].cores_per_node)
        })
        .collect();
    (arr_curves, node_curves)
}

/// One variable per node × segment of the node's aggregate ARR curve,
/// bounded by the segment's length (kW of core power) and priced at
/// `objective(slope)` (`slopes[t]` are node type `t`'s curve's
/// [`slopes`](PiecewiseLinear::slopes)), each named `seg_n{node}_s{segment}` through one
/// buffer, appended to `layout` node by node: each is a kW of its node's
/// core power, on top of the node's base power.
pub(crate) fn add_segment_vars(
    p: &mut Problem,
    dc: &DataCenter,
    node_curves: &[PiecewiseLinear],
    slopes: &[Vec<f64>],
    objective: impl Fn(f64) -> f64,
    layout: &mut Layout,
) {
    let mut name = String::new();
    let terms = dc.node_type_of.iter().map(|&t| slopes[t].len()).sum();
    layout.reserve(dc.n_nodes(), terms);
    for node in 0..dc.n_nodes() {
        let t = dc.node_type_of[node];
        let pts = node_curves[t].points();
        let vars = slopes[t].iter().enumerate().map(|(s, &slope)| {
            let len = pts[s + 1].0 - pts[s].0;
            name.clear();
            let _ = write!(name, "seg_n{node}_s{s}");
            (p.add_var(&name, 0.0, len, objective(slope)), 1.0)
        });
        layout.push_node(dc.node_type(node).base_power_kw, vars);
    }
}

/// Per-node core power of a solution over hull-segment variables laid
/// out in `layout`, written into `power`.
pub(crate) fn segment_node_power(layout: &Layout, sol: &Solution, power: &mut Vec<f64>) {
    power.clear();
    power.extend(layout.nodes().map(|vars| vars.iter().map(|&(v, _)| sol.value(v).max(0.0)).sum::<f64>()));
}

/// Split a node's total core power across its cores using adjacent hull
/// breakpoints: if the equal split lands inside hull segment
/// `[b_s, b_{s+1}]`, put `m` cores at `b_{s+1}`, the rest at `b_s`, and at
/// most one core in between. Linearity of the hull segment makes this
/// objective-neutral versus the equal split while leaving nearly every
/// core exactly on a P-state power — which is what makes Stage 2's
/// rounding nearly lossless. `cores` is the node's cores' power, written
/// core after core.
pub(crate) fn distribute_node_power(total: f64, hull: &[(f64, f64)], cores: &mut [f64]) {
    let n = cores.len();
    if n == 0 {
        return;
    }
    let per_core = (total / n as f64).max(0.0);
    let Some(&(b_max, _)) = hull.last() else {
        return;
    };
    if per_core >= b_max - 1e-15 {
        cores.fill(b_max);
        return;
    }
    // Containing segment.
    let mut s = 0;
    while s + 2 < hull.len() && hull[s + 1].0 <= per_core {
        s += 1;
    }
    let lo = hull[s].0;
    let hi = hull[s + 1].0;
    debug_assert!(per_core >= lo - 1e-12 && per_core <= hi + 1e-12);
    // m cores at hi, then one remainder core, the rest at lo.
    let mut remaining = total;
    for (assigned, c) in cores.iter_mut().enumerate() {
        let left = n - assigned;
        // Greedy: give `hi` while the rest can still absorb at `lo`.
        let give = if remaining - hi >= lo * (left as f64 - 1.0) - 1e-12 {
            hi
        } else {
            // Remainder core: whatever keeps the rest exactly at lo.
            (remaining - lo * (left as f64 - 1.0)).clamp(0.0, hi)
        };
        *c = give.min(remaining.max(0.0));
        remaining -= *c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    fn small_dc(seed: u64) -> DataCenter {
        ScenarioParams::small_test().build(seed).unwrap()
    }

    #[test]
    fn stage1_solves_and_respects_constraints() {
        let dc = small_dc(1);
        let sol = solve_stage1(&dc, &Stage1Options::default()).expect("stage 1");
        assert!(sol.objective > 0.0);
        assert_eq!(sol.node_core_power_kw.len(), 10);
        assert_eq!(sol.core_power_kw.len(), dc.n_cores());

        // Exact feasibility at the chosen outlets.
        let node_powers = dc.node_powers(&sol.node_core_power_kw);
        let (it, cooling, state) = dc.total_power_kw(&sol.crac_out_c, &node_powers);
        assert!(it + cooling <= dc.budget.p_const_kw * (1.0 + 1e-6) + 1e-6);
        assert!(dc.redlines_ok(&state));
    }

    #[test]
    fn per_core_distribution_sums_to_node_totals() {
        let dc = small_dc(2);
        let sol = solve_stage1(&dc, &Stage1Options::default()).unwrap();
        for node in 0..dc.n_nodes() {
            let s: f64 = dc.cores_of_node(node).map(|c| sol.core_power_kw[c]).sum();
            assert!(
                (s - sol.node_core_power_kw[node]).abs() < 1e-9,
                "node {node}: {s} vs {}",
                sol.node_core_power_kw[node]
            );
        }
    }

    #[test]
    fn most_cores_sit_on_hull_breakpoints() {
        let dc = small_dc(3);
        let sol = solve_stage1(&dc, &Stage1Options::default()).unwrap();
        let mut off_breakpoint = 0;
        for node in 0..dc.n_nodes() {
            let t = dc.node_type_of[node];
            let hull = &sol.arr_curves[t].curve;
            for c in dc.cores_of_node(node) {
                let p = sol.core_power_kw[c];
                let on = hull
                    .points()
                    .iter()
                    .any(|&(x, _)| (x - p).abs() < 1e-9);
                if !on {
                    off_breakpoint += 1;
                }
            }
        }
        // At most one remainder core per node.
        assert!(off_breakpoint <= dc.n_nodes(), "{off_breakpoint} stray cores");
    }

    #[test]
    fn psi_changes_the_solution() {
        let dc = small_dc(4);
        let a = solve_stage1(
            &dc,
            &Stage1Options {
                psi_percent: 25.0,
                ..Stage1Options::default()
            },
        )
        .unwrap();
        let b = solve_stage1(
            &dc,
            &Stage1Options {
                psi_percent: 100.0,
                ..Stage1Options::default()
            },
        )
        .unwrap();
        // The Stage-1 *estimates* are not comparable as rewards, but both
        // must be positive and generally different.
        assert!(a.objective > 0.0 && b.objective > 0.0);
        assert!((a.objective - b.objective).abs() > 1e-9);
    }

    /// One sweep object carried over a candidate list — feasible and
    /// infeasible outlets interleaved, so right-hand sides cross zero and
    /// come back — answers every candidate exactly as a sweep object
    /// built for that candidate alone (handed the same warm basis).
    #[test]
    fn one_sweep_equals_a_fresh_sweep_per_candidate() {
        let dc = ScenarioParams {
            n_nodes: 12,
            n_crac: 2,
            ..ScenarioParams::paper(0.3, 0.1)
        }
        .build(5)
        .unwrap();
        let (_, node_curves) = arr_and_node_curves(&dc, 50.0);
        let candidates: Vec<[f64; 2]> = [
            [12.0, 12.0],
            [18.0, 15.0],
            [40.0, 40.0],
            [16.0, 19.0],
            [15.0, 45.0],
            [45.0, 15.0],
            [20.0, 20.0],
            [13.0, 22.0],
        ]
        .to_vec();
        let priced = ObjectiveWeights {
            price_per_kwh: 40.0,
            ..ObjectiveWeights::reward_only()
        };
        assert!(!priced.is_reward_only());
        for objective in [ObjectiveWeights::reward_only(), priced] {
            for warm_start in [true, false] {
                let options = Stage1Options {
                    warm_start,
                    objective,
                    ..Stage1Options::default()
                };
                let fresh_lp = || Problem::new(Sense::Maximize).prepare();
                let budget_kw = dc.budget.p_const_kw;
                let sweep = |lp| {
                    let (layout, kept) = (Layout::default(), CandidateStorage::default());
                    OutletSweep::new(&dc, budget_kw, &node_curves, &options, lp, layout, kept)
                };
                let mut shared = sweep(fresh_lp());
                let mut chain: Option<Basis> = None;
                let (mut feasible, mut infeasible) = (0, 0);
                // Each candidate's objective and plan.
                let evaluate = |sweep: &mut OutletSweep, outlets| {
                    sweep.evaluate(outlets).map(|objective| (sweep.kept.node_core_power.clone(), objective))
                };
                for outlets in &candidates {
                    let mut fresh = sweep(fresh_lp());
                    fresh.kept.chained = chain.is_some();
                    fresh.kept.warm = chain.take();
                    let alone = evaluate(&mut fresh, outlets);
                    chain = fresh.kept.chain().cloned();
                    let carried = evaluate(&mut shared, outlets);
                    assert_eq!(shared.kept.chain(), chain.as_ref(), "same basis handed on at {outlets:?}");
                    match (&carried, &alone) {
                        (Some((pa, oa)), Some((pb, ob))) => {
                            feasible += 1;
                            assert_eq!(oa.to_bits(), ob.to_bits(), "objective at {outlets:?}");
                            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(pa), bits(pb), "node powers at {outlets:?}");
                        }
                        (None, None) => infeasible += 1,
                        _ => panic!("feasibility differs at {outlets:?}"),
                    }
                }
                assert!(feasible >= 3 && infeasible >= 2, "{feasible} feasible, {infeasible} not");
            }
        }
    }

    /// Stage 1 under a stated budget is Stage 1 of the same room with
    /// that budget written into it — plan and objective to the bit, at a
    /// budget below the room's own (binding), above it, and too small for
    /// any candidate.
    #[test]
    fn a_stated_budget_equals_a_clone_with_that_budget() {
        let dc = small_dc(6);
        let options = Stage1Options::default();
        let own = dc.budget.p_const_kw;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for budget_kw in [0.5 * (own + dc.budget.p_min_kw), 0.93 * own, 1.2 * own, 0.2 * dc.budget.p_min_kw] {
            let mut written = dc.clone();
            written.budget.p_const_kw = budget_kw;
            match (solve_stage1_under_budget(&dc, budget_kw, &options), solve_stage1(&written, &options)) {
                (Ok(stated), Ok(cloned)) => {
                    assert_eq!(stated.objective.to_bits(), cloned.objective.to_bits(), "{budget_kw} kW");
                    assert_eq!(bits(&stated.crac_out_c), bits(&cloned.crac_out_c));
                    assert_eq!(bits(&stated.node_core_power_kw), bits(&cloned.node_core_power_kw));
                    assert_eq!(bits(&stated.core_power_kw), bits(&cloned.core_power_kw));
                    let node_powers = dc.node_powers(&stated.node_core_power_kw);
                    let (it, cooling, _) = dc.total_power_kw(&stated.crac_out_c, &node_powers);
                    assert!(room::within_budget(it + cooling, budget_kw), "{budget_kw} kW");
                }
                (Err(stated), Err(cloned)) => {
                    assert!(budget_kw < dc.budget.p_min_kw, "only the starved budget fails");
                    assert_eq!(stated.to_string(), cloned.to_string());
                }
                (stated, cloned) => panic!("{budget_kw} kW: {stated:?} vs {cloned:?}"),
            }
        }
        let under_own = solve_stage1_under_budget(&dc, own, &options).unwrap();
        assert_eq!(under_own, solve_stage1(&dc, &options).unwrap());
        let tighter = solve_stage1_under_budget(&dc, 0.93 * own, &options).unwrap();
        assert!(tighter.objective < under_own.objective, "the stated budget is the one that binds");
    }

    /// Budgets at the edges: a NaN is refused by name, every budget below
    /// what the room draws idle finds no outlet combination, and an
    /// infinite one is no budget at all.
    #[test]
    fn budgets_below_idle_power_are_refused_and_infinity_binds_nothing() {
        let dc = small_dc(6);
        let options = Stage1Options::default();
        let nan = solve_stage1_under_budget(&dc, f64::NAN, &options).unwrap_err();
        assert!(matches!(nan, SolveError::InvalidInput { .. }), "{nan:?}");
        assert!(nan.to_string().contains("NaN"), "{nan}");
        for budget_kw in [-1.0, f64::NEG_INFINITY, 0.5 * dc.budget.p_min_kw] {
            let err = solve_stage1_under_budget(&dc, budget_kw, &options).unwrap_err();
            assert!(matches!(err, SolveError::NoFeasibleOutlets { stage: "stage1" }), "{budget_kw} kW: {err:?}");
            assert!(err.to_string().contains("no feasible CRAC outlet combination"), "{err}");
        }
        let unbounded = solve_stage1_under_budget(&dc, f64::INFINITY, &options).unwrap();
        let generous = solve_stage1_under_budget(&dc, 1e3 * dc.budget.p_max_kw, &options).unwrap();
        let gap = (unbounded.objective - generous.objective).abs();
        assert!(gap <= 1e-9 * unbounded.objective.abs(), "{} vs {}", unbounded.objective, generous.objective);
        assert_eq!(unbounded.crac_out_c, generous.crac_out_c);
        assert!(unbounded.objective > solve_stage1(&dc, &options).unwrap().objective);
    }

    /// The fixed-outlet Stage-1 LP's optimum under `budget_kw`, or `None`
    /// when no point meets its rows.
    fn fixed_outlet_value(dc: &DataCenter, outlets: &[f64], budget_kw: f64) -> Option<f64> {
        let (_, node_curves) = arr_and_node_curves(dc, 50.0);
        let mut p = Problem::new(Sense::Maximize);
        let mut layout = Layout::default();
        let slopes: Vec<Vec<f64>> = node_curves.iter().map(PiecewiseLinear::slopes).collect();
        add_segment_vars(&mut p, dc, &node_curves, &slopes, |slope| slope, &mut layout);
        let mut room = RoomLp::build(dc, p, layout, Some(budget_kw));
        room.set_outlets(outlets, &mut Linearised::default());
        room.lp.solve_warm(None).ok().map(|sol| sol.objective)
    }

    /// Laws of the room LP at fixed outlets (those Stage 1 picked), seeds
    /// 1–5: the budget is the right-hand side of a `≤` row of a
    /// maximisation, so the value is non-decreasing and concave in it —
    /// on equally spaced budgets from the idle floor to past the ceiling,
    /// feasible from some budget on — and raising the node redline
    /// relaxes every `redline_node` row, so it never lowers the value.
    #[test]
    fn fixed_outlet_value_rises_concavely_in_the_budget_and_with_the_redline() {
        for seed in 1..=5 {
            let dc = small_dc(seed);
            let outlets = solve_stage1(&dc, &Stage1Options::default()).unwrap().crac_out_c;
            let mut relaxed = dc.clone();
            relaxed.thermal.node_redline_c += 2.0;
            let (floor, ceiling) = (dc.budget.p_min_kw, dc.budget.p_max_kw);
            let budgets: Vec<f64> = (0..=12).map(|k| floor + (ceiling - floor) * f64::from(k) / 10.0).collect();
            let values: Vec<Option<f64>> =
                budgets.iter().map(|&b| fixed_outlet_value(&dc, &outlets, b)).collect();
            let tol = |v: f64| 1e-7 * (1.0 + v.abs());

            let first = values.iter().position(Option::is_some).expect("feasible past the ceiling");
            let feasible: Vec<f64> = values[first..].iter().map(|v| v.expect("feasible above a feasible budget")).collect();
            assert!(feasible.len() >= 3, "seed {seed}: {values:?}");
            for w in feasible.windows(2) {
                assert!(w[1] >= w[0] - tol(w[0]), "seed {seed}: the value fell, {w:?}");
            }
            for w in feasible.windows(3) {
                assert!(w[2] - w[1] <= w[1] - w[0] + tol(w[1]), "seed {seed}: not concave, {w:?}");
            }
            for (&budget, value) in budgets.iter().zip(&values) {
                let hot = fixed_outlet_value(&relaxed, &outlets, budget);
                if let Some(value) = *value {
                    let hot = hot.expect("a relaxed redline keeps a feasible budget feasible");
                    assert!(hot >= value - tol(value), "seed {seed}, {budget} kW: {hot} < {value}");
                }
            }
        }
    }

    #[test]
    fn distribute_exact_cases() {
        // Hull (0,0) -> (1,10) -> (2,15); 4 cores, total 6: per-core 1.5
        // in segment [1,2] -> two cores at 2, two at 1 (or one remainder).
        let hull = [(0.0, 0.0), (1.0, 10.0), (2.0, 15.0)];
        let mut out = [0.0; 4];
        distribute_node_power(6.0, &hull, &mut out);
        let sum: f64 = out.iter().sum();
        assert!((sum - 6.0).abs() < 1e-12, "{out:?}");
        for &p in &out {
            assert!((-1e-12..=2.0 + 1e-12).contains(&p));
        }
        let stray = out
            .iter()
            .filter(|&&p| (p - 1.0).abs() > 1e-9 && (p - 2.0).abs() > 1e-9 && p.abs() > 1e-9)
            .count();
        assert!(stray <= 1, "{out:?}");

        // Saturated: total = 4 * b_max.
        let mut out2 = [0.0; 4];
        distribute_node_power(8.0, &hull, &mut out2);
        assert!(out2.iter().all(|&p| (p - 2.0).abs() < 1e-12));

        // Zero.
        let mut out3 = [9.0; 4];
        distribute_node_power(0.0, &hull, &mut out3);
        assert!(out3.iter().all(|&p| p.abs() < 1e-12));
    }
}
