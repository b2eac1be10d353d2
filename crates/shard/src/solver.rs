//! The fleet solver: zone solves on the supervised pool, coordinated by
//! the budget-bisection master, with a degraded-zone fallback ladder.
//!
//! [`FleetSolver::replan`] is the fleet-scale analogue of the service's
//! replan after a fault. Each epoch it (1) splits the fleet budget
//! across zones by price bisection over the concave zone profiles,
//! (2) dispatches every zone's Stage-1→3 solve to the worker pool —
//! each under `catch_unwind`, a per-attempt deadline, bounded
//! retry/backoff, and straggler hedging — and (3) for every zone that
//! still failed, walks the fallback ladder:
//!
//! 1. **last-good** — reuse the zone's newest fresh plan when it fits
//!    the new allocation (a plan that was feasible stays feasible: the
//!    zone's thermal model did not change);
//! 2. **throttle** — walk the last-good plan under the shrunken
//!    allocation with `thermaware_runtime::degrade` (deepening only
//!    sheds heat, so redline feasibility is preserved);
//! 3. **all-off** — the unconditional floor: every core off at the
//!    zone's all-off optimal outlets.
//!
//! A zone that failed `k` consecutive epochs is not re-dispatched for
//! `min(2^(k−1), 8)` epochs (it rides its fallback plan meanwhile) —
//! the floor's backoff step (`degrade::back_off`), at fleet scale.
//! Warm-started Stage-3 bases persist across replans and, through
//! [`FleetSolver::to_state`]/[`FleetSolver::from_state`], across
//! crash-resume.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use crate::chaos::ChaosScript;
use crate::fleet::Fleet;
use crate::master::{self, BudgetSplit};
use crate::pool::{self, Pool, PoolConfig, RunStats};
use crate::state::{FallbackKind, FleetState, ZonePlan, ZoneSlot, STATE_VERSION};
use thermaware_core::stage1::{solve_stage1_in, Stage1Options, SweepStorage};
use thermaware_core::stage2::assign_pstates;
use thermaware_core::stage3::{solve_stage3, solve_stage3_warm};
use thermaware_core::stage3::Stage3Basis;
use thermaware_core::{ObjectiveWeights, SolveError};
use thermaware_datacenter::DataCenter;
use thermaware_obs as obs;
use thermaware_runtime::degrade::{self, back_off, MAX_BACKOFF_EPOCHS};

/// Step bound for the throttle fallback rung.
const THROTTLE_MAX_STEPS: usize = 100_000;

/// Fleet solver policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The ψ parameter for every zone's Stage 1.
    pub psi_percent: f64,
    /// Worker pool sizing and per-attempt failure policy.
    pub pool: PoolConfig,
    /// Objective blend every zone's Stage 1 optimizes (reward vs
    /// electricity/carbon cost). The reward-only default reproduces the
    /// historical fleet solver bit for bit.
    pub objective: ObjectiveWeights,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            psi_percent: 50.0,
            pool: PoolConfig::default(),
            objective: ObjectiveWeights::reward_only(),
        }
    }
}

/// One epoch's fleet-wide plan.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// The epoch this plan was produced at.
    pub epoch: u64,
    /// Total reward rate across zones.
    pub reward: f64,
    /// Total actual power (IT + cooling) across zones, kW.
    pub power_kw: f64,
    /// The fleet budget the master split, kW.
    pub budget_kw: f64,
    /// `Σ` of zone allocations, kW (≤ `budget_kw`).
    pub spent_kw: f64,
    /// Bisection iterations the master performed.
    pub bisection_iters: u32,
    /// Zones running a fallback plan this epoch.
    pub degraded: usize,
    /// Per-zone plans, in zone order.
    pub zones: Vec<ZonePlan>,
    /// Pool-level fault statistics for this replan.
    pub stats: RunStats,
}

impl FleetPlan {
    /// Check every invariant the fleet guarantees: per-zone redlines,
    /// per-zone power within allocation (or at the physical floor), and
    /// the fleet feed never oversubscribed. Returns the first violation.
    pub fn verify(&self, fleet: &Fleet) -> Result<(), String> {
        let mut total = 0.0f64;
        let mut floor_sum = 0.0f64;
        for plan in &self.zones {
            let dc = &fleet.zones[plan.zone];
            let powers = dc.node_powers_from_pstates(&plan.pstates);
            let (it, cooling, state) = dc.total_power_kw(&plan.outlets, &powers);
            if !dc.redlines_ok(&state) {
                return Err(format!("zone {}: redline violation", plan.zone));
            }
            let actual = it + cooling;
            if (actual - plan.power_kw).abs() > 1e-6 * actual.max(1.0) {
                return Err(format!(
                    "zone {}: reported power {} vs actual {}",
                    plan.zone, plan.power_kw, actual
                ));
            }
            let floor = dc.budget.p_min_kw;
            if actual > plan.budget_kw.max(floor) + 1e-6 {
                return Err(format!(
                    "zone {}: power {} exceeds allocation {} (floor {})",
                    plan.zone, actual, plan.budget_kw, floor
                ));
            }
            total += actual;
            floor_sum += floor;
        }
        if total > self.budget_kw.max(floor_sum) + 1e-6 {
            return Err(format!(
                "fleet power {} exceeds budget {} (floor {})",
                total, self.budget_kw, floor_sum
            ));
        }
        Ok(())
    }
}

/// Solve one zone under an explicit budget: Stage 1 (CRAC sweep + power
/// LP) → Stage 2 (P-state rounding) → Stage 3 (rate LP, warm-started
/// from `warm` when compatible). This is the job body both the pooled
/// and the monolithic paths run, so decomposition overhead can never
/// change an answer.
pub fn solve_zone(
    dc: &DataCenter,
    zone: usize,
    budget_kw: f64,
    psi_percent: f64,
    objective: &ObjectiveWeights,
    warm: Option<&Stage3Basis>,
) -> Result<(ZonePlan, Option<Stage3Basis>), SolveError> {
    solve_zone_in(dc, zone, budget_kw, psi_percent, objective, warm, &Mutex::default())
}

/// [`solve_zone`] with its Stage-1 sweep built in storage taken from
/// `spares` (new storage when there is none), given back once Stage 1
/// returns. The storage is the job's alone from take to give-back; a
/// panic in between drops it.
fn solve_zone_in(
    dc: &DataCenter,
    zone: usize,
    budget_kw: f64,
    psi_percent: f64,
    objective: &ObjectiveWeights,
    warm: Option<&Stage3Basis>,
    spares: &Mutex<Vec<SweepStorage>>,
) -> Result<(ZonePlan, Option<Stage3Basis>), SolveError> {
    // No lock is held while a job panics, so a poisoned list is still
    // whole: every push and pop leaves it valid.
    let spare_list = || spares.lock().unwrap_or_else(PoisonError::into_inner);
    let mut storage = spare_list().pop().unwrap_or_default();
    let options = Stage1Options {
        psi_percent,
        objective: *objective,
        ..Stage1Options::default()
    };
    let stage1 = solve_stage1_in(dc, budget_kw, &options, &mut storage);
    spare_list().push(storage);
    let stage1 = match stage1 {
        Ok(s) => s,
        Err(err) => {
            // A (near-)floor allocation can be Stage-1 infeasible purely
            // through outlet-grid discretization (`p_min_kw` is itself a
            // discretized bound). When all-off fits the allocation,
            // all-off *is* the optimum under this budget — a legitimate
            // fresh plan, not a degraded one. Genuinely unbuildable
            // budgets (below even all-off) still propagate the error.
            let plan = all_off_plan(dc, zone, budget_kw);
            if plan.power_kw <= budget_kw + 1e-6 * budget_kw.max(1.0) {
                let mut plan = plan;
                plan.degraded = None;
                return Ok((plan, None));
            }
            return Err(err);
        }
    };
    let pstates = assign_pstates(dc, &stage1);
    let (stage3, basis) = solve_stage3_warm(dc, &pstates, warm)?;
    let powers = dc.node_powers_from_pstates(&pstates);
    let (it, cooling, state) = dc.total_power_kw(&stage1.crac_out_c, &powers);
    if !dc.redlines_ok(&state) {
        return Err(SolveError::invalid_input(format!(
            "zone {zone}: rounded plan violates redlines"
        )));
    }
    let plan = ZonePlan {
        zone,
        budget_kw,
        power_kw: it + cooling,
        reward: stage3.reward_rate,
        outlets: stage1.crac_out_c.clone(),
        pstates,
        degraded: None,
    };
    Ok((plan, basis))
}

/// The fleet-scale solver. Owns the worker pool and per-zone carry
/// state; see the module docs for the replan protocol.
pub struct FleetSolver {
    fleet: Arc<Fleet>,
    cfg: FleetConfig,
    pool: Pool,
    epoch: u64,
    zones: Vec<ZoneSlot>,
}

impl FleetSolver {
    /// Build a solver over `fleet`.
    pub fn new(fleet: Arc<Fleet>, cfg: FleetConfig) -> FleetSolver {
        let pool = Pool::new(cfg.pool.threads);
        let zones = (0..fleet.n_zones()).map(|_| ZoneSlot::default()).collect();
        FleetSolver { fleet, cfg, pool, epoch: 0, zones }
    }

    /// The fleet this solver plans for.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Snapshot the solver's carry state (PR 2-style crash-resume).
    pub fn to_state(&self) -> FleetState {
        FleetState { version: STATE_VERSION, epoch: self.epoch, zones: self.zones.clone() }
    }

    /// Restore a solver from a snapshot over the same fleet.
    pub fn from_state(
        fleet: Arc<Fleet>,
        cfg: FleetConfig,
        state: &FleetState,
    ) -> Result<FleetSolver, String> {
        if state.version != STATE_VERSION {
            return Err(format!(
                "unsupported fleet state version {} (expected {STATE_VERSION})",
                state.version
            ));
        }
        if state.zones.len() != fleet.n_zones() {
            return Err(format!(
                "snapshot has {} zones, fleet has {}",
                state.zones.len(),
                fleet.n_zones()
            ));
        }
        for (z, slot) in state.zones.iter().enumerate() {
            if let Some(plan) = &slot.last_good {
                let dc = &fleet.zones[z];
                if plan.outlets.len() != dc.n_crac() || plan.pstates.len() != dc.n_cores() {
                    return Err(format!("snapshot zone {z} does not match the fleet topology"));
                }
            }
        }
        let mut solver = FleetSolver::new(fleet, cfg);
        solver.epoch = state.epoch;
        solver.zones = state.zones.clone();
        Ok(solver)
    }

    /// Replan the whole fleet for the next epoch. `chaos` injects
    /// scripted worker faults (tests and drills); pass `None` in
    /// production. Never panics and never returns an infeasible plan —
    /// zones that fail every attempt ride the fallback ladder.
    pub fn replan(&mut self, chaos: Option<&ChaosScript>) -> FleetPlan {
        let _span = obs::span("shard.replan");
        obs::counter_add("shard.replans", 1);
        let epoch = self.epoch;
        self.epoch += 1;

        let split: BudgetSplit = master::split_budget(self.fleet.budget_kw, &self.fleet.profiles);
        let n = self.fleet.n_zones();

        // Epoch-level backoff: a zone mid-skip rides its fallback.
        let mut active: Vec<usize> = Vec::with_capacity(n);
        for z in 0..n {
            if self.zones[z].backoff_skip > 0 {
                self.zones[z].backoff_skip -= 1;
            } else {
                active.push(z);
            }
        }

        // Dispatch the active zones to the supervised pool.
        let fleet = Arc::clone(&self.fleet);
        let chaos: Option<Arc<ChaosScript>> = chaos.map(|c| Arc::new(c.clone()));
        let psi = self.cfg.psi_percent;
        let objective = self.cfg.objective;
        let budgets = split.budgets.clone();
        let bases: Vec<Option<Stage3Basis>> =
            active.iter().map(|&z| self.zones[z].basis.clone()).collect();
        let zone_of_item = active.clone();
        // The Stage-1 storage of zones whose sweep is done, for the next
        // zone's sweep to build in: at most one per worker busy at once.
        // No worker keeps one of its own — workers outlive the replan —
        // so the storage goes when the last job holding the list ends.
        let spares: Arc<Mutex<Vec<SweepStorage>>> = Arc::default();
        let (results, stats) =
            pool::run_supervised(&self.pool, active.len(), &self.cfg.pool, move |i, attempt| {
                let fleet = Arc::clone(&fleet);
                let chaos = chaos.clone();
                let spares = Arc::clone(&spares);
                let z = zone_of_item[i];
                let budget = budgets[z];
                let warm = bases[i].clone();
                Box::new(move || {
                    if let Some(script) = &chaos {
                        script.apply(epoch, z, attempt)?;
                    }
                    solve_zone_in(&fleet.zones[z], z, budget, psi, &objective, warm.as_ref(), &spares)
                        .map_err(|e| e.to_string())
                })
            });

        // Collect fresh plans; ladder the rest.
        let mut plans: Vec<Option<ZonePlan>> = vec![None; n];
        for (i, result) in results.into_iter().enumerate() {
            let z = active[i];
            match result {
                Ok((plan, basis)) => {
                    if basis.is_some() {
                        self.zones[z].basis = basis;
                    }
                    self.zones[z].last_good = Some(plan.clone());
                    self.zones[z].backoff_skip = 0;
                    self.zones[z].backoff_next = 1;
                    plans[z] = Some(plan);
                }
                Err(_err) => {
                    let slot = &mut self.zones[z];
                    back_off(&mut slot.backoff_skip, &mut slot.backoff_next, MAX_BACKOFF_EPOCHS);
                }
            }
        }
        let mut degraded = 0usize;
        for z in 0..n {
            if plans[z].is_none() {
                degraded += 1;
                plans[z] = Some(self.fallback_plan(z, split.budgets[z]));
            }
        }
        obs::counter_add("shard.degraded_zones", degraded as u64);

        let zones: Vec<ZonePlan> = plans
            .into_iter()
            .map(|p| p.expect("every zone resolved to a plan"))
            .collect();
        let reward: f64 = zones.iter().map(|p| p.reward).sum();
        let power_kw: f64 = zones.iter().map(|p| p.power_kw).sum();
        obs::gauge_set("shard.reward_rate", reward);
        obs::gauge_set("shard.power_kw", power_kw);

        FleetPlan {
            epoch,
            reward,
            power_kw,
            budget_kw: self.fleet.budget_kw,
            spent_kw: split.spent_kw,
            bisection_iters: split.iterations,
            degraded,
            zones,
            stats,
        }
    }

    /// The degraded-zone ladder (module docs rungs 1–3). Always returns
    /// an executable, redline-feasible plan.
    fn fallback_plan(&self, z: usize, budget_kw: f64) -> ZonePlan {
        let dc = &self.fleet.zones[z];
        if let Some(lg) = &self.zones[z].last_good {
            // Rung 1: the last-good plan still fits the new allocation.
            if lg.power_kw <= budget_kw + 1e-9 {
                obs::counter_add("shard.fallback_last_good", 1);
                let mut plan = lg.clone();
                plan.budget_kw = budget_kw;
                plan.degraded = Some(FallbackKind::LastGood);
                return plan;
            }
            // Rung 2: throttle the last-good plan under the allocation.
            let throttled = degrade::throttle_to_budget(
                dc,
                &lg.outlets,
                &lg.pstates,
                budget_kw,
                THROTTLE_MAX_STEPS,
            );
            if throttled.fits {
                // Rates for the deepened P-states; the solve is cheap
                // (Stage 3 only) but runs on the master thread, so keep
                // the panic isolation the pool would have given it.
                let rates = catch_unwind(AssertUnwindSafe(|| solve_stage3(dc, &throttled.pstates)));
                if let Ok(Ok(stage3)) = rates {
                    obs::counter_add("shard.fallback_throttle", 1);
                    return ZonePlan {
                        zone: z,
                        budget_kw,
                        power_kw: throttled.it_kw + throttled.cooling_kw,
                        reward: stage3.reward_rate,
                        outlets: lg.outlets.clone(),
                        pstates: throttled.pstates,
                        degraded: Some(FallbackKind::Throttled),
                    };
                }
            }
        }
        // Rung 3: the unconditional floor.
        obs::counter_add("shard.fallback_all_off", 1);
        all_off_plan(dc, z, budget_kw)
    }
}

/// Every core off at the zone's all-off optimal outlets — always
/// feasible (the budget computation proved these outlets cool the
/// all-off load within redlines).
fn all_off_plan(dc: &DataCenter, zone: usize, budget_kw: f64) -> ZonePlan {
    let pstates = dc.off_pstates();
    let outlets = dc.budget.min_outlets_c.clone();
    let powers = dc.node_powers_from_pstates(&pstates);
    let (it, cooling, _state) = dc.total_power_kw(&outlets, &powers);
    ZonePlan {
        zone,
        budget_kw,
        power_kw: it + cooling,
        reward: 0.0,
        outlets,
        pstates,
        degraded: Some(FallbackKind::AllOff),
    }
}

/// The monolithic oracle: the same split and the same zone solves, run
/// sequentially on the calling thread with no pool, no chaos, and no
/// fallback — errors propagate. The decomposition agreement proptest
/// holds [`FleetSolver::replan`] to this answer.
pub fn solve_monolithic(
    fleet: &Fleet,
    psi_percent: f64,
    objective: &ObjectiveWeights,
) -> Result<FleetPlan, SolveError> {
    let split = master::split_budget(fleet.budget_kw, &fleet.profiles);
    let mut zones = Vec::with_capacity(fleet.n_zones());
    for (z, dc) in fleet.zones.iter().enumerate() {
        let (plan, _basis) = solve_zone(dc, z, split.budgets[z], psi_percent, objective, None)?;
        zones.push(plan);
    }
    let reward: f64 = zones.iter().map(|p| p.reward).sum();
    let power_kw: f64 = zones.iter().map(|p| p.power_kw).sum();
    Ok(FleetPlan {
        epoch: 0,
        reward,
        power_kw,
        budget_kw: fleet.budget_kw,
        spent_kw: split.spent_kw,
        bisection_iters: split.iterations,
        degraded: 0,
        zones,
        stats: RunStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;
    use crate::fleet::FleetParams;

    fn small_fleet() -> Arc<Fleet> {
        Arc::new(Fleet::build(&FleetParams::small(2, 5, 17), 50.0).expect("fleet builds"))
    }

    fn cfg() -> FleetConfig {
        FleetConfig {
            pool: PoolConfig { threads: 2, retries: 1, ..PoolConfig::default() },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn healthy_replan_is_feasible_and_rewarding() {
        let fleet = small_fleet();
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg());
        let plan = solver.replan(None);
        assert_eq!(plan.degraded, 0);
        assert!(plan.reward > 0.0);
        plan.verify(&fleet).expect("invariants hold");
    }

    #[test]
    fn persistent_zone_fault_degrades_only_that_zone() {
        let fleet = small_fleet();
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg());
        // Epoch 0 healthy: seeds last-good plans.
        let healthy = solver.replan(None);
        plan_ok(&healthy, &fleet);
        // Epoch 1: zone 0 panics on every attempt.
        let mut script = ChaosScript::new();
        script.inject_persistent(1, 0, 8, Fault::Panic);
        let faulted = solver.replan(Some(&script));
        assert_eq!(faulted.degraded, 1);
        assert!(faulted.zones[0].degraded.is_some(), "zone 0 must be degraded");
        assert!(faulted.zones[1].degraded.is_none(), "zone 1 must be untouched");
        // Last-good fallback keeps the zone's reward.
        assert!(faulted.reward > 0.9 * healthy.reward);
        plan_ok(&faulted, &fleet);
    }

    #[test]
    fn recovery_converges_to_the_healthy_answer() {
        let fleet = small_fleet();
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg());
        let reference = solver.replan(None);
        let mut script = ChaosScript::new();
        script.inject_persistent(1, 1, 8, Fault::Error);
        let faulted = solver.replan(Some(&script));
        assert_eq!(faulted.degraded, 1);
        // Faults cleared: within the backoff bound the solver reconverges.
        let mut last = faulted;
        for _ in 0..10 {
            last = solver.replan(None);
            if last.degraded == 0 {
                break;
            }
        }
        assert_eq!(last.degraded, 0, "backoff must expire and the zone recover");
        let tol = 1e-6 * (1.0 + reference.reward.abs());
        assert!((last.reward - reference.reward).abs() <= tol);
        plan_ok(&last, &fleet);
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let fleet = small_fleet();
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg());
        solver.replan(None);
        let mut script = ChaosScript::new();
        script.inject(1, 0, 0, Fault::Panic);
        solver.replan(Some(&script));

        let state = solver.to_state();
        let json = serde_json::to_string(&state).expect("state serializes");
        let restored_state: crate::state::FleetState =
            serde_json::from_str(&json).expect("state deserializes");
        assert_eq!(state, restored_state);

        let mut restored = FleetSolver::from_state(Arc::clone(&fleet), cfg(), &restored_state)
            .expect("solver restores");
        let a = solver.replan(None);
        let b = restored.replan(None);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.degraded, b.degraded);
        let tol = 1e-9 * (1.0 + a.reward.abs());
        assert!((a.reward - b.reward).abs() <= tol, "resumed replan must match");
    }

    /// Counters enter from disk unchecked: a zone whose next skip is
    /// `u32::MAX` must take one more failure without overflowing
    /// (`next * 2` panicked in debug builds), and skip that long.
    #[test]
    fn a_saturated_backoff_takes_one_more_failure() {
        let fleet = small_fleet();
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg());
        solver.replan(None);
        let json = serde_json::to_string(&solver.to_state()).expect("state serializes").replacen(
            r#""backoff_next":1"#,
            r#""backoff_next":4294967295"#,
            1,
        );
        let state: FleetState = serde_json::from_str(&json).expect("state deserializes");
        let mut solver =
            FleetSolver::from_state(Arc::clone(&fleet), cfg(), &state).expect("solver restores");
        let mut script = ChaosScript::new();
        script.inject_persistent(1, 0, 8, Fault::Error);
        assert_eq!(solver.replan(Some(&script)).degraded, 1);
        let zone = &solver.to_state().zones[0];
        assert_eq!((zone.backoff_skip, zone.backoff_next), (u32::MAX, 8));
    }

    fn plan_ok(plan: &FleetPlan, fleet: &Fleet) {
        plan.verify(fleet).expect("fleet invariants");
    }
}
