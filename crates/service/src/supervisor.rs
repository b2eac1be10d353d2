//! The supervisor: a faulted, seeded run of the service engine on its
//! physical floor — a script where the daemon has a socket.
//!
//! There is one epoch loop, [`ServiceEngine::step_with`]. Each epoch the
//! supervisor takes the [`FaultScript`]'s faults due at the boundary,
//! draws the epoch's seeded arrivals (base rates times the demand curve
//! and any scripted surge) as batches, and — when the engine
//! [wants a replan](ServiceEngine::wants_replan) — solves, cold and
//! synchronously, and hands the answer in as the epoch's verdict: a
//! full three-stage plan ([`ReplanVerdict::FullPlan`]) when a demand
//! curve is set and the engine's demand EWMA drifted, the Stage-3 rates
//! on the surviving cores otherwise. With a store the run writes an
//! ordinary service store; [`Supervisor::resume`] brings it back through
//! [`resume_service`] (replay never re-solves), and the epochs after it
//! decide, draw and solve exactly as the uninterrupted run did: every
//! input is a function of the state and the epoch.

use crate::engine::{ReplanVerdict, ServiceConfig, ServiceEngine};
use crate::proto::Batch;
use crate::store::{resume_service, ServiceStore, StoreConfig};
use thermaware_core::{Solver, ThreeStageSolution};
use thermaware_datacenter::DataCenter;
use thermaware_runtime::floor::Floor;
use thermaware_runtime::persist::{json_crc_only, PersistError, TrailRecovery};
use thermaware_runtime::{epoch_arrivals, EventLog, Fault, FaultScript, DEFAULT_TRIP_MARGIN_C};
use thermaware_scheduler::SimulationResult;
use thermaware_workload::Curve;

/// ψ (percent) of the drift re-solve's three-stage plan.
pub const PSI_PERCENT: f64 = 50.0;

/// A supervised run; the epoch length and drift threshold are the
/// engine's ([`ServiceConfig::default`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Seed of the arrival stream.
    pub seed: u64,
    /// Demand curve scaling the base arrival rates (`None`: static).
    pub demand: Option<Curve>,
    /// Run the floor's ladder and the replans (`false`: the stale-plan
    /// baseline under the same faults and physics).
    pub supervise: bool,
    /// True inlet excess over the redline at which a node trips, °C.
    pub trip_margin_c: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { horizon_s: 30.0, seed: 0, demand: None, supervise: true, trip_margin_c: DEFAULT_TRIP_MARGIN_C }
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No violation was ever detected; the initial plan ran untouched.
    Nominal,
    /// Violations came and went; the final true state is within limits.
    Recovered,
    /// Within limits, but the breaker had shed task types.
    Shed,
    /// Outside limits at the end, with a steady state.
    Degraded,
    /// The floor was lost: no thermal steady state.
    Unrecoverable,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// Typed terminal outcome.
    pub outcome: Outcome,
    /// The workload simulation summary (reward, drops, latency).
    pub sim: SimulationResult,
    /// The typed event history.
    pub log: EventLog,
    /// True redline violation of the final steady state, °C.
    pub final_violation_c: f64,
    /// Total power (IT + cooling) of the final steady state, kW.
    pub final_power_kw: f64,
    /// Nodes dead at the end (scripted deaths + thermal trips).
    pub nodes_dead: usize,
    /// Task types the breaker had shed at the end.
    pub shed_task_types: Vec<usize>,
}

/// Supervised runs over one data center.
#[derive(Clone, Copy)]
pub struct Supervisor<'a> {
    dc: &'a DataCenter,
    cfg: SupervisorConfig,
}

impl<'a> Supervisor<'a> {
    /// A supervisor over `dc`, its engine at [`ServiceConfig::default`].
    pub fn new(dc: &'a DataCenter, cfg: SupervisorConfig) -> Self {
        Supervisor { dc, cfg }
    }

    /// Run the plan against `script` over the horizon. Every ending is a
    /// typed [`Outcome`].
    pub fn run(&self, plan: &ThreeStageSolution, script: &FaultScript) -> SupervisorReport {
        let _span = thermaware_obs::span("supervisor.run");
        let mut run = self.begin(plan, script);
        while let Ok(true) = run.step() {} // with no store, nothing fails
        run.conclude()
    }

    /// An engine at the plan's P-states and rates on a whole floor at its
    /// outlets, one epoch per [`SupervisedRun::step`].
    pub fn begin(&self, plan: &ThreeStageSolution, script: &FaultScript) -> SupervisedRun {
        let floor = Floor::new(self.dc, plan.crac_out_c(), self.cfg.supervise, self.cfg.trip_margin_c);
        let engine = ServiceEngine::new(self.dc.clone(), ServiceConfig::default(), &plan.pstates, &plan.stage3);
        SupervisedRun { engine: engine.with_floor(floor), store: None, cfg: self.cfg, script: script.clone() }
    }

    /// [`begin`](Self::begin), writing a service store in `store.dir`.
    pub fn begin_stored(&self, plan: &ThreeStageSolution, script: &FaultScript, store: StoreConfig) -> Result<SupervisedRun, PersistError> {
        let mut run = self.begin(plan, script);
        run.store = Some(ServiceStore::create(store, &run.engine)?);
        Ok(run)
    }

    /// Bring a stored run back from `store.dir` under this config and
    /// the `script` it started with, and keep writing the store.
    pub fn resume(&self, store: StoreConfig, script: &FaultScript) -> Result<(SupervisedRun, TrailRecovery), PersistError> {
        let (engine, info) = resume_service(&store.dir)?;
        let mut run = self.attach(engine, script).map_err(|reason| PersistError::State { reason })?;
        run.store = Some(ServiceStore::reopen(store)?);
        Ok((run, info))
    }

    /// Continue from an engine on a floor at some epoch boundary.
    pub fn attach(&self, engine: ServiceEngine, script: &FaultScript) -> Result<SupervisedRun, String> {
        if engine.state().floor.is_none() {
            return Err("the engine stands on no floor: not a supervised run".to_string());
        }
        Ok(SupervisedRun { engine, store: None, cfg: self.cfg, script: script.clone() })
    }
}

/// A supervised run in flight.
pub struct SupervisedRun {
    engine: ServiceEngine,
    store: Option<ServiceStore>,
    cfg: SupervisorConfig,
    script: FaultScript,
}

impl SupervisedRun {
    /// Epochs in the horizon (at least one).
    pub fn n_epochs(&self) -> usize {
        (self.cfg.horizon_s / self.engine.config().epoch_s).ceil().max(1.0) as usize
    }

    /// Epochs executed so far.
    pub fn epoch(&self) -> usize {
        self.engine.state().epoch
    }

    /// The engine the run steps.
    pub fn engine(&self) -> &ServiceEngine {
        &self.engine
    }

    /// Execute the next epoch — journaled first when there is a store.
    /// `Ok(false)`, doing nothing, once the horizon is done.
    pub fn step(&mut self) -> Result<bool, PersistError> {
        let epoch = self.epoch();
        if epoch >= self.n_epochs() {
            return Ok(false);
        }
        let _span = thermaware_obs::span("supervisor.epoch");
        thermaware_obs::counter_add("runtime.epochs", 1);
        let epoch_s = self.engine.config().epoch_s;
        let t0 = epoch as f64 * epoch_s;
        // A fault lands at the first boundary at or after its time: the
        // test is the exact complement of the previous epoch's.
        let faults: Vec<Fault> = self
            .script
            .events()
            .iter()
            .filter(|e| e.at_s <= t0 && (epoch == 0 || e.at_s > (epoch - 1) as f64 * epoch_s))
            .map(|e| e.fault)
            .collect();
        let verdict = self.verdict();
        let batches = self.batches(epoch, t0, t0 + epoch_s);
        if let Some(store) = &mut self.store {
            store.append_begin_with(epoch, &batches, &faults, &verdict)?;
        }
        self.engine.step_with(&batches, &faults, &verdict);
        let done = self.epoch() >= self.n_epochs();
        if let Some(store) = &mut self.store {
            store.append_commit(epoch, json_crc_only(self.engine.state()))?;
            if done || store.snapshot_due(self.engine.state().epoch) {
                store.snapshot(&self.engine)?;
            }
        }
        Ok(true)
    }

    /// The epoch's seeded arrivals as batches: task types in arrival
    /// order, runs of one type merged, cut at the engine's batch size.
    /// The rate multiplier is the last scripted surge by `t0` (1 with
    /// none) times the demand curve.
    fn batches(&self, epoch: usize, t0: f64, t1: f64) -> Vec<Batch> {
        let surges = self.script.events().iter().take_while(|e| e.at_s <= t0);
        let factor = surges
            .filter_map(|e| match e.fault {
                Fault::ArrivalSurge { factor } => Some(if factor.is_finite() { factor.max(0.0) } else { 1.0 }),
                _ => None,
            })
            .last()
            .unwrap_or(1.0);
        let surge = self.cfg.demand.map_or(factor, |curve| factor * curve.rate_at(t0).max(0.0));
        let arrivals = epoch_arrivals(self.cfg.seed, epoch, self.engine.dc(), surge, t0, t1);
        let mut batches: Vec<Batch> = Vec::new();
        for chunk in arrivals.chunks(self.engine.config().max_batch_tasks.max(1)) {
            let mut tasks: Vec<(usize, usize)> = Vec::new();
            for a in chunk {
                match tasks.last_mut() {
                    Some((task_type, n)) if *task_type == a.task_type => *n += 1,
                    _ => tasks.push((a.task_type, 1)),
                }
            }
            batches.push(Batch { id: ((epoch as u64) << 20) + batches.len() as u64 + 1, tasks });
        }
        batches
    }

    /// The epoch's verdict: a cold solve when the run is supervised and
    /// the engine wants one.
    fn verdict(&self) -> ReplanVerdict {
        if !self.cfg.supervise || !self.engine.wants_replan() {
            return ReplanVerdict::NotAttempted;
        }
        let (dc, pstates) = self.engine.solve_request();
        let stale = self.engine.state().floor.as_ref().is_some_and(Floor::wants_replan);
        let solved = if self.cfg.demand.is_some() && !stale && self.engine.demand_drifted() {
            Solver::new(&dc).psi(PSI_PERCENT).solve().map(|sol| ReplanVerdict::FullPlan {
                outlets: sol.stage1.crac_out_c,
                pstates: sol.pstates,
                stage3: sol.stage3,
            })
        } else {
            Solver::new(&dc).stage3_replan(&pstates, None).map(|(stage3, _)| ReplanVerdict::Ok { stage3 })
        };
        solved.unwrap_or_else(|e| ReplanVerdict::Failed { error: e.to_string() })
    }

    /// The final reckoning on the true steady state; consumes the run.
    pub fn conclude(self) -> SupervisorReport {
        let (dc, state) = self.engine.into_parts();
        // Every run stands on a floor (`begin` builds one, `attach`
        // refuses an engine without); with none there is no room to judge.
        let (final_violation_c, final_power_kw, within, nodes_dead, meltdown, acted) = match &state.floor {
            Some(floor) => {
                let (violation_c, power_kw, within) = floor.reckon(&dc, &state.pstates);
                let dead = floor.dead.iter().filter(|&&d| d).count();
                (violation_c, power_kw, within, dead, floor.meltdown, floor.acted)
            }
            None => (f64::INFINITY, f64::INFINITY, false, 0, true, false),
        };
        let outcome = if meltdown || !final_violation_c.is_finite() {
            Outcome::Unrecoverable
        } else if !within {
            Outcome::Degraded
        } else if !state.shed.is_empty() {
            Outcome::Shed
        } else if acted || nodes_dead > 0 {
            Outcome::Recovered
        } else {
            Outcome::Nominal
        };
        SupervisorReport {
            outcome,
            sim: state.sim.finish(&dc, self.cfg.horizon_s),
            log: state.log,
            final_violation_c,
            final_power_kw,
            nodes_dead,
            shed_task_types: state.shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    fn setup() -> (DataCenter, ThreeStageSolution) {
        let dc = ScenarioParams { n_nodes: 8, n_crac: 2, ..ScenarioParams::small_test() }.build(1).expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        (dc, plan)
    }

    fn cfg(horizon_s: f64) -> SupervisorConfig {
        SupervisorConfig { horizon_s, ..SupervisorConfig::default() }
    }

    #[test]
    fn nominal_run_is_nominal() {
        let (dc, plan) = setup();
        let r = Supervisor::new(&dc, cfg(10.0)).run(&plan, &FaultScript::new());
        assert_eq!(r.outcome, Outcome::Nominal);
        assert!(r.final_violation_c <= 0.0, "{}", r.final_violation_c);
        assert!(r.sim.reward_rate > 0.0);
        assert_eq!(r.log.trips(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (dc, plan) = setup();
        let script = FaultScript::new().node_death(3.0, 2).arrival_surge(5.0, 1.5);
        let sup = Supervisor::new(&dc, cfg(10.0));
        let a = sup.run(&plan, &script);
        let b = sup.run(&plan, &script);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.sim.reward_collected.to_bits(), b.sim.reward_collected.to_bits());
        assert_eq!(a.log, b.log);
    }

    #[test]
    fn node_death_recovers_with_a_replan() {
        let (dc, plan) = setup();
        let script = FaultScript::new().node_death(3.0, 0);
        let r = Supervisor::new(&dc, cfg(12.0)).run(&plan, &script);
        assert_eq!(r.nodes_dead, 1);
        assert!(r.log.replans() >= 1, "no replan after node death");
        assert_eq!(r.outcome, Outcome::Recovered);
        assert!(r.sim.reward_rate > 0.0);
    }

    #[test]
    fn all_cracs_down_is_unrecoverable_not_a_panic() {
        let (dc, plan) = setup();
        let script = FaultScript::new().crac_failure(2.0, 0).crac_failure(2.0, 1);
        let r = Supervisor::new(&dc, cfg(8.0)).run(&plan, &script);
        assert_eq!(r.outcome, Outcome::Unrecoverable);
        assert_eq!(r.nodes_dead, dc.n_nodes());
    }

    #[test]
    fn unsupervised_ignores_violations() {
        let (dc, plan) = setup();
        let script = FaultScript::new().node_death(3.0, 0);
        let r = Supervisor::new(&dc, SupervisorConfig { supervise: false, ..cfg(10.0) }).run(&plan, &script);
        assert_eq!(r.log.replans(), 0);
        // Still a typed outcome, and not Nominal: a node is down.
        assert_ne!(r.outcome, Outcome::Nominal);
    }

    #[test]
    fn arrival_stream_is_seed_deterministic_and_surge_scales_it() {
        let (dc, _) = setup();
        let a = epoch_arrivals(7, 0, &dc, 1.0, 0.0, 5.0);
        let b = epoch_arrivals(7, 0, &dc, 1.0, 0.0, 5.0);
        assert_eq!(a.len(), b.len());
        let c = epoch_arrivals(7, 0, &dc, 3.0, 0.0, 5.0);
        assert!(c.len() > a.len(), "surge did not increase arrivals");
        for w in a.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    /// The run's batches carry every arrival, in arrival order.
    #[test]
    fn batches_hold_the_epochs_arrivals_in_order() {
        let (dc, plan) = setup();
        let run = Supervisor::new(&dc, SupervisorConfig { seed: 5, ..cfg(4.0) }).begin(&plan, &FaultScript::new());
        let arrivals = epoch_arrivals(5, 2, &dc, 1.0, 2.0, 3.0);
        assert!(arrivals.len() > 1);
        let types: Vec<usize> = run
            .batches(2, 2.0, 3.0)
            .iter()
            .flat_map(|b| b.tasks.iter().flat_map(|&(t, n)| std::iter::repeat_n(t, n)))
            .collect();
        assert_eq!(types, arrivals.iter().map(|a| a.task_type).collect::<Vec<_>>());
    }
}
