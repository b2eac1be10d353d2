//! The deterministic service core: admission, dispatch, demand
//! tracking, and the breaker ladder, advanced one epoch at a time.
//!
//! [`ServiceEngine::step`] is a **pure function** of the current
//! [`ServiceState`], the admitted batches, and the [`ReplanVerdict`].
//! Everything wall-clock-dependent — whether a solve finished, timed
//! out, or failed — is reified into the verdict *by the caller* and
//! journaled before the step runs, so crash-recovery replay
//! re-executes the exact same computation without ever re-solving.
//! This is why a resume is bit-identical regardless of how long the
//! original solves took.
//!
//! An engine may stand on a physical [`Floor`] (outlets, failed CRACs,
//! dead nodes, sensor bias): then [`ServiceEngine::step_with`] also
//! takes the epoch's faults, journaled beside the batches, and the
//! floor's rungs and trips run inside the step. The step still never
//! solves: a rung or a node death marks the plan stale,
//! [`ServiceEngine::wants_replan`] asks for the solve, and its answer
//! comes back as a verdict like any other. An engine without a floor
//! leaves the floor out of its state, header and records altogether.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::proto::Batch;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};
use thermaware_core::stage3::Stage3Solution;
use thermaware_datacenter::DataCenter;
use thermaware_runtime::degrade::shed_lowest_reward;
use thermaware_runtime::{Action, EventKind, EventLog, Fault, Floor, Violation};
use thermaware_scheduler::{DispatchDecision, EpochSim};

/// Service tuning. Everything here is deterministic policy; wall-clock
/// knobs (epoch interval, solve timeout) live in
/// [`crate::daemon::DaemonConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Simulated seconds per epoch.
    pub epoch_s: f64,
    /// Largest admissible batch, tasks.
    pub max_batch_tasks: usize,
    /// Recently admitted batch ids remembered for exactly-once dedup.
    /// A resubmit inside the window acks as a duplicate; the window is
    /// bounded so a year of traffic cannot grow it.
    pub dedup_window: usize,
    /// EWMA smoothing for the offered per-type arrival rate.
    pub ewma_alpha: f64,
    /// Relative EWMA drift from the planned rates that marks the plan
    /// stale and requests a replan.
    pub drift_threshold: f64,
    /// Minimum epochs between replan requests.
    pub min_replan_gap_epochs: usize,
    /// Event-log ring capacity.
    pub log_capacity: usize,
    /// Breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            epoch_s: 1.0,
            max_batch_tasks: 4096,
            dedup_window: 65_536,
            ewma_alpha: 0.3,
            drift_threshold: 0.25,
            min_replan_gap_epochs: 4,
            log_capacity: thermaware_runtime::event::DEFAULT_LOG_CAPACITY,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Lifetime counters (monotone; settled into from every epoch). Each
/// saturates at `u64::MAX`: a state read from disk may hold any count,
/// and the writer prints `u64::MAX` as a number that reads back as it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceTotals {
    /// Batches admitted (non-duplicate).
    pub admitted_batches: u64,
    /// Batches re-acked as duplicates.
    pub duplicate_batches: u64,
    /// Tasks dispatched onto a core.
    pub admitted_tasks: u64,
    /// Tasks refused by the admission check.
    pub dropped_tasks: u64,
    /// Tasks refused because their type is shed.
    pub shed_tasks: u64,
    /// Reward forgone by shedding (count × per-task reward).
    pub shed_reward: f64,
    /// Successful replans applied.
    pub replans: u64,
    /// Failed or timed-out replan attempts.
    pub replan_failures: u64,
}

/// What the live shell learned about a replan attempt, journaled in
/// the epoch's begin record. `Ok` carries the full new plan so replay
/// never re-solves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ReplanVerdict {
    /// No solve finished this epoch.
    NotAttempted,
    /// A solve finished with this Stage-3 plan.
    Ok {
        /// The new rate plan (P-states unchanged — Section V.B rule).
        stage3: Stage3Solution,
    },
    /// The solve exceeded the wall-clock budget and was abandoned.
    TimedOut,
    /// The solve returned an error.
    Failed {
        /// Rendered solver error.
        error: String,
    },
    /// A full three-stage solve at the drifted demand finished: new
    /// P-states, CRAC outlets and rates. Only an engine on a [`Floor`]
    /// takes one (the supervisor's drift re-solve; the daemon never
    /// sends one).
    FullPlan {
        /// Per-core P-states of the new plan.
        pstates: Vec<usize>,
        /// CRAC outlet set-points of the new plan, °C.
        outlets: Vec<f64>,
        /// Its Stage-3 rates.
        stage3: Stage3Solution,
    },
}

/// The full serializable engine state — the unit the store snapshots
/// and CRC-checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceState {
    /// Epochs executed.
    pub epoch: usize,
    /// Simulation clock, seconds (`epoch × epoch_s`).
    pub now_s: f64,
    /// Active per-core P-states (fixed between full solves).
    pub pstates: Vec<usize>,
    /// Active Stage-3 plan.
    pub stage3: Stage3Solution,
    /// Dispatch/simulation state.
    pub sim: EpochSim,
    /// LP circuit breaker.
    pub breaker: CircuitBreaker,
    /// Shed task types, most recent last (the unshed order).
    pub shed: Vec<usize>,
    /// EWMA of the offered arrival rate per type, tasks/s.
    pub ewma: Vec<f64>,
    /// Rates the active plan was built for (drift baseline).
    pub planned_rates: Vec<f64>,
    /// Recently admitted batch ids, oldest first (dedup window): a ring,
    /// so a full window evicts its oldest id without moving the rest.
    #[serde(with = "serde::Hex")]
    pub recent_ids: VecDeque<u64>,
    /// Epoch whose step last consumed a replan verdict (the baseline of
    /// the `min_replan_gap_epochs` rate limit).
    pub last_replan_epoch: usize,
    /// Lifetime counters.
    pub totals: ServiceTotals,
    /// Typed event history (ring-bounded).
    pub log: EventLog,
    /// The physical floor, when the engine stands on one (absent from
    /// the JSON when it does not).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub floor: Option<Floor>,
}

impl ServiceState {
    /// Does this state fit `dc`? The check for a state read from disk,
    /// made where it enters ([`ServiceEngine::from_state`]; the store's
    /// resume skips a snapshot generation that fails it): a plan for this
    /// room, one demand rate per task type, shed types that exist, and
    /// the simulation's own [`EpochSim::fits`], a replan epoch no later
    /// than the state's own, and a [`Floor::fits`] floor.
    pub(crate) fn fits(&self, dc: &DataCenter) -> Result<(), String> {
        let t = dc.n_task_types();
        plan_fits(dc, &self.pstates, &self.stage3)?;
        if self.last_replan_epoch > self.epoch {
            return Err(format!("last replan at epoch {} past the state's epoch {}", self.last_replan_epoch, self.epoch));
        }
        if let Some(floor) = &self.floor {
            floor.fits(dc)?;
        }
        if self.ewma.len() != t || self.planned_rates.len() != t {
            return Err(format!("demand rates are not {t} task types long"));
        }
        if self.shed.iter().any(|&i| i >= t) {
            return Err("shed task type out of range".to_string());
        }
        self.sim.fits(dc)
    }
}

/// Do a P-state assignment and a Stage-3 plan read from disk fit `dc`?
/// [`DataCenter::pstates_fit`] and [`Stage3Solution::fits`] — what
/// building the scheduler's plan tables indexes with.
pub(crate) fn plan_fits(
    dc: &DataCenter,
    pstates: &[usize],
    stage3: &Stage3Solution,
) -> Result<(), String> {
    dc.pstates_fit(pstates)?;
    stage3.fits(dc)
}

/// Per-batch outcome of one epoch step, in batch order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// The batch id.
    pub id: u64,
    /// It was a duplicate: nothing dispatched.
    pub duplicate: bool,
    /// Tasks dispatched onto cores.
    pub admitted: usize,
    /// Tasks refused by the admission check.
    pub dropped: usize,
    /// Tasks refused because their type is shed.
    pub shed: usize,
}

/// What one epoch did (derived, not journaled — replay recomputes it).
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Per-batch outcomes.
    pub batches: Vec<BatchOutcome>,
    /// The breaker opened this epoch.
    pub breaker_opened: bool,
    /// The breaker closed this epoch.
    pub breaker_closed: bool,
    /// A new plan was applied this epoch.
    pub replanned: bool,
}

/// The deterministic core. Owns the data center and the state; the
/// daemon owns the wall clock, the sockets, and the solver thread.
pub struct ServiceEngine {
    dc: DataCenter,
    cfg: ServiceConfig,
    state: ServiceState,
    /// Dedup membership mirror of `state.recent_ids` (rebuilt on load;
    /// never serialized).
    recent_set: BTreeSet<u64>,
}

impl ServiceEngine {
    /// A fresh engine from a solved plan's P-states and Stage-3 rates.
    pub fn new(
        dc: DataCenter,
        cfg: ServiceConfig,
        pstates: &[usize],
        stage3: &Stage3Solution,
    ) -> ServiceEngine {
        let sim = EpochSim::new(&dc, pstates, stage3);
        let planned_rates: Vec<f64> =
            dc.workload.task_types.iter().map(|t| t.arrival_rate).collect();
        let state = ServiceState {
            epoch: 0,
            now_s: 0.0,
            pstates: pstates.to_vec(),
            stage3: stage3.clone(),
            sim,
            breaker: CircuitBreaker::new(&cfg.breaker),
            shed: Vec::new(),
            ewma: planned_rates.clone(),
            planned_rates,
            recent_ids: VecDeque::new(),
            last_replan_epoch: 0,
            totals: ServiceTotals::default(),
            log: EventLog::with_capacity(cfg.log_capacity),
            floor: None,
        };
        ServiceEngine { dc, cfg, state, recent_set: BTreeSet::new() }
    }

    /// Stand the engine on `floor` (built for its data center).
    pub fn with_floor(mut self, floor: Floor) -> ServiceEngine {
        self.state.floor = Some(floor);
        self
    }

    /// Reattach an engine to a (restored) data center and state — once
    /// the state fits the data center: it comes from disk, and `step`
    /// indexes every table in it unchecked.
    pub fn from_state(
        dc: DataCenter,
        cfg: ServiceConfig,
        state: ServiceState,
    ) -> Result<ServiceEngine, String> {
        state.fits(&dc)?;
        let recent_set = state.recent_ids.iter().copied().collect();
        Ok(ServiceEngine { dc, cfg, state, recent_set })
    }

    /// The current state (serialize it for snapshots/CRCs).
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The data center the engine runs against.
    pub fn dc(&self) -> &DataCenter {
        &self.dc
    }

    /// Would this batch id ack as a duplicate right now?
    pub fn would_duplicate(&self, id: u64) -> bool {
        self.recent_set.contains(&id)
    }

    /// Mean core backlog at the current sim time, seconds — the
    /// daemon's retry-after basis.
    pub fn backlog_s(&self) -> f64 {
        self.state.sim.scheduler().backlog_s(self.state.now_s)
    }

    /// Is the active plan stale enough (or a probe pending) that the
    /// daemon should spawn a solve? Deterministic: state-only. A floor
    /// whose ladder is backing off holds every replan back; one whose
    /// rungs or deaths staled the rates wants one now, past the gap.
    pub fn wants_replan(&self) -> bool {
        if !self.state.breaker.allows_solve() {
            return false;
        }
        if let Some(floor) = &self.state.floor {
            if floor.supervise && !floor.healthy {
                return false;
            }
            if floor.wants_replan() {
                return true;
            }
        }
        // A half-open breaker always wants its probe — the cooldown
        // already rate-limited it, the replan gap must not.
        if self.state.breaker.state == BreakerState::HalfOpen {
            return true;
        }
        let gap = self.cfg.min_replan_gap_epochs.max(1);
        if self.state.epoch < self.state.last_replan_epoch.saturating_add(gap) {
            return false;
        }
        self.demand_drifted()
    }

    /// Demand drift: has any type's offered EWMA strayed beyond
    /// `drift_threshold` from the rate the plan was built for?
    pub fn demand_drifted(&self) -> bool {
        self.state
            .ewma
            .iter()
            .zip(self.state.planned_rates.iter())
            .any(|(&now, &planned)| {
                let scale = planned.abs().max(1e-9);
                (now - planned).abs() / scale > self.cfg.drift_threshold
            })
    }

    /// The inputs a solver thread needs: a data-center clone whose
    /// workload demand is the current EWMA (shed types zeroed) plus the
    /// fixed P-states (a floor's dead nodes' cores off). Called by the
    /// daemon at spawn time; the result of the solve comes back as a
    /// journaled [`ReplanVerdict`].
    pub fn solve_request(&self) -> (DataCenter, Vec<usize>) {
        let mut dc = self.dc.clone();
        for (i, t) in dc.workload.task_types.iter_mut().enumerate() {
            t.arrival_rate = if self.state.shed.contains(&i) {
                0.0
            } else {
                self.state.ewma[i]
            };
        }
        (dc, self.state.pstates.clone())
    }

    /// Can [`step_with`](Self::step_with) take these inputs? It indexes
    /// by task type, loops once per task, applies faults to the floor and
    /// replays a verdict's plan into the scheduler unchecked: the daemon
    /// admits only batches that pass `Batch::types_within` and
    /// `Batch::tasks_within` and faults the floor [`Floor::accepts`], and
    /// journals only plans it solved, so this is the check for inputs
    /// read back from a journal.
    pub(crate) fn inputs_fit(&self, batches: &[Batch], faults: &[Fault], verdict: &ReplanVerdict) -> Result<(), String> {
        if !batches.iter().all(|b| b.types_within(self.dc.n_task_types())) {
            return Err("a batch names an unknown task type".to_string());
        }
        let max = self.cfg.max_batch_tasks;
        if !batches.iter().all(|b| b.tasks_within(max)) {
            return Err(format!("a batch holds more than the {max} tasks one may"));
        }
        if !faults.is_empty() {
            let floor = self.state.floor.as_ref().ok_or("faults for an engine with no floor")?;
            faults.iter().try_for_each(|f| floor.accepts(f))?;
        }
        match verdict {
            ReplanVerdict::Ok { stage3 } => stage3.fits(&self.dc),
            ReplanVerdict::FullPlan { pstates, outlets, stage3 } => {
                if self.state.floor.is_none() {
                    return Err("a full plan for an engine with no floor".to_string());
                }
                if outlets.len() != self.dc.n_crac() || !outlets.iter().all(|x| x.is_finite()) {
                    return Err("a full plan's outlets do not fit the room".to_string());
                }
                plan_fits(&self.dc, pstates, stage3)
            }
            _ => Ok(()),
        }
    }

    /// Execute one epoch with no fault: [`step_with`](Self::step_with).
    pub fn step(&mut self, batches: &[Batch], verdict: &ReplanVerdict) -> EpochReport {
        self.step_with(batches, &[], verdict)
    }

    /// Execute one epoch: apply `faults` to the floor at the epoch's
    /// start and run its rungs and trips (an engine with no floor has
    /// none to fault), dispatch `batches` (in order), update demand
    /// EWMAs, apply the journaled `verdict` to the breaker and the plan,
    /// settle finished tasks, and advance the clock.
    pub fn step_with(&mut self, batches: &[Batch], faults: &[Fault], verdict: &ReplanVerdict) -> EpochReport {
        let _span = thermaware_obs::span("service.step");
        let ServiceEngine { dc, cfg, state, recent_set } = self;
        let t0 = state.now_s;
        let epoch_s = cfg.epoch_s.max(1e-9);
        let mut report = EpochReport::default();

        // ---- The floor ----------------------------------------------------
        if let Some(floor) = &mut state.floor {
            if floor.epoch(dc, &mut state.pstates, &mut state.sim, faults, t0, &mut state.log) {
                // Throttled cores run slower from now on: the scheduler
                // takes the new speeds under the rates it has.
                state.sim.replan(dc, &state.pstates, &state.stage3, t0);
            }
        }

        // ---- Admission ----------------------------------------------------
        let mut counts = vec![0usize; dc.n_task_types()];
        let total_tasks: usize = batches
            .iter()
            .filter(|b| !recent_set.contains(&b.id))
            .map(|b| b.total_tasks())
            .sum();
        let mut k = 0usize; // running task index for the arrival spread
        for batch in batches {
            if recent_set.contains(&batch.id) {
                state.totals.duplicate_batches = state.totals.duplicate_batches.saturating_add(1);
                report.batches.push(BatchOutcome {
                    id: batch.id,
                    duplicate: true,
                    admitted: 0,
                    dropped: 0,
                    shed: 0,
                });
                continue;
            }
            remember(recent_set, &mut state.recent_ids, cfg.dedup_window, batch.id);
            state.totals.admitted_batches = state.totals.admitted_batches.saturating_add(1);
            let mut outcome = BatchOutcome {
                id: batch.id,
                duplicate: false,
                admitted: 0,
                dropped: 0,
                shed: 0,
            };
            for &(task_type, n) in &batch.tasks {
                for _ in 0..n {
                    // Spread the epoch's arrivals uniformly over the
                    // epoch: deterministic, order-preserving, and it
                    // keeps the admission check honest (an instant
                    // burst at t0 would overstate backlogs).
                    let at = t0 + epoch_s * (k as f64 / total_tasks.max(1) as f64);
                    k += 1;
                    counts[task_type] += 1;
                    if state.shed.contains(&task_type) {
                        outcome.shed += 1;
                        state.totals.shed_tasks = state.totals.shed_tasks.saturating_add(1);
                        state.totals.shed_reward += dc.workload.task_types[task_type].reward;
                        continue;
                    }
                    let deadline = at + dc.workload.task_types[task_type].deadline_slack;
                    match state.sim.dispatch(task_type, at, deadline) {
                        DispatchDecision::Assigned { .. } => {
                            outcome.admitted += 1;
                            state.totals.admitted_tasks = state.totals.admitted_tasks.saturating_add(1);
                        }
                        DispatchDecision::Dropped => {
                            outcome.dropped += 1;
                            state.totals.dropped_tasks = state.totals.dropped_tasks.saturating_add(1);
                        }
                    }
                }
            }
            report.batches.push(outcome);
        }

        // ---- Demand EWMA --------------------------------------------------
        let alpha = cfg.ewma_alpha.clamp(0.0, 1.0);
        for (i, &n) in counts.iter().enumerate() {
            let offered = n as f64 / epoch_s;
            state.ewma[i] = alpha * offered + (1.0 - alpha) * state.ewma[i];
        }

        // ---- Verdict → breaker → plan/ladder ------------------------------
        let t1 = t0 + epoch_s;
        // The rate limit counts from the answer, and is set here — inside
        // the journaled step — so replay sees it; while a solve is out
        // the daemon's in-flight slot is what holds back a second one.
        if *verdict != ReplanVerdict::NotAttempted {
            state.last_replan_epoch = state.epoch;
        }
        match verdict {
            ReplanVerdict::NotAttempted => {}
            ReplanVerdict::Ok { stage3: new } | ReplanVerdict::FullPlan { stage3: new, .. } => {
                if let (ReplanVerdict::FullPlan { pstates, outlets, .. }, Some(floor)) = (verdict, &mut state.floor) {
                    let base: f64 = dc.workload.task_types.iter().map(|t| t.arrival_rate).sum();
                    let level = |rates: &[f64]| rates.iter().sum::<f64>() / base.max(1e-9);
                    state.log.record(
                        t1,
                        EventKind::ViolationDetected(Violation::DemandDrift {
                            multiplier: level(&state.ewma),
                            planned: level(&state.planned_rates),
                        }),
                    );
                    floor.replanned(t1, &mut state.log);
                    state.pstates.clone_from(pstates);
                    floor.adopt(dc, outlets, &mut state.pstates, t1, &mut state.log);
                    state.log.record(t1, EventKind::ActionTaken(Action::Stage1Replan));
                } else {
                    state.log.record(t1, EventKind::ActionTaken(Action::Replan));
                    if let Some(floor) = &mut state.floor {
                        floor.replanned(t1, &mut state.log);
                    }
                }
                state.sim.replan(dc, &state.pstates, new, t1);
                state.stage3 = new.clone();
                state.planned_rates = state.ewma.clone();
                state.totals.replans = state.totals.replans.saturating_add(1);
                report.replanned = true;
                if state.breaker.on_success(&cfg.breaker) {
                    report.breaker_closed = true;
                    unshed_all(&mut state.shed, &mut state.log, t1);
                    thermaware_obs::counter_add("service.breaker_close", 1);
                }
            }
            ReplanVerdict::TimedOut | ReplanVerdict::Failed { .. } => {
                state.totals.replan_failures = state.totals.replan_failures.saturating_add(1);
                let error = match verdict {
                    ReplanVerdict::Failed { error } => error.clone(),
                    _ => "solve timed out".to_string(),
                };
                state.log.record(
                    t1,
                    EventKind::ReplanFailed {
                        attempt: state.breaker.consecutive_failures.saturating_add(1),
                        error,
                    },
                );
                thermaware_obs::counter_add("service.replan_failures", 1);
                if state.breaker.on_failure(&cfg.breaker) {
                    report.breaker_opened = true;
                    // The breaker's rung: shed the lowest-reward type not
                    // already shed.
                    let unshed: Vec<(usize, f64)> = (0..dc.n_task_types())
                        .filter(|t| !state.shed.contains(t))
                        .map(|t| (t, dc.workload.task_types[t].reward))
                        .collect();
                    shed_lowest_reward(unshed, &mut state.shed, &mut state.log, t1);
                    thermaware_obs::counter_add("service.breaker_open", 1);
                }
            }
        }
        if state.breaker.tick() {
            thermaware_obs::counter_add("service.breaker_half_open", 1);
        }

        // ---- Settle & advance ---------------------------------------------
        state.sim.settle(dc, t1);
        state.epoch += 1;
        state.now_s = t1;
        report
    }

    /// Per-type outcome stats accumulated by the simulation so far.
    pub fn per_type(&self) -> &[thermaware_scheduler::TypeStats] {
        self.state.sim.per_type()
    }

    /// Give up the engine for its data center and state.
    pub fn into_parts(self) -> (DataCenter, ServiceState) {
        (self.dc, self.state)
    }
}

/// Admit `id` into the bounded dedup window, evicting the oldest.
fn remember(recent_set: &mut BTreeSet<u64>, recent_ids: &mut VecDeque<u64>, window: usize, id: u64) {
    if recent_set.insert(id) {
        recent_ids.push_back(id);
        let excess = recent_ids.len().saturating_sub(window.max(1));
        for evicted in recent_ids.drain(..excess) {
            recent_set.remove(&evicted);
        }
    }
}

/// The breaker closed: restore every shed type.
fn unshed_all(shed: &mut Vec<usize>, log: &mut EventLog, at_s: f64) {
    if !shed.is_empty() {
        shed.clear();
        log.record(at_s, EventKind::Recovered { margin_c: 0.0 });
    }
}
