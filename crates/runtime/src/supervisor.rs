//! The fault-tolerant runtime supervisor.
//!
//! The supervisor advances the discrete-event simulation in fixed epochs.
//! At every epoch boundary it (1) injects scripted faults, (2) — when
//! supervision is enabled — assesses the *observed* floor (sensor bias
//! included) and responds to violations through a staged degradation
//! ladder, and (3) applies the environment's own physics: any node whose
//! **true** inlet exceeds the redline by more than the trip margin shuts
//! itself down, supervisor or not. Step 2 running before step 3 models
//! thermal inertia: the control loop is faster than the air, so a
//! supervisor that reacts at the same boundary a fault lands on can
//! prevent the trips an unsupervised floor suffers.
//!
//! The degradation ladder, in escalation order:
//!
//! 1. **Stage-3 replan** on the surviving cores with P-states fixed (the
//!    paper's Section V.B rate-only subproblem) — repairs stale plans
//!    (dead nodes, demand surges) without touching power or heat.
//! 2. **CRAC outlet set-point drop** — buys thermal margin at a cooling
//!    power cost; bounded by each unit's minimum outlet.
//! 3. **Emergency P-state throttle** of the hottest nodes — sheds heat
//!    and IT power; bounded by every core reaching its off state.
//! 4. **Load shedding** of the lowest-reward task types — the last
//!    resort when replanning itself keeps failing; bounded by the number
//!    of task types.
//!
//! Beside the ladder, a demand curve that drifts from the active plan's
//! level triggers a full three-stage re-solve (the Stage-1 drift
//! replan). The steps the rungs take are shared with the fleet fallback
//! and the service breaker ([`crate::degrade`]).
//!
//! Within one response the *physical* rungs run first (a rate-only
//! replan cannot clear a thermal or power breach, and dropping outlets
//! or throttling stales the plan anyway); the replan then runs exactly
//! once at the end, so the scheduler's admission clocks are not reset
//! mid-ladder.
//!
//! Replans retry up to a configured attempt budget; if the ladder cannot
//! restore health the supervisor *backs off* exponentially (in epochs)
//! before trying again, running degraded in between. Every detection,
//! action, failure, and recovery is recorded in the typed [`EventLog`].

use crate::degrade;
use crate::event::{Action, EventKind, EventLog, Violation};
use crate::fault::{Fault, FaultScript};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use thermaware_core::stage3::{solve_stage3_warm, Stage3Basis, Stage3Solution};
use thermaware_core::{verify_assignment, Solver, ThreeStageSolution, VerificationReport};
use thermaware_datacenter::DataCenter;
use thermaware_scheduler::{EpochSim, SimulationResult};
use thermaware_thermal::ThermalState;
use thermaware_workload::{Curve, TaskArrival};

/// Absolute bound on ladder iterations within one response — a backstop
/// far above what the per-rung bounds allow, guaranteeing termination.
const MAX_LADDER_ITERS: usize = 10_000;

/// Supervisor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Epoch length, seconds.
    pub epoch_s: f64,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Replan attempts per response before load shedding is considered.
    pub max_replan_attempts: u32,
    /// CRAC outlet drop per ladder application, °C.
    pub outlet_drop_c: f64,
    /// P-state deepening steps per throttle application.
    pub throttle_steps: usize,
    /// True inlet excess over the redline at which a node trips, °C.
    pub trip_margin_c: f64,
    /// Redline violation tolerance, °C.
    pub redline_tol_c: f64,
    /// Power budget tolerance, kW.
    pub power_tol_kw: f64,
    /// Enable detection/response. `false` gives the *unsupervised*
    /// baseline: same faults, same physics (trips included), stale plan.
    pub supervise: bool,
    /// Seed of the arrival stream (identical across supervised and
    /// unsupervised runs of the same config/seed).
    #[serde(with = "serde::Hex")]
    pub seed: u64,
    /// Scenario demand curve: each epoch the planned arrival-rate
    /// multiplier follows `demand.rate_at(t)` (times any scripted surge
    /// fault), and the supervisor triggers a full three-stage re-solve
    /// when the live multiplier drifts from the one the active plan was
    /// solved at by more than [`drift_threshold`]. `None` (the default)
    /// reproduces the static-demand supervisor bit for bit.
    ///
    /// [`drift_threshold`]: SupervisorConfig::drift_threshold
    #[serde(default)]
    pub demand: Option<Curve>,
    /// Relative demand drift that triggers a Stage-1 replan (only with
    /// [`demand`](SupervisorConfig::demand) set): replan when
    /// `|m − planned| > drift_threshold · planned`.
    #[serde(default = "default_drift_threshold")]
    pub drift_threshold: f64,
    /// ψ (percent) used by drift-triggered three-stage re-solves.
    #[serde(default = "default_psi_percent")]
    pub psi_percent: f64,
}

// The three scenario fields are absent from configs persisted before
// the scenario engine existed; they read as these defaults, which
// reproduce the static supervisor.
fn default_drift_threshold() -> f64 {
    0.25
}

fn default_psi_percent() -> f64 {
    50.0
}

impl SupervisorConfig {
    /// Epochs in the configured horizon (at least one).
    fn n_epochs(&self) -> usize {
        (self.horizon_s / self.epoch_s).ceil().max(1.0) as usize
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            epoch_s: 1.0,
            horizon_s: 30.0,
            max_replan_attempts: 3,
            outlet_drop_c: 2.0,
            throttle_steps: 8,
            trip_margin_c: 3.0,
            redline_tol_c: 1e-6,
            power_tol_kw: 1e-6,
            supervise: true,
            seed: 0,
            demand: None,
            drift_threshold: default_drift_threshold(),
            psi_percent: default_psi_percent(),
        }
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No violation was ever detected; the initial plan ran untouched.
    Nominal,
    /// Violations occurred and were fully recovered without shedding
    /// load: the final true steady state is inside every constraint.
    Recovered,
    /// Health was restored, but only by shedding task types.
    Shed,
    /// The run ended outside constraints (ladder exhausted or backing
    /// off), but the floor still has a steady state.
    Degraded,
    /// The floor was lost: no thermal steady state (all CRACs down) or
    /// everything off and still outside constraints.
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
    /// True redline violation of the final steady state, °C (≤ 0 when
    /// safe; `INFINITY` when no steady state exists).
    pub final_violation_c: f64,
    /// Total power (IT + cooling) of the final steady state, kW.
    pub final_power_kw: f64,
    /// Nodes dead at the end (scripted deaths + thermal trips).
    pub nodes_dead: usize,
    /// Task types shed by the supervisor.
    pub shed_task_types: Vec<usize>,
}

/// Per-epoch health assessment (observed, i.e. sensor bias applied to
/// node inlets).
#[derive(Debug, Clone, Copy)]
struct Health {
    /// Observed worst redline violation, °C.
    redline_c: f64,
    /// Total power minus budget, kW.
    power_over_kw: f64,
    /// Total power, kW.
    power_kw: f64,
}

impl Health {
    fn ok(&self, cfg: &SupervisorConfig) -> bool {
        self.redline_c <= cfg.redline_tol_c && self.power_over_kw <= cfg.power_tol_kw
    }
}

/// Mutable world + plan state threaded through the epoch loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct World {
    /// Current per-core P-states (live nodes; dead nodes are masked via
    /// `dead` wherever it matters).
    pstates: Vec<usize>,
    /// Current CRAC outlet set-points, °C.
    outlets: Vec<f64>,
    /// Current Stage-3 rates.
    stage3: Stage3Solution,
    /// Optimal basis of the last Stage-3 solve, used to warm-start the
    /// next replan. Part of the persisted world so a crash-resumed run
    /// replays the same warm starts and stays bit-identical to an
    /// uninterrupted one.
    stage3_basis: Option<Stage3Basis>,
    /// Failed CRAC units.
    failed: Vec<bool>,
    /// Dead nodes.
    dead: Vec<bool>,
    /// Observed-minus-true inlet sensor bias, °C.
    bias_c: f64,
    /// Arrival-rate multiplier the floor currently sees (demand-curve
    /// level × scripted surge faults).
    surge: f64,
    /// Multiplier the active plan was last solved at — the reference
    /// the drift detector compares `surge` against.
    planned_surge: f64,
    /// Scripted-surge component of `surge` (1.0 when unfaulted). Kept
    /// separate so the demand curve and surge faults compose.
    fault_surge: f64,
    /// Shed task types.
    shed: Vec<usize>,
    /// The plan no longer matches the floor (death/surge/throttle since
    /// the last successful replan).
    stale: bool,
    /// The room lost its steady state at some point.
    meltdown: bool,
}

impl World {
    /// The P-states Stage 3 and the scheduler actually see: dead nodes'
    /// cores forced to their off state.
    fn effective_pstates(&self, dc: &DataCenter) -> Vec<usize> {
        let mut ps = self.pstates.clone();
        for (node, &d) in self.dead.iter().enumerate() {
            if d {
                let off = dc.node_type(node).core.pstates.off_index();
                for k in dc.cores_of_node(node) {
                    ps[k] = off;
                }
            }
        }
        ps
    }

    /// The replanning model's demand, written into `work_dc`: `dc`'s
    /// arrival rates × `surge`, shed types zeroed, so Stage 3 plans for
    /// the demand the supervisor believes in. Derived state — rebuilt,
    /// never persisted (see [`LiveRun::from_state`]).
    fn rescale_demand(&self, dc: &DataCenter, work_dc: &mut DataCenter) {
        for (t, base) in work_dc.workload.task_types.iter_mut().zip(&dc.workload.task_types) {
            t.arrival_rate = base.arrival_rate * self.surge;
        }
        for &i in &self.shed {
            work_dc.workload.task_types[i].arrival_rate = 0.0;
        }
    }
}

/// The fault-tolerant runtime supervisor for one data center.
#[derive(Clone, Copy)]
pub struct Supervisor<'a> {
    dc: &'a DataCenter,
    cfg: SupervisorConfig,
}

impl<'a> Supervisor<'a> {
    /// A supervisor over `dc` with the given configuration.
    pub fn new(dc: &'a DataCenter, cfg: SupervisorConfig) -> Self {
        assert!(cfg.epoch_s > 0.0 && cfg.horizon_s > 0.0);
        Supervisor { dc, cfg }
    }

    /// Run the plan against a fault script over the configured horizon.
    /// Never panics: every ending is a typed [`Outcome`].
    pub fn run(&self, plan: &ThreeStageSolution, script: &FaultScript) -> SupervisorReport {
        let _span = thermaware_obs::span("supervisor.run");
        let mut live = self.begin(plan, script);
        while live.step() {}
        live.conclude()
    }

    /// Start a resumable run: the returned [`LiveRun`] executes one epoch
    /// per [`LiveRun::step`] call and lends its complete state at any
    /// epoch boundary as [`LiveRun::state`].
    pub fn begin(&self, plan: &ThreeStageSolution, script: &FaultScript) -> LiveRun<'a> {
        let dc = self.dc;
        let cfg = self.cfg;
        // The replanning model at surge 1, nothing shed (see
        // `World::rescale_demand`).
        let work_dc = dc.clone();
        let world = World {
            pstates: plan.pstates.clone(),
            outlets: plan.stage1.crac_out_c.clone(),
            stage3: plan.stage3.clone(),
            stage3_basis: plan.stage3_basis.clone(),
            failed: vec![false; dc.n_crac()],
            dead: vec![false; dc.n_nodes()],
            bias_c: 0.0,
            surge: 1.0,
            planned_surge: 1.0,
            fault_surge: 1.0,
            shed: Vec::new(),
            stale: false,
            meltdown: false,
        };
        let sim = EpochSim::new(dc, &world.pstates, &world.stage3);
        LiveRun {
            dc,
            script: script.clone(),
            work_dc,
            n_epochs: cfg.n_epochs(),
            state: SupervisorState {
                cfg,
                epoch: 0,
                next_event: 0,
                world,
                sim,
                log: EventLog::default(),
                acted: false,
                backoff_skip: 0,
                backoff_next: 1,
            },
        }
    }

    /// Apply one scripted fault to the world (and the simulation).
    fn inject(
        &self,
        world: &mut World,
        work_dc: &mut DataCenter,
        sim: &mut EpochSim,
        at_s: f64,
        fault: Fault,
        log: &mut EventLog,
    ) {
        log.record(at_s, EventKind::FaultInjected(fault));
        match fault {
            Fault::CracFailure { unit } => {
                if unit < world.failed.len() {
                    world.failed[unit] = true;
                }
            }
            Fault::CracRecovery { unit } => {
                if unit < world.failed.len() {
                    world.failed[unit] = false;
                }
            }
            Fault::NodeDeath { node } => self.kill_node(world, sim, node, at_s),
            Fault::SensorDrift { bias_c } => {
                if bias_c.is_finite() {
                    world.bias_c = bias_c;
                }
            }
            Fault::ArrivalSurge { factor } => {
                let factor = if factor.is_finite() { factor.max(0.0) } else { 1.0 };
                world.fault_surge = factor;
                // Without a demand curve the multiplier IS the fault
                // factor (the historical behavior, bit for bit); with one
                // the curve level composes in at the epoch boundary.
                let m = match &self.cfg.demand {
                    None => factor,
                    Some(curve) => factor * curve.rate_at(at_s).max(0.0),
                };
                world.surge = m;
                world.rescale_demand(self.dc, work_dc);
                world.stale = true;
            }
        }
    }

    /// Kill a node: mark it dead, mask its cores, lose its in-flight work.
    fn kill_node(&self, world: &mut World, sim: &mut EpochSim, node: usize, at_s: f64) {
        if node >= world.dead.len() || world.dead[node] {
            return;
        }
        world.dead[node] = true;
        world.stale = true;
        let cores: Vec<usize> = self.dc.cores_of_node(node).collect();
        sim.kill_cores(&cores, at_s);
    }

    /// Node powers under the current P-states, dead nodes drawing nothing.
    fn node_powers(&self, world: &World) -> Vec<f64> {
        let mut p = self.dc.node_powers_from_pstates(&world.pstates);
        for (j, &d) in world.dead.iter().enumerate() {
            if d {
                p[j] = 0.0;
            }
        }
        p
    }

    /// The room's true steady state at node powers `powers` under the
    /// world's outlets and failed units (`None`: every CRAC down).
    fn steady_state(&self, world: &World, powers: &[f64]) -> Option<ThermalState> {
        self.dc
            .thermal
            .steady_state_with_failed_cracs(&world.outlets, powers, &world.failed)
            .ok()
    }

    /// `state`'s worst redline violation, °C (≤ 0 when safe).
    fn violation(&self, state: &ThermalState) -> f64 {
        state.redline_violation(self.dc.thermal.node_redline_c, self.dc.thermal.crac_redline_c)
    }

    /// Observed health at the current world state.
    fn health(&self, world: &World) -> Health {
        let dc = self.dc;
        let powers = self.node_powers(world);
        let Some(state) = self.steady_state(world, &powers) else {
            return Health {
                redline_c: f64::INFINITY,
                power_over_kw: f64::INFINITY,
                power_kw: f64::INFINITY,
            };
        };
        let observed = (state.max_node_inlet() + world.bias_c - dc.thermal.node_redline_c)
            .max(state.max_crac_inlet() - dc.thermal.crac_redline_c);
        let power = powers.iter().sum::<f64>() + dc.thermal.total_crac_power_kw(&state);
        Health {
            redline_c: observed,
            power_over_kw: power - dc.budget.p_const_kw,
            power_kw: power,
        }
    }

    /// The staged degradation ladder. Returns whether observed health was
    /// restored. Mutates plan/world state and the live simulation.
    fn respond(
        &self,
        world: &mut World,
        work_dc: &mut DataCenter,
        sim: &mut EpochSim,
        now: f64,
        initial: Health,
        log: &mut EventLog,
    ) -> bool {
        let dc = self.dc;
        let cfg = &self.cfg;
        let mut h = initial;
        let mut attempts = 0u32;
        // Each violation kind is logged once per response (at its first,
        // worst reading) and contiguous throttle batches are merged into
        // one event, so the log stays readable when the ladder needs
        // hundreds of P-state steps.
        let mut seen_redline = false;
        let mut seen_power = false;
        let mut throttled = 0usize;
        let flush_throttle = |throttled: &mut usize, log: &mut EventLog| {
            if *throttled > 0 {
                log.record(now, EventKind::ActionTaken(Action::Throttle { steps: *throttled }));
                *throttled = 0;
            }
        };
        for _ in 0..MAX_LADDER_ITERS {
            // Physical violations come first: a Stage-3 replan changes
            // rates, not power or heat, so it cannot clear them — and
            // outlet drops / throttling mark the plan stale anyway. The
            // replan happens exactly once per response, at the end, so
            // the scheduler's admission clocks are not reset mid-ladder.
            if h.redline_c > cfg.redline_tol_c {
                if !seen_redline {
                    seen_redline = true;
                    log.record(
                        now,
                        EventKind::ViolationDetected(Violation::Redline {
                            observed_c: h.redline_c,
                        }),
                    );
                }
                // Rung 2: colder outlets, while there is room.
                if self.drop_outlets(world, now, log) {
                    h = self.health(world);
                    continue;
                }
                // Rung 3: shed heat.
                let steps = self.throttle(world, true);
                if steps > 0 {
                    throttled += steps;
                    h = self.health(world);
                    continue;
                }
                flush_throttle(&mut throttled, log);
                return false; // everything dark and still too hot
            }

            if h.power_over_kw > cfg.power_tol_kw {
                if !seen_power {
                    seen_power = true;
                    log.record(
                        now,
                        EventKind::ViolationDetected(Violation::PowerCap {
                            total_kw: h.power_kw,
                            budget_kw: dc.budget.p_const_kw,
                        }),
                    );
                }
                // Rung 3 is the only lever that cuts power.
                let steps = self.throttle(world, false);
                if steps > 0 {
                    throttled += steps;
                    h = self.health(world);
                    continue;
                }
                flush_throttle(&mut throttled, log);
                return false;
            }

            flush_throttle(&mut throttled, log);

            // Rung 1: the plan is stale — replan rates on what survives.
            if world.stale {
                log.record(now, EventKind::ViolationDetected(Violation::StalePlan));
                match solve_stage3_warm(
                    work_dc,
                    &world.effective_pstates(dc),
                    world.stage3_basis.as_ref(),
                ) {
                    Ok((s3, basis)) => {
                        world.stage3 = s3;
                        world.stage3_basis = basis;
                        world.stale = false;
                        attempts = 0;
                        sim.replan(dc, &world.effective_pstates(dc), &world.stage3, now);
                        log.record(now, EventKind::ActionTaken(Action::Replan));
                    }
                    Err(err) => {
                        attempts += 1;
                        let infeasible = err.is_infeasible();
                        log.record(
                            now,
                            EventKind::ReplanFailed {
                                attempt: attempts,
                                error: err.to_string(),
                            },
                        );
                        if attempts >= cfg.max_replan_attempts {
                            // Rung 4: shed the lowest-reward live type and
                            // retry on the smaller problem.
                            let live = work_dc
                                .workload
                                .task_types
                                .iter()
                                .filter(|t| t.arrival_rate > 0.0)
                                .map(|t| (t.index, t.reward));
                            let Some(i) =
                                degrade::shed_lowest_reward(live, &mut world.shed, log, now)
                            else {
                                return false;
                            };
                            work_dc.workload.task_types[i].arrival_rate = 0.0;
                            world.stale = true;
                            attempts = 0;
                        } else if !infeasible {
                            // Pathology, not infeasibility: hammering the
                            // solver will not help — back off to the next
                            // epoch.
                            return false;
                        }
                    }
                }
                h = self.health(world);
                continue;
            }

            log.record(now, EventKind::Recovered { margin_c: h.redline_c });
            return true;
        }
        false
    }

    /// Rung 2: drop every unit's set-point by `outlet_drop_c`, clamped to
    /// its minimum. Returns whether anything moved.
    fn drop_outlets(&self, world: &mut World, now: f64, log: &mut EventLog) -> bool {
        let mut moved = 0.0f64;
        for (c, out) in world.outlets.iter_mut().enumerate() {
            let floor = self.dc.cracs[c].min_outlet_c;
            let next = (*out - self.cfg.outlet_drop_c).max(floor);
            moved = moved.max(*out - next);
            *out = next;
        }
        if moved > 1e-9 {
            log.record(now, EventKind::ActionTaken(Action::OutletDrop { by_c: moved }));
            true
        } else {
            false
        }
    }

    /// Rung 3: emergency throttle, up to `throttle_steps` one-state
    /// deepenings per application. Each step is chosen greedily and
    /// *thermally aware*: every live node's shallowest core is a
    /// candidate, scored by how much the steady-state redline violation
    /// falls per MHz of speed given up (so the nodes whose heat
    /// recirculates into the hot spot are throttled first). Under a
    /// power-cap breach the score is instead the power cut per MHz —
    /// the least-efficient steps go first. Marks the plan stale (rates
    /// must be recomputed for the new service speeds). Returns the number
    /// of steps taken (the caller logs them, merged across batches).
    fn throttle(&self, world: &mut World, thermal: bool) -> usize {
        let mut steps = 0usize;
        for _ in 0..self.cfg.throttle_steps {
            let powers = self.node_powers(world);
            // Thermal mode scores by the redline violation shed per MHz
            // lost; a power-cap breach (or no steady state to probe) by
            // the power shed per MHz.
            let v0 = if thermal {
                self.steady_state(world, &powers).map(|s| self.violation(&s))
            } else {
                None
            };
            let score = |j: usize, dp_kw: f64, ds_mhz: f64| match v0 {
                Some(v0) => {
                    let mut pw = powers.clone();
                    pw[j] -= dp_kw;
                    self.steady_state(world, &pw)
                        .map_or(f64::NEG_INFINITY, |s| (v0 - self.violation(&s)) / ds_mhz)
                }
                None => degrade::power_per_mhz(j, dp_kw, ds_mhz),
            };
            let chosen =
                degrade::cheapest_throttle_step(self.dc, &world.pstates, Some(&world.dead), score);
            let Some(k) = chosen else { break };
            world.pstates[k] += 1;
            steps += 1;
        }
        if steps > 0 {
            world.stale = true;
        }
        steps
    }

    /// Physics: nodes whose true inlet exceeds redline + trip margin shut
    /// down, one at a time (hottest first), until the floor stabilizes.
    fn apply_trips(
        &self,
        world: &mut World,
        sim: &mut EpochSim,
        now: f64,
        log: &mut EventLog,
    ) {
        let dc = self.dc;
        let nc = dc.n_crac();
        let trip_at = dc.thermal.node_redline_c + self.cfg.trip_margin_c;
        loop {
            match self.steady_state(world, &self.node_powers(world)) {
                Some(state) => {
                    let hottest = (0..dc.n_nodes())
                        .filter(|&j| !world.dead[j] && state.t_in[nc + j] > trip_at)
                        .max_by(|&a, &b| state.t_in[nc + a].total_cmp(&state.t_in[nc + b]));
                    let Some(j) = hottest else { return };
                    log.record(
                        now,
                        EventKind::NodeTripped {
                            node: j,
                            inlet_c: state.t_in[nc + j],
                        },
                    );
                    self.kill_node(world, sim, j, now);
                }
                None => {
                    // No steady state (every CRAC down): the floor is lost.
                    if !world.meltdown {
                        log.record(now, EventKind::NoSteadyState);
                    }
                    world.meltdown = true;
                    let doomed: Vec<usize> =
                        (0..dc.n_nodes()).filter(|&j| !world.dead[j]).collect();
                    for j in doomed {
                        self.kill_node(world, sim, j, now);
                    }
                    return;
                }
            }
        }
    }
}

/// A supervised run in flight, advanced one epoch at a time.
///
/// `LiveRun` is [`Supervisor::run`] unrolled: [`Supervisor::begin`]
/// creates one, [`step`](LiveRun::step) executes the next epoch
/// (faults → supervision → trips → arrivals), and
/// [`conclude`](LiveRun::conclude) performs the final reckoning. The
/// arrival RNG is re-seeded deterministically *per epoch* from
/// `cfg.seed`, so a run restored at any epoch boundary draws exactly
/// the arrivals the uninterrupted run would have drawn — the property
/// the `persist` module's crash recovery is built on.
///
/// Everything an epoch changes lives in one [`SupervisorState`], which is
/// what the persist layer checksums and writes; the rest is borrowed
/// (`dc`), fixed for the run (`script`) or derived from the state
/// (`work_dc`, `n_epochs`).
pub struct LiveRun<'a> {
    dc: &'a DataCenter,
    script: FaultScript,
    work_dc: DataCenter,
    n_epochs: usize,
    state: SupervisorState,
}

impl<'a> LiveRun<'a> {
    /// Execute the next epoch. Returns `false` (doing nothing) once the
    /// horizon is complete.
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        let _span = thermaware_obs::span("supervisor.epoch");
        thermaware_obs::counter_add("runtime.epochs", 1);
        let st = &mut self.state;
        let cfg = st.cfg;
        let sup = Supervisor { dc: self.dc, cfg };
        let e = st.epoch;
        let t0 = e as f64 * cfg.epoch_s;
        let t1 = (t0 + cfg.epoch_s).min(cfg.horizon_s);

        // -- 1. Scripted faults due by this boundary ----------------------
        // A fault takes effect at the first epoch boundary at or after
        // its timestamp (the supervisor's world advances in epochs), so
        // the log stays time-ordered.
        while st.next_event < self.script.events().len()
            && self.script.events()[st.next_event].at_s <= t0
        {
            let ev = self.script.events()[st.next_event];
            st.next_event += 1;
            sup.inject(
                &mut st.world,
                &mut self.work_dc,
                &mut st.sim,
                t0,
                ev.fault,
                &mut st.log,
            );
        }

        // -- 1b. Scenario demand: the live multiplier follows the curve --
        // (times any scripted surge fault). Arrivals track it
        // unconditionally — demand is the environment, not a supervisor
        // decision — while replanning stays drift-gated below.
        if let Some(curve) = &cfg.demand {
            st.world.surge = st.world.fault_surge * curve.rate_at(t0).max(0.0);
            st.world.rescale_demand(self.dc, &mut self.work_dc);
        }

        // -- 2. Supervision (before the air catches up) -------------------
        if cfg.supervise {
            if st.backoff_skip > 0 {
                st.backoff_skip -= 1;
            } else {
                // Demand drift: the live multiplier moved far enough from
                // the one the active plan was solved at that rate-only
                // replans leave reward on the table (demand up: the
                // P-state floor undershoots) or waste power (demand
                // down). Re-run the full three-stage solve at the live
                // demand; the stale-plan rung then rebuilds Stage-3 rates
                // on the dead-masked cores and pushes them into the
                // scheduler.
                if cfg.demand.is_some() {
                    let drift = (st.world.surge - st.world.planned_surge).abs();
                    if drift > cfg.drift_threshold * st.world.planned_surge.max(1e-9) {
                        st.acted = true;
                        st.log.record(
                            t0,
                            EventKind::ViolationDetected(Violation::DemandDrift {
                                multiplier: st.world.surge,
                                planned: st.world.planned_surge,
                            }),
                        );
                        match Solver::new(&self.work_dc).psi(cfg.psi_percent).solve() {
                            Ok(sol) => {
                                st.world.pstates = sol.pstates;
                                st.world.outlets = sol.stage1.crac_out_c;
                                st.world.stage3_basis = sol.stage3_basis;
                                st.world.planned_surge = st.world.surge;
                                st.world.stale = true;
                                st.log
                                    .record(t0, EventKind::ActionTaken(Action::Stage1Replan));
                            }
                            Err(err) => {
                                st.log.record(
                                    t0,
                                    EventKind::ReplanFailed {
                                        attempt: 1,
                                        error: err.to_string(),
                                    },
                                );
                            }
                        }
                    }
                }
                let h = sup.health(&st.world);
                if !h.ok(&cfg) || st.world.stale {
                    st.acted = true;
                    let recovered = sup.respond(
                        &mut st.world,
                        &mut self.work_dc,
                        &mut st.sim,
                        t0,
                        h,
                        &mut st.log,
                    );
                    if recovered {
                        st.backoff_next = 1;
                    } else {
                        degrade::back_off(
                            &mut st.backoff_skip,
                            &mut st.backoff_next,
                            degrade::MAX_BACKOFF_EPOCHS,
                        );
                        st.log.record(
                            t0,
                            EventKind::Backoff {
                                epochs: st.backoff_skip,
                            },
                        );
                    }
                }
            }
        }

        // -- 3. Physics: thermal trips on the *true* state ----------------
        sup.apply_trips(&mut st.world, &mut st.sim, t0, &mut st.log);

        // -- 4. The epoch's arrivals --------------------------------------
        let mut rng = epoch_rng(cfg.seed, e);
        for a in epoch_arrivals(&mut rng, self.dc, st.world.surge, t0, t1) {
            st.sim.dispatch(a.task_type, a.time, a.deadline);
        }
        st.epoch += 1;
        true
    }

    /// Final reckoning on the true steady state; consumes the run.
    pub fn conclude(self) -> SupervisorReport {
        let dc = self.dc;
        let SupervisorState { cfg, world, sim, log, acted, .. } = self.state;
        let sup = Supervisor { dc, cfg };
        let powers = sup.node_powers(&world);
        let it_kw = powers.iter().sum::<f64>();
        let (final_violation_c, final_power_kw) = match sup.steady_state(&world, &powers) {
            Some(state) => {
                (sup.violation(&state), it_kw + dc.thermal.total_crac_power_kw(&state))
            }
            None => (f64::INFINITY, it_kw),
        };
        let nodes_dead = world.dead.iter().filter(|&&d| d).count();
        let healthy = final_violation_c <= cfg.redline_tol_c
            && final_power_kw <= dc.budget.p_const_kw + cfg.power_tol_kw;
        let outcome = if world.meltdown || !final_violation_c.is_finite() {
            Outcome::Unrecoverable
        } else if !healthy {
            Outcome::Degraded
        } else if !world.shed.is_empty() {
            Outcome::Shed
        } else if acted || nodes_dead > 0 {
            Outcome::Recovered
        } else {
            Outcome::Nominal
        };

        SupervisorReport {
            outcome,
            sim: sim.finish(dc, cfg.horizon_s),
            log,
            final_violation_c,
            final_power_kw,
            nodes_dead,
            shed_task_types: world.shed,
        }
    }

    /// Epochs fully executed so far.
    pub fn epoch(&self) -> usize {
        self.state.epoch
    }

    /// Total epochs over the configured horizon.
    pub fn n_epochs(&self) -> usize {
        self.n_epochs
    }

    /// Has the horizon been fully executed?
    pub fn is_done(&self) -> bool {
        self.state.epoch >= self.n_epochs
    }

    /// The typed event history so far.
    pub fn log(&self) -> &EventLog {
        &self.state.log
    }

    /// The scripted faults the *next* [`step`](LiveRun::step) will inject
    /// — what a write-ahead journal records before the epoch executes.
    pub fn due_faults(&self) -> Vec<crate::fault::FaultEvent> {
        let t0 = self.state.epoch as f64 * self.state.cfg.epoch_s;
        self.script.events()[self.state.next_event..]
            .iter()
            .take_while(|e| e.at_s <= t0)
            .copied()
            .collect()
    }

    /// The complete execution state — what a snapshot writes and a commit
    /// record checksums. Only meaningful at an epoch boundary, i.e.
    /// between [`step`](LiveRun::step) calls.
    pub fn state(&self) -> &SupervisorState {
        &self.state
    }

    /// Give up the run for its state (what [`from_state`](Self::from_state)
    /// takes back).
    pub fn into_state(self) -> SupervisorState {
        self.state
    }

    /// Restore a run from a [`SupervisorState`] snapshot, against the
    /// same data center and fault script it was taken from. The
    /// replanning model (`work_dc`) is *derived* state — base arrival
    /// rates scaled by the surge factor, shed types zeroed — so it is
    /// rebuilt here bit-identically rather than persisted. The state
    /// comes from disk: everything in it that indexes `dc` or the script
    /// is checked here, once.
    pub fn from_state(
        dc: &'a DataCenter,
        script: &FaultScript,
        state: SupervisorState,
    ) -> Result<LiveRun<'a>, String> {
        let cfg = &state.cfg;
        if !(cfg.epoch_s > 0.0 && cfg.horizon_s > 0.0) {
            return Err("supervisor state: non-positive epoch or horizon length".to_string());
        }
        let n_epochs = cfg.n_epochs();
        if state.epoch > n_epochs {
            return Err(format!(
                "supervisor state: epoch {} past the horizon ({n_epochs} epochs)",
                state.epoch
            ));
        }
        if state.next_event > script.events().len() {
            return Err(format!(
                "supervisor state: {} fault events consumed but the script has {}",
                state.next_event,
                script.events().len()
            ));
        }
        let w = &state.world;
        if w.outlets.len() != dc.n_crac()
            || w.failed.len() != dc.n_crac()
            || w.dead.len() != dc.n_nodes()
        {
            return Err(
                "supervisor state: world dimensions do not match the data center".to_string(),
            );
        }
        dc.pstates_fit(&w.pstates).map_err(|misfit| format!("supervisor state: {misfit}"))?;
        if w.shed.iter().any(|&i| i >= dc.workload.task_types.len()) {
            return Err("supervisor state: shed task type out of range".to_string());
        }
        if !w.surge.is_finite() || w.surge < 0.0 {
            return Err("supervisor state: non-finite or negative surge factor".to_string());
        }
        if !w.outlets.iter().all(|x| x.is_finite()) {
            return Err("supervisor state: non-finite outlets".to_string());
        }
        for (name, x) in
            [("bias_c", w.bias_c), ("planned_surge", w.planned_surge), ("fault_surge", w.fault_surge)]
        {
            if !x.is_finite() {
                return Err(format!("supervisor state: non-finite {name}"));
            }
        }
        w.stage3
            .fits(dc)
            .and_then(|()| state.sim.fits(dc))
            .map_err(|misfit| format!("supervisor state: {misfit}"))?;
        let mut work_dc = dc.clone();
        w.rescale_demand(dc, &mut work_dc);
        Ok(LiveRun {
            dc,
            script: script.clone(),
            work_dc,
            n_epochs,
            state,
        })
    }
}

/// The complete, serializable execution state of a [`LiveRun`] at an
/// epoch boundary — everything beyond the immutable data center and
/// fault script, which travel separately (see the `persist` module).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisorState {
    /// Configuration of the run (including the arrival seed).
    pub cfg: SupervisorConfig,
    /// Epochs fully executed.
    pub epoch: usize,
    /// Fault-script events already injected.
    pub next_event: usize,
    world: World,
    sim: EpochSim,
    log: EventLog,
    acted: bool,
    backoff_skip: u32,
    backoff_next: u32,
}

impl SupervisorState {
    /// The typed event history captured in this state.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Is this world undisturbed and *verifiably* healthy? No failures,
    /// sheds, stale plan, backoff, sensor bias (a biased floor's health
    /// is believed, not known), or demand surge (the plan targets rates
    /// the original workload cannot be verified against) — the condition
    /// under which a recovered run is expected to satisfy every physical
    /// constraint.
    pub fn believes_healthy(&self) -> bool {
        let w = &self.world;
        !w.stale
            && !w.meltdown
            && self.backoff_skip == 0
            && w.shed.is_empty()
            && w.bias_c == 0.0 // lint: allow(float-eq): bias_c is only ever assigned literals; exact no-fault test
            && w.surge == 1.0 // lint: allow(float-eq): surge is only ever assigned literals; exact no-fault test
            && !w.failed.iter().any(|&f| f)
            && !w.dead.iter().any(|&d| d)
    }

    /// Check the assignment this state holds — outlets, P-states with
    /// dead nodes' cores off, and the Stage-3 rates where they still
    /// match those P-states — against the physical model's power-cap and
    /// redline invariants.
    pub(crate) fn verify(&self, dc: &DataCenter) -> VerificationReport {
        let w = &self.world;
        let pstates = w.effective_pstates(dc);
        // A stale plan can carry rates for cores that have since been
        // throttled to their off state; verifying those against the current
        // P-states would be meaningless (and trips a debug assertion in
        // `verify_assignment`). Rates are checked only when they are
        // consistent with the assignment being verified.
        let rates_consistent = (0..dc.n_cores()).all(|k| {
            let nt = dc.core_type(k);
            (0..dc.n_task_types())
                .all(|i| w.stage3.tc(i, k) <= 0.0 || dc.workload.ecs.ecs(i, nt, pstates[k]) > 0.0)
        });
        verify_assignment(dc, &w.outlets, &pstates, rates_consistent.then_some(&w.stage3))
    }
}

/// The arrival RNG for epoch `e`: re-seeded independently per epoch (a
/// golden-ratio increment decorrelates consecutive epochs), so resuming
/// at any boundary reproduces the exact arrival stream of an
/// uninterrupted run without persisting RNG internals.
fn epoch_rng(seed: u64, e: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add(((e as u64) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The epoch's Poisson arrivals at `surge`-scaled rates. Exponential
/// interarrivals are memoryless, so restarting each type's clock at the
/// epoch boundary is statistically identical to one continuous process —
/// and it keeps the stream identical across supervised and unsupervised
/// runs of the same seed (supervision never touches the RNG).
fn epoch_arrivals(
    rng: &mut StdRng,
    dc: &DataCenter,
    surge: f64,
    t0: f64,
    t1: f64,
) -> Vec<TaskArrival> {
    let mut arrivals = Vec::new();
    for t in &dc.workload.task_types {
        let rate = t.arrival_rate * surge;
        if rate <= 0.0 {
            continue;
        }
        let mut clock = t0;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            clock += -u.ln() / rate;
            if clock >= t1 {
                break;
            }
            arrivals.push(TaskArrival {
                time: clock,
                task_type: t.index,
                deadline: clock + t.deadline_slack,
            });
        }
    }
    arrivals.sort_by(|a, b| a.time.total_cmp(&b.time));
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    fn setup() -> (DataCenter, ThreeStageSolution) {
        let dc = ScenarioParams {
            n_nodes: 8,
            n_crac: 2,
            ..ScenarioParams::small_test()
        }
        .build(1)
        .expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        (dc, plan)
    }

    fn cfg(horizon_s: f64) -> SupervisorConfig {
        SupervisorConfig {
            horizon_s,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn nominal_run_is_nominal() {
        let (dc, plan) = setup();
        let sup = Supervisor::new(&dc, cfg(10.0));
        let r = sup.run(&plan, &FaultScript::new());
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
        assert_eq!(a.sim.reward_collected, b.sim.reward_collected);
        assert_eq!(a.log.events().len(), b.log.events().len());
    }

    #[test]
    fn node_death_recovers_with_a_replan() {
        let (dc, plan) = setup();
        let script = FaultScript::new().node_death(3.0, 0);
        let sup = Supervisor::new(&dc, cfg(12.0));
        let r = sup.run(&plan, &script);
        assert_eq!(r.nodes_dead, 1);
        assert!(r.log.replans() >= 1, "no replan after node death");
        assert_eq!(r.outcome, Outcome::Recovered);
        assert!(r.sim.reward_rate > 0.0);
    }

    #[test]
    fn all_cracs_down_is_unrecoverable_not_a_panic() {
        let (dc, plan) = setup();
        let script = FaultScript::new().crac_failure(2.0, 0).crac_failure(2.0, 1);
        let sup = Supervisor::new(&dc, cfg(8.0));
        let r = sup.run(&plan, &script);
        assert_eq!(r.outcome, Outcome::Unrecoverable);
        assert_eq!(r.nodes_dead, dc.n_nodes());
    }

    #[test]
    fn unsupervised_ignores_violations() {
        let (dc, plan) = setup();
        let script = FaultScript::new().node_death(3.0, 0);
        let sup = Supervisor::new(
            &dc,
            SupervisorConfig {
                supervise: false,
                ..cfg(10.0)
            },
        );
        let r = sup.run(&plan, &script);
        assert_eq!(r.log.replans(), 0);
        // Outcome still typed: the stale plan happens to stay healthy
        // thermally (less heat), so this ends Recovered-or-Degraded, not
        // Nominal (a node is down).
        assert_ne!(r.outcome, Outcome::Nominal);
    }

    #[test]
    fn arrival_stream_is_seed_deterministic_and_surge_scales_it() {
        let (dc, _) = setup();
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = epoch_arrivals(&mut r1, &dc, 1.0, 0.0, 5.0);
        let b = epoch_arrivals(&mut r2, &dc, 1.0, 0.0, 5.0);
        assert_eq!(a.len(), b.len());
        let mut r3 = StdRng::seed_from_u64(7);
        let c = epoch_arrivals(&mut r3, &dc, 3.0, 0.0, 5.0);
        assert!(c.len() > a.len(), "surge did not increase arrivals");
        for w in a.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }
}
