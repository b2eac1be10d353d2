//! The physical floor under a running plan: CRAC outlets, failed units,
//! dead nodes, sensor bias, and the two rungs that answer a breach
//! without a solver.
//!
//! At each epoch boundary a [`Floor`] takes its [`Fault`]s, assesses the
//! *observed* room (sensor bias included) against the redline and the
//! Eq.-18 power cap, and answers a breach by dropping CRAC outlets (to
//! each unit's minimum), then throttling P-states (to every core off).
//! Then the physics: a node whose **true** inlet exceeds the redline by
//! the trip margin shuts down, supervised or not. The rungs run first:
//! the control loop is faster than the air.
//!
//! The floor never solves an LP. A throttle or a node death leaves the
//! rates stale ([`Floor::wants_replan`]); its owner asks for a Stage-3
//! replan and hands the answer back ([`Floor::replanned`]). A ladder that
//! cannot restore health backs off exponentially, in epochs, and holds
//! replans back meanwhile. A floor with no fault since its last healthy
//! assessment solves no thermal steady state at all.

use crate::degrade;
use crate::event::{Action, EventKind, EventLog, Violation};
use crate::fault::Fault;
use serde::{Deserialize, Serialize};
use thermaware_datacenter::DataCenter;
use thermaware_scheduler::EpochSim;
use thermaware_thermal::ThermalState;

/// CRAC outlet drop per ladder application, °C.
pub const OUTLET_DROP_C: f64 = 2.0;
/// P-state deepening steps per throttle application.
pub const THROTTLE_STEPS: usize = 8;
/// Redline violation tolerance, °C.
pub const REDLINE_TOL_C: f64 = 1e-6;
/// Power budget tolerance, kW.
pub const POWER_TOL_KW: f64 = 1e-6;
/// True inlet excess over the redline at which a node trips, °C.
pub const DEFAULT_TRIP_MARGIN_C: f64 = 3.0;
/// Backstop on ladder iterations within one response.
const MAX_LADDER_ITERS: usize = 10_000;

/// The floor's state, serialized with the state that owns it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floor {
    /// CRAC outlet set-points, °C.
    pub outlets: Vec<f64>,
    /// Failed CRAC units.
    pub failed: Vec<bool>,
    /// Dead nodes; their cores are held at their off state.
    pub dead: Vec<bool>,
    /// Observed-minus-true inlet sensor bias, °C.
    pub bias_c: f64,
    /// Run the ladder (`false`: same faults and trips, stale plan).
    pub supervise: bool,
    /// True inlet excess over the redline at which a node trips, °C.
    pub trip_margin_c: f64,
    /// The rates no longer match the floor.
    pub stale: bool,
    /// The last assessment found the floor inside every constraint.
    pub healthy: bool,
    /// Nothing physical changed since a healthy assessment.
    pub settled: bool,
    /// The room lost its steady state at some point.
    pub meltdown: bool,
    /// The ladder ran at least once.
    pub acted: bool,
    /// Observed redline margin at the last assessment, °C.
    pub margin_c: f64,
    /// Epochs left to wait before the ladder tries again.
    pub backoff_skip: u32,
    /// The wait the next failed response backs off for.
    pub backoff_next: u32,
}

impl Floor {
    /// A whole floor at a plan's CRAC outlets.
    pub fn new(dc: &DataCenter, outlets: &[f64], supervise: bool, trip_margin_c: f64) -> Floor {
        Floor {
            outlets: outlets.to_vec(),
            failed: vec![false; dc.n_crac()],
            dead: vec![false; dc.n_nodes()],
            bias_c: 0.0,
            supervise,
            trip_margin_c,
            stale: false,
            healthy: true,
            settled: false,
            meltdown: false,
            acted: false,
            margin_c: 0.0,
            backoff_skip: 0,
            backoff_next: 1,
        }
    }

    /// Does this floor, read from disk, fit `dc`? The lengths and floats
    /// the epochs index and compute with unchecked.
    pub fn fits(&self, dc: &DataCenter) -> Result<(), String> {
        if self.outlets.len() != dc.n_crac() || self.failed.len() != dc.n_crac() || self.dead.len() != dc.n_nodes()
        {
            return Err("floor dimensions do not match the data center".to_string());
        }
        let finite = [
            ("outlets", self.outlets.iter().all(|x| x.is_finite())),
            ("bias_c", self.bias_c.is_finite()),
            ("trip_margin_c", self.trip_margin_c.is_finite()),
        ];
        finite.iter().find(|(_, ok)| !ok).map_or(Ok(()), |(name, _)| Err(format!("non-finite {name}")))
    }

    /// Can this floor take `fault`? A unit or node it has, a finite bias
    /// or factor — checked where a fault enters from outside.
    pub fn accepts(&self, fault: &Fault) -> Result<(), String> {
        let ok = match *fault {
            Fault::CracFailure { unit } | Fault::CracRecovery { unit } => unit < self.failed.len(),
            Fault::NodeDeath { node } => node < self.dead.len(),
            Fault::SensorDrift { bias_c: x } | Fault::ArrivalSurge { factor: x } => x.is_finite(),
        };
        let (cracs, nodes) = (self.failed.len(), self.dead.len());
        ok.then_some(()).ok_or_else(|| format!("{fault:?} does not fit a floor of {cracs} CRACs and {nodes} nodes"))
    }

    /// Should the rates be replanned? Supervised, stale and healthy: a
    /// ladder backing off holds replans back (rates cannot clear heat).
    pub fn wants_replan(&self) -> bool {
        self.supervise && self.stale && self.healthy
    }

    /// A replan landed: the rates match the floor again.
    pub fn replanned(&mut self, at_s: f64, log: &mut EventLog) {
        if self.wants_replan() {
            log.record(at_s, EventKind::Recovered { margin_c: self.margin_c });
        }
        self.stale = false;
    }

    /// A full plan landed with its own outlets and P-states: take the
    /// outlets and hold dead nodes' cores off in `pstates`. The rates
    /// are stale when a node is dead (the full solve did not know).
    pub fn adopt(&mut self, dc: &DataCenter, outlets: &[f64], pstates: &mut [usize], at_s: f64, log: &mut EventLog) {
        self.outlets.copy_from_slice(outlets);
        for node in (0..self.dead.len()).filter(|&j| self.dead[j]) {
            hold_off(dc, node, pstates);
        }
        (self.acted, self.settled, self.stale) = (true, false, self.dead.contains(&true));
        if self.wants_replan() {
            log.record(at_s, EventKind::ViolationDetected(Violation::StalePlan));
        }
    }

    /// One epoch boundary at `now`: the faults, the ladder (supervised
    /// and not backing off), the trips. Returns whether it throttled.
    pub fn epoch(
        &mut self,
        dc: &DataCenter,
        pstates: &mut [usize],
        sim: &mut EpochSim,
        faults: &[Fault],
        now: f64,
        log: &mut EventLog,
    ) -> bool {
        let wanted = self.wants_replan();
        for &fault in faults {
            self.inject(dc, pstates, sim, now, fault, log);
        }
        if self.settled {
            return false;
        }
        let mut steps = 0;
        if self.supervise && self.backoff_skip > 0 {
            self.backoff_skip -= 1;
        } else if self.supervise {
            let (redline_c, power_kw) = self.health(dc, pstates);
            self.margin_c = redline_c;
            self.healthy = within(dc, redline_c, power_kw);
            if !self.healthy {
                self.acted = true;
                steps = self.respond(dc, pstates, now, (redline_c, power_kw), log);
                if !self.healthy {
                    degrade::back_off(&mut self.backoff_skip, &mut self.backoff_next, degrade::MAX_BACKOFF_EPOCHS);
                    log.record(now, EventKind::Backoff { epochs: self.backoff_skip });
                } else {
                    self.backoff_next = 1;
                    if !self.stale {
                        log.record(now, EventKind::Recovered { margin_c: self.margin_c });
                    }
                }
            }
        }
        let tripped = self.apply_trips(dc, pstates, sim, now, log);
        self.settled = !tripped && (!self.supervise || (self.healthy && self.backoff_skip == 0));
        if !wanted && self.wants_replan() {
            log.record(now, EventKind::ViolationDetected(Violation::StalePlan));
        }
        steps > 0
    }

    fn inject(&mut self, dc: &DataCenter, pstates: &mut [usize], sim: &mut EpochSim, at_s: f64, fault: Fault, log: &mut EventLog) {
        log.record(at_s, EventKind::FaultInjected(fault));
        self.settled = false;
        match fault {
            Fault::CracFailure { unit } | Fault::CracRecovery { unit } => {
                if let Some(failed) = self.failed.get_mut(unit) {
                    *failed = matches!(fault, Fault::CracFailure { .. });
                }
            }
            Fault::NodeDeath { node } => self.kill_node(dc, pstates, sim, node, at_s),
            Fault::SensorDrift { bias_c } if bias_c.is_finite() => self.bias_c = bias_c,
            // Demand reaches the floor's owner as arrivals, not here.
            Fault::SensorDrift { .. } | Fault::ArrivalSurge { .. } => {}
        }
    }

    /// Mark a node dead, hold its cores off, lose its in-flight work.
    fn kill_node(&mut self, dc: &DataCenter, pstates: &mut [usize], sim: &mut EpochSim, node: usize, at_s: f64) {
        if node >= self.dead.len() || self.dead[node] {
            return;
        }
        self.dead[node] = true;
        self.stale = true;
        hold_off(dc, node, pstates);
        sim.kill_cores(&dc.cores_of_node(node).collect::<Vec<_>>(), at_s);
    }

    /// Node powers under `pstates`, dead nodes drawing nothing.
    fn node_powers(&self, dc: &DataCenter, pstates: &[usize]) -> Vec<f64> {
        let mut powers = dc.node_powers_from_pstates(pstates);
        for (p, _) in powers.iter_mut().zip(&self.dead).filter(|(_, &dead)| dead) {
            *p = 0.0;
        }
        powers
    }

    /// The true steady state at `powers` (`None`: every CRAC down).
    fn steady_state(&self, dc: &DataCenter, powers: &[f64]) -> Option<ThermalState> {
        dc.thermal.steady_state_with_failed_cracs(&self.outlets, powers, &self.failed).ok()
    }

    /// Observed worst redline violation (°C) and total power (kW).
    fn health(&self, dc: &DataCenter, pstates: &[usize]) -> (f64, f64) {
        let powers = self.node_powers(dc, pstates);
        let Some(state) = self.steady_state(dc, &powers) else { return (f64::INFINITY, f64::INFINITY) };
        let observed = (state.max_node_inlet() + self.bias_c - dc.thermal.node_redline_c)
            .max(state.max_crac_inlet() - dc.thermal.crac_redline_c);
        (observed, powers.iter().sum::<f64>() + dc.thermal.total_crac_power_kw(&state))
    }

    /// The ladder from `(redline_c, power_kw)`: outlet drops, then
    /// throttling, until health is back (`healthy`) or no rung has room.
    /// Each violation kind is logged once, the throttle steps merged into
    /// one event. Returns the throttle steps.
    fn respond(&mut self, dc: &DataCenter, pstates: &mut [usize], now: f64, at: (f64, f64), log: &mut EventLog) -> usize {
        let (mut redline_c, mut power_kw) = at;
        let (mut seen_redline, mut seen_power, mut throttled) = (false, false, 0);
        for _ in 0..MAX_LADDER_ITERS {
            self.healthy = within(dc, redline_c, power_kw);
            let hot = redline_c > REDLINE_TOL_C;
            if self.healthy {
                break;
            } else if hot && !seen_redline {
                seen_redline = true;
                log.record(now, EventKind::ViolationDetected(Violation::Redline { observed_c: redline_c }));
            } else if !hot && !seen_power {
                seen_power = true;
                let budget_kw = dc.budget.p_const_kw;
                log.record(now, EventKind::ViolationDetected(Violation::PowerCap { total_kw: power_kw, budget_kw }));
            }
            // Colder outlets first for heat; only the throttle cuts power.
            let moved = hot && self.drop_outlets(dc, now, log);
            let steps = if moved { 0 } else { self.throttle(dc, pstates, hot) };
            if !moved && steps == 0 {
                break; // everything dark and still outside the limits
            }
            throttled += steps;
            (redline_c, power_kw) = self.health(dc, pstates);
        }
        if throttled > 0 {
            log.record(now, EventKind::ActionTaken(Action::Throttle { steps: throttled }));
        }
        self.margin_c = redline_c;
        throttled
    }

    /// Drop every unit's set-point by [`OUTLET_DROP_C`], clamped to its
    /// minimum. Returns whether anything moved. (Rates depend on
    /// P-states, not outlets: the plan stays valid.)
    fn drop_outlets(&mut self, dc: &DataCenter, now: f64, log: &mut EventLog) -> bool {
        let mut moved = 0.0f64;
        for (out, crac) in self.outlets.iter_mut().zip(&dc.cracs) {
            let next = (*out - OUTLET_DROP_C).max(crac.min_outlet_c);
            moved = moved.max(*out - next);
            *out = next;
        }
        if moved > 1e-9 {
            log.record(now, EventKind::ActionTaken(Action::OutletDrop { by_c: moved }));
        }
        moved > 1e-9
    }

    /// Up to [`THROTTLE_STEPS`] one-state deepenings among the live
    /// nodes' shallowest cores, each scored — `thermal` — by the
    /// steady-state violation it sheds per MHz given up (the nodes whose
    /// heat recirculates into the hot spot go first), or else by the
    /// power it sheds per MHz. Returns the steps (the plan is stale).
    fn throttle(&mut self, dc: &DataCenter, pstates: &mut [usize], thermal: bool) -> usize {
        let mut steps = 0;
        for _ in 0..THROTTLE_STEPS {
            let powers = self.node_powers(dc, pstates);
            let v0 = if thermal { self.steady_state(dc, &powers).map(|s| violation(dc, &s)) } else { None };
            let score = |j: usize, dp_kw: f64, ds_mhz: f64| match v0 {
                Some(v0) => {
                    let mut pw = powers.clone();
                    pw[j] -= dp_kw;
                    self.steady_state(dc, &pw).map_or(f64::NEG_INFINITY, |s| (v0 - violation(dc, &s)) / ds_mhz)
                }
                None => degrade::power_per_mhz(j, dp_kw, ds_mhz),
            };
            let Some(k) = degrade::cheapest_throttle_step(dc, pstates, Some(&self.dead), score) else { break };
            pstates[k] += 1;
            steps += 1;
        }
        self.stale |= steps > 0;
        steps
    }

    /// Nodes whose true inlet exceeds redline + trip margin shut down,
    /// hottest first, until the floor is stable; with no steady state
    /// every node does. Returns whether a node died.
    fn apply_trips(&mut self, dc: &DataCenter, pstates: &mut [usize], sim: &mut EpochSim, now: f64, log: &mut EventLog) -> bool {
        let (nc, trip_at) = (dc.n_crac(), dc.thermal.node_redline_c + self.trip_margin_c);
        let mut tripped = false;
        loop {
            let Some(state) = self.steady_state(dc, &self.node_powers(dc, pstates)) else {
                if !self.meltdown {
                    log.record(now, EventKind::NoSteadyState);
                }
                self.meltdown = true;
                for j in 0..dc.n_nodes() {
                    tripped |= !self.dead[j];
                    self.kill_node(dc, pstates, sim, j, now);
                }
                return tripped;
            };
            let hottest = (0..dc.n_nodes())
                .filter(|&j| !self.dead[j] && state.t_in[nc + j] > trip_at)
                .max_by(|&a, &b| state.t_in[nc + a].total_cmp(&state.t_in[nc + b]));
            let Some(j) = hottest else { return tripped };
            log.record(now, EventKind::NodeTripped { node: j, inlet_c: state.t_in[nc + j] });
            self.kill_node(dc, pstates, sim, j, now);
            tripped = true;
        }
    }

    /// The true final reckoning under `pstates`: worst redline violation
    /// (°C, `INFINITY` with no steady state), total power (kW), and
    /// whether both are inside their limits.
    pub fn reckon(&self, dc: &DataCenter, pstates: &[usize]) -> (f64, f64, bool) {
        let powers = self.node_powers(dc, pstates);
        let it_kw = powers.iter().sum::<f64>();
        let (violation_c, power_kw) = self
            .steady_state(dc, &powers)
            .map_or((f64::INFINITY, it_kw), |s| (violation(dc, &s), it_kw + dc.thermal.total_crac_power_kw(&s)));
        (violation_c, power_kw, within(dc, violation_c, power_kw))
    }
}

/// `state`'s worst redline violation, °C (≤ 0 when safe).
fn violation(dc: &DataCenter, state: &ThermalState) -> f64 {
    state.redline_violation(dc.thermal.node_redline_c, dc.thermal.crac_redline_c)
}

/// Are a redline violation (°C) and a total power (kW) inside their
/// limits, to the tolerances?
fn within(dc: &DataCenter, redline_c: f64, power_kw: f64) -> bool {
    redline_c <= REDLINE_TOL_C && power_kw - dc.budget.p_const_kw <= POWER_TOL_KW
}

/// Hold a node's cores at their off state.
fn hold_off(dc: &DataCenter, node: usize, pstates: &mut [usize]) {
    let off = dc.node_type(node).core.pstates.off_index();
    for k in dc.cores_of_node(node) {
        pstates[k] = off;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_core::Solver;
    use thermaware_datacenter::ScenarioParams;

    fn room() -> (DataCenter, Floor, Vec<usize>, EpochSim) {
        let dc = ScenarioParams { n_nodes: 8, n_crac: 2, ..ScenarioParams::small_test() }.build(1).expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        let floor = Floor::new(&dc, plan.crac_out_c(), true, DEFAULT_TRIP_MARGIN_C);
        let sim = EpochSim::new(&dc, &plan.pstates, &plan.stage3);
        (dc, floor, plan.pstates, sim)
    }

    /// A settled floor solves no steady state: every CRAC failed behind
    /// its back (not as a fault) goes unseen until a fault arrives.
    #[test]
    fn a_settled_floor_solves_no_steady_state() {
        let (dc, mut floor, mut pstates, mut sim) = room();
        let mut log = EventLog::default();
        floor.epoch(&dc, &mut pstates, &mut sim, &[], 0.0, &mut log);
        assert!(floor.settled && floor.healthy && log.events().is_empty());
        floor.failed.fill(true);
        floor.epoch(&dc, &mut pstates, &mut sim, &[], 1.0, &mut log);
        assert!(!floor.meltdown && log.events().is_empty(), "a settled floor looked: {log}");
        floor.epoch(&dc, &mut pstates, &mut sim, &[Fault::SensorDrift { bias_c: 0.0 }], 2.0, &mut log);
        assert!(floor.meltdown && floor.dead.iter().all(|&d| d));
    }

    /// A node death stales the rates; the floor wants the replan, and a
    /// replan that lands logs the recovery and clears it.
    #[test]
    fn a_death_wants_a_replan_until_one_lands() {
        let (dc, mut floor, mut pstates, mut sim) = room();
        let mut log = EventLog::default();
        floor.epoch(&dc, &mut pstates, &mut sim, &[Fault::NodeDeath { node: 3 }], 1.0, &mut log);
        assert!(floor.wants_replan());
        let off = dc.node_type(3).core.pstates.off_index();
        assert!(dc.cores_of_node(3).all(|k| pstates[k] == off), "the dead node's cores are held off");
        floor.replanned(2.0, &mut log);
        assert!(!floor.wants_replan());
        assert_eq!(log.count(|k| matches!(k, EventKind::Recovered { .. })), 1);
        assert_eq!(log.count(|k| matches!(k, EventKind::ViolationDetected(Violation::StalePlan))), 1);
    }

    /// Unsupervised, the same faults land and the same physics trips
    /// nodes, but nothing is asked for.
    #[test]
    fn an_unsupervised_floor_never_wants_a_replan() {
        let (dc, mut floor, mut pstates, mut sim) = room();
        floor.supervise = false;
        let mut log = EventLog::default();
        let faults = [Fault::NodeDeath { node: 0 }, Fault::SensorDrift { bias_c: 30.0 }];
        floor.epoch(&dc, &mut pstates, &mut sim, &faults, 1.0, &mut log);
        assert!(floor.stale && !floor.wants_replan() && !floor.acted);
    }

    #[test]
    fn faults_from_outside_are_checked_against_the_floor() {
        let (_, floor, _, _) = room();
        assert!(floor.accepts(&Fault::CracFailure { unit: 1 }).is_ok());
        for bad in [
            Fault::CracRecovery { unit: 2 },
            Fault::NodeDeath { node: 8 },
            Fault::SensorDrift { bias_c: f64::NAN },
            Fault::ArrivalSurge { factor: f64::INFINITY },
        ] {
            assert!(floor.accepts(&bad).is_err(), "{bad:?}");
        }
    }
}
