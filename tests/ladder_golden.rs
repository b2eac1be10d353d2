//! The two degradation ladders' decisions, pinned: the supervised
//! floor's (driven through the service engine by the supervisor), the
//! fleet solver's fallback ladder, and the service's breaker. Each part
//! drives its ladder through a fixed script and holds the state it ends
//! in to `(json.len(), crc)` — as every commit record computes them —
//! plus a census of what the ladder did. The fleet and breaker pins were
//! computed at the commit *before* the ladders started sharing their
//! steps (`runtime::degrade`, `DataCenter::shallowest_core`), so a step
//! that moved in that refactor fails here. The three floor pins are of
//! the service state the supervisor's run ends in, pinned when the
//! supervisor started stepping the service engine; their censuses
//! are the ones the supervisor's own loop logged before, but for the
//! `drift` row (below).
//!
//! What each script reaches:
//!
//! * `room` — a positive sensor drift: outlet drop, then the power-cap
//!   throttle (colder outlets cost cooling power); a node death: the
//!   Stage-3 replan; a CRAC failure: outlet drop, then the thermal
//!   throttle (violation shed per MHz).
//! * `drift` — a node death (the Stage-3 replan) and a demand surge
//!   curve: the engine's demand EWMA drifts, and the drift re-solve (a
//!   full three-stage plan) is followed by the Stage-3 replan the dead
//!   node calls for. The EWMA and the engine's four-epoch replan gap see
//!   the four-second surge once, where the supervisor's own multiplier
//!   test saw it rise and fall: one drift re-solve, not two.
//! * `backoff` — a sensor drift no rung can answer: outlets to their
//!   floor, every core throttled off, then the ladder gives up and backs
//!   off (1, then 2 epochs) until the drift clears and the Stage-3
//!   replan recovers.
//! * the fleet — a zone failing with no plan yet (all-off), a zone
//!   failing on an unchanged budget (last-good), a zone failing after the
//!   feed shrank (throttled), and a zone failing on every attempt until
//!   its skip length reaches the cap.
//! * the breaker — three failures open it (shed), a failed probe reopens
//!   it with the cooldown doubled (shed again), a good probe closes it.
//!
//! A failed replan reaches the breaker and nothing else: the floor has
//! no shed rung of its own (the Stage-3 LP cannot be infeasible — its
//! rows are all `≤` with nonnegative right-hand sides, so zero rates are
//! feasible — and a solver pathology is a failed verdict like any other).
//!
//! Every pin below follows the LP's bits (the plans, the warm bases, the
//! rates written into the scheduler): a change to the LP kernels that
//! moves them re-pins these under ROADMAP item 2's re-pin protocol, and
//! says so. A change to a ladder must not.

use std::collections::BTreeMap;
use std::sync::Arc;
use thermaware::core::{Solver, ThreeStageSolution};
use thermaware::datacenter::{DataCenter, ScenarioParams};
use thermaware::runtime::persist::json_crc;
use thermaware::runtime::{Action, EventKind, EventLog, FaultScript, Violation};
use thermaware::service::{
    Batch, Outcome, ReplanVerdict, ServiceConfig, ServiceEngine, Supervisor, SupervisorConfig,
};
use thermaware::shard::chaos::{ChaosScript, Fault};
use thermaware::shard::fleet::{Fleet, FleetParams};
use thermaware::shard::pool::PoolConfig;
use thermaware::shard::solver::{FleetConfig, FleetSolver};
use thermaware::shard::FallbackKind;
use thermaware::workload::Curve;

fn room() -> (DataCenter, ThreeStageSolution) {
    let dc = ScenarioParams { n_nodes: 8, n_crac: 2, ..ScenarioParams::small_test() }
        .build(1)
        .expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    (dc, plan)
}

/// The event's kind, one level deep (`violation.*`, `action.*`).
fn kind(k: &EventKind) -> &'static str {
    match k {
        EventKind::FaultInjected(_) => "fault",
        EventKind::NodeTripped { .. } => "trip",
        EventKind::NoSteadyState => "no_steady_state",
        EventKind::ViolationDetected(v) => match v {
            Violation::Redline { .. } => "violation.redline",
            Violation::PowerCap { .. } => "violation.power_cap",
            Violation::StalePlan => "violation.stale_plan",
            Violation::DemandDrift { .. } => "violation.demand_drift",
        },
        EventKind::ActionTaken(a) => match a {
            Action::Replan => "action.replan",
            Action::OutletDrop { .. } => "action.outlet_drop",
            Action::Throttle { .. } => "action.throttle",
            Action::ShedTaskType { .. } => "action.shed",
            Action::Stage1Replan => "action.stage1_replan",
        },
        EventKind::ReplanFailed { .. } => "replan_failed",
        EventKind::Backoff { .. } => "backoff",
        EventKind::Recovered { .. } => "recovered",
    }
}

fn census(log: &EventLog) -> Vec<(&'static str, usize)> {
    let mut n = BTreeMap::new();
    for e in log.events() {
        *n.entry(kind(&e.kind)).or_insert(0) += 1;
    }
    n.into_iter().collect()
}

/// Run `script` to the horizon; the final state's pin and census. Every
/// drill ends `Recovered`, as each did under the supervisor's own loop.
fn supervise(
    dc: &DataCenter,
    plan: &ThreeStageSolution,
    cfg: SupervisorConfig,
    script: &FaultScript,
) -> ((usize, u32), Vec<(&'static str, usize)>) {
    let mut run = Supervisor::new(dc, cfg).begin(plan, script);
    while run.step().expect("no store to fail") {}
    let state = run.engine().state();
    let (json, crc) = json_crc(state).expect("encode");
    let census = census(&state.log);
    assert_eq!(run.conclude().outcome, Outcome::Recovered);
    ((json.len(), crc), census)
}

#[test]
fn supervisor_room_rungs_are_pinned() {
    let (dc, plan) = room();
    let script = FaultScript::new()
        .sensor_drift(1.0, 3.0)
        .node_death(3.0, 2)
        .sensor_drift(5.0, 0.0)
        .crac_failure(7.0, 0);
    let cfg = SupervisorConfig { horizon_s: 12.0, ..SupervisorConfig::default() };
    let (pin, census) = supervise(&dc, &plan, cfg, &script);
    assert_eq!(
        census,
        [
            ("action.outlet_drop", 5),
            ("action.replan", 3),
            ("action.throttle", 2),
            ("fault", 4),
            ("recovered", 3),
            ("violation.power_cap", 1),
            ("violation.redline", 2),
            ("violation.stale_plan", 3),
        ]
    );
    assert_eq!(pin, ROOM_PIN);
}

#[test]
fn supervisor_drift_rungs_are_pinned() {
    let (dc, plan) = room();
    let script = FaultScript::new().node_death(1.0, 5);
    let cfg = SupervisorConfig {
        horizon_s: 10.0,
        demand: Some(Curve::Surge { base: 1.0, surge: 1.6, start_s: 2.0, len_s: 4.0 }),
        ..SupervisorConfig::default()
    };
    let (pin, census) = supervise(&dc, &plan, cfg, &script);
    assert_eq!(
        census,
        [
            ("action.replan", 2),
            ("action.stage1_replan", 1),
            ("fault", 1),
            ("recovered", 2),
            ("violation.demand_drift", 1),
            ("violation.stale_plan", 2),
        ]
    );
    assert_eq!(pin, DRIFT_PIN);
}

#[test]
fn supervisor_backoff_rungs_are_pinned() {
    let (dc, plan) = room();
    let script = FaultScript::new().sensor_drift(1.0, 30.0).sensor_drift(6.0, 0.0);
    let cfg = SupervisorConfig { horizon_s: 10.0, ..SupervisorConfig::default() };
    let (pin, census) = supervise(&dc, &plan, cfg, &script);
    assert_eq!(
        census,
        [
            ("action.outlet_drop", 5),
            ("action.replan", 1),
            ("action.throttle", 1),
            ("backoff", 2),
            ("fault", 2),
            ("recovered", 1),
            ("violation.redline", 2),
            ("violation.stale_plan", 1),
        ]
    );
    assert_eq!(pin, BACKOFF_PIN);
}

#[test]
fn fleet_fallback_rungs_are_pinned() {
    let cfg = || FleetConfig {
        pool: PoolConfig {
            threads: 2,
            deadline: None,
            retries: 1,
            backoff: std::time::Duration::from_millis(1),
            hedge_after: None,
        },
        ..FleetConfig::default()
    };
    let fleet = Arc::new(Fleet::build(&FleetParams::small(2, 5, 17), 50.0).expect("fleet"));
    let mut chaos = ChaosScript::new();
    chaos.inject_persistent(0, 0, 2, Fault::Error); // no plan yet: all-off
    chaos.inject_persistent(1, 1, 2, Fault::Error); // same budget: last-good
    chaos.inject_persistent(3, 0, 2, Fault::Error); // shrunk feed: throttled
    for epoch in 3..16 {
        chaos.inject_persistent(epoch, 1, 2, Fault::Error); // skips 1, 2, 4, 8
    }
    let rungs = |solver: &mut FleetSolver, fleet: &Fleet, epochs: usize| {
        (0..epochs)
            .map(|_| {
                let plan = solver.replan(Some(&chaos));
                plan.verify(fleet).expect("fleet invariants");
                plan.zones.iter().map(|z| z.degraded).collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg());
    let mut seen = rungs(&mut solver, &fleet, 3);
    // The feed shrinks by 5 %: zone 0's allocation falls below its
    // last-good plan, zone 1's does not.
    let tight = Arc::new(Fleet {
        zones: fleet.zones.clone(),
        profiles: fleet.profiles.clone(),
        budget_kw: 0.95 * fleet.budget_kw,
    });
    let mut solver = FleetSolver::from_state(Arc::clone(&tight), cfg(), &solver.to_state())
        .expect("same topology");
    seen.extend(rungs(&mut solver, &tight, 13));

    use FallbackKind::{AllOff, LastGood, Throttled};
    let expected: Vec<Vec<Option<FallbackKind>>> = vec![
        vec![Some(AllOff), None],
        vec![Some(AllOff), Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![Some(Throttled), Some(LastGood)],
        vec![Some(Throttled), Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
        vec![None, Some(LastGood)],
    ];
    assert_eq!(seen, expected);
    let state = solver.to_state();
    assert_eq!(
        state.zones.iter().map(|z| (z.backoff_skip, z.backoff_next)).collect::<Vec<_>>(),
        [(0, 1), (4, 8)]
    );
    let (json, crc) = json_crc(&state).expect("encode");
    assert_eq!((json.len(), crc), FLEET_PIN);
}

#[test]
fn breaker_rungs_are_pinned() {
    let dc = ScenarioParams::small_test().build(7).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    let mut log = Vec::new();
    for epoch in 0..24u64 {
        let tasks: Vec<(usize, usize)> = engine
            .dc()
            .workload
            .task_types
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.arrival_rate.ceil() as usize))
            .collect();
        let batch = Batch { id: (epoch + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15), tasks };
        let verdict = match epoch {
            // Three failures open the breaker; its first probe fails.
            2..=4 | 8 => ReplanVerdict::Failed { error: "scripted solver outage".into() },
            // The second probe (after the doubled cooldown) lands.
            16 => ReplanVerdict::Ok { stage3: plan.stage3.clone() },
            _ => ReplanVerdict::NotAttempted,
        };
        let report = engine.step(&[batch], &verdict);
        log.push((report.breaker_opened, report.breaker_closed));
        if epoch == 8 {
            let b = engine.state().breaker;
            assert_eq!((b.cooldown_left, b.cooldown_len), (3, 8), "a failed probe doubles");
        }
    }
    let opened: Vec<usize> = (0..log.len()).filter(|&e| log[e].0).collect();
    let closed: Vec<usize> = (0..log.len()).filter(|&e| log[e].1).collect();
    assert_eq!((opened, closed), (vec![4, 8], vec![16]));
    let state = engine.state();
    assert!(state.shed.is_empty(), "closing the breaker unsheds");
    assert_eq!(census(&state.log), [("action.replan", 1), ("action.shed", 2), ("recovered", 1), ("replan_failed", 4)]);
    let (json, crc) = json_crc(state).expect("encode");
    assert_eq!((json.len(), crc), BREAKER_PIN);
}

const ROOM_PIN: (usize, u32) = (55_051, 0x8f84_2614);
const DRIFT_PIN: (usize, u32) = (106_630, 0x45d6_2eec);
const BACKOFF_PIN: (usize, u32) = (40_633, 0x8e74_a021);
const FLEET_PIN: (usize, u32) = (1_373, 0x25ed_e3d4);
const BREAKER_PIN: (usize, u32) = (165_735, 0x9089_87ca);
