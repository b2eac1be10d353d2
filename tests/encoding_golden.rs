//! Golden bytes of everything journaled, snapshotted or sent over the
//! socket as a tagged object: one literal per variant, held in both
//! directions (`to_string(x) == literal`, `from_str(literal) == x`).
//! The round-trip suites cannot see a changed tag key, field order or
//! id encoding — both directions change together — and a directory
//! written by an older binary must keep resuming. Every pinned value is
//! also printed by way of its `Value` tree: the streaming writer and the
//! tree builder must agree on every shape.

use thermaware::core::stage3::Stage3Solution;
use thermaware::core::{SolveError, Solver};
use thermaware::datacenter::ScenarioParams;
use thermaware::lp::LpError;
use thermaware::runtime::event::DEFAULT_LOG_CAPACITY;
use thermaware::runtime::{Action, Event, EventKind, EventLog, Fault, FaultEvent, Floor, Violation};
use thermaware::scheduler::{DispatchDecision, DynamicScheduler};
use thermaware::service::engine::ServiceState;
use thermaware::service::proto::{FloorStats, RejectReason, StatsReport};
use thermaware::service::store::{state_json_crc, ServiceRecord};
use thermaware::service::{Batch, ReplanVerdict, Request, Response, ServiceConfig, ServiceEngine};
use thermaware::workload::Curve;

/// `f()` at the type of `_like` (names the parse target without naming
/// the serde traits, which the root package does not depend on).
fn typed<T>(_like: &T, f: impl FnOnce() -> T) -> T {
    f()
}

macro_rules! pin {
    ($x:expr, $literal:expr) => {{
        let x = $x;
        let literal: &str = &$literal;
        assert_eq!(serde_json::to_string(&x).expect("encode"), literal);
        // The tree a value builds prints the same bytes as the value itself.
        let tree = serde_json::to_value(&x);
        assert_eq!(serde_json::to_string(&tree).expect("encode tree"), literal);
        let back = typed(&x, || serde_json::from_str(literal).expect("decode"));
        assert_eq!(back, x, "{literal}");
    }};
}

macro_rules! rejects {
    ($t:ty, $($literal:expr),+ $(,)?) => {$({
        let literal: &str = &$literal;
        assert!(serde_json::from_str::<$t>(literal).is_err(), "{} accepted {literal}", stringify!($t));
    })+};
}

#[test]
fn lp_and_solve_errors() {
    pin!(LpError::Infeasible { residual: 0.5 }, r#"{"kind":"infeasible","residual":0.5}"#);
    pin!(LpError::Unbounded { var: "tc_0_1".into() }, r#"{"kind":"unbounded","var":"tc_0_1"}"#);
    pin!(LpError::IterationLimit { limit: 1000 }, r#"{"kind":"iteration_limit","limit":1000}"#);
    pin!(LpError::Internal { what: "no pivot".into() }, r#"{"kind":"internal","what":"no pivot"}"#);
    rejects!(LpError, r#"{"kind":"gremlin"}"#, r#"{"kind":"infeasible"}"#, r#""infeasible""#, r#"{}"#);

    pin!(
        SolveError::NoFeasibleOutlets { stage: "stage1" },
        r#"{"kind":"no_feasible_outlets","stage":"stage1"}"#
    );
    pin!(
        SolveError::OutletRecheckFailed { stage: "baseline" },
        r#"{"kind":"outlet_recheck_failed","stage":"baseline"}"#
    );
    pin!(
        SolveError::Lp { stage: "stage3", source: LpError::Infeasible { residual: 0.001 } },
        r#"{"kind":"lp","stage":"stage3","source":{"kind":"infeasible","residual":0.001}}"#
    );
    pin!(
        SolveError::InvalidInput { what: "short pstates".into() },
        r#"{"kind":"invalid_input","what":"short pstates"}"#
    );
    // A stage name this build does not know is interned to the fallback.
    assert_eq!(
        serde_json::from_str::<SolveError>(r#"{"kind":"no_feasible_outlets","stage":"stage9"}"#)
            .expect("decode"),
        SolveError::NoFeasibleOutlets { stage: "unrecognized" }
    );
    rejects!(SolveError, r#"{"kind":"gremlin"}"#, r#"{"kind":"lp","stage":"stage3"}"#, r#"[]"#);
}

#[test]
fn curves_and_faults() {
    pin!(Curve::Constant { rate: 200.0 }, r#"{"kind":"constant","rate":200}"#);
    pin!(
        Curve::Diurnal { base: 0.5, peak: 1.5, period_s: 60.0 },
        r#"{"kind":"diurnal","base":0.5,"peak":1.5,"period_s":60}"#
    );
    pin!(
        Curve::Surge { base: 1.0, surge: 3.0, start_s: 10.0, len_s: 5.5 },
        r#"{"kind":"surge","base":1,"surge":3,"start_s":10,"len_s":5.5}"#
    );
    rejects!(Curve, r#"{"kind":"sawtooth"}"#, r#"{"kind":"surge","base":1}"#, r#"3"#);

    pin!(Fault::CracFailure { unit: 1 }, r#"{"kind":"crac_failure","unit":1}"#);
    pin!(Fault::CracRecovery { unit: 0 }, r#"{"kind":"crac_recovery","unit":0}"#);
    pin!(Fault::NodeDeath { node: 7 }, r#"{"kind":"node_death","node":7}"#);
    pin!(Fault::SensorDrift { bias_c: -2.5 }, r#"{"kind":"sensor_drift","bias_c":-2.5}"#);
    pin!(Fault::ArrivalSurge { factor: 2.0 }, r#"{"kind":"arrival_surge","factor":2}"#);
    pin!(
        FaultEvent { at_s: 4.0, fault: Fault::NodeDeath { node: 2 } },
        r#"{"at_s":4,"fault":{"kind":"node_death","node":2}}"#
    );
    rejects!(Fault, r#"{"kind":"meteor"}"#, r#"{"kind":"node_death"}"#, r#"{"node":1}"#);
}

#[test]
fn events() {
    pin!(Violation::Redline { observed_c: 1.25 }, r#"{"kind":"redline","observed_c":1.25}"#);
    pin!(
        Violation::PowerCap { total_kw: 20.5, budget_kw: 19.4 },
        r#"{"kind":"power_cap","total_kw":20.5,"budget_kw":19.4}"#
    );
    pin!(Violation::StalePlan, r#"{"kind":"stale_plan"}"#);
    pin!(
        Violation::DemandDrift { multiplier: 1.5, planned: 1.0 },
        r#"{"kind":"demand_drift","multiplier":1.5,"planned":1}"#
    );
    rejects!(Violation, r#"{"kind":"gremlin"}"#, r#"{"kind":"redline"}"#, r#"null"#);

    pin!(Action::Replan, r#"{"kind":"replan"}"#);
    pin!(Action::OutletDrop { by_c: 2.0 }, r#"{"kind":"outlet_drop","by_c":2}"#);
    pin!(Action::Throttle { steps: 8 }, r#"{"kind":"throttle","steps":8}"#);
    pin!(
        Action::ShedTaskType { task_type: 4, reward: 1.5 },
        r#"{"kind":"shed_task_type","task_type":4,"reward":1.5}"#
    );
    pin!(Action::Stage1Replan, r#"{"kind":"stage1_replan"}"#);
    rejects!(Action, r#"{"kind":"gremlin"}"#, r#"{"kind":"throttle"}"#, r#""replan""#);

    pin!(
        EventKind::FaultInjected(Fault::CracFailure { unit: 0 }),
        r#"{"kind":"fault_injected","fault":{"kind":"crac_failure","unit":0}}"#
    );
    pin!(
        EventKind::NodeTripped { node: 2, inlet_c: 29.5 },
        r#"{"kind":"node_tripped","node":2,"inlet_c":29.5}"#
    );
    pin!(EventKind::NoSteadyState, r#"{"kind":"no_steady_state"}"#);
    pin!(
        EventKind::ViolationDetected(Violation::StalePlan),
        r#"{"kind":"violation_detected","violation":{"kind":"stale_plan"}}"#
    );
    pin!(
        EventKind::ActionTaken(Action::Throttle { steps: 2 }),
        r#"{"kind":"action_taken","action":{"kind":"throttle","steps":2}}"#
    );
    pin!(
        EventKind::ReplanFailed { attempt: 2, error: "stage3 LP: infeasible".into() },
        r#"{"kind":"replan_failed","attempt":2,"error":"stage3 LP: infeasible"}"#
    );
    pin!(EventKind::Backoff { epochs: 4 }, r#"{"kind":"backoff","epochs":4}"#);
    pin!(EventKind::Recovered { margin_c: -0.5 }, r#"{"kind":"recovered","margin_c":-0.5}"#);
    rejects!(
        EventKind,
        r#"{"kind":"gremlin"}"#,
        r#"{"kind":"fault_injected"}"#,
        r#"{"kind":"node_tripped","node":2}"#,
        r#"{"kind":"action_taken","action":{"kind":"gremlin"}}"#,
    );
}

/// A floor with no steady state observes `+inf`; JSON has no such
/// number, so the measurement travels as a string.
#[test]
fn non_finite_measurements() {
    pin!(Violation::Redline { observed_c: f64::INFINITY }, r#"{"kind":"redline","observed_c":"inf"}"#);
    pin!(
        EventKind::Recovered { margin_c: f64::NEG_INFINITY },
        r#"{"kind":"recovered","margin_c":"-inf"}"#
    );
    pin!(
        EventKind::NodeTripped { node: 0, inlet_c: f64::INFINITY },
        r#"{"kind":"node_tripped","node":0,"inlet_c":"inf"}"#
    );
    rejects!(Violation, r#"{"kind":"redline","observed_c":"warm"}"#);
    // Nor does a non-finite value come in as a number: a literal that
    // overflows `f64` is refused, not read as infinity.
    rejects!(Violation, r#"{"kind":"redline","observed_c":1e999}"#, r#"{"kind":"redline","observed_c":-1e999}"#);
}

#[test]
fn event_log_and_floor() {
    let mut log = EventLog::default();
    log.record(1.0, EventKind::NoSteadyState);
    let events = r#"[{"at_s":1,"kind":{"kind":"no_steady_state"}}]"#;
    pin!(
        log.clone(),
        format!(r#"{{"events":{events},"capacity":{DEFAULT_LOG_CAPACITY},"dropped":0}}"#)
    );
    // Written before the ring bound existed: no `capacity`/`dropped`.
    let legacy: EventLog =
        serde_json::from_str(&format!(r#"{{"events":{events}}}"#)).expect("legacy log");
    assert_eq!(legacy, log);
    pin!(
        Event { at_s: 0.5, kind: EventKind::Backoff { epochs: 1 } },
        r#"{"at_s":0.5,"kind":{"kind":"backoff","epochs":1}}"#
    );

    // The floor: its state, a begin record carrying faults, the drift
    // re-solve's verdict, and the socket's fault request, ack and stats.
    let floor = Floor {
        outlets: vec![18.5, 20.0],
        failed: vec![false, true],
        dead: vec![true],
        bias_c: -1.5,
        supervise: true,
        trip_margin_c: 3.0,
        stale: true,
        healthy: true,
        settled: false,
        meltdown: false,
        acted: true,
        margin_c: f64::NEG_INFINITY,
        backoff_skip: 0,
        backoff_next: u32::MAX,
    };
    pin!(
        floor,
        r#"{"outlets":[18.5,20],"failed":[false,true],"dead":[true],"bias_c":-1.5,"supervise":true,"trip_margin_c":3,"stale":true,"healthy":true,"settled":false,"meltdown":false,"acted":true,"margin_c":"-inf","backoff_skip":0,"backoff_next":4294967295}"#
    );
    rejects!(Floor, r#"{"outlets":[18.5]}"#, "[]");
    pin!(
        ServiceRecord::Begin {
            epoch: 3,
            batches: Vec::new(),
            verdict: ReplanVerdict::NotAttempted,
            faults: vec![Fault::CracFailure { unit: 1 }, Fault::SensorDrift { bias_c: 2.5 }],
        },
        r#"{"rec":"begin","epoch":3,"batches":[],"verdict":{"kind":"not_attempted"},"faults":[{"kind":"crac_failure","unit":1},{"kind":"sensor_drift","bias_c":2.5}]}"#
    );
    pin!(
        ReplanVerdict::FullPlan { pstates: vec![0, 3], outlets: vec![17.5], stage3: stage3() },
        format!(r#"{{"kind":"full_plan","pstates":[0,3],"outlets":[17.5],"stage3":{STAGE3}}}"#)
    );
    rejects!(ReplanVerdict, r#"{"kind":"full_plan","pstates":[0],"outlets":[17.5]}"#);
    pin!(
        Request::Fault { fault: Fault::NodeDeath { node: 4 } },
        r#"{"type":"fault","fault":{"kind":"node_death","node":4}}"#
    );
    rejects!(Request, r#"{"type":"fault"}"#, r#"{"type":"fault","fault":{"kind":"meteor"}}"#);
    pin!(Response::FaultAccepted { epoch: 17 }, r#"{"type":"fault_accepted","epoch":17}"#);
    let stats = StatsReport {
        floor: Some(FloorStats { failed_cracs: 1, dead_nodes: 2, bias_c: 0.5, healthy: false }),
        ..StatsReport::default()
    };
    let text = serde_json::to_string(&Response::Stats(stats.clone())).expect("encode");
    assert!(text.ends_with(r#","log_dropped":0,"floor":{"failed_cracs":1,"dead_nodes":2,"bias_c":0.5,"healthy":false}}}"#), "{text}");
    pin!(Response::Stats(stats), text);
}

fn stage3() -> Stage3Solution {
    Stage3Solution {
        reward_rate: 1.5,
        rate_per_core: vec![vec![0.5, 1.0]],
        group_of_core: vec![0, 0],
        groups: vec![(0, 1)],
    }
}

const STAGE3: &str = r#"{"reward_rate":1.5,"rate_per_core":[[0.5,1]],"group_of_core":[0,0],"groups":[[0,1]]}"#;

#[test]
fn service_journal_records() {
    pin!(ReplanVerdict::NotAttempted, r#"{"kind":"not_attempted"}"#);
    pin!(ReplanVerdict::Ok { stage3: stage3() }, format!(r#"{{"kind":"ok","stage3":{STAGE3}}}"#));
    pin!(ReplanVerdict::TimedOut, r#"{"kind":"timed_out"}"#);
    pin!(
        ReplanVerdict::Failed { error: "stage3 LP: infeasible".into() },
        r#"{"kind":"failed","error":"stage3 LP: infeasible"}"#
    );
    rejects!(ReplanVerdict, r#"{"kind":"gremlin"}"#, r#"{"kind":"ok"}"#, r#""timed_out""#);

    pin!(
        Batch { id: u64::MAX, tasks: vec![(0, 3), (2, 1)] },
        r#"{"id":"ffffffffffffffff","tasks":[[0,3],[2,1]]}"#
    );
    rejects!(Batch, r#"{"id":7,"tasks":[]}"#, r#"{"id":"xyz","tasks":[]}"#, r#"{"tasks":[]}"#);

    pin!(
        ServiceRecord::Begin {
            epoch: 3,
            batches: vec![Batch { id: 0xa1, tasks: vec![(1, 4)] }],
            verdict: ReplanVerdict::TimedOut,
            faults: Vec::new(),
        },
        r#"{"rec":"begin","epoch":3,"batches":[{"id":"00000000000000a1","tasks":[[1,4]]}],"verdict":{"kind":"timed_out"}}"#
    );
    pin!(
        ServiceRecord::Commit { epoch: 3, state_crc: 0xffff_ffff },
        r#"{"rec":"commit","epoch":3,"state_crc":4294967295}"#
    );
    rejects!(ServiceRecord, r#"{"rec":"gremlin"}"#, r#"{"rec":"commit","epoch":3}"#, r#"{"kind":"begin"}"#);
}

#[test]
fn socket_protocol() {
    pin!(
        Request::Submit {
            batch: Batch { id: 0xa1, tasks: vec![(0, 3), (2, 1)] },
            budget_ms: Some(500),
        },
        r#"{"type":"submit","id":"00000000000000a1","tasks":[[0,3],[2,1]],"budget_ms":500}"#
    );
    pin!(
        Request::Submit { batch: Batch { id: u64::MAX, tasks: vec![(0, 64)] }, budget_ms: None },
        r#"{"type":"submit","id":"ffffffffffffffff","tasks":[[0,64]]}"#
    );
    pin!(Request::Stats, r#"{"type":"stats"}"#);
    pin!(Request::Ping, r#"{"type":"ping"}"#);
    pin!(Request::Shutdown, r#"{"type":"shutdown"}"#);
    rejects!(Request, r#"{"type":"gremlin"}"#, r#"{"type":"submit","tasks":[]}"#, r#"{"id":"00"}"#);

    pin!(
        Response::Accepted { id: 0xa1, epoch: 17, duplicate: false },
        r#"{"type":"accepted","id":"00000000000000a1","epoch":17,"duplicate":false}"#
    );
    for (reason, name) in [
        (RejectReason::QueueFull, "queue_full"),
        (RejectReason::BudgetExpired, "budget_expired"),
        (RejectReason::BatchTooLarge, "batch_too_large"),
        (RejectReason::UnknownTaskType, "unknown_task_type"),
    ] {
        pin!(
            Response::Rejected { id: u64::MAX, reason, retry_after_ms: 120 },
            format!(
                r#"{{"type":"rejected","id":"ffffffffffffffff","reason":"{name}","retry_after_ms":120}}"#
            )
        );
    }
    pin!(
        Response::Stats(StatsReport {
            epoch: 9,
            now_s: 9.0,
            reward: 12.5,
            breaker: "closed".into(),
            backlog_s: 0.25,
            ..StatsReport::default()
        }),
        r#"{"type":"stats","report":{"epoch":9,"now_s":9,"admitted_batches":0,"duplicate_batches":0,"admitted_tasks":0,"dropped_tasks":0,"shed_tasks":0,"completed_tasks":0,"late_tasks":0,"lost_tasks":0,"reward":12.5,"replans":0,"replan_failures":0,"breaker_opens":0,"breaker":"closed","shed_types":0,"backlog_s":0.25,"log_dropped":0}}"#
    );
    pin!(Response::Pong, r#"{"type":"pong"}"#);
    pin!(Response::ShuttingDown, r#"{"type":"shutting_down"}"#);
    pin!(Response::Error { message: "bad line".into() }, r#"{"type":"error","message":"bad line"}"#);
    rejects!(
        Response,
        r#"{"type":"gremlin"}"#,
        r#"{"type":"accepted","id":"00000000000000a1","epoch":17}"#,
        r#"{"type":"rejected","id":"00000000000000a1","reason":"QueueFull","retry_after_ms":1}"#,
        r#"{"type":"stats"}"#,
    );
}

/// The state the store snapshots and CRCs: key order, and the dedup
/// window's ids as hex strings over the full `u64` range.
#[test]
fn service_state() {
    let dc = ScenarioParams::small_test().build(7).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    let batches = [Batch { id: u64::MAX, tasks: vec![(0, 2)] }, Batch { id: 7, tasks: vec![(1, 1)] }];
    engine.step(&batches, &ReplanVerdict::NotAttempted);
    let json = serde_json::to_string(engine.state()).expect("encode");
    assert!(json.starts_with(r#"{"epoch":1,"now_s":1,"pstates":["#), "{}", &json[..60]);
    assert!(
        json.contains(r#""recent_ids":["ffffffffffffffff","0000000000000007"],"last_replan_epoch":0,"totals":{"#),
        "ids travel as 16-digit hex"
    );
    let value: serde_json::Value = serde_json::from_str(&json).expect("value");
    let keys: Vec<&str> =
        value.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "epoch", "now_s", "pstates", "stage3", "sim", "breaker", "shed", "ewma",
            "planned_rates", "recent_ids", "last_replan_epoch", "totals", "log"
        ]
    );
    let back: ServiceState = serde_json::from_str(&json).expect("decode");
    assert_eq!(&back, engine.state());
    assert_eq!(serde_json::to_string(&back).expect("re-encode"), json);
    rejects!(
        ServiceState,
        json.replace(r#""ffffffffffffffff""#, "7"),
        json.replace(r#""recent_ids""#, r#""recent""#),
    );
}

/// The scheduler is its own checkpoint form. One task type on two cores,
/// the second of which cannot run it: that service time is `INFINITY` in
/// memory and `null` on disk (a number everywhere else), the one field
/// of the state that does not print as its type prints.
#[test]
fn scheduler_state() {
    const SCHEDULER: &str = r#"{"policy":"atc_tc","tc":[[2,0]],"candidates":[[0]],"runnable":[[0]],"count":[[3,0]],"ewma_rate":[[[0,0],[0,0]]],"busy_until":[1.5,0],"service":[[0.5,null]],"busy_time":[1.5,0],"alive":[true,true],"plan_start":0}"#;
    let scheduler: DynamicScheduler = serde_json::from_str(SCHEDULER).expect("decode");
    assert!(format!("{scheduler:?}").contains("service: [[0.5, inf]]"), "{scheduler:?}");
    // Only the core with a finite service time counts as active: 1.5 s
    // busy of one core's 3 s, not of two cores' 6.
    assert_eq!(scheduler.mean_active_utilization(3.0), 0.5);
    pin!(scheduler, SCHEDULER);
    rejects!(
        DynamicScheduler,
        SCHEDULER.replace("null", r#""never""#),
        SCHEDULER.replace("null", "{}"),
        SCHEDULER.replace(r#""service":[[0.5,null]],"#, ""),
    );
    // The order the ATC/TC rule walks is derived from these fields and is
    // not among them: a scheduler read from these bytes rebuilds it at its
    // first dispatch and writes the same keys back.
    let mut read: DynamicScheduler = serde_json::from_str(SCHEDULER).expect("decode");
    assert_eq!(
        read.dispatch(0, 2.0, 3.0),
        DispatchDecision::Assigned { core: 0, start: 2.0, finish: 2.5 }
    );
    let after = SCHEDULER
        .replace(r#""count":[[3,0]]"#, r#""count":[[4,0]]"#)
        .replace(r#""busy_until":[1.5,0]"#, r#""busy_until":[2.5,0]"#)
        .replace(r#""busy_time":[1.5,0]"#, r#""busy_time":[2,0]"#);
    assert_eq!(serde_json::to_string(&read).expect("encode"), after);
}

/// The pretty printer is the same writer with an indent: two spaces per
/// level, `": "` after a key, empty containers closed on the spot.
#[test]
fn pretty_printing() {
    let record = ServiceRecord::Begin {
        epoch: 3,
        batches: vec![
            Batch { id: 0xa1, tasks: vec![(1, 4)] },
            Batch { id: 7, tasks: Vec::new() },
        ],
        verdict: ReplanVerdict::Failed { error: "tab\there".into() },
        faults: Vec::new(),
    };
    let pretty = serde_json::to_string_pretty(&record).expect("encode");
    assert_eq!(
        pretty,
        r#"{
  "rec": "begin",
  "epoch": 3,
  "batches": [
    {
      "id": "00000000000000a1",
      "tasks": [
        [
          1,
          4
        ]
      ]
    },
    {
      "id": "0000000000000007",
      "tasks": []
    }
  ],
  "verdict": {
    "kind": "failed",
    "error": "tab\there"
  }
}"#
    );
    let tree = serde_json::to_value(&record);
    assert_eq!(serde_json::to_string_pretty(&tree).expect("encode tree"), pretty);
    let back: ServiceRecord = serde_json::from_str(&pretty).expect("decode");
    assert_eq!(back, record);
}

/// The whole state, not a prefix of it: `(json.len(), crc)` as the store
/// computes them, on an engine driven through a 3x surge with three
/// failed solves (the breaker opens and sheds) and one replan that lands.
/// The constants were computed by the commit *before* the encoder
/// started streaming; a changed digit anywhere in the 150 kB fails them.
/// (They follow the plan's bits: a change to the LP kernels that moves
/// those re-pins these three pairs and says so.)
#[test]
fn service_state_bytes_are_pinned() {
    let dc = ScenarioParams::small_test().build(7).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    let mut pending = None;
    let mut pinned = Vec::new();
    for epoch in 0..40 {
        let level = if (10..30).contains(&epoch) { 2.1 } else { 0.7 };
        let tasks: Vec<(usize, usize)> = engine
            .dc()
            .workload
            .task_types
            .iter()
            .enumerate()
            .map(|(i, t)| (i, (t.arrival_rate * level) as usize))
            .collect();
        let batch = Batch { id: (epoch as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15), tasks };
        let verdict = if (10..13).contains(&epoch) {
            ReplanVerdict::Failed { error: "scripted solver outage".into() }
        } else {
            pending.take().unwrap_or(ReplanVerdict::NotAttempted)
        };
        engine.step(&[batch], &verdict);
        if epoch >= 13 && engine.state().totals.replans == 0 && engine.wants_replan() {
            let (dc, pstates) = engine.solve_request();
            let (stage3, _) = Solver::new(&dc).stage3_replan(&pstates, None).expect("replan");
            pending = Some(ReplanVerdict::Ok { stage3 });
        }
        if [1, 20, 40].contains(&engine.state().epoch) {
            let (json, crc) = state_json_crc(engine.state()).expect("encode");
            pinned.push((json.len(), crc));
        }
    }
    let state = engine.state();
    assert_eq!((state.breaker.opens, state.totals.replan_failures, state.totals.replans), (1, 3, 1));
    assert!(state.totals.shed_tasks > 0 && state.totals.dropped_tasks > 0);
    assert_eq!(pinned, [(126_253, 0x7c55_80a6), (171_497, 0x380b_4f24), (117_044, 0xd1f5_e525)]);
}
