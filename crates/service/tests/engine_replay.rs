//! Deterministic-core tests: exactly-once dedup, the breaker ladder,
//! drift-triggered replan requests, and bit-identical step replay.

use thermaware_core::Solver;
use thermaware_datacenter::ScenarioParams;
use thermaware_service::breaker::{BreakerConfig, BreakerState};
use thermaware_service::engine::{ReplanVerdict, ServiceConfig, ServiceEngine, ServiceState};
use thermaware_service::proto::Batch;

fn engine(seed: u64, cfg: ServiceConfig) -> ServiceEngine {
    let dc = ScenarioParams::small_test().build(seed).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    ServiceEngine::new(dc, cfg, &plan.pstates, &plan.stage3)
}

fn batch(id: u64, task_type: usize, n: usize) -> Batch {
    Batch { id, tasks: vec![(task_type, n)] }
}

fn state_json(e: &ServiceEngine) -> String {
    serde_json::to_string(e.state()).expect("state json")
}

#[test]
fn duplicate_batch_admits_exactly_once() {
    let mut e = engine(1, ServiceConfig::default());
    let first = e.step(&[batch(42, 0, 8)], &ReplanVerdict::NotAttempted);
    assert!(!first.batches[0].duplicate);
    let admitted = e.state().totals.admitted_tasks;
    assert!(admitted > 0, "a small batch should dispatch");

    assert!(e.would_duplicate(42));
    let again = e.step(&[batch(42, 0, 8)], &ReplanVerdict::NotAttempted);
    assert!(again.batches[0].duplicate);
    assert_eq!(e.state().totals.admitted_tasks, admitted, "no double dispatch");
    assert_eq!(e.state().totals.duplicate_batches, 1);
}

#[test]
fn dedup_window_is_bounded_and_evicts_oldest() {
    let cfg = ServiceConfig { dedup_window: 4, ..ServiceConfig::default() };
    let mut e = engine(1, cfg);
    for id in 0..10u64 {
        e.step(&[batch(id, 0, 1)], &ReplanVerdict::NotAttempted);
    }
    assert_eq!(e.state().recent_ids.len(), 4, "window bound holds");
    assert!(!e.would_duplicate(0), "oldest id aged out");
    assert!(e.would_duplicate(9));
}

/// A window that has evicted prints its ids oldest first, as hex, reads
/// back to the same state and the same bytes, and a resumed engine goes
/// on evicting in the live one's order.
#[test]
fn an_evicting_window_reads_back_to_the_same_bytes() {
    let cfg = ServiceConfig { dedup_window: 3, ..ServiceConfig::default() };
    let mut live = engine(1, cfg.clone());
    for id in [5, u64::MAX, 9, 12, 40] {
        live.step(&[batch(id, 0, 1)], &ReplanVerdict::NotAttempted);
    }
    let json = state_json(&live);
    assert!(
        json.contains(r#""recent_ids":["0000000000000009","000000000000000c","0000000000000028"],"#),
        "the three newest ids, oldest first"
    );
    let read: ServiceState = serde_json::from_str(&json).expect("decode");
    assert_eq!(&read, live.state());
    assert_eq!(serde_json::to_string(&read).expect("encode"), json);

    let mut resumed = ServiceEngine::from_state(live.dc().clone(), cfg, read).expect("fits");
    for e in [&mut live, &mut resumed] {
        e.step(&[batch(77, 0, 1)], &ReplanVerdict::NotAttempted);
        assert!(!e.would_duplicate(9) && e.would_duplicate(12) && e.would_duplicate(77));
    }
    assert_eq!(state_json(&resumed), state_json(&live));
}

#[test]
fn breaker_opens_sheds_then_recovers_on_success() {
    let cfg = ServiceConfig {
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_epochs: 1,
            max_cooldown_epochs: 8,
        },
        ..ServiceConfig::default()
    };
    let mut e = engine(1, cfg);
    let failed = ReplanVerdict::Failed { error: "lp blew up".to_string() };

    let r1 = e.step(&[], &failed);
    assert!(!r1.breaker_opened);
    let r2 = e.step(&[], &failed);
    assert!(r2.breaker_opened, "second consecutive failure opens");
    assert_eq!(e.state().shed.len(), 1, "one type shed on open");
    let shed_type = e.state().shed[0];
    let min_reward = e
        .dc()
        .workload
        .task_types
        .iter()
        .map(|t| t.reward)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(
        e.dc().workload.task_types[shed_type].reward,
        min_reward,
        "lowest-reward type shed first"
    );

    // Shed type's tasks are refused while open.
    let before = e.state().totals.shed_tasks;
    e.step(&[batch(7, shed_type, 5)], &ReplanVerdict::NotAttempted);
    assert_eq!(e.state().totals.shed_tasks, before + 5);
    assert!(e.state().totals.shed_reward > 0.0);

    // Cooldown elapsed inside the previous steps' ticks → half-open.
    assert_eq!(e.state().breaker.state, BreakerState::HalfOpen);
    assert!(e.wants_replan(), "half-open always wants its probe");

    // A successful probe closes and unsheds.
    let stage3 = e.state().stage3.clone();
    let r = e.step(&[], &ReplanVerdict::Ok { stage3 });
    assert!(r.breaker_closed);
    assert!(e.state().shed.is_empty(), "all types restored on close");
    assert_eq!(e.state().breaker.state, BreakerState::Closed);
}

#[test]
fn drift_triggers_wants_replan() {
    let cfg = ServiceConfig {
        drift_threshold: 0.5,
        min_replan_gap_epochs: 1,
        ewma_alpha: 1.0, // EWMA = this epoch's offered rate exactly
        ..ServiceConfig::default()
    };
    let mut e = engine(1, cfg);
    // Epoch with zero arrivals: offered rate 0 vs planned > 0 → 100% drift.
    e.step(&[], &ReplanVerdict::NotAttempted);
    assert!(e.wants_replan(), "flat-lined demand is > 50% drift");

    // Applying a replan rebaselines planned_rates to the EWMA.
    let stage3 = e.state().stage3.clone();
    e.step(&[], &ReplanVerdict::Ok { stage3 });
    assert!(!e.wants_replan(), "fresh plan matches current demand");
}

#[test]
fn solve_request_zeroes_shed_types_and_uses_ewma() {
    let cfg = ServiceConfig {
        ewma_alpha: 1.0,
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_epochs: 64,
            max_cooldown_epochs: 64,
        },
        ..ServiceConfig::default()
    };
    let mut e = engine(1, cfg);
    let failed = ReplanVerdict::Failed { error: "boom".to_string() };
    e.step(&[batch(1, 0, 10)], &failed); // opens, sheds one type
    let shed_type = e.state().shed[0];
    let (dc, pstates) = e.solve_request();
    assert_eq!(dc.workload.task_types[shed_type].arrival_rate, 0.0);
    assert_eq!(pstates, e.state().pstates);
    for (i, t) in dc.workload.task_types.iter().enumerate() {
        if i != shed_type {
            assert_eq!(t.arrival_rate, e.state().ewma[i]);
        }
    }
}

#[test]
fn identical_inputs_replay_bit_identically() {
    let cfg = ServiceConfig {
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_epochs: 2,
            max_cooldown_epochs: 8,
        },
        ..ServiceConfig::default()
    };
    let mut a = engine(3, cfg.clone());
    let stage3 = a.state().stage3.clone();
    let script: Vec<(Vec<Batch>, ReplanVerdict)> = vec![
        (vec![batch(1, 0, 5), batch(2, 1, 3)], ReplanVerdict::NotAttempted),
        (vec![batch(1, 0, 5)], ReplanVerdict::TimedOut),
        (vec![], ReplanVerdict::Failed { error: "x".to_string() }),
        (vec![batch(3, 2, 7)], ReplanVerdict::Failed { error: "y".to_string() }),
        (vec![batch(4, 0, 2)], ReplanVerdict::NotAttempted),
        (vec![], ReplanVerdict::Ok { stage3: stage3.clone() }),
    ];
    for (batches, verdict) in &script {
        a.step(batches, verdict);
    }
    let mut b = engine(3, cfg);
    for (batches, verdict) in &script {
        b.step(batches, verdict);
    }
    assert_eq!(state_json(&a), state_json(&b), "replay must be bit-identical");

    // And through a serialize→deserialize→re-serialize cycle.
    let json = state_json(&a);
    let back: thermaware_service::engine::ServiceState =
        serde_json::from_str(&json).expect("state decodes");
    assert_eq!(serde_json::to_string(&back).expect("re-encode"), json);
}

/// Counters enter from disk unchecked: a breaker whose failure count is
/// `u32::MAX` must take one more failure without overflowing (`+ 1`
/// panicked in debug builds) — and opens, as any count past the
/// threshold does.
#[test]
fn a_saturated_failure_count_takes_one_more_failure() {
    let cfg = ServiceConfig::default();
    let e = engine(1, cfg.clone());
    let json = state_json(&e).replacen(
        r#""consecutive_failures":0"#,
        r#""consecutive_failures":4294967295"#,
        1,
    );
    let state = serde_json::from_str(&json).expect("still a well-formed state");
    let mut e = ServiceEngine::from_state(e.dc().clone(), cfg, state).expect("fits the room");
    let report = e.step(&[], &ReplanVerdict::Failed { error: "scripted outage".into() });
    assert!(report.breaker_opened);
    assert_eq!(e.state().breaker.state, BreakerState::Open);
    assert_eq!(e.state().breaker.consecutive_failures, u32::MAX);
}

/// The lifetime counters enter from disk unchecked too, and `u64::MAX`
/// is a count the writer prints (`18446744073709552000`, which reads
/// back as `u64::MAX`): every one of them must take one more epoch —
/// a duplicate, a fresh batch with shed, admitted and dropped tasks, a
/// replan, a failed one — without overflowing (each `+= 1` panicked in
/// debug builds), and stay at the top.
#[test]
fn saturated_totals_take_one_more_epoch() {
    const COUNTERS: [&str; 7] = [
        "admitted_batches",
        "duplicate_batches",
        "admitted_tasks",
        "dropped_tasks",
        "shed_tasks",
        "replans",
        "replan_failures",
    ];
    let cfg = ServiceConfig::default();
    let mut e = engine(1, cfg.clone());
    e.step(&[batch(1, 0, 1)], &ReplanVerdict::NotAttempted);
    let mut json = state_json(&e).replacen(r#""shed":[]"#, r#""shed":[0]"#, 1);
    let totals = json.find(r#""totals":{"#).expect("the totals");
    for counter in COUNTERS {
        let at = totals + json[totals..].find(&format!("\"{counter}\":")).expect(counter) + counter.len() + 3;
        let end = at + json[at..].find([',', '}']).expect("the count's end");
        json.replace_range(at..end, "18446744073709552000");
    }
    let state = serde_json::from_str(&json).expect("still a well-formed state");
    let mut e = ServiceEngine::from_state(e.dc().clone(), cfg, state).expect("fits the room");
    let stage3 = e.state().stage3.clone();
    let fresh = Batch { id: 2, tasks: vec![(0, 4), (1, 5000)] };
    let report = e.step(&[batch(1, 0, 1), fresh], &ReplanVerdict::Ok { stage3 });
    let outcome = &report.batches[1];
    assert!(report.batches[0].duplicate && report.replanned);
    assert!(outcome.shed > 0 && outcome.admitted > 0 && outcome.dropped > 0, "{outcome:?}");
    e.step(&[], &ReplanVerdict::Failed { error: "scripted outage".into() });
    let t = &e.state().totals;
    let counts = [
        t.admitted_batches,
        t.duplicate_batches,
        t.admitted_tasks,
        t.dropped_tasks,
        t.shed_tasks,
        t.replans,
        t.replan_failures,
    ];
    assert_eq!(counts, [u64::MAX; 7]);
}
