//! The scheduler's plan tables keep their encoded text and its CRC-32,
//! and `persist::json_crc` splices them. Debug builds print every kept
//! text again at every splice; this suite holds the same in release:
//! after every step of a run that does everything a scheduler can have
//! done to it, `json_crc` returns the bytes of the tree route (which
//! splices nothing) and their checksum.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use thermaware_core::stage3::Stage3Solution;
use thermaware_core::Solver;
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::persist::{crc32, json_crc};
use thermaware_scheduler::{DispatchPolicy, DynamicScheduler};
use thermaware_workload::ArrivalTrace;

type Plan = (Vec<usize>, Stage3Solution);

/// A room and two plans for it: the second for half the demand, so its
/// tables differ.
fn room(seed: u64) -> (DataCenter, Plan, Plan) {
    let dc = ScenarioParams::small_test().build(seed).expect("scenario");
    let first = Solver::new(&dc).solve().expect("plan");
    let mut quiet = dc.clone();
    for t in &mut quiet.workload.task_types {
        t.arrival_rate *= 0.5;
    }
    let second = Solver::new(&quiet).solve().expect("plan");
    assert_ne!(first.stage3, second.stage3, "the replan changes the tables");
    (dc, (first.pstates, first.stage3), (second.pstates, second.stage3))
}

/// `json_crc` against the un-spliced encode, alone and as a member with
/// neighbours on both sides. Returns the pair for later comparison.
fn check(sched: &DynamicScheduler, at: &str) -> (String, u32) {
    fn both_routes<T: Serialize>(x: &T, at: &str) -> (String, u32) {
        let (json, crc) = json_crc(x).expect("encode");
        let plain = serde_json::to_string(&x.to_value()).expect("encode");
        assert!(json == plain, "{at}: spliced and plain bytes differ");
        assert_eq!(crc, crc32(plain.as_bytes()), "{at}");
        (json, crc)
    }
    both_routes(&(1.5, sched, "tail"), at);
    both_routes(sched, at)
}

fn run(seed: u64, policy: DispatchPolicy) {
    let (dc, (pstates, stage3), (pstates2, stage3_2)) = room(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = ArrivalTrace::generate(&dc.workload, 1.0, &mut rng);
    let due = |task_type: usize, now: f64| now + dc.workload.task_types[task_type].deadline_slack;
    let third = trace.arrivals.len() / 3;
    assert!(third > 10, "a stream worth the name");

    let mut live = DynamicScheduler::with_policy(&dc, &pstates, &stage3, policy);
    check(&live, "fresh");
    for (j, a) in trace.arrivals.iter().enumerate() {
        if j == third {
            // A clone takes the kept text along; replanning it must leave
            // the original's bytes alone, and the reverse.
            let before = check(&live, "before the clone");
            let mut copy = live.clone();
            assert_eq!(check(&copy, "clone"), before);
            copy.apply_plan(&dc, &pstates2, &stage3_2, a.time);
            assert_ne!(check(&copy, "replanned clone"), before);
            assert_eq!(check(&live, "original of a replanned clone"), before);

            live.kill_cores(&[0, dc.n_cores() / 2]);
            check(&live, "cores killed");
        }
        if j == 2 * third {
            live.apply_plan(&dc, &pstates2, &stage3_2, a.time);
            check(&live, "replanned");

            // From disk: nothing kept is read, everything kept is rebuilt,
            // and the run carries on byte for byte.
            let (json, _) = check(&live, "before the round trip");
            let mut read: DynamicScheduler = serde_json::from_str(&json).expect("decode");
            assert_eq!(check(&read, "read back").0, json);
            for b in &trace.arrivals[j..] {
                let decision = live.dispatch(b.task_type, b.time, due(b.task_type, b.time));
                assert_eq!(read.dispatch(b.task_type, b.time, due(b.task_type, b.time)), decision);
            }
            assert_eq!(check(&read, "read back, run on"), check(&live, "run on"));
            return;
        }
        live.dispatch(a.task_type, a.time, due(a.task_type, a.time));
        check(&live, "dispatched");
    }
    unreachable!("the stream is longer than two thirds of itself");
}

#[test]
fn json_crc_of_a_scheduler_is_the_plain_encode_at_every_step() {
    for seed in 1..=3 {
        run(seed, DispatchPolicy::AtcTc);
    }
}

/// The windowed rule writes `ewma_rate` at every commit: its kept text is
/// dropped and printed again epoch after epoch.
#[test]
fn the_windowed_rule_drops_the_text_it_outdates() {
    run(4, DispatchPolicy::AtcTcWindowed { tau_s: 2.0 });
}
