//! Dispatch-policy comparison tests: the paper's ATC/TC rule against the
//! plan-oblivious alternatives, and unit-level behaviour of the dispatch
//! state machine.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thermaware_core::stage3::Stage3Solution;
use thermaware_core::Solver;
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_scheduler::{
    simulate_with_policy, DispatchDecision, DispatchPolicy, DynamicScheduler,
};
use thermaware_workload::ArrivalTrace;

fn setup(seed: u64) -> (DataCenter, Vec<usize>, Stage3Solution) {
    let dc = ScenarioParams::small_test().build(seed).unwrap();
    let sol = Solver::new(&dc).solve().unwrap();
    (dc, sol.pstates, sol.stage3)
}

#[test]
fn all_policies_produce_valid_simulations() {
    let (dc, pstates, s3) = setup(1);
    let mut rng = StdRng::seed_from_u64(3);
    let trace = ArrivalTrace::generate(&dc.workload, 10.0, &mut rng);
    for policy in [
        DispatchPolicy::AtcTc,
        DispatchPolicy::EarliestFinish,
        DispatchPolicy::LeastLoaded,
    ] {
        let r = simulate_with_policy(&dc, &pstates, &s3, &trace, policy);
        assert!(r.reward_rate > 0.0, "{policy:?} earned nothing");
        assert!(r.drop_rate() < 1.0, "{policy:?} dropped everything");
        assert!(r.mean_utilization <= 1.0 + 1e-9);
        let arrived: usize = r.per_type.iter().map(|t| t.arrived).sum();
        assert_eq!(arrived, trace.arrivals.len());
    }
}

#[test]
fn atc_tc_respects_desired_rates_but_oblivious_policies_do_not() {
    // The paper's rule never assigns more than TC(i,k)·t tasks of type i
    // to core k (ratio cap); EarliestFinish happily exceeds the plan on
    // its favourite core. Measure via total assignments vs planned total.
    let (dc, pstates, s3) = setup(2);
    let mut rng = StdRng::seed_from_u64(5);
    let trace = ArrivalTrace::generate(&dc.workload, 10.0, &mut rng);

    let atc = simulate_with_policy(&dc, &pstates, &s3, &trace, DispatchPolicy::AtcTc);
    // The capped policy cannot beat the plan.
    assert!(atc.reward_rate <= s3.reward_rate * 1.1);
}

#[test]
fn dispatch_assigns_then_queues_then_drops() {
    // Unit-level: one runnable core; feed it tasks of one type with a
    // tight deadline. The first goes immediately, later ones queue until
    // the backlog pushes finishes past deadlines and drops begin.
    let (dc, pstates, s3) = setup(3);
    let mut sched = DynamicScheduler::new(&dc, &pstates, &s3);
    // Find a type/time with a planned core.
    let task_type = (0..dc.n_task_types())
        .find(|&i| (0..dc.n_cores()).any(|k| s3.tc(i, k) > 0.0))
        .expect("some planned type");
    let slack = dc.workload.task_types[task_type].deadline_slack;
    let now = 1.0;
    let mut assigned = 0;
    let mut dropped = 0;
    for _ in 0..100_000 {
        match sched.dispatch(task_type, now, now + slack) {
            DispatchDecision::Assigned { start, finish, .. } => {
                assert!(start >= now);
                assert!(finish <= now + slack + 1e-9);
                assigned += 1;
            }
            DispatchDecision::Dropped => {
                dropped += 1;
                break;
            }
        }
    }
    assert!(assigned > 0, "nothing assigned");
    assert!(dropped > 0, "backlog never saturated — drops must eventually occur");
}

#[test]
fn earliest_finish_prefers_faster_cores() {
    let (dc, pstates, s3) = setup(4);
    let mut sched =
        DynamicScheduler::with_policy(&dc, &pstates, &s3, DispatchPolicy::EarliestFinish);
    let task_type = 5;
    let slack = dc.workload.task_types[task_type].deadline_slack;
    if let DispatchDecision::Assigned { core, finish, .. } =
        sched.dispatch(task_type, 0.0, slack)
    {
        // No other idle core could have finished sooner.
        let service = finish; // start = 0 on an idle floor
        for k in 0..dc.n_cores() {
            let etc = dc
                .workload
                .ecs
                .etc(task_type, dc.core_type(k), pstates[k]);
            assert!(etc >= service - 1e-9 || k == core || etc.is_infinite() || etc >= service,
                "core {k} would finish at {etc} < chosen {service}");
        }
    } else {
        panic!("idle floor must accept the first task");
    }
}

#[test]
fn windowed_atc_behaves_like_cumulative_in_steady_state() {
    // On a stationary trace the windowed and cumulative estimators see
    // the same long-run rates; rewards should land close.
    let (dc, pstates, s3) = setup(6);
    let mut rng = StdRng::seed_from_u64(15);
    let trace = ArrivalTrace::generate(&dc.workload, 15.0, &mut rng);
    let cum = simulate_with_policy(&dc, &pstates, &s3, &trace, DispatchPolicy::AtcTc);
    let win = simulate_with_policy(
        &dc,
        &pstates,
        &s3,
        &trace,
        DispatchPolicy::AtcTcWindowed { tau_s: 3.0 },
    );
    let ratio = win.reward_rate / cum.reward_rate;
    assert!(
        (0.75..=1.35).contains(&ratio),
        "windowed {} vs cumulative {}",
        win.reward_rate,
        cum.reward_rate
    );
}

#[test]
fn windowed_atc_recovers_after_a_shift_better_than_cumulative() {
    // Apply an epoch-1 plan to a shifted epoch-2 workload: the windowed
    // estimator forgets the stale epoch and should not do worse.
    let (dc, pstates, s3) = setup(7);
    let mut shifted = dc.clone();
    for t in &mut shifted.workload.task_types {
        if t.index % 2 == 0 {
            t.arrival_rate *= 2.5;
        } else {
            t.arrival_rate /= 2.5;
        }
    }
    let mut rng = StdRng::seed_from_u64(23);
    let trace = ArrivalTrace::generate(&shifted.workload, 15.0, &mut rng);
    let cum = simulate_with_policy(&shifted, &pstates, &s3, &trace, DispatchPolicy::AtcTc);
    let win = simulate_with_policy(
        &shifted,
        &pstates,
        &s3,
        &trace,
        DispatchPolicy::AtcTcWindowed { tau_s: 2.0 },
    );
    assert!(
        win.reward_rate >= 0.9 * cum.reward_rate,
        "windowed {} much worse than cumulative {}",
        win.reward_rate,
        cum.reward_rate
    );
}

#[test]
fn policies_diverge_on_oversubscribed_floors() {
    // Sanity that the ablation measures something: the three policies
    // should not all produce identical rewards on a loaded floor.
    let (dc, pstates, s3) = setup(5);
    let mut rng = StdRng::seed_from_u64(9);
    let trace = ArrivalTrace::generate(&dc.workload, 8.0, &mut rng);
    let rewards: Vec<f64> = [
        DispatchPolicy::AtcTc,
        DispatchPolicy::EarliestFinish,
        DispatchPolicy::LeastLoaded,
    ]
    .iter()
    .map(|&p| simulate_with_policy(&dc, &pstates, &s3, &trace, p).reward_collected)
    .collect();
    assert!(
        rewards.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9),
        "all policies identical: {rewards:?}"
    );
}

const POLICIES: [DispatchPolicy; 4] = [
    DispatchPolicy::AtcTc,
    DispatchPolicy::EarliestFinish,
    DispatchPolicy::LeastLoaded,
    DispatchPolicy::AtcTcWindowed { tau_s: 2.0 },
];

/// Drive one scheduler over the seeded stream and fold its decisions into
/// `(admitted, dropped, Σ finish)`. `stretch` selects the entry point:
/// plain `dispatch`, or `dispatch_with_realized_factor` with factors drawn
/// from a second seeded stream. `disturb` re-applies the plan and kills
/// the first eight cores at the midpoint (the supervisor's two mutations:
/// rate clocks restart, the liveness mask bites).
fn decisions(
    (dc, pstates, s3): &(DataCenter, Vec<usize>, Stage3Solution),
    trace: &ArrivalTrace,
    policy: DispatchPolicy,
    stretch: bool,
    disturb: bool,
) -> (usize, usize, f64) {
    use rand::Rng;
    let mut factors = StdRng::seed_from_u64(43);
    let mut sched = DynamicScheduler::with_policy(dc, pstates, s3, policy);
    let (mut admitted, mut dropped, mut finish_sum) = (0, 0, 0.0);
    for (n, a) in trace.arrivals.iter().enumerate() {
        if disturb && n == trace.arrivals.len() / 2 {
            sched.apply_plan(dc, pstates, s3, a.time);
            sched.kill_cores(&[0, 1, 2, 3, 4, 5, 6, 7]);
        }
        let decision = if stretch {
            let factor = factors.gen_range(0.5..1.5);
            sched.dispatch_with_realized_factor(a.task_type, a.time, a.deadline, factor)
        } else {
            sched.dispatch(a.task_type, a.time, a.deadline)
        };
        match decision {
            DispatchDecision::Assigned { finish, .. } => {
                admitted += 1;
                finish_sum += finish;
            }
            DispatchDecision::Dropped => dropped += 1,
        }
    }
    (admitted, dropped, finish_sum)
}

/// Both entry points sit on one picker. The ten triples were computed by
/// the commit that still had a policy `match` in each of them.
#[test]
fn dispatch_decisions_are_pinned_for_every_policy_and_entry_point() {
    let room = setup(1);
    let trace = ArrivalTrace::generate(&room.0.workload, 6.0, &mut StdRng::seed_from_u64(41));
    let mut got = Vec::new();
    for stretch in [false, true] {
        for policy in POLICIES {
            got.push(decisions(&room, &trace, policy, stretch, false));
        }
    }
    got.push(decisions(&room, &trace, POLICIES[0], false, true));
    got.push(decisions(&room, &trace, POLICIES[3], true, true));
    assert_eq!(got, PINNED_DECISIONS);
}

const PINNED_DECISIONS: [(usize, usize, f64); 10] = [
    (953, 308, 5057.965811469008),
    (1261, 0, 5766.298770481612),
    (1261, 0, 5869.96844499859),
    (1057, 204, 5561.004446471594),
    (957, 304, 5054.52087287943),
    (1261, 0, 5734.427057898499),
    (1261, 0, 5787.317586737008),
    (1056, 205, 5524.302614309196),
    (999, 262, 5553.441361650455),
    (1063, 198, 5804.5573092691175),
];

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// A realized factor of exactly 1 is the plain `dispatch`: on any
    /// seeded stream, under any policy, the two entry points pick the same
    /// core and book the same start and finish for every arrival.
    #[test]
    fn unit_factor_dispatch_is_plain_dispatch(trace_seed in 0u64..1_000_000, policy in 0usize..4) {
        let (dc, pstates, s3) = setup(1);
        let trace = ArrivalTrace::generate(&dc.workload, 3.0, &mut StdRng::seed_from_u64(trace_seed));
        let mut plain = DynamicScheduler::with_policy(&dc, &pstates, &s3, POLICIES[policy]);
        let mut unit = DynamicScheduler::with_policy(&dc, &pstates, &s3, POLICIES[policy]);
        for a in &trace.arrivals {
            proptest::prop_assert_eq!(
                plain.dispatch(a.task_type, a.time, a.deadline),
                unit.dispatch_with_realized_factor(a.task_type, a.time, a.deadline, 1.0)
            );
        }
    }
}
