//! Workspace-level integration tests: the full Figure-2 pipeline — first
//! step (three-stage assignment) into second step (dynamic scheduler) —
//! plus cross-solver consistency on a shared scenario.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thermaware::core::{verify_assignment, Solver};
use thermaware::datacenter::ScenarioParams;
use thermaware::scheduler::simulate;
use thermaware::workload::ArrivalTrace;

fn scenario(seed: u64) -> thermaware::datacenter::DataCenter {
    ScenarioParams {
        n_nodes: 20,
        n_crac: 1,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(seed)
    .expect("scenario")
}

#[test]
fn first_step_plan_feeds_second_step_cleanly() {
    let dc = scenario(1);
    let plan = Solver::new(&dc).solve().expect("first step");
    let report = verify_assignment(&dc, plan.crac_out_c(), &plan.pstates, Some(&plan.stage3));
    assert!(report.is_feasible(), "{report:?}");

    let mut rng = StdRng::seed_from_u64(77);
    let trace = ArrivalTrace::generate(&dc.workload, 30.0, &mut rng);
    let sim = simulate(&dc, &plan.pstates, &plan.stage3, &trace);
    // The online scheduler realizes a substantial fraction of the
    // steady-state plan and never overshoots it by more than noise.
    assert!(sim.reward_rate > 0.5 * plan.reward_rate());
    assert!(sim.reward_rate < 1.1 * plan.reward_rate());
}

#[test]
fn three_stage_usually_beats_baseline_in_set3_conditions() {
    // Set 3 (static 20%, Vprop 0.3) is where the paper reports ~10%
    // average improvement. A single small scenario is noisy, so average a
    // few seeds and require a positive mean improvement.
    let mut improvements = Vec::new();
    for seed in 1..=5 {
        let dc = scenario(seed);
        let plan = Solver::new(&dc).psi_best_of([25.0, 50.0]).solve()
            .expect("plan");
        let base = Solver::new(&dc).baseline().expect("baseline");
        improvements.push(100.0 * (plan.reward_rate() - base.reward_rate) / base.reward_rate);
    }
    let mean = improvements.iter().sum::<f64>() / improvements.len() as f64;
    assert!(
        mean > 0.0,
        "expected positive mean improvement, got {mean:.2}% from {improvements:?}"
    );
}

#[test]
fn both_solvers_respect_the_same_budget_and_redlines() {
    let dc = scenario(2);
    let plan = Solver::new(&dc).solve().unwrap();
    let report = verify_assignment(&dc, plan.crac_out_c(), &plan.pstates, Some(&plan.stage3));
    assert!(report.is_feasible());

    let base = Solver::new(&dc).baseline().unwrap();
    let node_powers = thermaware::core::baseline::baseline_node_powers(&dc, &base.frac);
    let (it, cooling, state) = dc.total_power_kw(&base.crac_out_c, &node_powers);
    assert!(it + cooling <= dc.budget.p_const_kw * (1.0 + 1e-6) + 1e-6);
    assert!(dc.redlines_ok(&state));
}

#[test]
fn reward_rates_bounded_by_arrival_ceiling() {
    let dc = scenario(3);
    let ceiling = dc.workload.max_reward_rate();
    let plan = Solver::new(&dc).solve().unwrap();
    let base = Solver::new(&dc).baseline().unwrap();
    assert!(plan.reward_rate() <= ceiling * (1.0 + 1e-9));
    assert!(base.reward_rate <= ceiling * (1.0 + 1e-9));
}

#[test]
fn higher_power_budget_never_hurts() {
    // Relax the budget by 20% and re-solve: the reward cannot drop
    // (monotonicity sanity check across the whole pipeline).
    let dc = scenario(4);
    let before = Solver::new(&dc).solve()
        .unwrap()
        .reward_rate();
    let mut relaxed = dc.clone();
    relaxed.budget.p_const_kw *= 1.2;
    let after = Solver::new(&relaxed).solve()
        .unwrap()
        .reward_rate();
    assert!(
        after >= before - 1e-6,
        "more power lowered reward: {before} -> {after}"
    );
}

#[test]
fn tighter_redlines_never_help() {
    let dc = scenario(5);
    let before = Solver::new(&dc).solve()
        .unwrap()
        .reward_rate();
    let mut tight = dc.clone();
    tight.thermal.node_redline_c -= 3.0;
    let after = Solver::new(&tight).solve()
        .map(|s| s.reward_rate())
        .unwrap_or(0.0);
    assert!(
        after <= before + 1e-6,
        "tighter redline raised reward: {before} -> {after}"
    );
}
