//! Property-based workspace invariants: whatever scenario the generator
//! produces, the solvers' outputs must verify against the exact models.

use proptest::prelude::*;
use thermaware::core::{verify_assignment, Solver};
use thermaware::datacenter::ScenarioParams;

proptest! {
    // Each case builds a scenario and runs two LP-based solvers; keep the
    // count modest so the suite stays fast in debug builds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn three_stage_output_always_verifies(
        seed in 0u64..10_000,
        n_nodes in 6usize..16,
        share in prop::sample::select(vec![0.2, 0.3]),
        v_prop in prop::sample::select(vec![0.1, 0.3]),
    ) {
        let params = ScenarioParams {
            n_nodes,
            n_crac: 1,
            ..ScenarioParams::paper(share, v_prop)
        };
        let dc = params.build(seed).expect("scenario generation");
        let plan = Solver::new(&dc).solve().expect("solve");
        let report = verify_assignment(&dc, plan.crac_out_c(), &plan.pstates, Some(&plan.stage3));
        prop_assert!(report.is_feasible(), "{report:?}");
        prop_assert!(plan.reward_rate() > 0.0);
        prop_assert!(plan.reward_rate() <= dc.workload.max_reward_rate() * (1.0 + 1e-9));
    }

    #[test]
    fn baseline_output_always_verifies(
        seed in 0u64..10_000,
        n_nodes in 6usize..16,
    ) {
        let params = ScenarioParams {
            n_nodes,
            n_crac: 1,
            ..ScenarioParams::paper(0.3, 0.1)
        };
        let dc = params.build(seed).expect("scenario generation");
        let base = Solver::new(&dc).baseline().expect("solve");
        let node_powers = thermaware::core::baseline::baseline_node_powers(&dc, &base.frac);
        let (it, cooling, state) = dc.total_power_kw(&base.crac_out_c, &node_powers);
        prop_assert!(it + cooling <= dc.budget.p_const_kw * (1.0 + 1e-6) + 1e-6);
        prop_assert!(dc.redlines_ok(&state));
        // Integerization must hold everywhere.
        for j in 0..dc.n_nodes() {
            let used: f64 =
                base.frac[j].iter().sum::<f64>() * dc.node_type(j).cores_per_node as f64;
            prop_assert!((used - used.round()).abs() < 1e-6);
        }
    }
}
