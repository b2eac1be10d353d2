//! Robustness property: a supervised run — the service engine on its
//! floor, driven through a fault script — always terminates with a
//! typed outcome under *any* script — recovered, degraded, shed,
//! unrecoverable — and never panics, on both the supervised and the
//! unsupervised (stale-plan) path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use thermaware_core::{Solver, ThreeStageSolution};
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::FaultScript;
use thermaware_service::supervisor::{Outcome, Supervisor, SupervisorConfig};

const HORIZON_S: f64 = 8.0;

/// One solved scenario shared across cases (building and planning is the
/// expensive part; the property is about the run).
fn scenario() -> &'static (DataCenter, ThreeStageSolution) {
    static SCENARIO: OnceLock<(DataCenter, ThreeStageSolution)> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let dc = ScenarioParams {
            n_nodes: 8,
            n_crac: 2,
            ..ScenarioParams::small_test()
        }
        .build(1)
        .expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        (dc, plan)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_fault_script_ends_in_a_typed_outcome(
        script_seed in 0u64..1_000_000,
        n_events in 0usize..7,
        arrival_seed in 0u64..1_000,
        supervise in any::<bool>(),
    ) {
        let (dc, plan) = scenario();
        let mut rng = StdRng::seed_from_u64(script_seed);
        let script =
            FaultScript::random(&mut rng, n_events, HORIZON_S, dc.n_crac(), dc.n_nodes());
        let cfg = SupervisorConfig {
            horizon_s: HORIZON_S,
            supervise,
            seed: arrival_seed,
            ..SupervisorConfig::default()
        };
        let report = Supervisor::new(dc, cfg).run(plan, &script);

        // Terminated with a typed outcome (reaching here at all means no
        // panic); the outcome must be internally consistent.
        match report.outcome {
            Outcome::Nominal | Outcome::Recovered | Outcome::Shed => {
                prop_assert!(report.final_violation_c <= 1e-6,
                    "healthy outcome with violation {}", report.final_violation_c);
            }
            Outcome::Degraded => {
                prop_assert!(report.final_violation_c.is_finite());
            }
            Outcome::Unrecoverable => {}
        }
        if !matches!(report.outcome, Outcome::Shed) {
            prop_assert!(report.shed_task_types.is_empty());
        }

        // The books must balance.
        prop_assert!(report.sim.reward_collected.is_finite());
        prop_assert!(report.sim.reward_collected >= 0.0);
        for t in &report.sim.per_type {
            prop_assert!(t.completed + t.dropped + t.late + t.lost <= t.arrived);
        }
        prop_assert!(report.nodes_dead <= dc.n_nodes());

        // The log is typed and time-ordered within the horizon.
        for w in report.log.events().windows(2) {
            prop_assert!(w[0].at_s <= w[1].at_s + 1e-9);
        }
        for e in report.log.events() {
            prop_assert!((0.0..=HORIZON_S + 1e-9).contains(&e.at_s));
        }
        if !supervise {
            prop_assert_eq!(report.log.replans(), 0);
        }
    }
}
