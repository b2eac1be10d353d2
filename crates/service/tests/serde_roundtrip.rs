//! JSON round-trip properties: the plan, the fault script, and the full
//! mid-flight state of a supervised run (the service state on its
//! floor). Equality must be exact (`PartialEq` on the decoded value), not
//! approximate — bit-identical resume depends on it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use thermaware_core::{Solver, ThreeStageSolution};
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::FaultScript;
use thermaware_service::engine::{ServiceConfig, ServiceEngine, ServiceState};
use thermaware_service::supervisor::{Supervisor, SupervisorConfig};

const HORIZON_S: f64 = 8.0;

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

#[test]
fn plan_round_trips_exactly() {
    let (_, plan) = scenario();
    let json = serde_json::to_string(plan).expect("encode plan");
    let back: ThreeStageSolution = serde_json::from_str(&json).expect("decode plan");
    assert_eq!(&back, plan);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fault_script_round_trips_exactly(
        script_seed in 0u64..1_000_000,
        n_events in 0usize..12,
    ) {
        let (dc, _) = scenario();
        let mut rng = StdRng::seed_from_u64(script_seed);
        let script =
            FaultScript::random(&mut rng, n_events, HORIZON_S, dc.n_crac(), dc.n_nodes());
        let json = serde_json::to_string(&script).expect("encode script");
        let back: FaultScript = serde_json::from_str(&json).expect("decode script");
        prop_assert_eq!(&back, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mid-flight supervised state — event log, live simulation, floor,
    /// backoff counters — survives JSON exactly, and a run reattached
    /// from the decoded state finishes identically to the original.
    #[test]
    fn supervisor_state_round_trips_and_resumes_exactly(
        script_seed in 0u64..1_000_000,
        n_events in 0usize..6,
        arrival_seed in 0u64..1_000,
        pause_epoch in 0usize..8,
    ) {
        let (dc, plan) = scenario();
        let mut rng = StdRng::seed_from_u64(script_seed);
        let script =
            FaultScript::random(&mut rng, n_events, HORIZON_S, dc.n_crac(), dc.n_nodes());
        let cfg = SupervisorConfig {
            horizon_s: HORIZON_S,
            seed: arrival_seed,
            ..SupervisorConfig::default()
        };
        let sup = Supervisor::new(dc, cfg);

        let baseline = sup.run(plan, &script);

        let mut live = sup.begin(plan, &script);
        for _ in 0..pause_epoch {
            live.step().expect("no store to fail");
        }
        let state = live.engine().state();
        let json = serde_json::to_string(state).expect("encode state");
        let back: ServiceState = serde_json::from_str(&json).expect("decode state");
        prop_assert_eq!(&back, state);

        // Re-encoding the decoded state is byte-stable (the CRC the
        // journal stores is well-defined).
        let json2 = serde_json::to_string(&back).expect("re-encode state");
        prop_assert_eq!(&json2, &json);

        let engine = ServiceEngine::from_state(dc.clone(), ServiceConfig::default(), back).expect("fits");
        let mut resumed = sup.attach(engine, &script).expect("reattach state");
        while resumed.step().expect("no store to fail") {}
        let report = resumed.conclude();
        prop_assert_eq!(report.outcome, baseline.outcome);
        prop_assert_eq!(report.sim.reward_collected, baseline.sim.reward_collected);
        prop_assert_eq!(&report.log, &baseline.log);
    }
}
