//! The **supervised floor** riding out a mid-run CRAC failure: the same
//! plan and the same fault script are run twice on the service engine,
//! once supervised (the floor's ladder: outlet drops and thermal-aware
//! throttling, then a Stage-3 replan on what survives) and once with the
//! stale plan, and the typed event log of the supervised run is printed.
//!
//! ```sh
//! cargo run --release --example fault_recovery
//! ```

use thermaware::prelude::*;

fn main() {
    let params = ScenarioParams {
        n_nodes: 20,
        n_crac: 2,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    };
    let dc = params.build(7).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("first step");
    println!("plan: steady-state reward rate {:.1}/s", plan.reward_rate());

    // CRAC 0 dies at 10 s; a node dies at 15 s; demand surges 1.3x at 20 s.
    let script = FaultScript::new()
        .crac_failure(10.0, 0)
        .node_death(15.0, 3)
        .arrival_surge(20.0, 1.3);

    for supervise in [true, false] {
        let cfg = SupervisorConfig {
            horizon_s: 30.0,
            supervise,
            seed: 7,
            ..SupervisorConfig::default()
        };
        let report = Supervisor::new(&dc, cfg).run(&plan, &script);
        println!(
            "\n{}: {:?} — reward {:.1}/s, {} nodes dead, final violation {:+.2} °C",
            if supervise { "supervised" } else { "stale-plan" },
            report.outcome,
            report.sim.reward_rate,
            report.nodes_dead,
            report.final_violation_c
        );
        if supervise {
            println!("{}", report.log);
        }
    }
}
