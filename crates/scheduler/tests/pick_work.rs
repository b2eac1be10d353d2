//! The dispatch rule's work per arrival, counted: a gate on work, not on
//! seconds, so it reads the same on a machine of any speed.
//!
//! A `MemoryRecorder` is installed process-wide, which is why this test
//! has a file (a process) to itself.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use thermaware_core::Solver;
use thermaware_datacenter::{CracSearchOptions, ScenarioParams};
use thermaware_obs::{self as obs, MemoryRecorder};
use thermaware_scheduler::simulate;
use thermaware_workload::ArrivalTrace;

/// Twice the 9.27 per arrival the walk over count levels reads on this
/// room and stream. The walk over `(count, core)` pairs it replaced read
/// 139.3 here, and a scan over every candidate reads about ten times that.
const VISITS_PER_ARRIVAL: f64 = 18.5;

/// A seeded 150-node, 3-CRAC room of the paper's scenario, planned with
/// one pass over a coarse outlet grid, and a 5-s Poisson stream on it.
#[test]
fn an_arrival_costs_a_handful_of_visits() {
    let dc = ScenarioParams {
        n_nodes: 150,
        n_crac: 3,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(1)
    .expect("scenario");
    let plan = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            coarse_step_c: 7.5,
            refine_radius: 0,
        })
        .solve()
        .expect("plan");
    let trace = ArrivalTrace::generate(&dc.workload, 5.0, &mut StdRng::seed_from_u64(7));

    let recorder = Arc::new(MemoryRecorder::new());
    {
        let _installed = obs::install(recorder.clone());
        simulate(&dc, &plan.pstates, &plan.stage3, &trace);
    }
    let seen = recorder.snapshot();
    let arrived = seen.counter("sched.arrived");
    assert_eq!(arrived, trace.arrivals.len() as u64);
    let per_arrival = seen.counter("sched.pick_visits") as f64 / arrived as f64;
    assert!(
        per_arrival < VISITS_PER_ARRIVAL,
        "sched.pick_visits: {per_arrival:.2} per arrival over {arrived} arrivals, \
         the gate is {VISITS_PER_ARRIVAL}"
    );
}
