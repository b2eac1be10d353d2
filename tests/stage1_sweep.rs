//! The pinned Stage-1 CRAC sweep of the seed-1 Fig. 6 room.
//!
//! `results/BENCH_lp.json` records it at 190 warm-chained solves, 2,154
//! pivots and 34 infeasible candidates, and every change to `lp`, to the
//! Stage-1 model or to the thermal coefficients that is meant to keep
//! plans bit for bit must keep these three numbers. The counts come from
//! the LP engine's own counters, read off a `MemoryRecorder` — installed
//! process-wide, which is why this test has a file (a process) to itself.

use std::sync::Arc;
use thermaware::core::stage1::{solve_stage1, Stage1Options};
use thermaware::datacenter::ScenarioParams;
use thermaware::obs::{self, MemoryRecorder};

#[test]
fn seed_1_fig6_room_sweeps_190_solves_2154_pivots_34_infeasible() {
    let dc = ScenarioParams {
        n_nodes: 150,
        n_crac: 3,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(1)
    .expect("the paper's scenario parameters build");
    let recorder = Arc::new(MemoryRecorder::new());
    let stage1 = {
        let _installed = obs::install(recorder.clone());
        solve_stage1(&dc, &Stage1Options::default()).expect("the room is plannable")
    };
    let seen = recorder.snapshot();
    assert_eq!(
        (
            seen.counter("lp.solves"),
            seen.counter("lp.pivots"),
            seen.counter("lp.infeasible"),
        ),
        (190, 2154, 34)
    );
    // The search's candidates, plus the re-solve at the chosen outlets.
    assert_eq!(seen.counter("crac.candidates") + 1, 190);
    // No solve gave up: there is no second engine to hand it to.
    assert_eq!((seen.counter("lp.iteration_limit"), seen.counter("lp.internal_error")), (0, 0));
    assert!(stage1.objective > 0.0);
}
