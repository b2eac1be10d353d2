//! BTRAN's work per pivot, counted: a gate on work, not on seconds, so it
//! reads the same on a machine of any speed.
//!
//! `lp.btran_visits` counts the eta entries and factor entries every
//! BTRAN of a solve read. On the pinned seed-1 Fig. 6 Stage-1 sweep the
//! pivot count is pinned too (2,154, `stage1_sweep.rs`), so the ratio is
//! exact. A `MemoryRecorder` is installed process-wide, which is why this
//! test has a file (a process) to itself.

use std::sync::Arc;
use thermaware::core::stage1::{solve_stage1, Stage1Options};
use thermaware::datacenter::ScenarioParams;
use thermaware::obs::{self, MemoryRecorder};

/// Twice the 764.6 per pivot the hypersparse BTRAN reads on this sweep
/// (~380 per BTRAN, ~2 BTRANs per pivot). The dense walk it replaced read
/// every eta entry and every factor nonzero, ~3.6k per BTRAN.
const VISITS_PER_PIVOT: f64 = 1530.0;

#[test]
fn a_btran_reads_what_its_nonzeros_reach() {
    let dc = ScenarioParams {
        n_nodes: 150,
        n_crac: 3,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(1)
    .expect("the paper's scenario parameters build");
    let recorder = Arc::new(MemoryRecorder::new());
    {
        let _installed = obs::install(recorder.clone());
        solve_stage1(&dc, &Stage1Options::default()).expect("the room is plannable");
    }
    let seen = recorder.snapshot();
    let pivots = seen.counter("lp.pivots");
    assert_eq!(pivots, 2154, "the pinned sweep");
    let per_pivot = seen.counter("lp.btran_visits") as f64 / pivots as f64;
    assert!(
        per_pivot < VISITS_PER_PIVOT,
        "lp.btran_visits: {per_pivot:.1} per pivot over {pivots} pivots, the gate is {VISITS_PER_PIVOT}"
    );
}
