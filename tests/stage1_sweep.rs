//! The pinned Stage-1 CRAC sweep of the seed-1 Fig. 6 room.
//!
//! `results/BENCH_lp.json` records it (`stage1_sweep`: warm-chained
//! solves, pivots and infeasible candidates), and every change to `lp`,
//! to the Stage-1 model or to the thermal coefficients that is meant to
//! keep plans bit for bit must keep those three numbers. This test reads
//! them from that file, so the pin lives in one place, and holds the
//! file's `config` to the room it builds. The counts come from the LP
//! engine's own counters, read off a `MemoryRecorder` — installed
//! process-wide, which is why this test has a file (a process) to itself.

use serde_json::Value;
use std::path::Path;
use std::sync::Arc;
use thermaware::core::stage1::{solve_stage1, Stage1Options};
use thermaware::datacenter::ScenarioParams;
use thermaware::obs::{self, MemoryRecorder};

/// `results/BENCH_lp.json`'s number at `section.key`.
fn pinned(bench: &Value, section: &str, key: &str) -> u64 {
    let value = bench.get(section).and_then(|s| s.get(key)).and_then(Value::as_f64);
    value.unwrap_or_else(|| panic!("BENCH_lp.json has no number at {section}.{key}")) as u64
}

#[test]
fn the_pinned_room_sweeps_as_bench_lp_records() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_lp.json");
    let text = std::fs::read_to_string(&path).expect("results/BENCH_lp.json reads");
    let bench: Value = serde_json::from_str(&text).expect("results/BENCH_lp.json is JSON");
    let (n_nodes, n_crac, seed) = (150, 3, 1);
    assert_eq!(
        ["n_nodes", "n_crac", "seed"].map(|key| pinned(&bench, "config", key)),
        [n_nodes as u64, n_crac as u64, seed],
        "BENCH_lp.json records another room than this test builds"
    );
    let dc = ScenarioParams {
        n_nodes,
        n_crac,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(seed)
    .expect("the paper's scenario parameters build");
    let recorder = Arc::new(MemoryRecorder::new());
    let stage1 = {
        let _installed = obs::install(recorder.clone());
        solve_stage1(&dc, &Stage1Options::default()).expect("the room is plannable")
    };
    let seen = recorder.snapshot();
    let solves = pinned(&bench, "stage1_sweep", "warm_solves");
    assert_eq!(
        (seen.counter("lp.solves"), seen.counter("lp.pivots"), seen.counter("lp.infeasible")),
        (
            solves,
            pinned(&bench, "stage1_sweep", "warm_pivots"),
            pinned(&bench, "stage1_sweep", "infeasible"),
        )
    );
    // The search's candidates, plus the re-solve at the chosen outlets.
    assert_eq!(seen.counter("crac.candidates") + 1, solves);
    // No solve gave up: there is no second engine to hand it to.
    assert_eq!((seen.counter("lp.iteration_limit"), seen.counter("lp.internal_error")), (0, 0));
    assert!(stage1.objective > 0.0);
}
