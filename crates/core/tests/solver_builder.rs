//! Installing a recorder through the [`Solver`] builder must not change
//! the plan.

use thermaware_core::Solver;
use thermaware_datacenter::ScenarioParams;

fn build_dc(seed: u64) -> thermaware_datacenter::DataCenter {
    ScenarioParams {
        n_nodes: 12,
        n_crac: 2,
        ..ScenarioParams::small_test()
    }
    .build(seed)
    .expect("scenario")
}

#[test]
fn builder_memory_recorder_does_not_change_the_answer() {
    let dc = build_dc(53);
    let bare = Solver::new(&dc).solve().expect("bare");
    let rec = std::sync::Arc::new(thermaware_obs::MemoryRecorder::new());
    let observed = Solver::new(&dc).recorder(rec.clone()).solve().expect("observed");
    assert_eq!(bare, observed);
    // And the solve actually produced a trace.
    let spans = rec.spans();
    assert!(
        spans.iter().any(|s| s.name == "three_stage"),
        "expected a three_stage span, got {:?}",
        spans.iter().map(|s| s.name).collect::<Vec<_>>()
    );
}
