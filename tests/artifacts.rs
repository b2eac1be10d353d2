//! Artifact-pipeline integration tests: scenario snapshots across crate
//! boundaries — the reproducibility feature a downstream user leans on
//! when filing a bug or pinning a result.

use thermaware::core::Solver;
use thermaware::datacenter::{ScenarioParams, ScenarioSnapshot};

#[test]
fn snapshot_restores_and_replans_to_the_same_reward() {
    let dc = ScenarioParams {
        n_nodes: 8,
        n_crac: 1,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(21)
    .unwrap();
    let original = Solver::new(&dc).solve().unwrap();

    // Round-trip through JSON, as an artifact file would.
    let json = serde_json::to_string(&ScenarioSnapshot::capture(&dc)).unwrap();
    let restored = serde_json::from_str::<ScenarioSnapshot>(&json)
        .unwrap()
        .restore()
        .unwrap();
    let replanned = Solver::new(&restored).solve().unwrap();

    let diff = (original.reward_rate() - replanned.reward_rate()).abs();
    assert!(
        diff <= 1e-6 * (1.0 + original.reward_rate()),
        "original {} vs restored {}",
        original.reward_rate(),
        replanned.reward_rate()
    );
    assert_eq!(original.pstates, replanned.pstates);
}

#[test]
fn snapshot_file_size_is_reasonable() {
    // Artifacts get attached to issues; a 10-node scenario should stay
    // well under a megabyte even with the full coefficient matrix.
    let dc = ScenarioParams::small_test().build(2).unwrap();
    let json = serde_json::to_string(&ScenarioSnapshot::capture(&dc)).unwrap();
    assert!(
        json.len() < 1_000_000,
        "snapshot unexpectedly large: {} bytes",
        json.len()
    );
    // And it includes the interference matrix (the expensive-to-recreate
    // part).
    assert!(json.contains("interference"));
}
