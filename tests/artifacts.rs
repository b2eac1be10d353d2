//! Artifact-pipeline integration tests: scenario snapshots and MPS
//! export across crate boundaries — the reproducibility features a
//! downstream user leans on when filing a bug or pinning a result.

use thermaware::core::Solver;
use thermaware::datacenter::{ScenarioParams, ScenarioSnapshot};
use thermaware::lp::{to_mps, Problem, RowOp, Sense};

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
fn any_workspace_lp_exports_to_mps() {
    // Build a representative optimization model and dump it: the export
    // must contain every section and one line per variable/row at least.
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..12)
        .map(|j| p.add_var(&format!("seg{j}"), 0.0, 1.0 + j as f64 * 0.1, (j % 5) as f64))
        .collect();
    for i in 0..6 {
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, ((i * 7 + j) % 5) as f64 - 2.0))
            .collect();
        p.add_row(&format!("row{i}"), &terms, RowOp::Le, 4.0 + i as f64);
    }
    let mps = to_mps(&p, "workspace model");
    assert!(mps.contains("ENDATA"));
    for j in 0..12 {
        assert!(mps.contains(&format!("seg{j}_{j}")), "missing column {j}");
    }
    for i in 0..6 {
        assert!(mps.contains(&format!("row{i}_{i}")), "missing row {i}");
    }
    // Sanity: the model still solves after export (export is read-only).
    assert!(p.solve().is_ok());
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
