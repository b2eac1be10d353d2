//! CRAC-outlet search strategy tests: the cheaper coordinate-descent
//! refinement must land near the exhaustive grid on real Stage-1
//! problems (the paper notes full enumeration grows exponentially with
//! the number of CRAC units, so the fallback has to be trustworthy).

use thermaware_core::Solver;
use thermaware_datacenter::{CracSearchOptions, ScenarioParams};

#[test]
fn coordinate_descent_close_to_exhaustive() {
    let dc = ScenarioParams {
        n_nodes: 12,
        n_crac: 2,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(3)
    .unwrap();
    let exhaustive = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            exhaustive_refine: true,
            ..CracSearchOptions::default()
        })
        .solve()
        .unwrap();
    let descent = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            exhaustive_refine: false,
            ..CracSearchOptions::default()
        })
        .solve()
        .unwrap();
    assert!(
        descent.reward_rate() >= 0.95 * exhaustive.reward_rate(),
        "descent {} vs exhaustive {}",
        descent.reward_rate(),
        exhaustive.reward_rate()
    );
    // Local search can tie but never beat the enumeration beyond noise
    // (the enumeration covers its whole candidate set).
    assert!(descent.reward_rate() <= exhaustive.reward_rate() * 1.02);
}

#[test]
fn wider_refinement_never_hurts() {
    let dc = ScenarioParams::small_test().build(5).unwrap();
    let narrow = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            refine_radius: 0,
            ..CracSearchOptions::default()
        })
        .solve()
        .unwrap();
    let wide = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            refine_radius: 4,
            ..CracSearchOptions::default()
        })
        .solve()
        .unwrap();
    assert!(wide.reward_rate() >= narrow.reward_rate() - 1e-9);
}

#[test]
fn finer_coarse_grid_never_hurts() {
    let dc = ScenarioParams::small_test().build(6).unwrap();
    let coarse = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            coarse_step_c: 15.0,
            refine_radius: 0,
            ..CracSearchOptions::default()
        })
        .solve()
        .unwrap();
    let fine = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            coarse_step_c: 2.0,
            refine_radius: 0,
            ..CracSearchOptions::default()
        })
        .solve()
        .unwrap();
    assert!(fine.reward_rate() >= coarse.reward_rate() - 1e-9);
}
