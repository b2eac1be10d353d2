//! CRAC-outlet search options as the solvers see them: a wider
//! refinement or a finer coarse grid never loses reward, and a coarse
//! step the search cannot walk is refused before it searches.

use thermaware_core::min_power::{solve_min_power, MinPowerOptions};
use thermaware_core::{SolveError, Solver};
use thermaware_datacenter::{CracSearchOptions, ScenarioParams};

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
        })
        .solve()
        .unwrap();
    let fine = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            coarse_step_c: 2.0,
            refine_radius: 0,
        })
        .solve()
        .unwrap();
    assert!(fine.reward_rate() >= coarse.reward_rate() - 1e-9);
}

#[test]
fn a_coarse_step_below_the_fine_step_is_invalid_input() {
    let dc = ScenarioParams::small_test().build(5).unwrap();
    for coarse_step_c in [0.0, -5.0, f64::NAN, 0.5] {
        let search = CracSearchOptions {
            coarse_step_c,
            ..CracSearchOptions::default()
        };
        let solver = Solver::new(&dc).crac_grid(search);
        let min_power = MinPowerOptions {
            search,
            ..MinPowerOptions::default()
        };
        for (what, got) in [
            ("solve", solver.solve().map(|_| ())),
            ("baseline", solver.baseline().map(|_| ())),
            ("min_power", solve_min_power(&dc, 1.0, &min_power).map(|_| ())),
        ] {
            assert!(
                matches!(got, Err(SolveError::InvalidInput { .. })),
                "{what} at a {coarse_step_c} °C step: {got:?}"
            );
        }
    }
}
