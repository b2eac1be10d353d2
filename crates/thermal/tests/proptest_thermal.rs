//! Property tests for the thermal substrate: conservation laws and model
//! consistency must hold for *any* generated layout, flow mix, and power
//! vector — not just the unit-test examples.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thermaware_thermal::{interference, Layout, ThermalModel, RHO_CP};

/// Layout sizes that keep the debug-profile suite fast while spanning
/// 1-and 2-CRAC shapes and partial racks.
fn layout_params() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (Just(1usize), 8usize..20),
        (Just(2usize), 12usize..30),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn energy_balance_holds_for_any_powers(
        (n_crac, n_nodes) in layout_params(),
        seed in 0u64..5000,
        power_scale in 0.05f64..1.5,
        outlet in 12.0f64..22.0,
    ) {
        let layout = Layout::hot_cold_aisle(n_crac, n_nodes);
        let flows = interference::uniform_flows(&layout, 0.07, None);
        let mut rng = StdRng::seed_from_u64(seed);
        // Some size/label combinations are legitimately infeasible per
        // Table II (documented in the interference module); skip those.
        let Ok(ci) = interference::generate_ipf(&layout, &flows, &mut rng) else {
            return Ok(());
        };
        let model = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0).unwrap();

        let powers: Vec<f64> = (0..n_nodes)
            .map(|i| power_scale * (0.2 + 0.05 * (i % 5) as f64))
            .collect();
        let state = model.steady_state(&vec![outlet; n_crac], &powers);

        // First law: heat crossing the CRAC coils equals total node power.
        let total_power: f64 = powers.iter().sum();
        let heat_removed: f64 = (0..n_crac)
            .map(|c| RHO_CP * flows[c] * (state.t_in[c] - state.t_out[c]))
            .sum();
        prop_assert!(
            (total_power - heat_removed).abs() < 1e-6 * total_power.max(1.0),
            "power {total_power} vs heat {heat_removed}"
        );

        // No temperature anywhere below the coldest supply (nothing cools
        // below the CRAC outlets).
        for &t in state.t_in.iter().chain(&state.t_out) {
            prop_assert!(t >= outlet - 1e-9, "temperature {t} below supply {outlet}");
        }
    }

    #[test]
    fn affine_coefficients_match_exact_solve(
        (n_crac, n_nodes) in layout_params(),
        seed in 0u64..5000,
        outlet in 12.0f64..22.0,
    ) {
        let layout = Layout::hot_cold_aisle(n_crac, n_nodes);
        let flows = interference::uniform_flows(&layout, 0.07, None);
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(ci) = interference::generate_ipf(&layout, &flows, &mut rng) else {
            return Ok(());
        };
        let model = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0).unwrap();
        let outlets = vec![outlet; n_crac];
        let coeff = model.coefficients(&outlets);
        let powers: Vec<f64> = (0..n_nodes).map(|i| 0.1 + 0.03 * (i % 7) as f64).collect();
        let state = model.steady_state(&outlets, &powers);
        for u in 0..n_nodes {
            let affine = coeff.base_node[u]
                + (0..n_nodes).map(|j| model.g_node()[(u, j)] * powers[j]).sum::<f64>();
            prop_assert!((affine - state.t_in[n_crac + u]).abs() < 1e-8);
        }
        for c in 0..n_crac {
            let affine = coeff.base_crac[c]
                + (0..n_nodes).map(|j| model.g_crac()[(c, j)] * powers[j]).sum::<f64>();
            prop_assert!((affine - state.t_in[c]).abs() < 1e-8);
        }
    }

    #[test]
    fn superposition_of_power_vectors(
        (n_crac, n_nodes) in layout_params(),
        seed in 0u64..5000,
    ) {
        // The steady state is affine in powers at fixed outlets:
        // T(p1 + p2) - T(0) == (T(p1) - T(0)) + (T(p2) - T(0)).
        let layout = Layout::hot_cold_aisle(n_crac, n_nodes);
        let flows = interference::uniform_flows(&layout, 0.07, None);
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(ci) = interference::generate_ipf(&layout, &flows, &mut rng) else {
            return Ok(());
        };
        let model = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0).unwrap();
        let outlets = vec![16.0; n_crac];

        let p1: Vec<f64> = (0..n_nodes).map(|i| 0.1 * ((i % 3) as f64 + 1.0)).collect();
        let p2: Vec<f64> = (0..n_nodes).map(|i| 0.07 * ((i % 4) as f64)).collect();
        let sum: Vec<f64> = p1.iter().zip(&p2).map(|(a, b)| a + b).collect();

        let t0 = model.steady_state(&outlets, &vec![0.0; n_nodes]);
        let t1 = model.steady_state(&outlets, &p1);
        let t2 = model.steady_state(&outlets, &p2);
        let ts = model.steady_state(&outlets, &sum);
        for u in 0..n_crac + n_nodes {
            let lhs = ts.t_in[u] - t0.t_in[u];
            let rhs = (t1.t_in[u] - t0.t_in[u]) + (t2.t_in[u] - t0.t_in[u]);
            prop_assert!((lhs - rhs).abs() < 1e-8, "unit {u}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn generated_interference_always_validates(
        (n_crac, n_nodes) in layout_params(),
        seed in 0u64..20_000,
        hetero in any::<bool>(),
    ) {
        let layout = Layout::hot_cold_aisle(n_crac, n_nodes);
        let node_flows: Vec<f64> = (0..n_nodes)
            .map(|i| if hetero && i % 2 == 1 { 0.0828 } else { 0.07 })
            .collect();
        let flows = interference::flows_from_node_flows(&layout, &node_flows);
        let mut rng = StdRng::seed_from_u64(seed);
        // Some draws are legitimately infeasible (documented); generation
        // must either fail loudly or validate — never return garbage.
        if let Ok(ci) = interference::generate_ipf(&layout, &flows, &mut rng) {
            prop_assert!(ci.validate(&layout, &flows).is_ok());
        }
    }
}
