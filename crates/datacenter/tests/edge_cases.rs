//! Edge cases for scenario assembly and the CRAC-outlet search.

use thermaware_datacenter::{
    optimize_crac_outlets, CracSearchOptions, ScenarioParams,
};
use thermaware_thermal::CracUnit;

#[test]
fn coarse_only_search_still_finds_the_region() {
    // Very coarse step with no refinement radius: the search must still
    // land within one coarse step of the true optimum.
    let cracs = [CracUnit {
        flow_m3s: 1.0,
        min_outlet_c: 10.0,
        max_outlet_c: 25.0,
    }];
    let opts = CracSearchOptions {
        coarse_step_c: 7.5,
        refine_radius: 0,
    };
    let (best, _) =
        optimize_crac_outlets(&cracs, opts, |t| Some(-(t[0] - 18.0).powi(2))).unwrap();
    assert!((best[0] - 18.0).abs() <= 7.5 + 1e-9);
}

#[test]
fn degenerate_range_single_temperature() {
    // min == max: exactly one candidate.
    let cracs = [CracUnit {
        flow_m3s: 1.0,
        min_outlet_c: 16.0,
        max_outlet_c: 16.0,
    }];
    let (best, score) =
        optimize_crac_outlets(&cracs, CracSearchOptions::default(), |t| Some(t[0])).unwrap();
    assert_eq!(best, vec![16.0]);
    assert_eq!(score, 16.0);
}

#[test]
fn scoring_function_sees_every_crac() {
    // With 3 CRACs the score closure must receive 3-long slices.
    let unit = CracUnit {
        flow_m3s: 1.0,
        min_outlet_c: 10.0,
        max_outlet_c: 20.0,
    };
    let cracs = [unit.clone(), unit.clone(), unit];
    let mut max_len = 0;
    optimize_crac_outlets(&cracs, CracSearchOptions::default(), |t| {
        max_len = max_len.max(t.len());
        Some(0.0)
    });
    assert_eq!(max_len, 3);
}

#[test]
fn one_node_per_label_scenarios_build() {
    // Small floors exercise partial-rack labeling; all of these must
    // assemble (possibly after rejection-resampling node types).
    for n_nodes in [4usize, 5, 7, 9, 11, 15] {
        let params = ScenarioParams {
            n_nodes,
            n_crac: 1,
            ..ScenarioParams::paper(0.3, 0.1)
        };
        let dc = params.build(3).unwrap_or_else(|e| panic!("{n_nodes} nodes: {e}"));
        assert_eq!(dc.n_nodes(), n_nodes);
    }
}

#[test]
fn budgets_scale_with_floor_size() {
    let small = ScenarioParams {
        n_nodes: 8,
        n_crac: 1,
        ..ScenarioParams::paper(0.3, 0.1)
    }
    .build(1)
    .unwrap();
    let large = ScenarioParams {
        n_nodes: 24,
        n_crac: 1,
        ..ScenarioParams::paper(0.3, 0.1)
    }
    .build(1)
    .unwrap();
    assert!(large.budget.p_min_kw > small.budget.p_min_kw);
    assert!(large.budget.p_max_kw > small.budget.p_max_kw);
    // Roughly 3x the nodes -> roughly 3x the IT envelope.
    let ratio = large.budget.p_max_kw / small.budget.p_max_kw;
    assert!(ratio > 2.0 && ratio < 4.5, "ratio {ratio}");
}

#[test]
fn arrival_rates_scale_with_core_count() {
    // Eq. 15 sizes arrivals to the floor: more cores, more work.
    let small = ScenarioParams {
        n_nodes: 8,
        n_crac: 1,
        ..ScenarioParams::paper(0.3, 0.1)
    }
    .build(2)
    .unwrap();
    let large = ScenarioParams {
        n_nodes: 24,
        n_crac: 1,
        ..ScenarioParams::paper(0.3, 0.1)
    }
    .build(2)
    .unwrap();
    let total_small: f64 = small.workload.task_types.iter().map(|t| t.arrival_rate).sum();
    let total_large: f64 = large.workload.task_types.iter().map(|t| t.arrival_rate).sum();
    assert!(total_large > 1.5 * total_small);
}
