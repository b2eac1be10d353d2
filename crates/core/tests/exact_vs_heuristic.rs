//! Optimality-gap test: on a tiny instance the exhaustive Eq.-7 solver is
//! tractable, so we can bound how much the three-stage heuristic gives up
//! and confirm the exact optimum dominates every other solver.

use thermaware_core::minlp::solve_exact;
use thermaware_core::{verify_assignment, Solver};
use thermaware_datacenter::{DataCenter, PowerBudget};
use thermaware_linalg::Matrix;
use thermaware_power::{CoreType, NodeType, PStateTable};
use thermaware_thermal::{CracUnit, CrossInterference, Layout, ThermalModel};
use thermaware_workload::{EcsMatrix, TaskType, Workload};

/// A 2-node / 2-cores-each / 1-CRAC data center with hand-built,
/// exactly-consistent cross-interference: each node exhausts fully to the
/// CRAC, which splits its supply evenly — no recirculation, so the
/// thermal model is easy to reason about and the instance is exactly
/// enumerable.
fn tiny_dc(lambda: [f64; 2]) -> DataCenter {
    let layout = Layout::with_rack_height(1, 2, 1);
    let node_type = NodeType {
        name: "tiny".into(),
        base_power_kw: 0.10,
        cores_per_node: 2,
        core: CoreType {
            name: "tiny-core".into(),
            pstates: PStateTable::new(
                vec![0.05, 0.03],
                vec![2000.0, 1500.0],
                vec![1.2, 1.1],
            ),
        },
        air_flow_m3s: 0.83,
    };
    let flows = vec![1.66, 0.83, 0.83];
    // alpha: rows = source unit, cols = destination unit, [CRAC, n1, n2].
    let alpha = Matrix::from_rows(&[
        &[0.0, 0.5, 0.5],
        &[1.0, 0.0, 0.0],
        &[1.0, 0.0, 0.0],
    ]);
    let ci = CrossInterference::from_matrix(1, alpha);
    let thermal = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0)
        .expect("hand-built two-node model is valid");
    let cracs = vec![CracUnit {
        flow_m3s: 1.66,
        min_outlet_c: 10.0,
        max_outlet_c: 25.0,
    }];
    let ecs = EcsMatrix::from_blocks(vec![vec![vec![2.0, 1.4, 0.0], vec![1.0, 0.8, 0.0]]]);
    let workload = Workload {
        task_types: vec![
            TaskType {
                index: 0,
                arrival_rate: lambda[0],
                reward: 1.0,
                deadline_slack: 10.0,
            },
            TaskType {
                index: 1,
                arrival_rate: lambda[1],
                reward: 1.8,
                deadline_slack: 10.0,
            },
        ],
        ecs,
    };
    let node_types = vec![node_type.clone()];
    let node_type_of = vec![0, 0];
    let budget = PowerBudget::compute(&thermal, &cracs, &node_types, &node_type_of)
        .expect("budget computes for the hand-built model");
    DataCenter::new(
        layout,
        node_types,
        node_type_of,
        cracs,
        thermal,
        ci,
        workload,
        budget,
    )
}

#[test]
fn exact_dominates_heuristic_and_gap_is_small() {
    let dc = tiny_dc([3.0, 2.0]);
    let exact = solve_exact(&dc).expect("exact");
    let heuristic =
        Solver::new(&dc).psi_best_of([25.0, 50.0, 100.0]).solve()
            .expect("heuristic");
    assert!(
        exact.reward_rate >= heuristic.reward_rate() - 1e-6,
        "exact {} below heuristic {}",
        exact.reward_rate,
        heuristic.reward_rate()
    );
    // The heuristic should land close to optimal on an instance this
    // small (the relaxation is tight when cores sit on P-state powers).
    assert!(
        heuristic.reward_rate() >= 0.8 * exact.reward_rate,
        "heuristic {} far below exact {}",
        heuristic.reward_rate(),
        exact.reward_rate
    );
    // The exact solution itself verifies.
    let report = verify_assignment(&dc, &exact.crac_out_c, &exact.pstates, Some(&exact.stage3));
    assert!(report.is_feasible(), "{report:?}");
    assert!(exact.combinations_checked >= 36, "multiset space is 6 x 6");
}

#[test]
fn exact_dominates_baseline_too() {
    let dc = tiny_dc([3.0, 2.0]);
    let exact = solve_exact(&dc).expect("exact");
    let baseline = Solver::new(&dc).baseline().expect("baseline");
    assert!(
        exact.reward_rate >= baseline.reward_rate - 1e-6,
        "exact {} below baseline {}",
        exact.reward_rate,
        baseline.reward_rate
    );
}

#[test]
fn intermediate_pstates_win_when_they_are_more_efficient() {
    // In the tiny instance P-state 1's perf/W for type 0 is
    // 1.4/0.03 = 46.7 vs P0's 2.0/0.05 = 40: under a tight budget the
    // exact optimum should use P-state 1 somewhere — the effect the whole
    // paper is about.
    let dc = tiny_dc([3.0, 2.0]);
    let exact = solve_exact(&dc).expect("exact");
    assert!(
        exact.pstates.contains(&1),
        "expected intermediate P-states in {:?}",
        exact.pstates
    );
}

#[test]
fn undersubscribed_instance_serves_all_arrivals() {
    // With tiny arrival rates, every solver should earn the full reward
    // ceiling: λ · r summed.
    let dc = tiny_dc([0.1, 0.1]);
    let ceiling = dc.workload.max_reward_rate();
    let exact = solve_exact(&dc).expect("exact");
    assert!((exact.reward_rate - ceiling).abs() < 1e-6);
    let heuristic =
        Solver::new(&dc).psi_best_of([50.0]).solve().unwrap();
    assert!((heuristic.reward_rate() - ceiling).abs() < 1e-6);
}

#[test]
fn the_cap_counts_outlet_combinations_too() {
    // 36 P-state multisets is far under the cap, but a 60,001-point
    // outlet axis makes 2,160,036 (assignment, outlet) pairs: refused
    // before the grid is built, naming both counts.
    let mut dc = tiny_dc([3.0, 2.0]);
    dc.cracs[0].max_outlet_c = dc.cracs[0].min_outlet_c + 60_000.0;
    let err = solve_exact(&dc).expect_err("over the cap");
    assert!(err.contains("36 P-state combinations"), "{err}");
    assert!(err.contains("60001 outlet combinations"), "{err}");
}
