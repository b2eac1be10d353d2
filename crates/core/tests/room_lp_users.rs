//! The three users of the fixed-outlet room LP other than Stage 1 — the
//! Eq. 21 baseline, the Section VIII min-power dual and the Section III.C
//! task-aware Stage 3 — pinned on `ScenarioParams::small_test()` seeds
//! 1–3. (Stage 1 itself is pinned by `tests/stage1_sweep.rs`.)
//!
//! The baseline and min-power are held **to the bit**: a candidate's LP
//! patched into a model built once is the LP a fresh build would make of
//! it, and both solve it cold. The task-aware solve is held to 1e-9
//! relative, with identical reclaimed P-states: its power row's right-hand
//! side is summed in Stage 1's association,
//! `Pconst − (Σ_j node_coeff_j·fixed_j + Σ_c w_c·(base_c − out_c))`, where
//! its own copy used to subtract the two sums one after the other, and its
//! terms follow the one `|g·a| < 1e-14` rule.

use thermaware_core::min_power::{solve_min_power, MinPowerOptions};
use thermaware_core::task_power::{reclaim_power, solve_stage3_task_aware, TaskPowerModel};
use thermaware_core::Solver;
use thermaware_datacenter::{DataCenter, ScenarioParams};

fn dc(seed: u64) -> DataCenter {
    ScenarioParams::small_test().build(seed).expect("small_test scenario builds")
}

/// Per seed: `reward_rate`, `reward_rate_continuous`, `crac_out_c[0]`.
const BASELINE_BITS: [[u64; 3]; 3] = [
    [0x406cc6779e81baa5, 0x406ceedf07f3d4a6, 0x4031000000000000],
    [0x406b76ef5185edd7, 0x406b8270983dc50a, 0x4031000000000000],
    [0x406f1de4a0ed5fec, 0x406fc5ea98b2d914, 0x4031000000000000],
];

#[test]
fn baseline_is_pinned_to_the_bit() {
    for (seed, want) in (1..).zip(BASELINE_BITS) {
        let sol = Solver::new(&dc(seed)).baseline().expect("baseline");
        assert_eq!(sol.crac_out_c.len(), 1);
        let got = [
            sol.reward_rate.to_bits(),
            sol.reward_rate_continuous.to_bits(),
            sol.crac_out_c[0].to_bits(),
        ];
        assert_eq!(got, want, "seed {seed}: got {got:#x?}");
    }
}

/// Per seed: `total_power_kw`, `crac_out_c[0]`, at a floor of half the
/// three-stage reward.
const MIN_POWER_BITS: [[u64; 2]; 3] = [
    [0x401deec3f9ec8f5a, 0x4031000000000000],
    [0x401d716a4fb5f6bc, 0x4031000000000000],
    [0x40201f1fcb393f76, 0x4031000000000000],
];

#[test]
fn min_power_is_pinned_to_the_bit() {
    for (seed, want) in (1..).zip(MIN_POWER_BITS) {
        let dc = dc(seed);
        let full = Solver::new(&dc).solve().expect("three-stage");
        let sol = solve_min_power(&dc, 0.5 * full.reward_rate(), &MinPowerOptions::default())
            .expect("min power");
        assert_eq!(sol.crac_out_c.len(), 1);
        let got = [sol.total_power_kw.to_bits(), sol.crac_out_c[0].to_bits()];
        assert_eq!(got, want, "seed {seed}: got {got:#x?}");
    }
}

/// Per seed: the task-aware `reward_rate` under mixed factors, and the
/// P-states `reclaim_power` ends on, one digit per core, one word per
/// node.
const TASK_AWARE: [(f64, &str); 3] = [
    (
        236.8471019528645,
        concat!(
            "00000000000000000000000000000000 ",
            "00000000000000000000000000000000 ",
            "44444444444444444444444444444444 ",
            "44444444444444444444444444444444 ",
            "44444444444444444444444444444444 ",
            "00000000000000000000000000000000 ",
            "00000000000000000000000000000000 ",
            "00000000000000000000000000000000 ",
            "21111111111111111111112444444444 ",
            "00000000111111111111111111111111"
        ),
    ),
    (
        226.10668725884412,
        concat!(
            "44444444444444444444444444444444 ",
            "44444444444444444444444444444444 ",
            "00000000000000000000000000000000 ",
            "01222222222222222222222224444444 ",
            "00000000000000000000000000000000 ",
            "00022222222222222222222222222222 ",
            "02222222222222222222222222222222 ",
            "00000000000000000000000000000000 ",
            "00000000000000000000000000000000 ",
            "22222222222222222222222222222222"
        ),
    ),
    (
        260.0279234188624,
        concat!(
            "00000000000000000000000000000000 ",
            "44444444444444444444444444444444 ",
            "00000000000000000000001222222222 ",
            "02222222222222222222222222222222 ",
            "44444444444444444444444444444444 ",
            "02222222222222222222222222222222 ",
            "00002222222222222222222222222222 ",
            "00000000000000000000000000000000 ",
            "00000000000000000000000000000000 ",
            "00000000000222222222222222222222"
        ),
    ),
];

#[test]
fn task_aware_is_pinned_to_tolerance_with_identical_reclaimed_pstates() {
    for (seed, (want_reward, want_pstates)) in (1..).zip(TASK_AWARE) {
        let dc = dc(seed);
        let plan = Solver::new(&dc).solve().expect("three-stage");
        let mixed = TaskPowerModel {
            factors: (0..dc.n_task_types())
                .map(|i| 0.5 + 0.2 * (i % 4) as f64)
                .collect(),
            idle_factor: 0.4,
        };
        let aware = solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &mixed)
            .expect("task-aware");
        assert!(
            (aware.reward_rate - want_reward).abs() <= 1e-9 * want_reward,
            "seed {seed}: reward {:?} vs pinned {want_reward:?}",
            aware.reward_rate
        );
        let (upgraded, _) = reclaim_power(&dc, &plan.pstates, plan.crac_out_c(), &mixed, 32)
            .expect("reclamation");
        let digits = (0..dc.n_nodes())
            .map(|node| {
                dc.cores_of_node(node)
                    .map(|k| char::from_digit(upgraded[k] as u32, 10).expect("single-digit P-state"))
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(digits, want_pstates, "seed {seed}");
        assert_ne!(upgraded, plan.pstates, "seed {seed}: the mix frees power to reclaim");
    }
}
