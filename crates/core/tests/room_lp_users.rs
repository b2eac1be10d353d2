//! The two users of the fixed-outlet room LP other than Stage 1 — the
//! Eq. 21 baseline and the Section VIII min-power dual — pinned on
//! `ScenarioParams::small_test()` seeds 1–3. (Stage 1 itself is pinned by
//! `tests/stage1_sweep.rs`.)
//!
//! Both are held **to the bit**: a candidate's LP patched into a model
//! built once is the LP a fresh build would make of it, and both solve it
//! cold.

use thermaware_core::min_power::{solve_min_power, MinPowerOptions};
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
