//! Stage 2: convert continuous per-core powers into discrete P-states
//! (paper Section V.B.3).
//!
//! The paper's procedure, verbatim:
//!
//! 1. Give each core the *highest possible* P-state whose power is still
//!    at least the assigned `PCORE_k`. P-state indices increase as power
//!    falls, so this rounds the power **up** to the nearest P-state.
//! 2. Per node, while Eq. 1's node power exceeds the Stage-1 node power,
//!    increment (deepen by one) the P-state of the core currently holding
//!    the smallest P-state index — by concavity of ARR, the shallow
//!    (power-hungry) states have the worst marginal reward per watt, so
//!    they are the cheapest to give up.
//!
//! Because Stage 1's per-core distribution leaves almost every core
//! exactly on a P-state power, step 2 rarely fires.

use crate::stage1::Stage1Solution;
use thermaware_datacenter::DataCenter;

/// Round a Stage-1 power plan to a per-core P-state assignment (global
/// core order). The returned assignment never exceeds any node's Stage-1
/// core-power total (beyond a 1e-9 float tolerance), so Stage-1
/// feasibility carries over.
pub fn assign_pstates(dc: &DataCenter, stage1: &Stage1Solution) -> Vec<usize> {
    let mut pstates = vec![0usize; dc.n_cores()];
    for node in 0..dc.n_nodes() {
        let table = &dc.node_type(node).core.pstates;
        // Step 1: round each core's power up to a P-state.
        for k in dc.cores_of_node(node) {
            pstates[k] = table.deepest_at_or_above(stage1.core_power_kw[k]);
        }
        // Step 2: walk the node back under its Stage-1 power.
        let budget = stage1.node_core_power_kw[node] + 1e-9;
        loop {
            let used: f64 = dc
                .cores_of_node(node)
                .map(|k| table.power_kw(pstates[k]))
                .sum();
            if used <= budget {
                break;
            }
            // Deepen the core with the smallest (most power-hungry)
            // P-state index; the off state cannot deepen further.
            match dc.shallowest_core(&pstates, node) {
                Some(k) => pstates[k] += 1,
                None => break, // everything already off
            }
        }
    }
    pstates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::{solve_stage1, Stage1Options};
    use thermaware_datacenter::ScenarioParams;

    #[test]
    fn rounding_respects_stage1_node_power() {
        let dc = ScenarioParams::small_test().build(1).unwrap();
        let s1 = solve_stage1(&dc, &Stage1Options::default()).unwrap();
        let pstates = assign_pstates(&dc, &s1);
        assert_eq!(pstates.len(), dc.n_cores());
        for node in 0..dc.n_nodes() {
            let table = &dc.node_type(node).core.pstates;
            let used: f64 = dc
                .cores_of_node(node)
                .map(|k| table.power_kw(pstates[k]))
                .sum();
            assert!(
                used <= s1.node_core_power_kw[node] + 1e-6,
                "node {node}: {used} > {}",
                s1.node_core_power_kw[node]
            );
        }
    }

    #[test]
    fn rounding_loses_little_power() {
        // Stage 1 leaves cores on P-state powers, so the rounded plan
        // should capture nearly all of the continuous power budget.
        let dc = ScenarioParams::small_test().build(2).unwrap();
        let s1 = solve_stage1(&dc, &Stage1Options::default()).unwrap();
        let pstates = assign_pstates(&dc, &s1);
        let planned: f64 = s1.node_core_power_kw.iter().sum();
        let realized: f64 = (0..dc.n_cores())
            .map(|k| {
                dc.node_type(dc.node_of_core(k))
                    .core
                    .pstates
                    .power_kw(pstates[k])
            })
            .sum();
        assert!(
            realized >= 0.9 * planned,
            "realized {realized} of planned {planned}"
        );
        assert!(realized <= planned + 1e-6);
    }

    #[test]
    fn exact_pstate_powers_round_trip() {
        // A hand-built Stage-1 plan sitting exactly on P-state powers must
        // come back unchanged.
        let dc = ScenarioParams::small_test().build(3).unwrap();
        let table0 = &dc.node_type(0).core.pstates;
        let mut core_power = vec![0.0; dc.n_cores()];
        let mut expected = vec![0usize; dc.n_cores()];
        for k in 0..dc.n_cores() {
            let node = dc.node_of_core(k);
            let t = &dc.node_type(node).core.pstates;
            let ps = k % t.n_total();
            core_power[k] = t.power_kw(ps);
            expected[k] = ps;
        }
        let node_core_power: Vec<f64> = (0..dc.n_nodes())
            .map(|n| dc.cores_of_node(n).map(|k| core_power[k]).sum())
            .collect();
        let s1 = Stage1Solution {
            crac_out_c: vec![15.0; dc.n_crac()],
            node_core_power_kw: node_core_power,
            core_power_kw: core_power,
            objective: 0.0,
            arr_curves: vec![],
        };
        let pstates = assign_pstates(&dc, &s1);
        assert_eq!(pstates, expected);
        let _ = table0;
    }

    #[test]
    fn zero_power_means_all_off() {
        let dc = ScenarioParams::small_test().build(4).unwrap();
        let s1 = Stage1Solution {
            crac_out_c: vec![15.0; dc.n_crac()],
            node_core_power_kw: vec![0.0; dc.n_nodes()],
            core_power_kw: vec![0.0; dc.n_cores()],
            objective: 0.0,
            arr_curves: vec![],
        };
        let pstates = assign_pstates(&dc, &s1);
        for k in 0..dc.n_cores() {
            let t = &dc.node_type(dc.node_of_core(k)).core.pstates;
            assert_eq!(pstates[k], t.off_index());
        }
    }

    #[test]
    fn intermediate_power_rounds_up_then_walks_back() {
        // One core asking for power strictly between P1 and P0 rounds up
        // to P0 (step 1), then step 2 deepens it to P1 because the node
        // budget only covers the Stage-1 total.
        let dc = ScenarioParams::small_test().build(5).unwrap();
        let t = dc.node_type(0).core.pstates.clone();
        let mid = 0.5 * (t.power_kw(0) + t.power_kw(1));
        let mut core_power = vec![0.0; dc.n_cores()];
        let first_core = dc.cores_of_node(0).next().unwrap();
        core_power[first_core] = mid;
        let mut node_power = vec![0.0; dc.n_nodes()];
        node_power[0] = mid;
        let s1 = Stage1Solution {
            crac_out_c: vec![15.0; dc.n_crac()],
            node_core_power_kw: node_power,
            core_power_kw: core_power,
            objective: 0.0,
            arr_curves: vec![],
        };
        let pstates = assign_pstates(&dc, &s1);
        assert_eq!(pstates[first_core], 1, "mid-power core must settle at P1");
    }
}
