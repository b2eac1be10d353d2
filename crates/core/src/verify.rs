//! Independent verification of a final assignment against the **exact**
//! models — the clamped CRAC power of Eq. 3 and the full steady-state
//! thermal solve — rather than the linearizations the solvers used.

use crate::stage3::Stage3Solution;
use thermaware_datacenter::DataCenter;

/// The outcome of checking one assignment.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Total IT power (nodes, base included), kW.
    pub it_power_kw: f64,
    /// Total cooling power (exact Eq. 3, clamped), kW.
    pub cooling_power_kw: f64,
    /// Power budget headroom: `Pconst − (IT + cooling)`, kW (≥ 0 when
    /// feasible).
    pub power_headroom_kw: f64,
    /// Worst redline violation, °C (≤ 0 when feasible).
    pub worst_redline_violation_c: f64,
    /// Worst per-core utilization implied by the desired rates
    /// (Constraint 1 of Eq. 7; ≤ 1 when feasible). 0 when no rates were
    /// supplied.
    pub worst_core_utilization: f64,
    /// Worst arrival-rate overshoot ratio (Constraint 3; ≤ 1 when
    /// feasible). 0 when no rates were supplied.
    pub worst_arrival_ratio: f64,
}

impl VerificationReport {
    /// All constraints satisfied (with small float tolerances).
    pub fn is_feasible(&self) -> bool {
        self.power_headroom_kw >= -1e-6
            && self.worst_redline_violation_c <= 1e-6
            && self.worst_core_utilization <= 1.0 + 1e-6
            && self.worst_arrival_ratio <= 1.0 + 1e-6
    }
}

/// Check a P-state assignment (and optionally its Stage-3 rates) against
/// the exact power, thermal, capacity, and arrival constraints.
pub fn verify_assignment(
    dc: &DataCenter,
    crac_out_c: &[f64],
    pstates: &[usize],
    rates: Option<&Stage3Solution>,
) -> VerificationReport {
    let node_powers = dc.node_powers_from_pstates(pstates);
    let (it, cooling, state) = dc.total_power_kw(crac_out_c, &node_powers);
    let violation =
        state.redline_violation(dc.thermal.node_redline_c, dc.thermal.crac_redline_c);

    let (worst_util, worst_arrival) = match rates {
        None => (0.0, 0.0),
        Some(s3) => {
            let mut worst_util = 0.0_f64;
            for k in 0..dc.n_cores() {
                let nt = dc.core_type(k);
                let ps = pstates[k];
                let mut load = 0.0;
                for i in 0..dc.n_task_types() {
                    let tc = s3.tc(i, k);
                    if tc > 0.0 {
                        let ecs = dc.workload.ecs.ecs(i, nt, ps);
                        debug_assert!(ecs > 0.0, "rate on a zero-speed core");
                        load += tc / ecs;
                    }
                }
                worst_util = worst_util.max(load);
            }
            let mut worst_arrival = 0.0_f64;
            for i in 0..dc.n_task_types() {
                let total = s3.total_rate(dc, i);
                let lambda = dc.workload.task_types[i].arrival_rate;
                if lambda > 0.0 {
                    worst_arrival = worst_arrival.max(total / lambda);
                }
            }
            (worst_util, worst_arrival)
        }
    };

    VerificationReport {
        it_power_kw: it,
        cooling_power_kw: cooling,
        power_headroom_kw: dc.budget.p_const_kw - (it + cooling),
        worst_redline_violation_c: violation,
        worst_core_utilization: worst_util,
        worst_arrival_ratio: worst_arrival,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    #[test]
    fn all_off_is_feasible_with_headroom() {
        let dc = ScenarioParams::small_test().build(1).unwrap();
        let pstates = dc.off_pstates();
        let r = verify_assignment(&dc, &dc.budget.min_outlets_c.clone(), &pstates, None);
        assert!(r.is_feasible(), "{r:?}");
        assert!(r.power_headroom_kw > 0.0);
        assert_eq!(r.worst_core_utilization, 0.0);
    }

    #[test]
    fn all_p0_breaks_the_budget() {
        // Pconst = (Pmin+Pmax)/2 < Pmax, so all-P0 must be infeasible.
        let dc = ScenarioParams::small_test().build(2).unwrap();
        let pstates = vec![0usize; dc.n_cores()];
        let r = verify_assignment(&dc, &dc.budget.max_outlets_c.clone(), &pstates, None);
        assert!(!r.is_feasible());
        assert!(r.power_headroom_kw < 0.0);
    }

    #[test]
    fn too_warm_outlets_violate_redlines() {
        let dc = ScenarioParams::small_test().build(3).unwrap();
        let pstates = vec![0usize; dc.n_cores()];
        // Outlets at the node redline itself: any compute heat pushes
        // inlets over.
        let outlets = vec![dc.thermal.node_redline_c; dc.n_crac()];
        let r = verify_assignment(&dc, &outlets, &pstates, None);
        assert!(r.worst_redline_violation_c > 0.0);
    }
}
