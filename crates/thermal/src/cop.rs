//! CRAC unit efficiency and power (paper Eqs. 2–3 and 8).

use crate::RHO_CP;
use serde::{Deserialize, Serialize};

/// Coefficient of Performance of a CRAC unit as a function of its outlet
/// (supply) temperature `tau` in °C — the curve measured at the HP Labs
/// Utility Data Center (Eq. 8, via Moore et al. \[22\]):
///
/// ```text
/// CoP(τ) = 0.0068 τ² + 0.0008 τ + 0.458
/// ```
///
/// Warmer supply air is cheaper to produce: CoP grows quadratically with
/// the outlet temperature, which is exactly the tradeoff the Stage-1 CRAC
/// temperature search exploits.
pub fn cop(tau_c: f64) -> f64 {
    0.0068 * tau_c * tau_c + 0.0008 * tau_c + 0.458
}

/// Power drawn by a CRAC unit (Eq. 3): heat removed (Eq. 2) divided by
/// CoP, and zero when the inlet is no warmer than the assigned outlet
/// (nothing to remove).
///
/// `flow_m3s` is the unit's air flow rate, temperatures in °C, result in
/// kW.
pub fn crac_power_kw(flow_m3s: f64, t_in: f64, t_out: f64) -> f64 {
    if t_in <= t_out {
        return 0.0;
    }
    let heat_kw = RHO_CP * flow_m3s * (t_in - t_out);
    heat_kw / cop(t_out)
}

/// A CRAC unit: its air flow and the admissible outlet-temperature range
/// searched by Stage 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CracUnit {
    /// Air flow rate in m³/s (`FCRAC` in Eqs. 2–3).
    pub flow_m3s: f64,
    /// Lowest outlet temperature the unit can be assigned, °C.
    pub min_outlet_c: f64,
    /// Highest outlet temperature the unit can be assigned, °C.
    pub max_outlet_c: f64,
}

impl CracUnit {
    /// A unit with the workspace's default searchable outlet range
    /// (10…25 °C; see DESIGN.md §5).
    #[cfg(test)]
    pub fn with_flow(flow_m3s: f64) -> CracUnit {
        CracUnit {
            flow_m3s,
            min_outlet_c: 10.0,
            max_outlet_c: 25.0,
        }
    }

    /// Power at the given inlet/outlet temperatures (Eq. 3).
    pub fn power_kw(&self, t_in: f64, t_out: f64) -> f64 {
        crac_power_kw(self.flow_m3s, t_in, t_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cop_matches_equation_8() {
        // Spot values computed by hand from Eq. 8.
        assert!((cop(0.0) - 0.458).abs() < 1e-12);
        assert!((cop(15.0) - (0.0068 * 225.0 + 0.012 + 0.458)).abs() < 1e-12);
        assert!((cop(25.0) - (0.0068 * 625.0 + 0.02 + 0.458)).abs() < 1e-12);
    }

    #[test]
    fn cop_increases_with_outlet_temperature() {
        let mut prev = cop(5.0);
        for t in 6..=40 {
            let c = cop(t as f64);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn crac_power_zero_when_no_heat() {
        assert_eq!(crac_power_kw(10.0, 15.0, 15.0), 0.0);
        assert_eq!(crac_power_kw(10.0, 14.0, 15.0), 0.0);
    }

    #[test]
    fn crac_power_matches_equation_3() {
        // flow 2 m³/s, inlet 35, outlet 15: heat = 1.205 * 2 * 20 kW.
        let heat = RHO_CP * 2.0 * 20.0;
        let expected = heat / cop(15.0);
        assert!((crac_power_kw(2.0, 35.0, 15.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn warmer_outlet_is_cheaper_for_same_inlet() {
        // Raising the outlet temperature cuts both the heat removed and
        // boosts CoP, so power strictly drops.
        let p_cold = crac_power_kw(2.0, 35.0, 12.0);
        let p_warm = crac_power_kw(2.0, 35.0, 20.0);
        assert!(p_warm < p_cold);
    }

    #[test]
    fn unit_wrapper_delegates() {
        let u = CracUnit::with_flow(3.0);
        assert_eq!(u.power_kw(30.0, 15.0), crac_power_kw(3.0, 30.0, 15.0));
        assert!(u.min_outlet_c < u.max_outlet_c);
    }
}
