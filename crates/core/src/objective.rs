//! Multi-objective steady-state weights: reward versus electricity cost
//! and carbon.
//!
//! The paper's objective is pure reward rate. Real operators also see a
//! power price and a grid carbon intensity (DataCenterGym,
//! arXiv:2604.15594), so the scenario engine blends them:
//!
//! ```text
//! maximize   reward_weight · Σ reward_rate
//!          − (price + carbon_weight · carbon_intensity)/3600 · P_total
//! ```
//!
//! The cost term enters the **Stage-1** continuous LP (where power is a
//! decision variable — at fixed P-states, Stages 2–3 draw constant
//! power, so rates stay reward-driven) and the best-of-ψ ranking. The
//! reward-only default takes a separate, untouched code path, so
//! default-weight solves stay **bit-identical** to the historical
//! reward-only solver — guaranteed by branching, not by floating-point
//! identities.

use serde::{Deserialize, Serialize};

/// Blend weights for the solve objective. All-default weights mean
/// "reward only" and preserve the paper's behavior exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveWeights {
    /// Weight on the reward rate (the paper's objective). Default 1.0.
    pub reward_weight: f64,
    /// Electricity price, $ per kWh drawn. Default 0.0.
    pub price_per_kwh: f64,
    /// Weight converting carbon mass to objective units, $ per kg CO₂.
    /// Default 0.0.
    pub carbon_weight: f64,
    /// Grid carbon intensity, kg CO₂ per kWh. Default 0.0.
    pub carbon_kg_per_kwh: f64,
}

impl ObjectiveWeights {
    /// The paper's objective: reward only, no cost terms.
    pub fn reward_only() -> ObjectiveWeights {
        ObjectiveWeights {
            reward_weight: 1.0,
            price_per_kwh: 0.0,
            carbon_weight: 0.0,
            carbon_kg_per_kwh: 0.0,
        }
    }

    /// True when these weights reproduce the reward-only objective
    /// exactly (bit-level check on the defaults, so the guarded fast
    /// path cannot be entered by near-miss weights).
    pub fn is_reward_only(&self) -> bool {
        self.reward_weight.to_bits() == 1.0f64.to_bits()
            && self.price_per_kwh.to_bits() == 0.0f64.to_bits()
            && self.carbon_weight.to_bits() == 0.0f64.to_bits()
            && self.carbon_kg_per_kwh.to_bits() == 0.0f64.to_bits()
    }

    /// Combined cost rate in objective units per kilowatt-second:
    /// `(price + carbon_weight · intensity) / 3600`. This is the factor
    /// multiplying total power (kW) so the cost term is commensurate
    /// with a per-second reward rate.
    pub fn cost_rate_per_kws(&self) -> f64 {
        (self.price_per_kwh + self.carbon_weight * self.carbon_kg_per_kwh) / 3600.0
    }

    /// The blended objective for an achieved reward rate (1/s) and
    /// total power draw (kW).
    pub fn net_objective(&self, reward_rate: f64, total_power_kw: f64) -> f64 {
        self.reward_weight * reward_rate - self.cost_rate_per_kws() * total_power_kw
    }
}

impl Default for ObjectiveWeights {
    fn default() -> ObjectiveWeights {
        ObjectiveWeights::reward_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reward_only() {
        assert!(ObjectiveWeights::default().is_reward_only());
        assert_eq!(ObjectiveWeights::default().cost_rate_per_kws(), 0.0); // lint: allow(float-eq): 0/3600 is exactly 0.0
    }

    #[test]
    fn near_miss_weights_are_not_reward_only() {
        let mut w = ObjectiveWeights::reward_only();
        w.price_per_kwh = 1e-300;
        assert!(!w.is_reward_only());
        let mut w2 = ObjectiveWeights::reward_only();
        w2.reward_weight = 1.0 + f64::EPSILON;
        assert!(!w2.is_reward_only());
    }

    #[test]
    fn cost_rate_blends_price_and_carbon() {
        let w = ObjectiveWeights {
            reward_weight: 1.0,
            price_per_kwh: 0.10,
            carbon_weight: 0.05,
            carbon_kg_per_kwh: 0.4,
        };
        assert!((w.cost_rate_per_kws() - (0.10 + 0.05 * 0.4) / 3600.0).abs() < 1e-15);
        let net = w.net_objective(10.0, 100.0);
        assert!(net < 10.0 && net > 9.9);
    }

    #[test]
    fn serde_round_trip() {
        use serde::Serialize as _;
        let w = ObjectiveWeights {
            reward_weight: 0.8,
            price_per_kwh: 0.12,
            carbon_weight: 0.02,
            carbon_kg_per_kwh: 0.35,
        };
        let text = serde_json::to_string(&w.to_value()).expect("prints");
        let back: ObjectiveWeights = serde_json::from_str(&text).expect("round-trips");
        assert_eq!(back, w);
    }
}
