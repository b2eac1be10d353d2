//! The power-budget master: bisect `Pconst` across zones.
//!
//! Dantzig-Wolfe-style price coordination over the concave per-zone
//! reward-vs-power profiles: at marginal price `λ` (reward per total
//! kW), each zone independently buys every hull segment whose effective
//! slope beats `λ`; total spend is nonincreasing in `λ`, so the
//! market-clearing price is found by bisection. Leftover budget (the
//! marginal segment straddling the clearing price) is distributed
//! greedily in zone order up to each zone's physical ceiling — extra
//! headroom can only help a zone's Stage-1 LP, which treats its
//! allocation as a `≤` bound.
//!
//! Whenever `total ≥ Σ_z p_min_z` the split satisfies both
//! `Σ_z B_z ≤ total` (the fleet never oversubscribes its feed) and
//! `B_z ≥ p_min_z` (every zone can at least idle). Below the idle
//! floor, no allocation is physically executable — base power cannot be
//! shed — so the master hands every zone its floor and lets the zone
//! solves' fallback ladder surface the infeasibility.
//!
//! A total that is not a finite number has nothing to bisect against
//! and is answered by rule, with no iterations: NaN and `-∞` give every
//! zone its floor, `+∞` every zone its ceiling.

use crate::profile::ZoneProfile;

/// Bisection iterations: enough for ~1e-15 relative price resolution.
const MAX_ITERS: u32 = 60;

/// Convergence tolerance on spend, relative to the total budget.
const SPEND_TOL: f64 = 1e-9;

/// The master's allocation.
#[derive(Debug, Clone)]
pub struct BudgetSplit {
    /// Per-zone budget, kW; `Σ ≤ total`.
    pub budgets: Vec<f64>,
    /// The clearing price (reward per total kW).
    pub lambda: f64,
    /// Bisection iterations performed.
    pub iterations: u32,
    /// `Σ budgets`, kW.
    pub spent_kw: f64,
}

/// Split `total_kw` across zones by price bisection over their profiles.
pub fn split_budget(total_kw: f64, profiles: &[ZoneProfile]) -> BudgetSplit {
    let n = profiles.len();
    if n == 0 {
        return BudgetSplit { budgets: Vec::new(), lambda: 0.0, iterations: 0, spent_kw: 0.0 };
    }
    if !total_kw.is_finite() {
        let (lambda, budgets): (f64, Vec<f64>) = if total_kw == f64::INFINITY {
            (0.0, profiles.iter().map(|p| p.p_max_kw).collect())
        } else {
            (f64::INFINITY, profiles.iter().map(|p| p.p_min_kw).collect())
        };
        let spent_kw = budgets.iter().sum();
        thermaware_obs::counter_add("shard.bisection_iters", 0);
        return BudgetSplit { budgets, lambda, iterations: 0, spent_kw };
    }
    let floor: f64 = profiles.iter().map(|p| p.p_min_kw).sum();
    let spend_at = |lambda: f64| -> f64 { profiles.iter().map(|p| p.est_total_at(lambda)).sum() };

    let mut iterations = 0u32;
    let lambda = if floor >= total_kw {
        // Budget below the idle floor: every zone gets its floor (the
        // physical minimum) and the infeasibility surfaces in the zone
        // solves' fallback ladder, not here.
        f64::INFINITY
    } else if spend_at(0.0) <= total_kw {
        // The whole fleet's reward-bearing capacity fits: buy it all.
        0.0
    } else {
        // Invariant: spend(hi) ≤ total < spend(lo).
        let mut lo = 0.0f64;
        let mut hi = profiles.iter().map(ZoneProfile::max_price).fold(0.0f64, f64::max) + 1.0;
        for _ in 0..MAX_ITERS {
            iterations += 1;
            let mid = 0.5 * (lo + hi);
            let spend = spend_at(mid);
            if spend <= total_kw {
                hi = mid;
            } else {
                lo = mid;
            }
            if (spend - total_kw).abs() <= SPEND_TOL * total_kw.max(1.0) {
                break;
            }
        }
        hi
    };

    let mut budgets: Vec<f64> = if lambda.is_infinite() {
        profiles.iter().map(|p| p.p_min_kw).collect()
    } else {
        profiles.iter().map(|p| p.est_total_at(lambda)).collect()
    };

    // Distribute leftover headroom (the marginal straddling segment plus
    // bisection slack) greedily in zone order, capped at each ceiling.
    let mut leftover = total_kw - budgets.iter().sum::<f64>();
    if leftover > 0.0 {
        for (b, p) in budgets.iter_mut().zip(profiles) {
            let give = (p.p_max_kw - *b).min(leftover).max(0.0);
            *b += give;
            leftover -= give;
            if leftover <= 0.0 {
                break;
            }
        }
    }

    let spent_kw = budgets.iter().sum();
    thermaware_obs::counter_add("shard.bisection_iters", u64::from(iterations));
    BudgetSplit { budgets, lambda, iterations, spent_kw }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(p_min: f64, p_max: f64, gain: f64, segments: Vec<(f64, f64)>) -> ZoneProfile {
        ZoneProfile::new(p_min, p_max, gain, segments)
    }

    #[test]
    fn single_zone_gets_the_whole_budget_up_to_ceiling() {
        let p = profile(10.0, 100.0, 1.2, vec![(5.0, 20.0), (2.0, 30.0)]);
        let split = split_budget(55.0, std::slice::from_ref(&p));
        assert!((split.budgets[0] - 55.0).abs() < 1e-9, "got {}", split.budgets[0]);
        // And never beyond the physical ceiling.
        let split = split_budget(500.0, &[p]);
        assert!((split.budgets[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn never_oversubscribes_and_respects_floors() {
        let a = profile(10.0, 60.0, 1.1, vec![(4.0, 10.0), (1.0, 20.0)]);
        let b = profile(20.0, 90.0, 1.5, vec![(6.0, 15.0), (0.5, 25.0)]);
        let floor = a.p_min_kw + b.p_min_kw;
        for total in [25.0, 35.0, 60.0, 90.0, 150.0, 400.0] {
            let split = split_budget(total, &[a.clone(), b.clone()]);
            let sum: f64 = split.budgets.iter().sum();
            // Never beyond the feed — except below the idle floor, where
            // the floor itself is the physical minimum.
            assert!(sum <= total.max(floor) + 1e-6, "total {total}: Σ={sum}");
            assert!(split.budgets[0] >= a.p_min_kw - 1e-9);
            assert!(split.budgets[1] >= b.p_min_kw - 1e-9);
        }
    }

    #[test]
    fn steeper_zone_is_funded_first() {
        // Zone B's segments pay 6 reward/kW vs zone A's 1: with budget
        // for only one, B gets the marginal capacity.
        let a = profile(10.0, 60.0, 1.0, vec![(1.0, 30.0)]);
        let b = profile(10.0, 60.0, 1.0, vec![(6.0, 30.0)]);
        let split = split_budget(50.0, &[a, b]);
        // Floors take 20; the remaining 30 should go to B.
        assert!(split.budgets[1] > split.budgets[0], "split {:?}", split.budgets);
        assert!((split.budgets[1] - 40.0).abs() < 1e-6, "split {:?}", split.budgets);
    }

    #[test]
    fn sub_floor_budget_degrades_to_floors() {
        let a = profile(10.0, 60.0, 1.0, vec![(1.0, 30.0)]);
        let b = profile(10.0, 60.0, 1.0, vec![(6.0, 30.0)]);
        let split = split_budget(5.0, &[a, b]);
        assert!((split.budgets[0] - 10.0).abs() < 1e-9);
        assert!((split.budgets[1] - 10.0).abs() < 1e-9);
        assert_eq!(split.iterations, 0);
    }

    fn two_zones() -> [ZoneProfile; 2] {
        [
            profile(10.0, 60.0, 1.1, vec![(4.0, 10.0), (1.0, 20.0)]),
            profile(20.0, 90.0, 1.5, vec![(6.0, 15.0), (0.5, 25.0)]),
        ]
    }

    #[test]
    fn a_nan_total_gives_the_floors_without_bisecting() {
        let zones = two_zones();
        let split = split_budget(f64::NAN, &zones);
        assert_eq!(split.budgets, [10.0, 20.0]);
        assert_eq!(split.iterations, 0);
        assert_eq!(split.spent_kw, 30.0);
    }

    #[test]
    fn an_infinite_total_gives_the_ceilings() {
        let zones = two_zones();
        let split = split_budget(f64::INFINITY, &zones);
        assert_eq!(split.budgets, [60.0, 90.0]);
        assert_eq!((split.lambda, split.iterations), (0.0, 0));
        assert_eq!(split.spent_kw, 150.0);
    }

    #[test]
    fn a_negative_infinite_total_gives_the_floors() {
        let zones = two_zones();
        let split = split_budget(f64::NEG_INFINITY, &zones);
        assert_eq!(split.budgets, [10.0, 20.0]);
        assert_eq!(split.iterations, 0);
    }
}
