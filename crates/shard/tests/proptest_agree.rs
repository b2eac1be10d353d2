//! Decomposition agreement: the pooled, warm-started, fault-tolerant
//! fleet solve must match the sequential monolithic oracle — the zone
//! decomposition and the worker pool are accelerators and fault
//! domains, never answer-changers.
//!
//! Mirrors `crates/lp/tests/proptest_warm.rs`: small random instances,
//! tight relative tolerance, and an extra single-zone check that pins
//! the master to the undecomposed three-stage solver.

use std::sync::Arc;

use proptest::prelude::*;
use thermaware_core::{ObjectiveWeights, Solver};
use thermaware_shard::fleet::{Fleet, FleetParams};
use thermaware_shard::pool::PoolConfig;
use thermaware_shard::solver::{solve_monolithic, FleetConfig, FleetSolver};

fn cfg(threads: usize) -> FleetConfig {
    FleetConfig {
        pool: PoolConfig { threads, ..PoolConfig::default() },
        ..FleetConfig::default()
    }
}

proptest! {
    // Each case runs 2–3 full zone solves; keep the count low enough for
    // debug-mode CI while still sweeping seeds and shapes.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All zones healthy: pooled replan == sequential monolithic solve,
    /// zone for zone, to solver tolerance.
    #[test]
    fn sharded_solve_matches_monolithic(
        n_zones in 2usize..4,
        nodes_per_zone in 4usize..8,
        seed in 0u64..1_000,
        threads in 1usize..4,
    ) {
        let fleet = Arc::new(
            Fleet::build(&FleetParams::small(n_zones, nodes_per_zone, seed), 50.0)
                .expect("fleet builds"),
        );
        let mono = solve_monolithic(&fleet, 50.0, &ObjectiveWeights::reward_only())
            .expect("monolithic solve");
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg(threads));
        let plan = solver.replan(None);

        prop_assert_eq!(plan.degraded, 0, "healthy fleet must not degrade");
        plan.verify(&fleet).expect("fleet invariants");

        let tol = 1e-6 * (1.0 + mono.reward.abs());
        prop_assert!(
            (plan.reward - mono.reward).abs() <= tol,
            "pooled {} vs monolithic {}", plan.reward, mono.reward
        );
        for (p, m) in plan.zones.iter().zip(&mono.zones) {
            let ztol = 1e-6 * (1.0 + m.reward.abs());
            prop_assert!(
                (p.reward - m.reward).abs() <= ztol,
                "zone {}: pooled {} vs monolithic {}", p.zone, p.reward, m.reward
            );
            prop_assert!((p.budget_kw - m.budget_kw).abs() <= 1e-9 * (1.0 + m.budget_kw));
        }
    }

    /// A warm replan (epoch 1, basis carried from epoch 0) must still
    /// match the cold monolithic answer — warm bases accelerate, never
    /// change, the optimum.
    #[test]
    fn warm_replan_matches_cold(
        nodes_per_zone in 4usize..8,
        seed in 0u64..1_000,
    ) {
        let fleet = Arc::new(
            Fleet::build(&FleetParams::small(2, nodes_per_zone, seed), 50.0)
                .expect("fleet builds"),
        );
        let mono = solve_monolithic(&fleet, 50.0, &ObjectiveWeights::reward_only())
            .expect("monolithic solve");
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg(2));
        solver.replan(None);
        let warm = solver.replan(None); // second epoch: warm bases in play
        prop_assert_eq!(warm.degraded, 0);
        let tol = 1e-6 * (1.0 + mono.reward.abs());
        prop_assert!(
            (warm.reward - mono.reward).abs() <= tol,
            "warm {} vs cold monolithic {}", warm.reward, mono.reward
        );
    }

    /// The multi-objective options thread through the decomposition the
    /// same way: pooled replan under a priced objective == sequential
    /// monolithic solve under the same weights.
    #[test]
    fn priced_objective_still_agrees(
        nodes_per_zone in 4usize..8,
        seed in 0u64..1_000,
        price_per_kwh in 0.0f64..30.0,
    ) {
        let weights = ObjectiveWeights {
            price_per_kwh,
            ..ObjectiveWeights::reward_only()
        };
        let fleet = Arc::new(
            Fleet::build(&FleetParams::small(2, nodes_per_zone, seed), 50.0)
                .expect("fleet builds"),
        );
        let mono = solve_monolithic(&fleet, 50.0, &weights).expect("monolithic solve");
        let mut solver = FleetSolver::new(
            Arc::clone(&fleet),
            FleetConfig { objective: weights, ..cfg(2) },
        );
        let plan = solver.replan(None);
        prop_assert_eq!(plan.degraded, 0, "healthy fleet must not degrade");
        plan.verify(&fleet).expect("fleet invariants");
        let tol = 1e-6 * (1.0 + mono.reward.abs());
        prop_assert!(
            (plan.reward - mono.reward).abs() <= tol,
            "pooled {} vs monolithic {} at price {}", plan.reward, mono.reward, price_per_kwh
        );
    }
}

/// A single-zone fleet collapses the decomposition entirely: the master
/// hands the zone the whole budget, so the sharded answer must equal the
/// plain `Solver::solve` on that zone's data center.
#[test]
fn single_zone_fleet_matches_global_three_stage() {
    let fleet = Arc::new(
        Fleet::build(&FleetParams::small(1, 8, 42), 50.0).expect("fleet builds"),
    );
    let global = Solver::new(&fleet.zones[0])
        .solve()
        .expect("global solve");
    let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg(2));
    let plan = solver.replan(None);
    assert_eq!(plan.degraded, 0);
    let tol = 1e-9 * (1.0 + global.reward_rate().abs());
    assert!(
        (plan.reward - global.reward_rate()).abs() <= tol,
        "sharded {} vs global {}",
        plan.reward,
        global.reward_rate()
    );
}
