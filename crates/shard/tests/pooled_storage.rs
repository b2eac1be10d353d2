//! A replan's zone sweeps build their room LPs in storage an earlier
//! zone's sweep left: the pooled replan must give, zone for zone, the
//! plan `solve_zone` gives in storage of its own — bit for bit, with the
//! same LP solves and the same pivots.
//!
//! The recorder is process-global, so this file is a process of its own
//! and its one test installs a recorder at a time.

use std::sync::Arc;

use thermaware_core::ObjectiveWeights;
use thermaware_obs::MemoryRecorder;
use thermaware_shard::fleet::{Fleet, FleetParams};
use thermaware_shard::pool::PoolConfig;
use thermaware_shard::solver::{solve_zone, FleetConfig, FleetSolver};
use thermaware_shard::ZonePlan;

/// `lp.solves` and `lp.pivots` while `run` runs, and what it returns.
fn lp_work<T>(run: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let rec = Arc::new(MemoryRecorder::new());
    let out = {
        let _installed = thermaware_obs::install(rec.clone());
        run()
    };
    let snap = rec.snapshot();
    (out, [snap.counter("lp.solves"), snap.counter("lp.pivots")])
}

/// Everything a zone plan says, with every number as its bits.
fn plan_bits(plan: &ZonePlan) -> (usize, [u64; 3], Vec<u64>, Vec<usize>, bool) {
    (
        plan.zone,
        [plan.budget_kw.to_bits(), plan.power_kw.to_bits(), plan.reward.to_bits()],
        plan.outlets.iter().map(|x| x.to_bits()).collect(),
        plan.pstates.clone(),
        plan.degraded.is_none(),
    )
}

/// Six 40-node zones on two workers, so four of the six sweeps build in
/// storage another zone left, larger or smaller than their own; seeds
/// 1–5.
#[test]
fn pooled_zones_plan_as_zones_solved_in_fresh_storage() {
    for seed in 1..=5 {
        let fleet = Arc::new(Fleet::build(&FleetParams::small(6, 40, seed), 50.0).expect("fleet builds"));
        let cfg = FleetConfig {
            pool: PoolConfig { threads: 2, ..PoolConfig::default() },
            ..FleetConfig::default()
        };
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg);
        let (pooled, pooled_work) = lp_work(|| solver.replan(None));
        assert_eq!(pooled.degraded, 0, "seed {seed}: a healthy fleet does not degrade");

        let (fresh, fresh_work) = lp_work(|| {
            pooled
                .zones
                .iter()
                .map(|zone| {
                    let dc = &fleet.zones[zone.zone];
                    let objective = ObjectiveWeights::reward_only();
                    solve_zone(dc, zone.zone, zone.budget_kw, 50.0, &objective, None).expect("the zone solves").0
                })
                .collect::<Vec<_>>()
        });
        for (p, f) in pooled.zones.iter().zip(&fresh) {
            assert_eq!(plan_bits(p), plan_bits(f), "seed {seed}, zone {}", p.zone);
        }
        assert_eq!(pooled_work, fresh_work, "seed {seed}: [lp.solves, lp.pivots]");
        assert!(pooled_work[0] > 0 && pooled_work[1] > 0, "seed {seed}: the solves were counted");
    }
}
