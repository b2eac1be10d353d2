//! Properties of the chip-level migration rung.
//!
//! Migration is the degradation rung between throttle and shed: it
//! permutes P-states *within* each node, so node power totals — and with
//! them every room-level redline and the Eq.-18 power cap — are exactly
//! invariant, and no reward is shed. These tests pin that contract:
//!
//! 1. For any assignment and any inlet profile, `migrate_to_tspd` never
//!    raises the fleet peak and never moves a watt between nodes.
//! 2. Under seeded chaos with a hot chip attached, the supervisor logs a
//!    `ChipHotspot` violation and answers it with `Migrate` (or the
//!    targeted chip throttle) before ever reaching for load shedding,
//!    and still ends in a typed outcome.
//! 3. A chip model that never trips leaves a run bit-identical to
//!    running with no chip model at all.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use thermaware_core::{Solver, ThreeStageSolution};
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::{
    migrate_to_tspd, Action, EventKind, FaultScript, Supervisor, SupervisorConfig, Violation,
};
use thermaware_thermal::{ChipModel, ChipParams};

const HORIZON_S: f64 = 10.0;

/// One solved scenario shared across cases (building and planning is the
/// expensive part; the properties are about the migration rung).
fn scenario() -> &'static (DataCenter, ThreeStageSolution) {
    static SCENARIO: OnceLock<(DataCenter, ThreeStageSolution)> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let dc = ScenarioParams {
            n_nodes: 8,
            n_crac: 2,
            ..ScenarioParams::small_test()
        }
        .build(1)
        .expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        (dc, plan)
    })
}

fn chip_for(dc: &DataCenter, t_dtm_c: f64) -> ChipModel {
    let cores: Vec<usize> = dc.node_types.iter().map(|t| t.cores_per_node).collect();
    ChipModel::build(&cores, &ChipParams { t_dtm_c, ..ChipParams::default() })
        .expect("chip model builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// TSPD/redline safety: migration never raises the fleet-wide die
    /// peak, and node power totals are invariant up to summation rounding
    /// (the per-core draws are a permutation; only the order of the sum
    /// changes) — so a plan that was room-feasible before the rung is
    /// room-feasible after it.
    #[test]
    fn migration_never_heats_and_never_moves_power(
        seed in 0u64..1_000_000,
        inlet_lo in 15.0f64..35.0,
        t_dtm in 20.0f64..120.0,
    ) {
        let (dc, plan) = scenario();
        let chip = chip_for(dc, t_dtm);
        let mut rng = StdRng::seed_from_u64(seed);

        let mut pstates = vec![0usize; plan.pstates.len()];
        for j in 0..dc.n_nodes() {
            let off = dc.node_type(j).core.pstates.off_index();
            for k in dc.cores_of_node(j) {
                pstates[k] = rng.gen_range(0..=off);
            }
        }
        let inlets: Vec<f64> =
            (0..dc.n_nodes()).map(|_| inlet_lo + rng.gen_range(0.0..10.0)).collect();

        let out = migrate_to_tspd(dc, &chip, &inlets, &pstates, 10_000, None);

        prop_assert!(
            out.peak_after_c <= out.peak_before_c + 1e-9,
            "peak rose: {} -> {}", out.peak_before_c, out.peak_after_c
        );
        if out.fits {
            prop_assert!(out.peak_after_c <= chip.t_dtm_c() + 1e-9);
        }
        let before = dc.node_powers_from_pstates(&pstates);
        let after = dc.node_powers_from_pstates(&out.pstates);
        for (j, (b, a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                (b - a).abs() <= 1e-12 * (1.0 + b.abs()),
                "node {} power moved: {} -> {}", j, b, a
            );
        }
        for j in 0..dc.n_nodes() {
            let mut x: Vec<usize> = dc.cores_of_node(j).map(|k| pstates[k]).collect();
            let mut y: Vec<usize> = dc.cores_of_node(j).map(|k| out.pstates[k]).collect();
            x.sort_unstable();
            y.sort_unstable();
            prop_assert_eq!(x, y, "node {} P-state multiset changed", j);
        }
    }

    /// Seeded chaos with a hot chip attached: every run terminates in a
    /// typed outcome, and whenever a hotspot is detected the ladder
    /// answers it — `Migrate` or a targeted `Throttle` — before any
    /// shedding happens in the same run.
    #[test]
    fn chip_rung_fires_before_shedding_under_chaos(
        script_seed in 0u64..1_000_000,
        n_events in 0usize..5,
        t_dtm in 35.0f64..55.0,
    ) {
        let (dc, plan) = scenario();
        let chip = chip_for(dc, t_dtm);
        let mut rng = StdRng::seed_from_u64(script_seed);
        let script =
            FaultScript::random(&mut rng, n_events, HORIZON_S, dc.n_crac(), dc.n_nodes());
        let cfg = SupervisorConfig { horizon_s: HORIZON_S, ..SupervisorConfig::default() };
        let report = Supervisor::new(dc, cfg).with_chip(&chip).run(plan, &script);

        // Reaching here at all means no panic; the books must balance.
        prop_assert!(report.sim.reward_collected.is_finite());
        prop_assert!(report.sim.reward_collected >= 0.0);

        let events = report.log.events();
        let first_hotspot = events.iter().position(|e| {
            matches!(e.kind, EventKind::ViolationDetected(Violation::ChipHotspot { .. }))
        });
        let first_response = events.iter().position(|e| {
            matches!(
                e.kind,
                EventKind::ActionTaken(Action::Migrate { .. } | Action::Throttle { .. })
                    | EventKind::Backoff { .. }
            )
        });
        if let Some(h) = first_hotspot {
            let r = first_response.expect("a detected hotspot must be answered");
            prop_assert!(r > h, "response at {} must follow detection at {}", r, h);
            // The migration rung sits *above* shed on the ladder: no task
            // type may be shed before the first hotspot was answered.
            if let Some(s) = events.iter().position(|e| {
                matches!(e.kind, EventKind::ActionTaken(Action::ShedTaskType { .. }))
            }) {
                prop_assert!(s > r, "shed at {} before chip response at {}", s, r);
            }
        }
        // Every Migrate action reports real work.
        for e in events {
            if let EventKind::ActionTaken(Action::Migrate { swaps }) = &e.kind {
                prop_assert!(*swaps > 0, "a zero-swap migration must not be logged");
            }
        }
    }
}

/// A chip that never trips (DTM far above any reachable die temperature)
/// must leave the supervised run bit-identical to running with no chip
/// model attached — the rung is pay-for-what-you-use.
#[test]
fn never_tripping_chip_is_bit_identical_to_no_chip() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().node_death(2.0, 0).arrival_surge(4.0, 1.4);
    let cfg = SupervisorConfig { horizon_s: 8.0, ..SupervisorConfig::default() };

    let base = Supervisor::new(dc, cfg).run(plan, &script);
    let chip = chip_for(dc, 1_000.0);
    let with = Supervisor::new(dc, cfg).with_chip(&chip).run(plan, &script);

    assert_eq!(base.outcome, with.outcome);
    assert_eq!(
        base.sim.reward_collected.to_bits(),
        with.sim.reward_collected.to_bits(),
        "reward must be bit-identical: {} vs {}",
        base.sim.reward_collected,
        with.sim.reward_collected
    );
    assert_eq!(base.log.events().len(), with.log.events().len());
    for (b, w) in base.log.events().iter().zip(with.log.events()) {
        assert_eq!(b, w);
    }
}

/// A hot chip plus a CRAC failure drives the inlet (die ambient) up until
/// the chip rung must fire: the log shows the hotspot and a migration or
/// targeted throttle answering it.
#[test]
fn crac_failure_trips_the_chip_rung() {
    let (dc, plan) = scenario();
    let chip = chip_for(dc, 40.0);
    let script = FaultScript::new().crac_failure(1.0, 0);
    let cfg = SupervisorConfig { horizon_s: HORIZON_S, ..SupervisorConfig::default() };
    let report = Supervisor::new(dc, cfg).with_chip(&chip).run(plan, &script);

    let events = report.log.events();
    let hotspot = events.iter().position(|e| {
        matches!(e.kind, EventKind::ViolationDetected(Violation::ChipHotspot { .. }))
    });
    let h = hotspot.expect("a 40 degree DTM under a CRAC failure must trip");
    assert!(
        events[h..].iter().any(|e| matches!(
            e.kind,
            EventKind::ActionTaken(Action::Migrate { .. } | Action::Throttle { .. })
        )),
        "the hotspot must be answered by migration or targeted throttle:\n{}",
        report.log
    );
}
