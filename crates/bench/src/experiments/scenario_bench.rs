//! Scenario-engine benchmark: diurnal demand and multi-objective cost,
//! snapshotted to `results/BENCH_scenarios.json`.
//!
//! Two measurements, all pure deterministic f64 arithmetic (seeded
//! simulation, no wall-clock dependence), so every gated metric is
//! stable across machines and `thermaware-analyze bench --check` gates
//! it at ±15% drift against the committed baseline:
//!
//! 1. **Diurnal sweep** — the [`Solver`] builder solves the same floor
//!    at the trough and crest of a diurnal arrival curve; the crest plan
//!    must collect strictly more reward. A supervised run under the same
//!    curve then counts the drift-triggered full replans
//!    (`Stage1Replan`) the service engine's demand EWMA asks for as
//!    demand walks away from the rates the plan was built for.
//! 2. **Multi-objective** — reward-only versus a priced objective on
//!    the same floor: the priced plan must draw no more power and the
//!    reward-only plan must stay the reward maximizer; the drill gates
//!    the relative power and reward deltas.
//!
//! The supervised run's full event log is written to `--trace` (text)
//! and uploaded as a CI artifact.
//!
//! ```sh
//! cargo run --release -p thermaware-bench -- scenario_bench    # write results/current/BENCH_scenarios.json
//! cargo run -p thermaware-analyze -- bench --check              # gate vs committed baselines
//! ```

use super::{ctx, write_file, write_json};
use thermaware_core::{ObjectiveWeights, Solver};
use thermaware_datacenter::{Args, ScenarioParams};
use thermaware_runtime::{Action, EventKind, FaultScript, Violation};
use thermaware_service::{ServiceConfig, Supervisor, SupervisorConfig};
use thermaware_workload::Curve;

pub(super) const USAGE: &str = "scenario_bench [--nodes N] [--seed S] [--price P] [--out PATH] \
                     [--trace PATH]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 1);
    // Task rewards are abstract units, so a price that bites must be
    // commensurate with the floor's marginal reward per kWh (~2e5 units
    // on the 8-node seed-1 floor); the default sits in the smooth part
    // of the trade-off curve, away from the all-or-nothing knife edges.
    let price = args.get_f64("price", 200_000.0);
    let out_path = args.get_str("out", "results/current/BENCH_scenarios.json");
    let trace_path = args.get_str("trace", "results/scenario_trace.txt");

    let room = ScenarioParams {
        n_nodes: 8,
        n_crac: 2,
        ..ScenarioParams::small_test()
    };
    let dc = args.data_center(room, seed)?;
    let n_nodes = dc.n_nodes();
    println!("## scenario bench — {n_nodes} nodes, seed {seed}");
    let mut trace = String::new();

    // -- Part 1: diurnal demand -------------------------------------------
    let day = Curve::Diurnal { base: 0.5, peak: 1.5, period_s: 12.0 };
    let solver = Solver::new(&dc).arrival_curve(day);
    let trough = ctx(solver.solve_at(0.0), "trough solve")?;
    let crest = ctx(solver.solve_at(6.0), "crest solve")?;
    assert!(
        crest.reward_rate() > trough.reward_rate(),
        "crest reward {} must beat trough {}",
        crest.reward_rate(),
        trough.reward_rate()
    );
    let crest_over_trough = crest.reward_rate() / trough.reward_rate().max(1e-12);

    let plan = ctx(Solver::new(&dc).solve(), "static plan")?;
    let cfg = SupervisorConfig {
        horizon_s: 18.0,
        demand: Some(day),
        ..SupervisorConfig::default()
    };
    let report = Supervisor::new(&dc, cfg).run(&plan, &FaultScript::new());
    let count = |pred: &dyn Fn(&EventKind) -> bool| {
        report.log.events().iter().filter(|e| pred(&e.kind)).count()
    };
    let drift_violations = count(&|k| {
        matches!(k, EventKind::ViolationDetected(Violation::DemandDrift { .. }))
    });
    let drift_replans =
        count(&|k| matches!(k, EventKind::ActionTaken(Action::Stage1Replan)));
    let epoch_s = ServiceConfig::default().epoch_s;
    assert!(
        drift_replans > 0,
        "a 3x diurnal swing must trigger at least one full replan"
    );
    println!(
        "diurnal: reward {:.2}/s (trough) -> {:.2}/s (crest) = {crest_over_trough:.3}x; \
         {drift_violations} drift violations, {drift_replans} full replans \
         over {} epochs ({:?})",
        trough.reward_rate(),
        crest.reward_rate(),
        cfg.horizon_s / epoch_s,
        report.outcome,
    );
    trace.push_str(&format!(
        "== diurnal drill ({:?}) ==\n{}\n",
        report.outcome, report.log
    ));

    // -- Part 2: multi-objective trade-off ---------------------------------
    let weights = ObjectiveWeights { price_per_kwh: price, ..ObjectiveWeights::reward_only() };
    let priced = ctx(Solver::new(&dc).objective(weights).solve(), "priced solve")?;
    let (r0, r1) = (plan.reward_rate(), priced.reward_rate());
    let (p0, p1) = (plan.total_power_kw(&dc), priced.total_power_kw(&dc));
    assert!(p1 <= p0 + 1e-9, "a positive price must not increase power");
    let power_drop_frac = (p0 - p1) / p0.max(1e-12);
    let reward_drop_frac = (r0 - r1) / r0.max(1e-12);
    assert!(
        power_drop_frac > 0.01,
        "the default price must actually trade: power only dropped {:.2}%",
        100.0 * power_drop_frac
    );
    assert!(
        priced.net_objective(&dc, &weights) >= plan.net_objective(&dc, &weights) - 1e-9,
        "under the priced objective, the priced plan must win"
    );
    println!(
        "multi-objective @ {price} $/kWh: power {p0:.1} -> {p1:.1} kW (-{:.1}%), \
         reward {r0:.2} -> {r1:.2}/s (-{:.1}%)",
        100.0 * power_drop_frac,
        100.0 * reward_drop_frac,
    );

    write_file(&trace_path, &trace)?;
    println!("trace written to {trace_path}");

    // -- Snapshot, bless, or check -----------------------------------------
    let doc = serde_json::json!({
        "experiment": "scenarios",
        "config": {
            "nodes": n_nodes,
            "seed": seed,
        },
        // Scale-free and machine-independent: drift-gated at ±15%.
        "deterministic": {
            "diurnal_crest_over_trough": crest_over_trough,
            "drift_violations": drift_violations as f64,
            "drift_replans": drift_replans as f64,
            "multiobj_power_drop_frac": power_drop_frac,
            "multiobj_reward_drop_frac": reward_drop_frac,
        },
    });

    write_json(&out_path, &doc)?;
    println!("snapshot written to {out_path}");
    Ok(())
}
