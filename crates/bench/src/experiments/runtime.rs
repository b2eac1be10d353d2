//! Fault-recovery experiment: the supervised floor versus a stale plan.
//!
//! A seeded floor runs the paper's three-stage plan on the service
//! engine; a CRAC unit fails mid-run and demand surges at the halfway
//! mark. The *supervised* run detects the breach and climbs the floor's
//! ladder (outlet drops, emergency throttling), then replans the rates
//! on what survives (Stage 3, as a verdict after the epoch); the
//! *unsupervised* run keeps the stale plan and takes whatever the
//! physics dishes out — nodes trip when their true inlet overshoots the
//! redline by the trip margin, losing their in-flight work for good.
//!
//! Acceptance: the supervised run must end with **zero redline
//! violation** in the recovered steady state and **at least** the stale
//! run's reward rate.

use super::{ctx, set3};
use thermaware_core::Solver;
use thermaware_datacenter::{Args, ScenarioParams};
use thermaware_runtime::FaultScript;
use thermaware_service::{Supervisor, SupervisorConfig, SupervisorReport};

pub(super) const USAGE: &str = "runtime [--nodes N] [--cracs N] [--seed S] [--margin F] [--trip F] \
                     [--horizon SECONDS] [--surge F] [--verbose 1]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 1);
    let margin = args.get_f64("margin", 1.5);
    let horizon = args.get_f64("horizon", 30.0);
    let surge = args.get_f64("surge", 1.5);
    let trip = args.get_f64("trip", 3.0);
    let verbose = args.get_u64("verbose", 0) != 0;

    let room = ScenarioParams {
        crac_flow_margin: margin,
        ..set3(24, 2)
    };
    let dc = args.data_center(room, seed)?;
    let (n_nodes, n_crac) = (dc.n_nodes(), dc.n_crac());
    let plan = ctx(Solver::new(&dc).solve(), "plan")?;

    // The script: one CRAC fails a third of the way in; demand surges at
    // the halfway mark while the floor is already degraded.
    let script = FaultScript::new()
        .crac_failure(horizon / 3.0, 0)
        .arrival_surge(horizon / 2.0, surge);

    let run = |supervise: bool| -> SupervisorReport {
        let cfg = SupervisorConfig {
            horizon_s: horizon,
            trip_margin_c: trip,
            supervise,
            seed,
            ..SupervisorConfig::default()
        };
        Supervisor::new(&dc, cfg).run(&plan, &script)
    };
    let supervised = run(true);
    let stale = run(false);

    println!(
        "## Runtime supervision — {n_nodes} nodes, {n_crac} CRACs, seed {seed}, \
         flow margin {margin:.2}, horizon {horizon:.0} s"
    );
    println!(
        "plan: reward {:.1}/s, outlets {:?} °C; script: CRAC0 fails at {:.1} s, \
         {surge:.1}x surge at {:.1} s\n",
        plan.reward_rate(),
        plan.crac_out_c(),
        horizon / 3.0,
        horizon / 2.0
    );
    println!(
        "{:<12} {:>14} {:>10} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "mode", "outcome", "reward/s", "drop%", "lost", "violation_C", "power_kW", "replans"
    );
    for (name, r) in [("supervised", &supervised), ("stale-plan", &stale)] {
        let lost: usize = r.sim.per_type.iter().map(|t| t.lost).sum();
        println!(
            "{:<12} {:>14} {:>10.1} {:>10.1} {:>10} {:>12.2} {:>10.1} {:>8}",
            name,
            format!("{:?}", r.outcome),
            r.sim.reward_rate,
            100.0 * r.sim.drop_rate(),
            lost,
            r.final_violation_c,
            r.final_power_kw,
            r.log.replans(),
        );
    }
    println!(
        "\nnodes lost: supervised {} vs stale {} (of {n_nodes}); trips: {} vs {}",
        supervised.nodes_dead,
        stale.nodes_dead,
        supervised.log.trips(),
        stale.log.trips()
    );

    if verbose {
        println!("\n### Supervised event log\n{}", supervised.log);
        println!("### Stale-plan event log\n{}", stale.log);
    }

    let zero_violation = supervised.final_violation_c <= 1e-6;
    let reward_ok = supervised.sim.reward_rate >= stale.sim.reward_rate;
    println!(
        "\nacceptance: recovered steady state safe: {} (violation {:+.2} °C); \
         supervised reward ≥ stale: {} ({:.1} vs {:.1})",
        if zero_violation { "PASS" } else { "FAIL" },
        supervised.final_violation_c,
        if reward_ok { "PASS" } else { "FAIL" },
        supervised.sim.reward_rate,
        stale.sim.reward_rate
    );
    Ok(())
}
