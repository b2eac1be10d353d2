//! Degraded-zone drill: an injected worker panic and a forced zone
//! timeout against a live fleet solver, with the whole episode streamed
//! to a JSONL obs trace (CI smoke via `scripts/shard_drill.sh`).
//!
//! The drill runs in release mode with a *real* per-attempt deadline, so
//! the stalled zone exercises the genuine timeout path (abandon the
//! attempt, retry, exhaust, fall back) rather than the no-deadline
//! slow-failure path the proptests use. It fails unless:
//!
//! 1. the panicked zone and the stalled zone both degrade (everyone else
//!    solves fresh),
//! 2. every epoch's plan passes [`FleetPlan::verify`] — no redline
//!    violations, no feed oversubscription, honest power bookkeeping,
//! 3. the fleet reconverges to all-healthy once the faults clear, and
//! 4. the degraded-zone evidence (timeout/panic counters, fallback
//!    counters, replan spans) actually appears in the streamed trace.

use std::sync::Arc;
use std::time::Duration;

use super::{create_parent, ctx};
use thermaware_datacenter::Args;
use thermaware_obs::JsonlRecorder;
use thermaware_shard::chaos::{ChaosScript, Fault};
use thermaware_shard::fleet::{Fleet, FleetParams};
use thermaware_shard::pool::PoolConfig;
use thermaware_shard::solver::{FleetConfig, FleetSolver};

pub(super) const USAGE: &str =
    "shard_drill [--zones N] [--nodes N] [--seed S] [--deadline-ms N] [--trace PATH]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let n_zones = args.get_usize("zones", 6);
    let nodes_per_zone = args.get_usize("nodes", 24);
    let seed = args.get_u64("seed", 11);
    let deadline_ms = args.get_u64("deadline-ms", 1500);
    let trace_path = args.get_str("trace", "results/shard_trace.jsonl");

    create_parent(&trace_path)?;
    let rec = Arc::new(ctx(JsonlRecorder::create(&trace_path), &trace_path)?);
    let outcome = {
        let _guard = thermaware_obs::install(rec.clone());
        run_drill(n_zones, nodes_per_zone, seed, deadline_ms)
    };
    ctx(rec.finish(), "trace flush")?;
    outcome.map_err(|msg| format!("FAIL: {msg}"))
}

fn run_drill(
    n_zones: usize,
    nodes_per_zone: usize,
    seed: u64,
    deadline_ms: u64,
) -> Result<(), String> {
    let fleet = Arc::new(ctx(
        Fleet::build(&FleetParams::small(n_zones, nodes_per_zone, seed), 50.0),
        "fleet",
    )?);
    println!(
        "## shard drill — {n_zones} zones x {nodes_per_zone} nodes, \
         deadline {deadline_ms} ms, trace streaming"
    );

    let cfg = FleetConfig {
        pool: PoolConfig {
            threads: thermaware_shard::pool::default_threads(n_zones),
            deadline: Some(Duration::from_millis(deadline_ms)),
            retries: 1,
            backoff: Duration::from_millis(5),
            hedge_after: None,
        },
        ..FleetConfig::default()
    };
    let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg);

    // Epoch 0: healthy — seeds every zone's last-good plan and basis.
    let healthy = solver.replan(None);
    healthy.verify(&fleet).map_err(|e| format!("healthy epoch: {e}"))?;
    if healthy.degraded != 0 {
        return Err(format!("healthy epoch degraded {} zone(s)", healthy.degraded));
    }

    // Epoch 1: zone 0 panics on every attempt; zone 1 stalls for 4x the
    // deadline on every attempt (a genuinely hung worker — the
    // supervisor must abandon it at the deadline, not wait it out).
    let mut script = ChaosScript::new();
    script.inject_persistent(1, 0, 4, Fault::Panic);
    script.inject_persistent(1, 1, 4, Fault::Stall(4 * deadline_ms));
    let faulted = solver.replan(Some(&script));
    faulted.verify(&fleet).map_err(|e| format!("faulted epoch: {e}"))?;
    println!(
        "faulted epoch: {} degraded, stats {:?}",
        faulted.degraded, faulted.stats
    );
    if faulted.zones[0].degraded.is_none() {
        return Err("panicked zone 0 was not marked degraded".into());
    }
    if faulted.zones[1].degraded.is_none() {
        return Err("stalled zone 1 was not marked degraded".into());
    }
    if faulted.degraded != 2 {
        return Err(format!("expected exactly 2 degraded zones, got {}", faulted.degraded));
    }
    if faulted.stats.panics == 0 {
        return Err("no worker panic was recorded".into());
    }
    if faulted.stats.timeouts == 0 {
        return Err("no zone timeout was recorded".into());
    }
    // Degradation must not zero out the fleet: the two degraded zones
    // ride their last-good plans, so reward stays close to healthy.
    if faulted.reward < 0.5 * healthy.reward {
        return Err(format!(
            "fallback reward collapsed: {} vs healthy {}",
            faulted.reward, healthy.reward
        ));
    }

    // Faults cleared: backoff expires and the fleet reconverges.
    let mut recovered = false;
    for _ in 0..12 {
        let plan = solver.replan(None);
        plan.verify(&fleet).map_err(|e| format!("recovery epoch: {e}"))?;
        if plan.degraded == 0 {
            let tol = 1e-6 * (1.0 + healthy.reward.abs());
            if (plan.reward - healthy.reward).abs() > tol {
                return Err(format!(
                    "reconverged reward {} != healthy {}",
                    plan.reward, healthy.reward
                ));
            }
            recovered = true;
            break;
        }
    }
    if !recovered {
        return Err("fleet never reconverged after faults cleared".into());
    }

    println!(
        "PASS: panic + timeout degraded exactly their zones, redlines held \
         every epoch, fleet reconverged"
    );
    Ok(())
}
