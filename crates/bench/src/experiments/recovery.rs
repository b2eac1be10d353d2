//! Durability experiment: what checkpointing costs, and what a crash
//! costs with it.
//!
//! Part 1 sweeps the snapshot interval and measures wall-clock overhead
//! of the service store (write-ahead journal + snapshots) under a
//! supervised run against the same run without any persistence (both
//! durable-fsync and buffered modes).
//!
//! Part 2 is the kill-and-resume demonstration: the stored run is
//! killed at a chosen epoch, brought back through `resume_service` (torn
//! tails truncated, CRCs verified, the journal replayed without
//! re-solving), and run to completion — and the recovered report must
//! match the uninterrupted run **exactly**: same reward, same outcome,
//! same event log.

use std::time::Instant;
use super::{ctx, set3};
use thermaware_core::Solver;
use thermaware_datacenter::{Args, ScenarioParams};
use thermaware_runtime::FaultScript;
use thermaware_service::store::{resume_service, StoreConfig};
use thermaware_service::supervisor::SupervisedRun;
use thermaware_service::{ServiceConfig, Supervisor, SupervisorConfig, SupervisorReport};

pub(super) const USAGE: &str = "recovery [--nodes N] [--cracs N] [--seed S] [--horizon SECONDS] \
                     [--kill-epoch E] [--checkpoint-dir PATH] [--retain N]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 1);
    let horizon = args.get_f64("horizon", 30.0);
    let kill_epoch = args.get_usize("kill-epoch", 17);
    let retain = args.get_usize("retain", 3);
    let dir_base = args.get_str(
        "checkpoint-dir",
        std::env::temp_dir()
            .join("thermaware-recovery-bench")
            .to_str()
            .unwrap_or("thermaware-recovery-bench"),
    );

    let room = ScenarioParams {
        crac_flow_margin: 1.5,
        ..set3(24, 2)
    };
    let dc = args.data_center(room, seed)?;
    let (n_nodes, n_crac) = (dc.n_nodes(), dc.n_crac());
    let plan = ctx(Solver::new(&dc).solve(), "plan")?;
    let script = FaultScript::new()
        .crac_failure(horizon / 3.0, 0)
        .crac_recovery(horizon * 0.6, 0)
        .arrival_surge(horizon / 2.0, 1.5);
    let cfg = SupervisorConfig {
        horizon_s: horizon,
        seed,
        ..SupervisorConfig::default()
    };
    let sup = Supervisor::new(&dc, cfg);
    let n_epochs = (horizon / ServiceConfig::default().epoch_s).ceil() as usize;

    println!(
        "## Checkpoint overhead — {n_nodes} nodes, {n_crac} CRACs, seed {seed}, \
         {n_epochs} epochs"
    );

    let t0 = Instant::now();
    let baseline = sup.run(&plan, &script);
    let t_plain = t0.elapsed();
    println!(
        "no persistence: {:>8.1} ms  ({:?}, reward {:.1}/s)\n",
        t_plain.as_secs_f64() * 1e3,
        baseline.outcome,
        baseline.sim.reward_rate
    );

    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>10}",
        "interval", "durable", "time_ms", "overhead", "snapshots"
    );
    for &interval in &[1usize, 2, 4, 8, 16] {
        for durable in [true, false] {
            let dir = std::path::PathBuf::from(&dir_base)
                .join(format!("sweep-{interval}-{durable}"));
            let store = StoreConfig {
                snapshot_interval: interval,
                retain,
                durable,
                flush_every: 1,
                ..StoreConfig::new(&dir)
            };
            let t = Instant::now();
            let run = ctx(sup.begin_stored(&plan, &script, store), "stored run")?;
            let report = ctx(finish(run), "stored run")?;
            let dt = t.elapsed();
            assert_eq!(report.sim.reward_collected, baseline.sim.reward_collected);
            let snaps = std::fs::read_dir(&dir)
                .map(|d| {
                    d.filter_map(Result::ok)
                        .filter(|e| {
                            e.file_name().to_string_lossy().starts_with("snap-")
                        })
                        .count()
                })
                .unwrap_or(0);
            println!(
                "{:<10} {:>9} {:>12.1} {:>11.2}x {:>10}",
                interval,
                durable,
                dt.as_secs_f64() * 1e3,
                dt.as_secs_f64() / t_plain.as_secs_f64().max(1e-12),
                snaps
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // -- Kill and resume ---------------------------------------------------
    let kill_epoch = kill_epoch.min(n_epochs.saturating_sub(1));
    println!("\n## Kill-and-resume — killed after epoch {kill_epoch}/{n_epochs}");
    let dir = std::path::PathBuf::from(&dir_base).join("kill");
    let store = StoreConfig { snapshot_interval: 8, retain, flush_every: 1, ..StoreConfig::new(&dir) };
    let mut run = ctx(sup.begin_stored(&plan, &script, store), "stored run")?;
    for _ in 0..kill_epoch {
        ctx(run.step(), "stored run")?;
    }
    // The crash: nothing is flushed beyond what the write-ahead protocol
    // already made durable.
    drop(run);

    let t = Instant::now();
    let (engine, info) = ctx(resume_service(&dir), "resume")?;
    let t_resume = t.elapsed();
    let run = ctx(sup.attach(engine, &script), "resume")?;
    println!(
        "recovered from snapshot at epoch {} (+{} journal epochs replayed, \
         {} B torn tail truncated) in {:.1} ms; resumes at epoch {}",
        info.snapshot_epoch,
        info.replayed_epochs,
        info.truncated_bytes,
        t_resume.as_secs_f64() * 1e3,
        run.epoch()
    );

    let report = ctx(finish(run), "finish recovered run")?;
    // Resume must be *bit-identical* to the uninterrupted run (DESIGN.md
    // §7) — compare the reward's bit pattern, which is stricter than
    // `==` (distinguishes -0.0, survives NaN) and states the contract.
    let identical = report.outcome == baseline.outcome
        && report.sim.reward_collected.to_bits() == baseline.sim.reward_collected.to_bits()
        && report.log == baseline.log;
    println!(
        "\nacceptance: resumed run identical to uninterrupted run: {} \
         (reward {:.3} vs {:.3}, {} vs {} events)",
        if identical { "PASS" } else { "FAIL" },
        report.sim.reward_collected,
        baseline.sim.reward_collected,
        report.log.events().len(),
        baseline.log.events().len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    if !identical {
        return Err("resumed run differs from the uninterrupted run".into());
    }
    Ok(())
}

/// Run to the horizon.
fn finish(mut run: SupervisedRun) -> Result<SupervisorReport, thermaware_runtime::PersistError> {
    while run.step()? {}
    Ok(run.conclude())
}
