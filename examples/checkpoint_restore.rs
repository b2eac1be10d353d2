//! **Durable checkpoint/restore**: a supervised run writes an ordinary
//! service store (each epoch's arrivals, faults and replan verdict
//! journaled before it runs, snapshots every eight epochs), "crashes"
//! partway through the horizon, and is recovered through
//! `resume_service` — torn journal tails truncated, CRCs verified, the
//! journal replayed without re-solving — then finishes bit-for-bit
//! identically to a run that was never interrupted.
//!
//! ```sh
//! cargo run --release --example checkpoint_restore
//! ```

use thermaware::prelude::*;
use thermaware::service::store::StoreConfig;

fn main() {
    let params = ScenarioParams {
        n_nodes: 20,
        n_crac: 2,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    };
    let dc = params.build(7).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("first step");

    // The same eventful script as the fault_recovery example.
    let script = FaultScript::new()
        .crac_failure(10.0, 0)
        .node_death(15.0, 3)
        .arrival_surge(20.0, 1.3);
    let cfg = SupervisorConfig {
        horizon_s: 30.0,
        seed: 7,
        ..SupervisorConfig::default()
    };

    // The reference: one uninterrupted run, no persistence.
    let baseline = Supervisor::new(&dc, cfg).run(&plan, &script);
    println!(
        "uninterrupted: {:?}, reward {:.1}/s, {} events",
        baseline.outcome,
        baseline.sim.reward_rate,
        baseline.log.events().len()
    );

    // The same run writing a service store, killed after epoch 17
    // (after the CRAC failure hit and the ladder responded).
    let dir = std::env::temp_dir().join("thermaware-checkpoint-restore");
    let _ = std::fs::remove_dir_all(&dir);
    let store = || StoreConfig { snapshot_interval: 8, ..StoreConfig::new(&dir) };
    let sup = Supervisor::new(&dc, cfg);
    let mut run = sup.begin_stored(&plan, &script, store()).expect("stored run");
    for _ in 0..17 {
        run.step().expect("epoch");
    }
    drop(run);
    println!("\n\"crash\" after epoch 17; store: {}", dir.display());

    // Recovery: newest valid snapshot + deterministic journal replay.
    let (mut run, info) = sup.resume(store(), &script).expect("resume");
    println!(
        "recovered: snapshot at epoch {}, {} journal epochs replayed, resumes at {}",
        info.snapshot_epoch,
        info.replayed_epochs,
        run.epoch(),
    );
    while run.step().expect("epoch") {}
    let report = run.conclude();
    println!(
        "resumed run:   {:?}, reward {:.1}/s, {} events",
        report.outcome,
        report.sim.reward_rate,
        report.log.events().len()
    );

    assert_eq!(report.outcome, baseline.outcome);
    assert_eq!(report.sim.reward_collected, baseline.sim.reward_collected);
    assert_eq!(report.log, baseline.log);
    println!("\nresumed run is bit-identical to the uninterrupted run ✓");
    let _ = std::fs::remove_dir_all(&dir);
}
