//! Extension experiment: task-type-dependent core power (paper Section
//! III.C's "third index on π"). Sweeps how I/O-intensive the task mix is
//! and reports the reward the power-aware Stage 3 recovers from the
//! headroom that nameplate P-state powers would waste.

use super::{ctx, set3};
use crate::stats::mean_ci95;
use thermaware_core::task_power::{reclaim_power, solve_stage3_task_aware, TaskPowerModel};
use thermaware_core::Solver;
use thermaware_datacenter::Args;

pub(super) const USAGE: &str = "task_power [--runs N] [--nodes N] [--cracs N] [--seed S]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 5);
    let n_nodes = args.get_usize("nodes", 20);
    let n_crac = args.get_usize("cracs", 1);
    let base_seed = args.get_u64("seed", 1);

    println!(
        "# Task-dependent power (Section III.C extension) — {runs} runs x {n_nodes} nodes\n"
    );
    println!("# Half the task types are I/O-bound with the given dynamic-power factor;");
    println!("# the other half stay at 1.0. idle factor 0.5.\n");
    println!(
        "{:<12} {:>12} {:>8} {:>12} {:>8} {:>12}",
        "io_factor", "fixed_gain%", "ci95", "reclaim%", "ci95", "power_kW"
    );

    for io_factor in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5] {
        let mut gains = Vec::new();
        let mut reclaim_gains = Vec::new();
        let mut powers = Vec::new();
        for r in 0..runs {
            let seed = base_seed + r as u64;
            let dc = args.data_center(set3(n_nodes, n_crac), seed)?;
            let plan = ctx(Solver::new(&dc).solve(), "plan")?;
            let model = TaskPowerModel {
                factors: (0..dc.n_task_types())
                    .map(|i| if i % 2 == 0 { io_factor } else { 1.0 })
                    .collect(),
                idle_factor: 0.5,
            };
            let aware = ctx(
                solve_stage3_task_aware(&dc, &plan.pstates, plan.crac_out_c(), &model),
                "task-aware stage 3",
            )?;
            gains.push(100.0 * (aware.reward_rate - plan.reward_rate()) / plan.reward_rate());
            let (_, reclaimed) = ctx(
                reclaim_power(&dc, &plan.pstates, plan.crac_out_c(), &model, 64),
                "reclamation",
            )?;
            reclaim_gains
                .push(100.0 * (reclaimed.reward_rate - plan.reward_rate()) / plan.reward_rate());
            powers.push(reclaimed.total_power_kw);
        }
        let g = mean_ci95(&gains);
        let rg = mean_ci95(&reclaim_gains);
        let pw = mean_ci95(&powers);
        println!(
            "{:<12.2} {:>12.2} {:>8.2} {:>12.2} {:>8.2} {:>12.2}",
            io_factor, g.mean, g.ci95, rg.mean, rg.ci95, pw.mean
        );
    }
    println!("\n# 'fixed' keeps the base plan's P-states (freed power is unusable —");
    println!("# capacity, not power, binds); 'reclaim' upgrades P-states into the");
    println!("# freed headroom, guided by the capacity duals.");
    Ok(())
}
