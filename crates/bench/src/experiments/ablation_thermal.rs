//! Ablation: what does thermal *awareness* buy?
//!
//! A thermal-blind variant of Stage 1 keeps the power budget but drops
//! the per-inlet redline rows (pretending heat disappears uniformly).
//! Its plan is then judged by the *real* thermal model: how often does it
//! violate redlines, and by how many degrees? This isolates the "thermal-
//! aware" half of the paper's title from the "P-state assignment" half.

use super::{ctx, set3};
use crate::stats::mean_ci95;
use thermaware_core::{verify_assignment, Solver};
use thermaware_datacenter::Args;

pub(super) const USAGE: &str = "ablation_thermal [--runs N] [--nodes N] [--cracs N] [--seed S]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 10);
    let n_nodes = args.get_usize("nodes", 40);
    let n_crac = args.get_usize("cracs", 2);
    let base_seed = args.get_u64("seed", 1);

    println!(
        "# Thermal-awareness ablation — {runs} runs x {n_nodes} nodes x {n_crac} CRACs\n"
    );
    println!("# 'blind' = redlines lifted to +1000 °C during planning, judged by the");
    println!("# real model afterwards.\n");
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>14}",
        "plan", "reward_rate", "ci95", "violations", "worst_C_over"
    );

    let mut aware_rewards = Vec::new();
    let mut blind_rewards = Vec::new();
    let mut blind_violations = 0usize;
    let mut worst_over: f64 = 0.0;
    for r in 0..runs {
        let seed = base_seed + r as u64;
        let dc = args.data_center(set3(n_nodes, n_crac), seed)?;
        let aware = ctx(Solver::new(&dc).solve(), "aware plan")?;
        aware_rewards.push(aware.reward_rate());

        // Blind planner: same machinery, redlines effectively removed.
        let mut blind_dc = dc.clone();
        blind_dc.thermal.node_redline_c = 1000.0;
        blind_dc.thermal.crac_redline_c = 1000.0;
        let blind = ctx(Solver::new(&blind_dc).solve(), "blind plan")?;
        blind_rewards.push(blind.reward_rate());
        // Judge the blind plan with the REAL redlines.
        let report = verify_assignment(&dc, blind.crac_out_c(), &blind.pstates, None);
        if report.worst_redline_violation_c > 1e-6 {
            blind_violations += 1;
            worst_over = worst_over.max(report.worst_redline_violation_c);
        }
    }
    let a = mean_ci95(&aware_rewards);
    let b = mean_ci95(&blind_rewards);
    println!(
        "{:<10} {:>14.1} {:>14.1} {:>12} {:>14}",
        "aware", a.mean, a.ci95, 0, "-"
    );
    println!(
        "{:<10} {:>14.1} {:>14.1} {:>12} {:>14.2}",
        "blind",
        b.mean,
        b.ci95,
        format!("{blind_violations}/{runs}"),
        worst_over
    );
    println!("\n# The blind plan buys {:.1}% more nominal reward by parking heat it",
        100.0 * (b.mean - a.mean) / a.mean);
    println!("# cannot remove: every violation is hardware the model would cook.");
    Ok(())
}
