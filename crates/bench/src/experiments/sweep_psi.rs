//! Extension sweep: reward rate versus the ψ parameter.
//!
//! The paper (Section VII.B, third observation) notes that the best ψ
//! depends on arrival rates, the power constraint, and task/machine
//! affinity — it evaluates only ψ ∈ {25, 50}. This sweep maps the whole
//! curve.

use super::try_runs;
use crate::stats::mean_ci95;
use thermaware_core::Solver;
use thermaware_datacenter::{Args, ScenarioParams};

pub(super) const USAGE: &str = "sweep_psi [--runs N] [--nodes N] [--cracs N] [--seed S] [--share F] [--vprop F]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 10);
    let n_nodes = args.get_usize("nodes", 40);
    let n_crac = args.get_usize("cracs", 2);
    let base_seed = args.get_u64("seed", 1);
    let share = args.get_f64("share", 0.2);
    let v_prop = args.get_f64("vprop", 0.3);

    println!(
        "# Reward rate vs psi — {runs} runs x {n_nodes} nodes x {n_crac} CRACs, static {share}, Vprop {v_prop}\n"
    );
    println!("{:<8} {:>14} {:>10}", "psi", "reward_rate", "ci95");

    let psis = [12.5, 25.0, 37.5, 50.0, 62.5, 75.0, 87.5, 100.0];
    // Build scenarios once per run; sweep psi within.
    let per_run: Vec<Vec<f64>> = try_runs(runs, |r| {
        let room = ScenarioParams {
            n_nodes,
            n_crac,
            ..ScenarioParams::paper(share, v_prop)
        };
        let dc = args.data_center(room, base_seed + r as u64)?;
        Ok(psis
            .iter()
            .map(|&psi| {
                Solver::new(&dc)
                    .psi(psi)
                    .solve()
                    .map(|s| s.reward_rate())
                    .unwrap_or(f64::NAN)
            })
            .collect())
    })?;

    for (i, &psi) in psis.iter().enumerate() {
        let samples: Vec<f64> = per_run.iter().map(|run| run[i]).collect();
        let s = mean_ci95(&samples);
        println!("{:<8.1} {:>14.2} {:>10.2}", psi, s.mean, s.ci95);
    }
    println!("\n# The paper's Fig. 6 uses psi = 25 and 50 and takes the best of the two.");
    Ok(())
}
