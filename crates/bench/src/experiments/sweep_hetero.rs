//! Extension sweep: improvement over the baseline versus **node-type
//! heterogeneity** — the paper's Section-VIII list includes "the
//! performance of core types" among the parameters worth exploring. The
//! SPECpower-derived ratio in the paper is 0.6; this sweep moves it from
//! identical node types (1.0) to strongly lopsided floors.

use super::{ctx, set3, try_runs};
use crate::stats::mean_ci95;
use thermaware_core::Solver;
use thermaware_datacenter::Args;

pub(super) const USAGE: &str = "sweep_hetero [--runs N] [--nodes N] [--cracs N] [--seed S]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 10);
    let n_nodes = args.get_usize("nodes", 40);
    let n_crac = args.get_usize("cracs", 2);
    let base_seed = args.get_u64("seed", 1);

    let ratios = [1.0, 0.8, 0.6, 0.4, 0.25];
    println!(
        "# %% improvement (best of psi 25/50) vs node-type performance ratio —"
    );
    println!("# {runs} runs x {n_nodes} nodes; the paper's SPECpower-derived ratio is 0.6\n");
    println!("{:<10} {:>12} {:>8}", "perf_ratio", "improvement%", "ci95");

    for &ratio in &ratios {
        let imps: Vec<f64> = try_runs(runs, |r| {
            let mut room = set3(n_nodes, n_crac);
            room.workload.ecs.node_type_perf = vec![ratio, 1.0];
            let dc = args.data_center(room, base_seed + r as u64)?;
            let plan = ctx(Solver::new(&dc).psi_best_of([25.0, 50.0]).solve(), "plan")?;
            let base = ctx(Solver::new(&dc).baseline(), "baseline")?;
            Ok(100.0 * (plan.reward_rate() - base.reward_rate) / base.reward_rate)
        })?;
        let s = mean_ci95(&imps);
        println!("{:<10.2} {:>12.2} {:>8.2}", ratio, s.mean, s.ci95);
    }
    println!("\n# Moderate heterogeneity gives the data-center-level assignment");
    println!("# structure to exploit; extreme heterogeneity flattens the comparison");
    println!("# again — the slow type is barely worth powering, so both techniques");
    println!("# park it and the P-state ladder of the fast type dominates.");
    Ok(())
}
