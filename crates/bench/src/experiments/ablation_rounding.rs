//! Ablation: the paper's Stage-2 rounding (round power *up*, then walk
//! the node back under its Stage-1 budget by deepening the shallowest
//! core) versus a naive round-*down* — how much reward does the careful
//! procedure actually preserve?

use super::{ctx, set3};
use crate::stats::mean_ci95;
use thermaware_core::stage1::{solve_stage1, Stage1Options};
use thermaware_core::stage2::assign_pstates;
use thermaware_core::stage3::solve_stage3;
use thermaware_datacenter::{Args, DataCenter};

pub(super) const USAGE: &str = "ablation_rounding [--runs N] [--nodes N] [--cracs N] [--seed S]";

/// Naive alternative: round every core's power *down* to the nearest
/// P-state (never exceeds budgets, never needs a walk-back, loses power).
fn round_down(dc: &DataCenter, core_power: &[f64]) -> Vec<usize> {
    (0..dc.n_cores())
        .map(|k| {
            let t = &dc.node_type(dc.node_of_core(k)).core.pstates;
            // Deepest state is the floor; find the shallowest state whose
            // power is <= the assignment.
            let mut choice = t.off_index();
            for s in 0..t.n_total() {
                if t.power_kw(s) <= core_power[k] + 1e-12 {
                    choice = s;
                    break;
                }
            }
            choice
        })
        .collect()
}

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 10);
    let n_nodes = args.get_usize("nodes", 40);
    let n_crac = args.get_usize("cracs", 2);
    let base_seed = args.get_u64("seed", 1);

    println!(
        "# Stage-2 rounding ablation — {runs} runs x {n_nodes} nodes x {n_crac} CRACs\n"
    );
    println!("{:<14} {:>14} {:>10}", "rounding", "reward_rate", "ci95");

    let mut paper = Vec::new();
    let mut naive = Vec::new();
    for r in 0..runs {
        let seed = base_seed + r as u64;
        let dc = args.data_center(set3(n_nodes, n_crac), seed)?;
        let s1 = ctx(solve_stage1(&dc, &Stage1Options::default()), "stage 1")?;

        let ps_paper = assign_pstates(&dc, &s1);
        paper.push(ctx(solve_stage3(&dc, &ps_paper), "stage 3")?.reward_rate);

        let ps_naive = round_down(&dc, &s1.core_power_kw);
        naive.push(ctx(solve_stage3(&dc, &ps_naive), "stage 3, round-down")?.reward_rate);
    }
    let a = mean_ci95(&paper);
    let b = mean_ci95(&naive);
    println!("{:<14} {:>14.1} {:>10.1}", "paper (V.B.3)", a.mean, a.ci95);
    println!("{:<14} {:>14.1} {:>10.1}", "round-down", b.mean, b.ci95);
    println!(
        "\n# paper rounding preserves {:+.2}% reward over naive round-down",
        100.0 * (a.mean - b.mean) / b.mean
    );
    println!("# (Stage 1 parks most cores exactly on P-state powers, so the gap is");
    println!("# the value of recovering the at-most-one stray core per node).");
    Ok(())
}
