//! The Section-VIII dual problem: minimum total power as a function of a
//! required reward-rate floor (the paper's first future-work item,
//! implemented in `thermaware_core::min_power`).

use super::{ctx, set3};
use thermaware_core::min_power::{solve_min_power, MinPowerOptions};
use thermaware_core::Solver;
use thermaware_datacenter::Args;

pub(super) const USAGE: &str = "min_power [--nodes N] [--cracs N] [--seed S]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let dc = args.data_center(set3(20, 1), args.get_u64("seed", 1))?;
    let (n_nodes, n_crac) = (dc.n_nodes(), dc.n_crac());
    let full = ctx(Solver::new(&dc).solve(), "full solve")?;
    let r_max = full.reward_rate();

    println!("# Minimum total power vs reward-rate floor — {n_nodes} nodes, {n_crac} CRAC(s)\n");
    println!(
        "budgeted operation: reward {:.1} at Pconst {:.1} kW (Pmin {:.1}, Pmax {:.1})\n",
        r_max, dc.budget.p_const_kw, dc.budget.p_min_kw, dc.budget.p_max_kw
    );
    println!(
        "{:<12} {:>12} {:>12} {:>14}",
        "floor_frac", "floor", "power_kW", "achieved_reward"
    );
    for frac in [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0] {
        let floor = frac * r_max;
        match solve_min_power(&dc, floor, &MinPowerOptions::default()) {
            Ok(sol) => println!(
                "{:<12.2} {:>12.1} {:>12.2} {:>14.1}",
                frac, floor, sol.total_power_kw, sol.reward_rate
            ),
            Err(e) => println!("{frac:<12.2} {floor:>12.1} FAILED: {e}"),
        }
    }
    println!("\n# Power should rise monotonically with the floor and stay below Pconst");
    println!("# until the floor approaches the budgeted optimum.");
    Ok(())
}
