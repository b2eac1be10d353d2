//! Extension sweep: improvement over the baseline versus **budget
//! tightness** — the paper's entire premise is a power-*constrained* data
//! center (Eq. 18 pins `Pconst` to the midpoint of the envelope). This
//! sweep moves the budget across the whole envelope: at loose budgets
//! everything runs at P0 and the techniques converge; the tighter the
//! budget, the more the P-state ladder matters.

use super::{set3, try_runs};
use crate::stats::mean_ci95;
use thermaware_core::Solver;
use thermaware_datacenter::Args;

pub(super) const USAGE: &str = "sweep_budget [--runs N] [--nodes N] [--cracs N] [--seed S]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 10);
    let n_nodes = args.get_usize("nodes", 40);
    let n_crac = args.get_usize("cracs", 2);
    let base_seed = args.get_u64("seed", 1);

    let fracs = [0.15, 0.3, 0.5, 0.7, 0.85, 1.0];
    println!(
        "# %% improvement (best of psi 25/50) vs budget position — {runs} runs x {n_nodes} nodes"
    );
    println!("# Pconst = Pmin + frac · (Pmax − Pmin); the paper's Eq. 18 is frac = 0.5\n");
    println!(
        "{:<10} {:>12} {:>8} {:>14}",
        "frac", "improvement%", "ci95", "cores_at_P0%"
    );

    // One scenario per run; sweep the budget within it so the comparison
    // isolates the budget effect from scenario noise.
    let rows: Vec<Vec<(f64, f64)>> = try_runs(runs, |r| {
        let base_dc = args.data_center(set3(n_nodes, n_crac), base_seed + r as u64)?;
        Ok(fracs
            .iter()
            .map(|&frac| {
                let mut dc = base_dc.clone();
                dc.budget.p_const_kw =
                    dc.budget.p_min_kw + frac * (dc.budget.p_max_kw - dc.budget.p_min_kw);
                let plan = Solver::new(&dc).psi_best_of([25.0, 50.0]).solve();
                let base = Solver::new(&dc).baseline();
                match (plan, base) {
                    (Ok(p), Ok(b)) => {
                        let improvement =
                            100.0 * (p.reward_rate() - b.reward_rate) / b.reward_rate;
                        let p0_share = 100.0
                            * p.pstates.iter().filter(|&&s| s == 0).count() as f64
                            / p.pstates.len() as f64;
                        (improvement, p0_share)
                    }
                    _ => (f64::NAN, f64::NAN),
                }
            })
            .collect())
    })?;

    for (i, &frac) in fracs.iter().enumerate() {
        let imps: Vec<f64> = rows.iter().map(|r| r[i].0).filter(|v| v.is_finite()).collect();
        let p0s: Vec<f64> = rows.iter().map(|r| r[i].1).filter(|v| v.is_finite()).collect();
        let s = mean_ci95(&imps);
        let p0 = mean_ci95(&p0s);
        println!(
            "{:<10.2} {:>12.2} {:>8.2} {:>14.1}",
            frac, s.mean, s.ci95, p0.mean
        );
    }
    println!("\n# Expectation: the advantage peaks at tight-to-mid budgets (many cores");
    println!("# parked in efficient intermediate P-states) and shrinks as the budget");
    println!("# loosens toward all-P0 capacity.");
    Ok(())
}
