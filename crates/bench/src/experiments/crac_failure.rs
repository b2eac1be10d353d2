//! Resilience experiment: what happens to a thermal-aware plan when a
//! CRAC unit fails (coil off, fan still turning)?
//!
//! For each single-unit failure: how far do inlets overshoot the
//! redlines, and how much reward must be shed (greedy P-state deepening
//! on the hottest nodes) to bring the floor back inside them? The paper
//! plans for a healthy floor; this quantifies the N−1 margin its plans
//! carry.

use super::{ctx, set3};
use thermaware_core::stage3::solve_stage3;
use thermaware_core::Solver;
use thermaware_datacenter::{Args, DataCenter, ScenarioParams};

pub(super) const USAGE: &str = "crac_failure [--nodes N] [--cracs N] [--seed S]";

/// Greedy shed: while any redline is violated, deepen one P-state on the
/// node with the hottest inlet (ties to the most power-hungry core).
/// Returns the shed assignment, or `None` when even all-off overheats.
fn shed_until_safe(
    dc: &DataCenter,
    crac_out: &[f64],
    failed: &[bool],
    pstates: &[usize],
) -> Option<(Vec<usize>, usize)> {
    let mut ps = pstates.to_vec();
    let mut steps = 0;
    loop {
        let powers = dc.node_powers_from_pstates(&ps);
        let state = dc
            .thermal
            .steady_state_with_failed_cracs(crac_out, &powers, failed)
            .ok()?;
        if state.redline_violation(dc.thermal.node_redline_c, dc.thermal.crac_redline_c) <= 1e-9
        {
            return Some((ps, steps));
        }
        // Hottest node inlet.
        let nc = dc.n_crac();
        let hottest = (0..dc.n_nodes())
            .max_by(|&a, &b| state.t_in[nc + a].total_cmp(&state.t_in[nc + b]))
            .unwrap();
        // Deepen that node's shallowest core; walk outward to neighbours
        // if the node is already dark.
        let cand = std::iter::once(hottest)
            .chain(0..dc.n_nodes())
            .find_map(|node| dc.shallowest_core(&ps, node));
        match cand {
            Some(k) => {
                ps[k] += 1;
                steps += 1;
            }
            None => return None, // everything off and still too hot
        }
    }
}

pub(super) fn run(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 1);

    for margin in [1.0, 1.5, 2.0] {
        let room = ScenarioParams {
            crac_flow_margin: margin,
            ..set3(40, 2)
        };
        run_with_margin(&args.data_center(room, seed)?, seed, margin)?;
        println!();
    }
    println!("# Emergency response modeled: the surviving units drop to their coldest");
    println!("# outlet, then capacity is shed ('shed_steps' P-state deepenings) until");
    println!("# the redlines hold; 'reward_after' is the Stage-3 reward of the shed");
    println!("# plan. With the paper's Section-VI.G flow sizing (margin 1.0) the floor");
    println!("# has no N−1 capability at all — even an idle floor overheats — which is");
    println!("# why real rooms oversize cooling.");
    Ok(())
}

fn run_with_margin(dc: &DataCenter, seed: u64, margin: f64) -> Result<(), String> {
    let (n_nodes, n_crac) = (dc.n_nodes(), dc.n_crac());
    let plan = ctx(Solver::new(dc).solve(), "plan")?;
    let healthy_reward = plan.reward_rate();
    let powers = dc.node_powers_from_pstates(&plan.pstates);

    println!(
        "## CRAC flow margin {margin:.2} — {n_nodes} nodes, {n_crac} CRACs, seed {seed}"
    );
    println!(
        "healthy plan: reward {:.1}, CRAC outlets {:?} °C, hottest inlet {:.2} °C (redline {} °C)\n",
        healthy_reward,
        plan.crac_out_c(),
        dc.thermal
            .steady_state(plan.crac_out_c(), &powers)
            .max_node_inlet(),
        dc.thermal.node_redline_c
    );
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>14}",
        "failed", "hottest_C", "over_C", "shed_steps", "reward_after"
    );

    for f in 0..n_crac {
        let mut failed = vec![false; n_crac];
        failed[f] = true;
        let state = ctx(
            dc.thermal
                .steady_state_with_failed_cracs(plan.crac_out_c(), &powers, &failed),
            "degraded steady state",
        )?;
        let over = state
            .redline_violation(dc.thermal.node_redline_c, dc.thermal.crac_redline_c)
            .max(0.0);
        // Emergency response: survivors drop to their coldest outlet
        // before any capacity is shed.
        let emergency: Vec<f64> = (0..n_crac)
            .map(|c| if failed[c] { plan.crac_out_c()[c] } else { dc.cracs[c].min_outlet_c })
            .collect();
        match shed_until_safe(dc, &emergency, &failed, &plan.pstates) {
            Some((shed_ps, steps)) => {
                let reward = solve_stage3(dc, &shed_ps)
                    .map(|s| s.reward_rate)
                    .unwrap_or(f64::NAN);
                println!(
                    "{:<10} {:>14.2} {:>12.2} {:>12} {:>14.1}",
                    format!("CRAC{f}"),
                    state.max_node_inlet(),
                    over,
                    steps,
                    reward
                );
            }
            None => println!(
                "{:<10} {:>14.2} {:>12.2} {:>12} {:>14}",
                format!("CRAC{f}"),
                state.max_node_inlet(),
                over,
                "-",
                "unrecoverable"
            ),
        }
    }
    Ok(())
}
