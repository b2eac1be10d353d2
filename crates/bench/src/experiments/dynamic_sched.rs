//! The second-step dynamic scheduler experiment (paper Section V.C):
//! how closely does the online `ATC/TC` dispatcher realize the
//! steady-state reward rate the first step planned for, and what does it
//! drop?

use rand::rngs::StdRng;
use rand::SeedableRng;
use super::{ctx, set3};
use crate::stats::mean_ci95;
use thermaware_core::Solver;
use thermaware_datacenter::Args;
use thermaware_scheduler::simulate;
use thermaware_workload::ArrivalTrace;

pub(super) const USAGE: &str =
    "dynamic_sched [--runs N] [--nodes N] [--cracs N] [--seed S] [--horizon SECONDS]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 5);
    let n_nodes = args.get_usize("nodes", 20);
    let n_crac = args.get_usize("cracs", 1);
    let base_seed = args.get_u64("seed", 1);
    let horizon = args.get_f64("horizon", 30.0);

    println!(
        "# Second-step dynamic scheduler vs first-step plan — {runs} runs x {n_nodes} nodes, horizon {horizon}s\n"
    );
    println!(
        "{:<6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "run", "planned", "achieved", "ratio", "drop%", "util%", "wait_p95", "resp_p95"
    );

    let mut ratios = Vec::new();
    let mut drops = Vec::new();
    for r in 0..runs {
        let seed = base_seed + r as u64;
        let dc = args.data_center(set3(n_nodes, n_crac), seed)?;
        let plan = ctx(Solver::new(&dc).solve(), "plan")?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
        let trace = ArrivalTrace::generate(&dc.workload, horizon, &mut rng);
        let sim = simulate(&dc, &plan.pstates, &plan.stage3, &trace);
        let ratio = sim.reward_rate / plan.reward_rate();
        ratios.push(ratio);
        drops.push(sim.drop_rate() * 100.0);
        println!(
            "{:<6} {:>12.1} {:>12.1} {:>10.3} {:>10.2} {:>10.1} {:>10.3} {:>10.3}",
            r,
            plan.reward_rate(),
            sim.reward_rate,
            ratio,
            sim.drop_rate() * 100.0,
            sim.mean_utilization * 100.0,
            sim.wait.p95,
            sim.response.p95
        );
    }
    let r = mean_ci95(&ratios);
    let d = mean_ci95(&drops);
    println!(
        "\nachieved/planned: {:.3} ± {:.3};   drop rate: {:.2}% ± {:.2}%",
        r.mean, r.ci95, d.mean, d.ci95
    );
    println!("# The ATC/TC rule caps actual rates at desired rates, so the ratio");
    println!("# approaches but does not exceed 1; drops reflect oversubscription,");
    println!("# not scheduler failure (Section V.C).");
    Ok(())
}
