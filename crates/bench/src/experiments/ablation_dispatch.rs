//! Ablation: the paper's ATC/TC dispatch rule versus plan-oblivious
//! policies (earliest-finish, least-loaded) on the same first-step plans
//! and traces. Quantifies what following the Stage-3 rates actually buys
//! at the online layer.

use rand::rngs::StdRng;
use rand::SeedableRng;
use super::{ctx, set3};
use crate::stats::mean_ci95;
use thermaware_core::Solver;
use thermaware_datacenter::Args;
use thermaware_scheduler::{simulate_with_policy, DispatchPolicy};
use thermaware_workload::ArrivalTrace;

pub(super) const USAGE: &str =
    "ablation_dispatch [--runs N] [--nodes N] [--cracs N] [--seed S] [--horizon SECONDS]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 5);
    let n_nodes = args.get_usize("nodes", 20);
    let n_crac = args.get_usize("cracs", 1);
    let base_seed = args.get_u64("seed", 1);
    let horizon = args.get_f64("horizon", 30.0);

    let policies = [
        ("ATC/TC (paper)", DispatchPolicy::AtcTc),
        ("ATC/TC windowed 3s", DispatchPolicy::AtcTcWindowed { tau_s: 3.0 }),
        ("earliest finish", DispatchPolicy::EarliestFinish),
        ("least loaded", DispatchPolicy::LeastLoaded),
    ];

    println!(
        "# Dispatch-policy ablation — {runs} runs x {n_nodes} nodes, horizon {horizon}s\n"
    );
    println!(
        "{:<18} {:>14} {:>10} {:>10}",
        "policy", "reward_rate", "ci95", "drop%"
    );

    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let mut per_policy_drop: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for r in 0..runs {
        let seed = base_seed + r as u64;
        let dc = args.data_center(set3(n_nodes, n_crac), seed)?;
        let plan = ctx(Solver::new(&dc).solve(), "plan")?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1A);
        let trace = ArrivalTrace::generate(&dc.workload, horizon, &mut rng);
        for (idx, &(_, policy)) in policies.iter().enumerate() {
            let sim = simulate_with_policy(&dc, &plan.pstates, &plan.stage3, &trace, policy);
            per_policy[idx].push(sim.reward_rate);
            per_policy_drop[idx].push(sim.drop_rate() * 100.0);
        }
    }
    for (idx, &(name, _)) in policies.iter().enumerate() {
        let s = mean_ci95(&per_policy[idx]);
        let d = mean_ci95(&per_policy_drop[idx]);
        println!("{:<18} {:>14.1} {:>10.1} {:>10.2}", name, s.mean, s.ci95, d.mean);
    }
    println!("\n# ATC/TC trades raw throughput for plan conformance: oblivious");
    println!("# policies may collect more reward short-term by overdriving cores");
    println!("# the plan throttled — at the cost of the thermal/power envelope the");
    println!("# plan was built to respect (their load profile no longer matches");
    println!("# the Stage-1 power assignment).");
    Ok(())
}
