//! Scalability: three-stage solve time versus data-center size, and the
//! combinatorial blow-up that makes the exact MINLP intractable — the
//! motivation for the paper's decomposition (Section V.B.1).

use std::time::Instant;
use super::{ctx, set3};
use thermaware_core::minlp::{multiset_count, solve_exact};
use thermaware_core::Solver;
use thermaware_datacenter::Args;

pub(super) const USAGE: &str = "scalability [--seed S] [--max-nodes N]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 1);
    let max_nodes = args.get_usize("max-nodes", 150);

    println!("# Three-stage and baseline solve times vs data-center size\n");
    println!(
        "{:<8} {:<8} {:>8} {:>14} {:>14} {:>14}",
        "nodes", "cores", "cracs", "3stage_ms", "baseline_ms", "reward_ratio"
    );
    for &(n_nodes, n_crac) in &[(10usize, 1usize), (20, 1), (40, 2), (80, 2), (150, 3)] {
        if n_nodes > max_nodes {
            break;
        }
        let dc = ctx(set3(n_nodes, n_crac).build(seed), "scenario")?;
        let t0 = Instant::now();
        let three = ctx(Solver::new(&dc).solve(), "three-stage")?;
        let t_three = t0.elapsed();
        let t1 = Instant::now();
        let base = ctx(Solver::new(&dc).baseline(), "baseline")?;
        let t_base = t1.elapsed();
        println!(
            "{:<8} {:<8} {:>8} {:>14.1} {:>14.1} {:>14.3}",
            n_nodes,
            dc.n_cores(),
            n_crac,
            t_three.as_secs_f64() * 1e3,
            t_base.as_secs_f64() * 1e3,
            three.reward_rate() / base.reward_rate,
        );
    }

    println!("\n# Exact MINLP enumeration cost (P-state multisets per node, product over nodes):");
    println!("{:<24} {:>22}", "instance", "combinations");
    for (cores_per_node, nodes) in [(2, 2), (2, 4), (4, 4), (8, 4), (32, 2), (32, 150)] {
        // C(5 + c - 1, c) multisets per node with 5 P-states (4 active + off).
        let per_node = multiset_count(5, cores_per_node);
        let total = (per_node as f64).powi(nodes);
        println!(
            "{:<24} {:>22.3e}",
            format!("{nodes} nodes x {cores_per_node} cores"),
            total
        );
    }
    println!("\n# The exact solver's size guard on the smallest realistic floor:");
    match set3(4, 1).build(seed) {
        Ok(dc) => {
            // Even 4 nodes x 32 cores is far beyond exhaustive
            // enumeration; the guard refuses rather than hang (the
            // `exact_vs_heuristic` integration test runs the solver to
            // completion on a 2-node x 2-core instance instead).
            match solve_exact(&dc) {
                Ok(sol) => println!(
                    "4 nodes: exact reward {:.2} after {} combinations",
                    sol.reward_rate, sol.combinations_checked
                ),
                Err(e) => println!("4 nodes x 32 cores: {e}"),
            }
        }
        Err(e) => println!("tiny scenario failed: {e}"),
    }
    Ok(())
}
