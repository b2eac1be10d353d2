//! Extension sweep: improvement over the baseline versus the static power
//! share — generalizing Figure 6's first observation (lower static share
//! → deeper P-states have better perf/W → bigger wins for the
//! thermal-aware technique).

use crate::fig6::{run_figure6_set, Fig6Config, SimulationSet};
use thermaware_datacenter::{Args, CracSearchOptions};
use thermaware_shard::pool::default_threads;

pub(super) const USAGE: &str = "sweep_static [--runs N] [--nodes N] [--cracs N] [--seed S] [--vprop F] [--threads N]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 10);
    let config = Fig6Config {
        runs,
        n_nodes: args.get_usize("nodes", 40),
        n_crac: args.get_usize("cracs", 2),
        base_seed: args.get_u64("seed", 1),
        threads: args.get_usize("threads", default_threads(runs)),
        search: CracSearchOptions::default(),
    };
    let v_prop = args.get_f64("vprop", 0.3);

    println!(
        "# %% improvement (best of psi 25/50) vs static power share — {} runs x {} nodes, Vprop {v_prop}\n",
        config.runs, config.n_nodes
    );
    println!("{:<14} {:>12} {:>8}", "static_share", "improvement%", "ci95");
    for share in [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.50] {
        let set = SimulationSet {
            static_share: share,
            v_prop,
            label: "sweep",
        };
        match run_figure6_set(set, &config) {
            Ok(r) => println!("{:<14.2} {:>12.2} {:>8.2}", share, r.best.mean, r.best.ci95),
            Err(e) => println!("{share:<14.2} FAILED: {e}"),
        }
    }
    println!("\n# Paper observation 1: 20% static share shows a larger improvement than 30%.");
    Ok(())
}
