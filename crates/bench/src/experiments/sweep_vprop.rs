//! Extension sweep: improvement over the baseline versus `V_prop` — the
//! ECS/clock proportionality noise. Generalizes Figure 6's second
//! observation (more noise → more task-type/P-state affinity for the
//! three-stage technique to exploit).

use crate::fig6::{run_figure6_set, Fig6Config, SimulationSet};
use thermaware_datacenter::{Args, CracSearchOptions};
use thermaware_shard::pool::default_threads;

pub(super) const USAGE: &str = "sweep_vprop [--runs N] [--nodes N] [--cracs N] [--seed S] [--share F] [--threads N]";

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
    let share = args.get_f64("share", 0.3);

    println!(
        "# %% improvement (best of psi 25/50) vs V_prop — {} runs x {} nodes, static {share}\n",
        config.runs, config.n_nodes
    );
    println!("{:<10} {:>12} {:>8}", "v_prop", "improvement%", "ci95");
    for v_prop in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let set = SimulationSet {
            static_share: share,
            v_prop,
            label: "sweep",
        };
        match run_figure6_set(set, &config) {
            Ok(r) => println!("{:<10.2} {:>12.2} {:>8.2}", v_prop, r.best.mean, r.best.ci95),
            Err(e) => println!("{v_prop:<10.2} FAILED: {e}"),
        }
    }
    println!("\n# Paper observation 2: Vprop 0.3 shows a larger improvement than 0.1.");
    Ok(())
}
