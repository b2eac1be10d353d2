//! Figure 6 — the paper's headline experiment.
//!
//! Average percentage improvement of the three-stage thermal-aware
//! assignment (ψ = 25, ψ = 50, and the per-run best of the two) over the
//! Eq.-21 baseline (P-state 0 or off only), with 95% confidence
//! intervals, for the paper's three simulation sets:
//!
//! 1. static share 30%, V_prop 0.1
//! 2. static share 30%, V_prop 0.3
//! 3. static share 20%, V_prop 0.3
//!
//! Paper scale is `--runs 25 --nodes 150 --cracs 3`; the defaults match.
//! Use smaller values for a quick look.

use super::write_json;
use crate::fig6::{run_figure6_set, Fig6Config, PAPER_SETS};
use thermaware_datacenter::{Args, CracSearchOptions};
use thermaware_shard::pool::default_threads;

pub(super) const USAGE: &str =
    "fig6 [--runs N] [--nodes N] [--cracs N] [--seed S] [--threads N] [--json PATH]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_usize("runs", 25);
    let config = Fig6Config {
        runs,
        n_nodes: args.get_usize("nodes", 150),
        n_crac: args.get_usize("cracs", 3),
        base_seed: args.get_u64("seed", 1),
        threads: args.get_usize("threads", default_threads(runs)),
        search: CracSearchOptions::default(),
    };

    println!("# Figure 6 — average % improvement of the three-stage assignment");
    println!(
        "# over the [26]-based baseline; {} runs x {} nodes x {} CRACs, seed {}",
        config.runs, config.n_nodes, config.n_crac, config.base_seed
    );
    println!(
        "{:<24} {:>16} {:>16} {:>16}",
        "simulation set", "psi=25", "psi=50", "best of both"
    );

    let mut json_sets = Vec::new();
    for set in PAPER_SETS {
        let started = std::time::Instant::now();
        match run_figure6_set(set, &config) {
            Ok(r) => {
                println!(
                    "{:<24} {:>8.2} ±{:>5.2} {:>8.2} ±{:>5.2} {:>8.2} ±{:>5.2}   ({:.1}s)",
                    set.label,
                    r.psi25.mean,
                    r.psi25.ci95,
                    r.psi50.mean,
                    r.psi50.ci95,
                    r.best.mean,
                    r.best.ci95,
                    started.elapsed().as_secs_f64()
                );
                json_sets.push(serde_json::json!({
                    "label": set.label,
                    "static_share": set.static_share,
                    "v_prop": set.v_prop,
                    "improvement_pct": {
                        "psi25": { "mean": r.psi25.mean, "ci95": r.psi25.ci95 },
                        "psi50": { "mean": r.psi50.mean, "ci95": r.psi50.ci95 },
                        "best":  { "mean": r.best.mean,  "ci95": r.best.ci95 },
                    },
                    "runs": r.runs.iter().map(|run| serde_json::json!({
                        "psi25": run.psi25,
                        "psi50": run.psi50,
                        "baseline": run.baseline,
                    })).collect::<Vec<_>>(),
                }));
            }
            Err(e) => {
                println!("{:<24} FAILED: {e}", set.label);
            }
        }
    }
    if let Some(path) = args.get_opt_str("json") {
        let doc = serde_json::json!({
            "experiment": "figure6",
            "config": {
                "runs": config.runs,
                "n_nodes": config.n_nodes,
                "n_crac": config.n_crac,
                "base_seed": config.base_seed,
            },
            "sets": json_sets,
        });
        write_json(&path, &doc)?;
        println!("\n# raw runs written to {path}");
    }
    println!();
    println!("# Paper (Fig. 6): improvements grow from set 1 to set 3, up to ~10%");
    println!("# average for the best-of-both series in set 3.");
    Ok(())
}
