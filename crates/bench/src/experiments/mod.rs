//! The experiments behind `thermaware-exp <name>`: one module per table,
//! figure, sweep, drill or bench of EXPERIMENTS.md, each a `run(&Args)`
//! that prints its report and returns `Err` when a scenario does not
//! build, a plan does not solve or an acceptance floor is missed.

use std::fmt::Display;
use thermaware_datacenter::{Args, ScenarioParams};
use thermaware_shard::pool::{default_threads, scoped_map};

mod ablation_dispatch;
mod ablation_rounding;
mod ablation_thermal;
mod adaptive_replan;
mod cop_curve;
mod crac_failure;
mod dynamic_sched;
mod fig3_4_5;
mod fig6;
mod fsync_batch;
mod layout;
mod lp_bench;
mod min_power;
mod obs_bench;
mod recovery;
mod runtime;
mod scalability;
mod scenario_bench;
mod service_noise;
mod shard_bench;
mod shard_drill;
mod sweep_budget;
mod sweep_hetero;
mod sweep_psi;
mod sweep_static;
mod sweep_vprop;
mod table1;
mod table2;

/// Every experiment: `(name, usage, toy_flags, run)`. The usage line
/// names the flags `run` reads (anything else is refused before it is
/// called); `toy_flags` is a size at which the experiment finishes in
/// seconds in a debug build, for `tests/experiments.rs`.
#[allow(clippy::type_complexity)]
pub const EXPERIMENTS: &[(&str, &str, &str, fn(&Args) -> Result<(), String>)] = &[
    ("table1", table1::USAGE, "", table1::run),
    ("table2", table2::USAGE, "--nodes 30 --cracs 1", table2::run),
    ("fig3_4_5", fig3_4_5::USAGE, "", fig3_4_5::run),
    ("cop_curve", cop_curve::USAGE, "", cop_curve::run),
    ("layout", layout::USAGE, "", layout::run),
    ("fig6", fig6::USAGE, "--runs 2 --nodes 10 --cracs 1", fig6::run),
    ("sweep_psi", sweep_psi::USAGE, "--runs 2 --nodes 10 --cracs 1", sweep_psi::run),
    ("sweep_static", sweep_static::USAGE, "--runs 2 --nodes 10 --cracs 1", sweep_static::run),
    ("sweep_vprop", sweep_vprop::USAGE, "--runs 2 --nodes 10 --cracs 1", sweep_vprop::run),
    ("sweep_budget", sweep_budget::USAGE, "--runs 2 --nodes 10 --cracs 1", sweep_budget::run),
    ("sweep_hetero", sweep_hetero::USAGE, "--runs 2 --nodes 10 --cracs 1", sweep_hetero::run),
    ("min_power", min_power::USAGE, "--nodes 10", min_power::run),
    ("ablation_rounding", ablation_rounding::USAGE, "--runs 2 --nodes 10 --cracs 1", ablation_rounding::run),
    ("ablation_thermal", ablation_thermal::USAGE, "--runs 2 --nodes 10 --cracs 1", ablation_thermal::run),
    ("ablation_dispatch", ablation_dispatch::USAGE, "--runs 2 --nodes 10 --horizon 5", ablation_dispatch::run),
    ("adaptive_replan", adaptive_replan::USAGE, "--runs 2 --nodes 10 --horizon 5", adaptive_replan::run),
    ("crac_failure", crac_failure::USAGE, "--nodes 10", crac_failure::run),
    ("dynamic_sched", dynamic_sched::USAGE, "--runs 2 --nodes 10 --horizon 5", dynamic_sched::run),
    ("service_noise", service_noise::USAGE, "--runs 2 --nodes 10 --horizon 5", service_noise::run),
    ("scalability", scalability::USAGE, "--max-nodes 20", scalability::run),
    ("runtime", runtime::USAGE, "--nodes 10 --horizon 10", runtime::run),
    ("recovery", recovery::USAGE, "--nodes 10 --horizon 10 --kill-epoch 5", recovery::run),
    ("fsync_batch", fsync_batch::USAGE, "--appends 50", fsync_batch::run),
    ("lp_bench", lp_bench::USAGE, "--nodes 40 --faults 4", lp_bench::run),
    ("shard_bench", shard_bench::USAGE, "--zones 32 --nodes 40 --chaos-epochs 1 --reps 5", shard_bench::run),
    ("shard_drill", shard_drill::USAGE, "--zones 3 --nodes 8", shard_drill::run),
    ("scenario_bench", scenario_bench::USAGE, "", scenario_bench::run),
    ("obs_bench", obs_bench::USAGE, "--nodes 10 --runs 2 --horizon 10", obs_bench::run),
];

/// `what: error` — the `Err(String)` of a step that can fail.
fn ctx<T, E: Display>(result: Result<T, E>, what: &str) -> Result<T, String> {
    result.map_err(|e| format!("{what}: {e}"))
}

/// The third simulation set's room (static share 20 %, V_prop 0.3), the
/// one most experiments run on, at an experiment's default size.
fn set3(n_nodes: usize, n_crac: usize) -> ScenarioParams {
    ScenarioParams {
        n_nodes,
        n_crac,
        ..ScenarioParams::paper(0.2, 0.3)
    }
}

/// `body(r)` for each of `runs` runs on the default thread count; the
/// first run that fails or panics is the error.
fn try_runs<T: Send>(
    runs: usize,
    body: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    scoped_map(runs, default_threads(runs), body)
        .into_iter()
        .map(|run| run.map_err(|e| e.to_string())?)
        .collect()
}

/// Create the directory an output file is about to be written into.
fn create_parent(path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        Some(dir) => ctx(std::fs::create_dir_all(dir), path),
        None => Ok(()),
    }
}

/// Write a text trace, creating its directory first.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    create_parent(path)?;
    ctx(std::fs::write(path, contents), path)
}

/// Write a snapshot as pretty-printed JSON, creating its directory first.
fn write_json(path: &str, doc: &serde_json::Value) -> Result<(), String> {
    write_file(path, &ctx(serde_json::to_string_pretty(doc), "json")?)
}
