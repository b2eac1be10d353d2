//! The Figure-6 replication: average percentage improvement of the
//! three-stage assignment over the Eq.-21 baseline, across the paper's
//! three simulation sets.

use thermaware_shard::pool::{default_threads, scoped_map};
use crate::stats::{mean_ci95, Summary};
use thermaware_core::Solver;
use thermaware_datacenter::{CracSearchOptions, ScenarioParams};

/// One of the paper's simulation sets (a Figure-6 column group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationSet {
    /// Static share of P-state-0 core power.
    pub static_share: f64,
    /// ECS proportionality noise `V_prop`.
    pub v_prop: f64,
    /// Display label.
    pub label: &'static str,
}

/// The paper's three sets, in Figure-6 order.
pub const PAPER_SETS: [SimulationSet; 3] = [
    SimulationSet {
        static_share: 0.30,
        v_prop: 0.1,
        label: "static 30%, Vprop 0.1",
    },
    SimulationSet {
        static_share: 0.30,
        v_prop: 0.3,
        label: "static 30%, Vprop 0.3",
    },
    SimulationSet {
        static_share: 0.20,
        v_prop: 0.3,
        label: "static 20%, Vprop 0.3",
    },
];

/// Configuration of a Figure-6 run.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Config {
    /// Runs (scenario seeds) per set — 25 in the paper.
    pub runs: usize,
    /// Compute nodes per scenario — 150 in the paper.
    pub n_nodes: usize,
    /// CRAC units per scenario — 3 in the paper.
    pub n_crac: usize,
    /// Base seed; run `r` of a set uses `base_seed + r`.
    pub base_seed: u64,
    /// Worker threads for the scenario fan-out.
    pub threads: usize,
    /// CRAC outlet search options shared by all solvers.
    pub search: CracSearchOptions,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            runs: 25,
            n_nodes: 150,
            n_crac: 3,
            base_seed: 1,
            threads: default_threads(25),
            search: CracSearchOptions::default(),
        }
    }
}

/// Raw per-run numbers of one scenario.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Run {
    /// Three-stage reward rate at ψ = 25.
    pub psi25: f64,
    /// Three-stage reward rate at ψ = 50.
    pub psi50: f64,
    /// Baseline (Eq. 21 + Eq. 22) reward rate.
    pub baseline: f64,
}

impl Fig6Run {
    /// Percentage improvement of a reward rate over the baseline.
    fn improvement(&self, reward: f64) -> f64 {
        100.0 * (reward - self.baseline) / self.baseline
    }
}

/// Aggregated Figure-6 numbers for one simulation set: the three bars the
/// paper plots (ψ=25, ψ=50, best-of-both), each with a 95% CI.
#[derive(Debug, Clone)]
pub struct Fig6SetResult {
    /// The set.
    pub set: SimulationSet,
    /// Percentage improvement of ψ=25 over the baseline.
    pub psi25: Summary,
    /// Percentage improvement of ψ=50 over the baseline.
    pub psi50: Summary,
    /// Percentage improvement of the per-run best of the two ψ values.
    pub best: Summary,
    /// The raw runs (for persistence/inspection).
    pub runs: Vec<Fig6Run>,
}

/// Solve one scenario of a set: both ψ values and the baseline.
pub fn run_one_scenario(
    set: SimulationSet,
    config: &Fig6Config,
    seed: u64,
) -> Result<Fig6Run, String> {
    let params = ScenarioParams {
        n_nodes: config.n_nodes,
        n_crac: config.n_crac,
        ..ScenarioParams::paper(set.static_share, set.v_prop)
    };
    let dc = params.build(seed)?;
    let solver = |psi| Solver::new(&dc).psi(psi).crac_grid(config.search);
    let s25 = solver(25.0).solve().map_err(|e| e.to_string())?;
    let s50 = solver(50.0).solve().map_err(|e| e.to_string())?;
    let base = solver(50.0).baseline().map_err(|e| e.to_string())?;
    Ok(Fig6Run {
        psi25: s25.reward_rate(),
        psi50: s50.reward_rate(),
        baseline: base.reward_rate,
    })
}

/// Run a full simulation set (the paper's 25 seeds), fanned out over
/// threads.
pub fn run_figure6_set(set: SimulationSet, config: &Fig6Config) -> Result<Fig6SetResult, String> {
    let results = scoped_map(config.runs, config.threads, |r| {
        run_one_scenario(set, config, config.base_seed + r as u64)
    });
    let mut runs = Vec::with_capacity(config.runs);
    for r in results {
        // Outer Err: the worker died (panic); inner Err: a solve failed.
        runs.push(r.map_err(|e| e.to_string())??);
    }
    let imp25: Vec<f64> = runs.iter().map(|r| r.improvement(r.psi25)).collect();
    let imp50: Vec<f64> = runs.iter().map(|r| r.improvement(r.psi50)).collect();
    let impbest: Vec<f64> = runs
        .iter()
        .map(|r| r.improvement(r.psi25.max(r.psi50)))
        .collect();
    Ok(Fig6SetResult {
        set,
        psi25: mean_ci95(&imp25),
        psi50: mean_ci95(&imp50),
        best: mean_ci95(&impbest),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature Figure-6 (small floor, few runs) — exercises the whole
    /// pipeline end to end; the real scale runs in the `fig6` binary.
    #[test]
    fn mini_figure6_runs() {
        let config = Fig6Config {
            runs: 2,
            n_nodes: 10,
            n_crac: 1,
            base_seed: 5,
            threads: 2,
            search: CracSearchOptions::default(),
        };
        let result = run_figure6_set(PAPER_SETS[2], &config).expect("mini fig6");
        assert_eq!(result.runs.len(), 2);
        for run in &result.runs {
            assert!(run.psi25 > 0.0 && run.psi50 > 0.0 && run.baseline > 0.0);
        }
        // best-of dominates both individual ψ series by construction.
        assert!(result.best.mean >= result.psi25.mean - 1e-9);
        assert!(result.best.mean >= result.psi50.mean - 1e-9);
    }
}
