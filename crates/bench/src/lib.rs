//! Experiment harness: everything shared by the binaries that regenerate
//! the paper's tables and figures (see EXPERIMENTS.md for the index).

pub mod cli;
pub mod fig6;
pub mod stats;

pub use fig6::{run_figure6_set, Fig6Config, Fig6SetResult, SimulationSet};
pub use stats::{mean_ci95, Summary};
