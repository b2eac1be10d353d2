//! Experiment harness: the experiments that regenerate the paper's
//! tables and figures (see EXPERIMENTS.md for the index) and what they
//! share. The `thermaware-exp` binary runs one entry of [`EXPERIMENTS`].

mod experiments;
pub mod fig6;
pub mod stats;

pub use experiments::EXPERIMENTS;
pub use fig6::{run_figure6_set, Fig6Config, Fig6SetResult, SimulationSet};
pub use stats::{mean_ci95, Summary};
