//! Data center scenario assembly (paper Sections III and VI).
//!
//! This crate glues the substrates together into one [`DataCenter`] value:
//! the Figure-1 floor plan, the Table-I node types, CRAC units, the
//! steady-state thermal model built from generated cross-interference
//! coefficients, the Section-VI synthetic workload, and the power budget
//! `Pconst = (Pmin + Pmax)/2` obtained from the Eq.-17 bound problems.
//!
//! A [`ScenarioParams`] + seed fully determines a scenario (every random
//! draw flows through one seeded `StdRng`), which is what the Figure-6
//! replication fans out over: 25 seeds per simulation set.
//!
//! # Example
//!
//! ```
//! use thermaware_datacenter::ScenarioParams;
//!
//! let params = ScenarioParams::small_test(); // 1 CRAC, 10 nodes
//! let dc = params.build(7).expect("scenario");
//! assert_eq!(dc.n_nodes(), 10);
//! assert!(dc.budget.p_const_kw > dc.budget.p_min_kw);
//! assert!(dc.budget.p_const_kw < dc.budget.p_max_kw);
//! ```

mod budget;
mod cli;
mod crac_search;
mod datacenter;
mod scenario;
mod snapshot;

pub use budget::PowerBudget;
pub use cli::Args;
pub use crac_search::{optimize_crac_outlets, CracSearchOptions, FINE_STEP_C};
pub use datacenter::DataCenter;
pub use scenario::{validate_workload, ScenarioError, ScenarioParams};
pub use snapshot::{atomic_write, ScenarioSnapshot};
