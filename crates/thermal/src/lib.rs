//! Thermal modeling of a hot-aisle/cold-aisle data center (paper Sections
//! III.E, IV, VI.E–G, and Appendix B).
//!
//! The crate implements the **Abstract Heat Flow Model** of Tang et
//! al. \[29\] as used by the paper: the inlet temperature of every CRAC unit
//! and compute node is a linear mixture of all outlet temperatures,
//! `Tin = A · Tout` (Eq. 5), where `A` is derived from cross-interference
//! coefficients `α[i][j]` — the fraction of unit `i`'s outlet air that
//! recirculates into unit `j`'s inlet.
//!
//! Pieces:
//!
//! * [`layout`] — the Figure-1 hot-aisle/cold-aisle floor plan, rack
//!   positions, the A–E node labels of Table II with their EC/RC ranges,
//!   and the `M(aisle, crac)` exhaust-split matrix.
//! * [`interference`] — generation of physically consistent `α`
//!   matrices: the Appendix-B **LP feasibility** formulation (exact, used
//!   at small scale) and a fast **iterative proportional fitting**
//!   generator (used for 150-node scenarios, where the paper itself
//!   replaced per-node CFD runs because they were prohibitive).
//! * [`model`] — steady-state temperature solve and, crucially for the
//!   Stage-1/baseline LPs, the *linear coefficients* mapping node powers to
//!   inlet temperatures at fixed CRAC outlet temperatures.
//! * [`cop`](mod@crate::cop) — the HP Utility Data Center CoP curve (Eq. 8) and CRAC power
//!   (Eqs. 2–3).
//!
//! # Example
//!
//! ```
//! use thermaware_thermal::{layout::Layout, interference, model::ThermalModel};
//! use rand::SeedableRng;
//!
//! let layout = Layout::hot_cold_aisle(2, 20);
//! let flows = interference::uniform_flows(&layout, 0.07, None);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let alpha = interference::generate_ipf(&layout, &flows, &mut rng).unwrap();
//! let model = ThermalModel::new(&layout, &flows, &alpha, 25.0, 40.0).unwrap();
//! // 20 nodes at 0.5 kW each, CRACs blowing 18 °C:
//! let state = model.steady_state(&[18.0, 18.0], &vec![0.5; 20]);
//! assert!(state.max_node_inlet() > 18.0); // recirculation warms inlets
//! ```

pub mod cop;
pub mod interference;
pub mod layout;
pub mod model;

pub use cop::{cop, crac_power_kw, CracUnit};
pub use interference::CrossInterference;
pub use layout::{Label, Layout, NodePlacement};
pub use model::{ThermalCoefficients, ThermalModel, ThermalState};

/// Air density in kg/m³ (paper Appendix A).
pub const AIR_DENSITY: f64 = 1.205;
/// Specific heat capacity of air in kJ/(kg·K) (paper Appendix A; combined
/// with kW power and m³/s flows this yields °C temperature rises).
pub const AIR_CP: f64 = 1.0;
/// `ρ · Cp`, the factor appearing in Eqs. 2–4.
pub const RHO_CP: f64 = AIR_DENSITY * AIR_CP;
