//! The Section-VI scenario generator: one seed → one reproducible data
//! center.

use crate::budget::PowerBudget;
use crate::datacenter::DataCenter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use thermaware_power::NodeType;
use thermaware_thermal::{interference, CracUnit, Layout, ThermalModel};
use thermaware_workload::{Workload, WorkloadGenParams};

/// Why a scenario could not be built or loaded. Degenerate inputs that
/// used to panic deep inside the generator (or silently produce an
/// unusable floor) are rejected up front with a machine-readable cause.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A data center needs at least one compute node.
    ZeroNodes,
    /// A data center needs at least one CRAC unit.
    ZeroCracs,
    /// The workload defines no task types.
    ZeroTaskTypes,
    /// A parameter that must be a finite number is NaN or infinite.
    NonFinite {
        /// The offending field.
        field: &'static str,
    },
    /// A parameter that must be strictly positive is zero or negative.
    NonPositive {
        /// The offending field.
        field: &'static str,
    },
    /// A `(lo, hi)` range with `lo > hi`.
    InvalidRange {
        /// The offending field.
        field: &'static str,
    },
    /// A task type carries a negative arrival rate.
    NegativeArrivalRate {
        /// Task type position in the workload.
        task_type: usize,
        /// The offending rate.
        rate: f64,
    },
    /// Two task types claim the same identity index.
    DuplicateTaskIndex {
        /// The duplicated `TaskType::index`.
        index: usize,
    },
    /// A node references a node type that does not exist.
    NodeTypeOutOfRange {
        /// The node position.
        node: usize,
        /// The out-of-range type index.
        node_type: usize,
        /// Number of known node types.
        n_types: usize,
    },
    /// Structurally inconsistent collections (wrong vector lengths, …).
    LengthMismatch {
        /// A description of the inconsistency.
        what: String,
    },
    /// The (validated) inputs still failed downstream generation — e.g.
    /// no satisfiable cross-interference draw.
    Generation {
        /// The generator's message.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroNodes => write!(f, "scenario has zero compute nodes"),
            ScenarioError::ZeroCracs => write!(f, "scenario has zero CRAC units"),
            ScenarioError::ZeroTaskTypes => write!(f, "workload has zero task types"),
            ScenarioError::NonFinite { field } => {
                write!(f, "field '{field}' is NaN or infinite")
            }
            ScenarioError::NonPositive { field } => {
                write!(f, "field '{field}' must be > 0")
            }
            ScenarioError::InvalidRange { field } => {
                write!(f, "range '{field}' has lo > hi")
            }
            ScenarioError::NegativeArrivalRate { task_type, rate } => {
                write!(f, "task type {task_type} has negative arrival rate {rate}")
            }
            ScenarioError::DuplicateTaskIndex { index } => {
                write!(f, "duplicate task type index {index}")
            }
            ScenarioError::NodeTypeOutOfRange {
                node,
                node_type,
                n_types,
            } => write!(
                f,
                "node {node} references node type {node_type} (only {n_types} defined)"
            ),
            ScenarioError::LengthMismatch { what } => write!(f, "{what}"),
            ScenarioError::Generation { reason } => {
                write!(f, "scenario generation failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Legacy-compatible conversion for call sites accumulating `String`
/// errors (`?` into `Result<_, String>`).
impl From<ScenarioError> for String {
    fn from(e: ScenarioError) -> String {
        e.to_string()
    }
}

/// Validate a fully generated (or deserialized) workload: every task
/// type must carry finite, non-negative rates/rewards, a positive
/// deadline slack, and a unique identity index.
pub fn validate_workload(workload: &Workload) -> Result<(), ScenarioError> {
    if workload.task_types.is_empty() {
        return Err(ScenarioError::ZeroTaskTypes);
    }
    let mut seen = vec![false; workload.task_types.len()];
    for (i, t) in workload.task_types.iter().enumerate() {
        if !t.arrival_rate.is_finite() {
            return Err(ScenarioError::NonFinite {
                field: "task_types.arrival_rate",
            });
        }
        if t.arrival_rate < 0.0 {
            return Err(ScenarioError::NegativeArrivalRate {
                task_type: i,
                rate: t.arrival_rate,
            });
        }
        if !t.reward.is_finite() {
            return Err(ScenarioError::NonFinite {
                field: "task_types.reward",
            });
        }
        if !t.deadline_slack.is_finite() {
            return Err(ScenarioError::NonFinite {
                field: "task_types.deadline_slack",
            });
        }
        if t.deadline_slack <= 0.0 {
            return Err(ScenarioError::NonPositive {
                field: "task_types.deadline_slack",
            });
        }
        match seen.get_mut(t.index) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => return Err(ScenarioError::DuplicateTaskIndex { index: t.index }),
            None => {
                return Err(ScenarioError::LengthMismatch {
                    what: format!(
                        "task type {} has identity index {} outside 0..{}",
                        i,
                        t.index,
                        workload.task_types.len()
                    ),
                })
            }
        }
    }
    Ok(())
}

/// Everything that defines a simulated data center except the seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// Number of compute nodes (150 in the paper's runs).
    pub n_nodes: usize,
    /// Number of CRAC units (3 in the paper's runs).
    pub n_crac: usize,
    /// Static share of P-state-0 core power used to calibrate the CMOS
    /// model (0.3 for simulation sets 1–2, 0.2 for set 3).
    pub static_share: f64,
    /// Workload generation parameters (Section VI.C–D).
    pub workload: WorkloadGenParams,
    /// Node inlet redline, °C (25 in the paper).
    pub node_redline_c: f64,
    /// CRAC inlet redline, °C (40 in the paper).
    pub crac_redline_c: f64,
    /// Searchable CRAC outlet range, °C.
    pub crac_outlet_range: (f64, f64),
    /// CRAC air-flow oversizing relative to the paper's Section-VI.G
    /// rule (flows summing exactly to the node total). 1.0 = the paper;
    /// values above 1 buy N−1 failure margin (see the `crac_failure`
    /// experiment).
    pub crac_flow_margin: f64,
}

impl ScenarioParams {
    /// The paper's simulation configuration: 150 nodes, 3 CRACs, 8 task
    /// types, with the given static power share and `V_prop` (the two
    /// knobs Figure 6 varies).
    pub fn paper(static_share: f64, v_prop: f64) -> ScenarioParams {
        let mut workload = WorkloadGenParams::default();
        workload.ecs.v_prop = v_prop;
        ScenarioParams {
            n_nodes: 150,
            n_crac: 3,
            static_share,
            workload,
            node_redline_c: 25.0,
            crac_redline_c: 40.0,
            crac_outlet_range: (10.0, 25.0),
            crac_flow_margin: 1.0,
        }
    }

    /// A small configuration for fast tests: 1 CRAC, 10 nodes.
    pub fn small_test() -> ScenarioParams {
        ScenarioParams {
            n_nodes: 10,
            n_crac: 1,
            ..ScenarioParams::paper(0.3, 0.1)
        }
    }

    /// Reject degenerate parameter sets up front — zero nodes/CRACs,
    /// NaN/infinite knobs, inverted ranges — so the generator never
    /// panics or silently produces an unusable floor.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.n_nodes == 0 {
            return Err(ScenarioError::ZeroNodes);
        }
        if self.n_crac == 0 {
            return Err(ScenarioError::ZeroCracs);
        }
        let finite_pos: [(&'static str, f64); 3] = [
            ("static_share", self.static_share),
            ("crac_flow_margin", self.crac_flow_margin),
            ("workload.deadline_factor", self.workload.deadline_factor),
        ];
        for (field, v) in finite_pos {
            if !v.is_finite() {
                return Err(ScenarioError::NonFinite { field });
            }
            if v <= 0.0 {
                return Err(ScenarioError::NonPositive { field });
            }
        }
        let finite_nonneg: [(&'static str, f64); 3] = [
            ("workload.v_arrival", self.workload.v_arrival),
            ("workload.ecs.v_ecs", self.workload.ecs.v_ecs),
            ("workload.ecs.v_prop", self.workload.ecs.v_prop),
        ];
        for (field, v) in finite_nonneg {
            if !v.is_finite() {
                return Err(ScenarioError::NonFinite { field });
            }
            if v < 0.0 {
                return Err(ScenarioError::NonPositive { field });
            }
        }
        if self.workload.ecs.n_task_types == 0 {
            return Err(ScenarioError::ZeroTaskTypes);
        }
        if self.workload.ecs.node_type_perf.is_empty() {
            return Err(ScenarioError::LengthMismatch {
                what: "workload.ecs.node_type_perf is empty".to_string(),
            });
        }
        if !self
            .workload
            .ecs
            .node_type_perf
            .iter()
            .all(|p| p.is_finite())
        {
            return Err(ScenarioError::NonFinite {
                field: "workload.ecs.node_type_perf",
            });
        }
        if !self.node_redline_c.is_finite() {
            return Err(ScenarioError::NonFinite {
                field: "node_redline_c",
            });
        }
        if !self.crac_redline_c.is_finite() {
            return Err(ScenarioError::NonFinite {
                field: "crac_redline_c",
            });
        }
        let (lo, hi) = self.crac_outlet_range;
        if !lo.is_finite() || !hi.is_finite() {
            return Err(ScenarioError::NonFinite {
                field: "crac_outlet_range",
            });
        }
        if lo > hi {
            return Err(ScenarioError::InvalidRange {
                field: "crac_outlet_range",
            });
        }
        Ok(())
    }

    /// Build the scenario for a seed. Every random draw (node types,
    /// interference, workload) comes from one `StdRng`, so a
    /// `(params, seed)` pair is fully reproducible.
    ///
    /// Parameters are [`validate`](ScenarioParams::validate)d first, and
    /// the generated workload is re-checked with [`validate_workload`]
    /// before it is accepted.
    ///
    /// Rarely — mostly at small node counts — a drawn node-type placement
    /// makes Table II's EC/RC ranges unsatisfiable (see
    /// `thermaware_thermal::interference`); such draws are rejected and
    /// redrawn deterministically, up to 20 attempts.
    pub fn build(&self, seed: u64) -> Result<DataCenter, ScenarioError> {
        self.validate()?;
        let mut last_err = String::new();
        for attempt in 0..20u64 {
            match self.build_attempt(seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15))) {
                Ok(dc) => {
                    validate_workload(&dc.workload)?;
                    return Ok(dc);
                }
                Err(e) => last_err = e,
            }
        }
        Err(ScenarioError::Generation {
            reason: format!("no satisfiable draw in 20 attempts: {last_err}"),
        })
    }

    fn build_attempt(&self, seed: u64) -> Result<DataCenter, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = Layout::hot_cold_aisle(self.n_crac, self.n_nodes);

        // Node types: uniform random assignment (Section VI.B).
        let node_types = NodeType::paper_node_types(self.static_share);
        let node_type_of: Vec<usize> = (0..self.n_nodes)
            .map(|_| rng.gen_range(0..node_types.len()))
            .collect();

        // Flows and cross-interference, fitted by IPF: milliseconds at
        // 153 units, where the Appendix-B LP (`generate_lp`) is exact but
        // slow and is kept as the reference the IPF tests compare against.
        let node_flows: Vec<f64> = node_type_of
            .iter()
            .map(|&t| node_types[t].air_flow_m3s)
            .collect();
        let flows =
            interference::flows_with_margin(&layout, &node_flows, self.crac_flow_margin);
        let ci = interference::generate_ipf(&layout, &flows, &mut rng)?;
        let thermal = ThermalModel::new(
            &layout,
            &flows,
            &ci,
            self.node_redline_c,
            self.crac_redline_c,
        )?;

        // CRAC units: flow per Section VI.G, outlet range per DESIGN.md.
        let cracs: Vec<CracUnit> = (0..self.n_crac)
            .map(|i| CracUnit {
                flow_m3s: flows[i],
                min_outlet_c: self.crac_outlet_range.0,
                max_outlet_c: self.crac_outlet_range.1,
            })
            .collect();

        // Workload sized to this floor's core counts (Eq. 15).
        let freqs: Vec<Vec<f64>> = node_types
            .iter()
            .map(|nt| {
                (0..nt.core.pstates.n_active())
                    .map(|k| nt.core.pstates.freq_mhz(k))
                    .collect()
            })
            .collect();
        let mut cores_of_type = vec![0usize; node_types.len()];
        for &t in &node_type_of {
            cores_of_type[t] += node_types[t].cores_per_node;
        }
        let workload = self.workload.generate(&freqs, &cores_of_type, &mut rng);

        // Power bounds and budget (Eqs. 17-18).
        let budget = PowerBudget::compute(&thermal, &cracs, &node_types, &node_type_of)?;

        Ok(DataCenter::new(
            layout,
            node_types,
            node_type_of,
            cracs,
            thermal,
            ci,
            workload,
            budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds() {
        let dc = ScenarioParams::small_test().build(1).expect("build");
        assert_eq!(dc.n_nodes(), 10);
        assert_eq!(dc.n_crac(), 1);
        assert_eq!(dc.n_cores(), 10 * 32);
        assert_eq!(dc.n_task_types(), 8);
    }

    #[test]
    fn budget_orders_and_oversubscription() {
        let dc = ScenarioParams::small_test().build(2).expect("build");
        let b = &dc.budget;
        assert!(b.p_min_kw > 0.0);
        assert!(b.p_min_kw < b.p_const_kw);
        assert!(b.p_const_kw < b.p_max_kw);
        assert!((b.p_const_kw - 0.5 * (b.p_min_kw + b.p_max_kw)).abs() < 1e-12);
        // Oversubscribed: the budget cannot cover all-P0 operation.
        let (it, cooling, _) = dc.total_power_kw(&b.max_outlets_c, &dc.max_node_powers());
        assert!(it + cooling > b.p_const_kw);
    }

    #[test]
    fn core_indexing_round_trips() {
        let dc = ScenarioParams::small_test().build(3).expect("build");
        for node in 0..dc.n_nodes() {
            for core in dc.cores_of_node(node) {
                assert_eq!(dc.node_of_core(core), node, "core {core}");
                assert_eq!(dc.core_type(core), dc.node_type_of[node]);
            }
        }
        let counts = dc.cores_of_type();
        assert_eq!(counts.iter().sum::<usize>(), dc.n_cores());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = ScenarioParams::small_test().build(7).unwrap();
        let b = ScenarioParams::small_test().build(7).unwrap();
        assert_eq!(a.node_type_of, b.node_type_of);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.budget.p_const_kw, b.budget.p_const_kw);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioParams::small_test().build(10).unwrap();
        let b = ScenarioParams::small_test().build(11).unwrap();
        assert!(a.workload != b.workload || a.node_type_of != b.node_type_of);
    }

    #[test]
    fn node_powers_track_pstates() {
        let dc = ScenarioParams::small_test().build(4).unwrap();
        // All cores at P0 equals the advertised maximum.
        let close = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
        };
        let p0 = vec![0usize; dc.n_cores()];
        let max = dc.node_powers_from_pstates(&p0);
        // Summation order differs (per-core loop vs count * power), so
        // compare within float tolerance.
        assert!(close(&max, &dc.max_node_powers()));
        // All off equals the minimum.
        let off = dc.off_pstates();
        let min = dc.node_powers_from_pstates(&off);
        assert!(close(&min, &dc.min_node_powers()));
    }

    #[test]
    fn zero_nodes_rejected() {
        let params = ScenarioParams {
            n_nodes: 0,
            ..ScenarioParams::small_test()
        };
        assert_eq!(params.build(1).unwrap_err(), ScenarioError::ZeroNodes);
    }

    #[test]
    fn zero_cracs_rejected() {
        let params = ScenarioParams {
            n_crac: 0,
            ..ScenarioParams::small_test()
        };
        assert_eq!(params.build(1).unwrap_err(), ScenarioError::ZeroCracs);
    }

    #[test]
    fn nan_and_inf_fields_rejected() {
        let params = ScenarioParams {
            node_redline_c: f64::NAN,
            ..ScenarioParams::small_test()
        };
        assert_eq!(
            params.build(1).unwrap_err(),
            ScenarioError::NonFinite {
                field: "node_redline_c"
            }
        );
        let params = ScenarioParams {
            crac_outlet_range: (10.0, f64::INFINITY),
            ..ScenarioParams::small_test()
        };
        assert_eq!(
            params.build(1).unwrap_err(),
            ScenarioError::NonFinite {
                field: "crac_outlet_range"
            }
        );
        let mut params = ScenarioParams::small_test();
        params.workload.v_arrival = f64::NAN;
        assert_eq!(
            params.build(1).unwrap_err(),
            ScenarioError::NonFinite {
                field: "workload.v_arrival"
            }
        );
    }

    #[test]
    fn non_positive_knobs_rejected() {
        let params = ScenarioParams {
            static_share: 0.0,
            ..ScenarioParams::small_test()
        };
        assert_eq!(
            params.build(1).unwrap_err(),
            ScenarioError::NonPositive {
                field: "static_share"
            }
        );
        let mut params = ScenarioParams::small_test();
        params.workload.deadline_factor = -1.0;
        assert_eq!(
            params.build(1).unwrap_err(),
            ScenarioError::NonPositive {
                field: "workload.deadline_factor"
            }
        );
    }

    #[test]
    fn inverted_outlet_range_rejected() {
        let params = ScenarioParams {
            crac_outlet_range: (25.0, 10.0),
            ..ScenarioParams::small_test()
        };
        assert_eq!(
            params.build(1).unwrap_err(),
            ScenarioError::InvalidRange {
                field: "crac_outlet_range"
            }
        );
    }

    #[test]
    fn zero_task_types_rejected() {
        let mut params = ScenarioParams::small_test();
        params.workload.ecs.n_task_types = 0;
        assert_eq!(params.build(1).unwrap_err(), ScenarioError::ZeroTaskTypes);
    }

    #[test]
    fn workload_validation_catches_corruption() {
        let dc = ScenarioParams::small_test().build(6).unwrap();
        let mut w = dc.workload.clone();
        w.task_types[2].arrival_rate = -4.0;
        assert_eq!(
            validate_workload(&w).unwrap_err(),
            ScenarioError::NegativeArrivalRate {
                task_type: 2,
                rate: -4.0
            }
        );
        let mut w = dc.workload.clone();
        let idx = w.task_types[0].index;
        w.task_types[1].index = idx;
        assert_eq!(
            validate_workload(&w).unwrap_err(),
            ScenarioError::DuplicateTaskIndex { index: idx }
        );
        let mut w = dc.workload.clone();
        w.task_types[0].deadline_slack = f64::INFINITY;
        assert_eq!(
            validate_workload(&w).unwrap_err(),
            ScenarioError::NonFinite {
                field: "task_types.deadline_slack"
            }
        );
        assert!(validate_workload(&dc.workload).is_ok());
    }

    #[test]
    fn scenario_error_converts_to_string() {
        let e: String = ScenarioError::ZeroCracs.into();
        assert!(e.contains("CRAC"));
    }

    #[test]
    fn params_serde_round_trip() {
        let p = ScenarioParams::paper(0.2, 0.3);
        let json = serde_json::to_string(&p).unwrap();
        let back: ScenarioParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_nodes, 150);
        assert_eq!(back.static_share, 0.2);
        assert_eq!(back.workload.ecs.v_prop, 0.3);
    }
}
