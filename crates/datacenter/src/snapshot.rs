//! Scenario snapshots: serialize a fully assembled [`DataCenter`] —
//! including the generated cross-interference coefficients — and restore
//! it bit-for-bit later.
//!
//! The scenario *generator* is already reproducible from `(params, seed)`,
//! but a snapshot is what you attach to a paper artifact or a bug report:
//! it pins the exact floor, coefficients, workload, and budget without
//! requiring the generator version that produced them.
//!
//! The module also owns the workspace's crash-consistent file writer,
//! [`atomic_write`]: temp file in the target directory, `fsync`, atomic
//! rename, directory `fsync`. The runtime's checkpoint/journal layer
//! builds on the same helper so every durable artifact in the workspace
//! shares one write discipline.

use crate::budget::PowerBudget;
use crate::datacenter::DataCenter;
use crate::scenario::{validate_workload, ScenarioError};
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use thermaware_power::NodeType;
use thermaware_thermal::{CracUnit, CrossInterference, Layout, ThermalModel};
use thermaware_workload::Workload;

/// Write `bytes` to `path` crash-consistently: the content goes to a
/// temporary file in the same directory, is flushed (and `fsync`ed when
/// `durable`), and is renamed over the target in one atomic step, after
/// which the directory entry itself is synced. A reader therefore sees
/// either the complete old file or the complete new file — never a torn
/// mixture — and after the call returns with `durable = true` the data
/// survives power loss.
pub fn atomic_write(path: &Path, bytes: &[u8], durable: bool) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        if durable {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, path)?;
    if durable {
        if let Some(d) = dir {
            // Persist the rename itself: fsync the directory so the new
            // entry survives a crash (Linux supports fsync on directory
            // fds; best effort elsewhere).
            if let Ok(df) = File::open(d) {
                let _ = df.sync_all();
            }
        }
    }
    Ok(())
}

/// Everything needed to reconstruct a [`DataCenter`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSnapshot {
    /// Floor plan.
    pub layout: Layout,
    /// Node type catalog.
    pub node_types: Vec<NodeType>,
    /// Node-type index per node.
    pub node_type_of: Vec<usize>,
    /// CRAC units.
    pub cracs: Vec<CracUnit>,
    /// Per-unit air flows `[CRACs | nodes]`, m³/s.
    pub flows: Vec<f64>,
    /// The generated cross-interference coefficients.
    pub interference: CrossInterference,
    /// Node inlet redline, °C.
    pub node_redline_c: f64,
    /// CRAC inlet redline, °C.
    pub crac_redline_c: f64,
    /// The workload.
    pub workload: Workload,
    /// The power budget (preserved, not recomputed, so restored scenarios
    /// match to the last bit).
    pub budget: PowerBudget,
}

impl ScenarioSnapshot {
    /// Capture a snapshot of an assembled data center.
    pub fn capture(dc: &DataCenter) -> ScenarioSnapshot {
        ScenarioSnapshot {
            layout: dc.layout.clone(),
            node_types: dc.node_types.clone(),
            node_type_of: dc.node_type_of.clone(),
            cracs: dc.cracs.clone(),
            flows: dc.thermal.flows().to_vec(),
            interference: dc.interference.clone(),
            node_redline_c: dc.thermal.node_redline_c,
            crac_redline_c: dc.thermal.crac_redline_c,
            workload: dc.workload.clone(),
            budget: dc.budget.clone(),
        }
    }

    /// Rebuild the data center (re-factoring the thermal model from the
    /// stored coefficients), rejecting degenerate or corrupted snapshots
    /// with a typed [`ScenarioError`] instead of building a data center
    /// that panics later.
    pub fn restore(self) -> Result<DataCenter, ScenarioError> {
        if self.node_type_of.is_empty() {
            return Err(ScenarioError::ZeroNodes);
        }
        if self.cracs.is_empty() {
            return Err(ScenarioError::ZeroCracs);
        }
        if self.node_types.is_empty() {
            return Err(ScenarioError::LengthMismatch {
                what: "snapshot has no node types".to_string(),
            });
        }
        for (node, &t) in self.node_type_of.iter().enumerate() {
            if t >= self.node_types.len() {
                return Err(ScenarioError::NodeTypeOutOfRange {
                    node,
                    node_type: t,
                    n_types: self.node_types.len(),
                });
            }
        }
        let expected_flows = self.cracs.len() + self.node_type_of.len();
        if self.flows.len() != expected_flows {
            return Err(ScenarioError::LengthMismatch {
                what: format!(
                    "snapshot has {} flows for {} units",
                    self.flows.len(),
                    expected_flows
                ),
            });
        }
        if !self.flows.iter().all(|f| f.is_finite()) {
            return Err(ScenarioError::NonFinite { field: "flows" });
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
        let budget = &self.budget;
        let totals = [budget.p_min_kw, budget.p_max_kw, budget.p_const_kw];
        let outlets = budget.min_outlets_c.iter().chain(&budget.max_outlets_c);
        if !totals.iter().chain(outlets).all(|x| x.is_finite()) {
            return Err(ScenarioError::NonFinite { field: "budget" });
        }
        validate_workload(&self.workload)?;
        let thermal = ThermalModel::new(
            &self.layout,
            &self.flows,
            &self.interference,
            self.node_redline_c,
            self.crac_redline_c,
        )
        .map_err(|reason| ScenarioError::Generation { reason })?;
        Ok(DataCenter::new(
            self.layout,
            self.node_types,
            self.node_type_of,
            self.cracs,
            thermal,
            self.interference,
            self.workload,
            self.budget,
        ))
    }

    /// Serialize to JSON and [`atomic_write`] it to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        atomic_write(path, json.as_bytes(), true)
    }

    /// Load a snapshot previously written with [`ScenarioSnapshot::save`].
    pub fn load(path: &Path) -> io::Result<ScenarioSnapshot> {
        let text = fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioParams;

    #[test]
    fn capture_restore_round_trip_preserves_everything() {
        let dc = ScenarioParams::small_test().build(11).unwrap();
        let snap = ScenarioSnapshot::capture(&dc);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ScenarioSnapshot = serde_json::from_str(&json).unwrap();
        let dc2 = back.restore().expect("restore");

        assert_eq!(dc.n_nodes(), dc2.n_nodes());
        assert_eq!(dc.n_cores(), dc2.n_cores());
        assert_eq!(dc.node_type_of, dc2.node_type_of);
        // JSON float printing can drop the last ULP.
        assert!((dc.budget.p_min_kw - dc2.budget.p_min_kw).abs() < 1e-12);
        assert!((dc.budget.p_max_kw - dc2.budget.p_max_kw).abs() < 1e-12);
        assert!((dc.budget.p_const_kw - dc2.budget.p_const_kw).abs() < 1e-12);
        assert_eq!(dc.budget.min_outlets_c, dc2.budget.min_outlets_c);

        // The thermal models must agree numerically (JSON float printing
        // can drop a ULP, hence the tolerance).
        let outlets = vec![16.0; dc.n_crac()];
        let powers: Vec<f64> = (0..dc.n_nodes()).map(|i| 0.4 + 0.01 * i as f64).collect();
        let a = dc.thermal.steady_state(&outlets, &powers);
        let b = dc2.thermal.steady_state(&outlets, &powers);
        for (x, y) in a.t_in.iter().zip(&b.t_in) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    /// The f64 reader takes `"NaN"` and `"inf"`, so a CRC-valid snapshot
    /// can carry a budget no solve can use: each non-finite budget number
    /// is refused by name.
    #[test]
    fn a_non_finite_budget_is_refused() {
        let dc = ScenarioParams { n_nodes: 20, ..ScenarioParams::small_test() }.build(3).unwrap();
        let damages: [fn(&mut PowerBudget); 5] = [
            |b| b.p_min_kw = f64::NAN,
            |b| b.p_max_kw = f64::INFINITY,
            |b| b.p_const_kw = f64::NAN,
            |b| b.min_outlets_c[0] = f64::NEG_INFINITY,
            |b| b.max_outlets_c[0] = f64::NAN,
        ];
        for damage in damages {
            let mut snap = ScenarioSnapshot::capture(&dc);
            damage(&mut snap.budget);
            let json = serde_json::to_string(&snap).unwrap();
            let back: ScenarioSnapshot = serde_json::from_str(&json).unwrap();
            assert!(matches!(back.restore(), Err(ScenarioError::NonFinite { field: "budget" })));
        }
        let json = serde_json::to_string(&ScenarioSnapshot::capture(&dc)).unwrap();
        let back: ScenarioSnapshot = serde_json::from_str(&json).unwrap();
        assert!(back.restore().is_ok());
    }

    #[test]
    fn restored_scenario_plans_identically() {
        // 6 nodes keep the per-core check LP fast in debug builds.
        let dc = ScenarioParams {
            n_nodes: 6,
            ..ScenarioParams::small_test()
        }
        .build(12)
        .unwrap();
        let snap = ScenarioSnapshot::capture(&dc);
        let dc2 = snap.restore().unwrap();
        // The Stage-3 LP on a fixed assignment must give the same reward.
        let pstates = vec![2usize; dc.n_cores()];
        let a = crate_stage3(&dc, &pstates);
        let b = crate_stage3(&dc2, &pstates);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// Minimal Stage-3-like LP built here (the datacenter crate cannot
    /// depend on thermaware-core), checking grouped capacity + arrivals.
    fn crate_stage3(dc: &DataCenter, pstates: &[usize]) -> f64 {
        use thermaware_lp::{Problem, RowOp, Sense};
        let t = dc.n_task_types();
        let mut p = Problem::new(Sense::Maximize);
        let mut per_type_terms: Vec<Vec<(thermaware_lp::VarId, f64)>> = vec![Vec::new(); t];
        for k in 0..dc.n_cores() {
            let nt = dc.core_type(k);
            let ps = pstates[k];
            let mut cap_terms = Vec::new();
            for (i, terms) in per_type_terms.iter_mut().enumerate() {
                let ecs = dc.workload.ecs.ecs(i, nt, ps);
                if ecs > 0.0 && dc.workload.deadline_feasible(i, nt, ps) {
                    let v = p.add_var(
                        &format!("tc_{i}_{k}"),
                        0.0,
                        f64::INFINITY,
                        dc.workload.task_types[i].reward,
                    );
                    cap_terms.push((v, 1.0 / ecs));
                    terms.push((v, 1.0));
                }
            }
            if !cap_terms.is_empty() {
                p.add_row_nodup(&format!("cap{k}"), &cap_terms, RowOp::Le, 1.0);
            }
        }
        for (i, terms) in per_type_terms.iter().enumerate() {
            if !terms.is_empty() {
                p.add_row_nodup(
                    &format!("arr{i}"),
                    terms,
                    RowOp::Le,
                    dc.workload.task_types[i].arrival_rate,
                );
            }
        }
        p.solve().unwrap().objective
    }
}
