//! The assembled [`DataCenter`] value and its power/thermal helpers.

use crate::budget::PowerBudget;
use thermaware_power::NodeType;
use thermaware_thermal::{CracUnit, CrossInterference, Layout, ThermalModel, ThermalState};
use thermaware_workload::Workload;

/// One concrete data center: topology, hardware, cooling, workload, and
/// power budget. Node ordering everywhere matches `layout.nodes`; cores
/// use a global index grouped by node (`core = node * cores_per_node +
/// within`, with per-node sizes from the node's type).
#[derive(Debug, Clone)]
pub struct DataCenter {
    /// The hot-aisle/cold-aisle floor plan.
    pub layout: Layout,
    /// Catalog of node types (the paper's two Table-I servers).
    pub node_types: Vec<NodeType>,
    /// Node-type index of each node.
    pub node_type_of: Vec<usize>,
    /// CRAC units, one per hot aisle.
    pub cracs: Vec<CracUnit>,
    /// Steady-state thermal model (owns the factored heat-flow matrices).
    pub thermal: ThermalModel,
    /// The validated cross-interference coefficients the model was built
    /// from (kept for inspection and re-derivation).
    pub interference: CrossInterference,
    /// The workload: task types and the ECS matrix.
    pub workload: Workload,
    /// Power bounds and the Eq.-18 budget.
    pub budget: PowerBudget,
    /// First global core index of each node (prefix sums), plus the total
    /// at the end.
    core_offsets: Vec<usize>,
}

impl DataCenter {
    /// Assemble a data center from parts (used by the scenario generator;
    /// prefer [`crate::ScenarioParams::build`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        layout: Layout,
        node_types: Vec<NodeType>,
        node_type_of: Vec<usize>,
        cracs: Vec<CracUnit>,
        thermal: ThermalModel,
        interference: CrossInterference,
        workload: Workload,
        budget: PowerBudget,
    ) -> DataCenter {
        assert_eq!(node_type_of.len(), layout.n_nodes());
        assert_eq!(cracs.len(), layout.n_crac);
        let mut core_offsets = Vec::with_capacity(layout.n_nodes() + 1);
        let mut acc = 0;
        for &t in &node_type_of {
            core_offsets.push(acc);
            acc += node_types[t].cores_per_node;
        }
        core_offsets.push(acc);
        DataCenter {
            layout,
            node_types,
            node_type_of,
            cracs,
            thermal,
            interference,
            workload,
            budget,
            core_offsets,
        }
    }

    /// Number of compute nodes `NCN`.
    pub fn n_nodes(&self) -> usize {
        self.layout.n_nodes()
    }

    /// Number of CRAC units `NCRAC`.
    pub fn n_crac(&self) -> usize {
        self.layout.n_crac
    }

    /// Total number of cores `NCORES`.
    pub fn n_cores(&self) -> usize {
        *self
            .core_offsets
            .last()
            .expect("core_offsets has n_nodes+1 entries by construction")
    }

    /// Number of task types `T`.
    pub fn n_task_types(&self) -> usize {
        self.workload.n_task_types()
    }

    /// The node type of node `j`.
    pub fn node_type(&self, node: usize) -> &NodeType {
        &self.node_types[self.node_type_of[node]]
    }

    /// Global core-index range of node `j`.
    pub fn cores_of_node(&self, node: usize) -> std::ops::Range<usize> {
        self.core_offsets[node]..self.core_offsets[node + 1]
    }

    /// The node owning global core `k` (`CT_k`'s node), by binary search
    /// over the offset table.
    pub fn node_of_core(&self, core: usize) -> usize {
        debug_assert!(core < self.n_cores());
        match self.core_offsets.binary_search(&core) {
            Ok(node) if node < self.n_nodes() => node,
            Ok(node) => node - 1,
            Err(ins) => ins - 1,
        }
    }

    /// Node-type index of the node owning global core `k` (the paper's
    /// `CT_k`).
    pub fn core_type(&self, core: usize) -> usize {
        self.node_type_of[self.node_of_core(core)]
    }

    /// Total cores of each node type (used by the Eq.-15 arrival sizing).
    pub fn cores_of_type(&self) -> Vec<usize> {
        let mut counts = vec![0; self.node_types.len()];
        for (node, &t) in self.node_type_of.iter().enumerate() {
            counts[t] += self.node_types[t].cores_per_node;
            debug_assert_eq!(
                self.core_offsets[node + 1] - self.core_offsets[node],
                self.node_types[t].cores_per_node
            );
        }
        counts
    }

    /// Does a P-state assignment read from outside fit this room? One
    /// P-state per core, none past its node type's off state — what
    /// every per-core table lookup indexes with.
    pub fn pstates_fit(&self, pstates: &[usize]) -> Result<(), String> {
        let fits = pstates.len() == self.n_cores()
            && (0..self.n_nodes()).all(|j| {
                let off = self.node_type(j).core.pstates.off_index();
                pstates[self.cores_of_node(j)].iter().all(|&p| p <= off)
            });
        if fits {
            Ok(())
        } else {
            Err(format!("P-states do not fit the room's {} cores", self.n_cores()))
        }
    }

    /// Every core at its node type's off state.
    pub fn off_pstates(&self) -> Vec<usize> {
        let mut pstates = Vec::with_capacity(self.n_cores());
        for j in 0..self.n_nodes() {
            pstates.resize(self.core_offsets[j + 1], self.node_type(j).core.pstates.off_index());
        }
        pstates
    }

    /// The live core of `node` with the smallest P-state index, the first
    /// such core on ties — the core Stage 2 deepens first (Section
    /// V.B.3), and every degradation ladder's next throttle step on that
    /// node. `None` when all its cores are off.
    pub fn shallowest_core(&self, pstates: &[usize], node: usize) -> Option<usize> {
        let off = self.node_type(node).core.pstates.off_index();
        self.cores_of_node(node)
            .filter(|&k| pstates[k] < off)
            .min_by_key(|&k| pstates[k])
    }

    /// Node powers (kW, Eq. 1) for per-node *core* power totals: base plus
    /// the given total core draw of each node.
    pub fn node_powers(&self, core_power_per_node: &[f64]) -> Vec<f64> {
        let mut powers = Vec::new();
        self.node_powers_in(core_power_per_node, &mut powers);
        powers
    }

    /// [`DataCenter::node_powers`] written into `powers`, in the storage
    /// it has.
    pub fn node_powers_in(&self, core_power_per_node: &[f64], powers: &mut Vec<f64>) {
        assert_eq!(core_power_per_node.len(), self.n_nodes());
        powers.clear();
        powers.extend(
            core_power_per_node
                .iter()
                .enumerate()
                .map(|(j, &p)| self.node_type(j).base_power_kw + p),
        );
    }

    /// Node powers for a full per-core P-state assignment (global core
    /// index order).
    pub fn node_powers_from_pstates(&self, pstates: &[usize]) -> Vec<f64> {
        assert_eq!(pstates.len(), self.n_cores());
        (0..self.n_nodes())
            .map(|j| {
                let nt = self.node_type(j);
                nt.base_power_kw
                    + self.cores_of_node(j)
                        .map(|k| nt.core.pstates.power_kw(pstates[k]))
                        .sum::<f64>()
            })
            .collect()
    }

    /// Minimum node powers: every core off (nodes stay on — the paper's
    /// oversubscribed setting never powers nodes down).
    #[cfg(test)]
    pub fn min_node_powers(&self) -> Vec<f64> {
        (0..self.n_nodes())
            .map(|j| self.node_type(j).min_power_kw())
            .collect()
    }

    /// Maximum node powers: every core in P-state 0.
    #[cfg(test)]
    pub fn max_node_powers(&self) -> Vec<f64> {
        (0..self.n_nodes())
            .map(|j| self.node_type(j).max_power_kw())
            .collect()
    }

    /// Total data-center power (IT + cooling, kW) at given CRAC outlets
    /// and node powers, together with the thermal state it was computed
    /// at: `(it_kw, cooling_kw, state)`.
    pub fn total_power_kw(
        &self,
        crac_out_c: &[f64],
        node_powers_kw: &[f64],
    ) -> (f64, f64, ThermalState) {
        let mut state = ThermalState::default();
        let (it, cooling) = self.total_power_kw_in(crac_out_c, node_powers_kw, &mut state);
        (it, cooling, state)
    }

    /// [`DataCenter::total_power_kw`] with the thermal state written into
    /// `state`, in the storage it has: `(it_kw, cooling_kw)`.
    pub fn total_power_kw_in(
        &self,
        crac_out_c: &[f64],
        node_powers_kw: &[f64],
        state: &mut ThermalState,
    ) -> (f64, f64) {
        self.thermal.steady_state_in(crac_out_c, node_powers_kw, state);
        let it: f64 = node_powers_kw.iter().sum();
        let cooling = self.thermal.total_crac_power_kw(state);
        (it, cooling)
    }

    /// Convenience: does this state respect both redlines (Eq. 6)?
    pub fn redlines_ok(&self, state: &ThermalState) -> bool {
        state.redline_violation(self.thermal.node_redline_c, self.thermal.crac_redline_c) <= 1e-9
    }
}

#[cfg(test)]
mod tests {
    use crate::ScenarioParams;
    use thermaware_thermal::ThermalState;

    /// Total power and node powers written into storage a larger room's
    /// calls left are what the allocating forms return, bit for bit:
    /// both powers, and the state's every temperature.
    #[test]
    fn in_place_total_power_in_used_storage_equals_the_fresh_one() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (mut powers, mut state) = (Vec::new(), ThermalState::default());
        for (n_nodes, n_crac, seed) in [(30, 3, 2), (12, 2, 5), (10, 1, 1)] {
            let params = ScenarioParams { n_nodes, n_crac, ..ScenarioParams::small_test() };
            let dc = params.build(seed).unwrap();
            let core: Vec<f64> = (0..n_nodes).map(|j| 0.01 * (j % 4) as f64).collect();
            let outlets: Vec<f64> = (0..n_crac).map(|c| 14.0 + 3.0 * c as f64).collect();
            dc.node_powers_in(&core, &mut powers);
            assert_eq!(bits(&powers), bits(&dc.node_powers(&core)), "{n_nodes} nodes");
            let (it, cooling) = dc.total_power_kw_in(&outlets, &powers, &mut state);
            let (it_fresh, cooling_fresh, fresh) = dc.total_power_kw(&outlets, &powers);
            assert_eq!((it.to_bits(), cooling.to_bits()), (it_fresh.to_bits(), cooling_fresh.to_bits()));
            assert_eq!(state.n_crac, fresh.n_crac);
            assert_eq!(bits(&state.t_in), bits(&fresh.t_in), "{n_nodes} nodes");
            assert_eq!(bits(&state.t_out), bits(&fresh.t_out), "{n_nodes} nodes");
        }
    }
}
