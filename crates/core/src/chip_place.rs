//! Chip-aware within-node P-state placement.
//!
//! Stage 2 decides *how many* cores of each node run in each P-state;
//! it never cared *which* cores, because the room model only sees node
//! power totals. With a [`ChipModel`] attached the choice matters: two
//! shallow-P-state cores side by side heat each other
//! (`thermaware_thermal::chip`), while the same assignment spread
//! across the die stays cooler at identical node power.
//!
//! [`place_within_nodes`] permutes each node's P-state assignment onto
//! the die's coolest-first placement order (largest draws to the
//! positions with the least self-heating). Because it only permutes
//! within a node:
//!
//! * node power totals — and therefore every room-level redline and
//!   the power budget — are untouched, and
//! * Stage 3's `(node type, P-state)` group counts are unchanged, so a
//!   warm Stage-3 re-solve reproduces the same reward at the same
//!   rates, just with the corrected core→group mapping.

use thermaware_datacenter::DataCenter;
use thermaware_thermal::ChipModel;

/// Permute each node's P-states onto its die's coolest-first placement
/// order. Returns the number of cores whose P-state changed. A node is
/// left untouched when the heuristic layout would be hotter than the
/// incoming one (the guard makes the call monotone: peak die
/// temperature never increases), or when the chip model's core count
/// does not match the node's.
pub fn place_within_nodes(dc: &DataCenter, chip: &ChipModel, pstates: &mut [usize]) -> usize {
    assert_eq!(pstates.len(), dc.n_cores());
    let mut moved = 0;
    for node in 0..dc.n_nodes() {
        let t = dc.node_type_of[node];
        if t >= chip.n_types() {
            continue;
        }
        let grid = chip.grid(t);
        let table = &dc.node_types[t].core.pstates;
        let cores: Vec<usize> = dc.cores_of_node(node).collect();
        if cores.len() != grid.n_cores() {
            continue;
        }
        let local: Vec<usize> = cores.iter().map(|&k| pstates[k]).collect();

        // Rank the node's P-states by power, largest first (stable).
        let mut by_power: Vec<usize> = (0..local.len()).collect();
        by_power.sort_by(|&a, &b| {
            table
                .power_kw(local[b])
                .total_cmp(&table.power_kw(local[a]))
                .then(a.cmp(&b))
        });
        let order = grid.placement_order();
        let mut placed = vec![0usize; local.len()];
        for (rank, &src) in by_power.iter().enumerate() {
            placed[order[rank]] = local[src];
        }

        // Guard: only accept a layout at least as cool as the incoming
        // one. Ambient shifts all die temperatures uniformly (the
        // conductance system is a Laplacian plus the ambient diagonal),
        // so the comparison at 0 °C ambient decides for every ambient.
        let powers_old: Vec<f64> = local.iter().map(|&p| table.power_kw(p)).collect();
        let powers_new: Vec<f64> = placed.iter().map(|&p| table.power_kw(p)).collect();
        if grid.peak_c(0.0, &powers_new) <= grid.peak_c(0.0, &powers_old) + 1e-12 {
            for (i, &k) in cores.iter().enumerate() {
                if pstates[k] != placed[i] {
                    moved += 1;
                }
                pstates[k] = placed[i];
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;
    use thermaware_thermal::ChipParams;

    fn chip_for(dc: &DataCenter) -> ChipModel {
        let cores: Vec<usize> = dc.node_types.iter().map(|t| t.cores_per_node).collect();
        ChipModel::build(&cores, &ChipParams::default()).expect("chip model builds")
    }

    #[test]
    fn placement_preserves_node_pstate_multisets() {
        let dc = ScenarioParams::small_test().build(11).unwrap();
        let sol = crate::Solver::new(&dc).solve().unwrap();
        let chip = chip_for(&dc);
        let mut placed = sol.pstates.clone();
        place_within_nodes(&dc, &chip, &mut placed);
        for node in 0..dc.n_nodes() {
            let mut a: Vec<usize> = dc.cores_of_node(node).map(|k| sol.pstates[k]).collect();
            let mut b: Vec<usize> = dc.cores_of_node(node).map(|k| placed[k]).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "node {node} multiset changed");
        }
    }

    #[test]
    fn placement_never_heats_a_die() {
        let dc = ScenarioParams::small_test().build(12).unwrap();
        let sol = crate::Solver::new(&dc).solve().unwrap();
        let chip = chip_for(&dc);
        let mut placed = sol.pstates.clone();
        place_within_nodes(&dc, &chip, &mut placed);
        for node in 0..dc.n_nodes() {
            let t = dc.node_type_of[node];
            let grid = chip.grid(t);
            let table = &dc.node_types[t].core.pstates;
            let before: Vec<f64> = dc
                .cores_of_node(node)
                .map(|k| table.power_kw(sol.pstates[k]))
                .collect();
            let after: Vec<f64> = dc
                .cores_of_node(node)
                .map(|k| table.power_kw(placed[k]))
                .collect();
            assert!(
                grid.peak_c(25.0, &after) <= grid.peak_c(25.0, &before) + 1e-9,
                "node {node} got hotter"
            );
        }
    }
}
