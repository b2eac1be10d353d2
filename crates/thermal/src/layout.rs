//! The hot-aisle/cold-aisle floor plan of Figure 1 and the node labels of
//! Table II.
//!
//! CRAC units sit along one wall; rack columns run perpendicular to it in
//! pairs, each pair exhausting into the hot aisle between them. CRAC unit
//! `i` faces hot aisle `i`, so exhaust from that aisle reaches CRAC `i`
//! with the largest share (Appendix B's `M` matrix).
//!
//! Within a rack, vertical position determines how much of a node's
//! exhaust escapes to the CRACs (exit coefficient, EC) versus recirculating
//! into other nodes, and how much of its intake is recirculated air
//! (recirculation coefficient, RC). Table II gives the ranges per label;
//! label `A` is at the bottom of the rack (low EC — its exhaust mostly
//! recirculates — and low RC) and `E` at the top (high EC, high RC),
//! following the CFD study of Tang et al. \[29\].

use serde::{Deserialize, Serialize};

/// Vertical-position label of a node within its rack (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Label {
    /// Bottom of the rack.
    A,
    /// Second from bottom.
    B,
    /// Middle.
    C,
    /// Second from top.
    D,
    /// Top of the rack.
    E,
}

impl Label {
    /// All labels bottom-to-top.
    pub const ALL: [Label; 5] = [Label::A, Label::B, Label::C, Label::D, Label::E];

    /// Exit-coefficient range `(min, max)` from Table II — the fraction of
    /// this node's exhaust that reaches CRAC units.
    pub fn ec_range(self) -> (f64, f64) {
        match self {
            Label::A => (0.30, 0.40),
            Label::B => (0.30, 0.40),
            Label::C => (0.40, 0.50),
            Label::D => (0.70, 0.80),
            Label::E => (0.80, 0.90),
        }
    }

    /// Recirculation-coefficient range `(min, max)` from Table II — the
    /// fraction of this node's *intake* that is other nodes' exhaust.
    pub fn rc_range(self) -> (f64, f64) {
        match self {
            Label::A => (0.00, 0.10),
            Label::B => (0.00, 0.20),
            Label::C => (0.10, 0.30),
            Label::D => (0.30, 0.70),
            Label::E => (0.40, 0.80),
        }
    }

    /// Label for vertical position `pos` (0 = bottom) in a rack of
    /// `rack_height` nodes. Heights other than 5 interpolate the ladder.
    pub fn for_position(pos: usize, rack_height: usize) -> Label {
        assert!(pos < rack_height, "position {pos} outside rack of {rack_height}");
        if rack_height == 1 {
            return Label::C;
        }
        let idx = (pos * (Label::ALL.len() - 1) + (rack_height - 1) / 2) / (rack_height - 1);
        Label::ALL[idx.min(Label::ALL.len() - 1)]
    }

    /// Label for position `pos` in a **partially filled** rack holding
    /// `occupancy` nodes.
    ///
    /// The sets are chosen so each partial rack's recirculation
    /// *production* range `Σ (1 − EC)` overlaps its *absorption* range
    /// `Σ RC` under Table II — plain ladder interpolation does not
    /// guarantee that (a lone `C` node produces 0.5–0.6 of its flow as
    /// recirculation but may absorb at most 0.3), and an unbalanced rack
    /// makes the whole floor's coefficients unsatisfiable.
    pub fn for_partial_rack(pos: usize, occupancy: usize) -> Label {
        assert!(pos < occupancy, "position {pos} outside occupancy {occupancy}");
        match occupancy {
            1 => [Label::D][pos],
            2 => [Label::A, Label::E][pos],
            3 => [Label::A, Label::D, Label::E][pos],
            4 => [Label::A, Label::B, Label::D, Label::E][pos],
            5 => Label::ALL[pos],
            // Taller partial racks: interpolate like a full rack of that
            // occupancy (balance improves with size).
            _ => Label::for_position(pos, occupancy),
        }
    }
}

/// Where one compute node sits on the floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePlacement {
    /// Rack-column index, 0-based, left to right (Figure 1 has
    /// `2 · NCRAC` of them).
    pub rack_col: usize,
    /// Rack index within the column (racks stack depth-wise).
    pub rack_index: usize,
    /// Vertical position within the rack, 0 = bottom.
    pub pos_in_rack: usize,
    /// Table-II label derived from `pos_in_rack`.
    pub label: Label,
    /// Hot aisle (0-based) this node exhausts into; hot aisle `i` faces
    /// CRAC unit `i`.
    pub hot_aisle: usize,
}

/// A concrete floor plan: CRAC units plus node placements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layout {
    /// Number of CRAC units (= number of hot aisles).
    pub n_crac: usize,
    /// Per-node placements; the node order here fixes node indexing
    /// everywhere downstream.
    pub nodes: Vec<NodePlacement>,
    /// Nodes per rack (Tang et al. \[29\] use 5, matching the five labels).
    pub rack_height: usize,
}

impl Layout {
    /// Build the Figure-1 arrangement: `2 · n_crac` rack columns in facing
    /// pairs, racks of five nodes, `n_nodes` nodes distributed as evenly
    /// as possible column by column.
    ///
    /// # Panics
    /// Panics if `n_crac == 0` or `n_nodes == 0`.
    pub fn hot_cold_aisle(n_crac: usize, n_nodes: usize) -> Layout {
        Self::with_rack_height(n_crac, n_nodes, 5)
    }

    /// Like [`Layout::hot_cold_aisle`] with a custom rack height.
    pub fn with_rack_height(n_crac: usize, n_nodes: usize, rack_height: usize) -> Layout {
        assert!(n_crac > 0, "need at least one CRAC unit");
        assert!(n_nodes > 0, "need at least one node");
        assert!(rack_height > 0);
        let n_cols = 2 * n_crac;
        let mut nodes = Vec::with_capacity(n_nodes);
        // Fill column-major: node i goes to column i % n_cols, then stacks
        // bottom-up into racks of `rack_height`.
        let mut col_counts = vec![0usize; n_cols];
        for i in 0..n_nodes {
            let col = i % n_cols;
            let within = col_counts[col];
            col_counts[col] += 1;
            let rack_index = within / rack_height;
            let pos = within % rack_height;
            nodes.push(NodePlacement {
                rack_col: col,
                rack_index,
                pos_in_rack: pos,
                label: Label::for_position(pos, rack_height),
                // Columns (2k, 2k+1) share hot aisle k.
                hot_aisle: col / 2,
            });
        }
        // Partially filled racks (the top rack of a column when n_nodes is
        // not a multiple of the rack capacity) get balance-aware label
        // sets — see [`Label::for_partial_rack`] for why straight ladder
        // interpolation breaks Table II's feasibility.
        // BTreeMap, not HashMap: layout construction is on the replay
        // path, and std's RandomState makes HashMap iteration order a
        // per-process coin flip (the `determinism` lint bans it here).
        let mut occupancy: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        for p in &nodes {
            *occupancy.entry((p.rack_col, p.rack_index)).or_default() += 1;
        }
        for p in &mut nodes {
            let occ = occupancy[&(p.rack_col, p.rack_index)];
            if occ < rack_height {
                p.label = Label::for_partial_rack(p.pos_in_rack, occ);
            }
        }
        Layout {
            n_crac,
            nodes,
            rack_height,
        }
    }

    /// Number of compute nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total unit count (CRACs + nodes) — the dimension of the
    /// cross-interference matrix.
    pub fn n_units(&self) -> usize {
        self.n_crac + self.nodes.len()
    }

    /// The Appendix-B `M(aisle, crac)` matrix: the share of a hot aisle's
    /// CRAC-bound exhaust that reaches each CRAC unit.
    ///
    /// CRAC `i` faces hot aisle `i` and receives the dominant share; the
    /// remainder spreads to the other CRACs with geometrically decaying
    /// weight in aisle distance (rows normalized to 1). With one CRAC the
    /// matrix is all ones.
    pub fn m_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.n_crac;
        (0..n)
            .map(|aisle| {
                let mut row: Vec<f64> = (0..n)
                    .map(|crac| {
                        let d = aisle.abs_diff(crac);
                        // 0.6 to the facing CRAC of a 3-CRAC room; decay
                        // 4x per aisle of distance.
                        0.25_f64.powi(d as i32)
                    })
                    .collect();
                let s: f64 = row.iter().sum();
                for v in &mut row {
                    *v /= s;
                }
                row
            })
            .collect()
    }

    /// Nodes in the same rack as node `i` (excluding `i`), by node index.
    #[cfg(test)]
    pub fn rack_mates(&self, i: usize) -> Vec<usize> {
        let p = self.nodes[i];
        self.nodes
            .iter()
            .enumerate()
            .filter(|&(j, q)| {
                j != i && q.rack_col == p.rack_col && q.rack_index == p.rack_index
            })
            .map(|(j, _)| j)
            .collect()
    }

    /// Nodes that share node `i`'s hot aisle (excluding `i`).
    #[cfg(test)]
    pub fn aisle_mates(&self, i: usize) -> Vec<usize> {
        let p = self.nodes[i];
        self.nodes
            .iter()
            .enumerate()
            .filter(|&(j, q)| j != i && q.hot_aisle == p.hot_aisle)
            .map(|(j, _)| j)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ranges() {
        assert_eq!(Label::A.ec_range(), (0.30, 0.40));
        assert_eq!(Label::B.ec_range(), (0.30, 0.40));
        assert_eq!(Label::C.ec_range(), (0.40, 0.50));
        assert_eq!(Label::D.ec_range(), (0.70, 0.80));
        assert_eq!(Label::E.ec_range(), (0.80, 0.90));
        assert_eq!(Label::A.rc_range(), (0.00, 0.10));
        assert_eq!(Label::E.rc_range(), (0.40, 0.80));
    }

    #[test]
    fn label_positions_in_standard_rack() {
        let labels: Vec<Label> = (0..5).map(|p| Label::for_position(p, 5)).collect();
        assert_eq!(labels, Label::ALL);
    }

    #[test]
    fn label_positions_interpolate_for_other_heights() {
        assert_eq!(Label::for_position(0, 1), Label::C);
        assert_eq!(Label::for_position(0, 2), Label::A);
        assert_eq!(Label::for_position(1, 2), Label::E);
        // A 10-high rack still starts at A and ends at E.
        assert_eq!(Label::for_position(0, 10), Label::A);
        assert_eq!(Label::for_position(9, 10), Label::E);
    }

    #[test]
    fn paper_scale_layout() {
        let l = Layout::hot_cold_aisle(3, 150);
        assert_eq!(l.n_nodes(), 150);
        assert_eq!(l.n_units(), 153);
        // 6 rack columns, 25 nodes each.
        for col in 0..6 {
            let count = l.nodes.iter().filter(|p| p.rack_col == col).count();
            assert_eq!(count, 25);
        }
        // Hot aisles pair up columns.
        for p in &l.nodes {
            assert_eq!(p.hot_aisle, p.rack_col / 2);
            assert!(p.hot_aisle < 3);
        }
        // Every label occurs (25 per column = 5 full racks).
        for lab in Label::ALL {
            assert!(l.nodes.iter().any(|p| p.label == lab));
        }
    }

    #[test]
    fn m_matrix_rows_normalized_and_diagonal_dominant() {
        let l = Layout::hot_cold_aisle(3, 30);
        let m = l.m_matrix();
        for (i, row) in m.iter().enumerate() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            for (j, &v) in row.iter().enumerate() {
                if i != j {
                    assert!(row[i] > v, "M[{i}][{i}] must dominate M[{i}][{j}]");
                }
            }
        }
    }

    #[test]
    fn single_crac_m_matrix_is_one() {
        let l = Layout::hot_cold_aisle(1, 10);
        let m = l.m_matrix();
        assert_eq!(m.len(), 1);
        assert!((m[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rack_and_aisle_mates() {
        let l = Layout::hot_cold_aisle(1, 10);
        // Columns 0 and 1 alternate; node 0 and node 2 share column 0,
        // rack 0.
        let mates = l.rack_mates(0);
        assert!(mates.contains(&2));
        assert!(!mates.contains(&1));
        // All ten nodes share the single hot aisle.
        assert_eq!(l.aisle_mates(0).len(), 9);
    }
}
