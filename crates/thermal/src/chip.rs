//! Chip-level thermal interference: a per-node core-grid conductance
//! model with a precomputed inverse and TSPD power budgets.
//!
//! The room model (`model`) stops at node inlets; this module goes one
//! level down. Each node's cores sit on a near-square grid on one die,
//! and the steady-state core temperatures follow the conductance system
//!
//! ```text
//! B · T = P + T_amb · G        =>        T = B⁻¹ · (P + T_amb · G)
//! ```
//!
//! where `P` is the per-core power (watts), `G[i]` is core `i`'s
//! conductance to ambient (the node inlet air), and `B` is the
//! conductance matrix. The grid geometry, the edge-cooling factor, and
//! the distance-decayed neighbor coupling follow the reference
//! implementation in SNIPPETS.md snippets 2–3 (Hmadih, thermal-aware
//! task migration in many-core systems); one deliberate deviation is
//! documented on [`ChipGrid::build`]: `B` is assembled as a graph
//! Laplacian plus the ambient diagonal (an M-matrix), so `B⁻¹` is
//! entrywise non-negative and more power anywhere can only raise
//! temperatures. The snippet's raw positive off-diagonals would make a
//! neighbor's power *cool* core `i`, inverting the logic migration
//! relies on.
//!
//! `B⁻¹` is computed once per node type with [`crate::...`] — well,
//! with `thermaware_linalg`'s LU — and reused for every temperature
//! query; the supervisor's migration rung evaluates hundreds of
//! candidate swaps per response, all O(cores²) mat-vecs.

use thermaware_linalg::{LinalgError, Lu, Matrix};

/// Chip-model tuning knobs. All conductances in W/°C, powers in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipParams {
    /// Die thermal-trip redline (DTM threshold), °C.
    pub t_dtm_c: f64,
    /// Core-to-ambient conductance scale (the snippet's `0.08`, rescaled
    /// for this workload's per-core watts). Edge cores cool better via
    /// the snippet's edge factor.
    pub ambient_w_per_c: f64,
    /// Peak core-to-core coupling at distance 1 (the snippet's `0.7`).
    pub neighbor_w_per_c: f64,
    /// Exponential distance decay of the coupling (the snippet's `1.2`).
    pub decay: f64,
}

impl Default for ChipParams {
    /// Defaults sized for this repo's P-state tables (per-core draws of
    /// a few to ~15 W): a lone busy core rises ~25–45 °C above its
    /// inlet, a fully hot chip runs close to the 85 °C DTM redline.
    fn default() -> ChipParams {
        ChipParams {
            t_dtm_c: 85.0,
            ambient_w_per_c: 0.45,
            neighbor_w_per_c: 0.25,
            decay: 1.2,
        }
    }
}

/// One node type's die: grid geometry, ambient conductances, and the
/// precomputed `B⁻¹`.
#[derive(Debug, Clone)]
pub struct ChipGrid {
    n: usize,
    w: usize,
    h: usize,
    g: Vec<f64>,
    b_inv: Matrix,
    t_dtm_c: f64,
}

impl ChipGrid {
    /// Build the conductance system for an `n_cores`-core die and
    /// factor it.
    ///
    /// Geometry and coefficients per SNIPPETS.md snippet 3: cores on a
    /// near-square row-major grid, ambient conductance
    /// `G[i] = g0 · (0.3 + 0.7·(dx_edge + dy_edge)/(w+h))`, neighbor
    /// coupling `c_ij = c0 · exp(-dist/decay)`. Deviation: `B` is
    /// assembled as `B[i][i] = G[i] + Σ_j c_ij`, `B[i][j] = -c_ij`
    /// (Laplacian + ambient diagonal), so `B · 1 = G` and a powered-off
    /// chip sits exactly at ambient.
    pub fn build(n_cores: usize, params: &ChipParams) -> Result<ChipGrid, LinalgError> {
        let n = n_cores.max(1);
        let w = (n as f64).sqrt().ceil() as usize;
        let h = n.div_ceil(w);
        let xy = |i: usize| ((i % w) as f64, (i / w) as f64);

        let mut g = vec![0.0; n];
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            let (xi, yi) = xy(i);
            let dx = xi.min(w as f64 - xi - 1.0).max(0.0);
            let dy = yi.min(h as f64 - yi - 1.0).max(0.0);
            let edge_factor = 0.3 + 0.7 * (dx + dy) / (w + h) as f64;
            g[i] = params.ambient_w_per_c * edge_factor;
            b.row_mut(i)[i] += g[i];
            for j in (i + 1)..n {
                let (xj, yj) = xy(j);
                let dist = (xi - xj).hypot(yi - yj);
                let c = params.neighbor_w_per_c * (-dist / params.decay).exp();
                b.row_mut(i)[i] += c;
                b.row_mut(j)[j] += c;
                b.row_mut(i)[j] -= c;
                b.row_mut(j)[i] -= c;
            }
        }

        let b_inv = Lu::factor(b)?.inverse()?;
        Ok(ChipGrid {
            n,
            w,
            h,
            g,
            b_inv,
            t_dtm_c: params.t_dtm_c,
        })
    }

    /// Cores on this die.
    pub fn n_cores(&self) -> usize {
        self.n
    }

    /// Grid shape `(w, h)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.w, self.h)
    }

    /// Die thermal-trip redline, °C.
    pub fn t_dtm_c(&self) -> f64 {
        self.t_dtm_c
    }

    /// Steady-state core temperatures (°C) at the given node inlet
    /// (ambient) temperature and per-core powers in **kW** (the unit
    /// the P-state tables use; converted to watts internally).
    pub fn core_temps(&self, ambient_c: f64, core_power_kw: &[f64]) -> Vec<f64> {
        debug_assert_eq!(core_power_kw.len(), self.n);
        let rhs: Vec<f64> = (0..self.n)
            .map(|i| core_power_kw[i] * 1000.0 + ambient_c * self.g[i])
            .collect();
        self.b_inv.mat_vec(&rhs)
    }

    /// Hottest core temperature (°C); `ambient_c` when the power vector
    /// is empty.
    pub fn peak_c(&self, ambient_c: f64, core_power_kw: &[f64]) -> f64 {
        self.core_temps(ambient_c, core_power_kw)
            .into_iter()
            .fold(ambient_c, f64::max)
    }

    /// Thermal-safe power density: for each **active** core `i`, the
    /// uniform per-active-core power (watts) that would put core `i`
    /// exactly at the DTM redline if every active core drew it
    /// (snippet 2's `getTSPD` with this workload's zero idle draw and
    /// unit activity factors). Idle cores get `+inf`; a core whose
    /// redline is unreachable gets `0`.
    #[cfg(test)]
    pub fn tspd_w(&self, ambient_c: f64, active: &[bool]) -> Vec<f64> {
        debug_assert_eq!(active.len(), self.n);
        (0..self.n)
            .map(|i| {
                if !active[i] {
                    return f64::INFINITY;
                }
                let numerator = self.t_dtm_c - ambient_c;
                let denominator: f64 = (0..self.n)
                    .filter(|&j| active[j])
                    .map(|j| self.b_inv.row(i)[j])
                    .sum();
                if denominator > 1e-10 && numerator > 0.0 {
                    numerator / denominator
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The chip-wide TSPD budget: the binding (smallest) active-core
    /// budget from [`ChipGrid::tspd_w`], or `+inf` if nothing is active.
    #[cfg(test)]
    pub fn tspd_budget_w(&self, ambient_c: f64, active: &[bool]) -> f64 {
        self.tspd_w(ambient_c, active)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }
}

/// The chip-level thermal model for a whole floor: one factored
/// [`ChipGrid`] per node type (every node of a type shares a die
/// layout) and the common DTM redline.
#[derive(Debug, Clone)]
pub struct ChipModel {
    grids: Vec<ChipGrid>,
    t_dtm_c: f64,
}

impl ChipModel {
    /// Build one grid per node type from the type's core count.
    pub fn build(cores_per_node: &[usize], params: &ChipParams) -> Result<ChipModel, LinalgError> {
        let grids = cores_per_node
            .iter()
            .map(|&n| ChipGrid::build(n, params))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChipModel {
            grids,
            t_dtm_c: params.t_dtm_c,
        })
    }

    /// Number of node types modeled.
    pub fn n_types(&self) -> usize {
        self.grids.len()
    }

    /// The die model of node type `t`.
    pub fn grid(&self, node_type: usize) -> &ChipGrid {
        &self.grids[node_type]
    }

    /// Die thermal-trip redline, °C (shared by all types).
    pub fn t_dtm_c(&self) -> f64 {
        self.t_dtm_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powered_off_chip_sits_at_ambient() {
        let grid = ChipGrid::build(16, &ChipParams::default()).expect("grid builds");
        let temps = grid.core_temps(25.0, &[0.0; 16]);
        for t in temps {
            assert!((t - 25.0).abs() < 1e-6, "idle core at {t} °C, want ambient");
        }
    }

    #[test]
    fn power_anywhere_only_raises_temperatures() {
        let grid = ChipGrid::build(9, &ChipParams::default()).expect("grid builds");
        let base = grid.core_temps(20.0, &[0.005; 9]);
        let mut hotter = vec![0.005; 9];
        hotter[4] += 0.010; // +10 W on the center core
        let after = grid.core_temps(20.0, &hotter);
        for (b, a) in base.iter().zip(&after) {
            assert!(*a >= *b - 1e-9, "M-matrix property: temps never drop");
        }
        assert!(after[4] > base[4] + 1.0, "the powered core heats up");
    }

    #[test]
    fn clustered_load_runs_hotter_than_spread_load() {
        let grid = ChipGrid::build(16, &ChipParams::default()).expect("grid builds");
        // Same total power: 4 × 12 W clustered in a corner vs spread out.
        let mut clustered = vec![0.0; 16];
        for &i in &[0usize, 1, 4, 5] {
            clustered[i] = 0.012;
        }
        let mut spread = vec![0.0; 16];
        for &i in &[0usize, 3, 12, 15] {
            spread[i] = 0.012;
        }
        let hot = grid.peak_c(22.0, &clustered);
        let cool = grid.peak_c(22.0, &spread);
        assert!(
            hot > cool + 0.5,
            "clustered peak {hot} should exceed spread peak {cool}"
        );
    }

    #[test]
    fn tspd_idle_cores_are_unconstrained() {
        let grid = ChipGrid::build(8, &ChipParams::default()).expect("grid builds");
        let active = [true, false, true, false, true, false, true, false];
        let r = grid.tspd_w(25.0, &active);
        for (i, v) in r.iter().enumerate() {
            if active[i] {
                assert!(v.is_finite() && *v > 0.0, "active core {i} budget {v}");
            } else {
                assert!(v.is_infinite(), "idle core {i} must be unconstrained");
            }
        }
        // Hotter ambient shrinks every active budget.
        let tighter = grid.tspd_w(45.0, &active);
        for i in 0..8 {
            if active[i] {
                assert!(tighter[i] < r[i]);
            }
        }
    }

    #[test]
    fn tspd_budget_zero_when_ambient_exceeds_dtm() {
        let grid = ChipGrid::build(4, &ChipParams::default()).expect("grid builds");
        let b = grid.tspd_budget_w(90.0, &[true; 4]);
        assert_eq!(b, 0.0); // lint: allow(float-eq): the budget is the literal 0.0 fallback, never computed
    }

    #[test]
    fn model_builds_one_grid_per_type() {
        let model =
            ChipModel::build(&[4, 16], &ChipParams::default()).expect("model builds");
        assert_eq!(model.n_types(), 2);
        assert_eq!(model.grid(0).n_cores(), 4);
        assert_eq!(model.grid(1).n_cores(), 16);
        assert_eq!(model.grid(1).shape(), (4, 4));
    }
}
