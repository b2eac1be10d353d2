//! Steady-state thermal model (paper Section IV) and the linear
//! power→temperature coefficients consumed by the optimization LPs.
//!
//! With outlet temperatures ordered `[CRACs | nodes]` and `Tin = A·Tout`
//! (Eq. 5), node outlets obey Eq. 4 (`Tout = Tin + P/(ρ·Cp·F)`) while CRAC
//! outlets are *assigned*. Writing `A` in blocks
//!
//! ```text
//!        ┌ A_cc  A_cn ┐   (c = CRAC, n = node)
//!   A =  └ A_nc  A_nn ┘
//! ```
//!
//! the node-outlet fixed point is `(I − A_nn)·Tout_n = A_nc·c + D·P`, with
//! `D = diag(1/(ρ·Cp·F_j))` and `c` the CRAC outlet vector. `(I − A_nn)`
//! is factored once per scenario; inlet temperatures everywhere are then
//! *affine in the node powers* at fixed `c`:
//!
//! ```text
//! Tin_nodes = base_n(c) + G_n · P      Tin_cracs = base_c(c) + G_c · P
//! ```
//!
//! `G_n = A_nn·M·D` and `G_c = A_cn·M·D` (`M = (I − A_nn)⁻¹`) do **not**
//! depend on `c`, so the Stage-1 CRAC-temperature search recomputes only
//! the `base` vectors per candidate — the expensive inverse is paid once.
//!
//! A search asks for the base vectors and a steady state once per
//! candidate, so each has a form that writes into storage the caller
//! keeps ([`ThermalModel::coefficients_in`], [`ThermalModel::steady_state_in`]);
//! the allocating forms are those with fresh storage.

use crate::interference::CrossInterference;
use crate::layout::Layout;
use crate::{cop, RHO_CP};
use thermaware_linalg::{Lu, Matrix};

/// Steady-state temperatures of every unit. The default is empty
/// storage for [`ThermalModel::steady_state_in`] to write into.
#[derive(Debug, Clone, Default)]
pub struct ThermalState {
    /// Number of CRAC units (prefix of each vector).
    pub n_crac: usize,
    /// Inlet temperature of every unit, °C, `[CRACs | nodes]`.
    pub t_in: Vec<f64>,
    /// Outlet temperature of every unit, °C, `[CRACs | nodes]`.
    pub t_out: Vec<f64>,
}

impl ThermalState {
    /// Hottest node inlet, °C.
    pub fn max_node_inlet(&self) -> f64 {
        self.t_in[self.n_crac..]
            .iter()
            .fold(f64::NEG_INFINITY, |m, &t| m.max(t))
    }

    /// Hottest CRAC inlet, °C.
    pub fn max_crac_inlet(&self) -> f64 {
        self.t_in[..self.n_crac]
            .iter()
            .fold(f64::NEG_INFINITY, |m, &t| m.max(t))
    }

    /// Worst redline violation in °C (≤ 0 when all inlets are safe).
    pub fn redline_violation(&self, node_redline_c: f64, crac_redline_c: f64) -> f64 {
        (self.max_node_inlet() - node_redline_c).max(self.max_crac_inlet() - crac_redline_c)
    }
}

/// The outlet-dependent part of the affine inlet temperatures at fixed
/// CRAC outlets: `Tin = base + G · P`, with the sensitivities `G` the
/// model's own ([`ThermalModel::g_node`], [`ThermalModel::g_crac`]),
/// the same at every outlet setting. The default is empty storage for
/// [`ThermalModel::coefficients_in`] to write into.
#[derive(Debug, Clone, Default)]
pub struct ThermalCoefficients {
    /// `Tin_node_i = base_node[i] + Σ_j g_node[(i, j)] · P_j`.
    pub base_node: Vec<f64>,
    /// `Tin_crac_i = base_crac[i] + Σ_j g_crac[(i, j)] · P_j`.
    pub base_crac: Vec<f64>,
    /// Node outlets at zero node power, `M · A_nc · c`: what the base
    /// vectors are summed from.
    zero_power_out: Vec<f64>,
}

/// The assembled steady-state thermal model of one data center.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    n_crac: usize,
    n_nodes: usize,
    /// Air flows `[CRACs | nodes]`, m³/s.
    flows: Vec<f64>,
    /// Heat-flow mixing matrix `A` (Eq. 5).
    a: Matrix,
    /// `M = (I − A_nn)⁻¹`.
    m_inv: Matrix,
    /// `G_n = A_nn · M · D` (node-inlet sensitivities).
    g_node: Matrix,
    /// `G_c = A_cn · M · D` (CRAC-inlet sensitivities).
    g_crac: Matrix,
    /// Redline inlet temperature for nodes, °C (Eq. 6).
    pub node_redline_c: f64,
    /// Redline inlet temperature for CRAC units, °C (Eq. 6).
    pub crac_redline_c: f64,
}

/// `acc[r] += Σ_j a[(row0 + r, col0 + j)] · x[j]` for every `r`: each
/// row's products are added to that row's accumulator one after the other
/// in ascending `j`, so every sum is the one-row loop's bit for bit — but
/// four rows go side by side, which keeps four add chains in flight where
/// one row alone waits out each add's latency (`n_nodes²` dependent adds a
/// call, once per CRAC-outlet candidate).
fn add_block_times(a: &Matrix, row0: usize, col0: usize, x: &[f64], acc: &mut [f64]) {
    let window = |r: usize| &a.row(row0 + r)[col0..col0 + x.len()];
    let mut quads = acc.chunks_exact_mut(4);
    let mut r = 0;
    for quad in &mut quads {
        let [mut s0, mut s1, mut s2, mut s3] = [quad[0], quad[1], quad[2], quad[3]];
        let rows = window(r).iter().zip(window(r + 1)).zip(window(r + 2)).zip(window(r + 3));
        for (&t, (((&a0, &a1), &a2), &a3)) in x.iter().zip(rows) {
            s0 += a0 * t;
            s1 += a1 * t;
            s2 += a2 * t;
            s3 += a3 * t;
        }
        quad.copy_from_slice(&[s0, s1, s2, s3]);
        r += 4;
    }
    for (k, s) in quads.into_remainder().iter_mut().enumerate() {
        for (&a, &t) in window(r + k).iter().zip(x) {
            *s += a * t;
        }
    }
}

impl ThermalModel {
    /// Assemble a model from a layout, per-unit flows, and validated
    /// cross-interference coefficients. Factors `(I − A_nn)` once.
    ///
    /// Errors if the recirculation structure is singular (physically: a
    /// closed recirculation loop with no CRAC influence, which cannot
    /// reach steady state).
    pub fn new(
        layout: &Layout,
        flows: &[f64],
        ci: &CrossInterference,
        node_redline_c: f64,
        crac_redline_c: f64,
    ) -> Result<ThermalModel, String> {
        let nc = layout.n_crac;
        let nn = layout.n_nodes();
        let n = nc + nn;
        assert_eq!(flows.len(), n, "flow vector length");
        assert_eq!(ci.n_units(), n, "interference dimension");
        let a = ci.a_matrix(flows);

        // I - A_nn.
        let mut i_minus_ann = Matrix::from_fn(nn, nn, |i, j| -a[(nc + i, nc + j)]);
        for i in 0..nn {
            i_minus_ann[(i, i)] += 1.0;
        }
        let m_inv = Lu::factor(i_minus_ann)
            .map_err(|e| format!("recirculation structure is singular: {e}"))?
            .inverse()
            .map_err(|e| format!("inverting (I - A_nn): {e}"))?;

        // G_n = A_nn * M * D  and  G_c = A_cn * M * D, with D the diagonal
        // of 1/(rho*Cp*F_node). Fold D in by scaling M's columns.
        let mut m_d = m_inv.clone();
        for i in 0..nn {
            for j in 0..nn {
                m_d[(i, j)] /= RHO_CP * flows[nc + j];
            }
        }
        let a_nn = Matrix::from_fn(nn, nn, |i, j| a[(nc + i, nc + j)]);
        let a_cn = Matrix::from_fn(nc, nn, |i, j| a[(i, nc + j)]);
        let g_node = a_nn.mat_mul(&m_d).expect("shape");
        let g_crac = a_cn.mat_mul(&m_d).expect("shape");

        Ok(ThermalModel {
            n_crac: nc,
            n_nodes: nn,
            flows: flows.to_vec(),
            a,
            m_inv,
            g_node,
            g_crac,
            node_redline_c,
            crac_redline_c,
        })
    }

    /// Number of CRAC units.
    pub fn n_crac(&self) -> usize {
        self.n_crac
    }

    /// Number of compute nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Per-unit air flows `[CRACs | nodes]`.
    pub fn flows(&self) -> &[f64] {
        &self.flows
    }

    /// Node-inlet sensitivity to node powers, `G_n` of the module docs
    /// (`n_nodes × n_nodes`); the same at every CRAC outlet setting.
    pub fn g_node(&self) -> &Matrix {
        &self.g_node
    }

    /// CRAC-inlet sensitivity to node powers, `G_c` (`n_crac × n_nodes`).
    pub fn g_crac(&self) -> &Matrix {
        &self.g_crac
    }

    /// Steady-state temperatures for assigned CRAC outlets (°C) and node
    /// powers (kW, *total* node power including base).
    pub fn steady_state(&self, crac_out_c: &[f64], node_power_kw: &[f64]) -> ThermalState {
        let mut state = ThermalState::default();
        self.steady_state_in(crac_out_c, node_power_kw, &mut state);
        state
    }

    /// [`ThermalModel::steady_state`] written into `state`, in the
    /// storage it has.
    pub fn steady_state_in(&self, crac_out_c: &[f64], node_power_kw: &[f64], state: &mut ThermalState) {
        assert_eq!(crac_out_c.len(), self.n_crac);
        assert_eq!(node_power_kw.len(), self.n_nodes);
        let nc = self.n_crac;
        let nn = self.n_nodes;
        state.n_crac = nc;
        let (t_in, t_out) = (&mut state.t_in, &mut state.t_out);
        t_in.clear();
        t_in.resize(nc + nn, 0.0);
        t_out.clear();
        t_out.extend_from_slice(crac_out_c);
        t_out.resize(nc + nn, 0.0);

        // rhs = A_nc * c + D * P, held in the node part of `t_in` until
        // the inlets overwrite it.
        let rhs = &mut t_in[nc..];
        for (i, r) in rhs.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &c) in crac_out_c.iter().enumerate() {
                acc += self.a[(nc + i, j)] * c;
            }
            acc += node_power_kw[i] / (RHO_CP * self.flows[nc + i]);
            *r = acc;
        }
        self.m_inv.mat_vec_in(rhs, &mut t_out[nc..]);
        self.a.mat_vec_in(t_out, t_in);
    }

    /// Affine inlet coefficients at fixed CRAC outlets (see module docs).
    /// The sensitivity matrices are precomputed; only the base vectors are
    /// built here, so this is cheap enough for the CRAC temperature search.
    pub fn coefficients(&self, crac_out_c: &[f64]) -> ThermalCoefficients {
        let mut coeff = ThermalCoefficients::default();
        self.coefficients_in(crac_out_c, &mut coeff);
        coeff
    }

    /// [`ThermalModel::coefficients`] written into `coeff`, in the
    /// storage it has.
    pub fn coefficients_in(&self, crac_out_c: &[f64], coeff: &mut ThermalCoefficients) {
        assert_eq!(crac_out_c.len(), self.n_crac);
        let nc = self.n_crac;
        let nn = self.n_nodes;
        let ThermalCoefficients { base_node, base_crac, zero_power_out: t0 } = coeff;

        // t0 = M * (A_nc * c): node outlets with zero node power.
        let anc_c = base_node;
        anc_c.clear();
        anc_c.resize(nn, 0.0);
        for (i, v) in anc_c.iter_mut().enumerate() {
            for (j, &c) in crac_out_c.iter().enumerate() {
                *v += self.a[(nc + i, j)] * c;
            }
        }
        t0.clear();
        t0.resize(nn, 0.0);
        self.m_inv.mat_vec_in(anc_c, t0);

        // base_node_i = (A_nc c)_i + (A_nn t0)_i ; base_crac_i = (A_cc c)_i
        // + (A_cn t0)_i.
        let base_node = anc_c;
        add_block_times(&self.a, nc, nc, t0, base_node);
        base_crac.clear();
        base_crac.resize(nc, 0.0);
        for (i, b) in base_crac.iter_mut().enumerate() {
            for (j, &c) in crac_out_c.iter().enumerate() {
                *b += self.a[(i, j)] * c;
            }
        }
        add_block_times(&self.a, 0, nc, t0, base_crac);
    }

    /// Total CRAC power (Eqs. 2–3) at a steady state, given the assigned
    /// outlets. Clamped at zero per Eq. 3's "no heat to remove" case.
    pub fn total_crac_power_kw(&self, state: &ThermalState) -> f64 {
        (0..self.n_crac)
            .map(|i| {
                cop::crac_power_kw(self.flows[i], state.t_in[i], state.t_out[i])
            })
            .sum()
    }

    /// Steady state with some CRAC units **failed** (coil off, fan still
    /// turning): a failed unit stops cooling but keeps moving air, so its
    /// outlet temperature is no longer assigned — it equals its inlet,
    /// exactly like a zero-power compute node. Entries of `crac_out_c`
    /// for failed units are ignored.
    ///
    /// Failed units join the nodes in the free-outlet block `F`:
    /// `(I − A_FF)·T_F = A_FW·c + d`, factored on demand (failure
    /// analysis is occasional, not hot-path). Errors when every CRAC has
    /// failed — with no heat sink the room has no steady state (the block
    /// matrix is singular because its rows sum to 1).
    pub fn steady_state_with_failed_cracs(
        &self,
        crac_out_c: &[f64],
        node_power_kw: &[f64],
        failed: &[bool],
    ) -> Result<ThermalState, String> {
        assert_eq!(crac_out_c.len(), self.n_crac);
        assert_eq!(node_power_kw.len(), self.n_nodes);
        assert_eq!(failed.len(), self.n_crac);
        if failed.iter().all(|&f| !f) {
            return Ok(self.steady_state(crac_out_c, node_power_kw));
        }
        let n = self.n_crac + self.n_nodes;
        // Free block: failed CRACs then all nodes; working block: live
        // CRACs with assigned outlets.
        let free: Vec<usize> = (0..self.n_crac)
            .filter(|&c| failed[c])
            .chain(self.n_crac..n)
            .collect();
        let working: Vec<usize> = (0..self.n_crac).filter(|&c| !failed[c]).collect();
        if working.is_empty() {
            return Err("all CRAC units failed: no steady state exists".to_owned());
        }
        let nf = free.len();
        // (I - A_FF) and rhs = A_FW c + d.
        let mut m = Matrix::from_fn(nf, nf, |i, j| -self.a[(free[i], free[j])]);
        for i in 0..nf {
            m[(i, i)] += 1.0;
        }
        let lu = Lu::factor(m).map_err(|e| format!("failure block singular: {e}"))?;
        let mut rhs = vec![0.0; nf];
        for (i, &u) in free.iter().enumerate() {
            let mut acc = 0.0;
            for &w in &working {
                acc += self.a[(u, w)] * crac_out_c[w];
            }
            if u >= self.n_crac {
                acc += node_power_kw[u - self.n_crac] / (RHO_CP * self.flows[u]);
            }
            rhs[i] = acc;
        }
        let t_free = lu.solve(&rhs).map_err(|e| format!("failure solve: {e}"))?;

        let mut t_out = vec![0.0; n];
        for &w in &working {
            t_out[w] = crac_out_c[w];
        }
        for (i, &u) in free.iter().enumerate() {
            t_out[u] = t_free[i];
        }
        let t_in = self.a.mat_vec(&t_out);
        Ok(ThermalState {
            n_crac: self.n_crac,
            t_in,
            t_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{generate_ipf, uniform_flows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_model() -> (Layout, Vec<f64>, ThermalModel) {
        let layout = Layout::hot_cold_aisle(2, 20);
        let flows = uniform_flows(&layout, 0.07, None);
        let mut rng = StdRng::seed_from_u64(5);
        let ci = generate_ipf(&layout, &flows, &mut rng).unwrap();
        let model = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0).unwrap();
        (layout, flows, model)
    }

    /// The base vectors as one accumulator per row summed them, a row at
    /// a time: what `add_block_times` must reproduce bit for bit.
    fn bases_one_row_at_a_time(model: &ThermalModel, crac_out_c: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (nc, nn) = (model.n_crac, model.n_nodes);
        let mut anc_c = vec![0.0; nn];
        for (i, v) in anc_c.iter_mut().enumerate() {
            for (j, &c) in crac_out_c.iter().enumerate() {
                *v += model.a[(nc + i, j)] * c;
            }
        }
        let t0 = model.m_inv.mat_vec(&anc_c);
        let mut base_node = vec![0.0; nn];
        for (i, b) in base_node.iter_mut().enumerate() {
            let mut acc = anc_c[i];
            for (j, &t) in t0.iter().enumerate() {
                acc += model.a[(nc + i, nc + j)] * t;
            }
            *b = acc;
        }
        let mut base_crac = vec![0.0; nc];
        for (i, b) in base_crac.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &c) in crac_out_c.iter().enumerate() {
                acc += model.a[(i, j)] * c;
            }
            for (j, &t) in t0.iter().enumerate() {
                acc += model.a[(i, nc + j)] * t;
            }
            *b = acc;
        }
        (base_node, base_crac)
    }

    #[test]
    fn four_rows_at_a_time_sum_what_one_row_sums() {
        // Node counts that leave 0 to 3 rows after the last four, CRAC
        // counts on either side of four.
        for (n_crac, n_nodes, seed) in [(2, 20, 5), (1, 21, 6), (3, 22, 7), (5, 23, 8), (4, 7, 9)] {
            let layout = Layout::hot_cold_aisle(n_crac, n_nodes);
            let flows = uniform_flows(&layout, 0.07, None);
            let mut rng = StdRng::seed_from_u64(seed);
            let ci = generate_ipf(&layout, &flows, &mut rng).unwrap();
            let model = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0).unwrap();
            let outlets: Vec<f64> = (0..n_crac).map(|c| 14.5 + 1.75 * c as f64).collect();
            let coeff = model.coefficients(&outlets);
            let (base_node, base_crac) = bases_one_row_at_a_time(&model, &outlets);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&coeff.base_node), bits(&base_node), "{n_crac} x {n_nodes}");
            assert_eq!(bits(&coeff.base_crac), bits(&base_crac), "{n_crac} x {n_nodes}");
        }
    }

    /// The in-place forms, writing into storage a larger room's calls
    /// left, give what the allocating forms give, bit for bit.
    #[test]
    fn in_place_forms_in_used_storage_equal_fresh_ones() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (mut coeff, mut state) = (ThermalCoefficients::default(), ThermalState::default());
        for (n_crac, n_nodes, seed) in [(3, 24, 2), (2, 20, 5), (1, 7, 9)] {
            let layout = Layout::hot_cold_aisle(n_crac, n_nodes);
            let flows = uniform_flows(&layout, 0.07, None);
            let mut rng = StdRng::seed_from_u64(seed);
            let ci = generate_ipf(&layout, &flows, &mut rng).unwrap();
            let model = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0).unwrap();
            let outlets: Vec<f64> = (0..n_crac).map(|c| 13.0 + 2.5 * c as f64).collect();
            let powers: Vec<f64> = (0..n_nodes).map(|j| 0.2 + 0.05 * (j % 5) as f64).collect();
            model.coefficients_in(&outlets, &mut coeff);
            let fresh = model.coefficients(&outlets);
            assert_eq!(bits(&coeff.base_node), bits(&fresh.base_node), "{n_crac} x {n_nodes}");
            assert_eq!(bits(&coeff.base_crac), bits(&fresh.base_crac), "{n_crac} x {n_nodes}");
            model.steady_state_in(&outlets, &powers, &mut state);
            let fresh = model.steady_state(&outlets, &powers);
            assert_eq!(state.n_crac, fresh.n_crac);
            assert_eq!(bits(&state.t_in), bits(&fresh.t_in), "{n_crac} x {n_nodes}");
            assert_eq!(bits(&state.t_out), bits(&fresh.t_out), "{n_crac} x {n_nodes}");
        }
    }

    #[test]
    fn zero_power_means_uniform_cold() {
        // With no node power, every temperature equals the (uniform) CRAC
        // outlet: the only heat source is gone, so air mixes at 18 °C.
        let (_, _, model) = small_model();
        let state = model.steady_state(&[18.0, 18.0], &[0.0; 20]);
        for &t in &state.t_in {
            assert!((t - 18.0).abs() < 1e-8, "t_in = {t}");
        }
        for &t in &state.t_out {
            assert!((t - 18.0).abs() < 1e-8);
        }
    }

    #[test]
    fn energy_balance_heat_in_equals_heat_removed() {
        // Conservation: total node power must equal the heat crossing the
        // CRAC coils, Σ ρCpF_i (Tin_i - Tout_i).
        let (_, flows, model) = small_model();
        let powers: Vec<f64> = (0..20).map(|i| 0.3 + 0.02 * i as f64).collect();
        let state = model.steady_state(&[16.0, 18.0], &powers);
        let total_power: f64 = powers.iter().sum();
        let heat_removed: f64 = (0..2)
            .map(|i| RHO_CP * flows[i] * (state.t_in[i] - state.t_out[i]))
            .sum();
        assert!(
            (total_power - heat_removed).abs() < 1e-6 * total_power,
            "power {total_power} vs heat {heat_removed}"
        );
    }

    #[test]
    fn node_outlet_equals_inlet_plus_rise() {
        // Eq. 4 must hold exactly at the solution.
        let (_, flows, model) = small_model();
        let powers = vec![0.5; 20];
        let state = model.steady_state(&[15.0, 15.0], &powers);
        for i in 0..20 {
            let expected = state.t_in[2 + i] + powers[i] / (RHO_CP * flows[2 + i]);
            assert!((state.t_out[2 + i] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn more_power_means_hotter_inlets() {
        let (_, _, model) = small_model();
        let lo = model.steady_state(&[18.0, 18.0], &[0.2; 20]);
        let hi = model.steady_state(&[18.0, 18.0], &[0.8; 20]);
        assert!(hi.max_node_inlet() > lo.max_node_inlet());
        assert!(hi.max_crac_inlet() > lo.max_crac_inlet());
    }

    #[test]
    fn coefficients_match_steady_state() {
        // The affine form must reproduce the exact solve for arbitrary
        // powers.
        let (_, _, model) = small_model();
        let crac_out = [14.0, 19.0];
        let coeff = model.coefficients(&crac_out);
        let powers: Vec<f64> = (0..20).map(|i| 0.1 * (i % 7) as f64).collect();
        let state = model.steady_state(&crac_out, &powers);
        for i in 0..20 {
            let affine = coeff.base_node[i]
                + (0..20).map(|j| model.g_node()[(i, j)] * powers[j]).sum::<f64>();
            assert!(
                (affine - state.t_in[2 + i]).abs() < 1e-9,
                "node {i}: affine {affine} vs exact {}",
                state.t_in[2 + i]
            );
        }
        for i in 0..2 {
            let affine = coeff.base_crac[i]
                + (0..20).map(|j| model.g_crac()[(i, j)] * powers[j]).sum::<f64>();
            assert!((affine - state.t_in[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn crac_power_positive_under_load() {
        let (_, _, model) = small_model();
        let state = model.steady_state(&[15.0, 15.0], &[0.6; 20]);
        assert!(model.total_crac_power_kw(&state) > 0.0);
    }

    #[test]
    fn redline_violation_sign() {
        let (_, _, model) = small_model();
        let cool = model.steady_state(&[12.0, 12.0], &[0.05; 20]);
        assert!(cool.redline_violation(25.0, 40.0) < 0.0);
        let hot = model.steady_state(&[24.9, 24.9], &[2.0; 20]);
        assert!(hot.redline_violation(25.0, 40.0) > 0.0);
    }

    #[test]
    fn sensitivities_are_nonnegative() {
        // More power anywhere can never cool any inlet.
        let (_, _, model) = small_model();
        for i in 0..20 {
            for j in 0..20 {
                assert!(model.g_node()[(i, j)] >= -1e-12);
            }
        }
        for i in 0..2 {
            for j in 0..20 {
                assert!(model.g_crac()[(i, j)] >= -1e-12);
            }
        }
    }
}
