//! The fixed-outlet room LP (paper Section V.B.2), written once.
//!
//! With the CRAC outlets fixed, inlet temperatures are affine in node
//! power (Eq. 6) and CRAC power is linear in them (Eq. 3), so Stage 1, the
//! Eq. 21 baseline and the Section VIII power-minimising dual are LPs over
//! *the same* redline rows and power row; they differ in their variables
//! and objectives. A caller describes its variables as a [`Layout`] — per
//! node, which variables carry the node's power and how many kW each
//! unit of them is — and this module owns the rest: the rows
//! ([`RoomLp::build`]), what a choice of outlets does to them
//! ([`RoomLp::set_outlets`]), the outlet search around them
//! ([`search_outlets`]) and the re-check of a solution against the exact,
//! Eq. 3-clamped model ([`recheck`]).
//!
//! The sensitivities `g_node`/`g_crac` do not depend on the outlets, so the
//! rows keep their coefficients across an outlet search; a candidate moves
//! every right-hand side (through the `base` vectors) and the power row's
//! coefficients (through `CoP(out_c)`). The model is therefore built once
//! per search and patched per candidate, which `thermaware_lp::Prepared`
//! holds to be bit for bit the model a build per candidate would make.
//!
//! What a candidate computes — the linearisation, the solve, the plan and
//! the exact re-check's steady state — is written into storage the search
//! keeps ([`Linearised`], the prepared problem's solution, the caller's
//! buffers), so a candidate allocates nothing once the first has grown
//! it; the search scores candidates and leaves the plan to the caller's
//! buffers, from which the winner's is copied out once.

use crate::error::SolveError;
use std::fmt::Write as _;
use thermaware_datacenter::{optimize_crac_outlets, CracSearchOptions, DataCenter, FINE_STEP_C};
use thermaware_lp::{ConstraintId, Prepared, Problem, RowOp, Sense, VarId};
use thermaware_thermal::{cop, ThermalCoefficients, ThermalState, RHO_CP};

/// How each node's power reads off the caller's variables, node after
/// node: `P_j = fixed_kw[j] + Σ kw_per_unit · var` over node `j`'s
/// terms. Every node's terms share one buffer, so a layout is three
/// vectors whatever the number of nodes, and one written over an
/// earlier one ([`Layout::clear`]) allocates nothing once grown.
#[derive(Default)]
pub(crate) struct Layout {
    /// `(variable, kW per unit)` of every node, node after node.
    terms: Vec<(VarId, f64)>,
    /// Where each node's terms end in `terms`; each node's start where
    /// the one before ends, the first at 0.
    end: Vec<usize>,
    /// Each node's power with every variable at zero, kW.
    fixed_kw: Vec<f64>,
}

impl Layout {
    /// No nodes, in the buffers the last ones grew.
    pub(crate) fn clear(&mut self) {
        self.terms.clear();
        self.end.clear();
        self.fixed_kw.clear();
    }

    /// Room for `nodes` more nodes of `terms` more terms in all, so that
    /// a layout of known size is three exact allocations.
    pub(crate) fn reserve(&mut self, nodes: usize, terms: usize) {
        self.terms.reserve_exact(terms);
        self.end.reserve_exact(nodes);
        self.fixed_kw.reserve_exact(nodes);
    }

    /// Append the next node: `fixed_kw` plus `vars`.
    pub(crate) fn push_node(&mut self, fixed_kw: f64, vars: impl IntoIterator<Item = (VarId, f64)>) {
        self.terms.extend(vars);
        self.end.push(self.terms.len());
        self.fixed_kw.push(fixed_kw);
    }

    /// How many nodes.
    pub(crate) fn len(&self) -> usize {
        self.fixed_kw.len()
    }

    /// Each node's terms, the variables that carry its power with kW per
    /// unit of each, node after node. Of known length, so that a vector
    /// collected from it is allocated once.
    pub(crate) fn nodes(&self) -> impl ExactSizeIterator<Item = &[(VarId, f64)]> {
        (0..self.end.len()).map(|j| {
            let start = if j == 0 { 0 } else { self.end[j - 1] };
            &self.terms[start..self.end[j]]
        })
    }
}

/// What a choice of outlets makes of the power model (Eq. 3 linearised),
/// written by [`RoomLp::set_outlets`] into the storage it has. The
/// default is empty storage.
#[derive(Default)]
pub(crate) struct Linearised {
    /// Total-power sensitivity to each node's power: the node itself plus
    /// the cooling it induces, `1 + Σ_c w_c·g_crac[(c, j)]` with
    /// `w_c = ρ·Cp·F_c / CoP(out_c)`.
    pub(crate) node_coeff: Vec<f64>,
    /// Total power with every variable at zero: the nodes' fixed draw at
    /// `node_coeff` plus the outlet-dependent CRAC term.
    pub(crate) fixed_power_kw: f64,
    /// The inlet temperatures' base vectors at the outlets.
    coeff: ThermalCoefficients,
    /// `w_c` of each CRAC.
    w: Vec<f64>,
}

/// A caller's LP with the room's rows appended, prepared for patching.
pub(crate) struct RoomLp<'a> {
    dc: &'a DataCenter,
    /// The prepared problem; the caller patches its objective and solves.
    pub(crate) lp: Prepared,
    /// The caller's variables, node by node.
    pub(crate) layout: Layout,
    rows: RoomRows,
    /// The total power the `power_budget` row holds the room to, kW.
    budget_kw: Option<f64>,
    power_coeffs: Vec<f64>,
}

/// The room's rows as appended to a caller's problem.
struct RoomRows {
    node_rows: Vec<ConstraintId>,
    crac_rows: Vec<ConstraintId>,
    /// The Eq. 7 Constraint 4 row, when asked for.
    power_row: Option<ConstraintId>,
    /// `Σ_j g_node[(i, j)] · fixed_kw[j]` per node row, and the same over
    /// `g_crac` per CRAC row.
    fixed_node: Vec<f64>,
    fixed_crac: Vec<f64>,
    /// `(node, kW per unit)` of each `power_budget` term, in row order.
    power_terms: Vec<(usize, f64)>,
}

/// Whether a row keeps a term of coefficient `c`.
fn kept(c: f64) -> bool {
    c.abs() >= 1e-14
}

/// Append `redline_node*`, `redline_crac*` and, with `power_row`, the
/// `power_budget` row to `problem`: per row `Σ_j g_j · P_j`, a term for
/// every variable of every node whose coefficient is [`kept`], nodes and
/// their variables in `layout` order, each term written once, straight
/// into the problem's arena.
fn append_rows(
    dc: &DataCenter,
    problem: &mut Problem,
    layout: &Layout,
    power_row: bool,
) -> RoomRows {
    let (g_node, g_crac) = (dc.thermal.g_node(), dc.thermal.g_crac());
    let n_rows = g_node.rows() + g_crac.rows() + usize::from(power_row);
    let per_row = layout.terms.len();
    problem.reserve_rows(n_rows, n_rows * per_row);
    let mut name = String::new();
    let mut thermal_rows = |prefix: &str, g: &thermaware_linalg::Matrix| {
        let (mut rows, mut fixed) = (Vec::with_capacity(g.rows()), Vec::with_capacity(g.rows()));
        for i in 0..g.rows() {
            let g = g.row(i);
            fixed.push(g.iter().zip(&layout.fixed_kw).map(|(g, fixed_kw)| g * fixed_kw).sum());
            name.clear();
            let _ = write!(name, "{prefix}{i}");
            rows.push(problem.add_row_with(&name, RowOp::Le, 0.0, |row| {
                for (g, vars) in g.iter().zip(layout.nodes()) {
                    for &(v, kw_per_unit) in vars {
                        let c = g * kw_per_unit;
                        if kept(c) {
                            row.push(v, c);
                        }
                    }
                }
            }));
        }
        (rows, fixed)
    };
    let (node_rows, fixed_node) = thermal_rows("redline_node", g_node);
    let (crac_rows, fixed_crac) = thermal_rows("redline_crac", g_crac);

    // Power row: Σ_j P_j + Σ_c w_c (Tin_c − out_c) <= Pconst. Its
    // coefficients `node_coeff_j · kW per unit` have `node_coeff_j >= 1`
    // at every candidate, so the terms it keeps are those of `g = 1`.
    let mut power_terms = Vec::with_capacity(if power_row { per_row } else { 0 });
    let power_row = power_row.then(|| {
        problem.add_row_with("power_budget", RowOp::Le, 0.0, |row| {
            for (node, vars) in layout.nodes().enumerate() {
                for &(v, kw_per_unit) in vars {
                    let c = 1.0 * kw_per_unit;
                    if kept(c) {
                        row.push(v, c);
                        power_terms.push((node, kw_per_unit));
                    }
                }
            }
        })
    });
    RoomRows {
        node_rows,
        crac_rows,
        power_row,
        fixed_node,
        fixed_crac,
        power_terms,
    }
}

impl<'a> RoomLp<'a> {
    /// Append `redline_node*`, `redline_crac*` and, under a
    /// `power_budget_kw`, the Eq. 7 Constraint 4 row to `problem`, which
    /// already holds the caller's variables and outlet-independent rows.
    /// Right-hand sides and the power row's coefficients are placeholders
    /// until [`RoomLp::set_outlets`].
    pub(crate) fn build(
        dc: &'a DataCenter,
        mut problem: Problem,
        layout: Layout,
        power_budget_kw: Option<f64>,
    ) -> Self {
        let since = thermaware_obs::enabled().then(std::time::Instant::now);
        assert_eq!(layout.len(), dc.n_nodes(), "one node of the layout per node");
        let rows = append_rows(dc, &mut problem, &layout, power_budget_kw.is_some());
        Self::finish(dc, problem.prepare(), layout, rows, power_budget_kw, since)
    }

    /// [`RoomLp::build`] in the storage of `lp` and `layout`, the room LP
    /// of an earlier build and its layout: `write` adds the caller's
    /// variables and outlet-independent rows to the emptied problem of
    /// direction `sense`, lays them out in the emptied `layout`, and
    /// returns anything else the caller wants back. The LP is the one
    /// [`RoomLp::build`] makes of the same problem, bit for bit
    /// ([`Prepared::rebuild`]).
    pub(crate) fn build_in<T>(
        dc: &'a DataCenter,
        mut lp: Prepared,
        mut layout: Layout,
        sense: Sense,
        power_budget_kw: Option<f64>,
        write: impl FnOnce(&mut Problem, &mut Layout) -> T,
    ) -> (Self, T) {
        let since = thermaware_obs::enabled().then(std::time::Instant::now);
        layout.clear();
        let (rows, written) = lp.rebuild(sense, |problem| {
            let written = write(problem, &mut layout);
            assert_eq!(layout.len(), dc.n_nodes(), "one node of the layout per node");
            let rows = append_rows(dc, problem, &layout, power_budget_kw.is_some());
            (rows, written)
        });
        (Self::finish(dc, lp, layout, rows, power_budget_kw, since), written)
    }

    /// The room LP around the prepared `lp` its `rows` were appended to,
    /// the build's time observed from `since`.
    fn finish(
        dc: &'a DataCenter,
        lp: Prepared,
        layout: Layout,
        rows: RoomRows,
        power_budget_kw: Option<f64>,
        since: Option<std::time::Instant>,
    ) -> Self {
        let room = RoomLp {
            dc,
            lp,
            layout,
            budget_kw: power_budget_kw,
            power_coeffs: Vec::with_capacity(rows.power_terms.len()),
            rows,
        };
        if let Some(since) = since {
            thermaware_obs::observe("core.room_lp.build_us", since.elapsed().as_nanos() as f64 / 1e3);
        }
        room
    }

    /// Patch every right-hand side and the power row for `outlets`, with
    /// what the outlets make of the power model written into `lin`.
    pub(crate) fn set_outlets(&mut self, outlets: &[f64], lin: &mut Linearised) {
        let dc = self.dc;
        let nn = dc.n_nodes();
        let Linearised { node_coeff, fixed_power_kw: fixed, coeff, w } = lin;
        dc.thermal.coefficients_in(outlets, coeff);
        w.clear();
        w.extend((0..dc.n_crac()).map(|c| RHO_CP * dc.cracs[c].flow_m3s / cop::cop(outlets[c])));
        let g_crac = dc.thermal.g_crac();
        node_coeff.clear();
        node_coeff.extend(
            (0..nn).map(|j| 1.0 + (0..dc.n_crac()).map(|c| w[c] * g_crac[(c, j)]).sum::<f64>()),
        );

        // The fixed node powers shift every row's rhs.
        let rows = &self.rows;
        for (i, &row) in rows.node_rows.iter().enumerate() {
            let rhs = dc.thermal.node_redline_c - coeff.base_node[i] - rows.fixed_node[i];
            self.lp.set_rhs(row, rhs);
        }
        for (c, &row) in rows.crac_rows.iter().enumerate() {
            let rhs = dc.thermal.crac_redline_c - coeff.base_crac[c] - rows.fixed_crac[c];
            self.lp.set_rhs(row, rhs);
        }

        // Power row, with Tin_c affine in node powers.
        let fixed_power_kw: f64 = (0..nn).map(|j| node_coeff[j] * self.layout.fixed_kw[j]).sum::<f64>()
            + (0..dc.n_crac())
                .map(|c| w[c] * (coeff.base_crac[c] - outlets[c]))
                .sum::<f64>();
        if let Some((row, budget_kw)) = rows.power_row.zip(self.budget_kw) {
            self.power_coeffs.clear();
            self.power_coeffs
                .extend(rows.power_terms.iter().map(|&(node, kw)| node_coeff[node] * kw));
            self.lp.set_row_coeffs(row, &self.power_coeffs);
            self.lp.set_rhs(row, budget_kw - fixed_power_kw);
        }
        *fixed = fixed_power_kw;
    }
}

/// The paper's coarse-to-fine outlet search over `evaluate`, which solves
/// one candidate, keeps its plan where the caller reads it, and returns
/// its score (`None` when infeasible); then `evaluate` once more at the
/// winner, so that the plan left behind is the winner's. Returns the
/// winning outlets and score.
///
/// A coarse step that is not a number of at least [`FINE_STEP_C`] is
/// [`SolveError::InvalidInput`]: zero or less has no grid, and a tiny one
/// a grid of billions of points per CRAC.
pub(crate) fn search_outlets(
    dc: &DataCenter,
    search: CracSearchOptions,
    stage: &'static str,
    mut evaluate: impl FnMut(&[f64]) -> Option<f64>,
) -> Result<(Vec<f64>, f64), SolveError> {
    let step = search.coarse_step_c;
    if !(step.is_finite() && step >= FINE_STEP_C) {
        return Err(SolveError::invalid_input(format!(
            "{stage}: coarse outlet step {step} °C is not a number of at least {FINE_STEP_C} °C"
        )));
    }
    let (outlets, _) = optimize_crac_outlets(&dc.cracs, search, &mut evaluate)
        .ok_or(SolveError::NoFeasibleOutlets { stage })?;
    let score = evaluate(&outlets).ok_or(SolveError::OutletRecheckFailed { stage })?;
    Ok((outlets, score))
}

/// Is `total_kw` inside `budget_kw`, to the tolerance an LP solution at
/// the budget needs?
pub(crate) fn within_budget(total_kw: f64, budget_kw: f64) -> bool {
    total_kw <= budget_kw * (1.0 + 1e-7) + 1e-7
}

/// Exact re-check of an LP solution: the LP's CRAC power is unclamped and
/// the true (Eq. 3) power can only be larger. Returns the exact total
/// power (IT + cooling, kW) of `node_powers_kw` at `outlets`, or `None`
/// when it breaks `budget_kw` or a redline for real. The steady state it
/// is read off is written into `state`.
pub(crate) fn recheck(
    dc: &DataCenter,
    outlets: &[f64],
    node_powers_kw: &[f64],
    budget_kw: f64,
    state: &mut ThermalState,
) -> Option<f64> {
    let (it, cooling) = dc.total_power_kw_in(outlets, node_powers_kw, state);
    let total = it + cooling;
    (within_budget(total, budget_kw) && dc.redlines_ok(state)).then_some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermaware_datacenter::ScenarioParams;

    /// The rows as two closures per term wrote them — one rule for the
    /// terms a row `Σ_j g_j · P_j` keeps, the row's `g` handed in as a
    /// `dyn Fn` — which the plain loops of `append_rows` replaced.
    fn append_rows_through_closures(
        dc: &DataCenter,
        problem: &mut Problem,
        layout: &Layout,
    ) -> (Vec<(usize, f64)>, Vec<f64>) {
        let nn = dc.n_nodes();
        let fixed_kw = &layout.fixed_kw;
        let visit_terms = |g: &dyn Fn(usize) -> f64,
                           visit: &mut dyn FnMut(usize, VarId, f64, f64)| {
            for (node, vars) in layout.nodes().enumerate() {
                let g = g(node);
                for &(v, kw_per_unit) in vars {
                    let c = g * kw_per_unit;
                    if c.abs() >= 1e-14 {
                        visit(node, v, kw_per_unit, c);
                    }
                }
            }
        };
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut fixed: Vec<f64> = Vec::new();
        for (name, g) in [("redline_node", dc.thermal.g_node()), ("redline_crac", dc.thermal.g_crac())] {
            for i in 0..g.rows() {
                fixed.push((0..nn).map(|j| g[(i, j)] * fixed_kw[j]).sum());
                terms.clear();
                visit_terms(&|j| g[(i, j)], &mut |_, v, _, c| terms.push((v, c)));
                problem.add_row_nodup(&format!("{name}{i}"), &terms, RowOp::Le, 0.0);
            }
        }
        let mut power_terms = Vec::new();
        terms.clear();
        visit_terms(&|_| 1.0, &mut |node, v, kw_per_unit, c| {
            terms.push((v, c));
            power_terms.push((node, kw_per_unit));
        });
        problem.add_row_nodup("power_budget", &terms, RowOp::Le, 0.0);
        (power_terms, fixed)
    }

    /// Term for term: names, variables, coefficient bits, in row order —
    /// on a room with two CRACs, nodes of two variables each at unequal kW
    /// per unit, one node without variables and one coefficient small
    /// enough to be dropped.
    #[test]
    fn plain_loops_write_the_rows_the_closures_wrote() {
        let dc = ScenarioParams {
            n_nodes: 12,
            n_crac: 2,
            ..ScenarioParams::paper(0.3, 0.1)
        }
        .build(5)
        .unwrap();
        let mut p = Problem::new(Sense::Maximize);
        let mut layout = Layout::default();
        for node in 0..dc.n_nodes() {
            let vars: Vec<(VarId, f64)> = match node {
                3 => Vec::new(),
                _ => (0..2)
                    .map(|s| {
                        let v = p.add_var(&format!("n{node}s{s}"), 0.0, 1.0, 1.0);
                        let kw = if (node, s) == (7, 1) { 1e-15 } else { 0.25 + 0.5 * s as f64 };
                        (v, kw)
                    })
                    .collect(),
            };
            layout.push_node(0.1 * node as f64, vars);
        }
        let (mut plain, mut closures) = (p.clone(), p);
        let rows = append_rows(&dc, &mut plain, &layout, true);
        let (power_terms, fixed) = append_rows_through_closures(&dc, &mut closures, &layout);
        // One row per node and per CRAC and the power row, as the closures
        // wrote them (the `{:?}` equality below holds the problems equal).
        let counts = (rows.node_rows.len(), rows.crac_rows.len(), rows.power_row.is_some());
        assert_eq!(counts, (dc.n_nodes(), dc.n_crac(), true));
        // `{:?}` of an f64 round-trips its bits.
        assert_eq!(format!("{plain:?}"), format!("{closures:?}"));
        assert_eq!(format!("{:?}", rows.power_terms), format!("{power_terms:?}"));
        let listed: Vec<f64> = rows.fixed_node.iter().chain(&rows.fixed_crac).copied().collect();
        assert_eq!(format!("{listed:?}"), format!("{fixed:?}"));
        assert_eq!(rows.power_terms.len(), 2 * (dc.n_nodes() - 1) - 1, "one term dropped");
    }

    #[test]
    fn recheck_refuses_2e7_over_budget_and_accepts_half_e7() {
        let dc = ScenarioParams::small_test().build(1).unwrap();
        let outlets = [17.0];
        let node_powers = dc.node_powers(&vec![0.0; dc.n_nodes()]);
        let recheck = |powers: &[f64], budget_kw| {
            recheck(&dc, &outlets, powers, budget_kw, &mut ThermalState::default())
        };
        let total = recheck(&node_powers, f64::INFINITY).expect("idle room is cool");
        assert!(total > 1.0, "relative term dominates: {total} kW");
        assert_eq!(recheck(&node_powers, total / (1.0 + 2e-7)), None);
        assert_eq!(recheck(&node_powers, total / (1.0 + 0.5e-7)), Some(total));
        // A redline broken for real is refused whatever the budget.
        let hot = dc.node_powers(&vec![1e3; dc.n_nodes()]);
        assert_eq!(recheck(&hot, f64::INFINITY), None);
    }
}
