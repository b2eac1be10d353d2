//! A problem kept ready to be solved again and again.
//!
//! [`Problem::solve_warm`] rewrites the model into the engines' internal
//! form on every call. A caller that solves one model many times with a
//! few numbers changed in between — the Stage-1 CRAC sweep changes the
//! right-hand sides and one row of coefficients per candidate — pays for
//! that rewrite each time although almost all of it comes out the same.
//! [`Prepared`] owns the problem together with its internal form and
//! applies each change to both in place. The patched form is bit for bit
//! what a rebuild would produce (the crate's property tests hold it to
//! that), and [`Prepared::solve_warm`] runs the same solve function as
//! [`Problem::solve_warm`], so a prepared problem gives the answers, pivot
//! for pivot, of the same problem built afresh.
//!
//! A solve works in storage the prepared problem keeps — the simplex
//! workspace and the [`Solution`] it writes its optimum into, which
//! [`Prepared::solve_warm`] lends out until the next call — so once an
//! earlier solve has grown the buffers, a solve allocates nothing.
//!
//! A caller that builds one model after another — a replan's zone
//! sweeps, each its own room LP — builds each in the storage of the last
//! ([`Prepared::rebuild`]): the problem's variables and row arena, the
//! form's stores, the solve's workspace and its solution keep their
//! buffers, so a model no larger than the one before allocates nothing
//! for itself.

use crate::basis::Basis;
use crate::internal::InternalForm;
use crate::model::{solve_with, ConstraintId, Problem, Sense, VarId};
use crate::revised::Workspace;
use crate::solution::{LpError, Solution};

/// A [`Problem`] together with its internal form; see the module docs.
pub struct Prepared {
    problem: Problem,
    form: InternalForm,
    /// What the last solve worked in, for the next one to work in.
    ws: Workspace,
    /// Where the last solve wrote its optimum, for the next one to write
    /// in.
    solution: Solution,
}

impl Problem {
    /// Fix the model's structure — variables, bounds, rows and which
    /// variables each row mentions — and keep it ready for repeated
    /// solves with patched numbers.
    pub fn prepare(self) -> Prepared {
        let form = InternalForm::build(&self);
        Prepared {
            problem: self,
            form,
            ws: Workspace::default(),
            solution: Solution::empty(),
        }
    }
}

impl Prepared {
    /// Make this a new model in the storage the last one occupies:
    /// `write` gets the problem emptied — direction `sense`, no variables
    /// and no rows — and adds the model to it, which is then prepared as
    /// [`Problem::prepare`] would prepare it. What `write` returns is
    /// handed back.
    ///
    /// The model is the one `write` would make of [`Problem::new`], and
    /// its solves are that model's, pivot for pivot and bit for bit,
    /// whatever model the storage held before. If `write` panics, the
    /// prepared problem is left half written: drop it.
    pub fn rebuild<R>(&mut self, sense: Sense, write: impl FnOnce(&mut Problem) -> R) -> R {
        self.problem.clear(sense);
        let written = write(&mut self.problem);
        self.form.rebuild(&self.problem);
        written
    }

    /// Replace the right-hand side of a row.
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn set_rhs(&mut self, row: ConstraintId, rhs: f64) {
        assert!(!rhs.is_nan(), "NaN rhs");
        self.problem.cons[row.0].rhs = rhs;
        self.form.patch_rhs(&self.problem, row.0);
    }

    /// Replace the coefficient values of a row, keeping its sparsity
    /// pattern: `coeffs` holds one value per distinct variable of the
    /// row, in the order [`Problem::add_row`] first met them.
    ///
    /// # Panics
    /// Panics on NaN or when `coeffs` is not as long as the row.
    pub fn set_row_coeffs(&mut self, row: ConstraintId, coeffs: &[f64]) {
        let terms = &mut self.problem.terms;
        let at = terms.range(row.0);
        assert_eq!(coeffs.len(), at.len(), "set_row_coeffs: row length");
        for (a, &c) in terms.val[at].iter_mut().zip(coeffs) {
            assert!(!c.is_nan(), "NaN coefficient");
            *a = c;
        }
        self.form.patch_row(&self.problem, row.0);
    }

    /// Replace a variable's objective coefficient.
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn set_var_objective(&mut self, v: VarId, objective: f64) {
        self.problem.set_var_objective(v, objective);
        self.form.patch_cost(&self.problem, v.0);
    }

    /// [`Problem::solve_warm`] on the kept form, its optimum written into
    /// the solution this problem keeps and lent out until the next solve:
    /// the same `Solution`, bit for bit, basis included. A solve is the
    /// one place that may have to re-normalise the form (a patch moved a
    /// row's right-hand side across zero), hence `&mut self`.
    pub fn solve_warm(&mut self, warm: Option<&Basis>) -> Result<&Solution, LpError> {
        solve_with(&self.problem, Some(&mut self.form), &mut self.ws, warm, &mut self.solution)?;
        Ok(&self.solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internal::VarState;
    use crate::model::{RowOp, Sense};
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The fields patches keep current whatever the row signs did.
    fn assert_current_fields_match(a: &InternalForm, b: &InternalForm) {
        assert_eq!(bits(&a.shifted_rhs), bits(&b.shifted_rhs), "shifted_rhs");
        assert_eq!(bits(&a.act_lo), bits(&b.act_lo), "act_lo");
        assert_eq!(bits(&a.act_hi), bits(&b.act_hi), "act_hi");
        assert_eq!(a.unshifted, b.unshifted, "unshifted");
        // Artificial columns come and go with the row signs; everything
        // before them is laid out by the variables and rows alone.
        let n = a.art_start;
        assert_eq!(n, b.art_start);
        assert_eq!(bits(&a.cost[..n]), bits(&b.cost[..n]), "cost");
        assert_eq!(bits(&a.upper[..n]), bits(&b.upper[..n]), "upper");
    }

    /// Field by field, bit by bit — the row stores as the simplex reads
    /// them ([`InternalForm::row_store`]), each form's against its
    /// problem's arena (`pa`, `pb`).
    fn assert_same_form(a: (&InternalForm, &Problem), b: (&InternalForm, &Problem)) {
        let ((a, pa), (b, pb)) = (a, b);
        assert_current_fields_match(a, b);
        assert_eq!(bits(&a.cost), bits(&b.cost), "cost");
        assert_eq!(bits(&a.upper), bits(&b.upper), "upper");
        assert_eq!(a.sense_sign.to_bits(), b.sense_sign.to_bits());
        // `VarMap` carries bounds; `{:?}` of an f64 round-trips its bits.
        assert_eq!(format!("{:?}", a.maps), format!("{:?}", b.maps));
        assert_eq!(bits(&a.rhs), bits(&b.rhs), "rhs");
        assert_eq!(a.ops, b.ops, "ops");
        assert_eq!(a.flipped, b.flipped, "flip pattern");
        for (which, x, y) in [("cols", &a.cols, &b.cols), ("rows", a.row_store(pa), b.row_store(pb))] {
            assert_eq!(x.start, y.start, "{which}.start");
            assert_eq!(x.at, y.at, "{which}.at");
            assert_eq!(bits(&x.val), bits(&y.val), "{which}.val");
            assert_eq!(x.run, y.run, "{which}.run");
        }
        assert_rows_transpose_cols(a, pa);
        assert_eq!(a.slack_col, b.slack_col);
        assert_eq!(a.art_col, b.art_col);
        assert_eq!((a.art_start, a.n_total), (b.art_start, b.n_total));
        assert_eq!(a.signature, b.signature, "signature");
        assert_eq!((a.stale_rows, b.stale_rows), (0, 0));
    }

    /// The row-major copy is the structural block of `cols`, transposed:
    /// the same entries with the same bits, and nothing else.
    fn assert_rows_transpose_cols(f: &InternalForm, problem: &Problem) {
        // Slack columns are numbered from the end of the structural ones.
        let n_struct = f.slack_col.iter().flatten().next().copied().unwrap_or(f.art_start);
        let mut by_col: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n_struct];
        for i in 0..f.m() {
            for (j, a) in f.row_store(problem).line(i) {
                by_col[j].push((i, a.to_bits()));
            }
        }
        for (j, listed) in by_col.iter().enumerate() {
            let column: Vec<(usize, u64)> =
                f.cols.line(j).map(|(i, a)| (i, a.to_bits())).collect();
            assert_eq!(listed, &column, "column {j} read off the rows");
        }
    }

    /// Check the kept form against a rebuild of the patched problem, and
    /// that rebuild — one walk per row — against the build of separate
    /// passes it replaced.
    fn check(p: &Prepared) {
        let q = &p.problem;
        let fresh = InternalForm::build(q);
        assert_same_form((&fresh, q), (&InternalForm::build_multipass(q), q));
        assert_current_fields_match(&p.form, &fresh);
        let moved = (0..fresh.m())
            .filter(|&i| p.form.flipped[i] != fresh.flipped[i])
            .count();
        assert_eq!(p.form.stale_rows, moved, "stale rows are the rows that changed sign");
        if moved == 0 {
            assert_same_form((&p.form, q), (&fresh, q));
        }
    }

    #[derive(Debug, Clone)]
    enum Patch {
        Rhs(usize, f64),
        Row(usize, Vec<f64>),
        Objective(usize, f64),
        Sync,
    }

    /// `(op, rhs, per-variable (coefficient, present?), layout)`. Layout
    /// bit 0 lists every variable whatever its `present` says (a dense
    /// row: its columns are one run), bit 1 lists the terms last variable
    /// first (never an ascending run beyond a single term).
    type RowSpec = (u8, f64, Vec<(f64, bool)>, u8);

    #[derive(Debug, Clone)]
    struct Model {
        /// `(kind, a, b, objective)`: kind 0 = `[a, a + b]`, 1 = `(-inf, a]`,
        /// 2 = free, 3 = `[0, b]`.
        vars: Vec<(u8, f64, f64, f64)>,
        rows: Vec<RowSpec>,
    }

    fn model() -> impl Strategy<Value = Model> {
        (1usize..6, 1usize..6).prop_flat_map(|(n, m)| {
            let var = (0u8..4, -3.0_f64..3.0, 0.0_f64..4.0, -5.0_f64..5.0);
            let row = (
                0u8..3,
                -6.0_f64..6.0,
                prop::collection::vec((-3.0_f64..3.0, any::<bool>()), n),
                0u8..4,
            );
            (
                prop::collection::vec(var, n),
                prop::collection::vec(row, m),
            )
                .prop_map(|(vars, rows)| Model { vars, rows })
        })
    }

    fn patches() -> impl Strategy<Value = Vec<Patch>> {
        let patch = (
            0u8..7,
            0usize..8,
            -6.0_f64..6.0,
            prop::collection::vec(-3.0_f64..3.0, 8),
        )
            .prop_map(|(kind, at, x, row)| match kind {
                0..=2 => Patch::Rhs(at, x),
                3 | 4 => Patch::Row(at, row),
                5 => Patch::Objective(at, x),
                _ => Patch::Sync,
            });
        prop::collection::vec(patch, 1..24)
    }

    fn build(m: &Model) -> (Problem, Vec<ConstraintId>) {
        let mut p = Problem::new(Sense::Maximize);
        let rows = write(&mut p, m);
        (p, rows)
    }

    /// Add `m`'s variables and rows to `p`; returns the rows.
    fn write(p: &mut Problem, m: &Model) -> Vec<ConstraintId> {
        let vars: Vec<VarId> = m
            .vars
            .iter()
            .enumerate()
            .map(|(j, &(kind, a, b, obj))| {
                let (lo, hi) = match kind {
                    0 => (a, a + b),
                    1 => (f64::NEG_INFINITY, a),
                    2 => (f64::NEG_INFINITY, f64::INFINITY),
                    _ => (0.0, b),
                };
                p.add_var(&format!("x{j}"), lo, hi, obj)
            })
            .collect();
        m.rows
            .iter()
            .enumerate()
            .map(|(i, (op, rhs, coeffs, layout))| {
                let mut terms: Vec<(VarId, f64)> = coeffs
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, present))| present || layout & 1 != 0)
                    .map(|(j, &(a, _))| (vars[j], a))
                    .collect();
                if layout & 2 != 0 {
                    terms.reverse();
                }
                let op = [RowOp::Le, RowOp::Ge, RowOp::Eq][usize::from(*op)];
                p.add_row(&format!("r{i}"), &terms, op, *rhs)
            })
            .collect()
    }

    fn apply(p: &mut Prepared, rows: &[ConstraintId], patch: Patch) {
        match patch {
            Patch::Rhs(at, x) => p.set_rhs(rows[at % rows.len()], x),
            Patch::Row(at, values) => {
                let row = rows[at % rows.len()];
                let len = p.problem.terms.range(row.0).len();
                p.set_row_coeffs(row, &values[..len]);
            }
            Patch::Objective(at, x) => {
                let n = p.problem.num_vars();
                p.set_var_objective(VarId(at % n), x)
            }
            Patch::Sync => {
                p.form.sync(&p.problem);
                assert_eq!(p.form.stale_rows, 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Tentpole invariant: whatever sequence of patches ran, the kept
        /// form is the form `InternalForm::build` makes of the patched
        /// problem — every field, every bit — and rows that changed sign
        /// are exactly the ones counted stale until a sync rebuilds.
        #[test]
        fn patched_form_equals_rebuilt_form(m in model(), seq in patches()) {
            let (problem, rows) = build(&m);
            let mut p = problem.prepare();
            check(&p);
            for patch in seq {
                apply(&mut p, &rows, patch);
                check(&p);
            }
            p.form.sync(&p.problem);
            assert_same_form((&p.form, &p.problem), (&InternalForm::build(&p.problem), &p.problem));
        }
    }

    /// A solve's outcome to the bit: objective, values, duals, the pivot
    /// count and the basis, or the error.
    fn outcome<S: std::borrow::Borrow<Solution>>(result: &Result<S, LpError>) -> String {
        match result {
            Ok(sol) => {
                let sol = sol.borrow();
                format!(
                    "{} pivots, objective {:x}, values {:x?}, duals {:x?}, basis {:?}",
                    sol.iterations,
                    sol.objective.to_bits(),
                    bits(&sol.values),
                    bits(&sol.duals),
                    sol.basis
                )
            }
            Err(err) => format!("{err:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A model rebuilt in storage another model left — patched,
        /// synced and solved, so that its form and workspace hold that
        /// model's numbers — is the model prepared afresh: the problem,
        /// the form field by field, and the solve bit for bit and pivot
        /// for pivot. Each pair runs both ways, so one of the two
        /// rebuilds is into the storage of the larger model and the other
        /// into that of the smaller.
        #[test]
        fn a_rebuild_in_used_storage_equals_a_fresh_prepare(
            a in model(),
            b in model(),
            seq in patches(),
            sense in any::<bool>(),
        ) {
            let sense = if sense { Sense::Maximize } else { Sense::Minimize };
            for (before, after) in [(&a, &b), (&b, &a)] {
                let (first, rows) = build(before);
                let mut kept = first.prepare();
                for patch in seq.clone() {
                    apply(&mut kept, &rows, patch);
                }
                let _ = kept.solve_warm(None);
                let rows = kept.rebuild(sense, |p| write(p, after));
                let mut problem = Problem::new(sense);
                let fresh_rows = write(&mut problem, after);
                let mut fresh = problem.prepare();
                prop_assert_eq!(&rows, &fresh_rows);
                prop_assert_eq!(format!("{:?}", kept.problem), format!("{:?}", fresh.problem));
                assert_same_form((&kept.form, &kept.problem), (&fresh.form, &fresh.problem));
                let (again, once) = (kept.solve_warm(None), fresh.solve_warm(None));
                prop_assert_eq!(outcome(&again), outcome(&once));
            }
        }

        /// A chain of warm solves through one prepared problem whose kept
        /// storage — workspace and solution — last held another model
        /// (the pair runs both ways, so once a larger one) and an
        /// `Infeasible` verdict from phase 1 returns, candidate by
        /// candidate, what `Problem::solve_warm` of the same problem from
        /// the same basis returns: objective, values, duals, pivots and
        /// basis to the bit, or the same error. Every third candidate is
        /// infeasible; a failed candidate leaves the chain's basis as it
        /// was, and the next solve from it agrees too.
        #[test]
        fn solves_in_used_storage_equal_fresh_solves(
            a in model(),
            b in model(),
            seq in patches(),
            sense in any::<bool>(),
        ) {
            let sense = if sense { Sense::Maximize } else { Sense::Minimize };
            for (before, after) in [(&a, &b), (&b, &a)] {
                let mut kept = Problem::new(sense).prepare();
                kept.rebuild(sense, |p| write_gated(p, before, true));
                let _ = kept.solve_warm(None);
                kept.rebuild(sense, |p| write_gated(p, before, false));
                let verdict = kept.solve_warm(None).map(drop);
                prop_assert!(matches!(verdict, Err(LpError::Infeasible { .. })), "{:?}", verdict);

                let (rows, gate) = kept.rebuild(sense, |p| write_gated(p, after, true));
                let mut fresh = Problem::new(sense);
                write_gated(&mut fresh, after, true);
                let mut chain: Option<Basis> = None;
                for (k, patch) in seq.iter().enumerate() {
                    let (lo, hi) = if k % 3 == 1 { (1.0, -1.0) } else { (-1.0, 1.0) };
                    for (row, rhs) in gate.into_iter().zip([lo, hi]) {
                        kept.set_rhs(row, rhs);
                        fresh.cons[row.0].rhs = rhs;
                    }
                    apply(&mut kept, &rows, patch.clone());
                    apply_to_problem(&mut fresh, &rows, patch.clone());
                    let held = chain.clone();
                    let once = fresh.solve_warm(chain.as_ref());
                    let again = kept.solve_warm(chain.as_ref());
                    prop_assert_eq!(outcome(&again), outcome(&once), "candidate {}", k);
                    match again {
                        Ok(sol) => chain.clone_from(&sol.basis),
                        Err(_) => prop_assert_eq!(&chain, &held, "a failed candidate keeps the basis"),
                    }
                    if k % 3 == 1 {
                        prop_assert!(matches!(once, Err(LpError::Infeasible { .. })), "{:?}", once.map(drop));
                    }
                }
            }
        }
    }

    /// `m`'s model with a free variable `z` and the rows `z >= -1` and
    /// `z <= 1` appended — open: each row is within `z`'s reach, so a
    /// solve that closes them (`z >= 1`, `z <= -1`) is refused by phase
    /// 1, not by the scan before it. Returns `m`'s rows and the two.
    fn write_gated(p: &mut Problem, m: &Model, open: bool) -> (Vec<ConstraintId>, [ConstraintId; 2]) {
        let rows = write(p, m);
        let z = p.add_var("z", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let (lo, hi) = if open { (-1.0, 1.0) } else { (1.0, -1.0) };
        let gate = [
            p.add_row("z_lo", &[(z, 1.0)], RowOp::Ge, lo),
            p.add_row("z_hi", &[(z, 1.0)], RowOp::Le, hi),
        ];
        (rows, gate)
    }

    /// [`apply`] to a problem that keeps no form.
    fn apply_to_problem(p: &mut Problem, rows: &[ConstraintId], patch: Patch) {
        match patch {
            Patch::Rhs(at, x) => p.cons[rows[at % rows.len()].0].rhs = x,
            Patch::Row(at, values) => {
                let at = p.terms.range(rows[at % rows.len()].0);
                let len = at.len();
                p.terms.val[at].copy_from_slice(&values[..len]);
            }
            Patch::Objective(at, x) => {
                let n = p.num_vars();
                p.set_var_objective(VarId(at % n), x)
            }
            Patch::Sync => {}
        }
    }

    /// Multipliers as the simplex produces them: values between exact
    /// zeros of both signs.
    fn multipliers() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0u8..5, -4.0_f64..4.0), 8).prop_map(|entries| {
            entries
                .into_iter()
                .map(|(kind, v)| match kind {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    _ => v,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row-wise kernels give, for every column, the bits of the
        /// dot product down that column: the dual pivot row from `rho`,
        /// the reduced costs from `y` — on models with free (`Split`)
        /// and mirrored variables, rows that normalise flipped, zero
        /// objective coefficients under `Maximize` (internal cost
        /// `-0.0`), multipliers that are mostly zeros of either sign, and
        /// after patches as well as fresh from `build`. Likewise the
        /// right-hand side at the bounds, against the entry-by-entry walk
        /// down the columns at an upper bound, some of them exact zeros.
        /// And all three once more with every `run` flag cleared: the
        /// slice loops give the bits of the indexed walk, on forms that
        /// mix runs (dense rows, rows of consecutive variables, the
        /// columns under them) with lines that are not (gaps, terms
        /// listed backwards).
        #[test]
        fn row_wise_pricing_equals_column_dot_products(
            m in model(),
            zero_objective in prop::collection::vec(any::<bool>(), 6),
            seq in patches(),
            mult in multipliers(),
            phase_one in any::<bool>(),
            resting in prop::collection::vec(0u8..4, 32),
        ) {
            let mut m = m;
            for (var, &zero) in m.vars.iter_mut().zip(&zero_objective) {
                if zero {
                    var.3 = 0.0;
                }
            }
            let (problem, rows) = build(&m);
            let mut p = problem.prepare();
            // Objective patches would undo the zeros above.
            for patch in seq.into_iter().filter(|p| !matches!(p, Patch::Objective(..))) {
                apply(&mut p, &rows, patch);
            }
            p.form.sync(&p.problem);
            let (f, rows) = (&p.form, p.form.row_store(&p.problem));
            let mult = &mult[..f.m()];
            let costs: Vec<f64> = if phase_one {
                (0..f.n_total).map(|j| if j >= f.art_start { 1.0 } else { 0.0 }).collect()
            } else {
                f.cost.clone()
            };

            let (mut alpha, mut d) = (vec![f64::NAN; 3], vec![f64::NAN; 3]);
            f.pivot_row(rows, mult, &mut alpha);
            f.reduced_costs(rows, &costs, mult, &mut d);
            prop_assert_eq!(alpha.len(), f.n_total);
            prop_assert_eq!(d.len(), f.n_total);
            for j in 0..f.n_total {
                let mut dot = 0.0;
                for (i, a) in f.cols.line(j) {
                    dot += mult[i] * a;
                }
                prop_assert_eq!(alpha[j].to_bits(), dot.to_bits(), "alpha[{}]: {} vs {}", j, alpha[j], dot);
                let column = f.column_reduced_cost(&costs, mult, j);
                prop_assert_eq!(d[j].to_bits(), column.to_bits(), "d[{}]: {} vs {}", j, d[j], column);
            }

            // Columns at an upper bound: the form's own, `+0.0` or `-0.0`.
            let mut upper = f.upper.clone();
            let state: Vec<VarState> = (0..f.n_total)
                .map(|j| {
                    match resting[j] {
                        2 => upper[j] = 0.0,
                        3 => upper[j] = -0.0,
                        _ => {}
                    }
                    if resting[j] > 0 && upper[j].is_finite() { VarState::Upper } else { VarState::Lower }
                })
                .collect();
            let mut xb = vec![f64::NAN; 3];
            f.rhs_at_bounds(&state, &upper, &mut xb);
            let mut walked = f.rhs.clone();
            // (A column at a zero bound is skipped, as it always was.)
            for j in (0..f.n_total).filter(|&j| state[j] == VarState::Upper && upper[j].abs().to_bits() != 0) {
                for (i, a) in f.cols.line(j) {
                    walked[i] -= a * upper[j];
                }
            }
            prop_assert_eq!(bits(&xb), bits(&walked), "rhs_at_bounds");

            let mixed = (rows.run.clone(), f.cols.run.clone());
            let f = &mut p.form;
            if let Some(rows) = &mut f.rows {
                rows.run.fill(false);
            }
            p.problem.terms.run.fill(false);
            f.cols.run.fill(false);
            let rows = f.row_store(&p.problem);
            let (mut alpha_at, mut d_at, mut xb_at) = (Vec::new(), Vec::new(), Vec::new());
            f.pivot_row(rows, mult, &mut alpha_at);
            f.reduced_costs(rows, &costs, mult, &mut d_at);
            f.rhs_at_bounds(&state, &upper, &mut xb_at);
            prop_assert_eq!(bits(&alpha), bits(&alpha_at), "pivot_row, runs {:?}", &mixed);
            prop_assert_eq!(bits(&d), bits(&d_at), "reduced_costs, runs {:?}", &mixed);
            prop_assert_eq!(bits(&xb), bits(&xb_at), "rhs_at_bounds, runs {:?}", &mixed);
        }
    }

    #[test]
    fn runs_are_the_lines_whose_indices_ascend_by_one() {
        // x0..x3; a dense row, a dense row listed backwards, a row with a
        // gap, a row on two neighbours, a single term.
        let mut p = Problem::new(Sense::Maximize);
        let x: Vec<VarId> = (0..4).map(|j| p.add_var(&format!("x{j}"), 0.0, 1.0, 1.0)).collect();
        let all: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 2.0)).collect();
        let backwards: Vec<(VarId, f64)> = all.iter().rev().copied().collect();
        p.add_row("dense", &all, RowOp::Le, 1.0);
        p.add_row("backwards", &backwards, RowOp::Le, 1.0);
        p.add_row("gap", &[(x[0], 1.0), (x[2], 1.0)], RowOp::Le, 1.0);
        p.add_row("pair", &[(x[2], 1.0), (x[3], 1.0)], RowOp::Le, 1.0);
        p.add_row("single", &[(x[1], 1.0)], RowOp::Le, 1.0);
        let f = InternalForm::build(&p);
        assert_eq!(f.row_store(&p).run, [true, false, false, true, true]);
        // x0: rows 0-2; x1: rows 0, 1, 4; x2: rows 0-3; x3: rows 0, 1, 3;
        // then the five slacks, one entry each.
        assert_eq!(f.cols.run, [true, false, true, false, true, true, true, true, true]);
    }

    /// What the generated models leave out: an infinite coefficient (no
    /// row with one is `unshifted`), a row without terms (never a run),
    /// a `-0.0` right-hand side, free variables side by side (their
    /// column pairs make one run) and apart.
    #[test]
    fn one_walk_build_equals_the_separate_passes_on_odd_rows() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 4.0, 1.0);
        let free = p.add_var("free", f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let free2 = p.add_var("free2", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let below = p.add_var("below", f64::NEG_INFINITY, 0.0, 2.0);
        p.add_row("infinite", &[(x, f64::INFINITY), (free, 1.0)], RowOp::Le, 3.0);
        p.add_row("empty", &[], RowOp::Eq, 0.0);
        p.add_row("negative zero", &[(x, 1.0), (below, -1.0)], RowOp::Ge, -0.0);
        p.add_row("frees", &[(free, 2.0), (free2, -1.0)], RowOp::Le, -1.0);
        p.add_row("apart", &[(x, 1.0), (free2, 1.0)], RowOp::Eq, 1.0);
        let form = InternalForm::build(&p);
        assert_eq!(form.unshifted, [false, true, true, true, true]);
        assert_eq!(form.row_store(&p).run, [true, false, false, true, false]);
        assert_same_form((&form, &p), (&InternalForm::build_multipass(&p), &p));
    }

    /// A room-shaped model: one variable per node × segment on `[0, u]`,
    /// `nodes` dense redline rows, a CRAC row and the power row — every
    /// row `Le` over one run of columns — plus the `odd` rows, each
    /// appended after them.
    fn room_shaped(nodes: usize, odd: &[&str]) -> (Problem, Vec<ConstraintId>) {
        let mut p = Problem::new(Sense::Maximize);
        let segs: Vec<VarId> = (0..2 * nodes)
            .map(|k| p.add_var(&format!("seg{k}"), 0.0, 0.5 + 0.25 * (k % 3) as f64, 1.0 + (k % 5) as f64))
            .collect();
        let dense = |i: usize| -> Vec<(VarId, f64)> {
            segs.iter().enumerate().map(|(k, &v)| (v, 1e-3 * (1 + (i * 7 + k) % 11) as f64)).collect()
        };
        let mut rows: Vec<ConstraintId> = (0..nodes)
            .map(|i| p.add_row_nodup(&format!("redline_node{i}"), &dense(i), RowOp::Le, 2.0 + i as f64))
            .collect();
        rows.push(p.add_row_nodup("redline_crac0", &dense(nodes), RowOp::Le, 3.0));
        let power: Vec<(VarId, f64)> = segs.iter().map(|&v| (v, 1.0)).collect();
        rows.push(p.add_row_nodup("power_budget", &power, RowOp::Le, 4.0));
        for &kind in odd {
            let row = match kind {
                "negative zero" => p.add_row_nodup("negative zero", &dense(1), RowOp::Le, -0.0),
                "gap" => {
                    let gap = [(segs[0], 1.0), (segs[2], 2.0), (segs[5], -1.0)];
                    p.add_row_nodup("gap", &gap, RowOp::Le, 1.0)
                }
                _ => {
                    // A variable that does not start at 0: its rows walk.
                    let lifted = p.add_var("lifted", 1.0, 3.0, 0.5);
                    p.add_row_nodup("lifted", &[(segs[1], 1.0), (lifted, 1.0)], RowOp::Le, 5.0)
                }
            };
            rows.push(row);
        }
        (p, rows)
    }

    /// The build's two paths against the build of separate passes: a
    /// room-shaped model whose rows all need no rewriting (the form keeps
    /// no row store: the problem's arena is it), and the same model with
    /// a `-0.0` right-hand side, a row that is not a run and a mapped
    /// variable (a store of its own, the copied rows in it as slices),
    /// fresh and after patches that move right-hand sides across zero
    /// and rewrite a dense row and the odd ones.
    #[test]
    fn copied_rows_and_walked_rows_build_the_separate_passes_form() {
        let (plain, _) = room_shaped(6, &[]);
        let form = InternalForm::build(&plain);
        assert!(form.rows.is_none(), "every row copied: the arena is the row store");
        assert!(form.unshifted.iter().all(|&u| u));
        assert_same_form((&form, &plain), (&InternalForm::build_multipass(&plain), &plain));

        let (odd, rows) = room_shaped(6, &["negative zero", "gap", "lifted"]);
        let form = InternalForm::build(&odd);
        assert!(form.rows.is_some(), "rows that walk: a store of its own");
        assert_eq!(form.row_store(&odd).run[8..], [true, false, false]);
        assert_eq!(form.shifted_rhs[8].to_bits(), (-0.0_f64).to_bits());
        assert_eq!(form.shifted_rhs[10], 5.0 - 1.0);
        assert_same_form((&form, &odd), (&InternalForm::build_multipass(&odd), &odd));

        for (p, rows) in [room_shaped(6, &[]), (odd, rows)] {
            let n = rows.len();
            let mut kept = p.prepare();
            check(&kept);
            let dense_row: Vec<f64> = (0..12).map(|k| 0.02 * (k + 1) as f64).collect();
            kept.set_row_coeffs(rows[2], &dense_row);
            check(&kept);
            kept.set_rhs(rows[0], -1.0);
            kept.set_rhs(rows[n - 1], -0.0);
            check(&kept);
            let last = kept.problem.terms.range(rows[n - 1].0).len();
            kept.set_row_coeffs(rows[n - 1], &vec![-0.5; last]);
            kept.set_rhs(rows[0], 0.0);
            check(&kept);
            kept.form.sync(&kept.problem);
            let q = &kept.problem;
            assert_same_form((&kept.form, q), (&InternalForm::build_multipass(q), q));
        }
    }

    fn budget_problem() -> (Problem, VarId, ConstraintId, ConstraintId) {
        // max 3x + 2y  s.t.  x + y <= 8,  x - y <= 2,  0 <= x, y <= 10
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0, 3.0);
        let y = p.add_var("y", 0.0, 10.0, 2.0);
        let cap = p.add_row("cap", &[(x, 1.0), (y, 1.0)], RowOp::Le, 8.0);
        let gap = p.add_row("gap", &[(x, 1.0), (y, -1.0)], RowOp::Le, 2.0);
        (p, x, cap, gap)
    }

    #[test]
    fn rhs_across_zero_and_back_needs_no_rebuild() {
        let (p, _, cap, _) = budget_problem();
        let mut p = p.prepare();
        let before = p.form.signature;
        p.set_rhs(cap, -1.0);
        assert_eq!(p.form.stale_rows, 1);
        check(&p);
        // x + y <= -1 with x, y >= 0: out of reach, settled without the
        // re-normalisation.
        match p.solve_warm(None) {
            Err(LpError::Infeasible { residual }) => assert_eq!(residual, 1.0),
            other => panic!("expected infeasible, got {other:?}"),
        }
        assert_eq!(p.form.stale_rows, 1, "an infeasible verdict leaves the form alone");
        p.set_rhs(cap, 6.0);
        assert_eq!(p.form.stale_rows, 0);
        assert_eq!(p.form.signature, before);
        assert_same_form((&p.form, &p.problem), (&InternalForm::build(&p.problem), &p.problem));
        let sol = p.solve_warm(None).unwrap();
        assert!((sol.objective - 16.0).abs() < 1e-9); // x = 4, y = 2
    }

    #[test]
    fn negative_zero_rhs_is_folded_like_a_rebuild_folds_it() {
        // Both rows sit on variables bounded at 0, so their shifts vanish
        // and `set_rhs` skips the pass over the terms — except for -0.0,
        // the one value that subtracting a zero can change: against the
        // -0.0 that `gap`'s negative coefficient contributes it comes out
        // +0.0, and the kept form must say so too.
        let (p, _, cap, gap) = budget_problem();
        let mut p = p.prepare();
        assert_eq!(p.form.unshifted, [true, true]);
        p.set_rhs(cap, -0.0);
        p.set_rhs(gap, -0.0);
        assert_eq!(p.form.shifted_rhs[gap.0].to_bits(), 0.0_f64.to_bits());
        check(&p);
    }

    #[test]
    fn a_solve_re_normalises_a_row_that_stays_across_zero() {
        // x - y <= -3 is feasible (y >= x + 3) but normalises to a `Ge`
        // row with an artificial: the form must be rebuilt to solve it.
        let (p, _, _, gap) = budget_problem();
        let mut p = p.prepare();
        p.set_rhs(gap, -3.0);
        assert_eq!(p.form.stale_rows, 1);
        let objective = p.solve_warm(None).unwrap().objective;
        assert_eq!(p.form.stale_rows, 0);
        assert_same_form((&p.form, &p.problem), (&InternalForm::build(&p.problem), &p.problem));
        assert!((objective - 18.5).abs() < 1e-9); // x = 2.5, y = 5.5
    }

    #[test]
    fn prepared_solves_are_the_problems_solves_bit_for_bit() {
        let (p, x, cap, gap) = budget_problem();
        let mut kept = p.clone().prepare();
        let mut fresh = p;
        let mut basis: Option<Basis> = None;
        for (rhs, coeffs, obj) in [
            (7.0, [1.0, 1.0], 3.0),
            (5.5, [1.0, 2.0], 1.0),
            (9.0, [2.0, 1.0], 4.0),
        ] {
            kept.set_rhs(cap, rhs);
            kept.set_row_coeffs(gap, &coeffs);
            kept.set_var_objective(x, obj);
            fresh.cons[cap.0].rhs = rhs;
            let at = fresh.terms.range(gap.0);
            fresh.terms.val[at].copy_from_slice(&coeffs);
            fresh.set_var_objective(x, obj);
            let a = kept.solve_warm(basis.as_ref()).unwrap();
            let b = fresh.solve_warm(basis.as_ref()).unwrap();
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(bits(&a.values), bits(&b.values));
            assert_eq!(bits(&a.duals), bits(&b.duals));
            basis = a.basis().cloned();
        }
    }
}
