//! Sparse revised simplex with a factorized basis and warm starts.
//!
//! Instead of the full `B^{-1} A` tableau, updated in all `m × n` entries
//! per pivot, the engine keeps only a factorization of the `m × m` basis
//! matrix `B` (the LU in `thermaware-linalg`) plus a short chain of
//! product-form **eta** updates, and reconstructs whatever it needs per
//! iteration:
//!
//! * **FTRAN** `B^{-1} v`: one LU solve, then the eta chain forward.
//! * **BTRAN** `B^{-T} v`: the eta chain backward, then one transposed
//!   LU solve.
//!
//! The basis of the LPs this workspace solves is a few structural
//! columns in an identity of slacks, and the vectors priced with (`rho`,
//! `y`) are mostly exact zeros, so the three kernels that used to own a
//! solve's time walk nonzeros only: the LU solves run on the factors'
//! nonzero lists ([`thermaware_linalg::CompressedLu`]), and the dual
//! pivot row and the reduced costs are scattered row by row from the
//! form's row-major copy ([`InternalForm::pivot_row`],
//! [`InternalForm::reduced_costs`]) — as slice loops where a row's
//! columns are one run, which in the room LP is every row. None of them
//! reorders a sum — the results are the dense loops' bit for bit, which
//! is what keeps every pivot sequence, and with it every plan, what it
//! was (DESIGN §10). Those slice loops, the eta chain and both `xb`
//! updates are `y ± a·x` over independent elements, and run through
//! [`thermaware_linalg::kernel`] at the CPU's vector width, each
//! element's bits what the plain loop gives.
//!
//! Each pivot appends one eta vector (O(m) storage, O(m) application);
//! after [`ETA_LIMIT`] etas — or on a dangerously small pivot — the basis
//! is refactorized from scratch, which both bounds the per-iteration cost
//! and resets accumulated floating-point drift. Per-pivot work is
//! O(m² + nnz) instead of a tableau's O(m·n), and — the actual point —
//! the factorized basis is *restartable*:
//!
//! * [`solve`] with a [`Basis`] from a structurally identical problem
//!   starts from that basis. If it is still primal-feasible (costs
//!   changed, the optimum moved a little), phase 2 resumes directly —
//!   typically a handful of pivots instead of a full two-phase solve.
//! * If the perturbation broke primal feasibility (an RHS change: a
//!   fault, a tightened budget) but the old basis is still *dual*
//!   feasible — it was optimal, so its reduced costs pointed the right
//!   way — a **dual simplex** loop drives the infeasibilities out bound
//!   by bound and hands back to the primal for confirmation.
//! * Anything else (structure changed, basis singular, dual infeasible,
//!   numerical trouble) falls back to a cold two-phase solve. A warm
//!   start can therefore never produce a different answer than a cold
//!   solve — only fewer pivots.
//!
//! Bounded variables stay implicit: nonbasic columns rest at either bound
//! and bound flips cost no pivot.

use crate::basis::Basis;
use crate::internal::{InternalForm, SparseLines, VarState};
use crate::model::Problem;
use crate::solution::{LpError, Solution};
use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::time::Instant;
use thermaware_linalg::{kernel, CompressedLu};

/// Entries smaller than this are unusable as ratio-test pivots.
const PIVOT_EPS: f64 = 1e-9;
/// A chosen pivot below this triggers refactorization while etas may
/// have drifted it (the dual then gives up on a fresh factorization's;
/// the primal takes it, as its ratio test admitted it).
const PIVOT_TINY: f64 = 1e-7;
/// Reduced-cost optimality tolerance (scaled by the objective magnitude).
const COST_TOL: f64 = 1e-9;
/// Phase-1 residual above which the problem is declared infeasible; also
/// the primal-feasibility tolerance for warm-start re-entry.
const FEAS_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_LIMIT: usize = 60;
/// Eta-chain length that forces a refactorization.
const ETA_LIMIT: usize = 48;

/// One product-form update: basis column `r` was replaced, `w = B^{-1} a_q`.
struct Eta {
    r: usize,
    w: Vec<f64>,
}

impl Eta {
    /// `v := E^{-1} v`: `v[r] /= w[r]`, then every other entry loses
    /// that times `w[i]` — below `r` and above it, no test per element.
    fn apply(&self, v: &mut [f64]) {
        let (v_lo, v_hi) = v.split_at_mut(self.r);
        let (w_lo, w_hi) = self.w.split_at(self.r);
        let xr = v_hi[0] / w_hi[0];
        kernel::sub_scaled(v_lo, xr, w_lo);
        kernel::sub_scaled(&mut v_hi[1..], xr, &w_hi[1..]);
        v_hi[0] = xr;
    }

    /// `v := E^{-T} v`: only `v[r]` changes, to `(v[r] − Σ_{i≠r} w[i]·v[i])
    /// / w[r]`, the sum taken in ascending `i` over the indices `nz` lists
    /// — every one where `v` is not `+0.0`, ascending — and kept so. The
    /// terms left out are products with `+0.0`, which change no sum that
    /// does not start at `-0.0` (DESIGN §10); one that does takes every
    /// term. Returns how many entries of `v` the sum read.
    fn apply_transposed(&self, v: &mut [f64], nz: &mut Vec<u32>) -> usize {
        let r = self.r;
        let found = nz.binary_search(&(r as u32));
        let mut s = v[r];
        let read = if s.to_bits() == (-0.0_f64).to_bits() {
            for (i, (&vi, &wi)) in v.iter().zip(&self.w).enumerate() {
                if i != r {
                    s -= wi * vi;
                }
            }
            v.len()
        } else {
            let (below, above) = match found {
                Ok(at) => (&nz[..at], &nz[at + 1..]),
                Err(at) => nz.split_at(at),
            };
            for &i in below {
                s -= self.w[i as usize] * v[i as usize];
            }
            for &i in above {
                s -= self.w[i as usize] * v[i as usize];
            }
            below.len() + above.len()
        };
        v[r] = s / self.w[r];
        if let Err(at) = found {
            if v[r].to_bits() != 0 {
                nz.insert(at, r as u32);
            }
        }
        read
    }
}

/// One candidate of the dual ratio test. Ordered as the test takes them:
/// smaller ratio first, ties to the larger `|alpha|` for stability, then
/// to the smaller column — the order a stable sort by the first two gives
/// a list built in column order. Total, since columns are distinct.
#[derive(Clone, Copy)]
struct Cand {
    ratio: f64,
    abs_alpha: f64,
    col: usize,
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.ratio.total_cmp(&other.ratio))
            .then(other.abs_alpha.total_cmp(&self.abs_alpha))
            .then(self.col.cmp(&other.col))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Cand {}

/// The walk of the bound-flipping ratio test over its candidates in
/// order: flip every boxed column whose whole range leaves more than
/// `FEAS_TOL` of the row's infeasibility `slope` to repair, stop at the
/// first that would over-repair it or has no bound to flip to. Returns
/// that column — the entering one — and whether any column was flipped.
fn long_step(
    mut next: impl FnMut() -> Option<Cand>,
    upper: &[f64],
    state: &mut [VarState],
    mut slope: f64,
) -> (Option<usize>, bool) {
    let mut flipped = false;
    while let Some(Cand { abs_alpha, col: j, .. }) = next() {
        let absorb = upper[j] * abs_alpha; // inf when unboxed
        if absorb.is_finite() && slope - absorb > FEAS_TOL {
            // Candidates are nonbasic by construction, so the flip is a
            // two-way toggle.
            state[j] = if state[j] == VarState::Lower {
                VarState::Upper
            } else {
                VarState::Lower
            };
            slope -= absorb;
            flipped = true;
        } else {
            return (Some(j), flipped);
        }
    }
    (None, flipped)
}

/// Everything a solve works in, kept by a [`crate::Prepared`] from one
/// solve to the next so that a solve allocates nothing once an earlier
/// one grew the buffers: the factors (a refactorisation builds the basis
/// matrix and lists its factors in the storage of those it replaces —
/// the last solve's, at a solve's start, whether or not that basis could
/// be factored), the eta file and the buffers of etas dropped from it,
/// the basis itself (basic columns, bound states, basic values, working
/// upper bounds), and the vectors a solve fills: multipliers `y`,
/// reduced costs `d` and pivot row `alpha` (one entry per column), the
/// phase-1 costs, the dual's `rho`, steepest-edge weights and
/// ratio-test candidates, the rows where BTRAN's vector is not `+0.0`,
/// and the row of each basic column that extraction reads values by.
/// Every one is overwritten before it is read.
#[derive(Default)]
pub(crate) struct Workspace {
    lu: CompressedLu,
    /// The etas since the last factorisation; a solve starts by retiring
    /// the last solve's.
    etas: Vec<Eta>,
    /// Buffers for entering columns: those of retired etas and of
    /// columns that did not become one.
    spare: Vec<Vec<f64>>,
    /// The basis, lent to the solve's [`Rev`] while it runs.
    basis: BasisBuffers,
    y: Vec<f64>,
    d: Vec<f64>,
    alpha: Vec<f64>,
    phase1_cost: Vec<f64>,
    rho: Vec<f64>,
    cands: Vec<Reverse<Cand>>,
    nz: Vec<u32>,
}

/// A solve's basis and what is read off it, one entry per row or per
/// column: the part of [`Workspace`] a [`Rev`] holds as its own.
#[derive(Default)]
struct BasisBuffers {
    /// Working upper bounds (artificials frozen to 0 outside phase 1).
    upper: Vec<f64>,
    /// Basic column of each row.
    basic: Vec<usize>,
    state: Vec<VarState>,
    /// Values of the basic variables, one per row.
    xb: Vec<f64>,
    /// The dual's steepest-edge weights, one per row.
    beta: Vec<f64>,
    /// Row of each basic column (extraction).
    pos: Vec<usize>,
}

impl Workspace {
    /// Empty the eta file, keeping its buffers.
    fn retire_etas(&mut self) {
        self.spare.extend(self.etas.drain(..).map(|e| e.w));
    }
}

enum Step {
    Optimal,
    Progress,
    /// Refactorized instead of pivoting (tiny pivot); retry the step.
    Retry,
    Unbounded(usize),
}

/// How a solve used its warm-start handle (observability).
#[derive(Default)]
struct WarmStats {
    warm_start: bool,
    dual_reentry: bool,
    /// Iterations spent inside the dual repair (the rest of a warm
    /// solve's iterations are primal cleanup).
    dual_iters: usize,
}

/// The parts of a solve that `lp.phase.*_us` tells apart. They do not
/// nest: the FTRAN inside `compute_xb` counts as `ComputeXb`, the BTRAN
/// for the multipliers as `Btran`, not as pricing.
#[derive(Clone, Copy)]
enum Phase {
    Factorize,
    Ftran,
    Btran,
    /// Dual iteration: pivot row, reduced costs, ratio test.
    PivotRow,
    /// Primal pricing (reduced costs + entering column) and the warm
    /// path's bound-flip pass.
    Pricing,
    ComputeXb,
}

/// One histogram per [`Phase`], in declaration order.
const PHASE_METRICS: [&str; 6] = [
    "lp.phase.factorize_us",
    "lp.phase.ftran_us",
    "lp.phase.btran_us",
    "lp.phase.pivot_row_us",
    "lp.phase.pricing_us",
    "lp.phase.compute_xb_us",
];

/// Nanoseconds per [`Phase`], and the entries BTRAN read
/// (`lp.btran_visits`: eta entries and factor entries), accumulated over
/// one solve and flushed with the solve's other metrics. Whether a
/// recorder is installed is asked once, at solve start; without one no
/// clock is ever read.
struct PhaseClock {
    on: bool,
    ns: [Cell<u64>; PHASE_METRICS.len()],
    btran_visits: Cell<u64>,
}

impl PhaseClock {
    fn new(on: bool) -> Self {
        PhaseClock {
            on,
            ns: Default::default(),
            btran_visits: Cell::new(0),
        }
    }

    #[inline]
    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now) // lint: allow(determinism): read only when a recorder was installed at solve start; the time is reported, never branched on
    }

    #[inline]
    fn stop(&self, phase: Phase, since: Option<Instant>) {
        if let Some(t) = since {
            let cell = &self.ns[phase as usize];
            cell.set(cell.get() + t.elapsed().as_nanos() as u64);
        }
    }
}

struct Rev<'a> {
    f: &'a InternalForm,
    /// The structural block by row ([`InternalForm::row_store`]).
    rows: &'a SparseLines,
    /// The basis, taken from the workspace and handed back on drop.
    b: BasisBuffers,
    iterations: usize,
    degen_run: usize,
    degen_total: usize,
    bland: bool,
    factorizations: usize,
    clock: &'a PhaseClock,
    /// Factors, etas and per-iteration vectors: a solve allocates nothing.
    ws: &'a mut Workspace,
}

impl Drop for Rev<'_> {
    /// Hand the basis buffers back to the workspace, whichever way the
    /// solve ended.
    fn drop(&mut self) {
        self.ws.basis = std::mem::take(&mut self.b);
    }
}

impl<'a> Rev<'a> {
    /// A solver state holding the workspace's basis buffers, which the
    /// caller fills, nothing factorized yet: the workspace's factors are
    /// some other basis's until `factorize` ran, and its etas are
    /// retired.
    fn new(
        f: &'a InternalForm,
        problem: &'a Problem,
        clock: &'a PhaseClock,
        ws: &'a mut Workspace,
    ) -> Self {
        ws.retire_etas();
        ws.nz.clear();
        ws.nz.reserve(f.m());
        Rev {
            f,
            rows: f.row_store(problem),
            b: std::mem::take(&mut ws.basis),
            iterations: 0,
            degen_run: 0,
            degen_total: 0,
            bland: false,
            factorizations: 0,
            clock,
            ws,
        }
    }

    fn m(&self) -> usize {
        self.f.m()
    }

    /// Factor the current basis matrix from the sparse columns, in the
    /// storage of the factors it replaces.
    fn factorize(&mut self) -> Result<(), LpError> {
        let since = self.clock.start();
        let cols = &self.f.cols;
        let columns = self.b.basic.iter().map(|&j| cols.line(j));
        let done = self.ws.lu.factor_columns(self.f.m(), columns);
        self.clock.stop(Phase::Factorize, since);
        done.map_err(|_| LpError::Internal {
            what: "singular basis matrix".to_string(),
        })?;
        self.ws.retire_etas();
        self.factorizations += 1;
        Ok(())
    }

    /// `v := B^{-1} v`, timed as [`Phase::Ftran`].
    fn ftran(&self, v: &mut [f64]) -> Result<(), LpError> {
        let since = self.clock.start();
        let done = self.ftran_untimed(v);
        self.clock.stop(Phase::Ftran, since);
        done
    }

    /// `v := B^{-1} v` through the factorization and the eta chain.
    fn ftran_untimed(&self, v: &mut [f64]) -> Result<(), LpError> {
        self.ws.lu.solve_in_place(v).map_err(|e| LpError::Internal {
            what: format!("ftran: {e}"),
        })?;
        for e in &self.ws.etas {
            e.apply(v);
        }
        Ok(())
    }

    /// `v := B^{-T} v`: eta chain backward, then the transposed LU solve,
    /// each reading only what the nonzeros reach: `self.ws.nz` lists,
    /// ascending, every row where `v` is not `+0.0`, and the eta pass
    /// keeps it so for the LU solve. Timed as [`Phase::Btran`].
    fn btran(&mut self, v: &mut [f64]) -> Result<(), LpError> {
        let since = self.clock.start();
        let Workspace { lu, etas, nz, .. } = &mut *self.ws;
        let mut visits = 0;
        for e in etas.iter().rev() {
            visits += e.apply_transposed(v, nz);
        }
        let done = lu.solve_transposed_in_place(v, nz).map_err(|e| LpError::Internal {
            what: format!("btran: {e}"),
        });
        if let Ok(read) = done {
            visits += read;
        }
        let count = &self.clock.btran_visits;
        count.set(count.get() + visits as u64);
        self.clock.stop(Phase::Btran, since);
        done.map(drop)
    }

    /// Simplex multipliers `y = B^{-T} c_B` for the given costs.
    fn multipliers(&mut self, costs: &[f64], y: &mut Vec<f64>) -> Result<(), LpError> {
        y.clear();
        y.reserve(self.b.basic.len());
        self.ws.nz.clear();
        for (i, &j) in self.b.basic.iter().enumerate() {
            y.push(costs[j]);
            if costs[j].to_bits() != 0 {
                self.ws.nz.push(i as u32);
            }
        }
        self.btran(y)
    }

    /// Multipliers, then the reduced cost of every column into `self.d`,
    /// that pass timed as `phase`.
    fn price(&mut self, costs: &[f64], phase: Phase) -> Result<(), LpError> {
        let mut y = std::mem::take(&mut self.ws.y);
        let priced = self.multipliers(costs, &mut y);
        if priced.is_ok() {
            let since = self.clock.start();
            self.f.reduced_costs(self.rows, costs, &y, &mut self.ws.d);
            self.clock.stop(phase, since);
        }
        self.ws.y = y;
        priced
    }

    /// Recompute `xb = B^{-1} (b - Σ_{j at upper} u_j a_j)` from scratch.
    fn compute_xb(&mut self) -> Result<(), LpError> {
        let since = self.clock.start();
        let mut rhs = std::mem::take(&mut self.b.xb);
        self.f.rhs_at_bounds(&self.b.state, &self.b.upper, &mut rhs);
        let done = self.ftran_untimed(&mut rhs);
        self.b.xb = rhs;
        self.clock.stop(Phase::ComputeXb, since);
        done
    }

    /// The entering column `w = B^{-1} a_q`, in a spare buffer.
    fn entering_column(&mut self, q: usize) -> Result<Vec<f64>, LpError> {
        let mut w = self.ws.spare.pop().unwrap_or_default();
        w.clear();
        w.resize(self.m(), 0.0);
        for (i, a) in self.f.cols.line(q) {
            w[i] = a;
        }
        self.ftran(&mut w)?;
        Ok(w)
    }

    /// Pick an entering column for the primal from the reduced costs in
    /// `self.d`, or `None` at optimality.
    fn choose_entering(&self, tol: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut best_gain = tol;
        for j in 0..self.f.n_total {
            let dir = match self.b.state[j] {
                VarState::Basic => continue,
                VarState::Lower => 1.0,
                VarState::Upper => -1.0,
            };
            // Fixed columns (u == 0) cannot move; artificials are fixed
            // this way outside phase 1.
            if self.b.upper[j] <= 0.0 {
                continue;
            }
            let gain = -dir * self.ws.d[j];
            if gain > best_gain {
                if self.bland {
                    return Some((j, dir));
                }
                best = Some((j, dir));
                best_gain = gain;
            }
        }
        best
    }

    /// One primal simplex step with the active costs.
    fn primal_step(&mut self, costs: &[f64], tol: f64) -> Result<Step, LpError> {
        self.price(costs, Phase::Pricing)?;
        let since = self.clock.start();
        let entering = self.choose_entering(tol);
        self.clock.stop(Phase::Pricing, since);
        let Some((q, dir)) = entering else {
            return Ok(Step::Optimal);
        };

        // w = B^{-1} a_q: how the basics move when x_q moves by +1·dir.
        let w = self.entering_column(q)?;

        // Ratio test: distance t >= 0 until a basic hits a bound or x_q
        // flips to its own opposite bound.
        let mut t_best = self.b.upper[q];
        let mut leave: Option<(usize, VarState)> = None;
        for i in 0..self.m() {
            let alpha = dir * w[i];
            let k = self.b.basic[i];
            if alpha > PIVOT_EPS {
                let t_i = (self.b.xb[i].max(0.0)) / alpha;
                if t_i < t_best - 1e-12
                    || (t_i < t_best + 1e-12
                        && leave.is_some_and(|(r, _)| w[r].abs() < w[i].abs()))
                {
                    t_best = t_i;
                    leave = Some((i, VarState::Lower));
                }
            } else if alpha < -PIVOT_EPS {
                let uk = self.b.upper[k];
                if uk.is_finite() {
                    let t_i = ((uk - self.b.xb[i]).max(0.0)) / (-alpha);
                    if t_i < t_best - 1e-12
                        || (t_i < t_best + 1e-12
                            && leave.is_some_and(|(r, _)| w[r].abs() < w[i].abs()))
                    {
                        t_best = t_i;
                        leave = Some((i, VarState::Upper));
                    }
                }
            }
        }

        if t_best.is_infinite() {
            self.ws.spare.push(w);
            return Ok(Step::Unbounded(q));
        }

        // A small pivot through a chain of etas may be their drift:
        // refactorize and retry. From fresh factors it is the column's
        // own entry, above PIVOT_EPS or the ratio test had passed it over.
        if let Some((r, _)) = leave {
            if w[r].abs() < PIVOT_TINY && !self.ws.etas.is_empty() {
                self.ws.spare.push(w);
                self.factorize()?;
                self.compute_xb()?;
                return Ok(Step::Retry);
            }
        }

        self.iterations += 1;
        if t_best <= 1e-12 {
            self.degen_run += 1;
            self.degen_total += 1;
            if self.degen_run > DEGEN_LIMIT && !self.bland {
                self.bland = true;
                thermaware_obs::counter_add("lp.bland_switches", 1);
            }
        } else {
            self.degen_run = 0;
        }

        if t_best != 0.0 { // lint: allow(float-eq): degenerate step detection wants exact zero, not a tolerance
            kernel::sub_scaled(&mut self.b.xb, dir * t_best, &w);
        }

        match leave {
            None => {
                self.b.state[q] = match self.b.state[q] {
                    VarState::Lower => VarState::Upper,
                    VarState::Upper => VarState::Lower,
                    VarState::Basic => {
                        return Err(LpError::Internal {
                            what: "entering column was basic".to_string(),
                        })
                    }
                };
                self.ws.spare.push(w);
            }
            Some((r, hit)) => {
                let k = self.b.basic[r];
                let x_q_new = if dir > 0.0 {
                    t_best
                } else {
                    self.b.upper[q] - t_best
                };
                self.b.xb[r] = x_q_new;
                self.b.basic[r] = q;
                self.b.state[q] = VarState::Basic;
                self.b.state[k] = if self.b.upper[k] <= 0.0 { VarState::Lower } else { hit };
                self.ws.etas.push(Eta { r, w });
                if self.ws.etas.len() >= ETA_LIMIT {
                    self.factorize()?;
                    self.compute_xb()?;
                }
            }
        }
        Ok(Step::Progress)
    }

    /// Run primal steps to optimality. `Ok(Some(q))` reports an unbounded
    /// direction along internal column `q`.
    fn run_primal(&mut self, costs: &[f64], tol: f64, cap: usize) -> Result<Option<usize>, LpError> {
        loop {
            if self.iterations > cap {
                return Err(LpError::IterationLimit { limit: cap });
            }
            match self.primal_step(costs, tol)? {
                Step::Optimal => return Ok(None),
                Step::Progress | Step::Retry => {}
                Step::Unbounded(q) => return Ok(Some(q)),
            }
        }
    }

    /// Dual simplex: restore primal feasibility while keeping dual
    /// feasibility — the warm-start re-entry path after an RHS change.
    ///
    /// Errors (dual unboundedness, numerical breakdown, iteration cap)
    /// mean "this warm start is not salvageable"; the caller falls back
    /// to a cold solve rather than trusting a partial state.
    fn run_dual(&mut self, costs: &[f64], cap: usize) -> Result<(), LpError> {
        // Approximate dual steepest-edge weights (Forrest–Goldfarb with
        // unit initialization): beta_i estimates ||B^{-T} e_i||^2, so
        // picking the row maximizing violation^2 / beta_i measures the
        // violation in the geometry of the dual step it produces instead
        // of raw coordinates. This is what keeps the repair from
        // zigzagging — most-violated-row selection chases large but
        // cheap-to-create violations and re-creates them elsewhere.
        // beta_r is corrected to its exact value each time a row is
        // selected (rho is computed anyway), so the approximation cannot
        // drift unboundedly.
        let m = self.m();
        self.b.beta.clear();
        self.b.beta.resize(m, 1.0);
        loop {
            if self.iterations > cap {
                return Err(LpError::IterationLimit { limit: cap });
            }

            // Leaving row: steepest-edge-weighted violation.
            let mut leave: Option<(usize, bool)> = None; // (row, leaves to upper)
            let mut best_score = 0.0_f64;
            for i in 0..self.m() {
                let k = self.b.basic[i];
                let mut viol = -self.b.xb[i];
                let mut up = false;
                if self.b.upper[k].is_finite() {
                    let above = self.b.xb[i] - self.b.upper[k];
                    if above > viol {
                        viol = above;
                        up = true;
                    }
                }
                if viol > FEAS_TOL {
                    let score = viol * viol / self.b.beta[i];
                    if score > best_score {
                        best_score = score;
                        leave = Some((i, up));
                    }
                }
            }
            let Some((r, to_upper)) = leave else {
                return Ok(()); // primal feasible again
            };

            // Row r of B^{-1} A: alpha_j = rho · a_j with rho = B^{-T} e_r,
            // for every column at once from the rows where rho is not
            // zero, and the reduced costs the same way from y.
            let mut rho = std::mem::take(&mut self.ws.rho);
            rho.clear();
            rho.resize(self.m(), 0.0);
            rho[r] = 1.0;
            self.ws.nz.clear();
            self.ws.nz.push(r as u32);
            self.btran(&mut rho)?;
            self.b.beta[r] = rho.iter().map(|v| v * v).sum();
            self.price(costs, Phase::PivotRow)?;
            let since = self.clock.start();
            self.f.pivot_row(self.rows, &rho, &mut self.ws.alpha);

            // Entering column: bound-flipping dual ratio test (BFRT).
            // Each eligible candidate offers a dual step of
            // |d_j| / |alpha_j|; the classic test takes the minimum to
            // keep every reduced cost on the right side of zero. The
            // long-step variant walks candidates in ratio order and
            // *flips* each passed boxed column to its opposite bound — a
            // flip absorbs u_j * |alpha_j| of row r's infeasibility
            // without a basis change — stopping at the first candidate
            // whose flip would over-repair the row (or that has no
            // finite bound to flip to): that one enters. This matters
            // here because a budget/capacity shift re-rests whole runs
            // of boxed segment variables, which the classic test pays
            // one pivot each for and this test pays zero.
            let mut cands = std::mem::take(&mut self.ws.cands);
            cands.clear();
            for j in 0..self.f.n_total {
                let st = self.b.state[j];
                if st == VarState::Basic || self.b.upper[j] <= 0.0 {
                    continue;
                }
                let alpha = self.ws.alpha[j];
                // Eligibility: entering from Lower needs delta >= 0,
                // from Upper delta <= 0, with delta = (xb_r - target)/alpha.
                let eligible = if to_upper {
                    (st == VarState::Lower && alpha > PIVOT_EPS)
                        || (st == VarState::Upper && alpha < -PIVOT_EPS)
                } else {
                    (st == VarState::Lower && alpha < -PIVOT_EPS)
                        || (st == VarState::Upper && alpha > PIVOT_EPS)
                };
                if !eligible {
                    continue;
                }
                let d = self.ws.d[j];
                // Dual feasibility holds within tol, so clamp tiny
                // wrong-signed reduced costs to zero for the ratio.
                let num = match st {
                    VarState::Lower => d.max(0.0),
                    VarState::Upper => (-d).max(0.0),
                    VarState::Basic => continue,
                };
                cands.push(Reverse(Cand {
                    ratio: num / alpha.abs(),
                    abs_alpha: alpha.abs(),
                    col: j,
                }));
            }
            // The walk below takes a few of the candidates, in `Cand`
            // order: a heap on their buffer hands them over one by one.
            let mut cands = BinaryHeap::from(cands);
            let k = self.b.basic[r];
            let target = if to_upper { self.b.upper[k] } else { 0.0 };
            let slope = (self.b.xb[r] - target).abs();
            let next = || cands.pop().map(|Reverse(c)| c);
            let (entering, flipped) = long_step(next, &self.b.upper, &mut self.b.state, slope);
            self.ws.cands = cands.into_vec();
            self.clock.stop(Phase::PivotRow, since);
            let Some(q) = entering else {
                // No column can absorb the (remaining) infeasibility: the
                // perturbed problem is primal-infeasible *or* the warm
                // basis is useless. Let the cold path produce the
                // certificate. (Any flips applied above die with the
                // discarded warm attempt.)
                self.ws.rho = rho;
                return Err(LpError::Internal {
                    what: "dual step found no entering column".to_string(),
                });
            };
            if flipped {
                // Flipped columns rest at new bounds; rebuild the basic
                // values before measuring the pivot step on row r.
                self.compute_xb()?;
            }

            let w = self.entering_column(q)?;
            if w[r].abs() < PIVOT_TINY {
                if !self.ws.etas.is_empty() {
                    self.ws.spare.push(w);
                    self.ws.rho = rho;
                    self.factorize()?;
                    self.compute_xb()?;
                    continue;
                }
                let what = format!("tiny dual pivot {:.3e} after refactorization", w[r]);
                self.ws.spare.push(w);
                self.ws.rho = rho;
                return Err(LpError::Internal { what });
            }

            // Forrest–Goldfarb weight update for the pivot B' = B E:
            // beta_r' = beta_r / w_r^2, and for i != r
            // beta_i' = beta_i - 2 (w_i/w_r) tau_i + (w_i/w_r)^2 beta_r
            // with tau = B^{-1} rho. Floored to keep the estimates
            // positive under floating-point cancellation.
            let mut tau = rho;
            self.ftran(&mut tau)?;
            let beta = &mut self.b.beta;
            let beta_r = beta[r];
            for i in 0..m {
                if i != r {
                    let t = w[i] / w[r];
                    beta[i] = (beta[i] - 2.0 * t * tau[i] + t * t * beta_r).max(1e-10);
                }
            }
            beta[r] = (beta_r / (w[r] * w[r])).max(1e-10);
            self.ws.rho = tau;

            // Every row but `r` moves by `delta` times its entry of `w`:
            // below `r` and above it, as `Eta::apply` splits its loop.
            let delta = (self.b.xb[r] - target) / w[r];
            let (xb_lo, xb_hi) = self.b.xb.split_at_mut(r);
            kernel::sub_scaled(xb_lo, delta, &w[..r]);
            kernel::sub_scaled(&mut xb_hi[1..], delta, &w[r + 1..]);
            let x_q_old = match self.b.state[q] {
                VarState::Lower => 0.0,
                VarState::Upper => self.b.upper[q],
                VarState::Basic => {
                    return Err(LpError::Internal {
                        what: "dual entering column was basic".to_string(),
                    })
                }
            };
            self.b.xb[r] = x_q_old + delta;
            self.b.basic[r] = q;
            self.b.state[q] = VarState::Basic;
            self.b.state[k] = if to_upper && self.b.upper[k] > 0.0 {
                VarState::Upper
            } else {
                VarState::Lower
            };
            self.iterations += 1;
            self.ws.etas.push(Eta { r, w });
            if self.ws.etas.len() >= ETA_LIMIT {
                self.factorize()?;
                self.compute_xb()?;
            }
        }
    }

    /// Value of internal column `j` (a basic one's read through `b.pos`,
    /// which `extract` fills).
    fn value_of(&self, j: usize) -> f64 {
        match self.b.state[j] {
            VarState::Lower => 0.0,
            VarState::Upper => self.b.upper[j],
            VarState::Basic => self.b.xb[self.b.pos[j]],
        }
    }

    /// Write user-space values, duals and the basis handle into `out`,
    /// in the storage it has.
    fn extract(&mut self, problem: &Problem, out: &mut Solution) -> Result<(), LpError> {
        let f = self.f;
        let pos = &mut self.b.pos;
        pos.clear();
        pos.resize(f.n_total, usize::MAX);
        for (i, &j) in self.b.basic.iter().enumerate() {
            if j >= f.n_total || self.b.state[j] != VarState::Basic {
                return Err(LpError::Internal {
                    what: "basis bookkeeping corrupt at extraction".to_string(),
                });
            }
            pos[j] = i;
        }
        out.values.clear();
        out.values.extend(f.maps.iter().map(|m| match *m {
            crate::internal::VarMap::Shift { col, lb } => lb + self.value_of(col),
            crate::internal::VarMap::Mirror { col, ub } => ub - self.value_of(col),
            crate::internal::VarMap::Split { pos: p, neg } => self.value_of(p) - self.value_of(neg),
        }));

        // Row duals: y solves B^T y = c_B, and the user-space dual undoes
        // the sense and any rhs-normalization flip.
        let mut y = std::mem::take(&mut self.ws.y);
        let priced = self.multipliers(&f.cost, &mut y);
        out.duals.clear();
        if priced.is_ok() {
            out.duals.extend((0..f.m()).map(|i| {
                let flip = if f.flipped[i] { -1.0 } else { 1.0 };
                f.sense_sign * flip * y[i]
            }));
        }
        self.ws.y = y;
        priced?;

        out.objective = problem.objective_value(&out.values);
        out.iterations = self.iterations;
        Basis::capture(&mut out.basis, f.signature, &self.b.basic, &self.b.state);
        Ok(())
    }
}

/// Outcome labels for the obs wrapper.
struct SolveStats {
    warm: WarmStats,
    degen: usize,
    refactorizations: usize,
    clock: PhaseClock,
}

/// Solve `problem` with the revised simplex, optionally warm-starting
/// from `warm`, and write the optimum into `out` (left in an unspecified
/// state on an error). `form` is the problem's internal form when the
/// caller keeps one ([`crate::Prepared`]); `None` builds it here, inside
/// the timed section. `ws` is the caller's to keep or drop. Observability
/// is one batched recorder visit per solve.
pub(crate) fn solve(
    problem: &Problem,
    form: Option<&mut InternalForm>,
    ws: &mut Workspace,
    warm: Option<&Basis>,
    out: &mut Solution,
) -> Result<(), LpError> {
    let mut stats = SolveStats {
        warm: WarmStats::default(),
        degen: 0,
        refactorizations: 0,
        clock: PhaseClock::new(thermaware_obs::enabled()),
    };
    if !stats.clock.on {
        return solve_impl(problem, form, ws, warm, out, &mut stats);
    }
    let start = Instant::now();
    let result = solve_impl(problem, form, ws, warm, out, &mut stats);
    // Fractional, so that the phases — disjoint stretches of this
    // interval — can never sum to more than it.
    let elapsed_us = start.elapsed().as_nanos() as f64 / 1e3;
    thermaware_obs::with_recorder(|r| {
        r.counter_add("lp.solves", 1);
        r.observe("lp.solve_us", elapsed_us);
        for (name, ns) in PHASE_METRICS.iter().zip(&stats.clock.ns) {
            r.observe(name, ns.get() as f64 / 1e3);
        }
        r.counter_add("lp.btran_visits", stats.clock.btran_visits.get());
        r.observe("lp.degenerate_steps", stats.degen as f64);
        r.counter_add("lp.refactorizations", stats.refactorizations as u64);
        if stats.warm.warm_start {
            r.counter_add("lp.warm_starts", 1);
        }
        if stats.warm.dual_reentry {
            r.counter_add("lp.dual_reentries", 1);
            r.observe("lp.warm_dual_iters", stats.warm.dual_iters as f64);
        }
        match &result {
            Ok(()) => {
                r.counter_add("lp.pivots", out.iterations as u64);
                r.observe("lp.iterations", out.iterations as f64);
            }
            Err(LpError::Infeasible { .. }) => r.counter_add("lp.infeasible", 1),
            Err(LpError::Unbounded { .. }) => r.counter_add("lp.unbounded", 1),
            Err(LpError::IterationLimit { .. }) => r.counter_add("lp.iteration_limit", 1),
            Err(LpError::Internal { .. }) => r.counter_add("lp.internal_error", 1),
        }
    });
    result
}

fn solve_impl(
    problem: &Problem,
    form: Option<&mut InternalForm>,
    ws: &mut Workspace,
    warm: Option<&Basis>,
    out: &mut Solution,
    stats: &mut SolveStats,
) -> Result<(), LpError> {
    let mut built = None;
    let f = match form {
        Some(f) => f,
        None => built.insert(InternalForm::build(problem)),
    };
    // A row out of reach of the column bounds settles the question
    // before anything is factorized — and before a patched form pays for
    // the re-normalisation only a real solve needs.
    if let Some(residual) = f.infeasible_row(problem, FEAS_TOL) {
        return Err(LpError::Infeasible { residual });
    }
    f.sync(problem);
    let f: &InternalForm = f;
    let cap = 200 * (f.m() + f.n_total + 10);
    let cost_scale = 1.0 + f.cost.iter().fold(0.0_f64, |m, c| m.max(c.abs()));
    let tol2 = COST_TOL * cost_scale;

    // ---- Warm path --------------------------------------------------------
    if let Some(basis) = warm {
        if try_warm(problem, f, basis, tol2, cap, stats, ws, out)? {
            return Ok(());
        }
    }

    // ---- Cold two-phase ----------------------------------------------------
    let mut rev = cold_start(f, problem, &stats.clock, ws)?;
    let needs_phase1 = f.art_col.iter().any(Option::is_some);
    if needs_phase1 {
        let mut phase1_cost = std::mem::take(&mut rev.ws.phase1_cost);
        phase1_cost.clear();
        phase1_cost.extend((0..f.n_total).map(|j| if j >= f.art_start { 1.0 } else { 0.0 }));
        let phase1 = rev.run_primal(&phase1_cost, FEAS_TOL * 1e-2, cap);
        rev.ws.phase1_cost = phase1_cost;
        if phase1?.is_some() {
            // Phase 1 is bounded below by 0; "unbounded" is numerical
            // breakdown.
            return Err(LpError::IterationLimit { limit: cap });
        }
        let residual: f64 = (0..f.m())
            .filter(|&i| rev.b.basic[i] >= f.art_start)
            .map(|i| rev.b.xb[i].max(0.0))
            .sum();
        if residual > FEAS_TOL {
            return Err(LpError::Infeasible { residual });
        }
        // Freeze artificials at zero for phase 2.
        for j in f.art_start..f.n_total {
            rev.b.upper[j] = 0.0;
            if rev.b.state[j] == VarState::Upper {
                rev.b.state[j] = VarState::Lower;
            }
        }
    }

    if let Some(q) = rev.run_primal(&f.cost, tol2, cap)? {
        return Err(LpError::Unbounded {
            var: f.unbounded_var_name(problem, q),
        });
    }
    stats.degen = rev.degen_total;
    stats.refactorizations = rev.factorizations.saturating_sub(1);
    rev.extract(problem, out)
}

/// Build the phase-1 starting point: slacks basic on `Le` rows,
/// artificials basic on `Ge`/`Eq` rows — an identity basis.
fn cold_start<'a>(
    f: &'a InternalForm,
    problem: &'a Problem,
    clock: &'a PhaseClock,
    ws: &'a mut Workspace,
) -> Result<Rev<'a>, LpError> {
    let m = f.m();
    let mut rev = Rev::new(f, problem, clock, ws);
    let b = &mut rev.b;
    b.upper.clone_from(&f.upper);
    b.basic.clear();
    b.basic.resize(m, usize::MAX);
    b.state.clear();
    b.state.resize(f.n_total, VarState::Lower);
    for i in 0..m {
        let col = match (f.ops[i], f.slack_col[i], f.art_col[i]) {
            (crate::model::RowOp::Le, Some(s), _) => s,
            (_, _, Some(a)) => a,
            _ => {
                return Err(LpError::Internal {
                    what: "row without slack or artificial".to_string(),
                })
            }
        };
        b.basic[i] = col;
        b.state[col] = VarState::Basic;
    }
    rev.factorize()?;
    rev.compute_xb()?;
    Ok(rev)
}

/// Attempt the warm path. `Ok(true)` is a finished solve, written into
/// `out`; `Ok(false)` means "fall back to cold" (structure mismatch,
/// singular basis, dual infeasible, or the dual loop gave up). Genuine
/// verdicts about the *problem* (unbounded phase 2 from a feasible warm
/// basis) are returned as errors, not swallowed.
#[allow(clippy::too_many_arguments)]
fn try_warm(
    problem: &Problem,
    f: &InternalForm,
    basis: &Basis,
    tol2: f64,
    cap: usize,
    stats: &mut SolveStats,
    ws: &mut Workspace,
    out: &mut Solution,
) -> Result<bool, LpError> {
    let mut rev = Rev::new(f, problem, &stats.clock, ws);
    let b = &mut rev.b;
    if !basis.restore(f, &mut b.basic, &mut b.state) {
        return Ok(false);
    }
    // Artificials are frozen outside phase 1; a restored basis may carry
    // them basic (degenerate rows) but never resting at a bound above 0.
    b.upper.clone_from(&f.upper);
    for j in f.art_start..f.n_total {
        b.upper[j] = 0.0;
        if b.state[j] == VarState::Upper {
            b.state[j] = VarState::Lower;
        }
    }
    if rev.factorize().is_err() {
        // The perturbed coefficients made the old basis singular.
        return Ok(false);
    }
    if rev.compute_xb().is_err() {
        return Ok(false);
    }

    // Primal-feasible at the old basis? Then phase 2 continues directly.
    let mut infeas = 0.0_f64;
    for i in 0..f.m() {
        let k = rev.b.basic[i];
        infeas = infeas.max(-rev.b.xb[i]);
        if rev.b.upper[k].is_finite() {
            infeas = infeas.max(rev.b.xb[i] - rev.b.upper[k]);
        }
    }
    if infeas > FEAS_TOL {
        // Primal-infeasible: re-enter through the dual simplex. The dual
        // phase is a repair heuristic, not the correctness path — the
        // exact primal run below converges from any feasible basis — so
        // dual feasibility only needs to hold well enough for the dual
        // ratio test to make progress. Columns whose reduced cost is
        // *decisively* on the wrong side of zero hop to their opposite
        // bound first (the bounded-variable bound flip); epsilon-level
        // violations — reduced costs whose sign the coefficient
        // perturbation barely flipped — are left in place, because
        // flipping them moves the iterate a full bound-length for no
        // gain and the clamped dual ratio test absorbs them at zero cost.
        if rev.price(&f.cost, Phase::Pricing).is_err() {
            return Ok(false);
        }
        let flip_tol = 1e6 * tol2;
        let mut flipped = false;
        for j in 0..f.n_total {
            let d = rev.ws.d[j];
            match rev.b.state[j] {
                VarState::Basic => {}
                // Fixed columns (u == 0) cannot leave their bound, so any
                // reduced-cost sign is dual-feasible for them.
                _ if rev.b.upper[j] <= 0.0 => {}
                // (Unboxed Lower columns stay put: the dual ratio test
                // pulls them into the basis at a clamped zero ratio.)
                VarState::Lower if d < -flip_tol && rev.b.upper[j].is_finite() => {
                    rev.b.state[j] = VarState::Upper;
                    flipped = true;
                }
                VarState::Upper if d > flip_tol => {
                    // The internal form's lower bound is 0: always finite.
                    rev.b.state[j] = VarState::Lower;
                    flipped = true;
                }
                _ => {}
            }
        }
        if flipped && rev.compute_xb().is_err() {
            return Ok(false);
        }
        match rev.run_dual(&f.cost, cap) {
            Ok(()) => {
                stats.warm.dual_reentry = true;
                stats.warm.dual_iters = rev.iterations;
            }
            Err(_) => return Ok(false),
        }
    }

    stats.warm.warm_start = true;
    match rev.run_primal(&f.cost, tol2, cap) {
        Ok(None) => {
            stats.degen = rev.degen_total;
            stats.refactorizations = rev.factorizations.saturating_sub(1);
            rev.extract(problem, out).map(|()| true)
        }
        Ok(Some(q)) => Err(LpError::Unbounded {
            var: f.unbounded_var_name(problem, q),
        }),
        // Numerical trouble on the warm path: retry cold before giving a
        // verdict the cold path might not reproduce.
        Err(LpError::IterationLimit { .. }) | Err(LpError::Internal { .. }) => {
            stats.warm.warm_start = false;
            stats.warm.dual_reentry = false;
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, RowOp, Sense};
    use proptest::prelude::*;

    fn sample() -> Problem {
        // max 3x + 2y  s.t.  x + y <= 4,  x <= 2 (bound),  x,y >= 0
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 2.0, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
        p.add_row("cap", &[(x, 1.0), (y, 1.0)], RowOp::Le, 4.0);
        p
    }

    proptest! {
        /// The heap hands the dual ratio test its candidates in the
        /// order the stable sort it replaces laid them out — on lists
        /// full of equal ratios and equal `(ratio, |alpha|)` pairs — so
        /// the walk flips the same columns and stops at the same one.
        #[test]
        fn heap_pops_in_the_stable_sorts_order(
            list in prop::collection::vec((0u8..4, 0u8..3, 0u8..4, any::<bool>()), 0..40),
            slope in 0.0_f64..8.0,
        ) {
            // One candidate per column, columns ascending, as `run_dual`
            // pushes them; ratios include both zeros, which `total_cmp`
            // tells apart.
            let ratios = [-0.0, 0.0, 0.5, 2.0];
            let cands: Vec<Cand> = list
                .iter()
                .enumerate()
                .map(|(col, &(r, a, ..))| Cand {
                    ratio: ratios[usize::from(r)],
                    abs_alpha: 0.25 * f64::from(a + 1),
                    col,
                })
                .collect();
            let upper: Vec<f64> = list
                .iter()
                .map(|&(_, _, u, _)| if u == 0 { f64::INFINITY } else { f64::from(u) })
                .collect();
            let state: Vec<VarState> = list
                .iter()
                .map(|&(.., up)| if up { VarState::Upper } else { VarState::Lower })
                .collect();

            let mut sorted: Vec<(f64, f64, usize)> =
                cands.iter().map(|c| (c.ratio, c.abs_alpha, c.col)).collect();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
            let sorted: Vec<usize> = sorted.into_iter().map(|c| c.2).collect();

            let mut heap = BinaryHeap::from(cands.iter().map(|&c| Reverse(c)).collect::<Vec<_>>());
            let popped: Vec<usize> = std::iter::from_fn(|| heap.pop()).map(|c| c.0.col).collect();
            prop_assert_eq!(&popped, &sorted);

            let mut heap = BinaryHeap::from(cands.iter().map(|&c| Reverse(c)).collect::<Vec<_>>());
            let mut by_heap = state.clone();
            let heap_walk = long_step(|| heap.pop().map(|c| c.0), &upper, &mut by_heap, slope);
            let mut in_order = sorted.iter().map(|&col| cands[col]);
            let mut by_sort = state.clone();
            let sort_walk = long_step(|| in_order.next(), &upper, &mut by_sort, slope);
            prop_assert_eq!(heap_walk, sort_walk);
            prop_assert_eq!(by_heap, by_sort);
        }

        /// `Eta::apply`, split at the pivot row, against the loop that
        /// tests every index — pivot rows at both ends included.
        #[test]
        fn split_eta_loop_equals_the_branchy_one(
            (w, v, r) in (1usize..40).prop_flat_map(|m| (
                prop::collection::vec(-4.0_f64..4.0, m),
                prop::collection::vec((0u8..4, -9.0_f64..9.0), m),
                0..m,
            )),
        ) {
            let v: Vec<f64> = v
                .into_iter()
                .map(|(kind, x)| match kind { 0 => 0.0, 1 => -0.0, _ => x })
                .collect();
            let mut branchy = v.clone();
            let xr = branchy[r] / w[r];
            for (i, (vi, &wi)) in branchy.iter_mut().zip(&w).enumerate() {
                if i != r {
                    *vi -= wi * xr;
                }
            }
            branchy[r] = xr;
            let mut split = v;
            Eta { r, w }.apply(&mut split);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&split), bits(&branchy));
        }

        /// BTRAN's eta pass over the listed indices against the dense
        /// backward loop it replaced, on chains whose entries are small
        /// integers and zeros of both signs — so that sums cancel to
        /// `+0.0` along the way and `+0.0 / w[r] < 0` leaves `-0.0` for the
        /// next eta to start from — and right-hand sides of 0–4 entries,
        /// `-0.0` among them. The list must stay ascending and name every
        /// entry that is not `+0.0`.
        #[test]
        fn listed_eta_pass_equals_the_dense_backward_loop(
            (v, chain) in (1usize..30).prop_flat_map(|m| (
                prop::collection::vec((0..m, 0u8..6), 0..5).prop_map(move |entries| {
                    let mut v = vec![0.0; m];
                    for (i, kind) in entries {
                        v[i] = [-0.0, 1.0, -1.0, 2.0, 0.5, -3.0][usize::from(kind)];
                    }
                    v
                }),
                prop::collection::vec(
                    (0..m, prop::collection::vec(0u8..8, m), 0u8..4),
                    0..12,
                ),
            )),
        ) {
            let values = [0.0, -0.0, 0.0, 1.0, -1.0, 2.0, -0.5, 1.0];
            let etas: Vec<Eta> = chain
                .into_iter()
                .map(|(r, w, pivot)| {
                    let mut w: Vec<f64> = w.into_iter().map(|k| values[usize::from(k)]).collect();
                    w[r] = [1.0, -1.0, 2.0, -0.5][usize::from(pivot)];
                    Eta { r, w }
                })
                .collect();
            let mut dense = v.clone();
            for e in etas.iter().rev() {
                let mut s = dense[e.r];
                for (i, (&vi, &wi)) in dense.iter().zip(&e.w).enumerate() {
                    if i != e.r {
                        s -= wi * vi;
                    }
                }
                dense[e.r] = s / e.w[e.r];
            }
            let mut listed = v.clone();
            let mut nz: Vec<u32> =
                (0..v.len() as u32).filter(|&i| v[i as usize].to_bits() != 0).collect();
            for e in etas.iter().rev() {
                e.apply_transposed(&mut listed, &mut nz);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&listed), bits(&dense));
            prop_assert!(nz.windows(2).all(|p| p[0] < p[1]), "{:?}", nz);
            for (i, x) in listed.iter().enumerate() {
                prop_assert!(x.to_bits() == 0 || nz.contains(&(i as u32)), "{} not listed", i);
            }
        }
    }

    #[test]
    fn matches_dense_on_basic_problem() {
        let p = sample();
        let s = p.solve_warm(None).unwrap();
        assert!((s.objective - 10.0).abs() < 1e-9);
        assert!((s.values[0] - 2.0).abs() < 1e-9);
        assert!((s.values[1] - 2.0).abs() < 1e-9);
        assert!(s.basis.is_some());
    }

    #[test]
    fn warm_restart_costs_no_pivots_when_unperturbed() {
        let p = sample();
        let cold = p.solve_warm(None).unwrap();
        let warm = p.solve_warm(cold.basis.as_ref()).unwrap();
        assert_eq!(warm.iterations, 0, "unchanged problem should re-verify, not re-pivot");
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_restart_after_cost_change_stays_correct() {
        let mut p = sample();
        let cold = p.solve_warm(None).unwrap();
        // Flip the preference toward y.
        p.set_var_objective(crate::model::VarId(0), 1.0);
        p.set_var_objective(crate::model::VarId(1), 5.0);
        let warm = p.solve_warm(cold.basis.as_ref()).unwrap();
        let fresh = p.solve_warm(None).unwrap();
        assert!((warm.objective - fresh.objective).abs() < 1e-9);
        assert!(p.max_violation(&warm.values) < 1e-9);
    }

    #[test]
    fn dual_reentry_after_rhs_tightening() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0, 3.0);
        let y = p.add_var("y", 0.0, 10.0, 2.0);
        let r = p.add_row("cap", &[(x, 1.0), (y, 1.0)], RowOp::Le, 8.0);
        let cold = p.solve_warm(None).unwrap();
        // Fault-style tightening: the binding row loses half its budget.
        p.cons[r.0].rhs = 4.0;
        let warm = p.solve_warm(cold.basis.as_ref()).unwrap();
        let fresh = p.solve_warm(None).unwrap();
        assert!((warm.objective - fresh.objective).abs() < 1e-9);
        assert!(p.max_violation(&warm.values) < 1e-9);
    }

    #[test]
    fn mismatched_basis_falls_back_to_cold() {
        let p = sample();
        let cold = p.solve_warm(None).unwrap();
        // A structurally different problem: extra row.
        let mut p2 = sample();
        let x = crate::model::VarId(0);
        p2.add_row("extra", &[(x, 1.0)], RowOp::Le, 1.5);
        let s = p2.solve_warm(cold.basis.as_ref()).unwrap();
        let fresh = p2.solve_warm(None).unwrap();
        assert!((s.objective - fresh.objective).abs() < 1e-9);
    }

    #[test]
    fn infeasible_and_unbounded_verdicts_survive() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        p.add_row("force", &[(x, 1.0)], RowOp::Ge, 3.0);
        assert!(matches!(p.solve_warm(None), Err(LpError::Infeasible { .. })));

        let mut q = Problem::new(Sense::Maximize);
        let _g = q.add_var("growth", 0.0, f64::INFINITY, 1.0);
        assert!(matches!(
            q.solve_warm(None),
            Err(LpError::Unbounded { var }) if var == "growth"
        ));
    }

    #[test]
    fn thin_row_solves_on_a_tiny_pivot_from_fresh_factors() {
        // The ratio test admits entries down to PIVOT_EPS (1e-9); a pivot
        // of 1e-8 passes it but sits below PIVOT_TINY (1e-7). With a
        // fresh factorization there are no etas to blame: the entry is
        // the row's own, and the pivot on it solves the row.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        p.add_row("thin", &[(x, 1e-8)], RowOp::Le, 1.0);
        let sol = p.solve().unwrap();
        assert!((sol.value(x) - 1e8).abs() / 1e8 < 1e-9);
        assert_eq!(sol.iterations, 1);
        crate::certify(&p, &sol).unwrap();
    }

    #[test]
    fn equality_chain_matches_dense() {
        let mut p = Problem::new(Sense::Maximize);
        let n = 9;
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(&format!("x{j}"), 0.0, 100.0, 1.0))
            .collect();
        p.add_row("x0", &[(vars[0], 1.0)], RowOp::Eq, 1.0);
        for k in 1..n {
            p.add_row(
                &format!("chain{k}"),
                &[(vars[k], 1.0), (vars[k - 1], -1.0)],
                RowOp::Eq,
                1.0,
            );
        }
        let s = p.solve_warm(None).unwrap();
        for (k, &v) in vars.iter().enumerate() {
            assert!((s.value(v) - (k as f64 + 1.0)).abs() < 1e-7, "x{k}");
        }
    }
}
