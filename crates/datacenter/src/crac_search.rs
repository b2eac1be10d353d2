//! Discretized coarse-to-fine search over CRAC outlet temperatures.
//!
//! The paper (Section V.B.2, last paragraph) observes that CRAC outlet
//! temperatures have ~1 °C granularity and proposes "a multi-step method
//! where the first step is a coarse-grained search for the entire range of
//! possible outlet temperatures" with each subsequent step refining around
//! the best combination. This module implements exactly that, generic over
//! the inner evaluation (a total-power computation for the Eq.-17 bounds,
//! a full Stage-1 LP for the assignment problem, the Eq.-21 baseline LP…).

use thermaware_thermal::CracUnit;

/// Final granularity of the search in °C: the ~1 °C the paper gives
/// CRAC outlet temperatures.
pub const FINE_STEP_C: f64 = 1.0;

/// Options for the coarse-to-fine search.
#[derive(Debug, Clone, Copy)]
pub struct CracSearchOptions {
    /// Coarse-pass step in °C (paper-style multi-step search starts wide).
    pub coarse_step_c: f64,
    /// Radius (in [`FINE_STEP_C`] steps) of the refinement window around
    /// the coarse optimum.
    pub refine_radius: usize,
}

impl Default for CracSearchOptions {
    fn default() -> Self {
        CracSearchOptions {
            coarse_step_c: 5.0,
            refine_radius: 2,
        }
    }
}

/// Search CRAC outlet temperature combinations, maximizing `score`.
///
/// `score` returns `None` for infeasible combinations (e.g. redline
/// violations or an infeasible inner LP). Returns the best combination and
/// its score, or `None` when every combination was infeasible.
///
/// The search enumerates a coarse grid over each unit's admissible range,
/// then the full grid at [`FINE_STEP_C`] within `refine_radius` steps of
/// the winner.
///
/// # Panics
/// Panics on an empty `cracs` or a `coarse_step_c` that is not a positive
/// number; the solvers refuse such a step before they search.
pub fn optimize_crac_outlets<F>(
    cracs: &[CracUnit],
    options: CracSearchOptions,
    mut score: F,
) -> Option<(Vec<f64>, f64)>
where
    F: FnMut(&[f64]) -> Option<f64>,
{
    let _span = thermaware_obs::span("crac_search");
    // Candidate accounting goes through a wrapper so both passes are
    // counted uniformly: `evaluated` is every combination handed to the
    // caller's scorer, `pruned` the subset the scorer rejected as
    // infeasible.
    let mut evaluated: u64 = 0;
    let mut pruned: u64 = 0;
    let result = search_impl(cracs, options, &mut |combo: &[f64]| {
        evaluated += 1;
        let s = score(combo);
        if s.is_none() {
            pruned += 1;
        }
        s
    });
    if thermaware_obs::enabled() {
        thermaware_obs::counter_add("crac.candidates", evaluated);
        thermaware_obs::counter_add("crac.pruned", pruned);
        thermaware_obs::observe("crac.candidates_per_search", evaluated as f64);
        thermaware_obs::gauge_set("crac.coarse_step_c", options.coarse_step_c);
        if result.is_none() {
            thermaware_obs::counter_add("crac.search_exhausted", 1);
        }
    }
    result
}

fn search_impl<F>(
    cracs: &[CracUnit],
    options: CracSearchOptions,
    score: &mut F,
) -> Option<(Vec<f64>, f64)>
where
    F: FnMut(&[f64]) -> Option<f64>,
{
    assert!(!cracs.is_empty());
    assert!(options.coarse_step_c > 0.0);

    // ---- Coarse pass: full grid ------------------------------------------
    let coarse_span = thermaware_obs::span("crac_search.coarse");
    let coarse_axes: Vec<Vec<f64>> = cracs
        .iter()
        .map(|c| axis(c.min_outlet_c, c.max_outlet_c, options.coarse_step_c))
        .collect();
    // The best combination so far is copied into one buffer, so a new
    // best allocates nothing.
    let mut current = Vec::with_capacity(cracs.len());
    let mut best: Option<f64> = None;
    enumerate(&coarse_axes, &mut |combo| {
        if let Some(s) = score(combo) {
            if best.is_none_or(|b| s > b) {
                best = Some(s);
                current.clear();
                current.extend_from_slice(combo);
            }
        }
    });
    drop(coarse_span);
    let current_score = best?;

    // ---- Refinement: full grid at the fine step --------------------------
    let _refine_span = thermaware_obs::span("crac_search.refine");
    let radius = options.refine_radius as f64 * FINE_STEP_C;
    let fine_axes: Vec<Vec<f64>> = cracs
        .iter()
        .zip(&current)
        .map(|(c, &center)| {
            axis(
                (center - radius).max(c.min_outlet_c),
                (center + radius).min(c.max_outlet_c),
                FINE_STEP_C,
            )
        })
        .collect();
    let mut best_fine = (current, current_score);
    enumerate(&fine_axes, &mut |combo| {
        if let Some(s) = score(combo) {
            if s > best_fine.1 {
                best_fine.0.clear();
                best_fine.0.extend_from_slice(combo);
                best_fine.1 = s;
            }
        }
    });
    Some(best_fine)
}

/// Inclusive axis from `lo` to `hi` with the given step (always includes
/// `hi`).
fn axis(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let mut v = Vec::new();
    let mut t = lo;
    while t < hi - 1e-9 {
        v.push(t);
        t += step;
    }
    v.push(hi);
    v
}

/// Call `f` with every combination of the axes (odometer enumeration, no
/// recursion, single scratch buffer).
fn enumerate<F: FnMut(&[f64])>(axes: &[Vec<f64>], f: &mut F) {
    let n = axes.len();
    let mut idx = vec![0usize; n];
    let mut combo = vec![0.0; n];
    loop {
        for (d, &i) in idx.iter().enumerate() {
            combo[d] = axes[d][i];
        }
        f(&combo);
        // Odometer increment.
        let mut d = 0;
        loop {
            if d == n {
                return;
            }
            idx[d] += 1;
            if idx[d] < axes[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(lo: f64, hi: f64) -> CracUnit {
        CracUnit {
            flow_m3s: 1.0,
            min_outlet_c: lo,
            max_outlet_c: hi,
        }
    }

    #[test]
    fn finds_separable_quadratic_peak() {
        // score = -(t0 - 17)^2 - (t1 - 12)^2, peak at (17, 12).
        let cracs = [unit(10.0, 25.0), unit(10.0, 25.0)];
        let (best, score) = optimize_crac_outlets(&cracs, CracSearchOptions::default(), |t| {
            Some(-(t[0] - 17.0).powi(2) - (t[1] - 12.0).powi(2))
        })
        .unwrap();
        assert!((best[0] - 17.0).abs() < 1.01, "{best:?}");
        assert!((best[1] - 12.0).abs() < 1.01);
        assert!(score > -2.5);
    }

    #[test]
    fn all_infeasible_returns_none() {
        let cracs = [unit(10.0, 25.0)];
        let r = optimize_crac_outlets(&cracs, CracSearchOptions::default(), |_| None);
        assert!(r.is_none());
    }

    #[test]
    fn partial_feasibility_is_respected() {
        // Only temperatures >= 20 are feasible; the optimum inside the
        // feasible region is at 20.
        let cracs = [unit(10.0, 25.0)];
        let (best, _) = optimize_crac_outlets(&cracs, CracSearchOptions::default(), |t| {
            if t[0] >= 20.0 {
                Some(-t[0])
            } else {
                None
            }
        })
        .unwrap();
        assert!((best[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn axis_includes_endpoints() {
        let a = axis(10.0, 25.0, 5.0);
        assert_eq!(a, vec![10.0, 15.0, 20.0, 25.0]);
        let b = axis(10.0, 12.0, 5.0);
        assert_eq!(b, vec![10.0, 12.0]);
        let c = axis(10.0, 10.0, 5.0);
        assert_eq!(c, vec![10.0]);
    }

    #[test]
    fn enumerate_visits_all_combinations() {
        let axes = vec![vec![1.0, 2.0], vec![10.0, 20.0, 30.0]];
        let mut seen = Vec::new();
        enumerate(&axes, &mut |c| seen.push((c[0], c[1])));
        assert_eq!(seen.len(), 6);
        assert!(seen.contains(&(2.0, 30.0)));
        assert!(seen.contains(&(1.0, 10.0)));
    }
}
