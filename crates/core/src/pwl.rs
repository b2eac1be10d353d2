//! Piecewise-linear curves over `[0, x_max]` — the representation behind
//! the paper's `RR` and `ARR` functions.

use serde::{Deserialize, Serialize, Source};

/// A continuous piecewise-linear function given by breakpoints with
/// strictly increasing x.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PiecewiseLinear {
    /// `(x, y)` breakpoints, x strictly increasing.
    points: Vec<(f64, f64)>,
}

// By hand: the breakpoints of a curve read from disk are checked, so a
// corrupted checkpoint yields an error rather than tripping
// `PiecewiseLinear::new`'s panic on non-increasing breakpoints.
impl Deserialize for PiecewiseLinear {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        let mut points = None;
        src.object(|src, key| match key {
            "points" => src.first(&mut points, Vec::<(f64, f64)>::deserialize),
            _ => src.skip(),
        })?;
        let points = points.ok_or_else(|| serde::Error::missing_field("points"))?;
        if points.is_empty() {
            return Err(serde::Error::custom("PiecewiseLinear: no breakpoints"));
        }
        if !points.iter().all(|(x, y)| x.is_finite() && y.is_finite()) {
            return Err(serde::Error::custom(
                "PiecewiseLinear: non-finite breakpoint",
            ));
        }
        if points.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(serde::Error::custom(
                "PiecewiseLinear: breakpoint x not strictly increasing",
            ));
        }
        Ok(PiecewiseLinear { points })
    }
}

impl PiecewiseLinear {
    /// Build from breakpoints.
    ///
    /// # Panics
    /// Panics if fewer than one point or x is not strictly increasing —
    /// curve construction is driven by P-state tables, so violations are
    /// configuration bugs.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "need at least one breakpoint");
        for w in points.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "breakpoint x must strictly increase: {points:?}"
            );
        }
        PiecewiseLinear { points }
    }

    /// The breakpoints.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Largest x (the curve's domain end).
    pub fn x_max(&self) -> f64 {
        self.points.last().expect("PiecewiseLinear is non-empty by construction").0
    }

    /// Value at the last breakpoint.
    #[cfg(test)]
    pub fn y_max(&self) -> f64 {
        self.points.last().expect("PiecewiseLinear is non-empty by construction").1
    }

    /// Evaluate at `x`, clamping outside the domain to the end values
    /// (the curves here are flat beyond their last P-state).
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the containing segment.
        let mut lo = 0;
        let mut hi = pts.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if pts[mid].0 <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (x0, y0) = pts[lo];
        let (x1, y1) = pts[hi];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Whether the curve is concave (segment slopes non-increasing, up to
    /// a tiny tolerance).
    #[cfg(test)]
    pub fn is_concave(&self) -> bool {
        let slopes = self.slopes();
        slopes.windows(2).all(|w| w[1] <= w[0] + 1e-9)
    }

    /// Per-segment slopes, one per consecutive breakpoint pair.
    pub fn slopes(&self) -> Vec<f64> {
        self.points
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
            .collect()
    }

    /// Pointwise average of several curves sharing identical x
    /// breakpoints (the paper's ARR averages RR curves, which all break at
    /// the same P-state powers).
    ///
    /// # Panics
    /// Panics if the inputs' x grids differ.
    pub fn average(curves: &[&PiecewiseLinear]) -> PiecewiseLinear {
        assert!(!curves.is_empty());
        let xs: Vec<f64> = curves[0].points.iter().map(|p| p.0).collect();
        for c in curves {
            assert_eq!(c.points.len(), xs.len(), "mismatched breakpoint grids");
            for (p, &x) in c.points.iter().zip(&xs) {
                assert!((p.0 - x).abs() < 1e-12, "mismatched breakpoint grids");
            }
        }
        let n = curves.len() as f64;
        let points = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let y: f64 = curves.iter().map(|c| c.points[i].1).sum();
                (x, y / n)
            })
            .collect();
        PiecewiseLinear::new(points)
    }

    /// The **upper concave envelope** of the breakpoints — the paper's
    /// "ignore the bad P-states" construction (Fig. 5). Points strictly
    /// below the hull are dropped; the result is concave and touches the
    /// first and last breakpoints.
    pub fn concave_hull(&self) -> PiecewiseLinear {
        if self.points.len() <= 2 {
            return self.clone();
        }
        // Monotone-chain upper hull over points already sorted by x.
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(self.points.len());
        for &p in &self.points {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Remove b when it lies on or below the chord a→p (cross
                // product turns left or is collinear).
                let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
                if cross >= -1e-15 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        PiecewiseLinear::new(hull)
    }

    /// Scale the curve to the aggregate of `n` identical copies operated
    /// optimally under a shared budget: `g(x) = n·f(x/n)` — used to lift a
    /// per-core ARR curve to a whole node. Concavity is preserved, and
    /// for concave `f` the equal split behind this formula is optimal.
    pub fn aggregate_copies(&self, n: usize) -> PiecewiseLinear {
        assert!(n >= 1);
        let s = n as f64;
        PiecewiseLinear::new(self.points.iter().map(|&(x, y)| (x * s, y * s)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3() -> PiecewiseLinear {
        PiecewiseLinear::new(vec![(0.0, 0.0), (0.05, 0.5), (0.1, 0.9), (0.15, 1.2)])
    }

    #[test]
    fn eval_interpolates_and_clamps() {
        let f = fig3();
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(0.05), 0.5);
        assert!((f.eval(0.025) - 0.25).abs() < 1e-12);
        assert!((f.eval(0.125) - 1.05).abs() < 1e-12);
        // Clamped outside the domain.
        assert_eq!(f.eval(-1.0), 0.0);
        assert_eq!(f.eval(9.0), 1.2);
    }

    #[test]
    fn fig3_curve_is_concave() {
        assert!(fig3().is_concave());
        let slopes = fig3().slopes();
        assert!((slopes[0] - 10.0).abs() < 1e-12);
        assert!((slopes[1] - 8.0).abs() < 1e-12);
        assert!((slopes[2] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn fig4_curve_is_not_concave() {
        // Deadline kills P-state 2: its reward rate drops to 0.
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (0.05, 0.0), (0.1, 0.9), (0.15, 1.2)]);
        assert!(!f.is_concave());
    }

    #[test]
    fn concave_hull_drops_bad_pstates() {
        // Fig. 5: the hull of the Fig.-4 curve skips (0.05, 0).
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (0.05, 0.0), (0.1, 0.9), (0.15, 1.2)]);
        let h = f.concave_hull();
        assert_eq!(h.points(), &[(0.0, 0.0), (0.1, 0.9), (0.15, 1.2)]);
        assert!(h.is_concave());
        // The hull dominates the original pointwise.
        for &(x, y) in f.points() {
            assert!(h.eval(x) >= y - 1e-12);
        }
    }

    #[test]
    fn concave_hull_of_concave_curve_is_identity() {
        let f = fig3();
        assert_eq!(f.concave_hull(), f);
    }

    #[test]
    fn average_pointwise() {
        let a = fig3();
        let b = PiecewiseLinear::new(vec![(0.0, 0.0), (0.05, 0.1), (0.1, 0.3), (0.15, 0.4)]);
        let avg = PiecewiseLinear::average(&[&a, &b]);
        assert!((avg.eval(0.05) - 0.3).abs() < 1e-12);
        assert!((avg.eval(0.15) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn aggregate_copies_scales_both_axes() {
        let f = fig3();
        let g = f.aggregate_copies(4);
        assert_eq!(g.x_max(), 0.6);
        assert_eq!(g.y_max(), 4.8);
        // g(x) = 4 f(x/4) pointwise.
        for x in [0.0, 0.1, 0.3, 0.45, 0.6] {
            assert!((g.eval(x) - 4.0 * f.eval(x / 4.0)).abs() < 1e-12);
        }
        assert!(g.is_concave());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn duplicate_x_rejected() {
        PiecewiseLinear::new(vec![(0.0, 0.0), (0.0, 1.0)]);
    }
}
