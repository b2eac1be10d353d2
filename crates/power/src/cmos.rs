//! The CMOS core power model of Appendix A (Eq. 23).

use serde::{Deserialize, Serialize};

/// Calibrated CMOS constants for one core type.
///
/// `π(f, V) = sc · f · V² + beta · V` with `f` in MHz, `V` in volts, and
/// power in kW (the MHz→Hz and unit constants are absorbed into `sc`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmosParams {
    /// Effective switched capacitance times activity (`S_j · CL_j`),
    /// assumed P-state independent (Appendix A).
    pub sc: f64,
    /// Static (leakage) power coefficient; static power is `beta · V`
    /// (Butts & Sohi \[11\] as cited by the paper).
    pub beta: f64,
}

impl CmosParams {
    /// Core power at clock `f_mhz` and supply voltage `v`, in kW (Eq. 23).
    pub fn power_kw(&self, f_mhz: f64, v: f64) -> f64 {
        self.sc * f_mhz * v * v + self.beta * v
    }

    /// Static component of the power at supply voltage `v`.
    pub fn static_kw(&self, v: f64) -> f64 {
        self.beta * v
    }

    /// Dynamic component of the power at clock `f_mhz`, voltage `v`.
    #[cfg(test)]
    pub fn dynamic_kw(&self, f_mhz: f64, v: f64) -> f64 {
        self.sc * f_mhz * v * v
    }
}

/// Calibrate [`CmosParams`] from a measured P-state-0 operating point.
///
/// Given the total P-state-0 core power `p0_kw`, the share of it that is
/// static (`static_share`, e.g. 0.3 for the paper's first two simulation
/// sets), and the P-state-0 clock/voltage, solve Eq. 23 for `SC` and `β`:
///
/// * `β = static_share · p0 / V0`
/// * `SC = (1 − static_share) · p0 / (f0 · V0²)`
///
/// # Panics
/// Panics when `static_share` is outside `[0, 1)` or the operating point is
/// non-positive — calibration inputs are constants, not runtime data.
pub fn derive_cmos(p0_kw: f64, static_share: f64, f0_mhz: f64, v0: f64) -> CmosParams {
    assert!(
        (0.0..1.0).contains(&static_share),
        "static share {static_share} outside [0, 1)"
    );
    assert!(p0_kw > 0.0 && f0_mhz > 0.0 && v0 > 0.0, "non-positive operating point");
    let beta = static_share * p0_kw / v0;
    let sc = (1.0 - static_share) * p0_kw / (f0_mhz * v0 * v0);
    CmosParams { sc, beta }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_p0_power() {
        for share in [0.0, 0.2, 0.3, 0.5, 0.9] {
            let c = derive_cmos(0.01375, share, 2500.0, 1.325);
            let p0 = c.power_kw(2500.0, 1.325);
            assert!((p0 - 0.01375).abs() < 1e-15, "share {share}: p0 = {p0}");
            let s = c.static_kw(1.325);
            assert!((s - share * 0.01375).abs() < 1e-15);
        }
    }

    #[test]
    fn static_plus_dynamic_equals_total() {
        let c = derive_cmos(0.016, 0.25, 2666.0, 1.35);
        for (f, v) in [(2666.0, 1.35), (2200.0, 1.268), (1000.0, 1.056)] {
            let total = c.power_kw(f, v);
            let parts = c.static_kw(v) + c.dynamic_kw(f, v);
            assert!((total - parts).abs() < 1e-18);
        }
    }

    #[test]
    fn lower_pstates_consume_less() {
        // Monotonicity along the paper's AMD Opteron ladder.
        let c = derive_cmos(0.01375, 0.3, 2500.0, 1.325);
        let ladder = [(2500.0, 1.325), (2100.0, 1.25), (1700.0, 1.175), (800.0, 1.025)];
        let powers: Vec<f64> = ladder.iter().map(|&(f, v)| c.power_kw(f, v)).collect();
        for w in powers.windows(2) {
            assert!(w[0] > w[1], "P-state powers must strictly decrease: {powers:?}");
        }
    }

    #[test]
    fn higher_static_share_flattens_the_ladder() {
        // With more static power, deep P-states save proportionally less:
        // their perf/W advantage over P0 shrinks. This is the mechanism
        // behind the paper's first Fig.-6 observation.
        let lo = derive_cmos(0.01375, 0.2, 2500.0, 1.325);
        let hi = derive_cmos(0.01375, 0.3, 2500.0, 1.325);
        // perf/W of P2 relative to P0, under each share.
        let ratio = |c: &CmosParams| {
            let p0 = 2500.0 / c.power_kw(2500.0, 1.325);
            let p2 = 1700.0 / c.power_kw(1700.0, 1.175);
            p2 / p0
        };
        assert!(ratio(&lo) > ratio(&hi));
    }

    #[test]
    #[should_panic(expected = "static share")]
    fn bad_share_panics() {
        derive_cmos(0.01, 1.0, 2500.0, 1.3);
    }
}
