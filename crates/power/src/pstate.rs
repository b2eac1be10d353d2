//! P-state tables (paper Section III.C).
//!
//! P-state 0 has the highest clock and power; each consecutive P-state is
//! slower and cheaper. The *off* state is modeled, exactly as in the paper,
//! as one extra P-state appended after the deepest active one, with zero
//! power and zero computational speed.

use serde::{Deserialize, Serialize};

/// The P-state ladder of one core type, off state included.
///
/// Index convention (matching the paper): indices `0..n_active()` are the
/// active P-states ordered by decreasing frequency/power; index
/// [`PStateTable::off_index`] (= `n_active()`) is the off state. The
/// paper's `η_j` equals [`PStateTable::n_total`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PStateTable {
    /// Power (kW) of each active P-state, strictly decreasing.
    powers_kw: Vec<f64>,
    /// Clock (MHz) of each active P-state, strictly decreasing.
    freqs_mhz: Vec<f64>,
    /// Supply voltage (V) of each active P-state.
    voltages: Vec<f64>,
}

impl PStateTable {
    /// Build a table from parallel per-active-P-state arrays.
    ///
    /// # Panics
    /// Panics if the arrays differ in length, are empty, or the power or
    /// frequency ladders are not strictly decreasing — such a table is a
    /// configuration bug.
    pub fn new(powers_kw: Vec<f64>, freqs_mhz: Vec<f64>, voltages: Vec<f64>) -> Self {
        assert!(!powers_kw.is_empty(), "at least one active P-state required");
        assert_eq!(powers_kw.len(), freqs_mhz.len());
        assert_eq!(powers_kw.len(), voltages.len());
        for w in powers_kw.windows(2) {
            assert!(w[0] > w[1], "P-state powers must strictly decrease: {powers_kw:?}");
        }
        for w in freqs_mhz.windows(2) {
            assert!(w[0] > w[1], "P-state clocks must strictly decrease: {freqs_mhz:?}");
        }
        assert!(powers_kw.iter().all(|&p| p > 0.0), "active P-state with non-positive power");
        PStateTable {
            powers_kw,
            freqs_mhz,
            voltages,
        }
    }

    /// Number of active (running) P-states.
    pub fn n_active(&self) -> usize {
        self.powers_kw.len()
    }

    /// Total number of P-states including the off state (the paper's `η`).
    pub fn n_total(&self) -> usize {
        self.powers_kw.len() + 1
    }

    /// Index of the off state.
    pub fn off_index(&self) -> usize {
        self.powers_kw.len()
    }

    /// Whether `k` is the off state.
    pub fn is_off(&self, k: usize) -> bool {
        k == self.off_index()
    }

    /// Power of P-state `k` in kW (0 for the off state).
    ///
    /// # Panics
    /// Panics if `k` exceeds the off index.
    pub fn power_kw(&self, k: usize) -> f64 {
        assert!(k <= self.off_index(), "P-state {k} out of range");
        if k == self.off_index() {
            0.0
        } else {
            self.powers_kw[k]
        }
    }

    /// Clock of P-state `k` in MHz (0 for the off state).
    pub fn freq_mhz(&self, k: usize) -> f64 {
        assert!(k <= self.off_index(), "P-state {k} out of range");
        if k == self.off_index() {
            0.0
        } else {
            self.freqs_mhz[k]
        }
    }

    /// The *highest-index* (deepest, cheapest) P-state whose power is still
    /// `>= target_kw` — the Stage-2 rounding primitive (Section V.B.3,
    /// step 1). Returns the off state when even it satisfies the target
    /// (i.e. `target_kw <= 0`).
    pub fn deepest_at_or_above(&self, target_kw: f64) -> usize {
        if target_kw <= 0.0 {
            return self.off_index();
        }
        // Powers strictly decrease with index, so scan from the deep end.
        for k in (0..self.n_active()).rev() {
            if self.powers_kw[k] >= target_kw - 1e-12 {
                return k;
            }
        }
        0
    }

    /// Iterate over `(index, power_kw)` of all states, off included.
    #[cfg(test)]
    pub fn iter_powers(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..self.n_total()).map(|k| (k, self.power_kw(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::new(
            vec![0.15, 0.10, 0.05],
            vec![2500.0, 2000.0, 1500.0],
            vec![1.3, 1.2, 1.1],
        )
    }

    #[test]
    fn indexing_conventions() {
        let t = table();
        assert_eq!(t.n_active(), 3);
        assert_eq!(t.n_total(), 4);
        assert_eq!(t.off_index(), 3);
        assert!(t.is_off(3));
        assert!(!t.is_off(0));
        assert_eq!(t.power_kw(3), 0.0);
        assert_eq!(t.freq_mhz(3), 0.0);
        assert_eq!(t.power_kw(1), 0.10);
    }

    #[test]
    fn deepest_at_or_above_rounds_up_in_power() {
        let t = table();
        assert_eq!(t.deepest_at_or_above(0.15), 0);
        assert_eq!(t.deepest_at_or_above(0.12), 0);
        assert_eq!(t.deepest_at_or_above(0.10), 1);
        assert_eq!(t.deepest_at_or_above(0.07), 1);
        assert_eq!(t.deepest_at_or_above(0.05), 2);
        assert_eq!(t.deepest_at_or_above(0.01), 2);
        assert_eq!(t.deepest_at_or_above(0.0), 3);
        assert_eq!(t.deepest_at_or_above(-1.0), 3);
        // Above P0's power, the best we can do is P0.
        assert_eq!(t.deepest_at_or_above(0.2), 0);
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn non_monotone_powers_rejected() {
        PStateTable::new(vec![0.1, 0.2], vec![2000.0, 1000.0], vec![1.2, 1.1]);
    }

    #[test]
    fn iter_powers_covers_off() {
        let t = table();
        let all: Vec<_> = t.iter_powers().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[3], (3, 0.0));
    }
}
