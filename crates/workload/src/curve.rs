//! Time-varying demand curves shared by the scenario engine and the
//! service load generator.
//!
//! A [`Curve`] maps seconds-from-start to a non-negative level. The
//! level's meaning is the caller's: the load generator reads it as an
//! aggregate batches/s rate, the supervisor as a dimensionless
//! arrival-rate multiplier, and the `Solver` scenario surface as either
//! a demand multiplier or a price/carbon intensity. The three shapes
//! (constant, sinusoidal diurnal, step surge) are the ones
//! `service::loadgen` grew first; they now live here so the plan-side
//! scenario engine and the client-side load shape can never drift apart.

use serde::{Deserialize, Serialize};

/// A deterministic level-versus-time shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Curve {
    /// Flat level.
    Constant {
        /// The level at every time.
        rate: f64,
    },
    /// Sinusoidal day: `base` at the trough, `peak` at the crest, one
    /// full cycle every `period_s` seconds (trough at `t = 0`).
    Diurnal {
        /// Trough level.
        base: f64,
        /// Crest level.
        peak: f64,
        /// Full cycle length, seconds.
        period_s: f64,
    },
    /// Flat `base` with a step to `surge` during
    /// `[start_s, start_s + len_s)`.
    Surge {
        /// Baseline level.
        base: f64,
        /// Level during the surge window.
        surge: f64,
        /// Surge onset, seconds from start.
        start_s: f64,
        /// Surge length, seconds.
        len_s: f64,
    },
}

impl Curve {
    /// A flat curve — the identity scenario when used as a multiplier
    /// with `rate = 1.0`.
    pub fn constant(rate: f64) -> Curve {
        Curve::Constant { rate }
    }

    /// The level at time `t` seconds from start.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            Curve::Constant { rate } => rate,
            Curve::Diurnal { base, peak, period_s } => {
                let phase = (t / period_s.max(1e-9)) * std::f64::consts::TAU;
                base + (peak - base) * 0.5 * (1.0 - phase.cos())
            }
            Curve::Surge { base, surge, start_s, len_s } => {
                if t >= start_s && t < start_s + len_s {
                    surge
                } else {
                    base
                }
            }
        }
    }

    /// Parse `constant:RATE`, `diurnal:BASE:PEAK:PERIOD`, or
    /// `surge:BASE:SURGE:START:LEN`.
    pub fn parse(s: &str) -> Option<Curve> {
        let parts: Vec<&str> = s.split(':').collect();
        let num = |i: usize| parts.get(i).and_then(|p| p.parse::<f64>().ok());
        match parts.first().copied()? {
            "constant" => Some(Curve::Constant { rate: num(1)? }),
            "diurnal" => Some(Curve::Diurnal {
                base: num(1)?,
                peak: num(2)?,
                period_s: num(3)?,
            }),
            "surge" => Some(Curve::Surge {
                base: num(1)?,
                surge: num(2)?,
                start_s: num(3)?,
                len_s: num(4)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let c = Curve::constant(200.0);
        assert_eq!(c.rate_at(0.0), 200.0); // lint: allow(float-eq): constant curve returns its literal level
        assert_eq!(c.rate_at(1e6), 200.0); // lint: allow(float-eq): constant curve returns its literal level
    }

    #[test]
    fn diurnal_troughs_and_crests() {
        let c = Curve::Diurnal { base: 10.0, peak: 30.0, period_s: 100.0 };
        assert!((c.rate_at(0.0) - 10.0).abs() < 1e-9);
        assert!((c.rate_at(50.0) - 30.0).abs() < 1e-9);
        assert!((c.rate_at(100.0) - 10.0).abs() < 1e-9);
        let mid = c.rate_at(25.0);
        assert!(mid > 10.0 && mid < 30.0);
    }

    #[test]
    fn surge_window_is_half_open() {
        let c = Curve::Surge { base: 5.0, surge: 50.0, start_s: 10.0, len_s: 5.0 };
        assert_eq!(c.rate_at(9.999), 5.0); // lint: allow(float-eq): step curve returns one of two literal levels
        assert_eq!(c.rate_at(10.0), 50.0); // lint: allow(float-eq): step curve returns one of two literal levels
        assert_eq!(c.rate_at(14.999), 50.0); // lint: allow(float-eq): step curve returns one of two literal levels
        assert_eq!(c.rate_at(15.0), 5.0); // lint: allow(float-eq): step curve returns one of two literal levels
    }

    #[test]
    fn parse_round_trips_each_shape() {
        assert_eq!(
            Curve::parse("constant:42.5"),
            Some(Curve::Constant { rate: 42.5 })
        );
        assert_eq!(
            Curve::parse("diurnal:10:30:86400"),
            Some(Curve::Diurnal { base: 10.0, peak: 30.0, period_s: 86400.0 })
        );
        assert_eq!(
            Curve::parse("surge:5:50:100:30"),
            Some(Curve::Surge { base: 5.0, surge: 50.0, start_s: 100.0, len_s: 30.0 })
        );
        assert_eq!(Curve::parse("sawtooth:1:2"), None);
        assert_eq!(Curve::parse("diurnal:10"), None);
    }

    #[test]
    fn serde_round_trip() {
        for c in [
            Curve::constant(7.0),
            Curve::Diurnal { base: 1.0, peak: 2.0, period_s: 60.0 },
            Curve::Surge { base: 0.5, surge: 4.0, start_s: 3.0, len_s: 9.0 },
        ] {
            let text = serde_json::to_string(&c.to_value()).expect("prints");
            let back: Curve = serde_json::from_str(&text).expect("curve round-trips");
            assert_eq!(back, c);
        }
    }
}
