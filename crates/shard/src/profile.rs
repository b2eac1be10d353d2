//! Per-zone concave reward-vs-power profiles — the master's view of a
//! zone.
//!
//! Stage 1 inside a zone maximizes reward over the per-node aggregate
//! ARR hulls subject to the zone's power budget (`crates/core/stage1`).
//! The master does not need the zone's thermal detail to split the
//! fleet budget well; it needs the zone's *marginal reward per kW*,
//! which is exactly the multiset of hull segment slopes of the zone's
//! nodes (the same construction `crates/datacenter/src/budget.rs` seeds
//! with its Pmin/Pmax extremes). Core power is converted to estimated
//! total (IT + cooling) power through the zone's own budget extremes:
//! `est_total(c) = p_min + gain·c` with
//! `gain = (p_max − p_min) / core_max` — the zone's average marginal
//! cooling overhead, the linearization the master prices zones with.
//! The estimate only steers the split; every zone solve re-checks the
//! real thermal model against its allocation, so an estimation error
//! costs reward, never feasibility.

use thermaware_core::ArrCurve;
use thermaware_datacenter::DataCenter;

/// A zone's concave reward-vs-power curve in master coordinates.
#[derive(Debug, Clone)]
pub struct ZoneProfile {
    /// Zone total power floor (every core off), kW — Eq. 17's Pmin.
    pub p_min_kw: f64,
    /// Zone total power ceiling (every core at P0), kW — Eq. 17's Pmax.
    pub p_max_kw: f64,
    /// Estimated d(total power)/d(core power) ≥ 1 (cooling overhead);
    /// positive, which keeps the effective slopes in the slopes' order.
    gain: f64,
    /// Slopes (reward per core kW) of the hull segments across all nodes
    /// of the zone, decreasing; zero-slope tails are dropped (spending
    /// into them buys no reward).
    slopes: Vec<f64>,
    /// `reach[k]`: the core-kW capacity of the first `k` segments, summed
    /// in segment order from `-0.0` as `Iterator::sum` sums (`reach[0]`
    /// is that `-0.0`).
    reach: Vec<f64>,
}

impl ZoneProfile {
    /// Build the profile for one zone at the given ψ.
    pub fn build(dc: &DataCenter, psi_percent: f64) -> ZoneProfile {
        // Node-type ARR hulls, then per-node aggregates (g(x) = n·f(x/n)),
        // mirroring Stage 1's curve construction exactly.
        let type_curves: Vec<ArrCurve> = (0..dc.node_types.len())
            .map(|t| {
                ArrCurve::build(&dc.workload, &dc.node_types[t].core.pstates, t, psi_percent)
            })
            .collect();

        let mut segments: Vec<(f64, f64)> = Vec::new();
        let mut core_max = 0.0f64;
        for j in 0..dc.n_nodes() {
            let t = dc.node_type_of[j];
            let cores = dc.node_types[t].cores_per_node;
            let agg = type_curves[t].curve.aggregate_copies(cores);
            let pts = agg.points();
            for w in pts.windows(2) {
                let dx = w[1].0 - w[0].0;
                let dy = w[1].1 - w[0].1;
                if dx > 1e-12 && dy > 1e-12 {
                    segments.push((dy / dx, dx));
                }
            }
            core_max += pts.last().map(|p| p.0).unwrap_or(0.0);
        }

        let p_min_kw = dc.budget.p_min_kw;
        let p_max_kw = dc.budget.p_max_kw;
        let gain = if core_max > 1e-12 {
            ((p_max_kw - p_min_kw) / core_max).max(1.0)
        } else {
            1.0
        };
        ZoneProfile::new(p_min_kw, p_max_kw, gain, segments)
    }

    /// A profile of the given `(slope, core-kW capacity)` segments, which
    /// it sorts by decreasing slope (stably: tied slopes keep their
    /// order) and keeps as slopes and prefix capacities.
    ///
    /// # Panics
    /// Panics on a NaN slope or capacity, or a `gain` that is not a
    /// positive number: the price order needs all three.
    pub(crate) fn new(p_min_kw: f64, p_max_kw: f64, gain: f64, mut segments: Vec<(f64, f64)>) -> ZoneProfile {
        assert!(gain > 0.0, "gain {gain} is not positive");
        assert!(
            segments.iter().all(|(slope, len)| !slope.is_nan() && !len.is_nan()),
            "NaN in a profile segment"
        );
        segments.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut reach = Vec::with_capacity(segments.len() + 1);
        reach.push(-0.0);
        for (k, &(_, len)) in segments.iter().enumerate() {
            reach.push(reach[k] + len);
        }
        let slopes = segments.iter().map(|&(slope, _)| slope).collect();
        ZoneProfile { p_min_kw, p_max_kw, gain, slopes, reach }
    }

    /// Core power bought at marginal price `lambda` (reward per *total*
    /// kW): the capacity of every segment whose effective slope beats it.
    /// Slopes decrease, and dividing by the positive `gain` keeps their
    /// order, so those segments are a prefix and the capacity is read
    /// off `reach` — the sum a filter over every segment would add up,
    /// bit for bit (NaN `lambda` beats nothing: `-0.0`, the empty sum).
    pub fn core_at_price(&self, lambda: f64) -> f64 {
        let bought = self.slopes.partition_point(|slope| slope / self.gain > lambda);
        self.reach[bought]
    }

    /// Estimated zone total power when buying at price `lambda`, clamped
    /// to the zone's physical range.
    pub fn est_total_at(&self, lambda: f64) -> f64 {
        (self.p_min_kw + self.gain * self.core_at_price(lambda)).min(self.p_max_kw)
    }

    /// The steepest effective slope (reward per total kW) on offer.
    pub fn max_price(&self) -> f64 {
        self.slopes.first().map(|s| s / self.gain).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use thermaware_datacenter::ScenarioParams;

    fn zone() -> DataCenter {
        ScenarioParams::small_test().build(5).expect("scenario builds")
    }

    #[test]
    fn profile_is_concave_and_bounded() {
        let dc = zone();
        let p = ZoneProfile::build(&dc, 50.0);
        assert!(p.p_min_kw > 0.0 && p.p_min_kw < p.p_max_kw);
        assert!(p.gain >= 1.0);
        // Slopes sorted decreasing = concavity of the merged curve.
        for w in p.slopes.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn spend_is_monotone_in_price() {
        let dc = zone();
        let p = ZoneProfile::build(&dc, 50.0);
        let hi = p.max_price();
        let mut last = f64::INFINITY;
        for k in 0..10 {
            let lambda = hi * k as f64 / 10.0;
            let spend = p.est_total_at(lambda);
            assert!(spend <= last + 1e-12, "spend must fall as price rises");
            assert!(spend >= p.p_min_kw - 1e-12 && spend <= p.p_max_kw + 1e-12);
            last = spend;
        }
        // Above the steepest slope nothing is bought.
        assert!((p.est_total_at(hi + 1.0) - p.p_min_kw).abs() < 1e-9);
    }

    /// What `core_at_price` summed before it read prefix sums: the
    /// capacity of every segment whose effective slope beats `lambda`,
    /// over the segments sorted as a profile sorts them.
    fn filter_sum(segments: &[(f64, f64)], gain: f64, lambda: f64) -> f64 {
        let mut sorted = segments.to_vec();
        sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
        sorted.iter().filter(|(slope, _)| slope / gain > lambda).map(|(_, len)| len).sum()
    }

    /// Slopes drawn from a few values so that ties are common.
    fn segment_lists() -> impl Strategy<Value = Vec<(f64, f64)>> {
        prop::collection::vec((0u8..6, 0.001_f64..40.0), 0..24)
            .prop_map(|s| s.into_iter().map(|(k, len)| (0.5 + 1.5 * f64::from(k), len)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The prefix read is the filter-sum, bit for bit: at prices
        /// between, below and above the slopes, exactly at a `slope /
        /// gain`, at NaN, and on profiles without segments.
        #[test]
        fn prefix_capacity_equals_the_filter_sum(
            segs in segment_lists(),
            gain in 1.0_f64..3.0,
            lambda in -1.0_f64..12.0,
            pick in 0usize..24,
        ) {
            let p = ZoneProfile::new(10.0, 90.0, gain, segs.clone());
            let mut prices = vec![lambda, f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
            if let Some(&(slope, _)) = segs.get(pick % segs.len().max(1)) {
                let at = slope / gain;
                prices.extend([at, at.next_up(), at.next_down()]);
            }
            for lambda in prices {
                let (fast, slow) = (p.core_at_price(lambda), filter_sum(&segs, gain, lambda));
                prop_assert_eq!(fast.to_bits(), slow.to_bits(), "λ {}: {} vs {}", lambda, fast, slow);
            }
        }
    }

    #[test]
    fn no_segments_buy_the_empty_sum() {
        let p = ZoneProfile::new(10.0, 90.0, 1.0, Vec::new());
        for lambda in [0.0, -1.0, f64::NAN] {
            assert_eq!(p.core_at_price(lambda).to_bits(), (-0.0_f64).to_bits());
            assert_eq!(filter_sum(&[], 1.0, lambda).to_bits(), (-0.0_f64).to_bits());
        }
    }
}
