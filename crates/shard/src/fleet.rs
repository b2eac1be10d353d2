//! A fleet: many thermally independent CRAC zones under one power feed.
//!
//! The paper's instances top out at 150 nodes because Stage 1 couples
//! every node through the room's heat-recirculation matrix. Fleet scale
//! comes from the standard machine-room decomposition (Van Damme et al.,
//! arXiv:1611.00522): the floor is built from containment pods — each
//! with its own CRAC(s) and hot/cold aisles — whose airflow loops are
//! isolated, so cross-pod thermal interference is zero by construction
//! and each pod carries an exact zone-local copy of the paper's model.
//! What still couples the zones is the building's power feed: the fleet
//! budget (Eq. 18 summed over zones) is split across zones by the
//! budget-bisection master in [`crate::master`].

use crate::pool;
use crate::profile::ZoneProfile;
use thermaware_datacenter::{DataCenter, ScenarioParams};

/// Fleet shape: `n_zones` pods, each generated from the same
/// [`ScenarioParams`] template at an independent per-zone seed.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Number of zones (pods).
    pub n_zones: usize,
    /// Nodes in each zone (overrides the template's `n_nodes`).
    pub nodes_per_zone: usize,
    /// Per-zone scenario template (CRAC count, workload, redlines...).
    pub zone: ScenarioParams,
    /// Fleet seed; zone `z` builds at a golden-ratio-mixed sub-seed.
    pub seed: u64,
}

impl FleetParams {
    /// A small-pod fleet built from the paper's third simulation set,
    /// scaled down to fast zone solves.
    pub fn small(n_zones: usize, nodes_per_zone: usize, seed: u64) -> FleetParams {
        FleetParams {
            n_zones,
            nodes_per_zone,
            zone: ScenarioParams {
                n_nodes: nodes_per_zone,
                n_crac: 1,
                ..ScenarioParams::small_test()
            },
            seed,
        }
    }
}

/// Fleet build failure: the zone that failed and why.
#[derive(Debug, Clone)]
pub struct FleetBuildError {
    /// The zone that could not be built.
    pub zone: usize,
    /// The underlying scenario error (or worker panic message).
    pub message: String,
}

impl std::fmt::Display for FleetBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone {} failed to build: {}", self.zone, self.message)
    }
}

impl std::error::Error for FleetBuildError {}

/// The assembled fleet: per-zone data centers, their reward-vs-power
/// profiles, and the fleet-wide power budget.
#[derive(Debug)]
pub struct Fleet {
    /// One data center per zone, in zone order.
    pub zones: Vec<DataCenter>,
    /// Concave reward-vs-power profile of each zone (the master's view).
    pub profiles: Vec<ZoneProfile>,
    /// Fleet power budget: Eq. 18 summed over zones, `Σ_z Pconst_z`.
    pub budget_kw: f64,
}

impl Fleet {
    /// Build every zone (in parallel, panic-isolated) and derive the
    /// per-zone profiles at `psi_percent`.
    pub fn build(params: &FleetParams, psi_percent: f64) -> Result<Fleet, FleetBuildError> {
        let _span = thermaware_obs::span("shard.fleet_build");
        let n = params.n_zones;
        let threads = pool::default_threads(n);
        let built = pool::scoped_map(n, threads, |z| {
            let zone_params = ScenarioParams {
                n_nodes: params.nodes_per_zone,
                ..params.zone.clone()
            };
            zone_params
                .build(zone_seed(params.seed, z))
                .map(|dc| {
                    let profile = ZoneProfile::build(&dc, psi_percent);
                    (dc, profile)
                })
                .map_err(|e| e.to_string())
        });
        let mut zones = Vec::with_capacity(n);
        let mut profiles = Vec::with_capacity(n);
        for (z, item) in built.into_iter().enumerate() {
            match item {
                Ok(Ok((dc, profile))) => {
                    zones.push(dc);
                    profiles.push(profile);
                }
                Ok(Err(msg)) => return Err(FleetBuildError { zone: z, message: msg }),
                Err(job) => return Err(FleetBuildError { zone: z, message: job.to_string() }),
            }
        }
        let budget_kw = zones.iter().map(|dc| dc.budget.p_const_kw).sum();
        Ok(Fleet { zones, profiles, budget_kw })
    }

    /// Number of zones.
    pub fn n_zones(&self) -> usize {
        self.zones.len()
    }

    /// Total node count across the fleet.
    pub fn n_nodes(&self) -> usize {
        self.zones.iter().map(DataCenter::n_nodes).sum()
    }
}

/// The sub-seed zone `z` builds at: golden-ratio mixing keeps zone
/// streams decorrelated while staying reproducible from the fleet seed.
pub fn zone_seed(fleet_seed: u64, zone: usize) -> u64 {
    fleet_seed.wrapping_add((zone as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_small_fleet_with_consistent_budget() {
        let fleet = Fleet::build(&FleetParams::small(3, 6, 11), 50.0).expect("fleet builds");
        assert_eq!(fleet.n_zones(), 3);
        assert_eq!(fleet.n_nodes(), 18);
        let sum: f64 = fleet.zones.iter().map(|z| z.budget.p_const_kw).sum();
        assert!((fleet.budget_kw - sum).abs() < 1e-12);
        for profile in &fleet.profiles {
            assert!(profile.p_min_kw < profile.p_max_kw);
            assert!(profile.max_price() > 0.0, "a zone with reward to buy");
        }
    }

    #[test]
    fn zone_seeds_differ() {
        let a = zone_seed(42, 0);
        let b = zone_seed(42, 1);
        assert_ne!(a, b);
    }
}
