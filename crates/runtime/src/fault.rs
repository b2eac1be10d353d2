//! Composable, seeded fault scripts injected into a supervised run, and
//! the seeded arrival stream the run's demand draws from.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Source};
use thermaware_datacenter::DataCenter;
use thermaware_workload::TaskArrival;

/// One kind of mid-run fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Fault {
    /// A CRAC unit's coil fails (fan keeps turning): it stops cooling and
    /// passes air through (`steady_state_with_failed_cracs`).
    CracFailure {
        /// CRAC unit index.
        unit: usize,
    },
    /// A previously failed CRAC unit comes back at its current set-point.
    CracRecovery {
        /// CRAC unit index.
        unit: usize,
    },
    /// A compute node dies: its cores stop, in-flight tasks are lost, and
    /// it draws no power (and produces no heat) from then on.
    NodeDeath {
        /// Node index.
        node: usize,
    },
    /// Inlet sensors drift by a common bias: the floor *observes*
    /// node inlets shifted by `bias_c` °C (positive reads hot — phantom
    /// violations; negative reads cold — masked violations). The physics
    /// — and the thermal-trip rule — use the true temperatures.
    SensorDrift {
        /// Observed-minus-true inlet bias, °C.
        bias_c: f64,
    },
    /// The arrival rate of every task type is multiplied by `factor` from
    /// this point on (a demand surge for `factor > 1`; a lull below).
    ArrivalSurge {
        /// Rate multiplier, ≥ 0.
        factor: f64,
    },
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Injection time, seconds from the start of the run.
    pub at_s: f64,
    /// What happens.
    pub fault: Fault,
}

/// A time-ordered script of faults. Build one with the chained
/// constructors, or [`FaultScript::random`] for randomized robustness
/// testing.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script (a nominal run).
    pub fn new() -> FaultScript {
        FaultScript::default()
    }

    /// Schedule an arbitrary fault.
    pub fn push(&mut self, at_s: f64, fault: Fault) {
        let at_s = if at_s.is_finite() { at_s.max(0.0) } else { 0.0 };
        let idx = self
            .events
            .partition_point(|e| e.at_s <= at_s);
        self.events.insert(idx, FaultEvent { at_s, fault });
    }

    /// Schedule a CRAC coil failure.
    pub fn crac_failure(mut self, at_s: f64, unit: usize) -> FaultScript {
        self.push(at_s, Fault::CracFailure { unit });
        self
    }

    /// Schedule a CRAC recovery.
    pub fn crac_recovery(mut self, at_s: f64, unit: usize) -> FaultScript {
        self.push(at_s, Fault::CracRecovery { unit });
        self
    }

    /// Schedule a node death.
    pub fn node_death(mut self, at_s: f64, node: usize) -> FaultScript {
        self.push(at_s, Fault::NodeDeath { node });
        self
    }

    /// Schedule an inlet-sensor drift.
    pub fn sensor_drift(mut self, at_s: f64, bias_c: f64) -> FaultScript {
        self.push(at_s, Fault::SensorDrift { bias_c });
        self
    }

    /// Schedule an arrival-rate surge.
    pub fn arrival_surge(mut self, at_s: f64, factor: f64) -> FaultScript {
        self.push(at_s, Fault::ArrivalSurge { factor });
        self
    }

    /// The scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A random script of `n_events` faults over `[0, horizon_s)` on a
    /// floor with `n_crac` CRAC units and `n_nodes` nodes. Every fault
    /// kind is drawn with equal probability; indices are always in range.
    pub fn random<R: Rng>(
        rng: &mut R,
        n_events: usize,
        horizon_s: f64,
        n_crac: usize,
        n_nodes: usize,
    ) -> FaultScript {
        let mut script = FaultScript::new();
        for _ in 0..n_events {
            let at_s = rng.gen_range(0.0..horizon_s.max(f64::MIN_POSITIVE));
            let fault = match rng.gen_range(0..5u32) {
                0 => Fault::CracFailure {
                    unit: rng.gen_range(0..n_crac.max(1)),
                },
                1 => Fault::CracRecovery {
                    unit: rng.gen_range(0..n_crac.max(1)),
                },
                2 => Fault::NodeDeath {
                    node: rng.gen_range(0..n_nodes.max(1)),
                },
                3 => Fault::SensorDrift {
                    bias_c: rng.gen_range(-5.0..5.0),
                },
                _ => Fault::ArrivalSurge {
                    factor: rng.gen_range(0.2..3.0),
                },
            };
            script.push(at_s, fault);
        }
        script
    }
}

// By hand: a script read from disk is rebuilt through
// [`FaultScript::push`], restoring the sort order and timestamp clamping
// no matter what the file contained.
impl Deserialize for FaultScript {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        let mut events = None;
        src.object(|src, key| match key {
            "events" => src.first(&mut events, Vec::<FaultEvent>::deserialize),
            _ => src.skip(),
        })?;
        let events = events.ok_or_else(|| serde::Error::missing_field("events"))?;
        let mut script = FaultScript::new();
        for e in events {
            script.push(e.at_s, e.fault);
        }
        Ok(script)
    }
}

/// Epoch `epoch`'s Poisson arrivals over `[t0, t1)` at `dc`'s rates
/// times `surge`, in time order. The generator is re-seeded per epoch
/// from `seed` (a golden-ratio increment decorrelates consecutive
/// epochs), so a run resumed at any boundary draws exactly the arrivals
/// an uninterrupted one would, without persisting RNG internals.
/// Exponential interarrivals are memoryless: restarting each type's
/// clock at the boundary is statistically one continuous process.
pub fn epoch_arrivals(seed: u64, epoch: usize, dc: &DataCenter, surge: f64, t0: f64, t1: f64) -> Vec<TaskArrival> {
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_add(((epoch as u64) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let mut arrivals = Vec::new();
    for t in &dc.workload.task_types {
        let rate = t.arrival_rate * surge;
        if rate <= 0.0 {
            continue;
        }
        let mut clock = t0;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            clock += -u.ln() / rate;
            if clock >= t1 {
                break;
            }
            arrivals.push(TaskArrival { time: clock, task_type: t.index, deadline: clock + t.deadline_slack });
        }
    }
    arrivals.sort_by(|a, b| a.time.total_cmp(&b.time));
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scripts_stay_time_ordered() {
        let s = FaultScript::new()
            .node_death(5.0, 1)
            .crac_failure(1.0, 0)
            .arrival_surge(3.0, 2.0);
        let times: Vec<f64> = s.events().iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn degenerate_times_are_clamped() {
        let mut s = FaultScript::new();
        s.push(f64::NAN, Fault::SensorDrift { bias_c: 1.0 });
        s.push(-4.0, Fault::ArrivalSurge { factor: 2.0 });
        assert!(s.events().iter().all(|e| e.at_s == 0.0)); // lint: allow(float-eq): degenerate times are clamped to the literal 0.0, never computed
    }

    #[test]
    fn random_scripts_are_in_range_and_sorted() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let s = FaultScript::random(&mut rng, 8, 20.0, 2, 5);
            assert_eq!(s.events().len(), 8);
            for w in s.events().windows(2) {
                assert!(w[0].at_s <= w[1].at_s);
            }
            for e in s.events() {
                match e.fault {
                    Fault::CracFailure { unit } | Fault::CracRecovery { unit } => {
                        assert!(unit < 2)
                    }
                    Fault::NodeDeath { node } => assert!(node < 5),
                    _ => {}
                }
            }
        }
    }
}
