//! Poisson arrival traces for the second-step dynamic scheduler.
//!
//! The first-step assignment works with *rates*; the dynamic scheduler
//! (paper Section V.C) sees individual tasks "as they come into the data
//! center". This module materializes that stream: independent Poisson
//! processes per task type, merged into one time-ordered trace.

use crate::task::Workload;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One task arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskArrival {
    /// Arrival time in seconds from the start of the trace.
    pub time: f64,
    /// Task type index.
    pub task_type: usize,
    /// Absolute deadline (arrival + the type's slack), seconds.
    pub deadline: f64,
}

/// A time-ordered stream of task arrivals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// Arrivals sorted by time.
    pub arrivals: Vec<TaskArrival>,
    /// Horizon the trace covers, seconds.
    pub horizon_s: f64,
}

impl ArrivalTrace {
    /// Sample a trace of length `horizon_s` from the workload's arrival
    /// rates: per-type exponential interarrivals, merged and sorted.
    pub fn generate<R: Rng>(workload: &Workload, horizon_s: f64, rng: &mut R) -> ArrivalTrace {
        assert!(horizon_s > 0.0);
        let mut arrivals = Vec::new();
        for t in &workload.task_types {
            if t.arrival_rate <= 0.0 {
                continue;
            }
            let mut clock = 0.0;
            loop {
                // Exponential interarrival via inverse transform; guard the
                // log against a zero uniform draw.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                clock += -u.ln() / t.arrival_rate;
                if clock > horizon_s {
                    break;
                }
                arrivals.push(TaskArrival {
                    time: clock,
                    task_type: t.index,
                    deadline: clock + t.deadline_slack,
                });
            }
        }
        arrivals.sort_by(|a, b| a.time.total_cmp(&b.time));
        ArrivalTrace {
            arrivals,
            horizon_s,
        }
    }

    /// Number of arrivals of each task type.
    pub fn counts(&self, n_task_types: usize) -> Vec<usize> {
        let mut counts = vec![0; n_task_types];
        for a in &self.arrivals {
            counts[a.task_type] += 1;
        }
        counts
    }

    /// Empirical arrival rate of each task type over the horizon.
    #[cfg(test)]
    pub fn empirical_rates(&self, n_task_types: usize) -> Vec<f64> {
        self.counts(n_task_types)
            .into_iter()
            .map(|c| c as f64 / self.horizon_s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::WorkloadGenParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(seed: u64) -> Workload {
        let params = WorkloadGenParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        params.generate(
            &[
                vec![2500.0, 2100.0, 1700.0, 800.0],
                vec![2666.0, 2200.0, 1700.0, 1000.0],
            ],
            &[320, 320],
            &mut rng,
        )
    }

    #[test]
    fn trace_is_sorted_and_within_horizon() {
        let w = workload(1);
        let mut rng = StdRng::seed_from_u64(2);
        let trace = ArrivalTrace::generate(&w, 10.0, &mut rng);
        assert!(!trace.arrivals.is_empty());
        for pair in trace.arrivals.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for a in &trace.arrivals {
            assert!(a.time > 0.0 && a.time <= 10.0);
            let slack = w.task_types[a.task_type].deadline_slack;
            assert!((a.deadline - a.time - slack).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_rates_approach_nominal() {
        let w = workload(3);
        let mut rng = StdRng::seed_from_u64(4);
        // Long horizon: relative error of a Poisson count of mean λT is
        // ~1/sqrt(λT); the busiest types have λ in the thousands, so 30 s
        // gives <1.5% per-type noise for them; check the aggregate.
        let trace = ArrivalTrace::generate(&w, 30.0, &mut rng);
        let rates = trace.empirical_rates(8);
        let nominal: f64 = w.task_types.iter().map(|t| t.arrival_rate).sum();
        let empirical: f64 = rates.iter().sum();
        assert!(
            (empirical - nominal).abs() / nominal < 0.05,
            "empirical {empirical} vs nominal {nominal}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let w = workload(5);
        let a = ArrivalTrace::generate(&w, 5.0, &mut StdRng::seed_from_u64(9));
        let b = ArrivalTrace::generate(&w, 5.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rate_type_never_arrives() {
        let mut w = workload(6);
        w.task_types[0].arrival_rate = 0.0;
        let trace = ArrivalTrace::generate(&w, 5.0, &mut StdRng::seed_from_u64(1));
        assert_eq!(trace.counts(8)[0], 0);
    }
}
