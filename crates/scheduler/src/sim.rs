//! Event-driven simulation of the second step over an arrival trace.

use crate::dispatch::{DispatchDecision, DispatchPolicy, DynamicScheduler};
use crate::encoded::EncodedVec;
use rand::Rng;
use serde::{Deserialize, Serialize};
use thermaware_core::stage3::Stage3Solution;
use thermaware_datacenter::DataCenter;
use thermaware_workload::ArrivalTrace;

/// Per-task-type outcome counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TypeStats {
    /// Tasks that arrived.
    pub arrived: usize,
    /// Tasks completed by their deadline (reward earned).
    pub completed: usize,
    /// Tasks dropped at dispatch.
    pub dropped: usize,
    /// Tasks admitted but finished **after** their deadline (possible
    /// only under service-time noise; they earn nothing).
    pub late: usize,
    /// Tasks in flight on a core when its node died (runtime fault
    /// injection); they earn nothing.
    pub lost: usize,
    /// Reward collected.
    pub reward: f64,
}

/// Outcome of simulating one trace.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Total reward collected over the horizon.
    pub reward_collected: f64,
    /// Reward per second — directly comparable to the first step's
    /// steady-state reward rate (Eq. 7's objective).
    pub reward_rate: f64,
    /// Horizon simulated, seconds.
    pub horizon_s: f64,
    /// Per-type breakdown.
    pub per_type: Vec<TypeStats>,
    /// Mean utilization of cores with nonzero desired rates.
    pub mean_utilization: f64,
    /// Queueing-latency statistics of admitted tasks (waiting time =
    /// start − arrival).
    pub wait: LatencyStats,
    /// Sojourn-time statistics of admitted tasks (finish − arrival).
    pub response: LatencyStats,
}

/// Latency summary over admitted tasks, seconds.
///
/// `p95` and `max` are the values a sort of the samples reads, bit for
/// bit. `mean` is their sum in admission order over their count, so it
/// can differ in the last places from a sum taken in sorted order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Mean.
    pub mean: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyStats {
    /// The summary of `samples`, given in admission order and left in
    /// any order: the mean summed as given, the nearest-rank p95 by
    /// selection and the maximum by one pass, both in `total_cmp`'s
    /// order, so no sort is needed.
    fn summarize(samples: &mut [f64]) -> LatencyStats {
        let Some(&first) = samples.first() else {
            return LatencyStats::default();
        };
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let max = samples.iter().fold(first, |max, &s| if s.total_cmp(&max).is_gt() { s } else { max });
        let (_, &mut p95, _) = samples.select_nth_unstable_by(nearest_rank_95(n), f64::total_cmp);
        LatencyStats { mean, p95, max }
    }

    /// The summary as a sort reads it: what [`Self::summarize`] must
    /// give, the mean up to rounding.
    #[cfg(test)]
    fn from_samples(samples: &mut [f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        LatencyStats {
            mean: samples.iter().sum::<f64>() / n as f64,
            p95: samples[nearest_rank_95(n)],
            max: samples[n - 1],
        }
    }
}

/// The index of the nearest-rank 95th percentile among `n ≥ 1` sorted
/// samples.
fn nearest_rank_95(n: usize) -> usize {
    ((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1
}

impl SimulationResult {
    /// Fraction of arrivals dropped.
    pub fn drop_rate(&self) -> f64 {
        let arrived: usize = self.per_type.iter().map(|t| t.arrived).sum();
        let dropped: usize = self.per_type.iter().map(|t| t.dropped).sum();
        if arrived == 0 {
            0.0
        } else {
            dropped as f64 / arrived as f64
        }
    }
}

/// Run the dynamic scheduler over a trace.
///
/// Service times are deterministic (`1/ECS`), so any admitted task
/// finishes exactly when predicted and the admission check makes lateness
/// impossible; reward is therefore credited at admission time of the
/// *completion event* (which the event loop still replays, keeping the
/// machinery honest for extensions with stochastic service times).
pub fn simulate(
    dc: &DataCenter,
    pstates: &[usize],
    stage3: &Stage3Solution,
    trace: &ArrivalTrace,
) -> SimulationResult {
    simulate_with_policy(dc, pstates, stage3, trace, DispatchPolicy::AtcTc)
}

/// [`simulate`] with an explicit dispatch policy — used by the
/// `ablation_dispatch` experiment to compare the paper's rule against
/// plan-oblivious alternatives.
pub fn simulate_with_policy(
    dc: &DataCenter,
    pstates: &[usize],
    stage3: &Stage3Solution,
    trace: &ArrivalTrace,
    policy: DispatchPolicy,
) -> SimulationResult {
    simulate_inner::<rand::rngs::StdRng>(dc, pstates, stage3, trace, policy, None)
}

/// Simulation with **stochastic service times**: each task's realized
/// service is its `1/ECS` estimate times a lognormal factor with mean 1
/// and the given coefficient of variation. The admission check still
/// plans with the estimate, so bursts of slow tasks push backlogs out and
/// make admitted tasks miss deadlines — counted in
/// [`TypeStats::late`], earning nothing.
pub fn simulate_stochastic<R: Rng>(
    dc: &DataCenter,
    pstates: &[usize],
    stage3: &Stage3Solution,
    trace: &ArrivalTrace,
    policy: DispatchPolicy,
    service_cv: f64,
    rng: &mut R,
) -> SimulationResult {
    assert!(service_cv >= 0.0);
    simulate_inner(dc, pstates, stage3, trace, policy, Some((service_cv, rng)))
}

fn simulate_inner<R: Rng>(
    dc: &DataCenter,
    pstates: &[usize],
    stage3: &Stage3Solution,
    trace: &ArrivalTrace,
    policy: DispatchPolicy,
    mut noise: Option<(f64, &mut R)>,
) -> SimulationResult {
    // Lognormal parameters for a mean-1 factor with the requested CV:
    // sigma^2 = ln(1 + cv^2), mu = -sigma^2/2.
    let sigma = noise
        .as_ref()
        .map(|(cv, _)| (1.0 + cv * cv).ln().sqrt())
        .unwrap_or(0.0);
    let _span = thermaware_obs::span("sim");
    let mut sim = {
        let _span = thermaware_obs::span("sched.build");
        // Every arrival may be admitted: the in-flight list is sized once.
        EpochSim::sized(dc, pstates, stage3, policy, trace.arrivals.len())
    };

    for a in &trace.arrivals {
        // Realized service: estimate x lognormal factor (Box-Muller on the
        // sim's RNG; the scheduler never sees the realization at admission
        // time).
        let factor = noise.as_mut().map(|(_, rng)| {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            // The estimate is per-core, so the factor is drawn here and
            // dispatch applies it to whichever core wins.
            (sigma * z - 0.5 * sigma * sigma).exp()
        });
        let decision = sim.dispatch_with_factor(a.task_type, a.time, a.deadline, factor);
        debug_assert!(
            sigma > 0.0
                || !matches!(decision, DispatchDecision::Assigned { finish, .. }
                    if finish > a.deadline + 1e-9),
            "admitted task missed deadline without service noise"
        );
    }
    let _span = thermaware_obs::span("sched.summary");
    sim.finish(dc, trace.horizon_s)
}

/// One admitted task awaiting completion accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Admitted {
    /// Global core index it ran on.
    pub core: usize,
    /// Its task type.
    pub task_type: usize,
    /// Arrival instant, seconds.
    pub arrival: f64,
    /// Execution start (after the core's backlog).
    pub start: f64,
    /// Execution finish.
    pub finish: f64,
    /// Absolute deadline.
    pub deadline: f64,
    /// Its core's node died before it finished: no reward.
    pub lost: bool,
}

/// An **interruptible** simulation: the caller feeds arrivals in time
/// order and may pause between any two to mutate the scheduler — replace
/// the plan ([`EpochSim::replan`]), kill cores ([`EpochSim::kill_cores`])
/// — which is exactly what the service engine's epoch loop needs.
/// [`simulate`] is a single uninterrupted run of the same machinery.
///
/// The simulation is its own checkpoint form: the persist layers write
/// this struct as it stands and read it straight back. It holds no
/// reference to the room — the calls that need one take `&DataCenter` —
/// and state read from disk passes [`EpochSim::fits`] before it is stepped.
///
/// The in-flight list is an `EncodedVec`: each task keeps the text an
/// encode printed it as until `settle` drops it or `kill_cores` marks it
/// lost, so a commit prints only the tasks admitted since the last one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSim {
    scheduler: DynamicScheduler,
    per_type: Vec<TypeStats>,
    admitted: EncodedVec<Admitted>,
}

impl EpochSim {
    /// Start a simulation from the first step's outputs with the paper's
    /// `AtcTc` policy.
    pub fn new(dc: &DataCenter, pstates: &[usize], stage3: &Stage3Solution) -> Self {
        Self::with_policy(dc, pstates, stage3, DispatchPolicy::AtcTc)
    }

    /// Start a simulation with an explicit dispatch policy.
    pub fn with_policy(
        dc: &DataCenter,
        pstates: &[usize],
        stage3: &Stage3Solution,
        policy: DispatchPolicy,
    ) -> Self {
        Self::sized(dc, pstates, stage3, policy, 0)
    }

    /// [`EpochSim::with_policy`] with room for `in_flight` admitted tasks.
    fn sized(
        dc: &DataCenter,
        pstates: &[usize],
        stage3: &Stage3Solution,
        policy: DispatchPolicy,
        in_flight: usize,
    ) -> Self {
        EpochSim {
            scheduler: DynamicScheduler::with_policy(dc, pstates, stage3, policy),
            per_type: vec![TypeStats::default(); dc.n_task_types()],
            admitted: Vec::with_capacity(in_flight).into(),
        }
    }

    /// The live scheduler (e.g. to inspect ATC rates).
    pub fn scheduler(&self) -> &DynamicScheduler {
        &self.scheduler
    }

    /// Dispatch one arrival. Arrivals must be fed in non-decreasing time
    /// order.
    pub fn dispatch(&mut self, task_type: usize, now: f64, deadline: f64) -> DispatchDecision {
        self.dispatch_with_factor(task_type, now, deadline, None)
    }

    /// [`EpochSim::dispatch`] with an optional realized-over-estimated
    /// service factor (stochastic service times).
    pub fn dispatch_with_factor(
        &mut self,
        task_type: usize,
        now: f64,
        deadline: f64,
        factor: Option<f64>,
    ) -> DispatchDecision {
        self.per_type[task_type].arrived += 1;
        thermaware_obs::counter_add("sched.arrived", 1);
        let decision = match factor {
            None => self.scheduler.dispatch(task_type, now, deadline),
            Some(f) => self
                .scheduler
                .dispatch_with_realized_factor(task_type, now, deadline, f),
        };
        match decision {
            DispatchDecision::Dropped => {
                self.per_type[task_type].dropped += 1;
                thermaware_obs::counter_add("sched.dropped", 1);
            }
            DispatchDecision::Assigned { core, start, finish } => {
                if thermaware_obs::enabled() {
                    thermaware_obs::counter_add("sched.admitted", 1);
                    // Queue depth expressed in time: how long the task
                    // waits behind the winning core's backlog.
                    thermaware_obs::observe("sched.wait_s", start - now);
                }
                self.admitted.push(Admitted {
                    core,
                    task_type,
                    arrival: now,
                    start,
                    finish,
                    deadline,
                    lost: false,
                });
            }
        }
        decision
    }

    /// Replace the active plan at time `now` (see
    /// [`DynamicScheduler::apply_plan`]).
    pub fn replan(&mut self, dc: &DataCenter, pstates: &[usize], stage3: &Stage3Solution, now: f64) {
        thermaware_obs::counter_add("sched.replans", 1);
        self.scheduler.apply_plan(dc, pstates, stage3, now);
    }

    /// Kill cores at time `at`: they stop accepting work, and admitted
    /// tasks still running on them at `at` are lost (no reward).
    pub fn kill_cores(&mut self, cores: &[usize], at: f64) {
        thermaware_obs::counter_add("sched.cores_killed", cores.len() as u64);
        self.scheduler.kill_cores(cores);
        self.admitted.update(|a| {
            let dies = !a.lost && a.finish > at && cores.contains(&a.core);
            a.lost |= dies;
            dies
        });
    }

    /// Fold tasks that finished at or before `up_to_s` into the
    /// per-type counters and drop them from the in-flight list.
    ///
    /// A batch run never needs this — [`finish`](Self::finish) settles
    /// everything at the horizon — but a long-running daemon must not
    /// let `admitted` grow with total throughput (it is serialized into
    /// every checkpoint, so unbounded growth also makes snapshots
    /// quadratic). Settling uses exactly the accounting `finish`
    /// would apply, so `settle` + `finish` equals plain `finish` for
    /// any cut point; a settled task can no longer be marked lost
    /// (`kill_cores` at `t > up_to_s` only loses tasks finishing after
    /// `t`). Wait/response percentiles in the final summary cover only
    /// unsettled tasks — a daemon measures admission latency at the
    /// protocol layer instead. Returns how many tasks were settled.
    pub fn settle(&mut self, dc: &DataCenter, up_to_s: f64) -> usize {
        let before = self.admitted.len();
        let per_type = &mut self.per_type;
        let task_types = &dc.workload.task_types;
        self.admitted.retain(|a| {
            if a.finish > up_to_s {
                return true;
            }
            if a.lost {
                per_type[a.task_type].lost += 1;
            } else if a.finish > a.deadline + 1e-9 {
                per_type[a.task_type].late += 1;
            } else {
                per_type[a.task_type].completed += 1;
                per_type[a.task_type].reward += task_types[a.task_type].reward;
            }
            false
        });
        before - self.admitted.len()
    }

    /// Tasks admitted but not yet settled or summarized.
    pub fn in_flight(&self) -> usize {
        self.admitted.len()
    }

    /// Per-type outcome counters accumulated so far (settled tasks
    /// included; in-flight tasks not yet counted).
    pub fn per_type(&self) -> &[TypeStats] {
        &self.per_type
    }

    /// Does this state fit `dc`? The check for a simulation read from
    /// disk, made once where it enters (the service engine's
    /// `from_state`): scheduler tables sized for `dc`'s
    /// task types and cores, one counter per type, every in-flight task on
    /// a core and of a type that exist.
    pub fn fits(&self, dc: &DataCenter) -> Result<(), String> {
        self.scheduler.fits(dc)?;
        if self.per_type.len() != dc.n_task_types() {
            return Err("per-type stats do not match the workload".to_string());
        }
        if self
            .admitted
            .iter()
            .any(|a| a.core >= dc.n_cores() || a.task_type >= dc.n_task_types())
        {
            return Err("an in-flight task names a core or task type out of range".to_string());
        }
        Ok(())
    }

    /// Close the books over `[0, horizon_s]` and summarize: the waits,
    /// then the responses, of tasks not lost, in one buffer.
    pub fn finish(self, dc: &DataCenter, horizon_s: f64) -> SimulationResult {
        let mut per_type = self.per_type;
        let mut samples: Vec<f64> = Vec::with_capacity(self.admitted.len());
        for a in self.admitted.iter() {
            if a.lost {
                per_type[a.task_type].lost += 1;
                continue;
            }
            samples.push(a.start - a.arrival);
            if a.finish > a.deadline + 1e-9 {
                // Late: the admission estimate was optimistic. No reward.
                per_type[a.task_type].late += 1;
                continue;
            }
            // Only completions inside the horizon have "happened"; tasks
            // still in flight at the horizon do not earn yet (matches how
            // the steady-state rate is defined).
            if a.finish <= horizon_s {
                per_type[a.task_type].completed += 1;
                per_type[a.task_type].reward += dc.workload.task_types[a.task_type].reward;
            }
        }
        let wait = LatencyStats::summarize(&mut samples);
        samples.clear();
        samples.extend(self.admitted.iter().filter(|a| !a.lost).map(|a| a.finish - a.arrival));
        let response = LatencyStats::summarize(&mut samples);

        let reward_collected: f64 = per_type.iter().map(|t| t.reward).sum();
        if thermaware_obs::enabled() {
            let late: usize = per_type.iter().map(|t| t.late).sum();
            let lost: usize = per_type.iter().map(|t| t.lost).sum();
            thermaware_obs::counter_add("sched.deadline_misses", late as u64);
            thermaware_obs::counter_add("sched.lost", lost as u64);
            thermaware_obs::gauge_set("sched.reward_rate", reward_collected / horizon_s);
        }
        SimulationResult {
            reward_collected,
            reward_rate: reward_collected / horizon_s,
            horizon_s,
            per_type,
            mean_utilization: self.scheduler.mean_active_utilization(horizon_s),
            wait,
            response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thermaware_core::Solver;
    use thermaware_datacenter::{CracSearchOptions, ScenarioParams};

    fn setup(seed: u64) -> (DataCenter, Vec<usize>, Stage3Solution) {
        let dc = ScenarioParams::small_test().build(seed).unwrap();
        let sol = Solver::new(&dc).solve().unwrap();
        (dc, sol.pstates, sol.stage3)
    }

    #[test]
    fn achieved_rate_tracks_steady_state_prediction() {
        let (dc, pstates, s3) = setup(1);
        let mut rng = StdRng::seed_from_u64(99);
        let trace = ArrivalTrace::generate(&dc.workload, 20.0, &mut rng);
        let result = simulate(&dc, &pstates, &s3, &trace);
        // The dynamic scheduler caps ATC at TC, so it cannot beat the
        // steady-state rate by more than stochastic noise; and with
        // admission-checked FIFO it should capture most of it.
        assert!(
            result.reward_rate <= s3.reward_rate * 1.10,
            "sim {} vs predicted {}",
            result.reward_rate,
            s3.reward_rate
        );
        assert!(
            result.reward_rate >= s3.reward_rate * 0.5,
            "sim {} far below predicted {}",
            result.reward_rate,
            s3.reward_rate
        );
    }

    #[test]
    fn oversubscription_causes_drops() {
        let (dc, pstates, s3) = setup(2);
        let mut rng = StdRng::seed_from_u64(7);
        let trace = ArrivalTrace::generate(&dc.workload, 10.0, &mut rng);
        let result = simulate(&dc, &pstates, &s3, &trace);
        // Arrival rates were sized for all-P0 capacity; the power budget
        // pushed cores deeper, so some tasks must be refused.
        assert!(result.drop_rate() > 0.0, "no drops in an oversubscribed DC");
        assert!(result.drop_rate() < 1.0);
    }

    #[test]
    fn all_off_drops_everything() {
        let dc = ScenarioParams::small_test().build(3).unwrap();
        let off = dc.off_pstates();
        let s3 = thermaware_core::stage3::solve_stage3(&dc, &off).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trace = ArrivalTrace::generate(&dc.workload, 2.0, &mut rng);
        let result = simulate(&dc, &off, &s3, &trace);
        assert_eq!(result.reward_collected, 0.0);
        assert!((result.drop_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_sane() {
        let (dc, pstates, s3) = setup(4);
        let mut rng = StdRng::seed_from_u64(11);
        let trace = ArrivalTrace::generate(&dc.workload, 10.0, &mut rng);
        let result = simulate(&dc, &pstates, &s3, &trace);
        assert!(result.mean_utilization > 0.0);
        assert!(result.mean_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn per_type_counts_are_consistent() {
        let (dc, pstates, s3) = setup(5);
        let mut rng = StdRng::seed_from_u64(13);
        let trace = ArrivalTrace::generate(&dc.workload, 5.0, &mut rng);
        let result = simulate(&dc, &pstates, &s3, &trace);
        let arrived: usize = result.per_type.iter().map(|t| t.arrived).sum();
        assert_eq!(arrived, trace.arrivals.len());
        for t in &result.per_type {
            // completed + dropped <= arrived (in-flight tasks at the
            // horizon are neither).
            assert!(t.completed + t.dropped <= t.arrived);
        }
    }

    #[test]
    fn latency_stats_are_ordered_and_deadline_bounded() {
        let (dc, pstates, s3) = setup(7);
        let mut rng = StdRng::seed_from_u64(31);
        let trace = ArrivalTrace::generate(&dc.workload, 10.0, &mut rng);
        let r = simulate(&dc, &pstates, &s3, &trace);
        assert!(r.wait.mean >= 0.0);
        assert!(r.wait.mean <= r.wait.p95 + 1e-12);
        assert!(r.wait.p95 <= r.wait.max + 1e-12);
        // Response = wait + service > wait.
        assert!(r.response.mean > r.wait.mean);
        // Every admitted task met its deadline, so the response never
        // exceeds the largest slack in the workload.
        let max_slack = dc
            .workload
            .task_types
            .iter()
            .map(|t| t.deadline_slack)
            .fold(0.0_f64, f64::max);
        assert!(r.response.max <= max_slack + 1e-9);
    }

    #[test]
    fn epoch_sim_state_round_trips_mid_flight() {
        let (dc, pstates, s3) = setup(8);
        let mut rng = StdRng::seed_from_u64(17);
        let trace = ArrivalTrace::generate(&dc.workload, 6.0, &mut rng);
        let split = trace.arrivals.len() / 2;

        let mut sim = EpochSim::new(&dc, &pstates, &s3);
        for a in &trace.arrivals[..split] {
            sim.dispatch(a.task_type, a.time, a.deadline);
        }

        // Freeze, serialize through JSON, thaw: the simulation itself.
        let json = serde_json::to_string(&sim).expect("serialize");
        let mut resumed: EpochSim = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(resumed, sim);
        assert_eq!(resumed.fits(&dc), Ok(()));
        assert_eq!(serde_json::to_string(&resumed).expect("re-encode"), json);

        // Both halves must finish bit-identically.
        for a in &trace.arrivals[split..] {
            sim.dispatch(a.task_type, a.time, a.deadline);
            resumed.dispatch(a.task_type, a.time, a.deadline);
        }
        let a = sim.finish(&dc, trace.horizon_s);
        let b = resumed.finish(&dc, trace.horizon_s);
        assert_eq!(a.reward_collected, b.reward_collected);
        assert_eq!(a.per_type, b.per_type);
        assert_eq!(a.mean_utilization, b.mean_utilization);
    }

    #[test]
    fn settle_matches_unsettled_accounting() {
        let (dc, pstates, s3) = setup(9);
        let mut rng = StdRng::seed_from_u64(23);
        let trace = ArrivalTrace::generate(&dc.workload, 8.0, &mut rng);

        let mut plain = EpochSim::new(&dc, &pstates, &s3);
        let mut settled = EpochSim::new(&dc, &pstates, &s3);
        for a in &trace.arrivals {
            plain.dispatch(a.task_type, a.time, a.deadline);
            settled.dispatch(a.task_type, a.time, a.deadline);
            // Aggressively settle after every arrival — the daemon does
            // this per epoch; per arrival is the worst case.
            settled.settle(&dc, a.time);
        }
        assert!(
            settled.in_flight() < plain.in_flight(),
            "settling must shrink the in-flight list"
        );
        let a = plain.finish(&dc, trace.horizon_s);
        let b = settled.finish(&dc, trace.horizon_s);
        assert_eq!(a.reward_collected, b.reward_collected);
        assert_eq!(a.per_type, b.per_type);
        assert_eq!(a.mean_utilization, b.mean_utilization);
    }

    /// [`EpochSim::finish`] as it was first written: the accounting,
    /// each latency summary read off a sort, and the utilization over a
    /// collected list of active cores. What `finish` must give, the
    /// latency means up to rounding.
    fn finish_by_sort(sim: EpochSim, dc: &DataCenter, horizon_s: f64) -> SimulationResult {
        let mut per_type = sim.per_type;
        let mut waits: Vec<f64> = Vec::new();
        let mut responses: Vec<f64> = Vec::new();
        for a in sim.admitted.iter() {
            if a.lost {
                per_type[a.task_type].lost += 1;
                continue;
            }
            waits.push(a.start - a.arrival);
            responses.push(a.finish - a.arrival);
            if a.finish > a.deadline + 1e-9 {
                per_type[a.task_type].late += 1;
                continue;
            }
            if a.finish <= horizon_s {
                per_type[a.task_type].completed += 1;
                per_type[a.task_type].reward += dc.workload.task_types[a.task_type].reward;
            }
        }
        let reward_collected: f64 = per_type.iter().map(|t| t.reward).sum();
        SimulationResult {
            reward_collected,
            reward_rate: reward_collected / horizon_s,
            horizon_s,
            per_type,
            mean_utilization: sim.scheduler.mean_active_utilization_collected(horizon_s),
            wait: LatencyStats::from_samples(&mut waits),
            response: LatencyStats::from_samples(&mut responses),
        }
    }

    /// `p95` and `max` are the sort's bits, `mean` is within 1e-12 of it.
    fn assert_summary_is_the_sorts(selected: LatencyStats, sorted: LatencyStats) {
        assert_eq!(selected.p95.to_bits(), sorted.p95.to_bits(), "p95");
        assert_eq!(selected.max.to_bits(), sorted.max.to_bits(), "max");
        let gap = (selected.mean - sorted.mean).abs();
        assert!(gap <= 1e-12 * sorted.mean.abs(), "mean {} vs {}", selected.mean, sorted.mean);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The summary by selection is the summary a sort reads, at
        /// lengths on both sides of where `ceil(0.95·n)` steps, over
        /// samples with duplicates and runs of `+0.0`.
        #[test]
        fn the_summary_by_selection_is_the_sorts(
            n in prop::sample::select(vec![1usize, 2, 19, 20, 21, 40]),
            values in prop::collection::vec(
                prop_oneof![Just(0.0f64), Just(0.25), Just(1.5), 0.0f64..10.0],
                40,
            ),
        ) {
            let mut samples = values[..n].to_vec();
            let selected = LatencyStats::summarize(&mut samples.clone());
            let sorted = LatencyStats::from_samples(&mut samples);
            assert_summary_is_the_sorts(selected, sorted);
        }
    }

    /// `simulate` on the seed-1 and seed-2 Fig. 6 rooms (150 nodes, 3
    /// CRACs, planned over a coarse outlet grid) closes the books as an
    /// `EpochSim` run of the same stream finished through the sort does.
    #[test]
    fn simulate_summarizes_as_the_sort_does_on_fig6_rooms() {
        for seed in 1..=2 {
            let dc = ScenarioParams {
                n_nodes: 150,
                n_crac: 3,
                crac_flow_margin: 1.5,
                ..ScenarioParams::paper(0.2, 0.3)
            }
            .build(seed)
            .unwrap();
            let search = CracSearchOptions { coarse_step_c: 7.5, refine_radius: 0 };
            let plan = Solver::new(&dc).crac_grid(search).solve().unwrap();
            let trace = ArrivalTrace::generate(&dc.workload, 2.0, &mut StdRng::seed_from_u64(seed));
            let result = simulate(&dc, &plan.pstates, &plan.stage3, &trace);
            let mut sim = EpochSim::new(&dc, &plan.pstates, &plan.stage3);
            for a in &trace.arrivals {
                sim.dispatch(a.task_type, a.time, a.deadline);
            }
            let oracle = finish_by_sort(sim, &dc, trace.horizon_s);
            assert_eq!(result.per_type, oracle.per_type);
            assert_eq!(result.reward_collected.to_bits(), oracle.reward_collected.to_bits());
            assert_eq!(result.mean_utilization.to_bits(), oracle.mean_utilization.to_bits());
            assert_summary_is_the_sorts(result.wait, oracle.wait);
            assert_summary_is_the_sorts(result.response, oracle.response);
        }
    }

    #[test]
    fn deterministic_given_same_trace() {
        let (dc, pstates, s3) = setup(6);
        let mut rng = StdRng::seed_from_u64(21);
        let trace = ArrivalTrace::generate(&dc.workload, 5.0, &mut rng);
        let a = simulate(&dc, &pstates, &s3, &trace);
        let b = simulate(&dc, &pstates, &s3, &trace);
        assert_eq!(a.reward_collected, b.reward_collected);
        assert_eq!(a.per_type, b.per_type);
    }
}
