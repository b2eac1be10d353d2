//! Dispatch rules: the paper's `ATC/TC` rule (Section V.C) plus two
//! plan-oblivious comparison policies used by the `ablation_dispatch`
//! experiment.

use serde::{Deserialize, Serialize, Sink, Value};
use thermaware_core::stage3::Stage3Solution;
use thermaware_datacenter::DataCenter;

/// How arriving tasks are mapped to cores.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DispatchPolicy {
    /// The paper's rule: minimum `ATC/TC` ratio among cores the plan gave
    /// a desired rate, skipping cores already at/over their rate.
    #[default]
    AtcTc,
    /// Plan-oblivious: the deadline-feasible core that finishes the task
    /// earliest (classic EDF-ish greedy). Ignores the Stage-3 rates.
    EarliestFinish,
    /// Plan-oblivious: the deadline-feasible core with the shortest
    /// backlog (classic load balancing).
    LeastLoaded,
    /// The ATC/TC rule with an exponentially-decayed **windowed** rate
    /// estimate instead of the paper's cumulative `count/now`. The
    /// cumulative estimate never forgets: an early burst starves a core
    /// for the rest of time, and after a workload shift the ratio keeps
    /// averaging over the stale epoch. The window tracks the *recent*
    /// rate with time constant `tau` (seconds).
    AtcTcWindowed {
        /// Decay time constant of the rate estimator, seconds.
        tau_s: f64,
    },
}

// By hand: two shapes in one type — the fieldless rules print as plain
// strings, the windowed rule as `{"kind": ..., "tau_s": ...}`.
impl Serialize for DispatchPolicy {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            DispatchPolicy::AtcTc => sink.string("atc_tc"),
            DispatchPolicy::EarliestFinish => sink.string("earliest_finish"),
            DispatchPolicy::LeastLoaded => sink.string("least_loaded"),
            DispatchPolicy::AtcTcWindowed { tau_s } => {
                sink.begin_object();
                sink.key("kind");
                sink.string("atc_tc_windowed");
                sink.key("tau_s");
                tau_s.serialize(sink);
                sink.end_object();
            }
        }
    }
}

impl Deserialize for DispatchPolicy {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        if let Some(s) = v.as_str() {
            return match s {
                "atc_tc" => Ok(DispatchPolicy::AtcTc),
                "earliest_finish" => Ok(DispatchPolicy::EarliestFinish),
                "least_loaded" => Ok(DispatchPolicy::LeastLoaded),
                other => Err(serde::Error::custom(format!(
                    "DispatchPolicy: unknown variant '{other}'"
                ))),
            };
        }
        let entries = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("DispatchPolicy: expected string or object"))?;
        let kind: String = serde::field(entries, "kind")?;
        match kind.as_str() {
            "atc_tc_windowed" => Ok(DispatchPolicy::AtcTcWindowed {
                tau_s: serde::field(entries, "tau_s")?,
            }),
            other => Err(serde::Error::custom(format!(
                "DispatchPolicy: unknown kind '{other}'"
            ))),
        }
    }
}

/// Where one task went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchDecision {
    /// Assigned to a core; payload is `(core, start_time, finish_time)`.
    Assigned {
        /// Global core index.
        core: usize,
        /// When execution starts (after the core's backlog).
        start: f64,
        /// When execution finishes (deterministic `1/ECS` service).
        finish: f64,
    },
    /// Dropped: no eligible core could finish it by its deadline.
    Dropped,
}

/// Mutable dispatch state: per-core backlog and per-(type, core) counts.
///
/// This struct is its own checkpoint form — the persist layers write it
/// as it stands, fields in declaration order — so state read back from
/// disk is checked against the room with [`DynamicScheduler::fits`]
/// before anything indexes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicScheduler {
    /// The active policy.
    policy: DispatchPolicy,
    /// Desired rates (per core) from Stage 3.
    tc: Vec<Vec<f64>>,
    /// Cores with a nonzero desired rate, per task type — the only cores
    /// the AtcTc rule ever considers.
    candidates: Vec<Vec<usize>>,
    /// Cores that can run each type at all (finite service time) — the
    /// candidate set of the plan-oblivious policies.
    runnable: Vec<Vec<usize>>,
    /// Tasks of each type assigned to each core: `count[i][core]`.
    count: Vec<Vec<u64>>,
    /// Exponentially-decayed rate estimate per (type, core) and its last
    /// update instant — only maintained under `AtcTcWindowed`.
    ewma_rate: Vec<Vec<(f64, f64)>>,
    /// Time each core becomes free.
    busy_until: Vec<f64>,
    /// Service time of each task type on each core (`1/ECS` at the
    /// assigned P-state); `INFINITY` where the type cannot run.
    #[serde(with = "cannot_run_as_null")]
    service: Vec<Vec<f64>>,
    /// Accumulated busy time per core (for utilization reporting).
    busy_time: Vec<f64>,
    /// Liveness mask: dead cores (failed nodes) are never dispatched to.
    alive: Vec<bool>,
    /// When the current plan took effect — the ATC/TC rate clock starts
    /// here, so a mid-flight replan is judged against *its own* desired
    /// rates rather than an average over the superseded plan.
    plan_start: f64,
}

impl DynamicScheduler {
    /// Set up dispatch state from the first step's outputs, using the
    /// paper's `AtcTc` policy.
    pub fn new(dc: &DataCenter, pstates: &[usize], stage3: &Stage3Solution) -> Self {
        Self::with_policy(dc, pstates, stage3, DispatchPolicy::AtcTc)
    }

    /// Set up dispatch state with an explicit policy.
    pub fn with_policy(
        dc: &DataCenter,
        pstates: &[usize],
        stage3: &Stage3Solution,
        policy: DispatchPolicy,
    ) -> Self {
        let t = dc.n_task_types();
        let n = dc.n_cores();
        let (tc, candidates, runnable, service) = plan_tables(dc, pstates, stage3);
        DynamicScheduler {
            policy,
            tc,
            candidates,
            runnable,
            count: vec![vec![0; n]; t],
            ewma_rate: vec![vec![(0.0, 0.0); n]; t],
            busy_until: vec![0.0; n],
            service,
            busy_time: vec![0.0; n],
            alive: vec![true; n],
            plan_start: 0.0,
        }
    }

    /// Replace the plan mid-flight (a supervisor replan): new P-states
    /// and Stage-3 rates at time `now`. Backlogs (`busy_until`, busy
    /// time) survive — in-flight work is unaffected — but the per-(type,
    /// core) rate clocks restart so admission tracks the new plan.
    pub fn apply_plan(
        &mut self,
        dc: &DataCenter,
        pstates: &[usize],
        stage3: &Stage3Solution,
        now: f64,
    ) {
        let t = dc.n_task_types();
        let n = dc.n_cores();
        let (tc, candidates, runnable, service) = plan_tables(dc, pstates, stage3);
        self.tc = tc;
        self.candidates = candidates;
        self.runnable = runnable;
        self.service = service;
        self.count = vec![vec![0; n]; t];
        self.ewma_rate = vec![vec![(0.0, now); n]; t];
        self.plan_start = now;
    }

    /// Mark cores as dead: they are never dispatched to again. In-flight
    /// accounting (tasks lost with the node) is the caller's job — see
    /// `crate::sim::EpochSim::kill_cores`.
    pub fn kill_cores(&mut self, cores: &[usize]) {
        for &k in cores {
            self.alive[k] = false;
        }
    }

    /// Mean outstanding backlog across live cores at `now`, seconds —
    /// how far a freshly admitted task would typically wait behind
    /// queued work. The service daemon turns this into its
    /// reject-with-retry-after hint under overload.
    pub fn backlog_s(&self, now: f64) -> f64 {
        let mut sum = 0.0;
        let mut alive = 0usize;
        for (k, &up) in self.busy_until.iter().enumerate() {
            if self.alive[k] {
                sum += (up - now).max(0.0);
                alive += 1;
            }
        }
        if alive == 0 {
            0.0
        } else {
            sum / alive as f64
        }
    }

    /// Dispatch one task of type `task_type` arriving at `now` with the
    /// given absolute `deadline`.
    pub fn dispatch(&mut self, task_type: usize, now: f64, deadline: f64) -> DispatchDecision {
        match self.pick(task_type, now, deadline) {
            None => DispatchDecision::Dropped,
            Some(k) => self.commit(task_type, now, k, self.service[task_type][k]),
        }
    }

    /// Dispatch applying a multiplicative factor to the chosen core's
    /// service estimate — the stochastic-simulation entry point (the
    /// factor is the realized-over-estimated service ratio). The
    /// scheduler admits on the estimate (it cannot see the future), but
    /// the core is busy for the realized duration — so under service-time
    /// noise an admitted task can finish late, exactly like a real floor.
    pub fn dispatch_with_realized_factor(
        &mut self,
        task_type: usize,
        now: f64,
        deadline: f64,
        factor: f64,
    ) -> DispatchDecision {
        match self.pick(task_type, now, deadline) {
            None => DispatchDecision::Dropped,
            Some(k) => self.commit(task_type, now, k, self.service[task_type][k] * factor),
        }
    }

    /// The core the active policy gives this task, judged on the service
    /// estimate alone.
    fn pick(&self, task_type: usize, now: f64, deadline: f64) -> Option<usize> {
        match self.policy {
            DispatchPolicy::AtcTc => self.pick_atc_tc(task_type, now, deadline),
            DispatchPolicy::AtcTcWindowed { tau_s } => {
                self.pick_atc_tc_windowed(task_type, now, deadline, tau_s)
            }
            DispatchPolicy::EarliestFinish => {
                self.pick_by_key(task_type, now, deadline, |_busy, finish| finish)
            }
            DispatchPolicy::LeastLoaded => {
                self.pick_by_key(task_type, now, deadline, |busy, _finish| busy)
            }
        }
    }

    /// Record an assignment of one `task_type` task to core `k` with the
    /// given service duration.
    fn commit(&mut self, task_type: usize, now: f64, k: usize, service: f64) -> DispatchDecision {
        let start = self.busy_until[k].max(now);
        let finish = start + service;
        self.busy_until[k] = finish;
        self.busy_time[k] += service;
        self.count[task_type][k] += 1;
        if let DispatchPolicy::AtcTcWindowed { tau_s } = self.policy {
            // Decay the estimate to `now`, then add this assignment's
            // impulse (1 task smeared over tau).
            let (rate, last) = self.ewma_rate[task_type][k];
            let decayed = rate * (-(now - last) / tau_s).exp();
            self.ewma_rate[task_type][k] = (decayed + 1.0 / tau_s, now);
        }
        DispatchDecision::Assigned {
            core: k,
            start,
            finish,
        }
    }

    /// The paper's rule: minimum `ATC/TC` ratio, skipping cores at or
    /// over their desired rate or unable to meet the deadline.
    fn pick_atc_tc(&self, task_type: usize, now: f64, deadline: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let elapsed = now - self.plan_start;
        for &k in &self.candidates[task_type] {
            if !self.alive[k] {
                continue;
            }
            // Rule (b): actual-to-desired ratio must not exceed 1. The
            // actual rate is the assignment count over time on this plan.
            let ratio = if elapsed > 0.0 {
                self.count[task_type][k] as f64 / (elapsed * self.tc[task_type][k])
            } else if self.count[task_type][k] == 0 {
                0.0
            } else {
                f64::INFINITY
            };
            if ratio > 1.0 {
                continue;
            }
            // Rule (c): finish by the deadline through the backlog.
            let start = self.busy_until[k].max(now);
            let finish = start + self.service[task_type][k];
            if finish > deadline {
                continue;
            }
            if best.is_none_or(|(_, r)| ratio < r) {
                best = Some((k, ratio));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Windowed ATC/TC: same admission rules as the paper's, with the
    /// exponentially-decayed recent rate in place of the cumulative one.
    fn pick_atc_tc_windowed(
        &self,
        task_type: usize,
        now: f64,
        deadline: f64,
        tau_s: f64,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for &k in &self.candidates[task_type] {
            if !self.alive[k] {
                continue;
            }
            let (rate, last) = self.ewma_rate[task_type][k];
            let atc = rate * (-(now - last) / tau_s).exp();
            let ratio = atc / self.tc[task_type][k];
            if ratio > 1.0 {
                continue;
            }
            let start = self.busy_until[k].max(now);
            let finish = start + self.service[task_type][k];
            if finish > deadline {
                continue;
            }
            if best.is_none_or(|(_, r)| ratio < r) {
                best = Some((k, ratio));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Plan-oblivious policies: smallest key among deadline-feasible
    /// runnable cores; `key(busy_until, finish)` selects the criterion.
    fn pick_by_key(
        &self,
        task_type: usize,
        now: f64,
        deadline: f64,
        key: impl Fn(f64, f64) -> f64,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for &k in &self.runnable[task_type] {
            if !self.alive[k] {
                continue;
            }
            let start = self.busy_until[k].max(now);
            let finish = start + self.service[task_type][k];
            if finish > deadline {
                continue;
            }
            let score = key(self.busy_until[k], finish);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((k, score));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Actual execution rate `ATC(i, k)` observed under the current plan.
    pub fn atc(&self, task_type: usize, core: usize, now: f64) -> f64 {
        let elapsed = now - self.plan_start;
        if elapsed > 0.0 {
            self.count[task_type][core] as f64 / elapsed
        } else {
            0.0
        }
    }

    /// Desired rate `TC(i, k)`.
    pub fn tc(&self, task_type: usize, core: usize) -> f64 {
        self.tc[task_type][core]
    }

    /// Mean utilization of the cores able to run anything, over
    /// `[0, horizon]`.
    pub fn mean_active_utilization(&self, horizon: f64) -> f64 {
        // "Active" = can run anything at all (active P-state), so the
        // metric is comparable across policies including plan-oblivious
        // ones that ignore the Stage-3 rates.
        let active: Vec<usize> = (0..self.busy_until.len())
            .filter(|&k| (0..self.service.len()).any(|i| self.service[i][k].is_finite()))
            .collect();
        if active.is_empty() || horizon <= 0.0 {
            return 0.0;
        }
        // Work admitted near the horizon runs past it; clamp each core's
        // busy time to the horizon so utilization stays in [0, 1].
        active
            .iter()
            .map(|&k| self.busy_time[k].min(horizon))
            .sum::<f64>()
            / (active.len() as f64 * horizon)
    }

    /// Do these tables fit a room with `dc`'s task types and cores? The
    /// check for state read from disk, made once where it enters: every
    /// index the dispatch paths use is in range afterwards.
    pub(crate) fn fits(&self, dc: &DataCenter) -> Result<(), String> {
        let (t, n) = (dc.n_task_types(), dc.n_cores());
        fn table<T>(rows: &[Vec<T>], t: usize, n: usize) -> bool {
            rows.len() == t && rows.iter().all(|row| row.len() == n)
        }
        fn core_sets(sets: &[Vec<usize>], t: usize, n: usize) -> bool {
            sets.len() == t && sets.iter().flatten().all(|&k| k < n)
        }
        let checks = [
            ("tc", table(&self.tc, t, n)),
            ("candidates", core_sets(&self.candidates, t, n)),
            ("runnable", core_sets(&self.runnable, t, n)),
            ("count", table(&self.count, t, n)),
            ("ewma_rate", table(&self.ewma_rate, t, n)),
            ("busy_until", self.busy_until.len() == n),
            ("service", table(&self.service, t, n)),
            ("busy_time", self.busy_time.len() == n),
            ("alive", self.alive.len() == n),
        ];
        match checks.iter().find(|(_, fits)| !fits) {
            Some((name, _)) => Err(format!(
                "scheduler `{name}` does not fit {t} task types on {n} cores"
            )),
            None => Ok(()),
        }
    }
}

/// `service` on disk: JSON has no `INFINITY`, so "cannot run" is `null`
/// there and every finite time a plain number.
mod cannot_run_as_null {
    use serde::{Deserialize, Error, Sink, Value};

    pub fn serialize<S: Sink>(table: &[Vec<f64>], sink: &mut S) {
        sink.begin_array();
        for row in table {
            sink.begin_array();
            for &s in row {
                if s.is_finite() {
                    sink.number(s);
                } else {
                    sink.null();
                }
            }
            sink.end_array();
        }
        sink.end_array();
    }

    pub fn from_value(v: &Value) -> Result<Vec<Vec<f64>>, Error> {
        let rows = v.as_array().ok_or_else(|| Error::custom("expected array"))?;
        let mut table = Vec::with_capacity(rows.len());
        for row in rows {
            let row = row.as_array().ok_or_else(|| Error::custom("expected array"))?;
            // Sized up front: this table is a quarter of a live state.
            let mut times = Vec::with_capacity(row.len());
            for s in row {
                times.push(match s {
                    Value::Null => f64::INFINITY,
                    s => f64::from_value(s)?,
                });
            }
            table.push(times);
        }
        Ok(table)
    }
}

/// The per-plan lookup tables: desired rates, candidate/runnable sets,
/// and service times (shared by construction and mid-flight replans).
#[allow(clippy::type_complexity)]
fn plan_tables(
    dc: &DataCenter,
    pstates: &[usize],
    stage3: &Stage3Solution,
) -> (Vec<Vec<f64>>, Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<Vec<f64>>) {
    let t = dc.n_task_types();
    let n = dc.n_cores();
    let mut tc = vec![vec![0.0; n]; t];
    let mut candidates = vec![Vec::new(); t];
    let mut runnable = vec![Vec::new(); t];
    let mut service = vec![vec![f64::INFINITY; n]; t];
    for i in 0..t {
        for k in 0..n {
            let rate = stage3.tc(i, k);
            let etc = dc.workload.ecs.etc(i, dc.core_type(k), pstates[k]);
            service[i][k] = etc;
            if etc.is_finite() {
                runnable[i].push(k);
            }
            if rate > 0.0 && etc.is_finite() {
                tc[i][k] = rate;
                candidates[i].push(k);
            }
        }
    }
    (tc, candidates, runnable, service)
}
