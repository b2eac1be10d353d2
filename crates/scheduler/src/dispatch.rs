//! Dispatch rules: the paper's `ATC/TC` rule (Section V.C) plus two
//! plan-oblivious comparison policies used by the `ablation_dispatch`
//! experiment.
//!
//! The `ATC/TC` rule does not scan a task type's candidate cores. Stage 3
//! plans per (node type, P-state) group, so the candidates fall into a
//! few **classes** of cores with the same desired rate and the same
//! service time, bit for bit; inside a class the ratio grows with the
//! assignment count alone. Each class keeps its cores as one bitset per
//! distinct count, with a lower bound on the backlog of each 64-core
//! word ([`DispatchOrder`]); the rule takes the lowest count's lowest
//! feasible core, passing over whole words whose bound already misses
//! the deadline, then compares one ratio per class — the core the scan
//! over all candidates picks, on every arrival (DESIGN §11 "The
//! dispatch order"). The scan itself is kept as the oracle of debug
//! builds and tests.

use crate::encoded::{Encoded, EncodedBlocks};
use serde::{Deserialize, Kind, Serialize, Sink, Source};
use std::ops::Deref;
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
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        if src.peek()? != Kind::Object {
            return match &*src.str()? {
                "atc_tc" => Ok(DispatchPolicy::AtcTc),
                "earliest_finish" => Ok(DispatchPolicy::EarliestFinish),
                "least_loaded" => Ok(DispatchPolicy::LeastLoaded),
                other => Err(serde::Error::custom(format!(
                    "DispatchPolicy: unknown variant '{other}'"
                ))),
            };
        }
        let kind: String = src.find("kind")?.ok_or_else(|| serde::Error::missing_field("kind"))?;
        if kind != "atc_tc_windowed" {
            return Err(serde::Error::custom(format!("DispatchPolicy: unknown kind '{kind}'")));
        }
        let mut tau_s = None;
        src.object(|src, key| match key {
            "tau_s" => src.first(&mut tau_s, f64::deserialize),
            _ => src.skip(),
        })?;
        let tau_s = tau_s.ok_or_else(|| serde::Error::missing_field("tau_s"))?;
        Ok(DispatchPolicy::AtcTcWindowed { tau_s })
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
/// disk is checked against the room with `DynamicScheduler::fits`
/// before anything indexes it.
///
/// The five tables only a plan writes (`ewma_rate` also the windowed
/// rule's `commit`, and held as its shape until that first writes it:
/// `EwmaRates`) are `Encoded`: between replans they are most of the
/// state's bytes and none of what an epoch changes, so each keeps the
/// text it was last written as. The four per-core tables an epoch does
/// write (`count`, `busy_until`, `busy_time`, `alive`) are
/// `EncodedBlocks`: each keeps the text of every block of cores no
/// write has touched since the last encode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicScheduler {
    /// The active policy.
    policy: DispatchPolicy,
    /// Desired rates (per core) from Stage 3.
    tc: Encoded<Vec<Vec<f64>>>,
    /// Cores with a nonzero desired rate, per task type — the only cores
    /// the AtcTc rule ever considers.
    candidates: Encoded<Vec<Vec<usize>>>,
    /// Cores that can run each type at all (finite service time) — the
    /// candidate set of the plan-oblivious policies.
    runnable: Encoded<Vec<Vec<usize>>>,
    /// Tasks of each type assigned to each core: `count[i][core]`.
    count: Vec<EncodedBlocks<u64>>,
    /// Exponentially-decayed rate estimate per (type, core) and its last
    /// update instant — only maintained under `AtcTcWindowed`.
    ewma_rate: EwmaRates,
    /// Time each core becomes free.
    busy_until: EncodedBlocks<f64>,
    /// Service time of each task type on each core (`1/ECS` at the
    /// assigned P-state); `INFINITY` where the type cannot run.
    service: Encoded<ServiceTimes>,
    /// Accumulated busy time per core (for utilization reporting).
    busy_time: EncodedBlocks<f64>,
    /// Liveness mask: dead cores (failed nodes) are never dispatched to.
    alive: EncodedBlocks<bool>,
    /// When the current plan took effect — the ATC/TC rate clock starts
    /// here, so a mid-flight replan is judged against *its own* desired
    /// rates rather than an average over the superseded plan.
    plan_start: f64,
    /// The candidates of each type in the order the `AtcTc` rule walks
    /// them. Derived from `candidates`, `tc`, `service` and `count`, so
    /// never written: a scheduler read from disk rebuilds it at its first
    /// dispatch.
    #[serde(skip)]
    order: DispatchOrder,
}

/// Per task type, its candidate cores split into classes.
///
/// A function of fields that are written and compared, so it is neither:
/// `#[serde(skip)]` leaves it empty on a scheduler read from disk (it
/// holds one row per task type once built), and any two compare equal.
#[derive(Debug, Clone, Default)]
struct DispatchOrder {
    classes: Vec<Vec<Class>>,
}

impl PartialEq for DispatchOrder {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The candidates of one task type that share `tc` and `service` bit for
/// bit — in a planned room, the cores of one Stage-3 group.
///
/// The ratio is the same increasing function of `count` for every
/// member, so ascending `(count, core)` is ascending `(ratio, core)`, the
/// scan's preference: levels in ascending count, and in each level ranks
/// in ascending core.
#[derive(Debug, Clone)]
struct Class {
    tc: f64,
    service: f64,
    /// The members, ascending: a member's **rank** is its index here.
    members: Vec<usize>,
    /// One level per count some member has, ascending by count.
    levels: Vec<Level>,
    /// Emptied levels, taken by the next count that needs one, so that a
    /// commit does not allocate.
    spare: Vec<Level>,
}

/// The members of a class at one count, as a bitset over their ranks.
#[derive(Debug, Clone)]
struct Level {
    count: u64,
    /// Members at this count: the bits set.
    len: usize,
    /// Bit `r % 64` of word `r / 64` is set when the member of rank `r`
    /// has this count.
    bits: Vec<u64>,
    /// Per word, a lower bound on `busy_until` of its live members (a
    /// dead core is never free): `+∞` on an empty word, `−∞` where none
    /// is known yet. A backlog only grows — `commit` forgets every bound
    /// when one does not — so a bound stays true until its word is read.
    bound: Vec<f64>,
}

/// Rule (c) at one arrival for one class's service time.
struct Backlog<'a> {
    busy_until: &'a [f64],
    alive: &'a [bool],
    now: f64,
    service: f64,
    deadline: f64,
}

impl Backlog<'_> {
    /// A core busy until `busy` would finish late: the scan's own
    /// expression, non-decreasing in `busy`, so it holds for every core
    /// busy longer too.
    fn misses(&self, busy: f64) -> bool {
        busy.max(self.now) + self.service > self.deadline
    }
}

/// The lower of a bound and a backlog. A NaN backlog is the lowest:
/// `f64::max` takes it as `now`, the earliest any core can start.
fn lower(bound: f64, busy: f64) -> f64 {
    if busy < bound || busy.is_nan() {
        busy
    } else {
        bound
    }
}

impl Level {
    /// An empty level over `members` ranks.
    fn new(members: usize) -> Level {
        let words = members.div_ceil(64);
        Level {
            count: 0,
            len: 0,
            bits: vec![0; words],
            bound: vec![f64::INFINITY; words],
        }
    }

    /// Set rank `r`, whose core is busy until `busy`.
    fn insert(&mut self, r: usize, busy: f64) {
        let w = r / 64;
        self.bits[w] |= 1 << (r % 64);
        self.bound[w] = lower(self.bound[w], busy);
        self.len += 1;
    }

    /// Clear rank `r`, which is set.
    fn remove(&mut self, r: usize) {
        let w = r / 64;
        self.bits[w] &= !(1 << (r % 64));
        if self.bits[w] == 0 {
            self.bound[w] = f64::INFINITY;
        }
        self.len -= 1;
    }

    /// The lowest rank whose core is alive and makes the deadline. A
    /// word whose bound misses it is passed over unread; a word read to
    /// its end without a find gets its exact bound back. `visits` counts
    /// the words and bits examined.
    fn first_feasible(
        &mut self,
        members: &[usize],
        backlog: &Backlog,
        visits: &mut u64,
    ) -> Option<usize> {
        for (w, (&word, bound)) in self.bits.iter().zip(&mut self.bound).enumerate() {
            if word == 0 {
                continue;
            }
            *visits += 1;
            if backlog.misses(*bound) {
                continue;
            }
            let mut least = f64::INFINITY;
            let mut rest = word;
            while rest != 0 {
                let r = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                *visits += 1;
                let k = members[r];
                if backlog.alive[k] {
                    let busy = backlog.busy_until[k];
                    if !backlog.misses(busy) {
                        return Some(r);
                    }
                    least = lower(least, busy);
                }
            }
            *bound = least;
        }
        None
    }
}

impl Class {
    fn new(tc: f64, service: f64) -> Class {
        Class {
            tc,
            service,
            members: Vec::new(),
            levels: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn holds(&self, tc: f64, service: f64) -> bool {
        self.tc.to_bits() == tc.to_bits() && self.service.to_bits() == service.to_bits()
    }

    /// `elapsed * tc`, the scan's divisor, and the largest count the
    /// scan's rule (b) lets through at it. The scan skips a core when
    /// `count as f64 / (elapsed * tc)` rounds above 1.0, and a correctly
    /// rounded quotient of two doubles does that exactly when the
    /// numerator is the larger: a bound on the count, the divisor's floor
    /// (counts convert exactly below 2^53 — no plan allows a core more;
    /// a divisor of `+∞` lets every count through). Before any time has
    /// passed on the plan only an unused core is within its rate.
    fn rate_bound(&self, elapsed: f64) -> (f64, u64) {
        let divisor = if elapsed > 0.0 {
            elapsed * self.tc
        } else {
            0.0
        };
        (divisor, divisor as u64)
    }

    /// Put every member at the level of its count, no bound known yet.
    fn fill_levels(&mut self, count: &[u64]) {
        let mut counts: Vec<u64> = Vec::new();
        for &k in &self.members {
            if let Err(at) = counts.binary_search(&count[k]) {
                counts.insert(at, count[k]);
            }
        }
        let size = self.members.len();
        self.levels = counts
            .into_iter()
            .map(|count| Level {
                count,
                ..Level::new(size)
            })
            .collect();
        for (r, &k) in self.members.iter().enumerate() {
            let at = self.levels.partition_point(|l| l.count < count[k]);
            self.levels[at].insert(r, f64::NEG_INFINITY);
        }
    }

    /// The member of rank `r` went from count `from` to `from + 1`, its
    /// core now busy until `busy`: one bit cleared, one bit set.
    fn raise(&mut self, r: usize, from: u64, busy: f64) {
        let Ok(at) = self.levels.binary_search_by_key(&from, |l| l.count) else {
            return;
        };
        self.levels[at].remove(r);
        if self.levels[at].len == 0 {
            self.spare.push(self.levels.remove(at));
        }
        let to = from + 1;
        let at = self.levels.partition_point(|l| l.count < to);
        if self.levels.get(at).is_none_or(|l| l.count != to) {
            let size = self.members.len();
            let mut level = self.spare.pop().unwrap_or_else(|| Level::new(size));
            level.count = to;
            self.levels.insert(at, level);
        }
        self.levels[at].insert(r, busy);
    }

    /// The member within rate `within_rate` that the scan prefers in this
    /// class, as `(count, core)`: the lowest feasible core of the lowest
    /// count that has one — or, with `any_count`, the lowest feasible
    /// core of all, for when every count's ratio rounds alike.
    fn first_feasible(
        &mut self,
        within_rate: u64,
        any_count: bool,
        backlog: &Backlog,
        visits: &mut u64,
    ) -> Option<(u64, usize)> {
        let mut found: Option<(u64, usize)> = None;
        for level in self.levels.iter_mut().take_while(|l| l.count <= within_rate) {
            if let Some(r) = level.first_feasible(&self.members, backlog, visits) {
                let k = self.members[r];
                if found.is_none_or(|(_, f)| k < f) {
                    found = Some((level.count, k));
                }
                if !any_count {
                    break;
                }
            }
        }
        found
    }
}

impl DispatchOrder {
    /// Classes in order of their first member among `candidates` (which
    /// are ascending); every member list is allocated once, at its size.
    ///
    /// Cores of one cell (`cell_of(k)`, below `cells`) must share `tc`
    /// and `service` for every task type: a class is looked up once per
    /// cell and task type, at the cell's first candidate, and its other
    /// candidates join it unread. With a cell per core this is a lookup
    /// per candidate, for tables that come with no cells.
    fn build(
        candidates: &[Vec<usize>],
        tc: &[Vec<f64>],
        service: &[Vec<f64>],
        count: &[EncodedBlocks<u64>],
        cell_of: impl Fn(usize) -> usize,
        cells: usize,
    ) -> DispatchOrder {
        let mut classes = Vec::with_capacity(candidates.len());
        let mut class_of_cell: Vec<Option<usize>> = vec![None; cells];
        for (i, cores) in candidates.iter().enumerate() {
            class_of_cell.fill(None);
            let mut of_type: Vec<Class> = Vec::new();
            let mut sizes: Vec<usize> = Vec::new();
            for &k in cores {
                let cell = &mut class_of_cell[cell_of(k)];
                let c = *cell.get_or_insert_with(|| {
                    let (tc, service) = (tc[i][k], service[i][k]);
                    of_type.iter().position(|c| c.holds(tc, service)).unwrap_or_else(|| {
                        of_type.push(Class::new(tc, service));
                        sizes.push(0);
                        of_type.len() - 1
                    })
                });
                sizes[c] += 1;
            }
            for (class, &size) in of_type.iter_mut().zip(&sizes) {
                class.members.reserve_exact(size);
            }
            for &k in cores {
                let c = class_of_cell[cell_of(k)].expect("the first pass gave every candidate's cell a class");
                of_type[c].members.push(k);
            }
            for class in &mut of_type {
                class.fill_levels(&count[i]);
            }
            classes.push(of_type);
        }
        DispatchOrder { classes }
    }

    /// Core `k` took a task of `task_type`, its count rose to `count` and
    /// it is busy until `busy`: move it up one level. (A core that is not
    /// a candidate is in no class.)
    fn count_rose(&mut self, task_type: usize, k: usize, count: u64, tc: f64, service: f64, busy: f64) {
        let Some(class) = self.classes[task_type]
            .iter_mut()
            .find(|c| c.holds(tc, service))
        else {
            return;
        };
        if let Ok(r) = class.members.binary_search(&k) {
            class.raise(r, count - 1, busy);
        }
    }

    /// A backlog shrank, so no bound is known to hold any more.
    fn forget_bounds(&mut self) {
        for class in self.classes.iter_mut().flatten() {
            for level in &mut class.levels {
                level.bound.fill(f64::NEG_INFINITY);
            }
        }
    }
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
        let plan = plan_tables(dc, pstates, stage3);
        let count = zero_counts(t, n);
        DynamicScheduler {
            policy,
            order: plan.order(&count),
            tc: Encoded::new(plan.tc),
            candidates: Encoded::new(plan.candidates),
            runnable: Encoded::new(plan.runnable),
            count,
            ewma_rate: EwmaRates::uniform(t, n, 0.0),
            busy_until: vec![0.0; n].into(),
            service: Encoded::new(ServiceTimes(plan.service)),
            busy_time: vec![0.0; n].into(),
            alive: vec![true; n].into(),
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
        let plan = plan_tables(dc, pstates, stage3);
        if self.count.len() == t && self.count.iter().all(|row| row.len() == n) {
            // The same room: the rows keep their blocks' buffers.
            self.count.iter_mut().for_each(|row| row.fill(0));
        } else {
            self.count = zero_counts(t, n);
        }
        self.order = plan.order(&self.count);
        self.tc = Encoded::new(plan.tc);
        self.candidates = Encoded::new(plan.candidates);
        self.runnable = Encoded::new(plan.runnable);
        self.service = Encoded::new(ServiceTimes(plan.service));
        self.ewma_rate = EwmaRates::uniform(t, n, now);
        self.plan_start = now;
    }

    /// The order of tables read from disk, which come with no cells.
    /// Cold: it runs at the first dispatch after a read, and inlined it
    /// would double the size of `pick`, which every arrival runs.
    #[cold]
    fn rebuild_order(&mut self) {
        let n = self.busy_until.len();
        self.order = DispatchOrder::build(&self.candidates, &self.tc, &self.service, &self.count, |k| k, n);
    }

    /// Mark cores as dead: they are never dispatched to again. An index
    /// past the room's cores names no core and is skipped. In-flight
    /// accounting (tasks lost with the node) is the caller's job — see
    /// `crate::sim::EpochSim::kill_cores`.
    pub fn kill_cores(&mut self, cores: &[usize]) {
        for &k in cores {
            if k < self.alive.len() {
                *self.alive.to_mut(k) = false;
            }
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
    fn pick(&mut self, task_type: usize, now: f64, deadline: f64) -> Option<usize> {
        if self.order.classes.len() != self.candidates.len() {
            // Read from disk (and held to the room by `fits` since).
            self.rebuild_order();
        }
        match self.policy {
            DispatchPolicy::AtcTc => {
                let core = self.pick_atc_tc(task_type, now, deadline);
                #[cfg(debug_assertions)]
                assert_eq!(core, self.pick_atc_tc_scan(task_type, now, deadline));
                core
            }
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
        if finish < self.busy_until[k] || finish.is_nan() {
            // The backlog shrank, or became NaN, which rule (c) reads as
            // `now`: only a negative or NaN service time does this (read
            // from disk, or a caller's factor).
            self.order.forget_bounds();
        }
        *self.busy_until.to_mut(k) = finish;
        *self.busy_time.to_mut(k) += service;
        *self.count[task_type].to_mut(k) += 1;
        self.order.count_rose(
            task_type,
            k,
            self.count[task_type][k],
            self.tc[task_type][k],
            self.service[task_type][k],
            finish,
        );
        if let DispatchPolicy::AtcTcWindowed { tau_s } = self.policy {
            // Decay the estimate to `now`, then add this assignment's
            // impulse (1 task smeared over tau).
            let (rate, last) = self.ewma_rate.get(task_type, k);
            let decayed = rate * (-(now - last) / tau_s).exp();
            self.ewma_rate.set(task_type, k, (decayed + 1.0 / tau_s, now));
        }
        DispatchDecision::Assigned {
            core: k,
            start,
            finish,
        }
    }

    /// The paper's rule: minimum `ATC/TC` ratio, skipping cores at or
    /// over their desired rate (rule b) or unable to meet the deadline
    /// through their backlog (rule c); the lowest core among equals.
    ///
    /// Per class: no member can make the deadline if an idle one cannot;
    /// otherwise the members within their rate are the levels up to a
    /// count, and the lowest-ranked member of the lowest level that is
    /// alive and meets the deadline has the class's smallest ratio on its
    /// lowest core. Classes are then compared on the ratio as the scan
    /// computes it. Each step is exact, not approximate — see DESIGN §11
    /// "The dispatch order" — and `pick` holds the result to the scan's
    /// in debug builds.
    fn pick_atc_tc(&mut self, task_type: usize, now: f64, deadline: f64) -> Option<usize> {
        let elapsed = now - self.plan_start;
        let backlog = |service: f64| Backlog {
            busy_until: &self.busy_until,
            alive: &self.alive,
            now,
            service,
            deadline,
        };
        // The scan's ratio, its divisor computed once per class.
        let ratio_at = |count: u64, divisor: f64| {
            if elapsed > 0.0 {
                count as f64 / divisor
            } else {
                0.0
            }
        };
        let classes = &mut self.order.classes[task_type];
        let mut visits = 0u64;
        let mut best: Option<(usize, f64)> = None;
        let mut unrated: Option<usize> = None;
        for class in classes.iter_mut() {
            if now + class.service > deadline {
                continue;
            }
            let (divisor, within_rate) = class.rate_bound(elapsed);
            // `elapsed * tc` overflowed: every count's ratio is `c / ∞ = 0`.
            let any_count = divisor == f64::INFINITY;
            let backlog = backlog(class.service);
            let Some((count, k)) = class.first_feasible(within_rate, any_count, &backlog, &mut visits)
            else {
                continue;
            };
            let ratio = ratio_at(count, divisor);
            if ratio.is_nan() {
                unrated = Some(unrated.map_or(k, |u| u.min(k)));
            } else if best.is_none_or(|(b, r)| ratio < r || (ratio == r && k < b)) {
                best = Some((k, ratio));
            }
        }
        // `elapsed * tc` underflowed to zero in some class and the ratio
        // of its unused cores is 0/0. No comparison moves the scan off or
        // onto such a core: it picks one exactly when the lowest feasible
        // core of all is one.
        if let Some(u) = unrated {
            let rated_below = classes.iter_mut().any(|class| {
                let (divisor, within_rate) = class.rate_bound(elapsed);
                let backlog = backlog(class.service);
                !ratio_at(0, divisor).is_nan()
                    && class
                        .first_feasible(within_rate, true, &backlog, &mut visits)
                        .is_some_and(|(_, k)| k < u)
            });
            if !rated_below {
                best = Some((u, f64::NAN));
            }
        }
        if thermaware_obs::enabled() {
            thermaware_obs::counter_add("sched.pick_visits", visits);
        }
        best.map(|(k, _)| k)
    }

    /// The rule as a scan over every candidate: what [`Self::pick_atc_tc`]
    /// must return, kept as the oracle of debug builds and tests.
    #[cfg(any(test, debug_assertions))]
    fn pick_atc_tc_scan(&self, task_type: usize, now: f64, deadline: f64) -> Option<usize> {
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
            let (rate, last) = self.ewma_rate.get(task_type, k);
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
        let is_active = |k: usize| (0..self.service.len()).any(|i| self.service[i][k].is_finite());
        let mut active = 0usize;
        // Work admitted near the horizon runs past it; clamp each core's
        // busy time to the horizon so utilization stays in [0, 1].
        let busy: f64 = (0..self.busy_until.len())
            .filter(|&k| is_active(k))
            .inspect(|_| active += 1)
            .map(|k| self.busy_time[k].min(horizon))
            .sum();
        if active == 0 || horizon <= 0.0 {
            return 0.0;
        }
        busy / (active as f64 * horizon)
    }

    /// [`Self::mean_active_utilization`] as it was first written, over a
    /// collected list of the active cores: what it must give, bit for
    /// bit.
    #[cfg(test)]
    pub(crate) fn mean_active_utilization_collected(&self, horizon: f64) -> f64 {
        let active: Vec<usize> = (0..self.busy_until.len())
            .filter(|&k| (0..self.service.len()).any(|i| self.service[i][k].is_finite()))
            .collect();
        if active.is_empty() || horizon <= 0.0 {
            return 0.0;
        }
        active
            .iter()
            .map(|&k| self.busy_time[k].min(horizon))
            .sum::<f64>()
            / (active.len() as f64 * horizon)
    }

    /// Do these tables fit a room with `dc`'s task types and cores? The
    /// check for state read from disk, made once where it enters: every
    /// index the dispatch paths use is in range afterwards, and the core
    /// sets are in the order a live scheduler holds them in — strictly
    /// ascending, which is what makes "first among equals" the lowest
    /// core — with a rate the `AtcTc` rule can divide by on every
    /// candidate.
    pub(crate) fn fits(&self, dc: &DataCenter) -> Result<(), String> {
        let (t, n) = (dc.n_task_types(), dc.n_cores());
        fn table<R: Deref<Target = [T]>, T>(rows: &[R], t: usize, n: usize) -> bool {
            rows.len() == t && rows.iter().all(|row| row.len() == n)
        }
        fn core_sets(sets: &[Vec<usize>], t: usize, n: usize) -> bool {
            sets.len() == t
                && sets.iter().all(|set| {
                    set.iter().all(|&k| k < n) && set.windows(2).all(|pair| pair[0] < pair[1])
                })
        }
        let rated = self.candidates.iter().zip(self.tc.iter()).all(|(set, tc)| {
            set.iter().all(|&k| {
                tc.get(k)
                    .is_some_and(|rate| rate.is_finite() && *rate > 0.0)
            })
        });
        let checks = [
            ("tc", table(&self.tc, t, n)),
            ("candidates", core_sets(&self.candidates, t, n)),
            ("tc of a candidate", rated),
            ("runnable", core_sets(&self.runnable, t, n)),
            ("count", table(&self.count, t, n)),
            ("ewma_rate", self.ewma_rate.fits(t, n)),
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

/// The `service` table. On disk JSON has no `INFINITY`, so "cannot run"
/// is `null` there and every finite time a plain number.
#[derive(Clone, PartialEq)]
struct ServiceTimes(Vec<Vec<f64>>);

// As the table it wraps: `service: [[0.5, inf]]`.
impl std::fmt::Debug for ServiceTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Deref for ServiceTimes {
    type Target = Vec<Vec<f64>>;

    fn deref(&self) -> &Vec<Vec<f64>> {
        &self.0
    }
}

impl Serialize for ServiceTimes {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_array();
        for row in &self.0 {
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
}

impl Deserialize for ServiceTimes {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        let mut table = Vec::new();
        src.array(|src| {
            let mut times = Vec::new();
            src.array(|src| {
                times.push(match src.peek()? {
                    Kind::Null => src.null().map(|()| f64::INFINITY)?,
                    _ => f64::deserialize(src)?,
                });
                Ok(())
            })?;
            // Sized to fit: this table is a quarter of a live state.
            times.shrink_to_fit();
            table.push(times);
            Ok(())
        })?;
        table.shrink_to_fit();
        Ok(ServiceTimes(table))
    }
}

/// The windowed rule's rate estimate per (type, core) and its last update
/// instant: `rates[type][core] = (rate, last)`.
///
/// A build or a replan sets every entry to `(0, plan_start)`, and only
/// the `AtcTcWindowed` rule's `commit` writes one, so until then the table
/// is held as its shape and that instant (`Uniform`): it prints the bytes
/// of the whole table, and equals a whole table with the same entries.
/// The first write builds the table (`Table`); a table read from disk is
/// kept as it was read.
#[derive(Debug, Clone)]
enum EwmaRates {
    Uniform(Encoded<UniformRates>),
    Table(Encoded<Vec<Vec<(f64, f64)>>>),
}

/// `types × cores` entries of `(0, since)`.
#[derive(Debug, Clone, PartialEq)]
struct UniformRates {
    types: usize,
    cores: usize,
    since: f64,
}

impl EwmaRates {
    fn uniform(types: usize, cores: usize, since: f64) -> Self {
        EwmaRates::Uniform(Encoded::new(UniformRates { types, cores, since }))
    }

    /// The entry of `task_type` on core `k`, both in range.
    fn get(&self, task_type: usize, k: usize) -> (f64, f64) {
        match self {
            EwmaRates::Uniform(uniform) => (0.0, uniform.since),
            EwmaRates::Table(table) => table[task_type][k],
        }
    }

    /// Writes the entry of `task_type` on core `k`, both in range.
    fn set(&mut self, task_type: usize, k: usize, entry: (f64, f64)) {
        if let EwmaRates::Uniform(uniform) = self {
            let UniformRates { types, cores, since } = **uniform;
            *self = EwmaRates::Table(Encoded::new(vec![vec![(0.0, since); cores]; types]));
        }
        if let EwmaRates::Table(table) = self {
            table.to_mut()[task_type][k] = entry;
        }
    }

    /// `t` rows of `n` entries each.
    fn fits(&self, t: usize, n: usize) -> bool {
        match self {
            EwmaRates::Uniform(uniform) => (uniform.types, uniform.cores) == (t, n),
            EwmaRates::Table(table) => table.len() == t && table.iter().all(|row| row.len() == n),
        }
    }
}

impl PartialEq for EwmaRates {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (EwmaRates::Uniform(a), EwmaRates::Uniform(b)) => **a == **b,
            (EwmaRates::Table(a), EwmaRates::Table(b)) => **a == **b,
            (EwmaRates::Uniform(uniform), EwmaRates::Table(table))
            | (EwmaRates::Table(table), EwmaRates::Uniform(uniform)) => {
                let entry = (0.0, uniform.since);
                table.len() == uniform.types
                    && table.iter().all(|row| {
                        // lint: allow(float-eq): the equality a whole table has, `==` entry by entry
                        row.len() == uniform.cores && row.iter().all(|&e| e == entry)
                    })
            }
        }
    }
}

impl Serialize for EwmaRates {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            EwmaRates::Uniform(uniform) => uniform.serialize(sink),
            EwmaRates::Table(table) => table.serialize(sink),
        }
    }
}

impl Deserialize for EwmaRates {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        Encoded::deserialize(src).map(EwmaRates::Table)
    }
}

impl Serialize for UniformRates {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_array();
        for _ in 0..self.types {
            sink.begin_array();
            for _ in 0..self.cores {
                (0.0, self.since).serialize(sink);
            }
            sink.end_array();
        }
        sink.end_array();
    }
}

/// `count` of a fresh plan: no task of any of `t` types on any of `n`
/// cores.
fn zero_counts(t: usize, n: usize) -> Vec<EncodedBlocks<u64>> {
    (0..t).map(|_| vec![0; n].into()).collect()
}

/// The per-plan lookup tables (shared by construction and mid-flight
/// replans): desired rates, candidate/runnable sets and service times,
/// plus each core's **cell**, which is the pair of its Stage-3 group and
/// its `(node type, P-state)`. Every core of a cell has the same rate and
/// service time for each task type, bit for bit.
struct PlanTables {
    tc: Vec<Vec<f64>>,
    candidates: Vec<Vec<usize>>,
    runnable: Vec<Vec<usize>>,
    service: Vec<Vec<f64>>,
    /// `cell_of[k]`, below `cells`.
    cell_of: Vec<usize>,
    cells: usize,
}

/// The tables of a plan, written row by row from what they depend on:
/// service times from the `(node type, P-state)` of each core, with
/// `ecs.etc` read once per task type and key, and rates from the core's
/// Stage-3 group. Each core is keyed on its own P-state, so P-states
/// that disagree with the groups (cores throttled after the plan) still
/// get the per-core values.
fn plan_tables(dc: &DataCenter, pstates: &[usize], stage3: &Stage3Solution) -> PlanTables {
    let t = dc.n_task_types();
    let n = dc.n_cores();
    let ecs = &dc.workload.ecs;
    // Node type `j`'s P-states are keys `first_key[j]..first_key[j + 1]`.
    let mut first_key = Vec::with_capacity(ecs.n_node_types() + 1);
    first_key.push(0);
    for j in 0..ecs.n_node_types() {
        first_key.push(first_key[j] + ecs.n_pstates(j));
    }
    let keys = first_key[ecs.n_node_types()];
    // Each core's key; its group joins it once the rows are written.
    let mut cell_of = vec![0; n];
    for node in 0..dc.n_nodes() {
        let j = dc.node_type_of[node];
        for k in dc.cores_of_node(node) {
            debug_assert!(pstates[k] < ecs.n_pstates(j));
            cell_of[k] = first_key[j] + pstates[k];
        }
    }
    let mut etc = vec![0.0; keys];
    let mut rates = vec![0.0; stage3.rate_per_core.len()];
    let mut tc = Vec::with_capacity(t);
    let mut candidates = Vec::with_capacity(t);
    let mut runnable = Vec::with_capacity(t);
    let mut service = Vec::with_capacity(t);
    for i in 0..t {
        for j in 0..ecs.n_node_types() {
            for p in 0..ecs.n_pstates(j) {
                etc[first_key[j] + p] = ecs.etc(i, j, p);
            }
        }
        for (rate, group) in rates.iter_mut().zip(&stage3.rate_per_core) {
            *rate = group[i];
        }
        let times: Vec<f64> = cell_of.iter().map(|&key| etc[key]).collect();
        let desired: Vec<f64> = (0..n)
            .map(|k| {
                let rate = rates[stage3.group_of_core[k]];
                if rate > 0.0 && times[k].is_finite() {
                    rate
                } else {
                    0.0
                }
            })
            .collect();
        runnable.push(cores_where(n, |k| times[k].is_finite()));
        candidates.push(cores_where(n, |k| desired[k] > 0.0));
        tc.push(desired);
        service.push(times);
    }
    for (cell, &group) in cell_of.iter_mut().zip(&stage3.group_of_core) {
        *cell += group * keys;
    }
    PlanTables {
        tc,
        candidates,
        runnable,
        service,
        cell_of,
        cells: stage3.rate_per_core.len() * keys,
    }
}

impl PlanTables {
    /// The dispatch order of these tables at `count`, a class looked up
    /// per cell.
    fn order(&self, count: &[EncodedBlocks<u64>]) -> DispatchOrder {
        let cell_of = |k: usize| self.cell_of[k];
        DispatchOrder::build(&self.candidates, &self.tc, &self.service, count, cell_of, self.cells)
    }
}

/// The cores of `0..n` that `member` holds for, ascending, in a vector
/// allocated once at its size.
fn cores_where(n: usize, member: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut cores = Vec::with_capacity((0..n).filter(|&k| member(k)).count());
    cores.extend((0..n).filter(|&k| member(k)));
    cores
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;
    use thermaware_core::Solver;
    use thermaware_datacenter::ScenarioParams;
    use thermaware_workload::ArrivalTrace;

    type Room = (DataCenter, Vec<usize>, Stage3Solution);

    /// A rate table held as its shape equals, prints and reads back as
    /// the whole table it stands for, until a write makes it that table.
    #[test]
    fn a_uniform_rate_table_is_the_table_it_stands_for() {
        let uniform = EwmaRates::uniform(2, 3, 1.5);
        let whole = EwmaRates::Table(Encoded::new(vec![vec![(0.0, 1.5); 3]; 2]));
        assert_eq!(uniform, whole);
        assert_eq!(whole, uniform);
        let text = serde_json::to_string(&uniform).unwrap();
        assert_eq!(text, "[[[0,1.5],[0,1.5],[0,1.5]],[[0,1.5],[0,1.5],[0,1.5]]]");
        assert_eq!(serde_json::to_string(&whole).unwrap(), text);
        let read: EwmaRates = serde_json::from_str(&text).unwrap();
        assert!(matches!(read, EwmaRates::Table(_)) && read == uniform);
        assert!(uniform.fits(2, 3) && !uniform.fits(3, 2) && !uniform.fits(2, 4));
        assert_ne!(uniform, EwmaRates::uniform(2, 3, 0.0));
        assert_ne!(uniform, EwmaRates::uniform(3, 2, 1.5));
        assert_ne!(uniform, EwmaRates::Table(Encoded::new(vec![vec![(0.0, 1.5); 3]; 3])));

        let mut written = uniform.clone();
        written.set(1, 2, (0.5, 2.0));
        assert!(matches!(written, EwmaRates::Table(_)) && written != uniform);
        assert_eq!((written.get(1, 2), written.get(0, 0)), ((0.5, 2.0), (0.0, 1.5)));
        assert!(written.fits(2, 3));
    }

    /// Planned rooms shared by every case: planning is the expensive part.
    fn rooms() -> &'static [Room] {
        static ROOMS: OnceLock<Vec<Room>> = OnceLock::new();
        ROOMS.get_or_init(|| {
            (1..=3)
                .map(|seed| {
                    let dc = ScenarioParams::small_test().build(seed).expect("scenario");
                    let plan = Solver::new(&dc).solve().expect("plan");
                    (dc, plan.pstates, plan.stage3)
                })
                .collect()
        })
    }

    /// Dispatch with the scan asked first — in release too, where `pick`
    /// does not ask it — through `dispatch`, or with a realized service
    /// factor through `dispatch_with_realized_factor`. Returns the core,
    /// `None` for a drop.
    fn dispatch_checked(
        sched: &mut DynamicScheduler,
        task_type: usize,
        now: f64,
        deadline: f64,
        factor: Option<f64>,
    ) -> Option<usize> {
        let scan = sched.pick_atc_tc_scan(task_type, now, deadline);
        let decision = match factor {
            None => sched.dispatch(task_type, now, deadline),
            Some(f) => sched.dispatch_with_realized_factor(task_type, now, deadline, f),
        };
        let core = match decision {
            DispatchDecision::Assigned { core, .. } => Some(core),
            DispatchDecision::Dropped => None,
        };
        assert_eq!(core, scan, "type {task_type} at {now} due {deadline}");
        core
    }

    /// The tables as the scheduler first wrote them, one core at a time
    /// with `ecs.etc` and `Stage3Solution::tc` asked for each (task type,
    /// core): what [`plan_tables`] must give.
    #[allow(clippy::type_complexity)]
    fn plan_tables_per_core(
        dc: &DataCenter,
        pstates: &[usize],
        stage3: &Stage3Solution,
    ) -> (Vec<Vec<f64>>, Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<Vec<f64>>) {
        let t = dc.n_task_types();
        let n = dc.n_cores();
        let mut tc = vec![vec![0.0; n]; t];
        let mut candidates = Vec::with_capacity(t);
        let mut runnable = Vec::with_capacity(t);
        let mut service = vec![vec![f64::INFINITY; n]; t];
        for i in 0..t {
            for k in 0..n {
                let etc = dc.workload.ecs.etc(i, dc.core_type(k), pstates[k]);
                service[i][k] = etc;
                let rate = stage3.tc(i, k);
                if rate > 0.0 && etc.is_finite() {
                    tc[i][k] = rate;
                }
            }
            runnable.push(cores_where(n, |k| service[i][k].is_finite()));
            candidates.push(cores_where(n, |k| tc[i][k] > 0.0));
        }
        (tc, candidates, runnable, service)
    }

    /// Two tables of rows, equal bit for bit.
    fn assert_same_bits<R: Deref<Target = [f64]>>(a: &[R], b: &[R], name: &str) {
        let bits = |rows: &[R]| rows.iter().map(|row| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>()).collect::<Vec<_>>();
        assert!(bits(a) == bits(b), "`{name}` differs");
    }

    /// Two orders with the same classes, in the same order, each with the
    /// same `tc` and `service` bits, members, and levels with their
    /// counts and bits.
    fn assert_same_order(live: &DispatchOrder, fresh: &DispatchOrder) {
        let sizes = |order: &DispatchOrder| order.classes.iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(sizes(live), sizes(fresh));
        let levels = |class: &Class| {
            let shape = class.levels.iter().map(|l| (l.count, l.len, l.bits.clone()));
            shape.collect::<Vec<_>>()
        };
        let pairs = live.classes.iter().flatten().zip(fresh.classes.iter().flatten());
        for (live, fresh) in pairs {
            assert!(live.holds(fresh.tc, fresh.service));
            assert_eq!(live.members, fresh.members);
            assert_eq!(levels(live), levels(fresh));
        }
    }

    /// The index invariant: every class holds what a fresh build from the
    /// tables gives, a class looked up per core — its members, and its
    /// levels with their counts and bits — and every word's bound is at
    /// most the backlog of each live member set in it.
    fn assert_order_is_fresh(sched: &DynamicScheduler) {
        let n = sched.busy_until.len();
        let fresh =
            DispatchOrder::build(&sched.candidates, &sched.tc, &sched.service, &sched.count, |k| k, n);
        assert_same_order(&sched.order, &fresh);
        for live in sched.order.classes.iter().flatten() {
            for level in &live.levels {
                for (r, &k) in live.members.iter().enumerate() {
                    let (w, set) = (r / 64, level.bits[r / 64] >> (r % 64) & 1 == 1);
                    let busy = sched.busy_until[k];
                    assert!(
                        !(set && sched.alive[k] && level.bound[w] > busy),
                        "core {k} at count {} is busy until {busy}, below its bound {}",
                        level.count,
                        level.bound[w]
                    );
                }
            }
        }
    }

    /// Rule (b) as a bound on the count is the scan's rounded quotient at
    /// the counts on either side of it, for every divisor below 2^53
    /// (where `count as f64` starts to round).
    #[test]
    fn the_count_bound_is_the_scans_rule_b() {
        let class = |tc: f64| Class::new(tc, 1.0);
        let p53 = 2f64.powi(53);
        for divisor in [
            f64::from_bits(1),
            0.3,
            1.0,
            2.5,
            1e6 + 0.5,
            1e15,
            p53.next_down(),
        ] {
            let (product, within_rate) = class(divisor).rate_bound(1.0);
            assert_eq!(product, divisor);
            let near = within_rate.saturating_sub(3)..=within_rate + 3;
            for count in near.chain([0, 1, u64::MAX]) {
                let scan_skips = count as f64 / divisor > 1.0;
                assert_eq!(count <= within_rate, !scan_skips, "{count} over {divisor}");
            }
        }
        // No time on the plan yet: unused cores only.
        for elapsed in [0.0, -1.0, f64::NAN] {
            assert_eq!(class(3.0).rate_bound(elapsed), (0.0, 0));
        }
        // An overflowed divisor: `count / ∞` is 0 for every count.
        assert_eq!(class(3.0).rate_bound(f64::MAX), (f64::INFINITY, u64::MAX));
    }

    /// `elapsed * tc` overflows to `+∞`: every count's ratio rounds to 0,
    /// so the scan takes the lowest feasible core whatever the counts —
    /// not the lowest count's core (core 1 here). A CRC-valid state can
    /// hold such a `plan_start`: `fits` does not read it.
    #[test]
    fn an_overflowed_rate_clock_goes_to_the_lowest_core() {
        const FAR: &str = r#"{"policy":"atc_tc","tc":[[2,2,2,2]],"candidates":[[0,1,2,3]],"runnable":[[0,1,2,3]],"count":[[5,3,7,9]],"ewma_rate":[[[0,0],[0,0],[0,0],[0,0]]],"busy_until":[0,0,0,0],"service":[[0.5,0.5,0.5,0.5]],"busy_time":[0,0,0,0],"alive":[true,true,true,true],"plan_start":-1.7e308}"#;
        let mut sched: DynamicScheduler = serde_json::from_str(FAR).expect("decode");
        let now = 1.7e308;
        assert_eq!(now - sched.plan_start, f64::INFINITY);
        assert_eq!(dispatch_checked(&mut sched, 0, now, now, None), Some(0));
        sched.kill_cores(&[0]);
        assert_eq!(dispatch_checked(&mut sched, 0, now, now, None), Some(1));
        assert_order_is_fresh(&sched);
    }

    /// Two classes with one `tc` and two service times: at equal counts
    /// their ratios are the same bits, and the lowest core wins whichever
    /// class holds it.
    #[test]
    fn equal_ratios_across_classes_go_to_the_lowest_core() {
        const PAIR: &str = r#"{"policy":"atc_tc","tc":[[2,2,2,2]],"candidates":[[0,1,2,3]],"runnable":[[0,1,2,3]],"count":[[0,0,0,0]],"ewma_rate":[[[0,0],[0,0],[0,0],[0,0]]],"busy_until":[0,0,0,0],"service":[[0.5,0.25,0.5,0.25]],"busy_time":[0,0,0,0],"alive":[true,true,true,true],"plan_start":0}"#;
        let mut sched: DynamicScheduler = serde_json::from_str(PAIR).expect("decode");
        let picks: Vec<_> = (0..8)
            .map(|_| dispatch_checked(&mut sched, 0, 10.0, 20.0, None))
            .collect();
        assert_eq!(picks, [0, 1, 2, 3, 0, 1, 2, 3].map(Some));
        assert_eq!(
            sched.order.classes[0].len(),
            2,
            "cores 0 and 2, cores 1 and 3"
        );
        // All at count 2. Without core 0 the first class answers core 2,
        // the second core 1.
        sched.kill_cores(&[0]);
        assert_eq!(dispatch_checked(&mut sched, 0, 10.0, 20.0, None), Some(1));
        assert_order_is_fresh(&sched);
    }

    /// A core index past the room's names no core: `kill_cores` skips it
    /// and kills the ones in range, as the floor's `kill_node` skips a
    /// node past the room's.
    #[test]
    fn killing_a_core_past_the_room_is_skipped() {
        const FOUR: &str = r#"{"policy":"atc_tc","tc":[[2,2,2,2]],"candidates":[[0,1,2,3]],"runnable":[[0,1,2,3]],"count":[[0,0,0,0]],"ewma_rate":[[[0,0],[0,0],[0,0],[0,0]]],"busy_until":[0,0,0,0],"service":[[0.5,0.5,0.5,0.5]],"busy_time":[0,0,0,0],"alive":[true,true,true,true],"plan_start":0}"#;
        let mut sched: DynamicScheduler = serde_json::from_str(FOUR).expect("decode");
        let before = serde_json::to_string(&sched).expect("encode");
        sched.kill_cores(&[4, usize::MAX]);
        assert_eq!(serde_json::to_string(&sched).expect("encode"), before);
        sched.kill_cores(&[7, 0, 1, 99]);
        assert_eq!(&*sched.alive, [false, false, true, true]);
        assert_eq!(dispatch_checked(&mut sched, 0, 10.0, 20.0, None), Some(2));
        assert_order_is_fresh(&sched);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Scan and walk side by side over a stream with everything that
        /// touches the order in it: the plan instant and the instants one
        /// ulp past it (the first of which is a subnormal `elapsed`, whose
        /// product with `tc` underflows), deadlines tight enough to drop, a
        /// mid-stream replan, a class's lowest cores killed, a JSON round
        /// trip after which the rebuilt order must carry on as the live one
        /// does, and — through `dispatch_with_realized_factor` — backlogs
        /// that grow by more or less than the estimate the rule judged
        /// them on. The order is held to a fresh build at each of those
        /// events and every 256 arrivals, not only at the end.
        #[test]
        fn the_walk_picks_the_scans_core(
            room in 0usize..3,
            stream_seed in 0u64..1_000_000,
            tightness in prop::sample::select(vec![1.0, 0.6, 0.25]),
            realized in any::<bool>(),
            replan_at in 0.0f64..1.0,
            kill_at in 0.0f64..1.0,
            save_at in 0.0f64..1.0,
        ) {
            let (dc, pstates, stage3) = &rooms()[room];
            let mut rng = StdRng::seed_from_u64(stream_seed);
            let trace = ArrivalTrace::generate(&dc.workload, 4.0, &mut rng);
            let at = |share: f64| (share * trace.arrivals.len() as f64) as usize;
            let (replan_at, kill_at, save_at) = (at(replan_at), at(kill_at), at(save_at));
            let due = |task_type: usize, now: f64| {
                now + dc.workload.task_types[task_type].deadline_slack * tightness
            };
            // Realized over estimated service, drawn per dispatch.
            let mut factors = StdRng::seed_from_u64(!stream_seed);
            let mut factor = || realized.then(|| factors.gen_range(0.25..2.0));

            let mut live = DynamicScheduler::new(dc, pstates, stage3);
            let mut resumed: Option<DynamicScheduler> = None;
            for task_type in 0..dc.n_task_types() {
                dispatch_checked(&mut live, task_type, 0.0, due(task_type, 0.0), factor());
                let first_ulp = f64::from_bits(1);
                dispatch_checked(&mut live, task_type, first_ulp, due(task_type, 0.0), factor());
            }
            for (j, a) in trace.arrivals.iter().enumerate() {
                if j == kill_at {
                    // The lowest cores of the type's largest class.
                    let class = live.order.classes[a.task_type].iter().max_by_key(|c| c.members.len());
                    let cores: Vec<usize> =
                        class.map_or(Vec::new(), |c| c.members.iter().take(2).copied().collect());
                    for sched in std::iter::once(&mut live).chain(resumed.as_mut()) {
                        sched.kill_cores(&cores);
                    }
                }
                if j == save_at {
                    let json = serde_json::to_string(&live).expect("encode");
                    prop_assert!(!json.contains("order") && !json.contains("classes"));
                    let read: DynamicScheduler = serde_json::from_str(&json).expect("decode");
                    prop_assert_eq!(read.fits(dc), Ok(()));
                    prop_assert!(read.order.classes.is_empty(), "the order is not read, it is rebuilt");
                    resumed = Some(read);
                }
                let mut instants = vec![a.time];
                if j == replan_at {
                    for sched in std::iter::once(&mut live).chain(resumed.as_mut()) {
                        sched.apply_plan(dc, pstates, stage3, a.time);
                    }
                    instants.push(a.time.next_up());
                }
                for now in instants {
                    let (deadline, f) = (due(a.task_type, now), factor());
                    let core = dispatch_checked(&mut live, a.task_type, now, deadline, f);
                    if let Some(resumed) = resumed.as_mut() {
                        prop_assert_eq!(dispatch_checked(resumed, a.task_type, now, deadline, f), core);
                    }
                }
                if [replan_at, kill_at, save_at].contains(&j) || j % 256 == 0 {
                    assert_order_is_fresh(&live);
                    if let Some(resumed) = &resumed {
                        assert_order_is_fresh(resumed);
                    }
                }
            }
            assert_order_is_fresh(&live);
            if let Some(resumed) = &resumed {
                assert_order_is_fresh(resumed);
                prop_assert_eq!(resumed, &live);
            }
        }

        /// The tables written per cell are the tables written per core,
        /// bit for bit, for random P-states (off states among them) under
        /// a Stage-3 plan solved at them, or under the room's own plan,
        /// whose groups they then disagree with, as after a throttle. The
        /// order built a class per cell is the order built a class per
        /// core, and a replan of a scheduler that has dispatched work
        /// holds what a fresh one does.
        #[test]
        fn the_tables_per_cell_are_the_tables_per_core(
            room in 0usize..3,
            pstate_seed in 0u64..1_000_000,
            agree in any::<bool>(),
        ) {
            let (dc, planned, plan) = &rooms()[room];
            let mut rng = StdRng::seed_from_u64(pstate_seed);
            let pstates: Vec<usize> = (0..dc.n_cores())
                .map(|k| rng.gen_range(0..dc.workload.ecs.n_pstates(dc.core_type(k))))
                .collect();
            prop_assert_eq!(dc.pstates_fit(&pstates), Ok(()));
            let solved;
            let stage3 = if agree {
                solved = thermaware_core::stage3::solve_stage3(dc, &pstates).expect("stage 3");
                &solved
            } else {
                plan
            };

            let tables = plan_tables(dc, &pstates, stage3);
            let (tc, candidates, runnable, service) = plan_tables_per_core(dc, &pstates, stage3);
            assert_same_bits(&tables.tc, &tc, "tc");
            assert_same_bits(&tables.service, &service, "service");
            prop_assert_eq!(&tables.candidates, &candidates);
            prop_assert_eq!(&tables.runnable, &runnable);
            let count = zero_counts(dc.n_task_types(), dc.n_cores());
            let per_core = DispatchOrder::build(&candidates, &tc, &service, &count, |k| k, dc.n_cores());
            assert_same_order(&tables.order(&count), &per_core);

            let mut used = DynamicScheduler::new(dc, planned, plan);
            let trace = ArrivalTrace::generate(&dc.workload, 2.0, &mut rng);
            for a in &trace.arrivals {
                dispatch_checked(&mut used, a.task_type, a.time, a.deadline, None);
            }
            used.apply_plan(dc, &pstates, stage3, trace.horizon_s);
            let fresh = DynamicScheduler::new(dc, &pstates, stage3);
            assert_same_bits(&used.tc, &fresh.tc, "tc");
            assert_same_bits(&used.service, &fresh.service, "service");
            prop_assert_eq!(&used.candidates, &fresh.candidates);
            prop_assert_eq!(&used.runnable, &fresh.runnable);
            prop_assert_eq!(&used.count, &fresh.count);
            assert_same_order(&used.order, &fresh.order);
            assert_order_is_fresh(&used);
        }
    }
}
