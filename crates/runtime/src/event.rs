//! The floor's and the service's structured event log: every fault, detection,
//! response, and recovery as a typed, timestamped record.

use crate::fault::Fault;
use serde::{Deserialize, Serialize, Source};
use std::fmt;

/// A detected constraint violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Violation {
    /// An inlet redline breach as *observed* (sensor bias included), °C
    /// over the redline.
    Redline {
        /// Observed worst violation, °C.
        observed_c: f64,
    },
    /// Total power (IT + cooling) over the Eq.-18 budget.
    PowerCap {
        /// Total draw, kW.
        total_kw: f64,
        /// The budget, kW.
        budget_kw: f64,
    },
    /// The active plan no longer matches the floor (dead nodes still
    /// carrying desired rates, a surge since the last replan, …).
    StalePlan,
    /// Observed demand drifted from the multiplier the active plan was
    /// solved for by more than the configured threshold.
    DemandDrift {
        /// Current arrival-rate multiplier.
        multiplier: f64,
        /// Multiplier the active plan was solved at.
        planned: f64,
    },
}

/// A degradation-ladder response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Action {
    /// Stage-3 replan on the surviving cores (P-states fixed — the paper's
    /// Section V.B rule for the rate-only subproblem).
    Replan,
    /// Surviving CRAC outlet set-points dropped.
    OutletDrop {
        /// Drop applied, °C.
        by_c: f64,
    },
    /// Emergency P-state throttle of the hottest nodes.
    Throttle {
        /// P-state deepening steps applied.
        steps: usize,
    },
    /// The lowest-reward task type was shed (its desired rates zeroed).
    ShedTaskType {
        /// Task type index.
        task_type: usize,
        /// Its per-task reward.
        reward: f64,
    },
    /// A full three-stage re-solve at the drifted demand (new outlets,
    /// P-states, and rates) — the scenario engine's answer to sustained
    /// demand drift, heavier than the Stage-3-only [`Action::Replan`].
    Stage1Replan,
}

/// One typed log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum EventKind {
    /// A scripted fault was injected.
    #[serde(content = "fault")]
    FaultInjected(Fault),
    /// A node shut itself down: its true inlet exceeded the redline by
    /// more than the trip margin (happens supervised or not).
    NodeTripped {
        /// Node index.
        node: usize,
        /// True inlet at the trip, °C.
        inlet_c: f64,
    },
    /// The room has no thermal steady state (every CRAC failed): all
    /// surviving nodes trip.
    NoSteadyState,
    /// The floor detected a violation.
    #[serde(content = "violation")]
    ViolationDetected(Violation),
    /// A degradation-ladder action was taken.
    #[serde(content = "action")]
    ActionTaken(Action),
    /// A replan attempt failed.
    ReplanFailed {
        /// 1-based attempt number within the current response.
        attempt: u32,
        /// The solver error, rendered.
        error: String,
    },
    /// The ladder could not restore health; the floor backs off and
    /// retries after the given number of epochs.
    Backoff {
        /// Epochs until the next response attempt.
        epochs: u32,
    },
    /// Health restored: the observed floor is back inside every
    /// constraint.
    Recovered {
        /// Observed redline margin after recovery (≤ 0), °C.
        margin_c: f64,
    },
}

/// A timestamped [`EventKind`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation time, seconds.
    pub at_s: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Default event capacity: far above what a horizon-bounded run
/// produces, small enough that a daemon holding one log per live run
/// stays bounded (~a few MB at worst-case event sizes).
pub const DEFAULT_LOG_CAPACITY: usize = 16_384;

/// The run's time-ordered event history — a **bounded ring**: once
/// `capacity` events are held, recording a new one evicts the oldest
/// and bumps [`dropped`](EventLog::dropped). A batch run over a fixed
/// horizon never comes near the default capacity; a long-running
/// daemon must not grow without bound, and the eviction rule is
/// deterministic, so crash-replayed logs stay bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventLog {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            events: Vec::new(),
            capacity: DEFAULT_LOG_CAPACITY,
            dropped: 0,
        }
    }
}

impl EventLog {
    /// Record an event, keeping the log time-ordered. Live appends carry
    /// non-decreasing timestamps, so this degenerates to a push; when
    /// entries are coalesced out of order — journal replay merging
    /// records from different epochs — the entry is inserted at its
    /// timestamp position (after existing entries with the same time, so
    /// same-instant causality is preserved).
    pub fn record(&mut self, at_s: f64, kind: EventKind) {
        // The log is the single chokepoint for detections,
        // ladder actions, trips, and recoveries — counting here gives the
        // obs layer a complete degradation-transition census for free.
        if thermaware_obs::enabled() {
            let counter = match &kind {
                EventKind::FaultInjected(_) => "runtime.faults_injected",
                EventKind::NodeTripped { .. } => "runtime.node_trips",
                EventKind::NoSteadyState => "runtime.no_steady_state",
                EventKind::ViolationDetected(Violation::Redline { .. }) => {
                    "runtime.violation.redline"
                }
                EventKind::ViolationDetected(Violation::PowerCap { .. }) => {
                    "runtime.violation.power_cap"
                }
                EventKind::ViolationDetected(Violation::StalePlan) => {
                    "runtime.violation.stale_plan"
                }
                EventKind::ViolationDetected(Violation::DemandDrift { .. }) => {
                    "runtime.violation.demand_drift"
                }
                EventKind::ActionTaken(Action::Replan) => "runtime.action.replan",
                EventKind::ActionTaken(Action::OutletDrop { .. }) => "runtime.action.outlet_drop",
                EventKind::ActionTaken(Action::Throttle { .. }) => "runtime.action.throttle",
                EventKind::ActionTaken(Action::ShedTaskType { .. }) => "runtime.action.shed",
                EventKind::ActionTaken(Action::Stage1Replan) => "runtime.action.stage1_replan",
                EventKind::ReplanFailed { .. } => "runtime.replan_failed",
                EventKind::Backoff { .. } => "runtime.backoffs",
                EventKind::Recovered { .. } => "runtime.recoveries",
            };
            thermaware_obs::counter_add(counter, 1);
            if let EventKind::ActionTaken(Action::Throttle { steps }) = &kind {
                thermaware_obs::counter_add("runtime.throttle_steps", *steps as u64);
            }
        }
        let evicted = self.insert_ordered(Event { at_s, kind });
        if evicted > 0 {
            thermaware_obs::counter_add("runtime.log_dropped", evicted);
        }
    }

    /// Ordered insert + ring eviction, shared by [`record`](Self::record)
    /// (which also counts evictions into obs) and deserialization (which
    /// must not — replaying a persisted log is not a live drop). Returns
    /// the number of events evicted.
    fn insert_ordered(&mut self, event: Event) -> u64 {
        let idx = self.events.partition_point(|e| e.at_s <= event.at_s);
        if idx == self.events.len() {
            self.events.push(event);
        } else {
            self.events.insert(idx, event);
        }
        let cap = self.capacity.max(1);
        let mut evicted = 0;
        while self.events.len() > cap {
            self.events.remove(0);
            self.dropped += 1;
            evicted += 1;
        }
        evicted
    }

    /// A log that keeps at most `capacity` events (clamped to ≥ 1),
    /// evicting the oldest beyond that.
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            events: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The ring bound: how many events are retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted by the ring bound over the log's whole life.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All events in time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Is every timestamp non-decreasing? (Always true by construction;
    /// used as a recovery invariant check on deserialized logs.)
    #[cfg(test)]
    pub fn is_time_ordered(&self) -> bool {
        self.events.windows(2).all(|w| w[0].at_s <= w[1].at_s)
    }

    /// Number of successful replans.
    pub fn replans(&self) -> usize {
        self.count(|k| matches!(k, EventKind::ActionTaken(Action::Replan)))
    }

    /// Number of task types shed.
    pub fn sheds(&self) -> usize {
        self.count(|k| matches!(k, EventKind::ActionTaken(Action::ShedTaskType { .. })))
    }

    /// Number of node thermal trips.
    pub fn trips(&self) -> usize {
        self.count(|k| matches!(k, EventKind::NodeTripped { .. }))
    }

    /// Number of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&EventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

impl fmt::Display for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "[{:8.2}s] {}", e.at_s, e.kind)?;
        }
        Ok(())
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::FaultInjected(fault) => write!(f, "fault injected: {fault:?}"),
            EventKind::NodeTripped { node, inlet_c } => {
                write!(f, "node {node} TRIPPED at inlet {inlet_c:.2} °C")
            }
            EventKind::NoSteadyState => {
                write!(f, "no thermal steady state (all CRACs down): floor lost")
            }
            EventKind::ViolationDetected(v) => match v {
                Violation::Redline { observed_c } => {
                    write!(f, "violation: observed redline breach {observed_c:+.2} °C")
                }
                Violation::PowerCap { total_kw, budget_kw } => {
                    write!(f, "violation: power {total_kw:.1} kW over budget {budget_kw:.1} kW")
                }
                Violation::StalePlan => write!(f, "violation: plan is stale"),
                Violation::DemandDrift { multiplier, planned } => {
                    write!(
                        f,
                        "violation: demand at {multiplier:.2}x drifted from planned {planned:.2}x"
                    )
                }
            },
            EventKind::ActionTaken(a) => match a {
                Action::Replan => write!(f, "action: Stage-3 replan on surviving cores"),
                Action::OutletDrop { by_c } => {
                    write!(f, "action: CRAC outlet set-points dropped {by_c:.1} °C")
                }
                Action::Throttle { steps } => {
                    write!(f, "action: emergency throttle ({steps} P-state steps)")
                }
                Action::ShedTaskType { task_type, reward } => {
                    write!(f, "action: shed task type {task_type} (reward {reward:.2})")
                }
                Action::Stage1Replan => {
                    write!(f, "action: full three-stage replan at drifted demand")
                }
            },
            EventKind::ReplanFailed { attempt, error } => {
                write!(f, "replan attempt {attempt} failed: {error}")
            }
            EventKind::Backoff { epochs } => {
                write!(f, "ladder exhausted: backing off {epochs} epoch(s)")
            }
            EventKind::Recovered { margin_c } => {
                write!(f, "recovered: observed redline margin {margin_c:+.2} °C")
            }
        }
    }
}

// By hand: a log read from disk is rebuilt through the ordered insert,
// so it is time-ordered and inside its ring bound even if the stored
// array was not.
impl Deserialize for EventLog {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        let (mut events, mut capacity, mut dropped) = (None, None, None);
        src.object(|src, key| match key {
            "events" => src.first(&mut events, Vec::<Event>::deserialize),
            "capacity" => src.first(&mut capacity, Source::try_read::<usize>),
            "dropped" => src.first(&mut dropped, Source::try_read::<u64>),
            _ => src.skip(),
        })?;
        let events = events.ok_or_else(|| serde::Error::missing_field("events"))?;
        // `capacity`/`dropped` are absent from logs written before the
        // ring bound existed; default them — and a value of the wrong
        // type — rather than rejecting.
        let capacity = capacity.flatten().unwrap_or(DEFAULT_LOG_CAPACITY);
        let dropped = dropped.flatten().unwrap_or(0);
        let mut log = EventLog::with_capacity(capacity);
        // Rebuild through the ordered insert (a stored array may be out
        // of order) but *not* through `record`: replaying a persisted
        // log must not re-count its events into the obs registry.
        for e in events {
            if !e.at_s.is_finite() {
                return Err(serde::Error::custom("EventLog: non-finite timestamp"));
            }
            log.insert_ordered(e);
        }
        // Eviction during the rebuild (an over-capacity stored array)
        // would inflate `dropped`; the persisted count is authoritative.
        log.dropped = dropped;
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A meltdown floor observes `+inf` (no steady state exists); the
    /// events recording that must survive JSON — a `null` here once made
    /// every snapshot containing the log unreadable.
    #[test]
    fn non_finite_measurements_round_trip() {
        let mut log = EventLog::default();
        log.record(
            10.0,
            EventKind::ViolationDetected(Violation::Redline {
                observed_c: f64::INFINITY,
            }),
        );
        log.record(
            10.0,
            EventKind::ViolationDetected(Violation::PowerCap {
                total_kw: f64::INFINITY,
                budget_kw: 19.4,
            }),
        );
        log.record(
            11.0,
            EventKind::NodeTripped {
                node: 2,
                inlet_c: f64::INFINITY,
            },
        );
        log.record(
            12.0,
            EventKind::Recovered {
                margin_c: f64::NEG_INFINITY,
            },
        );
        let json = serde_json::to_string(&log).expect("encode");
        assert!(json.contains("\"inf\""), "non-finite encoded as a string");
        let back: EventLog = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, log);
        // Byte-stable re-encode: the journal's state CRC stays defined.
        assert_eq!(serde_json::to_string(&back).expect("re-encode"), json);
    }

    #[test]
    fn counting_helpers() {
        let mut log = EventLog::default();
        log.record(0.0, EventKind::ActionTaken(Action::Replan));
        log.record(1.0, EventKind::ActionTaken(Action::Throttle { steps: 3 }));
        log.record(
            2.0,
            EventKind::ActionTaken(Action::ShedTaskType {
                task_type: 4,
                reward: 1.5,
            }),
        );
        log.record(
            2.0,
            EventKind::NodeTripped {
                node: 0,
                inlet_c: 29.0,
            },
        );
        assert_eq!(log.replans(), 1);
        assert_eq!(log.sheds(), 1);
        assert_eq!(log.trips(), 1);
        assert_eq!(log.events().len(), 4);
        let text = log.to_string();
        assert!(text.contains("TRIPPED"));
        assert!(text.contains("shed task type 4"));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::with_capacity(3);
        for i in 0..5 {
            log.record(i as f64, EventKind::Backoff { epochs: i });
        }
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.capacity(), 3);
        // Oldest evicted first: the survivors are the three newest.
        let kept: Vec<f64> = log.events().iter().map(|e| e.at_s).collect();
        assert_eq!(kept, vec![2.0, 3.0, 4.0]);
        assert!(log.is_time_ordered());
    }

    #[test]
    fn ring_state_round_trips_byte_identically() {
        let mut log = EventLog::with_capacity(2);
        for i in 0..4 {
            log.record(i as f64, EventKind::ActionTaken(Action::Replan));
        }
        assert_eq!(log.dropped(), 2);
        let json = serde_json::to_string(&log).expect("encode");
        let back: EventLog = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, log);
        assert_eq!(back.capacity(), 2);
        assert_eq!(back.dropped(), 2);
        // Byte-stable re-encode: snapshot/journal CRCs over states that
        // embed a log stay well-defined across a save/load cycle.
        assert_eq!(serde_json::to_string(&back).expect("re-encode"), json);
    }

    /// Logs persisted before the ring bound existed have no
    /// `capacity`/`dropped` fields; they must still load, with defaults.
    #[test]
    fn legacy_log_without_ring_fields_parses() {
        let mut log = EventLog::default();
        log.record(1.0, EventKind::NoSteadyState);
        let full = serde_json::to_string(&log).expect("encode");
        let legacy = full
            .replace(&format!(",\"capacity\":{DEFAULT_LOG_CAPACITY}"), "")
            .replace(",\"dropped\":0", "");
        assert!(!legacy.contains("capacity"), "stripped: {legacy}");
        let back: EventLog = serde_json::from_str(&legacy).expect("decode");
        assert_eq!(back, log);
        assert_eq!(back.capacity(), DEFAULT_LOG_CAPACITY);
        assert_eq!(back.dropped(), 0);
    }
}
