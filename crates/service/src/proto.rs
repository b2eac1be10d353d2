//! The wire protocol: line-delimited JSON over a Unix socket.
//!
//! One request per line, one response line per request, in order.
//! Batch ids are client-assigned `u64`s, encoded as 16-digit hex
//! strings (the workspace's seed convention) so the full range
//! survives the f64-backed JSON numbers. Example exchange:
//!
//! ```text
//! → {"type":"submit","id":"00000000000000a1","tasks":[[0,3],[2,1]],"budget_ms":500}
//! ← {"type":"accepted","id":"00000000000000a1","epoch":17,"duplicate":false}
//! → {"type":"submit","id":"00000000000000a2","tasks":[[0,64]]}
//! ← {"type":"rejected","id":"00000000000000a2","reason":"queue_full","retry_after_ms":120}
//! → {"type":"fault","fault":{"kind":"crac_failure","unit":0}}
//! ← {"type":"fault_accepted","epoch":18}
//! ```
//!
//! Any line that does not parse — oversize, torn, wrong types — gets a
//! single `error` response and the connection stays usable; a client
//! can be arbitrarily hostile without wedging the daemon.

use serde::{Deserialize, Serialize, Sink, Source};
use thermaware_runtime::Fault;

/// Longest request or response line the daemon will read, bytes. A
/// line that exceeds this is answered with an `error` response and
/// discarded — the cap is what makes a malicious writer's memory cost
/// bounded.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// One admission batch: a client-unique id and task counts by type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// Client-assigned unique id (the exactly-once key).
    #[serde(with = "serde::Hex")]
    pub id: u64,
    /// `(task_type, count)` pairs.
    pub tasks: Vec<(usize, usize)>,
}

impl Batch {
    /// Total tasks across all types.
    pub fn total_tasks(&self) -> usize {
        self.tasks.iter().map(|&(_, n)| n).sum()
    }

    /// Do the counts add up — without overflowing — to at most `max`
    /// tasks? The cap of the socket path, which replay applies again to
    /// a journal: the engine loops once per task, and a well-framed line
    /// can claim 2^63 of them.
    pub(crate) fn tasks_within(&self, max: usize) -> bool {
        self.tasks
            .iter()
            .try_fold(0usize, |sum, &(_, n)| sum.checked_add(n))
            .is_some_and(|total| total <= max)
    }

    /// Does every entry name one of a room's `n_task_types` types? The
    /// socket path rejects a batch that does not, and replay refuses a
    /// journal that holds one: the engine indexes by type unchecked.
    pub(crate) fn types_within(&self, n_task_types: usize) -> bool {
        self.tasks.iter().all(|&(t, _)| t < n_task_types)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a batch for admission. `budget_ms` is the client's
    /// deadline budget: if the daemon cannot journal the batch within
    /// it, the batch is rejected instead of served late.
    Submit {
        /// The batch.
        batch: Batch,
        /// Admission deadline budget, milliseconds (`None` = no limit).
        budget_ms: Option<u64>,
    },
    /// Fetch a point-in-time stats report.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to checkpoint and exit cleanly.
    Shutdown,
    /// A fault on the service's physical floor (a CRAC failing or coming
    /// back, a node dying, a sensor drifting), journaled with the next
    /// epoch and taken at its start.
    Fault {
        /// What happens.
        fault: Fault,
    },
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RejectReason {
    /// The bounded admission queue is full — retry after the hint.
    QueueFull,
    /// The request's deadline budget expired before the batch could be
    /// journaled.
    BudgetExpired,
    /// The batch exceeds the per-batch task cap.
    BatchTooLarge,
    /// A task type index outside the scenario's workload.
    UnknownTaskType,
}

/// Point-in-time service statistics (the `stats` response payload).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Epochs executed.
    pub epoch: usize,
    /// Simulation clock, seconds.
    pub now_s: f64,
    /// Batches admitted (acked, non-duplicate).
    pub admitted_batches: u64,
    /// Batches acked as duplicates (exactly-once hits).
    pub duplicate_batches: u64,
    /// Tasks dispatched onto a core.
    pub admitted_tasks: u64,
    /// Tasks refused by the admission check (no feasible core).
    pub dropped_tasks: u64,
    /// Tasks refused because their type is shed by the breaker ladder.
    pub shed_tasks: u64,
    /// Tasks completed by their deadline.
    pub completed_tasks: u64,
    /// Admitted tasks that finished late (violations).
    pub late_tasks: u64,
    /// Admitted tasks lost to core deaths (violations).
    pub lost_tasks: u64,
    /// Reward collected.
    pub reward: f64,
    /// Successful replans applied.
    pub replans: u64,
    /// Replan attempts that failed or timed out.
    pub replan_failures: u64,
    /// Times the breaker opened.
    pub breaker_opens: u64,
    /// Breaker state: `"closed"`, `"open"`, or `"half_open"`.
    pub breaker: String,
    /// Task types currently shed.
    pub shed_types: usize,
    /// Mean core backlog, seconds (the retry-after basis).
    pub backlog_s: f64,
    /// Event-log entries evicted by the ring bound.
    pub log_dropped: u64,
    /// The physical floor, when the service stands on one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub floor: Option<FloorStats>,
}

/// The physical floor in a stats report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FloorStats {
    /// CRAC units failed.
    pub failed_cracs: usize,
    /// Nodes dead (faults and thermal trips).
    pub dead_nodes: usize,
    /// Observed-minus-true inlet sensor bias, °C.
    pub bias_c: f64,
    /// The last assessment found the floor inside every constraint.
    pub healthy: bool,
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// The batch is journaled durably and will enter epoch `epoch`.
    /// `duplicate` means the id was already admitted — the batch was
    /// acked again but will not dispatch twice.
    Accepted {
        /// Echoed batch id.
        #[serde(with = "serde::Hex")]
        id: u64,
        /// Epoch the batch enters (or entered, for duplicates).
        epoch: usize,
        /// Exactly-once: this id was already admitted.
        duplicate: bool,
    },
    /// The batch was refused; nothing was journaled.
    Rejected {
        /// Echoed batch id.
        #[serde(with = "serde::Hex")]
        id: u64,
        /// Why.
        reason: RejectReason,
        /// Backpressure hint: when a retry is likely to succeed.
        retry_after_ms: u64,
    },
    /// Stats payload.
    #[serde(content = "report")]
    Stats(StatsReport),
    /// Liveness reply.
    Pong,
    /// The daemon acknowledges the shutdown request.
    ShuttingDown,
    /// The fault is journaled durably and was taken at the start of
    /// epoch `epoch`.
    FaultAccepted {
        /// Epoch the fault entered.
        epoch: usize,
    },
    /// The request line could not be served (parse error, oversize).
    Error {
        /// What was wrong.
        message: String,
    },
}

// By hand: `submit` inlines its batch's `id` and `tasks` beside the tag
// and leaves `budget_ms` out when there is none.
impl Serialize for Request {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.key("type");
        match self {
            Request::Submit { batch, budget_ms } => {
                sink.string("submit");
                sink.key("id");
                serde::Hex::serialize(&batch.id, sink);
                sink.key("tasks");
                batch.tasks.serialize(sink);
                if let Some(ms) = budget_ms {
                    sink.key("budget_ms");
                    ms.serialize(sink);
                }
            }
            Request::Stats => sink.string("stats"),
            Request::Ping => sink.string("ping"),
            Request::Shutdown => sink.string("shutdown"),
            Request::Fault { fault } => {
                sink.string("fault");
                sink.key("fault");
                fault.serialize(sink);
            }
        }
        sink.end_object();
    }
}

impl Deserialize for Request {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        let kind: String = src.find("type")?.ok_or_else(|| serde::Error::missing_field("type"))?;
        let request = match kind.as_str() {
            "submit" => {
                let (mut id, mut tasks, mut budget_ms) = (None, None, None);
                src.object(|src, key| match key {
                    "id" => src.first(&mut id, <u64 as serde::Hex>::deserialize),
                    "tasks" => src.first(&mut tasks, Vec::deserialize),
                    // A budget of the wrong type is no budget.
                    "budget_ms" => src.first(&mut budget_ms, Source::try_read::<u64>),
                    _ => src.skip(),
                })?;
                let id = id.ok_or_else(|| serde::Error::missing_field("id"))?;
                let tasks = tasks.ok_or_else(|| serde::Error::missing_field("tasks"))?;
                return Ok(Request::Submit { batch: Batch { id, tasks }, budget_ms: budget_ms.flatten() });
            }
            "stats" => Request::Stats,
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            "fault" => {
                let mut fault = None;
                src.object(|src, key| match key {
                    "fault" => src.first(&mut fault, Fault::deserialize),
                    _ => src.skip(),
                })?;
                return Ok(Request::Fault { fault: fault.ok_or_else(|| serde::Error::missing_field("fault"))? });
            }
            other => return Err(serde::Error::custom(format!("Request: unknown type '{other}'"))),
        };
        src.skip()?;
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit {
                batch: Batch { id: u64::MAX, tasks: vec![(0, 3), (2, 1)] },
                budget_ms: Some(500),
            },
            Request::Submit {
                batch: Batch { id: 7, tasks: Vec::new() },
                budget_ms: None,
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
            Request::Fault { fault: Fault::CracFailure { unit: 1 } },
            Request::Fault { fault: Fault::SensorDrift { bias_c: -2.5 } },
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).expect("encode");
            let back: Request = serde_json::from_str(&json).expect("decode");
            assert_eq!(back, r, "via {json}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Accepted { id: 0xdead_beef_dead_beef, epoch: 42, duplicate: true },
            Response::Rejected {
                id: 1,
                reason: RejectReason::QueueFull,
                retry_after_ms: 120,
            },
            Response::Stats(StatsReport { epoch: 9, reward: 12.5, ..StatsReport::default() }),
            Response::Pong,
            Response::ShuttingDown,
            Response::FaultAccepted { epoch: 3 },
            Response::Stats(StatsReport {
                floor: Some(FloorStats { failed_cracs: 1, dead_nodes: 2, bias_c: 0.5, healthy: true }),
                ..StatsReport::default()
            }),
            Response::Error { message: "line too long".to_string() },
        ];
        for r in resps {
            let json = serde_json::to_string(&r).expect("encode");
            let back: Response = serde_json::from_str(&json).expect("decode");
            assert_eq!(back, r, "via {json}");
        }
    }

    #[test]
    fn full_range_ids_survive_json() {
        for id in [0, 1, 1u64 << 53, u64::MAX] {
            let r = Request::Submit {
                batch: Batch { id, tasks: vec![(0, 1)] },
                budget_ms: None,
            };
            let json = serde_json::to_string(&r).expect("encode");
            match serde_json::from_str(&json).expect("decode") {
                Request::Submit { batch, .. } => assert_eq!(batch.id, id),
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }
}
