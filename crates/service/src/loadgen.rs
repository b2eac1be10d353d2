//! The load generator: open-loop-paced client fleets with optional
//! client-side chaos (mid-request disconnects, malformed frames,
//! slow-loris dribble), plus the post-resume verify mode the CI kill
//! drill uses to prove no acked batch was lost.
//!
//! Ids are globally unique: `run-nonce ⊕ client ⊕ sequence` packed
//! into a u64, so a verify pass after a daemon restart can resubmit an
//! earlier run's ids and read the `duplicate` flag as ground truth.

use crate::proto::{Batch, RejectReason, Request, Response};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// The offered-load shape (constant/diurnal/surge, `rate_at`, `parse`)
// lives in `thermaware_workload::Curve`, shared with the plan-side
// scenario engine so client load and solver demand can never drift
// apart. Import it from there; this module only consumes it.
use thermaware_workload::Curve;

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon socket.
    pub socket: PathBuf,
    /// Offered-load shape.
    pub schedule: Curve,
    /// Run length, seconds.
    pub duration_s: f64,
    /// Client connections (each its own thread).
    pub connections: usize,
    /// Tasks per batch.
    pub batch_tasks: usize,
    /// Task-type universe to draw from (round-robin).
    pub task_types: usize,
    /// Per-request admission budget, ms (None = unlimited).
    pub budget_ms: Option<u64>,
    /// Probability of dropping the socket right after a send, without
    /// reading the ack (the batch lands in `unacked_ids`).
    pub disconnect_rate: f64,
    /// Probability of sending a garbage frame instead of a request.
    pub malformed_rate: f64,
    /// Probability of dribbling a request: half the line, a hold, the
    /// rest (exercises the server's partial-frame path).
    pub slowloris_rate: f64,
    /// Dribble hold, ms. Above the server's read timeout this becomes
    /// a true slow-loris and the server drops the connection.
    pub slowloris_hold_ms: u64,
    /// Chaos RNG seed; also salts the id-space nonce.
    pub seed: u64,
}

impl LoadgenConfig {
    /// Defaults: constant 200 batches/s, 10 s, 16 connections, 32-task
    /// batches over 3 types, no budget, no chaos.
    pub fn new(socket: impl Into<PathBuf>) -> LoadgenConfig {
        LoadgenConfig {
            socket: socket.into(),
            schedule: Curve::Constant { rate: 200.0 },
            duration_s: 10.0,
            connections: 16,
            batch_tasks: 32,
            task_types: 3,
            budget_ms: None,
            disconnect_rate: 0.0,
            malformed_rate: 0.0,
            slowloris_rate: 0.0,
            slowloris_hold_ms: 20,
            seed: 1,
        }
    }
}

/// What a run observed, written as the report JSON artifact.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Wall seconds the run actually took.
    pub duration_s: f64,
    /// Batches sent (acked or not).
    pub sent_batches: u64,
    /// Tasks across all sent batches.
    pub sent_tasks: u64,
    /// Batches acked `accepted` (first time).
    pub acked: u64,
    /// Batches acked `accepted` with `duplicate = true`.
    pub duplicates: u64,
    /// `rejected(queue_full)` answers.
    pub rejected_queue_full: u64,
    /// `rejected(budget_expired)` answers.
    pub rejected_budget: u64,
    /// Other rejections.
    pub rejected_other: u64,
    /// `error` answers (malformed frames earn these by design).
    pub protocol_errors: u64,
    /// Socket-level failures and reconnects.
    pub io_errors: u64,
    /// Admission latency p50, ms (submit → ack, acked batches only).
    pub latency_p50_ms: f64,
    /// Admission latency p99, ms.
    pub latency_p99_ms: f64,
    /// Worst admission latency, ms.
    pub latency_max_ms: f64,
    /// Acked batch ids, in ack order: the exactly-once ledger a
    /// verify pass replays against the resumed daemon.
    #[serde(with = "serde::Hex")]
    pub acked_ids: Vec<u64>,
    /// Ids sent but never acked (chaos disconnects, shutdown races):
    /// the daemon may or may not have admitted them, so a verify pass
    /// accepts either answer.
    #[serde(with = "serde::Hex")]
    pub unacked_ids: Vec<u64>,
}

/// Per-worker tally merged into the final report.
#[derive(Debug, Default)]
struct WorkerTally {
    report: LoadReport,
    latencies_ms: Vec<f64>,
}

/// Outcome of [`verify`]: resubmission answers for an earlier run's id
/// ledger.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    /// Acked ids rechecked.
    pub checked: usize,
    /// Acked ids the daemon did **not** recognize as duplicates —
    /// admitted work that was lost. Must be empty.
    pub lost_ids: Vec<String>,
    /// Unacked ids that turned out to have been admitted pre-kill.
    pub unacked_admitted: usize,
    /// Unacked ids admitted fresh by the resubmission.
    pub unacked_fresh: usize,
}

/// A tiny splitmix RNG — the vendored `rand` is not needed for the
/// loadgen's chaos coin flips and keeps the binary dependency-light.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &std::path::Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(line.trim_end())
            .map_err(|e| std::io::Error::other(format!("bad response: {e}")))
    }

    fn round_trip(&mut self, request: &Request) -> std::io::Result<Response> {
        let json = serde_json::to_string(request)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        self.send_line(&json)?;
        self.read_response()
    }
}

/// Pack (nonce, client, sequence) into a globally unique batch id.
fn pack_id(nonce: u16, client: usize, seq: u64) -> u64 {
    ((nonce as u64) << 48) | ((client as u64 & 0xff) << 40) | (seq & 0xff_ffff_ffff)
}

/// Round-robin the batch's tasks across the type universe.
fn make_batch(id: u64, seq: u64, batch_tasks: usize, task_types: usize) -> Batch {
    let t = (seq as usize) % task_types.max(1);
    Batch {
        id,
        tasks: vec![(t, batch_tasks)],
    }
}

/// Drive the configured load at the daemon and collect the report.
/// Worker panics are converted into io_errors, not propagated — a
/// chaos run must end with a report.
pub fn run(cfg: &LoadgenConfig) -> LoadReport {
    let nonce = (hash64(cfg.seed) >> 48) as u16;
    let started = Instant::now();
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|client| {
                let cfg = cfg.clone();
                scope.spawn(move || worker(&cfg, client, nonce))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut t = WorkerTally::default();
                    t.report.io_errors += 1;
                    t
                })
            })
            .collect()
    });
    let mut merged = LoadReport::default();
    let mut latencies: Vec<f64> = Vec::new();
    for t in tallies {
        merged.sent_batches += t.report.sent_batches;
        merged.sent_tasks += t.report.sent_tasks;
        merged.acked += t.report.acked;
        merged.duplicates += t.report.duplicates;
        merged.rejected_queue_full += t.report.rejected_queue_full;
        merged.rejected_budget += t.report.rejected_budget;
        merged.rejected_other += t.report.rejected_other;
        merged.protocol_errors += t.report.protocol_errors;
        merged.io_errors += t.report.io_errors;
        merged.acked_ids.extend(t.report.acked_ids);
        merged.unacked_ids.extend(t.report.unacked_ids);
        latencies.extend(t.latencies_ms);
    }
    merged.duration_s = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    merged.latency_p50_ms = percentile(&latencies, 0.50);
    merged.latency_p99_ms = percentile(&latencies, 0.99);
    merged.latency_max_ms = latencies.last().copied().unwrap_or(0.0);
    merged
}

fn worker(cfg: &LoadgenConfig, client_idx: usize, nonce: u16) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let mut rng = Rng(hash64(cfg.seed ^ (client_idx as u64) << 17));
    let mut client = match Client::connect(&cfg.socket) {
        Ok(c) => c,
        Err(_) => {
            tally.report.io_errors += 1;
            return tally;
        }
    };
    let start = Instant::now();
    let mut seq: u64 = 0;
    loop {
        let t = start.elapsed().as_secs_f64();
        if t >= cfg.duration_s {
            break;
        }
        let rate = cfg.schedule.rate_at(t).max(0.001);
        let interval = Duration::from_secs_f64(cfg.connections.max(1) as f64 / rate);
        let id = pack_id(nonce, client_idx, seq);
        let batch = make_batch(id, seq, cfg.batch_tasks, cfg.task_types);
        seq += 1;
        let request = Request::Submit {
            batch: batch.clone(),
            budget_ms: cfg.budget_ms,
        };
        tally.report.sent_batches += 1;
        tally.report.sent_tasks += batch.total_tasks() as u64;

        let roll = rng.next_f64();
        let sent_at = Instant::now();
        let outcome: Option<std::io::Result<Response>> = if roll < cfg.malformed_rate {
            // Garbage frame instead of the request; the batch itself is
            // not sent, so it is neither acked nor in doubt.
            tally.report.sent_batches -= 1;
            tally.report.sent_tasks -= batch.total_tasks() as u64;
            Some(
                client
                    .send_line("{\"kind\": \"submit\", \"batch\": 42}")
                    .and_then(|()| client.read_response()),
            )
        } else if roll < cfg.malformed_rate + cfg.disconnect_rate {
            // Fire and cut the socket: ack lost, admission unknown.
            let json = serde_json::to_string(&request)
                .unwrap_or_default();
            let sent = client.send_line(&json);
            tally.report.unacked_ids.push(id);
            match Client::connect(&cfg.socket) {
                Ok(fresh) => client = fresh,
                Err(_) => {
                    tally.report.io_errors += 1;
                    break;
                }
            }
            if sent.is_err() {
                tally.report.io_errors += 1;
            }
            None
        } else if roll < cfg.malformed_rate + cfg.disconnect_rate + cfg.slowloris_rate {
            // Dribble: half the frame, hold, the rest.
            let json = serde_json::to_string(&request)
                .unwrap_or_default();
            let mid = json.len() / 2;
            let dribble = client
                .writer
                .write_all(json.as_bytes().get(..mid).unwrap_or_default())
                .and_then(|()| {
                    std::thread::sleep(Duration::from_millis(cfg.slowloris_hold_ms));
                    client
                        .writer
                        .write_all(json.as_bytes().get(mid..).unwrap_or_default())
                })
                .and_then(|()| client.writer.write_all(b"\n"))
                .and_then(|()| client.read_response());
            Some(dribble)
        } else {
            Some(client.round_trip(&request))
        };

        match outcome {
            None => {}
            Some(Ok(response)) => {
                record_response(&mut tally, id, &response, sent_at.elapsed());
            }
            Some(Err(_)) => {
                // The request may have reached the daemon before the
                // failure: in doubt, like a disconnect.
                tally.report.io_errors += 1;
                tally.report.unacked_ids.push(id);
                match Client::connect(&cfg.socket) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }

        if let Some(sleep) = interval.checked_sub(sent_at.elapsed()) {
            std::thread::sleep(sleep);
        }
    }
    tally
}

fn record_response(tally: &mut WorkerTally, id: u64, response: &Response, took: Duration) {
    match response {
        Response::Accepted { duplicate, .. } => {
            if *duplicate {
                tally.report.duplicates += 1;
            } else {
                tally.report.acked += 1;
            }
            tally.report.acked_ids.push(id);
            tally.latencies_ms.push(took.as_secs_f64() * 1_000.0);
        }
        Response::Rejected { reason, .. } => match reason {
            RejectReason::QueueFull => tally.report.rejected_queue_full += 1,
            RejectReason::BudgetExpired => tally.report.rejected_budget += 1,
            _ => tally.report.rejected_other += 1,
        },
        Response::Error { .. } => tally.report.protocol_errors += 1,
        Response::ShuttingDown => tally.report.io_errors += 1,
        _ => tally.report.rejected_other += 1,
    }
}

/// Send one request and return the daemon's answer (a drill's probe:
/// a `fault`, a `stats`).
pub fn request(socket: &std::path::Path, request: &Request) -> std::io::Result<Response> {
    Client::connect(socket)?.round_trip(request)
}

/// Replay an earlier run's id ledger against a (resumed) daemon.
///
/// Every acked id inside `window` (the most recent ones — the daemon's
/// dedup window is bounded, so arbitrarily old ids legitimately age
/// out) must answer `duplicate = true`; one that answers fresh was
/// admitted work the daemon lost. Unacked ids may answer either way.
pub fn verify(
    socket: &std::path::Path,
    report: &LoadReport,
    connections: usize,
    window: usize,
) -> std::io::Result<VerifyOutcome> {
    let tail_start = report.acked_ids.len().saturating_sub(window);
    let acked = &report.acked_ids[tail_start..];
    let unacked = &report.unacked_ids;
    let shards = connections.max(1);
    let outcomes: Vec<std::io::Result<VerifyOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let acked: Vec<u64> = acked
                    .iter()
                    .copied()
                    .skip(shard)
                    .step_by(shards)
                    .collect();
                let unacked: Vec<u64> = unacked
                    .iter()
                    .copied()
                    .skip(shard)
                    .step_by(shards)
                    .collect();
                scope.spawn(move || verify_shard(socket, &acked, &unacked))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("verify worker panicked")))
            })
            .collect()
    });
    let mut merged = VerifyOutcome::default();
    for outcome in outcomes {
        let o = outcome?;
        merged.checked += o.checked;
        merged.lost_ids.extend(o.lost_ids);
        merged.unacked_admitted += o.unacked_admitted;
        merged.unacked_fresh += o.unacked_fresh;
    }
    Ok(merged)
}

fn verify_shard(
    socket: &std::path::Path,
    acked: &[u64],
    unacked: &[u64],
) -> std::io::Result<VerifyOutcome> {
    let mut out = VerifyOutcome::default();
    let mut client = Client::connect(socket)?;
    for &id in acked {
        let probe = Request::Submit {
            batch: Batch { id, tasks: Vec::new() },
            budget_ms: None,
        };
        match client.round_trip(&probe)? {
            Response::Accepted { duplicate: true, .. } => out.checked += 1,
            Response::Accepted { duplicate: false, .. } => {
                out.checked += 1;
                out.lost_ids.push(format!("{id:016x}"));
            }
            other => {
                return Err(std::io::Error::other(format!(
                    "verify probe for {id:016x} got unexpected answer: {other:?}"
                )))
            }
        }
    }
    for &id in unacked {
        let probe = Request::Submit {
            batch: Batch { id, tasks: Vec::new() },
            budget_ms: None,
        };
        match client.round_trip(&probe)? {
            Response::Accepted { duplicate: true, .. } => out.unacked_admitted += 1,
            Response::Accepted { duplicate: false, .. } => out.unacked_fresh += 1,
            other => {
                return Err(std::io::Error::other(format!(
                    "verify probe for {id:016x} got unexpected answer: {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Curve parsing/shape tests live with the type in
    // `thermaware_workload::curve` — this module only consumes it.

    #[test]
    fn ids_are_unique_across_clients_and_sequences() {
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..8 {
            for seq in 0..100 {
                assert!(seen.insert(pack_id(7, client, seq)));
            }
        }
    }

    #[test]
    fn load_report_round_trips() {
        let report = LoadReport {
            duration_s: 1.5,
            sent_batches: 10,
            acked: 8,
            acked_ids: vec![0x0007_0000_0000_00aa],
            unacked_ids: vec![0x0007_0000_0000_00ab],
            latency_p99_ms: 12.5,
            ..LoadReport::default()
        };
        let json = serde_json::to_string(&report).expect("encode");
        assert!(json.contains(r#""acked_ids":["00070000000000aa"],"unacked_ids":["00070000000000ab"]"#));
        let back: LoadReport = serde_json::from_str(&json).expect("decode");
        assert_eq!(back.acked, 8);
        assert_eq!(back.acked_ids, report.acked_ids);
        assert_eq!(back.latency_p99_ms, 12.5);
    }
}
