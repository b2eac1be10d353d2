//! The live shell: Unix-socket listener, bounded admission queue,
//! wall-clock epoch loop, and the solver thread with its timeout.
//!
//! Everything nondeterministic happens here and is reified before it
//! touches the engine: a solve's outcome (finished / timed out /
//! failed) becomes a [`ReplanVerdict`] journaled in the epoch's Begin
//! record, and the batches and floor faults drained from their queues
//! are journaled in the same record — so the engine step that follows
//! is replayable from the journal alone. A fault is checked at the
//! socket against the floor ([`Floor::accepts`]) and acknowledged, like
//! a batch, only once its Begin record is fsynced.
//!
//! ## Overload behavior, outermost layer first
//!
//! 1. **Slow-loris / oversize frames** — per-connection read timeout
//!    and a hard line-length cap ([`crate::proto::MAX_LINE_BYTES`]);
//!    offenders get an `error` response and the socket is dropped.
//! 2. **Bounded queue** — `try_send` into a `sync_channel`; a full
//!    queue answers `rejected(queue_full)` with a `retry_after_ms`
//!    hint derived from the current dispatch backlog. The daemon never
//!    buffers unbounded work.
//! 3. **Deadline budgets** — a batch whose `budget_ms` elapsed while
//!    queued is rejected at drain time, before journaling: serving it
//!    late would be worse than telling the client promptly.
//! 4. **Solve timeout** — a replan that outruns its wall-clock budget
//!    is abandoned (verdict `TimedOut`); the epoch proceeds on the
//!    previous plan, and a stale result arriving later is discarded by
//!    generation check.
//! 5. **Circuit breaker** — consecutive solve failures open it; see
//!    [`crate::breaker`].

use crate::breaker::BreakerState;
use crate::engine::{ReplanVerdict, ServiceEngine};
use crate::proto::{Batch, FloorStats, RejectReason, Request, Response, StatsReport, MAX_LINE_BYTES};
use crate::store::ServiceStore;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use thermaware_core::stage3::Stage3Basis;
use thermaware_core::Solver;
use thermaware_datacenter::DataCenter;
use thermaware_runtime::persist::json_crc_only;
use thermaware_runtime::{Fault, Floor};

/// Wall-clock knobs for the live shell (deterministic policy lives in
/// [`crate::engine::ServiceConfig`]).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Wall milliseconds per epoch tick.
    pub epoch_wall_ms: u64,
    /// Bounded admission queue capacity, batches.
    pub queue_capacity: usize,
    /// Wall-clock budget for one replan solve before it is abandoned.
    pub solve_timeout_ms: u64,
    /// Per-connection read timeout (slow-loris defense).
    pub read_timeout_ms: u64,
    /// Probability a finished solve is replaced with an injected
    /// failure (chaos testing the breaker path; 0 = off).
    pub chaos_solver_rate: f64,
    /// Chaos RNG seed.
    pub chaos_seed: u64,
    /// Stop after this many epochs (None = run until shutdown).
    pub max_epochs: Option<usize>,
}

impl DaemonConfig {
    /// Defaults: 50 ms epochs, 256-batch queue, 2 s solve timeout, 5 s
    /// read timeout, no chaos.
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            epoch_wall_ms: 50,
            queue_capacity: 256,
            solve_timeout_ms: 2_000,
            read_timeout_ms: 5_000,
            chaos_solver_rate: 0.0,
            chaos_seed: 0,
            max_epochs: None,
        }
    }
}

/// What the daemon did, returned when the epoch loop exits.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Epochs executed in this process (resume not counted).
    pub epochs_run: usize,
    /// Final stats snapshot.
    pub stats: StatsReport,
}

/// A queued submit awaiting the epoch loop.
struct Pending {
    batch: Batch,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Response>,
}

/// A fault awaiting the epoch loop.
struct PendingFault {
    fault: Fault,
    reply: mpsc::Sender<Response>,
}

/// State shared between connection threads and the epoch loop.
struct Shared {
    stop: AtomicBool,
    /// Backpressure hint served with queue-full rejections.
    retry_after_ms: AtomicU64,
    stats: Mutex<StatsReport>,
    /// Static admission limits (safe to check off-thread).
    max_batch_tasks: usize,
    n_task_types: usize,
    /// The floor as the daemon started on it: what a fault may name
    /// (`None`: the service has no floor to fault).
    floor: Option<Floor>,
}

/// A replan job for the solver thread.
struct SolveJob {
    generation: u64,
    dc: DataCenter,
    pstates: Vec<usize>,
    warm: Option<Stage3Basis>,
}

/// What the solver thread sends back.
struct SolveDone {
    generation: u64,
    verdict: ReplanVerdict,
    basis: Option<Stage3Basis>,
}

/// Run the daemon until shutdown (socket request, `max_epochs`, or an
/// unrecoverable store error). Consumes the engine and store; the
/// caller creates them fresh or via [`crate::store::resume_service`].
pub fn run_daemon(
    cfg: &DaemonConfig,
    mut engine: ServiceEngine,
    mut store: ServiceStore,
    trace: Option<&thermaware_obs::JsonlRecorder>,
) -> Result<DaemonReport, std::io::Error> {
    // A stale socket file from a killed process would make bind fail.
    match std::fs::remove_file(&cfg.socket) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(&cfg.socket)?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        retry_after_ms: AtomicU64::new(cfg.epoch_wall_ms.max(1)),
        stats: Mutex::new(stats_of(&engine)),
        max_batch_tasks: engine.config().max_batch_tasks,
        n_task_types: engine.dc().n_task_types(),
        floor: engine.state().floor.clone(),
    });
    let (queue_tx, queue_rx) = mpsc::sync_channel::<Pending>(cfg.queue_capacity.max(1));
    let (fault_tx, fault_rx) = mpsc::sync_channel::<PendingFault>(cfg.queue_capacity.max(1));
    let (job_tx, job_rx) = mpsc::sync_channel::<SolveJob>(1);
    let (done_tx, done_rx) = mpsc::channel::<SolveDone>();

    let mut report = DaemonReport {
        epochs_run: 0,
        stats: stats_of(&engine),
    };
    let mut loop_result: Result<(), std::io::Error> = Ok(());

    std::thread::scope(|scope| {
        // ---- Solver thread ------------------------------------------------
        let chaos_rate = cfg.chaos_solver_rate;
        let chaos_seed = cfg.chaos_seed;
        scope.spawn(move || {
            while let Ok(job) = job_rx.recv() {
                let solved = Solver::new(&job.dc).stage3_replan(&job.pstates, job.warm.as_ref());
                let (verdict, basis) = match solved {
                    Ok((stage3, basis)) => {
                        if chaos_roll(chaos_seed, job.generation) < chaos_rate {
                            (
                                ReplanVerdict::Failed {
                                    error: "chaos: injected solver failure".to_string(),
                                },
                                None,
                            )
                        } else {
                            (ReplanVerdict::Ok { stage3 }, basis)
                        }
                    }
                    Err(e) => (ReplanVerdict::Failed { error: e.to_string() }, None),
                };
                if done_tx
                    .send(SolveDone {
                        generation: job.generation,
                        verdict,
                        basis,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });

        // ---- Listener + connection threads --------------------------------
        let accept_shared = Arc::clone(&shared);
        let accept_tx = queue_tx.clone();
        let accept_faults = fault_tx.clone();
        let read_timeout = Duration::from_millis(cfg.read_timeout_ms.max(1));
        scope.spawn(move || {
            loop {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn_shared = Arc::clone(&accept_shared);
                        let conn_tx = accept_tx.clone();
                        let conn_faults = accept_faults.clone();
                        scope.spawn(move || {
                            serve_connection(stream, read_timeout, &conn_shared, &conn_tx, &conn_faults);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        drop(queue_tx); // epoch loop's rx must see disconnect at shutdown
        drop(fault_tx);

        // ---- Epoch loop (this thread) -------------------------------------
        let epoch_wall = Duration::from_millis(cfg.epoch_wall_ms.max(1));
        let solve_timeout = Duration::from_millis(cfg.solve_timeout_ms.max(1));
        let mut generation: u64 = 0;
        let mut inflight: Option<(u64, Instant)> = None;
        let mut warm_basis: Option<Stage3Basis> = None;
        let mut breaker_prev = engine.state().breaker.state;

        loop {
            let tick_start = Instant::now();

            // Drain the queue: reject expired budgets, keep the rest.
            let mut pending: Vec<Pending> = Vec::new();
            while let Ok(p) = queue_rx.try_recv() {
                if p.deadline.is_some_and(|d| Instant::now() > d) {
                    let _ = p.reply.send(Response::Rejected {
                        id: p.batch.id,
                        reason: RejectReason::BudgetExpired,
                        retry_after_ms: 0,
                    });
                    thermaware_obs::counter_add("service.budget_expired", 1);
                    continue;
                }
                pending.push(p);
            }
            let faults: Vec<PendingFault> = fault_rx.try_iter().collect();

            // Reify the solve outcome for this epoch.
            let mut verdict = ReplanVerdict::NotAttempted;
            while let Ok(done) = done_rx.try_recv() {
                match inflight {
                    Some((gen, _)) if gen == done.generation => {
                        inflight = None;
                        if let ReplanVerdict::Ok { .. } = done.verdict {
                            warm_basis = done.basis;
                        }
                        verdict = done.verdict;
                    }
                    // Stale result from an abandoned (timed-out) solve.
                    _ => thermaware_obs::counter_add("service.stale_solves", 1),
                }
            }
            if let Some((_, started)) = inflight {
                if started.elapsed() > solve_timeout {
                    inflight = None;
                    verdict = ReplanVerdict::TimedOut;
                    thermaware_obs::counter_add("service.solve_timeouts", 1);
                }
            }

            // Journal (fsynced) → step → ack. The fsync-before-ack
            // barrier is the exactly-once guarantee.
            let epoch = engine.state().epoch;
            let batches: Vec<Batch> = pending.iter().map(|p| p.batch.clone()).collect();
            let fault_list: Vec<Fault> = faults.iter().map(|p| p.fault).collect();
            if let Err(e) = store.append_begin_with(epoch, &batches, &fault_list, &verdict) {
                loop_result = Err(std::io::Error::other(e.to_string()));
                break;
            }
            let step = engine.step_with(&batches, &fault_list, &verdict);
            for p in &faults {
                let _ = p.reply.send(Response::FaultAccepted { epoch });
            }
            for (p, outcome) in pending.iter().zip(step.batches.iter()) {
                let _ = p.reply.send(Response::Accepted {
                    id: outcome.id,
                    epoch,
                    duplicate: outcome.duplicate,
                });
            }
            let crc = json_crc_only(engine.state());
            if let Err(e) = store.append_commit(epoch, crc) {
                loop_result = Err(std::io::Error::other(e.to_string()));
                break;
            }
            if store.snapshot_due(engine.state().epoch) {
                if let Err(e) = store.snapshot(&engine) {
                    loop_result = Err(std::io::Error::other(e.to_string()));
                    break;
                }
            }

            // Breaker transitions as *spans*: span lines stream to the
            // trace and are flushed every epoch, so the ladder stays
            // visible even when the process is SIGKILLed (counters only
            // reach disk in the summary a kill never writes).
            let breaker_now = engine.state().breaker.state;
            if breaker_now != breaker_prev {
                drop(thermaware_obs::span(match breaker_now {
                    BreakerState::Open => "service.breaker_to_open",
                    BreakerState::HalfOpen => "service.breaker_to_half_open",
                    BreakerState::Closed => "service.breaker_to_closed",
                }));
                breaker_prev = breaker_now;
            }

            // Kick off a replan when the engine wants one and the solver
            // is free (a full job channel means it is still chewing on an
            // abandoned solve — skip, don't queue behind it).
            if inflight.is_none() && engine.wants_replan() {
                generation += 1;
                let (dc, pstates) = engine.solve_request();
                let job = SolveJob {
                    generation,
                    dc,
                    pstates,
                    warm: warm_basis.clone(),
                };
                if job_tx.try_send(job).is_ok() {
                    inflight = Some((generation, Instant::now()));
                    thermaware_obs::counter_add("service.solves_spawned", 1);
                }
            }

            // Publish stats and the backpressure hint.
            let stats = stats_of(&engine);
            let hint = (engine.backlog_s() * 1_000.0).clamp(
                cfg.epoch_wall_ms.max(1) as f64,
                60_000.0,
            ) as u64;
            shared.retry_after_ms.store(hint, Ordering::Relaxed);
            if let Ok(mut s) = shared.stats.lock() {
                *s = stats.clone();
            }
            report.stats = stats;
            report.epochs_run += 1;
            // Keep the obs trace on disk — a SIGKILL must not eat the
            // breaker transitions the drill asserts on.
            if let Some(t) = trace {
                let _ = t.flush();
            }

            let done_epochs = cfg
                .max_epochs
                .is_some_and(|max| report.epochs_run >= max);
            if done_epochs || shared.stop.load(Ordering::SeqCst) {
                shared.stop.store(true, Ordering::SeqCst);
                break;
            }
            if let Some(remaining) = epoch_wall.checked_sub(tick_start.elapsed()) {
                std::thread::sleep(remaining);
            }
        }

        // Final checkpoint so a clean shutdown resumes instantly.
        if loop_result.is_ok() {
            if let Err(e) = store.snapshot(&engine) {
                loop_result = Err(std::io::Error::other(e.to_string()));
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        drop(job_tx); // solver thread exits
        // Connection threads exit on read timeout / stop flag; the
        // scope joins them all.
    });

    loop_result.map(|()| report)
}

/// One connection: line-delimited JSON requests, one response line per
/// request, in order.
fn serve_connection(
    stream: UnixStream,
    read_timeout: Duration,
    shared: &Shared,
    queue: &mpsc::SyncSender<Pending>,
    faults: &mpsc::SyncSender<PendingFault>,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let _ = respond(&mut writer, &Response::ShuttingDown);
            return;
        }
        line.clear();
        // take() caps how much one line may buffer; a longer line is a
        // protocol violation, not a memory commitment.
        let mut limited = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match limited.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(n) if n > MAX_LINE_BYTES => {
                let _ = respond(
                    &mut writer,
                    &Response::Error {
                        message: format!("line exceeds {MAX_LINE_BYTES} bytes"),
                    },
                );
                return;
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                // Slow-loris: the client held the socket without
                // completing a line within the timeout.
                thermaware_obs::counter_add("service.read_timeouts", 1);
                return;
            }
            Err(_) => return,
        }
        if line.trim().is_empty() {
            continue;
        }
        if !line.ends_with('\n') {
            // EOF mid-line: a torn frame, not a request.
            let _ = respond(
                &mut writer,
                &Response::Error {
                    message: "unterminated request line".to_string(),
                },
            );
            return;
        }
        let request: Request = match serde_json::from_str(line.trim_end()) {
            Ok(r) => r,
            Err(e) => {
                thermaware_obs::counter_add("service.malformed_requests", 1);
                if respond(
                    &mut writer,
                    &Response::Error {
                        message: format!("bad request: {e}"),
                    },
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Ping => respond(&mut writer, &Response::Pong).is_ok(),
            Request::Stats => {
                let stats = shared
                    .stats
                    .lock()
                    .map(|s| s.clone())
                    .unwrap_or_default();
                respond(&mut writer, &Response::Stats(stats)).is_ok()
            }
            Request::Shutdown => {
                shared.stop.store(true, Ordering::SeqCst);
                let _ = respond(&mut writer, &Response::ShuttingDown);
                false
            }
            Request::Submit { batch, budget_ms } => {
                handle_submit(&mut writer, shared, queue, batch, budget_ms)
            }
            Request::Fault { fault } => handle_fault(&mut writer, shared, faults, fault),
        };
        if !keep_going {
            return;
        }
    }
}

/// Validate, enqueue, and wait for the epoch loop's ack (or reject
/// immediately). Returns `false` when the connection should close.
fn handle_submit(
    writer: &mut UnixStream,
    shared: &Shared,
    queue: &mpsc::SyncSender<Pending>,
    batch: Batch,
    budget_ms: Option<u64>,
) -> bool {
    let id = batch.id;
    if !batch.tasks_within(shared.max_batch_tasks) {
        return respond(
            writer,
            &Response::Rejected {
                id,
                reason: RejectReason::BatchTooLarge,
                retry_after_ms: 0,
            },
        )
        .is_ok();
    }
    if !batch.types_within(shared.n_task_types) {
        return respond(
            writer,
            &Response::Rejected {
                id,
                reason: RejectReason::UnknownTaskType,
                retry_after_ms: 0,
            },
        )
        .is_ok();
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let pending = Pending {
        batch,
        deadline,
        reply: reply_tx,
    };
    match queue.try_send(pending) {
        Ok(()) => {}
        Err(mpsc::TrySendError::Full(_)) => {
            thermaware_obs::counter_add("service.queue_full_rejects", 1);
            return respond(
                writer,
                &Response::Rejected {
                    id,
                    reason: RejectReason::QueueFull,
                    retry_after_ms: shared.retry_after_ms.load(Ordering::Relaxed),
                },
            )
            .is_ok();
        }
        Err(mpsc::TrySendError::Disconnected(_)) => {
            let _ = respond(writer, &Response::ShuttingDown);
            return false;
        }
    }
    // Block this connection (not the daemon) until the epoch loop acks.
    match reply_rx.recv() {
        Ok(response) => respond(writer, &response).is_ok(),
        Err(_) => {
            // Epoch loop dropped the reply channel: shutdown mid-flight.
            let _ = respond(writer, &Response::ShuttingDown);
            false
        }
    }
}

/// Check a fault against the floor, enqueue it, and wait for the epoch
/// loop's ack. Returns `false` when the connection should close.
fn handle_fault(
    writer: &mut UnixStream,
    shared: &Shared,
    faults: &mpsc::SyncSender<PendingFault>,
    fault: Fault,
) -> bool {
    let refused = match &shared.floor {
        None => Some("this service stands on no floor".to_string()),
        Some(floor) => floor.accepts(&fault).err(),
    };
    if let Some(message) = refused {
        thermaware_obs::counter_add("service.refused_faults", 1);
        return respond(writer, &Response::Error { message: format!("fault refused: {message}") }).is_ok();
    }
    let (reply, reply_rx) = mpsc::channel();
    let response = match faults.try_send(PendingFault { fault, reply }) {
        Ok(()) => reply_rx.recv().unwrap_or(Response::ShuttingDown),
        Err(mpsc::TrySendError::Full(_)) => Response::Error { message: "fault queue full".to_string() },
        Err(mpsc::TrySendError::Disconnected(_)) => Response::ShuttingDown,
    };
    let keep = response != Response::ShuttingDown;
    respond(writer, &response).is_ok() && keep
}

fn respond(writer: &mut UnixStream, response: &Response) -> std::io::Result<()> {
    let mut json = serde_json::to_string(response)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    json.push('\n');
    writer.write_all(json.as_bytes())
}

/// Snapshot the engine into the wire stats shape.
fn stats_of(engine: &ServiceEngine) -> StatsReport {
    let state = engine.state();
    let (completed, late, lost, reward) = engine.per_type().iter().fold(
        (0u64, 0u64, 0u64, 0.0f64),
        |(c, la, lo, r), t| {
            (
                c + t.completed as u64,
                la + t.late as u64,
                lo + t.lost as u64,
                r + t.reward,
            )
        },
    );
    StatsReport {
        epoch: state.epoch,
        now_s: state.now_s,
        admitted_batches: state.totals.admitted_batches,
        duplicate_batches: state.totals.duplicate_batches,
        admitted_tasks: state.totals.admitted_tasks,
        dropped_tasks: state.totals.dropped_tasks,
        shed_tasks: state.totals.shed_tasks,
        completed_tasks: completed,
        late_tasks: late,
        lost_tasks: lost,
        reward,
        replans: state.totals.replans,
        replan_failures: state.totals.replan_failures,
        breaker_opens: state.breaker.opens,
        breaker: state.breaker.state.as_str().to_string(),
        shed_types: state.shed.len(),
        backlog_s: engine.backlog_s(),
        log_dropped: state.log.dropped(),
        floor: state.floor.as_ref().map(|floor| FloorStats {
            failed_cracs: floor.failed.iter().filter(|&&f| f).count(),
            dead_nodes: floor.dead.iter().filter(|&&d| d).count(),
            bias_c: floor.bias_c,
            healthy: floor.healthy,
        }),
    }
}

/// A split-mix style hash of (seed, generation) mapped to [0, 1) — the
/// chaos coin flip. Deterministic per generation so a rerun with the
/// same seed injects the same failures.
fn chaos_roll(seed: u64, generation: u64) -> f64 {
    let mut z = seed ^ generation.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}
