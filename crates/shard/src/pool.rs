//! The supervised worker pool: panic-isolating, deadline-enforcing,
//! work-stealing job execution for zone solves.
//!
//! This is the promotion of `crates/bench`'s `parallel_map` into a real
//! fault domain. Workers pull jobs from a shared injector queue (idle
//! workers steal the next undispatched job — uneven zone solve times
//! balance naturally), every job body runs under
//! [`std::panic::catch_unwind`], and a supervisor loop on the calling
//! thread tracks a per-attempt deadline for each item. The failure
//! policy, per item:
//!
//! - **panic / typed error** — the attempt failed; retry up to
//!   [`PoolConfig::retries`] times with exponential backoff
//!   (`backoff · 2^attempt`), then report the last failure.
//! - **deadline blown** — the attempt is abandoned (its late result is
//!   discarded on arrival) and the item is retried on a fresh worker.
//!   If the pool looks wedged (every worker busy past the deadline) a
//!   replacement worker is spawned, bounded by `2·threads + 2`.
//! - **straggler hedging** — when an attempt has run past
//!   [`PoolConfig::hedge_after`] and an idle worker is available, the
//!   item is re-dispatched speculatively; the first result to arrive
//!   wins and the loser is discarded. Hedges are free wins when a
//!   worker is merely descheduled rather than broken.
//!
//! The caller's thread never executes jobs and never blocks on a hung
//! worker: the supervisor waits on a channel with a timeout, so a
//! worker that sleeps forever merely costs the pool one thread (which
//! the wedge check replaces) while the map returns on schedule.
//!
//! This file is live wall-clock code (deadlines, backoff, hedging) and
//! is deliberately outside the determinism lint's replay scope; the
//! *values* it returns are deterministic because job bodies are, and
//! late/hedged duplicates of a deterministic job carry equal values.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use thermaware_obs as obs;

/// Pool sizing and per-attempt failure policy.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Per-attempt deadline; `None` disables timeouts.
    pub deadline: Option<Duration>,
    /// Extra attempts after the first failure/timeout.
    pub retries: u32,
    /// Base backoff before a retry; doubles each attempt.
    pub backoff: Duration,
    /// Speculatively re-dispatch an attempt running longer than this
    /// when an idle worker is available; `None` disables hedging.
    pub hedge_after: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            threads: default_threads(usize::MAX),
            deadline: None,
            retries: 2,
            backoff: Duration::from_millis(10),
            hedge_after: None,
        }
    }
}

/// Default worker count: available parallelism, capped to the work size.
pub fn default_threads(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1))
}

/// Why an item has no value: the terminal failure after all retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job body panicked; the payload message, when downcastable.
    Panicked(String),
    /// Every attempt blew its deadline.
    TimedOut,
    /// The job body returned a typed error.
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            JobError::TimedOut => write!(f, "deadline exceeded on every attempt"),
            JobError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Counters for one supervised map, mirrored into `shard.*` obs metrics
/// by the caller-facing entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Items that resolved with a value.
    pub solved: usize,
    /// Attempts that panicked.
    pub panics: usize,
    /// Attempts abandoned at their deadline.
    pub timeouts: usize,
    /// Re-dispatches after a failure (not counting hedges).
    pub retries: usize,
    /// Speculative duplicate dispatches.
    pub hedges: usize,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    busy: AtomicUsize,
    workers: AtomicUsize,
}

/// A detached worker pool. Workers live until the pool is dropped;
/// jobs are `'static` closures, so a hung job can never block the
/// supervisor — it only occupies (and eventually leaks) one thread.
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: usize,
    max_threads: usize,
}

impl Pool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            workers: AtomicUsize::new(0),
        });
        let pool = Pool { shared, threads, max_threads: threads * 2 + 2 };
        for _ in 0..threads {
            pool.spawn_worker();
        }
        pool
    }

    /// Configured worker count (not counting wedge replacements).
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn spawn_worker(&self) {
        let shared = Arc::clone(&self.shared);
        shared.workers.fetch_add(1, Ordering::Relaxed);
        std::thread::spawn(move || loop {
            let job = {
                let mut queue = match shared.queue.lock() {
                    Ok(q) => q,
                    Err(poisoned) => poisoned.into_inner(),
                };
                loop {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        shared.workers.fetch_sub(1, Ordering::Relaxed);
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = match shared.available.wait(queue) {
                        Ok(q) => q,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            };
            shared.busy.fetch_add(1, Ordering::Relaxed);
            job();
            shared.busy.fetch_sub(1, Ordering::Relaxed);
        });
    }

    /// Every worker is mid-job — a dispatch now would only queue.
    fn saturated(&self) -> bool {
        self.shared.busy.load(Ordering::Relaxed) >= self.shared.workers.load(Ordering::Relaxed)
    }

    /// Spawn a replacement worker when the pool looks wedged (all
    /// workers busy past a deadline), bounded by `max_threads`.
    fn grow_if_wedged(&self) -> bool {
        if self.saturated() && self.shared.workers.load(Ordering::Relaxed) < self.max_threads {
            self.spawn_worker();
            true
        } else {
            false
        }
    }

    fn submit(&self, job: Job) {
        let mut queue = match self.shared.queue.lock() {
            Ok(q) => q,
            Err(poisoned) => poisoned.into_inner(),
        };
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.available.notify_all();
    }
}

/// A worker's verdict on one attempt, sent back to the supervisor.
struct AttemptResult<T> {
    item: usize,
    attempt: u32,
    value: Result<T, JobError>,
    elapsed: Duration,
}

/// Per-item supervisor bookkeeping.
enum ItemState {
    /// Dispatched; awaiting a result.
    Running { attempt: u32, dispatched: Instant, hedged: bool },
    /// Failed; retry once the backoff expires.
    Backoff { attempt: u32, due: Instant },
    /// Terminal.
    Done,
}

/// Run `make_job(item, attempt)`-produced closures for items `0..n` on
/// the pool under the config's failure policy. Returns one
/// `Result` per item, in item order. `make_job` is called on the
/// supervisor thread once per (re)dispatch, so closures can snapshot
/// per-attempt context (e.g. chaos decisions) without sharing state.
pub fn run_supervised<T, M>(
    pool: &Pool,
    n: usize,
    cfg: &PoolConfig,
    mut make_job: M,
) -> (Vec<Result<T, JobError>>, RunStats)
where
    T: Send + 'static,
    M: FnMut(usize, u32) -> Box<dyn FnOnce() -> Result<T, String> + Send + 'static>,
{
    let mut out: Vec<Result<T, JobError>> = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Err(JobError::TimedOut));
    }
    let mut stats = RunStats::default();
    if n == 0 {
        return (out, stats);
    }

    let (tx, rx) = channel::<AttemptResult<T>>();
    let mut states: Vec<ItemState> = Vec::with_capacity(n);
    let mut pending = n;

    #[allow(clippy::type_complexity)]
    let dispatch = |pool: &Pool,
                    tx: &Sender<AttemptResult<T>>,
                    job: Box<dyn FnOnce() -> Result<T, String> + Send + 'static>,
                    item: usize,
                    attempt: u32| {
        let tx = tx.clone();
        pool.submit(Box::new(move || {
            // lint: allow(determinism-taint): measures attempt latency for supervision only
            let start = Instant::now();
            let value = match catch_unwind(AssertUnwindSafe(job)) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(msg)) => Err(JobError::Failed(msg)),
                Err(payload) => Err(JobError::Panicked(panic_message(&*payload))),
            };
            // The receiver may be long gone (late straggler); drop quietly.
            let _ = tx.send(AttemptResult { item, attempt, value, elapsed: start.elapsed() });
        }));
    };

    for item in 0..n {
        dispatch(pool, &tx, make_job(item, 0), item, 0);
        // lint: allow(determinism-taint): dispatch timestamps drive deadlines/hedging, not plan bytes
        states.push(ItemState::Running { attempt: 0, dispatched: Instant::now(), hedged: false });
    }

    while pending > 0 {
        // The next instant at which some item's deadline, hedge point, or
        // backoff expiry needs attention. The pool is wall-clock by design:
        // timing decides *when* work runs and retries, never *what* a zone
        // plan contains — plans are pure functions of their inputs, which is
        // what keeps replan deterministic (the shard drill pins this).
        // lint: allow(determinism-taint): supervision clock — scheduling only, plans stay input-pure
        let now = Instant::now();
        let mut wake: Option<Instant> = None;
        let mut consider = |t: Instant| match wake {
            Some(w) if w <= t => {}
            _ => wake = Some(t),
        };
        for state in &states {
            match state {
                ItemState::Running { dispatched, hedged, .. } => {
                    if let Some(d) = cfg.deadline {
                        consider(*dispatched + d);
                    }
                    if let (Some(h), false) = (cfg.hedge_after, *hedged) {
                        consider(*dispatched + h);
                    }
                }
                ItemState::Backoff { due, .. } => consider(*due),
                ItemState::Done => {}
            }
        }
        let timeout = wake
            .map(|w| w.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50));

        match rx.recv_timeout(timeout.max(Duration::from_millis(1))) {
            Ok(result) => {
                let item = result.item;
                if obs::enabled() {
                    obs::observe("shard.zone_latency_ms", result.elapsed.as_secs_f64() * 1e3);
                }
                match &states[item] {
                    ItemState::Done => {} // hedge loser or late straggler
                    _ => match result.value {
                        // Job bodies are deterministic, so a value from
                        // any attempt — including a late straggler whose
                        // deadline already fired — is the right value.
                        Ok(v) => {
                            out[item] = Ok(v);
                            states[item] = ItemState::Done;
                            stats.solved += 1;
                            pending -= 1;
                        }
                        Err(err) => {
                            if matches!(err, JobError::Panicked(_)) {
                                stats.panics += 1;
                                obs::counter_add("shard.zone_panics", 1);
                            }
                            // Failures only count against the attempt
                            // currently in flight; a stale attempt's
                            // error must not consume a fresh attempt's
                            // retry budget (or worse, mark the item dead
                            // while its retry is about to succeed).
                            let current = matches!(
                                &states[item],
                                ItemState::Running { attempt, .. } if *attempt == result.attempt
                            );
                            let twin_alive = matches!(
                                &states[item],
                                ItemState::Running { hedged: true, .. }
                            );
                            if !current {
                                // stale; ignore
                            } else if twin_alive {
                                // One of two hedged twins failed: keep
                                // waiting for the other.
                                if let ItemState::Running { hedged, .. } = &mut states[item] {
                                    *hedged = false;
                                }
                            } else {
                                fail_attempt(&mut states[item], err, cfg, &mut pending, &mut out[item]);
                            }
                        }
                    },
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Sweep deadlines, hedges, and due backoffs: decide per item,
        // then act (the actions re-borrow the state table).
        enum Sweep {
            Timeout,
            Hedge(u32),
            Retry(u32),
            Wait,
        }
        // lint: allow(determinism-taint): supervision clock — scheduling only, plans stay input-pure
        let now = Instant::now();
        for item in 0..n {
            let action = match &mut states[item] {
                ItemState::Running { attempt, dispatched, hedged, .. } => {
                    let elapsed = now.saturating_duration_since(*dispatched);
                    if cfg.deadline.is_some_and(|d| elapsed >= d) {
                        Sweep::Timeout
                    } else if cfg.hedge_after.is_some_and(|h| elapsed >= h)
                        && !*hedged
                        && !pool.saturated()
                    {
                        *hedged = true;
                        Sweep::Hedge(*attempt)
                    } else {
                        Sweep::Wait
                    }
                }
                ItemState::Backoff { attempt, due, .. } if now >= *due => Sweep::Retry(*attempt + 1),
                _ => Sweep::Wait,
            };
            match action {
                Sweep::Timeout => {
                    stats.timeouts += 1;
                    obs::counter_add("shard.zone_timeouts", 1);
                    pool.grow_if_wedged();
                    fail_attempt(&mut states[item], JobError::TimedOut, cfg, &mut pending, &mut out[item]);
                }
                Sweep::Hedge(attempt) => {
                    stats.hedges += 1;
                    obs::counter_add("shard.hedges", 1);
                    dispatch(pool, &tx, make_job(item, attempt), item, attempt);
                }
                Sweep::Retry(attempt) => {
                    stats.retries += 1;
                    obs::counter_add("shard.zone_retries", 1);
                    dispatch(pool, &tx, make_job(item, attempt), item, attempt);
                    states[item] = ItemState::Running { attempt, dispatched: now, hedged: false };
                }
                Sweep::Wait => {}
            }
        }
    }

    obs::counter_add("shard.zone_solves", stats.solved as u64);
    (out, stats)
}

/// Resolve a failed attempt: schedule a backoff retry while attempts
/// remain, otherwise record the terminal error.
fn fail_attempt<T>(
    state: &mut ItemState,
    err: JobError,
    cfg: &PoolConfig,
    pending: &mut usize,
    slot: &mut Result<T, JobError>,
) {
    let attempt = match state {
        ItemState::Running { attempt, .. } => *attempt,
        ItemState::Backoff { attempt, .. } => *attempt,
        ItemState::Done => return,
    };
    if attempt < cfg.retries {
        let delay = cfg.backoff * 2u32.saturating_pow(attempt);
        let _ = &err;
        // lint: allow(determinism-taint): backoff expiry is a scheduling deadline, not plan input
        *state = ItemState::Backoff { attempt, due: Instant::now() + delay };
    } else {
        *slot = Err(err);
        *state = ItemState::Done;
        *pending -= 1;
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `0..n` on up to `threads` scoped workers, isolating
/// panics per item. The borrowed-closure counterpart to
/// [`run_supervised`] for embarrassingly parallel fan-out (experiment
/// harnesses); no deadlines or retries — a panicking item yields
/// `Err(JobError::Panicked)` while every other item still completes.
///
/// With `threads <= 1` (or `n <= 1`) runs inline, which keeps call
/// sites debuggable and deterministic profiles honest (panics are
/// still isolated).
pub fn scoped_map<T, F>(n: usize, threads: usize, f: F) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> Result<T, JobError> {
        catch_unwind(AssertUnwindSafe(|| f(i)))
            .map_err(|payload| JobError::Panicked(panic_message(&*payload)))
    };
    if threads <= 1 || n <= 1 {
        return (0..n).map(run_one).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, JobError>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = run_one(i);
                let mut slot = match slots[i].lock() {
                    Ok(s) => s,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *slot = Some(value);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            let inner = match slot.into_inner() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            inner.unwrap_or(Err(JobError::Panicked("work item skipped".to_string())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> PoolConfig {
        PoolConfig {
            threads: 4,
            deadline: None,
            retries: 2,
            backoff: Duration::from_millis(2),
            hedge_after: None,
        }
    }

    #[test]
    fn values_in_item_order() {
        let pool = Pool::new(4);
        let (out, stats) = run_supervised(&pool, 16, &quick_cfg(), |i, _| {
            Box::new(move || Ok(i * i))
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().copied(), Ok(i * i), "item {i}");
        }
        assert_eq!(stats.solved, 16);
        assert_eq!(stats.panics + stats.timeouts + stats.retries + stats.hedges, 0);
    }

    #[test]
    fn panics_are_isolated_and_terminal_after_retries() {
        let pool = Pool::new(2);
        let (out, stats) = run_supervised(&pool, 6, &quick_cfg(), |i, _| {
            Box::new(move || {
                if i == 3 {
                    panic!("chaos item");
                }
                Ok(i)
            })
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert!(matches!(r, Err(JobError::Panicked(msg)) if msg.contains("chaos")));
            } else {
                assert_eq!(r.as_ref().copied(), Ok(i));
            }
        }
        // First attempt + 2 retries all panicked.
        assert_eq!(stats.panics, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.solved, 5);
    }

    #[test]
    fn transient_panic_recovers_on_retry() {
        let pool = Pool::new(2);
        let (out, stats) = run_supervised(&pool, 3, &quick_cfg(), |i, attempt| {
            Box::new(move || {
                if i == 1 && attempt == 0 {
                    panic!("transient");
                }
                Ok(i + 100)
            })
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().copied(), Ok(i + 100));
        }
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.solved, 3);
    }

    #[test]
    fn hung_worker_times_out_without_blocking_the_supervisor() {
        let pool = Pool::new(2);
        let cfg = PoolConfig {
            threads: 2,
            deadline: Some(Duration::from_millis(40)),
            retries: 1,
            backoff: Duration::from_millis(2),
            hedge_after: None,
        };
        let started = Instant::now();
        let (out, stats) = run_supervised(&pool, 3, &cfg, |i, _| {
            Box::new(move || {
                if i == 0 {
                    // Far beyond the deadline on every attempt.
                    std::thread::sleep(Duration::from_millis(800));
                    return Err("stalled".to_string());
                }
                Ok(i)
            })
        });
        assert!(matches!(out[0], Err(JobError::TimedOut)));
        assert_eq!(out[1].as_ref().copied(), Ok(1));
        assert_eq!(out[2].as_ref().copied(), Ok(2));
        assert!(stats.timeouts >= 2, "both attempts should time out, saw {stats:?}");
        // Supervisor returned long before the 800 ms sleeper finished.
        assert!(started.elapsed() < Duration::from_millis(700), "took {:?}", started.elapsed());
    }

    #[test]
    fn typed_errors_retry_then_surface() {
        let pool = Pool::new(2);
        let (out, stats) = run_supervised(&pool, 2, &quick_cfg(), |i, _| {
            Box::new(move || {
                if i == 0 {
                    Err("no feasible plan".to_string())
                } else {
                    Ok(7usize)
                }
            })
        });
        assert!(matches!(&out[0], Err(JobError::Failed(m)) if m == "no feasible plan"));
        assert_eq!(out[1].as_ref().copied(), Ok(7));
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn hedge_first_result_wins() {
        use std::sync::atomic::AtomicU32;
        let pool = Pool::new(4);
        let cfg = PoolConfig {
            threads: 4,
            deadline: Some(Duration::from_secs(5)),
            retries: 0,
            backoff: Duration::from_millis(1),
            hedge_after: Some(Duration::from_millis(20)),
        };
        let dispatches = Arc::new(AtomicU32::new(0));
        let d2 = Arc::clone(&dispatches);
        let (out, stats) = run_supervised(&pool, 1, &cfg, move |_, _| {
            let d = Arc::clone(&d2);
            Box::new(move || {
                // First dispatch stalls well past the hedge point; the
                // speculative duplicate answers immediately.
                if d.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(42u32)
            })
        });
        assert_eq!(out[0].as_ref().copied(), Ok(42));
        assert_eq!(stats.hedges, 1, "{stats:?}");
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn scoped_map_matches_serial_and_isolates_panics() {
        let seq = scoped_map(17, 1, |i| i as f64 * 1.5);
        let par = scoped_map(17, 4, |i| i as f64 * 1.5);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.as_ref().ok().copied().map(f64::to_bits), b.as_ref().ok().copied().map(f64::to_bits));
        }
        let out = scoped_map(8, 3, |i| {
            if i == 5 {
                panic!("boom {i}");
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                assert!(matches!(r, Err(JobError::Panicked(m)) if m.contains("boom")));
            } else {
                assert_eq!(r.as_ref().copied(), Ok(i));
            }
        }
        assert!(scoped_map(0, 4, |i| i).is_empty());
        assert_eq!(scoped_map(1, 4, |i| i + 10), vec![Ok(10)]);
    }
}
