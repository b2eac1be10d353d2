//! `service_surge`: journaled service epochs under a demand surge.
//!
//! One operation is one epoch of `run_daemon`'s body on a 40-node, 2-CRAC
//! room with a durable store: `append_begin` (fsync) → `ServiceEngine::
//! step` → `state_json_crc` → `append_commit` → `snapshot` when due.
//! Demand follows a `Curve::Surge` that repeats every 128 epochs: 0.7× the
//! planned rates, 3× that for 20 epochs. The first three surge epochs
//! carry scripted `Failed` verdicts, which open the breaker and shed the
//! lowest-reward type; whenever the engine wants a replan the harness
//! solves Stage 3 outside the timed section and journals the verdict with
//! the next epoch, as the daemon's solver thread would.
//!
//! After epoch 96, 32 epochs past the last snapshot, the process
//! "crashes": store and engine are dropped and rebuilt with
//! `resume_service` + `ServiceStore::reopen`. `op_p50_ms` sees only the
//! write path; `work_per_s` divides by live *and* recovery time, so a
//! journal change that speeds commits but slows replay (or the reverse)
//! shows. The scheduler is driven through `EpochSim`, not `simulate`.
//!
//! Tasks per epoch and state size both follow the room, so after each
//! 128-epoch period the service starts over on a new room drawn from the
//! seed (set up outside the timed section): a run covers six rooms or so.

use crate::harness::{Clock, OpResult, Timing, TraceData, Workload};
use crate::room_plan::room;
use crate::stats::{mean, median, sub_seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use thermaware::core::stage3::Stage3Basis;
use thermaware::obs;
use thermaware::prelude::*;
use thermaware::service::proto::Batch;
use thermaware::service::store::{state_json_crc, StoreConfig};

#[derive(Clone, Copy)]
pub struct Size {
    pub nodes: usize,
    pub cracs: usize,
    /// Epochs a service instance lives; demand, failures and the crash
    /// are placed inside it.
    pub period: usize,
    /// Offset and length of the surge inside a period.
    pub surge_at: usize,
    pub surge_len: usize,
    /// Offset of the crash inside a period.
    pub crash_at: usize,
    pub det_ops: usize,
}

pub const FULL: Size = Size {
    nodes: 40,
    cracs: 2,
    period: 128,
    surge_at: 32,
    surge_len: 20,
    crash_at: 96,
    det_ops: 512,
};

/// Scripted consecutive `Failed` verdicts at the start of each surge:
/// the default breaker opens on the third.
const SCRIPTED_FAILURES: usize = 3;
/// Batches an epoch's tasks arrive in.
const BATCHES: usize = 4;

/// Store directories of concurrently alive instances (tests run in one
/// process) must differ.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// One service instance: a planned room, its engine and its store.
struct Instance {
    dir: PathBuf,
    store_cfg: StoreConfig,
    engine: ServiceEngine,
    /// `None` only between the crash and the reopen.
    store: Option<ServiceStore>,
    /// Outcome of the solve the last epoch asked for, journaled with the
    /// next one.
    pending: Option<ReplanVerdict>,
    warm: Option<Stage3Basis>,
}

impl Instance {
    fn start(seed: u64, size: &Size, period: usize) -> Instance {
        let dc = room(size.nodes, size.cracs, sub_seed(seed, period as u64));
        let plan = Solver::new(&dc)
            .solve()
            .expect("the paper's rooms are plannable");
        let engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
        let dir = crate::out_dir().join(format!(
            "service-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let store_cfg = StoreConfig::new(&dir);
        let store = ServiceStore::create(store_cfg.clone(), &engine)
            .expect("the store directory is writable");
        Instance {
            dir,
            store_cfg,
            engine,
            store: Some(store),
            pending: None,
            warm: plan.stage3_basis,
        }
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        // Best effort: a leftover directory is inside `out/` anyway.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct ServiceSurge {
    seed: u64,
    size: Size,
    live: Instance,
    periods: usize,
    rng: StdRng,
    demand: Curve,
    next_batch_id: u64,
    epochs: usize,
    tasks_offered: usize,
    shed_tasks: u64,
    breaker_opens: u64,
    journal_kb: f64,
    state_json_kb: Vec<f64>,
    snapshot_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    resume_epochs: usize,
}

impl ServiceSurge {
    /// This epoch's batches: per task type, the planned rate times the
    /// demand curve, rounded up or down at random so the mean is exact.
    fn batches(&mut self, epoch: usize) -> Vec<Batch> {
        let level = self.demand.rate_at(epoch as f64);
        let mut batches: Vec<Batch> = (0..BATCHES)
            .map(|_| {
                self.next_batch_id += 1;
                Batch {
                    id: self.next_batch_id,
                    tasks: Vec::new(),
                }
            })
            .collect();
        let engine = &self.live.engine;
        let epoch_s = engine.config().epoch_s;
        for (i, t) in engine.dc().workload.task_types.iter().enumerate() {
            let n = (t.arrival_rate * level * epoch_s + self.rng.gen_range(0.0..1.0)) as usize;
            if n > 0 {
                batches[i % BATCHES].tasks.push((i, n));
            }
        }
        batches
    }

    /// Kill and recover. Returns whether the recovered state is byte for
    /// byte the one that died, and the recovery's timing.
    fn crash_and_resume(&mut self, clock: &mut Clock) -> (bool, Timing) {
        let live = &mut self.live;
        let before = serde_json::to_string(live.engine.state()).ok();
        live.store = None;
        let (recovered, timing) = clock.time_aside(|| {
            let resumed = resume_service(&live.dir)?;
            let store = ServiceStore::reopen(live.store_cfg.clone())?;
            Ok::<_, PersistError>((resumed, store))
        });
        let Ok(((engine, info), store)) = recovered else {
            return (false, timing);
        };
        self.resume_ms.push(timing.secs * 1e3);
        self.resume_epochs += info.replayed_epochs;
        let after = serde_json::to_string(engine.state()).ok();
        live.engine = engine;
        live.store = Some(store);
        (before.is_some() && after == before, timing)
    }

    /// Tasks shed, breaker openings and journal kB of the live instance.
    fn live_totals(&self) -> (u64, u64, f64) {
        let state = self.live.engine.state();
        let journal_kb = std::fs::metadata(self.live.dir.join("journal.jsonl"))
            .map_or(0.0, |m| m.len() as f64 / 1024.0);
        (state.totals.shed_tasks, state.breaker.opens, journal_kb)
    }

    /// The period is over: book the instance's totals and start the next
    /// one on a new room.
    fn next_period(&mut self) {
        let (shed, opens, journal_kb) = self.live_totals();
        self.shed_tasks += shed;
        self.breaker_opens += opens;
        self.journal_kb += journal_kb;
        self.periods += 1;
        self.live = Instance::start(self.seed, &self.size, self.periods);
    }
}

impl Workload for ServiceSurge {
    type Size = Size;

    fn det_ops(size: &Size) -> usize {
        size.det_ops
    }

    fn setup(seed: u64, size: &Size, input: usize) -> ServiceSurge {
        ServiceSurge {
            seed,
            size: *size,
            live: Instance::start(seed, size, input),
            periods: input,
            demand: Curve::Surge {
                base: 0.7,
                surge: 2.1,
                start_s: size.surge_at as f64,
                len_s: size.surge_len as f64,
            },
            rng: StdRng::seed_from_u64(sub_seed(seed, u64::MAX)),
            next_batch_id: 0,
            epochs: 0,
            tasks_offered: 0,
            shed_tasks: 0,
            breaker_opens: 0,
            journal_kb: 0.0,
            state_json_kb: Vec::new(),
            snapshot_ms: Vec::new(),
            resume_ms: Vec::new(),
            resume_epochs: 0,
        }
    }

    fn op(&mut self, _input: usize, clock: &mut Clock) -> OpResult {
        if self.live.engine.state().epoch == self.size.period {
            self.next_period();
        }
        let epoch = self.live.engine.state().epoch;
        let batches = self.batches(epoch);
        let live = &mut self.live;
        let scripted =
            (self.size.surge_at..self.size.surge_at + SCRIPTED_FAILURES).contains(&epoch);
        let verdict = if scripted {
            live.pending = None;
            ReplanVerdict::Failed {
                error: "scripted solver outage".to_string(),
            }
        } else {
            live.pending.take().unwrap_or(ReplanVerdict::NotAttempted)
        };
        let collected = |e: &ServiceEngine| e.per_type().iter().map(|t| t.reward).sum::<f64>();
        let reward_before = collected(&live.engine);
        let engine = &mut live.engine;
        let store = live.store.as_mut().expect("reopened after every crash");

        let (journaled, op) = clock.time(|| {
            {
                let _s = obs::span("service.store.begin");
                store.append_begin(epoch, &batches, &verdict)?;
            }
            let report = {
                let _s = obs::span("service.engine.step");
                engine.step(&batches, &verdict)
            };
            let (json, crc) = {
                let _s = obs::span("service.store.crc");
                state_json_crc(engine.state())?
            };
            {
                let _s = obs::span("service.store.commit");
                store.append_commit(epoch, crc)?;
            }
            // One epoch in 64 snapshots and in a traced run it may always be
            // an untraced one, so snapshots are also timed by hand.
            let mut snapshot_ms = None;
            if store.snapshot_due(engine.state().epoch) {
                let _s = obs::span("service.store.snapshot");
                let t = Instant::now();
                store.snapshot(engine)?;
                snapshot_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok::<_, PersistError>((report, json.len(), snapshot_ms))
        });

        let tasks: usize = batches.iter().map(Batch::total_tasks).sum();
        let rewards = &engine.dc().workload.task_types;
        let mut result = OpResult {
            op,
            work: tasks as f64,
            reward: collected(engine) - reward_before,
            offered: batches
                .iter()
                .flat_map(|b| &b.tasks)
                .map(|&(t, n)| n as f64 * rewards[t].reward)
                .sum(),
            ..OpResult::default()
        };
        self.epochs += 1;
        self.tasks_offered += tasks;
        let Ok((report, json_len, snapshot_ms)) = journaled else {
            result.failed = true;
            return result;
        };
        self.snapshot_ms.extend(snapshot_ms);
        if clock.recorder().is_some() {
            self.state_json_kb.push(json_len as f64 / 1024.0);
        }
        // Every offered task was admitted, dropped or shed.
        let settled: usize = report
            .batches
            .iter()
            .map(|b| b.admitted + b.dropped + b.shed)
            .sum();
        result.failed = settled != tasks;

        if engine.wants_replan() {
            let (dc, pstates) = engine.solve_request();
            live.pending = Some(
                match Solver::new(&dc).stage3_replan(&pstates, live.warm.as_ref()) {
                    Ok((stage3, basis)) => {
                        live.warm = basis;
                        ReplanVerdict::Ok { stage3 }
                    }
                    Err(e) => {
                        result.failed = true;
                        ReplanVerdict::Failed {
                            error: e.to_string(),
                        }
                    }
                },
            );
            // The daemon would call `note_replan_requested` here. It is
            // left out: the call moves `last_replan_epoch` outside any
            // journaled step, so replay cannot reproduce it and
            // `resume_service` stops with "replay divergence" at the next
            // commit CRC (seen while building this workload; a fix in
            // the program is a later change). Without it the engine may
            // ask again one epoch later, which costs one more solve out
            // here and nothing in the timed section.
        }
        if engine.state().epoch == self.size.crash_at {
            let (identical, recovery) = self.crash_and_resume(clock);
            result.extra = Some(recovery);
            result.failed |= !identical;
        }
        result
    }

    fn layers(&self, trace: &TraceData) -> Vec<(&'static str, f64)> {
        let hist_mean = |name: &str| {
            let (count, sum) = trace.hist(name);
            if count > 0.0 {
                sum / count
            } else {
                0.0
            }
        };
        let epochs = self.epochs as f64;
        let (live_shed, live_opens, live_journal_kb) = self.live_totals();
        vec![
            (
                "service.store.begin_ms",
                trace.span_p50_ms("service.store.begin"),
            ),
            (
                "service.engine.step_ms",
                trace.span_p50_ms("service.engine.step"),
            ),
            (
                "service.store.crc_ms",
                trace.span_p50_ms("service.store.crc"),
            ),
            (
                "service.store.commit_ms",
                trace.span_p50_ms("service.store.commit"),
            ),
            ("service.store.snapshot_ms", median(&self.snapshot_ms)),
            ("service.store.state_json_kb", mean(&self.state_json_kb)),
            (
                "service.store.journal_kb_per_epoch",
                (self.journal_kb + live_journal_kb) / epochs,
            ),
            (
                "service.engine.tasks_per_epoch",
                self.tasks_offered as f64 / epochs,
            ),
            (
                "service.engine.shed_tasks",
                (self.shed_tasks + live_shed) as f64 / epochs,
            ),
            // Per period: the scripted outage should open it once.
            (
                "service.engine.breaker_opens",
                (self.breaker_opens + live_opens) as f64 * self.size.period as f64 / epochs,
            ),
            (
                "runtime.persist.fsyncs_per_epoch",
                trace.counter_per_op("persist.fsyncs"),
            ),
            ("runtime.persist.fsync_us", hist_mean("persist.fsync_us")),
            (
                "runtime.persist.journal_append_us",
                hist_mean("persist.journal_append_us"),
            ),
            ("service.store.resume_ms", mean(&self.resume_ms)),
            (
                "service.store.resume_ms_per_epoch",
                self.resume_ms.iter().sum::<f64>() / self.resume_epochs.max(1) as f64,
            ),
        ]
    }
}
