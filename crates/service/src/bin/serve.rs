//! `thermaware-serve` — the scheduling daemon.
//!
//! Creates a fresh service directory (solving the initial three-stage
//! plan; the service stands on a supervised floor at the plan's CRAC
//! outlets) or resumes an existing one (journal replay, no re-solving),
//! then serves admissions and floor faults over a Unix socket until
//! shutdown.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use thermaware_core::Solver;
use thermaware_datacenter::{Args, ScenarioParams};
use thermaware_obs::JsonlRecorder;
use thermaware_service::breaker::BreakerConfig;
use thermaware_service::daemon::{run_daemon, DaemonConfig};
use thermaware_service::engine::{ServiceConfig, ServiceEngine};
use thermaware_service::store::{resume_service, ServiceStore, StoreConfig};
use thermaware_runtime::{Floor, DEFAULT_TRIP_MARGIN_C};

const USAGE: &str = "thermaware-serve: the scheduling-as-a-service daemon

usage: thermaware-serve --dir DIR --socket PATH [options]

state:
  --dir DIR              service directory (journal, snapshots, header)
  --socket PATH          unix socket to listen on
  --seed N               scenario seed for a fresh directory  [1]

epoch loop:
  --epoch-wall-ms N      wall ms per epoch tick               [50]
  --epoch-s S            simulated seconds per epoch          [1.0]
  --queue-capacity N     bounded admission queue, batches     [256]
  --max-epochs N         stop after N epochs (0 = run forever) [0]

replanning:
  --solve-timeout-ms N   wall budget per replan solve         [2000]
  --drift-threshold F    EWMA drift that triggers a replan    [0.25]
  --min-replan-gap N     min epochs between replan requests   [4]
  --breaker-threshold N  consecutive failures that open       [3]
  --breaker-cooldown N   epochs open before a half-open probe [4]

durability:
  --flush-every N        commit appends per fsync barrier     [8]
  --snapshot-interval N  epochs between snapshots             [64]
  --retain N             snapshot generations kept            [3]
  --durable 0|1          fsync at all                         [1]

robustness drills:
  --read-timeout-ms N    per-connection read timeout          [5000]
  --chaos-solver-rate F  inject solver failures, probability  [0]
  --chaos-seed N         chaos RNG seed                       [0]

observability:
  --trace PATH           rotating JSONL trace file
  --trace-max-bytes N    rotate threshold                     [4194304]
  --trace-keep N         rotated generations kept             [2]";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1), USAGE);
    let Some(dir) = args.get_opt_str("dir").map(PathBuf::from) else {
        eprintln!("--dir is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(socket) = args.get_opt_str("socket") else {
        eprintln!("--socket is required\n{USAGE}");
        return ExitCode::from(2);
    };

    let service_cfg = ServiceConfig {
        epoch_s: args.get_f64("epoch-s", 1.0),
        drift_threshold: args.get_f64("drift-threshold", 0.25),
        min_replan_gap_epochs: args.get_usize("min-replan-gap", 4),
        breaker: BreakerConfig {
            failure_threshold: args.get_u64("breaker-threshold", 3) as u32,
            cooldown_epochs: args.get_u64("breaker-cooldown", 4) as u32,
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    };
    let store_cfg = StoreConfig {
        durable: args.get_u64("durable", 1) != 0,
        flush_every: args.get_usize("flush-every", 8),
        snapshot_interval: args.get_usize("snapshot-interval", 64),
        retain: args.get_usize("retain", 3),
        ..StoreConfig::new(&dir)
    };
    let mut daemon_cfg = DaemonConfig::new(&socket);
    daemon_cfg.epoch_wall_ms = args.get_u64("epoch-wall-ms", 50);
    daemon_cfg.queue_capacity = args.get_usize("queue-capacity", 256);
    daemon_cfg.solve_timeout_ms = args.get_u64("solve-timeout-ms", 2_000);
    daemon_cfg.read_timeout_ms = args.get_u64("read-timeout-ms", 5_000);
    daemon_cfg.chaos_solver_rate = args.get_f64("chaos-solver-rate", 0.0);
    daemon_cfg.chaos_seed = args.get_u64("chaos-seed", 0);
    let max_epochs = args.get_usize("max-epochs", 0);
    daemon_cfg.max_epochs = (max_epochs > 0).then_some(max_epochs);

    let trace = match args.get_opt_str("trace") {
        Some(path) => {
            let max_bytes = args.get_u64("trace-max-bytes", 4 * 1024 * 1024);
            let keep = args.get_usize("trace-keep", 2);
            match JsonlRecorder::create_rotating(&path, max_bytes, keep) {
                Ok(r) => Some(Arc::new(r)),
                Err(e) => {
                    eprintln!("cannot create trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let _guard = trace
        .as_ref()
        .map(|r| thermaware_obs::install(Arc::clone(r) as Arc<dyn thermaware_obs::Recorder>));

    // Resume when the directory already holds a service; bootstrap
    // (scenario build + full three-stage solve) otherwise.
    let (engine, store) = if dir.join("service.json").exists() {
        match resume_service(&dir) {
            Ok((engine, info)) => {
                eprintln!(
                    "resumed: snapshot epoch {}, {} epoch(s) replayed{}{}",
                    info.snapshot_epoch,
                    info.replayed_epochs,
                    if info.tail_begin { ", tail begin re-applied" } else { "" },
                    if info.truncated_bytes > 0 {
                        format!(", {} torn byte(s) truncated", info.truncated_bytes)
                    } else {
                        String::new()
                    }
                );
                match ServiceStore::reopen(store_cfg) {
                    Ok(store) => (engine, store),
                    Err(e) => {
                        eprintln!("cannot reopen store: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("resume failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let seed = args.get_u64("seed", 1);
        let dc = match ScenarioParams::small_test().build(seed) {
            Ok(dc) => dc,
            Err(e) => {
                eprintln!("scenario build failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let plan = match Solver::new(&dc).solve() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("initial solve failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let floor = Floor::new(&dc, plan.crac_out_c(), true, DEFAULT_TRIP_MARGIN_C);
        let engine = ServiceEngine::new(dc, service_cfg, &plan.pstates, &plan.stage3).with_floor(floor);
        let store = match ServiceStore::create(store_cfg, &engine) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot create store: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("fresh service: seed {seed}, initial reward rate {:.3}", plan.reward_rate());
        (engine, store)
    };

    eprintln!("listening on {socket}");
    let outcome = run_daemon(&daemon_cfg, engine, store, trace.as_deref());
    // Clean exits get the counter/histogram summary lines; a SIGKILL
    // keeps only the streamed spans (which is what the drill checks).
    if let Some(t) = &trace {
        if let Err(e) = t.finish() {
            eprintln!("trace finish failed: {e}");
        }
    }
    match outcome {
        Ok(report) => {
            match serde_json::to_string(&report.stats) {
                Ok(json) => println!("{json}"),
                Err(e) => eprintln!("stats serialization failed: {e}"),
            }
            eprintln!("clean shutdown after {} epoch(s)", report.epochs_run);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("daemon failed: {e}");
            ExitCode::FAILURE
        }
    }
}
