//! `thermaware-loadgen` — drive load (and chaos) at a running
//! `thermaware-serve`, verify an earlier run's id ledger against a
//! resumed daemon (`--verify-against`), or send it one request
//! (`--request`).

use std::path::PathBuf;
use std::process::ExitCode;
use thermaware_datacenter::Args;
use thermaware_service::loadgen::{request, run, verify, LoadReport, LoadgenConfig};
use thermaware_service::proto::{Request, Response};
use thermaware_workload::Curve;

const USAGE: &str = "thermaware-loadgen: load generator for thermaware-serve

usage: thermaware-loadgen --socket PATH [options]
       thermaware-loadgen --socket PATH --verify-against REPORT.json [--verify-window N]
       thermaware-loadgen --socket PATH --request JSON

load:
  --schedule SPEC        constant:RATE | diurnal:BASE:PEAK:PERIOD |
                         surge:BASE:SURGE:START:LEN   [constant:200]
  --duration-s S         run length                    [10]
  --connections N        client threads                [16]
  --batch-tasks N        tasks per batch               [32]
  --task-types N         task-type universe            [3]
  --budget-ms N          per-request admission budget  [none]
  --seed N               chaos RNG / id-space seed     [1]

chaos:
  --disconnect-rate F    drop socket after send, skip ack   [0]
  --malformed-rate F     send a garbage frame               [0]
  --slowloris-rate F     dribble the frame with a mid-hold  [0]
  --slowloris-hold-ms N  dribble hold                       [20]

output:
  --report PATH          write the JSON report here

verify:
  --verify-against PATH  earlier run's report: every acked id in the
                         window must answer duplicate=true
  --verify-window N      most-recent acked ids to check     [5000]

probe:
  --request JSON         send this one request line (e.g.
                         {\"type\":\"fault\",\"fault\":{\"kind\":\"node_death\",\"node\":0}}),
                         print the answer; fails on an error answer";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1), USAGE);
    let Some(socket) = args.get_opt_str("socket").map(PathBuf::from) else {
        eprintln!("--socket is required\n{USAGE}");
        return ExitCode::from(2);
    };

    if let Some(line) = args.get_opt_str("request") {
        let answer = serde_json::from_str::<Request>(&line)
            .map_err(|e| format!("bad --request: {e}"))
            .and_then(|r| request(&socket, &r).map_err(|e| format!("request failed: {e}")))
            .and_then(|response| match response {
                Response::Error { message } => Err(format!("the daemon refused: {message}")),
                response => serde_json::to_string(&response).map_err(|e| e.to_string()),
            });
        return match answer {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(report_path) = args.get_opt_str("verify-against") {
        let raw = match std::fs::read_to_string(&report_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot read {report_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report: LoadReport = match serde_json::from_str(&raw) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot parse {report_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let connections = args.get_usize("connections", 16);
        let window = args.get_usize("verify-window", 5_000);
        match verify(&socket, &report, connections, window) {
            Ok(outcome) => {
                eprintln!(
                    "verified {} acked id(s): {} lost; {} unacked resolved ({} admitted pre-kill, {} fresh)",
                    outcome.checked,
                    outcome.lost_ids.len(),
                    outcome.unacked_admitted + outcome.unacked_fresh,
                    outcome.unacked_admitted,
                    outcome.unacked_fresh,
                );
                if outcome.lost_ids.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("LOST admitted batches: {:?}", outcome.lost_ids);
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("verify failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let mut cfg = LoadgenConfig::new(&socket);
        if let Some(spec) = args.get_opt_str("schedule") {
            match Curve::parse(&spec) {
                Some(s) => cfg.schedule = s,
                None => {
                    eprintln!("bad --schedule '{spec}'\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
        cfg.duration_s = args.get_f64("duration-s", 10.0);
        cfg.connections = args.get_usize("connections", 16);
        cfg.batch_tasks = args.get_usize("batch-tasks", 32);
        cfg.task_types = args.get_usize("task-types", 3);
        cfg.budget_ms = args.get_opt_str("budget-ms").and_then(|v| v.parse().ok());
        cfg.disconnect_rate = args.get_f64("disconnect-rate", 0.0);
        cfg.malformed_rate = args.get_f64("malformed-rate", 0.0);
        cfg.slowloris_rate = args.get_f64("slowloris-rate", 0.0);
        cfg.slowloris_hold_ms = args.get_u64("slowloris-hold-ms", 20);
        cfg.seed = args.get_u64("seed", 1);

        let report = run(&cfg);
        eprintln!(
            "{} batch(es) / {} task(s) in {:.1}s: {} acked, {} dup, {} queue-full, {} budget-expired, {} other-reject, {} proto-err, {} io-err",
            report.sent_batches,
            report.sent_tasks,
            report.duration_s,
            report.acked,
            report.duplicates,
            report.rejected_queue_full,
            report.rejected_budget,
            report.rejected_other,
            report.protocol_errors,
            report.io_errors,
        );
        eprintln!(
            "admission latency: p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms; {} unacked in-doubt",
            report.latency_p50_ms,
            report.latency_p99_ms,
            report.latency_max_ms,
            report.unacked_ids.len(),
        );
        if let Some(path) = args.get_opt_str("report") {
            match serde_json::to_string(&report) {
                Ok(json) => {
                    if let Err(e) = std::fs::write(&path, json) {
                        eprintln!("cannot write report {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("report written to {path}");
                }
                Err(e) => {
                    eprintln!("report serialization failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        ExitCode::SUCCESS
    }
}
