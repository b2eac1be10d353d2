//! End-to-end over the real Unix socket: a daemon thread serves a
//! short burst from the loadgen, answers control-plane requests, and
//! shuts down cleanly on request. What the loadgen acked must match
//! what the daemon admitted.

#[cfg(unix)]
mod e2e {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;
    use thermaware_core::Solver;
    use thermaware_datacenter::ScenarioParams;
    use thermaware_service::daemon::{run_daemon, DaemonConfig};
    use thermaware_service::engine::{ServiceConfig, ServiceEngine};
    use thermaware_service::loadgen::{self, LoadgenConfig};
    use thermaware_workload::Curve;
    use thermaware_service::proto::{RejectReason, Request, Response};
    use thermaware_service::store::{resume_service, ServiceStore, StoreConfig};

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("thermaware-e2e-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn roundtrip(socket: &std::path::Path, req: &Request) -> Response {
        let mut stream = UnixStream::connect(socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let frame = serde_json::to_string(req).expect("encode");
        stream.write_all(frame.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send nl");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("recv");
        serde_json::from_str(line.trim_end()).expect("decode")
    }

    #[test]
    fn daemon_serves_load_then_shuts_down_on_request() {
        let dir = tmp_dir("socket");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let socket = dir.join("serve.sock");

        let dc = ScenarioParams::small_test().build(2).expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        let engine =
            ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
        let store_cfg = StoreConfig { durable: false, ..StoreConfig::new(dir.join("state")) };
        let store = ServiceStore::create(store_cfg, &engine).expect("store");

        let daemon_cfg = DaemonConfig {
            epoch_wall_ms: 10,
            read_timeout_ms: 1_000,
            max_epochs: Some(2_000), // backstop; the test ends via Shutdown
            ..DaemonConfig::new(&socket)
        };
        let server = std::thread::spawn(move || run_daemon(&daemon_cfg, engine, store, None));

        // Wait for the socket to come up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !socket.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(matches!(roundtrip(&socket, &Request::Ping), Response::Pong));

        // A short clean burst: everything offered should be acked.
        let load_cfg = LoadgenConfig {
            schedule: Curve::Constant { rate: 120.0 },
            duration_s: 1.0,
            connections: 4,
            batch_tasks: 8,
            ..LoadgenConfig::new(&socket)
        };
        let report = loadgen::run(&load_cfg);
        assert!(report.sent_batches > 0, "loadgen must have offered work");
        assert_eq!(report.io_errors, 0, "clean load, clean socket");
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(
            report.acked,
            report.sent_batches,
            "unthrottled load is fully acked"
        );
        assert!(report.latency_p50_ms >= 0.0 && report.latency_p99_ms >= report.latency_p50_ms);

        // Resubmitting an acked id must answer duplicate=true.
        let outcome =
            loadgen::verify(&socket, &report, 2, 1_000).expect("verify roundtrip");
        assert!(outcome.lost_ids.is_empty(), "no acked batch may be lost");
        assert_eq!(outcome.checked, report.acked.min(1_000) as usize);

        // Stats reflect the admitted work.
        let Response::Stats(stats) = roundtrip(&socket, &Request::Stats) else {
            panic!("stats request must answer with a report");
        };
        assert_eq!(stats.admitted_batches, report.acked);
        assert!(stats.admitted_tasks > 0);

        // Clean shutdown on request.
        assert!(matches!(
            roundtrip(&socket, &Request::Shutdown),
            Response::ShuttingDown
        ));
        let daemon_report = server
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
        assert!(daemon_report.epochs_run < 2_000, "stopped by request, not backstop");
        assert_eq!(daemon_report.stats.admitted_batches, report.acked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_and_oversized_frames_get_an_error_not_a_hangup() {
        let dir = tmp_dir("malformed");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let socket = dir.join("serve.sock");

        let dc = ScenarioParams::small_test().build(2).expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        let engine =
            ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
        let store_cfg = StoreConfig { durable: false, ..StoreConfig::new(dir.join("state")) };
        let store = ServiceStore::create(store_cfg, &engine).expect("store");
        let daemon_cfg = DaemonConfig {
            epoch_wall_ms: 10,
            read_timeout_ms: 1_000,
            max_epochs: Some(2_000),
            ..DaemonConfig::new(&socket)
        };
        let server = std::thread::spawn(move || run_daemon(&daemon_cfg, engine, store, None));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !socket.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut exchange = |frame: &[u8]| -> Response {
            stream.write_all(frame).expect("send");
            stream.write_all(b"\n").expect("send nl");
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            serde_json::from_str(line.trim_end()).expect("decode")
        };
        assert!(
            matches!(exchange(b"this is not json"), Response::Error { .. }),
            "garbage earns an error frame"
        );
        // The same connection still works afterwards.
        assert!(matches!(exchange(b"{\"type\":\"ping\"}"), Response::Pong));

        // A line inside the size cap but nested 200,000 deep: the JSON
        // reader recurses per level, and used to overflow the
        // connection thread's stack — aborting the whole daemon. Bare,
        // it is no request at its first byte; as a member of one, the
        // reader steps into it, and stops at the bound.
        assert!(matches!(exchange("[".repeat(200_000).as_bytes()), Response::Error { .. }));
        let member = format!("{{\"type\":\"ping\",\"pad\":{}", "[".repeat(200_000));
        match exchange(member.as_bytes()) {
            Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
            other => panic!("deep nesting answered {other:?}"),
        }
        assert!(matches!(exchange(b"{\"type\":\"ping\"}"), Response::Pong));

        // Two counts that each fit a `usize` and add up to 2^64: a
        // wrapping sum is 0, inside any cap — and the epoch loop would
        // then dispatch 2^63 tasks twice over.
        let wrapping = br#"{"type":"submit","id":"00000000000000a1","tasks":[[0,9223372036854775808],[1,9223372036854775808]]}"#;
        match exchange(wrapping) {
            Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::BatchTooLarge),
            other => panic!("an overflowing batch answered {other:?}"),
        }
        assert!(matches!(exchange(b"{\"type\":\"ping\"}"), Response::Pong));

        assert!(matches!(
            roundtrip(&socket, &Request::Shutdown),
            Response::ShuttingDown
        ));
        server.join().expect("thread").expect("clean exit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Faults over the socket: one the floor has is journaled and
    /// acknowledged with its epoch, and the stats show it; one naming a
    /// node or CRAC the floor lacks, or with a non-finite bias, is
    /// refused with an error frame and the connection stays usable; a
    /// service with no floor refuses every fault. The resumed store still
    /// holds the accepted one.
    #[test]
    fn faults_are_journaled_or_refused_at_the_socket() {
        use thermaware_runtime::{Fault, Floor, DEFAULT_TRIP_MARGIN_C};
        for floored in [true, false] {
            let dir = tmp_dir(&format!("faults-{floored}"));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let socket = dir.join("serve.sock");
            let dc = ScenarioParams::small_test().build(2).expect("scenario");
            let plan = Solver::new(&dc).solve().expect("plan");
            let floor = Floor::new(&dc, plan.crac_out_c(), true, DEFAULT_TRIP_MARGIN_C);
            let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
            if floored {
                engine = engine.with_floor(floor);
            }
            let store_cfg = StoreConfig { durable: false, ..StoreConfig::new(dir.join("state")) };
            let store = ServiceStore::create(store_cfg, &engine).expect("store");
            let daemon_cfg = DaemonConfig {
                epoch_wall_ms: 10,
                read_timeout_ms: 1_000,
                max_epochs: Some(2_000),
                ..DaemonConfig::new(&socket)
            };
            let server = std::thread::spawn(move || run_daemon(&daemon_cfg, engine, store, None));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !socket.exists() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }

            let hostile = [
                Fault::NodeDeath { node: 10_000 },
                Fault::CracFailure { unit: 7 },
                Fault::SensorDrift { bias_c: f64::NAN },
            ];
            for fault in hostile {
                match roundtrip(&socket, &Request::Fault { fault }) {
                    Response::Error { message } => assert!(message.contains("fault refused"), "{message}"),
                    other => panic!("{fault:?} answered {other:?}"),
                }
            }
            let dead = roundtrip(&socket, &Request::Fault { fault: Fault::NodeDeath { node: 1 } });
            // The stats are published after the ack: wait for the epoch
            // the fault entered to have run.
            let entered = match dead {
                Response::FaultAccepted { epoch } => epoch,
                _ => 0,
            };
            let stats = loop {
                let Response::Stats(stats) = roundtrip(&socket, &Request::Stats) else {
                    panic!("stats request must answer with a report");
                };
                if stats.epoch > entered {
                    break stats;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            assert!(matches!(roundtrip(&socket, &Request::Shutdown), Response::ShuttingDown));
            server.join().expect("thread").expect("clean exit");

            let (resumed, _) = resume_service(&dir.join("state")).expect("resume");
            if floored {
                assert!(matches!(dead, Response::FaultAccepted { .. }), "{dead:?}");
                assert!(stats.floor.as_ref().is_some_and(|f| f.dead_nodes >= 1), "{stats:?}");
                assert!(resumed.state().floor.as_ref().is_some_and(|f| f.dead[1]), "the resumed floor lost the fault");
            } else {
                assert!(matches!(dead, Response::Error { .. }), "{dead:?}");
                assert!(stats.floor.is_none() && resumed.state().floor.is_none());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
