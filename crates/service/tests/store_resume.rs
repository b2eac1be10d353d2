//! Durable-layer tests: journal replay resumes bit-identically, a tail
//! Begin without its Commit (the SIGKILL-mid-epoch shape) is re-applied
//! exactly once, and a torn journal tail is truncated, not fatal.

use std::fs::OpenOptions;
use std::io::Write;
use thermaware_core::Solver;
use thermaware_datacenter::ScenarioParams;
use thermaware_service::engine::{ReplanVerdict, ServiceConfig, ServiceEngine, ServiceState};
use thermaware_service::proto::Batch;
use thermaware_runtime::persist::PersistError;
use thermaware_service::store::{resume_service, state_json_crc, ServiceStore, StoreConfig};
use thermaware_runtime::{Fault, Floor, DEFAULT_TRIP_MARGIN_C};

fn engine(seed: u64) -> ServiceEngine {
    let dc = ScenarioParams::small_test().build(seed).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3)
}

fn batch(id: u64, task_type: usize, n: usize) -> Batch {
    Batch { id, tasks: vec![(task_type, n)] }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("thermaware-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `epochs` journaled epochs, committing each, snapshotting per the
/// store config.
fn drive(engine: &mut ServiceEngine, store: &mut ServiceStore, epochs: usize) {
    for i in 0..epochs {
        let epoch = engine.state().epoch;
        let batches = vec![batch(1000 + epoch as u64, i % 3, 4)];
        let verdict = ReplanVerdict::NotAttempted;
        store.append_begin(epoch, &batches, &verdict).expect("begin");
        engine.step(&batches, &verdict);
        let (_, crc) = state_json_crc(engine.state()).expect("crc");
        store.append_commit(epoch, crc).expect("commit");
        if store.snapshot_due(engine.state().epoch) {
            store.snapshot(engine).expect("snapshot");
        }
    }
}

#[test]
fn resume_after_clean_epochs_is_bit_identical() {
    let dir = tmp_dir("clean");
    let mut live = engine(7);
    let cfg = StoreConfig {
        durable: false, // tests: skip fsyncs, the bytes still land
        snapshot_interval: 4,
        ..StoreConfig::new(&dir)
    };
    let mut store = ServiceStore::create(cfg, &live).expect("create");
    drive(&mut live, &mut store, 10);
    store.sync().expect("sync");
    drop(store);

    let (resumed, info) = resume_service(&dir).expect("resume");
    assert_eq!(
        serde_json::to_string(resumed.state()).expect("resumed json"),
        serde_json::to_string(live.state()).expect("live json"),
        "resume must reproduce the live state byte-for-byte"
    );
    assert!(!info.tail_begin, "every epoch committed");
    assert!(info.snapshot_epoch >= 8, "replay starts at the newest snapshot");
    assert!(info.replayed_epochs <= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tail_begin_without_commit_is_applied_exactly_once() {
    let dir = tmp_dir("tail");
    let mut live = engine(7);
    let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &live).expect("create");
    drive(&mut live, &mut store, 5);

    // The SIGKILL shape: Begin journaled (and acked), no Commit, death.
    let epoch = live.state().epoch;
    let doomed = vec![batch(9999, 0, 6)];
    let verdict = ReplanVerdict::TimedOut;
    store.append_begin(epoch, &doomed, &verdict).expect("begin");
    live.step(&doomed, &verdict); // what the dying process computed
    drop(store);

    let (resumed, info) = resume_service(&dir).expect("resume");
    assert!(info.tail_begin, "tail Begin detected");
    assert_eq!(
        serde_json::to_string(resumed.state()).expect("resumed"),
        serde_json::to_string(live.state()).expect("live"),
        "tail epoch re-executed deterministically"
    );
    assert!(resumed.would_duplicate(9999), "acked batch survives the kill");
    assert_eq!(resumed.state().totals.replan_failures, live.state().totals.replan_failures);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_truncated_not_fatal() {
    let dir = tmp_dir("torn");
    let mut live = engine(7);
    let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &live).expect("create");
    drive(&mut live, &mut store, 3);
    store.sync().expect("sync");
    drop(store);

    // A half-written record: valid CRC prefix followed by garbage.
    let mut f = OpenOptions::new()
        .append(true)
        .open(dir.join("journal.jsonl"))
        .expect("open journal");
    f.write_all(b"deadbeef {\"rec\":\"begin\",\"epo").expect("tear");
    drop(f);

    let (resumed, info) = resume_service(&dir).expect("resume survives the tear");
    assert!(info.truncated_bytes > 0, "tear measured and cut");
    assert_eq!(
        serde_json::to_string(resumed.state()).expect("resumed"),
        serde_json::to_string(live.state()).expect("live"),
    );

    // The truncation leaves an appendable journal: reopen and continue.
    let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::reopen(cfg).expect("reopen");
    let mut resumed = resumed;
    drive(&mut resumed, &mut store, 2);
    store.sync().expect("sync");
    drop(store);
    let (again, _) = resume_service(&dir).expect("second resume");
    assert_eq!(
        serde_json::to_string(again.state()).expect("again"),
        serde_json::to_string(resumed.state()).expect("resumed"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verdicts_replay_without_resolving() {
    // A journaled Ok verdict replays the *recorded* plan: resume needs
    // no LP, and a deliberately-different stage3 in the journal proves
    // replay uses the journal, not a fresh solve.
    let dir = tmp_dir("verdict");
    let mut live = engine(7);
    let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &live).expect("create");

    let mut doctored = live.state().stage3.clone();
    doctored.reward_rate *= 0.5; // visibly not what a solver would return
    let verdict = ReplanVerdict::Ok { stage3: doctored.clone() };
    let epoch = live.state().epoch;
    store.append_begin(epoch, &[], &verdict).expect("begin");
    live.step(&[], &verdict);
    let (_, crc) = state_json_crc(live.state()).expect("crc");
    store.append_commit(epoch, crc).expect("commit");
    drop(store);

    let (resumed, _) = resume_service(&dir).expect("resume");
    assert_eq!(resumed.state().stage3.reward_rate, doctored.reward_rate);
    assert_eq!(resumed.state().totals.replans, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon's epoch order — begin → step → commit → snapshot → ask
/// for a replan — with a request made after the last snapshot. The
/// request used to move `last_replan_epoch` outside any journaled step,
/// so replay from the snapshot reached a different state CRC than the
/// commit record held and resume stopped with `replay divergence`.
#[test]
fn replan_requested_after_the_last_snapshot_resumes_bit_identically() {
    let dir = tmp_dir("replan");
    let mut live = engine(7);
    let cfg = StoreConfig { durable: false, snapshot_interval: 4, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &live).expect("create");
    let mut inflight: Option<ReplanVerdict> = None;
    let mut last_request_epoch = 0;
    for _ in 0..10 {
        let epoch = live.state().epoch;
        let batches = vec![batch(1000 + epoch as u64, 0, 40)]; // far off the planned rates
        let verdict = inflight.take().unwrap_or(ReplanVerdict::NotAttempted);
        store.append_begin(epoch, &batches, &verdict).expect("begin");
        live.step(&batches, &verdict);
        let (_, crc) = state_json_crc(live.state()).expect("crc");
        store.append_commit(epoch, crc).expect("commit");
        if store.snapshot_due(live.state().epoch) {
            store.snapshot(&live).expect("snapshot");
        }
        if live.wants_replan() {
            let _job = live.solve_request();
            // The solve answers in the next epoch's begin record.
            inflight = Some(ReplanVerdict::Ok { stage3: live.state().stage3.clone() });
            last_request_epoch = live.state().epoch;
        }
    }
    store.sync().expect("sync");
    drop(store);

    let (resumed, info) = resume_service(&dir).expect("resume");
    assert!(
        last_request_epoch >= info.snapshot_epoch && info.replayed_epochs > 0,
        "a replan was requested at epoch {last_request_epoch}, after the snapshot at {}",
        info.snapshot_epoch
    );
    assert_eq!(
        serde_json::to_string(resumed.state()).expect("resumed"),
        serde_json::to_string(live.state()).expect("live"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A generation whose file name disagrees with the epoch inside it is
/// corrupt: resume skips it for the next one down.
#[test]
fn misnamed_snapshot_generation_is_skipped() {
    let dir = tmp_dir("misnamed");
    let mut live = engine(7);
    let cfg = StoreConfig { durable: false, snapshot_interval: 4, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &live).expect("create");
    drive(&mut live, &mut store, 10);
    store.sync().expect("sync");
    drop(store);
    std::fs::copy(dir.join("snap-00000004.json"), dir.join("snap-00000012.json")).expect("plant");

    let (resumed, info) = resume_service(&dir).expect("resume");
    assert_eq!(info.snapshot_epoch, 8, "the planted generation 12 holds epoch 4");
    assert_eq!(
        serde_json::to_string(resumed.state()).expect("resumed"),
        serde_json::to_string(live.state()).expect("live"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// What `resume_service` made of a store it must refuse.
fn refusal(dir: &std::path::Path) -> PersistError {
    match resume_service(dir) {
        Ok((engine, _)) => panic!("resumed to epoch {}", engine.state().epoch),
        Err(e) => e,
    }
}

/// A journal is bytes from outside: a record can be well framed, carry a
/// valid CRC and still not fit the room in the header. The socket path
/// refuses a batch naming an unknown task type or holding more than
/// `max_batch_tasks` tasks, and the daemon journals only plans it solved;
/// replay must refuse all three — as a typed error naming the epoch, not
/// an index out of bounds in `step`, a sum that overflows, or a loop of
/// 2^63 dispatches.
#[test]
fn journaled_input_that_misfits_the_room_is_corrupt_not_a_panic() {
    for name in ["badtype", "badplan", "toomany", "overflow"] {
        let dir = tmp_dir(name);
        let mut live = engine(7);
        let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
        let mut store = ServiceStore::create(cfg, &live).expect("create");
        drive(&mut live, &mut store, 2);
        let (batches, verdict) = match name {
            "badtype" => (vec![batch(77, 99, 1)], ReplanVerdict::NotAttempted),
            "badplan" => {
                let mut stage3 = live.state().stage3.clone();
                stage3.group_of_core.pop();
                (Vec::new(), ReplanVerdict::Ok { stage3 })
            }
            "toomany" => {
                let over = live.config().max_batch_tasks + 1;
                (vec![batch(77, 0, over)], ReplanVerdict::NotAttempted)
            }
            _ => {
                // Each count survives the trip through JSON's `f64`; their
                // sum is 2^64.
                let half = Batch { id: 77, tasks: vec![(0, 1 << 63), (1, 1 << 63)] };
                (vec![half], ReplanVerdict::NotAttempted)
            }
        };
        store.append_begin(2, &batches, &verdict).expect("begin");
        drop(store);

        match refusal(&dir) {
            PersistError::Corrupt { reason, .. } => {
                assert!(reason.contains("epoch 2"), "{name}: {reason}")
            }
            other => panic!("{name}: expected Corrupt, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A snapshot with a valid envelope and a valid CRC whose tables are for
/// another room (`ewma` one type short, as a generation copied in from
/// another store would be), or are not tables a live scheduler could hold
/// (a `candidates` row out of order: "the lowest core among equals" would
/// no longer be the first), is one more corrupt generation: skipped —
/// with no older one left, for the header's epoch 0 — never stepped.
#[test]
fn snapshot_that_misfits_the_room_is_skipped() {
    for name in ["misfit", "unordered"] {
        let dir = tmp_dir(name);
        let mut live = engine(7);
        let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
        let mut store = ServiceStore::create(cfg, &live).expect("create");

        let foreign = if name == "misfit" {
            let mut foreign = live.state().clone();
            foreign.ewma.pop();
            foreign
        } else {
            let json = serde_json::to_string(live.state()).expect("encode");
            const ROWS: &str = r#""candidates":[["#;
            let row = json.find(ROWS).expect("the scheduler's rows") + ROWS.len();
            let end = row + json[row..].find(']').expect("row end");
            let mut cores: Vec<&str> = json[row..end].split(',').collect();
            cores.swap(0, 1);
            let swapped = format!("{}{}{}", &json[..row], cores.join(","), &json[end..]);
            let foreign: ServiceState =
                serde_json::from_str(&swapped).expect("still a well-formed state");
            let misfit = foreign.sim.fits(live.dc()).expect_err("an unordered row");
            assert!(misfit.contains("candidates"), "{misfit}");
            foreign
        };
        let (json, crc) = state_json_crc(&foreign).expect("encode");
        let envelope = format!(
            r#"{{"version":1,"epoch":0,"state_crc":{crc},"state":{}}}"#,
            serde_json::to_string(&json).expect("quote")
        );
        std::fs::write(dir.join("snap-00000000.json"), envelope).expect("plant");

        drive(&mut live, &mut store, 3);
        store.sync().expect("sync");
        drop(store);

        let (resumed, info) = resume_service(&dir).expect("resume");
        assert_eq!((info.snapshot_epoch, info.replayed_epochs), (0, 3), "{name}");
        assert_eq!(
            serde_json::to_string(resumed.state()).expect("resumed"),
            serde_json::to_string(live.state()).expect("live"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With no usable generation resume bootstraps from the header, which is
/// a file like the others: a plan in it that is not for its own room is
/// a corrupt header, not an index out of bounds building the scheduler.
#[test]
fn header_plan_that_misfits_the_room_is_corrupt_not_a_panic() {
    let dir = tmp_dir("badheader");
    let live = engine(7);
    let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
    drop(ServiceStore::create(cfg, &live).expect("create"));
    std::fs::remove_file(dir.join("snap-00000000.json")).expect("drop the only generation");
    let header = std::fs::read_to_string(dir.join("service.json")).expect("header");
    let short = header.replacen(r#""group_of_core":["#, r#""group_of_core":[0,"#, 1);
    assert_ne!(short, header);
    std::fs::write(dir.join("service.json"), short).expect("doctor");

    match refusal(&dir) {
        PersistError::Corrupt { path, reason } => {
            assert!(path.ends_with("service.json") && reason.contains("stage-3"), "{reason}")
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ten epochs, a snapshot every four: generations 0, 4 and 8, and epochs
/// 8 and 9 journaled after the newest.
fn ten_epochs(name: &str) -> std::path::PathBuf {
    let dir = tmp_dir(name);
    let mut live = engine(7);
    let cfg = StoreConfig { durable: false, snapshot_interval: 4, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &live).expect("create");
    drive(&mut live, &mut store, 10);
    store.sync().expect("sync");
    dir
}

/// A generation in a newer format is refused, as the supervisor refuses
/// one: read as damaged, it would be skipped for an older generation and
/// the resume would go on from bytes this build cannot judge.
#[test]
fn a_future_version_snapshot_is_refused() {
    let dir = ten_epochs("future");
    let newest = dir.join("snap-00000008.json");
    let text = std::fs::read_to_string(&newest).expect("snapshot");
    let future = text.replacen(r#"{"version":1,"#, r#"{"version":99,"#, 1);
    assert_ne!(future, text);
    std::fs::write(&newest, future).expect("rewrite");

    match refusal(&dir) {
        PersistError::UnsupportedVersion { path, version, supported } => {
            assert_eq!((path, version, supported), (newest, 99, 1))
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The refusal names the version the service store supports, not the
/// supervisor's.
#[test]
fn a_newer_header_names_the_version_the_store_reads() {
    let dir = ten_epochs("newheader");
    let header = dir.join("service.json");
    let text = std::fs::read_to_string(&header).expect("header");
    let newer = text.replacen(r#"{"version":1,"#, r#"{"version":2,"#, 1);
    assert_ne!(newer, text);
    std::fs::write(&header, newer).expect("rewrite");

    assert_eq!(
        refusal(&dir).to_string(),
        format!("{}: format version 2 is newer than supported (1)", header.display())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An epoch missing from the journal after the newest generation — its
/// begin and commit gone, the frames around them intact — is a gap, not
/// an epoch silently skipped.
#[test]
fn a_journal_gap_is_corrupt() {
    let dir = ten_epochs("gap");
    let journal = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal");
    let kept: String = text
        .split_inclusive('\n')
        .filter(|line| {
            !line.contains(r#"{"rec":"begin","epoch":8,"#) && !line.contains(r#"{"rec":"commit","epoch":8,"#)
        })
        .collect();
    assert_eq!(text.lines().count() - kept.lines().count(), 2, "epoch 8's begin and commit");
    std::fs::write(&journal, kept).expect("rewrite");

    match refusal(&dir) {
        PersistError::Corrupt { path, reason } => {
            assert_eq!(path, journal);
            assert!(reason.contains("journal gap") && reason.contains("epoch 9"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `last_replan_epoch` comes from disk: one past the state's own epoch
/// (`u64::MAX` here, which `wants_replan` adds the replan gap to) is
/// refused where the state enters, by name, and the resume skips that
/// generation for the one before it.
#[test]
fn a_replan_epoch_past_the_state_is_refused() {
    let dir = tmp_dir("replan-epoch");
    let mut live = engine(7);
    let cfg = StoreConfig { durable: false, snapshot_interval: 2, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &live).expect("create");
    drive(&mut live, &mut store, 2);
    drop(store);

    let json = serde_json::to_string(live.state()).expect("encode");
    let key = r#""last_replan_epoch":0"#;
    assert!(json.contains(key), "a run with no verdict yet");
    let hostile = json.replacen(key, r#""last_replan_epoch":18446744073709551615"#, 1);
    let state: ServiceState = serde_json::from_str(&hostile).expect("a well-formed state");
    match ServiceEngine::from_state(live.dc().clone(), ServiceConfig::default(), state.clone()) {
        Err(reason) => assert!(reason.contains("last replan"), "{reason}"),
        Ok(_) => panic!("a replan epoch past the state's accepted"),
    }
    let (text, crc) = state_json_crc(&state).expect("encode");
    let envelope = format!(
        r#"{{"version":1,"epoch":2,"state_crc":{crc},"state":{}}}"#,
        serde_json::to_string(&text).expect("quote")
    );
    std::fs::write(dir.join("snap-00000002.json"), envelope).expect("plant");
    let (resumed, info) = resume_service(&dir).expect("resume");
    assert_eq!((info.snapshots_skipped, info.snapshot_epoch, resumed.state().epoch), (1, 0, 2));
    // The gap is added saturating: the widest one asks for nothing.
    let wide = ServiceConfig { min_replan_gap_epochs: usize::MAX, ..ServiceConfig::default() };
    let engine = ServiceEngine::from_state(live.dc().clone(), wide, live.state().clone()).expect("fits");
    assert!(!engine.wants_replan());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault record is bytes from outside too: a journaled fault naming a
/// CRAC or node the floor does not have, carrying a non-finite bias or
/// factor, or sent to an engine with no floor is refused at replay as a
/// corrupt record naming the epoch — the socket refuses the same.
#[test]
fn a_journaled_fault_that_misfits_the_floor_is_corrupt() {
    let cases = [
        ("unit", Fault::CracFailure { unit: 9 }, true),
        ("node", Fault::NodeDeath { node: 999 }, true),
        ("bias", Fault::SensorDrift { bias_c: f64::NAN }, true),
        ("factor", Fault::ArrivalSurge { factor: f64::INFINITY }, true),
        ("floorless", Fault::NodeDeath { node: 0 }, false),
    ];
    for (name, fault, floored) in cases {
        let dir = tmp_dir(&format!("fault-{name}"));
        let mut live = engine(7);
        if floored {
            let outlets = vec![18.0; live.dc().n_crac()];
            let floor = Floor::new(live.dc(), &outlets, true, DEFAULT_TRIP_MARGIN_C);
            live = live.with_floor(floor);
        }
        let cfg = StoreConfig { durable: false, ..StoreConfig::new(&dir) };
        let mut store = ServiceStore::create(cfg, &live).expect("create");
        drive(&mut live, &mut store, 2);
        store.append_begin_with(2, &[], &[fault], &ReplanVerdict::NotAttempted).expect("begin");
        drop(store);
        match refusal(&dir) {
            PersistError::Corrupt { reason, .. } => assert!(reason.contains("epoch 2"), "{name}: {reason}"),
            other => panic!("{name}: expected Corrupt, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
