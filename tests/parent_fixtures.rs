//! Directories written by an **earlier commit** keep resuming: two
//! service stores, committed under `tests/fixtures/` as that commit left
//! them, are copied to a temp dir, resumed, and the resumed state's
//! `(json.len(), crc)` held to what the writing commit computed. The
//! round-trip suites write and read with the same build, so a changed
//! key, number form or field order passes them; this is the test that
//! reads bytes this build did not write.
//!
//! Both fixtures are on one room (2 nodes, 1 CRAC: 64 cores, eight task
//! types — small enough to commit, and its plan admits work):
//!
//! * `service_store/` — `retain: 1`, snapshot every 8: eleven epochs with
//!   a `Failed` verdict at epoch 3, the snapshot at 8, then epochs 8–10
//!   journaled after it — epoch 9 carries an `Ok` verdict (a replan
//!   replayed into the scheduler's plan tables), epoch 10 is a `Begin`
//!   without its `Commit` (the process died mid-epoch). It predates the
//!   engine's floor, so it also holds that a store with none resumes and
//!   rewrites to the bytes it had.
//! * `supervised_store/` — the engine on a supervised floor, `retain: 1`,
//!   snapshot every 4: inlet sensors drift 3 °C hot at epoch 1 (two
//!   outlet drops, a throttle for the power the colder air costs, then
//!   the Stage-3 replan the floor asks for, an `Ok` verdict at epoch 2),
//!   so the snapshot at 4 holds a floor that has acted. Replayed after
//!   it: node 1 dies at epoch 5, epoch 6 takes the replan that death
//!   asks for and the failure of the room's only CRAC (the meltdown
//!   path: `"inf"` observations, every node tripped and its in-flight
//!   work lost), and epoch 7 is a `Begin` without its `Commit`.
//!
//! Neither replay solves an LP — verdicts are journaled — so the pins
//! follow the encoding and the epoch logic only, not the LP kernels'
//! bits.

use std::fs;
use std::path::{Path, PathBuf};
use thermaware::core::stage3::Stage3Solution;
use thermaware::core::Solver;
use thermaware::datacenter::{DataCenter, ScenarioParams};
use thermaware::runtime::{Fault, Floor, DEFAULT_TRIP_MARGIN_C};
use thermaware::service::store::{state_json_crc, ServiceHeader, ServiceRecord, StoreConfig};
use thermaware::service::{
    resume_service, Batch, ReplanVerdict, ServiceConfig, ServiceEngine, ServiceStore,
};

const SERVICE_STORE: &str = "service_store";
const SUPERVISED_STORE: &str = "supervised_store";

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A scratch copy of one fixture directory: resume truncates torn tails
/// in place, and the committed files must not move.
fn scratch_copy(name: &str) -> PathBuf {
    let to = std::env::temp_dir().join(format!("thermaware-fixture-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&to);
    fs::create_dir_all(&to).expect("mkdir");
    for entry in fs::read_dir(fixtures().join(name)).expect("fixture directory") {
        let entry = entry.expect("entry");
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
    to
}

#[test]
fn parent_written_service_store_resumes() {
    let dir = scratch_copy(SERVICE_STORE);
    let (engine, info) = resume_service(&dir).expect("resume");
    assert_eq!((info.snapshot_epoch, info.replayed_epochs), (8, 3));
    assert!(info.tail_begin, "epoch 10 was begun and never committed");
    assert_eq!(info.truncated_bytes, 0);
    let state = engine.state();
    assert_eq!((state.epoch, state.totals.replan_failures, state.totals.replans), (11, 1, 1));
    let (json, crc) = state_json_crc(state).expect("encode");
    assert_eq!((json.len(), crc), SERVICE_PIN);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn parent_written_supervised_store_resumes() {
    let dir = scratch_copy(SUPERVISED_STORE);
    let (engine, info) = resume_service(&dir).expect("resume");
    assert_eq!((info.snapshot_epoch, info.replayed_epochs), (4, 4));
    assert!(info.tail_begin, "epoch 7 was begun and never committed");
    let state = engine.state();
    let floor = state.floor.as_ref().expect("the floor came back");
    assert_eq!((state.epoch, state.totals.replans), (8, 2));
    assert!(floor.meltdown && floor.failed[0] && floor.dead.iter().all(|&d| d));
    let (json, crc) = state_json_crc(state).expect("encode");
    assert!(json.contains("\"inf\""), "the meltdown's observations are in the log");
    assert_eq!((json.len(), crc), SUPERVISED_PIN);
    let _ = fs::remove_dir_all(&dir);
}

/// `(json.len(), crc)` of the resumed states, as `write_fixtures` printed
/// them at the writing commit.
const SERVICE_PIN: (usize, u32) = (30_776, 0x27b5_4936);
const SUPERVISED_PIN: (usize, u32) = (16_758, 0xa91e_a9f9);

fn room() -> DataCenter {
    ScenarioParams { n_nodes: 2, n_crac: 1, ..ScenarioParams::small_test() }
        .build(1)
        .expect("scenario")
}

/// Every type's planned arrivals for one epoch, in one batch.
fn epoch_batch(dc: &DataCenter, epoch: usize) -> Batch {
    let tasks = dc
        .workload
        .task_types
        .iter()
        .enumerate()
        .map(|(i, t)| (i, t.arrival_rate.ceil() as usize))
        .collect();
    Batch { id: (epoch as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15), tasks }
}

/// The write direction: this build, fed the plans the committed headers
/// hold and the verdicts the committed journals hold, writes the six
/// fixture files byte for byte. No LP is solved, so an LP re-pin cannot
/// move it; a change to what the store writes, or to the floor's epochs,
/// does.
#[test]
fn this_build_writes_the_fixture_bytes() {
    let header_of = |name: &str| -> ServiceHeader {
        serde_json::from_str(&header(&fixtures().join(name).join("service.json"))).expect("service header")
    };
    let (service, supervised) = (header_of(SERVICE_STORE), header_of(SUPERVISED_STORE));
    let outlets = &supervised.floor.as_ref().expect("the supervised header's floor").outlets;
    let root = std::env::temp_dir().join(format!("thermaware-fixture-write-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let journaled = |name: &str| {
        let verdicts = journal_verdicts(&fixtures().join(name));
        move |epoch: usize, _: &ServiceEngine| verdicts[epoch].clone()
    };
    write_service_store(&root, &service.pstates, &service.stage3, journaled(SERVICE_STORE));
    write_supervised_store(&root, &supervised.pstates, &supervised.stage3, outlets, journaled(SUPERVISED_STORE));
    for name in [SERVICE_STORE, SUPERVISED_STORE] {
        let mut committed = file_names(&fixtures().join(name));
        assert_eq!(file_names(&root.join(name)), committed, "{name}: the files written");
        for file in committed.drain(..) {
            let want = fs::read(fixtures().join(name).join(&file)).expect("fixture");
            let got = fs::read(root.join(name).join(&file)).expect("written");
            assert!(got == want, "{name}/{file}: {} bytes written, {} committed", got.len(), want.len());
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// Every Begin record's verdict in a store's journal, by epoch.
fn journal_verdicts(dir: &Path) -> Vec<ReplanVerdict> {
    let journal = fs::read_to_string(dir.join("journal.jsonl")).expect("journal");
    let mut verdicts = Vec::new();
    for line in journal.lines() {
        if let Ok(ServiceRecord::Begin { epoch, verdict, .. }) = serde_json::from_str(&line[9..]) {
            verdicts.resize(epoch + 1, ReplanVerdict::NotAttempted);
            verdicts[epoch] = verdict;
        }
    }
    verdicts
}

/// The text of the `header` member of a `{version, header}` file.
fn header(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("header file");
    let envelope: serde_json::Value = serde_json::from_str(&text).expect("envelope");
    serde_json::to_string(envelope.get("header").expect("header member")).expect("encode")
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("directory")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Write `service_store/` under `root` from the plan's P-states and
/// Stage-3 rates, each epoch's verdict from `verdict` (given the epoch and
/// the engine at it): no floor, one batch an epoch.
fn write_service_store(
    root: &Path,
    pstates: &[usize],
    stage3: &Stage3Solution,
    verdict: impl FnMut(usize, &ServiceEngine) -> ReplanVerdict,
) {
    let engine = ServiceEngine::new(room(), ServiceConfig::default(), pstates, stage3);
    write_store(&root.join(SERVICE_STORE), engine, 8, 10, |_| Vec::new(), verdict);
}

/// Write `supervised_store/` under `root`: the engine on a supervised
/// floor at `outlets`, a sensor drift at epoch 1, node 1's death at
/// epoch 5 and the CRAC's failure at epoch 6.
fn write_supervised_store(
    root: &Path,
    pstates: &[usize],
    stage3: &Stage3Solution,
    outlets: &[f64],
    verdict: impl FnMut(usize, &ServiceEngine) -> ReplanVerdict,
) {
    let dc = room();
    let floor = Floor::new(&dc, outlets, true, DEFAULT_TRIP_MARGIN_C);
    let engine = ServiceEngine::new(dc, ServiceConfig::default(), pstates, stage3).with_floor(floor);
    let faults = |epoch| match epoch {
        1 => vec![Fault::SensorDrift { bias_c: 3.0 }],
        5 => vec![Fault::NodeDeath { node: 1 }],
        6 => vec![Fault::CracFailure { unit: 0 }],
        _ => Vec::new(),
    };
    write_store(&root.join(SUPERVISED_STORE), engine, 4, 7, faults, verdict);
}

/// Run `engine` through epochs `0..=last` into a fresh store in `dir`
/// (snapshot every `interval`, one generation kept), journaling each
/// epoch's batch, faults and verdict; epoch `last` is begun and never
/// committed.
fn write_store(
    dir: &Path,
    mut engine: ServiceEngine,
    interval: usize,
    last: usize,
    faults: impl Fn(usize) -> Vec<Fault>,
    mut verdict: impl FnMut(usize, &ServiceEngine) -> ReplanVerdict,
) {
    let _ = fs::remove_dir_all(dir);
    let cfg = StoreConfig { durable: false, snapshot_interval: interval, retain: 1, ..StoreConfig::new(dir) };
    let mut store = ServiceStore::create(cfg, &engine).expect("create");
    for epoch in 0..=last {
        let batches = [epoch_batch(engine.dc(), epoch)];
        let (faults, verdict) = (faults(epoch), verdict(epoch, &engine));
        store.append_begin_with(epoch, &batches, &faults, &verdict).expect("begin");
        engine.step_with(&batches, &faults, &verdict);
        if epoch == last {
            break; // died between the ack and the commit
        }
        let (_, crc) = state_json_crc(engine.state()).expect("crc");
        store.append_commit(epoch, crc).expect("commit");
        if store.snapshot_due(engine.state().epoch) {
            store.snapshot(&engine).expect("snapshot");
        }
    }
    store.sync().expect("sync");
}

/// How the fixtures were made. Not part of the suite: a fixture is the
/// bytes of the commit that wrote it, so this runs by hand, before a
/// change to anything the encoder sees, and prints the pin.
#[test]
#[ignore = "rewrites tests/fixtures; run at the commit whose bytes are to be kept"]
fn write_fixtures() {
    let dc = room();
    let plan = Solver::new(&dc).solve().expect("plan");
    let scripted = |epoch: usize, engine: &ServiceEngine| match epoch {
        3 => ReplanVerdict::Failed { error: "scripted solver outage".into() },
        9 => solved(engine),
        _ => ReplanVerdict::NotAttempted,
    };
    write_service_store(&fixtures(), &plan.pstates, &plan.stage3, scripted);
    let asked = |_: usize, engine: &ServiceEngine| {
        if engine.wants_replan() {
            solved(engine)
        } else {
            ReplanVerdict::NotAttempted
        }
    };
    write_supervised_store(&fixtures(), &plan.pstates, &plan.stage3, plan.crac_out_c(), asked);

    for (name, pin) in [(SERVICE_STORE, "SERVICE_PIN"), (SUPERVISED_STORE, "SUPERVISED_PIN")] {
        let (engine, _) = resume_service(&fixtures().join(name)).expect("resume");
        let (json, crc) = state_json_crc(engine.state()).expect("crc");
        println!("const {pin}: (usize, u32) = ({}, {crc:#010x});", json.len());
    }
}

/// The Stage-3 replan the engine asks for, solved now.
fn solved(engine: &ServiceEngine) -> ReplanVerdict {
    let (dc, pstates) = engine.solve_request();
    ReplanVerdict::Ok { stage3: Solver::new(&dc).stage3_replan(&pstates, None).expect("replan").0 }
}
