//! Directories written by an **earlier commit** keep resuming: a service
//! store and a supervisor checkpoint directory, committed under
//! `tests/fixtures/` as that commit left them, are copied to a temp dir,
//! resumed, and the resumed state's `(json.len(), crc)` held to what the
//! writing commit computed. The round-trip suites write and read with the
//! same build, so a changed key, number form or field order passes them;
//! this is the test that reads bytes this build did not write.
//!
//! Both fixtures are on one room (2 nodes, 1 CRAC: 64 cores, eight task
//! types — small enough to commit, and its plan admits work):
//!
//! * `service_store/` — `retain: 1`, snapshot every 8: eleven epochs with
//!   a `Failed` verdict at epoch 3, the snapshot at 8, then epochs 8–10
//!   journaled after it — epoch 9 carries an `Ok` verdict (a replan
//!   replayed into the scheduler's plan tables), epoch 10 is a `Begin`
//!   without its `Commit` (the process died mid-epoch).
//! * `supervisor_ckpt/` — half-second epochs, snapshot every 4, killed
//!   after 6: `snap-00000004` plus two journaled epochs, the first of which
//!   injects the failure of the room's only CRAC (the meltdown path:
//!   the whole ladder, `"inf"` observations, every node tripped and its
//!   in-flight work lost).
//!
//! Neither replay solves an LP — the service's verdicts are journaled and
//! a meltdown never reaches the replan rung — so the pins follow the
//! encoding and the epoch logic only, not the LP kernels' bits.

use std::fs;
use std::path::{Path, PathBuf};
use thermaware::core::stage3::Stage3Solution;
use thermaware::core::{Solver, ThreeStageSolution};
use thermaware::datacenter::{DataCenter, ScenarioParams};
use thermaware::runtime::persist::{json_crc, run_checkpointed_until};
use thermaware::runtime::{resume, CheckpointConfig, FaultScript, RunHeader, SupervisorConfig};
use thermaware::service::store::{state_json_crc, ServiceHeader, ServiceRecord, StoreConfig};
use thermaware::service::{
    resume_service, Batch, ReplanVerdict, ServiceConfig, ServiceEngine, ServiceStore,
};

const SERVICE_STORE: &str = "service_store";
const SUPERVISOR_CKPT: &str = "supervisor_ckpt";

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
fn parent_written_supervisor_checkpoint_resumes() {
    let dir = scratch_copy(SUPERVISOR_CKPT);
    let rec = resume(&dir).expect("resume");
    assert_eq!((rec.info.snapshot_epoch, rec.info.replayed_epochs), (4, 2));
    assert_eq!((rec.info.resume_epoch, rec.info.truncated_bytes), (6, 0));
    let (json, crc) = json_crc(&rec.state).expect("encode");
    assert!(json.contains("\"inf\""), "the meltdown's observations are in the log");
    assert_eq!((json.len(), crc), SUPERVISOR_PIN);
    let _ = fs::remove_dir_all(&dir);
}

/// `(json.len(), crc)` of the resumed states, as `write_fixtures` printed
/// them at the writing commit.
const SERVICE_PIN: (usize, u32) = (30_776, 0x27b5_4936);
const SUPERVISOR_PIN: (usize, u32) = (40_054, 0x10c7_4acf);

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
/// hold and the epoch-9 replan the committed journal holds, writes the
/// six fixture files byte for byte. No LP is solved, so an LP re-pin
/// cannot move it; a change to what either trail writes does.
#[test]
fn this_build_writes_the_fixture_bytes() {
    let run: RunHeader = serde_json::from_str(&header(&fixtures().join(SUPERVISOR_CKPT).join("run.json")))
        .expect("run header");
    let service: ServiceHeader =
        serde_json::from_str(&header(&fixtures().join(SERVICE_STORE).join("service.json")))
            .expect("service header");
    let journal = fs::read_to_string(fixtures().join(SERVICE_STORE).join("journal.jsonl")).expect("journal");
    let replan = journal
        .lines()
        .find_map(|line| match serde_json::from_str(line.get(9..)?).ok()? {
            ServiceRecord::Begin { epoch: 9, verdict: ReplanVerdict::Ok { stage3 }, .. } => Some(stage3),
            _ => None,
        })
        .expect("the journal's epoch-9 Ok verdict");
    let root = std::env::temp_dir().join(format!("thermaware-fixture-write-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let plans = Plans { supervisor: &run.plan, pstates: &service.pstates, stage3: &service.stage3 };
    write_trails(&root, &plans, |_| replan);
    for name in [SERVICE_STORE, SUPERVISOR_CKPT] {
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

/// What the two trails start from: the supervisor's three-stage plan and
/// the service's P-states and Stage-3 rates.
struct Plans<'a> {
    supervisor: &'a ThreeStageSolution,
    pstates: &'a [usize],
    stage3: &'a Stage3Solution,
}

/// Write both fixture directories under `root`: the service store (its
/// epoch-9 replan from `replan`, given the engine at that epoch) and the
/// supervisor checkpoint killed after six epochs.
fn write_trails(root: &Path, plans: &Plans<'_>, replan: impl FnOnce(&ServiceEngine) -> Stage3Solution) {
    let dc = room();
    let mut replan = Some(replan);

    let dir = root.join(SERVICE_STORE);
    let _ = fs::remove_dir_all(&dir);
    let mut engine = ServiceEngine::new(dc.clone(), ServiceConfig::default(), plans.pstates, plans.stage3);
    let cfg = StoreConfig { durable: false, snapshot_interval: 8, retain: 1, ..StoreConfig::new(&dir) };
    let mut store = ServiceStore::create(cfg, &engine).expect("create");
    for epoch in 0..11 {
        let batches = [epoch_batch(&dc, epoch)];
        let verdict = match epoch {
            3 => ReplanVerdict::Failed { error: "scripted solver outage".into() },
            9 => ReplanVerdict::Ok { stage3: replan.take().expect("one replan")(&engine) },
            _ => ReplanVerdict::NotAttempted,
        };
        store.append_begin(epoch, &batches, &verdict).expect("begin");
        engine.step(&batches, &verdict);
        if epoch == 10 {
            break; // died between the ack and the commit
        }
        let (_, crc) = state_json_crc(engine.state()).expect("crc");
        store.append_commit(epoch, crc).expect("commit");
        if store.snapshot_due(engine.state().epoch) {
            store.snapshot(&engine).expect("snapshot");
        }
    }
    store.sync().expect("sync");

    let dir = root.join(SUPERVISOR_CKPT);
    let _ = fs::remove_dir_all(&dir);
    let cfg = SupervisorConfig { epoch_s: 0.5, horizon_s: 8.0, seed: 3, ..SupervisorConfig::default() };
    let script = FaultScript::new().crac_failure(2.0, 0);
    let ckpt = CheckpointConfig {
        snapshot_interval: 4,
        retain: 1,
        durable: false,
        ..CheckpointConfig::new(&dir)
    };
    let stopped = run_checkpointed_until(&dc, cfg, plans.supervisor, &script, &ckpt, 6).expect("run");
    assert!(stopped.is_none(), "killed mid-horizon");
}

/// How the fixtures were made. Not part of the suite: a fixture is the
/// bytes of the commit that wrote it, so this runs by hand, before a
/// change to anything the encoder sees, and prints the two pins.
#[test]
#[ignore = "rewrites tests/fixtures; run at the commit whose bytes are to be kept"]
fn write_fixtures() {
    let dc = room();
    let plan = Solver::new(&dc).solve().expect("plan");
    let plans = Plans { supervisor: &plan, pstates: &plan.pstates, stage3: &plan.stage3 };
    write_trails(&fixtures(), &plans, |engine| {
        let (dc, pstates) = engine.solve_request();
        Solver::new(&dc).stage3_replan(&pstates, None).expect("replan").0
    });

    let (engine, _) = resume_service(&fixtures().join(SERVICE_STORE)).expect("resume");
    let (json, crc) = state_json_crc(engine.state()).expect("crc");
    println!("const SERVICE_PIN: (usize, u32) = ({}, {crc:#010x});", json.len());
    let rec = resume(&fixtures().join(SUPERVISOR_CKPT)).expect("resume");
    let (json, crc) = json_crc(&rec.state).expect("crc");
    println!("const SUPERVISOR_PIN: (usize, u32) = ({}, {crc:#010x});", json.len());
}
