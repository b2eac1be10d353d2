//! Hostile bytes through the whole resume, not only the readers
//! (`reader_golden` holds those): the newest snapshot and the journal of
//! a 40-node service store, and of a supervised run's store (the engine
//! on its floor, fault records in its journal), are mutated at every
//! `k`-th byte — one bit flipped, the byte deleted, the
//! file cut short there — and each mutant directory is resumed. Every
//! input must end in a typed `PersistError` or in a state whose CRC is
//! the one the journal committed for its epoch; none may panic.
//!
//! Single-byte damage never gets a journal line past its CRC frame, so
//! the replay's own check (`persist::json_crc_only` against each commit)
//! is also handed well-framed commits that name a wrong CRC: it must
//! refuse every one it replays.

use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use thermaware::core::Solver;
use thermaware::datacenter::ScenarioParams;
use thermaware::runtime::persist::{frame_journal_line, json_crc_only, PersistError};
use thermaware::runtime::FaultScript;
use thermaware::service::store::{resume_service, StoreConfig};
use thermaware::service::{
    Batch, ReplanVerdict, ServiceConfig, ServiceEngine, ServiceStore, Supervisor, SupervisorConfig,
};

type Value = serde_json::Value;

/// The epoch a resume reached and the CRC of its state.
type Resumed = Result<(usize, u32), PersistError>;

const JOURNAL: &str = "journal.jsonl";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thermaware-hostile-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// `to` emptied and filled with `from`'s files.
fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).expect("mkdir");
    for entry in fs::read_dir(from).expect("directory") {
        let entry = entry.expect("entry");
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

/// Three mutants per `k`-th byte offset of `bytes`: one bit of the byte
/// flipped, the byte deleted, the file cut short before it.
fn mutants(bytes: &[u8], k: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (n, at) in (0..bytes.len()).step_by(k).enumerate() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 1 << (n % 8);
        let mut deleted = bytes.to_vec();
        deleted.remove(at);
        out.extend([flipped, deleted, bytes[..at].to_vec()]);
    }
    out
}

/// The journal's commit records, parsed as text: `(line, epoch, state_crc)`.
fn commits(journal: &str) -> Vec<(usize, usize, u32)> {
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).expect("commit field");
    journal
        .lines()
        .enumerate()
        .filter_map(|(line, text)| {
            let v: Value = serde_json::from_str(&text[9..]).expect("framed JSON");
            let commit = v.get("rec").and_then(Value::as_str) == Some("commit");
            commit.then(|| (line, field(&v, "epoch") as usize, field(&v, "state_crc") as u32))
        })
        .collect()
}

/// `journal` with line `at` re-framed around a copy whose `state_crc` is
/// one bit off: a commit record the frame cannot tell from a true one.
fn forged(journal: &str, at: usize) -> Vec<u8> {
    let mut out = String::new();
    for (line, text) in journal.lines().enumerate() {
        if line != at {
            out.push_str(text);
            out.push('\n');
            continue;
        }
        let v: Value = serde_json::from_str(&text[9..]).expect("framed JSON");
        let members = v.as_object().expect("a record is an object").iter().map(|(key, value)| {
            let value = match (key.as_str(), value) {
                ("state_crc", Value::Number(crc)) => Value::Number(f64::from(*crc as u32 ^ 1)),
                _ => value.clone(),
            };
            (key.clone(), value)
        });
        let json = serde_json::to_string(&Value::Object(members.collect())).expect("print");
        out.push_str(&frame_journal_line(&json));
    }
    out.into_bytes()
}

/// Tallies of one trail's inputs.
#[derive(Debug, Default)]
struct Verdicts {
    resumed: usize,
    refused: usize,
}

/// Resumes a copy of `pristine` with `file` replaced by `bytes`: a typed
/// error, or the state the journal committed for the epoch reached.
fn check(
    pristine: &Path,
    work: &Path,
    (file, bytes): (&str, &[u8]),
    resume: &dyn Fn(&Path) -> Resumed,
    committed: &BTreeMap<usize, u32>,
    verdicts: &mut Verdicts,
) -> Option<PersistError> {
    copy_dir(pristine, work);
    fs::write(work.join(file), bytes).expect("write mutant");
    let Ok(outcome) = catch_unwind(AssertUnwindSafe(|| resume(work))) else {
        panic!("resume panicked on a mutant of {file} ({} bytes)", bytes.len());
    };
    match outcome {
        Ok((epoch, crc)) => {
            assert_eq!(committed.get(&epoch), Some(&crc), "{file}: resumed to epoch {epoch}");
            verdicts.resumed += 1;
            None
        }
        Err(e) => {
            verdicts.refused += 1;
            Some(e)
        }
    }
}

/// Every mutant of the newest snapshot and of the journal (about `offsets`
/// offsets each), then every forged commit, through `resume`.
fn hostile_bytes_through(
    pristine: &Path,
    name: &str,
    offsets: usize,
    resume: &dyn Fn(&Path) -> Resumed,
) -> Verdicts {
    let work = tmp_dir(&format!("{name}-work"));
    let journal = fs::read_to_string(pristine.join(JOURNAL)).expect("journal");
    let commits = commits(&journal);
    // The state at epoch `e + 1` is the one committed by epoch `e`.
    let committed: BTreeMap<usize, u32> = commits.iter().map(|&(_, e, crc)| (e + 1, crc)).collect();
    assert_eq!(resume(pristine).ok().map(|(e, _)| committed.contains_key(&e)), Some(true));

    let mut snapshots: Vec<String> = fs::read_dir(pristine)
        .expect("directory")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|file| file.starts_with("snap-"))
        .collect();
    snapshots.sort();
    let newest = snapshots.last().expect("a snapshot").clone();
    let newest_epoch: usize = newest[5..13].parse().expect("snapshot epoch");

    let mut verdicts = Verdicts::default();
    for file in [newest.as_str(), JOURNAL] {
        let bytes = fs::read(pristine.join(file)).expect("file");
        for mutant in mutants(&bytes, (bytes.len() / offsets).max(1)) {
            check(pristine, &work, (file, &mutant), resume, &committed, &mut verdicts);
        }
    }
    for &(line, epoch, _) in &commits {
        let bytes = forged(&journal, line);
        let refused = check(pristine, &work, (JOURNAL, &bytes), resume, &committed, &mut verdicts);
        if epoch >= newest_epoch {
            let reason = refused.map(|e| e.to_string()).unwrap_or_default();
            assert!(reason.contains("diverge"), "{name}: forged commit of epoch {epoch}: {reason:?}");
        }
    }
    let _ = fs::remove_dir_all(&work);
    verdicts
}

/// A 40-node room surged to 2.1x its planned arrivals, six journaled
/// epochs with a failing solver from epoch 2, snapshots at 0 and 4.
fn write_service_store(dir: &Path) {
    let dc = ScenarioParams { n_nodes: 40, n_crac: 2, crac_flow_margin: 1.5, ..ScenarioParams::paper(0.2, 0.3) }
        .build(1)
        .expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    let cfg = StoreConfig { durable: false, snapshot_interval: 4, retain: 2, ..StoreConfig::new(dir) };
    let mut store = ServiceStore::create(cfg, &engine).expect("create");
    for epoch in 0..6usize {
        let tasks = engine
            .dc()
            .workload
            .task_types
            .iter()
            .enumerate()
            .map(|(i, t)| (i, (t.arrival_rate * 2.1) as usize))
            .collect();
        let batches = [Batch { id: (epoch as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15), tasks }];
        let verdict = if epoch >= 2 {
            ReplanVerdict::Failed { error: "scripted solver outage".into() }
        } else {
            ReplanVerdict::NotAttempted
        };
        store.append_begin(epoch, &batches, &verdict).expect("begin");
        engine.step(&batches, &verdict);
        store.append_commit(epoch, json_crc_only(engine.state())).expect("commit");
        if store.snapshot_due(engine.state().epoch) {
            store.snapshot(&engine).expect("snapshot");
        }
    }
    store.sync().expect("sync");
}

#[test]
fn a_damaged_service_store_resumes_to_a_committed_state_or_refuses() {
    let dir = tmp_dir("service");
    write_service_store(&dir);
    let state_bytes = fs::metadata(dir.join("snap-00000004.json")).expect("snapshot").len();
    assert!(state_bytes > 400_000, "a 40-node snapshot is {state_bytes} bytes");
    let verdicts = hostile_bytes_through(&dir, "service", 16, &|dir| {
        resume_service(dir).map(|(engine, _)| (engine.state().epoch, json_crc_only(engine.state())))
    });
    assert!(verdicts.resumed > 0 && verdicts.refused > 0, "{verdicts:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// A supervised run's store on the two-node, one-CRAC room: snapshot
/// every 4, killed after 6 — `snap-00000004` plus two journaled epochs,
/// the first of which carries the failure of the room's only CRAC (the
/// meltdown path: the whole ladder, `"inf"` observations, every node
/// tripped and its in-flight work lost).
#[test]
fn a_damaged_supervisor_checkpoint_resumes_to_a_committed_state_or_refuses() {
    let dc = ScenarioParams { n_nodes: 2, n_crac: 1, ..ScenarioParams::small_test() }.build(1).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let dir = tmp_dir("supervisor");
    let cfg = SupervisorConfig { horizon_s: 8.0, seed: 3, ..SupervisorConfig::default() };
    let sup = Supervisor::new(&dc, cfg);
    let store = StoreConfig { durable: false, snapshot_interval: 4, retain: 1, ..StoreConfig::new(&dir) };
    let mut run = sup.begin_stored(&plan, &FaultScript::new().crac_failure(4.0, 0), store).expect("create");
    for _ in 0..6 {
        run.step().expect("epoch");
    }
    drop(run);
    let journal = fs::read_to_string(dir.join(JOURNAL)).expect("journal");
    assert!(journal.contains(r#""faults":[{"kind":"crac_failure","unit":0}]"#), "the fault is journaled");
    let verdicts = hostile_bytes_through(&dir, "supervisor", 96, &|dir| {
        resume_service(dir).map(|(engine, _)| (engine.state().epoch, json_crc_only(engine.state())))
    });
    assert!(verdicts.resumed > 0 && verdicts.refused > 0, "{verdicts:?}");
    let _ = fs::remove_dir_all(&dir);
}
