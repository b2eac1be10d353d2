//! Crash-consistency of a supervised run — a faulted, seeded run of the
//! service engine on its floor, writing an ordinary service store:
//!
//! * **Kill-and-resume determinism** — a run killed at every epoch and
//!   brought back through `resume_service` finishes with exactly the
//!   state, event log, reward and outcome of a run never interrupted.
//! * **Torn-write tolerance** — truncating the journal at *every byte
//!   offset* of its tail never panics the resume and never loses an
//!   epoch beyond the torn record itself.
//! * **Snapshot fallback** — a corrupted or unfitting newest snapshot is
//!   skipped; the resume falls back to an older one and replays forward.
//! * **Hostile state** — a snapshot whose CRC verifies but whose floor or
//!   scheduler tables do not fit the room is refused by name.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use thermaware_core::{Solver, ThreeStageSolution};
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::persist::{crc32, json_crc, PersistError, TrailRecovery};
use thermaware_runtime::{EventKind, FaultScript};
use thermaware_service::engine::{ServiceConfig, ServiceEngine, ServiceState};
use thermaware_service::store::{resume_service, StoreConfig};
use thermaware_service::supervisor::{SupervisedRun, Supervisor, SupervisorConfig, SupervisorReport};

const HORIZON_S: f64 = 8.0;

fn scenario() -> &'static (DataCenter, ThreeStageSolution) {
    static SCENARIO: OnceLock<(DataCenter, ThreeStageSolution)> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let dc = ScenarioParams { n_nodes: 8, n_crac: 2, ..ScenarioParams::small_test() }.build(1).expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        (dc, plan)
    })
}

/// The meltdown room: six nodes on one CRAC.
fn one_crac() -> (DataCenter, ThreeStageSolution) {
    let dc = ScenarioParams { n_nodes: 6, n_crac: 1, ..ScenarioParams::small_test() }.build(3).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    (dc, plan)
}

fn cfg(seed: u64) -> SupervisorConfig {
    SupervisorConfig { horizon_s: HORIZON_S, seed, ..SupervisorConfig::default() }
}

/// A fresh, empty store directory under the temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thermaware-crash-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The store policy of these tests: no fsync (the bytes still land, and
/// a dropped run leaves what a SIGKILL would), a snapshot every
/// `interval` epochs.
fn store(dir: &Path, interval: usize) -> StoreConfig {
    StoreConfig { durable: false, snapshot_interval: interval, ..StoreConfig::new(dir) }
}

fn script_for(dc: &DataCenter, script_seed: u64, n_events: usize) -> FaultScript {
    let mut rng = StdRng::seed_from_u64(script_seed);
    FaultScript::random(&mut rng, n_events, HORIZON_S, dc.n_crac(), dc.n_nodes())
}

/// Run a stored run for at most `epochs` epochs, then drop it: what a
/// crash after those epochs leaves on disk.
fn run_then_kill(mut run: SupervisedRun, epochs: usize) {
    run_then_kill_in(&mut run, epochs);
}

fn run_then_kill_in(run: &mut SupervisedRun, epochs: usize) {
    for _ in 0..epochs {
        if !run.step().expect("epoch") {
            break;
        }
    }
}

/// Finish a resumed run and keep its final state's bytes beside the
/// report.
fn finish(mut run: SupervisedRun) -> ((usize, u32), SupervisorReport) {
    while run.step().expect("epoch") {}
    let (json, crc) = json_crc(run.engine().state()).expect("encode");
    ((json.len(), crc), run.conclude())
}

/// Resume the run in `dir` to finish it without writing on (the store
/// stays as the crash left it).
fn resume(sup: &Supervisor<'_>, dir: &Path, script: &FaultScript) -> Result<(SupervisedRun, TrailRecovery), PersistError> {
    let (engine, info) = resume_service(dir)?;
    Ok((sup.attach(engine, script).map_err(|reason| PersistError::State { reason })?, info))
}

fn assert_same(report: &SupervisorReport, baseline: &SupervisorReport, what: &str) {
    assert_eq!(report.outcome, baseline.outcome, "{what}");
    assert_eq!(report.sim.reward_collected.to_bits(), baseline.sim.reward_collected.to_bits(), "{what}");
    assert_eq!(report.final_violation_c.to_bits(), baseline.final_violation_c.to_bits(), "{what}");
    assert_eq!(report.final_power_kw.to_bits(), baseline.final_power_kw.to_bits(), "{what}");
    assert_eq!(report.nodes_dead, baseline.nodes_dead, "{what}");
    assert_eq!(report.shed_task_types, baseline.shed_task_types, "{what}");
    assert_eq!(report.log, baseline.log, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill at every epoch, resume from disk, finish: the final state's
    /// bytes, event log, reward and outcome are those of the
    /// uninterrupted run of the same plan, script and seed.
    #[test]
    fn killed_and_resumed_run_matches_uninterrupted(
        script_seed in 0u64..1_000_000,
        n_events in 0usize..6,
        arrival_seed in 0u64..1_000,
        interval in 1usize..4,
    ) {
        let (dc, plan) = scenario();
        let script = script_for(dc, script_seed, n_events);
        let sup = Supervisor::new(dc, cfg(arrival_seed));
        let (pin, baseline) = finish(sup.begin(plan, &script));
        let n_epochs = sup.begin(plan, &script).n_epochs();

        for kill_epoch in 0..n_epochs {
            let dir = temp_dir(&format!("kill-{script_seed}-{kill_epoch}"));
            run_then_kill(sup.begin_stored(plan, &script, store(&dir, interval)).expect("create"), kill_epoch);
            let (run, info) = sup.resume(store(&dir, interval), &script).expect("resume");
            prop_assert_eq!(run.epoch(), kill_epoch);
            prop_assert!(info.snapshot_epoch <= kill_epoch);
            let (resumed_pin, report) = finish(run);
            prop_assert_eq!(resumed_pin, pin, "killed at {}", kill_epoch);
            assert_same(&report, &baseline, &format!("killed at {kill_epoch}"));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// A stored run to completion reproduces the plain run exactly (the
/// store only observes, never perturbs).
#[test]
fn checkpointed_run_equals_plain_run() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().node_death(3.0, 0).arrival_surge(5.0, 1.5);
    let sup = Supervisor::new(dc, cfg(7));
    let plain = sup.run(plan, &script);
    let dir = temp_dir("full");
    let (_, stored) = finish(sup.begin_stored(plan, &script, store(&dir, 8)).expect("create"));
    assert_same(&stored, &plain, "stored");
    let _ = fs::remove_dir_all(&dir);
}

/// Truncate the journal at every byte offset within its final record
/// (and the record boundary itself): the resume never panics, repairs
/// the file, lands on an epoch no later than the last journaled one,
/// and the run still finishes as the intact one does (the arrivals are
/// epoch-seeded and the verdicts re-solved from the state, so losing
/// journal records moves only the resume point).
#[test]
fn torn_journal_tail_recovers_at_every_byte_offset() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().node_death(2.0, 1).sensor_drift(4.0, 2.0);
    let sup = Supervisor::new(dc, cfg(3));
    let dir = temp_dir("torn");
    // One early snapshot only: the resume must lean on the journal.
    run_then_kill(sup.begin_stored(plan, &script, store(&dir, 100)).expect("create"), 6);

    let journal_path = dir.join("journal.jsonl");
    let full = fs::read(&journal_path).expect("read journal");
    let (intact, _) = resume(&sup, &dir, &script).expect("resume intact");
    assert_eq!(intact.epoch(), 6);
    let (_, expected) = finish(intact);

    let last_line_start = full[..full.len() - 1].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let mut offsets: Vec<usize> = (last_line_start..=full.len()).collect();
    offsets.push(0);
    offsets.push(last_line_start / 2);
    for &cut in &offsets {
        fs::write(&journal_path, &full[..cut]).expect("truncate journal");
        let (run, _) = resume(&sup, &dir, &script).unwrap_or_else(|e| panic!("resume at cut {cut}: {e}"));
        assert!(run.epoch() <= 6, "cut {cut}: resumed past the stop epoch");
        // The torn tail is physically gone: a second resume truncates
        // nothing and lands on the same epoch.
        let (again, info) = resume(&sup, &dir, &script).expect("second resume");
        assert_eq!(info.truncated_bytes, 0, "cut {cut}: tail not repaired");
        assert_eq!(again.epoch(), run.epoch(), "cut {cut}");
        let (_, report) = finish(again);
        assert_same(&report, &expected, &format!("cut {cut}"));
        fs::write(&journal_path, &full).expect("restore journal");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Corrupting the newest snapshot falls back to an older generation and
/// replays the journal across the gap.
#[test]
fn corrupt_snapshot_falls_back_to_older_generation() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().crac_failure(1.0, 0).crac_recovery(3.0, 0);
    let sup = Supervisor::new(dc, cfg(11));
    let dir = temp_dir("snapfall");
    run_then_kill(sup.begin_stored(plan, &script, store(&dir, 2)).expect("create"), 6);
    let (_, expected) = finish(resume(&sup, &dir, &script).expect("resume intact").0);

    let newest = newest_snapshot(&dir);
    let mut bytes = fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    fs::write(&newest, &bytes).expect("corrupt snapshot");

    let (run, info) = resume(&sup, &dir, &script).expect("resume with a corrupt newest snapshot");
    assert!(info.snapshots_skipped >= 1, "corruption went unnoticed");
    assert!(info.snapshot_epoch < 6);
    assert_eq!(run.epoch(), 6, "journal replay must close the gap");
    let (_, report) = finish(run);
    assert_same(&report, &expected, "after fallback");
    let _ = fs::remove_dir_all(&dir);
}

/// With every snapshot deleted the store still holds its header — the
/// plan and the floor at epoch 0 — and its journal: the resume boots
/// from the header and replays every epoch.
#[test]
fn no_snapshots_replays_from_the_header() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().node_death(1.0, 3);
    let sup = Supervisor::new(dc, cfg(1));
    let dir = temp_dir("nosnap");
    run_then_kill(sup.begin_stored(plan, &script, store(&dir, 2)).expect("create"), 3);
    for entry in fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("snap-")) {
            fs::remove_file(path).expect("remove snapshot");
        }
    }
    let (run, info) = resume(&sup, &dir, &script).expect("resume from the header");
    assert_eq!((info.snapshot_epoch, info.replayed_epochs, run.epoch()), (0, 3, 3));
    let (_, report) = finish(run);
    assert_same(&report, &sup.run(plan, &script), "from the header");
    fs::remove_file(dir.join("service.json")).expect("remove header");
    match resume(&sup, &dir, &script) {
        Err(PersistError::NoCheckpoint { .. }) => {}
        other => panic!("expected NoCheckpoint, got {:?}", other.map(|(run, _)| run.epoch())),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot in the store's format (version 1) loads; one claiming a
/// future format is refused, not guessed at.
#[test]
fn v1_snapshot_loads_and_future_version_is_rejected() {
    let (dc, plan) = scenario();
    let sup = Supervisor::new(dc, cfg(5));
    let dir = temp_dir("v1");
    run_then_kill(sup.begin_stored(plan, &FaultScript::new(), store(&dir, 2)).expect("create"), 4);
    let newest = newest_snapshot(&dir);
    let text = fs::read_to_string(&newest).expect("read snapshot");
    assert!(text.starts_with(r#"{"version":1,"#), "{}", &text[..40]);
    let (run, info) = resume(&sup, &dir, &FaultScript::new()).expect("resume v1");
    assert_eq!((info.snapshot_epoch, run.epoch()), (4, 4));
    drop(run);

    fs::write(&newest, text.replacen(r#"{"version":1,"#, r#"{"version":99,"#, 1)).expect("write future");
    match resume(&sup, &dir, &FaultScript::new()) {
        Err(PersistError::UnsupportedVersion { version, .. }) => assert_eq!(version, 99),
        other => panic!("expected UnsupportedVersion, got {:?}", other.map(|(run, _)| run.epoch())),
    }
    let _ = fs::remove_dir_all(&dir);
}

fn newest_snapshot(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("snap-") && n.ends_with(".json")))
        .collect();
    snaps.sort();
    snaps.pop().expect("at least one snapshot")
}

/// A meltdown floor (its one CRAC fails, no steady state) logs events
/// carrying `+inf` observations. They journal and snapshot cleanly: a
/// run killed mid-meltdown leaves **zero** torn bytes, and the resumed
/// run matches the uninterrupted one exactly.
#[test]
fn meltdown_events_journal_cleanly_and_resume() {
    let (dc, plan) = one_crac();
    let script = FaultScript::new().crac_failure(2.0, 0);
    let sup = Supervisor::new(&dc, cfg(3));
    let baseline = sup.run(&plan, &script);
    assert!(
        baseline.log.events().iter().any(|e| serde_json::to_string(&e.kind).is_ok_and(|j| j.contains("\"inf\""))),
        "scenario must actually produce a non-finite observation"
    );
    let dir = temp_dir("meltdown");
    run_then_kill(sup.begin_stored(&plan, &script, store(&dir, 2)).expect("create"), 6);
    let (run, info) = resume(&sup, &dir, &script).expect("resume through meltdown events");
    assert_eq!(info.truncated_bytes, 0, "a cleanly killed journal has no torn tail to repair");
    assert_eq!(run.epoch(), 6, "every journaled epoch recovered");
    let (_, report) = finish(run);
    assert_same(&report, &baseline, "meltdown");
    let _ = fs::remove_dir_all(&dir);
}

/// The whole journaled state, not its round trip: `(json.len(), crc)` of
/// the supervised service state six epochs into the meltdown above
/// (`"inf"` observations included), as every commit record computes
/// them. Pinned when the supervisor started stepping the service
/// engine; it follows the plan's bits, so a change to the LP kernels
/// that moves those re-pins it.
#[test]
fn supervisor_state_bytes_are_pinned() {
    let (dc, plan) = one_crac();
    let mut run = Supervisor::new(&dc, cfg(3)).begin(&plan, &FaultScript::new().crac_failure(2.0, 0));
    for _ in 0..6 {
        assert!(run.step().expect("epoch"));
    }
    let (json, crc) = json_crc(run.engine().state()).expect("encode");
    assert!(json.contains("\"inf\""), "the pinned state holds a non-finite observation");
    assert_eq!((json.len(), crc), STATE_PIN);
}

const STATE_PIN: (usize, u32) = (33_606, 0x9641_c1b9);

/// A supervised state at epoch 0, as JSON.
fn fresh_state_json() -> String {
    let (dc, plan) = scenario();
    let run = Supervisor::new(dc, cfg(1)).begin(plan, &FaultScript::new());
    serde_json::to_string(run.engine().state()).expect("encode")
}

fn from_state(json: &str) -> Result<ServiceEngine, String> {
    let state: ServiceState = serde_json::from_str(json).expect("still a well-formed state");
    ServiceEngine::from_state(scenario().0.clone(), ServiceConfig::default(), state)
}

/// State enters `ServiceEngine::from_state` from disk: scheduler tables
/// that do not fit the data center (here one `count` row a core short)
/// are refused there, by name — not found later by an index in
/// `dispatch`.
#[test]
fn supervisor_state_with_short_scheduler_rows_is_refused() {
    let json = fresh_state_json();
    let short = json.replacen(r#""count":[[0,"#, r#""count":[["#, 1);
    assert_ne!(short, json, "a fresh run's counts are all zero");
    match from_state(&short) {
        Err(reason) => assert!(reason.contains("count"), "{reason}"),
        Ok(_) => panic!("short count row accepted"),
    }
}

/// The same entrance holds the scheduler's core sets to the order a live
/// scheduler keeps them in — strictly ascending: a `candidates` row
/// naming a core twice is refused by name.
#[test]
fn supervisor_state_with_a_repeated_candidate_is_refused() {
    let json = fresh_state_json();
    let rows = json.find(r#""candidates":["#).expect("the scheduler's rows");
    let row = rows + json[rows..].find(|c: char| c.is_ascii_digit()).expect("a candidate");
    let first = &json[row..row + json[row..].find([',', ']']).expect("its end")];
    let twice = format!("{}{first},{}", &json[..row], &json[row..]);
    match from_state(&twice) {
        Err(reason) => assert!(reason.contains("candidates"), "{reason}"),
        Ok(_) => panic!("repeated candidate accepted"),
    }
}

/// The newest snapshot's state text, rewritten by `edit` under a
/// `state_crc` that verifies: bytes a disk can hold that no live run
/// writes.
fn edit_newest_snapshot(dir: &Path, edit: impl FnOnce(&str) -> String) {
    let newest = newest_snapshot(dir);
    let text = fs::read_to_string(&newest).expect("read snapshot");
    let v: serde_json::Value = serde_json::from_str(&text).expect("parse snapshot");
    let state = v.get("state").and_then(|x| x.as_str()).expect("state");
    let bad = edit(state);
    assert_ne!(bad, state, "the edit must change the state");
    let envelope = serde_json::Value::Object(vec![
        ("version".to_string(), v.get("version").expect("version").clone()),
        ("epoch".to_string(), v.get("epoch").expect("epoch").clone()),
        ("state_crc".to_string(), serde_json::Value::Number(f64::from(crc32(bad.as_bytes())))),
        ("state".to_string(), serde_json::Value::String(bad)),
    ]);
    fs::write(&newest, serde_json::to_string(&envelope).expect("encode")).expect("write");
}

/// `state` with the first value of `"key":` (the first element, for an
/// array) replaced by `value`.
fn set_first(state: &str, key: &str, value: &str) -> String {
    let mut at = state.find(&format!("\"{key}\":")).expect("the key") + key.len() + 3;
    if state[at..].starts_with('[') {
        at += 1;
    }
    let end = at + state[at..].find([',', ']', '}']).expect("the value's end");
    format!("{}{value}{}", &state[..at], &state[end..])
}

/// A snapshot whose CRC verifies can still hold a P-state no core has:
/// `from_state` refuses it by name, and the resume skips that generation
/// for the one before it and replays forward.
#[test]
fn snapshot_with_a_p_state_past_off_is_refused() {
    let (dc, plan) = scenario();
    let sup = Supervisor::new(dc, cfg(2));
    let dir = temp_dir("pstate99");
    run_then_kill(sup.begin_stored(plan, &FaultScript::new(), store(&dir, 2)).expect("create"), 2);
    let mut refused = None;
    edit_newest_snapshot(&dir, |state| {
        let bad = set_first(state, "pstates", "99");
        refused = Some(from_state(&bad).err());
        bad
    });
    let reason = refused.flatten().expect("refused");
    assert!(reason.contains("P-states"), "{reason}");
    let (run, info) = resume(&sup, &dir, &FaultScript::new()).expect("resume past the generation");
    assert_eq!((info.snapshots_skipped, info.snapshot_epoch, run.epoch()), (1, 0, 2));
    let _ = fs::remove_dir_all(&dir);
}

/// The floor's floats enter from disk too: a non-finite CRAC outlet,
/// sensor bias or trip margin is refused by name.
#[test]
fn snapshot_with_a_non_finite_world_value_is_refused() {
    let json = fresh_state_json();
    for (key, value, says) in [
        ("outlets", r#""NaN""#, "non-finite outlets"),
        ("bias_c", r#""-inf""#, "non-finite bias_c"),
        ("trip_margin_c", r#""inf""#, "non-finite trip_margin_c"),
    ] {
        match from_state(&set_first(&json, key, value)) {
            Err(reason) => assert!(reason.contains(says), "{key}: {reason}"),
            Ok(_) => panic!("{key}: {value} accepted"),
        }
    }
}

/// Counters enter from disk unchecked: a state whose next backoff is
/// `u32::MAX` takes one more failed response without overflowing, and
/// backs off for that long. (Through `from_state`, not a store: the
/// resume would find the edited snapshot at odds with the commit record
/// journaled for it, and refuse it as a replay divergence.)
#[test]
fn a_saturated_backoff_takes_one_more_failure() {
    let (dc, plan) = one_crac();
    let script = FaultScript::new().crac_failure(2.0, 0);
    let sup = Supervisor::new(&dc, cfg(3));
    let mut run = sup.begin(&plan, &script);
    run_then_kill_in(&mut run, 2);
    let json = serde_json::to_string(run.engine().state()).expect("encode");
    let state: ServiceState =
        serde_json::from_str(&set_first(&json, "backoff_next", "4294967295")).expect("a well-formed state");
    let engine = ServiceEngine::from_state(dc.clone(), ServiceConfig::default(), state).expect("fits");
    let (_, report) = finish(sup.attach(engine, &script).expect("a floor"));
    let backoffs: Vec<u32> = report
        .log
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Backoff { epochs } => Some(epochs),
            _ => None,
        })
        .collect();
    assert_eq!(backoffs, [u32::MAX]);
    }

/// An epoch missing from the journal after the newest snapshot — its
/// begin and commit gone, the frames around them intact — is a gap, not
/// an epoch silently skipped.
#[test]
fn a_journal_gap_is_corrupt() {
    let (dc, plan) = scenario();
    let sup = Supervisor::new(dc, cfg(2));
    let dir = temp_dir("gap");
    run_then_kill(sup.begin_stored(plan, &FaultScript::new(), store(&dir, 4)).expect("create"), 7);
    assert!(newest_snapshot(&dir).ends_with("snap-00000004.json"));
    let journal = dir.join("journal.jsonl");
    let text = fs::read_to_string(&journal).expect("journal");
    let kept: String = text
        .split_inclusive('\n')
        .filter(|line| !line.contains(r#"{"rec":"begin","epoch":5,"#) && !line.contains(r#"{"rec":"commit","epoch":5,"#))
        .collect();
    assert_eq!(text.lines().count() - kept.lines().count(), 2, "epoch 5's begin and commit");
    fs::write(&journal, kept).expect("rewrite");
    match resume(&sup, &dir, &FaultScript::new()) {
        Err(PersistError::Corrupt { path, reason }) => {
            assert_eq!(path, journal);
            assert!(reason.contains("journal gap") && reason.contains("epoch 6"), "{reason}");
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|(run, _)| run.epoch())),
    }
    let _ = fs::remove_dir_all(&dir);
}
