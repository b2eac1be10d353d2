//! Crash-consistency properties of the checkpoint/restore layer:
//!
//! * **Kill-and-resume determinism** — a run killed at any epoch and
//!   recovered from disk finishes with exactly the event log, reward,
//!   and outcome of a run that was never interrupted.
//! * **Torn-write tolerance** — truncating the journal at *every byte
//!   offset* of its tail never panics the recoverer and never loses a
//!   committed-and-covered epoch beyond the torn record itself.
//! * **Snapshot fallback** — a corrupted newest snapshot generation is
//!   skipped; recovery falls back to an older one and replays forward.
//! * **Format versioning** — version-1 snapshots (no CRC) still load;
//!   future versions are rejected with a typed error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use thermaware_core::{Solver, ThreeStageSolution};
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::{
    resume, run_checkpointed, CheckpointConfig, FaultScript, PersistError, Supervisor,
    SupervisorConfig,
};
use thermaware_runtime::persist::run_checkpointed_until;

const HORIZON_S: f64 = 8.0;

fn scenario() -> &'static (DataCenter, ThreeStageSolution) {
    static SCENARIO: OnceLock<(DataCenter, ThreeStageSolution)> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let dc = ScenarioParams {
            n_nodes: 8,
            n_crac: 2,
            ..ScenarioParams::small_test()
        }
        .build(1)
        .expect("scenario");
        let plan = Solver::new(&dc).solve().expect("plan");
        (dc, plan)
    })
}

fn cfg(seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        horizon_s: HORIZON_S,
        seed,
        ..SupervisorConfig::default()
    }
}

/// A fresh, empty checkpoint directory under the target temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thermaware-crash-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn script_for(dc: &DataCenter, script_seed: u64, n_events: usize) -> FaultScript {
    let mut rng = StdRng::seed_from_u64(script_seed);
    FaultScript::random(&mut rng, n_events, HORIZON_S, dc.n_crac(), dc.n_nodes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill at a random epoch, resume from disk, finish: the final event
    /// log, reward, and outcome must be bit-identical to an
    /// uninterrupted run of the same plan, script, and seed.
    #[test]
    fn killed_and_resumed_run_matches_uninterrupted(
        script_seed in 0u64..1_000_000,
        n_events in 0usize..6,
        arrival_seed in 0u64..1_000,
        kill_epoch in 0usize..8,
        interval in 1usize..4,
    ) {
        let (dc, plan) = scenario();
        let script = script_for(dc, script_seed, n_events);
        let sup_cfg = cfg(arrival_seed);
        let baseline = Supervisor::new(dc, sup_cfg).run(plan, &script);

        let dir = temp_dir(&format!(
            "kill-{script_seed}-{n_events}-{arrival_seed}-{kill_epoch}-{interval}"
        ));
        let ckpt = CheckpointConfig {
            snapshot_interval: interval,
            ..CheckpointConfig::new(&dir)
        };
        let stopped = run_checkpointed_until(dc, sup_cfg, plan, &script, &ckpt, kill_epoch)
            .expect("checkpointed run");
        prop_assert!(stopped.is_none(), "kill_epoch below the horizon must stop early");

        let rec = resume(&dir).expect("resume");
        prop_assert!(rec.info.resume_epoch <= kill_epoch);
        let report = rec.finish().expect("finish");

        prop_assert_eq!(report.outcome, baseline.outcome);
        prop_assert_eq!(report.sim.reward_collected, baseline.sim.reward_collected);
        prop_assert_eq!(report.sim.reward_rate, baseline.sim.reward_rate);
        prop_assert_eq!(report.final_violation_c, baseline.final_violation_c);
        prop_assert_eq!(report.final_power_kw, baseline.final_power_kw);
        prop_assert_eq!(report.nodes_dead, baseline.nodes_dead);
        prop_assert_eq!(&report.shed_task_types, &baseline.shed_task_types);
        prop_assert_eq!(&report.log, &baseline.log);

        let _ = fs::remove_dir_all(&dir);
    }
}

/// Checkpointed-to-completion runs also reproduce the plain run exactly
/// (the checkpointer only observes, never perturbs).
#[test]
fn checkpointed_run_equals_plain_run() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().node_death(3.0, 0).arrival_surge(5.0, 1.5);
    let sup_cfg = cfg(7);
    let plain = Supervisor::new(dc, sup_cfg).run(plan, &script);

    let dir = temp_dir("full");
    let ckpt = CheckpointConfig::new(&dir);
    let checked = run_checkpointed(dc, sup_cfg, plan, &script, &ckpt).expect("run");
    assert_eq!(checked.outcome, plain.outcome);
    assert_eq!(checked.sim.reward_collected, plain.sim.reward_collected);
    assert_eq!(checked.log, plain.log);
    let _ = fs::remove_dir_all(&dir);
}

/// Truncate the journal at every byte offset within its final record
/// (and the record boundary itself): recovery must never panic, must
/// repair the file, and must land on an epoch no later than the last
/// fully committed one.
#[test]
fn torn_journal_tail_recovers_at_every_byte_offset() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().node_death(2.0, 1).sensor_drift(4.0, 2.0);
    let sup_cfg = cfg(3);
    let dir = temp_dir("torn");
    let ckpt = CheckpointConfig {
        // One early snapshot only: recovery must lean on the journal.
        snapshot_interval: 100,
        ..CheckpointConfig::new(&dir)
    };
    let stopped =
        run_checkpointed_until(dc, sup_cfg, plan, &script, &ckpt, 6).expect("checkpointed run");
    assert!(stopped.is_none());

    let journal_path = dir.join("journal.jsonl");
    let full = fs::read(&journal_path).expect("read journal");
    let full_resume = resume(&dir).expect("resume intact");
    assert_eq!(full_resume.info.resume_epoch, 6);
    let expected_full = full_resume.finish().expect("finish intact");

    // Byte offsets spanning the last record, the one before it, and the
    // very start of the file (0 = empty journal, snapshot-only recovery).
    let last_line_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    let mut offsets: Vec<usize> = (last_line_start..=full.len()).collect();
    offsets.push(0);
    offsets.push(last_line_start / 2);

    for &cut in &offsets {
        fs::write(&journal_path, &full[..cut]).expect("truncate journal");
        let rec = resume(&dir).unwrap_or_else(|e| panic!("resume at cut {cut}: {e}"));
        assert!(
            rec.info.resume_epoch <= 6,
            "cut {cut}: resumed past the stop epoch"
        );
        // The torn tail must be physically gone: resuming again sees a
        // clean journal and reports zero truncation.
        let again = resume(&dir).expect("second resume");
        assert_eq!(again.info.truncated_bytes, 0, "cut {cut}: tail not repaired");
        assert_eq!(again.info.resume_epoch, rec.info.resume_epoch);
        // And the recovered run still finishes with a typed outcome,
        // identical to the intact run (the arrivals are epoch-seeded, so
        // losing journal records only moves the resume point, not the
        // trajectory).
        let report = rec.finish().expect("finish after tear");
        assert_eq!(report.outcome, expected_full.outcome, "cut {cut}");
        assert_eq!(
            report.sim.reward_collected, expected_full.sim.reward_collected,
            "cut {cut}"
        );
        assert_eq!(report.log, expected_full.log, "cut {cut}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Corrupting the newest snapshot must fall back to an older generation
/// and replay the journal across the gap.
#[test]
fn corrupt_snapshot_falls_back_to_older_generation() {
    let (dc, plan) = scenario();
    let script = FaultScript::new().crac_failure(1.0, 0).crac_recovery(3.0, 0);
    let sup_cfg = cfg(11);
    let dir = temp_dir("snapfall");
    let ckpt = CheckpointConfig {
        snapshot_interval: 2,
        retain: 3,
        ..CheckpointConfig::new(&dir)
    };
    let stopped =
        run_checkpointed_until(dc, sup_cfg, plan, &script, &ckpt, 6).expect("checkpointed run");
    assert!(stopped.is_none());
    let expected = resume(&dir).expect("resume intact").finish().expect("finish");

    // Flip one byte inside the newest snapshot's payload.
    let newest = newest_snapshot(&dir);
    let mut bytes = fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    fs::write(&newest, &bytes).expect("corrupt snapshot");

    let rec = resume(&dir).expect("resume with corrupt newest snapshot");
    assert!(rec.info.snapshots_skipped >= 1, "corruption went unnoticed");
    assert!(rec.info.snapshot_epoch < 6);
    assert_eq!(rec.info.resume_epoch, 6, "journal replay must close the gap");
    let report = rec.finish().expect("finish");
    assert_eq!(report.outcome, expected.outcome);
    assert_eq!(report.sim.reward_collected, expected.sim.reward_collected);
    assert_eq!(report.log, expected.log);
    let _ = fs::remove_dir_all(&dir);
}

/// Deleting every snapshot leaves nothing to recover from — a typed
/// `NoCheckpoint`, not a panic.
#[test]
fn no_snapshots_is_a_typed_error() {
    let (dc, plan) = scenario();
    let dir = temp_dir("nosnap");
    let ckpt = CheckpointConfig::new(&dir);
    let stopped = run_checkpointed_until(dc, cfg(1), plan, &FaultScript::new(), &ckpt, 3)
        .expect("checkpointed run");
    assert!(stopped.is_none());
    for entry in fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("snap-"))
        {
            fs::remove_file(path).expect("remove snapshot");
        }
    }
    match resume(&dir) {
        Err(PersistError::NoCheckpoint { .. }) => {}
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A version-1 snapshot (no `state_crc`) written by the previous format
/// still recovers; a future version is rejected.
#[test]
fn v1_snapshot_loads_and_future_version_is_rejected() {
    let (dc, plan) = scenario();
    let dir = temp_dir("v1");
    let ckpt = CheckpointConfig {
        snapshot_interval: 2,
        ..CheckpointConfig::new(&dir)
    };
    let stopped = run_checkpointed_until(dc, cfg(5), plan, &FaultScript::new(), &ckpt, 4)
        .expect("checkpointed run");
    assert!(stopped.is_none());
    let expected = resume(&dir).expect("resume v2").finish().expect("finish");

    // Rewrite the newest snapshot in the v1 format: same state payload,
    // no CRC field.
    let newest = newest_snapshot(&dir);
    let text = fs::read_to_string(&newest).expect("read snapshot");
    let v: serde_json::Value = serde_json::from_str(&text).expect("parse snapshot");
    let epoch = v.get("epoch").and_then(|x| x.as_f64()).expect("epoch");
    let state = v.get("state").and_then(|x| x.as_str()).expect("state");
    let v1 = serde_json::Value::Object(vec![
        ("version".to_string(), serde_json::Value::Number(1.0)),
        ("epoch".to_string(), serde_json::Value::Number(epoch)),
        ("state".to_string(), serde_json::Value::String(state.to_string())),
    ]);
    fs::write(&newest, serde_json::to_string(&v1).expect("encode v1")).expect("write v1");

    let rec = resume(&dir).expect("resume with v1 snapshot");
    let report = rec.finish().expect("finish");
    assert_eq!(report.sim.reward_collected, expected.sim.reward_collected);
    assert_eq!(report.log, expected.log);

    // A snapshot claiming a future format must be refused, not guessed at.
    let future = serde_json::Value::Object(vec![
        ("version".to_string(), serde_json::Value::Number(99.0)),
        ("epoch".to_string(), serde_json::Value::Number(epoch)),
        ("state_crc".to_string(), serde_json::Value::Number(0.0)),
        ("state".to_string(), serde_json::Value::String(state.to_string())),
    ]);
    fs::write(&newest, serde_json::to_string(&future).expect("encode")).expect("write future");
    match resume(&dir) {
        Err(PersistError::UnsupportedVersion { version, .. }) => assert_eq!(version, 99),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

fn newest_snapshot(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".json"))
        })
        .collect();
    snaps.sort();
    snaps.pop().expect("at least one snapshot")
}

/// A meltdown floor (single CRAC fails, no steady state) logs events
/// carrying `+inf` observations. Those must journal and snapshot
/// cleanly: a clean kill mid-meltdown leaves **zero** torn bytes, and
/// the resumed run still matches the uninterrupted one exactly.
#[test]
fn meltdown_events_journal_cleanly_and_resume() {
    let dc = ScenarioParams {
        n_nodes: 6,
        n_crac: 1,
        ..ScenarioParams::small_test()
    }
    .build(3)
    .expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let script = FaultScript::new().crac_failure(2.0, 0);
    let baseline = Supervisor::new(&dc, cfg(3)).run(&plan, &script);
    assert!(
        baseline.log.events().iter().any(|e| {
            serde_json::to_string(&e.kind)
                .map(|j| j.contains("\"inf\""))
                .unwrap_or(false)
        }),
        "scenario must actually produce a non-finite observation"
    );

    let dir = temp_dir("meltdown");
    let ckpt = CheckpointConfig {
        snapshot_interval: 2,
        ..CheckpointConfig::new(&dir)
    };
    // Kill well after the meltdown events have been journaled.
    let stopped =
        run_checkpointed_until(&dc, cfg(3), &plan, &script, &ckpt, 6).expect("checkpointed run");
    assert!(stopped.is_none(), "killed mid-horizon");

    let rec = resume(&dir).expect("resume through meltdown events");
    assert_eq!(
        rec.info.truncated_bytes, 0,
        "a cleanly killed journal has no torn tail to repair"
    );
    assert_eq!(rec.info.resume_epoch, 6, "every committed epoch recovered");
    let report = rec.finish().expect("finish recovered run");
    assert_eq!(report.outcome, baseline.outcome);
    assert_eq!(report.sim.reward_collected, baseline.sim.reward_collected);
    assert_eq!(report.log, baseline.log);
    let _ = fs::remove_dir_all(&dir);
}

/// The whole journaled state, not its round trip: `(json.len(), crc)` of
/// the [`SupervisorState`](thermaware_runtime::SupervisorState) six
/// epochs into the meltdown above (`"inf"` observations included), as
/// every commit record computes them. The constant was computed by the
/// commit *before* the encoder started streaming. (It follows the plan's
/// bits: a change to the LP kernels that moves those re-pins it.)
#[test]
fn supervisor_state_bytes_are_pinned() {
    let dc = ScenarioParams {
        n_nodes: 6,
        n_crac: 1,
        ..ScenarioParams::small_test()
    }
    .build(3)
    .expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let script = FaultScript::new().crac_failure(2.0, 0);
    let sup = Supervisor::new(&dc, cfg(3));
    let mut live = sup.begin(&plan, &script);
    for _ in 0..6 {
        assert!(live.step());
    }
    let (json, crc) = thermaware_runtime::persist::json_crc(live.state()).expect("encode");
    assert!(json.contains("\"inf\""), "the pinned state holds a non-finite observation");
    assert_eq!((json.len(), crc), (108_154, 0xce46_eba0));
}

/// State enters `LiveRun::from_state` from disk: scheduler tables that do
/// not fit the data center (here one `count` row a core short) are
/// refused there, by name — not found later by an index in `dispatch`.
#[test]
fn supervisor_state_with_short_scheduler_rows_is_refused() {
    let (dc, plan) = scenario();
    let script = FaultScript::new();
    let live = Supervisor::new(dc, cfg(1)).begin(plan, &script);
    let json = serde_json::to_string(live.state()).expect("encode");
    let short = json.replacen(r#""count":[[0,"#, r#""count":[["#, 1);
    assert_ne!(short, json, "a fresh run's counts are all zero");
    let state = serde_json::from_str(&short).expect("still a well-formed state");
    match thermaware_runtime::LiveRun::from_state(dc, &script, state) {
        Err(reason) => assert!(reason.contains("count"), "{reason}"),
        Ok(_) => panic!("short count row accepted"),
    }
}

/// The same entrance holds the scheduler's core sets to the order a live
/// scheduler keeps them in — strictly ascending, which is what makes the
/// first of equally loaded cores the lowest: a `candidates` row naming a
/// core twice is refused by name, not dispatched in an order no live run
/// would take.
#[test]
fn supervisor_state_with_a_repeated_candidate_is_refused() {
    let (dc, plan) = scenario();
    let script = FaultScript::new();
    let live = Supervisor::new(dc, cfg(1)).begin(plan, &script);
    let json = serde_json::to_string(live.state()).expect("encode");
    let rows = json.find(r#""candidates":["#).expect("the scheduler's rows");
    let row = rows + json[rows..].find(|c: char| c.is_ascii_digit()).expect("a candidate");
    let first = &json[row..row + json[row..].find([',', ']']).expect("its end")];
    let twice = format!("{}{first},{}", &json[..row], &json[row..]);
    let state = serde_json::from_str(&twice).expect("still a well-formed state");
    match thermaware_runtime::LiveRun::from_state(dc, &script, state) {
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
    let crc = thermaware_runtime::persist::crc32(bad.as_bytes());
    let envelope = serde_json::Value::Object(vec![
        ("version".to_string(), v.get("version").expect("version").clone()),
        ("epoch".to_string(), v.get("epoch").expect("epoch").clone()),
        ("state_crc".to_string(), serde_json::Value::Number(f64::from(crc))),
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
/// `resume` refuses it at `LiveRun::from_state`, by name, instead of
/// indexing a P-state table with it on the way to the physical check.
#[test]
fn snapshot_with_a_p_state_past_off_is_refused() {
    let (dc, plan) = scenario();
    let dir = temp_dir("pstate99");
    let ckpt = CheckpointConfig::new(&dir);
    let stopped = run_checkpointed_until(dc, cfg(2), plan, &FaultScript::new(), &ckpt, 2)
        .expect("checkpointed run");
    assert!(stopped.is_none());
    edit_newest_snapshot(&dir, |state| set_first(state, "pstates", "99"));

    match resume(&dir) {
        Err(PersistError::State { reason }) => assert!(reason.contains("P-states"), "{reason}"),
        other => panic!("expected a refused state, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The world's floats enter from disk too: a non-finite CRAC outlet,
/// sensor bias or surge factor is refused at `LiveRun::from_state`,
/// naming the field, as a bad `surge` already was.
#[test]
fn snapshot_with_a_non_finite_world_value_is_refused() {
    let (dc, plan) = scenario();
    for (key, value) in
        [("outlets", r#""NaN""#), ("bias_c", r#""-inf""#), ("planned_surge", r#""inf""#), ("fault_surge", r#""NaN""#)]
    {
        let dir = temp_dir(&format!("nonfinite-{key}"));
        let ckpt = CheckpointConfig::new(&dir);
        let stopped = run_checkpointed_until(dc, cfg(2), plan, &FaultScript::new(), &ckpt, 0)
            .expect("checkpointed run");
        assert!(stopped.is_none());
        edit_newest_snapshot(&dir, |state| set_first(state, key, value));
        match resume(&dir) {
            Err(PersistError::State { reason }) => {
                assert!(reason.contains(&format!("non-finite {key}")), "{key}: {reason}")
            }
            other => panic!("{key}: expected a refused state, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Counters enter from disk unchecked: a snapshot whose next backoff is
/// `u32::MAX` must take one more failed response without overflowing
/// (`backoff_next * 2` panicked in debug builds), and back off for that
/// long.
#[test]
fn a_saturated_backoff_takes_one_more_failure() {
    let dc = ScenarioParams {
        n_nodes: 6,
        n_crac: 1,
        ..ScenarioParams::small_test()
    }
    .build(3)
    .expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let script = FaultScript::new().crac_failure(2.0, 0);
    let dir = temp_dir("backoff-max");
    let ckpt = CheckpointConfig {
        snapshot_interval: 2,
        ..CheckpointConfig::new(&dir)
    };
    let stopped =
        run_checkpointed_until(&dc, cfg(3), &plan, &script, &ckpt, 2).expect("checkpointed run");
    assert!(stopped.is_none());
    edit_newest_snapshot(&dir, |state| set_first(state, "backoff_next", "4294967295"));

    let rec = resume(&dir).expect("resume");
    assert_eq!(rec.info.resume_epoch, 2);
    let report = rec.finish().expect("the meltdown epoch fails its response");
    let backoffs: Vec<u32> = report
        .log
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            thermaware_runtime::EventKind::Backoff { epochs } => Some(epochs),
            _ => None,
        })
        .collect();
    assert_eq!(backoffs, [u32::MAX]);
    let _ = fs::remove_dir_all(&dir);
}

/// An epoch missing from the journal after the newest snapshot — its
/// begin and commit gone, the frames around them intact — is a gap, not
/// an epoch silently skipped.
#[test]
fn a_journal_gap_is_corrupt() {
    let (dc, plan) = scenario();
    let dir = temp_dir("gap");
    let ckpt = CheckpointConfig { snapshot_interval: 4, ..CheckpointConfig::new(&dir) };
    let stopped = run_checkpointed_until(dc, cfg(2), plan, &FaultScript::new(), &ckpt, 7)
        .expect("checkpointed run");
    assert!(stopped.is_none());
    assert!(newest_snapshot(&dir).ends_with("snap-00000004.json"));
    let journal = dir.join("journal.jsonl");
    let text = fs::read_to_string(&journal).expect("journal");
    let kept: String = text
        .split_inclusive('\n')
        .filter(|line| {
            !line.contains(r#"{"rec":"begin","epoch":5,"#) && !line.contains(r#"{"rec":"commit","epoch":5,"#)
        })
        .collect();
    assert_eq!(text.lines().count() - kept.lines().count(), 2, "epoch 5's begin and commit");
    fs::write(&journal, kept).expect("rewrite");

    match resume(&dir) {
        Err(PersistError::Corrupt { path, reason }) => {
            assert_eq!(path, journal);
            assert!(reason.contains("journal gap") && reason.contains("epoch 6"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}
