//! Hostile bytes through the bench gate's JSON reader (the vendored
//! `serde_json`, read as a `serde::Value`): every committed
//! `results/BENCH_*.json`, damaged at every k-th byte — flipped, deleted,
//! replaced, cut off there — reads as a `Value` or an error naming its
//! byte, never a panic; `bench --check` over a damaged current snapshot
//! fails with a message naming the file; and a number that overflows
//! `f64` is neither a baseline nor a snapshot to bless. The nesting bound
//! is the reader's own (`serde::MAX_DEPTH`, pinned by its tests).

use serde::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use thermaware_analyze::bench;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// The committed baselines, by name and bytes.
fn baselines() -> Vec<(String, Vec<u8>)> {
    let results = workspace_root().join("results");
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&results)
        .expect("results/ lists")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .map(|name| {
            let bytes = fs::read(results.join(&name)).expect("baseline reads");
            (name, bytes)
        })
        .collect();
    files.sort();
    assert_eq!(files.len(), bench::SPECS.len(), "one baseline per gated file");
    files
}

/// Bytes a replacement puts in: JSON's own punctuation, a digit, an
/// exponent, an escape, a quote, and a lone UTF-8 lead and continuation.
const REPLACEMENTS: [u8; 10] = [b'"', b'\\', b'{', b']', b'9', b'-', b'e', b'u', 0xc3, 0x80];

/// A reader that returns at all is the property; the reader takes text,
/// as `bench::check` reads a file into a `String` first, so bytes that
/// are not UTF-8 go in as the lossy text of them.
fn read(bytes: &[u8]) -> Result<Value, String> {
    serde_json::from_str(&String::from_utf8_lossy(bytes)).map_err(|e| e.to_string())
}

#[test]
fn damaged_baselines_read_as_a_value_or_an_error() {
    for (name, bytes) in baselines() {
        assert!(read(&bytes).is_ok(), "{name} parses undamaged");
        // About 400 offsets per file, always including the first and last.
        let step = (bytes.len() / 400).max(1);
        let (mut values, mut errors) = (0usize, 0usize);
        let mut tally = |r: Result<Value, String>| match r {
            Ok(_) => values += 1,
            Err(msg) => {
                assert!(msg.contains(" at byte "), "{name}: {msg}");
                errors += 1;
            }
        };
        for at in (0..bytes.len()).step_by(step).chain([bytes.len() - 1]) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x20;
            tally(read(&flipped));
            let mut deleted = bytes.clone();
            deleted.remove(at);
            tally(read(&deleted));
            for &b in &REPLACEMENTS {
                let mut replaced = bytes.clone();
                replaced[at] = b;
                tally(read(&replaced));
            }
            tally(read(&bytes[..at]));
        }
        assert!(values > 0 && errors > 0, "{name}: {values} values, {errors} errors");
    }
}

/// A root holding the committed baselines and, as the current snapshots,
/// the same files with `damaged` standing in for `name`.
fn root_with(dir: &Path, name: &str, damaged: &[u8]) {
    let current = dir.join(bench::CURRENT_DIR);
    fs::create_dir_all(&current).expect("temporary root");
    for (file, bytes) in baselines() {
        fs::write(dir.join("results").join(&file), &bytes).expect("baseline copy");
        let now: &[u8] = if file == name { damaged } else { &bytes };
        fs::write(current.join(&file), now).expect("snapshot copy");
    }
}

#[test]
fn bench_check_fails_on_a_damaged_snapshot_with_a_message() {
    let dir = std::env::temp_dir().join(format!("thermaware-hostile-json-{}", std::process::id()));
    for (name, bytes) in baselines() {
        let half = &bytes[..bytes.len() / 2];
        let mut flipped = bytes.clone();
        let brace = flipped.iter().rposition(|&b| b == b'}').expect("an object");
        flipped[brace] = b']';
        for damaged in [half, flipped.as_slice()] {
            let _ = fs::remove_dir_all(&dir);
            root_with(&dir, &name, damaged);
            let report = bench::check(&dir);
            assert!(!report.clean(), "{name}: a damaged snapshot passed");
            assert!(report.text().contains(&name), "{name}: {}", report.text());

            let out = Command::new(env!("CARGO_BIN_EXE_thermaware-analyze"))
                .args(["bench", "--check", "--root"])
                .arg(&dir)
                .output()
                .expect("the analyzer runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(!out.status.success(), "{name}: exit {:?}", out.status);
            assert!(stdout.contains(&name) && stdout.contains("bench: FAILED"), "{name}: {stdout}");
        }
        // The undamaged copy passes, so the damage is what failed it.
        let _ = fs::remove_dir_all(&dir);
        root_with(&dir, &name, &bytes);
        assert!(bench::check(&dir).clean(), "{name}: {}", bench::check(&dir).text());
    }
    let _ = fs::remove_dir_all(&dir);
}

const LP: &str = "BENCH_lp.json";

/// The committed `BENCH_lp.json` with the Stage-1 sweep's warm pivot
/// count (its first `warm_pivots` member) written as `number`.
fn lp_with_sweep_pivots(number: &str) -> Vec<u8> {
    let text = fs::read_to_string(workspace_root().join("results").join(LP)).expect("baseline reads");
    let key = "\"warm_pivots\": ";
    let at = text.find(key).expect("the sweep's pivot count") + key.len();
    let end = at + text[at..].find(',').expect("a member follows it");
    format!("{}{number}{}", &text[..at], &text[end..]).into_bytes()
}

/// A literal that overflows `f64` is no baseline: read as `+inf` it
/// would let any lower-is-better count pass (`now <= inf`).
#[test]
fn an_overflowing_baseline_fails_the_check_by_name() {
    let dir = std::env::temp_dir().join(format!("thermaware-overflow-check-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    root_with(&dir, LP, &lp_with_sweep_pivots("999999"));
    fs::write(dir.join("results").join(LP), lp_with_sweep_pivots("1e999")).expect("baseline edit");
    let report = bench::check(&dir);
    assert!(!report.clean(), "an overflowing baseline passed:\n{}", report.text());
    assert!(
        report.errors.iter().any(|e| e.contains(LP) && e.contains("baseline") && e.contains(" at byte ")),
        "{}",
        report.text()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Nor is it a snapshot to promote: `bless` refuses by name and leaves
/// every baseline as it was.
#[test]
fn bless_refuses_an_overflowing_snapshot() {
    let dir = std::env::temp_dir().join(format!("thermaware-overflow-bless-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    root_with(&dir, LP, &lp_with_sweep_pivots("1e999"));
    let err = bench::bless(&dir).expect_err("an overflowing snapshot was blessed");
    assert!(err.contains(LP) && err.contains("nothing blessed"), "{err}");
    for (file, bytes) in baselines() {
        let kept = fs::read(dir.join("results").join(&file)).expect("baseline reads");
        assert!(kept == bytes, "{file} changed");
    }
    let _ = fs::remove_dir_all(&dir);
}
