//! Hostile bytes through the bench gate's JSON reader: every committed
//! `results/BENCH_*.json`, damaged at every k-th byte — flipped, deleted,
//! replaced, cut off there — reads as a `Value` or a `ParseError`, never
//! a panic; nesting stops at `MAX_DEPTH` exactly; and `bench --check`
//! over a damaged current snapshot fails with a message naming the file.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use thermaware_analyze::bench;
use thermaware_analyze::json::{parse, Value};

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

/// A reader that returns at all is the property; `parse` takes text, as
/// `bench::check` reads a file into a `String` first, so bytes that are
/// not UTF-8 go in as the lossy text of them.
fn read(bytes: &[u8]) -> Result<Value, String> {
    parse(&String::from_utf8_lossy(bytes)).map_err(|e| e.to_string())
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

/// `MAX_DEPTH` is 64: a scalar inside 64 containers reads, inside 65 it
/// is refused by name, arrays and objects alike, and a file can hold a
/// nest far deeper than the bound without reaching the stack's.
#[test]
fn nesting_stops_at_the_bound() {
    let arrays = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
    for nest in [arrays, objects] {
        assert!(parse(&nest(64)).is_ok());
        let err = parse(&nest(65)).unwrap_err();
        assert!(err.msg.contains("nesting too deep"), "{err}");
        assert!(parse(&nest(100_000)).is_err());
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
