//! Size-based rotation of the JSONL sink: the active trace rolls over
//! to numbered generations (`trace.jsonl` → `trace.1.jsonl` → …), the
//! oldest generation is deleted beyond `keep`, every generation starts
//! with its own `meta` header, and no span line is ever split across
//! files.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use thermaware_obs::JsonlRecorder;

fn assert_parses_standalone(path: &Path) {
    let text = fs::read_to_string(path).expect("readable generation");
    let mut lines = text.lines();
    let head = lines.next().expect("non-empty generation");
    assert!(
        head.contains("\"type\":\"meta\""),
        "{}: first line must be the meta header, got: {head}",
        path.display()
    );
    for line in lines {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("{}: unparseable line {line}: {e}", path.display()));
        assert!(v.get("type").is_some());
    }
}

/// The rotation limit `create_rotating` clamps a smaller one up to.
const LIMIT: u64 = 4 * 1024;

#[test]
fn rotation_shifts_generations_and_bounds_disk() {
    let dir = std::env::temp_dir().join("thermaware-obs-rotation");
    fs::create_dir_all(&dir).expect("mkdir");
    let trace = dir.join("trace.jsonl");
    for gen in 1..=5 {
        let _ = fs::remove_file(dir.join(format!("trace.{gen}.jsonl")));
    }

    // ~120-byte span lines (their length moves with the digits of
    // `start_us`) against the 4 KiB limit: a rotation every ~33 lines,
    // so 500 spans force several through the keep=2 window.
    let rec = Arc::new(JsonlRecorder::create_rotating(&trace, 1, 2).expect("recorder"));
    {
        let _install = thermaware_obs::install(rec.clone());
        for _ in 0..499 {
            let _span = thermaware_obs::span("rotation_probe_span");
        }
        let _last = thermaware_obs::span("rotation_last_span");
    }
    rec.flush().expect("flush");

    let gen1 = dir.join("trace.1.jsonl");
    let gen2 = dir.join("trace.2.jsonl");
    let gen3 = dir.join("trace.3.jsonl");
    assert!(trace.exists(), "active trace present");
    assert!(gen1.exists(), "generation 1 present");
    assert!(gen2.exists(), "generation 2 present");
    assert!(!gen3.exists(), "keep=2 must delete generation 3");

    // A generation rotates out when the next line would not fit: it is
    // within one line of the limit, never over it.
    let texts: Vec<String> = [&trace, &gen1, &gen2]
        .iter()
        .map(|p| fs::read_to_string(p).expect("readable generation"))
        .collect();
    let longest = texts
        .iter()
        .flat_map(|t| t.lines())
        .map(|l| l.len() as u64 + 1)
        .max()
        .expect("span lines on disk");
    for (path, text) in [(&gen1, &texts[1]), (&gen2, &texts[2])] {
        let bytes = text.len() as u64;
        assert!(
            bytes <= LIMIT && bytes + longest > LIMIT,
            "{}: {bytes} bytes, lines up to {longest}",
            path.display()
        );
    }
    let last = texts[0]
        .lines()
        .last()
        .expect("the active file holds spans");
    assert!(
        last.contains("rotation_last_span"),
        "the newest span is in the active file: {last}"
    );

    rec.finish().expect("finish");
    for path in [&trace, &gen1, &gen2] {
        assert_parses_standalone(path);
    }
}
