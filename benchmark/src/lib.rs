//! The repo benchmark harness: four workloads over the public API of the
//! `thermaware` crates, a closed measuring loop, a counting allocator and
//! span-tree self times. `main.rs` is the command line; the contract it
//! answers to is `../BENCHMARK.json`, the reasoning is in `README.md`.

pub mod alloc;
pub mod dispatch_stream;
pub mod fleet_replan;
pub mod harness;
pub mod room_plan;
pub mod selftime;
pub mod service_surge;
pub mod stats;

use serde_json::Value;
use std::path::PathBuf;

/// Files the harness writes (traces, the service store) live here, next
/// to the harness and inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under
/// `section` (`end_to_end` or `per_layer`), in file order. The file is
/// the single list of metric names; the harness fills it in.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    let text = |m: &Value, key: &str| {
        m.get(key)
            .and_then(Value::as_str)
            .expect("every metric has a name and a unit")
            .to_string()
    };
    doc.get(section)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json has the section")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}
