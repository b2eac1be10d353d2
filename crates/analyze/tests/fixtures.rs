//! Golden tests: run the full engine over the seeded-violation fixture
//! workspace in `tests/fixtures/violations/` and assert every rule
//! flags exactly the lines it was seeded to flag — no more, no fewer.
//!
//! The fixture tree is *data*, never compiled and never scanned when
//! the analyzer runs on the real workspace (the walker skips `fixtures`
//! directories), so the violations in it are permanent.

use std::path::PathBuf;
use thermaware_analyze::engine::{self, Analysis};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

fn analysis() -> Analysis {
    let root = fixture_root();
    assert!(
        root.join("crates/lp/Cargo.toml").is_file(),
        "fixture tree missing at {}",
        root.display()
    );
    engine::analyze(&root)
}

/// `(rule, path, line)` projection for order-sensitive comparison.
fn keys(findings: &[thermaware_analyze::rules::Finding]) -> Vec<(String, String, usize)> {
    findings
        .iter()
        .map(|f| (f.rule.to_string(), f.path.clone(), f.line))
        .collect()
}

#[test]
fn every_rule_flags_its_seeded_lines_exactly() {
    let a = analysis();
    let lib = "crates/lp/src/lib.rs";
    let expected: Vec<(String, String, usize)> = [
        // Sorted by (path, line, rule) — the engine's report order.
        ("obs-coverage", "crates/core/src/lib.rs", 19), // un-spanned entry point
        ("panic-free", "crates/core/src/picker.rs", 7), // token rule sees the unwrap locally…
        ("transitive-panic", "crates/core/src/picker.rs", 7), // …and the graph rule sees it from the entry
        ("layering", "crates/lp/Cargo.toml", 5),  // dag: lp -> core inverted edge
        ("layering", "crates/lp/Cargo.toml", 6),  // unused-dep: linalg never referenced
        ("determinism", "crates/lp/src/dispatch.rs", 4), // is_x86_feature_detected! outside linalg::kernel
        ("determinism", lib, 8),                  // Instant::now, ungated
        ("determinism", lib, 12),                 // HashMap in return type
        ("determinism", lib, 13),                 // HashMap::new
        ("float-eq", lib, 21),                    // a == 0.0
        ("float-eq", lib, 21),                    // a != 1.5
        ("panic-free", lib, 29),                  // .unwrap()
        ("panic-free", lib, 31),                  // unreachable!
        ("float-eq", lib, 55),                    // float == inside #[cfg(test)] — still flagged
        ("determinism-taint", "crates/runtime/src/entropy.rs", 7), // thread_rng behind a re-export
        ("layering", "crates/thermal/src/lib.rs", 2), // pub use thermaware_* outside facade
        ("api-snapshot", "results/api/lp.txt", 0),    // ghost_item removal drift
        ("api-snapshot", "results/api/thermal.txt", 0), // snapshot missing entirely
    ]
    .into_iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), l))
    .collect();
    assert_eq!(keys(&a.unsuppressed), expected);
    assert!(!a.clean(), "seeded fixture must fail --check");
}

#[test]
fn inline_allow_suppresses_the_next_line_only() {
    let a = analysis();
    assert_eq!(
        keys(&a.inline_allowed),
        vec![("float-eq".to_string(), "crates/lp/src/lib.rs".to_string(), 38)],
        "the `// lint: allow(float-eq)` escape on line 37 covers line 38"
    );
    // The escape must not bleed onto other float compares in the file.
    assert!(a.unsuppressed.iter().any(|f| f.rule == "float-eq" && f.line == 21));
}

#[test]
fn allowlist_matches_one_finding_and_reports_the_stale_entry() {
    let a = analysis();
    assert_eq!(
        keys(&a.allowlisted),
        vec![("float-eq".to_string(), "crates/lp/src/lib.rs".to_string(), 45)],
    );
    assert_eq!(a.stale_entries.len(), 1, "the line-999 entry matches nothing");
    assert_eq!(a.stale_entries[0].line, 999);
    assert_eq!(a.stale_entries[0].rule, "panic-free");
    assert!(a.malformed.is_empty());
}

#[test]
fn test_regions_exempt_panic_free_and_determinism_but_not_float_eq() {
    let a = analysis();
    let in_test_mod = |f: &thermaware_analyze::rules::Finding| {
        f.path == "crates/lp/src/lib.rs" && f.line >= 48
    };
    // Lines 53/54 hold `.unwrap()` and `Instant::now()` inside
    // `#[cfg(test)] mod tests` — neither rule may fire there…
    assert!(!a
        .unsuppressed
        .iter()
        .any(|f| in_test_mod(f) && (f.rule == "panic-free" || f.rule == "determinism")));
    // …while float-eq deliberately covers tests (line 55).
    assert!(a
        .unsuppressed
        .iter()
        .any(|f| in_test_mod(f) && f.rule == "float-eq" && f.line == 55));
}

#[test]
fn to_bits_compare_is_exempt_from_float_eq() {
    let a = analysis();
    let all = a
        .unsuppressed
        .iter()
        .chain(a.allowlisted.iter())
        .chain(a.inline_allowed.iter());
    // Line 25 compares f64 bit patterns — the sanctioned exact form.
    assert!(!all
        .into_iter()
        .any(|f| f.rule == "float-eq" && f.path == "crates/lp/src/lib.rs" && f.line == 25));
}

#[test]
fn finding_snippets_carry_the_offending_line() {
    let a = analysis();
    let unwrap_site = a
        .unsuppressed
        .iter()
        .find(|f| f.rule == "panic-free" && f.line == 29)
        .expect("seeded .unwrap() finding");
    assert_eq!(unwrap_site.snippet, "let v = xs.first().unwrap();");
    let dag = a
        .unsuppressed
        .iter()
        .find(|f| f.rule == "layering" && f.line == 5)
        .expect("seeded dag finding");
    assert!(dag.message.contains("`lp` must not depend on `core`"), "{}", dag.message);
}

#[test]
fn transitive_panic_witness_is_the_exact_call_chain() {
    let a = analysis();
    let f = a
        .unsuppressed
        .iter()
        .find(|f| f.rule == "transitive-panic")
        .expect("seeded transitive-panic finding");
    assert_eq!(
        f.witness,
        vec![
            "crates/core/src/lib.rs:19 Solver::solve",
            "crates/core/src/lib.rs:24 plan",
            "crates/core/src/picker.rs:6 deep_pick",
            "crates/core/src/picker.rs:7 .unwrap()",
        ],
        "witness must walk entry -> wrapper -> re-exported helper -> site"
    );
    assert!(f.message.contains("2 call(s) deep"), "{}", f.message);
}

#[test]
fn determinism_taint_sees_through_the_cross_crate_reexport() {
    let a = analysis();
    let f = a
        .unsuppressed
        .iter()
        .find(|f| f.rule == "determinism-taint")
        .expect("seeded determinism-taint finding");
    // `FleetSolver::replan` imports `seed_epoch` via
    // `thermaware_runtime`'s lib.rs re-export; the witness must still
    // land on the defining module, not the re-export.
    assert_eq!(
        f.witness,
        vec![
            "crates/shard/src/solver.rs:13 FleetSolver::replan",
            "crates/runtime/src/entropy.rs:6 seed_epoch",
            "crates/runtime/src/entropy.rs:7 thread_rng — ambient entropy",
        ]
    );
}

#[test]
fn spanned_entry_passes_obs_coverage() {
    let a = analysis();
    // The shard fixture's `replan` opens `thermaware_obs::span(…)` in
    // its own body: obs-coverage must fire only for the core entry.
    let obs: Vec<_> = a.unsuppressed.iter().filter(|f| f.rule == "obs-coverage").collect();
    assert_eq!(obs.len(), 1);
    assert_eq!(obs[0].path, "crates/core/src/lib.rs");
}

#[test]
fn api_drift_names_the_ghost_item() {
    let a = analysis();
    let removal = a
        .unsuppressed
        .iter()
        .find(|f| f.rule == "api-snapshot" && f.path == "results/api/lp.txt")
        .expect("seeded removal drift");
    assert_eq!(removal.snippet, "pub fn ghost_item() -> u64");
    assert!(removal.message.contains("removal"), "{}", removal.message);
}
