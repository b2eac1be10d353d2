//! Self-check: the analyzer's own `--check` contract holds for the tree
//! this test is running from. Equivalent to the CI gate, but as a plain
//! `cargo test` so a dirty tree fails fast locally with the findings in
//! the assertion message.
//!
//! Clean means: zero unsuppressed findings, zero stale allowlist
//! entries (the shipped `crates/analyze/allowlist.txt` matches the tree
//! *exactly* — every entry still corresponds to a real finding), zero
//! malformed allowlist lines, and every `results/api/<crate>.txt`
//! snapshot matching the current pub surface.

use std::path::PathBuf;
use thermaware_analyze::engine;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn shipped_tree_is_clean_and_allowlist_is_exact() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").is_file(), "not a workspace root: {}", root.display());
    let a = engine::analyze(&root);

    let mut problems = String::new();
    for f in &a.unsuppressed {
        problems.push_str(&format!("  {}: {}:{}: {}\n", f.rule, f.path, f.line, f.message));
    }
    for e in &a.stale_entries {
        problems.push_str(&format!(
            "  stale allowlist entry (allowlist.txt:{}): {} {}:{}\n",
            e.at, e.rule, e.path, e.line
        ));
    }
    for m in &a.malformed {
        problems.push_str(&format!("  {m}\n"));
    }
    assert!(
        a.clean(),
        "tree is not analyze-clean — fix the sites, add `// lint: allow(<rule>): <reason>`, \
         or run `cargo run -p thermaware-analyze -- --bless`:\n{problems}"
    );
}

#[test]
fn entry_manifests_resolve() {
    // The graph rules' entry manifests are name-based and the real tree
    // moves under them. A row that stops resolving silently disables
    // its gate, so every row must still match at least one function in
    // the workspace.
    use thermaware_analyze::callgraph::Graph;
    use thermaware_analyze::rules::graph::{OBS_ENTRIES, PANIC_ENTRIES, TAINT_ENTRIES};
    use thermaware_analyze::workspace::Workspace;

    let ws = Workspace::load(&workspace_root());
    let g = Graph::build(&ws);
    let mut missing = String::new();
    for (label, rows) in [
        ("PANIC_ENTRIES", &PANIC_ENTRIES[..]),
        ("TAINT_ENTRIES", &TAINT_ENTRIES[..]),
        ("OBS_ENTRIES", &OBS_ENTRIES[..]),
    ] {
        for (krate, impl_type, name) in rows {
            if g.find(krate, *impl_type, name).is_empty() {
                let owner = impl_type.map(|t| format!("{t}::")).unwrap_or_default();
                missing.push_str(&format!("  {label}: {krate} {owner}{name}\n"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "entry-manifest rows no longer resolve to any function — the rule \
         silently stopped gating them; update rules/graph.rs:\n{missing}"
    );
}

#[test]
fn analyzer_actually_scanned_the_workspace() {
    // Guard against a silently-empty walk (wrong root, renamed dirs):
    // the real tree has hundreds of findings *before* suppression and
    // a known tracked-debt ledger.
    let a = engine::analyze(&workspace_root());
    assert!(
        a.total_raw() >= 10,
        "implausibly few raw findings ({}) — did the walker find the sources?",
        a.total_raw()
    );
    assert!(
        !a.allowlisted.is_empty() || !a.inline_allowed.is_empty(),
        "the shipped tree carries known suppressed findings; zero means the walk went wrong"
    );
}

#[test]
fn resume_entries_reach_their_trail_code() {
    // The resume is a plain call chain through the trail protocol and
    // the service's part — the floor's checks and epoch included — so `transitive-panic` and `determinism-taint`
    // check everything recovery runs. A step the graph cannot follow (a
    // trait's default method called through a type, say) would drop the
    // code behind it out of both rules without a finding.
    use thermaware_analyze::callgraph::Graph;
    use thermaware_analyze::rules::graph::Entry;
    use thermaware_analyze::workspace::Workspace;

    let ws = Workspace::load(&workspace_root());
    let g = Graph::build(&ws);
    let cases: [((&str, &str), &[Entry]); 1] = [
        (
            ("service", "resume_service"),
            &[
                ("runtime", Some("Trail"), "open"),
                ("runtime", None, "read_envelope"),
                ("runtime", None, "load_snapshot"),
                ("runtime", Some("Trail"), "replay"),
                ("runtime", None, "read_journal"),
                ("service", Some("ServiceState"), "fits"),
                ("service", Some("ServiceEngine"), "from_state"),
                ("service", None, "plan_fits"),
                ("service", Some("ServiceEngine"), "inputs_fit"),
                ("service", Some("ServiceEngine"), "step_with"),
                ("runtime", Some("Floor"), "fits"),
                ("runtime", Some("Floor"), "accepts"),
                ("runtime", Some("Floor"), "epoch"),
            ],
        ),
    ];
    let mut missing = String::new();
    for ((krate, entry), wanted) in cases {
        let entries = g.find(krate, None, entry);
        assert_eq!(entries.len(), 1, "entry {krate}::{entry}");
        let reached = g.reach(&entries, false);
        for (c, impl_type, name) in wanted {
            let found = g.find(c, *impl_type, name);
            assert!(!found.is_empty(), "{c} {impl_type:?} {name} is not in the graph");
            if !found.iter().any(|id| reached.contains_key(id)) {
                let owner = impl_type.map(|t| format!("{t}::")).unwrap_or_default();
                missing.push_str(&format!("  {krate}::{entry} does not reach {c}::{owner}{name}\n"));
            }
        }
    }
    assert!(missing.is_empty(), "the graph rules lost part of a resume path:\n{missing}");
}
