//! The call-graph rules: `transitive-panic`, `determinism-taint`,
//! `obs-coverage` (DESIGN.md §14).
//!
//! The per-file token rules fence what a line *is*; these fence what an
//! entry point can *reach*. All three share one [`Graph`] built per
//! analysis and one entry-point manifest style: `(crate, impl type,
//! fn name)` rows resolved against the graph. A row that stops
//! resolving is caught by the self-check test (`entry_manifests_resolve`
//! in `tests/selfcheck.rs`), not by a runtime finding — the golden
//! fixture workspaces deliberately contain only fragments of the real
//! tree and must not drown in missing-entry noise.
//!
//! - **`transitive-panic`** — nothing reachable from a solve/replan/
//!   resume entry may hit `.unwrap()` or a `panic!`-family macro. BFS
//!   over unguarded edges (`catch_unwind`/`spawn` arguments are panic
//!   boundaries by design — the shard pool *harvests* zone panics);
//!   each finding lands on the panic site and carries the shortest
//!   witness call path from an entry.
//! - **`determinism-taint`** — nothing reachable from a replay-path
//!   entry may read wall-clock/entropy or touch `HashMap`/`HashSet`.
//!   Guards do **not** stop taint (a caught panic is contained; a
//!   caught clock read still happened), so this BFS traverses guarded
//!   edges. Obs-gated timing is exempt, same contract as the token
//!   `determinism` rule.
//! - **`obs-coverage`** — every public solve/replan/resume entry must
//!   open an `obs` span in its own crate, directly or via some function
//!   it reaches (delegating wrappers like `Solver::solve` →
//!   `three_stage_impl` count). A span opened only in *another* crate
//!   does not: that instrumentation names someone else's subsystem, and
//!   accepting it would let any entry ride on the one span left in the
//!   workspace.
//!
//! Findings land on the offending *site* (panic/taint source) or the
//! *entry* (missing span), so the existing suppression machinery —
//! inline `// lint: allow(rule): reason` and the tracked allowlist —
//! applies unchanged.

use super::Finding;
use crate::callgraph::{qualified, Graph, NodeId};
use crate::workspace::Workspace;

/// One entry-point manifest row: `(crate, impl type, fn name)`.
pub type Entry = (&'static str, Option<&'static str>, &'static str);

/// The panic-free surface: everything a caller can invoke to get a
/// plan, plus the crash-recovery and supervision paths that must
/// survive chaos drills without unwinding.
pub const PANIC_ENTRIES: [Entry; 19] = [
    ("core", Some("Solver"), "solve"),
    ("core", Some("Solver"), "solve_at"),
    ("core", Some("Solver"), "baseline"),
    ("core", Some("Solver"), "stage3_replan"),
    ("core", None, "solve_stage1"),
    ("core", None, "solve_stage3"),
    ("core", None, "solve_stage3_warm"),
    ("core", None, "solve_min_power"),
    ("core", None, "solve_exact"),
    ("shard", Some("FleetSolver"), "replan"),
    ("shard", None, "solve_zone"),
    ("shard", None, "solve_monolithic"),
    ("service", Some("ServiceEngine"), "step"),
    ("service", Some("ServiceEngine"), "step_with"),
    ("service", Some("ServiceEngine"), "wants_replan"),
    ("service", None, "resume_service"),
    ("service", Some("Supervisor"), "run"),
    ("service", Some("Supervisor"), "resume"),
    ("service", Some("SupervisedRun"), "step"),
];

/// The replay surface: entries whose re-execution must be bit-identical
/// to the original run (journal CRCs check exactly this). The solver
/// crates themselves are fully covered by the token `determinism` rule;
/// these are the orchestration entries whose *helpers* could hide a
/// clock read in a file the token rule does not scope.
pub const TAINT_ENTRIES: [Entry; 7] = [
    ("service", Some("ServiceEngine"), "step"),
    ("service", Some("ServiceEngine"), "step_with"),
    ("service", Some("ServiceEngine"), "wants_replan"),
    ("service", None, "resume_service"),
    ("shard", Some("FleetSolver"), "replan"),
    ("shard", None, "solve_zone"),
    ("shard", None, "solve_monolithic"),
];

/// Public solve/replan/resume entries that must stay instrumented
/// (PR 3's span tree is what EXPERIMENTS.md traces are cut from; an
/// uninstrumented entry rots silently until someone needs the trace).
pub const OBS_ENTRIES: [Entry; 8] = [
    ("core", Some("Solver"), "solve"),
    ("core", Some("Solver"), "solve_at"),
    ("core", Some("Solver"), "baseline"),
    ("shard", Some("FleetSolver"), "replan"),
    ("service", Some("ServiceEngine"), "step_with"),
    ("service", None, "resume_service"),
    ("service", Some("Supervisor"), "run"),
    ("service", Some("SupervisedRun"), "step"),
];

/// Run all three graph rules over one shared graph.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let g = Graph::build(ws);
    let mut out = Vec::new();
    transitive_panic(ws, &g, &mut out);
    determinism_taint(ws, &g, &mut out);
    obs_coverage(ws, &g, &mut out);
    out
}

/// Resolve manifest rows against the graph; rows absent from this
/// workspace (fixture fragments) resolve to nothing.
fn resolve(g: &Graph, entries: &[Entry]) -> Vec<NodeId> {
    let mut ids = Vec::new();
    for (krate, impl_type, name) in entries {
        ids.extend(g.find(krate, *impl_type, name));
    }
    ids
}

fn transitive_panic(ws: &Workspace, g: &Graph, out: &mut Vec<Finding>) {
    let entries = resolve(g, &PANIC_ENTRIES);
    let parents = g.reach(&entries, /*skip_guarded=*/ true);
    for &id in parents.keys() {
        let node = &g.nodes[id];
        if node.panic_sites.is_empty() {
            continue;
        }
        let w = g.witness(&parents, id);
        let entry = &g.nodes[w.path[0]];
        let file = &ws.files[node.file];
        for (line, what) in &node.panic_sites {
            out.push(Finding {
                rule: "transitive-panic",
                path: file.path.clone(),
                line: *line,
                message: format!(
                    "{what} in `{}` is reachable from entry `{}::{}` ({} call(s) deep) — return an error instead",
                    qualified(node),
                    entry.crate_name,
                    qualified(entry),
                    w.path.len() - 1,
                ),
                snippet: file.line_text(*line).to_string(),
                witness: witness_with_site(ws, g, &w, &file.path, *line, what),
            });
        }
    }
}

fn determinism_taint(ws: &Workspace, g: &Graph, out: &mut Vec<Finding>) {
    let entries = resolve(g, &TAINT_ENTRIES);
    let parents = g.reach(&entries, /*skip_guarded=*/ false);
    for &id in parents.keys() {
        let node = &g.nodes[id];
        if node.taint_sources.is_empty() {
            continue;
        }
        let w = g.witness(&parents, id);
        let entry = &g.nodes[w.path[0]];
        let file = &ws.files[node.file];
        for (line, what) in &node.taint_sources {
            out.push(Finding {
                rule: "determinism-taint",
                path: file.path.clone(),
                line: *line,
                message: format!(
                    "{what}; `{}` is on the replay path of entry `{}::{}` ({} call(s) deep)",
                    qualified(node),
                    entry.crate_name,
                    qualified(entry),
                    w.path.len() - 1,
                ),
                snippet: file.line_text(*line).to_string(),
                witness: witness_with_site(ws, g, &w, &file.path, *line, what),
            });
        }
    }
}

fn obs_coverage(ws: &Workspace, g: &Graph, out: &mut Vec<Finding>) {
    for id in resolve(g, &OBS_ENTRIES) {
        let entry = &g.nodes[id];
        let parents = g.reach(&[id], /*skip_guarded=*/ false);
        let covered = parents
            .keys()
            .any(|&r| g.nodes[r].opens_span && g.nodes[r].crate_name == entry.crate_name);
        if covered {
            continue;
        }
        let file = &ws.files[entry.file];
        out.push(Finding {
            rule: "obs-coverage",
            path: file.path.clone(),
            line: entry.line,
            message: format!(
                "public entry `{}::{}` never opens an obs span (directly or via any reachable fn in `{}`) — add `let _span = thermaware_obs::span(\"…\");`",
                entry.crate_name,
                qualified(entry),
                entry.crate_name,
            ),
            snippet: file.line_text(entry.line).to_string(),
            witness: Vec::new(),
        });
    }
}

/// Witness path strings: the call chain entry → … → containing fn, then
/// the site itself as the final hop.
fn witness_with_site(
    ws: &Workspace,
    g: &Graph,
    w: &crate::callgraph::Witness,
    site_path: &str,
    site_line: usize,
    what: &str,
) -> Vec<String> {
    let mut steps = g.witness_strings(ws, w);
    steps.push(format!("{site_path}:{site_line} {what}"));
    steps
}
