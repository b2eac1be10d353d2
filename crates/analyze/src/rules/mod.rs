//! The rule set. Each rule is a function from the loaded [`Workspace`]
//! to a list of [`Finding`]s; the engine (in [`crate::engine`]) applies
//! inline-allow escapes and the tracked allowlist afterwards, so rules
//! themselves only report raw violations.
//!
//! | rule                | invariant it fences                                        |
//! |---------------------|------------------------------------------------------------|
//! | `determinism`       | bit-identical checkpoint replay (DESIGN.md §7)             |
//! | `float-eq`          | numerical conventions — no exact compares on computed f64  |
//! | `panic-free`        | panic-free solver paths (DESIGN.md §6)                     |
//! | `layering`          | the crate DAG: obs at the bottom, facade-only re-exports   |
//! | `api-snapshot`      | reviewable `pub` surface drift under `results/api/`        |
//! | `transitive-panic`  | no panic reachable from solve/replan/resume entries (§14)  |
//! | `determinism-taint` | no clock/entropy reachable from replay entries (§14)       |
//! | `obs-coverage`      | every public solve entry opens an obs span (§14)           |
//!
//! The last three are call-graph rules ([`graph`]): instead of judging a
//! line by its file, they judge it by what the workspace's entry points
//! can reach, and each finding carries a witness call path.

pub mod api;
pub mod determinism;
pub mod float_eq;
pub mod graph;
pub mod layering;
pub mod panic_free;

use crate::workspace::Workspace;
use serde::Serialize;

/// Rule names, in report order.
pub const RULES: [&str; 8] = [
    "determinism",
    "float-eq",
    "panic-free",
    "layering",
    "api-snapshot",
    "transitive-panic",
    "determinism-taint",
    "obs-coverage",
];

/// One violation at a specific line of a workspace file; it prints as
/// one object of the JSON report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line (0 for file-level findings such as a missing API
    /// snapshot).
    pub line: usize,
    /// Human-oriented explanation, including the fix direction.
    pub message: String,
    /// Trimmed text of the offending line (used by the allowlist to
    /// detect stale entries when the code under an entry changes).
    pub snippet: String,
    /// For call-graph findings: the shortest witness call path from an
    /// entry point to the offending site, one `path:line fn` step per
    /// element. Empty for per-file findings.
    pub witness: Vec<String>,
}

/// Run every rule over the workspace. Findings are sorted by
/// (path, line, rule) for stable reports.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(determinism::check(ws));
    findings.extend(float_eq::check(ws));
    findings.extend(panic_free::check(ws));
    findings.extend(layering::check(ws));
    findings.extend(api::check(ws));
    findings.extend(graph::check(ws));
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    findings
}
